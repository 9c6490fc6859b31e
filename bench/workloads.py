"""The five benchmark workloads: inputs from a seed, systems under test.

Everything a run feeds the engine derives from ``(seed, scale)`` alone:
:meth:`Workload.inputs` generates raw rows (plain dicts — what
``bench/reference.py`` reads), parameter bindings and the closed-loop op
script; :meth:`Workload.load` turns the raw rows into stores, catalogs and
``QueryService`` instances.  The engine only ever sees the generated
inputs, never the seed.

Row *counts*, key multisets, match fractions and the op mix are fixed per
workload; the seed only permutes which row carries which value and the
order of ops inside a pass, so latency distributions stay comparable
across seeds.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from bench import reference as R

NPROC = os.cpu_count() or 1
#: pool size for ``pool_copart``: the service needs >= 2 to enable the tier
POOL_WORKERS = max(2, min(NPROC, 4))


@dataclass(frozen=True)
class Shape:
    """One query shape: OOSQL text, its class, bindings and reference."""

    name: str
    cls: str
    store: str
    text: str
    reference: Callable
    bindings: Tuple[dict, ...]


@dataclass
class Inputs:
    """Seed-derived inputs of one workload."""

    raw: Dict[str, Dict[str, list]]          # store -> extent -> raw rows
    shapes: List[Shape]
    #: per client, one pass: ``("q", shape_index, binding_index)`` or
    #: ``("w", kind, rows)`` for a sessions_rw write batch
    scripts: List[List[tuple]]
    sizes: Dict[str, int] = field(default_factory=dict)
    #: stores the repo's own generators hand back ready-made (compile_cold)
    prebuilt: Dict[str, object] = field(default_factory=dict)


@dataclass
class Store:
    db: object
    schema: object
    catalog: object
    svc: object


class System:
    """Stores + services of one workload, with build-phase timings (s)."""

    def __init__(self) -> None:
        self.stores: Dict[str, Store] = {}
        self.phases: Dict[str, float] = {
            "generate": 0.0, "analyze": 0.0, "index": 0.0, "partition": 0.0, "service": 0.0,
        }

    def timed(self, phase: str, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.phases[phase] += time.perf_counter() - start
        return out

    def close(self) -> None:
        for store in self.stores.values():
            store.svc.close()
        self.stores.clear()


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(n * scale))


def _to_value(value):
    """Canonical raw value -> engine value (no oids in generated rows)."""
    from repro.datamodel.values import VTuple

    if isinstance(value, frozenset):
        return frozenset(_to_value(v) for v in value)
    if isinstance(value, tuple):
        return VTuple({k: _to_value(v) for k, v in value})
    return value


def _vtuples(rows):
    from repro.datamodel.values import VTuple

    return [VTuple({k: _to_value(v) for k, v in row.items()}) for row in rows]


def _flat_types(**extents):
    from repro.datamodel import INT, Catalog as TypeCatalog, SetType, TupleType

    def tuple_type(spec):
        return TupleType(
            {a: (SetType(tuple_type(t)) if isinstance(t, dict) else INT) for a, t in spec.items()}
        )

    return TypeCatalog({name: SetType(tuple_type(spec)) for name, spec in extents.items()})


def _interleave(counts: Dict[int, int], n_bindings: int) -> List[tuple]:
    """A pass with ``counts[shape]`` ops per shape spread evenly through it,
    bindings cycling.  The order is the same for every seed (the seed
    permutes the bindings themselves), so a seed cannot change how often
    consecutive ops switch shape."""
    ops = []
    for shape_index, count in counts.items():
        for j in range(count):
            ops.append(((j + 0.5) / count, shape_index, j % n_bindings))
    return [("q", si, bi) for _, si, bi in sorted(ops)]


class Workload:
    name = ""
    clients = 1
    cold_cache = False        # the service runs with its plan cache off
    pool_workers = 0          # > 0: the service plans for a process pool
    mutates = False           # the script writes, so answers depend on the write log

    def inputs(self, seed: int, scale: float) -> Inputs:
        raise NotImplementedError

    def small(self, seed: int) -> Inputs:
        """Reduced-scale inputs for the interpreter oracle (level a)."""
        return self.inputs(seed, 0.01)

    def load(self, inputs: Inputs) -> System:
        raise NotImplementedError

    def load_small(self, inputs: Inputs) -> System:
        return self.load(inputs)

    def _memory_store(self, system, raw, types) -> Store:
        """An analyzed ``MemoryDatabase`` over ``raw`` (service not built yet)."""
        from repro.storage.catalog import Catalog
        from repro.storage.store import MemoryDatabase

        db = system.timed(
            "generate", lambda: MemoryDatabase({n: _vtuples(rows) for n, rows in raw.items()})
        )
        catalog = Catalog(db)
        system.timed("analyze", catalog.analyze)
        return Store(db, types, catalog, None)


# ---------------------------------------------------------------------------
# compile_cold
# ---------------------------------------------------------------------------


class CompileCold(Workload):
    """Plan cache off over paper-scale data, so parse, typecheck, translate,
    rewrite pricing, join order and planning are nearly all of each op;
    bypasses batch kernels and the shard tier."""

    name = "compile_cold"
    cold_cache = True

    def inputs(self, seed: int, scale: float) -> Inputs:
        # paper-scale by definition: ``scale`` is ignored
        from repro.workload.generator import generate_database, generate_xy
        from repro.workload.paper_db import section4_database
        from repro.workload.queries import OOSQL_EXAMPLES

        rng = random.Random(seed)
        spd = generate_database(seed=seed)
        xy = generate_xy(12, 16, key_domain=6, fanout_attr=True, seed=seed)
        s4 = section4_database()
        raw = {
            "spd": {n: R.raw_rows(spd.extent(n)) for n in ("PART", "SUPPLIER", "DELIVERY")},
            "xy": {n: R.raw_rows(xy.extent(n)) for n in ("X", "Y")},
            "s4": {n: R.raw_rows(s4.extent(n)) for n in ("SUPPLIER", "PART")},
        }
        none = ({},) * 4
        prices = tuple({"k": k} for k in rng.sample((20, 40, 60, 80), 4))
        es = tuple({"k": k} for k in rng.sample((1, 2, 3, 4), 4))
        colors = tuple({"c": c} for c in rng.sample(("red", "green", "blue", "yellow"), 4))
        sub = "(select y from y in Y where x.a = y.d)"
        shapes = [
            Shape("example_1", "paper_example", "spd", OOSQL_EXAMPLES["example-1"], R.cc_example_1, none),
            Shape("example_2", "paper_example", "spd", OOSQL_EXAMPLES["example-2"], R.cc_example_2, none),
            Shape("example_3_1", "paper_example", "spd", OOSQL_EXAMPLES["example-3.1"], R.cc_example_3_1, none),
            Shape("example_3_2", "paper_example", "spd", OOSQL_EXAMPLES["example-3.2"], R.cc_example_3_2, none),
            Shape(
                "nested_select", "nested_select", "spd",
                "select (sname = s.sname, ds = select d.date from d in DELIVERY "
                "where d.supplier = s.oid) from s in SUPPLIER",
                R.cc_nested_select, none,
            ),
            Shape(
                "chain", "chain", "spd",
                "select d.date from d in DELIVERY where exists s in SUPPLIER : "
                "d.supplier = s.oid and exists p in PART : "
                "p.oid in s.parts_supplied and p.price < $k",
                R.cc_chain, prices,
            ),
            Shape("subseteq", "setcmp", "xy", f"select x.i from x in X where x.c subseteq {sub}", R.cc_subseteq, none),
            Shape("superseteq", "setcmp", "xy", f"select x.i from x in X where x.c superseteq {sub}", R.cc_superseteq, none),
            Shape("seteq", "setcmp", "xy", f"select x.i from x in X where x.c = {sub}", R.cc_seteq, none),
            Shape(
                "in", "quantifier", "xy",
                "select x.i from x in X where x.a in (select y.d from y in Y where y.e < $k)",
                R.cc_in, es,
            ),
            Shape(
                "notexists", "quantifier", "xy",
                "select x.i from x in X where not exists y in Y : x.a = y.d and y.e < $k",
                R.cc_notexists, es,
            ),
            Shape(
                "forall", "quantifier", "xy",
                "select x.i from x in X where forall y in Y : x.a != y.d or y.e < $k",
                R.cc_forall, es,
            ),
            Shape("count", "nested_select", "xy", f"select (i = x.i, n = count{sub}) from x in X", R.cc_count, none),
            Shape("fig3", "nested_select", "xy", f"select (i = x.i, ys = {sub[1:-1]}) from x in X", R.cc_fig3, none),
            Shape(
                "example_5", "quantifier", "s4",
                "select s.sname from s in SUPPLIER where exists x in s.parts : "
                "exists p in PART : (pid = p.pid) = x and p.color = $c",
                R.cc_example_5, colors,
            ),
            Shape(
                "example_6", "nested_select", "s4",
                "select (sname = s.sname, parts_suppl = select p.pname from p in PART "
                "where (pid = p.pid) in s.parts) from s in SUPPLIER",
                R.cc_example_6, none,
            ),
        ]
        # round-robin over the shapes, four times, bindings rotating
        script = [("q", i, j) for j in range(4) for i in range(len(shapes))]
        return Inputs(
            raw, shapes, [script], {"shapes": len(shapes)},
            prebuilt={"spd": spd, "xy": xy, "s4": s4},
        )

    def small(self, seed: int) -> Inputs:
        return self.inputs(seed, 1.0)

    def load(self, inputs: Inputs) -> System:
        from repro.datamodel import INT, Catalog as TypeCatalog, SetType, TupleType
        from repro.service import QueryService
        from repro.storage.catalog import Catalog
        from repro.workload.paper_db import section4_catalog

        member = TupleType({"d": INT, "e": INT})
        xy_types = TypeCatalog(
            {
                "X": SetType(TupleType({"a": INT, "i": INT, "c": SetType(member)})),
                "Y": SetType(member),
            }
        )
        system = System()
        dbs = inputs.prebuilt
        schemas = {"spd": dbs["spd"].schema, "xy": xy_types, "s4": section4_catalog()}
        for name, db in dbs.items():
            catalog = Catalog(db)
            system.timed("analyze", catalog.analyze)
            svc = system.timed(
                "service", QueryService, db, schemas[name], catalog, cache_size=0
            )
            system.stores[name] = Store(db, schemas[name], catalog, svc)
        return system


# ---------------------------------------------------------------------------
# X/Y generators shared by the warm workloads
# ---------------------------------------------------------------------------


def _gen_xy(rng, nx, ny, key_domain, dangling_share, with_sets):
    """X(a, b[, c]) and Y(d, e) with fixed cardinalities: every key of
    ``range(key_domain)`` has ``ny / key_domain`` Y rows, a fixed share of
    X rows dangle (key outside the domain), ``b`` / ``e`` are unique."""
    e_perm = list(range(ny))
    rng.shuffle(e_perm)
    ys = [{"d": j % key_domain, "e": e_perm[j]} for j in range(ny)]
    n_dangling = int(nx * dangling_share)
    keys = [key_domain + i for i in range(n_dangling)]
    keys += [i % key_domain for i in range(nx - n_dangling)]
    rng.shuffle(keys)
    xs = []
    by_d = R._by(ys, "d") if with_sets else None
    for i, key in enumerate(keys):
        row = {"a": key, "b": i}
        if with_sets:
            # sizes cycle 0..3 (a quarter are empty sets); even rows draw
            # members from their own key's Y rows (so c <= subquery can
            # hold), odd rows from anywhere (so it mostly fails)
            pool = by_d.get(key) if i % 2 == 0 and by_d.get(key) else ys
            row["c"] = frozenset(
                R.rec(d=y["d"], e=y["e"]) for y in rng.sample(pool, min(i % 4, len(pool)))
            )
        xs.append(row)
    return xs, ys


def _thresholds(n, fractions):
    return [max(1, int(n * f)) for f in fractions]


class UnnestWarm(Workload):
    """The paper's headline path, warm and serial: semijoin, antijoin,
    nestjoin, COUNT-bug, Figure-1 subset and Example-5 plans, time in hash
    join and nest operators; compile changes must not move it."""

    name = "unnest_warm"
    NX = NY = 4000

    def inputs(self, seed: int, scale: float) -> Inputs:
        rng = random.Random(seed)
        nx = _scaled(self.NX, scale, 40)
        ny = _scaled(self.NY, scale, 40)
        xs, ys = _gen_xy(rng, nx, ny, max(4, ny // 4), 0.3, with_sets=True)
        fr = (0.8, 0.85, 0.9, 0.95, 1.0, 0.825, 0.875, 0.925)
        ks, ms = _thresholds(nx, fr), _thresholds(ny, fr)
        km = tuple({"k": k, "m": m} for k, m in zip(ks, ms))
        k_only = tuple({"k": k} for k in ks)
        m_only = tuple({"m": m} for m in ms)
        shapes = [
            Shape(
                "semijoin", "semijoin", "xy",
                "select x.b from x in X where x.b < $k and exists y in Y : x.a = y.d and y.e < $m",
                R.uw_semijoin, km,
            ),
            Shape(
                "antijoin", "antijoin", "xy",
                "select x.b from x in X where x.b < $k and not exists y in Y : x.a = y.d and y.e < $m",
                R.uw_antijoin, km,
            ),
            Shape(
                "nestjoin", "nestjoin", "xy",
                "select (b = x.b, ys = select y.e from y in Y where x.a = y.d) from x in X where x.b < $k",
                R.uw_nestjoin, k_only,
            ),
            Shape(
                "count_sub", "count_sub", "xy",
                "select (b = x.b, n = count(select y from y in Y where x.a = y.d)) from x in X where x.b < $k",
                R.uw_count_sub, k_only,
            ),
            Shape(
                "subset", "subset", "xy",
                "select x.b from x in X where x.b < $k and x.c subseteq (select y from y in Y where x.a = y.d)",
                R.uw_subset, k_only,
            ),
            Shape(
                "attr_unnest", "attr_unnest", "xy",
                "select x.b from x in X where exists z in x.c : z in (select y from y in Y where y.e < $m)",
                R.uw_attr_unnest, m_only,
            ),
        ]
        # the median op is a semi/antijoin, the tail is the Figure-1 subset query
        counts = {0: 14, 1: 14, 2: 4, 3: 5, 4: 6, 5: 5}
        script = _interleave(counts, 8)
        return Inputs({"xy": {"X": xs, "Y": ys}}, shapes, [script], {"X": nx, "Y": ny})

    def load(self, inputs: Inputs) -> System:
        from repro.service import QueryService

        system = System()
        types = _flat_types(X={"a": 0, "b": 0, "c": {"d": 0, "e": 0}}, Y={"d": 0, "e": 0})
        store = self._memory_store(system, inputs.raw["xy"], types)
        store.svc = system.timed("service", QueryService, store.db, types, store.catalog)
        system.stores["xy"] = store
        return system


class FlatScanJoin(Workload):
    """No nested blocks, so the unnesting rewrites are bypassed: compute-rich
    scan and filter, a wide and a low-match equi-join over heap pages; batch
    kernels, page scans and per-pair emission do the work."""

    name = "flat_scan_join"
    NX, NY = 3000, 1200

    def inputs(self, seed: int, scale: float) -> Inputs:
        rng = random.Random(seed)
        nx = _scaled(self.NX, scale, 40)
        ny = _scaled(self.NY, scale, 16)
        domain = max(4, ny // 4)                  # 4 Y rows per key: wide join = 4 * nx pairs
        keys = [i % domain for i in range(nx)]
        vs, ws = list(range(nx)), list(range(ny))
        for seq in (keys, vs, ws):
            rng.shuffle(seq)
        xs = [{"a": keys[i], "v": vs[i]} for i in range(nx)]
        ys = [{"d": j % domain, "w": ws[j]} for j in range(ny)]
        scan = tuple(
            {"k": int((7 * domain + 3 * nx) * f), "m": -int(domain * g)}
            for f, g in ((0.2, 0.5), (0.3, 1.0), (0.4, 0.25), (0.25, 0.75))
        )
        wide = tuple({"k": k} for k in (1, 3, 5, 7))                     # nearly all of Y passes
        low = tuple({"k": max(2, int(ny * f))} for f in (0.02, 0.03, 0.04, 0.05))
        shapes = [
            Shape(
                "scan_filter", "scan_filter", "pg",
                "select (v = x.v, s = x.a * 3 + x.v) from x in X "
                "where x.a * 7 + x.v * 3 < $k and x.v - x.a * 2 > $m",
                R.fj_scan_filter, scan,
            ),
            Shape(
                "join_wide", "join_wide", "pg",
                "select (v = x.v, w = y.w) from x in X, y in Y where x.a = y.d and y.w * 2 + 1 > $k",
                R.fj_join_wide, wide,
            ),
            Shape(
                "join_low", "join_low", "pg",
                "select (v = x.v, w = y.w) from x in X, y in Y where x.a = y.d and y.w < $k",
                R.fj_join_low, low,
            ),
        ]
        script = _interleave({0: 24, 1: 4, 2: 8}, 4)
        return Inputs({"pg": {"X": xs, "Y": ys}}, shapes, [script], {"X": nx, "Y": ny})

    def load(self, inputs: Inputs) -> System:
        from repro.datamodel.schema import Schema
        from repro.datamodel.types import INT
        from repro.service import QueryService
        from repro.storage.catalog import Catalog
        from repro.storage.store import Database

        system = System()

        def build():
            schema = Schema()
            schema.add_class("X", "X", {"a": INT, "v": INT})
            schema.add_class("Y", "Y", {"d": INT, "w": INT})
            db = Database(schema.freeze(), page_size=512)
            for name in ("X", "Y"):
                for row in inputs.raw["pg"][name]:
                    db.insert(name, row)
            return db

        db = system.timed("generate", build)
        catalog = Catalog(db)
        system.timed("analyze", catalog.analyze)
        # snapshot isolation off: epoch views refuse page-wise scans, and
        # this read-only store is the workload that must exercise them
        svc = system.timed(
            "service", QueryService, db, db.schema, catalog, snapshot_isolation=False
        )
        system.stores["pg"] = Store(db, db.schema, catalog, svc)
        return system


class PoolCopart(Workload):
    """The only workload with fragment shipping, worker re-plan, result
    pickling, the gather and the pool fork on the blocking path:
    partition-wise semijoin, shredded nestjoin, broadcast semijoin."""

    name = "pool_copart"
    pool_workers = POOL_WORKERS
    NX, SPREAD, NS = 2400, 4, 64

    def inputs(self, seed: int, scale: float) -> Inputs:
        rng = random.Random(seed)
        nx = _scaled(self.NX, scale, 600)         # below ~600 rows the planner stays serial
        ny = nx * self.SPREAD                     # 1 Y row in SPREAD finds a partner
        a_vals = [i % 97 for i in range(nx)]
        e_vals = [j % 5 for j in range(ny)]
        t_vals = [i % 3 for i in range(self.NS)]
        for seq in (a_vals, e_vals, t_vals):
            rng.shuffle(seq)
        xs = [{"a": a_vals[i], "b": i} for i in range(nx)]
        ys = [{"d": j, "e": e_vals[j]} for j in range(ny)]
        ss = [{"k": i, "t": t_vals[i]} for i in range(self.NS)]
        shapes = [
            Shape(
                "semijoin", "semijoin", "xy",
                "select x.b from x in X where exists y in Y : x.b = y.d and y.e < $k",
                R.pc_semijoin, tuple({"k": k} for k in (1, 2, 3, 4)),
            ),
            Shape(
                "nestjoin", "nestjoin", "xy",
                "select (a = x.a, b = x.b, ys = select y.e from y in Y where x.b = y.d) "
                "from x in X where x.a < $k",
                R.pc_nestjoin, tuple({"k": k} for k in (20, 30, 40, 50)),
            ),
            Shape(
                "broadcast", "broadcast", "xy",
                "select x.b from x in X where exists s in S : x.a = s.k and s.t < $k",
                R.pc_broadcast, tuple({"k": k} for k in (1, 2, 3, 2)),
            ),
        ]
        per_shape = min(12, max(4, int(12 * scale)))  # an op costs a pool fork at any scale
        script = _interleave({0: per_shape, 1: per_shape, 2: per_shape}, 4)
        return Inputs(
            {"xy": {"X": xs, "Y": ys, "S": ss}}, shapes, [script], {"X": nx, "Y": ny, "S": self.NS}
        )

    def small(self, seed: int) -> Inputs:
        inputs = self.inputs(seed, 0.2)
        raw = inputs.raw["xy"]
        raw["X"] = [x for x in raw["X"] if x["b"] < 60]
        raw["Y"] = [y for y in raw["Y"] if y["d"] < 240]
        return inputs

    def load_small(self, inputs: Inputs) -> System:
        # 60 rows never reach the pool; skip the fork for the interpreter oracle
        return self.load(inputs, parallel=False)

    def load(self, inputs: Inputs, parallel: bool = True) -> System:
        from repro.service import QueryService

        system = System()
        types = _flat_types(X={"a": 0, "b": 0}, Y={"d": 0, "e": 0}, S={"k": 0, "t": 0})
        store = self._memory_store(system, inputs.raw["xy"], types)
        system.timed("partition", store.catalog.partition, "X", "b", POOL_WORKERS)
        system.timed("partition", store.catalog.partition, "Y", "d", POOL_WORKERS)
        store.svc = system.timed(
            "service", QueryService, store.db, types, store.catalog,
            parallel_workers=POOL_WORKERS if parallel else 0, parallel_mode="process",
        )
        system.stores["xy"] = store
        return system


class SessionsRw(Workload):
    """``nproc`` closed-loop sessions, 96% short indexed reads and 4% write batches
    into the keys the reads hit: epochs, pre-images, stale indexes, GIL and
    admission contention; a read gain paid by writes shows."""

    name = "sessions_rw"
    mutates = True
    clients = NPROC
    NX = NY = 3000
    HOT = 64                                       # the key range reads and writes share
    OPS = 100                                      # per client per pass; every 25th is a write

    def inputs(self, seed: int, scale: float) -> Inputs:
        rng = random.Random(seed)
        nx = _scaled(self.NX, scale, 256)
        ny = _scaled(self.NY, scale, 256)
        xs, ys = _gen_xy(rng, nx, ny, max(self.HOT, ny // 4), 0.1, with_sets=False)
        v_vals = [i % 100 for i in range(nx)]
        rng.shuffle(v_vals)
        for x, v in zip(xs, v_vals):
            x["v"] = v
        hot = rng.sample(range(self.HOT), 16)
        km = tuple({"k": k, "m": 20 + 5 * (i % 12)} for i, k in enumerate(hot))
        shapes = [
            Shape("point", "point", "xy", "select x.b from x in X where x.a = $k",
                  R.rw_point, tuple({"k": k} for k in hot)),
            Shape("point_filter", "point_filter", "xy",
                  "select x.b from x in X where x.a = $k and x.v < $m", R.rw_point_filter, km),
            Shape("semijoin", "semijoin", "xy",
                  "select y.e from y in Y where y.d = $k and exists x in X : y.d = x.a and x.v < $m",
                  R.rw_semijoin, km),
        ]
        scripts = []
        writes = self.OPS // 25
        for client in range(self.clients):
            reads = _interleave(
                {0: 60 * self.OPS // 100, 1: 24 * self.OPS // 100, 2: 12 * self.OPS // 100}, 16
            )
            offset = 7 * client                    # clients start at different points of the mix
            reads = reads[offset:] + reads[:offset]
            script, batch = [], None
            for j in range(writes):
                script.extend(reads[j * 24:(j + 1) * 24])
                if j % 2 == 0:
                    # four fresh rows into hot keys; the next write slot deletes them
                    # again, so every pass starts from the same store state
                    batch = [
                        {"a": hot[(4 * j + r) % 16], "b": nx + client * 1000 + 4 * j + r,
                         "v": (7 * j + 13 * r) % 100}
                        for r in range(4)
                    ]
                    script.append(("w", "insert", batch))
                else:
                    script.append(("w", "delete", batch))
            scripts.append(script)
        return Inputs({"xy": {"X": xs, "Y": ys}}, shapes, scripts, {"X": nx, "Y": ny})

    def load(self, inputs: Inputs) -> System:
        from repro.service import QueryService

        system = System()
        types = _flat_types(X={"a": 0, "b": 0, "v": 0}, Y={"d": 0, "e": 0})
        store = self._memory_store(system, inputs.raw["xy"], types)
        system.timed("index", store.catalog.create_index, "X", "a")
        system.timed("index", store.catalog.create_index, "Y", "d")
        store.svc = system.timed(
            "service", QueryService, store.db, types, store.catalog,
            max_workers=max(self.clients, 1),
        )
        system.stores["xy"] = store
        return system


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (CompileCold(), UnnestWarm(), FlatScanJoin(), PoolCopart(), SessionsRw())
}
