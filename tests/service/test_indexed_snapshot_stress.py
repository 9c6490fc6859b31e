"""Indexed reads under concurrent writers: the ``sessions_rw`` contract.

``test_snapshot_stress.py`` registers no index; this file does.  The
store's notified write batches keep the catalog's indexes current by
publishing new immutable ``NamedIndex`` objects, and every read is
pinned to an epoch — so the invariant is the PR-7 one, now through index
access paths: **every** result equals the oracle at ``QueryResult.epoch``
(``keep_history`` is the time machine), whether the run probed the
shared index, healed it, or built a private one for a historical epoch.

The deterministic cases name which of those three a run takes, asserted
on counters (``index_increments`` / ``index_rebuilds`` / ``index_probes``
/ ``HashIndex`` constructions), never on wall clock.
"""

import random
import sys
import threading

import pytest

from repro.datamodel import INT, Catalog as TypeCatalog, SetType, TupleType, VTuple
from repro.service import QueryService
from repro.storage import Catalog, HashIndex, MemoryDatabase

POINT = "select x.b from x in X where x.a = $k"
POINT_FILTER = "select x.b from x in X where x.a = $k and x.v < $m"
SEMIJOIN = "select y.e from y in Y where y.d = $k and exists x in X : y.d = x.a and x.v < $m"
SHAPES = (POINT, POINT_FILTER, SEMIJOIN)

TYPES = TypeCatalog(
    {
        "X": SetType(TupleType({"a": INT, "b": INT, "v": INT})),
        "Y": SetType(TupleType({"d": INT, "e": INT})),
    }
)

N = 300
HOT = 16  # the key range reads and writes share
WRITERS = 2
SESSIONS = 4
QUERIES_PER_SESSION = 150
WRITES_PER_WRITER = 200


def _setup():
    db = MemoryDatabase(
        {
            "X": [VTuple(a=i % 40, b=i, v=i % 100) for i in range(N)],
            "Y": [VTuple(d=i % 40, e=i) for i in range(N)],
        }
    )
    db.keep_history = True  # oracles time-travel via extent_at
    catalog = Catalog(db)
    catalog.analyze()
    catalog.create_index("X", "a")
    catalog.create_index("Y", "d")
    return db, catalog


def _oracle(db, shape, params, epoch):
    xs = db.extent_at("X", epoch)
    k = params["k"]
    if shape is POINT:
        return {x["b"] for x in xs if x["a"] == k}
    if shape is POINT_FILTER:
        return {x["b"] for x in xs if x["a"] == k and x["v"] < params["m"]}
    ys = db.extent_at("Y", epoch)
    partner = any(x["a"] == k and x["v"] < params["m"] for x in xs)
    return {y["e"] for y in ys if y["d"] == k and partner}


def _check(db, shape, params, result):
    want = _oracle(db, shape, params, result.epoch)
    got = set(result.rows)
    assert got == want, (
        f"{shape!r} {params} at epoch {result.epoch}: "
        f"missing={sorted(want - got)[:5]} extra={sorted(got - want)[:5]}"
    )


@pytest.fixture()
def built_indexes(monkeypatch):
    """Every ``HashIndex`` constructed (full build, maintenance step or
    per-run transient) lands in the returned list."""
    built = []
    init = HashIndex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HashIndex, "__init__", counting_init)
    return built


# ---------------------------------------------------------------------------
# the stress
# ---------------------------------------------------------------------------


def _writer(db, seed, stop, errors):
    rng = random.Random(seed)
    batch = None
    try:
        for i in range(WRITES_PER_WRITER):
            if stop.is_set():
                return
            if batch is None:
                # four fresh rows into hot keys; the next turn deletes them
                batch = [
                    VTuple(a=rng.randrange(HOT), b=10_000 + seed * 1000 + 4 * i + r,
                           v=rng.randrange(100))
                    for r in range(4)
                ]
                db.insert_rows("X", batch)
            else:
                db.delete_rows("X", batch)
                batch = None
            if i % 8 == 7:
                db.insert_rows("Y", [VTuple(d=rng.randrange(HOT), e=20_000 + seed * 1000 + i)])
            stop.wait(0.0005)
    except Exception as exc:  # surfaced by the main thread
        errors.append(f"writer[{seed}]: {exc!r}")


def _reader(svc, db, seed, errors):
    rng = random.Random(1000 + seed)
    try:
        with svc.session() as session:
            for q in range(QUERIES_PER_SESSION):
                shape = SHAPES[rng.randrange(3)]
                params = {"k": rng.randrange(HOT)}
                if shape is not POINT:
                    params["m"] = rng.randrange(0, 101, 10)
                result = session.execute(shape, params)
                try:
                    _check(db, shape, params, result)
                except AssertionError as exc:
                    errors.append(f"reader[{seed}]#{q}: {exc}")
                    return
    except Exception as exc:
        errors.append(f"reader[{seed}]: {exc!r}")


def test_every_indexed_result_matches_its_epochs_oracle():
    db, catalog = _setup()
    stop = threading.Event()
    errors: list = []
    writers = [
        threading.Thread(target=_writer, args=(db, w, stop, errors)) for w in range(WRITERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # more interleavings per second than the default 5 ms
    try:
        with QueryService(db, TYPES, catalog, max_workers=SESSIONS) as svc:
            readers = [
                threading.Thread(target=_reader, args=(svc, db, s, errors))
                for s in range(SESSIONS)
            ]
            for t in writers + readers:
                t.start()
            try:
                for t in readers:
                    t.join(timeout=120)
            finally:
                stop.set()
                for t in writers:
                    t.join(timeout=30)
            assert not errors, "\n".join(errors)
            assert not any(t.is_alive() for t in writers + readers)
            assert db.epoch_stats()["pinned"] == 0
            assert catalog.index_increments > 0
            # quiescent: one head read per extent leaves both shared indexes
            # current (healing whatever overtaking notifications left stale)
            _check(db, SEMIJOIN, {"k": 1, "m": 50}, svc.execute(SEMIJOIN, {"k": 1, "m": 50}))
            for extent, attr in (("X", "a"), ("Y", "d")):
                named = catalog.index_on(extent, attr)
                rows = db.extent(extent)
                assert named.source_rows is rows and named.built_cardinality == len(rows)
                for key in range(40):
                    assert set(named.lookup(key)) == {r for r in rows if r[attr] == key}
                    assert len(named.lookup(key)) == len(set(named.lookup(key)))
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# which index a run uses, case by case
# ---------------------------------------------------------------------------


def test_reads_after_a_write_probe_the_maintained_index(built_indexes):
    db, catalog = _setup()
    with QueryService(db, TYPES, catalog) as svc:
        session = svc.session()
        session.execute(POINT, {"k": 3})
        version, compilations = catalog.version, svc.compilations
        batches = [[VTuple(a=3, b=5000 + 4 * j + r, v=r) for r in range(4)] for j in range(3)]
        for batch in batches:
            db.insert_rows("X", batch)
        db.delete_rows("X", batches[0])
        assert catalog.index_increments == 4  # one per notified batch on X's one index
        assert catalog.index_on("X", "a").source_rows is db.extent("X")
        del built_indexes[:]
        for _ in range(5):
            result = session.execute(POINT, {"k": 3})
            assert result.stats["index_probes"] == 1 and result.cache_hit
            _check(db, POINT, {"k": 3}, result)
        assert built_indexes == []  # no transient, no rebuild
        assert (catalog.version, svc.compilations) == (version, compilations)
        assert catalog.index_rebuilds == 0
        snapshot = svc.metrics_snapshot()
        assert snapshot["repro_catalog_index_increments"] == 4
        assert snapshot["repro_catalog_index_rebuilds"] == 0


def test_write_between_pin_and_execution_reads_a_transient_index(built_indexes):
    db, catalog = _setup()
    with QueryService(db, TYPES, catalog) as svc:
        session = svc.session()
        for shape in SHAPES:  # compile now: a compile may refresh statistics
            session.execute(shape, {"k": 3} if shape is POINT else {"k": 3, "m": 50})
        with session.snapshot() as epoch:
            db.insert_rows("X", [VTuple(a=3, b=7000, v=0)])  # lands after the pin
            shared = catalog.index_on("X", "a")
            assert shared.source_rows is db.extent("X")  # maintained past the pin
            version = catalog.version
            del built_indexes[:]
            for shape in SHAPES:
                params = {"k": 3} if shape is POINT else {"k": 3, "m": 50}
                result = session.execute(shape, params)
                assert result.epoch == epoch
                assert 7000 not in result.rows
                _check(db, shape, params, result)
            # each run built its own index over the pinned rows ...
            assert len(built_indexes) == 3
            # ... and the historical reads never wrote to the catalog
            assert catalog.index_on("X", "a") is shared
            assert (catalog.version, catalog.index_rebuilds) == (version, 0)
        # the same session, unpinned again, is back on the shared index
        del built_indexes[:]
        result = session.execute(POINT, {"k": 3})
        assert 7000 in result.rows and built_indexes == []


def test_head_pinned_read_heals_an_index_a_notification_missed(built_indexes):
    db, catalog = _setup()
    with QueryService(db, TYPES, catalog) as svc:
        session = svc.session()
        session.execute(POINT, {"k": 3})
        v0 = db.extent("X")
        first, second = [VTuple(a=3, b=8000, v=0)], [VTuple(a=3, b=8001, v=0)]
        db.catalog = None  # deliver the notifications by hand, newest first
        db.insert_rows("X", first)
        v1 = db.extent("X")
        db.insert_rows("X", second)
        db.catalog = catalog
        catalog.note_insert("X", 1, before=v1, after=db.extent("X"), rows=second)
        catalog.note_insert("X", 1, before=v0, after=v1, rows=first)
        assert catalog.index_on("X", "a").source_rows is v1  # one batch behind the head
        # every read is pinned, this one to the live head: it may heal the
        # shared index (before this PR a pinned read never did)
        healed = session.execute(POINT, {"k": 3})
        assert {8000, 8001} <= set(healed.rows)
        _check(db, POINT, {"k": 3}, healed)
        assert catalog.index_rebuilds == 1
        assert catalog.index_on("X", "a").source_rows is db.extent("X")
        del built_indexes[:]
        again = session.execute(POINT, {"k": 3})
        assert again.rows == healed.rows and again.stats["index_probes"] == 1
        assert built_indexes == [] and catalog.index_rebuilds == 1


def test_set_extent_is_healed_by_one_full_rebuild(built_indexes):
    db, catalog = _setup()
    with QueryService(db, TYPES, catalog) as svc:
        svc.execute(POINT, {"k": 3})
        db.set_extent("X", [VTuple(a=3, b=i, v=i) for i in range(5)])
        assert catalog.index_increments == 0
        result = svc.execute(POINT, {"k": 3})
        assert set(result.rows) == set(range(5))
        assert catalog.index_rebuilds == 1
        del built_indexes[:]
        assert svc.execute(POINT, {"k": 3}).rows == result.rows
        assert built_indexes == [] and catalog.index_rebuilds == 1


# ---------------------------------------------------------------------------
# golden plans
# ---------------------------------------------------------------------------


def test_point_semijoin_plans_an_index_join_over_an_index_scan():
    db, catalog = _setup()
    with QueryService(db, TYPES, catalog) as svc:
        lines = [line.strip() for line in svc.explain(SEMIJOIN).splitlines()]
        assert lines[0].startswith("Map [y: y.e]")
        assert lines[1].startswith(
            "IndexNLJoin(semijoin) [y.d -> X.a via idx_X_a ; residual x.v < $m]"
        )
        assert lines[2].startswith("IndexScan [Y.d = $k via idx_Y_d]")
        assert len(lines) == 3
        result = svc.execute(SEMIJOIN, {"k": 3, "m": 50})
        assert result.stats["hash_inserts"] == 0 and result.stats["index_probes"] >= 2
