"""Pure-Python reference answers, one small function per benchmark shape.

These are the level-(b) oracle: each function computes a shape's answer
straight from the generator's *raw* rows (plain dicts, frozensets and
tuples) and never touches the engine under test, so a bug shared by the
interpreter and the optimized plans still shows.

Canonical value form (what :func:`plain` maps engine values onto):

* atom                      -> itself
* tuple value ``(a=1, b=2)`` -> ``(("a", 1), ("b", 2))``  (see :func:`rec`)
* set value                 -> ``frozenset`` of canonical values
* oid                       -> ``("oid", class_name, number)``
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping


def rec(**fields):
    """The canonical form of a tuple value."""
    return tuple(sorted(fields.items()))


def plain(value):
    """Map an engine value (VTuple / frozenset / Oid / atom) onto the
    canonical form, by duck typing — no engine import."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, plain(v)) for k, v in value.items()))
    if isinstance(value, (frozenset, set)):
        return frozenset(plain(v) for v in value)
    if hasattr(value, "class_name") and hasattr(value, "number"):
        return ("oid", value.class_name, value.number)
    return value


def raw_rows(extent):
    """Engine extent -> raw rows (dicts of canonical values)."""
    return [{k: plain(v) for k, v in row.items()} for row in extent]


def _by(rows, attr):
    index = defaultdict(list)
    for row in rows:
        index[row[attr]].append(row)
    return index


def _yrec(y):
    return rec(d=y["d"], e=y["e"])


# ---------------------------------------------------------------------------
# compile_cold, supplier-part-delivery store (PART / SUPPLIER / DELIVERY)
# ---------------------------------------------------------------------------


def _whole(row):
    return tuple(sorted(row.items()))


def cc_example_1(raw, p):
    part = {r["oid"]: r for r in raw["PART"]}
    return frozenset(
        rec(
            sname=s["sname"],
            pnames=frozenset(
                part[o]["pname"] for o in s["parts_supplied"] if part[o]["color"] == "red"
            ),
        )
        for s in raw["SUPPLIER"]
    )


def cc_example_2(raw, p):
    supplier = {r["oid"]: r for r in raw["SUPPLIER"]}
    return frozenset(
        _whole(d)
        for d in raw["DELIVERY"]
        if supplier[d["supplier"]]["sname"] == "s1" and d["date"] == 940101
    )


def cc_example_3_1(raw, p):
    wanted = set()
    for t in raw["SUPPLIER"]:
        if t["sname"] == "s1":
            wanted |= t["parts_supplied"]
    return frozenset(s["sname"] for s in raw["SUPPLIER"] if s["parts_supplied"] >= wanted)


def cc_example_3_2(raw, p):
    part = {r["oid"]: r for r in raw["PART"]}
    return frozenset(
        _whole(d)
        for d in raw["DELIVERY"]
        if any(part[dict(s)["part"]]["color"] == "red" for s in d["supply"])
    )


def cc_nested_select(raw, p):
    dates = defaultdict(set)
    for d in raw["DELIVERY"]:
        dates[d["supplier"]].add(d["date"])
    return frozenset(
        rec(sname=s["sname"], ds=frozenset(dates[s["oid"]])) for s in raw["SUPPLIER"]
    )


def cc_chain(raw, p):
    cheap = {r["oid"] for r in raw["PART"] if r["price"] < p["k"]}
    good = {s["oid"] for s in raw["SUPPLIER"] if s["parts_supplied"] & cheap}
    return frozenset(d["date"] for d in raw["DELIVERY"] if d["supplier"] in good)


# ---------------------------------------------------------------------------
# compile_cold, figure-scale X(a, i, c) / Y(d, e) store
# ---------------------------------------------------------------------------


def _sub(raw, x):
    return frozenset(_yrec(y) for y in raw["Y"] if y["d"] == x["a"])


def cc_subseteq(raw, p):
    return frozenset(x["i"] for x in raw["X"] if x["c"] <= _sub(raw, x))


def cc_superseteq(raw, p):
    return frozenset(x["i"] for x in raw["X"] if x["c"] >= _sub(raw, x))


def cc_seteq(raw, p):
    return frozenset(x["i"] for x in raw["X"] if x["c"] == _sub(raw, x))


def cc_in(raw, p):
    keys = {y["d"] for y in raw["Y"] if y["e"] < p["k"]}
    return frozenset(x["i"] for x in raw["X"] if x["a"] in keys)


def cc_notexists(raw, p):
    keys = {y["d"] for y in raw["Y"] if y["e"] < p["k"]}
    return frozenset(x["i"] for x in raw["X"] if x["a"] not in keys)


def cc_forall(raw, p):
    return frozenset(
        x["i"]
        for x in raw["X"]
        if all(x["a"] != y["d"] or y["e"] < p["k"] for y in raw["Y"])
    )


def cc_count(raw, p):
    return frozenset(rec(i=x["i"], n=len(_sub(raw, x))) for x in raw["X"])


def cc_fig3(raw, p):
    return frozenset(rec(i=x["i"], ys=_sub(raw, x)) for x in raw["X"])


# ---------------------------------------------------------------------------
# compile_cold, Section-4 store (SUPPLIER(eid, sname, parts) / PART(pid, ...))
# ---------------------------------------------------------------------------


def cc_example_5(raw, p):
    wanted = {rec(pid=r["pid"]) for r in raw["PART"] if r["color"] == p["c"]}
    return frozenset(s["sname"] for s in raw["SUPPLIER"] if s["parts"] & wanted)


def cc_example_6(raw, p):
    return frozenset(
        rec(
            sname=s["sname"],
            parts_suppl=frozenset(
                r["pname"] for r in raw["PART"] if rec(pid=r["pid"]) in s["parts"]
            ),
        )
        for s in raw["SUPPLIER"]
    )


# ---------------------------------------------------------------------------
# unnest_warm: X(a, b, c) / Y(d, e)
# ---------------------------------------------------------------------------


def uw_semijoin(raw, p):
    keys = {y["d"] for y in raw["Y"] if y["e"] < p["m"]}
    return frozenset(x["b"] for x in raw["X"] if x["b"] < p["k"] and x["a"] in keys)


def uw_antijoin(raw, p):
    keys = {y["d"] for y in raw["Y"] if y["e"] < p["m"]}
    return frozenset(x["b"] for x in raw["X"] if x["b"] < p["k"] and x["a"] not in keys)


def uw_nestjoin(raw, p):
    by_d = _by(raw["Y"], "d")
    return frozenset(
        rec(b=x["b"], ys=frozenset(y["e"] for y in by_d.get(x["a"], ())))
        for x in raw["X"]
        if x["b"] < p["k"]
    )


def uw_count_sub(raw, p):
    by_d = _by(raw["Y"], "d")
    return frozenset(
        rec(b=x["b"], n=len(by_d.get(x["a"], ()))) for x in raw["X"] if x["b"] < p["k"]
    )


def uw_subset(raw, p):
    by_d = _by(raw["Y"], "d")
    return frozenset(
        x["b"]
        for x in raw["X"]
        if x["b"] < p["k"] and x["c"] <= {_yrec(y) for y in by_d.get(x["a"], ())}
    )


def uw_attr_unnest(raw, p):
    wanted = {_yrec(y) for y in raw["Y"] if y["e"] < p["m"]}
    return frozenset(x["b"] for x in raw["X"] if x["c"] & wanted)


# ---------------------------------------------------------------------------
# flat_scan_join: paged X(a, v) / Y(d, w)
# ---------------------------------------------------------------------------


def fj_scan_filter(raw, p):
    return frozenset(
        rec(v=x["v"], s=x["a"] * 3 + x["v"])
        for x in raw["X"]
        if x["a"] * 7 + x["v"] * 3 < p["k"] and x["v"] - x["a"] * 2 > p["m"]
    )


def fj_join_wide(raw, p):
    by_d = _by(raw["Y"], "d")
    return frozenset(
        rec(v=x["v"], w=y["w"])
        for x in raw["X"]
        for y in by_d.get(x["a"], ())
        if y["w"] * 2 + 1 > p["k"]
    )


def fj_join_low(raw, p):
    by_d = _by(raw["Y"], "d")
    return frozenset(
        rec(v=x["v"], w=y["w"])
        for x in raw["X"]
        for y in by_d.get(x["a"], ())
        if y["w"] < p["k"]
    )


# ---------------------------------------------------------------------------
# pool_copart: X(a, b) / Y(d, e) co-partitioned on b = d, small S(k, t)
# ---------------------------------------------------------------------------


def pc_semijoin(raw, p):
    keys = {y["d"] for y in raw["Y"] if y["e"] < p["k"]}
    return frozenset(x["b"] for x in raw["X"] if x["b"] in keys)


def pc_nestjoin(raw, p):
    by_d = _by(raw["Y"], "d")
    return frozenset(
        rec(a=x["a"], b=x["b"], ys=frozenset(y["e"] for y in by_d.get(x["b"], ())))
        for x in raw["X"]
        if x["a"] < p["k"]
    )


def pc_broadcast(raw, p):
    keys = {s["k"] for s in raw["S"] if s["t"] < p["k"]}
    return frozenset(x["b"] for x in raw["X"] if x["a"] in keys)


# ---------------------------------------------------------------------------
# sessions_rw: X(a, b, v) / Y(d, e) under concurrent write batches
# ---------------------------------------------------------------------------


class RwState:
    """The sessions_rw store replayed from its write log.

    Reads are checked against the state visible at ``QueryResult.epoch``:
    :meth:`advance` applies every logged write batch up to that epoch,
    then the ``rw_*`` functions answer from the keyed state.
    """

    def __init__(self, raw, base_epoch, write_log):
        self.x_by_a = defaultdict(set)
        for x in raw["X"]:
            self.x_by_a[x["a"]].add((x["b"], x["v"]))
        self.y_by_d = _by(raw["Y"], "d")
        self.epoch = base_epoch
        self._pending = sorted(write_log, key=lambda w: w[0])
        self._next = 0

    def advance(self, epoch):
        while self._next < len(self._pending) and self._pending[self._next][0] <= epoch:
            _, kind, rows = self._pending[self._next]
            for row in rows:
                bucket = self.x_by_a[row["a"]]
                item = (row["b"], row["v"])
                if kind == "insert":
                    bucket.add(item)
                else:
                    bucket.discard(item)
            self.epoch = self._pending[self._next][0]
            self._next += 1


def rw_point(state, p):
    return frozenset(b for b, _ in state.x_by_a.get(p["k"], ()))


def rw_point_filter(state, p):
    return frozenset(b for b, v in state.x_by_a.get(p["k"], ()) if v < p["m"])


def rw_semijoin(state, p):
    if not any(v < p["m"] for _, v in state.x_by_a.get(p["k"], ())):
        return frozenset()
    return frozenset(y["e"] for y in state.y_by_d.get(p["k"], ()))
