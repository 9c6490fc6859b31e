"""EXPLAIN ANALYZE (PR 10): per-operator est-vs-actual annotations on the
ordinary explain tree, misestimate flagging past the q-error threshold,
and the acceptance shape — a co-partitioned shredded query whose analyze
output carries per-fragment spans from real pool workers."""

import pytest

from repro.adl import builders as B
from repro.adl.typecheck import TypeChecker
from repro.datamodel import Catalog as TypeCatalog, INT, SetType, TupleType, VTuple
from repro.engine.planner import Executor
from repro.obs import misestimate
from repro.rewrite.common import RewriteContext
from repro.service import QueryService
from repro.shard import Exchange, ParallelExecutor, PartitionedHashJoin
from repro.shred import StitchNest, shred_expr
from repro.storage import Catalog, MemoryDatabase

TYPES = TypeCatalog(
    {
        "X": SetType(TupleType({"a": INT, "b": INT})),
        "Y": SetType(TupleType({"d": INT, "e": INT})),
    }
)
CTX = RewriteContext(checker=TypeChecker(TYPES))


def skewed_db():
    """ndv says 7 values of ``a``, but value 0 covers 90% of rows — the
    uniformity assumption misestimates any selection on it."""
    rows = [VTuple(a=(0 if i % 10 else i % 7), b=i) for i in range(1000)]
    return MemoryDatabase({"X": rows})


def _filter_on_skew():
    return B.sel("x", B.eq(B.attr(B.var("x"), "a"), B.lit(0)), B.extent("X"))


def test_annotations_and_misestimate_flag():
    db = skewed_db()
    catalog = Catalog(db)
    catalog.analyze()
    ex = Executor(db, catalog=catalog)
    ar = ex.explain_analyze(_filter_on_skew())
    # rows come back with the analysis
    assert ar.rows == Executor(db, catalog=Catalog(db)).execute(_filter_on_skew())
    assert "est≈" in ar.text and "actual=" in ar.text and "ms)" in ar.text
    assert "!! misestimate" in ar.text
    assert len(ar.misestimates) == 1
    miss = ar.misestimates[0]
    assert miss["operator"] == "Filter"
    assert miss["q_error"] > 4.0
    assert miss["actual_rows"] == len(ar.rows)


def test_accurate_plan_is_not_flagged():
    db = skewed_db()
    catalog = Catalog(db)
    catalog.analyze()
    ex = Executor(db, catalog=catalog)
    ar = ex.explain_analyze(B.extent("X"))
    assert ar.misestimates == []
    assert "!! misestimate" not in ar.text


def test_single_digit_cardinalities_need_an_absolute_miss():
    """The q-error alone does not flag a tiny operator: est≈2 against 9
    actual rows (q 4.5) is a miss of 7 rows, under the 10-row floor."""
    # 20 rows over 10 values of ``a``, 9 of them 0: est 2, actual 9
    rows = [VTuple(a=0 if i < 9 else 1 + i % 9, b=i) for i in range(20)]
    db = MemoryDatabase({"X": rows})
    catalog = Catalog(db)
    catalog.analyze()
    ar = Executor(db, catalog=catalog).explain_analyze(_filter_on_skew())
    assert len(ar.rows) == 9 and "est≈2, actual=9" in ar.text
    assert ar.misestimates == []
    assert "!! misestimate" not in ar.text


def test_misestimate_needs_both_the_ratio_and_the_floor():
    assert misestimate(2, 9) is None  # q 4.5, 7 rows off
    assert misestimate(None, 90) is None  # no estimate to judge
    assert misestimate(30, 40) is None  # 10 rows off, q 1.3
    assert misestimate(2, 12) == pytest.approx(6.0)
    assert misestimate(390, 10) == pytest.approx(39.0)


def test_shares_the_explain_renderer():
    """Satellite: explain_analyze rides explain()'s tree through the
    ``annotate`` hook — same nodes, same order, same structure, only the
    per-node suffix differs."""
    db = skewed_db()
    catalog = Catalog(db)
    catalog.analyze()
    ex = Executor(db, catalog=catalog)
    expr = _filter_on_skew()
    static = ex.explain(expr).splitlines()
    analyzed = ex.explain_analyze(expr).text.splitlines()
    analyzed = [line for line in analyzed if not line.lstrip().startswith("--")]
    assert len(static) == len(analyzed)
    for s_line, a_line in zip(static, analyzed):
        # identical tree prefix: indentation, label, detail
        assert a_line.startswith(s_line.split(" (")[0])


def test_never_executed_nodes_are_marked():
    """Fragment-shipped subtrees run remotely; their local plan nodes are
    annotated as never executed rather than showing zero actuals."""
    db = MemoryDatabase(
        {
            "X": [VTuple(a=i % 6, b=i % 4) for i in range(30)],
            "Y": [VTuple(d=i % 6, e=i) for i in range(30)],
        }
    )
    catalog = Catalog(db)
    catalog.analyze()
    catalog.partition("X", "a", 2)
    catalog.partition("Y", "d", 2)
    nj = B.nestjoin(
        B.extent("X"),
        B.extent("Y"),
        "x",
        "y",
        B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d")),
        "ys",
        None,
    )
    shredded = shred_expr(nj, CTX)
    assert shredded is not None
    with ParallelExecutor(db, catalog, workers=2, mode="inline") as parallel:
        ex = Executor(db, catalog=catalog, parallel=parallel)
        plan = ex.planner.plan(shredded)
        if not any(isinstance(op, Exchange) for op in plan.operators()):
            return  # tiny plan stayed serial; nothing shipped
        ar = ex.explain_analyze(shredded)
        assert "(never executed)" in ar.text


def test_copartitioned_shredded_acceptance():
    """The PR-10 acceptance shape: a co-partitioned shredded nestjoin on
    a forked pool — analyze output shows per-operator est-vs-actual,
    per-fragment spans from pool workers, and flags the seeded
    (correlated-skew) misestimate on the gathered flat join."""
    # correlated skew: both sides pile onto join key 0, which the
    # independence/ndv join estimate cannot see
    x = [VTuple(a=i % 7, b=(0 if i < 150 else i)) for i in range(1500)]
    y = [VTuple(d=(0 if i < 60 else 10_000 + i), e=i % 5) for i in range(6000)]
    db = MemoryDatabase({"X": x, "Y": y})
    catalog = Catalog(db)
    catalog.analyze()
    catalog.partition("X", "b", 3)
    catalog.partition("Y", "d", 3)
    nj = B.nestjoin(
        B.extent("X"),
        B.extent("Y"),
        "x",
        "y",
        B.eq(B.attr(B.var("x"), "b"), B.attr(B.var("y"), "d")),
        "ys",
        None,
    )
    shredded = shred_expr(nj, CTX)
    assert shredded is not None

    with ParallelExecutor(db, catalog, workers=3, mode="process") as parallel:
        ex = Executor(db, catalog=catalog, parallel=parallel, batch_size=256)
        plan = ex.planner.plan(shredded)
        ops = list(plan.operators())
        assert any(isinstance(op, StitchNest) for op in ops)
        assert any(isinstance(op, Exchange) for op in ops)
        assert any(isinstance(op, PartitionedHashJoin) for op in ops)
        ar = ex.explain_analyze(shredded)

    # rows equal the serial nestjoin oracle
    oracle = Executor(db, catalog=Catalog(db)).execute(nj)
    assert ar.rows == oracle
    # per-operator actuals on the tree
    assert "actual=" in ar.text
    # at least one seeded misestimate flagged
    assert ar.misestimates, ar.text
    assert "!! misestimate" in ar.text
    # per-fragment spans from real pool workers
    spans = ar.trace["fragment_spans"]
    assert len(spans) == 3
    assert all(span["in_worker"] for span in spans)
    assert len({span["pid"] for span in spans}) > 1
    assert sum(span["rows"] for span in spans) > 0
    assert "fragment 0" in ar.text and "pid=" in ar.text


def test_service_analyze_records_misestimates():
    """``analyze=True`` through the service: the result carries the
    analyze text + trace summary, and operator misestimates land in the
    per-shape store."""
    db = skewed_db()
    catalog = Catalog(db)
    catalog.analyze()
    with QueryService(db, catalog=catalog) as svc:
        r = svc.execute("select x.b from x in X where x.a = 0", analyze=True)
        assert r.analyze is not None
        assert "actual=" in r.analyze
        assert "!! misestimate" in r.analyze
        assert r.trace is not None and r.trace["operators"]
        records = svc.misestimates.records("operator")
        assert records and records[0]["shape"] == r.shape
        assert svc.stats()["analyzed_runs"] == 1
        assert svc.stats()["misestimates"] >= 1
        # plain runs stay untraced and unannotated
        plain = svc.execute("select x.b from x in X where x.a = 0")
        assert plain.analyze is None and plain.trace is None
        assert plain.rows == r.rows
