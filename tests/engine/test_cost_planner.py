"""Golden tests for cost-based physical plan selection.

The planner's choices — hash join build side, index nested-loop join,
index scan, nested-loop fallback — must track catalog statistics, be
visible in ``explain()``, and never change results.
"""

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from repro.datamodel import VTuple, vset
from repro.engine import plan as P
from repro.engine.interpreter import Interpreter
from repro.engine.planner import Executor, Planner
from repro.engine.stats import Stats
from repro.storage import Catalog, MemoryDatabase

EQ_XY = B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d"))
EQ_YX = B.eq(B.attr(B.var("y"), "d"), B.attr(B.var("x"), "a"))


def skew_db(small=8, big=400, key_domain=40):
    """SMALL and BIG extents joinable on SMALL.a = BIG.d."""
    return MemoryDatabase(
        {
            "SMALL": [VTuple(a=i % key_domain, i=i) for i in range(small)],
            "BIG": [VTuple(d=i % key_domain, e=i) for i in range(big)],
        }
    )


@pytest.fixture()
def analyzed():
    db = skew_db()
    catalog = Catalog(db)
    catalog.analyze()
    return db, catalog


@pytest.fixture()
def indexed(analyzed):
    db, catalog = analyzed
    catalog.create_index("BIG", "d")
    return db, catalog


class TestBuildSideSelection:
    """The hash join builds on the (estimated) smaller operand."""

    def test_small_left_builds_left(self, analyzed):
        db, catalog = analyzed
        plan = Planner(catalog).plan(
            B.join(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ_XY)
        )
        assert isinstance(plan, P.HashJoinBase)
        assert plan.build_side == "left"
        assert "<builds left>" in plan.explain()

    def test_flips_when_operands_swap(self, analyzed):
        db, catalog = analyzed
        plan = Planner(catalog).plan(
            B.join(B.extent("BIG"), B.extent("SMALL"), "y", "x", EQ_YX)
        )
        assert isinstance(plan, P.HashJoinBase)
        assert plan.build_side == "right"
        assert "<builds right>" in plan.explain()

    def test_asymmetric_kinds_never_build_left(self, analyzed):
        db, catalog = analyzed
        plan = Planner(catalog).plan(
            B.semijoin(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ_XY)
        )
        assert isinstance(plan, P.HashJoinBase)
        assert plan.build_side == "right"

    def test_heuristic_planner_always_builds_right(self):
        plan = Planner().plan(
            B.join(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ_XY)
        )
        assert isinstance(plan, P.HashJoinBase)
        assert plan.build_side == "right"

    def test_build_left_requires_symmetric_join(self):
        with pytest.raises(Exception):
            P.HashJoinBase(
                "semijoin", "x", "y",
                (B.attr(B.var("x"), "a"),), (B.attr(B.var("y"), "d"),),
                A.Literal(True), P.Scan("SMALL"), P.Scan("BIG"),
                build_side="left",
            )


class TestIndexJoinSelection:
    def test_small_probe_uses_index_join(self, indexed):
        db, catalog = indexed
        plan = Planner(catalog).plan(
            B.join(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ_XY)
        )
        assert isinstance(plan, P.IndexNestedLoopJoin)
        assert "IndexNLJoin(join)" in plan.explain()
        assert "idx_BIG_d" in plan.explain()

    def test_large_probe_prefers_hash_join(self, indexed):
        db, catalog = indexed
        # probing 400 rows against an index on nothing smaller loses to
        # hashing the 8-row operand
        plan = Planner(catalog).plan(
            B.join(B.extent("BIG"), B.extent("SMALL"), "y", "x", EQ_YX)
        )
        assert isinstance(plan, P.HashJoinBase)

    def test_index_join_for_semijoin_kind(self, indexed):
        db, catalog = indexed
        plan = Planner(catalog).plan(
            B.semijoin(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ_XY)
        )
        assert isinstance(plan, P.IndexNestedLoopJoin)

    def test_no_index_no_index_join(self, analyzed):
        db, catalog = analyzed
        plan = Planner(catalog).plan(
            B.join(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ_XY)
        )
        assert not isinstance(plan, P.IndexNestedLoopJoin)

    def test_extra_conjuncts_become_residual(self, indexed):
        db, catalog = indexed
        pred = B.conj(EQ_XY, B.gt(B.attr(B.var("y"), "e"), 10))
        plan = Planner(catalog).plan(
            B.join(B.extent("SMALL"), B.extent("BIG"), "x", "y", pred)
        )
        assert isinstance(plan, P.IndexNestedLoopJoin)
        assert "residual" in plan.describe()


class TestIndexScanSelection:
    def test_equality_on_indexed_attr(self, indexed):
        db, catalog = indexed
        plan = Planner(catalog).plan(
            B.sel("y", B.eq(B.attr(B.var("y"), "d"), B.lit(7)), B.extent("BIG"))
        )
        assert isinstance(plan, P.IndexScan)
        assert "BIG.d = 7" in plan.explain()

    def test_residual_conjunct_wraps_filter(self, indexed):
        db, catalog = indexed
        pred = B.conj(
            B.eq(B.attr(B.var("y"), "d"), B.lit(7)),
            B.gt(B.attr(B.var("y"), "e"), 100),
        )
        plan = Planner(catalog).plan(B.sel("y", pred, B.extent("BIG")))
        assert isinstance(plan, P.Filter)
        assert isinstance(plan.child, P.IndexScan)

    def test_unindexed_attr_full_scan(self, indexed):
        db, catalog = indexed
        plan = Planner(catalog).plan(
            B.sel("y", B.eq(B.attr(B.var("y"), "e"), B.lit(7)), B.extent("BIG"))
        )
        assert isinstance(plan, P.Filter)

    def test_correlated_key_not_indexable(self, indexed):
        db, catalog = indexed
        # key depends on a free variable → not a constant probe
        plan = Planner(catalog).plan(
            B.sel("y", B.eq(B.attr(B.var("y"), "d"), B.attr(B.var("z"), "k")),
                  B.extent("BIG"))
        )
        assert isinstance(plan, P.Filter)

    def test_no_catalog_full_scan(self, indexed):
        plan = Planner().plan(
            B.sel("y", B.eq(B.attr(B.var("y"), "d"), B.lit(7)), B.extent("BIG"))
        )
        assert isinstance(plan, P.Filter)


class TestNestedLoopFallback:
    def test_non_equi_predicate(self, analyzed):
        db, catalog = analyzed
        plan = Planner(catalog).plan(
            B.join(B.extent("SMALL"), B.extent("BIG"), "x", "y",
                   B.lt(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d")))
        )
        assert isinstance(plan, P.NestedLoopJoin)


class TestExplainAnnotations:
    def test_cost_annotations_present(self, indexed):
        db, catalog = indexed
        text = Executor(db, catalog=catalog).explain(
            B.join(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ_XY)
        )
        assert "rows≈" in text and "cost≈" in text

    def test_heuristic_explain_unannotated(self, indexed):
        db, _ = indexed
        text = Executor(db).explain(
            B.join(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ_XY)
        )
        assert "rows≈" not in text

    def test_scan_estimates_match_catalog(self, analyzed):
        db, catalog = analyzed
        plan = Planner(catalog).plan(B.extent("BIG"))
        assert plan.est_rows == 400


class TestCostBasedCorrectness:
    """Plan choices must never change results (oracle: naive interpreter)."""

    def queries(self):
        pred_extra = B.conj(EQ_XY, B.gt(B.attr(B.var("y"), "e"), 30))
        return [
            B.join(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ_XY),
            B.join(B.extent("BIG"), B.extent("SMALL"), "y", "x", EQ_YX),
            B.semijoin(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ_XY),
            B.antijoin(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ_XY),
            B.outerjoin(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ_XY,
                        ["d", "e"]),
            B.nestjoin(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ_XY, "g"),
            B.join(B.extent("SMALL"), B.extent("BIG"), "x", "y", pred_extra),
            B.sel("y", B.eq(B.attr(B.var("y"), "d"), B.lit(7)), B.extent("BIG")),
        ]

    def test_all_queries_match_oracle(self, indexed):
        db, catalog = indexed
        executor = Executor(db, catalog=catalog)
        oracle = Interpreter(db)
        for query in self.queries():
            assert executor.execute(query) == oracle.eval(query), str(query)

    def test_index_probes_counted(self, indexed):
        db, catalog = indexed
        stats = Stats()
        executor = Executor(db, stats, catalog=catalog)
        executor.execute(
            B.join(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ_XY)
        )
        assert stats.index_probes == 8  # one per SMALL tuple
        assert stats.hash_inserts == 0  # no transient build

    def test_stale_index_rebuilt_on_execute(self, indexed):
        db, catalog = indexed
        query = B.sel("y", B.eq(B.attr(B.var("y"), "d"), B.lit(0)), B.extent("BIG"))
        executor = Executor(db, catalog=catalog)
        before = executor.execute(query)
        rows = list(db.extent("BIG")) + [VTuple(d=0, e=9999)]
        db.set_extent("BIG", rows)
        after = executor.execute(query)
        assert len(after) == len(before) + 1

    def test_same_size_replacement_detected(self, indexed):
        # cardinality alone cannot see a same-size replacement; the
        # staleness check compares extent values by identity
        db, catalog = indexed
        query = B.sel("y", B.eq(B.attr(B.var("y"), "d"), B.lit(0)), B.extent("BIG"))
        executor = Executor(db, catalog=catalog)
        old_rows = list(db.extent("BIG"))
        db.set_extent(
            "BIG", [VTuple(d=row["d"] + 1000, e=row["e"]) for row in old_rows]
        )
        assert executor.execute(query) == Interpreter(db).eval(query) == frozenset()


class TestMembershipStillWorks:
    def test_membership_join_costed(self):
        db = MemoryDatabase(
            {
                "S": [
                    VTuple(s=i, parts=vset(i, i + 1, i + 2)) for i in range(40)
                ],
                "P": [VTuple(pid=i) for i in range(60)],
            }
        )
        catalog = Catalog(db)
        catalog.analyze()
        member = B.member(B.attr(B.var("p"), "pid"), B.attr(B.var("s"), "parts"))
        query = B.semijoin(B.extent("S"), B.extent("P"), "s", "p", member)
        plan = Planner(catalog).plan(query)
        assert isinstance(plan, P.MembershipHashJoin)
        assert Executor(db, catalog=catalog).execute(query) == Interpreter(db).eval(query)


class TestIndexJoinOverFilteredExtent:
    """A pushed-down right-side selection no longer disables the index
    nested-loop join: it rides along as a residual applied after the
    probe (ROADMAP 'known simplifications' item 1)."""

    def _query(self, select_var="y"):
        filtered = B.sel(
            select_var,
            B.gt(B.attr(B.var(select_var), "e"), 100),
            B.extent("BIG"),
        )
        return B.join(B.extent("SMALL"), filtered, "x", "y", EQ_XY)

    def test_filtered_right_extent_still_uses_index_join(self, indexed):
        db, catalog = indexed
        plan = Planner(catalog).plan(self._query())
        assert isinstance(plan, P.IndexNestedLoopJoin)
        assert "residual" in plan.describe()
        assert "e > 100" in plan.describe()

    def test_select_var_differs_from_join_var(self, indexed):
        db, catalog = indexed
        plan = Planner(catalog).plan(self._query(select_var="z"))
        assert isinstance(plan, P.IndexNestedLoopJoin)
        # the pushed predicate is re-expressed over the join variable
        assert "y.e > 100" in plan.describe()

    def test_results_match_oracle(self, indexed):
        db, catalog = indexed
        for query in (self._query(), self._query("z"),
                      B.semijoin(B.extent("SMALL"),
                                 B.sel("y", B.gt(B.attr(B.var("y"), "e"), 100),
                                       B.extent("BIG")),
                                 "x", "y", EQ_XY)):
            oracle = Interpreter(db).eval(query)
            assert Executor(db, catalog=catalog).execute(query) == oracle
            assert Executor(db).execute(query) == oracle

    def test_semijoin_kind_supported(self, indexed):
        db, catalog = indexed
        query = B.semijoin(
            B.extent("SMALL"),
            B.sel("y", B.gt(B.attr(B.var("y"), "e"), 100), B.extent("BIG")),
            "x", "y", EQ_XY,
        )
        plan = Planner(catalog).plan(query)
        assert isinstance(plan, P.IndexNestedLoopJoin)

    def test_filter_over_unindexed_extent_unaffected(self, analyzed):
        db, catalog = analyzed
        plan = Planner(catalog).plan(self._query())
        assert not isinstance(plan, P.IndexNestedLoopJoin)


class TestLocalConjunctsUnderTheSemijoin:
    """``where r(x) and (not) exists y in Y : p`` — Rule 1's conjunct
    variant leaves ``r`` on ``X``, so the join sees a filtered operand
    (``unnest_warm``'s semijoin / antijoin texts)."""

    @pytest.mark.parametrize("negation, kind", [("", "semijoin"), ("not ", "antijoin")])
    def test_filter_sits_under_the_hash_join(self, negation, kind):
        from repro.datamodel import Catalog as TypeCatalog, INT, SetType, TupleType
        from repro.service import QueryService

        db = MemoryDatabase(
            {
                "X": [VTuple(a=i % 50, b=i) for i in range(200)],
                "Y": [VTuple(d=i % 50, e=i) for i in range(200)],
            }
        )
        types = TypeCatalog(
            {
                "X": SetType(TupleType({"a": INT, "b": INT})),
                "Y": SetType(TupleType({"d": INT, "e": INT})),
            }
        )
        catalog = Catalog(db)
        catalog.analyze()
        text = (
            f"select x.b from x in X where x.b < $k and {negation}exists y in Y : "
            "x.a = y.d and y.e < $m"
        )
        with QueryService(db, types, catalog) as svc:
            lines = [line.strip().split(" (rows")[0] for line in svc.explain(text).splitlines()]
            assert lines == [
                "Map [x: x.b]",
                f"HashJoin({kind}) [x.a = y.d] <builds right>",
                "Filter [x: x.b < $k]",
                "Scan [X]",
                "Filter [y: y.e < $m]",
                "Scan [Y]",
            ]
            got = svc.execute(text, {"k": 120, "m": 30}).rows
        partners = {y["d"] for y in db.extent("Y") if y["e"] < 30}
        assert got == {
            x["b"] for x in db.extent("X")
            if x["b"] < 120 and (x["a"] in partners) != bool(negation)
        }
