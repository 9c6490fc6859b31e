"""Shredding enters through the planner's priced candidate enumeration
(PR 9): it wins only when the cost model says so.

Two provable behaviours gate this PR:

* the paper's tiny queries stay on the unshredded nestjoin plan — a
  *serial* stitch's logical estimate is the nestjoin's join arithmetic
  plus the stitch's own strictly-positive extra work, so it can never
  undercut the fused form's; the plans the optimizer ranks add one
  freedom, the stitch's flat join may build its smaller left side;
* on large co-partitioned operands with worker capacity, the shredded
  candidate prices below the serial nestjoin and is chosen, and the
  priced verdict is recorded on the trace either way.
"""

import pytest

from repro.adl import builders as B
from repro.datamodel import Catalog as TypeCatalog, INT, SetType, TupleType, VTuple
from repro.engine.cost import CostModel
from repro.rewrite.strategy import Optimizer
from repro.shred import StitchNest, shred_expr
from repro.storage import Catalog, MemoryDatabase
from repro.workload.queries import figure3_nestjoin

TYPES = TypeCatalog(
    {
        "X": SetType(TupleType({"a": INT, "b": INT})),
        "Y": SetType(TupleType({"d": INT, "e": INT})),
    }
)


def make_db(n, fan=2, spread=1):
    x = [VTuple(a=i % 7, b=i) for i in range(n)]
    y = [VTuple(d=i % (spread * n), e=i % 5) for i in range(fan * spread * n)]
    return MemoryDatabase({"X": x, "Y": y})


def analyzed(db, parts=0):
    catalog = Catalog(db)
    catalog.analyze()
    if parts:
        catalog.partition("X", "b", parts)
        catalog.partition("Y", "d", parts)
    return catalog


class TestTinyQueriesStayUnshredded:
    def test_paper_scale_serial_keeps_the_nestjoin(self):
        db = make_db(10)
        res = Optimizer(TYPES, catalog=analyzed(db)).optimize(figure3_nestjoin())
        assert res.chosen.option != "shredded"
        options = [a.option for a in res.attempts]
        assert "shredded" in options  # priced, not skipped
        assert any("shredding priced" in n for n in res.chosen.trace.notes)

    def test_serial_stitch_never_undercuts_the_fused_nestjoin(self):
        """The structural guarantee, checked across data shapes: with no
        worker capacity the shredded estimate is strictly above the
        nestjoin's."""
        q = figure3_nestjoin()
        for n, fan, spread in [(5, 1, 1), (50, 3, 2), (400, 8, 1), (200, 2, 10)]:
            db = make_db(n, fan, spread)
            model = CostModel(analyzed(db))
            shredded = shred_expr(q, Optimizer(TYPES).ctx)
            assert shredded is not None
            assert model.estimate(shredded).cost > model.estimate(q).cost, (n, fan, spread)

    def test_workers_without_partitioning_keep_the_nestjoin(self):
        # worker capacity alone is not enough: without co-partitioned
        # operands the inner join has no parallel price
        db = make_db(400, fan=4)
        res = Optimizer(TYPES, catalog=analyzed(db), parallel_workers=4).optimize(
            figure3_nestjoin()
        )
        assert res.chosen.option != "shredded"

    def test_no_catalog_means_no_shredded_candidate(self):
        res = Optimizer(TYPES).optimize(figure3_nestjoin())
        assert all(a.option != "shredded" for a in res.attempts)


class TestShreddingWinsAtScale:
    def _optimize_big(self):
        db = make_db(2000, fan=2, spread=8)  # big, mostly-dangling right side
        catalog = analyzed(db, parts=4)
        res = Optimizer(TYPES, catalog=catalog, parallel_workers=4).optimize(
            figure3_nestjoin()
        )
        return db, catalog, res

    def test_chosen_and_traced(self):
        _, _, res = self._optimize_big()
        assert res.chosen.option == "shredded"
        assert any(
            "shredding priced" in n and "shredded" in n for n in res.chosen.trace.notes
        )
        by_option = {a.option: a for a in res.attempts}
        assert by_option["shredded"].est_cost < by_option["none-needed"].est_cost

    def test_chosen_plan_contains_the_stitch(self):
        db, catalog, res = self._optimize_big()
        from repro.engine.planner import Planner

        plan = Planner(catalog, parallel_workers=4).plan(res.chosen.expr)
        assert any(isinstance(op, StitchNest) for op in plan.operators())
        assert "StitchNest" in plan.explain()

    def test_skew_degrades_the_parallel_price(self):
        """The stitch's partition-wise price uses the registered shard
        statistics' balance: the same shredded plan over the same data
        must price higher when one shard holds most of the rows."""
        from types import SimpleNamespace

        from repro.engine.planner import plan_query

        db = make_db(2000, fan=2, spread=8)
        catalog = analyzed(db, parts=4)
        shredded = shred_expr(figure3_nestjoin(), Optimizer(TYPES).ctx)
        assert shredded is not None
        even_cost = plan_query(shredded, catalog, parallel_workers=4).est_cost

        real = catalog.partitioning

        def skewed_partitioning(extent):
            pe = real(extent)
            total = sum(pe.cardinalities)
            rest = round(total * 0.3 / (pe.parts - 1))
            skewed = [total - rest * (pe.parts - 1)] + [rest] * (pe.parts - 1)
            return SimpleNamespace(attr=pe.attr, parts=pe.parts, cardinalities=skewed)

        catalog.partitioning = skewed_partitioning
        skew_cost = plan_query(shredded, catalog, parallel_workers=4).est_cost
        assert skew_cost > even_cost
