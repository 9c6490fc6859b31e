"""A plan's ``cost≈`` is the price of the plan it annotates.

Joins, index scans and partitioned joins carry the price of the
alternative the planner chose, priced over their planned operands; every
other operator carries its planned children's prices plus its own
increment.  So a serial parent never reads cheaper than its child, and
the root's price is the chosen plan's, not the estimator's price of the
logical expression.
"""

import pytest

from repro.adl import builders as B
from repro.datamodel import VTuple
from repro.engine.cost import CostModel, Estimate
from repro.engine.planner import Planner
from repro.shard.nodes import PartitionedHashJoin
from repro.storage import Catalog, MemoryDatabase
from tests.engine.test_golden_explain import cases
from tests.engine.test_join_alternatives import stacked_db, stacked_query

#: float slack of a sum of increments
EPS = 1e-9


def _pairs(node):
    """(parent, child) for every priced edge outside a partitioned join
    (whose per-partition inputs are priced whole, not per fragment)."""
    if isinstance(node, PartitionedHashJoin):
        return
    for child in node.children():
        if child.est_cost is not None:
            yield node, child
        yield from _pairs(child)


@pytest.mark.parametrize("name", sorted(cases()))
def test_no_serial_node_reads_cheaper_than_its_child(name):
    plan = cases()[name]()
    for parent, child in _pairs(plan):
        assert parent.est_cost >= child.est_cost - EPS, (type(parent), type(child))


def test_indexed_point_read_is_priced_below_a_full_scan():
    plan = cases()["index_scan_under_map"]()
    (index_scan,) = plan.children()
    assert type(index_scan).__name__ == "IndexScan"
    # BIG holds 400 rows: scanning it costs 400
    assert plan.est_cost < 400
    assert plan.est_cost == pytest.approx(index_scan.est_cost + plan.est_rows)


def test_root_carries_the_chosen_join_not_the_logical_estimate():
    plan = cases()["inlj_semijoin_under_map"]()
    (join,) = plan.children()
    assert type(join).__name__ == "IndexNestedLoopJoin"
    assert plan.est_cost == pytest.approx(join.est_cost + join.est_rows)


def _estimate(node):
    return Estimate(node.est_rows, node.est_cost)


def test_a_join_over_a_join_is_priced_from_the_planned_join():
    """The kept order of the stacked-selection query: the outer hash join
    builds R1 and probes the inner join's *plan*, priced as planned."""
    _, catalog = stacked_db()
    plan = Planner(catalog, reorder=False).plan(stacked_query())
    inner, r1 = plan.children()
    assert type(plan).__name__ == type(inner).__name__ == "HashJoinBase"
    assert plan.est_cost > inner.est_cost
    assert plan.est_cost == pytest.approx(
        CostModel.hash_join_cost(_estimate(r1), _estimate(inner), plan.est_rows)
    )


def test_an_index_join_over_an_index_scan_is_priced_from_the_probe():
    """``select y.e from y in Y where y.d = k and exists x in X : y.d = x.a
    and x.v < m``, both keys indexed: the semijoin probes X's index once
    per row the point read on Y returns, so the plan is priced far below
    a scan of either extent."""
    db = MemoryDatabase(
        {
            "X": [VTuple(a=i % 500, v=i % 100) for i in range(3000)],
            "Y": [VTuple(d=i % 500, e=i) for i in range(3000)],
        }
    )
    catalog = Catalog(db)
    catalog.analyze()
    catalog.create_index("X", "a")
    catalog.create_index("Y", "d")
    y, x = B.var("y"), B.var("x")
    expr = B.amap("y", B.attr(y, "e"), B.semijoin(
        B.sel("y", B.eq(B.attr(y, "d"), 3), B.extent("Y")),
        B.sel("x", B.lt(B.attr(x, "v"), 50), B.extent("X")),
        "y", "x", B.eq(B.attr(y, "d"), B.attr(x, "a")),
    ))
    plan = Planner(catalog).plan(expr)
    (join,) = plan.children()
    (scan,) = join.children()
    assert type(join).__name__ == "IndexNestedLoopJoin"
    assert type(scan).__name__ == "IndexScan"
    assert plan.est_cost < 100
    assert join.est_cost > scan.est_cost
    assert plan.est_cost == pytest.approx(join.est_cost + join.est_rows)


@pytest.mark.parametrize("name", ["join_order_kept", "join_order_reordered"])
def test_a_region_root_costs_its_join_order_header_price(name):
    plan = cases()[name]()
    (decision,) = plan.join_orders
    assert plan.est_cost == pytest.approx(decision.chosen_cost)
