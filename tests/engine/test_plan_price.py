"""A plan's ``cost≈`` is the price of the plan it annotates.

Joins, index scans and partitioned joins carry the price of the
alternative the planner chose; every other operator carries its planned
children's prices plus its own increment.  So a serial parent never
reads cheaper than its child, and the root's price is the chosen plan's,
not the estimator's price of the logical expression.
"""

import pytest

from repro.shard.nodes import PartitionedHashJoin
from tests.engine.test_golden_explain import cases

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
