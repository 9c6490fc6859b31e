"""Golden plan tests for DP join reordering.

Chain and star workloads with skewed catalog cardinalities: the tests pin
the chosen join order, the hash build sides, that skewing the
cardinalities the other way flips the order, and that reordered plans
stay result-identical to unordered oracles.
"""

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from repro.datamodel import VTuple
from repro.engine import plan as P
from repro.engine.cost import CostModel
from repro.engine.interpreter import Interpreter
from repro.engine.joinorder import extract_join_graph, reorder_joins
from repro.engine.planner import Executor, Planner
from repro.storage import Catalog, MemoryDatabase

TRUE = A.Literal(True)


def av(var, attr):
    return B.attr(B.var(var), attr)


def chain_query():
    """((R1 ⋈ R2) ⋈ R3) ⋈ R4 along a1=a2, b2=b3, c3=c4."""
    return B.join(
        B.join(
            B.join(B.extent("R1"), B.extent("R2"), "x", "y", B.eq(av("x", "a1"), av("y", "a2"))),
            B.extent("R3"),
            "t",
            "z",
            B.eq(av("t", "b2"), av("z", "b3")),
        ),
        B.extent("R4"),
        "u",
        "w",
        B.eq(av("u", "c3"), av("w", "c4")),
    )


def chain_db(n1, n2, n3, n4):
    return MemoryDatabase(
        {
            "R1": [VTuple(a1=i % 50, i1=i) for i in range(n1)],
            "R2": [VTuple(a2=i % 50, b2=i % 40, i2=i) for i in range(n2)],
            "R3": [VTuple(b3=i % 40, c3=i % 30, i3=i) for i in range(n3)],
            "R4": [VTuple(c4=i % 30, i4=i) for i in range(n4)],
        }
    )


def analyzed(db):
    catalog = Catalog(db)
    catalog.analyze()
    return catalog


def star_query():
    """((C ⋈ D1) ⋈ D2) ⋈ D3 — the rewriter's order hits the big dimension
    first; the selective one should come first instead."""
    return B.join(
        B.join(
            B.join(B.extent("C"), B.extent("D1"), "c", "p", B.eq(av("c", "k1"), av("p", "x1"))),
            B.extent("D2"),
            "t",
            "q",
            B.eq(av("t", "k2"), av("q", "x2")),
        ),
        B.extent("D3"),
        "u",
        "r",
        B.eq(av("u", "k3"), av("r", "x3")),
    )


def star_db():
    return MemoryDatabase(
        {
            "C": [
                VTuple(k1=i % 100, k2=i % 200, k3=i % 60, ic=i) for i in range(400)
            ],
            "D1": [VTuple(x1=i % 100, i1=i) for i in range(500)],
            "D2": [VTuple(x2=i, i2=i) for i in range(4)],
            "D3": [VTuple(x3=i % 60, i3=i) for i in range(60)],
        }
    )


def assert_parity(db, catalog, query):
    """Reordered result == unordered cost-based == heuristic == oracle."""
    oracle = Interpreter(db).eval(query)
    reordered = Executor(db, catalog=catalog).execute(query)
    unordered = Executor(db, catalog=catalog, reorder=False).execute(query)
    heuristic = Executor(db).execute(query)
    assert reordered == unordered == heuristic == oracle
    return oracle


class TestChainReordering:
    """4-extent chain, cardinalities skewed toward the far end."""

    @pytest.fixture()
    def setup(self):
        db = chain_db(300, 300, 20, 5)
        return db, analyzed(db)

    def test_chosen_order_starts_from_the_small_end(self, setup):
        db, catalog = setup
        (decision,) = Planner(catalog).plan(chain_query()).join_orders
        assert decision.reordered
        assert decision.chosen == "R4 ⋈ R3 ⋈ R2 ⋈ R1"
        assert decision.original == "R1 ⋈ R2 ⋈ R3 ⋈ R4"

    def test_dp_order_estimated_cheaper_than_rewriter_order(self, setup):
        db, catalog = setup
        (decision,) = Planner(catalog).plan(chain_query()).join_orders
        assert decision.chosen_cost < decision.original_cost

    def test_build_sides_follow_the_small_operands(self, setup):
        db, catalog = setup
        plan = Planner(catalog).plan(chain_query())
        # every hash join hashes its (smaller) left chain prefix
        joins = [op for op in plan.operators() if isinstance(op, P.HashJoinBase)]
        assert len(joins) == 3
        assert all(j.build_side == "left" for j in joins)

    def test_skewing_cardinalities_flips_the_order(self):
        db = chain_db(5, 20, 300, 300)  # now R1 is the small end
        catalog = analyzed(db)
        (decision,) = Planner(catalog).plan(chain_query()).join_orders
        assert not decision.reordered  # the rewriter's order is already best
        assert decision.chosen == "R1 ⋈ R2 ⋈ R3 ⋈ R4"

    def test_parity_with_unordered_oracles(self, setup):
        db, catalog = setup
        result = assert_parity(db, catalog, chain_query())
        assert result  # non-trivial workload

    def test_explain_carries_join_order_header(self, setup):
        db, catalog = setup
        text = Executor(db, catalog=catalog).explain(chain_query())
        assert text.splitlines()[0].startswith("-- join order: R4 ⋈ R3 ⋈ R2 ⋈ R1")
        assert "rewriter order R1 ⋈ R2 ⋈ R3 ⋈ R4" in text.splitlines()[0]
        assert "candidates:" in text.splitlines()[0]

    def test_reorder_false_keeps_rewriter_order(self, setup):
        db, catalog = setup
        assert Planner(catalog, reorder=False).plan(chain_query()).join_orders == ()


class TestStarReordering:
    """Star join: the selective dimension must come before the big one."""

    @pytest.fixture()
    def setup(self):
        db = star_db()
        return db, analyzed(db)

    def test_selective_dimension_joins_first(self, setup):
        db, catalog = setup
        (decision,) = Planner(catalog).plan(star_query()).join_orders
        assert decision.reordered
        order = decision.chosen.split(" ⋈ ")
        assert set(order) == {"C", "D1", "D2", "D3"}
        assert order.index("D2") < order.index("D1")
        assert order[-1] == "D1"  # the big dimension goes last

    def test_parity_with_unordered_oracles(self, setup):
        db, catalog = setup
        assert_parity(db, catalog, star_query())


class TestGraphExtraction:
    def test_single_leaf_conjuncts_become_pushed_selections(self):
        db = chain_db(50, 50, 20, 5)
        catalog = analyzed(db)
        query = B.join(
            B.extent("R1"),
            B.extent("R2"),
            "x",
            "y",
            B.conj(
                B.eq(av("x", "a1"), av("y", "a2")),
                B.eq(av("y", "i2"), B.lit(7)),
            ),
        )
        graph = extract_join_graph(query, catalog)
        assert graph is not None
        selects = [
            leaf for leaf in graph.leaves if isinstance(leaf.expr, A.Select)
        ]
        assert len(selects) == 1
        assert [str(e) for e in graph.edges] or graph.edges  # edge survived
        assert len(graph.edges) == 1

    def test_whole_tuple_reference_bails(self):
        db = chain_db(10, 10, 10, 10)
        catalog = analyzed(db)
        # y used as a whole tuple: reordering cannot attribute it
        query = B.join(
            B.join(B.extent("R1"), B.extent("R2"), "x", "y",
                   B.eq(av("x", "a1"), av("y", "a2"))),
            B.extent("R3"),
            "t",
            "z",
            B.eq(B.var("t"), B.var("z")),
        )
        assert extract_join_graph(query, catalog) is None

    def test_two_leaf_regions_left_alone(self):
        db = chain_db(300, 300, 20, 5)
        catalog = analyzed(db)
        plan = Planner(catalog).plan(
            B.join(B.extent("R1"), B.extent("R2"), "x", "y",
                   B.eq(av("x", "a1"), av("y", "a2")))
        )
        assert plan.join_orders == ()

    def test_no_catalog_no_reordering(self):
        db = chain_db(300, 300, 20, 5)
        ex = Executor(db)
        text = ex.explain(chain_query())
        assert "-- join order" not in text
        assert ex.plan(chain_query()).join_orders == ()


class TestCrossProducts:
    @staticmethod
    def _plans_around_the_cross_product(db):
        """Plan ((R1 × R3) ⋈ R2) over ``db``, check the DP avoided the
        cross product, and return ``(catalog, query)``."""
        catalog = analyzed(db)
        query = B.join(
            B.join(B.extent("R1"), B.extent("R3"), "x", "z", TRUE),
            B.extent("R2"),
            "t",
            "y",
            B.conj(
                B.eq(av("t", "a1"), av("y", "a2")),
                B.eq(av("t", "b3"), av("y", "b2")),
            ),
        )
        plan = Planner(catalog).plan(query)
        (decision,) = plan.join_orders
        # R1 and R3 share no predicate: the rewriter's order crosses them
        assert decision.original.startswith("R1 ⋈ R3")
        assert decision.reordered
        # no nested-loop (cross) join survives in the chosen plan
        assert not any(isinstance(op, P.NestedLoopJoin) for op in plan.operators())
        return catalog, query

    def test_cross_product_in_rewriter_order_is_avoided(self):
        """((R1 × R3) ⋈ R2): the rewriter's order opens with a cross
        product, but the graph is connected — the DP order must not.  The
        plan is checked at 200/200/100 rows; result parity, whose
        interpreter leg walks every R1 × R3 pair, at 60/60/30 rows, where
        the same order is chosen."""
        self._plans_around_the_cross_product(chain_db(200, 200, 100, 5))
        db = chain_db(60, 60, 30, 5)
        catalog, query = self._plans_around_the_cross_product(db)
        assert_parity(db, catalog, query)

    def test_disconnected_graph_combines_components_small_first(self):
        db = MemoryDatabase(
            {
                "R1": [VTuple(a1=i, i1=i) for i in range(20)],
                "R2": [VTuple(a2=i % 20, i2=i) for i in range(40)],
                "S": [VTuple(s1=i) for i in range(3)],
            }
        )
        catalog = analyzed(db)
        query = B.join(
            B.join(B.extent("R1"), B.extent("S"), "x", "s", TRUE),
            B.extent("R2"),
            "t",
            "y",
            B.eq(av("t", "a1"), av("y", "a2")),
        )
        (decision,) = Planner(catalog).plan(query).join_orders
        # the R1⋈R2 component (40 rows) is joined, then crossed with S
        assert "S" in decision.chosen
        assert_parity(db, catalog, query)


class TestNestedRegions:
    def test_region_under_enclosing_operators_is_reordered(self):
        db = chain_db(300, 300, 20, 5)
        catalog = analyzed(db)
        query = B.project(B.sel("v", B.eq(av("v", "i4"), B.lit(1)), chain_query()), "i1")
        (decision,) = Planner(catalog).plan(query).join_orders
        assert decision.reordered
        oracle = Interpreter(db).eval(query)
        assert Executor(db, catalog=catalog).execute(query) == oracle

    def test_nested_region_inside_ineligible_outer_region_decided_once(self):
        """A reorderable chain inside a leaf of a 2-leaf (ineligible)
        outer join must yield exactly one decision — no duplicate DP runs
        and no duplicate explain headers."""
        db = MemoryDatabase(
            {
                "R1": [VTuple(a1=i % 50, i1=i) for i in range(300)],
                "R2": [VTuple(a2=i % 50, b2=i % 40, i2=i) for i in range(300)],
                "R3": [VTuple(b3=i % 40, c3=i % 20, i3=i) for i in range(20)],
                "R4": [VTuple(c4=i % 20, i4=i) for i in range(5)],
                "S": [VTuple(s1=i % 20, s2=i) for i in range(10)],
            }
        )
        catalog = analyzed(db)
        query = B.join(
            B.extent("S"),
            B.project(chain_query(), "c4", "i1"),
            "s", "c",
            B.eq(av("s", "s1"), av("c", "c4")),
        )
        assert len(Planner(catalog).plan(query).join_orders) == 1
        text = Executor(db, catalog=catalog).explain(query)
        assert text.count("-- join order") == 1
        oracle = Interpreter(db).eval(query)
        assert Executor(db, catalog=catalog).execute(query) == oracle

    def test_region_inside_semijoin_operand_is_reordered(self):
        db = chain_db(300, 300, 20, 5)
        catalog = analyzed(db)
        query = B.semijoin(
            B.extent("R3"),
            chain_query(),
            "outer",
            "inner",
            B.eq(av("outer", "b3"), av("inner", "b2")),
        )
        assert len(Planner(catalog).plan(query).join_orders) == 1
        oracle = Interpreter(db).eval(query)
        assert Executor(db, catalog=catalog).execute(query) == oracle
