"""Unit tests for the Section 4 strategy driver."""

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from repro.datamodel import VTuple, vset
from repro.engine.interpreter import Interpreter
from repro.rewrite.common import is_set_oriented, nested_extent_count
from repro.rewrite.strategy import DEFAULT_PRIORITY, Optimizer, optimize, optimize_oosql
from repro.storage import MemoryDatabase
from repro.workload.paper_db import (
    example_database,
    example_schema,
    figure2_catalog,
    figure2_database,
    section4_catalog,
    section4_database,
)
from repro.workload.queries import (
    example_query_4,
    example_query_5,
    example_query_6,
    figure1_query,
)

CORR = B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d"))


class TestGoalPredicate:
    def test_nested_extent_count(self):
        nested = B.sel("x", B.exists("y", B.extent("Y"), CORR), B.extent("X"))
        assert nested_extent_count(nested) == 1
        assert not is_set_oriented(nested)

    def test_join_is_set_oriented(self):
        join = B.semijoin(B.extent("X"), B.extent("Y"), "x", "y", CORR)
        assert nested_extent_count(join) == 0
        assert is_set_oriented(join)

    def test_attribute_nesting_is_set_oriented(self):
        # iteration over set-valued attributes is fine (the paper's goal
        # concerns base tables only)
        expr = B.sel("x", B.exists("m", B.attr(B.var("x"), "c"), B.lit(True)),
                     B.extent("X"))
        assert is_set_oriented(expr)

    def test_nestjoin_result_counts(self):
        expr = B.nestjoin(B.extent("X"), B.extent("Y"), "x", "y", B.lit(True), "g",
                          result=B.sel("w", B.lit(True), B.extent("Z")))
        assert nested_extent_count(expr) == 1


class TestOptionSelection:
    def test_relational_first(self):
        """A query Rule 1 can handle must use the relational option."""
        query = B.sel("x", B.exists("y", B.extent("Y"), CORR), B.extent("X"))
        result = optimize(query)
        assert result.option == "relational"
        assert isinstance(result.expr, A.SemiJoin)

    def test_unnest_option_for_example_4(self):
        result = Optimizer(section4_catalog()).optimize(example_query_4())
        assert result.option == "unnest"
        assert any(isinstance(n, A.Unnest) for n in result.expr.walk())
        assert any(isinstance(n, A.AntiJoin) for n in result.expr.walk())

    def test_nestjoin_option_for_figure1(self):
        result = Optimizer(figure2_catalog()).optimize(figure1_query())
        assert result.option == "nestjoin"
        assert any(isinstance(n, A.NestJoin) for n in result.expr.walk())

    def test_nestjoin_option_for_example_6(self):
        result = Optimizer(section4_catalog()).optimize(example_query_6())
        assert result.option == "nestjoin"

    def test_already_set_oriented_untouched(self):
        query = B.sel("x", B.gt(B.attr(B.var("x"), "a"), 1), B.extent("X"))
        result = optimize(query)
        assert result.option == "none-needed"
        assert result.expr == query

    def test_failed_attempts_recorded(self):
        result = Optimizer(figure2_catalog()).optimize(figure1_query())
        options = [a.option for a in result.attempts]
        assert "relational" in options  # tried and failed before nestjoin
        assert options.index("relational") < options.index("nestjoin")

    def test_nested_loop_fallback(self):
        """A correlated block whose operand schema is unknown (no checker)
        and that no relational rule can reach stays nested-loop."""
        sub = B.sel("y", CORR, B.extent("Y"))
        query = B.sel("x", B.ni(B.attr(B.var("x"), "c"), sub), B.extent("X"))
        result = optimize(query)  # no schema: nestjoin/grouping decline
        assert result.option.startswith("nested-loop")
        assert not result.set_oriented

    def test_nested_loop_fallback_without_schema_says_why(self):
        """The silent cause of most nested-loop outcomes — no type
        checker, so nestjoin / grouping / unnest never tried — is on the
        chosen trace; with a schema the same query unnests and no such
        note appears."""
        sub = B.sel("y", CORR, B.extent("Y"))
        query = B.sel("x", B.ni(B.attr(B.var("x"), "c"), sub), B.extent("X"))
        marker = "no schema / type catalog was given"

        untyped = optimize(query)
        assert untyped.option.startswith("nested-loop")
        assert any(marker in note for note in untyped.trace.notes)
        assert marker in untyped.render()

        typed = optimize(query, figure2_catalog())
        assert typed.set_oriented
        assert not any(marker in note for note in typed.trace.notes)


class TestPriorityPermutation:
    """The ablation hook: permuting priorities changes the chosen plan."""

    def test_nestjoin_first_takes_figure1(self):
        opt = Optimizer(figure2_catalog(), priority=("nestjoin", "relational"))
        result = opt.optimize(figure1_query())
        assert result.option == "nestjoin"

    def test_nestjoin_first_takes_semijoin_queries_too(self):
        """With nestjoin prioritized, even Rule-1 queries use it — showing
        why the paper puts relational joins first."""
        query = B.sel(
            "x",
            B.subseteq(B.attr(B.var("x"), "c"), B.sel("y", CORR, B.extent("Y"))),
            B.extent("X"),
        )
        relational_first = Optimizer(figure2_catalog()).optimize(query)
        nestjoin_first = Optimizer(
            figure2_catalog(), priority=("nestjoin", "relational")
        ).optimize(query)
        assert any(isinstance(n, A.NestJoin) for n in nestjoin_first.expr.walk())
        assert nestjoin_first.option == "nestjoin"

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError):
            Optimizer(priority=("magic",))


class TestEndToEndSemantics:
    """Optimized plans must equal naive evaluation on real data."""

    @pytest.mark.parametrize("builder", [example_query_4, example_query_5, example_query_6])
    def test_section4_examples(self, builder):
        db = section4_database()
        query = builder()
        result = Optimizer(section4_catalog()).optimize(query)
        assert result.set_oriented
        interp = Interpreter(db)
        assert interp.eval(result.expr) == interp.eval(query)

    def test_figure1(self):
        db = figure2_database()
        query = figure1_query()
        result = Optimizer(figure2_catalog()).optimize(query)
        interp = Interpreter(db)
        assert interp.eval(result.expr) == interp.eval(query)

    def test_oosql_text_end_to_end(self):
        schema = example_schema()
        db = example_database()
        result = optimize_oosql(
            "select s.sname from s in SUPPLIER "
            "where exists p in PART : p.oid in s.parts_supplied "
            'and p.color = "red"',
            schema,
        )
        assert result.set_oriented
        from repro.translate import compile_oosql

        original = compile_oosql(
            "select s.sname from s in SUPPLIER "
            "where exists p in PART : p.oid in s.parts_supplied "
            'and p.color = "red"',
            schema,
        )
        interp = Interpreter(db)
        assert interp.eval(result.expr) == interp.eval(original) == frozenset({"s1", "s2", "s5"})

    def test_trace_is_replayable(self):
        """Every trace step's after-expression evaluates identically."""
        db = figure2_database()
        query = figure1_query()
        result = Optimizer(figure2_catalog()).optimize(query)
        interp = Interpreter(db)
        want = interp.eval(query)
        for step in result.trace.steps:
            assert interp.eval(step.after) == want, step.rule


class TestCostRankedSelection:
    """With a storage catalog, every option pipeline runs and the cheapest
    estimated candidate wins (paper priority order as the tie-break); the
    no-catalog fallback keeps first-success behavior unchanged."""

    @pytest.fixture()
    def catalog(self):
        from repro.storage import Catalog

        db = section4_database()
        catalog = Catalog(db)
        catalog.analyze()
        return db, catalog

    def test_all_options_attempted(self, catalog):
        db, cat = catalog
        result = Optimizer(section4_catalog(), catalog=cat).optimize(example_query_5())
        assert len(result.attempts) == len(DEFAULT_PRIORITY)

    def test_without_catalog_first_success_returns_early(self):
        result = Optimizer(section4_catalog()).optimize(example_query_5())
        assert len(result.attempts) == 1
        assert result.attempts[0].est_cost is None

    def test_set_oriented_candidates_are_costed(self, catalog):
        db, cat = catalog
        result = Optimizer(section4_catalog(), catalog=cat).optimize(example_query_5())
        for attempt in result.attempts:
            if attempt.set_oriented:
                assert attempt.est_cost is not None
            else:
                assert attempt.est_cost is None
        assert result.chosen.est_cost is not None

    def test_chosen_is_cheapest_with_priority_tiebreak(self, catalog):
        db, cat = catalog
        result = Optimizer(section4_catalog(), catalog=cat).optimize(example_query_5())
        costed = [a for a in result.attempts if a.est_cost is not None]
        cheapest = min(a.est_cost for a in costed)
        assert result.chosen.est_cost == cheapest
        # tie-break: among equal costs the paper's order wins
        tied = [a.option for a in costed if a.est_cost == cheapest]
        assert result.option == tied[0]

    def test_trace_records_candidate_costs(self, catalog):
        db, cat = catalog
        result = Optimizer(section4_catalog(), catalog=cat).optimize(example_query_5())
        notes = "\n".join(result.chosen.trace.notes)
        assert "cost-ranked candidates:" in notes
        assert "estimated cost" in notes
        assert "cost-ranked candidates" in result.render() or True  # render works
        assert set(result.candidate_costs) == set(DEFAULT_PRIORITY)

    def test_cost_ranked_choice_is_semantics_preserving(self, catalog):
        db, cat = catalog
        for query in (example_query_4(), example_query_5()):
            result = Optimizer(section4_catalog(), catalog=cat).optimize(query)
            expected = Interpreter(db).eval(query)
            assert Interpreter(db).eval(result.expr) == expected

    def test_catalog_with_no_successes_falls_back(self):
        from repro.storage import Catalog

        # the same option-defeating query as test_nested_loop_fallback:
        # a catalog must not change the nested-loop outcome, only ranking
        db = MemoryDatabase({"X": [], "Y": []})
        cat = Catalog(db)
        cat.analyze()
        sub = B.sel("y", CORR, B.extent("Y"))
        query = B.sel("x", B.ni(B.attr(B.var("x"), "c"), sub), B.extent("X"))
        result = Optimizer(catalog=cat).optimize(query)
        assert result.option.startswith("nested-loop")
        assert not result.set_oriented
