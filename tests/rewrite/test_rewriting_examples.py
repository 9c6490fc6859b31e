"""The paper's derivations, replayed step by step.

Rewriting Examples 1–3 (Section 5.2.1), Rule 1, Rule 2, and the
example-query plans of Section 4 are golden-tested here: the optimizer must
produce the paper's target plans (up to alpha-renaming and boolean-algebra
normal form), via the rules the paper names.
"""

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from tests.adl.compare import alpha_equal
from repro.datamodel import VTuple, vset
from repro.engine.interpreter import Interpreter
from repro.rewrite.strategy import Optimizer, optimize
from repro.storage import MemoryDatabase
from repro.workload.paper_db import section4_catalog, section4_database
from repro.workload.queries import example_query_4, example_query_5, example_query_6

Q = B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "a"))


def db_for_membership():
    y_rows = [VTuple(a=1, e=1), VTuple(a=2, e=2)]
    x_rows = [VTuple(a=1, c=VTuple(a=1, e=1)), VTuple(a=2, c=VTuple(a=9, e=9))]
    return MemoryDatabase({"X": x_rows, "Y": y_rows})


class TestRewritingExample1:
    """SET MEMBERSHIP:  σ[x : x.c ∈ σ[y : q](Y)](X)  ⇒  X ⋉ Y."""

    def setup_method(self):
        self.query = B.sel(
            "x",
            B.member(B.attr(B.var("x"), "c"), B.sel("y", Q, B.extent("Y"))),
            B.extent("X"),
        )
        self.result = optimize(self.query)

    def test_becomes_semijoin(self):
        assert isinstance(self.result.expr, A.SemiJoin)

    def test_target_plan_alpha_equal(self):
        # paper: X ⋉⟨x,y : y = x.c ∧ q⟩ Y
        expected = B.semijoin(
            B.extent("X"), B.extent("Y"), "x", "y",
            B.conj(Q, B.eq(B.var("y"), B.attr(B.var("x"), "c"))),
        )
        assert alpha_equal(self.result.expr, expected)

    def test_rules_fired_in_paper_order(self):
        rules = self.result.trace.rules_fired
        expansion = rules.index("table1-expand-set-comparison")
        range_fold = rules.index("range-select-into-exists")
        unnest = rules.index("rule1-semijoin-antijoin")
        assert expansion < range_fold < unnest

    def test_semantics(self):
        db = db_for_membership()
        interp = Interpreter(db)
        assert interp.eval(self.result.expr) == interp.eval(self.query)


class TestRewritingExample2:
    """SET INCLUSION:  σ[x : σ[y : q](Y) ⊆ x.c](X)  ⇒  X ▷ Y."""

    def setup_method(self):
        self.query = B.sel(
            "x",
            B.subseteq(B.sel("y", Q, B.extent("Y")), B.attr(B.var("x"), "c")),
            B.extent("X"),
        )
        self.result = optimize(self.query)

    def test_becomes_antijoin(self):
        assert isinstance(self.result.expr, A.AntiJoin)

    def test_target_plan_alpha_equal(self):
        # paper: X ▷⟨x,y : q ∧ y ∉ x.c⟩ Y
        expected = B.antijoin(
            B.extent("X"), B.extent("Y"), "x", "y",
            B.conj(Q, B.not_member(B.var("y"), B.attr(B.var("x"), "c"))),
        )
        assert alpha_equal(self.result.expr, expected)

    def test_universal_became_negated_existential(self):
        rules = self.result.trace.rules_fired
        assert "forall-to-not-exists" in rules
        assert "rule1-semijoin-antijoin" in rules

    def test_semantics(self):
        y_rows = [VTuple(a=1, e=1), VTuple(a=2, e=2)]
        x_rows = [
            VTuple(a=1, c=vset(VTuple(a=1, e=1))),
            VTuple(a=2, c=frozenset()),
            VTuple(a=9, c=frozenset()),
        ]
        db = MemoryDatabase({"X": x_rows, "Y": y_rows})
        interp = Interpreter(db)
        assert interp.eval(self.result.expr) == interp.eval(self.query)


class TestRewritingExample3:
    """EXCHANGING QUANTIFIERS:  σ[x : ∀z ∈ x.c • z ⊇ Y'](X)  ⇒  X ▷ Y."""

    def setup_method(self):
        self.query = B.sel(
            "x",
            B.forall("z", B.attr(B.var("x"), "c"),
                     B.supseteq(B.var("z"), B.sel("y", Q, B.extent("Y")))),
            B.extent("X"),
        )
        self.result = optimize(self.query)

    def test_becomes_antijoin(self):
        assert isinstance(self.result.expr, A.AntiJoin)

    def test_target_plan_alpha_equal(self):
        # paper: X ▷⟨x,y : q ∧ ∃z ∈ x.c • y ∉ z⟩ Y
        expected = B.antijoin(
            B.extent("X"), B.extent("Y"), "x", "y",
            B.conj(
                Q,
                B.exists("z", B.attr(B.var("x"), "c"),
                         B.not_member(B.var("y"), B.var("z"))),
            ),
        )
        assert alpha_equal(self.result.expr, expected)

    def test_exchange_rule_fired(self):
        assert "exchange-quantifiers" in self.result.trace.rules_fired

    def test_semantics(self):
        y_rows = [VTuple(a=1, e=1), VTuple(a=3, e=3)]
        x_rows = [
            VTuple(a=1, c=vset(vset(VTuple(a=1, e=1)), frozenset())),
            VTuple(a=3, c=vset(vset(VTuple(a=3, e=3)))),
            VTuple(a=9, c=frozenset()),
        ]
        db = MemoryDatabase({"X": x_rows, "Y": y_rows})
        interp = Interpreter(db)
        assert interp.eval(self.result.expr) == interp.eval(self.query)


class TestSection4ExamplePlans:
    """The target plans the paper states for Example Queries 4–6."""

    def test_example_4_plan(self):
        result = Optimizer(section4_catalog()).optimize(example_query_4())
        # paper: π(μ_parts(SUPPLIER) ▷⟨...⟩ PART)
        expected = B.project(
            B.antijoin(
                B.unnest(B.extent("SUPPLIER"), "parts"),
                B.extent("PART"),
                "u", "p",
                B.eq(B.subscript(B.var("u"), "pid"), B.subscript(B.var("p"), "pid")),
            ),
            "eid",
        )
        assert alpha_equal(result.expr, expected)

    def test_example_5_plan(self):
        result = Optimizer(section4_catalog()).optimize(example_query_5())
        # paper: SUPPLIER ⋉⟨s,p : p[pid] ∈ s.parts⟩ σ[p : p.color="red"](PART)
        expected = B.semijoin(
            B.extent("SUPPLIER"),
            B.sel("p", B.eq(B.attr(B.var("p"), "color"), "red"), B.extent("PART")),
            "s", "p",
            B.member(B.subscript(B.var("p"), "pid"), B.attr(B.var("s"), "parts")),
        )
        assert alpha_equal(result.expr, expected)

    def test_example_6_plan(self):
        result = Optimizer(section4_catalog()).optimize(example_query_6())
        # paper: α[... (sname, parts_suppl = z.ys)](SUPPLIER ⊣⟨s,p : p[pid] ∈ s.parts ; p ; ys⟩ PART)
        assert isinstance(result.expr, A.Map)
        nj = result.expr.source
        assert isinstance(nj, A.NestJoin)
        assert alpha_equal(
            nj,
            B.nestjoin(
                B.extent("SUPPLIER"), B.extent("PART"), "s", "p",
                B.member(B.subscript(B.var("p"), "pid"), B.attr(B.var("s"), "parts")),
                "ys",
            ),
        )

    @pytest.mark.parametrize(
        "builder", [example_query_4, example_query_5, example_query_6]
    )
    def test_all_plans_preserve_semantics(self, builder):
        db = section4_database(dangling_refs=2)
        query = builder()
        result = Optimizer(section4_catalog()).optimize(query)
        interp = Interpreter(db)
        assert interp.eval(result.expr) == interp.eval(query)
