"""Unit tests for normalization and cleanup rules."""

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from tests.adl.compare import alpha_equal
from repro.datamodel import VTuple, vset
from repro.engine.interpreter import Interpreter
from repro.rewrite.common import RewriteContext
from repro.rewrite.engine import RewriteEngine
from repro.rewrite.rules_simplify import (
    SIMPLIFY_RULES,
    CLEANUP_RULES,
    boolean_constants,
    double_negation,
    exists_eq_to_membership,
    map_fusion,
    map_identity,
    push_negation,
    select_fusion,
    select_over_map,
    select_true,
    subscript_access,
    tuple_field_access,
)
from repro.storage import MemoryDatabase

CTX = RewriteContext()


def fire(rule, expr):
    return rule.apply(expr, CTX)


class TestBooleanRules:
    def test_double_negation(self):
        assert fire(double_negation, B.neg(B.neg(B.var("p")))) == B.var("p")
        assert fire(double_negation, B.neg(B.var("p"))) is None

    def test_constants(self):
        t, f, p = B.lit(True), B.lit(False), B.var("p")
        assert fire(boolean_constants, A.And(t, p)) == p
        assert fire(boolean_constants, A.And(p, f)) == f
        assert fire(boolean_constants, A.Or(f, p)) == p
        assert fire(boolean_constants, A.Or(p, t)) == t
        assert fire(boolean_constants, A.Not(t)) == f

    def test_push_negation_demorgan(self):
        p, q = B.var("p"), B.var("q")
        assert fire(push_negation, A.Not(A.And(p, q))) == A.Or(A.Not(p), A.Not(q))
        assert fire(push_negation, A.Not(A.Or(p, q))) == A.And(A.Not(p), A.Not(q))

    def test_push_negation_complements_comparisons(self):
        out = fire(push_negation, A.Not(B.eq(B.var("a"), B.var("b"))))
        assert out == B.neq(B.var("a"), B.var("b"))
        out = fire(push_negation, A.Not(B.lt(B.var("a"), B.var("b"))))
        assert out == B.ge(B.var("a"), B.var("b"))

    def test_push_negation_complements_setcompare(self):
        out = fire(push_negation, A.Not(B.member(B.var("a"), B.var("s"))))
        assert out == B.not_member(B.var("a"), B.var("s"))

    def test_push_negation_keeps_not_exists(self):
        # ¬∃ is the antijoin trigger: must stay intact
        expr = A.Not(B.exists("y", B.extent("Y"), B.var("p")))
        assert fire(push_negation, expr) is None

    def test_no_complement_for_subseteq(self):
        # ¬(a ⊆ b) is NOT (a ⊇ b): must not rewrite
        expr = A.Not(B.subseteq(B.var("a"), B.var("b")))
        assert fire(push_negation, expr) is None


class TestStructuralRules:
    def test_select_true(self):
        expr = B.sel("x", B.lit(True), B.extent("X"))
        assert fire(select_true, expr) == B.extent("X")

    def test_map_identity(self):
        assert fire(map_identity, B.amap("x", B.var("x"), B.extent("X"))) == B.extent("X")
        assert fire(map_identity, B.amap("x", B.var("y"), B.extent("X"))) is None

    def test_select_fusion(self):
        inner = B.sel("y", B.eq(B.attr(B.var("y"), "a"), 1), B.extent("X"))
        outer = B.sel("x", B.eq(B.attr(B.var("x"), "b"), 2), inner)
        fused = fire(select_fusion, outer)
        expected = B.sel(
            "x",
            B.conj(B.eq(B.attr(B.var("x"), "b"), 2), B.eq(B.attr(B.var("x"), "a"), 1)),
            B.extent("X"),
        )
        assert fused == expected

    def test_select_over_map(self):
        inner = B.amap("y", B.tup(k=B.attr(B.var("y"), "a")), B.extent("X"))
        outer = B.sel("x", B.eq(B.attr(B.var("x"), "k"), 1), inner)
        out = fire(select_over_map, outer)
        assert isinstance(out, A.Map)
        assert isinstance(out.source, A.Select)

    def test_map_fusion(self):
        inner = B.amap("y", B.attr(B.var("y"), "a"), B.extent("X"))
        outer = B.amap("x", B.tup(v=B.var("x")), inner)
        out = fire(map_fusion, outer)
        assert out == B.amap("y", B.tup(v=B.attr(B.var("y"), "a")), B.extent("X"))

    def test_subscript_access(self):
        expr = B.attr(B.subscript(B.var("z"), "a", "b"), "a")
        assert fire(subscript_access, expr) == B.attr(B.var("z"), "a")
        # access to an attribute outside the subscript: no rewrite
        expr = B.attr(B.subscript(B.var("z"), "a"), "c")
        assert fire(subscript_access, expr) is None

    def test_tuple_field_access(self):
        expr = B.attr(B.tup(a=1, b=2), "b")
        assert fire(tuple_field_access, expr) == A.Literal(2)


class TestExistsEqToMembership:
    def test_simple_contraction(self):
        expr = B.exists("x", B.attr(B.var("s"), "parts"), B.eq(B.var("x"), B.var("e")))
        out = fire(exists_eq_to_membership, expr)
        assert out == B.member(B.var("e"), B.attr(B.var("s"), "parts"))

    def test_contraction_with_remainder(self):
        expr = B.exists(
            "x", B.attr(B.var("s"), "parts"),
            B.conj(B.eq(B.var("x"), B.var("e")), B.gt(B.var("x"), 1)),
        )
        out = fire(exists_eq_to_membership, expr)
        assert out == A.And(
            B.member(B.var("e"), B.attr(B.var("s"), "parts")), B.gt(B.var("e"), 1)
        )

    def test_does_not_fire_on_extent_ranges(self):
        # Table 1 expansion owns that direction; no ping-pong
        expr = B.exists("y", B.extent("Y"), B.eq(B.var("y"), B.var("e")))
        assert fire(exists_eq_to_membership, expr) is None

    def test_requires_equality_on_the_bound_var(self):
        expr = B.exists("x", B.attr(B.var("s"), "c"), B.gt(B.var("x"), 1))
        assert fire(exists_eq_to_membership, expr) is None

    def test_witness_must_not_use_bound_var(self):
        expr = B.exists("x", B.attr(B.var("s"), "c"), B.eq(B.var("x"), B.attr(B.var("x"), "a")))
        assert fire(exists_eq_to_membership, expr) is None


class TestSemanticPreservation:
    """Every simplify/cleanup rule firing preserves evaluation results."""

    @pytest.fixture()
    def db(self):
        return MemoryDatabase(
            {
                "X": [VTuple(a=1, b=10, c=vset(1, 2)), VTuple(a=2, b=20, c=frozenset())],
                "Y": [VTuple(a=1), VTuple(a=3)],
            }
        )

    CASES = [
        B.sel("x", B.lit(True), B.extent("X")),
        B.amap("x", B.var("x"), B.extent("X")),
        B.sel("x", B.gt(B.attr(B.var("x"), "b"), 5),
              B.sel("y", B.lt(B.attr(B.var("y"), "a"), 2), B.extent("X"))),
        B.amap("x", B.attr(B.var("x"), "k"),
               B.amap("y", B.tup(k=B.attr(B.var("y"), "a")), B.extent("X"))),
        B.sel("x", B.neg(B.neg(B.eq(B.attr(B.var("x"), "a"), 1))), B.extent("X")),
        B.sel("x", B.neg(B.conj(B.eq(B.attr(B.var("x"), "a"), 1),
                                B.gt(B.attr(B.var("x"), "b"), 5))), B.extent("X")),
        B.sel("x", B.exists("m", B.attr(B.var("x"), "c"),
                            B.eq(B.var("m"), B.attr(B.var("x"), "a"))), B.extent("X")),
    ]

    @pytest.mark.parametrize("expr", CASES, ids=[str(i) for i in range(len(CASES))])
    def test_fixpoint_equivalence(self, db, expr):
        engine = RewriteEngine(CTX)
        interp = Interpreter(db)
        for rules in (SIMPLIFY_RULES, CLEANUP_RULES):
            out = engine.run(expr, rules)
            assert interp.eval(out) == interp.eval(expr)
