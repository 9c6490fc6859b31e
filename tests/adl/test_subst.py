"""Unit tests for capture-avoiding substitution."""

from repro.adl import ast as A
from repro.adl import builders as B
from tests.adl.compare import alpha_equal
from repro.adl.freevars import free_vars
from repro.adl.subst import substitute


class TestBasicSubstitution:
    def test_replaces_free_variable(self):
        assert substitute(B.var("x"), {"x": B.lit(1)}) == A.Literal(1)

    def test_leaves_other_variables(self):
        assert substitute(B.var("y"), {"x": B.lit(1)}) == A.Var("y")

    def test_empty_mapping_is_identity(self):
        expr = B.sel("x", B.lit(True), B.extent("X"))
        assert substitute(expr, {}) is expr

    def test_replaces_inside_structures(self):
        expr = B.tup(a=B.var("x"), b=B.setexpr(B.var("x")))
        out = substitute(expr, {"x": B.lit(7)})
        assert out == B.tup(a=7, b=B.setexpr(7))

    def test_does_not_replace_bound_occurrences(self):
        expr = B.sel("x", B.eq(B.var("x"), 1), B.extent("X"))
        out = substitute(expr, {"x": B.lit(9)})
        assert out == expr

    def test_replaces_in_unscoped_source(self):
        # the iterator's operand is NOT under the binder
        expr = B.sel("x", B.lit(True), B.var("x"))
        out = substitute(expr, {"x": B.extent("X")})
        assert out == B.sel("x", B.lit(True), B.extent("X"))


class TestCaptureAvoidance:
    def test_select_binder_renamed_on_capture(self):
        # substituting y -> x into sigma[x: ... y ...] must not capture
        expr = B.sel("x", B.eq(B.var("x"), B.var("y")), B.extent("X"))
        out = substitute(expr, {"y": B.var("x")})
        assert isinstance(out, A.Select)
        assert out.var != "x"  # renamed
        # the substituted occurrence refers to the *free* x
        assert free_vars(out) == {"x"}
        assert alpha_equal(out, B.sel("z", B.eq(B.var("z"), B.var("x")), B.extent("X")))

    def test_quantifier_capture(self):
        expr = B.exists("y", B.extent("Y"), B.eq(B.var("y"), B.var("free")))
        out = substitute(expr, {"free": B.var("y")})
        assert isinstance(out, A.Exists)
        assert out.var != "y"
        assert free_vars(out) == {"y"}

    def test_join_capture_both_vars(self):
        expr = B.join(
            B.extent("X"), B.extent("Y"), "x", "y",
            B.conj(B.eq(B.var("x"), B.var("y")), B.eq(B.var("a"), B.var("b"))),
        )
        out = substitute(expr, {"a": B.var("x"), "b": B.var("y")})
        assert isinstance(out, A.Join)
        assert out.lvar not in ("x",) or out.rvar not in ("y",)
        assert free_vars(out) == {"x", "y"}

    def test_nestjoin_result_capture(self):
        expr = B.nestjoin(
            B.extent("X"), B.extent("Y"), "x", "y", B.lit(True), "g",
            result=B.tup(v=B.var("free")),
        )
        out = substitute(expr, {"free": B.var("y")})
        assert isinstance(out, A.NestJoin)
        assert out.rvar != "y"
        assert free_vars(out) == {"y"}

    def test_no_rename_when_no_capture_possible(self):
        expr = B.sel("x", B.eq(B.var("x"), B.var("y")), B.extent("X"))
        out = substitute(expr, {"y": B.lit(1)})
        assert out == B.sel("x", B.eq(B.var("x"), 1), B.extent("X"))


class TestSemanticPreservation:
    def test_substitution_preserves_evaluation(self):
        """eval(e[x↦v]) == eval(e) in {x: v} — the defining property."""
        from repro.datamodel import VTuple, vset
        from repro.engine.interpreter import Interpreter
        from repro.storage import MemoryDatabase

        db = MemoryDatabase({"Y": [VTuple(a=1), VTuple(a=2)]})
        interp = Interpreter(db)
        expr = B.exists("y", B.extent("Y"), B.eq(B.attr(B.var("y"), "a"), B.var("x")))
        for x_value in (1, 3):
            direct = interp.eval(expr, {"x": x_value})
            substituted = interp.eval(substitute(expr, {"x": B.lit(x_value)}), {})
            assert direct == substituted
