"""Unit tests for the physical planner's operator selection."""

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from repro.engine import plan as P
from repro.engine.cost import JoinRecipe
from repro.engine.planner import Executor, Planner
from repro.datamodel import VTuple, vset
from repro.storage import MemoryDatabase


EQ = B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d"))
MEMBER = B.member(B.attr(B.var("y"), "d"), B.attr(B.var("x"), "c"))


@pytest.fixture()
def db():
    return MemoryDatabase(
        {
            "X": [VTuple(a=1, c=vset(1, 2)), VTuple(a=2, c=vset(3))],
            "Y": [VTuple(d=1, e=1), VTuple(d=3, e=3)],
        }
    )


class TestJoinRecipe:
    def test_detects_equi_keys(self):
        recipe = JoinRecipe("x", "y", EQ)
        assert recipe.equi_left == [B.attr(B.var("x"), "a")]
        assert recipe.equi_right == [B.attr(B.var("y"), "d")]
        assert recipe.residual == A.Literal(True)

    def test_orients_swapped_sides(self):
        swapped = B.eq(B.attr(B.var("y"), "d"), B.attr(B.var("x"), "a"))
        recipe = JoinRecipe("x", "y", swapped)
        assert recipe.equi_left == [B.attr(B.var("x"), "a")]

    def test_multiple_keys(self):
        pred = B.conj(EQ, B.eq(B.attr(B.var("x"), "b"), B.attr(B.var("y"), "e")))
        recipe = JoinRecipe("x", "y", pred)
        assert len(recipe.equi_left) == 2

    def test_residual_kept(self):
        pred = B.conj(EQ, B.gt(B.attr(B.var("y"), "e"), 1))
        recipe = JoinRecipe("x", "y", pred)
        assert recipe.equi_left and recipe.residual != A.Literal(True)

    def test_membership_left_set(self):
        recipe = JoinRecipe("x", "y", MEMBER)
        assert recipe.membership is not None
        assert recipe.membership[2] == "left-set"

    def test_membership_right_set(self):
        pred = B.member(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "members"))
        recipe = JoinRecipe("x", "y", pred)
        assert recipe.membership is not None
        assert recipe.membership[2] == "right-set"

    def test_non_equi_not_hashable(self):
        pred = B.lt(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d"))
        recipe = JoinRecipe("x", "y", pred)
        assert not recipe.equi_left and recipe.membership is None
        assert recipe.residual == pred

    def test_same_side_equality_is_residual(self):
        pred = B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("x"), "b"))
        recipe = JoinRecipe("x", "y", pred)
        assert not recipe.equi_left and recipe.membership is None


class TestOperatorSelection:
    def plan(self, expr):
        return Planner().plan(expr)

    def test_extent_becomes_scan(self):
        assert isinstance(self.plan(B.extent("X")), P.Scan)

    def test_select_becomes_filter(self):
        plan = self.plan(B.sel("x", B.lit(True), B.extent("X")))
        assert isinstance(plan, P.Filter)

    def test_equi_join_hash(self):
        plan = self.plan(B.join(B.extent("X"), B.extent("Y"), "x", "y", EQ))
        assert isinstance(plan, P.HashJoinBase)

    def test_membership_join(self):
        plan = self.plan(B.semijoin(B.extent("X"), B.extent("Y"), "x", "y", MEMBER))
        assert isinstance(plan, P.MembershipHashJoin)

    def test_non_equi_falls_back_to_nested_loop(self):
        pred = B.lt(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d"))
        plan = self.plan(B.join(B.extent("X"), B.extent("Y"), "x", "y", pred))
        assert isinstance(plan, P.NestedLoopJoin)

    def test_equi_preferred_over_membership(self):
        pred = B.conj(EQ, MEMBER)
        plan = self.plan(B.join(B.extent("X"), B.extent("Y"), "x", "y", pred))
        assert isinstance(plan, P.HashJoinBase)

    def test_pipeline_operators(self):
        assert isinstance(self.plan(B.project(B.extent("Y"), "d")), P.ProjectOp)
        assert isinstance(self.plan(B.rename(B.extent("Y"), d="k")), P.RenameOp)
        assert isinstance(self.plan(B.unnest(B.extent("X"), "c")), P.UnnestOp)
        assert isinstance(self.plan(B.nest(B.extent("Y"), ["e"], "g")), P.NestOp)
        assert isinstance(self.plan(B.flatten(B.amap("x", B.attr(B.var("x"), "c"), B.extent("X")))), P.FlattenOp)
        assert isinstance(self.plan(B.union(B.extent("X"), B.extent("Y"))), P.SetOp)
        assert isinstance(self.plan(B.cart(B.extent("X"), B.extent("Y"))), P.CartesianProduct)
        assert isinstance(self.plan(B.division(B.extent("Y"), B.project(B.extent("Y"), "e"))), P.DivisionOp)

    def test_materialize_op(self):
        plan = self.plan(B.materialize(B.extent("X"), "ref", "obj", "Part"))
        assert isinstance(plan, P.MaterializeOp)

    def test_literal_set_becomes_eval_leaf(self):
        assert isinstance(self.plan(B.setexpr(1, 2)), P.EvalExpr)


class TestExecutorEquivalence:
    """End-to-end: the planned execution equals the naive interpreter on a
    mix of expressions (operator selection must never change results)."""

    CASES = [
        B.sel("x", B.gt(B.attr(B.var("x"), "a"), 1), B.extent("X")),
        B.join(B.extent("X"), B.extent("Y"), "x", "y", EQ),
        B.semijoin(B.extent("X"), B.extent("Y"), "x", "y", EQ),
        B.antijoin(B.extent("X"), B.extent("Y"), "x", "y", EQ),
        B.semijoin(B.extent("X"), B.extent("Y"), "x", "y", MEMBER),
        B.nestjoin(B.extent("X"), B.extent("Y"), "x", "y", EQ, "g"),
        B.project(B.extent("Y"), "d"),
        B.nest(B.extent("Y"), ["e"], "g"),
        B.unnest(B.nest(B.extent("Y"), ["e"], "g"), "g"),
        B.union(B.project(B.extent("Y"), "d"), B.project(B.extent("Y"), "d")),
        B.amap("x", B.count(B.attr(B.var("x"), "c")), B.extent("X")),
    ]

    @pytest.mark.parametrize("expr", CASES, ids=[str(i) for i in range(len(CASES))])
    def test_planned_equals_naive(self, db, expr):
        from repro.engine.interpreter import Interpreter

        assert Executor(db).execute(expr) == Interpreter(db).eval(expr)

    def test_explain_smoke(self, db):
        text = Executor(db).explain(
            B.semijoin(B.extent("X"), B.extent("Y"), "x", "y", EQ)
        )
        assert "HashJoin(semijoin)" in text
