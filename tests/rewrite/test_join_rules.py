"""Unit tests for Rule 1, Rule 2, conjunct peeling, and selection pushdown."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adl import ast as A
from repro.adl import builders as B
from repro.datamodel import VTuple, vset
from repro.engine.interpreter import Interpreter
from repro.engine.planner import Executor
from repro.rewrite.common import RewriteContext
from repro.rewrite.rules_join import (
    push_right_selection,
    rule1,
    rule1_conjunct,
    rule2,
)
from repro.rewrite.strategy import Optimizer
from repro.storage import MemoryDatabase

CTX = RewriteContext()
CORR = B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d"))


@pytest.fixture()
def db():
    return MemoryDatabase(
        {
            "X": [VTuple(a=1, b=10), VTuple(a=2, b=20), VTuple(a=3, b=30)],
            "Y": [VTuple(d=1, e=1), VTuple(d=3, e=0)],
        }
    )


def equiv(before, after, db):
    interp = Interpreter(db)
    assert interp.eval(before) == interp.eval(after)


class TestRule1:
    def test_exists_to_semijoin(self, db):
        before = B.sel("x", B.exists("y", B.extent("Y"), CORR), B.extent("X"))
        after = rule1.apply(before, CTX)
        assert after == B.semijoin(B.extent("X"), B.extent("Y"), "x", "y", CORR)
        equiv(before, after, db)

    def test_not_exists_to_antijoin(self, db):
        before = B.sel("x", B.neg(B.exists("y", B.extent("Y"), CORR)), B.extent("X"))
        after = rule1.apply(before, CTX)
        assert after == B.antijoin(B.extent("X"), B.extent("Y"), "x", "y", CORR)
        equiv(before, after, db)

    def test_side_condition_x_not_free_in_range(self):
        # range depends on x: Rule 1 must not fire
        corr_range = B.sel("w", B.eq(B.attr(B.var("w"), "d"), B.attr(B.var("x"), "a")),
                           B.extent("Y"))
        before = B.sel("x", B.exists("y", corr_range, B.lit(True)), B.extent("X"))
        assert rule1.apply(before, CTX) is None

    def test_range_must_mention_extent(self):
        # quantifier over a set-valued attribute: the paper leaves it nested
        before = B.sel("x", B.exists("m", B.attr(B.var("x"), "c"), B.lit(True)),
                       B.extent("X"))
        assert rule1.apply(before, CTX) is None

    def test_uncorrelated_predicate_still_fires(self, db):
        # constant subquery condition: semijoin remains correct
        pred = B.gt(B.attr(B.var("y"), "e"), 0)
        before = B.sel("x", B.exists("y", B.extent("Y"), pred), B.extent("X"))
        after = rule1.apply(before, CTX)
        assert isinstance(after, A.SemiJoin)
        equiv(before, after, db)


class TestRule1Conjunct:
    def test_peels_quantified_conjunct(self, db):
        local = B.gt(B.attr(B.var("x"), "b"), 15)
        before = B.sel("x", B.conj(local, B.exists("y", B.extent("Y"), CORR)), B.extent("X"))
        after = rule1_conjunct.apply(before, CTX)
        # the local conjunct goes *under* the semijoin, onto its operand
        assert after == B.semijoin(B.sel("x", local, B.extent("X")), B.extent("Y"),
                                   "x", "y", CORR)
        equiv(before, after, db)

    def test_peels_negated_conjunct(self, db):
        local = B.gt(B.attr(B.var("x"), "b"), 5)
        before = B.sel(
            "x", B.conj(B.neg(B.exists("y", B.extent("Y"), CORR)), local), B.extent("X")
        )
        after = rule1_conjunct.apply(before, CTX)
        assert isinstance(after, A.AntiJoin)
        assert after.left == B.sel("x", local, B.extent("X"))
        equiv(before, after, db)

    @pytest.mark.parametrize("negated", [False, True])
    def test_quantified_or_nested_conjuncts_stay_above(self, negated):
        db = MemoryDatabase({
            "X": [VTuple(a=1, b=10, c=vset(1, 2)), VTuple(a=2, b=20, c=vset()),
                  VTuple(a=3, b=30, c=vset(3))],
            "Y": [VTuple(d=1, e=1), VTuple(d=3, e=0)],
        })
        x = B.var("x")
        local = B.gt(B.attr(x, "b"), 5)
        attr_quantifier = B.exists("m", B.attr(x, "c"), B.gt(B.var("m"), 0))
        nested_select = B.member(
            B.attr(x, "a"), B.amap("w", B.attr(B.var("w"), "d"), B.extent("Y"))
        )
        quantified = B.exists("y", B.extent("Y"), CORR)
        if negated:
            quantified = B.neg(quantified)
        before = B.sel(
            "x", B.conj(attr_quantifier, local, quantified, nested_select), B.extent("X")
        )
        after = rule1_conjunct.apply(before, CTX)
        assert isinstance(after, A.Select)
        assert after.pred == B.conj(attr_quantifier, nested_select)
        assert isinstance(after.source, A.AntiJoin if negated else A.SemiJoin)
        assert after.source.left == B.sel("x", local, B.extent("X"))
        equiv(before, after, db)

    @pytest.mark.parametrize("negated", [False, True])
    @given(
        xs=st.sets(st.tuples(st.integers(0, 4), st.integers(0, 3)), max_size=8),
        ys=st.sets(st.integers(0, 4), max_size=4),
        bound=st.integers(-1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_pushed_conjunct_matches_interpreter_on_unrewritten_query(
        self, negated, xs, ys, bound
    ):
        # small domains on purpose: empty Y, dangling x, and `r` false on
        # rows with and without a partner all occur
        db = MemoryDatabase({
            "X": [VTuple(a=a, b=b) for a, b in xs],
            "Y": [VTuple(d=d) for d in ys],
        })
        local = B.gt(B.attr(B.var("x"), "b"), bound)
        quantified = B.exists("y", B.extent("Y"), CORR)
        if negated:
            quantified = B.neg(quantified)
        before = B.sel("x", B.conj(local, quantified), B.extent("X"))
        expected = Interpreter(db).eval(before)
        after = rule1_conjunct.apply(before, CTX)
        assert isinstance(after, A.AntiJoin if negated else A.SemiJoin)
        assert Interpreter(db).eval(after) == expected
        optimized = Optimizer().optimize(before).expr
        assert Executor(db).execute(optimized) == expected

    def test_multiple_quantified_conjuncts_peel_one_at_a_time(self, db):
        q1 = B.exists("y", B.extent("Y"), CORR)
        q2 = B.neg(B.exists("y", B.extent("Y"),
                            B.eq(B.attr(B.var("x"), "b"), B.attr(B.var("y"), "e"))))
        before = B.sel("x", B.conj(q1, q2), B.extent("X"))
        once = rule1_conjunct.apply(before, CTX)
        assert once is not None
        twice = rule1.apply(once, CTX)  # remaining single conjunct: plain Rule 1
        assert twice is not None
        equiv(before, twice, db)

    def test_no_quantified_conjunct_no_fire(self):
        before = B.sel("x", B.conj(B.lit(True), B.lit(True)), B.extent("X"))
        assert rule1_conjunct.apply(before, CTX) is None


class TestRule2:
    def make_rule2_input(self, with_select=True):
        inner_src = (
            B.sel("y", CORR, B.extent("Y")) if with_select else B.extent("Y")
        )
        inner = B.amap("y", A.Concat(A.Var("x"), A.Var("y")), inner_src)
        return B.flatten(B.amap("x", inner, B.extent("X")))

    def test_flattened_concat_map_to_join(self, db):
        before = self.make_rule2_input()
        after = rule2.apply(before, CTX)
        assert after == B.join(B.extent("X"), B.extent("Y"), "x", "y", CORR)
        equiv(before, after, db)

    def test_without_inner_select_pred_is_true(self, db):
        db2 = MemoryDatabase({
            "X": [VTuple(a=1)], "Y": [VTuple(d=1), VTuple(d=2)],
        })
        before = self.make_rule2_input(with_select=False)
        after = rule2.apply(before, CTX)
        assert isinstance(after, A.Join) and after.pred == A.Literal(True)
        equiv(before, after, db2)

    def test_non_concat_body_declines(self):
        inner = B.amap("y", B.tup(l=A.Var("x"), r=A.Var("y")), B.extent("Y"))
        before = B.flatten(B.amap("x", inner, B.extent("X")))
        assert rule2.apply(before, CTX) is None

    def test_correlated_inner_source_declines(self):
        inner = B.amap("y", A.Concat(A.Var("x"), A.Var("y")), B.attr(B.var("x"), "c"))
        before = B.flatten(B.amap("x", inner, B.extent("X")))
        assert rule2.apply(before, CTX) is None


class TestPushRightSelection:
    def test_pushes_rvar_only_conjunct(self, db):
        rlocal = B.gt(B.attr(B.var("y"), "e"), 0)
        before = B.semijoin(B.extent("X"), B.extent("Y"), "x", "y", B.conj(CORR, rlocal))
        after = push_right_selection.apply(before, CTX)
        assert after == B.semijoin(
            B.extent("X"), B.sel("y", rlocal, B.extent("Y")), "x", "y", CORR
        )
        equiv(before, after, db)

    def test_pushes_into_antijoin(self, db):
        rlocal = B.gt(B.attr(B.var("y"), "e"), 0)
        before = B.antijoin(B.extent("X"), B.extent("Y"), "x", "y", B.conj(CORR, rlocal))
        after = push_right_selection.apply(before, CTX)
        assert isinstance(after, A.AntiJoin)
        equiv(before, after, db)

    def test_pushes_into_nestjoin(self, db):
        rlocal = B.gt(B.attr(B.var("y"), "e"), 0)
        before = B.nestjoin(B.extent("X"), B.extent("Y"), "x", "y",
                            B.conj(CORR, rlocal), "g")
        after = push_right_selection.apply(before, CTX)
        assert isinstance(after, A.NestJoin)
        equiv(before, after, db)

    def test_left_only_conjuncts_stay(self):
        llocal = B.gt(B.attr(B.var("x"), "b"), 5)
        before = B.semijoin(B.extent("X"), B.extent("Y"), "x", "y", B.conj(CORR, llocal))
        assert push_right_selection.apply(before, CTX) is None

    def test_single_conjunct_not_pushed(self):
        rlocal = B.gt(B.attr(B.var("y"), "e"), 0)
        before = B.semijoin(B.extent("X"), B.extent("Y"), "x", "y", rlocal)
        assert push_right_selection.apply(before, CTX) is None

    def test_all_conjuncts_pushed_leaves_true(self, db):
        r1 = B.gt(B.attr(B.var("y"), "e"), -1)
        r2 = B.lt(B.attr(B.var("y"), "d"), 99)
        before = B.join(B.extent("X"), B.extent("Y"), "x", "y", B.conj(r1, r2))
        after = push_right_selection.apply(before, CTX)
        assert after.pred == A.Literal(True)
        equiv(before, after, db)
