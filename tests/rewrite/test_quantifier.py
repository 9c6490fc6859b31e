"""Unit tests for the quantifier toolkit (range rules, negation, exchange)."""

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from tests.adl.compare import alpha_equal
from repro.datamodel import VTuple, vset
from repro.engine.interpreter import Interpreter
from repro.rewrite.common import RewriteContext
from repro.rewrite.rules_quantifier import (
    exchange_quantifiers,
    forall_to_not_exists,
    not_forall,
    range_flatten,
    range_map,
    range_select_into_exists,
    range_select_into_forall,
)
from repro.storage import MemoryDatabase

CTX = RewriteContext()


@pytest.fixture()
def db():
    return MemoryDatabase(
        {
            "Y": [VTuple(a=1, e=1), VTuple(a=1, e=2), VTuple(a=2, e=3)],
        }
    )


def check_equiv(before, after, db, envs):
    interp = Interpreter(db)
    for env in envs:
        assert interp.eval(before, env) == interp.eval(after, env), env


Q = B.eq(B.attr(B.var("y"), "a"), B.var("k"))  # correlated on free k
P = B.gt(B.attr(B.var("y"), "e"), B.var("t"))  # correlated on free t
ENVS = [{"k": k, "t": t} for k in (1, 2, 9) for t in (0, 1, 5)]


class TestRangeSelect:
    def test_exists_fold(self, db):
        before = B.exists("y", B.sel("y", Q, B.extent("Y")), P)
        after = range_select_into_exists.apply(before, CTX)
        assert after == B.exists("y", B.extent("Y"), A.And(Q, P))
        check_equiv(before, after, db, ENVS)

    def test_forall_fold(self, db):
        before = B.forall("y", B.sel("y", Q, B.extent("Y")), P)
        after = range_select_into_forall.apply(before, CTX)
        assert after == B.forall("y", B.extent("Y"), A.Or(A.Not(Q), P))
        check_equiv(before, after, db, ENVS)

    def test_variable_renaming_across_binders(self, db):
        # inner selection uses a different variable name
        inner = B.sel("w", B.eq(B.attr(B.var("w"), "a"), B.var("k")), B.extent("Y"))
        before = B.exists("y", inner, P)
        after = range_select_into_exists.apply(before, CTX)
        assert after is not None
        check_equiv(before, after, db, ENVS)

    def test_declines_on_capture(self):
        # the inner pred references a free 'y' that renaming would capture
        inner = B.sel("w", B.eq(B.attr(B.var("w"), "a"), B.attr(B.var("y"), "a")), B.extent("Y"))
        before = B.exists("y", inner, B.lit(True))
        assert range_select_into_exists.apply(before, CTX) is None


class TestRangeMapAndFlatten:
    def test_map_fold(self, db):
        mapped = B.amap("w", B.attr(B.var("w"), "e"), B.extent("Y"))
        before = B.exists("v", mapped, B.gt(B.var("v"), B.var("t")))
        after = range_map.apply(before, CTX)
        assert after is not None
        assert isinstance(after, A.Exists) and isinstance(after.source, A.ExtentRef)
        check_equiv(before, after, db, ENVS)

    def test_map_fold_forall(self, db):
        mapped = B.amap("w", B.attr(B.var("w"), "e"), B.extent("Y"))
        before = B.forall("v", mapped, B.gt(B.var("v"), B.var("t")))
        after = range_map.apply(before, CTX)
        check_equiv(before, after, db, ENVS)

    def test_flatten_fold(self):
        db = MemoryDatabase({"X": [VTuple(c=vset(1, 2)), VTuple(c=vset(3))]})
        flat = B.flatten(B.amap("x", B.attr(B.var("x"), "c"), B.extent("X")))
        before = B.exists("v", flat, B.gt(B.var("v"), B.var("t")))
        after = range_flatten.apply(before, CTX)
        assert after is not None
        assert isinstance(after, A.Exists) and isinstance(after.pred, A.Exists)
        check_equiv(before, after, db, [{"t": 0}, {"t": 2}, {"t": 5}])

    def test_flatten_fold_forall(self):
        db = MemoryDatabase({"X": [VTuple(c=vset(1, 2)), VTuple(c=frozenset())]})
        flat = B.flatten(B.amap("x", B.attr(B.var("x"), "c"), B.extent("X")))
        before = B.forall("v", flat, B.gt(B.var("v"), B.var("t")))
        after = range_flatten.apply(before, CTX)
        check_equiv(before, after, db, [{"t": 0}, {"t": 1}])


class TestNegationRules:
    def test_forall_to_not_exists_guarded_by_extent(self, db):
        before = B.forall("y", B.extent("Y"), P)
        after = forall_to_not_exists.apply(before, CTX)
        assert after == A.Not(A.Exists("y", B.extent("Y"), A.Not(P)))
        check_equiv(before, after, db, ENVS)

    def test_forall_over_attribute_untouched(self):
        before = B.forall("m", B.attr(B.var("x"), "c"), B.lit(True))
        assert forall_to_not_exists.apply(before, CTX) is None

    def test_not_forall(self, db):
        before = A.Not(B.forall("y", B.extent("Y"), P))
        after = not_forall.apply(before, CTX)
        assert after == B.exists("y", B.extent("Y"), A.Not(P))
        check_equiv(before, after, db, ENVS)


class TestExchange:
    def attr_range(self):
        return B.attr(B.var("x"), "c")

    def test_forall_forall_exchange(self):
        inner = B.forall("y", B.extent("Y"), B.var("p"))
        before = B.forall("z", self.attr_range(), inner)
        after = exchange_quantifiers.apply(before, CTX)
        assert after == B.forall(
            "y", B.extent("Y"), B.forall("z", self.attr_range(), B.var("p"))
        )

    def test_exists_exists_exchange(self):
        inner = B.exists("y", B.extent("Y"), B.var("p"))
        before = B.exists("z", self.attr_range(), inner)
        after = exchange_quantifiers.apply(before, CTX)
        assert isinstance(after, A.Exists) and isinstance(after.source, A.ExtentRef)

    def test_mixed_quantifiers_not_exchanged(self):
        inner = B.exists("y", B.extent("Y"), B.var("p"))
        before = B.forall("z", self.attr_range(), inner)
        assert exchange_quantifiers.apply(before, CTX) is None

    def test_no_exchange_when_outer_already_extent(self):
        inner = B.forall("y", B.extent("Y"), B.var("p"))
        before = B.forall("z", B.extent("Z"), inner)
        assert exchange_quantifiers.apply(before, CTX) is None

    def test_no_exchange_when_inner_depends_on_outer(self):
        inner = B.forall("y", B.sel("w", B.eq(B.var("w"), B.var("z")), B.extent("Y")), B.var("p"))
        before = B.forall("z", self.attr_range(), inner)
        assert exchange_quantifiers.apply(before, CTX) is None

    def test_exchange_preserves_semantics(self):
        db = MemoryDatabase({"Y": [VTuple(a=1), VTuple(a=2)]})
        x_values = [
            VTuple(c=vset(1, 2)),
            VTuple(c=frozenset()),
            VTuple(c=vset(3)),
        ]
        inner = B.forall("y", B.extent("Y"),
                         B.neq(B.attr(B.var("y"), "a"), B.var("z")))
        before = B.forall("z", B.attr(B.var("x"), "c"), inner)
        after = exchange_quantifiers.apply(before, CTX)
        interp = Interpreter(db)
        for x in x_values:
            assert interp.eval(before, {"x": x}) == interp.eval(after, {"x": x})

    def test_exchange_terminates(self):
        # firing once disables the guard: no infinite ping-pong
        inner = B.forall("y", B.extent("Y"), B.var("p"))
        before = B.forall("z", self.attr_range(), inner)
        once = exchange_quantifiers.apply(before, CTX)
        assert exchange_quantifiers.apply(once, CTX) is None
