"""Unit tests for alpha-equivalence."""

from repro.adl import ast as A
from repro.adl import builders as B
from tests.adl.compare import alpha_equal, canonicalize


class TestAlphaEqual:
    def test_identical(self):
        e = B.sel("x", B.lit(True), B.extent("X"))
        assert alpha_equal(e, e)

    def test_renamed_binder(self):
        left = B.sel("x", B.eq(B.attr(B.var("x"), "a"), 1), B.extent("X"))
        right = B.sel("w", B.eq(B.attr(B.var("w"), "a"), 1), B.extent("X"))
        assert alpha_equal(left, right)
        assert left != right  # structurally distinct

    def test_free_variables_matter(self):
        left = B.eq(B.var("x"), 1)
        right = B.eq(B.var("y"), 1)
        assert not alpha_equal(left, right)

    def test_different_structure(self):
        left = B.sel("x", B.lit(True), B.extent("X"))
        right = B.amap("x", B.var("x"), B.extent("X"))
        assert not alpha_equal(left, right)

    def test_join_variables(self):
        left = B.semijoin(B.extent("X"), B.extent("Y"), "a", "b",
                          B.eq(B.attr(B.var("a"), "k"), B.attr(B.var("b"), "k")))
        right = B.semijoin(B.extent("X"), B.extent("Y"), "p", "q",
                           B.eq(B.attr(B.var("p"), "k"), B.attr(B.var("q"), "k")))
        assert alpha_equal(left, right)

    def test_swapped_join_vars_not_equal(self):
        left = B.semijoin(B.extent("X"), B.extent("Y"), "a", "b",
                          B.eq(B.attr(B.var("a"), "k"), B.lit(1)))
        right = B.semijoin(B.extent("X"), B.extent("Y"), "a", "b",
                           B.eq(B.attr(B.var("b"), "k"), B.lit(1)))
        assert not alpha_equal(left, right)

    def test_shadowing_respected(self):
        # inner binder shadows outer: both sides equivalent
        left = B.sel("x", B.member(B.var("x"), B.sel("x", B.lit(True), B.extent("Y"))), B.extent("X"))
        right = B.sel("u", B.member(B.var("u"), B.sel("v", B.lit(True), B.extent("Y"))), B.extent("X"))
        assert alpha_equal(left, right)

    def test_quantifiers(self):
        left = B.exists("y", B.extent("Y"), B.eq(B.var("y"), B.var("free")))
        right = B.exists("q", B.extent("Y"), B.eq(B.var("q"), B.var("free")))
        assert alpha_equal(left, right)


    def test_stitch_binders(self):
        def stitch(lvar, rvar, result_var):
            pred = B.eq(B.attr(B.var(lvar), "k"), B.attr(B.var(rvar), "k"))
            return A.Stitch(
                B.extent("X"), B.extent("Y"), lvar, rvar, pred, "ys",
                B.attr(B.var(result_var), "v"), ("k",),
            )

        assert alpha_equal(stitch("x", "y", "y"), stitch("u", "v", "v"))
        assert not alpha_equal(stitch("x", "y", "y"), stitch("x", "y", "x"))

class TestCanonicalize:
    def test_idempotent(self):
        e = B.sel("x", B.exists("y", B.extent("Y"), B.eq(B.var("y"), B.var("x"))), B.extent("X"))
        once = canonicalize(e)
        assert canonicalize(once) == once

    def test_deterministic_names(self):
        e = B.sel("anything", B.lit(True), B.extent("X"))
        assert canonicalize(e).var == "_v0"
