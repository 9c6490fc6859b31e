"""The rewrite engine's normal-form memo (``NormalForms``).

A subtree in which no rule of a rule set fires is recorded by identity and
skipped by later passes with the same memo, so the restart after a firing
only revisits the rebuilt spine.  The result and the trace never depend on
whether a memo is passed.
"""

from __future__ import annotations

from repro.adl import ast as A
from repro.adl import builders as B
from repro.rewrite.common import RewriteContext
from repro.rewrite.engine import NormalForms, RewriteEngine, Rule
from repro.rewrite.rules_simplify import SIMPLIFY_RULES
from repro.rewrite.trace import RewriteTrace

CTX = RewriteContext()


def counting_bump():
    """A rule that raises literals below 3 by one, counting its calls."""
    calls = []

    def bump(expr, ctx):
        calls.append(expr)
        if isinstance(expr, A.Literal) and expr.value < 3:
            return A.Literal(expr.value + 1)
        return None

    return Rule("bump", bump, (A.Literal,)), calls


def wide_tree(width: int) -> A.Expr:
    return A.SetExpr(tuple(A.Literal(10 + i) for i in range(width)) + (A.Literal(0),))


def test_memo_does_not_change_result_or_trace():
    inner = B.sel("y", B.lit(True), B.extent("X"))
    expr = B.sel("x", A.And(B.lit(True), B.eq(B.attr(B.var("x"), "a"), B.lit(1))), inner)
    plain, memoized = RewriteTrace(expr), RewriteTrace(expr)
    engine = RewriteEngine(CTX)
    out = engine.run(expr, SIMPLIFY_RULES, plain, "normalize")
    assert engine.run(expr, SIMPLIFY_RULES, memoized, "normalize", NormalForms()) == out
    assert memoized.rules_fired == plain.rules_fired
    assert [s.after for s in memoized.steps] == [s.after for s in plain.steps]


def test_restart_skips_normal_siblings():
    rule, calls = counting_bump()
    rules = (rule,)
    engine = RewriteEngine(CTX)
    tree = wide_tree(20)
    assert engine.run(tree, rules) == wide_tree(20).map_children(
        lambda c: A.Literal(3) if c == A.Literal(0) else c
    )
    without = len(calls)
    calls.clear()
    engine.run(tree, rules, memo=NormalForms())
    # 21 literals on the first pass, then one per restart: the 20 siblings
    # are normal after the first pass and never retried
    assert len(calls) == 21 + 3
    assert without == 21 * 4


def test_recorded_tree_is_skipped_for_its_rule_set_only():
    rule, calls = counting_bump()
    rules = (rule,)
    engine = RewriteEngine(CTX)
    memo = NormalForms()
    done = engine.run(wide_tree(5), rules, memo=memo)
    calls.clear()
    assert engine.apply_once(done, rules, memo) is None
    assert calls == []
    # another rule-set object, even with the same rules, has its own verdicts
    assert engine.apply_once(done, (rule,), memo) is None
    assert len(calls) == 6


def test_apply_once_without_memo_walks_everything():
    rule, calls = counting_bump()
    engine = RewriteEngine(CTX)
    tree = wide_tree(3)
    done = engine.run(tree, (rule,))
    calls.clear()
    assert engine.apply_once(done, (rule,)) is None
    assert len(calls) == 4
