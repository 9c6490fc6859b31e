"""Tests for the rewrite engine framework itself (rules, fixpoint, traces)."""

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from repro.datamodel import RewriteError
from repro.rewrite.common import RewriteContext
from repro.rewrite.engine import RewriteEngine, Rule, rule
from repro.rewrite.trace import RewriteStep, RewriteTrace

CTX = RewriteContext()


@rule("lit-bump")
def lit_bump(expr, ctx):
    """Test rule: increment integer literals below 3."""
    if isinstance(expr, A.Literal) and isinstance(expr.value, int) \
            and not isinstance(expr.value, bool) and expr.value < 3:
        return A.Literal(expr.value + 1)
    return None


@rule("never-fires")
def never_fires(expr, ctx):
    return None


@rule("same-object")
def same_object(expr, ctx):
    """A rule that declines by returning its input unchanged — the engine
    must treat the identical object as 'no change' without paying a deep
    structural comparison."""
    if isinstance(expr, A.Literal):
        return expr
    return None


class TestRuleDecorator:
    def test_decorator_produces_rule(self):
        assert isinstance(lit_bump, Rule)
        assert lit_bump.name == "lit-bump"

    def test_apply(self):
        assert lit_bump.apply(B.lit(1), CTX) == A.Literal(2)
        assert lit_bump.apply(B.lit(5), CTX) is None


class TestApplyOnce:
    def test_fires_at_root(self):
        engine = RewriteEngine(CTX)
        out = engine.apply_once(B.lit(0), (lit_bump,))
        assert out == ("lit-bump", A.Literal(1))

    def test_fires_in_children(self):
        engine = RewriteEngine(CTX)
        expr = B.tup(a=B.lit(9), b=B.lit(1))
        name, new = engine.apply_once(expr, (lit_bump,))
        assert name == "lit-bump"
        assert new == B.tup(a=B.lit(9), b=B.lit(2))

    def test_first_rule_wins(self):
        engine = RewriteEngine(CTX)
        name, _ = engine.apply_once(B.lit(0), (never_fires, lit_bump))
        assert name == "lit-bump"

    def test_one_firing_per_pass(self):
        engine = RewriteEngine(CTX)
        expr = B.tup(a=B.lit(0), b=B.lit(0))
        _, new = engine.apply_once(expr, (lit_bump,))
        # only the first child rewritten in a single pass
        values = sorted(f.value for _, f in new.fields)
        assert values == [0, 1]

    def test_none_when_no_rule_applies(self):
        engine = RewriteEngine(CTX)
        assert engine.apply_once(B.lit(9), (lit_bump, never_fires)) is None

    def test_same_object_treated_as_no_change(self):
        # declining by returning the input object is "no change" — the
        # engine checks identity, not structural equality (rules must
        # return None or their input when they do not fire)
        engine = RewriteEngine(CTX)
        assert engine.apply_once(B.lit(9), (same_object,)) is None


class TestFixpoint:
    def test_runs_to_fixpoint(self):
        engine = RewriteEngine(CTX)
        out = engine.run(B.tup(a=B.lit(0), b=B.lit(1)), (lit_bump,))
        assert out == B.tup(a=B.lit(3), b=B.lit(3))

    def test_trace_records_every_step(self):
        engine = RewriteEngine(CTX)
        trace = RewriteTrace(B.lit(0))
        out = engine.run(B.lit(0), (lit_bump,), trace, phase="test")
        assert out == A.Literal(3)
        assert trace.rules_fired == ["lit-bump"] * 3
        assert trace.result == out
        assert all(step.phase == "test" for step in trace.steps)
        # steps chain: each after is the next before
        for first, second in zip(trace.steps, trace.steps[1:]):
            assert first.after == second.before

    def test_max_steps_guard(self):
        @rule("loop")
        def loop(expr, ctx):
            if isinstance(expr, A.Literal):
                return A.Literal(expr.value + 1)
            return None

        engine = RewriteEngine(CTX, max_steps=10)
        with pytest.raises(RewriteError, match="did not terminate"):
            engine.run(B.lit(0), (loop,))


class TestTraceRendering:
    def test_render_contains_rule_names(self):
        engine = RewriteEngine(CTX)
        trace = RewriteTrace(B.lit(0))
        engine.run(B.lit(0), (lit_bump,), trace, phase="p")
        text = trace.render()
        assert "p:lit-bump" in text
        assert text.count("≡") == 3

    def test_step_render(self):
        step = RewriteStep("r", B.lit(1), B.lit(2))
        assert "≡ 2" in step.render()
        assert "[r]" in step.render()

    def test_len(self):
        trace = RewriteTrace(B.lit(0))
        assert len(trace) == 0
        trace.record("r", B.lit(0), B.lit(1))
        assert len(trace) == 1
