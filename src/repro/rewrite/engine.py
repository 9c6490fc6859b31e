"""The rewrite engine: rules, phases, and fixpoint application.

A :class:`Rule` is a named pure function ``(expr, ctx) -> Expr | None``
that tries to rewrite *the root* of the given expression.  A rule that
does not fire must return ``None`` (or its input unchanged) — never a
structurally-equal copy, because the engine detects progress by object
identity.  The engine lifts root rules to whole trees (top-down, first
match), and runs rule sets to a fixpoint with a step budget as a
termination backstop.

Only the work that can change the result is done:

* **Root-type dispatch.**  ``@rule("name", on=(A.Select,))`` declares the
  node classes a rule can fire on (subclasses included); at a node the
  engine tries only the rules whose ``on`` matches its type, in the rule
  set's order, so the first hit is the same rule as when every rule is
  tried.  A rule without ``on`` is tried at every node.  Rules keep their
  own ``isinstance`` guards — they are also called directly.  The
  per-type table is built once per rule set (:func:`dispatch_table`).
* **Normal-form memo.**  A rule sees only the subtree it is given and the
  context, and nodes are immutable, so a subtree in which no rule of a
  rule set fires is in normal form for that set for as long as the
  context is fixed.  :class:`NormalForms` records such subtrees by
  identity, per rule-set object, and later passes skip them; because
  :meth:`~repro.adl.ast.Expr.map_children` rebuilds only the spine above
  a firing, the restart after each firing costs O(depth), not O(tree).
  Its lifetime is one :meth:`~repro.rewrite.strategy.Optimizer.optimize`
  call: the optimizer creates it and passes it down through
  :meth:`RewriteEngine.run` / :meth:`RewriteEngine.apply_once`, so it is
  never engine state and two threads sharing an optimizer never share a
  memo.  Without a memo every pass walks the whole tree, as before.

Rules never mutate; every firing is recorded in a
:class:`~repro.rewrite.trace.RewriteTrace` so the derivation can be
replayed against the paper's rewriting examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Type

from repro.adl import ast as A
from repro.datamodel.errors import RewriteError
from repro.rewrite.common import RewriteContext
from repro.rewrite.trace import RewriteTrace

RuleFn = Callable[[A.Expr, RewriteContext], Optional[A.Expr]]


@dataclass(frozen=True, eq=False)
class Rule:
    """A named root-rewrite.

    ``on`` lists the node classes the rule can fire on; empty means every
    node.  Rules compare and hash by identity.
    """

    name: str
    fn: RuleFn
    on: Tuple[Type[A.Expr], ...] = ()

    def apply(self, expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
        return self.fn(expr, ctx)


def rule(name: str, on: Tuple[Type[A.Expr], ...] = ()) -> Callable[[RuleFn], Rule]:
    """Decorator: ``@rule("name", on=(A.Select,))`` turns a function into a
    :class:`Rule` that can fire on ``Select`` nodes only."""

    def wrap(fn: RuleFn) -> Rule:
        return Rule(name, fn, tuple(on))

    return wrap


class _Dispatch(dict):
    """node class → the rules of one rule set that can fire on it, in order."""

    def __init__(self, rules: Tuple[Rule, ...]) -> None:
        super().__init__()
        self.rules = rules

    def __missing__(self, cls: type) -> Tuple[Rule, ...]:
        hits = self[cls] = tuple(
            r for r in self.rules if not r.on or issubclass(cls, r.on)
        )
        return hits


#: keyed on the rule set's contents (rules hash by identity), so a rule set
#: rebuilt per call with the same rules reuses one table
_DISPATCH: Dict[Tuple[Rule, ...], _Dispatch] = {}


def dispatch_table(rules: Sequence[Rule]) -> _Dispatch:
    """The per-type rule table of a rule set, built once."""
    key = tuple(rules)
    table = _DISPATCH.get(key)
    if table is None:
        table = _DISPATCH.setdefault(key, _Dispatch(key))
    return table


class NormalForms:
    """Subtrees known to be in normal form, per rule-set object.

    Create one per optimization and pass it to :meth:`RewriteEngine.run`;
    it keeps every recorded node (and rule set) alive, so an ``id`` in it
    always names the node it was recorded for.
    """

    __slots__ = ("_by_rules",)

    def __init__(self) -> None:
        self._by_rules: Dict[int, Tuple[Sequence[Rule], Dict[int, A.Expr]]] = {}

    def of(self, rules: Sequence[Rule]) -> Dict[int, A.Expr]:
        entry = self._by_rules.get(id(rules))
        if entry is None:
            entry = self._by_rules[id(rules)] = (rules, {})
        return entry[1]


def _replace_nth_child(expr: A.Expr, index: int, new: A.Expr) -> A.Expr:
    """``expr`` with its ``index``-th child (in ``child_exprs`` order)
    replaced — by position, so a child object shared by two slots is
    replaced in one of them only."""
    seen = -1

    def swap(child: A.Expr) -> A.Expr:
        nonlocal seen
        seen += 1
        return new if seen == index else child

    return expr.map_children(swap)


class RewriteEngine:
    """Applies rule sets to expressions, to a fixpoint, with tracing."""

    def __init__(self, ctx: Optional[RewriteContext] = None, max_steps: int = 2000) -> None:
        self.ctx = ctx or RewriteContext()
        self.max_steps = max_steps

    # -- single pass ---------------------------------------------------------
    def apply_once(
        self,
        expr: A.Expr,
        rules: Sequence[Rule],
        memo: Optional[NormalForms] = None,
    ) -> Optional[Tuple[str, A.Expr]]:
        """Try the rules at every node (pre-order); first hit wins.

        Returns ``(rule_name, new_whole_expr)`` or ``None`` if nothing fired.

        Change detection is by *identity*, not structural equality: a rule
        signals "no rewrite" by returning ``None`` (or the node it was
        given), never a structurally-equal copy — the deep ``!=`` this used
        to pay on every attempted rule at every node was O(tree) per
        attempt, dominating fixpoint runs.  All shipped rules satisfy the
        contract (each firing changes the root node type or adds
        structure; the materialize rules explicitly return ``None`` when
        their path rewrite is a no-op).

        With a ``memo``, subtrees it records as normal for ``rules`` are
        skipped, and every subtree found normal is recorded.
        """
        normal = None if memo is None else memo.of(rules)
        return self._rewrite(expr, dispatch_table(rules), normal)

    def _rewrite(
        self,
        expr: A.Expr,
        dispatch: _Dispatch,
        normal: Optional[Dict[int, A.Expr]],
    ) -> Optional[Tuple[str, A.Expr]]:
        if normal is not None and id(expr) in normal:
            return None
        ctx = self.ctx
        for r in dispatch[type(expr)]:
            rewritten = r.fn(expr, ctx)
            if rewritten is not None and rewritten is not expr:
                return r.name, rewritten
        # descend: rebuild around the first child that rewrites
        for index, child in enumerate(expr.child_exprs()):
            result = self._rewrite(child, dispatch, normal)
            if result is not None:
                return result[0], _replace_nth_child(expr, index, result[1])
        if normal is not None:
            normal[id(expr)] = expr
        return None

    # -- fixpoint -------------------------------------------------------------
    def run(
        self,
        expr: A.Expr,
        rules: Sequence[Rule],
        trace: Optional[RewriteTrace] = None,
        phase: str = "",
        memo: Optional[NormalForms] = None,
    ) -> A.Expr:
        """Apply ``rules`` repeatedly until none fires anywhere."""
        dispatch = dispatch_table(rules)
        normal = None if memo is None else memo.of(rules)
        steps = 0
        current = expr
        while True:
            result = self._rewrite(current, dispatch, normal)
            if result is None:
                return current
            steps += 1
            if steps > self.max_steps:
                raise RewriteError(
                    f"rewrite did not terminate within {self.max_steps} steps "
                    f"(phase {phase or 'unnamed'}; last rule {result[0]})"
                )
            name, new_expr = result
            if trace is not None:
                trace.record(name, current, new_expr, phase)
            current = new_expr

    def run_phases(
        self,
        expr: A.Expr,
        phases: Iterable[Tuple[str, Sequence[Rule]]],
        trace: Optional[RewriteTrace] = None,
    ) -> A.Expr:
        current = expr
        for phase_name, rules in phases:
            current = self.run(current, rules, trace, phase_name)
        return current
