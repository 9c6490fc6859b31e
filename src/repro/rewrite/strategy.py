"""The optimization strategy of Section 4 — options, priorities, rollback.

The paper's rewrite strategy:

1. *"Try to rewrite to the various relational join operators (join,
   antijoin, or semijoin)."*  — set-comparison expansion (Tables 1/2), the
   quantifier toolkit, Rule 1 / Rule 2; plus grouping **when Table 3 proves
   it safe** (grouping yields flat relational join queries, Section 5.2.2).
2. *"If the above is not possible, try to flatten set-valued attributes"*
   — the μ option, only when re-nesting can be skipped.
3. *"If the above is not possible, try to rewrite to one of the newly
   defined operators"* — the nestjoin.
4. *"If none of the above works, leave the query as it is"* — nested loops.

Each option is attempted as a *pipeline from the normalized query*; an
attempt is accepted iff it reaches the paper's goal — no base table inside
an iterator parameter (:func:`~repro.rewrite.common.is_set_oriented`).
Failed attempts are rolled back, which operationalizes the paper's warning
that e.g. quantifier expansion "has a negative effect on performance" when
it cannot complete.  A combined relational→nestjoin pipeline handles mixed
queries whose subqueries need different options.  The option order is a
parameter so the ablation benchmark can permute priorities.

**Cost-ranked selection.**  The paper picks the *first* option that
succeeds; which rewrite shape actually wins is data-dependent.  Given a
storage :class:`~repro.storage.catalog.Catalog`, the optimizer instead
runs *every* option pipeline, plans each distinct successful candidate
once (:func:`~repro.engine.planner.plan_query`, join order included) and
keeps the one whose plan is cheapest — the paper's priority order
survives only as the tie-break.  A candidate's price is its plan's
``est_cost``, recorded on its :class:`~repro.rewrite.trace.RewriteTrace`
so ablations can show when the fixed order disagrees with the statistics.
Without a catalog the first-success behavior is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adl import ast as A
from repro.adl.typecheck import TypeChecker
from repro.datamodel.schema import Schema
from repro.engine.plan import PlanNode
from repro.engine.planner import plan_query
from repro.rewrite.common import RewriteContext, nested_extent_count
from repro.rewrite.engine import NormalForms, RewriteEngine, Rule
from repro.rewrite.rules_grouping import GROUPING_SAFE_RULES
from repro.rewrite.rules_join import JOIN_RULES, push_right_selection
from repro.rewrite.rules_materialize import MATERIALIZE_RULES
from repro.rewrite.rules_nestjoin import NESTJOIN_RULES
from repro.rewrite.rules_quantifier import QUANTIFIER_RULES
from repro.rewrite.rules_setcmp import SETCMP_RULES
from repro.rewrite.rules_simplify import CLEANUP_RULES, SIMPLIFY_RULES
from repro.rewrite.rules_unnest import UNNEST_RULES
from repro.rewrite.trace import RewriteTrace

#: Relational-phase rule set: expansions + quantifier toolkit + Rule 1/2,
#: with cleanup interleaved so intermediate forms stay canonical.
RELATIONAL_RULES: Tuple[Rule, ...] = tuple(
    list(JOIN_RULES) + list(SETCMP_RULES) + list(QUANTIFIER_RULES) + list(CLEANUP_RULES)
)

#: Final polish: cleanup plus right-operand selection pushdown, safe after
#: every pipeline (it is what gives Example Query 5 its paper-exact shape).
POLISH_RULES: Tuple[Rule, ...] = tuple(list(CLEANUP_RULES) + [push_right_selection])

#: The combined pipeline's nestjoin phase: the nestjoin rules with cleanup
#: interleaved.  A module constant, like every rule set, because the
#: engine's dispatch tables and normal-form memo are per rule-set object.
NESTJOIN_CLEANUP_RULES: Tuple[Rule, ...] = NESTJOIN_RULES + CLEANUP_RULES

#: The paper's priority order (Section 4 + the Section 5 summary: "use
#: relational join operators whenever possible" — pure quantifier rewriting
#: first, then Table-3-guarded grouping, which also yields flat relational
#: join queries, then attribute unnesting, then the nestjoin).
DEFAULT_PRIORITY: Tuple[str, ...] = (
    "relational", "grouping", "unnest", "nestjoin", "combined"
)

#: one optimize() call's plans, one per distinct candidate expression
Plans = Dict[A.Expr, PlanNode]


@dataclass
class Attempt:
    """One optimization pipeline attempt and its outcome.

    ``est_cost`` is the price of the candidate's plan (set only under
    cost-ranked selection, i.e. when the optimizer has a catalog, for the
    set-oriented candidates, the shredded one and a chosen nested-loop
    fallback).
    """

    option: str
    expr: A.Expr
    trace: RewriteTrace
    set_oriented: bool
    nested_extents: int
    est_cost: Optional[float] = None

    @classmethod
    def of(
        cls,
        option: str,
        expr: A.Expr,
        trace: RewriteTrace,
        est_cost: Optional[float] = None,
    ) -> "Attempt":
        """An attempt judged by one walk: set-oriented iff no base table
        is left inside an iterator parameter."""
        count = nested_extent_count(expr)
        return cls(option, expr, trace, count == 0, count, est_cost)


@dataclass
class OptimizationResult:
    """The outcome of :func:`optimize`: the chosen attempt and its
    physical ``plan`` (priced when the optimizer has a catalog)."""

    original: A.Expr
    normalized: A.Expr
    chosen: Attempt
    attempts: List[Attempt]
    plan: PlanNode

    @property
    def expr(self) -> A.Expr:
        return self.chosen.expr

    @property
    def option(self) -> str:
        return self.chosen.option

    @property
    def set_oriented(self) -> bool:
        return self.chosen.set_oriented

    @property
    def trace(self) -> RewriteTrace:
        return self.chosen.trace

    @property
    def candidate_costs(self) -> Dict[str, Optional[float]]:
        """Per-option estimated cost (``None`` for uncosted attempts)."""
        return {a.option: a.est_cost for a in self.attempts}

    def render(self) -> str:
        lines = [f"option: {self.option} (set-oriented: {self.set_oriented})"]
        lines.append(self.chosen.trace.render())
        return "\n".join(lines)


class Optimizer:
    """Applies the Section 4 strategy to translated ADL queries."""

    def __init__(
        self,
        schema: Optional[Schema] = None,
        priority: Sequence[str] = DEFAULT_PRIORITY,
        introduce_materialize: bool = False,
        catalog=None,
        parallel_workers: int = 0,
    ) -> None:
        checker = TypeChecker(schema) if schema is not None else None
        self.ctx = RewriteContext(checker=checker)
        self.engine = RewriteEngine(self.ctx)
        self.priority = tuple(priority)
        self.introduce_materialize = introduce_materialize
        #: storage catalog (`repro.storage.catalog.Catalog`): when present,
        #: option selection is cost-ranked instead of first-success
        self.catalog = catalog
        #: worker capacity the candidates are planned for (see
        #: :func:`~repro.engine.planner.plan_query`); 0 plans serially
        self.parallel_workers = parallel_workers
        unknown = set(self.priority) - set(self._PIPELINES)
        if unknown:
            raise ValueError(f"unknown optimization options: {sorted(unknown)}")

    # -- pipelines -------------------------------------------------------------
    # Each pipeline runs from the normalized query; ``memo`` is the
    # optimize() call's record of subtrees already normal per rule set.
    def _run_relational(
        self, expr: A.Expr, trace: RewriteTrace, memo: NormalForms
    ) -> A.Expr:
        run = self.engine.run
        out = run(expr, RELATIONAL_RULES, trace, "relational", memo)
        return run(out, POLISH_RULES, trace, "cleanup", memo)

    def _run_grouping(
        self, expr: A.Expr, trace: RewriteTrace, memo: NormalForms
    ) -> A.Expr:
        """Table-3-guarded [GaWo87] grouping, applied *before* quantifier
        expansion can destroy the query-block shape, then relational rules
        for whatever remains."""
        run = self.engine.run
        out = run(expr, GROUPING_SAFE_RULES, trace, "grouping", memo)
        out = run(out, RELATIONAL_RULES, trace, "relational", memo)
        return run(out, POLISH_RULES, trace, "cleanup", memo)

    def _run_unnest(
        self, expr: A.Expr, trace: RewriteTrace, memo: NormalForms
    ) -> A.Expr:
        run = self.engine.run
        out = run(expr, UNNEST_RULES, trace, "unnest", memo)
        out = run(out, RELATIONAL_RULES, trace, "relational", memo)
        return run(out, POLISH_RULES, trace, "cleanup", memo)

    def _run_nestjoin(
        self, expr: A.Expr, trace: RewriteTrace, memo: NormalForms
    ) -> A.Expr:
        run = self.engine.run
        out = run(expr, NESTJOIN_RULES, trace, "nestjoin", memo)
        return run(out, POLISH_RULES, trace, "cleanup", memo)

    def _run_combined(
        self, expr: A.Expr, trace: RewriteTrace, memo: NormalForms
    ) -> A.Expr:
        """Mixed queries: some subqueries need the nestjoin, others are
        Rule-1 material.  The nestjoin must go first — quantifier expansion
        would otherwise destroy the query-block shapes it matches on — and
        the relational rules then unnest the remaining quantified
        conjuncts over the nestjoin result."""
        run = self.engine.run
        out = run(expr, NESTJOIN_CLEANUP_RULES, trace, "nestjoin", memo)
        out = run(out, RELATIONAL_RULES, trace, "relational", memo)
        out = run(out, NESTJOIN_CLEANUP_RULES, trace, "nestjoin", memo)
        out = run(out, RELATIONAL_RULES, trace, "relational", memo)
        return run(out, POLISH_RULES, trace, "cleanup", memo)

    _PIPELINES = {
        "relational": _run_relational,
        "grouping": _run_grouping,
        "unnest": _run_unnest,
        "nestjoin": _run_nestjoin,
        "combined": _run_combined,
    }

    def _finalize(self, attempt: Attempt, memo: NormalForms, plans: Plans) -> Attempt:
        """Optional post-pass: make path expressions explicit ([BlMG93])
        so the planner can use the assembly algorithm.  Purely physical —
        it never changes set-orientation or semantics."""
        if not self.introduce_materialize:
            return attempt
        rewritten = self.engine.run(
            attempt.expr, MATERIALIZE_RULES, attempt.trace, "materialize", memo
        )
        if rewritten is attempt.expr:
            return attempt
        cost = None if attempt.est_cost is None else self._plan(rewritten, plans).est_cost
        return Attempt.of(attempt.option, rewritten, attempt.trace, cost)

    def _plan(self, expr: A.Expr, plans: Plans) -> PlanNode:
        """The plan of ``expr``: attempts that reach the same expression share it."""
        if expr not in plans:
            plans[expr] = plan_query(expr, self.catalog, parallel_workers=self.parallel_workers)
        return plans[expr]

    def _maybe_shred(self, chosen: Attempt, attempts: List[Attempt], plans: Plans) -> Attempt:
        """Query shredding (PR 9) as a *priced* post-selection candidate.

        When the chosen candidate contains an eligible nestjoin, its
        shredded form (flat join + stitch) is built, planned, and recorded
        as a ``"shredded"`` attempt with its own :class:`RewriteTrace`.
        It replaces the chosen candidate only when its plan is strictly
        cheaper — a serial stitch prices its inner join plus a group build
        over the fused nestjoin's work, so shredding wins exactly when the
        planner finds a parallel/flat opportunity the fused nestjoin
        cannot use.  Everything stays inside the planner's priced
        enumeration; there is no shredding switch.
        """
        if self.catalog is None:
            return chosen
        from repro.shred.translate import shred_expr

        shredded = shred_expr(chosen.expr, self.ctx)
        if shredded is None:
            return chosen
        base_cost = chosen.est_cost
        if base_cost is None:
            # price the incumbent too (e.g. the none-needed short-circuit
            # never ran the cost ranking) so the attempts list records
            # comparable numbers for both sides of the verdict
            base_cost = chosen.est_cost = self._plan(chosen.expr, plans).est_cost
        shred_cost = self._plan(shredded, plans).est_cost
        trace = RewriteTrace(chosen.expr)
        trace.steps.extend(chosen.trace.steps)
        attempt = Attempt.of("shredded", shredded, trace, shred_cost)
        attempts.append(attempt)
        verdict = (
            f"shredding priced: {chosen.option}≈{base_cost:.0f} vs "
            f"shredded≈{shred_cost:.0f}"
        )
        if shred_cost < base_cost:
            trace.note(f"{verdict} → shredded")
            return attempt
        # ties keep the unshredded plan (the fused nestjoin does less work
        # at equal estimates); record the pricing on the winner's trace
        chosen.trace.note(f"{verdict} → {chosen.option}")
        return chosen

    # -- the strategy ------------------------------------------------------------
    def optimize(self, expr: A.Expr) -> OptimizationResult:
        # one memo per call: the context is fixed and nodes are immutable,
        # so a subtree found normal for a rule set stays normal throughout
        memo = NormalForms()
        # and one plan per distinct candidate expression
        plans: Plans = {}
        normalize_trace = RewriteTrace(expr)
        normalized = self.engine.run(
            expr, SIMPLIFY_RULES, normalize_trace, "normalize", memo
        )
        normal_count = nested_extent_count(normalized)

        def result(chosen: Attempt, attempts: List[Attempt]) -> OptimizationResult:
            plan = self._plan(chosen.expr, plans)
            return OptimizationResult(expr, normalized, chosen, attempts, plan)

        attempts: List[Attempt] = []
        if normal_count == 0:
            # already meets the goal (e.g. only set-valued-attribute nesting,
            # which the paper deliberately leaves nested)
            chosen = self._finalize(
                Attempt("none-needed", normalized, normalize_trace, True, 0), memo, plans
            )
            # a directly-authored nestjoin arrives here already set-oriented;
            # shredding still competes as a priced alternative (PR 9)
            attempts = [chosen]
            return result(self._maybe_shred(chosen, attempts, plans), attempts)

        for option in self.priority:
            trace = RewriteTrace(expr)
            trace.steps.extend(normalize_trace.steps)
            candidate = self._PIPELINES[option](self, normalized, trace, memo)
            attempt = Attempt.of(option, candidate, trace)
            attempts.append(attempt)
            # the paper's strategy: first success wins.  With a catalog we
            # keep going — every successful pipeline becomes a candidate.
            if attempt.set_oriented and self.catalog is None:
                return result(self._finalize(attempt, memo, plans), attempts)

        if self.catalog is not None:
            chosen = self._pick_cheapest(attempts, plans)
            if chosen is not None:
                chosen = self._maybe_shred(self._finalize(chosen, memo, plans), attempts, plans)
                return result(chosen, attempts)

        # option 4: nested loops — keep the best partial unnesting (fewest
        # base tables left inside iterators; ties: fewest rewrite steps)
        fallback = Attempt("nested-loop", normalized, normalize_trace, False, normal_count)
        attempts.append(fallback)
        picked = min(attempts, key=lambda a: (a.nested_extents, len(a.trace.steps)))
        if picked.nested_extents == fallback.nested_extents:
            picked = fallback  # no attempt improved matters: leave the query as is
        chosen = Attempt(
            f"nested-loop/{picked.option}" if picked is not fallback else "nested-loop",
            picked.expr,
            picked.trace,
            picked.set_oriented,
            picked.nested_extents,
        )
        if self.ctx.checker is None:
            chosen.trace.note(
                "schema-aware rules (nestjoin, grouping, unnest) declined: "
                "no schema / type catalog was given"
            )
        out = result(chosen, attempts)
        # the fallback costs what its plan costs (None without a catalog)
        picked.est_cost = chosen.est_cost = out.plan.est_cost
        return out

    def _pick_cheapest(self, attempts: List[Attempt], plans: Plans) -> Optional[Attempt]:
        """Cost-ranked selection: price every set-oriented candidate by its
        plan and keep the cheapest, with the paper's priority order as
        tie-break.  Each candidate's price lands on its trace; the winner's
        trace additionally records the whole ranking."""
        successes = [a for a in attempts if a.set_oriented]
        if not successes:
            return None
        for attempt in successes:
            attempt.est_cost = self._plan(attempt.expr, plans).est_cost
            attempt.trace.note(f"estimated cost ≈ {attempt.est_cost:.0f}")
        chosen = min(
            successes,
            key=lambda a: (a.est_cost, self.priority.index(a.option)),
        )
        ranking = ", ".join(
            f"{a.option}≈{a.est_cost:.0f}"
            for a in sorted(successes, key=lambda a: a.est_cost)
        )
        chosen.trace.note(f"cost-ranked candidates: {ranking} → {chosen.option}")
        if chosen is not successes[0]:
            chosen.trace.note(
                f"cost model overrode the paper's priority order "
                f"(first success was {successes[0].option})"
            )
        return chosen


def optimize(
    expr: A.Expr,
    schema: Optional[Schema] = None,
    priority: Sequence[str] = DEFAULT_PRIORITY,
    catalog=None,
    parallel_workers: int = 0,
) -> OptimizationResult:
    """The rewrite phase of the compile pipeline: Section 4 optimization
    of an ADL expression, cost-ranked given a storage ``catalog``, priced
    for ``parallel_workers`` (see :class:`Optimizer`)."""
    optimizer = Optimizer(schema, priority, catalog=catalog, parallel_workers=parallel_workers)
    return optimizer.optimize(expr)
