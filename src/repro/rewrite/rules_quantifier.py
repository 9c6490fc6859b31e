"""The quantifier toolkit (Section 5.2.1).

Three families of steps from the paper's derivations:

* **range transformation** — remove selections/maps/flattens from the
  range of a quantifier, folding them into the body.  This is the middle
  step of Rewriting Example 1: ``∃y ∈ σ[y:q](Y) • p  ≡  ∃y ∈ Y • q ∧ p``;
* **negation pushing** — ``∀`` becomes ``¬∃¬`` ("the universal quantifier
  is transformed into a negated existential quantifier by pushing through
  negation", Rewriting Example 2), plus the dual for ``¬∀``;
* **quantifier exchange** — the rewrite heuristic of Section 5.2.1: move
  quantification over *base tables* leftward past quantification over
  set-valued attributes by exchanging same-kind neighbours
  (``∀z ∀y ≡ ∀y ∀z``, ``∃z ∃y ≡ ∃y ∃z``), which is Rewriting Example 3.

The exchange rule is directional: it fires only when the inner range
mentions a base table, the outer range does not, and the inner range is
independent of the outer variable.  That orientation both implements the
paper's heuristic ("the goal is to move quantification over base tables to
the left") and guarantees termination.
"""

from __future__ import annotations

from typing import Optional

from repro.adl import ast as A
from repro.adl.freevars import all_var_names, free_vars, fresh_name
from repro.adl.subst import substitute
from repro.rewrite.common import RewriteContext, mentions_extent
from repro.rewrite.engine import rule


def _fold_range_select(var: str, inner: A.Select):
    """Shared range-transformation core: returns ``(new_source, range_pred)``
    with the selection predicate rebased onto ``var``."""
    pred = inner.pred
    if inner.var != var:
        if var in free_vars(pred):
            return None
        pred = substitute(pred, {inner.var: A.Var(var)})
    return inner.source, pred


@rule("range-select-into-exists", on=(A.Exists,))
def range_select_into_exists(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """∃y ∈ σ[y' : q](Y) • p  ≡  ∃y ∈ Y • q[y'↦y] ∧ p."""
    if isinstance(expr, A.Exists) and isinstance(expr.source, A.Select):
        folded = _fold_range_select(expr.var, expr.source)
        if folded is None:
            return None
        source, range_pred = folded
        return A.Exists(expr.var, source, A.And(range_pred, expr.pred))
    return None


@rule("range-select-into-forall", on=(A.Forall,))
def range_select_into_forall(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """∀y ∈ σ[y' : q](Y) • p  ≡  ∀y ∈ Y • ¬q[y'↦y] ∨ p."""
    if isinstance(expr, A.Forall) and isinstance(expr.source, A.Select):
        folded = _fold_range_select(expr.var, expr.source)
        if folded is None:
            return None
        source, range_pred = folded
        return A.Forall(expr.var, source, A.Or(A.Not(range_pred), expr.pred))
    return None


@rule("range-map", on=(A.Exists, A.Forall))
def range_map(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Q y ∈ α[w : f](Y) • p  ≡  Q w ∈ Y • p[y↦f]  (Q ∈ {∃, ∀}).

    Sound under set semantics: quantifying over images is quantifying over
    pre-images with the image substituted.
    """
    if not isinstance(expr, (A.Exists, A.Forall)):
        return None
    inner = expr.source
    if not isinstance(inner, A.Map):
        return None
    # the map variable must not collide with anything free in the body
    w = inner.var
    if w != expr.var and w in free_vars(expr.pred):
        w = fresh_name(w, all_var_names(expr.pred) | all_var_names(inner))
    body_fn = inner.body if w == inner.var else substitute(inner.body, {inner.var: A.Var(w)})
    new_pred = substitute(expr.pred, {expr.var: body_fn})
    cls = type(expr)
    return cls(w, inner.source, new_pred)


@rule("range-flatten", on=(A.Exists, A.Forall))
def range_flatten(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """∃y ∈ ⊔(E) • p ≡ ∃S ∈ E • ∃y ∈ S • p  (and the ∀/∀ dual)."""
    if not isinstance(expr, (A.Exists, A.Forall)):
        return None
    if not isinstance(expr.source, A.Flatten):
        return None
    outer_set = fresh_name("S", all_var_names(expr) | {expr.var})
    cls = type(expr)
    return cls(outer_set, expr.source.source, cls(expr.var, A.Var(outer_set), expr.pred))


@rule("forall-to-not-exists", on=(A.Forall,))
def forall_to_not_exists(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """∀y ∈ Y • p  ≡  ¬∃y ∈ Y • ¬p — push through negation.

    Guarded: fires when the range mentions a base table (so the resulting
    ``¬∃`` can become an antijoin via Rule 1), matching the paper's use in
    Rewriting Example 2.
    """
    if isinstance(expr, A.Forall) and mentions_extent(expr.source):
        return A.Not(A.Exists(expr.var, expr.source, A.Not(expr.pred)))
    return None


@rule("not-forall-to-exists-not", on=(A.Not,))
def not_forall(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """¬∀y ∈ Y • p  ≡  ∃y ∈ Y • ¬p (unguarded — always simplifies)."""
    if isinstance(expr, A.Not) and isinstance(expr.operand, A.Forall):
        inner = expr.operand
        return A.Exists(inner.var, inner.source, A.Not(inner.pred))
    return None


def _exchangeable(outer_source: A.Expr, inner: A.Expr, outer_var: str) -> bool:
    """The Section 5.2.1 heuristic's firing condition."""
    return (
        not mentions_extent(outer_source)
        and mentions_extent(inner)
        and outer_var not in free_vars(inner)
    )


@rule("exchange-quantifiers", on=(A.Exists, A.Forall))
def exchange_quantifiers(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Same-kind quantifier exchange, oriented base-table-outward.

    ``∀z ∈ x.c • ∀y ∈ Y • p  ≡  ∀y ∈ Y • ∀z ∈ x.c • p`` (idem for ∃/∃)
    when ``Y`` mentions a base table, ``x.c`` does not, and ``Y`` does not
    depend on ``z``.  This is the pivotal step of Rewriting Example 3.
    """
    if isinstance(expr, A.Forall) and isinstance(expr.pred, A.Forall):
        inner = expr.pred
        if _exchangeable(expr.source, inner.source, expr.var):
            return A.Forall(
                inner.var, inner.source, A.Forall(expr.var, expr.source, inner.pred)
            )
    if isinstance(expr, A.Exists) and isinstance(expr.pred, A.Exists):
        inner = expr.pred
        if _exchangeable(expr.source, inner.source, expr.var):
            return A.Exists(
                inner.var, inner.source, A.Exists(expr.var, expr.source, inner.pred)
            )
    return None


QUANTIFIER_RULES = (
    range_select_into_exists,
    range_select_into_forall,
    range_map,
    range_flatten,
    not_forall,
    exchange_quantifiers,
    forall_to_not_exists,
)
