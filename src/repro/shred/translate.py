"""The shredding translation: ``NestJoin`` → ``Stitch``.

A nestjoin ``L ⊣⟨x,y : p ; f ; a⟩ R`` computes, per left tuple, the set
``{ f(x,y) | y ∈ R, p(x,y) }`` and attaches it as attribute ``a``.  The
shredded form evaluates the same query as a DAG of *flat* subplans:

* the **outer** flat subplan is ``L`` itself;
* the **inner** flat subplan is the plain join ``L ⋈⟨x,y : p⟩ R`` — a
  flat relation of concatenated pairs;
* the **stitch** groups the inner output by the synthetic key (the full
  left tuple, recoverable as ``z[key_attrs]`` because ``key_attrs``
  lists *every* top-level attribute of ``L``), computes ``f`` per pair,
  and re-streams the outer subplan so dangling left tuples keep their
  empty set.

The translation is *guarded* — it declines (returns ``None``) unless the
flat decomposition is provably lossless:

* the top-level attributes of both operands must be statically known
  (the :class:`~repro.rewrite.common.RewriteContext` checker supplies
  them) — ``key_attrs`` must cover the left tuple exactly;
* the operand attribute sets must be disjoint, so the flat concatenation
  ``z = x ∘ y`` splits back into ``x`` and ``y`` unambiguously;
* the nestjoin must be closed (no free variables): a correlated operand
  cannot run as a standalone flat subplan;
* ``as_attr`` must be fresh on the left side (the stitch attaches it).

Eligible nestjoins anywhere in a closed expression are translated
bottom-up; :func:`shred_expr` returns ``None`` when nothing changed, so
the optimizer's priced-candidate hook can tell "no shredded alternative
exists" from "the alternative priced worse".
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.adl import ast as A
from repro.adl.freevars import free_vars
from repro.rewrite.common import RewriteContext


def shred_nestjoin(expr: A.NestJoin, ctx: RewriteContext) -> Optional[A.Stitch]:
    """Translate one nestjoin into its stitch form, or ``None`` when a
    guard fails (see the module docstring for the guard list)."""
    if not isinstance(expr, A.NestJoin):
        return None
    if free_vars(expr):
        # correlated operands (or a pred/result using outer variables)
        # cannot ship as standalone flat subplans
        return None
    left_attrs = ctx.tuple_attrs(expr.left)
    right_attrs = ctx.tuple_attrs(expr.right)
    if not left_attrs or not right_attrs:
        # unknown (or empty) operand shapes: the synthetic key could not
        # be proven to cover the left tuple
        return None
    if set(left_attrs) & set(right_attrs):
        # the flat concatenation z = x ∘ y must split unambiguously
        return None
    if expr.as_attr in left_attrs:
        return None
    return A.Stitch(
        expr.left,
        expr.right,
        expr.lvar,
        expr.rvar,
        expr.pred,
        expr.as_attr,
        expr.result,
        tuple(left_attrs),
    )


def shred_expr(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Translate every eligible nestjoin in ``expr`` (bottom-up) into its
    stitch form.  Returns the shredded expression, or ``None`` when no
    nestjoin was eligible — the caller then has no candidate to price."""
    out = _shred(ctx, expr)
    # ``map_children`` keeps an unchanged subtree's identity
    return out if out is not expr else None


def _shred(ctx: RewriteContext, node: A.Expr) -> A.Expr:
    node = node.map_children(partial(_shred, ctx))
    if isinstance(node, A.NestJoin):
        shredded = shred_nestjoin(node, ctx)
        if shredded is not None:
            return shredded
    return node
