"""Unnesting with the nestjoin operator (Section 6.1, [StAB94]).

The nestjoin combines grouping and join *without losing dangling left
tuples*: each left tuple is concatenated with the set of its matching
right tuples (possibly empty).  That makes it the correct general-purpose
unnesting device for nested queries with arbitrary predicates between
blocks — the cases where plain grouping exhibits the Complex Object bug.

Where-clause nesting (the paper's transformation)::

    σ[x : P(x, Y')](X)  with  Y' = σ[y : Q(x,y)](Y)
      ≡  π_SCH(X)( σ[z : P']( X ⊣⟨x,y : Q ; y ; ys⟩ Y ))
         where P' = P[ x ↦ z[SCH(X)],  Y' ↦ z.ys ]

Select-clause nesting (Example Query 6)::

    α[x : F(x, Y')](X)
      ≡  α[z : F']( X ⊣⟨x,y : Q ; G ; ys⟩ Y )

The subquery's own select-clause ``G`` rides along as the nestjoin's
function parameter (the extended form of [StAB94]), so ``α[y:G](σ[y:Q](Y))``
blocks unnest in one step.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.adl import ast as A
from repro.adl.freevars import all_var_names, fresh_name
from repro.adl.subst import substitute
from repro.rewrite.common import (
    QueryBlock,
    RewriteContext,
    first_correlated_block,
    replace_subexpr,
)
from repro.rewrite.engine import rule


def _build_nestjoin(
    outer_source: A.Expr,
    outer_var: str,
    block: QueryBlock,
    carrier: A.Expr,
    ctx: RewriteContext,
) -> Optional[Tuple[str, str, A.Expr, A.Expr]]:
    """Build the nestjoin and rewrite the carrier expression (the predicate
    or map body containing the block).

    Returns ``(z, x_attrs, nestjoin, rewritten_carrier)`` or None when the
    outer operand's schema is unavailable or the fresh attribute clashes.
    """
    x_attrs = ctx.tuple_attrs(outer_source)
    if x_attrs is None:
        return None
    avoid = all_var_names(carrier) | all_var_names(outer_source) | set(x_attrs) | {outer_var}
    z = fresh_name("z", avoid)
    ys = fresh_name("ys", avoid | {z})

    nestjoin = A.NestJoin(
        outer_source,
        block.source,
        outer_var,
        block.var,
        block.pred,
        ys,
        block.result,
    )
    rewritten = replace_subexpr(carrier, block.node, A.AttrAccess(A.Var(z), ys))
    rewritten = substitute(rewritten, {outer_var: A.TupleSubscript(A.Var(z), tuple(x_attrs))})
    return z, x_attrs, nestjoin, rewritten


@rule("nestjoin-where", on=(A.Select,))
def nestjoin_where(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Where-clause nesting → nestjoin + selection + projection."""
    if not isinstance(expr, A.Select):
        return None
    block = first_correlated_block(expr.pred, expr.var)
    if block is None:
        return None
    built = _build_nestjoin(expr.source, expr.var, block, expr.pred, ctx)
    if built is None:
        return None
    z, x_attrs, nestjoin, new_pred = built
    return A.Project(A.Select(z, new_pred, nestjoin), tuple(x_attrs))


@rule("nestjoin-select-clause", on=(A.Map,))
def nestjoin_select_clause(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Select-clause nesting → nestjoin + map (no projection needed: the
    map body already produces the requested shape)."""
    if not isinstance(expr, A.Map):
        return None
    block = first_correlated_block(expr.body, expr.var)
    if block is None:
        return None
    built = _build_nestjoin(expr.source, expr.var, block, expr.body, ctx)
    if built is None:
        return None
    z, _x_attrs, nestjoin, new_body = built
    return A.Map(z, new_body, nestjoin)


NESTJOIN_RULES = (nestjoin_where, nestjoin_select_clause)
