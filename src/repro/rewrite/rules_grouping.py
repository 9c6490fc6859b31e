"""Unnesting by grouping — the [Kim82]/[GaWo87] technique, Section 5.2.2.

The transformation turns a nested selection with an arbitrary predicate
between blocks into a *flat join query*::

    σ[x : P(x, σ[y : Q(x,y)](Y))](X)
      ≡?  π_SCH(X)( σ[z : P'(z, z.grp)]( ν_{SCH(Y)→grp}( X ⋈⟨x,y : Q⟩ Y )))

(1) a join evaluates the inner-block predicate, (2) a nest groups the join
result by the X-attributes, (3) a selection evaluates the between-blocks
predicate over each group, (4) a projection restores the X schema.

**This is deliberately reproducible as buggy.**  Outer tuples with no join
partner — *dangling tuples* — are lost in step (1); whether that is wrong
depends on ``P(x, ∅)`` (Table 3).  The paper names the resulting failure
the **Complex Object bug** (Figure 2).  Three entry points:

* :func:`unnest_by_grouping` — the raw transformation, used by the
  Figure 2 benchmark to exhibit the bug;
* :data:`grouping_safe` — a rule guarded by the Table 3 analysis: it only
  fires when ``P(x, ∅)`` statically reduces to **false**, which is the
  paper's correctness condition;
* :data:`grouping_outerjoin` — the [GaWo87] repair: replace the join with
  a left outerjoin and strip the null-padded tuple from each group, so
  dangling tuples survive with an empty group.
"""

from __future__ import annotations

from typing import Optional

from repro.adl import ast as A
from repro.adl.freevars import all_var_names, fresh_name
from repro.rewrite.analysis import TriBool, classify_empty
from repro.rewrite.common import (
    QueryBlock,
    RewriteContext,
    first_correlated_block,
    replace_subexpr,
)
from repro.rewrite.engine import rule


def _plan(expr: A.Expr, ctx: RewriteContext, use_outerjoin: bool):
    """Shared matcher/builder; returns the rewritten expression or None."""
    if not isinstance(expr, A.Select):
        return None
    block = first_correlated_block(expr.pred, expr.var)
    if block is None:
        return None
    x_attrs = ctx.tuple_attrs(expr.source)
    y_attrs = ctx.tuple_attrs(block.source)
    if x_attrs is None or y_attrs is None:
        return None  # schema unavailable: grouping needs attribute lists
    if set(x_attrs) & set(y_attrs):
        return None  # join concatenation would clash; renaming not modeled here

    avoid = all_var_names(expr) | set(x_attrs) | set(y_attrs)
    z = fresh_name("z", avoid)
    grp = fresh_name("grp", avoid | {z})

    if use_outerjoin:
        joined: A.Expr = A.OuterJoin(
            expr.source, block.source, expr.var, block.var, block.pred, tuple(y_attrs)
        )
    else:
        joined = A.Join(expr.source, block.source, expr.var, block.var, block.pred)
    nested = A.Nest(joined, tuple(y_attrs), grp)

    group_expr: A.Expr = A.AttrAccess(A.Var(z), grp)
    if use_outerjoin:
        # strip the null-padded tuple: a dangling left tuple's group becomes ∅
        g = fresh_name("g", avoid | {z, grp})
        all_null = None
        for attr in y_attrs:
            test = A.Compare("=", A.AttrAccess(A.Var(g), attr), A.Literal(None))
            all_null = test if all_null is None else A.And(all_null, test)
        assert all_null is not None
        group_expr = A.Select(g, A.Not(all_null), group_expr)

    if not block.is_identity_result:
        # the block's select-clause G(x, y) is applied lazily over the group
        group_expr = A.Map(block.var, block.result, group_expr)

    new_pred = replace_subexpr(expr.pred, block.node, group_expr)
    from repro.adl.subst import substitute

    new_pred = substitute(new_pred, {expr.var: A.TupleSubscript(A.Var(z), tuple(x_attrs))})
    return A.Project(A.Select(z, new_pred, nested), tuple(x_attrs))


def unnest_by_grouping(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """The raw [GaWo87] grouping transformation — **loses dangling tuples**.

    Exposed unguarded so the Figure 2 benchmark can demonstrate the Complex
    Object bug; the optimizer itself only uses the guarded variants below.
    """
    return _plan(expr, ctx, use_outerjoin=False)


@rule("grouping-unnest-safe", on=(A.Select,))
def grouping_safe(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Grouping, guarded by Table 3: fire only when ``P(x, ∅)`` is
    statically **false** — then dangling-tuple loss is exactly the intended
    filtering and the flat join query is correct."""
    if not isinstance(expr, A.Select):
        return None
    block = first_correlated_block(expr.pred, expr.var)
    if block is None:
        return None
    if classify_empty(expr.pred, block.node) is not TriBool.FALSE:
        return None
    return _plan(expr, ctx, use_outerjoin=False)


@rule("grouping-outerjoin", on=(A.Select,))
def grouping_outerjoin(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Grouping over a left outerjoin — the [GaWo87] COUNT-bug repair.

    Safe for every ``P``: dangling tuples survive the outerjoin, and the
    null-padded row is filtered out of each group, so a dangling tuple
    carries the empty group exactly as the nested semantics requires.
    (Caveat, inherited from the original: a legitimate all-null inner tuple
    would be indistinguishable from padding.)
    """
    return _plan(expr, ctx, use_outerjoin=True)


GROUPING_SAFE_RULES = (grouping_safe,)
GROUPING_OUTERJOIN_RULES = (grouping_outerjoin,)
