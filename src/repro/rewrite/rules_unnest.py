"""Attribute unnesting — optimization option 1 (Section 4, Example Query 4).

When nesting is caused by iteration over a *set-valued attribute*, the
attribute can be flattened with ``μ`` so the iteration becomes top-level.
The paper restricts the option to the cases where it is sound and
worthwhile:

* the final re-nesting ``ν`` must not be required — here: the enclosing
  projection drops the set-valued attribute anyway; and
* tuples with an *empty* set-valued attribute may be dropped by ``μ`` —
  sound exactly when the iteration is an existential quantification
  (``∃`` over ``∅`` is false), which is the shape this rule matches::

      π_A(σ[x : ∃w ∈ x.c • p](X))  ≡  π_A(σ[u : p'](μ_c(X)))
          when c ∉ A, p uses x only through attributes other than c

Example Query 4 then finishes with Rule 1:  the inner ``∄p ∈ PART • ...``
becomes an antijoin over the unnested operand — the paper's
``π_oid(μ_parts(SUPPLIER) ▷ PART)``.
"""

from __future__ import annotations

from typing import Optional

from repro.adl import ast as A
from repro.adl.freevars import all_var_names, free_vars, fresh_name
from repro.adl.subst import substitute
from repro.datamodel.errors import TypeCheckError
from repro.datamodel.types import SetType, TupleType
from repro.rewrite.common import RewriteContext
from repro.rewrite.engine import rule


def _uses_only_attrs(pred: A.Expr, var: str, forbidden_attr: str) -> bool:
    """Every free use of ``var`` in ``pred`` must be an attribute access
    ``var.a`` with ``a != forbidden_attr`` — whole-tuple uses or uses of the
    flattened attribute cannot be rewritten after the unnest."""

    def rec(expr: A.Expr, shadowed: bool) -> bool:
        if isinstance(expr, A.Var):
            return shadowed or expr.name != var
        if isinstance(expr, A.AttrAccess) and expr.base == A.Var(var) and not shadowed:
            return expr.attr != forbidden_attr
        if isinstance(expr, (A.Map, A.Select)):
            body = expr.body if isinstance(expr, A.Map) else expr.pred
            inner_shadowed = shadowed or expr.var == var
            return rec(expr.source, shadowed) and rec(body, inner_shadowed)
        if isinstance(expr, (A.Exists, A.Forall)):
            inner_shadowed = shadowed or expr.var == var
            return rec(expr.source, shadowed) and rec(expr.pred, inner_shadowed)
        if isinstance(expr, (A.Join, A.SemiJoin, A.AntiJoin, A.OuterJoin, A.NestJoin)):
            inner_shadowed = shadowed or var in (expr.lvar, expr.rvar)
            ok = rec(expr.left, shadowed) and rec(expr.right, shadowed)
            ok = ok and rec(expr.pred, inner_shadowed)
            if isinstance(expr, A.NestJoin):
                ok = ok and rec(expr.result, inner_shadowed)
            return ok
        return all(rec(child, shadowed) for child in expr.child_exprs())

    return rec(pred, False)


@rule("unnest-attribute", on=(A.Project,))
def unnest_attribute(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """``π_A(σ[x : ∃w ∈ x.c • p](X)) ≡ π_A(σ[u : p'](μ_c(X)))``."""
    if not isinstance(expr, A.Project):
        return None
    select = expr.source
    if not isinstance(select, A.Select):
        return None
    quant = select.pred
    if not isinstance(quant, A.Exists):
        return None
    attr_range = quant.source
    if not (isinstance(attr_range, A.AttrAccess) and attr_range.base == A.Var(select.var)):
        return None
    c = attr_range.attr
    if c in expr.attrs:
        return None  # the result still needs the set-valued attribute
    if ctx.checker is None:
        return None
    try:
        source_t = ctx.checker.check(select.source, ctx.env or {})
    except TypeCheckError:
        return None
    if not (isinstance(source_t, SetType) and isinstance(source_t.element, TupleType)):
        return None
    element_t = source_t.element
    if c not in element_t.fields:
        return None
    inner_t = element_t.fields[c]
    if not (isinstance(inner_t, SetType) and isinstance(inner_t.element, TupleType)):
        return None  # μ needs tuple-valued members
    member_attrs = tuple(sorted(inner_t.element.fields))
    rest_attrs = tuple(sorted(a for a in element_t.fields if a != c))
    if set(member_attrs) & set(rest_attrs):
        return None  # concatenation would clash
    if not set(expr.attrs) <= set(rest_attrs):
        return None
    if not _uses_only_attrs(quant.pred, select.var, c):
        return None

    avoid = all_var_names(expr) | set(member_attrs) | set(rest_attrs)
    u = fresh_name("u", avoid)
    # the member variable becomes the member attributes of u; the outer
    # variable's remaining attributes live in u directly
    new_pred = substitute(
        quant.pred,
        {
            quant.var: A.TupleSubscript(A.Var(u), member_attrs),
            select.var: A.TupleSubscript(A.Var(u), rest_attrs),
        },
    )
    return A.Project(
        A.Select(u, new_pred, A.Unnest(select.source, c)),
        expr.attrs,
    )


UNNEST_RULES = (unnest_attribute,)
