"""Materialize introduction — making path expressions explicit ([BlMG93]).

Section 6.2: "path expressions are represented by the operator
materialize ... defined as a new logical algebra operator, with the purpose
to explicitly indicate the use of inter-object references".  In this
reproduction, path expressions through references (``d.supplier.sname``)
evaluate by *implicit* per-access pointer dereference; these rules rewrite
them into an explicit :class:`~repro.adl.ast.Materialize` step, which the
physical planner implements with the page-clustered **assembly** algorithm
instead of one random fetch per access::

    σ[d : P(d.supplier.a, ...)](DELIVERY)
      ≡  π_SCH(DELIVERY)( σ[d : P(d.__supplier_obj.a, ...)](
             mat_{supplier→__supplier_obj : Supplier}(DELIVERY) ))

    α[d : F(d.supplier.a, ...)](DELIVERY)
      ≡  α[d : F(d.__supplier_obj.a, ...)](mat_{...}(DELIVERY))

Firing conditions: the iteration variable's element type is known, the
accessed attribute holds a *typed* oid, and the path is actually followed
(a bare reference comparison like ``d.supplier = e.supplier`` needs no
object).  The map form additionally requires the body not to use the
variable as a whole tuple (the materialized attribute would leak into the
result).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.adl import ast as A
from repro.adl.freevars import free_vars
from repro.datamodel.errors import TypeCheckError
from repro.datamodel.types import OidType, SetType, TupleType
from repro.rewrite.common import RewriteContext
from repro.rewrite.engine import rule


def _element_type(source: A.Expr, ctx: RewriteContext) -> Optional[TupleType]:
    if ctx.checker is None or free_vars(source):
        return None
    try:
        t = ctx.checker.check(source, ctx.env or {})
    except TypeCheckError:
        return None
    if isinstance(t, SetType) and isinstance(t.element, TupleType):
        return t.element
    return None


def _find_deref(body: A.Expr, var: str, element: TupleType) -> Optional[Tuple[str, str]]:
    """Find a followed reference: ``var.ref.attr`` with ``ref`` oid-typed.

    Returns ``(ref_attr, class_name)`` for the first such path.
    """
    for node in body.walk():
        if not isinstance(node, A.AttrAccess):
            continue
        base = node.base
        if not (isinstance(base, A.AttrAccess) and base.base == A.Var(var)):
            continue
        ref_t = element.fields.get(base.attr)
        if isinstance(ref_t, OidType) and ref_t.class_name is not None:
            return base.attr, ref_t.class_name
    return None


def _rewrite_paths(body: A.Expr, var: str, ref: str, obj_attr: str) -> A.Expr:
    """Replace ``var.ref.a`` by ``var.obj_attr.a`` throughout (scope-aware:
    regions where ``var`` is rebound are left alone)."""

    def rec(expr: A.Expr, shadowed: bool) -> A.Expr:
        if (
            not shadowed
            and isinstance(expr, A.AttrAccess)
            and isinstance(expr.base, A.AttrAccess)
            and expr.base.base == A.Var(var)
            and expr.base.attr == ref
        ):
            return A.AttrAccess(A.AttrAccess(A.Var(var), obj_attr), expr.attr)
        if isinstance(expr, (A.Map, A.Select)):
            inner = shadowed or expr.var == var
            field = "body" if isinstance(expr, A.Map) else "pred"
            return dataclasses.replace(
                expr,
                source=rec(expr.source, shadowed),
                **{field: rec(getattr(expr, field), inner)},
            )
        if isinstance(expr, (A.Exists, A.Forall)):
            inner = shadowed or expr.var == var
            return dataclasses.replace(
                expr, source=rec(expr.source, shadowed), pred=rec(expr.pred, inner)
            )
        if isinstance(expr, (A.Join, A.SemiJoin, A.AntiJoin, A.OuterJoin, A.NestJoin)):
            inner = shadowed or var in (expr.lvar, expr.rvar)
            changes = dict(
                left=rec(expr.left, shadowed),
                right=rec(expr.right, shadowed),
                pred=rec(expr.pred, inner),
            )
            if isinstance(expr, A.NestJoin):
                changes["result"] = rec(expr.result, inner)
            return dataclasses.replace(expr, **changes)
        return expr.map_children(lambda child: rec(child, shadowed))

    return rec(body, False)


def _uses_var_only_through_attrs(body: A.Expr, var: str) -> bool:
    """No bare ``Var(var)`` occurrences outside attribute accesses (scope-
    aware: shadowed regions don't count)."""

    def rec(expr: A.Expr, shadowed: bool) -> bool:
        if isinstance(expr, A.Var):
            return shadowed or expr.name != var
        if isinstance(expr, A.AttrAccess) and expr.base == A.Var(var) and not shadowed:
            return True
        if isinstance(expr, (A.Map, A.Select)):
            inner = shadowed or expr.var == var
            child = expr.body if isinstance(expr, A.Map) else expr.pred
            return rec(expr.source, shadowed) and rec(child, inner)
        if isinstance(expr, (A.Exists, A.Forall)):
            inner = shadowed or expr.var == var
            return rec(expr.source, shadowed) and rec(expr.pred, inner)
        if isinstance(expr, (A.Join, A.SemiJoin, A.AntiJoin, A.OuterJoin, A.NestJoin)):
            inner = shadowed or var in (expr.lvar, expr.rvar)
            ok = rec(expr.left, shadowed) and rec(expr.right, shadowed) and rec(expr.pred, inner)
            if isinstance(expr, A.NestJoin):
                ok = ok and rec(expr.result, inner)
            return ok
        return all(rec(child, shadowed) for child in expr.child_exprs())

    return rec(body, False)


def _obj_attr_name(ref: str, element: TupleType) -> str:
    base = f"__{ref}_obj"
    name = base
    counter = 1
    while name in element.fields:
        name = f"{base}{counter}"
        counter += 1
    return name


@rule("materialize-select", on=(A.Select,))
def materialize_select(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Introduce assembly under a selection that follows a reference."""
    if not isinstance(expr, A.Select):
        return None
    element = _element_type(expr.source, ctx)
    if element is None:
        return None
    deref = _find_deref(expr.pred, expr.var, element)
    if deref is None:
        return None
    ref, class_name = deref
    obj_attr = _obj_attr_name(ref, element)
    new_pred = _rewrite_paths(expr.pred, expr.var, ref, obj_attr)
    if new_pred == expr.pred:
        return None  # the path occurrence was shadowed: nothing to gain
    materialized = A.Materialize(expr.source, ref, obj_attr, class_name)
    return A.Project(
        A.Select(expr.var, new_pred, materialized),
        tuple(sorted(element.fields)),
    )


@rule("materialize-map", on=(A.Map,))
def materialize_map(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Introduce assembly under a map that follows a reference."""
    if not isinstance(expr, A.Map):
        return None
    element = _element_type(expr.source, ctx)
    if element is None:
        return None
    deref = _find_deref(expr.body, expr.var, element)
    if deref is None:
        return None
    if not _uses_var_only_through_attrs(expr.body, expr.var):
        return None  # the materialized attribute would leak into the result
    ref, class_name = deref
    obj_attr = _obj_attr_name(ref, element)
    new_body = _rewrite_paths(expr.body, expr.var, ref, obj_attr)
    if new_body == expr.body:
        return None  # the path occurrence was shadowed: nothing to gain
    materialized = A.Materialize(expr.source, ref, obj_attr, class_name)
    return A.Map(expr.var, new_body, materialized)


MATERIALIZE_RULES = (materialize_select, materialize_map)
