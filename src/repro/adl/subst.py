"""Capture-avoiding substitution for ADL.

The rewrite rules constantly substitute expressions for variables — e.g.
turning ``σ[x : x.c ∈ Y'](X) with Y' = σ[y : q](Y)`` into
``σ[x : ∃y ∈ Y • q ∧ y = x.c](X)`` replaces the subquery reference by its
definition *inside another binder's scope*.  Doing this naively would
capture variables; :func:`substitute` alpha-renames binders on demand.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Mapping

from repro.adl import ast as A
from repro.adl.freevars import all_var_names, free_vars, fresh_name


def substitute(expr: A.Expr, mapping: Mapping[str, A.Expr]) -> A.Expr:
    """Replace every free occurrence of each variable in ``mapping`` by the
    corresponding expression, alpha-renaming binders to avoid capture."""
    if not mapping:
        return expr
    return _subst(expr, dict(mapping))


def _subst(expr: A.Expr, mapping: Dict[str, A.Expr]) -> A.Expr:
    if isinstance(expr, A.Var):
        return mapping.get(expr.name, expr)

    if isinstance(expr, (A.Map, A.Select)):
        body_field = "body" if isinstance(expr, A.Map) else "pred"
        body = getattr(expr, body_field)
        new_source = _subst(expr.source, mapping)
        inner_mapping = {k: v for k, v in mapping.items() if k != expr.var}
        var, body = _avoid_capture_one(expr.var, body, inner_mapping)
        new_body = _subst(body, inner_mapping) if inner_mapping else body
        return dataclasses.replace(expr, var=var, source=new_source, **{body_field: new_body})

    if isinstance(expr, (A.Exists, A.Forall)):
        new_source = _subst(expr.source, mapping)
        inner_mapping = {k: v for k, v in mapping.items() if k != expr.var}
        var, pred = _avoid_capture_one(expr.var, expr.pred, inner_mapping)
        new_pred = _subst(pred, inner_mapping) if inner_mapping else pred
        return dataclasses.replace(expr, var=var, source=new_source, pred=new_pred)

    if isinstance(expr, (A.Join, A.SemiJoin, A.AntiJoin, A.OuterJoin)):
        new_left = _subst(expr.left, mapping)
        new_right = _subst(expr.right, mapping)
        inner_mapping = {k: v for k, v in mapping.items() if k not in (expr.lvar, expr.rvar)}
        lvar, rvar, (pred,) = _avoid_capture_two(
            expr.lvar, expr.rvar, (expr.pred,), inner_mapping
        )
        new_pred = _subst(pred, inner_mapping) if inner_mapping else pred
        return dataclasses.replace(
            expr, left=new_left, right=new_right, lvar=lvar, rvar=rvar, pred=new_pred
        )

    if isinstance(expr, (A.NestJoin, A.Stitch)):
        new_left = _subst(expr.left, mapping)
        new_right = _subst(expr.right, mapping)
        inner_mapping = {k: v for k, v in mapping.items() if k not in (expr.lvar, expr.rvar)}
        lvar, rvar, (pred, result) = _avoid_capture_two(
            expr.lvar, expr.rvar, (expr.pred, expr.result), inner_mapping
        )
        new_pred = _subst(pred, inner_mapping) if inner_mapping else pred
        new_result = _subst(result, inner_mapping) if inner_mapping else result
        return dataclasses.replace(
            expr,
            left=new_left,
            right=new_right,
            lvar=lvar,
            rvar=rvar,
            pred=new_pred,
            result=new_result,
        )

    return expr.map_children(lambda child: _subst(child, mapping))


def _replacement_free_vars(mapping: Dict[str, A.Expr]) -> FrozenSet[str]:
    out: FrozenSet[str] = frozenset()
    for repl in mapping.values():
        out |= free_vars(repl)
    return out


def _avoid_capture_one(var: str, body: A.Expr, mapping: Dict[str, A.Expr]):
    """Rename ``var`` in ``body`` when a replacement would be captured."""
    if not mapping:
        return var, body
    dangerous = _replacement_free_vars(mapping)
    if var not in dangerous:
        return var, body
    avoid = dangerous | all_var_names(body) | frozenset(mapping)
    new_var = fresh_name(var, avoid)
    return new_var, _subst(body, {var: A.Var(new_var)})


def _avoid_capture_two(lvar: str, rvar: str, bodies, mapping: Dict[str, A.Expr]):
    """Rename the two join variables as needed; both scope over each body."""
    if not mapping:
        return lvar, rvar, bodies
    dangerous = _replacement_free_vars(mapping)
    avoid = dangerous | frozenset(mapping)
    for body in bodies:
        avoid |= all_var_names(body)
    renames: Dict[str, A.Expr] = {}
    new_lvar, new_rvar = lvar, rvar
    if lvar in dangerous:
        new_lvar = fresh_name(lvar, avoid)
        avoid |= {new_lvar}
        renames[lvar] = A.Var(new_lvar)
    if rvar in dangerous:
        new_rvar = fresh_name(rvar, avoid)
        avoid |= {new_rvar}
        renames[rvar] = A.Var(new_rvar)
    if renames:
        bodies = tuple(_subst(body, renames) for body in bodies)
    return new_lvar, new_rvar, bodies
