"""Alpha-equivalence for ADL expressions.

A test helper: rewrite rules invent bound-variable names, so tests
comparing a rewritten plan against an expected plan must ignore the
particular names chosen.
:func:`canonicalize` renames every bound variable to a positional name
(``_v0``, ``_v1`` ...) in a deterministic traversal order; two expressions
are alpha-equivalent iff their canonical forms are structurally equal.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.adl import ast as A


def canonicalize(expr: A.Expr) -> A.Expr:
    """Rename all bound variables to ``_v0, _v1, ...`` deterministically."""
    counter = [0]

    def next_name() -> str:
        name = f"_v{counter[0]}"
        counter[0] += 1
        return name

    def rec(e: A.Expr, env: Dict[str, str]) -> A.Expr:
        if isinstance(e, A.Var):
            return A.Var(env.get(e.name, e.name))
        if isinstance(e, (A.Map, A.Select)):
            body_field = "body" if isinstance(e, A.Map) else "pred"
            source = rec(e.source, env)
            fresh = next_name()
            inner = dict(env)
            inner[e.var] = fresh
            body = rec(getattr(e, body_field), inner)
            return dataclasses.replace(e, var=fresh, source=source, **{body_field: body})
        if isinstance(e, (A.Exists, A.Forall)):
            source = rec(e.source, env)
            fresh = next_name()
            inner = dict(env)
            inner[e.var] = fresh
            pred = rec(e.pred, inner)
            return dataclasses.replace(e, var=fresh, source=source, pred=pred)
        if isinstance(
            e, (A.Join, A.SemiJoin, A.AntiJoin, A.OuterJoin, A.NestJoin, A.Stitch)
        ):
            left = rec(e.left, env)
            right = rec(e.right, env)
            fresh_l = next_name()
            fresh_r = next_name()
            inner = dict(env)
            inner[e.lvar] = fresh_l
            inner[e.rvar] = fresh_r
            changes = dict(left=left, right=right, lvar=fresh_l, rvar=fresh_r)
            changes["pred"] = rec(e.pred, inner)
            if isinstance(e, (A.NestJoin, A.Stitch)):
                changes["result"] = rec(e.result, inner)
            return dataclasses.replace(e, **changes)
        return e.map_children(lambda child: rec(child, env))

    return rec(expr, {})


def alpha_equal(left: A.Expr, right: A.Expr) -> bool:
    """Structural equality up to renaming of bound variables."""
    return canonicalize(left) == canonicalize(right)
