"""Free- and bound-variable analysis for ADL expressions.

Correlation detection — the heart of the unnesting rules — is a
free-variable question: a subquery ``σ[y : Q](Y)`` nested inside
``σ[x : ...](X)`` is *correlated* iff ``x`` occurs free in ``Q`` (or in
``Y``).  Rule 1 additionally requires the outer variable to be *not* free in
the inner operand (the paper's side condition "let x not be free in Y").

The binder structure of ADL:

* ``Map(var, body, source)`` / ``Select(var, pred, source)`` bind ``var``
  in ``body`` / ``pred`` — but not in ``source``;
* ``Exists/Forall(var, source, pred)`` bind ``var`` in ``pred`` only;
* the join family binds ``lvar`` and ``rvar`` in ``pred`` (and in
  ``result`` for the nestjoin) — never in the operands.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set, Tuple

from repro.adl import ast as A

#: Identity-keyed memo for :func:`free_vars`.  ADL nodes are frozen, so a
#: node's free-variable set never changes; keying by ``id`` and keeping a
#: strong reference to the node (so its id cannot be recycled) makes the
#: lookup O(1) without hashing whole subtrees.  The planner's join-recipe
#: orientation checks and half the rewrite rules call ``free_vars`` on the
#: same shared subexpressions over and over — with the memo each distinct
#: node is analyzed once per process instead of once per call.
_CACHE: Dict[int, Tuple[A.Expr, FrozenSet[str]]] = {}

#: Flush threshold — keeps long-running processes from pinning every
#: expression ever analyzed.  Rewrite fixpoints stay far below this.
_CACHE_LIMIT = 1 << 18


def free_vars(expr: A.Expr) -> FrozenSet[str]:
    """The set of variables occurring free in ``expr`` (memoized)."""
    entry = _CACHE.get(id(expr))
    if entry is not None and entry[0] is expr:
        return entry[1]
    result = _free_vars(expr)
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.clear()
    _CACHE[id(expr)] = (expr, result)
    return result


def _free_vars(expr: A.Expr) -> FrozenSet[str]:
    if isinstance(expr, A.Var):
        return frozenset((expr.name,))
    if isinstance(expr, (A.Map, A.Select)):
        body = expr.body if isinstance(expr, A.Map) else expr.pred
        return free_vars(expr.source) | (free_vars(body) - {expr.var})
    if isinstance(expr, (A.Exists, A.Forall)):
        return free_vars(expr.source) | (free_vars(expr.pred) - {expr.var})
    if isinstance(expr, (A.Join, A.SemiJoin, A.AntiJoin, A.OuterJoin)):
        bound = {expr.lvar, expr.rvar}
        return (
            free_vars(expr.left)
            | free_vars(expr.right)
            | (free_vars(expr.pred) - bound)
        )
    if isinstance(expr, (A.NestJoin, A.Stitch)):
        bound = {expr.lvar, expr.rvar}
        return (
            free_vars(expr.left)
            | free_vars(expr.right)
            | (free_vars(expr.pred) - bound)
            | (free_vars(expr.result) - bound)
        )
    out: Set[str] = set()
    for child in expr.child_exprs():
        out |= free_vars(child)
    return frozenset(out) if out else _EMPTY


_EMPTY: FrozenSet[str] = frozenset()


def bound_vars(expr: A.Expr) -> FrozenSet[str]:
    """Every variable name bound by some iterator anywhere in ``expr``."""
    out: Set[str] = set()
    for node in expr.walk():
        if isinstance(node, (A.Map, A.Select, A.Exists, A.Forall)):
            out.add(node.var)
        elif isinstance(
            node, (A.Join, A.SemiJoin, A.AntiJoin, A.OuterJoin, A.NestJoin, A.Stitch)
        ):
            out.add(node.lvar)
            out.add(node.rvar)
    return frozenset(out)


def all_var_names(expr: A.Expr) -> FrozenSet[str]:
    """Free plus bound names — the universe to avoid when inventing names."""
    return free_vars(expr) | bound_vars(expr)


def fresh_name(base: str, avoid: FrozenSet[str]) -> str:
    """A variable name not in ``avoid``, derived from ``base``.

    Keeps ``base`` itself when it is already free to use, otherwise appends
    a numeric suffix (``y``, ``y1``, ``y2`` ...).
    """
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def is_correlated(inner: A.Expr, outer_var: str) -> bool:
    """Does the subquery ``inner`` reference the enclosing iterator variable?

    This is the paper's footnote-1 definition of a correlated subquery.
    """
    return outer_var in free_vars(inner)
