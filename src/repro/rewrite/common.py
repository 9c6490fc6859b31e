"""Shared helpers for the rewrite rules.

Two notions from the paper are made operational here:

* the **goal predicate** of Section 3 — "transform nested expressions ...
  into join expressions in which base tables occur only at top level" —
  is :func:`is_set_oriented` / :func:`nested_extent_count`: an expression
  is set-oriented when no base table (``ExtentRef``) occurs inside the
  *parameter expression* of an iterator (map/select/join predicates,
  quantifier ranges and bodies, nestjoin result functions);

* the **query-block shape**: a subquery in the algebra is (the translation
  of) an sfw-block — ``σ[y : Q](Y)``, optionally wrapped in ``α[y : G]``.
  :func:`match_query_block` recognizes those shapes and normalizes the
  variable naming, giving every unnesting rule one entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

from repro.adl import ast as A
from repro.adl.freevars import free_vars
from repro.adl.subst import substitute
from repro.adl.typecheck import TypeChecker
from repro.datamodel.errors import TypeCheckError
from repro.datamodel.types import SetType, TupleType, Type


@dataclass
class RewriteContext:
    """Carried by the engine into every rule application.

    ``checker`` gives schema-aware rules (grouping, nestjoin, unnest) access
    to operand tuple types; rules that need it and lack it simply decline.
    ``env`` optionally types free variables of the expression being
    rewritten (top-level queries have none).
    """

    checker: Optional[TypeChecker] = None
    env: Optional[dict] = None

    def tuple_attrs(self, table_expr: A.Expr) -> Optional[Tuple[str, ...]]:
        """Top-level attribute names of a set-of-tuples expression, or None
        when they cannot be determined statically."""
        if self.checker is None:
            return None
        try:
            t: Type = self.checker.check(table_expr, self.env or {})
        except TypeCheckError:
            return None
        if isinstance(t, SetType) and isinstance(t.element, TupleType):
            return tuple(sorted(t.element.fields))
        return None


def mentions_extent(expr: A.Expr) -> bool:
    """Does the expression reference any base table?"""
    return any(isinstance(node, A.ExtentRef) for node in expr.walk())


def nested_extent_count(expr: A.Expr) -> int:
    """Number of base-table references inside iterator parameter expressions.

    Zero means the paper's optimization goal is met: nested-loop execution
    never re-scans a base table per outer tuple.
    """
    return _nested(expr, False)


def _nested(expr: A.Expr, in_param: bool) -> int:
    if isinstance(expr, A.ExtentRef):
        return 1 if in_param else 0
    if isinstance(expr, A.Map):
        return _nested(expr.source, in_param) + _nested(expr.body, True)
    if isinstance(expr, A.Select):
        return _nested(expr.source, in_param) + _nested(expr.pred, True)
    if isinstance(expr, (A.Exists, A.Forall)):
        # a quantifier only occurs inside parameter expressions, but guard
        # against free-standing use anyway: its range is iterated per
        # evaluation, so once we are inside a parameter it counts.
        return _nested(expr.source, in_param) + _nested(expr.pred, True)
    if isinstance(expr, (A.Join, A.SemiJoin, A.AntiJoin, A.OuterJoin)):
        return (
            _nested(expr.left, in_param)
            + _nested(expr.right, in_param)
            + _nested(expr.pred, True)
        )
    if isinstance(expr, (A.NestJoin, A.Stitch)):
        return (
            _nested(expr.left, in_param)
            + _nested(expr.right, in_param)
            + _nested(expr.pred, True)
            + _nested(expr.result, True)
        )
    total = 0
    for child in expr.child_exprs():
        total += _nested(child, in_param)
    return total


def is_set_oriented(expr: A.Expr) -> bool:
    """The paper's translation/optimization goal, as a checkable property."""
    return nested_extent_count(expr) == 0


def replace_subexpr(root: A.Expr, target: A.Expr, replacement: A.Expr) -> A.Expr:
    """Replace every structural occurrence of ``target`` in ``root``.

    Used when a rewrite replaces a whole subquery (not a variable) — e.g.
    substituting ``z.ys`` for the inner block after a nestjoin is formed.
    Matching is plain structural equality; the rules only call this with
    targets they just located in ``root``, so a match always exists.
    """
    if root == target:
        return replacement
    return root.map_children(partial(replace_subexpr, target=target, replacement=replacement))


@dataclass(frozen=True)
class QueryBlock:
    """A recognized subquery ``α[y : G](σ[y : Q](Y))`` in normalized form.

    ``var`` is the iteration variable, ``source`` the operand ``Y``,
    ``pred`` the where-predicate ``Q`` (``true`` when absent), ``result``
    the select-clause function ``G`` (``Var(var)`` when identity), and
    ``node`` the original expression the block was matched from.
    """

    var: str
    source: A.Expr
    pred: A.Expr
    result: A.Expr
    node: A.Expr

    @property
    def is_identity_result(self) -> bool:
        return self.result == A.Var(self.var)


def match_query_block(expr: A.Expr) -> Optional[QueryBlock]:
    """Recognize the algebraic image of an sfw-block.

    Accepted shapes (with variables normalized to the outer one):

    * ``σ[y : Q](Y)``
    * ``α[y : G](Y)``
    * ``α[y : G](σ[y' : Q](Y))`` — ``y'`` is renamed to ``y``.
    """
    if isinstance(expr, A.Select):
        return QueryBlock(expr.var, expr.source, expr.pred, A.Var(expr.var), expr)
    if isinstance(expr, A.Map):
        inner = expr.source
        if isinstance(inner, A.Select):
            pred = inner.pred
            if inner.var != expr.var:
                if expr.var in free_vars(pred):
                    # renaming would capture; rare, give up on this shape
                    return None
                pred = substitute(pred, {inner.var: A.Var(expr.var)})
            return QueryBlock(expr.var, inner.source, pred, expr.body, expr)
        return QueryBlock(expr.var, expr.source, A.Literal(True), expr.body, expr)
    return None


def is_uncorrelated_table(source: A.Expr, outer_var: str) -> bool:
    """Side condition of every unnesting rule: the inner operand must be a
    base-table expression not depending on the outer variable."""
    return mentions_extent(source) and outer_var not in free_vars(source)


def find_correlated_blocks(expr: A.Expr, outer_var: str):
    """Locate unnestable subquery blocks inside a parameter expression.

    Yields every outermost :class:`QueryBlock` in ``expr`` that

    * iterates over an *uncorrelated base-table expression* (``Y`` mentions
      an extent and does not use ``outer_var``), and
    * is *correlated*: ``outer_var`` occurs free in its predicate or result.

    Traversal is scope-aware: subtrees under a binder that rebinds
    ``outer_var`` are skipped (their ``outer_var`` is a different variable),
    and a matched block's interior is not searched again (inner blocks are
    handled by later rewrite iterations).
    """
    block = match_query_block(expr)
    if block is not None and is_uncorrelated_table(block.source, outer_var):
        correlated = outer_var in (free_vars(block.pred) | free_vars(block.result))
        if correlated:
            yield block
            return

    if isinstance(expr, (A.Map, A.Select)):
        body = expr.body if isinstance(expr, A.Map) else expr.pred
        yield from find_correlated_blocks(expr.source, outer_var)
        if expr.var != outer_var:
            yield from find_correlated_blocks(body, outer_var)
        return
    if isinstance(expr, (A.Exists, A.Forall)):
        yield from find_correlated_blocks(expr.source, outer_var)
        if expr.var != outer_var:
            yield from find_correlated_blocks(expr.pred, outer_var)
        return
    if isinstance(expr, (A.Join, A.SemiJoin, A.AntiJoin, A.OuterJoin, A.NestJoin)):
        yield from find_correlated_blocks(expr.left, outer_var)
        yield from find_correlated_blocks(expr.right, outer_var)
        if outer_var not in (expr.lvar, expr.rvar):
            yield from find_correlated_blocks(expr.pred, outer_var)
            if isinstance(expr, A.NestJoin):
                yield from find_correlated_blocks(expr.result, outer_var)
        return
    for child in expr.child_exprs():
        yield from find_correlated_blocks(child, outer_var)


def first_correlated_block(expr: A.Expr, outer_var: str) -> Optional[QueryBlock]:
    for block in find_correlated_blocks(expr, outer_var):
        return block
    return None
