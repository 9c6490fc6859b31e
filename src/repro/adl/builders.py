"""Terse constructors for ADL expressions.

Tests and rewrite rules build a lot of algebra by hand; these helpers keep
that construction close to the paper's notation::

    sel("x", exists("y", extent("Y"), eq(attr("y", "a"), attr("x", "a"))),
        extent("X"))
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Union

from repro.adl import ast as A
from repro.datamodel.values import Value

ExprLike = Union[A.Expr, int, float, str, bool, None]


def lift(value: ExprLike) -> A.Expr:
    """Wrap a raw Python scalar into a :class:`Literal`; pass exprs through."""
    if isinstance(value, A.Expr):
        return value
    return A.Literal(value)


def lit(value: Value) -> A.Literal:
    return A.Literal(value)


def var(name: str) -> A.Var:
    return A.Var(name)


def extent(name: str) -> A.ExtentRef:
    return A.ExtentRef(name)


def attr(base: ExprLike, *path: str) -> A.Expr:
    """Attribute access; multiple names build a path: ``attr(x, "a", "b")``."""
    expr = lift(base)
    if isinstance(expr, A.Literal) and isinstance(expr.value, str) and not path:
        raise TypeError("attr() needs at least one attribute name")
    for name in path:
        expr = A.AttrAccess(expr, name)
    return expr


def tup(fields: Optional[Mapping[str, ExprLike]] = None, **kw: ExprLike) -> A.TupleExpr:
    items = []
    if fields:
        items.extend((n, lift(e)) for n, e in fields.items())
    items.extend((n, lift(e)) for n, e in kw.items())
    return A.TupleExpr(tuple(items))


def setexpr(*elements: ExprLike) -> A.SetExpr:
    return A.SetExpr(tuple(lift(e) for e in elements))


EMPTY = A.SetExpr(())


def subscript(base: ExprLike, *attrs: str) -> A.TupleSubscript:
    return A.TupleSubscript(lift(base), tuple(attrs))


def tupdate(base: ExprLike, **updates: ExprLike) -> A.TupleUpdate:
    return A.TupleUpdate(lift(base), tuple((n, lift(e)) for n, e in updates.items()))


# -- scalar operators ---------------------------------------------------------

def eq(left: ExprLike, right: ExprLike) -> A.Compare:
    return A.Compare("=", lift(left), lift(right))


def neq(left: ExprLike, right: ExprLike) -> A.Compare:
    return A.Compare("!=", lift(left), lift(right))


def lt(left: ExprLike, right: ExprLike) -> A.Compare:
    return A.Compare("<", lift(left), lift(right))


def le(left: ExprLike, right: ExprLike) -> A.Compare:
    return A.Compare("<=", lift(left), lift(right))


def gt(left: ExprLike, right: ExprLike) -> A.Compare:
    return A.Compare(">", lift(left), lift(right))


def ge(left: ExprLike, right: ExprLike) -> A.Compare:
    return A.Compare(">=", lift(left), lift(right))


def add(left: ExprLike, right: ExprLike) -> A.Arith:
    return A.Arith("+", lift(left), lift(right))


def sub(left: ExprLike, right: ExprLike) -> A.Arith:
    return A.Arith("-", lift(left), lift(right))


def mul(left: ExprLike, right: ExprLike) -> A.Arith:
    return A.Arith("*", lift(left), lift(right))


# -- boolean connectives -------------------------------------------------------

def conjuncts(pred: A.Expr) -> List[A.Expr]:
    """The conjuncts of ``pred``, left to right (any ``And`` nesting)."""
    if isinstance(pred, A.And):
        return conjuncts(pred.left) + conjuncts(pred.right)
    return [pred]


def conjoin(parts: Sequence[A.Expr]) -> A.Expr:
    """Right-nested conjunction of ``parts``; the empty list is ``true``.

    The one inverse of :func:`conjuncts` — the rewriter, the join-order
    search and the planner all rebuild predicates through it, so the
    ``And`` shape (and with it pretty-printed plans and plan-cache keys)
    is decided here."""
    if not parts:
        return A.Literal(True)
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = A.And(part, out)
    return out


def conj(*preds: ExprLike) -> A.Expr:
    """Right-nested conjunction; ``conj()`` is ``true``."""
    return conjoin([lift(p) for p in preds])


def disj(*preds: ExprLike) -> A.Expr:
    exprs = [lift(p) for p in preds]
    if not exprs:
        return A.Literal(False)
    out = exprs[-1]
    for p in reversed(exprs[:-1]):
        out = A.Or(p, out)
    return out


def neg(pred: ExprLike) -> A.Not:
    return A.Not(lift(pred))


def is_empty(operand: ExprLike) -> A.IsEmpty:
    return A.IsEmpty(lift(operand))


# -- set comparisons ------------------------------------------------------------

def member(element: ExprLike, of: ExprLike) -> A.SetCompare:
    return A.SetCompare("in", lift(element), lift(of))


def not_member(element: ExprLike, of: ExprLike) -> A.SetCompare:
    return A.SetCompare("notin", lift(element), lift(of))


def subseteq(left: ExprLike, right: ExprLike) -> A.SetCompare:
    return A.SetCompare("subseteq", lift(left), lift(right))


def subset(left: ExprLike, right: ExprLike) -> A.SetCompare:
    return A.SetCompare("subset", lift(left), lift(right))


def seteq(left: ExprLike, right: ExprLike) -> A.SetCompare:
    return A.SetCompare("seteq", lift(left), lift(right))


def supseteq(left: ExprLike, right: ExprLike) -> A.SetCompare:
    return A.SetCompare("supseteq", lift(left), lift(right))


def supset(left: ExprLike, right: ExprLike) -> A.SetCompare:
    return A.SetCompare("supset", lift(left), lift(right))


def ni(left: ExprLike, right: ExprLike) -> A.SetCompare:
    return A.SetCompare("ni", lift(left), lift(right))


def disjoint(left: ExprLike, right: ExprLike) -> A.SetCompare:
    return A.SetCompare("disjoint", lift(left), lift(right))


# -- quantifiers -----------------------------------------------------------------

def exists(v: str, source: ExprLike, pred: ExprLike) -> A.Exists:
    return A.Exists(v, lift(source), lift(pred))


def forall(v: str, source: ExprLike, pred: ExprLike) -> A.Forall:
    return A.Forall(v, lift(source), lift(pred))


# -- iterators ---------------------------------------------------------------------

def amap(v: str, body: ExprLike, source: ExprLike) -> A.Map:
    return A.Map(v, lift(body), lift(source))


def sel(v: str, pred: ExprLike, source: ExprLike) -> A.Select:
    return A.Select(v, lift(pred), lift(source))


def project(source: ExprLike, *attrs: str) -> A.Project:
    return A.Project(lift(source), tuple(attrs))


def rename(source: ExprLike, **renames: str) -> A.Rename:
    return A.Rename(lift(source), tuple(renames.items()))


def flatten(source: ExprLike) -> A.Flatten:
    return A.Flatten(lift(source))


def unnest(source: ExprLike, attribute: str) -> A.Unnest:
    return A.Unnest(lift(source), attribute)


def nest(source: ExprLike, attrs: Iterable[str], as_attr: str) -> A.Nest:
    return A.Nest(lift(source), tuple(attrs), as_attr)


# -- joins ----------------------------------------------------------------------------

def cart(left: ExprLike, right: ExprLike) -> A.CartProd:
    return A.CartProd(lift(left), lift(right))


def join(left: ExprLike, right: ExprLike, lvar: str, rvar: str, pred: ExprLike) -> A.Join:
    return A.Join(lift(left), lift(right), lvar, rvar, lift(pred))


def semijoin(left: ExprLike, right: ExprLike, lvar: str, rvar: str, pred: ExprLike) -> A.SemiJoin:
    return A.SemiJoin(lift(left), lift(right), lvar, rvar, lift(pred))


def antijoin(left: ExprLike, right: ExprLike, lvar: str, rvar: str, pred: ExprLike) -> A.AntiJoin:
    return A.AntiJoin(lift(left), lift(right), lvar, rvar, lift(pred))


def outerjoin(
    left: ExprLike,
    right: ExprLike,
    lvar: str,
    rvar: str,
    pred: ExprLike,
    right_attrs: Iterable[str],
) -> A.OuterJoin:
    return A.OuterJoin(lift(left), lift(right), lvar, rvar, lift(pred), tuple(right_attrs))


def nestjoin(
    left: ExprLike,
    right: ExprLike,
    lvar: str,
    rvar: str,
    pred: ExprLike,
    as_attr: str,
    result: Optional[ExprLike] = None,
) -> A.NestJoin:
    """The nestjoin; ``result`` defaults to the right variable (simple form)."""
    body = lift(result) if result is not None else A.Var(rvar)
    return A.NestJoin(lift(left), lift(right), lvar, rvar, lift(pred), as_attr, body)


def division(left: ExprLike, right: ExprLike) -> A.Division:
    return A.Division(lift(left), lift(right))


def union(left: ExprLike, right: ExprLike) -> A.Union:
    return A.Union(lift(left), lift(right))


def intersect(left: ExprLike, right: ExprLike) -> A.Intersect:
    return A.Intersect(lift(left), lift(right))


def difference(left: ExprLike, right: ExprLike) -> A.Difference:
    return A.Difference(lift(left), lift(right))


# -- aggregates -------------------------------------------------------------------------

def count(source: ExprLike) -> A.Aggregate:
    return A.Aggregate("count", lift(source))


def agg(func: str, source: ExprLike) -> A.Aggregate:
    return A.Aggregate(func, lift(source))


def materialize(source: ExprLike, attribute: str, as_attr: str, class_name: str) -> A.Materialize:
    return A.Materialize(lift(source), attribute, as_attr, class_name)
