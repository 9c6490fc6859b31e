"""Normalization and cleanup rules.

These are the glue steps the paper performs silently between its numbered
rewrites: boolean simplification, dropping trivial selections/maps the
Section 3 translation scheme introduces (``σ[x : true]``, ``α[x : x]``),
and fusing the map/select towers that nesting in the **from**-clause
produces ("nesting in the from-clause ... can be removed easily",
Section 2).
"""

from __future__ import annotations

from typing import Optional

from repro.adl import ast as A
from repro.adl.builders import conjoin, conjuncts
from repro.adl.freevars import free_vars
from repro.adl.subst import substitute
from repro.rewrite.common import RewriteContext
from repro.rewrite.engine import Rule, rule

TRUE = A.Literal(True)
FALSE = A.Literal(False)


@rule("double-negation", on=(A.Not,))
def double_negation(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """¬¬p ≡ p."""
    if isinstance(expr, A.Not) and isinstance(expr.operand, A.Not):
        return expr.operand.operand
    return None


@rule("boolean-constants", on=(A.Not, A.And, A.Or))
def boolean_constants(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Fold ``true``/``false`` through ¬ ∧ ∨."""
    if isinstance(expr, A.Not):
        if expr.operand == TRUE:
            return FALSE
        if expr.operand == FALSE:
            return TRUE
    if isinstance(expr, A.And):
        if expr.left == TRUE:
            return expr.right
        if expr.right == TRUE:
            return expr.left
        if FALSE in (expr.left, expr.right):
            return FALSE
    if isinstance(expr, A.Or):
        if expr.left == FALSE:
            return expr.right
        if expr.right == FALSE:
            return expr.left
        if TRUE in (expr.left, expr.right):
            return TRUE
    return None


@rule("select-true", on=(A.Select,))
def select_true(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """σ[x : true](X) ≡ X — a missing where-clause."""
    if isinstance(expr, A.Select) and expr.pred == TRUE:
        return expr.source
    return None


@rule("select-false", on=(A.Select,))
def select_false(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """σ[x : false](X) ≡ ∅."""
    if isinstance(expr, A.Select) and expr.pred == FALSE:
        return A.SetExpr(())
    return None


@rule("map-identity", on=(A.Map,))
def map_identity(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """α[x : x](X) ≡ X — a ``select x from x in X`` projection."""
    if isinstance(expr, A.Map) and expr.body == A.Var(expr.var):
        return expr.source
    return None


@rule("select-fusion", on=(A.Select,))
def select_fusion(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """σ[x : p](σ[y : q](X)) ≡ σ[x : p ∧ q[y↦x]](X).

    The from-clause unnesting workhorse: composed query blocks collapse
    into one selection over the base operand (the paper's Example Query 2).
    """
    if isinstance(expr, A.Select) and isinstance(expr.source, A.Select):
        inner = expr.source
        inner_pred = inner.pred
        if inner.var != expr.var:
            if expr.var in free_vars(inner_pred):
                return None
            inner_pred = substitute(inner_pred, {inner.var: A.Var(expr.var)})
        return A.Select(expr.var, A.And(expr.pred, inner_pred), inner.source)
    return None


@rule("select-over-map", on=(A.Select,))
def select_over_map(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """σ[x : p](α[y : f](X)) ≡ α[y : f](σ[y : p[x↦f]](X)).

    Pushing a selection through a map lets composed blocks (views) fuse
    with the selections below them.  Only safe verbatim because both sides
    deduplicate (set semantics): filtering pre-images whose image fails
    ``p`` is exactly filtering the image.
    """
    if isinstance(expr, A.Select) and isinstance(expr.source, A.Map):
        inner = expr.source
        if inner.var in free_vars(expr.pred) and inner.var != expr.var:
            return None
        pushed = substitute(expr.pred, {expr.var: inner.body})
        return A.Map(inner.var, inner.body, A.Select(inner.var, pushed, inner.source))
    return None


@rule("map-fusion", on=(A.Map,))
def map_fusion(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """α[x : f](α[y : g](X)) ≡ α[y : f[x↦g]](X)."""
    if isinstance(expr, A.Map) and isinstance(expr.source, A.Map):
        inner = expr.source
        if inner.var in free_vars(expr.body) and inner.var != expr.var:
            return None
        body = substitute(expr.body, {expr.var: inner.body})
        return A.Map(inner.var, body, inner.source)
    return None


@rule("subscript-access", on=(A.AttrAccess,))
def subscript_access(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """(e[a1..an]).ai ≡ e.ai — cleans up after nestjoin substitutions."""
    if (
        isinstance(expr, A.AttrAccess)
        and isinstance(expr.base, A.TupleSubscript)
        and expr.attr in expr.base.attrs
    ):
        return A.AttrAccess(expr.base.base, expr.attr)
    return None


@rule("tuple-field-access", on=(A.AttrAccess,))
def tuple_field_access(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """(a = e, ...).a ≡ e."""
    if isinstance(expr, A.AttrAccess) and isinstance(expr.base, A.TupleExpr):
        for name, value in expr.base.fields:
            if name == expr.attr:
                return value
    return None


_COMPARE_NEGATION = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_SETCMP_NEGATION = {"in": "notin", "notin": "in", "ni": "notni", "notni": "ni",
                    "seteq": "setneq", "setneq": "seteq"}


@rule("push-negation", on=(A.Not,))
def push_negation(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Move ¬ toward the leaves: De Morgan over ∧/∨ and complement
    operators for comparisons (``¬(a = b) ≡ a != b`` etc.).

    ``¬∃`` is deliberately left intact — it is the antijoin trigger of
    Rule 1 — and quantifier duals are handled by the quantifier rules.
    """
    if not isinstance(expr, A.Not):
        return None
    inner = expr.operand
    if isinstance(inner, A.And):
        return A.Or(A.Not(inner.left), A.Not(inner.right))
    if isinstance(inner, A.Or):
        return A.And(A.Not(inner.left), A.Not(inner.right))
    if isinstance(inner, A.Compare):
        return A.Compare(_COMPARE_NEGATION[inner.op], inner.left, inner.right)
    if isinstance(inner, A.SetCompare) and inner.op in _SETCMP_NEGATION:
        return A.SetCompare(_SETCMP_NEGATION[inner.op], inner.left, inner.right)
    return None


@rule("empty-quantifiers", on=(A.Exists, A.Forall))
def empty_quantifiers(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """∃x ∈ ∅ • p ≡ false;  ∀x ∈ ∅ • p ≡ true."""
    empty = A.SetExpr(())
    if isinstance(expr, A.Exists) and expr.source == empty:
        return FALSE
    if isinstance(expr, A.Forall) and expr.source == empty:
        return TRUE
    return None


@rule("exists-eq-to-membership", on=(A.Exists,))
def exists_eq_to_membership(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """∃x ∈ S • (x = e ∧ r)  ≡  e ∈ S ∧ r[x↦e]   when x ∉ fv(e).

    The inverse of the Table 1 membership expansion, restricted to ranges
    that do *not* mention a base table (set-valued attributes) so the two
    rules cannot loop.  This is what turns Example Query 5's inner
    ``∃x ∈ s.parts • x = p[pid] ∧ ...`` into the paper's join predicate
    ``p[pid] ∈ s.parts``.
    """
    if not isinstance(expr, A.Exists):
        return None
    from repro.rewrite.common import mentions_extent

    if mentions_extent(expr.source):
        return None
    parts = conjuncts(expr.pred)
    for index, part in enumerate(parts):
        if not isinstance(part, A.Compare) or part.op != "=":
            continue
        if part.left == A.Var(expr.var):
            witness = part.right
        elif part.right == A.Var(expr.var):
            witness = part.left
        else:
            continue
        if expr.var in free_vars(witness):
            continue
        membership = A.SetCompare("in", witness, expr.source)
        rest = parts[:index] + parts[index + 1 :]
        if not rest:
            return membership
        remainder = substitute(conjoin(rest), {expr.var: witness})
        return A.And(membership, remainder)
    return None


#: The normalization phase rule set, in application priority order.
SIMPLIFY_RULES = (
    double_negation,
    boolean_constants,
    select_true,
    select_false,
    map_identity,
    select_fusion,
    select_over_map,
    map_fusion,
    subscript_access,
    tuple_field_access,
    empty_quantifiers,
)

#: Cleanup-only subset safe to run after join formation (no fusion rules,
#: which could undo a deliberately split selection).
CLEANUP_RULES = (
    double_negation,
    boolean_constants,
    select_true,
    select_false,
    map_identity,
    subscript_access,
    tuple_field_access,
    push_negation,
    exists_eq_to_membership,
    empty_quantifiers,
)
