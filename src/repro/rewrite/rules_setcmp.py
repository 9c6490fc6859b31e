"""Set-comparison → quantifier rewrites: the paper's Table 1 and Table 2.

Every set comparison operator expands into a quantifier expression over the
subquery operand (Table 1); several other predicate forms — emptiness
tests, ``count(Y') = 0``, disjointness — do too (Table 2).  Expansion is
the *enabler*: once the predicate is quantifier-shaped, the range
transformation and Rule 1 (see :mod:`repro.rewrite.rules_join`) can turn
the whole selection into a semijoin or antijoin.

The rules fire only when one operand mentions a base table — expanding a
comparison between two stored set-valued attributes has no unnesting
payoff and the paper warns it can hurt ("in other cases, rewriting into
quantifiers has a negative effect on performance", Section 5.2).
:func:`expand_setcompare` exposes the raw, unguarded expansion for the
Table 1 benchmark, which checks all eight rows by evaluation.
"""

from __future__ import annotations

from typing import Optional

from repro.adl import ast as A
from repro.adl.freevars import all_var_names, fresh_name
from repro.rewrite.common import RewriteContext, mentions_extent
from repro.rewrite.engine import rule

TRUE = A.Literal(True)
_EMPTY = A.SetExpr(())


def _fresh_pair(expr: A.Expr):
    avoid = all_var_names(expr)
    z = fresh_name("z", avoid)
    y = fresh_name("y", avoid | {z})
    return z, y


def expand_setcompare(expr: A.SetCompare) -> A.Expr:
    """Unconditional Table 1 / Table 2 expansion of one set comparison.

    With ``c`` the left and ``Y'`` the right operand:

    ========  =====================================================
    ``∈``     ``∃y ∈ Y' • y = c``
    ``⊂``     ``(∀z ∈ c • ∃y ∈ Y' • z = y) ∧ (∃y ∈ Y' • y ∉ c)``
    ``⊆``     ``∀z ∈ c • ∃y ∈ Y' • z = y``
    ``=``     ``(∀z ∈ c • ∃y ∈ Y' • z = y) ∧ (∀y ∈ Y' • y ∈ c)``
    ``⊇``     ``∀y ∈ Y' • y ∈ c``
    ``⊃``     ``(∀y ∈ Y' • y ∈ c) ∧ (∃z ∈ c • ¬∃y ∈ Y' • z = y)``
    ``∋``     ``∃z ∈ c • z = Y'``
    disjoint  ``¬∃y ∈ Y' • y ∈ c``   (Table 2, row 3)
    ========  =====================================================

    Negated operators expand to the negation of their positive form
    ("negating the operator negates the quantifier expression").
    """
    c, y_prime = expr.left, expr.right
    z, y = _fresh_pair(expr)
    op = expr.op

    def covers() -> A.Expr:  # ∀z ∈ c • ∃y ∈ Y' • z = y   (c ⊆ Y')
        return A.Forall(z, c, A.Exists(y, y_prime, A.Compare("=", A.Var(z), A.Var(y))))

    def contains_all() -> A.Expr:  # ∀y ∈ Y' • y ∈ c   (c ⊇ Y')
        return A.Forall(y, y_prime, A.SetCompare("in", A.Var(y), c))

    def missing_some() -> A.Expr:  # ∃y ∈ Y' • y ∉ c
        return A.Exists(y, y_prime, A.SetCompare("notin", A.Var(y), c))

    def extra_some() -> A.Expr:  # ∃z ∈ c • ¬∃y ∈ Y' • z = y
        return A.Exists(
            z, c, A.Not(A.Exists(y, y_prime, A.Compare("=", A.Var(z), A.Var(y))))
        )

    if op == "in":
        return A.Exists(y, y_prime, A.Compare("=", A.Var(y), c))
    if op == "notin":
        return A.Not(A.Exists(y, y_prime, A.Compare("=", A.Var(y), c)))
    if op == "subset":
        return A.And(covers(), missing_some())
    if op == "subseteq":
        return covers()
    if op == "seteq":
        return A.And(covers(), contains_all())
    if op == "setneq":
        return A.Not(A.And(covers(), contains_all()))
    if op == "supseteq":
        return contains_all()
    if op == "supset":
        return A.And(contains_all(), extra_some())
    if op == "ni":
        return A.Exists(z, c, A.Compare("=", A.Var(z), y_prime))
    if op == "notni":
        return A.Not(A.Exists(z, c, A.Compare("=", A.Var(z), y_prime)))
    if op == "disjoint":
        return A.Not(A.Exists(y, y_prime, A.SetCompare("in", A.Var(y), c)))
    raise AssertionError(f"unhandled set comparison {op!r}")


@rule("table1-expand-set-comparison", on=(A.SetCompare,))
def expand_guarded(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Table 1/2 expansion, guarded: a base table must be involved.

    The membership forms only pay off when the *set* operand holds the
    subquery; the symmetric forms pay off when either side does.
    """
    if not isinstance(expr, A.SetCompare):
        return None
    if expr.op in ("in", "notin"):
        relevant = mentions_extent(expr.right)
    elif expr.op in ("ni", "notni"):
        relevant = mentions_extent(expr.left)
    else:
        relevant = mentions_extent(expr.left) or mentions_extent(expr.right)
    if not relevant:
        return None
    return expand_setcompare(expr)


@rule("table2-empty-test", on=(A.IsEmpty, A.SetCompare))
def empty_test(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """``Y' = ∅  ≡  ¬∃y ∈ Y' • true`` (Table 2, rows 1).

    Handles the ``IsEmpty`` node and literal comparisons against ``{}``.
    """
    operand: Optional[A.Expr] = None
    negated = False
    if isinstance(expr, A.IsEmpty):
        operand = expr.operand
    elif isinstance(expr, A.SetCompare) and expr.op in ("seteq", "setneq"):
        if expr.right == _EMPTY:
            operand = expr.left
        elif expr.left == _EMPTY:
            operand = expr.right
        negated = expr.op == "setneq"
    if operand is None or not mentions_extent(operand):
        return None
    y = fresh_name("y", all_var_names(operand))
    exists = A.Exists(y, operand, TRUE)
    return exists if negated else A.Not(exists)


@rule("table2-count-zero", on=(A.Compare,))
def count_zero(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """``count(Y') = 0 ≡ ¬∃y ∈ Y' • true`` (Table 2, row 2) and the
    natural companions ``count(Y') > 0 / != 0 / >= 1 ≡ ∃y ∈ Y' • true``."""
    if not isinstance(expr, A.Compare):
        return None
    agg, literal, op = None, None, expr.op
    if isinstance(expr.left, A.Aggregate) and expr.left.func == "count":
        agg, literal = expr.left, expr.right
    elif isinstance(expr.right, A.Aggregate) and expr.right.func == "count":
        agg, literal = expr.right, expr.left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if agg is None or not isinstance(literal, A.Literal):
        return None
    if not mentions_extent(agg.source):
        return None
    y = fresh_name("y", all_var_names(agg.source))
    exists = A.Exists(y, agg.source, TRUE)
    if (op, literal.value) in (("=", 0), ("<=", 0), ("<", 1)):
        return A.Not(exists)
    if (op, literal.value) in (("!=", 0), (">", 0), (">=", 1)):
        return exists
    return None


SETCMP_RULES = (expand_guarded, empty_test, count_zero)
