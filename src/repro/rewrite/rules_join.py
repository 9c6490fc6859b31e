"""Unnesting into relational join operators: the paper's Rule 1 and Rule 2.

Rule 1 (UNNESTING QUANTIFIER EXPRESSIONS): with ``x`` not free in ``Y``::

    σ[x : ∃y ∈ Y • p](X)   ≡   X ⋉⟨x,y : p⟩ Y
    σ[x : ¬∃y ∈ Y • p](X)  ≡   X ▷⟨x,y : p⟩ Y

Rule 2 (NESTING IN THE MAP OPERATOR)::

    ⊔(α[x : α[y : x o y](σ[y : p](Y))](X))   ≡   X ⋈⟨x,y : p⟩ Y

Both are *the* unnesting steps — everything in Tables 1/2 and the
quantifier toolkit exists to massage predicates into these shapes.  A
conjunction variant peels quantified conjuncts off mixed predicates
(``σ[x : r ∧ ∃y ∈ Y • p](X) ≡ σ[x : r](X) ⋉⟨x,y : p⟩ Y``), so selections
whose where-clause mixes local tests with subqueries unnest too — with
the local tests already sitting on their operand.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.adl import ast as A
from repro.adl.builders import conjoin, conjuncts
from repro.adl.freevars import bound_vars, free_vars
from repro.rewrite.common import RewriteContext, is_uncorrelated_table, mentions_extent
from repro.rewrite.engine import rule


def _match_quantified(pred: A.Expr, outer_var: str) -> Optional[Tuple[bool, A.Exists]]:
    """Match ``∃y ∈ Y • p`` or ``¬∃y ∈ Y • p`` with ``Y`` an uncorrelated
    base-table expression.  Returns ``(negated, exists_node)``."""
    negated = False
    node = pred
    if isinstance(node, A.Not):
        negated = True
        node = node.operand
    if not isinstance(node, A.Exists):
        return None
    if not is_uncorrelated_table(node.source, outer_var):
        return None
    return negated, node


@rule("rule1-semijoin-antijoin", on=(A.Select,))
def rule1(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Rule 1 with the whole predicate a (negated) existential quantifier."""
    if not isinstance(expr, A.Select):
        return None
    match = _match_quantified(expr.pred, expr.var)
    if match is None:
        return None
    negated, exists = match
    cls = A.AntiJoin if negated else A.SemiJoin
    return cls(expr.source, exists.source, expr.var, exists.var, exists.pred)


def _is_local(part: A.Expr) -> bool:
    """Quantifier- and subquery-free: no iterator, no base table."""
    return not bound_vars(part) and not mentions_extent(part)


@rule("rule1-conjunct", on=(A.Select,))
def rule1_conjunct(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Peel one quantified conjunct off a mixed selection predicate, and
    leave the plain conjuncts on the operand they test:

    ``σ[x : r ∧ q ∧ (¬)∃y ∈ Y • p](X)  ≡  σ[x : q](σ[x : r](X) (⋉|▷)⟨x,y : p⟩ Y)``

    with ``r`` the quantifier- and subquery-free conjuncts and ``q`` the
    rest (further quantifiers, nested selects — later applications peel
    those).  ``r`` tests ``x`` alone, so filtering ``X`` by it first
    commutes with keeping (⋉) or dropping (▷) the ``x`` that find a
    partner: it is a conjunct of the *selection*, not of the join
    predicate — the left-side push :func:`push_right_selection` warns
    about is a different thing.  Under the join ``σ[x : r](X)`` is an
    ordinary leaf the planner knows access paths for (``y.d = $k``
    becomes an index scan feeding an index nested-loop semijoin).
    """
    if not isinstance(expr, A.Select):
        return None
    parts = conjuncts(expr.pred)
    if len(parts) < 2:
        return None
    for index, part in enumerate(parts):
        match = _match_quantified(part, expr.var)
        if match is None:
            continue
        negated, exists = match
        remaining = parts[:index] + parts[index + 1 :]
        local, above = [], []
        for other in remaining:
            (local if _is_local(other) else above).append(other)
        left = A.Select(expr.var, conjoin(local), expr.source) if local else expr.source
        cls = A.AntiJoin if negated else A.SemiJoin
        joined = cls(left, exists.source, expr.var, exists.var, exists.pred)
        return A.Select(expr.var, conjoin(above), joined) if above else joined
    return None


@rule("rule2-map-join", on=(A.Flatten,))
def rule2(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Rule 2: a flattened nested map that concatenates its two variables
    is a join.  Accepts an optional selection under the inner map."""
    if not isinstance(expr, A.Flatten):
        return None
    outer = expr.source
    if not isinstance(outer, A.Map):
        return None
    inner = outer.body
    if not isinstance(inner, A.Map):
        return None
    # unwrap an optional inner selection σ[y : p](Y)
    if isinstance(inner.source, A.Select) and inner.source.var == inner.var:
        pred = inner.source.pred
        source = inner.source.source
    else:
        pred = A.Literal(True)
        source = inner.source
    if inner.body != A.Concat(A.Var(outer.var), A.Var(inner.var)):
        return None
    if not is_uncorrelated_table(source, outer.var):
        return None
    if outer.var in free_vars(source):
        return None
    return A.Join(outer.source, source, outer.var, inner.var, pred)


@rule("push-right-selection", on=(A.Join, A.SemiJoin, A.AntiJoin, A.NestJoin))
def push_right_selection(expr: A.Expr, ctx: RewriteContext) -> Optional[A.Expr]:
    """Move right-operand-only conjuncts of a join predicate into a
    selection on the right operand::

        X ⋉⟨x,y : p ∧ r(y)⟩ Y  ≡  X ⋉⟨x,y : p⟩ σ[y : r](Y)

    Sound for join, semijoin, antijoin and nestjoin alike: filtering the
    right operand by a predicate over right attributes only commutes with
    match-finding.  (The dual left-side push is *not* sound for the
    antijoin — a failing left-only conjunct means "no match", i.e. the
    tuple *survives* — so only the right side is pushed.)  This produces
    the paper's Example Query 5 plan shape with
    ``σ[p : p.color = "red"](PART)`` as the semijoin operand.
    """
    if not isinstance(expr, (A.Join, A.SemiJoin, A.AntiJoin, A.NestJoin)):
        return None
    parts = conjuncts(expr.pred)
    if len(parts) < 2:
        return None
    rvar_only = [
        p for p in parts if free_vars(p) <= {expr.rvar} and expr.rvar in free_vars(p)
    ]
    if not rvar_only:
        return None
    remaining = [p for p in parts if p not in rvar_only]
    if not remaining:
        # keep at least `true` as the join predicate
        remaining = [A.Literal(True)]
    new_right = A.Select(expr.rvar, conjoin(rvar_only), expr.right)
    return dataclasses.replace(expr, right=new_right, pred=conjoin(remaining))


JOIN_RULES = (rule1, rule1_conjunct, rule2, push_right_selection)
