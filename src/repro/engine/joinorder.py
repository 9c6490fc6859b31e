"""Join-graph extraction and DP join reordering over the ADL algebra.

The rewriter (Section 4) emits join trees in whatever order the source
query happened to mention its extents; PR 2's planner then priced physical
strategies *for that tree*.  This module closes the gap the ROADMAP called
out as "no join reordering": between rewriting and physical planning, every
maximal region of plain joins is

1. **extracted into a join graph** — leaves are the region's non-join
   operands (extents, selections over extents, or opaque subplans), edges
   are the equality conjuncts linking two leaves, single-leaf conjuncts
   are pushed down onto their leaf as selections, and conjuncts spanning
   more than two leaves (or non-equality two-leaf conjuncts) become
   residual predicates applied at the first join that covers them;
2. **re-enumerated by dynamic programming** over left-deep orders,
   scored with the PR-2 cardinality model
   (:class:`~repro.engine.cost.CostModel`): per pair the enumerator reads
   the join's serial alternatives from
   :func:`~repro.engine.cost.join_alternatives` — the list the physical
   planner builds from — and keeps the cheapest: a hash join with either
   build side, an index nested-loop join when the right operand is an
   indexed extent under any stack of selections (pushed-down conjuncts
   included; they ride along as residual), and nested loops.
   Cross products are avoided unless the graph is disconnected, in which
   case connected components are ordered independently and then combined
   smallest-first;
3. **emitted back into the algebra** as a tree of plain :class:`~repro.adl.ast.Join`
   nodes with fresh variables, which the physical planner then plans as
   usual — so rewrite choice, join order and physical strategy all flow
   through the same pricing surface.

Safety: reordering only fires on *closed* plain-join regions (correlated
operands keep their order), only when every predicate attribute resolves
to exactly one leaf (ambiguous or whole-tuple references bail out and the
original tree is kept), and only when it is estimated cheaper than the
original order.  Regions of fewer than three leaves are left alone — the
planner's build-side/index enumeration already covers the two-operand
choice.  Semijoins, antijoins, outerjoins and nestjoins are never
reordered across (their semantics are anchored to the left operand); a
plain-join region *inside* one of their operands still is.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.adl import ast as A
from repro.adl.builders import conjoin, conjuncts
from repro.adl.freevars import all_var_names, free_vars, fresh_name
from repro.adl.subst import substitute
from repro.engine.cost import (
    EQ_SELECTIVITY,
    RESIDUAL_SELECTIVITY,
    CostModel,
    Estimate,
    format_number,
    index_path,
    join_alternatives,
)

TRUE = A.Literal(True)

#: Left-deep DP cap: beyond this many leaves the region is left as-is
#: (subset enumeration is 2^n; twelve leaves keep it in the tens of
#: thousands of states).
MAX_DP_LEAVES = 12


class _Bail(Exception):
    """Extraction cannot prove the region safe to reorder — keep it."""


def _leaf_var(index: int) -> str:
    # '%' cannot appear in user variable names, so tagged references can
    # never be captured by binders inside the conjunct
    return f"%{index}"


#: A plan shape: a leaf index, or a (left, right) pair of shapes.
Shape = Union[int, Tuple["Shape", "Shape"]]


@dataclass
class JoinLeaf:
    """One node of the join graph.

    ``base_expr`` is the operand exactly as it appeared in the original
    tree; ``expr`` is the working form — ``base_expr`` wrapped in a σ once
    pushed-down conjuncts are applied (and with nested join regions inside
    it reordered, once the caller commits to processing this region).
    """

    index: int
    expr: A.Expr
    base_expr: A.Expr
    var: str
    attrs: Optional[FrozenSet[str]]
    label: str


@dataclass(frozen=True)
class JoinEdge:
    """An equality conjunct linking two leaves: ``left.attr = right.attr``."""

    left: int
    left_attr: str
    right: int
    right_attr: str

    @property
    def ends(self) -> FrozenSet[int]:
        return frozenset((self.left, self.right))


@dataclass(frozen=True)
class JoinOrderDecision:
    """What the enumerator decided for one join region, for ``explain()``.

    ``candidates`` lists alternative complete orders (rendered, with their
    estimated cost) considered at the top of the DP table, cheapest first.
    """

    chosen: str
    chosen_cost: float
    original: str
    original_cost: float
    leaves: int
    reordered: bool
    candidates: Tuple[Tuple[str, float], ...] = ()

    def render(self) -> str:
        line = f"-- join order: {self.chosen} (cost≈{format_number(self.chosen_cost)}"
        if not self.reordered:
            line += "; rewriter order kept"
        else:
            line += f"; rewriter order {self.original} cost≈{format_number(self.original_cost)}"
        if self.candidates:
            shown = ", ".join(
                f"{order}≈{format_number(cost)}" for order, cost in self.candidates[:4]
            )
            line += f"; candidates: {shown}"
        return line + ")"


class JoinGraph:
    """Leaves + equality edges + pushed selections + residual conjuncts."""

    def __init__(self, catalog) -> None:
        self.catalog = catalog
        self.leaves: List[JoinLeaf] = []
        self.edges: List[JoinEdge] = []
        self.residuals: List[Tuple[FrozenSet[int], A.Expr]] = []
        self._pushed: Dict[int, List[A.Expr]] = {}
        self.original: Optional[Shape] = None

    # -- construction --------------------------------------------------------
    def add_leaf(self, expr: A.Expr, var: str) -> int:
        index = len(self.leaves)
        self.leaves.append(
            JoinLeaf(
                index, expr, expr, var, _leaf_attrs(expr, self.catalog), _label(expr)
            )
        )
        return index

    def recurse_leaves(self, rec) -> None:
        """Apply ``rec`` to every leaf's base expression (exactly once per
        leaf — nested join regions inside leaves are reordered here), and
        rewire the working form's pushdown wrapper onto the result."""
        for leaf in self.leaves:
            recursed = rec(leaf.base_expr)
            if recursed is leaf.base_expr:
                continue
            if leaf.expr is leaf.base_expr:
                leaf.expr = recursed
            else:  # the single σ wrapper added by apply_pushed_selections
                leaf.expr = dataclasses.replace(leaf.expr, source=recursed)
            leaf.base_expr = recursed

    def add_conjunct(self, used: FrozenSet[int], tagged: A.Expr) -> None:
        if len(used) == 1:
            self._pushed.setdefault(next(iter(used)), []).append(tagged)
            return
        if len(used) == 2 and isinstance(tagged, A.Compare) and tagged.op == "=":
            sides = []
            for side in (tagged.left, tagged.right):
                if (
                    isinstance(side, A.AttrAccess)
                    and isinstance(side.base, A.Var)
                    and side.base.name.startswith("%")
                ):
                    sides.append((int(side.base.name[1:]), side.attr))
            if len(sides) == 2 and sides[0][0] != sides[1][0]:
                (i, a), (j, b) = sides
                if i > j:
                    (i, a), (j, b) = (j, b), (i, a)
                self.edges.append(JoinEdge(i, a, j, b))
                return
        self.residuals.append((used, tagged))

    def apply_pushed_selections(self) -> None:
        """Fold single-leaf conjuncts into their leaf as σ nodes, so the
        estimator prices the filtered cardinality and the planner can turn
        them into index scans or index-join residuals."""
        for index, parts in self._pushed.items():
            leaf = self.leaves[index]
            pred = conjoin(
                [_untag(p, {index: leaf.var}) for p in parts]
            )
            leaf.expr = A.Select(leaf.var, pred, leaf.expr)

    # -- structure queries ---------------------------------------------------
    def connects(self, group_a: FrozenSet[int], group_b: FrozenSet[int]) -> bool:
        for edge in self.edges:
            if (edge.left in group_a and edge.right in group_b) or (
                edge.left in group_b and edge.right in group_a
            ):
                return True
        for used, _ in self.residuals:
            if used & group_a and used & group_b and used <= (group_a | group_b):
                return True
        return False

    def components(self) -> List[FrozenSet[int]]:
        parent = list(range(len(self.leaves)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            parent[find(i)] = find(j)

        for edge in self.edges:
            union(edge.left, edge.right)
        for used, _ in self.residuals:
            ids = sorted(used)
            for other in ids[1:]:
                union(ids[0], other)
        groups: Dict[int, Set[int]] = {}
        for i in range(len(self.leaves)):
            groups.setdefault(find(i), set()).add(i)
        return [frozenset(g) for g in groups.values()]


def _label(expr: A.Expr) -> str:
    if isinstance(expr, A.ExtentRef):
        return expr.name
    if isinstance(expr, A.Select):
        inner = _label(expr.source)
        return f"σ({inner})" if not inner.startswith("σ(") else inner
    if isinstance(expr, A.Rename):
        return f"ρ({_label(expr.source)})"
    return f"[{type(expr).__name__}]"


def _leaf_attrs(expr: A.Expr, catalog) -> Optional[FrozenSet[str]]:
    """Top-level attribute names of a leaf, or None when unknowable."""
    if isinstance(expr, A.ExtentRef):
        db = getattr(catalog, "db", None)
        if db is not None and hasattr(db, "extent"):
            try:
                rows = db.extent(expr.name)
            except Exception:
                rows = None
            if rows:
                row = next(iter(rows))
                attrs = getattr(row, "attributes", None)
                if attrs is not None:
                    return frozenset(attrs)
        stats = catalog.stats(expr.name) if catalog is not None else None
        if stats is not None and (stats.distinct or stats.avg_set_size):
            return frozenset(stats.distinct) | frozenset(stats.avg_set_size)
        return None
    if isinstance(expr, A.Select):
        return _leaf_attrs(expr.source, catalog)
    if isinstance(expr, A.Rename):
        base = _leaf_attrs(expr.source, catalog)
        if base is None:
            return None
        renames = dict(expr.renames)
        return frozenset(renames.get(a, a) for a in base)
    return None


# ---------------------------------------------------------------------------
# Conjunct retagging: join variables → per-leaf markers
# ---------------------------------------------------------------------------


def _retag(
    expr: A.Expr,
    owners: Dict[str, Dict[str, int]],
    bound: FrozenSet[str],
    used: Set[int],
) -> A.Expr:
    """Rewrite every free ``var.attr`` access over a join variable into an
    access on the owning leaf's marker variable; bail on anything that
    cannot be attributed to exactly one leaf."""
    if isinstance(expr, A.AttrAccess) and isinstance(expr.base, A.Var):
        name = expr.base.name
        if name not in bound and name in owners:
            leaf = owners[name].get(expr.attr)
            if leaf is None:
                raise _Bail(f"attribute {expr.attr!r} has no unique owning leaf")
            used.add(leaf)
            return A.AttrAccess(A.Var(_leaf_var(leaf)), expr.attr)
    if isinstance(expr, A.Var):
        if expr.name not in bound and expr.name in owners:
            raise _Bail("whole-tuple reference to a join variable")
        return expr
    if isinstance(expr, (A.Map, A.Select)):
        body_field = "body" if isinstance(expr, A.Map) else "pred"
        new_source = _retag(expr.source, owners, bound, used)
        new_body = _retag(getattr(expr, body_field), owners, bound | {expr.var}, used)
        if new_source is expr.source and new_body is getattr(expr, body_field):
            return expr
        return dataclasses.replace(expr, source=new_source, **{body_field: new_body})
    if isinstance(expr, (A.Exists, A.Forall)):
        new_source = _retag(expr.source, owners, bound, used)
        new_pred = _retag(expr.pred, owners, bound | {expr.var}, used)
        if new_source is expr.source and new_pred is expr.pred:
            return expr
        return dataclasses.replace(expr, source=new_source, pred=new_pred)
    if isinstance(expr, (A.Join, A.SemiJoin, A.AntiJoin, A.OuterJoin, A.NestJoin)):
        inner_bound = bound | {expr.lvar, expr.rvar}
        changes: Dict[str, A.Expr] = {}
        for name in ("left", "right"):
            new = _retag(getattr(expr, name), owners, bound, used)
            if new is not getattr(expr, name):
                changes[name] = new
        for name in ("pred",) + (("result",) if isinstance(expr, A.NestJoin) else ()):
            new = _retag(getattr(expr, name), owners, inner_bound, used)
            if new is not getattr(expr, name):
                changes[name] = new
        return dataclasses.replace(expr, **changes) if changes else expr
    return expr.map_children(lambda child: _retag(child, owners, bound, used))


def _untag(expr: A.Expr, mapping: Dict[int, str]) -> A.Expr:
    """Marker variables back to real variables (capture-avoiding)."""
    return substitute(
        expr, {_leaf_var(i): A.Var(name) for i, name in mapping.items()}
    )


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _owners_of(graph: JoinGraph, ids: FrozenSet[int]) -> Dict[str, int]:
    owners: Dict[str, int] = {}
    clashed: Set[str] = set()
    for i in ids:
        attrs = graph.leaves[i].attrs
        if attrs is None:
            continue
        for attr in attrs:
            if attr in owners:
                clashed.add(attr)
            owners[attr] = i
    for attr in clashed:
        del owners[attr]
    return owners


def _flatten_region(expr: A.Join, graph: JoinGraph) -> Tuple[FrozenSet[int], Shape]:
    left_ids, left_shape = _operand(expr.left, expr.lvar, graph)
    right_ids, right_shape = _operand(expr.right, expr.rvar, graph)
    owners = {
        expr.lvar: _owners_of(graph, left_ids),
        expr.rvar: _owners_of(graph, right_ids),
    }
    for conjunct in conjuncts(expr.pred):
        if conjunct == TRUE:
            continue
        if not free_vars(conjunct) <= {expr.lvar, expr.rvar}:
            raise _Bail("conjunct references a variable from outside the region")
        used: Set[int] = set()
        tagged = _retag(conjunct, owners, frozenset(), used)
        if not used:
            raise _Bail("constant conjunct")
        graph.add_conjunct(frozenset(used), tagged)
    return left_ids | right_ids, (left_shape, right_shape)


def _operand(expr: A.Expr, var: str, graph: JoinGraph) -> Tuple[FrozenSet[int], Shape]:
    if isinstance(expr, A.Join):
        return _flatten_region(expr, graph)
    index = graph.add_leaf(expr, var)
    return frozenset((index,)), index


def extract_join_graph(expr: A.Join, catalog) -> Optional[JoinGraph]:
    """The join graph of a closed plain-join region, or ``None`` when the
    region cannot be proven safe to reorder.  Extraction has no side
    effects beyond the returned graph — nested regions inside leaves are
    untouched until the caller commits via :meth:`JoinGraph.recurse_leaves`."""
    graph = JoinGraph(catalog)
    try:
        ids, shape = _flatten_region(expr, graph)
    except _Bail:
        return None
    graph.original = shape
    known = [leaf.attrs for leaf in graph.leaves if leaf.attrs is not None]
    seen: Set[str] = set()
    for attrs in known:
        if seen & attrs:
            return None  # shared attribute names: concat order would matter
        seen |= attrs
    graph.apply_pushed_selections()
    return graph


# ---------------------------------------------------------------------------
# DP enumeration
# ---------------------------------------------------------------------------


class _Enumerator:
    def __init__(self, graph: JoinGraph, model: CostModel) -> None:
        self.graph = graph
        self.model = model
        self.est = [model.estimate(leaf.expr) for leaf in graph.leaves]
        self._rows_memo: Dict[FrozenSet[int], float] = {}
        self._edge_sel: Dict[JoinEdge, float] = {}

    # -- scoring -------------------------------------------------------------
    def edge_selectivity(self, edge: JoinEdge) -> float:
        sel = self._edge_sel.get(edge)
        if sel is None:
            estimator = self.model.estimator
            known = [
                nd
                for nd in (
                    estimator.distinct_for(self.est[edge.left], edge.left_attr),
                    estimator.distinct_for(self.est[edge.right], edge.right_attr),
                )
                if nd
            ]
            sel = 1.0 / max(known) if known else EQ_SELECTIVITY
            self._edge_sel[edge] = sel
        return sel

    def rows(self, ids: FrozenSet[int]) -> float:
        memo = self._rows_memo.get(ids)
        if memo is not None:
            return memo
        rows = 1.0
        for i in ids:
            rows *= self.est[i].rows
        for edge in self.graph.edges:
            if edge.ends <= ids:
                rows *= self.edge_selectivity(edge)
        for used, _ in self.graph.residuals:
            if used <= ids:
                rows *= RESIDUAL_SELECTIVITY
        self._rows_memo[ids] = rows
        return rows

    def _estimate_of(self, ids: FrozenSet[int], cost: float) -> Estimate:
        if len(ids) == 1:
            return self.est[next(iter(ids))]
        return Estimate(self.rows(ids), cost)

    def _join_keys(
        self, left: FrozenSet[int], right: FrozenSet[int]
    ) -> List[Tuple[str, str]]:
        """The ``(left_attr, right_attr)`` equi keys joining two leaf
        sets — one per connecting edge, in edge order."""
        keys = []
        for e in self.graph.edges:
            if e.left in left and e.right in right:
                keys.append((e.left_attr, e.right_attr))
            elif e.left in right and e.right in left:
                keys.append((e.right_attr, e.left_attr))
        return keys

    def combine_cost(
        self,
        left_ids: FrozenSet[int],
        left_cost: float,
        right_ids: FrozenSet[int],
        right_cost: float,
    ) -> float:
        """Cheapest serial alternative of joining two already-priced
        subplans (:func:`~repro.engine.cost.join_alternatives`)."""
        out_rows = self.rows(left_ids | right_ids)
        left = self._estimate_of(left_ids, left_cost)
        right = self._estimate_of(right_ids, right_cost)
        keys = self._join_keys(left_ids, right_ids)
        index = None
        if keys and len(right_ids) == 1:
            leaf = self.graph.leaves[next(iter(right_ids))]
            index = index_path(self.graph.catalog, leaf.expr, [r for _, r in keys])
        alternatives = join_alternatives(
            self.model.estimator, "join", left, right, out_rows, keys,
            index=index,
            # the DP's subset estimate can exceed what the probes fetch
            charge_out_rows=True,
        )
        return min(alt.cost for alt in alternatives)

    def score_shape(self, shape: Shape) -> Tuple[FrozenSet[int], float]:
        """Cost of a fixed tree shape under the same pricing — used to
        score the rewriter's original order for comparison."""
        if isinstance(shape, int):
            return frozenset((shape,)), self.est[shape].cost
        left_ids, left_cost = self.score_shape(shape[0])
        right_ids, right_cost = self.score_shape(shape[1])
        cost = self.combine_cost(left_ids, left_cost, right_ids, right_cost)
        return left_ids | right_ids, cost

    # -- enumeration ---------------------------------------------------------
    def best_left_deep(
        self, component: FrozenSet[int]
    ) -> Tuple[Shape, float, List[Tuple[Shape, float]]]:
        best: Dict[FrozenSet[int], Tuple[float, Shape]] = {
            frozenset((i,)): (self.est[i].cost, i) for i in component
        }
        ids = sorted(component)
        for size in range(2, len(ids) + 1):
            for subset in combinations(ids, size):
                fs = frozenset(subset)
                entries: List[Tuple[float, Shape]] = []
                for last in subset:
                    rest = fs - {last}
                    entry = best.get(rest)
                    if entry is None:
                        continue
                    if not self.graph.connects(rest, frozenset((last,))):
                        continue
                    rest_cost, rest_shape = entry
                    cost = self.combine_cost(
                        rest, rest_cost, frozenset((last,)), self.est[last].cost
                    )
                    entries.append((cost, (rest_shape, last)))
                if entries:
                    best[fs] = min(entries, key=lambda e: e[0])
        full = best.get(frozenset(component))
        if full is None:
            # no cross-product-free order exists inside a "component" —
            # cannot happen with union-find components, but stay safe
            raise _Bail("component not joinable without cross products")
        # alternatives at the top of the table: best order per final leaf
        alternatives: List[Tuple[Shape, float]] = []
        for last in ids:
            rest = frozenset(component) - {last}
            entry = best.get(rest)
            if entry is None or not self.graph.connects(rest, frozenset((last,))):
                continue
            cost = self.combine_cost(
                rest, entry[0], frozenset((last,)), self.est[last].cost
            )
            alternatives.append(((entry[1], last), cost))
        alternatives.sort(key=lambda e: e[1])
        return full[1], full[0], alternatives

    def enumerate(self) -> Tuple[Shape, float, List[Tuple[Shape, float]]]:
        """The cheapest shape over all leaves: DP per connected component,
        components combined smallest-first with cross joins."""
        parts: List[Tuple[Shape, float]] = []
        alternatives: List[Tuple[Shape, float]] = []
        components = self.graph.components()
        for component in components:
            if len(component) == 1:
                leaf = next(iter(component))
                parts.append((leaf, self.est[leaf].cost))
                continue
            shape, cost, alts = self.best_left_deep(component)
            parts.append((shape, cost))
            if len(components) == 1:
                alternatives = alts
        parts.sort(key=lambda p: self.rows(_shape_ids(p[0])))
        shape, cost = parts[0]
        for next_shape, next_cost in parts[1:]:
            cost = self.combine_cost(
                _shape_ids(shape), cost, _shape_ids(next_shape), next_cost
            )
            shape = (shape, next_shape)
        return shape, cost, alternatives


def _shape_ids(shape: Shape) -> FrozenSet[int]:
    if isinstance(shape, int):
        return frozenset((shape,))
    return _shape_ids(shape[0]) | _shape_ids(shape[1])


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _render_shape(graph: JoinGraph, shape: Shape, top: bool = True) -> str:
    if isinstance(shape, int):
        return graph.leaves[shape].label
    left = _render_shape(graph, shape[0], top=False)
    right = _render_shape(graph, shape[1], top=False)
    # left-deep chains read naturally without parentheses; parenthesize
    # only a composite right operand (a combined disconnected component)
    if isinstance(shape[1], (tuple,)):
        right = f"({right})"
    text = f"{left} ⋈ {right}"
    return text


def _emit(
    graph: JoinGraph,
    shape: Shape,
    applied: Set[int],
    avoid: Set[str],
) -> Tuple[A.Expr, FrozenSet[int], str]:
    """Rebuild the algebra for a shape; returns (expr, leaf ids, preferred
    variable name for this operand)."""
    if isinstance(shape, int):
        leaf = graph.leaves[shape]
        return leaf.expr, frozenset((shape,)), leaf.var
    left_expr, left_ids, left_pref = _emit(graph, shape[0], applied, avoid)
    right_expr, right_ids, right_pref = _emit(graph, shape[1], applied, avoid)
    lvar = fresh_name(left_pref if isinstance(shape[0], int) else "t", frozenset(avoid))
    avoid.add(lvar)
    rvar = fresh_name(right_pref if isinstance(shape[1], int) else "t", frozenset(avoid))
    avoid.add(rvar)
    ids = left_ids | right_ids
    parts: List[A.Expr] = []
    for edge in graph.edges:
        if edge.left in left_ids and edge.right in right_ids:
            parts.append(
                A.Compare(
                    "=",
                    A.AttrAccess(A.Var(lvar), edge.left_attr),
                    A.AttrAccess(A.Var(rvar), edge.right_attr),
                )
            )
        elif edge.left in right_ids and edge.right in left_ids:
            parts.append(
                A.Compare(
                    "=",
                    A.AttrAccess(A.Var(lvar), edge.right_attr),
                    A.AttrAccess(A.Var(rvar), edge.left_attr),
                )
            )
    for pos, (used, tagged) in enumerate(graph.residuals):
        if pos in applied or not used <= ids:
            continue
        applied.add(pos)
        mapping = {i: (lvar if i in left_ids else rvar) for i in used}
        parts.append(_untag(tagged, mapping))
    return A.Join(left_expr, right_expr, lvar, rvar, conjoin(parts)), ids, "t"


def emit_shape(graph: JoinGraph, shape: Shape) -> A.Expr:
    avoid: Set[str] = set()
    for leaf in graph.leaves:
        avoid |= all_var_names(leaf.expr)
        avoid.add(leaf.var)
    expr, _, _ = _emit(graph, shape, set(), avoid)
    return expr


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def reorder_joins(
    expr: A.Expr,
    model: CostModel,
    catalog,
) -> Tuple[A.Expr, List[JoinOrderDecision]]:
    """Reorder every eligible plain-join region of ``expr``; returns the
    (possibly) rewritten expression plus one decision record per region."""
    decisions: List[JoinOrderDecision] = []
    return _reorder(model, catalog, decisions, expr), decisions


def _reorder(model: CostModel, catalog, decisions: list, node: A.Expr) -> A.Expr:
    # module-level recursion, not a closure naming itself: a compile
    # leaves no reference cycle behind
    rec = partial(_reorder, model, catalog, decisions)
    if isinstance(node, A.Join) and not free_vars(node):
        result = _reorder_region(node, model, catalog, rec)
        if result is not None:
            new_expr, decision = result
            decisions.append(decision)
            return new_expr
    return node.map_children(rec)


def _rebuild(node: A.Expr, leaf_iter, rec) -> A.Expr:
    if isinstance(node, A.Join):
        return dataclasses.replace(
            node,
            left=_rebuild(node.left, leaf_iter, rec),
            right=_rebuild(node.right, leaf_iter, rec),
            pred=rec(node.pred),
        )
    return next(leaf_iter).base_expr


def _reorder_region(
    expr: A.Join, model: CostModel, catalog, rec
) -> Optional[Tuple[A.Expr, JoinOrderDecision]]:
    graph = extract_join_graph(expr, catalog)
    if graph is None:
        return None
    n = len(graph.leaves)
    if n < 3 or n > MAX_DP_LEAVES:
        # ineligible region: returning None lets the caller's generic
        # map_children recursion handle the operands (extraction had no
        # side effects, so nothing runs twice)
        return None
    # commit: reorder nested regions inside the leaves exactly once, so
    # the DP prices the leaves the emitted plan will actually use
    graph.recurse_leaves(rec)
    enumerator = _Enumerator(graph, model)
    try:
        _, original_cost = enumerator.score_shape(graph.original)
        shape, cost, alternatives = enumerator.enumerate()
    except _Bail:
        return None
    reordered = shape != graph.original and cost < original_cost
    if reordered:
        out = emit_shape(graph, shape)
    else:
        # keep this region's structure and predicates untouched (one
        # decision per region: sub-joins are not re-enumerated), swapping
        # in the already-recursed leaves in lockstep with the original
        # in-order leaf sequence
        out = _rebuild(expr, iter(graph.leaves), rec)
        shape, cost = graph.original, original_cost
    decision = JoinOrderDecision(
        chosen=_render_shape(graph, shape),
        chosen_cost=cost,
        original=_render_shape(graph, graph.original),
        original_cost=original_cost,
        leaves=n,
        reordered=reordered,
        candidates=tuple(
            (_render_shape(graph, s), c) for s, c in alternatives
        ),
    )
    return out, decision
