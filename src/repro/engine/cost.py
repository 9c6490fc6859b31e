"""The cost model behind cost-based physical planning.

The paper's argument for rewriting nested loops into joins is that the
optimizer then "may choose from a number of different join processing
strategies" (Sections 5.1, 6).  Choosing needs numbers; this module turns
:class:`~repro.storage.catalog.Catalog` statistics into per-plan-node
estimates the planner can rank alternatives with.

Two layers:

**Cardinality estimation** (:class:`CardinalityEstimator`) propagates row
counts bottom-up through the logical algebra: extents report their
catalog cardinality, selections apply predicate selectivity (equality on
an attribute with known distinct count ``d`` is ``1/d``; ranges and
generic predicates use the classic System-R style fallback constants),
unnests multiply by the attribute's average set size, joins multiply the
operand cardinalities by ``1/max(nd(left key), nd(right key))``, and
semijoins/antijoins split the left side by the match fraction.  Every
estimate also carries a *provenance extent* — the extent whose tuples
still flow through the subplan — so attribute lookups against catalog
statistics survive filters and projections.

**Operator costing** (:class:`CostModel`) prices the physical
alternatives in abstract work units (roughly "one tuple touched"):

* hash join — build-side rows are charged :data:`HASH_INSERT_COST` each,
  probe-side rows :data:`HASH_PROBE_COST`; since either operand of a
  plain join may be the build side, both orientations are listed and
  the cheaper wins, which is how the build side lands on the smaller
  input;
* index nested-loop join — no build at all: the probe side pays
  :data:`INDEX_PROBE_COST` per tuple against a persistent catalog index,
  plus one touch per fetched match.  This wins when the probe side is
  much smaller than the indexed side (the hash join would scan and build
  the large side first);
* index scan — one probe plus the matching tuples, versus a full scan
  paying one touch per stored tuple;
* nested loops — the quadratic fallback, ``|L| × |R|`` predicate
  evaluations; it is priced, not banned, so tiny inputs can still choose
  it.

A join's alternatives exist in one place: :func:`join_alternatives`
lists them, priced, from the operand estimates and the output rows —
its equi keys come from one :class:`JoinRecipe`, its index access from
one :func:`index_path` lookup.  The physical planner attaches a build to
each entry and prices it from the operands' *plans*; the join-order DP
takes the cheapest serial entry per pair.  A plan's price is therefore
the one price of a query: the rewrite optimizer ranks its candidates by
their plans' prices too.

All constants are deliberately coarse: the goal is *ordering*
alternatives correctly under order-of-magnitude skews, not predicting
wall-clock time.  Unknown extents fall back to
:data:`DEFAULT_CARDINALITY`, so plans degrade to the PR-1 heuristics when
no statistics exist.  ``explain()`` prints each node's estimated rows and
cost, making every choice inspectable and testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.adl import ast as A
from repro.adl.builders import conjoin, conjuncts
from repro.adl.freevars import free_vars
from repro.storage.catalog import Catalog, ExtentStats, NamedIndex

#: ``(left_attr, right_attr)`` of one equi key; ``None`` where that side
#: is not a directly-bound attribute
KeyPair = Tuple[Optional[str], Optional[str]]


def _bound_attr(expr: A.Expr, var: str) -> Optional[str]:
    """``var.attr`` → ``attr`` (single path step), else ``None``."""
    if isinstance(expr, A.AttrAccess) and expr.base == A.Var(var):
        return expr.attr
    return None


class JoinRecipe:
    """The decomposition of a join predicate into physical ingredients:
    oriented equi keys, at most one membership conjunct, the residual."""

    def __init__(self, lvar: str, rvar: str, pred: A.Expr) -> None:
        self.lvar, self.rvar = lvar, rvar
        self.equi_left: List[A.Expr] = []
        self.equi_right: List[A.Expr] = []
        self.membership: Optional[Tuple[A.Expr, A.Expr, str]] = None
        residual: List[A.Expr] = []
        for conjunct in conjuncts(pred):
            if isinstance(conjunct, A.Compare) and conjunct.op == "=":
                sides = self._orient(conjunct.left, conjunct.right, lvar, rvar)
                if sides is not None:
                    self.equi_left.append(sides[0])
                    self.equi_right.append(sides[1])
                    continue
            if (
                self.membership is None
                and isinstance(conjunct, A.SetCompare)
                and conjunct.op == "in"
            ):
                element, container = conjunct.left, conjunct.right
                elem_vars = free_vars(element)
                cont_vars = free_vars(container)
                if elem_vars <= {rvar} and cont_vars <= {lvar} and rvar in elem_vars:
                    self.membership = (element, container, "left-set")
                    continue
                if elem_vars <= {lvar} and cont_vars <= {rvar} and lvar in elem_vars:
                    self.membership = (element, container, "right-set")
                    continue
            residual.append(conjunct)
        self.residual = conjoin(residual)

    @staticmethod
    def _orient(a: A.Expr, b: A.Expr, lvar: str, rvar: str):
        a_vars, b_vars = free_vars(a), free_vars(b)
        if a_vars <= {lvar} and b_vars <= {rvar} and lvar in a_vars and rvar in b_vars:
            return a, b
        if a_vars <= {rvar} and b_vars <= {lvar} and rvar in a_vars and lvar in b_vars:
            return b, a
        return None

    def key_pairs(self) -> List[KeyPair]:
        """The equi keys as attribute names, one pair per key — what
        index access and shard routing can use."""
        return [
            (_bound_attr(l, self.lvar), _bound_attr(r, self.rvar))
            for l, r in zip(self.equi_left, self.equi_right)
        ]

    def residual_with_membership(self) -> A.Expr:
        """The residual including the membership conjunct (used when a
        different physical strategy consumes the equi keys)."""
        if self.membership is None:
            return self.residual
        return conjoin(
            [A.SetCompare("in", self.membership[0], self.membership[1]), self.residual]
        )


@dataclass(frozen=True)
class IndexPath:
    """How an index nested-loop join reaches its right operand: the
    registered index ``named``, probed with equi key number ``key``;
    ``selections`` are the σ nodes stacked over the indexed extent
    (innermost first), applied to every fetched match as residual."""

    named: NamedIndex
    key: int
    selections: Tuple[A.Select, ...]


def index_path(
    catalog: Optional[Catalog], right: A.Expr, right_attrs: Sequence[Optional[str]]
) -> Optional[IndexPath]:
    """The index-join lookup: ``right`` is an extent under any stack of
    selections, and the first equi key (``right_attrs``, in key order)
    with a registered single-valued index on that extent is probed."""
    if catalog is None:
        return None
    selections: List[A.Select] = []
    node = right
    while isinstance(node, A.Select):
        selections.append(node)
        node = node.source
    if not isinstance(node, A.ExtentRef):
        return None
    for key, attr in enumerate(right_attrs):
        if attr is None:
            continue
        named = catalog.index_on(node.name, attr)
        if named is not None and not named.multi:
            return IndexPath(named, key, tuple(reversed(selections)))
    return None


def fragment_base(operand: A.Expr) -> Optional[str]:
    """The unique base extent of a fragment-shippable operand (a bare
    extent, or *selections* over one), else ``None``.

    Maps are deliberately excluded: a map can rename or recompute
    attributes, so a join key named after the map's output would be
    shard-routed against base-extent rows carrying different attributes —
    a crash at best, silently wrong routing at worst.  Selections leave
    attributes untouched, so routing by the join attribute against base
    rows is sound.
    """
    node = operand
    while isinstance(node, A.Select):
        node = node.source
    return node.name if isinstance(node, A.ExtentRef) else None


def shard_balance(*partitionings) -> Optional[float]:
    """Largest-shard row fraction over the given registered
    partitionings' per-shard statistics (the most skewed one wins), or
    ``None`` when all are empty — how stored skew reaches
    :meth:`CostModel.parallel_join_cost`."""
    balances = []
    for pe in partitionings:
        total = sum(pe.cardinalities)
        if total:
            balances.append(max(pe.cardinalities) / total)
    return max(balances) if balances else None


def co_partitioned(lp, rp, key_pairs) -> bool:
    """Are two operands' registered partitionings ``lp`` / ``rp`` aligned
    on one of the join's directly-bound ``(left_attr, right_attr)`` key
    pairs — same part count, each side split on its key?"""
    if lp is None or rp is None or lp.parts != rp.parts:
        return False
    return any(
        l_attr and r_attr and l_attr == lp.attr and r_attr == rp.attr
        for l_attr, r_attr in key_pairs
    )


def flat_join(expr: A.Expr) -> Optional[A.NestJoin]:
    """``⊔(α[z : z.as](L ⊣⟨x,y : p ; f ; as⟩ R))`` → the nestjoin, else ``None``.

    That shape *is* the plain join ``{f(x, y) | x ∈ L, y ∈ R, p}``: each
    group is built only to be unioned away again.  The estimator prices
    it and the planner plans it as one emitting join.
    """
    if not isinstance(expr, A.Flatten) or not isinstance(expr.source, A.Map):
        return None
    inner = expr.source
    join = inner.source
    if isinstance(join, A.NestJoin) and _bound_attr(inner.body, inner.var) == join.as_attr:
        return join
    return None


# -- fallback constants (used when the catalog has no statistics) -----------

DEFAULT_CARDINALITY = 1000.0
DEFAULT_SET_SIZE = 3.0
DEFAULT_DISTINCT_FRACTION = 0.1  # distinct values per row, absent stats

EQ_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 0.3
MEMBER_SELECTIVITY = 0.2

#: Selectivity of one **residual conjunct** — a predicate the model cannot
#: classify into the equality/range/membership buckets above (arbitrary
#: boolean residue, whole-tuple comparisons, multi-leaf residues the
#: join-order extractor parks at their first covering join).  The classic
#: System-R "1/4 per unknown predicate" guess.  This single constant is
#: shared by the estimator's fallbacks here, the DP join-order
#: enumerator's residual pricing (:mod:`repro.engine.joinorder`), and —
#: through :meth:`CardinalityEstimator.join_selectivity` — the physical
#: planner's candidate ranking, so every layer prices an unknown conjunct
#: identically and differently-shaped plans stay comparable.
RESIDUAL_SELECTIVITY = 0.25

SEMI_MATCH_FRACTION = 0.5
NEST_GROUP_FRACTION = 0.5

# -- per-unit operator costs ------------------------------------------------

TUPLE_COST = 1.0         # touching / emitting one tuple
PREDICATE_COST = 1.0     # evaluating a predicate on one candidate
HASH_INSERT_COST = 1.5   # hash-table build, per tuple
HASH_PROBE_COST = 1.0    # hash-table probe, per tuple
INDEX_PROBE_COST = 1.0   # persistent-index lookup, per probe

# -- partition-parallel execution (PR 5) ------------------------------------

#: Moving one tuple across a partition boundary (the gather exchange that
#: merges fragment outputs back into one stream).
EXCHANGE_TUPLE_COST = 0.5

#: Fixed per-fragment overhead of parallel execution: dispatch to a
#: worker, re-parse + re-plan of the shipped ADL text, result merge.
#: This constant *is* the parallelism threshold — a join whose total
#: work is small against it prices serial plans cheaper, which is what
#: keeps tiny queries off the pool (golden-tested).
PARALLEL_FRAGMENT_OVERHEAD = 500.0


@dataclass(frozen=True)
class Estimate:
    """Estimated output rows and cumulative cost of a (sub)plan.

    ``extent`` is the provenance extent: set when the subplan's tuples
    are (a filtered/projected subset of) one extent's tuples, so
    per-attribute statistics still apply.  ``attr_sources`` is the
    *per-attribute* provenance — attribute name → extent — carried by
    composite rows (join/product outputs concatenate their operands'
    tuples, so each attribute still comes from exactly one extent).  It is
    what lets the estimator price equality conjuncts over already-joined
    operands with real distinct counts instead of fallback constants,
    which in turn is what makes differently-ordered join trees comparable.
    """

    rows: float
    cost: float
    extent: Optional[str] = None
    attr_sources: Mapping[str, str] = field(default_factory=dict)


class CardinalityEstimator:
    """Bottom-up row-count estimation over logical ADL expressions.

    Estimates are memoized per node identity for the estimator's
    lifetime (ADL nodes are frozen): the planner asks for the estimate
    of every subexpression while annotating and ranking alternatives,
    which without the memo would re-walk shared subtrees at every level.
    """

    #: Memo flush threshold — keeps a long-lived planner from pinning
    #: every expression it ever estimated (same rationale as
    #: ``freevars._CACHE_LIMIT``).
    _MEMO_LIMIT = 1 << 16

    def __init__(
        self, catalog: Optional[Catalog], parallel_workers: int = 0
    ) -> None:
        self.catalog = catalog
        #: worker capacity of the owning planner: > 1 lets
        #: :func:`join_alternatives` list the partitioned hash joins
        self.parallel_workers = parallel_workers
        self._memo: dict = {}  # id(expr) -> (expr, Estimate); strong refs pin ids

    # -- catalog access ------------------------------------------------------
    # ``source`` throughout is either an extent name, ``None``, or a child
    # :class:`Estimate` — the latter resolves attribute provenance through
    # ``attr_sources`` so composite (already-joined) operands still reach
    # real statistics.

    def _stats(self, extent: Optional[str]) -> Optional[ExtentStats]:
        if extent is None or self.catalog is None:
            return None
        return self.catalog.stats(extent)

    def _attr_extent(self, source, attr: str) -> Optional[str]:
        if isinstance(source, Estimate):
            if source.extent is not None:
                return source.extent
            return source.attr_sources.get(attr)
        return source

    def _distinct(self, source, attr: str) -> Optional[float]:
        stats = self._stats(self._attr_extent(source, attr))
        if stats is None:
            return None
        nd = stats.distinct_count(attr)
        return float(nd) if nd else None

    def distinct_for(self, source, attr: str) -> Optional[float]:
        """Distinct count of ``attr`` on an operand (extent name or child
        :class:`Estimate`) — the join-order enumerator's scoring hook."""
        return self._distinct(source, attr)

    def _set_size(self, source, attr: str) -> float:
        stats = self._stats(self._attr_extent(source, attr))
        if stats is not None:
            size = stats.set_size(attr)
            if size is not None:
                return size
        return DEFAULT_SET_SIZE

    def _sources(self, est: Estimate) -> Mapping[str, str]:
        """The attribute→extent provenance map of an operand estimate."""
        if est.extent is not None:
            stats = self._stats(est.extent)
            if stats is not None:
                out = {attr: est.extent for attr in stats.distinct}
                for attr in stats.avg_set_size:
                    out.setdefault(attr, est.extent)
                return out
        return est.attr_sources

    # -- estimation ----------------------------------------------------------
    def estimate(self, expr: A.Expr) -> Estimate:
        entry = self._memo.get(id(expr))
        if entry is not None and entry[0] is expr:
            return entry[1]
        result = self._estimate(expr)
        if len(self._memo) >= self._MEMO_LIMIT:
            self._memo.clear()
        self._memo[id(expr)] = (expr, result)
        return result

    def _estimate(self, expr: A.Expr) -> Estimate:
        if isinstance(expr, A.ExtentRef):
            stats = self._stats(expr.name)
            rows = float(stats.cardinality) if stats is not None else DEFAULT_CARDINALITY
            return Estimate(rows, rows * TUPLE_COST, expr.name)
        if isinstance(expr, A.Select):
            child = self.estimate(expr.source)
            sel = self.selectivity(expr.pred, expr.var, child)
            return Estimate(
                child.rows * sel,
                child.cost + child.rows * PREDICATE_COST,
                child.extent,
                child.attr_sources,
            )
        if isinstance(expr, A.Map):
            child = self.estimate(expr.source)
            identity = expr.body == A.Var(expr.var)
            return Estimate(
                child.rows,
                child.cost + child.rows * TUPLE_COST,
                child.extent if identity else None,
                child.attr_sources if identity else {},
            )
        if isinstance(expr, A.Project):
            child = self.estimate(expr.source)
            sources = {
                a: e for a, e in self._sources(child).items() if a in expr.attrs
            }
            return Estimate(
                child.rows, child.cost + child.rows * TUPLE_COST, child.extent, sources
            )
        if isinstance(expr, A.Rename):
            child = self.estimate(expr.source)
            renames = dict(expr.renames)
            sources = {
                renames.get(a, a): e for a, e in self._sources(child).items()
            }
            return Estimate(
                child.rows, child.cost + child.rows * TUPLE_COST, None, sources
            )
        if isinstance(expr, A.Unnest):
            child = self.estimate(expr.source)
            fanout = self._set_size(child, expr.attr)
            rows = child.rows * max(fanout, 1.0)
            sources = {
                a: e for a, e in self._sources(child).items() if a != expr.attr
            }
            return Estimate(rows, child.cost + rows * TUPLE_COST, None, sources)
        if isinstance(expr, A.Nest):
            child = self.estimate(expr.source)
            return Estimate(
                max(child.rows * NEST_GROUP_FRACTION, 1.0),
                child.cost + child.rows * TUPLE_COST,
            )
        if isinstance(expr, A.Flatten):
            join = flat_join(expr)
            if join is not None:
                return self._estimate_join(join, emitting=True)
            child = self.estimate(expr.source)
            rows = child.rows * DEFAULT_SET_SIZE
            return Estimate(rows, child.cost + rows * TUPLE_COST)
        if isinstance(expr, A.Materialize):
            child = self.estimate(expr.source)
            return Estimate(child.rows, child.cost + child.rows * TUPLE_COST)
        if isinstance(expr, A.Union):
            left, right = self.estimate(expr.left), self.estimate(expr.right)
            return Estimate(left.rows + right.rows, left.cost + right.cost)
        if isinstance(expr, A.Intersect):
            left, right = self.estimate(expr.left), self.estimate(expr.right)
            return Estimate(min(left.rows, right.rows), left.cost + right.cost)
        if isinstance(expr, A.Difference):
            left, right = self.estimate(expr.left), self.estimate(expr.right)
            return Estimate(left.rows, left.cost + right.cost)
        if isinstance(expr, A.CartProd):
            left, right = self.estimate(expr.left), self.estimate(expr.right)
            rows = left.rows * right.rows
            return Estimate(
                rows,
                left.cost + right.cost + rows * TUPLE_COST,
                None,
                self._merge_sources(left, right),
            )
        if isinstance(expr, A.Division):
            left, right = self.estimate(expr.left), self.estimate(expr.right)
            return Estimate(
                max(left.rows * NEST_GROUP_FRACTION, 1.0), left.cost + right.cost
            )
        if isinstance(expr, A.Stitch):
            return self._estimate_stitch(expr)
        if isinstance(expr, (A.Join, A.SemiJoin, A.AntiJoin, A.OuterJoin, A.NestJoin)):
            return self._estimate_join(expr)
        if isinstance(expr, A.SetExpr):
            return Estimate(float(len(expr.elements)), float(len(expr.elements)))
        if isinstance(expr, A.Literal) and isinstance(expr.value, frozenset):
            return Estimate(float(len(expr.value)), float(len(expr.value)))
        # scalar residue / unknown leaves
        return Estimate(DEFAULT_CARDINALITY, DEFAULT_CARDINALITY)

    def _merge_sources(self, left: Estimate, right: Estimate) -> Mapping[str, str]:
        """Concatenated-tuple provenance: both operands' attributes, each
        still owned by its original extent (``concat`` forbids clashes, so
        an overlap can only come from estimation noise — drop those)."""
        lsrc, rsrc = self._sources(left), self._sources(right)
        merged = dict(lsrc)
        for attr, extent in rsrc.items():
            if merged.get(attr, extent) != extent:
                del merged[attr]
            else:
                merged[attr] = extent
        return merged

    def _estimate_join(self, expr, emitting: bool = False) -> Estimate:
        """``emitting`` prices a :func:`flat_join` nestjoin as the plain
        join it is planned as: ``pair_rows`` outputs of ``f(x, y)``, no
        per-left group, no map/flatten pass (``f`` renames freely, so no
        attribute provenance survives)."""
        left = self.estimate(expr.left)
        right = self.estimate(expr.right)
        sel = self.join_selectivity(expr.pred, expr.lvar, expr.rvar, left, right)
        pair_rows = left.rows * right.rows * sel
        # default cost: hash-ish (both sides touched once); the planner
        # prices a join's physical alternatives over its planned operands,
        # and enclosing operators read only their own increment from this
        cost = left.cost + right.cost + (left.rows + right.rows) * TUPLE_COST
        if emitting:
            return Estimate(pair_rows, cost + pair_rows * TUPLE_COST)
        if isinstance(expr, A.Join):
            return Estimate(
                pair_rows,
                cost + pair_rows * TUPLE_COST,
                None,
                self._merge_sources(left, right),
            )
        if isinstance(expr, A.SemiJoin):
            return Estimate(left.rows * SEMI_MATCH_FRACTION, cost, left.extent)
        if isinstance(expr, A.AntiJoin):
            return Estimate(left.rows * (1.0 - SEMI_MATCH_FRACTION), cost, left.extent)
        if isinstance(expr, A.OuterJoin):
            return Estimate(
                max(pair_rows, left.rows), cost, None, self._merge_sources(left, right)
            )
        # nestjoin: one output tuple per left tuple, groups attached
        return Estimate(left.rows, cost + pair_rows * TUPLE_COST, left.extent)

    def _estimate_stitch(self, expr) -> Estimate:
        """Shredded evaluation (PR 9): inner flat join + group build +
        outer re-stream.

        The inner join is the serial emitting join; on top of it the
        stitch pays only the work the fused nestjoin does *not* — the
        group-build hash insert per flat pair (the per-pair result
        evaluation is already in the join's ``pair_rows`` term, exactly
        where the fused form pays it) plus the outer re-stream emitting
        every left tuple with its (possibly empty) group.  A planned
        stitch is priced the same way over its planned children, whose
        inner join may be partition-wise (see the physical planner).
        """
        left = self.estimate(expr.left)
        join = self._estimate_join(expr, emitting=True)
        stitch_cost = join.rows * HASH_INSERT_COST + left.cost + left.rows * TUPLE_COST
        return Estimate(left.rows, join.cost + stitch_cost, left.extent)

    # -- selectivity ---------------------------------------------------------
    # ``source`` / ``left`` / ``right`` are extent names, ``None``, or child
    # ``Estimate`` objects (whose ``attr_sources`` resolve attributes of
    # composite operands — see :meth:`_attr_extent`).

    def selectivity(self, pred: A.Expr, var: str, source=None) -> float:
        """Fraction of tuples bound to ``var`` satisfying ``pred``."""
        if isinstance(pred, A.Literal):
            if pred.value is True:
                return 1.0
            if pred.value is False:
                return 0.0
            return RESIDUAL_SELECTIVITY
        if isinstance(pred, A.And):
            return self.selectivity(pred.left, var, source) * self.selectivity(
                pred.right, var, source
            )
        if isinstance(pred, A.Or):
            s1 = self.selectivity(pred.left, var, source)
            s2 = self.selectivity(pred.right, var, source)
            return min(1.0, s1 + s2 - s1 * s2)
        if isinstance(pred, A.Not):
            return max(0.0, 1.0 - self.selectivity(pred.operand, var, source))
        if isinstance(pred, A.Compare):
            if pred.op == "=":
                attr = _bound_attr(pred.left, var) or _bound_attr(
                    pred.right, var
                )
                if attr is not None:
                    nd = self._distinct(source, attr)
                    if nd:
                        return 1.0 / nd
                return EQ_SELECTIVITY
            if pred.op == "!=":
                return 1.0 - EQ_SELECTIVITY
            return RANGE_SELECTIVITY
        if isinstance(pred, A.SetCompare) and pred.op in ("in", "ni"):
            return MEMBER_SELECTIVITY
        return RESIDUAL_SELECTIVITY

    def join_selectivity(
        self,
        pred: A.Expr,
        lvar: str,
        rvar: str,
        left=None,
        right=None,
    ) -> float:
        """Fraction of the cross product surviving the join predicate."""
        if isinstance(pred, A.And):
            return self.join_selectivity(
                pred.left, lvar, rvar, left, right
            ) * self.join_selectivity(pred.right, lvar, rvar, left, right)
        if isinstance(pred, A.Literal) and pred.value is True:
            return 1.0
        if isinstance(pred, A.Compare) and pred.op == "=":
            candidates = []
            for side, var, source in (
                (pred.left, lvar, left),
                (pred.right, lvar, left),
            ):
                attr = _bound_attr(side, var)
                if attr is not None:
                    candidates.append(self._distinct(source, attr))
            for side, var, source in (
                (pred.left, rvar, right),
                (pred.right, rvar, right),
            ):
                attr = _bound_attr(side, var)
                if attr is not None:
                    candidates.append(self._distinct(source, attr))
            known = [nd for nd in candidates if nd]
            if known:
                return 1.0 / max(known)
            return EQ_SELECTIVITY
        if isinstance(pred, A.SetCompare) and pred.op == "in":
            return MEMBER_SELECTIVITY
        # predicates over one side only filter that side
        fv = free_vars(pred)
        if fv <= {lvar}:
            return self.selectivity(pred, lvar, left)
        if fv <= {rvar}:
            return self.selectivity(pred, rvar, right)
        return RESIDUAL_SELECTIVITY


class CostModel:
    """The catalog's estimator plus the per-strategy cost formulas that
    :func:`join_alternatives` and the planner's selection choices price
    with (pure functions of child estimates).

    Batch and tuple execution are priced alike: batching changes a plan's
    constant factor, not its shape.
    """

    def __init__(self, catalog: Optional[Catalog], parallel_workers: int = 0) -> None:
        self.catalog = catalog
        self.estimator = CardinalityEstimator(catalog, parallel_workers=parallel_workers)

    def estimate(self, expr: A.Expr) -> Estimate:
        return self.estimator.estimate(expr)

    # -- join alternatives ---------------------------------------------------
    @staticmethod
    def hash_join_cost(build: Estimate, probe: Estimate, out_rows: float) -> float:
        return (
            build.cost
            + probe.cost
            + build.rows * HASH_INSERT_COST
            + probe.rows * HASH_PROBE_COST
            + out_rows * TUPLE_COST
        )

    @staticmethod
    def index_join_cost(
        stats: Optional[ExtentStats],
        probe: Estimate,
        named: NamedIndex,
        pair_conjuncts: int,
        out_rows: Optional[float] = None,
    ) -> float:
        """An index nested-loop join probing ``named`` (``stats``: its
        extent's).  No build: the persistent index replaces scanning the
        indexed side, so only probes and fetched matches are charged.

        Fan-out per probe comes from the indexed attribute's distinct
        count, else from the index as built.  The index fetches
        *unfiltered* matches; ``pair_conjuncts`` leftover / pushed-down
        conjuncts are then evaluated per fetched pair.  ``out_rows``, when
        given, additionally charges output rows beyond the fetched pairs.
        """
        if stats is not None and stats.distinct_count(named.attr):
            fanout = stats.cardinality / stats.distinct_count(named.attr)
        else:
            fanout = named.built_cardinality / max(len(named.index), 1)
        fetched = probe.rows * fanout
        cost = probe.cost + probe.rows * INDEX_PROBE_COST + fetched * TUPLE_COST
        cost += pair_conjuncts * fetched * PREDICATE_COST
        if out_rows is not None:
            cost += max(out_rows - fetched, 0.0)
        return cost

    @staticmethod
    def nested_loop_cost(left: Estimate, right: Estimate, out_rows: float) -> float:
        return (
            left.cost
            + right.cost
            + left.rows * right.rows * PREDICATE_COST
            + out_rows * TUPLE_COST
        )

    @staticmethod
    def parallel_join_cost(
        strategy: str,
        build: Estimate,
        probe: Estimate,
        out_rows: float,
        parts: int,
        workers: int,
        balance: Optional[float] = None,
    ) -> float:
        """Elapsed-work cost of a ``parts``-way partitioned hash join.

        ``balance`` is the fraction of rows in the *largest* shard (from
        the registered partitioning's per-shard statistics) — the
        critical-path divisor for partition-divided work, floored at the
        even split ``1/eff``.  ``None`` (no stored partitioning to read,
        e.g. repartition) assumes an even hash split.

        Costs model the *critical path* under ``min(parts, workers)``
        effective parallelism — per-partition work divides, work every
        fragment repeats does not:

        * ``partition-wise`` — co-partitioned inputs: scans, build and
          probe all divide by the effective parallelism (fragments read
          stored shards; no exchange);
        * ``broadcast`` — every fragment reads and builds the *whole*
          (small) build side, so that part is paid in full; the
          partitioned probe side divides;
        * ``repartition`` — the shared-scan exchange: every fragment
          scans both full inputs to hash-filter out its bucket (paid in
          full), then the hash work divides.

        All strategies add the per-fragment dispatch overhead
        (:data:`PARALLEL_FRAGMENT_OVERHEAD`, amortized over parallel
        waves) and the gather of ``out_rows`` results
        (:data:`EXCHANGE_TUPLE_COST` each).
        """
        effective = max(1, min(parts, workers))
        # the biggest fragment is the critical path: never better than the
        # even split, degrading toward serial as one shard dominates
        share = max(1.0 / effective, min(balance, 1.0)) if balance else 1.0 / effective
        hash_work = (
            build.rows * HASH_INSERT_COST
            + probe.rows * HASH_PROBE_COST
            + out_rows * TUPLE_COST
        )
        if strategy == "partition-wise":
            elapsed = (build.cost + probe.cost + hash_work) * share
        elif strategy == "broadcast":
            elapsed = (
                build.cost
                + build.rows * HASH_INSERT_COST
                + (probe.cost + probe.rows * HASH_PROBE_COST + out_rows * TUPLE_COST)
                * share
            )
        elif strategy == "repartition":
            elapsed = build.cost + probe.cost + hash_work * share
        else:
            raise ValueError(f"unknown parallel join strategy {strategy!r}")
        startup = PARALLEL_FRAGMENT_OVERHEAD * parts / effective
        gather = out_rows * EXCHANGE_TUPLE_COST
        return startup + elapsed + gather

    # -- selection alternatives ----------------------------------------------
    @staticmethod
    def index_scan_cost(matching_rows: float) -> float:
        return INDEX_PROBE_COST + matching_rows * TUPLE_COST

    @staticmethod
    def filter_scan_cost(source: Estimate) -> float:
        return source.cost + source.rows * PREDICATE_COST


class JoinAlternative(NamedTuple):
    """One priced physical alternative of a join.  A partitioned one
    (``parts`` > 0) also carries ``route``: the attributes its left and
    right inputs are split on (``None``: read whole)."""

    strategy: str
    cost: float
    parts: int = 0
    route: KeyPair = (None, None)


def join_alternatives(
    estimator: Optional[CardinalityEstimator],
    kind: str,
    left: Estimate,
    right: Estimate,
    out_rows: float,
    keys: Sequence[KeyPair],
    *,
    membership: bool = False,
    index: Optional[IndexPath] = None,
    charge_out_rows: bool = False,
    operands: Optional[Tuple[A.Expr, A.Expr]] = None,
) -> List[JoinAlternative]:
    """Every physical alternative of one join, priced, in preference
    order — the order that breaks cost ties:

    * ``index`` — index nested-loop join along ``index``;
    * ``hash-right`` / ``hash-left`` — hash join building that side, on
      the equi ``keys`` (building left only for a plain ``join``);
    * ``membership`` — membership hash join, when there is no equi key;
    * ``nested-loops`` — always applicable, so the list is never empty;
    * with worker capacity, for a ``join`` or ``semijoin`` on equi keys
      whose logical ``operands`` are each a :func:`fragment_base`
      extent: ``partition-wise`` (co-partitioned operands),
      ``broadcast`` (a partitioned left operand) and ``repartition`` (a
      directly-bound key pair).

    ``charge_out_rows`` adds the output rows an index join's probes do
    not fetch (the join-order DP's subset estimate can exceed them).
    """
    entries: List[JoinAlternative] = []
    if index is not None:
        stats = estimator.catalog.stats(index.named.extent)
        cost = CostModel.index_join_cost(
            stats, left, index.named, len(keys) - 1 + len(index.selections),
            out_rows if charge_out_rows else None,
        )
        entries.append(JoinAlternative("index", cost))
    if keys:
        entries.append(
            JoinAlternative("hash-right", CostModel.hash_join_cost(right, left, out_rows))
        )
        if kind == "join":
            entries.append(
                JoinAlternative("hash-left", CostModel.hash_join_cost(left, right, out_rows))
            )
    elif membership:
        entries.append(
            JoinAlternative("membership", CostModel.hash_join_cost(right, left, out_rows))
        )
    entries.append(
        JoinAlternative("nested-loops", CostModel.nested_loop_cost(left, right, out_rows))
    )
    if (
        operands is not None
        and estimator.catalog is not None
        and estimator.parallel_workers > 1
        and kind in ("join", "semijoin")
        and keys
    ):
        shards = fragment_base(operands[0]), fragment_base(operands[1])
        if None not in shards:
            entries.extend(
                _partitioned_alternatives(estimator, left, right, out_rows, keys, *shards)
            )
    return entries


def _partitioned_alternatives(
    estimator: CardinalityEstimator,
    left: Estimate,
    right: Estimate,
    out_rows: float,
    keys: Sequence[KeyPair],
    l_ext: str,
    r_ext: str,
) -> List[JoinAlternative]:
    """The partitioned hash joins of :func:`join_alternatives`.
    ``semijoin`` participates — each left tuple lands in exactly one
    fragment with all of its matches co-located, so the union of fragment
    outputs is exact; the remaining join kinds stay serial."""
    catalog = estimator.catalog
    workers = estimator.parallel_workers
    lp = catalog.partitioning(l_ext)
    rp = catalog.partitioning(r_ext)

    def priced(strategy: str, parts: int, route: KeyPair, balance) -> JoinAlternative:
        cost = CostModel.parallel_join_cost(
            strategy, right, left, out_rows, parts, workers, balance=balance
        )
        return JoinAlternative(strategy, cost, parts, route)

    entries: List[JoinAlternative] = []
    if co_partitioned(lp, rp, keys):
        entries.append(
            priced("partition-wise", lp.parts, (lp.attr, rp.attr), shard_balance(lp, rp))
        )
    if lp is not None:
        entries.append(priced("broadcast", lp.parts, (lp.attr, None), shard_balance(lp)))
    repart = next(((l, r) for l, r in keys if l and r), None)
    if repart is not None:

        def repart_balance(ext, attr, pe):
            # a stored partitioning on this very attribute measured the
            # real hash spread; otherwise the distinct count bounds it
            # (nd values over the buckets put ≥ 1/nd in the hottest one)
            if pe is not None and pe.attr == attr:
                return shard_balance(pe)
            nd = estimator.distinct_for(ext, attr)
            return 1.0 / nd if nd else None

        shares = [
            share
            for share in (
                repart_balance(l_ext, repart[0], lp),
                repart_balance(r_ext, repart[1], rp),
            )
            if share
        ]
        entries.append(
            priced("repartition", workers, repart, max(shares) if shares else None)
        )
    return entries


def format_number(x: float) -> str:
    """An estimate as ``explain()`` prints it: integral at 100 and
    above, one decimal below."""
    if x >= 100 or x == int(x):
        return str(int(round(x)))
    return f"{x:.1f}"


def format_estimate(rows: Optional[float], cost: Optional[float]) -> str:
    """The ``explain()`` annotation: ``(rows≈12, cost≈340)``."""
    if rows is None:
        return ""
    if cost is None:
        return f"(rows≈{format_number(rows)})"
    return f"(rows≈{format_number(rows)}, cost≈{format_number(cost)})"
