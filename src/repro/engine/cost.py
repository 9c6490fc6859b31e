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
  probe-side rows :data:`HASH_PROBE_COST`; since either operand may be
  the build side, the planner prices both orientations and keeps the
  cheaper, which is how the build side lands on the smaller input;
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

All constants are deliberately coarse: the goal is *ordering*
alternatives correctly under order-of-magnitude skews, not predicting
wall-clock time.  Unknown extents fall back to
:data:`DEFAULT_CARDINALITY`, so plans degrade to the PR-1 heuristics when
no statistics exist.  ``explain()`` prints each node's estimated rows and
cost, making every choice inspectable and testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.adl import ast as A
from repro.adl.freevars import free_vars
from repro.storage.catalog import Catalog, ExtentStats


def _bound_attr(expr: A.Expr, var: str) -> Optional[str]:
    """``var.attr`` → ``attr`` (single path step), else ``None``.

    Shared by the estimator's selectivity rules and the planner's
    index-applicability checks — both must agree on what counts as a
    directly-bound attribute.
    """
    if isinstance(expr, A.AttrAccess) and expr.base == A.Var(var):
        return expr.attr
    return None


def _equi_attr_pairs(pred: A.Expr, lvar: str, rvar: str):
    """Directly-bound ``(left_attr, right_attr)`` pairs of the equality
    conjuncts of a join predicate — the shapes partition-wise execution
    can route by (shared with the stitch estimate's co-partitioning
    check)."""
    if isinstance(pred, A.And):
        return _equi_attr_pairs(pred.left, lvar, rvar) + _equi_attr_pairs(
            pred.right, lvar, rvar
        )
    if isinstance(pred, A.Compare) and pred.op == "=":
        for a, b in ((pred.left, pred.right), (pred.right, pred.left)):
            l_attr = _bound_attr(a, lvar)
            r_attr = _bound_attr(b, rvar)
            if l_attr is not None and r_attr is not None:
                return [(l_attr, r_attr)]
    return []


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
    pairs — same part count, each side split on its key?  The
    partition-wise test both the stitch estimate and the physical
    planner's candidate enumeration apply."""
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
    it and the planner plans it as one emitting join — both must agree on
    the match, so it lives here.
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
        #: worker capacity of the owning planner/optimizer: > 1 lets the
        #: stitch estimate (PR 9) price its inner flat join as a
        #: partition-wise parallel join when the operands are
        #: co-partitioned — the same capacity the physical planner's
        #: parallel candidates use, threaded here so *logical* candidate
        #: ranking (nestjoin vs shredded) sees the same opportunity
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
        # re-prices physical alternatives explicitly, this is only for
        # enclosing operators
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

        The serial estimate is the nestjoin's join arithmetic *plus* the
        stitch's own work (hash group build over the flat pairs, and the
        outer re-stream that re-attaches groups), so a serial stitch can
        never price below the fused nestjoin — the paper's tiny queries
        provably stay unshredded.  With worker capacity and co-partitioned
        operands the inner flat join is additionally priced as a
        partition-wise parallel join (the very strategy the physical
        planner will pick for it), and the cheaper inner price wins —
        which is how shredding pays off on partitioned data.
        """
        left = self.estimate(expr.left)
        right = self.estimate(expr.right)
        sel = self.join_selectivity(expr.pred, expr.lvar, expr.rvar, left, right)
        pair_rows = left.rows * right.rows * sel
        # the inner flat join, priced exactly like the A.Join case above
        join_cost = (
            left.cost
            + right.cost
            + (left.rows + right.rows) * TUPLE_COST
            + pair_rows * TUPLE_COST
        )
        if self.parallel_workers > 1:
            parallel = self._parallel_stitch_join_cost(expr, left, right, pair_rows)
            if parallel is not None and parallel < join_cost:
                join_cost = parallel
        # the stitch proper: only the work the fused nestjoin does *not*
        # pay — the group-build hash insert per flat pair (the per-pair
        # result evaluation is already in the join's ``pair_rows`` term,
        # exactly where the fused form pays it) plus the outer re-stream
        # emitting every left tuple with its (possibly empty) group.
        # Strictly positive, so a *serial* stitch always prices above the
        # fused nestjoin and the paper's tiny queries stay unshredded.
        stitch_cost = pair_rows * HASH_INSERT_COST + left.cost + left.rows * TUPLE_COST
        return Estimate(left.rows, join_cost + stitch_cost, left.extent)

    def _parallel_stitch_join_cost(
        self, expr, left: Estimate, right: Estimate, out_rows: float
    ) -> Optional[float]:
        """Partition-wise price of the stitch's inner flat join, or
        ``None`` when the operands are not co-partitioned on an equi key
        pair.  Mirrors the physical planner's partition-wise candidate —
        same strategy, same build/probe orientation, same skew balance —
        so the logical ranking agrees with what the planner will build.
        """
        if self.catalog is None:
            return None
        l_ext = fragment_base(expr.left)
        r_ext = fragment_base(expr.right)
        if l_ext is None or r_ext is None:
            return None
        lp = self.catalog.partitioning(l_ext)
        rp = self.catalog.partitioning(r_ext)
        if not co_partitioned(lp, rp, _equi_attr_pairs(expr.pred, expr.lvar, expr.rvar)):
            return None
        model = CostModel(self.catalog)
        return model.parallel_join_cost(
            "partition-wise",
            right,
            left,
            out_rows,
            lp.parts,
            self.parallel_workers,
            balance=shard_balance(lp, rp),
        )

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
    """Prices the planner's physical alternatives from child estimates.

    Batch and tuple execution are priced alike: batching changes a plan's
    constant factor, not its shape.
    """

    def __init__(self, catalog: Optional[Catalog], parallel_workers: int = 0) -> None:
        self.catalog = catalog
        self.estimator = CardinalityEstimator(catalog, parallel_workers=parallel_workers)

    def estimate(self, expr: A.Expr) -> Estimate:
        return self.estimator.estimate(expr)

    # -- join alternatives ---------------------------------------------------
    def hash_join_cost(
        self, build: Estimate, probe: Estimate, out_rows: float
    ) -> float:
        return (
            build.cost
            + probe.cost
            + build.rows * HASH_INSERT_COST
            + probe.rows * HASH_PROBE_COST
            + out_rows * TUPLE_COST
        )

    def index_nl_join_cost(self, probe: Estimate, out_rows: float) -> float:
        # no build: the persistent index replaces scanning the indexed
        # side entirely, so only probes and fetched matches are charged
        return probe.cost + probe.rows * INDEX_PROBE_COST + out_rows * TUPLE_COST

    def index_join_cost(
        self,
        probe: Estimate,
        named,
        pair_conjuncts: int,
        out_rows: Optional[float] = None,
    ) -> float:
        """The full price of an index nested-loop join probing the
        registered index ``named`` — the one place it is computed, for the
        planner's candidate and the join-order DP alike.

        Fan-out per probe comes from the indexed attribute's distinct
        count, else from the index as built.  The index fetches
        *unfiltered* matches; ``pair_conjuncts`` leftover / pushed-down
        conjuncts are then evaluated per fetched pair.  ``out_rows``, when
        given, additionally charges output rows beyond the fetched pairs.
        """
        stats = self.catalog.stats(named.extent)
        if stats is not None and stats.distinct_count(named.attr):
            fanout = stats.cardinality / stats.distinct_count(named.attr)
        else:
            fanout = named.built_cardinality / max(len(named.index), 1)
        fetched = probe.rows * fanout
        cost = self.index_nl_join_cost(probe, fetched)
        cost += pair_conjuncts * fetched * PREDICATE_COST
        if out_rows is not None:
            cost += max(out_rows - fetched, 0.0)
        return cost

    def nested_loop_cost(
        self, left: Estimate, right: Estimate, out_rows: float
    ) -> float:
        return (
            left.cost
            + right.cost
            + left.rows * right.rows * PREDICATE_COST
            + out_rows * TUPLE_COST
        )

    def parallel_join_cost(
        self,
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
    def index_scan_cost(self, matching_rows: float) -> float:
        return INDEX_PROBE_COST + matching_rows * TUPLE_COST

    def filter_scan_cost(self, source: Estimate) -> float:
        return source.cost + source.rows * PREDICATE_COST


def format_estimate(rows: Optional[float], cost: Optional[float]) -> str:
    """The ``explain()`` annotation: ``(rows≈12, cost≈340)``."""
    if rows is None:
        return ""

    def fmt(x: float) -> str:
        if x >= 100 or x == int(x):
            return str(int(round(x)))
        return f"{x:.1f}"

    if cost is None:
        return f"(rows≈{fmt(rows)})"
    return f"(rows≈{fmt(rows)}, cost≈{fmt(cost)})"
