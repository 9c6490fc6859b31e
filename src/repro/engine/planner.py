"""The physical planner: logical ADL → physical plan.

Rewriting a nested query into a join query pays off because "the optimizer
may choose from a number of different join processing strategies"
(Section 5.1).  This planner makes that choice — and, given a
:class:`~repro.storage.catalog.Catalog`, makes it *cost-based*.
:func:`plan_query` is the last phase of the one compile pipeline
(``compile_oosql`` → ``optimize`` → ``plan_query``), through which the
service, its warm start, :class:`Executor` and shipped fragments plan.
First, multi-join regions are re-ordered by the left-deep DP enumeration
in :mod:`repro.engine.joinorder` (disable with ``reorder=False``), so the
tree being priced is already the cheapest order the cost model can find;
the decisions ride on the plan's root as ``join_orders``.  Then:

* join predicates are decomposed into conjuncts; equality conjuncts whose
  sides depend on one operand each become **hash-join keys**, membership
  conjuncts (``e ∈ set``) become **membership hash joins**, everything
  else stays as a residual filter;
* every join gets **one ordered list of physical alternatives**
  (:meth:`Planner._join_alternatives`) — an **index nested-loop join**
  probing a registered persistent index, hash join building right, hash
  join building left (plain joins), membership hash join, nested loops —
  each a ``(price, build)`` pair.  With a catalog the planner keeps the
  cheapest under the :mod:`~repro.engine.cost` model (ties keep list
  order), with cardinalities propagated bottom-up from catalog
  statistics; without one it takes the first alternative in list order;
* a flat from-clause select the rewriter left as
  ``⊔(α[z : z.as](L ⊣⟨x,y : p ; f ; as⟩ R))``
  (:func:`~repro.engine.cost.flat_join`) goes through the same
  enumeration as the plain join it is — the winner *emits* ``f(x, y)``
  per pair, and no nestjoin, map or flatten operator is planned;
* selections over an indexed equality predicate become **index scans**
  when the cost model prefers the probe to the full scan;
* joins with no hashable conjunct fall back to **nested loops** —
  faithfully reproducing the paper's premise that an un-rewritten nested
  query is a nested loop;
* the remaining algebra (σ α π ρ ν μ ⊔ ∪ ∩ − ÷ materialize) maps
  one-to-one onto pipeline operators;
* anything that is not a set-producing operator at the top level (e.g. a
  predicate's interior) is evaluated by the interpreter inside the
  enclosing operator — the tuple-oriented residue.

Without a catalog "the first alternative in list order" means a hash
join whenever an equi conjunct exists, build side on the right (no index
can be known).  Under cost-based planning every node is annotated with
estimated rows and cost, rendered by ``explain()``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.adl import ast as A
from repro.adl.builders import conjoin, conjuncts
from repro.adl.freevars import free_vars
from repro.adl.subst import substitute
from repro.engine import plan as P
from repro.engine.cost import (
    CostModel, Estimate, PREDICATE_COST, _bound_attr, co_partitioned, flat_join,
    fragment_base, shard_balance,
)
from repro.engine.joinorder import reorder_joins
from repro.engine.plan import ExecRuntime, PlanNode
from repro.engine.stats import Stats

TRUE = A.Literal(True)

#: One physical alternative of a join: ``price(model, left_est, right_est,
#: out_rows)`` is its estimated cost, ``build()`` plans its operands and
#: constructs the node (called for the winner only).
Price = Callable[[CostModel, Estimate, Estimate, float], float]
Build = Callable[[], PlanNode]


class JoinRecipe:
    """The decomposition of a join predicate into physical ingredients."""

    def __init__(self, lvar: str, rvar: str, pred: A.Expr) -> None:
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

    @property
    def hashable(self) -> bool:
        return bool(self.equi_left) or self.membership is not None

    def residual_with_membership(self) -> A.Expr:
        """The residual including the membership conjunct (used when a
        different physical strategy consumes the equi keys)."""
        if self.membership is None:
            return self.residual
        return conjoin(
            [A.SetCompare("in", self.membership[0], self.membership[1]), self.residual]
        )


class Planner:
    """Plans closed ADL expressions (no free variables at the top level).

    ``catalog`` enables cost-based planning; without it each join takes
    its first applicable alternative.  Under cost-based planning every maximal
    plain-join region of three or more operands is first re-enumerated by
    the DP join-order search (:mod:`repro.engine.joinorder`) —
    ``reorder=False`` plans the rewriter's order as-is.  The region
    decisions are attached to the returned plan's root as
    :attr:`~repro.engine.plan.PlanNode.join_orders`.
    """

    def __init__(
        self,
        catalog=None,
        *,
        reorder: bool = True,
        parallel_workers: int = 0,
    ) -> None:
        self.catalog = catalog
        self.cost_model: Optional[CostModel] = (
            CostModel(catalog, parallel_workers=parallel_workers)
            if catalog is not None
            else None
        )
        self.reorder = reorder
        #: > 1 enables partition-parallel candidates (the cost model still
        #: decides; this is capacity, not a switch)
        self.parallel_workers = parallel_workers

    def plan(self, expr: A.Expr) -> PlanNode:
        if self.cost_model is None or not self.reorder:
            return self._plan(expr)
        expr, decisions = reorder_joins(expr, self.cost_model, self.catalog)
        node = self._plan(expr)
        node.join_orders = tuple(decisions)
        return node

    # -- dispatch ------------------------------------------------------------
    def _plan(self, expr: A.Expr) -> PlanNode:
        node = self._dispatch(expr)
        if self.cost_model is not None and node.est_rows is None:
            estimate = self.cost_model.estimate(expr)
            node.est_rows = estimate.rows
            node.est_cost = estimate.cost
        return node

    def _dispatch(self, expr: A.Expr) -> PlanNode:
        if isinstance(expr, A.ExtentRef):
            return P.Scan(expr.name)
        if isinstance(expr, A.Select):
            return self._plan_select(expr)
        if isinstance(expr, A.Map):
            return P.MapOp(expr.var, expr.body, self._plan(expr.source))
        if isinstance(expr, A.Project):
            return P.ProjectOp(expr.attrs, self._plan(expr.source))
        if isinstance(expr, A.Rename):
            return P.RenameOp(expr.renames, self._plan(expr.source))
        if isinstance(expr, A.Unnest):
            return P.UnnestOp(expr.attr, self._plan(expr.source))
        if isinstance(expr, A.Nest):
            return P.NestOp(expr.attrs, expr.as_attr, self._plan(expr.source))
        if isinstance(expr, A.Flatten):
            join = flat_join(expr)
            if join is not None:
                return self._plan_join(join, flat=expr)
            return P.FlattenOp(self._plan(expr.source))
        if isinstance(expr, A.Union):
            return P.SetOp("union", self._plan(expr.left), self._plan(expr.right))
        if isinstance(expr, A.Intersect):
            return P.SetOp("intersect", self._plan(expr.left), self._plan(expr.right))
        if isinstance(expr, A.Difference):
            return P.SetOp("difference", self._plan(expr.left), self._plan(expr.right))
        if isinstance(expr, A.CartProd):
            return P.CartesianProduct(self._plan(expr.left), self._plan(expr.right))
        if isinstance(expr, A.Division):
            return P.DivisionOp(self._plan(expr.left), self._plan(expr.right))
        if isinstance(expr, A.Materialize):
            return P.MaterializeOp(
                expr.attr, expr.as_attr, expr.class_name, self._plan(expr.source)
            )
        if isinstance(expr, A.Stitch):
            return self._plan_stitch(expr)
        if isinstance(expr, (A.Join, A.SemiJoin, A.AntiJoin, A.OuterJoin, A.NestJoin)):
            return self._plan_join(expr)
        # everything else (literals, set constructors, scalar expressions
        # producing sets through the interpreter) is a leaf
        return P.EvalExpr(expr)

    # -- query shredding (PR 9) ------------------------------------------------
    def _plan_stitch(self, expr: A.Stitch) -> PlanNode:
        """Shredded evaluation: plan the *flat* inner join through the
        full pipeline — cost-based physical selection, index joins, and
        (with worker capacity) the partition-parallel candidates — and
        stitch its output back onto the re-streamed outer subplan."""
        from repro.shred.stitch import StitchNest

        inner = A.Join(expr.left, expr.right, expr.lvar, expr.rvar, expr.pred)
        return StitchNest(
            expr.lvar,
            expr.rvar,
            expr.as_attr,
            expr.result,
            expr.key_attrs,
            self._plan(expr.left),
            self._plan(inner),
        )

    # -- selections ------------------------------------------------------------
    def _plan_select(self, expr: A.Select) -> PlanNode:
        indexed = self._try_index_scan(expr)
        if indexed is not None:
            return indexed
        return P.Filter(expr.var, expr.pred, self._plan(expr.source))

    def _try_index_scan(self, expr: A.Select) -> Optional[PlanNode]:
        """``σ[x : x.a = k ∧ rest](EXTENT)`` → ``Filter(rest, IndexScan)``
        when an index on ``EXTENT.a`` exists and the cost model prefers the
        probe to the full scan."""
        if self.catalog is None or not isinstance(expr.source, A.ExtentRef):
            return None
        extent = expr.source.name
        parts = conjuncts(expr.pred)
        choice = None
        for index_pos, part in enumerate(parts):
            if not (isinstance(part, A.Compare) and part.op == "="):
                continue
            for attr_side, key_side in ((part.left, part.right), (part.right, part.left)):
                attr = _bound_attr(attr_side, expr.var)
                if attr is None or free_vars(key_side):
                    continue
                named = self.catalog.index_on(extent, attr)
                if named is None or named.multi:
                    continue
                choice = (index_pos, attr, key_side, named)
                break
            if choice is not None:
                break
        if choice is None:
            return None
        index_pos, attr, key_expr, named = choice

        model = self.cost_model
        source_est = model.estimate(expr.source)
        stats = self.catalog.stats(extent)
        distinct = stats.distinct_count(attr) if stats is not None else None
        if not distinct:
            distinct = max(len(named.index), 1)
        matching = source_est.rows / max(distinct, 1)
        remaining = parts[:index_pos] + parts[index_pos + 1 :]
        index_cost = model.index_scan_cost(matching) + len(remaining) * matching * PREDICATE_COST
        scan_cost = model.filter_scan_cost(source_est)
        if index_cost >= scan_cost:
            return None

        node: PlanNode = P.IndexScan(extent, attr, key_expr, named.name)
        node.est_rows = matching
        node.est_cost = model.index_scan_cost(matching)
        if remaining:
            node = P.Filter(expr.var, conjoin(remaining), node)
        node.est_rows = model.estimate(expr).rows
        node.est_cost = index_cost
        return node

    # -- joins ----------------------------------------------------------------
    def _plan_join(self, expr, flat: Optional[A.Flatten] = None) -> PlanNode:
        """``flat`` is the enclosing :func:`~repro.engine.cost.flat_join`
        shape when ``expr`` is its nestjoin: the pair is planned (and
        priced) as a plain join emitting ``expr.result`` per match."""
        kind = "join" if flat is not None else {
            A.Join: "join",
            A.SemiJoin: "semijoin",
            A.AntiJoin: "antijoin",
            A.OuterJoin: "outerjoin",
            A.NestJoin: "nestjoin",
        }[type(expr)]
        as_attr = None if flat is not None else getattr(expr, "as_attr", None)
        result = getattr(expr, "result", None)
        right_attrs = getattr(expr, "right_attrs", ())
        common = dict(
            as_attr=as_attr, result=result, right_attrs=tuple(right_attrs)
        )

        recipe = JoinRecipe(expr.lvar, expr.rvar, expr.pred)
        alternatives = self._join_alternatives(expr, kind, recipe, common)
        # correlated operands (free variables beyond the join's own) cannot
        # be hashed once; fall back to tuple-at-a-time evaluation
        if free_vars(expr.right) or free_vars(expr.left):
            return alternatives[-1][1]()  # nested loops

        model = self.cost_model
        if model is None:
            # nothing to price with: the first applicable alternative —
            # hash join (building right) on an equi conjunct, else a
            # membership hash join, else nested loops
            return alternatives[0][1]()

        out = model.estimate(flat if flat is not None else expr)
        left_est = model.estimate(expr.left)
        right_est = model.estimate(expr.right)
        candidates = [
            (price(model, left_est, right_est, out.rows), build)
            for price, build in alternatives
        ]
        # partition-parallel alternatives enter the same enumeration: the
        # cost model, not a flag, decides when a parallel plan wins (ties
        # keep the earlier — serial — candidate); emitting joins stay serial
        if (
            self.parallel_workers > 1
            and kind in ("join", "semijoin")
            and recipe.equi_left
            and result is None
        ):
            candidates.extend(
                self._parallel_candidates(expr, kind, recipe, left_est, right_est, out)
            )
        cost, build = min(candidates, key=lambda c: c[0])
        node = build()
        node.est_rows = out.rows
        node.est_cost = cost
        return node

    def _join_alternatives(self, expr, kind, recipe, common) -> List[Tuple[Price, Build]]:
        """The serial physical alternatives of one join, each a ``(price,
        build)`` pair, in preference order (the order that breaks cost
        ties, and the order the no-catalog planner takes the first of):
        index nested-loop join (no build), hash join building right, hash
        join building left (plain joins only), membership hash join,
        nested loops — always applicable, so the list is never empty."""
        lvar, rvar = expr.lvar, expr.rvar
        alternatives: List[Tuple[Price, Build]] = []

        inlj = self._inlj_candidate(expr, kind, recipe, common)
        if inlj is not None:
            alternatives.append(inlj)

        if recipe.equi_left:
            keys = tuple(recipe.equi_left), tuple(recipe.equi_right)
            # membership conjunct (if any) stays residual when equi keys exist
            residual = recipe.residual_with_membership()

            def hash_join(build_side: str) -> Build:
                return lambda: P.HashJoinBase(
                    kind, lvar, rvar, *keys, residual,
                    self._plan(expr.left), self._plan(expr.right),
                    build_side=build_side, **common,
                )

            alternatives.append(
                (lambda m, l, r, rows: m.hash_join_cost(r, l, rows), hash_join("right"))
            )
            if kind == "join":
                alternatives.append(
                    (lambda m, l, r, rows: m.hash_join_cost(l, r, rows), hash_join("left"))
                )
        elif recipe.membership is not None:
            alternatives.append((
                lambda m, l, r, rows: m.hash_join_cost(r, l, rows),
                lambda: P.MembershipHashJoin(
                    kind, lvar, rvar, *recipe.membership, recipe.residual,
                    self._plan(expr.left), self._plan(expr.right), **common,
                ),
            ))

        alternatives.append((
            lambda m, l, r, rows: m.nested_loop_cost(l, r, rows),
            lambda: P.NestedLoopJoin(
                kind, lvar, rvar, expr.pred,
                self._plan(expr.left), self._plan(expr.right), **common,
            ),
        ))
        return alternatives

    def _inlj_candidate(self, expr, kind, recipe, common) -> Optional[Tuple[Price, Build]]:
        """An index nested-loop join alternative, when the right operand is
        an indexed extent — bare, or under a pushed-down selection, which
        then rides along as a residual predicate applied after the probe."""
        if self.catalog is None:
            return None
        pushed: Optional[A.Expr] = None
        right = expr.right
        if isinstance(right, A.Select) and isinstance(right.source, A.ExtentRef):
            pushed = (
                right.pred
                if right.var == expr.rvar
                else substitute(right.pred, {right.var: A.Var(expr.rvar)})
            )
            right = right.source
        if not isinstance(right, A.ExtentRef):
            return None
        if not recipe.equi_left:
            return None
        extent = right.name
        pick = None
        for i, right_key in enumerate(recipe.equi_right):
            attr = _bound_attr(right_key, expr.rvar)
            if attr is None:
                continue
            named = self.catalog.index_on(extent, attr)
            if named is None or named.multi:
                continue
            pick = (i, attr, named)
            break
        if pick is None:
            return None
        i, attr, named = pick

        leftover = [
            A.Compare("=", l, r)
            for j, (l, r) in enumerate(zip(recipe.equi_left, recipe.equi_right))
            if j != i
        ]
        # the pushed-down selection filters fetched matches before any
        # other residual work sees them
        pushed_parts = [pushed] if pushed is not None else []
        residual = conjoin(
            pushed_parts
            + leftover
            + [p for p in [recipe.residual_with_membership()] if p != TRUE]
        )
        pair_conjuncts = len(leftover) + len(pushed_parts)

        def build() -> PlanNode:
            return P.IndexNestedLoopJoin(
                kind, expr.lvar, expr.rvar, recipe.equi_left[i],
                extent, attr, named.name, residual, self._plan(expr.left),
                **common,
            )

        return (lambda m, l, r, rows: m.index_join_cost(l, named, pair_conjuncts), build)

    # -- partition-parallel candidates (PR 5) --------------------------------
    def _operand_chain(self, operand: A.Expr, base: PlanNode) -> PlanNode:
        """Rebuild an operand's filter chain over ``base`` — the
        per-partition input description ``explain()`` renders."""
        if isinstance(operand, A.Select):
            return P.Filter(
                operand.var, operand.pred, self._operand_chain(operand.source, base)
            )
        return base

    def _parallel_candidates(
        self, expr, kind, recipe, left_est: Estimate, right_est: Estimate, out: Estimate
    ) -> List[Tuple[float, object]]:
        """Partitioned hash-join alternatives for one join.

        Three strategies, all priced by
        :meth:`~repro.engine.cost.CostModel.parallel_join_cost`:
        partition-wise when the inputs are co-partitioned on a join-key
        pair, broadcast when the left input is partitioned (the right is
        read whole by every fragment), and repartition (shared-scan hash
        filter of both inputs, ``workers``-way) whenever both join keys
        are directly-bound attributes.  ``semijoin`` participates — each
        left tuple lands in exactly one fragment with all of its matches
        co-located, so the union of fragment outputs is exact; the
        remaining join kinds stay serial (a documented simplification).
        """
        import dataclasses

        from repro.shard.fragment import (
            LEFT_PLACEHOLDER,
            RIGHT_PLACEHOLDER,
            ShardRef,
            rebind_extent,
        )
        from repro.shard.nodes import Exchange, PartitionedHashJoin, PartitionedScan

        model = self.cost_model
        workers = self.parallel_workers
        l_ext = fragment_base(expr.left)
        r_ext = fragment_base(expr.right)
        if l_ext is None or r_ext is None:
            return []
        template = dataclasses.replace(
            expr,
            left=rebind_extent(expr.left, LEFT_PLACEHOLDER),
            right=rebind_extent(expr.right, RIGHT_PLACEHOLDER),
        )
        key_pairs = [
            (_bound_attr(l, expr.lvar), _bound_attr(r, expr.rvar))
            for l, r in zip(recipe.equi_left, recipe.equi_right)
        ]
        lp = self.catalog.partitioning(l_ext)
        rp = self.catalog.partitioning(r_ext)

        def candidate(strategy, parts, bindings, left_node_fn, right_node_fn,
                      balance=None):
            cost = model.parallel_join_cost(
                strategy, right_est, left_est, out.rows, parts, workers,
                balance=balance,
            )

            def build() -> PlanNode:
                join = PartitionedHashJoin(
                    kind, expr.lvar, expr.rvar, expr.pred, strategy, parts,
                    template, bindings, left_node_fn(), right_node_fn(),
                )
                join.est_rows = out.rows
                join.est_cost = cost
                gather = Exchange("gather", join, parts)
                return gather

            return (cost, build)

        candidates: List[Tuple[float, object]] = []

        def left_shards() -> PlanNode:
            scan = PartitionedScan(l_ext, lp.attr, lp.parts)
            return self._operand_chain(expr.left, self._annotate(scan, l_ext))

        if co_partitioned(lp, rp, key_pairs):
            parts = lp.parts
            bindings = [
                {
                    LEFT_PLACEHOLDER: ShardRef(l_ext, lp.attr, parts, i),
                    RIGHT_PLACEHOLDER: ShardRef(r_ext, rp.attr, parts, i),
                }
                for i in range(parts)
            ]
            candidates.append(candidate(
                "partition-wise", parts, bindings, left_shards,
                lambda: self._operand_chain(
                    expr.right, self._annotate(
                        PartitionedScan(r_ext, rp.attr, rp.parts), r_ext)),
                balance=shard_balance(lp, rp),
            ))

        if lp is not None:
            parts = lp.parts
            bindings = [
                {
                    LEFT_PLACEHOLDER: ShardRef(l_ext, lp.attr, parts, i),
                    RIGHT_PLACEHOLDER: ShardRef(r_ext),
                }
                for i in range(parts)
            ]
            candidates.append(candidate(
                "broadcast", parts, bindings, left_shards,
                lambda: Exchange("broadcast", self._plan(expr.right), parts),
                balance=shard_balance(lp),
            ))

        repart = next(((l, r) for l, r in key_pairs if l and r), None)
        if repart is not None and workers > 1:
            l_attr, r_attr = repart
            bindings = [
                {
                    LEFT_PLACEHOLDER: ShardRef(l_ext, l_attr, workers, i),
                    RIGHT_PLACEHOLDER: ShardRef(r_ext, r_attr, workers, i),
                }
                for i in range(workers)
            ]
            def repart_balance(ext, attr, pe):
                # a stored partitioning on this very attribute measured the
                # real hash spread; otherwise the distinct count bounds it
                # (nd values over the buckets put ≥ 1/nd in the hottest one)
                if pe is not None and pe.attr == attr:
                    return shard_balance(pe)
                nd = model.estimator.distinct_for(ext, attr)
                return 1.0 / nd if nd else None

            shares = [
                share
                for share in (
                    repart_balance(l_ext, l_attr, lp),
                    repart_balance(r_ext, r_attr, rp),
                )
                if share
            ]
            candidates.append(candidate(
                "repartition", workers, bindings,
                lambda: Exchange(
                    "repartition", self._plan(expr.left), workers, key_attr=l_attr),
                lambda: Exchange(
                    "repartition", self._plan(expr.right), workers, key_attr=r_attr),
                balance=max(shares) if shares else None,
            ))
        return candidates

    def _annotate(self, node: PlanNode, extent: str) -> PlanNode:
        """Attach the extent's estimate to a constructed scan node."""
        if self.cost_model is not None:
            est = self.cost_model.estimate(A.ExtentRef(extent))
            node.est_rows = est.rows
            node.est_cost = est.cost
        return node


def plan_query(
    expr: A.Expr,
    catalog=None,
    *,
    reorder: bool = True,
    parallel_workers: int = 0,
) -> PlanNode:
    """The planning phase: the chosen rewritten ADL → a physical plan
    carrying its join-order decisions (see :class:`Planner`)."""
    return Planner(catalog, reorder=reorder, parallel_workers=parallel_workers).plan(expr)


class Executor:
    """Facade: plan + execute ADL expressions against a database.

    ``catalog`` switches the planner to cost-based
    physical selection (with DP join reordering — ``reorder=False``
    plans the rewriter's join order as-is) and provides the runtime
    indexes.
    ``explain()`` prepends one ``-- join order: ...`` header per join
    region the DP decided.
    """

    def __init__(
        self,
        db,
        stats: Optional[Stats] = None,
        *,
        catalog=None,
        reorder: bool = True,
        parallel=None,
        batch_size: Optional[int] = None,
    ) -> None:
        self.db = db
        self.stats = stats if stats is not None else Stats()
        self.catalog = catalog
        self.reorder = reorder
        #: optional :class:`repro.shard.executor.ParallelExecutor`; its
        #: worker count feeds the planner's parallel candidates and its
        #: pool runs gather fragments (caller owns its lifecycle)
        self.parallel = parallel
        #: the chunk capacity threaded into every runtime (``None``: the
        #: engine's default, see :class:`~repro.engine.plan.ExecRuntime`)
        self.batch_size = batch_size

    def plan(self, expr: A.Expr) -> PlanNode:
        return plan_query(
            expr,
            self.catalog,
            reorder=self.reorder,
            parallel_workers=self.parallel.workers if self.parallel is not None else 0,
        )

    def _runtime(self, params=None, trace=None) -> ExecRuntime:
        return ExecRuntime(
            self.db,
            self.stats,
            catalog=self.catalog,
            params=params,
            parallel=self.parallel,
            batch_size=self.batch_size,
            trace=trace,
        )

    def execute(self, expr: A.Expr, params=None):
        return self.plan(expr).execute(self._runtime(params))

    def explain(self, expr: A.Expr) -> str:
        return self.plan(expr).explain()

    def explain_analyze(self, expr: A.Expr, params=None):
        """EXPLAIN ANALYZE: run ``expr`` traced; the
        :class:`~repro.obs.analyze.AnalyzeResult` text is ``explain()``
        annotated per operator, plus cross-process fragment spans."""
        from repro.obs.analyze import AnalyzeResult
        from repro.obs.trace import TraceRecorder

        plan = self.plan(expr)
        recorder = TraceRecorder()
        rows = plan.execute(self._runtime(params, trace=recorder))
        return AnalyzeResult(
            rows=rows,
            text=recorder.render(plan),
            trace=recorder.summary(plan),
            misestimates=recorder.misestimates(plan),
        )
