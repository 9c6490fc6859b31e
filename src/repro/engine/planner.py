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
* every join gets **one ordered list of priced physical alternatives**
  from :func:`~repro.engine.cost.join_alternatives` — an **index
  nested-loop join** probing a registered persistent index (the right
  operand an indexed extent under any stack of selections), hash join
  building right, hash join building left (plain joins), membership hash
  join, nested loops, and with worker capacity the partition-wise,
  broadcast and repartition hash joins — the same list the join-order DP
  prices pairs with.  The planner builds the cheapest entry (ties keep
  list order), with cardinalities propagated bottom-up from catalog
  statistics; without a catalog every entry is free, so it takes the
  first;
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
estimated rows and a cumulative cost, rendered by ``explain()`` and built
from its planned children: a join prices its alternatives over its
planned operands, any other operator adds its own work — so the root's
price is the chosen plan's, the price the rewrite optimizer ranks with.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Optional

from repro.adl import ast as A
from repro.adl.builders import conjoin, conjuncts
from repro.adl.freevars import free_vars
from repro.adl.subst import substitute
from repro.engine import plan as P
from repro.engine.cost import (
    HASH_INSERT_COST, PREDICATE_COST, TUPLE_COST, CostModel, Estimate, IndexPath,
    JoinAlternative, JoinRecipe, _bound_attr, flat_join, fragment_base, index_path,
    join_alternatives,
)
from repro.engine.joinorder import reorder_joins
from repro.engine.plan import ExecRuntime, PlanNode
from repro.engine.stats import Stats

TRUE = A.Literal(True)

#: operand estimate of a join planned without a catalog: every alternative
#: then costs nothing, so the first in list order wins
UNPRICED = Estimate(0.0, 0.0)


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
        # parallel_workers > 1 lists the partition-parallel alternatives
        # (the cost model still decides; this is capacity, not a switch)
        self.cost_model: Optional[CostModel] = (
            CostModel(catalog, parallel_workers=parallel_workers)
            if catalog is not None
            else None
        )
        self.reorder = reorder

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
        model = self.cost_model
        if model is not None and node.est_rows is None:
            operand_costs = (
                model.estimate(getattr(expr, name)).cost
                for name in ("source", "left", "right")
                if hasattr(expr, name)
            )
            _price(node, model.estimate(expr), operand_costs)
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
        full pipeline (index joins and, with worker capacity, the
        partition-parallel candidates included) and stitch its output back
        onto the re-streamed outer subplan.  Priced as both planned
        children plus one group insert per flat pair and one touch per
        left row."""
        from repro.shred.stitch import StitchNest

        inner = A.Join(expr.left, expr.right, expr.lvar, expr.rvar, expr.pred)
        left, pairs = self._plan(expr.left), self._plan(inner)
        node = StitchNest(
            expr.lvar, expr.rvar, expr.as_attr, expr.result, expr.key_attrs, left, pairs
        )
        if self.cost_model is not None:
            node.est_rows = left.est_rows
            node.est_cost = (
                left.est_cost + pairs.est_cost
                + pairs.est_rows * HASH_INSERT_COST + left.est_rows * TUPLE_COST
            )
        return node

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
        left, right = self._plan(expr.left), self._plan(expr.right)
        # correlated operands (free variables beyond the join's own) cannot
        # be hashed once; fall back to tuple-at-a-time evaluation
        if free_vars(expr.right) or free_vars(expr.left):
            return P.NestedLoopJoin(kind, expr.lvar, expr.rvar, expr.pred, left, right, **common)

        model = self.cost_model
        keys = recipe.key_pairs()
        index = index_path(self.catalog, expr.right, [r for _, r in keys])
        estimator, operands = None, None
        if model is None:
            out, left_est, right_est = UNPRICED, UNPRICED, UNPRICED
        else:
            estimator = model.estimator
            out = model.estimate(flat if flat is not None else expr)
            # the operands as planned: their rows, and their plans' prices
            left_est = Estimate(left.est_rows, left.est_cost)
            right_est = Estimate(right.est_rows, right.est_cost)
            # emitting joins stay serial: the fragment template ships a
            # plain join
            if result is None:
                operands = (expr.left, expr.right)
        alternatives = join_alternatives(
            estimator, kind, left_est, right_est, out.rows, keys,
            membership=recipe.membership is not None, index=index, operands=operands,
        )
        # ties keep the earlier entry: serial before partitioned
        best = min(alternatives, key=attrgetter("cost"))
        if best.parts:
            node = self._partitioned_join(expr, kind, best, out, left, right)
        else:
            node = self._serial_join(expr, kind, recipe, common, best.strategy, index, left, right)
        if model is not None:
            node.est_rows = out.rows
            node.est_cost = best.cost
        return node

    def _serial_join(
        self, expr, kind, recipe: JoinRecipe, common, strategy: str,
        index: Optional[IndexPath], left: PlanNode, right: PlanNode,
    ) -> PlanNode:
        """Build the serial join ``strategy`` names (see
        :func:`~repro.engine.cost.join_alternatives`) over the planned
        operands (an index join probes the index instead of ``right``)."""
        lvar, rvar = expr.lvar, expr.rvar
        if strategy == "index":
            key = index.key
            leftover = [
                A.Compare("=", l, r)
                for j, (l, r) in enumerate(zip(recipe.equi_left, recipe.equi_right))
                if j != key
            ]
            # the selections over the indexed extent filter fetched matches
            # before any other residual work sees them
            pushed = [
                sel.pred if sel.var == rvar else substitute(sel.pred, {sel.var: A.Var(rvar)})
                for sel in index.selections
            ]
            rest = recipe.residual_with_membership()
            residual = conjoin(pushed + leftover + ([rest] if rest != TRUE else []))
            named = index.named
            return P.IndexNestedLoopJoin(
                kind, lvar, rvar, recipe.equi_left[key], named.extent, named.attr,
                named.name, residual, left, **common,
            )
        if strategy in ("hash-right", "hash-left"):
            # a membership conjunct stays residual when equi keys exist
            return P.HashJoinBase(
                kind, lvar, rvar, tuple(recipe.equi_left), tuple(recipe.equi_right),
                recipe.residual_with_membership(), left, right,
                build_side="left" if strategy == "hash-left" else "right", **common,
            )
        if strategy == "membership":
            return P.MembershipHashJoin(
                kind, lvar, rvar, *recipe.membership, recipe.residual, left, right,
                **common,
            )
        return P.NestedLoopJoin(kind, lvar, rvar, expr.pred, left, right, **common)

    # -- partition-parallel joins (PR 5) --------------------------------------
    def _operand_chain(self, operand: A.Expr, base: PlanNode) -> PlanNode:
        """Rebuild an operand's filter chain over ``base`` — the
        per-partition input description ``explain()`` renders."""
        if isinstance(operand, A.Select):
            return P.Filter(
                operand.var, operand.pred, self._operand_chain(operand.source, base)
            )
        return base

    def _partitioned_join(
        self, expr, kind, alt: JoinAlternative, out: Estimate,
        planned_left: PlanNode, planned_right: PlanNode,
    ) -> PlanNode:
        """Build a partitioned hash join (``partition-wise``,
        ``broadcast`` or ``repartition``) under its gather exchange: each
        of ``alt.parts`` fragments joins the operand shards ``alt.route``
        splits them into; an exchanged operand is its planned one."""
        import dataclasses

        from repro.shard.fragment import (
            LEFT_PLACEHOLDER,
            RIGHT_PLACEHOLDER,
            ShardRef,
            rebind_extent,
        )
        from repro.shard.nodes import Exchange, PartitionedHashJoin, PartitionedScan

        l_ext, r_ext = fragment_base(expr.left), fragment_base(expr.right)
        l_attr, r_attr = alt.route
        parts = alt.parts
        template = dataclasses.replace(
            expr,
            left=rebind_extent(expr.left, LEFT_PLACEHOLDER),
            right=rebind_extent(expr.right, RIGHT_PLACEHOLDER),
        )

        def shard_scan(operand, ext, attr):
            scan = self._annotate(PartitionedScan(ext, attr, parts), ext)
            return self._operand_chain(operand, scan)

        if alt.strategy == "repartition":
            left = Exchange("repartition", planned_left, parts, key_attr=l_attr)
            right = Exchange("repartition", planned_right, parts, key_attr=r_attr)
        else:
            left = shard_scan(expr.left, l_ext, l_attr)
            right = (
                shard_scan(expr.right, r_ext, r_attr)
                if alt.strategy == "partition-wise"
                else Exchange("broadcast", planned_right, parts)
            )
        bindings = [
            {
                LEFT_PLACEHOLDER: ShardRef(l_ext, l_attr, parts, i),
                RIGHT_PLACEHOLDER: (
                    ShardRef(r_ext, r_attr, parts, i) if r_attr else ShardRef(r_ext)
                ),
            }
            for i in range(parts)
        ]
        join = PartitionedHashJoin(
            kind, expr.lvar, expr.rvar, expr.pred, alt.strategy, parts,
            template, bindings, left, right,
        )
        join.est_rows = out.rows
        join.est_cost = alt.cost
        return Exchange("gather", join, parts)

    def _annotate(self, node: PlanNode, extent: str) -> PlanNode:
        """Attach the extent's estimate to a constructed scan node."""
        if self.cost_model is not None:
            est = self.cost_model.estimate(A.ExtentRef(extent))
            node.est_rows = est.rows
            node.est_cost = est.cost
        return node


def _price(node: PlanNode, estimate: Estimate, operand_costs: Iterable[float]) -> None:
    """Annotate a node the estimator prices as one logical operator:
    ``estimate``'s rows, and as cost its planned children's prices plus
    its own increment — ``estimate``'s cost above ``operand_costs``, the
    estimator's costs of those same children (read only as far as the
    node has children)."""
    node.est_rows = estimate.rows
    node.est_cost = estimate.cost
    for child, cost in zip(node.children(), operand_costs):
        node.est_cost += child.est_cost - cost


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
