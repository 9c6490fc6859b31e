"""Parallel physical operators: partitioned scans, exchanges, joins.

These nodes join the planner's candidate enumeration
(:meth:`repro.engine.planner.Planner._parallel_candidates`) with real
cost formulas (:meth:`repro.engine.cost.CostModel.parallel_join_cost`),
so the cost model — not a flag — decides when a parallel plan beats the
serial one.  ``explain()`` renders partition counts and exchange kinds
on every node.

Execution contract
==================

A parallel region always looks like::

    Exchange(gather) [4 parts] <gathers 4 partitions>
      PartitionedHashJoin(join) [x.k = y.k ; partition-wise, 4 parts]
        PartitionedScan [X by k, 4 parts]
        PartitionedScan [Y by k, 4 parts]

The :class:`Exchange` gather node *drives* the region: when the runtime
carries a :class:`~repro.shard.executor.ParallelExecutor`
(``rt.parallel``), it ships the join's fragments to the worker pool and
merges partial results + per-worker statistics; without one it runs them
lazily in-process through :func:`~repro.shard.fragment.run_inline`, the
same path the executor's inline mode drains — parity between the two
paths holds by construction.  Both go through one loop, ``_gathered``;
row and batch gathers differ only in what they emit.  Either way the
gather materializes its input and counts one ``pipeline_breaks`` (plus
whatever breaks the fragments themselves report), consistent with every
other breaker.

Partition-wise joins on co-partitioned inputs resolve stored shards
directly and skip the exchange entirely; broadcast joins read the small
side whole in every fragment; repartition joins pay a shared-scan hash
filter per fragment (counted as a break by the resolver).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.adl import ast as A
from repro.datamodel.values import Value
from repro.engine.plan import DEFAULT_BATCH_SIZE, Batch, ExecRuntime, PlanNode
from repro.shard.executor import fold_report
from repro.shard.fragment import (
    FragmentSpec,
    ShardRef,
    merge_stats_snapshot,
    run_inline,
)

#: The parallel join strategies the planner enumerates.
STRATEGIES = ("partition-wise", "broadcast", "repartition")


def _trace_id(rt: ExecRuntime) -> Optional[str]:
    """The recorder's trace id threaded into shipped fragments, or
    ``None`` — the single untraced-path test of the shard tier."""
    trace = rt.trace
    return trace.trace_id if trace is not None else None


def _specs(text: str, bindings, params, epoch, batch_size, trace) -> List[FragmentSpec]:
    """One shippable spec per shard-binding dict, every other part of the
    contract shared."""
    return [
        FragmentSpec.make(text, b, params, epoch=epoch, batch_size=batch_size, trace=trace)
        for b in bindings
    ]


def _gathered(rt: ExecRuntime, node: PlanNode, specs, parallel) -> Iterator:
    """The shard tier's one fragment-results loop: yield each fragment's
    rows (a frozenset, or :class:`~repro.shard.fragment.ChunkedRows` for
    batch-mode specs) after handing its span to the recorder and folding
    its counters into ``rt.stats``.

    With ``parallel`` (a :class:`~repro.shard.executor.ParallelExecutor`)
    the batch runs there, and its one report is recorded for ``node``'s
    trace and folded into ``rt.fault_events`` — also when the batch
    raises, so a timed-out or failed gather keeps its attempt records;
    without one the fragments run lazily in-process, one at a time.
    """
    trace = rt.trace
    if parallel is not None:
        report: dict = {}
        try:
            results = parallel.run_fragments(specs, deadline=rt.deadline, events=report)
        finally:
            if report:  # empty only if the call failed before its batch began
                fold_report(rt.fault_events, report)
                if trace is not None:
                    trace.add_events(node, report)
    else:
        results = run_inline(rt.db, rt.catalog, specs, deadline=rt.deadline)
    for rows, snapshot in results:
        if trace is not None:
            span = snapshot.get("_span")
            if span is not None:
                trace.add_fragment_span(node, span)
        merge_stats_snapshot(rt.stats, snapshot)
        yield rows


class PartitionedScan(PlanNode):
    """Scan of a hash-partitioned extent — all shards, shard-ordered.

    Semantically identical to :class:`~repro.engine.plan.Scan`; the
    partitioning is what lets an enclosing gather split it into one
    fragment per shard (a *gathered scan*).  Streams, no pipeline break.
    """

    label = "PartitionedScan"

    def __init__(self, extent: str, attr: str, parts: int) -> None:
        self.extent = extent
        self.attr = attr
        self.parts = parts

    def describe(self) -> str:
        return f"{self.extent} by {self.attr}, {self.parts} parts"

    def _shards(self, rt: ExecRuntime):
        pe = rt.catalog.partitioning(self.extent) if rt.catalog is not None else None
        if pe is not None and pe.attr == self.attr and pe.parts == self.parts:
            # epoch-pinned runs (PR 7) must not read stored shards built
            # from a different extent value than the pinned one
            if rt.pinned_epoch is None or pe.source_rows is rt.db.extent(self.extent):
                return pe.shards
        return (rt.db.extent(self.extent),)

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        for shard in self._shards(rt):
            for row in shard:
                rt.stats.tuples_visited += 1
                yield row

    def payloads(
        self,
        params: Optional[Dict[str, Value]] = None,
        epoch: Optional[int] = None,
        batch_size: Optional[int] = None,
        trace: Optional[str] = None,
    ) -> List[FragmentSpec]:
        """One fragment per shard: ``__shard__`` bound to shard *i*."""
        from repro.adl.pretty import pretty
        from repro.shard.fragment import SCAN_PLACEHOLDER

        bindings = [
            {SCAN_PLACEHOLDER: ShardRef(self.extent, self.attr, self.parts, i)}
            for i in range(self.parts)
        ]
        text = pretty(A.ExtentRef(SCAN_PLACEHOLDER))
        return _specs(text, bindings, params, epoch, batch_size, trace)


class Exchange(PlanNode):
    """Data movement between partitions: ``gather`` / ``broadcast`` /
    ``repartition``.

    All three are pipeline breaks — an exchange materializes what it
    moves — and all three render their kind and partition count in
    ``explain()``.  ``gather`` is the driver of a parallel region (see
    the module docstring); ``broadcast`` and ``repartition`` annotate a
    :class:`PartitionedHashJoin` input with the movement the fragments
    pay for, and execute as the semantically-equivalent identity when
    iterated directly.
    """

    def __init__(
        self,
        kind: str,
        child: PlanNode,
        parts: int,
        key_attr: Optional[str] = None,
    ) -> None:
        if kind not in ("gather", "broadcast", "repartition"):
            from repro.datamodel.errors import PlanError

            raise PlanError(f"unknown exchange kind {kind!r}")
        self.kind = kind
        self.child = child
        self.parts = parts
        self.key_attr = key_attr
        self.label = f"Exchange({kind})"
        if kind == "gather":
            self.break_note = f"gathers {parts} partitions"
        elif kind == "broadcast":
            self.break_note = f"broadcasts to {parts} partitions"
        else:
            self.break_note = f"repartitions into {parts} partitions"

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def describe(self) -> str:
        if self.key_attr:
            return f"on {self.key_attr}, {self.parts} parts"
        return f"{self.parts} parts"

    def _gather(self, rt: ExecRuntime, batch_size: Optional[int] = None) -> Iterator:
        rt.stats.pipeline_breaks += 1
        specs = self.child.payloads(
            rt.params, epoch=rt.pinned_epoch, batch_size=batch_size, trace=_trace_id(rt)
        )
        return _gathered(rt, self, specs, rt.parallel)

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        if self.kind == "gather":
            if getattr(self.child, "payloads", None) is not None:
                for rows in self._gather(rt):
                    yield from rows
                return
            rt.stats.pipeline_breaks += 1
            yield from self.child.stream(rt)
            return
        # broadcast / repartition: moving tuples between partitions is the
        # identity at whole-stream granularity; the movement cost is paid
        # (and counted) inside the fragments that consume it
        yield from self._consume(self.child, rt)

    def iterate_batches(self, rt: ExecRuntime) -> Iterator[Batch]:
        if self.kind != "gather" or getattr(self.child, "payloads", None) is None:
            yield from PlanNode.iterate_batches(self, rt)
            return
        # batched gather: fragments run batch-at-a-time and ship their
        # results as ChunkedRows, re-emitted here chunk-for-chunk
        stats = rt.stats
        for rows in self._gather(rt, rt.batch_size or DEFAULT_BATCH_SIZE):
            for chunk in rows.chunks:
                if chunk:
                    stats.batches_emitted += 1
                    yield Batch(chunk)

    def vector_note(self) -> str:
        return "vec:gather" if self.kind == "gather" else ""


class PartitionedHashJoin(PlanNode):
    """A hash join split into per-partition fragments.

    ``strategy`` says how the inputs line up:

    * ``partition-wise`` — both inputs co-partitioned on the join keys:
      fragment *i* joins stored shard *i* with stored shard *i*, no
      exchange at all;
    * ``broadcast`` — the (partitioned) left input keeps its shards, the
      small right input is read whole by every fragment;
    * ``repartition`` — each fragment hash-filters **both** full inputs
      to bucket *i* on the join keys (a shared-scan exchange) and joins
      the buckets.

    The node carries its fragments as canonical ADL text + shard
    bindings (:meth:`payloads`); executing the node inline runs them
    one-by-one through :func:`~repro.shard.fragment.run_inline` — the
    same ``execute_fragment`` pool workers run.  ``left``/``right`` children are the
    per-partition input descriptions ``explain()`` renders.
    """

    def __init__(
        self,
        kind: str,
        lvar: str,
        rvar: str,
        pred: A.Expr,
        strategy: str,
        parts: int,
        fragment_template: A.Expr,
        shard_bindings: Sequence[Dict[str, ShardRef]],
        left: PlanNode,
        right: PlanNode,
    ) -> None:
        from repro.datamodel.errors import PlanError

        if strategy not in STRATEGIES:
            raise PlanError(f"unknown parallel join strategy {strategy!r}")
        if len(shard_bindings) != parts:
            raise PlanError(
                f"{parts}-way parallel join needs {parts} shard bindings, "
                f"got {len(shard_bindings)}"
            )
        from repro.adl.pretty import pretty

        self.kind = kind
        self.lvar = lvar
        self.rvar = rvar
        self.pred = pred
        self.strategy = strategy
        self.parts = parts
        self.fragment_text = pretty(fragment_template)
        self.shard_bindings = [dict(b) for b in shard_bindings]
        self.left = left
        self.right = right
        self.label = f"PartitionedHashJoin({kind})"

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)

    def describe(self) -> str:
        from repro.adl.pretty import pretty

        return f"{self.lvar},{self.rvar}: {pretty(self.pred)} ; {self.strategy}, {self.parts} parts"

    def payloads(
        self,
        params: Optional[Dict[str, Value]] = None,
        epoch: Optional[int] = None,
        batch_size: Optional[int] = None,
        trace: Optional[str] = None,
    ) -> List[FragmentSpec]:
        return _specs(self.fragment_text, self.shard_bindings, params, epoch, batch_size, trace)

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        specs = self.payloads(rt.params, epoch=rt.pinned_epoch, trace=_trace_id(rt))
        for rows in _gathered(rt, self, specs, None):
            yield from rows
