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

The :class:`Exchange` gather node is the only one of these that runs.
The join below it is a fragment template: it hands the gather its
canonical ADL text and shard bindings (:meth:`PartitionedHashJoin.payloads`),
and its children — partitioned scans, broadcast and repartition
exchanges — only describe, for ``explain()``, what each fragment reads.

The gather *drives* the region: when the runtime
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
    """A hash-partitioned extent as one input of a
    :class:`PartitionedHashJoin`: rendered by ``explain()``, never run —
    the join's fragments read the shards (see the module docstring)."""

    label = "PartitionedScan"

    def __init__(self, extent: str, attr: str, parts: int) -> None:
        self.extent = extent
        self.attr = attr
        self.parts = parts

    def describe(self) -> str:
        return f"{self.extent} by {self.attr}, {self.parts} parts"


class Exchange(PlanNode):
    """Data movement between partitions: ``gather`` / ``broadcast`` /
    ``repartition``.

    All three render their kind and partition count in ``explain()``.
    Only ``gather`` executes: it drives a parallel region (see the module
    docstring) and is a pipeline break.  ``broadcast`` and
    ``repartition`` annotate a :class:`PartitionedHashJoin` input with the
    movement its fragments pay for.
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
        for rows in self._gather(rt):
            yield from rows

    def iterate_batches(self, rt: ExecRuntime) -> Iterator[Batch]:
        # batched gather: fragments run batch-at-a-time and ship their
        # results as ChunkedRows, re-emitted here chunk-for-chunk
        stats = rt.stats
        for rows in self._gather(rt, rt.batch_size or DEFAULT_BATCH_SIZE):
            for chunk in rows.chunks:
                if chunk:
                    stats.batches_emitted += 1
                    yield Batch(chunk)


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
    bindings (:meth:`payloads`), which the enclosing gather ships; it
    never runs itself.  ``left``/``right`` children are the per-partition
    input descriptions ``explain()`` renders.
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
