"""The fragment-shipping contract of partition-parallel execution.

A *fragment* is one partition's share of a parallel plan region,
expressed as data that can cross a process boundary:

* ``text`` — the fragment's logical form as **canonical pretty-printed
  ADL text** (:mod:`repro.adl.pretty`), with placeholder extent names
  (``__lshard__`` / ``__rshard__`` / ``__shard__``) where partitioned
  inputs go.  Receivers re-parse it with :func:`repro.adl.parser.parse_adl`
  and re-plan locally — the same re-parseable-shape trick the PR-4 plan
  cache plays with OOSQL text.  No plan trees, closures or locks ever
  ship;
* ``shards`` — placeholder → :class:`ShardRef` bindings saying which
  shard of which extent each placeholder denotes;
* ``params`` — the execution's prepared-statement parameter bindings,
  forwarded verbatim (``$name`` placeholders survive into the fragment
  text exactly as they survive into cached plans).

:func:`execute_fragment` is the single execution path for fragments —
the coordinator's inline fallback and the pool workers run the *same
function*, which is what makes parallel/serial parity hold by
construction.  In-process, every caller drives it through the one
:func:`run_inline` loop.

Shard resolution (:class:`ShardView`) has two speeds:

* the binding matches a registered partitioning (same attribute, same
  part count) → the stored shard is used directly — the co-partitioned
  fast path that "skips the exchange entirely";
* otherwise the full extent is scanned and hash-filtered to the
  requested bucket — a *shared-scan repartition*, each worker reading
  everything and keeping its share.  This is a materializing exchange:
  it charges the scanned tuples and counts a pipeline break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.adl import ast as A
from repro.datamodel.errors import PartitionError
from repro.datamodel.values import Value
from repro.engine.stats import Stats
from repro.shard.partition import partition_of

#: Placeholder extent names used by planner-built fragments.  Any name
#: may be bound — these are just the conventional ones.
LEFT_PLACEHOLDER = "__lshard__"
RIGHT_PLACEHOLDER = "__rshard__"
SCAN_PLACEHOLDER = "__shard__"



@dataclass(frozen=True)
class ShardRef:
    """One placeholder's binding: shard ``index`` of ``parts``-way hash
    partitioning of ``extent`` on ``attr`` — or, with ``attr=None``, the
    whole extent (the broadcast binding)."""

    extent: str
    attr: Optional[str] = None
    parts: Optional[int] = None
    index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.attr is not None:
            if not self.parts or self.parts < 1:
                raise PartitionError(f"shard ref needs parts >= 1, got {self.parts}")
            if self.index is None or not 0 <= self.index < self.parts:
                raise PartitionError(
                    f"shard index {self.index} out of range for {self.parts} parts"
                )


@dataclass(frozen=True)
class FragmentSpec:
    """One shippable fragment: ADL text + shard bindings + parameters.

    Plain picklable data — this is exactly what crosses the process
    boundary to a pool worker.
    """

    text: str
    shards: Tuple[Tuple[str, ShardRef], ...]
    params: Tuple[Tuple[str, Value], ...] = ()
    #: visibility epoch the fragment must read (PR 7), or ``None`` for a
    #: live-head read.  Rides the contract next to ``params`` so pool
    #: workers provably resolve the coordinator's pinned state.
    epoch: Optional[int] = None
    #: the fragment runtime's chunk capacity, which is also the chunk size
    #: of the :class:`ChunkedRows` result it ships (``None``: the
    #: runtime's default)
    batch_size: Optional[int] = None
    #: trace context (PR 10): the coordinator recorder's trace id, or
    #: ``None`` for untraced runs.  When set, :func:`execute_fragment`
    #: piggybacks a per-fragment span record on the stats snapshot (the
    #: ``"_span"`` key, skipped by :func:`merge_stats_snapshot`) so the
    #: gather can hand workers' spans back to the coordinator's recorder.
    trace: Optional[str] = None

    @staticmethod
    def make(
        text: str,
        shards: Mapping[str, ShardRef],
        params: Optional[Mapping[str, Value]] = None,
        epoch: Optional[int] = None,
        batch_size: Optional[int] = None,
        trace: Optional[str] = None,
    ) -> "FragmentSpec":
        return FragmentSpec(
            text=text,
            shards=tuple(sorted(shards.items())),
            params=tuple(sorted((params or {}).items())),
            epoch=epoch,
            batch_size=batch_size,
            trace=trace,
        )

    @property
    def shard_map(self) -> Dict[str, ShardRef]:
        return dict(self.shards)

    @property
    def param_map(self) -> Dict[str, Value]:
        return dict(self.params)


class ChunkedRows:
    """A fragment result shipped as row chunks, each at most the
    fragment's chunk capacity.

    Plain picklable data, like everything else on the fragment contract.
    The chunks partition a *deduplicated* row set (the fragment's
    ``execute`` result), so ``len`` and iteration see exactly that set —
    the executor's ``result_rows`` accounting never notices the chunks —
    while the gather re-emits them as :class:`~repro.engine.plan.Batch`
    objects without re-slicing.
    """

    __slots__ = ("chunks",)

    def __init__(self, chunks) -> None:
        self.chunks = list(chunks)

    def __len__(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)

    def __iter__(self):
        for chunk in self.chunks:
            yield from chunk

    def __repr__(self) -> str:
        return f"ChunkedRows({len(self.chunks)} chunks, {len(self)} rows)"


class ShardView:
    """A database view resolving placeholder extents to shard row sets.

    Satisfies the interpreter protocol (``extent`` / ``deref``); every
    other name passes through to the underlying store.  ``partitions``
    is a plain ``{extent: PartitionedExtent}`` snapshot — resolution
    never takes catalog locks, so forked workers cannot inherit a held
    lock and deadlock.
    """

    def __init__(
        self,
        db,
        partitions: Mapping[str, object],
        shards: Mapping[str, ShardRef],
        stats: Stats,
    ) -> None:
        self._db = db
        self._partitions = partitions
        self._shards = dict(shards)
        self._stats = stats
        self._resolved: Dict[str, frozenset] = {}

    def extent(self, name: str) -> frozenset:
        if name not in self._shards:
            return self._db.extent(name)
        cached = self._resolved.get(name)
        if cached is None:
            cached = self._resolved[name] = self._resolve(self._shards[name])
        return cached

    def deref(self, oid):
        return self._db.deref(oid)

    def _resolve(self, ref: ShardRef) -> frozenset:
        if ref.attr is None:
            return self._db.extent(ref.extent)  # broadcast: the whole extent
        pe = self._partitions.get(ref.extent)
        if pe is not None and pe.attr == ref.attr and pe.parts == ref.parts:
            # Epoch-pinned reads (PR 7) may see an older extent value than
            # the one the registered partitioning was built from; the stored
            # shards are only usable when their source is *identical* to
            # the pinned rows — otherwise fall through to the shared-scan
            # filter, which reads through the pinned view and stays correct.
            if getattr(self._db, "pinned_epoch", None) is None or (
                pe.source_rows is self._db.extent(ref.extent)
            ):
                return pe.shard(ref.index)  # co-partitioned: stored shard, no exchange
        # shared-scan repartition: scan everything, keep this bucket — a
        # materializing exchange, charged and counted as a pipeline break
        rows = self._db.extent(ref.extent)
        self._stats.pipeline_breaks += 1
        self._stats.tuples_visited += len(rows)
        return frozenset(
            row for row in rows if partition_of(row[ref.attr], ref.parts) == ref.index
        )


def execute_fragment(
    db,
    partitions,
    spec: FragmentSpec,
    *,
    index: int = 0,
    attempt: int = 0,
    deadline: Optional[float] = None,
    fault_plan=None,
    in_worker: bool = False,
):
    """Re-parse, re-plan and execute one fragment; return ``(rows, stats)``.

    ``stats`` is a plain :meth:`~repro.engine.stats.Stats.snapshot` dict
    (picklable).  The fragment is planned heuristically (no catalog):
    fragments are single join/scan shapes whose strategy the coordinator
    already chose, and keeping workers off the shared catalog avoids
    cross-process staleness races.

    Fault tolerance (PR 6): this is the single injection + cancellation
    site of the parallel tier.  ``index``/``attempt`` identify the
    fragment and the batch attempt for ``fault_plan``, which the inline
    path and each worker's loop pass in; ``in_worker`` is set only by the
    worker loop, so a crash fault exits a worker process but raises
    inline.  Faults fire *before* any row is produced, so a failed
    attempt never leaks partial statistics into the attempt that
    succeeds.  ``deadline`` (absolute ``time.monotonic()``) is threaded
    into the runtime, whose operator edges poll it per batch.
    """
    import os
    import time

    from repro.adl.parser import parse_adl
    from repro.engine.plan import ExecRuntime
    from repro.engine.planner import plan_query

    started = time.perf_counter() if spec.trace is not None else 0.0
    if fault_plan is not None:
        fault_plan.apply(
            index=index, attempt=attempt, deadline=deadline, in_worker=in_worker
        )
    expr = parse_adl(spec.text)
    stats = Stats()
    if spec.epoch is not None and hasattr(db, "extent_at"):
        # pin the whole fragment read to the coordinator's epoch (PR 7);
        # a pool worker's forked store keeps every snapshot the parent
        # preserved before the fork, so the resolution always succeeds
        from repro.storage.store import EpochView

        db = EpochView(db, spec.epoch)
    view = ShardView(db, partitions, spec.shard_map, stats)
    plan = plan_query(expr)
    rt = ExecRuntime(
        view,
        stats,
        params=spec.param_map,
        deadline=deadline,
        batch_size=spec.batch_size,
    )
    # ship the (deduplicated) result as row chunks, so the gather
    # re-emits whole batches instead of re-slicing on the way back
    seq = list(plan.execute(rt))
    size = rt.batch_size
    rows = ChunkedRows(seq[i : i + size] for i in range(0, len(seq), size))
    snapshot = stats.snapshot()
    if spec.trace is not None:
        # the span rides the snapshot under an underscore key, which
        # merge_stats_snapshot skips — the (rows, snapshot) contract and
        # every untraced consumer are untouched
        snapshot["_span"] = {
            "trace": spec.trace,
            "fragment": index,
            "attempt": attempt,
            "pid": os.getpid(),
            "in_worker": in_worker,
            "epoch": spec.epoch,
            "rows": len(rows),
            "wall_s": time.perf_counter() - started,
            "work": stats.total_work(),
            "batches": stats.batches_emitted,
        }
    return rows, snapshot


def run_inline(
    db,
    catalog,
    specs,
    *,
    attempt: int = 0,
    deadline: Optional[float] = None,
    fault_plan=None,
):
    """Run ``specs`` in this process, one fragment at a time: yield
    ``(rows, stats)`` per spec — the shape the pool path returns.

    The one inline fragment path: a gather without an executor streams
    it, and :class:`~repro.shard.executor.ParallelExecutor` drains it as
    one batch attempt.  Shards resolve through ``catalog``'s registered
    partitionings of the extents the fragments route by (the staleness
    handshake runs per lookup); the deadline is checked before each
    fragment as well as inside it.
    """
    import time

    from repro.datamodel.errors import QueryTimeoutError

    partitions: Dict[str, object] = {}
    if catalog is not None:
        for spec in specs:
            for _, ref in spec.shards:
                if ref.attr is not None and ref.extent not in partitions:
                    pe = catalog.partitioning(ref.extent)
                    if pe is not None:
                        partitions[ref.extent] = pe
    for i, spec in enumerate(specs):
        if deadline is not None and time.monotonic() >= deadline:
            raise QueryTimeoutError("query exceeded its deadline")
        yield execute_fragment(
            db,
            partitions,
            spec,
            index=i,
            attempt=attempt,
            deadline=deadline,
            fault_plan=fault_plan,
        )


def merge_stats_snapshot(stats: Stats, snapshot: Mapping[str, int]) -> None:
    """Fold one fragment's counter snapshot into a live ``Stats``.

    Underscore-prefixed keys are sidecar payloads (the PR-10 ``"_span"``
    trace record), not counters — skipped here."""
    for name, value in snapshot.items():
        if name.startswith("_"):
            continue
        setattr(stats, name, getattr(stats, name) + value)


def fragment_stats_total(snapshot: Mapping[str, int]) -> int:
    """``Stats.total_work`` computed over a snapshot dict — the per-worker
    effort number the benchmark's critical-path speedup is built from.
    Rehydrates a real ``Stats`` so the definition of "work" lives in one
    place and cannot drift from the serial side's accounting."""
    stats = Stats()
    merge_stats_snapshot(stats, snapshot)
    return stats.total_work()


def rebind_extent(operand: A.Expr, placeholder: str) -> A.Expr:
    """Swap the base :class:`~repro.adl.ast.ExtentRef` of a fragment
    operand (a bare extent, or selections over one) for a placeholder
    name.  Raises :class:`PartitionError` when the operand has no unique
    base extent — such operands are not fragment-shippable.  Maps are
    rejected like any other shape: they can rename attributes, which
    would break shard routing by attribute name (see
    :func:`repro.engine.cost.fragment_base`).
    """
    if isinstance(operand, A.ExtentRef):
        return A.ExtentRef(placeholder)
    if isinstance(operand, A.Select):
        return A.Select(
            operand.var, operand.pred, rebind_extent(operand.source, placeholder)
        )
    raise PartitionError(
        f"operand {type(operand).__name__} has no unique base extent to shard"
    )
