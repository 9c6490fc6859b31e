"""Physical plan operators.

"It is better to transform nested queries into join queries, because join
queries can be implemented in many different ways" (Section 7) — this
module is the "many different ways", plus the pipeline operators (scan,
filter, map, nest, unnest, project...).

The join family keeps the paper's two decisions apart.  *What* a join
means — join / semijoin / antijoin / outerjoin / nestjoin, i.e. what
happens to dangling tuples and empty groups (Table 3, Fig. 2) — is
written once, in :class:`_JoinNode`'s tuple-mode emission loop.  *How*
candidates are found is a strategy, and a strategy is only an ``_open``:
:class:`NestedLoopJoin` (every right tuple), :class:`HashJoinBase` (hash
table on either operand's keys), :class:`MembershipHashJoin` (``e ∈
x.parts``-style predicates) and :class:`IndexNestedLoopJoin` (a
registered catalog index).  A new strategy adds an ``_open``, not a loop;
a change to a kind's semantics is one edit (two with the hash join's
batch-native probe).

Streaming execution
===================

Operators execute Volcano-style: every node implements
``iterate(rt) -> Iterator[Value]``, the *streaming* interface, and
``execute(rt) -> frozenset`` is a thin materializing wrapper
(``frozenset(iterate(rt))``) kept for the planner API and set-typed
consumers.  Tuples flow one at a time through pipeline operators, so a
query like "first supplier with a red part" stops scanning as soon as the
answer is produced, and no intermediate result is ever materialized unless
an operator genuinely needs all of its input at once.

Which operators pipeline, and which break:

* **pipeline** (tuple-at-a-time, O(1) buffering): :class:`Scan`,
  :class:`IndexScan`, :class:`Filter`, :class:`MapOp`, :class:`ProjectOp`,
  :class:`RenameOp`, :class:`UnnestOp`, :class:`FlattenOp`, the union side
  of :class:`SetOp`, the probe side of the whole hash-join family, and
  **both** sides of :class:`IndexNestedLoopJoin` (the persistent catalog
  index replaces the build phase entirely);
* **pipeline breakers** (must consume an input fully before emitting):
  :class:`NestOp` (grouping), :class:`SetOp` intersect/difference (right
  side), the **build side** of :class:`NestedLoopJoin`,
  :class:`HashJoinBase` (right by default; the cost-based planner may
  build left for plain joins), :class:`MembershipHashJoin` and
  :class:`CartesianProduct`, both sides of :class:`DivisionOp`, and
  :class:`MaterializeOp` (batched page-clustered fetching is the point of
  assembly).

Under cost-based planning every node additionally carries ``est_rows`` /
``est_cost`` annotations which ``explain()`` renders as
``(rows≈…, cost≈…)``, so plan choices are inspectable and testable.

Every break is counted in ``stats.pipeline_breaks`` at runtime and marked
statically by ``explain()``::

    >>> print(plan.explain())
    HashJoin(semijoin) [d.supplier = s.oid] <builds right>
      Scan [DELIVERY]
      Scan [SUPPLIER]

Parameter expressions (predicates, hash keys, nestjoin result functions)
are compiled once per operator into Python closures by
:mod:`repro.engine.compile` instead of being re-interpreted per tuple.

Every node executes against an :class:`ExecRuntime` carrying the database,
an :class:`~repro.engine.interpreter.Interpreter` for the expression forms
the compiler delegates, a :class:`~repro.engine.compile.Compiler`, and the
shared :class:`~repro.engine.stats.Stats` counters.  ``explain()`` renders
the physical tree.

The operator edge
=================

Operators never call a child's ``iterate`` directly: every consumer
pulls through the child's :meth:`PlanNode.stream` /
:meth:`PlanNode.stream_batches` (or ``_consume``, whose drain is
:meth:`PlanNode.execute`), and that edge is the one place per-run policy
is applied.  A run with neither a trace recorder nor a deadline gets the
raw ``iterate`` generator back; otherwise the edge wraps it with a
deadline poll (on open, then per batch or per 64 rows) and/or the trace
meter.  So every operator is cancellable and traceable without a line of
its own, and a deadline overshoots by at most one batch (or 64 rows) per
edge.  The one operator-side poll left is :class:`NestedLoopJoin`'s, once
per outer tuple: its inner loop walks a materialized list, not an edge.

Vectorized batch execution (PR 8)
=================================

Every node additionally implements ``iterate_batches(rt) ->
Iterator[Batch]``, the *batch-at-a-time* interface: fixed-capacity
columnar chunks of tuples instead of single tuples.
``ExecRuntime(batch_size=N)`` selects the mode — ``execute`` then drains
batches instead of the tuple iterator.  The hot pipeline operators
(:class:`Scan`, :class:`Filter`, :class:`MapOp`, :class:`ProjectOp`, the
:class:`HashJoinBase` family) override it natively, applying
:mod:`repro.engine.compile`'s batch kernels over whole chunks; every
other operator inherits the default, which chunks its own tuple
``iterate`` — so batch mode is always available and always oracle-equal,
operator by operator.  Expression forms the vectorizing compiler does not
cover fall back to the tuple-wise closure per batch element, counted in
``stats.vector_fallbacks``; chunks produced are counted in
``stats.batches_emitted``.

Counter contract in batch mode: successful batches produce exactly the
tuple engine's totals (the kernels bulk-count, and short-circuit
semantics are preserved — see :mod:`repro.engine.compile`).  On an
erroring batch the error itself is exactly the tuple engine's (the batch
re-runs element-wise), but per-tuple counters such as ``tuples_visited``
are bulk-charged per chunk, so mid-batch failure counter *snapshots* may
run ahead of the tuple engine's — a documented simplification.
"""

from __future__ import annotations

import os
import time
from itertools import chain, compress, islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.adl import ast as A
from repro.datamodel.errors import EvaluationError, MissingAttributeError, PlanError
from repro.datamodel.values import Value, VTuple, concat, trusted_tuple
from repro.engine.compile import BatchKernel, Compiler
from repro.engine.cost import format_estimate
from repro.engine.interpreter import Interpreter
from repro.engine.stats import Stats

#: Default rows per columnar chunk when ``batch_size`` is truthy but a
#: concrete capacity was not chosen.  Big enough to amortize per-batch
#: dispatch, small enough to keep early-exit consumers responsive.
DEFAULT_BATCH_SIZE = 256


class Batch:
    """A chunk of the batch protocol: an ordered list of tuples.

    ``rows`` is the payload operators and the shard tier ship directly;
    batch kernels gather the attribute values they need from it.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: List[Value]) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Batch({len(self.rows)} rows)"


def _env_trace():
    """A fresh :class:`~repro.obs.trace.TraceRecorder` when ``REPRO_TRACE``
    is set, else ``None`` — the one reader of that variable: it traces
    every run of the process, the CI trace-parity job's hook (mirroring
    ``REPRO_FAULT_PLAN``)."""
    if not os.environ.get("REPRO_TRACE"):
        return None
    from repro.obs.trace import TraceRecorder

    return TraceRecorder()


def _polled(it: Iterator, check: Callable[[], None], every: int) -> Iterator:
    """``it``, with ``check()`` called on open and after every ``every``
    items handed on — before the next is pulled, so an expired run pulls
    at most ``every`` more items through this edge."""
    check()
    n = 0
    for item in it:
        yield item
        n += 1
        if n == every:
            n = 0
            check()


class ExecRuntime:
    """Execution context shared by all operators of one plan run.

    The runtime owns a single :class:`Interpreter` and a single
    :class:`~repro.engine.compile.Compiler`; operators *reuse* them via
    :meth:`eval` / :meth:`compiled` rather than constructing their own, so
    expression compilation happens once per operator per run and all work
    counters land in one :class:`Stats` bundle.
    """

    def __init__(
        self,
        db,
        stats: Optional[Stats] = None,
        *,
        catalog=None,
        params: Optional[Dict[str, Value]] = None,
        parallel=None,
        deadline: Optional[float] = None,
        batch_size: Optional[int] = None,
        trace=None,
    ) -> None:
        self.db = db
        # default to the database's own catalog (a Catalog registers
        # itself on its store at construction)
        self.catalog = catalog if catalog is not None else getattr(db, "catalog", None)
        self.stats = stats if stats is not None else Stats()
        #: optional :class:`repro.shard.executor.ParallelExecutor` — when
        #: set, gather exchanges ship their fragments to the worker pool
        #: instead of running them inline
        self.parallel = parallel
        #: absolute ``time.monotonic()`` deadline for this run, or ``None``.
        #: Polled at the operator edge (:meth:`PlanNode.stream`: on open,
        #: then once per batch or every 64 tuples) and once after the
        #: final drain; a deadline-free run's edges are the raw generators.
        self.deadline = deadline
        #: fault-tolerance events of this run (retries, degradation,
        #: breaker state, attempts) — every gather's batch report folded
        #: in, surfaced on ``QueryResult.faults`` by the service
        self.fault_events: Dict[str, object] = {}
        #: prepared-statement parameter bindings for this run; ``Param``
        #: expressions resolve against it in both evaluation engines
        self.params: Dict[str, Value] = dict(params or {})
        #: the visibility epoch this run is pinned to, or ``None`` for an
        #: unpinned (live-head) run.  Set automatically when ``db`` is an
        #: :class:`~repro.storage.store.EpochView`; partitioned operators
        #: thread it into every shipped fragment so pool workers provably
        #: read the coordinator's state (PR 7).
        self.pinned_epoch = getattr(db, "pinned_epoch", None)
        #: per-run indexes built over epoch-pinned rows when the shared
        #: catalog index was built from a different (live) snapshot —
        #: keyed ``(extent, attr, multi)``; never written to the catalog
        self._transient_indexes: Dict[Tuple[str, str, bool], object] = {}
        self.interpreter = Interpreter(db, self.stats, self.params)
        #: rows per columnar chunk; a truthy value selects batch-at-a-time
        #: execution (``execute`` drains ``iterate_batches``), ``None``/0
        #: keeps the tuple-at-a-time engine
        self.batch_size = batch_size
        #: optional :class:`repro.obs.trace.TraceRecorder` — when set,
        #: every operator's stream is metered (rows/batches out, wall
        #: time, fill time) at the operator edge (:meth:`PlanNode.stream`),
        #: so untraced hot loops are the raw generators.  ``None`` falls
        #: back to :func:`_env_trace`.
        self.trace = trace if trace is not None else _env_trace()
        self.compiler = Compiler(db, self.stats, self.interpreter, self.params)
        self._compiled: Dict[int, Tuple[A.Expr, Callable]] = {}
        self._compiled_preds: Dict[int, Tuple[A.Expr, Callable]] = {}
        self._batch_fns: Dict[Tuple[int, str], Tuple[A.Expr, BatchKernel]] = {}
        self._batch_preds: Dict[Tuple[int, str], Tuple[A.Expr, BatchKernel]] = {}

    # -- reuse --------------------------------------------------------------
    # A runtime may serve many runs of the *same plan*, one at a time: what
    # survives is what is expensive and run-independent — the compiled
    # closures and batch kernels, which hold ``db``, ``stats`` and
    # ``params`` by reference, so all three change *in place*.  The owner
    # calls ``release`` when a run ends cleanly and ``rebind`` before the
    # next; a recorder is per run, bound by ``rebind`` and dropped by
    # ``release``.

    def release(self) -> None:
        """Forget the finished run: counters, bindings, fault events,
        transient indexes, cached columns, recorder.  An idle runtime
        holds none of its last run's data (read :attr:`stats` and
        :attr:`trace` before calling this)."""
        self.stats.reset()
        self.params.clear()
        self.fault_events = {}
        self._transient_indexes.clear()
        self.compiler._col_cache.clear()
        self.trace = None

    def rebind(
        self,
        params: Dict[str, Value],
        *,
        deadline: Optional[float] = None,
        epoch: Optional[int] = None,
        parallel=None,
        trace=None,
    ) -> None:
        """Arm a released runtime for its next run: bindings, deadline,
        parallel executor, recorder (``None`` falls back to
        :func:`_env_trace`, as at construction), and the epoch its
        :class:`~repro.storage.store.EpochView` reads at.  The caller owns
        the runtime exclusively from here until the run ends."""
        self.params.update(params)
        self.deadline = deadline
        self.parallel = parallel
        self.trace = trace if trace is not None else _env_trace()
        if epoch is not None:
            self.db.rebind(epoch)
        self.pinned_epoch = epoch

    # -- cancellation -------------------------------------------------------
    def check_deadline(self) -> None:
        """Raise :class:`~repro.datamodel.errors.QueryTimeoutError` when
        this run's deadline has passed.  Called from the operator edge
        (:meth:`PlanNode.stream`), which wraps a stream in the poll only
        when a deadline is set."""
        if self.deadline is not None and time.monotonic() >= self.deadline:
            from repro.datamodel.errors import QueryTimeoutError

            raise QueryTimeoutError("query exceeded its deadline")

    # -- expression evaluation ---------------------------------------------
    # Both caches are keyed by id(expr) and store the expression alongside
    # its closure: the strong reference keeps the expression alive, so a
    # garbage-collected expression's id can never be reused by a different
    # expression and alias someone else's closure.

    def compiled(self, expr: A.Expr) -> Callable[[Dict[str, Value]], Value]:
        """The closure for ``expr`` — compiled once per runtime."""
        entry = self._compiled.get(id(expr))
        if entry is None:
            self._compiled[id(expr)] = entry = (expr, self.compiler.compile(expr))
        return entry[1]

    def compiled_pred(self, expr: A.Expr) -> Callable[[Dict[str, Value]], bool]:
        """Like :meth:`compiled` but with predicate semantics: counts
        ``predicate_evals`` and rejects non-boolean results."""
        entry = self._compiled_preds.get(id(expr))
        if entry is None:
            fn = self.compiler.compile_pred(expr)
            self._compiled_preds[id(expr)] = entry = (expr, fn)
        return entry[1]

    # -- batch kernels (PR 8) ------------------------------------------------
    # Cached like the tuple closures, keyed by (id(expr), var).  When the
    # expression is not vector-covered the cached kernel applies the
    # tuple-wise closure per batch element and counts one
    # ``vector_fallbacks`` per batch, so uncovered forms are observable,
    # never silent.

    def batch_fn(self, expr: A.Expr, var: str) -> BatchKernel:
        """A batch kernel mapping rows (bound to ``var``) through ``expr``."""
        entry = self._batch_fns.get((id(expr), var))
        if entry is None:
            kernel = self.compiler.compile_batch(expr, var)
            if kernel is None:
                kernel = self._fallback_kernel(self.compiled(expr), var)
            self._batch_fns[(id(expr), var)] = entry = (expr, kernel)
        return entry[1]

    def batch_pred(self, expr: A.Expr, var: str) -> BatchKernel:
        """Predicate variant of :meth:`batch_fn` (:meth:`compiled_pred` semantics)."""
        entry = self._batch_preds.get((id(expr), var))
        if entry is None:
            kernel = self.compiler.compile_batch_pred(expr, var)
            if kernel is None:
                kernel = self._fallback_kernel(self.compiled_pred(expr), var)
            self._batch_preds[(id(expr), var)] = entry = (expr, kernel)
        return entry[1]

    def _fallback_kernel(self, row_fn: Callable, var: str) -> BatchKernel:
        stats = self.stats

        def kernel(rows: List[Value]) -> List[Value]:
            stats.vector_fallbacks += 1
            env: Dict[str, Value] = {}
            out = []
            for row in rows:
                env[var] = row
                out.append(row_fn(env))
            return out

        return kernel

    def eval(self, expr: A.Expr, env: Optional[Dict[str, Value]] = None) -> Value:
        return self.compiled(expr)(env if env is not None else {})


class PlanNode:
    """Base class of physical operators.

    Subclasses implement :meth:`iterate`; :meth:`execute` materializes it.
    Children are consumed through their :meth:`stream` /
    :meth:`stream_batches`, or through :meth:`_consume` (a declared
    pipeline break: materializes, counted in ``stats.pipeline_breaks``).
    """

    #: Short operator label used by ``explain``.
    label = "plan"

    #: Static pipeline-break marker rendered by ``explain`` (e.g. "builds
    #: right", "groups input"); empty for fully-streaming operators.
    break_note = ""

    #: Optimizer annotations: estimated output rows and cumulative cost,
    #: set by the cost-based planner and rendered by ``explain`` — ``None``
    #: under heuristic planning.
    est_rows: Optional[float] = None
    est_cost: Optional[float] = None

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        raise NotImplementedError

    def iterate_batches(self, rt: ExecRuntime) -> Iterator[Batch]:
        """Batch-at-a-time interface: yield columnar :class:`Batch` chunks.

        The default chunks this operator's own tuple ``iterate`` — correct
        for every operator by construction; the hot pipeline operators
        override it with native batch loops.
        """
        size = rt.batch_size or DEFAULT_BATCH_SIZE
        stats = rt.stats
        it = self.iterate(rt)
        while True:
            rows = list(islice(it, size))
            if not rows:
                return
            stats.batches_emitted += 1
            yield Batch(rows)

    def stream(self, rt: ExecRuntime) -> Iterator[Value]:
        """This operator's tuple stream as its consumer sees it: the
        operator edge, where the run's policy is applied (see the module
        docstring).  Both tests run once per operator *open*, never per
        row — a run with neither a deadline nor a recorder gets the raw
        ``iterate`` generator back; otherwise it is polled every 64 rows
        and/or metered."""
        it = self.iterate(rt)
        if rt.deadline is not None:
            it = _polled(it, rt.check_deadline, 64)
        if rt.trace is not None:
            it = rt.trace.wrap_iter(self, it)
        return it

    def stream_batches(self, rt: ExecRuntime) -> Iterator[Batch]:
        """Batch analogue of :meth:`stream`: polled once per batch."""
        it = self.iterate_batches(rt)
        if rt.deadline is not None:
            it = _polled(it, rt.check_deadline, 1)
        if rt.trace is not None:
            it = rt.trace.wrap_batches(self, it)
        return it

    def execute(self, rt: ExecRuntime) -> frozenset:
        """Drain this plan into its result set — the one drain the
        service, shipped fragments and every pipeline break call, one
        per mode.  A deadline-bound run drains the same plan in the same
        mode (its edges poll) and is checked once after the last row, so
        a result is never returned past its deadline."""
        if rt.batch_size:
            out = frozenset(
                chain.from_iterable(batch.rows for batch in self.stream_batches(rt))
            )
        else:
            out = frozenset(self.stream(rt))
        if rt.deadline is not None:
            rt.check_deadline()
        return out

    def _consume(self, child: "PlanNode", rt: ExecRuntime) -> frozenset:
        """A pipeline break: this operator needs the whole child result."""
        rt.stats.pipeline_breaks += 1
        return child.execute(rt)

    def children(self) -> Sequence["PlanNode"]:
        return ()

    def describe(self) -> str:
        return ""

    def explain(
        self,
        indent: str = "",
        *,
        annotate: Optional[Callable[["PlanNode"], str]] = None,
    ) -> str:
        """Render the physical tree.

        ``annotate`` is the one extension point for per-node suffixes:
        when given, ``annotate(node)`` replaces the static
        ``format_estimate`` text — EXPLAIN ANALYZE passes the trace
        recorder's est-vs-actual annotation through here rather than
        maintaining a second string-builder.
        """
        detail = self.describe()
        line = f"{indent}{self.label}" + (f" [{detail}]" if detail else "")
        if self.break_note:
            line += f" <{self.break_note}>"
        suffix = (
            annotate(self)
            if annotate is not None
            else format_estimate(self.est_rows, self.est_cost)
        )
        if suffix:
            line += f" {suffix}"
        parts = [line]
        parts.extend(
            child.explain(indent + "  ", annotate=annotate)
            for child in self.children()
        )
        return "\n".join(parts)

    def operators(self):
        yield self
        for child in self.children():
            yield from child.operators()


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class Scan(PlanNode):
    """Full extent scan — charges page I/O on paged stores.

    Streams page by page: a consumer that stops early (e.g. a semijoin
    probe that found its match) never touches the remaining pages.
    """

    label = "Scan"

    def __init__(self, extent: str) -> None:
        self.extent = extent

    def describe(self) -> str:
        return self.extent

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        source = rt.db.scan(self.extent) if hasattr(rt.db, "scan") else rt.db.extent(self.extent)
        yield from source

    def iterate_batches(self, rt: ExecRuntime) -> Iterator[Batch]:
        # native: slice the extent stream directly into chunks — no
        # per-tuple generator resumption between the store and the consumer
        size = rt.batch_size or DEFAULT_BATCH_SIZE
        stats = rt.stats
        # page-wise fast path (PR 8): a paged store hands whole page
        # record lists over (same I/O charges, bulk-counted); epoch views
        # refuse the probe so pinned reads stay on the snapshot path
        scan_pages = getattr(rt.db, "scan_pages", None)
        if scan_pages is not None:
            buf: List[Value] = []
            for records in scan_pages(self.extent):
                buf.extend(records)
                while len(buf) >= size:
                    stats.batches_emitted += 1
                    yield Batch(buf[:size])
                    buf = buf[size:]
            if buf:
                stats.batches_emitted += 1
                yield Batch(buf)
            return
        source = rt.db.scan(self.extent) if hasattr(rt.db, "scan") else rt.db.extent(self.extent)
        it = iter(source)
        while True:
            rows = list(islice(it, size))
            if not rows:
                return
            stats.batches_emitted += 1
            yield Batch(rows)

    def execute(self, rt: ExecRuntime) -> frozenset:
        # overrides the base wrapper to return the store's cached extent
        # frozenset directly instead of rebuilding a copy through iterate().
        # A traced run keeps the fast path's counter profile (this path
        # charges nothing) but still records the scan's actual rows.
        trace = rt.trace
        start = time.perf_counter() if trace is not None else 0.0
        if hasattr(rt.db, "scan"):
            result = frozenset(rt.db.scan(self.extent))
        else:
            result = rt.db.extent(self.extent)
        if trace is not None:
            trace.record_result(self, len(result), time.perf_counter() - start)
        return result


def _catalog_index(rt: ExecRuntime, extent: str, attr: str, index_name: str):
    """Resolve a registered index at runtime — shared when it matches the
    rows this run reads, healed or replaced by a private one when not.

    A :class:`~repro.storage.catalog.NamedIndex` is an immutable
    ``(index, source_rows)`` pair, fetched from the registry once; the run
    probes it only when ``rt.db.extent(extent) is named.source_rows``.
    Stores hand out a *fresh* ``frozenset`` whenever an extent changes, so
    that identity test detects staleness, including same-size
    replacements.  Notified write batches keep the shared index current
    (``Catalog.note_insert`` / ``note_delete``), so the mismatch cases are:

    * the run reads the **live head** (unpinned, or pinned to an epoch
      that still sees the extent's current value) and the index missed a
      change — ``set_extent``, a count-only notification, notifications
      that overtook each other: the index is rebuilt through the catalog,
      once, for every later reader;
    * the run is pinned to a **historical** epoch (or a write landed
      between the check and the rebuild): it builds a private per-run
      index over its own rows.  A historical read never writes to the
      catalog.
    """
    if rt.catalog is None:
        raise PlanError(
            f"plan uses index {index_name!r} but the runtime has no catalog"
        )
    named = rt.catalog.index_named(index_name)
    if named is not None and (named.extent, named.attr) != (extent, attr):
        named = None  # the name was re-pointed since planning; re-resolve
    if named is None:
        named = rt.catalog.index_on(extent, attr)
    if named is None:
        raise PlanError(f"index {index_name!r} on {extent}.{attr} is not registered")
    if not hasattr(rt.db, "extent"):
        return named
    rows = rt.db.extent(extent)
    if rows is named.source_rows:
        return named
    pinned = rt.pinned_epoch is not None
    if not pinned or rt.db.extent_current_at(extent, rt.pinned_epoch):
        named = rt.catalog.create_index(named.extent, named.attr, named.name, named.multi)
        if not pinned or named.source_rows is rows:
            return named
    cache_key = (extent, named.attr, named.multi)
    transient = rt._transient_indexes.get(cache_key)
    if transient is None:
        from repro.storage.index import HashIndex

        attr_name = named.attr
        transient = HashIndex(rows, key=lambda row: row[attr_name], multi=named.multi)
        rt._transient_indexes[cache_key] = transient
    return transient


class IndexScan(PlanNode):
    """Selection via a registered hash index: ``σ[x : x.attr = k](EXTENT)``
    becomes one probe of the persistent index instead of a full scan.

    ``key_expr`` must be closed (no free variables) — it is evaluated once.
    Fully streaming, no pipeline break, and the extent's non-matching pages
    are never touched.
    """

    label = "IndexScan"

    def __init__(self, extent: str, attr: str, key_expr: A.Expr, index_name: str) -> None:
        self.extent = extent
        self.attr = attr
        self.key_expr = key_expr
        self.index_name = index_name

    def describe(self) -> str:
        from repro.adl.pretty import pretty

        return f"{self.extent}.{self.attr} = {pretty(self.key_expr)} via {self.index_name}"

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        index = _catalog_index(rt, self.extent, self.attr, self.index_name)
        key = rt.eval(self.key_expr)
        rt.stats.index_probes += 1
        for row in index.lookup(key):
            rt.stats.tuples_visited += 1
            yield row


class EvalExpr(PlanNode):
    """Fallback: evaluate an arbitrary ADL expression with the interpreter.

    This is where non-set-oriented residue executes — by nested loops,
    exactly as the paper's option 4 prescribes.
    """

    label = "Eval"

    def __init__(self, expr: A.Expr) -> None:
        self.expr = expr

    def describe(self) -> str:
        from repro.adl.pretty import pretty

        text = pretty(self.expr)
        return text if len(text) <= 60 else text[:57] + "..."

    def _value(self, rt: ExecRuntime) -> frozenset:
        value = rt.eval(self.expr)
        if not isinstance(value, frozenset):
            raise PlanError(f"plan leaf produced a non-set value: {value!r}")
        return value

    def execute(self, rt: ExecRuntime) -> frozenset:
        trace = rt.trace
        start = time.perf_counter() if trace is not None else 0.0
        value = self._value(rt)
        if trace is not None:
            trace.record_result(self, len(value), time.perf_counter() - start)
        return value

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        # raw value here: when traced, the stream() wrapper does the
        # metering, so routing through execute() would double-count
        yield from self._value(rt)


# ---------------------------------------------------------------------------
# Pipeline operators
# ---------------------------------------------------------------------------


class Filter(PlanNode):
    label = "Filter"

    def __init__(self, var: str, pred: A.Expr, child: PlanNode) -> None:
        self.var = var
        self.pred = pred
        self.child = child

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        from repro.adl.pretty import pretty

        return f"{self.var}: {pretty(self.pred)}"

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        pred = rt.compiled_pred(self.pred)
        env: Dict[str, Value] = {}
        for item in self.child.stream(rt):
            rt.stats.tuples_visited += 1
            env[self.var] = item
            if pred(env):
                yield item

    def iterate_batches(self, rt: ExecRuntime) -> Iterator[Batch]:
        kernel = rt.batch_pred(self.pred, self.var)
        stats = rt.stats
        for batch in self.child.stream_batches(rt):
            rows = batch.rows
            stats.tuples_visited += len(rows)
            mask = kernel(rows)
            kept = list(compress(rows, mask))
            if kept:
                stats.batches_emitted += 1
                yield Batch(kept)


class MapOp(PlanNode):
    label = "Map"

    def __init__(self, var: str, body: A.Expr, child: PlanNode) -> None:
        self.var = var
        self.body = body
        self.child = child

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        from repro.adl.pretty import pretty

        return f"{self.var}: {pretty(self.body)}"

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        body = rt.compiled(self.body)
        env: Dict[str, Value] = {}
        for item in self.child.stream(rt):
            rt.stats.tuples_visited += 1
            env[self.var] = item
            yield body(env)

    def iterate_batches(self, rt: ExecRuntime) -> Iterator[Batch]:
        kernel = rt.batch_fn(self.body, self.var)
        stats = rt.stats
        for batch in self.child.stream_batches(rt):
            rows = batch.rows
            stats.tuples_visited += len(rows)
            stats.batches_emitted += 1
            yield Batch(kernel(rows))


class ProjectOp(PlanNode):
    label = "Project"

    def __init__(self, attrs: Tuple[str, ...], child: PlanNode) -> None:
        self.attrs = attrs
        self.child = child

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return ", ".join(self.attrs)

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        for item in self.child.stream(rt):
            rt.stats.tuples_visited += 1
            yield item.subscript(self.attrs)

    def iterate_batches(self, rt: ExecRuntime) -> Iterator[Batch]:
        attrs = self.attrs
        stats = rt.stats
        for batch in self.child.stream_batches(rt):
            rows = batch.rows
            stats.tuples_visited += len(rows)
            stats.batches_emitted += 1
            yield Batch([item.subscript(attrs) for item in rows])


class RenameOp(PlanNode):
    label = "Rename"

    def __init__(self, renames: Tuple[Tuple[str, str], ...], child: PlanNode) -> None:
        self.renames = renames
        self.child = child

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return ", ".join(f"{a}->{b}" for a, b in self.renames)

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        for item in self.child.stream(rt):
            fields = dict(item)
            for old, new in self.renames:
                if old not in fields:
                    raise MissingAttributeError(
                        f"rename of missing attribute {old!r}; "
                        f"attributes are {sorted(fields)}"
                    )
                fields[new] = fields.pop(old)
            yield trusted_tuple(fields)


class UnnestOp(PlanNode):
    label = "Unnest"

    def __init__(self, attr: str, child: PlanNode) -> None:
        self.attr = attr
        self.child = child

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return self.attr

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        for item in self.child.stream(rt):
            members = item[self.attr]
            rest = item.drop((self.attr,))
            for member in members:
                rt.stats.tuples_visited += 1
                yield concat(member, rest)


class NestOp(PlanNode):
    label = "Nest"
    break_note = "groups input"

    def __init__(self, attrs: Tuple[str, ...], as_attr: str, child: PlanNode) -> None:
        self.attrs = attrs
        self.as_attr = as_attr
        self.child = child

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return f"{', '.join(self.attrs)} -> {self.as_attr}"

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        groups: Dict[VTuple, set] = {}
        for item in self._consume(self.child, rt):
            rt.stats.tuples_visited += 1
            key = item.drop(self.attrs)
            groups.setdefault(key, set()).add(item.subscript(self.attrs))
        for key, group in groups.items():
            yield key.update_except({self.as_attr: frozenset(group)})

    def iterate_batches(self, rt: ExecRuntime) -> Iterator[Batch]:
        """Native batch path (PR 9): bulk key-kernel group build.

        The grouping key's attributes are fixed by the first input row, so
        each key column is extracted with one PR-8 ``AttrAccess`` batch
        kernel call per batch (C-speed column pulls) and rows are grouped
        under plain value tuples — no per-row ``drop`` allocation.  Rows
        whose attribute set differs from the first row's (possible only
        for heterogeneous inputs) fall back to the exact tuple-engine
        grouping; their keys differ from every uniform key by
        construction, so the two group maps never alias.
        """
        size = rt.batch_size or DEFAULT_BATCH_SIZE
        stats = rt.stats
        stats.pipeline_breaks += 1
        nest_attrs = self.attrs
        groups: Dict[Tuple[Value, ...], set] = {}  # uniform-shape rows
        odd_groups: Dict[VTuple, set] = {}  # off-shape rows (exact path)
        shape = None
        key_attrs: Tuple[str, ...] = ()
        kernels: List[BatchKernel] = []
        for batch in self.child.stream_batches(rt):
            rows = batch.rows
            stats.tuples_visited += len(rows)
            if shape is None and rows:
                shape = rows[0].attributes
                key_attrs = tuple(
                    a for a in sorted(shape) if a not in nest_attrs
                )
                kernels = [
                    rt.batch_fn(A.AttrAccess(A.Var("_group"), a), "_group")
                    for a in key_attrs
                ]
            uniform = all(item.attributes == shape for item in rows)
            if kernels and uniform:
                cols = [kern(rows) for kern in kernels]
                keys = list(zip(*cols)) if cols else [()] * len(rows)
                for item, key in zip(rows, keys):
                    groups.setdefault(key, set()).add(
                        item.subscript(nest_attrs)
                    )
                continue
            for item in rows:
                if item.attributes == shape:
                    key = tuple(item[a] for a in key_attrs)
                    groups.setdefault(key, set()).add(
                        item.subscript(nest_attrs)
                    )
                else:
                    vkey = item.drop(nest_attrs)
                    odd_groups.setdefault(vkey, set()).add(
                        item.subscript(nest_attrs)
                    )
        as_attr = self.as_attr
        out: List[Value] = []
        for key, group in groups.items():
            fields = dict(zip(key_attrs, key))
            fields[as_attr] = frozenset(group)
            out.append(trusted_tuple(fields))
            if len(out) >= size:
                stats.batches_emitted += 1
                yield Batch(out)
                out = []
        for vkey, group in odd_groups.items():
            out.append(vkey.update_except({as_attr: frozenset(group)}))
            if len(out) >= size:
                stats.batches_emitted += 1
                yield Batch(out)
                out = []
        if out:
            stats.batches_emitted += 1
            yield Batch(out)


class FlattenOp(PlanNode):
    label = "Flatten"

    def __init__(self, child: PlanNode) -> None:
        self.child = child

    def children(self):
        return (self.child,)

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        for member in self.child.stream(rt):
            yield from member


class SetOp(PlanNode):
    """Union / intersection / difference.

    Union streams both sides; intersect/difference stream the left but must
    materialize the right operand (the membership test needs all of it).
    """

    def __init__(self, kind: str, left: PlanNode, right: PlanNode) -> None:
        if kind not in ("union", "intersect", "difference"):
            raise PlanError(f"unknown set operation {kind!r}")
        self.kind = kind
        self.left = left
        self.right = right
        self.label = f"SetOp({kind})"
        if kind != "union":
            self.break_note = "materializes right"

    def children(self):
        return (self.left, self.right)

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        if self.kind == "union":
            yield from self.left.stream(rt)
            yield from self.right.stream(rt)
            return
        right = self._consume(self.right, rt)
        if self.kind == "intersect":
            for item in self.left.stream(rt):
                if item in right:
                    yield item
        else:
            for item in self.left.stream(rt):
                if item not in right:
                    yield item


# ---------------------------------------------------------------------------
# Join family — one emission loop, four ways to open it
# ---------------------------------------------------------------------------

JOIN_KINDS = ("join", "semijoin", "antijoin", "outerjoin", "nestjoin")


def _join_tail(
    kind: str,
    x: VTuple,
    matched: bool,
    group,
    null_pad: VTuple,
    as_attr: Optional[str],
) -> Optional[Value]:
    """The per-left-tuple emission after match iteration, shared by the
    tuple loop (:meth:`_JoinNode.iterate`) and the hash join's batch
    probe: semijoin/antijoin emit the bare left tuple on (no) match,
    outerjoin null-pads dangling tuples, nestjoin always attaches its
    collected group.  ``None`` means "emit nothing" (plain joins already
    emitted pairs during iteration)."""
    if kind == "semijoin":
        return x if matched else None
    if kind == "antijoin":
        return None if matched else x
    if kind == "outerjoin":
        return None if matched else concat(x, null_pad)
    if kind == "nestjoin":
        return x.update_except({as_attr: frozenset(group)})
    return None


#: What a strategy's ``_open`` hands the emission loop: the operand to
#: stream, the variable its rows bind, the variable candidates bind, and
#: ``candidates(row)`` — the rows that may pair with ``row``.
Opened = Tuple[PlanNode, str, str, Callable[[VTuple], Iterable[VTuple]]]


class _JoinNode(PlanNode):
    """The join family's *kind* semantics, written once.

    The paper separates what a join means (join / semijoin / antijoin /
    outerjoin / nestjoin — Table 3's dangling-tuple and empty-set
    behaviour) from how it is evaluated (Section 7's "many different
    ways").  This base owns the first: the shared fields, the kind check
    and :meth:`iterate`, the one tuple-mode loop that applies the
    residual, emits ``result(x, y)`` / ``x ∘ y`` pairs, stops a semijoin
    at its first match, collects a nestjoin's group and null-pads an
    outerjoin's dangling tuples.  A subclass is one *strategy* and
    supplies only :meth:`_open` — what it builds, and where the candidate
    partners of one streamed row come from, with the strategy's own work
    counters.  (Underscore-named: never planned or instantiated itself.)
    """

    def __init__(
        self,
        kind: str,
        lvar: str,
        rvar: str,
        left: PlanNode,
        right: Optional[PlanNode],
        as_attr: Optional[str],
        result: Optional[A.Expr],
        right_attrs: Tuple[str, ...],
    ) -> None:
        if kind not in JOIN_KINDS:
            raise PlanError(f"unknown join kind {kind!r}")
        self.kind = kind
        self.lvar = lvar
        self.rvar = rvar
        self.left = left
        self.right = right
        self.as_attr = as_attr
        self.result = result
        self.right_attrs = right_attrs

    def children(self):
        return (self.left, self.right)

    def _emit_note(self) -> str:
        """``describe()`` suffix of an *emitting* join: a plain ``join``
        whose ``result`` is set emits ``result(x, y)`` per matching pair
        instead of ``x ∘ y`` — how the planner runs a flat from-clause
        select (see :func:`repro.engine.cost.flat_join`)."""
        if self.kind != "join" or self.result is None:
            return ""
        from repro.adl.pretty import pretty

        return f" ; emits {pretty(self.result)}"

    def _open(self, rt: ExecRuntime, env: Dict[str, Value]) -> Opened:
        """Strategy hook: do the build work (counted) and return the
        :data:`Opened` description.  ``env`` is the loop's environment —
        the streamed row is already bound in it when ``candidates`` runs."""
        raise NotImplementedError

    def _residual(self, rt: ExecRuntime) -> Optional[Callable]:
        """The per-candidate predicate, ``None`` when trivially true."""
        if self.residual == A.Literal(True):
            return None
        return rt.compiled_pred(self.residual)

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        env: Dict[str, Value] = {}
        outer, outer_var, inner_var, candidates = self._open(rt, env)
        residual = self._residual(rt)
        result = rt.compiled(self.result) if self.result is not None else None
        null_pad = VTuple({a: None for a in self.right_attrs})
        kind, lvar, rvar, as_attr = self.kind, self.lvar, self.rvar, self.as_attr
        emits_pairs = kind in ("join", "outerjoin")
        stats = rt.stats
        # ``outer`` is the left operand except for a plain join hashed on
        # its left (orientation-independent output, no tail), so ``x`` is
        # the left tuple wherever the tail needs it
        for x in outer.stream(rt):
            env[outer_var] = x
            matched = False
            group = set() if kind == "nestjoin" else ()
            for y in candidates(x):
                env[inner_var] = y
                if residual is not None and not residual(env):
                    continue
                matched = True
                if emits_pairs:
                    stats.output_tuples += 1
                    yield concat(env[lvar], env[rvar]) if result is None else result(env)
                elif kind == "semijoin":
                    break
                elif kind == "nestjoin":
                    group.add(result(env))
            tail = _join_tail(kind, x, matched, group, null_pad, as_attr)
            if tail is not None:
                stats.output_tuples += 1
                yield tail


class NestedLoopJoin(_JoinNode):
    """Nested loops: every right tuple is a candidate for every left one.

    The baseline the paper wants to escape; kept as the fallback for
    non-equi predicates and as the comparison point in benchmarks.  The
    left operand streams; the right operand is materialized once (it is
    re-iterated per left tuple, one ``tuples_visited`` per pair looked at).
    """

    break_note = "materializes right"

    def __init__(
        self,
        kind: str,
        lvar: str,
        rvar: str,
        pred: A.Expr,
        left: PlanNode,
        right: PlanNode,
        as_attr: Optional[str] = None,
        result: Optional[A.Expr] = None,
        right_attrs: Tuple[str, ...] = (),
    ) -> None:
        super().__init__(kind, lvar, rvar, left, right, as_attr, result, right_attrs)
        self.pred = pred
        self.label = f"NestedLoop({kind})"

    def describe(self) -> str:
        from repro.adl.pretty import pretty

        return f"{self.lvar},{self.rvar}: {pretty(self.pred)}" + self._emit_note()

    def _residual(self, rt: ExecRuntime) -> Callable:
        # the whole predicate, evaluated (and counted) on every pair
        return rt.compiled_pred(self.pred)

    def _open(self, rt: ExecRuntime, env: Dict[str, Value]) -> Opened:
        right = self._consume(self.right, rt)
        stats = rt.stats
        # the O(|L|*|R|) loop is the engine's worst case and its inner
        # loop walks a list, not an edge — check the deadline once per
        # outer tuple (hoisted: free when none is set)
        check = rt.check_deadline if rt.deadline is not None else None

        def candidates(x: VTuple) -> Iterator[VTuple]:
            if check is not None:
                check()
            for y in right:
                stats.tuples_visited += 1
                yield y

        return self.left, self.lvar, self.rvar, candidates


class HashJoinBase(_JoinNode):
    """Hash strategy: build a hash table on one operand's key expressions,
    probe with the other's; a residual predicate filters candidate pairs.
    The build side is the pipeline break; the probe side streams.

    ``build_side`` defaults to ``"right"``.  The cost-based planner may
    flip it to ``"left"`` when the left operand is the smaller input —
    only for the symmetric plain ``join`` kind, since
    semijoin/antijoin/outerjoin/nestjoin semantics are anchored to the
    left operand surviving tuple-at-a-time.  Tuple mode runs the shared
    emission loop with the operand roles swapped; batch mode
    (:meth:`iterate_batches`) is this class's own native probe.
    """

    def __init__(
        self,
        kind: str,
        lvar: str,
        rvar: str,
        left_keys: Tuple[A.Expr, ...],
        right_keys: Tuple[A.Expr, ...],
        residual: A.Expr,
        left: PlanNode,
        right: PlanNode,
        as_attr: Optional[str] = None,
        result: Optional[A.Expr] = None,
        right_attrs: Tuple[str, ...] = (),
        build_side: str = "right",
    ) -> None:
        super().__init__(kind, lvar, rvar, left, right, as_attr, result, right_attrs)
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError("hash join needs matching, non-empty key lists")
        if build_side not in ("left", "right"):
            raise PlanError(f"unknown build side {build_side!r}")
        if build_side == "left" and kind != "join":
            raise PlanError(f"build side 'left' requires a symmetric join, not {kind!r}")
        self.build_side = build_side
        self.break_note = f"builds {build_side}"
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.label = f"HashJoin({kind})"

    def describe(self) -> str:
        from repro.adl.pretty import pretty

        keys = " ∧ ".join(
            f"{pretty(l)} = {pretty(r)}" for l, r in zip(self.left_keys, self.right_keys)
        )
        if self.residual != A.Literal(True):
            keys += f" ; residual {pretty(self.residual)}"
        return keys + self._emit_note()

    def _open(self, rt: ExecRuntime, env: Dict[str, Value]) -> Opened:
        left = (self.left, self.left_keys, self.lvar)
        right = (self.right, self.right_keys, self.rvar)
        # only the symmetric plain join ever builds left
        (build, build_keys, build_var), (probe, probe_keys, probe_var) = (
            (left, right) if self.build_side == "left" else (right, left)
        )
        table: Dict[Value, List[VTuple]] = {}
        key_fns = [rt.compiled(k) for k in build_keys]
        stats = rt.stats
        for row in self._consume(build, rt):
            env[build_var] = row
            key = tuple(fn(env) for fn in key_fns)
            table.setdefault(key, []).append(row)
            stats.hash_inserts += 1
        probe_fns = [rt.compiled(k) for k in probe_keys]
        lookup = table.get

        def candidates(x: VTuple) -> Sequence[VTuple]:
            stats.tuples_visited += 1
            key = tuple(fn(env) for fn in probe_fns)
            stats.hash_probes += 1
            return lookup(key, ())

        return probe, probe_var, build_var, candidates

    def iterate_batches(self, rt: ExecRuntime) -> Iterator[Batch]:
        lvar, rvar, as_attr = self.lvar, self.rvar, self.as_attr
        # the probe operand streams in batches against the built table;
        # only the symmetric plain join ever builds left
        if self.build_side == "left":
            table = self._build_batched(rt, self.left, self.left_keys, lvar)
            probe, probe_keys, probe_var, build_var = self.right, self.right_keys, rvar, lvar
        else:
            table = self._build_batched(rt, self.right, self.right_keys, rvar)
            probe, probe_keys, probe_var, build_var = self.left, self.left_keys, lvar, rvar
        key_kernels = [rt.batch_fn(k, probe_var) for k in probe_keys]
        trivial_residual = self.residual == A.Literal(True)
        residual = None if trivial_residual else rt.compiled_pred(self.residual)
        result = rt.compiled(self.result) if self.result is not None else None
        null_pad = VTuple({a: None for a in self.right_attrs})
        env: Dict[str, Value] = {}
        kind = self.kind
        stats = rt.stats
        empty = ()
        lookup = table.get
        for batch in probe.stream_batches(rt):
            rows = batch.rows
            stats.tuples_visited += len(rows)
            stats.hash_probes += len(rows)
            cols = [kern(rows) for kern in key_kernels]
            # single-key joins hash the bare key value (the build side
            # below agrees) — no per-row 1-tuple allocation
            keys = cols[0] if len(cols) == 1 else list(zip(*cols))
            if residual is None and kind == "semijoin":
                out = list(compress(rows, map(table.__contains__, keys)))
                stats.output_tuples += len(out)
                if out:
                    stats.batches_emitted += 1
                    yield Batch(out)
                continue
            if residual is None and kind == "antijoin":
                out = [x for x, k in zip(rows, keys) if k not in table]
                stats.output_tuples += len(out)
                if out:
                    stats.batches_emitted += 1
                    yield Batch(out)
                continue
            out: List[Value] = []
            append = out.append
            if kind == "join":
                # emitting probe: pairs go straight into the output batch;
                # a dangling probe row costs one dict miss, allocates nothing
                for row, key in zip(rows, keys):
                    bucket = lookup(key)
                    if bucket is None:
                        continue
                    env[probe_var] = row
                    for other in bucket:
                        env[build_var] = other
                        if residual is None or residual(env):
                            append(
                                concat(env[lvar], env[rvar])
                                if result is None
                                else result(env)
                            )
                if out:
                    stats.output_tuples += len(out)
                    stats.batches_emitted += 1
                    yield Batch(out)
                continue
            for x, key in zip(rows, keys):
                bucket = table.get(key, empty)
                if kind == "nestjoin":
                    group = set()
                    if bucket:
                        env[lvar] = x
                        for y in bucket:
                            env[rvar] = y
                            if residual is None or residual(env):
                                group.add(result(env))
                    stats.output_tuples += 1
                    append(x.update_except({as_attr: frozenset(group)}))
                    continue
                matched = False
                if bucket:
                    env[lvar] = x
                    for y in bucket:
                        env[rvar] = y
                        if residual is None or residual(env):
                            matched = True
                            if kind == "outerjoin":
                                stats.output_tuples += 1
                                append(concat(x, y))
                            elif kind == "semijoin":
                                break
                tail = _join_tail(kind, x, matched, (), null_pad, as_attr)
                if tail is not None:
                    stats.output_tuples += 1
                    append(tail)
            if out:
                stats.batches_emitted += 1
                yield Batch(out)

    def _build_batched(
        self, rt: ExecRuntime, child: PlanNode, key_exprs: Tuple[A.Expr, ...], var: str
    ) -> Dict[Value, List[VTuple]]:
        """Batched build: one bulk key-kernel pass per key expression over
        the materialized build input, instead of one closure call per row
        and key."""
        table: Dict[Value, List[VTuple]] = {}
        rows = list(self._consume(child, rt))
        if not rows:
            return table
        kernels = [rt.batch_fn(k, var) for k in key_exprs]
        cols = [kern(rows) for kern in kernels]
        rt.stats.hash_inserts += len(rows)
        if len(cols) == 1:
            # bare keys, matching the probe side's single-key convention
            for y, k in zip(rows, cols[0]):
                table.setdefault(k, []).append(y)
        else:
            for y, key in zip(rows, zip(*cols)):
                table.setdefault(key, []).append(y)
        return table


def _set_members(value: Value) -> frozenset:
    if not isinstance(value, frozenset):
        raise EvaluationError("membership join container is not a set")
    return value


class MembershipHashJoin(_JoinNode):
    """Hash strategy for set-membership predicates like ``p[pid] ∈ s.parts``.

    Two orientations:

    * ``probe_side="left-set"`` — the left tuple carries the set; the hash
      table maps the right element expression to right tuples; every member
      of the left set probes the table (Example Queries 5 and 6);
    * ``probe_side="right-set"`` — the right tuple carries the set; the
      table is *multi-keyed* on the set members and the left element
      expression probes it.

    Either way the right operand is the build side (pipeline break) and the
    left streams.
    """

    break_note = "builds right"

    def __init__(
        self,
        kind: str,
        lvar: str,
        rvar: str,
        element: A.Expr,
        container: A.Expr,
        probe_side: str,
        residual: A.Expr,
        left: PlanNode,
        right: PlanNode,
        as_attr: Optional[str] = None,
        result: Optional[A.Expr] = None,
        right_attrs: Tuple[str, ...] = (),
    ) -> None:
        super().__init__(kind, lvar, rvar, left, right, as_attr, result, right_attrs)
        if probe_side not in ("left-set", "right-set"):
            raise PlanError(f"unknown probe side {probe_side!r}")
        self.element = element
        self.container = container
        self.probe_side = probe_side
        self.residual = residual
        self.label = f"MembershipHashJoin({kind})"

    def describe(self) -> str:
        from repro.adl.pretty import pretty

        return (
            f"{pretty(self.element)} ∈ {pretty(self.container)} [{self.probe_side}]"
            + self._emit_note()
        )

    def _open(self, rt: ExecRuntime, env: Dict[str, Value]) -> Opened:
        element = rt.compiled(self.element)
        container = rt.compiled(self.container)
        left_set = self.probe_side == "left-set"
        table: Dict[Value, List[VTuple]] = {}
        stats = rt.stats
        for y in self._consume(self.right, rt):
            env[self.rvar] = y
            for key in (element(env),) if left_set else _set_members(container(env)):
                table.setdefault(key, []).append(y)
                stats.hash_inserts += 1
        lookup = table.get

        def probe_members(x: VTuple) -> List[VTuple]:
            # one probe per member of the left tuple's set; a right tuple
            # reached through several members is a candidate once
            stats.tuples_visited += 1
            seen: List[VTuple] = []
            marked = set()
            for member in _set_members(container(env)):
                stats.hash_probes += 1
                for y in lookup(member, ()):
                    if id(y) not in marked:
                        marked.add(id(y))
                        seen.append(y)
            return seen

        def probe_element(x: VTuple) -> Sequence[VTuple]:
            stats.tuples_visited += 1
            key = element(env)
            stats.hash_probes += 1
            return lookup(key, ())

        candidates = probe_members if left_set else probe_element
        return self.left, self.lvar, self.rvar, candidates


class IndexNestedLoopJoin(_JoinNode):
    """Index strategy: probe a registered persistent index on the right
    extent's join attribute instead of building a transient hash table —
    one of the paper's Section 6 join strategies the rewrite to joins
    makes available.

    The left operand streams; each tuple evaluates ``left_key`` and looks
    the value up in the catalog index on ``extent.attr``.  There is **no
    pipeline break and no build phase**: the right extent is never scanned,
    which is exactly the win over a hash join when the probe side is small
    and the indexed side is large.  ``residual`` filters candidate pairs
    (extra equi conjuncts, membership conjuncts, pushed-down right-side
    filters).
    """

    def __init__(
        self,
        kind: str,
        lvar: str,
        rvar: str,
        left_key: A.Expr,
        extent: str,
        attr: str,
        index_name: str,
        residual: A.Expr,
        left: PlanNode,
        as_attr: Optional[str] = None,
        result: Optional[A.Expr] = None,
        right_attrs: Tuple[str, ...] = (),
    ) -> None:
        # no right child: the index stands in for the right operand
        super().__init__(kind, lvar, rvar, left, None, as_attr, result, right_attrs)
        self.left_key = left_key
        self.extent = extent
        self.attr = attr
        self.index_name = index_name
        self.residual = residual
        self.label = f"IndexNLJoin({kind})"

    def children(self):
        return (self.left,)

    def describe(self) -> str:
        from repro.adl.pretty import pretty

        text = (
            f"{pretty(self.left_key)} -> {self.extent}.{self.attr} "
            f"via {self.index_name}"
        )
        if self.residual != A.Literal(True):
            text += f" ; residual {pretty(self.residual)}"
        return text + self._emit_note()

    def _open(self, rt: ExecRuntime, env: Dict[str, Value]) -> Opened:
        index = _catalog_index(rt, self.extent, self.attr, self.index_name)
        key_fn = rt.compiled(self.left_key)
        stats = rt.stats

        def candidates(x: VTuple) -> Iterable[VTuple]:
            stats.tuples_visited += 1
            stats.index_probes += 1
            return index.lookup(key_fn(env))

        return self.left, self.lvar, self.rvar, candidates


class CartesianProduct(PlanNode):
    label = "CartesianProduct"
    break_note = "materializes right"

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        right = self._consume(self.right, rt)
        for x in self.left.stream(rt):
            for y in right:
                rt.stats.tuples_visited += 1
                yield concat(x, y)


class DivisionOp(PlanNode):
    """Hash-grouped relational division."""

    label = "Division"
    break_note = "groups both inputs"

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        left = self._consume(self.left, rt)
        right = self._consume(self.right, rt)
        if not left:
            return
        divisor_attrs: Optional[frozenset] = None
        for y in right:
            divisor_attrs = y.attributes
            break
        if divisor_attrs is None:
            yield from left
            return
        groups: Dict[VTuple, set] = {}
        for item in left:
            rt.stats.tuples_visited += 1
            key = item.drop(divisor_attrs)
            groups.setdefault(key, set()).add(item.subscript(divisor_attrs))
        for key, seen in groups.items():
            if seen >= right:
                yield key


class MaterializeOp(PlanNode):
    """The assembly implementation of the materialize operator ([BlMG93]).

    Collects the oids referenced by a whole batch of tuples, fetches them
    page-clustered (:meth:`Database.fetch_many` charges each page once),
    then attaches the objects.  Falls back to uncounted logical deref on
    stores without paging.  Inherently a pipeline break: the batch *is*
    the optimization.
    """

    label = "Materialize(assembly)"
    break_note = "batches oid fetches"

    def __init__(self, attr: str, as_attr: str, class_name: str, child: PlanNode) -> None:
        self.attr = attr
        self.as_attr = as_attr
        self.class_name = class_name
        self.child = child

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return f"{self.attr} -> {self.as_attr} : {self.class_name}"

    def iterate(self, rt: ExecRuntime) -> Iterator[Value]:
        rows = list(self._consume(self.child, rt))
        all_oids: List = []
        shapes: List[Tuple[VTuple, object]] = []
        for row in rows:
            ref = row[self.attr]
            if isinstance(ref, frozenset):
                members = sorted(ref, key=lambda o: (o.class_name, o.number))
                shapes.append((row, members))
                all_oids.extend(members)
            else:
                shapes.append((row, ref))
                all_oids.append(ref)
        rt.stats.oid_derefs += len(all_oids)
        if hasattr(rt.db, "fetch_many"):
            fetched = rt.db.fetch_many(all_oids)
        else:
            fetched = [rt.db.deref(oid) for oid in all_oids]
        objects = dict(zip(all_oids, fetched))
        for row, ref in shapes:
            if isinstance(ref, list):
                attached: Value = frozenset(objects[oid] for oid in ref)
            else:
                attached = objects[ref]
            yield row.update_except({self.as_attr: attached})
