"""The query service: one database, many sessions, amortized optimization.

The ROADMAP's north star is "heavy traffic from millions of users"; PRs
1–3 built a fast *single-shot* pipeline (parse → rewrite → DP join order →
cost-based physical plan → streaming execution) that pays the full
optimization tax on every call and supports exactly one caller.  This
module adds the missing layer:

* :class:`QueryService` owns a database + catalog and serves many logical
  :class:`Session`\\ s concurrently under one set of admission limits;
* **prepared statements** (``$name`` placeholders, see
  :mod:`repro.service.prepared`) bind parameters at execution time, so
  repeated query *shapes* share one plan;
* the **parameterized plan cache** (:mod:`repro.service.cache`) keys on
  normalized shape + :attr:`Catalog.version`, so repeated queries skip
  the expensive rewrite/joinorder/planning phases and go straight to the
  compiled physical plan (raw-text executions still parse once per call
  to compute the shape key; prepared statements skip that too), and
  ``analyze()`` / ``create_index()`` invalidate every cached plan at the
  next lookup;
* **admission control**: at most ``max_in_flight`` queries execute
  concurrently and at most ``queue_depth`` more may wait; beyond that
  :class:`~repro.datamodel.errors.AdmissionError` pushes back instead of
  letting the queue grow without bound;
* **snapshot isolation** (PR 7): every execution pins the store's
  visibility epoch *at submission* and runs against an
  :class:`~repro.storage.store.EpochView` of that epoch, so a query
  reading several extents while writers interleave still observes one
  consistent multi-extent state — including inside shipped fragments,
  where the epoch rides the PR-5 contract next to the ``$param``
  bindings.  :meth:`Session.begin_snapshot` extends the same pin across
  several queries (repeatable reads at session granularity);
* **overload shedding** (PR 7): a queued query whose wait exceeds
  ``queue_wait_s`` is shed with
  :class:`~repro.datamodel.errors.OverloadError` (carrying a
  retry-after hint) instead of executing arbitrarily late, and
  ``session_max_in_flight`` caps any one session's outstanding
  queries so a single hot client cannot starve the rest.  Every shed,
  pin and reclaim event is counted in :meth:`QueryService.stats` — PR
  6's "every event is counted, never silent", applied to admission.

Who runs a query: :meth:`Session.execute` runs it **on the caller's
thread** — admission, then one of the ``max_in_flight`` execution slots
(waiting for it at most until the query's ``timeout`` / the service's
``queue_wait_s``), then the plan, then release; :meth:`Session.execute_async`
is the *same* admit → slot → run → release sequence with the run handed to
the worker pool, so ``max_workers`` is the number of threads serving
``execute_async`` and nothing else.  Both drivers draw on the same slots,
the same outstanding bound and the same counters.

Isolation contract: *all mutable execution state is exclusively owned for
the duration of one execution*.  Every query run owns one
:class:`~repro.engine.plan.ExecRuntime` (hence its own
:class:`~repro.engine.stats.Stats`, interpreter, compiler, closure caches,
parameter bindings and epoch view) from checkout to the end of the run, and
no other run can reach it meanwhile.  Between runs an idle runtime waits on
its :class:`CachedPlan`'s free-list with its compiled closures and batch
kernels intact and nothing else: a clean run releases it (counters,
bindings, fault events, transient indexes, cached columns, recorder) and
the next run of that plan rebinds it in place (bindings, deadline, epoch,
the ``analyze=True`` / ``REPRO_TRACE`` recorder) instead of recompiling.
A run that raised drops its runtime.  The shared pieces — the database
extents, catalog snapshots, cached plan trees — are immutable or
internally locked.  That is what makes "8 concurrent sessions return
exactly the serial results" hold by construction; the
epoch pin extends it from "no shared mutable state" to "no observable
intermediate state" under concurrent writers.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.datamodel.errors import (
    AdmissionError,
    OverloadError,
    QueryTimeoutError,
    ServiceError,
)
from repro.datamodel.values import Value
from repro.engine.plan import DEFAULT_BATCH_SIZE, ExecRuntime
from repro.engine.planner import plan_query
from repro.engine.stats import Stats
from repro.obs import (
    MetricsRegistry,
    MisestimateStore,
    SlowQueryLog,
    TraceRecorder,
    misestimate,
)
from repro.rewrite.strategy import optimize
from repro.service.cache import CachedPlan, PlanCache
from repro.service.prepared import (
    PreparedStatement,
    check_bindings,
    normalize_shape,
    schema_fingerprint,
)
from repro.shard.executor import COUNTERS as PARALLEL_COUNTERS, check_mode
from repro.shard.nodes import Exchange
from repro.storage.store import EpochView
from repro.translate.translator import compile_oosql

#: The service's own counters, each named once: ``(attribute, stats()
#: section, metric name, help)``.  ``__init__`` zeroes them,
#: ``_wire_metrics`` exposes each as a gauge and :meth:`QueryService.stats`
#: reports each under its attribute name (inside the section, when one is
#: given).  Once the service is constructed they change only under
#: ``_state_lock``.
_COUNTERS = (
    ("executed", None, "repro_queries_executed", "completed executions"),
    ("rejected", None, "repro_queries_rejected", "admission rejections"),
    ("compilations", None, "repro_compilations", "plan compilations"),
    ("peak_in_flight", None, "repro_peak_in_flight", "most executions running at once"),
    ("timeouts", None, "repro_timeouts", "deadline expiries"),
    ("retries", None, "repro_retries", "fragment batch retries"),
    ("degraded_runs", None, "repro_degraded_runs", "runs degraded to inline"),
    ("pins_taken", None, "repro_pins_taken", "epoch pins taken"),
    ("shed_queue_wait", None, "repro_shed_queue_wait", "queries shed on queue wait"),
    ("shed_fairness", None, "repro_shed_fairness", "queries shed on session cap"),
    ("epoch_mismatch_runs", None, "repro_epoch_mismatch_runs", "plan/execution epoch mismatches"),
    ("analyzed_runs", None, "repro_analyzed_runs", "EXPLAIN ANALYZE executions"),
    ("warm_restored", None, "repro_warm_restored", "plan-cache entries restored at start"),
    ("warm_dropped", None, "repro_warm_dropped", "plan-cache entries dropped at start"),
    ("batches_emitted", "batch", "repro_batches_emitted", "batches emitted by executions"),
    ("vector_fallbacks", "batch", "repro_vector_fallbacks", "row-wise fallbacks inside batches"),
)


@dataclass(frozen=True)
class QueryResult:
    """One execution's outcome: rows plus per-query accounting."""

    rows: frozenset
    wall_s: float
    stats: dict                      # Stats.snapshot() of this execution
    cache_hit: bool
    session_id: str
    shape: str
    option: str                      # winning rewrite pipeline
    #: fault-tolerance record of this execution (empty when no gather ran):
    #: retries, degraded, mode, breaker state and every attempt — each
    #: gather's batch report folded in (``repro.shard.executor.fold_report``)
    faults: dict = field(default_factory=dict)
    #: the visibility epoch every read of this execution resolved against
    #: (PR 7), or ``None`` when the store has no epochs / isolation is off
    epoch: Optional[int] = None
    #: EXPLAIN ANALYZE text (PR 10) — the plan tree annotated with
    #: per-operator est-vs-actual and cross-process fragment spans; only
    #: set when the query ran with ``analyze=True``
    analyze: Optional[str] = None
    #: JSON-friendly trace summary of an ``analyze=True`` run
    trace: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class SessionStats:
    """Per-session accounting, merged under the session's lock."""

    queries: int = 0
    cache_hits: int = 0
    errors: int = 0
    wall_s: float = 0.0
    work: Stats = field(default_factory=Stats)

    def snapshot(self) -> dict:
        return {
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "errors": self.errors,
            "wall_s": self.wall_s,
            "work": self.work.snapshot(),
        }


class Session:
    """A logical client connection: prepared statements + its own stats.

    Sessions are cheap (no thread, no transaction) and thread-compatible:
    each :meth:`execute` runs with per-execution state, and the session's
    own counters are lock-protected, so a session object may even be
    shared — though one session per logical client is the intended shape.
    """

    def __init__(self, service: "QueryService", session_id: str) -> None:
        self.service = service
        self.id = session_id
        self._lock = threading.Lock()
        self._stats = SessionStats()
        self._closed = False
        #: the epoch an open :meth:`begin_snapshot` pinned, else ``None``
        self._snapshot_epoch: Optional[int] = None

    # -- client API ----------------------------------------------------------
    def prepare(self, text: str) -> PreparedStatement:
        """Parse, normalize and compile (or cache-hit) ``text`` now."""
        self._check_open()
        shape, param_names = normalize_shape(text)
        # compile eagerly so prepare-time errors surface at prepare time
        self.service._lookup_or_compile(shape, param_names)
        return PreparedStatement(self, text, shape, param_names)

    def execute(
        self,
        query: Union[str, PreparedStatement],
        params: Optional[Dict[str, Value]] = None,
        *,
        timeout: Optional[float] = None,
        analyze: bool = False,
    ) -> QueryResult:
        """Run a query (text or prepared statement), waiting for the result.

        The query runs **on the calling thread**: admission (slot,
        session cap, epoch pin) happens here, then the caller itself
        takes one of the ``max_in_flight`` execution slots — waiting for
        it, bounded by ``timeout`` / ``queue_wait_s``, if none is free —
        and executes the plan.  No worker-pool hand-off.

        ``timeout`` (seconds) bounds the query's *total* latency — the
        wait for a slot included — enforced within the engine's polling
        granularity; past it the execution raises
        :class:`~repro.datamodel.errors.QueryTimeoutError` and any worker
        pool it was driving is reclaimed.

        ``analyze=True`` (PR 10) runs the query traced: the result's
        ``analyze`` field carries the EXPLAIN ANALYZE text (per-operator
        est-vs-actual annotations plus cross-process fragment spans) and
        ``trace`` the JSON-friendly summary; operator misestimates past
        the service's q-error threshold land in
        ``QueryService.misestimates``.
        """
        return self._submit(query, params, timeout, analyze, on_pool=False)

    def execute_async(
        self,
        query: Union[str, PreparedStatement],
        params: Optional[Dict[str, Value]] = None,
        *,
        timeout: Optional[float] = None,
        analyze: bool = False,
    ) -> "Future[QueryResult]":
        """:meth:`execute`, with the run handed to the service's worker pool.

        Same admission, same limits, same errors — only the thread
        differs.  Raises :class:`AdmissionError` immediately when the
        service is at its in-flight + queue-depth limit.  The deadline
        implied by ``timeout`` starts *now*, at submission — a query that
        sits in the queue spends its budget there too.
        """
        return self._submit(query, params, timeout, analyze, on_pool=True)

    def _submit(self, query, params, timeout, analyze: bool, on_pool: bool):
        self._check_open()
        if isinstance(query, PreparedStatement):
            shape, param_names = query.shape, query.param_names
        else:
            shape, param_names = normalize_shape(query)
        bindings = check_bindings(param_names, params, what=f"query {shape!r}")
        if timeout is not None and timeout < 0:
            raise ServiceError(f"timeout must be >= 0 seconds, got {timeout}")
        deadline = time.monotonic() + timeout if timeout is not None else None
        return self.service._submit(
            self, shape, param_names, bindings, deadline, analyze=analyze, on_pool=on_pool
        )

    # -- snapshot isolation (PR 7) ------------------------------------------
    def begin_snapshot(self) -> int:
        """Pin the store's current visibility epoch for this session.

        Until :meth:`end_snapshot`, every query this session submits
        executes against this one epoch — repeatable reads across
        queries, not just within one.  Returns the pinned epoch.
        Requires an epoch-capable store (both built-in stores are).
        """
        self._check_open()
        with self._lock:
            if self._snapshot_epoch is not None:
                raise ServiceError(
                    f"session {self.id!r} already holds a snapshot at epoch "
                    f"{self._snapshot_epoch}"
                )
            self._snapshot_epoch = self.service._pin_epoch()
            return self._snapshot_epoch

    def end_snapshot(self) -> None:
        """Release the session's snapshot pin; later queries pin the
        then-current epoch per execution again."""
        with self._lock:
            epoch, self._snapshot_epoch = self._snapshot_epoch, None
        if epoch is None:
            raise ServiceError(f"session {self.id!r} holds no snapshot")
        self.service._unpin_epoch(epoch)

    @contextmanager
    def snapshot(self):
        """``with session.snapshot() as epoch:`` — scoped repeatable reads."""
        epoch = self.begin_snapshot()
        try:
            yield epoch
        finally:
            self.end_snapshot()

    @property
    def stats(self) -> dict:
        with self._lock:
            return self._stats.snapshot()

    def close(self) -> None:
        self._closed = True
        with self._lock:
            epoch, self._snapshot_epoch = self._snapshot_epoch, None
        if epoch is not None:
            self.service._unpin_epoch(epoch)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -----------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError(f"session {self.id!r} is closed")

    def _record(self, result: Optional[QueryResult], work: Optional[Stats] = None) -> None:
        with self._lock:
            self._stats.queries += 1
            if result is None:
                self._stats.errors += 1
                return
            self._stats.cache_hits += int(result.cache_hit)
            self._stats.wall_s += result.wall_s
            self._stats.work.merge(work)


class QueryService:
    """Owns one database + catalog; serves sessions under admission control.

    Parameters
    ----------
    db:
        Any store satisfying the interpreter protocol (``extent``/``deref``).
    schema:
        Optional OOSQL schema (or flat ADL type catalog) used for type
        checking, translation and the rewrite strategy.
    catalog:
        Optional :class:`~repro.storage.catalog.Catalog`; enables
        cost-ranked rewriting, DP join reordering, cost-based physical
        planning and index access paths.  Its monotonic ``version`` is
        part of every plan-cache key.
    max_workers / max_in_flight:
        Threads serving :meth:`Session.execute_async` / concurrently
        executing queries, whichever thread runs them —
        :meth:`Session.execute` runs on its caller's (default: equal;
        ``max_in_flight`` may be lower but never higher — the pool could
        not honor it).  ``queue_depth`` more submissions may wait for a
        slot; beyond that :class:`AdmissionError` is raised
        (back-pressure).
    cache_size:
        Plan-cache capacity in distinct query shapes; ``0`` disables
        caching (every call re-optimizes — the benchmark's cold path).
    parallel_workers / parallel_mode:
        ``parallel_workers >= 2`` enables partition-parallel execution:
        the planner enumerates partitioned join candidates (the cost
        model decides per query shape) and plans that contain a gather
        exchange route through a :class:`repro.shard.ParallelExecutor`
        — a forked ``multiprocessing`` pool (``parallel_mode="process"``,
        the default) or the in-process fragment loop
        (``parallel_mode="inline"``; any other mode is refused at
        construction).  The pool's worker snapshot is retired and
        re-forked whenever the catalog version moves, the same trigger
        that retires cached plans.
    fault_plan / retry_policy:
        PR-6 fault tolerance knobs forwarded to the parallel executor: a
        deterministic :class:`~repro.faults.FaultPlan` to inject (tests;
        also settable via ``$REPRO_FAULT_PLAN``) and the
        :class:`~repro.faults.RetryPolicy` governing transient-failure
        retries.  ``None`` means the executor defaults.
    snapshot_isolation:
        When the store supports visibility epochs (PR 7), pin each
        query's epoch at submission and execute every read — serial
        operators, statistics, shipped fragments — against that one
        epoch.  ``False`` restores the pre-PR-7 live-head reads.  A
        no-op (with :meth:`Session.begin_snapshot` raising) on stores
        without epochs.
    queue_wait_s:
        Overload shed deadline (PR 7): a submission that waited longer
        than this for an execution slot is shed with
        :class:`~repro.datamodel.errors.OverloadError` (retry-after =
        this value) instead of executing arbitrarily late.  ``None``
        disables the shed (queued work runs whenever a worker frees up,
        bounded only by ``queue_depth`` and per-query timeouts).
    session_max_in_flight:
        Per-session fairness cap (PR 7): one session may have at most
        this many submissions outstanding (queued or executing); beyond
        it :class:`OverloadError` is raised without consuming a slot, so
        a single hot client cannot occupy the whole queue.  ``None``
        disables the cap.
    cache_persist_path:
        Plan-cache warm start (PR 7): :meth:`close` persists the cached
        shapes (as canonical re-parseable plan text) to this JSON file,
        and construction restores them — each entry dropped unless the
        catalog version *and* the schema fingerprint still match.
    slow_query_s:
        Slow-query log threshold (PR 10); ``None`` logs nothing.

    Runs execute in batches of at most :attr:`batch_size` rows, and
    compiles reorder join regions whenever there is a catalog; neither is
    a knob.  ``QueryResult.stats`` counts ``batches_emitted`` /
    ``vector_fallbacks`` per run, :meth:`stats` service-wide (``"batch"``).
    """

    @property
    def batch_size(self) -> int:
        """The chunk capacity of every run (read-only)."""
        return DEFAULT_BATCH_SIZE

    def __init__(
        self,
        db,
        schema=None,
        catalog=None,
        *,
        max_workers: int = 4,
        max_in_flight: Optional[int] = None,
        queue_depth: int = 16,
        cache_size: int = 64,
        parallel_workers: int = 0,
        parallel_mode: str = "process",
        fault_plan=None,
        retry_policy=None,
        snapshot_isolation: bool = True,
        queue_wait_s: Optional[float] = None,
        session_max_in_flight: Optional[int] = None,
        cache_persist_path: Optional[str] = None,
        slow_query_s: Optional[float] = None,
    ) -> None:
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        self.db = db
        self.schema = schema
        self.catalog = catalog if catalog is not None else getattr(db, "catalog", None)
        self.cache = PlanCache(cache_size)
        self.max_in_flight = max_in_flight if max_in_flight is not None else max_workers
        if self.max_in_flight < 1:
            raise ServiceError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        if self.max_in_flight > max_workers:
            # execute_async can never run more than max_workers at once; a
            # larger in-flight limit would just be a hidden extra queue and
            # make every admission number a lie
            raise ServiceError(
                f"max_in_flight ({self.max_in_flight}) cannot exceed "
                f"max_workers ({max_workers})"
            )
        if queue_depth < 0:
            raise ServiceError(f"queue_depth must be >= 0, got {queue_depth}")
        self.queue_depth = queue_depth
        self._pool = ThreadPoolExecutor(
            max_workers=min(max_workers, self.max_in_flight),
            thread_name_prefix="repro-query",
        )
        # compilation serializes *per shape* (no duplicate compiles of one
        # shape; distinct shapes compile concurrently).  Entries are
        # refcounted [lock, waiters] pairs so the registry stays bounded
        # by the number of shapes currently compiling.
        self._compile_locks: Dict[str, list] = {}
        self._compile_locks_guard = threading.Lock()
        self.parallel_workers = parallel_workers
        check_mode(parallel_mode)
        self.parallel_mode = parallel_mode
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self._parallel = None
        self._parallel_guard = threading.Lock()
        self._state_lock = threading.Lock()
        #: an execution slot was released (waiters: queries in ``_enter``)
        self._slot_free = threading.Condition(self._state_lock)
        #: the last outstanding query was released (waiter: ``close``)
        self._drained = threading.Condition(self._state_lock)
        self._session_ids = itertools.count(1)
        self._closed = False
        for name, *_ in _COUNTERS:
            setattr(self, name, 0)
        # admission, all under _state_lock: admitted-but-unreleased queries
        # (waiting for a slot or executing, on either driver) may not exceed
        # max_in_flight + queue_depth; executing ones may not exceed
        # max_in_flight
        self._outstanding = 0
        self._in_flight = 0
        # -- snapshot isolation + overload shedding (PR 7)
        if queue_wait_s is not None and queue_wait_s < 0:
            raise ServiceError(f"queue_wait_s must be >= 0, got {queue_wait_s}")
        if session_max_in_flight is not None and session_max_in_flight < 1:
            raise ServiceError(
                f"session_max_in_flight must be >= 1, got {session_max_in_flight}"
            )
        self.snapshot_isolation = snapshot_isolation
        self.queue_wait_s = queue_wait_s
        self.session_max_in_flight = session_max_in_flight
        self.cache_persist_path = cache_persist_path
        #: the store supports the epoch protocol *and* isolation is on
        self._epochs_enabled = snapshot_isolation and hasattr(db, "pin_epoch")
        # -- observability (PR 10), see _wire_metrics
        #: bounded per-shape estimate-vs-actual misses — operator-level
        #: q-error records from traced runs *and* the PR-7 epoch-mismatch
        #: records, as ``kind="epoch-mismatch"``
        self.misestimates = MisestimateStore()
        self.slow_log = SlowQueryLog(slow_query_s)
        self.metrics = MetricsRegistry()
        #: session id → outstanding submissions (queued or executing)
        self._session_outstanding: Dict[str, int] = {}
        self._wire_metrics()
        if cache_persist_path:
            self._restore_plan_cache(cache_persist_path)

    def _wire_metrics(self) -> None:
        """Register the unified metrics surface (PR 10).

        Histograms are owned by the registry and observed by ``_leave``;
        everything that already has an authoritative counter elsewhere
        (service state, plan cache, catalog, store epochs, the parallel
        executor) is exposed as a callable-backed gauge sampled at
        snapshot time — one surface, no double bookkeeping."""
        m = self.metrics
        self._latency_hist = m.histogram(
            "repro_query_latency_seconds", "query execution wall time"
        )
        self._queue_wait_hist = m.histogram(
            "repro_queue_wait_seconds", "submission-to-execution queue wait"
        )
        for attr, _, name, help_text in _COUNTERS:
            m.gauge(name, help_text, lambda a=attr: getattr(self, a))
        for name, help_text, fn in (
            ("repro_queries_in_flight", "executions running now", lambda: self._in_flight),
            ("repro_cache_hits", "plan cache hits", lambda: self.cache.stats.hits),
            ("repro_cache_misses", "plan cache misses", lambda: self.cache.stats.misses),
            ("repro_cached_shapes", "shapes in the plan cache", lambda: len(self.cache)),
            ("repro_catalog_version", "catalog version", self._catalog_version),
            ("repro_misestimates", "recorded estimate misses", lambda: self.misestimates.recorded),
            ("repro_slow_queries", "slow-query log entries", lambda: self.slow_log.logged),
        ):
            m.gauge(name, help_text, fn)
        m.gauge(
            "repro_cache_hit_ratio",
            "plan cache hit ratio",
            lambda: (
                self.cache.stats.hits / total
                if (total := self.cache.stats.hits + self.cache.stats.misses)
                else 0.0
            ),
        )
        if self.catalog is not None:
            for attr, help_text in (
                ("stat_refreshes", "catalog statistics refreshes"),
                ("index_increments", "write batches folded into a catalog index"),
                ("index_rebuilds", "full rebuilds of an existing catalog index"),
            ):
                m.gauge(
                    f"repro_catalog_{attr}",
                    help_text,
                    lambda a=attr: getattr(self.catalog, a),
                )
        if hasattr(self.db, "epoch_stats"):
            for key in (
                "epoch",
                "pinned",
                "pin_events",
                "preserved_snapshots",
                "reclaimed_snapshots",
                "live_snapshots",
            ):
                m.gauge(
                    f"repro_epochs_{key}",
                    f"store epoch_stats {key}",
                    lambda k=key: self.db.epoch_stats().get(k),
                )
        for attr in PARALLEL_COUNTERS:
            m.gauge(
                f"repro_parallel_{attr}",
                f"parallel executor {attr}",
                lambda a=attr: (
                    getattr(self._parallel, a) if self._parallel is not None else 0
                ),
            )

    def metrics_snapshot(self) -> dict:
        """The registry's stable JSON-ready snapshot."""
        return self.metrics.snapshot()

    def metrics_text(self) -> str:
        """Prometheus-style text exposition of every registered metric."""
        return self.metrics.render_prometheus()

    # -- sessions ------------------------------------------------------------
    def session(self) -> Session:
        """Open a new logical session."""
        if self._closed:
            raise ServiceError("service is closed")
        return Session(self, f"session-{next(self._session_ids)}")

    # -- one-shot convenience --------------------------------------------------
    def execute(
        self,
        text: str,
        params: Optional[Dict[str, Value]] = None,
        *,
        timeout: Optional[float] = None,
        analyze: bool = False,
    ) -> QueryResult:
        """Run one query on a throwaway session (scripts, tests)."""
        with self.session() as session:
            return session.execute(text, params, timeout=timeout, analyze=analyze)

    def explain(self, text: str) -> str:
        """The physical plan that executions of ``text`` will run.

        Read-only introspection: uses counter-free cache peeks so polling
        ``explain`` never skews the hit/miss statistics or the LRU order
        real queries see (it still compiles — and caches — on a miss, so
        the answer is always the plan executions will actually run).
        """
        return self._lookup_or_compile(*normalize_shape(text), count=False)[0].explain

    # -- snapshot pinning (PR 7) ----------------------------------------------
    def _pin_epoch(self, epoch: Optional[int] = None) -> int:
        """Pin ``epoch`` (default current) on the store; counted."""
        if not self._epochs_enabled:
            raise ServiceError(
                "snapshot isolation is unavailable: the store has no "
                "visibility epochs or snapshot_isolation=False"
            )
        pinned = self.db.pin_epoch(epoch)
        with self._state_lock:
            self.pins_taken += 1
        return pinned

    def _unpin_epoch(self, epoch: int) -> None:
        self.db.unpin_epoch(epoch)

    # -- plan cache ------------------------------------------------------------
    def _catalog_version(self) -> int:
        return self.catalog.version if self.catalog is not None else 0

    def _catalog_fingerprint(self) -> str:
        return self.catalog.fingerprint() if self.catalog is not None else ""

    @contextmanager
    def _shape_lock(self, shape: str):
        """The compile lock for one query shape.

        Per-shape locking keeps the no-duplicate-compile guarantee (two
        concurrent first executions of one shape compile once) without
        serializing *distinct* shapes — the PR-4 known simplification,
        fixed.  Entries are refcounted and dropped when the last waiter
        leaves, so the registry never outgrows the set of shapes
        currently compiling.
        """
        with self._compile_locks_guard:
            entry = self._compile_locks.get(shape)
            if entry is None:
                entry = self._compile_locks[shape] = [threading.Lock(), 0]
            entry[1] += 1
        entry[0].acquire()
        try:
            yield
        finally:
            entry[0].release()
            with self._compile_locks_guard:
                entry[1] -= 1
                if entry[1] == 0:
                    self._compile_locks.pop(shape, None)

    def _lookup_or_compile(
        self, shape: str, param_names: Tuple[str, ...], count: bool = True
    ) -> Tuple[CachedPlan, bool]:
        """Return ``(entry, was_hit)`` — ``was_hit`` is False iff this call
        had to compile (or wait for a concurrent compile of) the shape.
        ``count=False`` looks up with a counter-free peek."""
        lookup = self.cache.get if count else self.cache.peek
        entry = lookup(shape, self._catalog_version())
        if entry is not None:
            return entry, True
        # one compile at a time *per shape*: concurrent first executions of
        # the same shape would otherwise duplicate the (expensive)
        # optimize+plan work; distinct shapes compile concurrently under
        # their own locks
        with self._shape_lock(shape):
            # peek, not get: the lookup above already accounted the miss
            entry = self.cache.peek(shape, self._catalog_version())
            if entry is not None:
                # a concurrent compile landed while we waited for the lock;
                # this call still paid (part of) the miss
                return entry, False
            entry = self._compile(shape, param_names)
            self.cache.put(entry)
            return entry, False

    def _compile(self, shape: str, param_names: Tuple[str, ...]) -> CachedPlan:
        """The compile pipeline — ``compile_oosql`` → ``optimize``, which
        plans its candidates and hands back the chosen one's plan — run
        once per shape per catalog version."""
        # snapshot the version *before* optimizing: a bump landing during
        # compilation (concurrent create_index/analyze, or planning's own
        # lazy statistics refresh) makes this entry stale on arrival — the
        # next lookup sees the newer version, drops it and recompiles once
        # against the settled catalog.  Tagging with the post-plan version
        # instead could pin a pre-DDL plan under the post-DDL version
        # forever.
        version = self._catalog_version()
        chosen = optimize(
            compile_oosql(shape, self.schema),
            self.schema,
            catalog=self.catalog,
            parallel_workers=self.parallel_workers,
        )
        entry = self._cached_plan(
            shape, version, chosen.expr, chosen.plan, param_names, chosen.option,
            chosen.set_oriented,
        )
        with self._state_lock:
            self.compilations += 1
        return entry

    def _cached_plan(
        self,
        shape: str,
        version: int,
        expr,
        plan,
        param_names: Tuple[str, ...],
        option: str,
        set_oriented: bool,
    ) -> CachedPlan:
        """Wrap the chosen rewritten ``expr`` and its ``plan`` as a cache
        entry — the one builder a compile and a warm-start restore share."""
        return CachedPlan(
            shape=shape,
            catalog_version=version,
            expr=expr,
            plan=plan,
            param_names=param_names,
            option=option,
            explain=plan.explain(),
            set_oriented=set_oriented,
            parallel=any(isinstance(op, Exchange) for op in plan.operators()),
            epoch=getattr(self.db, "epoch", None),
            est_rows=getattr(plan, "est_rows", None),
        )

    # -- parallel execution -----------------------------------------------------
    def _parallel_handle(self):
        """The service's :class:`~repro.shard.ParallelExecutor`, created
        lazily once.  Staleness needs no handling here: the executor
        itself re-forks its pool whenever the catalog version or any read
        extent's identity moves (and keeping one executor keeps its
        ``runs``/``pool_rebuilds`` counters meaningful across bumps)."""
        if self.parallel_workers < 2:
            return None
        from repro.shard.executor import ParallelExecutor

        with self._parallel_guard:
            if self._closed:
                # a query racing close(): no new executor — the caller
                # falls back to inline fragment execution
                return None
            if self._parallel is None:
                # ``None`` knobs take the executor's own defaults
                self._parallel = ParallelExecutor(
                    self.db,
                    self.catalog,
                    workers=self.parallel_workers,
                    mode=self.parallel_mode,
                    fault_plan=self.fault_plan,
                    retry_policy=self.retry_policy,
                )
            return self._parallel

    # -- execution -------------------------------------------------------------
    # One sequence serves both drivers: ``_submit`` admits (closed check,
    # session cap, outstanding cap, epoch pin — all at submission), then
    # ``_run`` takes an execution slot, executes, and releases everything
    # it and the admission took.  ``Session.execute`` calls ``_run`` on the
    # caller's thread; ``execute_async`` hands the same call to the pool.
    def _submit(
        self,
        session: Session,
        shape: str,
        param_names: Tuple[str, ...],
        bindings: Dict[str, Value],
        deadline: Optional[float] = None,
        analyze: bool = False,
        on_pool: bool = False,
    ) -> Union[QueryResult, "Future[QueryResult]"]:
        retry_after = self.queue_wait_s if self.queue_wait_s is not None else 0.05
        with self._state_lock:
            if self._closed:
                raise ServiceError("service is closed")
            # per-session fairness cap first: a capped session is shed
            # without consuming a global slot, so it cannot crowd out others
            outstanding = self._session_outstanding.get(session.id, 0)
            if (
                self.session_max_in_flight is not None
                and outstanding >= self.session_max_in_flight
            ):
                self.shed_fairness += 1
                self.rejected += 1
                raise OverloadError(
                    f"session {session.id!r} already has {outstanding} "
                    f"queries outstanding (cap {self.session_max_in_flight})",
                    retry_after_s=retry_after,
                )
            if self._outstanding >= self.max_in_flight + self.queue_depth:
                self.rejected += 1
                raise AdmissionError(
                    f"service saturated: {self.max_in_flight} in flight plus "
                    f"{self.queue_depth} queued",
                    retry_after_s=retry_after,
                )
            self._outstanding += 1
            self._session_outstanding[session.id] = outstanding + 1
            if self._epochs_enabled:
                self.pins_taken += 1
        # pin the query's visibility epoch *now*, at submission: the state
        # a client observes is the state that existed when it asked, no
        # matter how long the query waits (a session snapshot re-pins its
        # own epoch so the pin survives wait + execution independently)
        pinned: Optional[int] = None
        submitted_at = time.monotonic()
        try:
            if self._epochs_enabled:
                pinned = self.db.pin_epoch(session._snapshot_epoch)
            args = (
                session, shape, param_names, bindings,
                deadline, pinned, submitted_at, analyze,
            )
            if on_pool:
                return self._pool.submit(self._run, *args)
        except BaseException:
            # never reached _run: undo the admission here (and the count
            # of a pin that was never taken)
            unpinned = self._epochs_enabled and pinned is None
            self._leave(session, pinned, {"pins_taken": -1} if unpinned else {})
            raise
        return self._run(*args)

    def _enter(self, deadline: Optional[float], submitted_at: float) -> float:
        """Take one of the ``max_in_flight`` execution slots, waiting for
        one until the query's deadline or the shed deadline, whichever
        comes first; returns the seconds waited since submission."""
        shed_at = submitted_at + self.queue_wait_s if self.queue_wait_s is not None else None
        give_up = min((t for t in (deadline, shed_at) if t is not None), default=None)
        with self._slot_free:
            now = time.monotonic()
            while self._in_flight >= self.max_in_flight and (
                give_up is None or now < give_up
            ):
                self._slot_free.wait(None if give_up is None else give_up - now)
                now = time.monotonic()
            if (
                self._in_flight >= self.max_in_flight
                or (shed_at is not None and now > shed_at)
                or (deadline is not None and now >= deadline)
            ):
                # giving up: if a release woke this waiter, the slot it
                # declines must wake the next one instead of going unnoticed
                self._slot_free.notify()
                if shed_at is not None and now >= shed_at:
                    # overload shed (PR 7): the wait alone blew the shed
                    # deadline — executing now would serve a client that
                    # has likely given up, at the expense of fresher work
                    self.shed_queue_wait += 1
                    raise OverloadError(
                        f"query shed after waiting {now - submitted_at:.3f}s for an "
                        f"execution slot (queue_wait_s={self.queue_wait_s})",
                        retry_after_s=self.queue_wait_s,
                    )
                # the budget was spent waiting
                raise QueryTimeoutError("query deadline expired before execution")
            self._in_flight += 1
            if self._in_flight > self.peak_in_flight:
                self.peak_in_flight = self._in_flight
        return now - submitted_at

    def _leave(
        self,
        session: Session,
        pinned: Optional[int],
        counts: Dict[str, int],
        held_slot: bool = False,
        timings: Optional[Tuple[float, float]] = None,
    ) -> None:
        """Release what one admitted query holds — epoch pin, execution
        slot, session and service outstanding counts — and fold its
        counter increments and, for a completed run, its ``(wall,
        queue_wait)`` histogram observations in, all in one
        ``_state_lock`` round."""
        if pinned is not None:
            self._unpin_epoch(pinned)
        with self._state_lock:
            for name, n in counts.items():
                setattr(self, name, getattr(self, name) + n)
            if timings is not None:
                self._latency_hist.observe(timings[0])
                self._queue_wait_hist.observe(timings[1])
            if held_slot:
                self._in_flight -= 1
                self._slot_free.notify()
            left = self._session_outstanding[session.id] - 1
            if left:
                self._session_outstanding[session.id] = left
            else:
                del self._session_outstanding[session.id]
            self._outstanding -= 1
            if not self._outstanding:
                self._drained.notify_all()

    def _runtime_for(
        self,
        entry: CachedPlan,
        bindings: Dict[str, Value],
        deadline: Optional[float],
        pinned: Optional[int],
        analyze: bool,
    ) -> ExecRuntime:
        """An :class:`ExecRuntime` this execution owns exclusively: an idle
        one of ``entry``'s (closures and kernels already compiled), else a
        new one, rebound in place — with ``analyze``'s recorder, if any."""
        try:
            runtime = entry.idle_runtimes.pop()
        except IndexError:
            # every read of this execution resolves through the pinned
            # epoch's view (PR 7) — the runtime picks the epoch up and
            # threads it into every shipped fragment
            view = EpochView(self.db, pinned) if pinned is not None else self.db
            runtime = ExecRuntime(view, Stats(), catalog=self.catalog)
        runtime.rebind(
            bindings,
            deadline=deadline,
            epoch=pinned,
            parallel=self._parallel_handle() if entry.parallel else None,
            trace=TraceRecorder() if analyze else None,
        )
        return runtime

    def _run(
        self,
        session: Session,
        shape: str,
        param_names: Tuple[str, ...],
        bindings: Dict[str, Value],
        deadline: Optional[float],
        pinned: Optional[int],
        submitted_at: float,
        analyze: bool,
    ) -> QueryResult:
        #: service counter → increment, folded in by the one exit round
        counts: Dict[str, int] = {}
        held_slot = False
        timings: Optional[Tuple[float, float]] = None
        try:
            queue_wait = self._enter(deadline, submitted_at)
            held_slot = True
            entry, cache_hit = self._lookup_or_compile(shape, param_names)
            runtime = self._runtime_for(entry, bindings, deadline, pinned, analyze)
            work = runtime.stats
            start = time.perf_counter()
            rows = entry.plan.execute(runtime)
            wall = time.perf_counter() - start
            faults = runtime.fault_events
            if faults:
                counts["retries"] = int(faults.get("retries", 0) or 0)
                counts["degraded_runs"] = int(bool(faults.get("degraded")))
            if (
                pinned is not None
                and entry.epoch is not None
                and entry.epoch != pinned
            ):
                # the plan was priced at a different epoch than it ran at
                # (allowed — the catalog-version gate bounds the staleness):
                # every such run is counted, and the ones whose row count
                # actually misses the estimate (or that have none to check)
                # land on the misestimate store (PR 10 — one feedback
                # surface).  After the first write this is every cached-plan
                # read, so the record is the exception, not the rule.
                counts["epoch_mismatch_runs"] = 1
                if entry.est_rows is None or misestimate(entry.est_rows, len(rows)):
                    with self._state_lock:
                        self.misestimates.record(
                            shape,
                            kind="epoch-mismatch",
                            planned_epoch=entry.epoch,
                            executed_epoch=pinned,
                            est_rows=entry.est_rows,
                            actual_rows=len(rows),
                        )
            analyze_text = None
            trace_summary = None
            tracer = runtime.trace  # the analyze recorder, or REPRO_TRACE's
            if tracer is not None:
                misses = tracer.misestimates(entry.plan)
                if misses:
                    with self._state_lock:
                        for miss in misses:
                            self.misestimates.record(shape, kind="operator", **miss)
                if analyze:
                    counts["analyzed_runs"] = 1
                    analyze_text = tracer.render(entry.plan)
                    trace_summary = tracer.summary(entry.plan)
            self.slow_log.maybe_log(
                shape=shape,
                wall_s=wall,
                plan_text=entry.explain,
                trace_summary=trace_summary,
                session_id=session.id,
            )
            result = QueryResult(
                rows=rows,
                wall_s=wall,
                stats=work.snapshot(),
                cache_hit=cache_hit,
                session_id=session.id,
                shape=shape,
                option=entry.option,
                faults=faults,
                epoch=pinned,
                analyze=analyze_text,
                trace=trace_summary,
            )
            session._record(result, work)
            counts["executed"] = 1
            timings = (wall, queue_wait)
            counts["batches_emitted"] = work.batches_emitted
            counts["vector_fallbacks"] = work.vector_fallbacks
            # a clean run's closures are worth keeping; a run that raised
            # never gets here, so its runtime is dropped
            runtime.release()
            entry.idle_runtimes.append(runtime)
            return result
        except BaseException as exc:
            if isinstance(exc, QueryTimeoutError):
                counts["timeouts"] = 1
            session._record(None)
            raise
        finally:
            self._leave(session, pinned, counts, held_slot, timings)

    # -- reporting / lifecycle ---------------------------------------------------
    def stats(self) -> dict:
        with self._state_lock:
            out = {
                "in_flight": self._in_flight,
                "catalog_version": self._catalog_version(),
                "cache": self.cache.stats.snapshot(),
                "cached_shapes": len(self.cache),
                "misestimates": self.misestimates.recorded,
                "slow_queries": self.slow_log.logged,
                "batch": {"batch_size": self.batch_size},
            }
            for name, section, _, _ in _COUNTERS:
                target = out[section] if section else out
                target[name] = getattr(self, name)
        if hasattr(self.db, "epoch_stats"):
            out["epochs"] = self.db.epoch_stats()
        with self._parallel_guard:
            parallel = self._parallel
            if parallel is not None:
                out["parallel"] = {"workers": parallel.workers, "mode": parallel.mode}
                for name in PARALLEL_COUNTERS:
                    out["parallel"][name] = getattr(parallel, name)
                out["parallel"]["breaker"] = parallel.breaker.snapshot()
        return out

    # -- plan-cache warm start (PR 7) ------------------------------------------
    def _persist_plan_cache(self, path: str) -> None:
        """Serialize the cached shapes to ``path`` as canonical plan text.

        What is persisted is the *chosen rewritten ADL* per shape (the
        same re-parseable pretty text the fragment contract ships), plus
        the schema fingerprint and a *content-based* catalog fingerprint
        it was compiled under — enough for a restoring service to re-plan
        without re-running the expensive rewrite/join-order phases, and
        enough to refuse the whole file when the world has moved.  The
        raw catalog version is also recorded, but only informationally:
        restore matches on the content fingerprint, because a rebuilt
        catalog's in-memory version counter restarts from zero and its
        landing on the same number was never guaranteed (the PR-7 known
        simplification, fixed in PR 9).  Best-effort: a failed write
        never breaks ``close()``.
        """
        from repro.adl.pretty import pretty

        entries = []
        for entry in self.cache.entries():
            if entry.catalog_version != self._catalog_version():
                continue  # stale on disk would be dropped anyway; skip now
            entries.append(
                {
                    "shape": entry.shape,
                    "adl": pretty(entry.expr),
                    "param_names": list(entry.param_names),
                    "option": entry.option,
                    "set_oriented": entry.set_oriented,
                }
            )
        payload = {
            "catalog_version": self._catalog_version(),
            "catalog_fingerprint": self._catalog_fingerprint(),
            "schema_fingerprint": schema_fingerprint(self.schema),
            "entries": entries,
        }
        try:
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1)
            os.replace(tmp, path)
        except OSError:
            pass

    def _restore_plan_cache(self, path: str) -> None:
        """Warm-start the plan cache from a :meth:`_persist_plan_cache`
        file.  The file is ignored wholesale when missing, unreadable, or
        compiled under a different schema fingerprint or *catalog content
        fingerprint* (restored entries are rebased onto the current
        in-memory catalog version — matching on content rather than on
        the raw version counter, which restarts per process); individual
        entries that fail to re-plan are dropped and counted
        (``warm_dropped``) without poisoning the rest."""
        from repro.adl.parser import parse_adl

        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict):
            return
        entries = payload.get("entries")
        if not isinstance(entries, list):
            return
        version = self._catalog_version()
        if payload.get("schema_fingerprint") != schema_fingerprint(self.schema):
            self.warm_dropped += len(entries)
            return
        # content match: the rebuilt catalog holds the same statistics,
        # indexes and partitionings the entries were compiled under —
        # rebase them onto whatever version number it landed on (a payload
        # without the fingerprint is a mismatch like any other)
        if payload.get("catalog_fingerprint") != self._catalog_fingerprint():
            self.warm_dropped += len(entries)
            return
        for raw in entries:
            try:
                expr = parse_adl(raw["adl"])
                self.cache.put(
                    self._cached_plan(
                        raw["shape"],
                        version,
                        expr,
                        plan_query(expr, self.catalog, parallel_workers=self.parallel_workers),
                        tuple(raw["param_names"]),
                        raw["option"],
                        bool(raw["set_oriented"]),
                    )
                )
                self.warm_restored += 1
            except Exception:
                self.warm_dropped += 1

    def close(self, wait: bool = True) -> None:
        """Refuse new submissions; with ``wait``, let every admitted query
        — on a pool thread or on its caller's — finish before the plan
        cache is persisted and the parallel executor closed (a query that
        outlives a ``wait=False`` close degrades to inline fragments)."""
        with self._drained:
            self._closed = True
            while wait and self._outstanding:
                self._drained.wait()
        self._pool.shutdown(wait=wait)
        if self.cache_persist_path:
            self._persist_plan_cache(self.cache_persist_path)
        with self._parallel_guard:
            if self._parallel is not None:
                self._parallel.close()
                self._parallel = None

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
