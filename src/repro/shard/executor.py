"""The worker-process fragment executor, with fault tolerance.

:class:`ParallelExecutor` fans plan fragments out to ``workers``
long-lived forked worker processes, one duplex pipe each, and merges
partial results plus per-worker :class:`~repro.engine.stats.Stats`
snapshots.  What crosses a pipe is exactly the fragment-shipping
contract of :mod:`repro.shard.fragment` — canonical ADL text, shard
bindings, parameter bindings (plus the fragment index, batch attempt and
deadline) out; row sets and counter snapshots, or the exception the
fragment raised, back.

Worker lifecycle
================

Workers are forked (``multiprocessing.get_context("fork")``, so
``multiprocessing.active_children()`` sees them) with a point-in-time
state: the database object, a plain ``{extent: PartitionedExtent}``
snapshot of the catalog's partitionings (never the live catalog — a
forked child must not inherit or touch its locks), and the executor's
:class:`~repro.faults.FaultPlan` (handed to every fragment the worker
runs).  The state is the fork's copy-on-write image of the store, which
is why the workers fork rather than spawn: nothing of it is pickled.
Each worker then loops ``recv → execute_fragment → send`` until it is
terminated.  Staleness is caught on *four* triggers, checked per run
before the workers are used:

* the snapshot itself performs the extent-identity handshake
  (``Catalog.partition_snapshot`` → ``partitioning()``), so stale
  shards re-derive before they are forked;
* a catalog **version** move (ANALYZE / ``create_index`` /
  ``partition()`` / statistics refresh) retires the workers the same way
  it retires cached plans;
* the **identity of every extent the fragment batch reads** — including
  un-partitioned broadcast sides, which have no partitioning to
  handshake through — is compared against the identities recorded at
  fork time; any change (e.g. a notified ``insert_rows`` that bumped
  nothing yet) re-forks, because forked children hold a copy-on-write
  image of the parent's pre-mutation heap.  An extent the forking batch
  did not read is recorded on first use while the store's epoch still
  equals the fork epoch (nothing was published since, so the image has
  it) — alternating shapes over different extents keep one worker set.
  An extent whose identity *cannot be read* (dropped/renamed extent,
  store error) is classified, counted in :attr:`extent_lookup_failures`,
  and recorded as a unique sentinel that can never match — a forced
  re-fork instead of silently disabling the staleness trigger;
* the **visibility epoch** a batch is pinned to (PR 7): a batch whose
  fragments carry an epoch newer than the workers' fork epoch re-forks,
  because snapshots preserved after the fork cannot be in its
  copy-on-write image.

Every store mutation publishes a fresh extent value under a new epoch
and epoch-pinned fragments resolve historical snapshots through
:meth:`~repro.storage.store.EpochStoreMixin.extent_at`, so no mutation
needs a manual refresh: the triggers above retire stale workers.

Locking contract (PR 6)
=======================

Two locks with disjoint jobs:

* ``_pool_lock`` — worker *lifecycle*: fork, terminate, plan/closed-flag
  changes, and the identity bookkeeping.  Held only for short critical
  sections; :meth:`close` / :meth:`inject` take it and
  therefore return promptly even while a long batch is executing.
* ``_run_lock`` — the *run guard*: serializes :meth:`run_fragments`
  batches (one batch at a time per executor is the accounting unit the
  benchmarks are built on).  Never held while taking ``_pool_lock``'s
  critical sections longer than a handle lookup.

Consequence: ``inject()``/``close()`` during an in-flight batch
terminate the workers *out from under it*.  That is deliberate — the
batch's wait sees the workers' sentinels fire, classifies it as a worker
crash, and recovers inline; the caller still gets correct rows (parity
by construction) while the lifecycle call returns immediately.  No lock
or queue is shared with the workers, so terminating one mid-anything
cannot wedge the coordinator.

Fault tolerance (PR 6)
======================

``run_fragments`` does not assume the workers are healthy:

* each idle worker is handed the next fragment, then the coordinator
  blocks in :func:`multiprocessing.connection.wait` over the busy
  workers' pipes **and** their process sentinels, with the time left to
  the **deadline** as its timeout.  A wait that times out terminates the
  workers and raises :class:`QueryTimeoutError`;
* a ready sentinel, or ``EOFError`` / ``OSError`` on a pipe, means a
  worker died: the workers are terminated and the batch raises
  :class:`~repro.datamodel.errors.WorkerCrashError`.  The batch re-runs
  **inline** through the identical ``execute_fragment`` path — parity by
  construction makes the degraded rows provably the same — the breaker
  records the failure, and the next batch forks a fresh worker set;
* an exception a fragment raises in a worker crosses its pipe and is
  raised in the coordinator once the other busy workers have answered,
  so it is classified exactly as on the inline path: transient errors
  retry under the :class:`~repro.faults.RetryPolicy` (bounded attempts,
  exponential backoff, deterministic jitter); timeouts and fatal errors
  never retry;
* the :class:`~repro.faults.CircuitBreaker` routes batches straight to
  the inline path after repeated worker failures until a cooldown
  expires (half-open probe, then close on success).

Every event lands in counters (:data:`COUNTERS`, plus breaker state)
and in **one per-batch report**: ``run_fragments`` builds a single dict
per batch — fragment count, final mode, per-fragment work, its sum and
the critical path (the largest single fragment, the number the PR-5
benchmark's checked speedup is built from), gathered rows, retries,
degradation, breaker state, and one record per attempt.  That dict is
:attr:`last_report`, it is what a traced gather records, and
:func:`fold_report` folds it into the run's fault record
(``ExecRuntime.fault_events``, which the service returns as
``QueryResult.faults`` and adds to its own ``retries`` /
``degraded_runs``) — so a run with several gathers counts every batch.

``mode="inline"`` runs fragments in-process through the identical
:func:`~repro.shard.fragment.run_inline` path a gather without an
executor streams (no workers, fully deterministic) — the fallback when
``fork`` is unavailable and the default engine for tests.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datamodel.errors import (
    QueryTimeoutError,
    ReproError,
    ServiceError,
    WorkerCrashError,
)
from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
from repro.shard.fragment import (
    FragmentSpec,
    execute_fragment,
    fragment_stats_total,
    run_inline,
)

#: The executor's monotonic counters, named once: ``__init__`` zeroes
#: them and the service exposes each as a gauge and in its ``stats()``.
COUNTERS = (
    "runs",
    "pool_rebuilds",
    "retries",
    "degraded_runs",
    "timeouts",
    "pool_deaths",
    "transient_faults",
    "extent_lookup_failures",
)


def check_mode(mode: str) -> None:
    """Reject a parallel mode other than ``"process"`` or ``"inline"``
    (the executor's and the service's one check)."""
    if mode not in ("process", "inline"):
        raise ServiceError(f"unknown parallel mode {mode!r}")


def fold_report(events: dict, report: dict) -> None:
    """Fold one batch's report into a run's fault record: retries add up,
    attempts append, ``degraded`` sticks, and the mode, breaker state and
    error are the latest batch's."""
    events["retries"] = events.get("retries", 0) + report["retries"]
    events["degraded"] = events.get("degraded", False) or report["degraded"]
    events["attempts"] = events.get("attempts", []) + report["attempts"]
    for key in ("mode", "breaker", "error"):
        if key in report:
            events[key] = report[key]


def _serve(conn, db, partitions, fault_plan) -> None:
    """A worker process's whole life: receive ``(index, attempt,
    deadline, spec)``, run :func:`execute_fragment`, send back
    ``(True, (rows, stats))`` or ``(False, exception)``; return when the
    pipe reports end-of-file.

    ``db`` and ``partitions`` are the fork image, never pickled.  The
    fault plan goes to every fragment with ``in_worker=True``, so a crash
    fault really exits here.  An exception that cannot be pickled kills
    the worker on ``send``; the coordinator sees a crash, and the inline
    re-run raises the exception in-process.
    """
    while True:
        try:
            index, attempt, deadline, spec = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, execute_fragment(
                db, partitions, spec, index=index, attempt=attempt,
                deadline=deadline, fault_plan=fault_plan, in_worker=True,
            ))
        except Exception as exc:  # the fragment's failure is the coordinator's to classify
            reply = (False, exc)
        conn.send(reply)


class _Unreadable:
    """Stands in for the identity of an extent whose lookup failed: a
    fresh instance per failure, so it is never a recorded identity."""


class ParallelExecutor:
    """Runs fragment batches, on forked worker processes or inline.

    Parameters
    ----------
    db / catalog:
        The store fragments read and the catalog whose partitionings
        (and version) worker snapshots are derived from.  ``catalog``
        defaults to the store's own registered catalog.
    workers:
        Number of worker processes; also the effective-parallelism
        figure the planner's cost formulas divide by.
    mode:
        ``"process"`` (default) forks the workers; ``"inline"`` runs
        fragments in-process.  Process mode degrades to inline (with
        :attr:`degraded` set) when ``fork`` is unavailable.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` shipped to workers at
        fork and applied on the inline path — deterministic fault
        injection for tests.  Defaults to the plan named by
        ``$REPRO_FAULT_PLAN`` (see :meth:`FaultPlan.from_env`), if any.
    retry_policy / breaker:
        The transient-failure :class:`~repro.faults.RetryPolicy` and the
        parallel-path :class:`~repro.faults.CircuitBreaker`; defaults
        are production-shaped (3 attempts / threshold 3, 30 s cooldown).
    """

    def __init__(
        self,
        db,
        catalog=None,
        *,
        workers: int = 4,
        mode: str = "process",
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"parallel workers must be >= 1, got {workers}")
        check_mode(mode)
        self.db = db
        self.catalog = catalog if catalog is not None else getattr(db, "catalog", None)
        self.workers = workers
        self.mode = mode
        self.degraded = False
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        #: the report of the most recent successful :meth:`run_fragments`
        self.last_report: Optional[dict] = None
        for name in COUNTERS:
            setattr(self, name, 0)
        #: the live worker set: one ``(Process, Connection)`` per worker
        self._pool: Optional[list] = None
        self._pool_version: Optional[int] = None
        #: the store's visibility epoch at fork time (PR 7); a batch
        #: pinned to a *newer* epoch re-forks, because the fork image
        #: cannot contain snapshots preserved after it was taken
        self._pool_epoch: Optional[int] = None
        #: extent-value identities observed at fork time; a changed
        #: identity for any extent a batch reads re-forks the workers
        self._pool_extents: Dict[str, object] = {}
        self._closed = False
        # see "Locking contract" in the module docstring
        self._pool_lock = threading.Lock()
        self._run_lock = threading.Lock()

    # -- worker lifecycle ----------------------------------------------------
    def _catalog_version(self) -> int:
        return self.catalog.version if self.catalog is not None else 0

    def _snapshot(self) -> Dict[str, object]:
        if self.catalog is None:
            return {}
        return self.catalog.partition_snapshot()

    def _extent_identities(self, specs: Sequence[FragmentSpec]) -> Dict[str, object]:
        """Current extent-value identity of every extent ``specs`` read.

        A failed lookup is classified (any :class:`ReproError` — dropped
        extent, transient store failure), counted, and replaced by a
        fresh sentinel object: the sentinel can never be identical to a
        recorded identity, so the failure *forces* a re-fork instead of
        silently disabling the staleness trigger (the old
        ``except Exception: pass`` bug).  Non-repro errors propagate —
        they are coordinator bugs, not data staleness.
        """
        out: Dict[str, object] = {}
        if not hasattr(self.db, "extent"):
            return out
        for spec in specs:
            for _, ref in spec.shards:
                if ref.extent not in out:
                    try:
                        out[ref.extent] = self.db.extent(ref.extent)
                    except ReproError:
                        self.extent_lookup_failures += 1
                        out[ref.extent] = _Unreadable()  # unique: forces a re-fork
        return out

    def _ensure_pool(
        self, identities: Dict[str, object], min_epoch: Optional[int] = None
    ) -> Optional[list]:
        """The live worker set, re-forked when any staleness trigger
        fires (see the module docstring); ``None`` in inline/degraded
        mode.  Caller must hold ``_pool_lock``.

        The partition snapshot is taken *first*: its staleness handshake
        may itself bump the catalog version, and the workers must be
        tagged with the settled number.

        A **closed** executor never forks: a caller that captured this
        handle before its owner retired it (e.g. a service replacing the
        executor on a catalog bump mid-query) falls through to the
        inline path — correct results, no orphaned workers.
        """
        if self._closed or self.mode != "process" or self.degraded:
            return None
        snapshot = self._snapshot()  # runs the identity handshake per entry
        version = self._catalog_version()
        if (
            self._pool is not None
            and self._pool_version == version
            and (
                min_epoch is None
                or (self._pool_epoch is not None and self._pool_epoch >= min_epoch)
            )
            and self._fork_image_covers(identities)
        ):
            return self._pool
        self._close_pool()
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            self.degraded = True  # no fork (non-POSIX): run inline
            return None
        # registered before the first fork and tagged after the last: a
        # set left partial by a failed fork is retired by the next call
        self._pool = workers = []
        for _ in range(self.workers):
            conn, child = context.Pipe()
            proc = context.Process(
                target=_serve, args=(child, self.db, snapshot, self.fault_plan), daemon=True
            )
            proc.start()
            child.close()  # the worker holds the only copy of its end
            workers.append((proc, conn))
        self._pool_version = version
        self._pool_epoch = getattr(self.db, "epoch", None)
        self._pool_extents = dict(identities)
        self.pool_rebuilds += 1
        return workers

    def _fork_image_covers(self, identities: Dict[str, object]) -> bool:
        """Do the workers' copy-on-write images hold these extent values?

        An extent recorded at (or since) the fork must still have the
        recorded identity.  One the workers have *not* recorded yet — the
        forking batch did not read it — is in the image iff nothing was
        published since the fork: every mutation publishes an epoch, so
        an unmoved epoch (read *after* the identities were) proves the
        value the caller just read is the one that was forked.  It is
        then recorded, so alternating query shapes share one worker set.
        Epoch-less stores cannot prove it and re-fork.
        """
        fresh: Dict[str, object] = {}
        for name, rows in identities.items():
            if name not in self._pool_extents:
                fresh[name] = rows
            elif self._pool_extents[name] is not rows:
                return False
        if fresh:
            if (
                self._pool_epoch is None
                or getattr(self.db, "epoch", None) != self._pool_epoch
                or any(isinstance(rows, _Unreadable) for rows in fresh.values())
            ):
                return False
            self._pool_extents.update(fresh)
        return True

    def inject(self, fault_plan: Optional[FaultPlan]) -> None:
        """Install (or, with ``None``, clear) the fault plan.  Retires
        the workers so the next fork ships the new plan to them."""
        with self._pool_lock:
            self.fault_plan = fault_plan
            self._close_pool()

    def _close_pool(self) -> None:
        """Terminate the worker set.  Caller must hold ``_pool_lock``.

        Pipes close with their last reference, not here: a batch still
        waiting on them (``inject()`` / ``close()`` mid-batch) sees the
        sentinels fire instead of a descriptor closed under its wait."""
        if self._pool is not None:
            for proc, _ in self._pool:
                proc.terminate()
            for proc, _ in self._pool:
                proc.join()
            self._pool = None
            self._pool_version = None
            self._pool_epoch = None
            self._pool_extents = {}

    def close(self) -> None:
        """Shut the workers down for good: an in-flight batch recovers
        inline; later batches run inline too."""
        with self._pool_lock:
            self._closed = True
            self._close_pool()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution -----------------------------------------------------------
    def run_fragments(
        self,
        specs: Sequence[FragmentSpec],
        *,
        deadline: Optional[float] = None,
        events: Optional[dict] = None,
    ) -> List[Tuple[frozenset, dict]]:
        """Execute every fragment; return ``[(rows, stats_snapshot), ...]``
        in fragment order.  One batch runs at a time (the batch itself is
        the unit of parallelism).

        ``deadline`` is an absolute ``time.monotonic()`` bound; at it the
        batch raises :class:`QueryTimeoutError` with the workers
        terminated.  ``events``, when given, receives this batch's report
        — success or failure — which a gather records for its trace and
        folds into the run's fault record with :func:`fold_report`.

        Failure handling: transient errors retry with backoff; a worker
        death degrades the batch to the inline path (same rows by
        construction) and trips the breaker toward routing future
        batches inline; timeouts and fatal errors surface immediately.
        Failed attempts contribute **no** statistics — faults fire before
        a fragment produces rows, and only the successful attempt's
        snapshots are merged/returned.
        """
        specs = list(specs)
        policy = self.retry_policy
        #: the batch's one report; ``attempts`` gets a record per attempt,
        #: failed or successful (PR 10), so a traced run can show the
        #: crashed worker attempt next to the degraded inline re-run
        report = {"fragments": len(specs), "retries": 0, "degraded": False, "attempts": []}
        with self._run_lock:
            try:
                if deadline is not None and time.monotonic() >= deadline:
                    raise QueryTimeoutError("deadline expired before the batch started")
                forced_inline = False  # a worker death degraded this batch
                while True:
                    want_pool = self.mode == "process" and not self.degraded and not forced_inline
                    if want_pool and not self.breaker.allows():
                        want_pool = False
                        report["degraded"] = True
                    attempt = len(report["attempts"])
                    record = {
                        "attempt": attempt,
                        "mode": "process" if want_pool else "inline",
                        "status": "failed",
                    }
                    report["attempts"].append(record)
                    try:
                        results, mode = self._attempt_batch(specs, attempt, deadline, want_pool)
                        break
                    except Exception as exc:
                        record["error"] = type(exc).__name__
                        if isinstance(exc, WorkerCrashError):
                            self.pool_deaths += 1
                            if want_pool:
                                self.breaker.record_failure()
                            forced_inline = report["degraded"] = True
                        elif policy.classify(exc) == "transient":
                            self.transient_faults += 1
                        else:
                            raise  # timeouts and fatal errors never retry
                        report["retries"] += 1
                        self.retries += 1
                        if attempt + 1 >= policy.max_attempts:
                            raise
                        policy.sleep_backoff(attempt + 1, deadline)
                record.update(mode=mode, status="ok")
                if mode == "process":
                    self.breaker.record_success()
                if report["degraded"]:
                    self.degraded_runs += 1
                per_fragment = [fragment_stats_total(snapshot) for _, snapshot in results]
                report.update(
                    mode=mode,
                    per_fragment_work=per_fragment,
                    total_work=sum(per_fragment),
                    critical_path_work=max(per_fragment, default=0),
                    result_rows=sum(len(rows) for rows, _ in results),
                )
                self.runs += 1
                self.last_report = report
                return results
            except BaseException as exc:
                # one place counts timeouts so the pre-batch check, the
                # wait, worker-side deadline hits and backoff sleeps
                # that would outlive the deadline all land in the counter
                if isinstance(exc, QueryTimeoutError):
                    self.timeouts += 1
                report["error"] = type(exc).__name__
                raise
            finally:
                report["breaker"] = self.breaker.state
                if events is not None:
                    events.update(report)

    def _attempt_batch(
        self,
        specs: List[FragmentSpec],
        attempt: int,
        deadline: Optional[float],
        want_pool: bool,
    ) -> Tuple[List[Tuple[frozenset, dict]], str]:
        """One attempt at the whole batch; returns ``(results, mode)``.

        Worker path: each idle worker gets the next fragment, and the
        coordinator waits on the busy workers' pipes and sentinels until
        the deadline (see "Fault tolerance" in the module docstring).
        After a fragment fails, no new fragment is handed out, but the
        busy workers' replies are still collected, so no stale reply is
        left in a pipe.  Inline path: :func:`~repro.shard.fragment.run_inline`
        drained, with the executor's fault plan applied coordinator-side.
        """
        workers = None
        if want_pool:
            batch_epoch = max(
                (s.epoch for s in specs if s.epoch is not None), default=None
            )
            with self._pool_lock:
                workers = self._ensure_pool(
                    self._extent_identities(specs), min_epoch=batch_epoch
                )
        if workers is None:
            inline = run_inline(
                self.db,
                self.catalog,
                specs,
                attempt=attempt,
                deadline=deadline,
                fault_plan=self.fault_plan,
            )
            return list(inline), "inline"

        results: list = [None] * len(specs)
        todo = list(reversed(range(len(specs))))
        idle = list(workers)
        busy: dict = {}  # pipe -> (process, fragment index)
        failure: Optional[BaseException] = None
        try:
            while busy or (todo and failure is None):
                while idle and todo and failure is None:
                    proc, conn = idle.pop()
                    index = todo.pop()
                    conn.send((index, attempt, deadline, specs[index]))
                    busy[conn] = (proc, index)
                timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
                ready = wait([*busy, *(proc.sentinel for proc, _ in busy.values())], timeout)
                if not ready:
                    raise QueryTimeoutError(
                        "parallel batch exceeded its deadline; workers terminated"
                    )
                for conn in [obj for obj in ready if obj in busy]:
                    proc, index = busy.pop(conn)
                    ok, value = conn.recv()
                    idle.append((proc, conn))
                    if ok:
                        results[index] = value
                    elif failure is None:
                        failure = value
                if any(proc.sentinel in ready for proc, _ in workers):
                    raise WorkerCrashError("worker process died mid-batch; its fragment is lost")
        except BaseException as exc:
            # a worker may be mid-fragment or mid-message: never reuse the
            # set.  One that is no longer ours was terminated when detached.
            with self._pool_lock:
                if self._pool is workers:
                    self._close_pool()
            if isinstance(exc, (EOFError, OSError)):
                raise WorkerCrashError(f"lost a worker mid-batch: {exc!r}") from exc
            raise
        if failure is not None:
            raise failure
        return results, "process"
