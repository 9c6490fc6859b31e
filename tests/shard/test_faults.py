"""The PR-6 fault matrix: {fault-free, worker crash, transient error,
hang-past-deadline} x {inline, process} x {co-partitioned, broadcast,
repartition}, every cell oracle-checked.

The invariant under test is the acceptance criterion itself: under every
injected fault plan a query returns **oracle-identical rows** — via
retry or inline degradation, never partial results, wrong results, or an
unbounded hang — and the fault shows up in the executor's counters.

Also here: the fault-plan / retry-policy / breaker units, the env-var
injection surface, the lock-split contract (refresh() mid-batch returns
immediately and the batch recovers), and the extent-identity-failure
satellite fix.
"""

import dataclasses
import threading
import time

import pytest

from repro.adl import builders as B
from repro.datamodel import VTuple
from repro.datamodel.errors import (
    QueryTimeoutError,
    ServiceError,
    TransientFaultError,
    WorkerCrashError,
)
from repro.engine.plan import ExecRuntime, SetOp
from repro.engine.planner import Executor
from repro.engine.stats import Stats
from repro.faults import CircuitBreaker, FaultPlan, FaultSpec, RetryPolicy
from repro.obs import TraceRecorder
from repro.service import QueryService
from repro.shard import (
    Exchange,
    ParallelExecutor,
    PartitionedHashJoin,
    PartitionedScan,
)
from repro.shard.fragment import (
    ChunkedRows,
    LEFT_PLACEHOLDER,
    RIGHT_PLACEHOLDER,
    ShardRef,
    rebind_extent,
)
from repro.storage import Catalog, MemoryDatabase

EQ = B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d"))
JOIN = B.join(B.extent("X"), B.extent("Y"), "x", "y", EQ)
PARTS = 3


def _template(expr):
    return dataclasses.replace(
        expr,
        left=rebind_extent(expr.left, LEFT_PLACEHOLDER),
        right=rebind_extent(expr.right, RIGHT_PLACEHOLDER),
    )


def _gather(strategy, bindings, left, right, parts=PARTS):
    join = PartitionedHashJoin(
        "join", JOIN.lvar, JOIN.rvar, JOIN.pred, strategy, parts,
        _template(JOIN), bindings, left, right,
    )
    return Exchange("gather", join, parts)


def co_partitioned(n=90, keys=12):
    """X(a) co-partitioned with Y(d): the stored-shard fast path."""
    db = MemoryDatabase({
        "X": [VTuple(a=i % keys, v=i % 5, i=i) for i in range(n)],
        "Y": [VTuple(d=i % keys, w=i) for i in range(n)],
    })
    catalog = Catalog(db)
    catalog.analyze()
    catalog.partition("X", "a", PARTS)
    catalog.partition("Y", "d", PARTS)
    bindings = [
        {LEFT_PLACEHOLDER: ShardRef("X", "a", PARTS, i),
         RIGHT_PLACEHOLDER: ShardRef("Y", "d", PARTS, i)}
        for i in range(PARTS)
    ]
    plan = _gather("partition-wise", bindings,
                   PartitionedScan("X", "a", PARTS),
                   PartitionedScan("Y", "d", PARTS))
    return db, catalog, plan


def broadcast():
    """Partitioned X, tiny un-partitioned Y read whole by each fragment."""
    db = MemoryDatabase({
        "X": [VTuple(a=i % 11, v=i % 5, i=i) for i in range(120)],
        "Y": [VTuple(d=i, w=i) for i in range(11)],
    })
    catalog = Catalog(db)
    catalog.analyze()
    catalog.partition("X", "v", PARTS)
    from repro.engine.plan import Scan

    bindings = [
        {LEFT_PLACEHOLDER: ShardRef("X", "v", PARTS, i),
         RIGHT_PLACEHOLDER: ShardRef("Y")}
        for i in range(PARTS)
    ]
    plan = _gather("broadcast", bindings,
                   PartitionedScan("X", "v", PARTS),
                   Exchange("broadcast", Scan("Y"), PARTS))
    return db, catalog, plan


def repartition():
    """No stored partitioning: every fragment shared-scan hash-filters."""
    db = MemoryDatabase({
        "X": [VTuple(a=i % 12, v=i % 5, i=i) for i in range(90)],
        "Y": [VTuple(d=i % 12, w=i) for i in range(90)],
    })
    catalog = Catalog(db)
    catalog.analyze()
    bindings = [
        {LEFT_PLACEHOLDER: ShardRef("X", "a", PARTS, i),
         RIGHT_PLACEHOLDER: ShardRef("Y", "d", PARTS, i)}
        for i in range(PARTS)
    ]
    plan = _gather(
        "repartition", bindings,
        Exchange("repartition", PartitionedScan("X", "a", PARTS), PARTS, key_attr="a"),
        Exchange("repartition", PartitionedScan("Y", "d", PARTS), PARTS, key_attr="d"),
    )
    return db, catalog, plan


STRATEGIES = {"co-partitioned": co_partitioned, "broadcast": broadcast,
              "repartition": repartition}
#: a fast retry policy so the matrix does not sleep out production backoffs
FAST = RetryPolicy(max_attempts=3, base_s=0.001, max_s=0.002)

strategy_param = pytest.mark.parametrize("strategy", sorted(STRATEGIES))
mode_param = pytest.mark.parametrize("mode", ["inline", "process"])


def _run(db, catalog, plan, parallel, deadline=None, batch_size=None):
    stats = Stats()
    rt = ExecRuntime(db, stats, catalog=catalog, parallel=parallel,
                     deadline=deadline, batch_size=batch_size)
    rows = plan.execute(rt)
    return rows, stats, rt.fault_events


class TestFaultMatrix:
    @strategy_param
    @mode_param
    def test_fault_free(self, strategy, mode):
        db, catalog, plan = STRATEGIES[strategy]()
        oracle = Executor(db, catalog=catalog).execute(JOIN)
        with ParallelExecutor(db, catalog, workers=PARTS, mode=mode,
                              retry_policy=FAST) as parallel:
            rows, _, events = _run(db, catalog, plan, parallel)
            assert rows == oracle
            assert events["retries"] == 0 and not events["degraded"]
            assert parallel.last_report["mode"] == mode or parallel.degraded
            assert parallel.retries == 0 and parallel.timeouts == 0

    @strategy_param
    @mode_param
    def test_worker_crash_recovers_with_identical_rows(self, strategy, mode):
        db, catalog, plan = STRATEGIES[strategy]()
        oracle = Executor(db, catalog=catalog).execute(JOIN)
        with ParallelExecutor(db, catalog, workers=PARTS, mode=mode,
                              fault_plan=FaultPlan.crash_once(fragment=0),
                              retry_policy=FAST) as parallel:
            rows, _, events = _run(db, catalog, plan, parallel)
            assert rows == oracle
            assert events["retries"] == 1 and events["degraded"]
            assert parallel.pool_deaths == 1
            assert parallel.last_report["mode"] == "inline"  # degraded run

    @strategy_param
    @mode_param
    def test_transient_fault_retried_in_mode(self, strategy, mode):
        db, catalog, plan = STRATEGIES[strategy]()
        oracle = Executor(db, catalog=catalog).execute(JOIN)
        with ParallelExecutor(db, catalog, workers=PARTS, mode=mode,
                              fault_plan=FaultPlan.transient(times=1, fragment=1),
                              retry_policy=FAST) as parallel:
            rows, _, events = _run(db, catalog, plan, parallel)
            assert rows == oracle
            # a transient error does not degrade: the retry stays in-mode
            assert events["retries"] == 1 and not events["degraded"]
            assert parallel.transient_faults == 1
            assert parallel.last_report["mode"] == mode or parallel.degraded

    @strategy_param
    @mode_param
    def test_hang_bounded_by_deadline_then_recovers(self, strategy, mode):
        db, catalog, plan = STRATEGIES[strategy]()
        oracle = Executor(db, catalog=catalog).execute(JOIN)
        with ParallelExecutor(db, catalog, workers=PARTS, mode=mode,
                              fault_plan=FaultPlan.hang(fragment=0, delay_s=30.0),
                              retry_policy=FAST) as parallel:
            start = time.monotonic()
            with pytest.raises(QueryTimeoutError):
                _run(db, catalog, plan, parallel,
                     deadline=time.monotonic() + 0.3)
            # a 30 s hang surfaced within the polling granularity, not 30 s
            assert time.monotonic() - start < 5.0
            assert parallel.timeouts == 1
            # the pool was reclaimed: clearing the plan, the same executor
            # serves the query again with oracle rows
            parallel.inject(None)
            rows, _, _ = _run(db, catalog, plan, parallel)
            assert rows == oracle

    @mode_param
    def test_deadline_carrying_fragments_ship_chunked_rows(self, mode):
        """A deadline does not change the fragment contract: batch-mode
        fragments ship ``ChunkedRows`` and the gather reports the same
        counters (``batches_emitted`` included) as a no-deadline run."""
        db, catalog, plan = co_partitioned()
        oracle = Executor(db, catalog=catalog).execute(JOIN)
        specs = plan.child.payloads(batch_size=16)
        with ParallelExecutor(db, catalog, workers=PARTS, mode=mode,
                              retry_policy=FAST) as parallel:
            shipped = parallel.run_fragments(specs, deadline=time.monotonic() + 60)
            assert all(isinstance(rows, ChunkedRows) for rows, _ in shipped)
            snapshots = []
            for deadline in (None, time.monotonic() + 60):
                rows, stats, _ = _run(db, catalog, plan, parallel, deadline, 16)
                assert rows == oracle
                snapshots.append(stats.snapshot())
        assert snapshots[0] == snapshots[1]
        assert snapshots[1]["batches_emitted"] > 0

    @mode_param
    def test_expired_deadline_raises_then_recovers(self, mode):
        """An expired run stops at the gather's edge, before any fragment
        ships; a batch handed an expired deadline directly times out in
        the executor (counted), and the executor serves the next run."""
        db, catalog, plan = co_partitioned()
        oracle = Executor(db, catalog=catalog).execute(JOIN)
        with ParallelExecutor(db, catalog, workers=PARTS, mode=mode,
                              retry_policy=FAST) as parallel:
            with pytest.raises(QueryTimeoutError):
                _run(db, catalog, plan, parallel, time.monotonic() - 1, 16)
            assert parallel.timeouts == 0  # no batch was attempted
            with pytest.raises(QueryTimeoutError):
                parallel.run_fragments(
                    plan.child.payloads(batch_size=16), deadline=time.monotonic() - 1
                )
            assert parallel.timeouts == 1
            assert _run(db, catalog, plan, parallel, batch_size=16)[0] == oracle

    @mode_param
    def test_deadline_expiring_mid_fragment_raises(self, mode):
        """No injected fault: the fragments' own work outlives the budget
        (a 250k-pair join per fragment) and the per-batch polls stop it —
        in process mode, whichever of a worker's own poll and the
        coordinator's wait fires first."""
        db, catalog, plan = co_partitioned(n=1500, keys=3)
        with ParallelExecutor(db, catalog, workers=PARTS, mode=mode,
                              retry_policy=FAST) as parallel:
            start = time.monotonic()
            with pytest.raises(QueryTimeoutError):
                _run(db, catalog, plan, parallel, time.monotonic() + 0.02, 256)
            assert time.monotonic() - start < 5.0
            assert parallel.timeouts == 1

    def test_unplanned_worker_death_degrades_then_reforks_lazily(self):
        """A worker killed from outside — no crash fault planned — is a
        lost batch: oracle rows from the inline re-run, one death, no
        hang, and the next batch forks a fresh set on its own."""
        import multiprocessing
        import os
        import signal

        db, catalog, plan = co_partitioned()
        oracle = Executor(db, catalog=catalog).execute(JOIN)
        slow_workers = FaultPlan([FaultSpec("slow", None, (), delay_s=0.5,
                                            where="worker")])
        before = {p.pid for p in multiprocessing.active_children()}

        def kill_one():
            give_up = time.monotonic() + 5.0
            while time.monotonic() < give_up:
                ours = [p.pid for p in multiprocessing.active_children()
                        if p.pid not in before]
                if ours:
                    os.kill(ours[0], signal.SIGKILL)
                    return
                time.sleep(0.01)

        with ParallelExecutor(db, catalog, workers=PARTS, mode="process",
                              fault_plan=slow_workers,
                              retry_policy=FAST) as parallel:
            killer = threading.Thread(target=kill_one)
            killer.start()
            start = time.monotonic()
            rows, _, events = _run(db, catalog, plan, parallel)
            killer.join(timeout=10)
            assert not killer.is_alive()
            assert time.monotonic() - start < 5.0
            assert rows == oracle and events["degraded"]
            assert events["mode"] == "inline"
            assert parallel.pool_deaths == 1
            forks = parallel.pool_rebuilds
            rows, _, events = _run(db, catalog, plan, parallel)
            assert rows == oracle
            assert events["mode"] == "process" and not events["degraded"]
            assert parallel.pool_rebuilds == forks + 1

    def test_crash_recovery_preserves_stats_accounting(self):
        """Failed attempts contribute zero statistics: a crash-recovered
        run reports exactly the counters of a fault-free run."""
        db, catalog, plan = co_partitioned()
        baseline = Stats()
        rt = ExecRuntime(db, baseline, catalog=catalog)
        plan.execute(rt)
        with ParallelExecutor(db, catalog, workers=PARTS, mode="process",
                              fault_plan=FaultPlan.crash_once(fragment=0),
                              retry_policy=FAST) as parallel:
            _, stats, _ = _run(db, catalog, plan, parallel)
        assert stats.snapshot() == baseline.snapshot()


def two_gathers():
    """A union of two partition-wise gathers over co-partitioned X, Y:
    one run, two fragment batches."""
    db, catalog, first = co_partitioned()
    _, _, second = co_partitioned()
    return db, catalog, SetOp("union", first, second), (first, second)


class TestOneReportPerBatch:
    """Every batch of a run is counted: each gather's report is folded
    into the run's fault record, not written over the previous one."""

    @pytest.mark.parametrize("preset", ["transient-once", "crash-once"])
    @pytest.mark.parametrize("batch_size", [None, 256])
    @mode_param
    def test_two_gathers_fold_into_one_run_record(self, mode, batch_size, preset):
        db, catalog, plan, gathers = two_gathers()
        oracle = Executor(db, catalog=catalog).execute(B.union(JOIN, JOIN))
        recorder = TraceRecorder()
        with ParallelExecutor(db, catalog, workers=PARTS, mode=mode,
                              fault_plan=FaultPlan.parse(preset),
                              retry_policy=FAST) as parallel:
            rt = ExecRuntime(db, Stats(), catalog=catalog, parallel=parallel,
                             batch_size=batch_size, trace=recorder)
            rows = plan.execute(rt)
            assert rows == oracle
            events = rt.fault_events
            assert parallel.retries == 2
            assert events["retries"] == parallel.retries
            assert [a["attempt"] for a in events["attempts"]] == [0, 1, 0, 1]
            assert [a["status"] for a in events["attempts"]] == ["failed", "ok"] * 2
            assert events["degraded"] == (preset == "crash-once")
        for gather in gathers:
            own = recorder.gather_events[id(gather)]
            assert own["retries"] == 1
            assert [a["attempt"] for a in own["attempts"]] == [0, 1]
            assert own["fragments"] == PARTS

    @mode_param
    def test_timed_out_gather_keeps_its_attempt_records(self, mode):
        """A batch that raises still reports: its failed attempt reaches
        the run's fault record and the gather's trace events."""
        db, catalog, plan = co_partitioned()
        recorder = TraceRecorder()
        with ParallelExecutor(db, catalog, workers=PARTS, mode=mode,
                              fault_plan=FaultPlan.hang(fragment=0, delay_s=30.0),
                              retry_policy=FAST) as parallel:
            rt = ExecRuntime(db, Stats(), catalog=catalog, parallel=parallel,
                             deadline=time.monotonic() + 0.3, trace=recorder)
            with pytest.raises(QueryTimeoutError):
                plan.execute(rt)
        for events in (rt.fault_events, recorder.gather_events[id(plan)]):
            (attempt,) = events["attempts"]
            assert attempt["status"] == "failed"
            assert attempt["error"] == "QueryTimeoutError"
            assert events["error"] == "QueryTimeoutError"

    @pytest.mark.parametrize("batch_size", [None, 256])
    def test_gather_without_executor_is_lazy(self, monkeypatch, batch_size):
        """With no executor a gather runs one fragment per pull, and its
        rows and counters are an inline executor's."""
        import repro.shard.fragment as fragment

        db, catalog, plan = co_partitioned()
        ran = []
        real = fragment.execute_fragment

        def counting(*args, **kwargs):
            ran.append(kwargs["index"])
            return real(*args, **kwargs)

        monkeypatch.setattr(fragment, "execute_fragment", counting)
        rt = ExecRuntime(db, Stats(), catalog=catalog, batch_size=batch_size)
        stream = plan.stream_batches(rt) if batch_size else plan.stream(rt)
        first = next(stream)
        assert ran == [0]
        rows = set(first.rows if batch_size else [first])
        for item in stream:
            rows.update(item.rows if batch_size else [item])
        assert ran == list(range(PARTS))
        with ParallelExecutor(db, catalog, workers=PARTS, mode="inline",
                              fault_plan=FaultPlan()) as parallel:
            shipped, stats, _ = _run(db, catalog, plan, parallel, batch_size=batch_size)
        assert rows == shipped
        assert rt.stats.snapshot() == stats.snapshot()

    def test_service_faults_match_executor_retry_delta(self):
        db, catalog, _ = co_partitioned(n=2500, keys=2500)
        text = "select x.i from x in X where exists y in Y : x.a = y.d and y.w < $m"
        with QueryService(db, catalog=catalog) as serial:
            want = serial.execute(text, {"m": 2000}).rows
        with QueryService(db, catalog=catalog, parallel_workers=PARTS,
                          parallel_mode="inline",
                          fault_plan=FaultPlan.parse("transient-once"),
                          retry_policy=FAST) as svc:
            assert "Exchange(gather)" in svc.explain(text)
            before = svc._parallel_handle().retries
            res = svc.execute(text, {"m": 2000})
            assert res.rows == want
            delta = svc._parallel_handle().retries - before
            assert delta >= 1
            assert res.faults["retries"] == delta == svc.stats()["retries"]


class TestCircuitBreaker:
    def test_lifecycle(self):
        b = CircuitBreaker(threshold=2, cooldown_s=0.05)
        assert b.state == "closed" and b.allows()
        b.record_failure()
        assert b.state == "closed"
        b.record_failure()
        assert b.state == "open" and not b.allows() and b.trips == 1
        time.sleep(0.06)
        assert b.allows() and b.state == "half-open"
        b.record_failure()  # a failed probe re-opens immediately
        assert b.state == "open" and b.trips == 2
        time.sleep(0.06)
        assert b.allows()
        b.record_success()
        assert b.state == "closed"

    def test_validation(self):
        with pytest.raises(ServiceError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ServiceError):
            CircuitBreaker(cooldown_s=-1)

    def test_executor_routes_inline_while_open_then_recovers(self):
        """Repeated pool death opens the breaker; batches route inline
        without touching the pool; after cooldown a probe closes it."""
        db, catalog, plan = co_partitioned()
        oracle = Executor(db, catalog=catalog).execute(JOIN)
        # crash every pool attempt (worker-scoped: the inline fallback is
        # clean), threshold 1: the first death opens the breaker
        crash_always = FaultPlan([FaultSpec("crash", None, (), where="worker")])
        with ParallelExecutor(
            db, catalog, workers=PARTS, mode="process",
            fault_plan=crash_always, retry_policy=FAST,
            breaker=CircuitBreaker(threshold=1, cooldown_s=0.15),
        ) as parallel:
            rows, _, events = _run(db, catalog, plan, parallel)
            assert rows == oracle and events["degraded"]
            assert parallel.breaker.state == "open"
            rebuilds = parallel.pool_rebuilds
            deaths = parallel.pool_deaths
            # while open: straight to inline — no new death, no retry
            rows, _, events = _run(db, catalog, plan, parallel)
            assert rows == oracle
            assert events["mode"] == "inline" and events["degraded"]
            assert events["retries"] == 0
            assert parallel.pool_deaths == deaths
            # cooldown elapses, the fault is cleared: the half-open probe
            # succeeds on the pool and closes the breaker
            parallel.inject(None)
            time.sleep(0.2)
            rows, _, events = _run(db, catalog, plan, parallel)
            assert rows == oracle
            assert events["mode"] == "process"
            assert parallel.breaker.state == "closed"
            assert parallel.pool_rebuilds > rebuilds


class TestLockSplit:
    def test_inject_returns_immediately_mid_batch(self):
        """The satellite contract: lifecycle calls never block behind a
        long batch — they terminate the pool from under it, and the batch
        recovers inline with correct rows."""
        db, catalog, plan = co_partitioned()
        oracle = Executor(db, catalog=catalog).execute(JOIN)
        slow_workers = FaultPlan([FaultSpec("slow", None, (), delay_s=1.0,
                                            where="worker")])
        with ParallelExecutor(db, catalog, workers=PARTS, mode="process",
                              fault_plan=slow_workers,
                              retry_policy=FAST) as parallel:
            out = {}

            def batch():
                out["rows"], _, out["events"] = _run(db, catalog, plan, parallel)

            t = threading.Thread(target=batch)
            t.start()
            time.sleep(0.3)  # let the slow batch reach the pool
            start = time.monotonic()
            parallel.inject(None)
            assert time.monotonic() - start < 0.5, "inject blocked on the batch"
            t.join(timeout=10)
            assert not t.is_alive()
            assert out["rows"] == oracle
            # the batch observed the terminated pool and degraded inline
            assert out["events"]["degraded"]

    def test_close_mid_batch_still_returns_rows(self):
        db, catalog, plan = co_partitioned()
        oracle = Executor(db, catalog=catalog).execute(JOIN)
        slow_workers = FaultPlan([FaultSpec("slow", None, (), delay_s=1.0,
                                            where="worker")])
        parallel = ParallelExecutor(db, catalog, workers=PARTS, mode="process",
                                    fault_plan=slow_workers, retry_policy=FAST)
        out = {}
        t = threading.Thread(
            target=lambda: out.update(rows=_run(db, catalog, plan, parallel)[0])
        )
        t.start()
        time.sleep(0.3)
        start = time.monotonic()
        parallel.close()
        assert time.monotonic() - start < 0.5
        t.join(timeout=10)
        assert out["rows"] == oracle


class _FlakyExtentDB:
    """Delegates to a real store but fails ``extent()`` for chosen names
    with the given exception — the staleness probe's failure mode."""

    def __init__(self, db, broken, exc=ServiceError):
        self._db = db
        self._broken = broken
        self._exc = exc
        self.catalog = getattr(db, "catalog", None)

    def extent(self, name):
        if name in self._broken:
            raise self._exc(f"extent {name!r} unavailable")
        return self._db.extent(name)

    def deref(self, oid):
        return self._db.deref(oid)


class TestExtentIdentityFailures:
    """Satellite: the staleness probe no longer swallows exceptions."""

    def test_lookup_failure_counts_and_forces_refork(self):
        db, catalog, plan = co_partitioned()
        oracle = Executor(db, catalog=catalog).execute(JOIN)
        flaky = _FlakyExtentDB(db, {"X"})
        with ParallelExecutor(flaky, catalog, workers=PARTS, mode="process",
                              retry_policy=FAST) as parallel:
            rows, _, _ = _run(flaky, catalog, plan, parallel)
            assert rows == oracle  # co-partitioned shards come from the catalog
            first = parallel.pool_rebuilds
            assert parallel.extent_lookup_failures >= 1
            rows, _, _ = _run(flaky, catalog, plan, parallel)
            assert rows == oracle
            # the sentinel identity can never match: every run re-forks
            assert parallel.pool_rebuilds > first

    def test_non_repro_error_propagates(self):
        db, catalog, plan = co_partitioned()
        flaky = _FlakyExtentDB(db, {"X"}, exc=RuntimeError)
        with ParallelExecutor(flaky, catalog, workers=PARTS, mode="process",
                              retry_policy=FAST) as parallel:
            with pytest.raises(RuntimeError):
                _run(flaky, catalog, plan, parallel)


class TestEnvInjection:
    def test_env_plan_applies_and_recovers(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "transient-once")
        db, catalog, plan = co_partitioned()
        oracle = Executor(db, catalog=catalog).execute(JOIN)
        with ParallelExecutor(db, catalog, workers=PARTS, mode="inline",
                              retry_policy=FAST) as parallel:
            rows, _, events = _run(db, catalog, plan, parallel)
            assert rows == oracle
            assert events["retries"] == 1
            assert parallel.transient_faults >= 1

    def test_no_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert FaultPlan.from_env() is None


class TestRetryPolicy:
    def test_classification(self):
        pol = RetryPolicy()
        assert pol.classify(TransientFaultError("x")) == "transient"
        assert pol.classify(WorkerCrashError("x")) == "transient"
        assert pol.classify(BrokenPipeError()) == "transient"
        assert pol.classify(QueryTimeoutError("x")) == "timeout"
        assert pol.classify(ValueError("x")) == "fatal"
        assert pol.classify(ServiceError("x")) == "fatal"

    def test_backoff_deterministic_and_bounded(self):
        pol = RetryPolicy(base_s=0.01, multiplier=2.0, max_s=0.05, jitter=0.5)
        delays = [pol.backoff_s(a) for a in (1, 2, 3, 4, 10)]
        assert delays == [pol.backoff_s(a) for a in (1, 2, 3, 4, 10)]
        assert all(0 < d <= 0.05 for d in delays)
        nominal = [0.01, 0.02, 0.04, 0.05, 0.05]
        for d, n in zip(delays, nominal):
            assert n * 0.5 <= d <= n  # jitter shaves at most half

    def test_no_jitter_is_exact(self):
        pol = RetryPolicy(base_s=0.01, multiplier=2.0, max_s=1.0, jitter=0.0)
        assert pol.backoff_s(3) == pytest.approx(0.04)

    def test_sleep_backoff_respects_deadline(self):
        pol = RetryPolicy(base_s=0.2, jitter=0.0)
        with pytest.raises(QueryTimeoutError):
            pol.sleep_backoff(1, deadline=time.monotonic() + 0.01)

    def test_validation(self):
        with pytest.raises(ServiceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ServiceError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ServiceError):
            RetryPolicy(multiplier=0.5)


class TestFaultPlanUnits:
    def test_parse_presets(self):
        assert [s.kind for s in FaultPlan.parse("crash-once").specs] == ["crash"]
        plan = FaultPlan.parse("transient:3")
        assert plan.specs[0].attempts == (0, 1, 2)
        plan = FaultPlan.parse("crash-once+slow:0.01")
        assert [s.kind for s in plan.specs] == ["crash", "slow"]
        assert plan.specs[1].delay_s == pytest.approx(0.01)
        with pytest.raises(ServiceError):
            FaultPlan.parse("explode")

    def test_spec_scoping(self):
        spec = FaultSpec("transient", fragment=2, attempts=(0, 1), where="worker")
        assert spec.matches(2, 0, in_worker=True)
        assert not spec.matches(2, 0, in_worker=False)  # inline excluded
        assert not spec.matches(1, 0, in_worker=True)   # wrong fragment
        assert not spec.matches(2, 2, in_worker=True)   # attempt exhausted
        every = FaultSpec("slow", fragment=None, attempts=())
        assert every.matches(7, 99, in_worker=False)

    def test_spec_validation(self):
        with pytest.raises(ServiceError):
            FaultSpec("explode")
        with pytest.raises(ServiceError):
            FaultSpec("crash", where="everywhere")

    def test_pick_deterministic(self):
        plan = FaultPlan(seed=42)
        assert plan.pick(8) == plan.pick(8)
        assert 0 <= plan.pick(8, salt=3) < 8
        with pytest.raises(ServiceError):
            plan.pick(0)

    def test_slow_fault_returns_within_deadline(self):
        plan = FaultPlan.slow(delay_s=30.0)
        start = time.monotonic()
        plan.apply(index=0, attempt=0, deadline=time.monotonic() + 0.05)
        assert time.monotonic() - start < 1.0  # slow never outlives a deadline
