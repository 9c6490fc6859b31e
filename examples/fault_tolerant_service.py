"""Fault-tolerant query execution end to end: inject → retry → degrade →
recover (PR 6).

Walks through:

1. **Deterministic fault injection** — a seedable :class:`FaultPlan`
   scripts failures keyed on ``(fragment, attempt)``: worker crashes,
   hangs, transient errors, slow fragments.  Plain data, so a forked
   worker and the coordinator reach identical decisions with no shared
   counters.
2. **Transient faults retry** — a bounded :class:`RetryPolicy` with
   exponential backoff and *deterministic* jitter re-runs the batch;
   the retry stays on the pool and the query result is byte-identical.
3. **Worker crashes degrade** — a killed worker (``os._exit`` mid-
   fragment) is seen at once: the coordinator waits on every busy
   worker's pipe *and* its process sentinel, and the sentinel fires when
   the worker exits.  The batch re-runs inline through the *same*
   ``execute_fragment`` path, so the degraded rows are provably the rows
   the workers would have produced; the next batch forks a fresh set.
4. **Deadlines bound everything** — ``execute(timeout=...)`` cancels a
   hung parallel batch (the coordinator's wait times out at the deadline
   and terminates the workers) and even a serial nested loop (polled
   once per batch).
5. **The breaker routes around repeated failure** — consecutive pool
   deaths open a circuit breaker that sends gather-bearing plans
   straight to the inline path until a cooldown expires; a half-open
   probe then closes it.

Every event is visible: ``QueryResult.faults`` carries the per-query
record, ``QueryService.stats()`` the running counters.

Run:  PYTHONPATH=src python examples/fault_tolerant_service.py
"""

import time

from repro.datamodel import VTuple
from repro.datamodel.errors import QueryTimeoutError
from repro.faults import CircuitBreaker, FaultPlan, FaultSpec, RetryPolicy
from repro.service import QueryService
from repro.storage import Catalog, MemoryDatabase

QUERY = "select x.i from x in X where exists y in Y : x.a = y.d and y.w < $m"


def banner(title):
    print("=" * 72)
    print(title)
    print("=" * 72)


def make_world(n=3000, parts=4):
    db = MemoryDatabase({
        "X": [VTuple(a=i, v=i % 100, i=i) for i in range(n)],
        "Y": [VTuple(d=i % n, w=i % 7) for i in range(n)],
    })
    catalog = Catalog(db)
    catalog.analyze()
    catalog.partition("X", "a", parts)
    catalog.partition("Y", "d", parts)
    return db, catalog


def main():
    db, catalog = make_world()
    with QueryService(db, catalog=catalog) as serial:
        oracle = serial.execute(QUERY, {"m": 3}).rows
    print(f"oracle: {len(oracle)} rows from the serial engine\n")

    # -- 1 + 2: a transient fault, retried --------------------------------
    banner("Transient fault: retried with backoff, identical rows")
    policy = RetryPolicy(max_attempts=3, base_s=0.01, jitter=0.5)
    print("deterministic backoff schedule:",
          [round(policy.backoff_s(a), 4) for a in (1, 2)])
    with QueryService(db, catalog=catalog, parallel_workers=4,
                      fault_plan=FaultPlan.transient(times=1),
                      retry_policy=policy) as svc:
        res = svc.execute(QUERY, {"m": 3})
        assert res.rows == oracle
        print(f"rows match oracle: {len(res.rows)}")
        print(f"result.faults = {res.faults}\n")

    # -- 3: a worker crash, degraded to inline ----------------------------
    banner("Worker crash: detected, degraded inline, identical rows")
    with QueryService(db, catalog=catalog, parallel_workers=4,
                      fault_plan=FaultPlan.crash_once(fragment=0,
                                                      where="worker"),
                      retry_policy=policy) as svc:
        res = svc.execute(QUERY, {"m": 3})
        assert res.rows == oracle
        print(f"rows match oracle: {len(res.rows)}")
        print(f"result.faults = {res.faults}")
        stats = svc.stats()
        print(f"service: degraded_runs={stats['degraded_runs']}, "
              f"pool_deaths={stats['parallel']['pool_deaths']}\n")

    # -- 4: a hang, bounded by the deadline -------------------------------
    banner("Hang: execute(timeout=0.5) cancels it, pool reclaimed")
    with QueryService(db, catalog=catalog, parallel_workers=4,
                      fault_plan=FaultPlan.hang(fragment=0, delay_s=30.0),
                      retry_policy=policy) as svc:
        start = time.monotonic()
        try:
            svc.execute(QUERY, {"m": 3}, timeout=0.5)
        except QueryTimeoutError as exc:
            print(f"QueryTimeoutError after {time.monotonic() - start:.2f}s: {exc}")
        svc._parallel_handle().inject(None)  # lift the injected hang
        res = svc.execute(QUERY, {"m": 3})
        assert res.rows == oracle
        print(f"next query on the same service: {len(res.rows)} rows, "
              f"timeouts={svc.stats()['timeouts']}\n")

    # -- 5: the breaker opens, cools down, closes -------------------------
    banner("Circuit breaker: open on repeated death, probe, close")
    crash_always = FaultPlan([FaultSpec("crash", None, (), where="worker")])
    from repro.shard import ParallelExecutor
    with ParallelExecutor(db, catalog, workers=4,
                          fault_plan=crash_always,
                          retry_policy=policy,
                          breaker=CircuitBreaker(threshold=1,
                                                 cooldown_s=0.3)) as ex:
        from repro.shard.fragment import FragmentSpec, ShardRef, SCAN_PLACEHOLDER
        specs = [FragmentSpec.make(SCAN_PLACEHOLDER,
                                   {SCAN_PLACEHOLDER: ShardRef("X", "a", 4, i)})
                 for i in range(4)]
        ex.run_fragments(specs)
        print(f"after pool death: breaker={ex.breaker.state}, "
              f"last run mode={ex.last_report['mode']}")
        ex.run_fragments(specs)
        print(f"while open: mode={ex.last_report['mode']} "
              f"(straight to inline, no fork)")
        ex.inject(None)          # lift the fault
        time.sleep(0.35)         # let the cooldown expire
        ex.run_fragments(specs)
        print(f"after cooldown probe: breaker={ex.breaker.state}, "
              f"mode={ex.last_report['mode']}")
        print(f"executor counters: retries={ex.retries}, "
              f"degraded_runs={ex.degraded_runs}, pool_deaths={ex.pool_deaths}")


if __name__ == "__main__":
    main()
