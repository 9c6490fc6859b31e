"""Fault tolerance for query execution (PR 6).

Two halves, deliberately packaged together because each is the other's
test harness:

* **Injection** — :class:`FaultPlan` / :class:`FaultSpec`
  (:mod:`repro.faults.plan`) script deterministic failures (worker
  crash, hang, transient error, slow fragment) keyed on
  ``(fragment, attempt)``, passed by the executor to the hook in
  :func:`repro.shard.fragment.execute_fragment` (with ``in_worker=True``
  from each worker process's loop, so a crash exits only a worker).
  ``REPRO_FAULT_PLAN`` injects a plan from the environment, which is
  how CI replays the whole parallel-parity suite under a crash-once
  plan.
* **Resilience** — :class:`RetryPolicy` (:mod:`repro.faults.retry`:
  bounded attempts, exponential backoff, deterministic jitter,
  transient/timeout/fatal classification) and :class:`CircuitBreaker`
  (:mod:`repro.faults.breaker`: repeated parallel-path failure routes
  gather-bearing plans inline until a cooldown expires), consumed by
  :class:`repro.shard.executor.ParallelExecutor` and surfaced through
  :class:`repro.service.QueryService` counters.

The dependency direction is one-way: :mod:`repro.shard` and
:mod:`repro.service` import this package, never the reverse.
"""

from repro.faults.breaker import CircuitBreaker
from repro.faults.plan import CRASH_EXIT_CODE, FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy

__all__ = [
    "CRASH_EXIT_CODE",
    "CircuitBreaker",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
]
