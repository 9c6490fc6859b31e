"""Process-global fault-injection state.

One slot per process: the :class:`~repro.faults.plan.FaultPlan` installed
here is consulted by the hook in
:func:`repro.shard.fragment.execute_fragment` whenever no plan is passed
explicitly.  Worker processes get their plan through this slot — each
worker's loop calls :func:`install` with ``in_worker=True`` — which is what
lets *crash* faults distinguish "kill this worker process" from "simulate
a crash inline" (a real ``os._exit`` in the coordinator would take the
whole test run down with it).

The slot is deliberately not thread-local: a fault plan describes the
whole process's behavior, and the coordinator-side inline path passes its
plan explicitly anyway (see ``ParallelExecutor``), so tests that install
globally and tests that inject per-executor never fight over it.
"""

from __future__ import annotations

from typing import Optional

_PLAN = None
_IN_WORKER = False


def install(plan, *, in_worker: bool = False) -> None:
    """Install ``plan`` (may be ``None``) as this process's fault plan."""
    global _PLAN, _IN_WORKER
    _PLAN = plan
    _IN_WORKER = in_worker


def clear() -> None:
    global _PLAN, _IN_WORKER
    _PLAN = None
    _IN_WORKER = False


def current() -> Optional[object]:
    return _PLAN


def in_worker() -> bool:
    """True in a forked worker process (set by its loop on start)."""
    return _IN_WORKER
