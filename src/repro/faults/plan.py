"""Deterministic fault injection: seedable, scripted failure plans.

A :class:`FaultPlan` is plain data describing *which* failures fire
*where*: each :class:`FaultSpec` names a fault kind, the fragment index
it targets, and the (0-based) batch **attempt numbers** on which it
fires.  Keying on ``(fragment, attempt)`` instead of mutable "remaining
fires" counters is what makes injection deterministic across process
boundaries: a forked worker and the coordinator's inline fallback reach
identical decisions from the same immutable plan, with no shared state
to synchronize — the coordinator threads the attempt number into every
fragment payload.

Fault kinds
===========

``crash``
    In a pool worker: ``os._exit`` — the real thing, an abrupt worker
    death the coordinator must detect as a lost batch.  On the inline
    path a hard exit would kill the coordinator itself, so the fault
    *simulates* the crash by raising
    :class:`~repro.datamodel.errors.WorkerCrashError` — same
    classification, same recovery path, survivable in tests.
``hang``
    Sleep for ``delay_s`` (far past any test deadline).  The sleep is
    chunked and deadline-aware so an inline hang converts into
    :class:`~repro.datamodel.errors.QueryTimeoutError` at the deadline
    instead of actually blocking the suite; a worker process's hang is
    additionally bounded by the coordinator's wait, which times out at
    the deadline and terminates the workers.
``transient``
    Raise :class:`~repro.datamodel.errors.TransientFaultError` — the
    retryable failure mode the backoff policy exists for.
``slow``
    Sleep ``delay_s`` and then *succeed* — latency injection without
    failure, for deadline and overhead tests.

``where`` restricts a spec to pool workers (``"worker"``), the
coordinator's inline path (``"inline"``), or both (``"any"``, default).

The plan's ``seed`` feeds :meth:`pick` (a deterministic pseudo-random
fragment choice) and is echoed into test fixtures so a failing fault
matrix entry reproduces from its parametrization alone.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.datamodel.errors import (
    QueryTimeoutError,
    ServiceError,
    TransientFaultError,
    WorkerCrashError,
)

KINDS = ("crash", "hang", "transient", "slow")

#: Exit status used by worker-side crash faults — distinguishable from a
#: clean exit in pool post-mortems.
CRASH_EXIT_CODE = 73

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1


def _mix(*parts: int) -> int:
    """FNV-1a over integer parts — the same stable-hash idea the shard
    router uses, kept local so :mod:`repro.faults` never imports
    :mod:`repro.shard` (the dependency runs the other way)."""
    acc = _FNV_OFFSET
    for part in parts:
        for byte in str(part).encode("ascii"):
            acc = ((acc ^ byte) * _FNV_PRIME) & _MASK
        acc = ((acc ^ 0x7C) * _FNV_PRIME) & _MASK
    return acc


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: ``kind`` at ``fragment`` on ``attempts``.

    ``fragment=None`` targets every fragment; ``attempts=()`` fires on
    every attempt (unbounded — pair it with a breaker or deadline test).
    """

    kind: str
    fragment: Optional[int] = None
    attempts: Tuple[int, ...] = (0,)
    delay_s: float = 30.0
    where: str = "any"  # "worker" | "inline" | "any"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ServiceError(f"unknown fault kind {self.kind!r} (one of {KINDS})")
        if self.where not in ("worker", "inline", "any"):
            raise ServiceError(f"unknown fault site {self.where!r}")

    def matches(self, index: int, attempt: int, in_worker: bool) -> bool:
        if self.fragment is not None and self.fragment != index:
            return False
        if self.attempts and attempt not in self.attempts:
            return False
        if self.where == "worker" and not in_worker:
            return False
        if self.where == "inline" and in_worker:
            return False
        return True


class FaultPlan:
    """An immutable, picklable script of injected faults.

    Crosses the fork boundary in each worker process's fork image;
    consulted by the hook at the top of
    :func:`repro.shard.fragment.execute_fragment`.
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed

    # -- construction helpers -------------------------------------------------
    @classmethod
    def crash_once(cls, fragment: int = 0, *, where: str = "any", seed: int = 0) -> "FaultPlan":
        """Crash the worker running ``fragment`` on the first attempt."""
        return cls([FaultSpec("crash", fragment, (0,), where=where)], seed=seed)

    @classmethod
    def hang(cls, fragment: int = 0, delay_s: float = 30.0, *, seed: int = 0) -> "FaultPlan":
        """Hang ``fragment`` for ``delay_s`` on every attempt."""
        return cls([FaultSpec("hang", fragment, (), delay_s=delay_s)], seed=seed)

    @classmethod
    def transient(cls, times: int = 1, fragment: Optional[int] = None, *, seed: int = 0) -> "FaultPlan":
        """Raise a transient error on the first ``times`` attempts."""
        return cls([FaultSpec("transient", fragment, tuple(range(times)))], seed=seed)

    @classmethod
    def slow(cls, delay_s: float, fragment: Optional[int] = None, *, seed: int = 0) -> "FaultPlan":
        """Delay fragments by ``delay_s`` without failing them."""
        return cls([FaultSpec("slow", fragment, (), delay_s=delay_s)], seed=seed)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """A plan from a compact spec string — the CI / env-var surface.

        ``"crash-once"``, ``"transient-once"``, ``"transient:3"``,
        ``"hang:0.5"``, ``"slow:0.01"``; ``+``-separated specs compose.
        """
        specs = []
        for part in text.split("+"):
            part = part.strip()
            if not part:
                continue
            name, _, arg = part.partition(":")
            if name == "crash-once":
                specs.append(FaultSpec("crash", 0, (0,)))
            elif name == "transient-once":
                specs.append(FaultSpec("transient", None, (0,)))
            elif name == "transient":
                specs.append(FaultSpec("transient", None, tuple(range(int(arg or 1)))))
            elif name == "hang":
                specs.append(FaultSpec("hang", 0, (), delay_s=float(arg or 30.0)))
            elif name == "slow":
                specs.append(FaultSpec("slow", None, (), delay_s=float(arg or 0.01)))
            else:
                raise ServiceError(f"unknown fault plan spec {part!r}")
        return cls(specs)

    @classmethod
    def from_env(cls, var: str = "REPRO_FAULT_PLAN") -> Optional["FaultPlan"]:
        """The plan named by ``$REPRO_FAULT_PLAN``, or ``None``.

        This is how CI re-runs the whole parallel-parity suite under an
        injected crash-once plan without touching any test."""
        text = os.environ.get(var)
        return cls.parse(text) if text else None

    # -- deterministic choice -------------------------------------------------
    def pick(self, total: int, salt: int = 0) -> int:
        """A seed-deterministic fragment index in ``[0, total)`` — for
        plans that want "crash *a* fragment" without hardcoding which."""
        if total < 1:
            raise ServiceError(f"pick needs total >= 1, got {total}")
        return _mix(self.seed, salt) % total

    # -- the injection point --------------------------------------------------
    def apply(
        self,
        *,
        index: int,
        attempt: int,
        deadline: Optional[float] = None,
        in_worker: bool = False,
    ) -> None:
        """Fire every matching fault for this (fragment, attempt) site.

        Called at the top of ``execute_fragment`` — before any rows are
        produced, so a failed attempt never contributes partial statistics
        to the run that eventually succeeds.
        """
        for spec in self.specs:
            if not spec.matches(index, attempt, in_worker):
                continue
            if spec.kind == "crash":
                if in_worker:
                    os._exit(CRASH_EXIT_CODE)
                raise WorkerCrashError(
                    f"injected crash on fragment {index} (attempt {attempt}, inline)"
                )
            if spec.kind == "transient":
                raise TransientFaultError(
                    f"injected transient fault on fragment {index} (attempt {attempt})"
                )
            if spec.kind in ("hang", "slow"):
                self._sleep(spec, index, deadline)
                # slow: continue into normal execution; hang survived the
                # full delay only because no deadline bounded it

    @staticmethod
    def _sleep(spec: FaultSpec, index: int, deadline: Optional[float]) -> None:
        """Chunked, deadline-aware sleep shared by hang and slow faults."""
        end = time.monotonic() + spec.delay_s
        while True:
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                if spec.kind == "hang":
                    raise QueryTimeoutError(
                        f"injected hang on fragment {index} exceeded the deadline"
                    )
                return  # a slow fault never outlives the deadline by itself
            if now >= end:
                return
            cap = end - now if deadline is None else min(end, deadline) - now
            time.sleep(min(0.01, max(cap, 0.0)))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{s.kind}@{'*' if s.fragment is None else s.fragment}"
            f"[{','.join(map(str, s.attempts)) or '*'}]"
            for s in self.specs
        )
        return f"FaultPlan({inner}; seed={self.seed})"
