"""The parameterized plan cache.

PRs 1–3 made single-shot optimization good; this module makes it *cheap*
by amortizing it across executions, the way classic OODB servers treat
compiled query forms: optimization (rewrite, join ordering, physical
planning) is a per-**query-shape** cost, not a per-call cost.  A hit
skips those phases and goes straight to the compiled physical plan;
raw-text executions still parse once per call to compute the shape key
(prepared statements skip even that).

**Key.**  A cached plan is identified by ``(shape, catalog_version)``:

* *shape* — the canonical text of the parsed query (the OOSQL pretty
  printer emits re-parseable, whitespace/case/comment-normalized text), so
  two spellings of the same query share one plan and two *executions with
  different parameter bindings* share one plan by construction — ``$name``
  placeholders survive into the plan and bind at execution time.
  Queries that differ only in inline literal constants do **not** share a
  plan (the literal is part of the shape); prepared statements with
  parameters are the supported way to share.
* *catalog_version* — the monotonic counter
  :attr:`repro.storage.catalog.Catalog.version`, bumped by ``analyze()``,
  ``create_index()`` and the lazy stale-statistics refresh.  A lookup that
  finds an entry planned under an older version treats it as a miss and
  drops the entry (counted in :attr:`PlanCache.invalidations`), so a
  stale plan is never handed out after a catalog change.

**Concurrency.**  One lock around the LRU map; an entry's plan and
metadata are immutable after insertion (the plan tree is stateless — all
mutable execution state lives in an ``ExecRuntime``), so any number of
concurrent executions may share one entry.  The one mutable member is the
entry's free-list of *idle* runtimes (:attr:`CachedPlan.idle_runtimes`):
an execution pops one — or builds one — and owns it exclusively until its
run ends, so the closures compiled for a plan survive between runs without
ever being shared by two runs at once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.adl import ast as A
from repro.engine.plan import ExecRuntime, PlanNode


@dataclass(frozen=True)
class CachedPlan:
    """One compiled query shape: rewritten ADL + physical plan + metadata.

    Shareable across sessions and threads; parameter values never appear
    here (they bind per execution).
    """

    shape: str
    catalog_version: int
    expr: A.Expr                      # the chosen rewritten ADL form
    plan: PlanNode                    # the compiled physical plan
    param_names: Tuple[str, ...]      # every $name the statement declares
    option: str                       # which rewrite pipeline won
    explain: str                      # rendered physical plan, for tooling
    set_oriented: bool = True
    #: the plan contains a gather exchange: executions route through the
    #: service's parallel executor (when one is configured)
    parallel: bool = False
    #: visibility epoch of the store when the plan was priced (PR 7) —
    #: the epoch its statistics describe.  Executing the plan at a newer
    #: epoch is *allowed* (the catalog version gate already bounds how
    #: stale the statistics can be), but the service records the
    #: estimate-vs-actual delta for each such run instead of staying
    #: silent about it.
    epoch: Optional[int] = None
    #: the planner's output-cardinality estimate at compile time, the
    #: baseline the epoch-mismatch delta is computed against
    est_rows: Optional[float] = None
    #: idle :class:`~repro.engine.plan.ExecRuntime`\ s holding this plan's
    #: compiled closures and batch kernels (and, once released, nothing of
    #: the run that used them).  Checkout is ``pop()``, return is
    #: ``append()`` after a clean untraced run — each atomic, so no
    #: runtime is ever held twice.  A runtime is built only when the list
    #: is empty and only inside an execution slot, so the list never holds
    #: more than ``max_in_flight``; it dies with the entry, so a plan the
    #: catalog retired takes its runtimes with it.
    idle_runtimes: List[ExecRuntime] = field(
        default_factory=list, compare=False, repr=False
    )


@dataclass
class CacheStats:
    """Counters the service reports per :meth:`QueryService.stats` call."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0            # version-mismatch evictions
    evictions: int = 0                # LRU-capacity evictions

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }


class PlanCache:
    """A bounded LRU of :class:`CachedPlan` keyed on query shape.

    ``maxsize=0`` disables caching entirely (every lookup is a miss and
    nothing is stored) — the benchmark's cold path.
    """

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 0:
            raise ValueError(f"cache maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, shape: str, catalog_version: int) -> Optional[CachedPlan]:
        """The cached plan for ``shape`` at ``catalog_version``, or ``None``.

        An entry planned under an *older* catalog version is stale: it is
        dropped on sight and the lookup reports a miss, so no caller can
        ever execute a plan the catalog has moved past.  An entry planned
        under a *newer* version (the caller's version snapshot is behind —
        a concurrent compile raced an ``analyze()``) is left in place: the
        versions are monotonic, so the entry is the fresher one, and the
        caller will re-read the version and hit it on retry.
        """
        with self._lock:
            entry = self._entries.get(shape)
            if entry is None:
                self.stats.misses += 1
                return None
            if entry.catalog_version != catalog_version:
                if entry.catalog_version < catalog_version:
                    del self._entries[shape]
                    self.stats.invalidations += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(shape)
            self.stats.hits += 1
            return entry

    def peek(self, shape: str, catalog_version: int) -> Optional[CachedPlan]:
        """Like :meth:`get` but silent: no counters, no eviction, no LRU
        touch.  Used for the double-checked lookup inside the service's
        compile lock, where the outer :meth:`get` already accounted the
        miss — counting again would inflate the per-query statistics."""
        with self._lock:
            entry = self._entries.get(shape)
            if entry is not None and entry.catalog_version == catalog_version:
                return entry
            return None

    def put(self, entry: CachedPlan) -> None:
        if self.maxsize == 0:
            return
        with self._lock:
            existing = self._entries.get(entry.shape)
            if existing is not None and existing.catalog_version > entry.catalog_version:
                # a concurrent compile against a newer catalog already
                # landed; keep the newer plan
                return
            self._entries[entry.shape] = entry
            self._entries.move_to_end(entry.shape)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def entries(self) -> Tuple[CachedPlan, ...]:
        """A point-in-time snapshot of every cached entry, LRU-oldest
        first — the warm-start persistence path (PR 7) serializes from
        this without holding the lock during I/O."""
        with self._lock:
            return tuple(self._entries.values())
