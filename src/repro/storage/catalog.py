"""Catalog: per-extent statistics and named persistent indexes.

The paper's Section 5.1 payoff — "the optimizer may choose from a number
of different join processing strategies" — requires the optimizer to know
something about the data.  This module is that knowledge:

* :class:`ExtentStats` — cardinality, page count, per-attribute distinct
  counts, and average set-valued-attribute size for one extent, computed
  by :meth:`Catalog.analyze` (an ANALYZE-style full pass);
* named persistent :class:`HashIndex` es registered per ``(extent,
  attribute)`` — the access paths behind the planner's index-scan and
  index-nested-loop-join alternatives.  ``multi=True`` registers an
  *element* index over a set-valued attribute (``p.pid ∈ s.parts``-style
  probes).

The catalog works against any store satisfying the interpreter protocol
(:meth:`extent`); paged stores additionally contribute real
``page_count``/``extent_size`` numbers.  The staleness machinery below
additionally requires ``extent()`` to be **identity-stable**: the same
``frozenset`` object must come back until the extent actually changes
(both in-repo stores cache it that way).  A store that rebuilds the set
per call would not break correctness, but would make every lookup appear
stale and re-run ANALYZE each time.  Statistics and indexes are
snapshots, but stale ones are caught automatically: both record the
extent *value* they were computed from, and stores hand out a fresh
``frozenset`` whenever an extent changes, so an identity comparison
detects staleness.  Indexes follow notified write batches incrementally
(:meth:`Catalog.note_insert` / :meth:`Catalog.note_delete` publish a new
immutable :class:`NamedIndex` per batch, counted in
:attr:`Catalog.index_increments`) and are rebuilt at execution time when a
change was not notified (:attr:`Catalog.index_rebuilds`); statistics are
re-analyzed lazily on the next :meth:`stats` lookup (counted in
:attr:`Catalog.stat_refreshes`), so the cost model never silently prices
plans with numbers describing old data.  The cost model in
:mod:`repro.engine.cost` never *requires* statistics — unknown extents
fall back to defaults — so a catalog can be introduced incrementally.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.datamodel.errors import StorageError
from repro.datamodel.values import Value, VTuple
from repro.storage.index import HashIndex


@dataclass(frozen=True)
class ExtentStats:
    """One extent's ANALYZE output.

    ``source_rows`` keeps the extent value the statistics were computed
    from — the same identity-based staleness handshake named indexes use:
    stores hand out a fresh ``frozenset`` whenever an extent changes, so
    ``db.extent(name) is not stats.source_rows`` detects stale statistics
    (including same-cardinality replacements) without comparing rows.
    """

    extent: str
    cardinality: int
    pages: int
    #: per top-level attribute: number of distinct values
    distinct: Mapping[str, int] = field(default_factory=dict)
    #: per set-valued top-level attribute: mean element count
    avg_set_size: Mapping[str, float] = field(default_factory=dict)
    #: extent value identity at ANALYZE time (not part of equality)
    source_rows: frozenset = field(default_factory=frozenset, compare=False, repr=False)
    #: store visibility epoch at ANALYZE time (0 for epoch-less stores).
    #: Plans priced with these statistics record it; an execution pinned
    #: to a *newer* epoch is flagged by the service's estimate-vs-actual
    #: delta accounting instead of silently trusting old numbers.
    epoch: int = field(default=0, compare=False)

    def distinct_count(self, attr: str) -> Optional[int]:
        return self.distinct.get(attr)

    def set_size(self, attr: str) -> Optional[float]:
        return self.avg_set_size.get(attr)


@dataclass(frozen=True)
class NamedIndex:
    """A registered, persistent hash index over one extent attribute.

    ``multi`` indexes a set-valued attribute by its *elements*.  A
    ``NamedIndex`` is an **immutable (index, rows) pair**: ``source_rows``
    is the extent value ``index`` describes (stores return a fresh
    ``frozenset`` whenever the extent changes, so an identity comparison
    detects staleness — including same-cardinality replacements) and
    ``built_cardinality`` records its size for the cost model.  The
    catalog never edits a published one: a notified write batch
    (:meth:`Catalog.note_insert` / :meth:`Catalog.note_delete`) and a full
    :meth:`Catalog.create_index` rebuild both swap a *new* object into the
    registry, so a reader that fetched the previous one keeps probing an
    index that matches the rows it checked it against.
    """

    name: str
    extent: str
    attr: str
    multi: bool
    index: HashIndex
    built_cardinality: int
    source_rows: frozenset

    def lookup(self, key: Value) -> List[VTuple]:
        return self.index.lookup(key)


class Catalog:
    """Statistics + index registry over one database."""

    def __init__(self, db) -> None:
        self.db = db
        self._stats: Dict[str, ExtentStats] = {}
        self._indexes: Dict[Tuple[str, str], NamedIndex] = {}
        self._by_name: Dict[str, NamedIndex] = {}
        #: registered hash partitionings, one per extent
        #: (:class:`repro.shard.partition.PartitionedExtent`)
        self._partitions: Dict[str, object] = {}
        #: how many times :meth:`stats` lazily re-analyzed a stale extent
        #: (the statistics analogue of the runtime index-rebuild counter)
        self.stat_refreshes: int = 0
        #: how many times :meth:`stats` absorbed a change *incrementally*
        #: (notified inserts/deletes adjust cardinality without a full
        #: ANALYZE; per-attribute distinct counts stay lazily stale)
        self.stat_increments: int = 0
        #: how many times :meth:`partitioning` lazily re-partitioned a
        #: stale extent
        self.partition_refreshes: int = 0
        #: how many write batches were folded into a registered index
        #: incrementally (one per index per notified batch; O(batch) —
        #: see :meth:`_note`)
        self.index_increments: int = 0
        #: how many times :meth:`create_index` rebuilt an *existing*
        #: index from scratch (explicit re-creation or an
        #: execution-time heal of an index a notification missed)
        self.index_rebuilds: int = 0
        #: net notified row delta per extent since its last full ANALYZE.
        #: *Presence* of a key means every change since ANALYZE went
        #: through :meth:`note_insert`/:meth:`note_delete`, so the next
        #: staleness hit may adjust cardinality incrementally instead of
        #: re-analyzing; an unnotified replacement clears the key
        #: (:meth:`note_replaced`) and forces the full re-analyze.
        self._deltas: Dict[str, int] = {}
        #: extents with an *unaccounted* bulk change since their last
        #: ANALYZE — incremental adjustment is off for these until the
        #: next full re-analyze, even if later inserts are notified
        self._tainted: set = set()
        #: monotonic catalog version: bumped whenever the optimizer-visible
        #: state changes — :meth:`analyze` (new statistics),
        #: :meth:`create_index` (new/rebuilt access path), and the lazy
        #: stale-statistics refresh inside :meth:`stats`.  Plan caches key
        #: on it: a cached plan is valid only for the version it was
        #: planned under, so an ANALYZE or index change invalidates every
        #: cached plan at the next lookup.
        self.version: int = 0
        # reentrant: the lazy refresh in stats() holds it across
        # _analyze_one and the version bump
        self._lock = threading.RLock()
        # the delta hooks get their own lock: stores call note_insert /
        # note_delete / note_replaced while holding their epoch/mutation
        # lock, and analyze() holds self._lock while *reading* the store —
        # sharing self._lock here would be a lock-order inversion
        self._delta_lock = threading.Lock()
        # the catalog is *the database's* catalog: registering it on the
        # store lets execution runtimes find the indexes without explicit
        # threading (last constructed catalog wins)
        db.catalog = self

    def _bump_version(self) -> None:
        # += on an int is a read-modify-write; concurrent execution-time
        # index rebuilds would otherwise lose increments
        with self._lock:
            self.version += 1

    # -- statistics ----------------------------------------------------------
    def analyze(self, extents: Optional[Iterable[str]] = None) -> Dict[str, ExtentStats]:
        """Full-pass statistics for ``extents`` (default: every extent).

        Also re-derives the shards and per-partition statistics of any
        registered partitioning of an analyzed extent, so ANALYZE leaves
        whole-extent and per-shard numbers consistent.
        """
        with self._lock:
            for name in self._extent_names(extents):
                self._stats[name] = self._analyze_one(name)
                with self._delta_lock:
                    self._deltas.pop(name, None)
                    self._tainted.discard(name)
                existing = self._partitions.get(name)
                if existing is not None:
                    self._build_partitioning(name, existing.attr, existing.parts)
            self._bump_version()
            return dict(self._stats)

    def stats(self, extent: str) -> Optional[ExtentStats]:
        """Statistics for ``extent`` — re-analyzed lazily when stale.

        Staleness is detected the same way stale indexes are: by extent-
        value identity (stores return a fresh ``frozenset`` whenever an
        extent changes).  Never-analyzed extents stay unanalyzed; only
        statistics that *exist but describe old data* are refreshed, so
        the cost model never silently prices plans with stale numbers.

        Refresh is **incremental when possible**: when every change since
        the last ANALYZE was a notified insert/delete
        (:meth:`note_insert` / :meth:`note_delete` — stores wired to the
        catalog call these), the cardinality and page count are read off
        the current extent value directly and per-attribute distinct
        counts / set sizes are kept as-is (lazily stale — the documented
        contract; see ROADMAP "Incremental statistics").  Incremental
        adjustments are counted in :attr:`stat_increments`, full
        re-analyzes in :attr:`stat_refreshes`; both bump the catalog
        version (the optimizer-visible numbers changed either way).
        """
        stale = self._stats.get(extent)
        if stale is None:
            return None
        if hasattr(self.db, "extent"):
            try:
                current = self.db.extent(extent)
            except Exception:
                return stale
            if current is not stale.source_rows:
                # check-then-act under the lock: concurrent planners over a
                # shared catalog must not both re-analyze (each bump would
                # needlessly invalidate the other's freshly cached plans)
                # and the counter increment must not lose updates
                with self._lock:
                    stale = self._stats.get(extent)
                    if stale is not None and current is stale.source_rows:
                        return stale  # another thread already refreshed
                    with self._delta_lock:
                        incremental = extent in self._deltas and extent not in self._tainted
                    if incremental:
                        # all changes were notified: exact cardinality from
                        # the new extent value, distinct counts stay lazy
                        pages = (
                            self.db.page_count(extent)
                            if hasattr(self.db, "page_count")
                            else stale.pages
                        )
                        fresh = replace(
                            stale,
                            cardinality=len(current),
                            pages=pages,
                            source_rows=current,
                            epoch=getattr(self.db, "epoch", 0),
                        )
                        with self._delta_lock:
                            self._deltas.pop(extent, None)
                        self.stat_increments += 1
                    else:
                        fresh = self._analyze_one(extent)
                        self.stat_refreshes += 1
                        with self._delta_lock:
                            self._deltas.pop(extent, None)
                            self._tainted.discard(extent)
                    self._stats[extent] = fresh
                    self._bump_version()
                return fresh
        return stale

    # -- incremental maintenance hooks ---------------------------------------
    def note_insert(
        self,
        extent: str,
        count: int = 1,
        *,
        before: Optional[frozenset] = None,
        after: Optional[frozenset] = None,
        rows: Iterable[VTuple] = (),
    ) -> None:
        """Record ``count`` notified row insertions into ``extent``.

        Stores wired to a catalog (both in-repo stores are) call this on
        every insert, which licenses the next stale-statistics hit to
        adjust cardinality incrementally instead of re-analyzing.

        A store that can also name the batch exactly — ``before`` /
        ``after`` the extent values around it, ``rows`` the rows it
        really added — gets the extent's registered indexes maintained
        in O(batch) (:meth:`_note`); count-only callers leave them to
        the rebuild-on-staleness path.
        """
        self._note(extent, count, before, after, added=rows)

    def note_delete(
        self,
        extent: str,
        count: int = 1,
        *,
        before: Optional[frozenset] = None,
        after: Optional[frozenset] = None,
        rows: Iterable[VTuple] = (),
    ) -> None:
        """Record ``count`` notified row deletions from ``extent``;
        ``before`` / ``after`` / ``rows`` (the rows really removed) as in
        :meth:`note_insert`."""
        self._note(extent, -count, before, after, removed=rows)

    def _note(
        self,
        extent: str,
        delta: int,
        before: Optional[frozenset],
        after: Optional[frozenset],
        added: Iterable[VTuple] = (),
        removed: Iterable[VTuple] = (),
    ) -> None:
        """One notified write batch: count it for the statistics and, when
        the store named it exactly (``after`` given), fold it into every
        index of ``extent`` built from ``before`` by publishing a new
        :class:`NamedIndex` over ``after``.

        **No version bump** — the access path is the one cached plans
        were priced with; only ``built_cardinality`` drifts, the way
        distinct counts already do under incremental statistics.  An
        index whose ``source_rows`` is *not* ``before`` (a notification
        overtook this one, or an earlier change was unnotified) is left
        alone: it stays detectably stale and the next live-head read
        rebuilds it through :meth:`create_index`.
        """
        with self._delta_lock:
            self._deltas[extent] = self._deltas.get(extent, 0) + delta
        if after is None:
            return
        with self._lock:
            for slot, named in list(self._indexes.items()):
                if named.extent != extent or named.source_rows is not before:
                    continue
                fresh = replace(
                    named,
                    index=named.index.with_changes(added, removed),
                    built_cardinality=len(after),
                    source_rows=after,
                )
                self._indexes[slot] = fresh
                self._by_name[fresh.name] = fresh
                self.index_increments += 1

    def note_replaced(self, extent: str) -> None:
        """Record an *unaccounted* bulk change (e.g. ``set_extent``):
        forgets the notified-delta marker so the next staleness hit runs a
        full re-analyze instead of trusting stale distinct counts."""
        with self._delta_lock:
            self._deltas.pop(extent, None)
            self._tainted.add(extent)

    def _extent_names(self, extents: Optional[Iterable[str]]) -> List[str]:
        if extents is not None:
            return list(extents)
        schema = getattr(self.db, "schema", None)
        if schema is not None:
            return list(schema.extent_names)
        return list(getattr(self.db, "extent_names"))

    def _analyze_one(self, name: str) -> ExtentStats:
        rows = self.db.extent(name)
        if hasattr(self.db, "page_count"):
            pages = self.db.page_count(name)
        else:
            pages = 0
        return self._stats_for_rows(name, rows, pages, epoch=getattr(self.db, "epoch", 0))

    def _stats_for_rows(
        self, name: str, rows: frozenset, pages: int, epoch: int = 0
    ) -> ExtentStats:
        """The ANALYZE pass over an explicit row set — shared by whole
        extents and the per-shard statistics of partitioned extents."""
        distinct_values: Dict[str, set] = {}
        set_sizes: Dict[str, List[int]] = {}
        for row in rows:
            for attr in row.attributes:
                value = row[attr]
                distinct_values.setdefault(attr, set()).add(value)
                if isinstance(value, frozenset):
                    set_sizes.setdefault(attr, []).append(len(value))
        return ExtentStats(
            extent=name,
            cardinality=len(rows),
            pages=pages,
            distinct={a: len(vs) for a, vs in distinct_values.items()},
            avg_set_size={
                a: (sum(sizes) / len(sizes) if sizes else 0.0)
                for a, sizes in set_sizes.items()
            },
            source_rows=rows,
            epoch=epoch,
        )

    # -- partitioned extents -------------------------------------------------
    def partition(self, extent: str, attr: str, parts: int):
        """Hash-partition ``extent`` on ``attr`` into ``parts`` shards.

        Registers (replacing any previous partitioning of the extent) a
        :class:`repro.shard.partition.PartitionedExtent` snapshot with
        per-partition statistics, and bumps the catalog version — a new
        physical organization is optimizer-visible state, exactly like a
        new index.  Shards are derived with the process-stable hash in
        :mod:`repro.shard.partition`, so worker processes agree on shard
        membership.
        """
        with self._lock:
            pe = self._build_partitioning(extent, attr, parts)
            self._bump_version()
            return pe

    def _build_partitioning(self, extent: str, attr: str, parts: int):
        """Derive + register the shards of one extent (no version bump)."""
        from repro.shard.partition import PartitionedExtent, partition_rows

        rows = self.db.extent(extent)
        shards = partition_rows(rows, attr, parts)
        shard_stats = tuple(
            self._stats_for_rows(extent, shard, pages=0) for shard in shards
        )
        pe = PartitionedExtent(
            extent=extent,
            attr=attr,
            parts=parts,
            shards=tuple(shards),
            shard_stats=shard_stats,
            source_rows=rows,
        )
        self._partitions[extent] = pe
        return pe

    def partitioning(self, extent: str):
        """The registered partitioning of ``extent`` (or ``None``) —
        lazily re-derived when stale, by the same extent-value identity
        handshake statistics and indexes use.  Refreshes are counted in
        :attr:`partition_refreshes` and bump the version (shard contents
        and per-partition statistics changed)."""
        pe = self._partitions.get(extent)
        if pe is None:
            return None
        if hasattr(self.db, "extent"):
            try:
                current = self.db.extent(extent)
            except Exception:
                return pe
            if current is not pe.source_rows:
                with self._lock:
                    pe = self._partitions.get(extent)
                    if pe is not None and current is pe.source_rows:
                        return pe  # another thread already re-partitioned
                    pe = self._build_partitioning(extent, pe.attr, pe.parts)
                    self.partition_refreshes += 1
                    self._bump_version()
        return pe

    @property
    def partitionings(self) -> List:
        return list(self._partitions.values())

    def partition_snapshot(self) -> Dict[str, object]:
        """A consistent point-in-time copy of every registered
        partitioning — plain data, safe to hand to forked worker
        processes (workers must never take this catalog's lock).

        Runs the staleness handshake per entry first (via
        :meth:`partitioning`), so the snapshot always describes the
        *current* extent values — a snapshot of stale shards would make
        parallel fragments read pre-mutation data."""
        out: Dict[str, object] = {}
        for name in list(self._partitions):
            pe = self.partitioning(name)
            if pe is not None:
                out[name] = pe
        return out

    # -- indexes -------------------------------------------------------------
    def create_index(
        self,
        extent: str,
        attr: str,
        name: Optional[str] = None,
        multi: bool = False,
    ) -> NamedIndex:
        """Build and register a hash index on ``extent.attr``.

        Replaces any previous index on the same ``(extent, attr)`` pair;
        reusing a name for a *different* extent/attribute is an error
        (plans resolve indexes by name — a silently re-pointed name would
        make them probe the wrong attribute).  Re-issuing an identical
        ``create_index`` whose snapshot is already current (same extent
        value, same name and kind) returns the registered index unchanged
        — no rebuild, no version bump.
        """
        index_name = name or f"idx_{extent}_{attr}"
        # the whole body runs under the lock: execution-time staleness
        # rebuilds may arrive from several worker threads at once, and the
        # registry must never be observable half-updated (nor should two
        # racing rebuilds each pay an O(n) build and a cache-invalidating
        # version bump)
        with self._lock:
            existing = self._by_name.get(index_name)
            if existing is not None and (existing.extent, existing.attr) != (extent, attr):
                raise StorageError(
                    f"index name {index_name!r} already registered for "
                    f"{existing.extent}.{existing.attr}"
                )
            rows = self.db.extent(extent)
            replaced = self._indexes.get((extent, attr))
            if (
                replaced is not None
                and replaced.name == index_name
                and replaced.multi == multi
                and replaced.source_rows is rows
            ):
                # already fresh for the current extent value — a concurrent
                # rebuild beat us here; rebuilding again would only bump
                # the version and invalidate every cached plan for nothing
                return replaced
            built = HashIndex(rows, key=lambda row: row[attr], multi=multi)
            named = NamedIndex(
                name=index_name,
                extent=extent,
                attr=attr,
                multi=multi,
                index=built,
                built_cardinality=len(rows),
                source_rows=rows,
            )
            if replaced is not None:
                self.index_rebuilds += 1
                if replaced.name != index_name:
                    self._by_name.pop(replaced.name, None)
            self._indexes[(extent, attr)] = named
            self._by_name[index_name] = named
            self._bump_version()
            return named

    def index_on(self, extent: str, attr: str) -> Optional[NamedIndex]:
        return self._indexes.get((extent, attr))

    def index_named(self, name: str) -> Optional[NamedIndex]:
        return self._by_name.get(name)

    @property
    def indexes(self) -> List[NamedIndex]:
        return list(self._indexes.values())

    def fingerprint(self) -> str:
        """A content-based digest of everything the optimizer can see.

        Unlike :attr:`version` — a monotonic counter that restarts from
        zero in every process — the fingerprint hashes the *values* of
        the registered statistics, indexes and partitionings, so two
        catalogs rebuilt from the same data in different processes agree.
        The plan-cache warm start (PR 7/PR 9) persists it next to the
        cached plans: a restore matches on content, not on the rebuilt
        catalog happening to land on the same in-memory version number.
        """
        import hashlib

        with self._lock:
            stats = sorted(
                (
                    s.extent,
                    s.cardinality,
                    s.pages,
                    sorted(s.distinct.items()),
                    sorted(s.avg_set_size.items()),
                )
                for s in self._stats.values()
            )
            indexes = sorted(
                (n.name, n.extent, n.attr, n.multi, n.built_cardinality)
                for n in self._indexes.values()
            )
            partitions = sorted(
                (pe.extent, pe.attr, pe.parts, list(pe.cardinalities))
                for pe in self._partitions.values()
            )
        payload = repr((stats, indexes, partitions)).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()
