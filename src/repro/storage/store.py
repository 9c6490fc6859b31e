"""The object store: class extents on paged heap files plus an oid index.

Implements the paper's logical-design mapping at the physical level:

* every class extension is a :class:`~repro.storage.pages.HeapFile` of
  (possibly complex) tuples — set-valued attributes are stored *clustered*
  with their parent tuple (the Section 3 assumption that makes unnesting
  them undesirable);
* every object carries an ``oid`` field; the store keeps an oid →
  ``(extent, page, slot)`` map, so oids behave like physical pointers —
  the property that makes the materialize/assembly operator of Section 6.2
  interesting;
* reference attributes hold :class:`~repro.datamodel.values.Oid` values.

The store satisfies the small protocol the ADL interpreter needs
(:meth:`extent`, :meth:`deref`) and adds the paged accessors
(:meth:`scan`, :meth:`fetch_many`) the physical operators use.

Visibility epochs (PR 7)
========================

Both stores are **multi-versioned at batch granularity**: every mutation
batch (a single ``insert``/``insert_rows``/``delete_rows``/``set_extent``
call, or everything inside one ``with db.batch():`` block) publishes a
new monotonic *epoch*.  A reader that pins an epoch
(:meth:`EpochStoreMixin.pin_epoch`) gets a **consistent multi-extent
view** of the database as of that epoch through :meth:`extent_at` /
:class:`EpochView`, no matter how many writer batches land while it
runs.  The machinery:

* mutations are serialized by a per-store re-entrant lock, held across
  *preserve → mutate → bump*;
* the pre-mutation value of an extent is preserved **only when some pin
  can still see it** (a pinned epoch at or after the value became
  current) — with no pins active, the write path is a lock acquisition
  and two dict updates, nothing is copied;
* preserved snapshots are reclaimed as soon as the last pin that could
  see them is released (counted in :attr:`reclaimed_snapshots` —
  "every event is counted, never silent"); ``keep_history=True`` turns
  reclamation off, which is what lets the stress tests compare every
  result against the exact per-epoch oracle after the fact.

Unpinned reads keep their pre-PR-7 semantics (the current extent value,
no isolation guarantee across extents); the epoch layer is strictly
additive.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.datamodel.errors import SchemaError, StorageError, UnknownExtentError
from repro.datamodel.schema import OID_ATTR, Schema
from repro.datamodel.values import Oid, Value, VTuple
from repro.storage.pages import HeapFile, IOCounter

DEFAULT_PAGE_SIZE = 4096


class EpochStoreMixin:
    """Visibility epochs + snapshot pinning, shared by both stores.

    The concrete store must call :meth:`_init_epochs` in ``__init__``,
    wrap every mutation in ``with self._mutating(extent_name):``, and
    implement ``_current_rows(name) -> frozenset`` (the extent's current
    value — identity-stable, exactly what ``extent()`` returns).
    """

    def _init_epochs(self) -> None:
        #: monotonic store epoch; bumped once per published mutation batch
        self._epoch: int = 0
        #: epoch → pin refcount (sessions / in-flight queries)
        self._pins: Dict[int, int] = {}
        #: the distinct pinned epochs, ascending — maintained alongside
        #: ``_pins`` so preservation gates are O(1) (max-pin check) and
        #: reclamation visibility tests are O(log pins) per preserved
        #: entry instead of a scan of the whole pin set (PR 8 fix of the
        #: PR 7 simplification; stress-tested at thousands of pins)
        self._pins_sorted: List[int] = []
        #: extent → epoch at which its current value became current
        self._changed_at: Dict[str, int] = {}
        #: extent → ascending ``[(became_current_epoch, rows), ...]`` of
        #: *superseded* values still visible to some pinned epoch
        self._preserved: Dict[str, List[Tuple[int, frozenset]]] = {}
        #: keep every superseded snapshot regardless of pins (time-travel
        #: mode for tests/debugging; reclamation is disabled)
        self.keep_history: bool = False
        # -- epoch accounting: every pin/preserve/reclaim event is counted
        self.pin_events: int = 0
        self.preserved_snapshots: int = 0
        self.reclaimed_snapshots: int = 0
        self._batch_depth: int = 0
        self._batch_touched: set = set()
        # re-entrant: extent materialization and preservation may nest
        # inside a batch held by the same writer thread
        self._epoch_lock = threading.RLock()

    # -- epoch introspection -------------------------------------------------
    @property
    def epoch(self) -> int:
        """The current visibility epoch (the newest published batch)."""
        return self._epoch

    @property
    def pinned_epochs(self) -> Dict[int, int]:
        """Live ``{epoch: refcount}`` snapshot (for stats/debugging)."""
        with self._epoch_lock:
            return dict(self._pins)

    # -- pinning ------------------------------------------------------------
    def pin_epoch(self, epoch: Optional[int] = None) -> int:
        """Pin ``epoch`` (default: the current one) and return it.

        While an epoch is pinned, :meth:`extent_at` for it stays
        answerable: mutation batches preserve the values it can see.
        Pinning an *older* epoch is only allowed while it is still
        pinned by someone else (or under ``keep_history``) — otherwise
        its snapshots may already be reclaimed and reads would be
        undefined.
        """
        with self._epoch_lock:
            if epoch is None:
                epoch = self._epoch
            elif epoch > self._epoch:
                raise StorageError(
                    f"cannot pin future epoch {epoch} (current is {self._epoch})"
                )
            elif (
                epoch < self._epoch
                and epoch not in self._pins
                and not self.keep_history
            ):
                raise StorageError(
                    f"epoch {epoch} is not pinned; its snapshots may already "
                    f"be reclaimed (current epoch is {self._epoch})"
                )
            count = self._pins.get(epoch, 0)
            if count == 0:
                insort(self._pins_sorted, epoch)
            self._pins[epoch] = count + 1
            self.pin_events += 1
            return epoch

    def unpin_epoch(self, epoch: int) -> None:
        """Release one pin on ``epoch``; the last release reclaims every
        preserved snapshot no remaining pin can see."""
        with self._epoch_lock:
            count = self._pins.get(epoch, 0)
            if count < 1:
                raise StorageError(f"epoch {epoch} is not pinned")
            if count == 1:
                del self._pins[epoch]
                self._pins_sorted.pop(bisect_left(self._pins_sorted, epoch))
                self._reclaim_locked()
            else:
                self._pins[epoch] = count - 1

    @contextmanager
    def pinned(self, epoch: Optional[int] = None):
        """``with db.pinned() as e:`` — pin for the block's duration."""
        pinned = self.pin_epoch(epoch)
        try:
            yield pinned
        finally:
            self.unpin_epoch(pinned)

    def _reclaim_locked(self) -> None:
        """Drop preserved snapshots no pin can see (caller holds the lock).

        A preserved entry ``(stamp, rows)`` is visible to pinned epoch
        ``P`` iff ``stamp <= P < next_stamp`` where ``next_stamp`` is the
        epoch its successor value became current at.  The test is a
        ``bisect`` into the sorted distinct-pin list — the smallest pin
        ``>= stamp`` either falls below ``next_stamp`` (visible) or no
        pin does — so a full reclaim costs O(entries x log pins), not a
        rescan of the pin set per entry.
        """
        if self.keep_history:
            return
        pins = self._pins_sorted
        for name in list(self._preserved):
            chain = self._preserved[name]
            kept: List[Tuple[int, frozenset]] = []
            for i, (stamp, rows) in enumerate(chain):
                next_stamp = (
                    chain[i + 1][0] if i + 1 < len(chain) else self._changed_at.get(name, 0)
                )
                idx = bisect_left(pins, stamp)
                if idx < len(pins) and pins[idx] < next_stamp:
                    kept.append((stamp, rows))
                else:
                    self.reclaimed_snapshots += 1
            if kept:
                self._preserved[name] = kept
            else:
                del self._preserved[name]

    # -- the atomic write path ----------------------------------------------
    @contextmanager
    def batch(self):
        """Group several mutations into **one** published epoch.

        The store lock is held for the whole block: concurrent pinners
        and epoch readers wait, so no pin can land between the batch's
        member mutations and observe a torn multi-extent state.  The new
        epoch becomes visible atomically when the block exits.
        """
        with self._epoch_lock:
            self._batch_depth += 1
            try:
                yield self
            finally:
                self._batch_depth -= 1
                if self._batch_depth == 0 and self._batch_touched:
                    self._epoch += 1
                    for name in self._batch_touched:
                        self._changed_at[name] = self._epoch
                    self._batch_touched.clear()

    @contextmanager
    def _mutating(self, *names: str):
        """Wrap one mutation of ``names``: preserve the pre-state any pin
        still needs, apply the mutation, publish the new epoch (deferred
        to the enclosing :meth:`batch`, if any)."""
        with self._epoch_lock:
            for name in names:
                self._preserve_if_needed(name)
            yield
            if self._batch_depth:
                self._batch_touched.update(names)
            else:
                self._epoch += 1
                for name in names:
                    self._changed_at[name] = self._epoch

    def _preserve_if_needed(self, name: str) -> None:
        """Keep the current value of ``name`` iff a pinned epoch (or
        ``keep_history``) can still see it.  Caller holds the lock."""
        changed = self._changed_at.get(name, 0)
        if not (
            self.keep_history
            or (self._pins_sorted and self._pins_sorted[-1] >= changed)
        ):
            return
        rows = self._current_rows(name)
        if rows is None:
            return  # the extent does not exist yet; nothing to preserve
        chain = self._preserved.setdefault(name, [])
        if chain and chain[-1][0] == changed:
            return  # this value is already preserved (second hit in a batch)
        chain.append((changed, rows))
        self.preserved_snapshots += 1

    def _current_rows(self, name: str) -> Optional[frozenset]:  # pragma: no cover
        raise NotImplementedError

    # -- epoch reads ---------------------------------------------------------
    def extent_at(self, name: str, epoch: Optional[int]) -> frozenset:
        """The value of ``name`` as of visibility ``epoch``.

        For the current epoch this returns the *identical* ``frozenset``
        object ``extent()`` returns, so every identity-based staleness
        handshake (statistics, indexes, partitionings, pool snapshots)
        keeps working unchanged on pinned-but-fresh reads.
        """
        if epoch is None:
            return self.extent(name)
        while True:
            with self._epoch_lock:
                if epoch < self._changed_at.get(name, 0):
                    best: Optional[frozenset] = None
                    for stamp, rows in self._preserved.get(name, ()):
                        if stamp <= epoch:
                            best = rows
                        else:
                            break
                    if best is None:
                        raise StorageError(
                            f"extent {name!r} has no snapshot at epoch {epoch}: "
                            f"it was reclaimed (epoch not pinned) or the extent "
                            f"did not exist yet"
                        )
                    return best
            # the epoch sees the extent's *current* value.  Materialize it
            # with the lock released — ``extent()`` may be slow (paged
            # cache rebuild, subclass hooks), and holding the store lock
            # across it would stall every pinner and writer behind one
            # reader.  Revalidate after: a writer that raced the read
            # moved ``changed_at`` and preserved the value this epoch
            # needs, so the loop picks it up from the chain.
            current = self.extent(name)
            with self._epoch_lock:
                if epoch >= self._changed_at.get(name, 0):
                    return current

    def extent_current_at(self, name: str, epoch: int) -> bool:
        """Is the extent's *current* value the one ``epoch`` sees?"""
        with self._epoch_lock:
            return epoch >= self._changed_at.get(name, 0)

    def epoch_stats(self) -> dict:
        """Counters for service-level observability."""
        with self._epoch_lock:
            return {
                "epoch": self._epoch,
                "pinned": sum(self._pins.values()),
                "pinned_epochs": len(self._pins),
                "pin_events": self.pin_events,
                "preserved_snapshots": self.preserved_snapshots,
                "reclaimed_snapshots": self.reclaimed_snapshots,
                "live_snapshots": sum(len(c) for c in self._preserved.values()),
            }


class EpochView:
    """A read-only view of a store at one pinned visibility epoch.

    Satisfies the interpreter protocol (``extent`` / ``deref``) plus the
    paged accessors; everything not overridden passes through to the
    base store (``catalog``, ``schema``, ``fetch_many``...).  The view
    itself takes no pin — the caller owns the pin's lifetime (the
    service pins at submission and unpins when the query finishes).
    """

    def __init__(self, base, epoch: int) -> None:
        # object.__setattr__-free plain attributes; __getattr__ below only
        # fires for names *not* found on the instance
        self._base = base
        self.pinned_epoch = epoch

    def rebind(self, epoch: int) -> None:
        """Point this view at another pinned epoch, in place.

        For the one owner of a view between two of its runs (a reused
        :class:`~repro.engine.plan.ExecRuntime`, whose compiled closures
        hold the view by reference) — never while a read is in progress.
        """
        self.pinned_epoch = epoch

    def extent(self, name: str) -> frozenset:
        return self._base.extent_at(name, self.pinned_epoch)

    def scan(self, name: str) -> Iterator[VTuple]:
        """Stream the epoch's rows.

        Always iterates the materialized epoch snapshot — delegating to
        the paged scan would race a concurrent writer appending pages and
        could leak post-epoch rows into a pinned read.  Consequence
        (documented): epoch-pinned reads charge no per-page I/O; the
        ``Stats`` counters (tuples, probes, breaks) are unaffected.
        """
        return iter(self.extent(name))

    def deref(self, oid: Oid) -> VTuple:
        return self._base.deref(oid)

    @property
    def scan_pages(self):
        # the passthrough below must NOT leak the base store's live page
        # scan into a pinned read (PR 8 batch consumers probe for this)
        raise AttributeError(
            "scan_pages is unavailable on epoch views: pinned reads "
            "iterate the materialized snapshot"
        )

    def __getattr__(self, name: str):
        return getattr(self._base, name)

    def __repr__(self) -> str:
        return f"EpochView({self._base!r} @ epoch {self.pinned_epoch})"


class Database(EpochStoreMixin):
    """Schema + extents + oid index.

    ``page_size`` controls the simulated page capacity; benchmarks vary it
    to expose I/O behaviour, unit tests leave the default.
    """

    def __init__(self, schema: Schema, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        self.schema = schema
        self.io = IOCounter()
        self._page_size = page_size
        self._files: Dict[str, HeapFile] = {}
        self._oid_index: Dict[Oid, Tuple[str, int, int]] = {}
        self._next_oid: Dict[str, int] = {}
        self._extent_cache: Dict[str, frozenset] = {}
        self._init_epochs()
        for name in schema.extent_names:
            self._files[name] = HeapFile(name, page_size, self.io)

    # -- population ---------------------------------------------------------
    def new_oid(self, class_name: str) -> Oid:
        number = self._next_oid.get(class_name, 0)
        self._next_oid[class_name] = number + 1
        return Oid(class_name, number)

    def insert(self, class_name: str, attributes: Mapping[str, Value]) -> Oid:
        """Create one object; returns its fresh oid.

        The attribute set must exactly match the class definition — objects
        with missing or extra fields would break the typed algebra.
        """
        cdef = self.schema.class_def(class_name)
        declared = set(cdef.attributes)
        given = set(attributes)
        if declared != given:
            missing = declared - given
            extra = given - declared
            parts = []
            if missing:
                parts.append(f"missing {sorted(missing)}")
            if extra:
                parts.append(f"unexpected {sorted(extra)}")
            raise SchemaError(f"insert into {class_name}: {', '.join(parts)}")
        oid = self.new_oid(class_name)
        fields = {OID_ATTR: oid}
        fields.update(attributes)
        record = VTuple(fields)
        with self._mutating(cdef.extent):
            page_id, slot = self._files[cdef.extent].append(record)
            self._oid_index[oid] = (cdef.extent, page_id, slot)
            self._extent_cache.pop(cdef.extent, None)
        # notified insert: the catalog (if one registered itself on this
        # store) may adjust the extent's cardinality incrementally on the
        # next stale-statistics lookup instead of re-analyzing.  Called
        # outside the mutation lock: the catalog's own lock nests *around*
        # store reads (analyze → extent), never the other way.
        catalog = getattr(self, "catalog", None)
        if catalog is not None:
            catalog.note_insert(cdef.extent)
        return oid

    def insert_many(self, class_name: str, rows: Iterable[Mapping[str, Value]]) -> List[Oid]:
        # one epoch for the whole load: the batch is the visibility unit
        with self.batch():
            return [self.insert(class_name, row) for row in rows]

    def _current_rows(self, name: str) -> Optional[frozenset]:
        if name not in self._files:
            return None
        return self.extent(name)

    # -- interpreter protocol --------------------------------------------------
    def extent(self, name: str) -> frozenset:
        """The extent as a set value (no I/O charge — logical access).

        The naive interpreter and the rewrite tests use this; physical
        operators use :meth:`scan`, which charges page reads.
        """
        if name not in self._files:
            raise UnknownExtentError(name)
        cached = self._extent_cache.get(name)
        if cached is not None:
            return cached
        # rebuild under the epoch lock: a writer appending pages mid-read
        # would otherwise produce a torn snapshot, and a torn snapshot
        # preserved for a pinned epoch would break snapshot isolation
        with self._epoch_lock:
            cached = self._extent_cache.get(name)
            if cached is None:
                rows = []
                for page in self._files[name].pages:
                    rows.extend(page.records)
                cached = self._extent_cache[name] = frozenset(rows)
            return cached

    def deref(self, oid: Oid) -> VTuple:
        """Follow a pointer (logical access, no I/O charge)."""
        try:
            extent_name, page_id, slot = self._oid_index[oid]
        except KeyError:
            raise StorageError(f"dangling oid {oid!r}") from None
        return self._files[extent_name].pages[page_id].records[slot]

    # -- physical access (counted) ------------------------------------------------
    def scan(self, name: str) -> Iterator[VTuple]:
        if name not in self._files:
            raise UnknownExtentError(name)
        return self._files[name].scan()

    def scan_pages(self, name: str) -> Iterator[List[VTuple]]:
        """Page-at-a-time scan for batch-mode consumers (PR 8): same I/O
        charges as :meth:`scan`, whole page record lists out.  Only the
        store itself offers this — epoch views deliberately do not, so a
        pinned read can never reach live pages through it."""
        if name not in self._files:
            raise UnknownExtentError(name)
        return self._files[name].scan_pages()

    def fetch(self, oid: Oid) -> VTuple:
        """Pointer dereference charged as a random page read."""
        try:
            extent_name, page_id, slot = self._oid_index[oid]
        except KeyError:
            raise StorageError(f"dangling oid {oid!r}") from None
        return self._files[extent_name].fetch(page_id, slot)

    def fetch_many(self, oids: Iterable[Oid]) -> List[VTuple]:
        """Assembly-style batched dereference: distinct pages charged once.

        Oids must all reference the same class; mixing classes would hide
        per-file locality, which is the thing being measured.
        """
        oid_list = list(oids)
        if not oid_list:
            return []
        by_extent: Dict[str, List[Tuple[int, int]]] = {}
        order: List[Tuple[str, int, int]] = []
        for oid in oid_list:
            try:
                extent_name, page_id, slot = self._oid_index[oid]
            except KeyError:
                raise StorageError(f"dangling oid {oid!r}") from None
            by_extent.setdefault(extent_name, []).append((page_id, slot))
            order.append((extent_name, page_id, slot))
        fetched: Dict[Tuple[str, int, int], VTuple] = {}
        for extent_name, addresses in by_extent.items():
            records = self._files[extent_name].fetch_clustered(addresses)
            for address, record in zip(sorted(addresses), records):
                fetched[(extent_name,) + address] = record
        return [fetched[key] for key in order]

    # -- introspection ---------------------------------------------------------------
    def extent_size(self, name: str) -> int:
        if name not in self._files:
            raise UnknownExtentError(name)
        return self._files[name].record_count

    def page_count(self, name: str) -> int:
        if name not in self._files:
            raise UnknownExtentError(name)
        return self._files[name].page_count

    def reset_io(self) -> None:
        self.io.reset()


def _row_oid(row) -> Optional[Oid]:
    """The oid an object row carries, or ``None`` for a plain tuple."""
    if isinstance(row, VTuple) and OID_ATTR in row:
        oid = row[OID_ATTR]
        if isinstance(oid, Oid):
            return oid
    return None


class MemoryDatabase(EpochStoreMixin):
    """A schema-less dict-backed database for algebra-level tests.

    Satisfies the interpreter protocol (:meth:`extent` / :meth:`deref`)
    without any schema or paging.  Handy for property tests that generate
    arbitrary relations, like the Figure 2 tables.
    """

    def __init__(self, extents: Optional[Mapping[str, Iterable[VTuple]]] = None) -> None:
        self.schema: Optional[Schema] = None
        self._extents: Dict[str, frozenset] = {}
        self._objects: Dict[Oid, VTuple] = {}
        self._init_epochs()
        if extents:
            with self.batch():  # the initial load is one epoch
                for name, rows in extents.items():
                    self.set_extent(name, rows)

    def _store_rows(
        self,
        name: str,
        rows: frozenset,
        added: Optional[Iterable[VTuple]] = None,
        removed: Iterable[VTuple] = (),
    ) -> None:
        """Publish ``rows`` as the extent's value and keep the oid map in
        step: objects among ``removed`` stop being dereferenceable, those
        among ``added`` (default: the whole extent) are registered —
        O(batch) for a notified write, never a walk of the extent."""
        self._extents[name] = rows
        for row in removed:
            oid = _row_oid(row)
            # a re-inserted oid may already name a newer row: keep that one
            if oid is not None and self._objects.get(oid) == row:
                del self._objects[oid]
        for row in rows if added is None else added:
            oid = _row_oid(row)
            if oid is not None:
                self._objects[oid] = row

    def _current_rows(self, name: str) -> Optional[frozenset]:
        return self._extents.get(name)

    def set_extent(self, name: str, rows: Iterable[VTuple]) -> None:
        with self._mutating(name):
            self._store_rows(name, frozenset(rows))
        # a wholesale replacement is an *unaccounted* change: the catalog
        # must fall back to a full re-analyze on the next staleness hit
        catalog = getattr(self, "catalog", None)
        if catalog is not None:
            catalog.note_replaced(name)

    def insert_rows(self, name: str, rows: Iterable[VTuple]) -> None:
        """Add rows to an extent as a *notified* insert: the catalog
        adjusts cardinality and its indexes on the extent incrementally,
        from the rows really added, instead of re-analyzing/rebuilding."""
        with self._mutating(name):
            before = self._extents.get(name, frozenset())
            added = frozenset(rows) - before
            after = before | added
            self._store_rows(name, after, added=added)
        catalog = getattr(self, "catalog", None)
        if catalog is not None:
            catalog.note_insert(name, len(added), before=before, after=after, rows=added)

    def delete_rows(self, name: str, rows: Iterable[VTuple]) -> None:
        """Remove rows from an extent as a *notified* delete."""
        with self._mutating(name):
            before = self.extent(name)
            removed = before & frozenset(rows)
            after = before - removed
            self._store_rows(name, after, added=(), removed=removed)
        catalog = getattr(self, "catalog", None)
        if catalog is not None:
            catalog.note_delete(name, len(removed), before=before, after=after, rows=removed)

    def extent(self, name: str) -> frozenset:
        try:
            return self._extents[name]
        except KeyError:
            raise UnknownExtentError(name) from None

    def deref(self, oid: Oid) -> VTuple:
        try:
            return self._objects[oid]
        except KeyError:
            raise StorageError(f"dangling oid {oid!r}") from None

    @property
    def extent_names(self) -> List[str]:
        return list(self._extents)
