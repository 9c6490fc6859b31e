"""Incrementally maintained, epoch-safe catalog indexes.

A notified write batch (``MemoryDatabase.insert_rows`` / ``delete_rows``)
publishes a *new* immutable ``NamedIndex`` that shares every untouched
bucket with the previous one; nothing a reader holds is ever edited, the
catalog version does not move, and an index a notification missed stays
detectably stale (``source_rows is not db.extent(...)``) for the
rebuild-on-staleness path.  Everything here is asserted on results and
counters, never on wall clock.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import VTuple, vset
from repro.storage import Catalog, HashIndex, MemoryDatabase


def _row(a, b):
    return VTuple(a=a, b=b, c=vset(*range(a)))  # a = 0 files under no element


def _assert_equals_fresh(named, db):
    """``named`` == a from-scratch index over the current extent,
    bucket for bucket as multisets."""
    rows = db.extent("X")
    assert named.source_rows is rows
    assert named.built_cardinality == len(rows)
    attr = named.attr
    fresh = HashIndex(rows, key=lambda r: r[attr], multi=named.multi)
    assert set(named.index._buckets) == set(fresh._buckets)  # no emptied bucket left behind
    for key, bucket in fresh._buckets.items():
        assert Counter(named.index.lookup(key)) == Counter(bucket)


#: small domains: duplicates, re-inserts, deletes of absent rows and
#: emptied buckets all occur
_rows = st.lists(st.builds(_row, st.integers(0, 3), st.integers(0, 5)), max_size=4)
_ops = st.lists(st.tuples(st.sampled_from(["insert", "delete"]), _rows), max_size=12)


class TestMaintainedIndexProperty:
    @given(initial=_rows, ops=_ops)
    @settings(max_examples=150, deadline=None)
    def test_random_interleavings_match_a_fresh_build(self, initial, ops):
        db = MemoryDatabase({"X": initial})
        catalog = Catalog(db)
        catalog.create_index("X", "a")
        catalog.create_index("X", "c", multi=True)
        version = catalog.version
        for i, (kind, rows) in enumerate(ops):
            held = catalog.index_on("X", "a")
            held_rows = held.source_rows
            held_answers = {k: list(held.lookup(k)) for k in range(4)}
            (db.insert_rows if kind == "insert" else db.delete_rows)("X", rows)
            for attr in ("a", "c"):
                _assert_equals_fresh(catalog.index_on("X", attr), db)
            assert catalog.index_named("idx_X_a") is catalog.index_on("X", "a")
            # the handle taken before the write still answers from its own rows
            assert held.source_rows is held_rows
            assert {k: held.lookup(k) for k in range(4)} == held_answers
            assert all(r in held_rows for k in range(4) for r in held.lookup(k))
            assert catalog.index_increments == 2 * (i + 1)
        assert catalog.version == version
        assert catalog.index_rebuilds == 0


class TestWithChanges:
    def test_shares_untouched_buckets_and_copies_touched_ones(self):
        rows = [VTuple(a=1, b=1), VTuple(a=1, b=2), VTuple(a=2, b=3), VTuple(a=3, b=4)]
        old = HashIndex(rows, key=lambda r: r["a"])
        before = {k: list(old.lookup(k)) for k in (1, 2, 3)}
        new = old.with_changes(added=[VTuple(a=1, b=9)], removed=[VTuple(a=3, b=4)])
        assert new.lookup(2) is old.lookup(2)  # shared, not copied
        assert new.lookup(1) is not old.lookup(1)
        assert Counter(new.lookup(1)) == Counter(before[1] + [VTuple(a=1, b=9)])
        assert 3 not in new and len(new) == 2
        assert {k: old.lookup(k) for k in (1, 2, 3)} == before  # the original is untouched

    def test_multi_index_files_and_unfiles_each_element(self):
        keep = VTuple(n="keep", c=vset(1, 2))
        gone = VTuple(n="gone", c=vset(2, 3))
        old = HashIndex([keep, gone], key=lambda r: r["c"], multi=True)
        new = old.with_changes(added=[VTuple(n="new", c=vset(3))], removed=[gone])
        assert new.lookup(1) is old.lookup(1)
        assert [r["n"] for r in new.lookup(2)] == ["keep"]
        assert [r["n"] for r in new.lookup(3)] == ["new"]
        assert sorted(r["n"] for r in old.lookup(2)) == ["gone", "keep"]


class TestCatalogHooks:
    @pytest.fixture()
    def db(self):
        return MemoryDatabase({"X": [_row(i % 3, i) for i in range(9)]})

    def test_a_published_named_index_is_immutable(self, db):
        named = Catalog(db).create_index("X", "a")
        with pytest.raises(AttributeError):
            named.source_rows = frozenset()

    def test_count_only_notifications_leave_the_index_to_the_rebuild_path(self, db):
        catalog = Catalog(db)
        named = catalog.create_index("X", "a")
        catalog.note_insert("X")
        catalog.note_insert("X", 3)
        catalog.note_delete("X", 2)
        assert catalog.index_on("X", "a") is named
        assert catalog.index_increments == 0

    def test_out_of_order_notifications_leave_the_index_stale_not_wrong(self, db):
        catalog = Catalog(db)
        catalog.create_index("X", "a")
        v0 = db.extent("X")
        first, second = [_row(1, 100)], [_row(2, 200)]
        v1 = v0 | frozenset(first)
        v2 = v1 | frozenset(second)
        db.catalog = None  # deliver the two notifications by hand, newest first
        db.insert_rows("X", first)
        db.insert_rows("X", second)
        db.catalog = catalog
        catalog.note_insert("X", 1, before=v1, after=v2, rows=second)
        assert catalog.index_on("X", "a").source_rows is v0  # skipped: not built from v1
        catalog.note_insert("X", 1, before=v0, after=v1, rows=first)
        stale = catalog.index_on("X", "a")
        assert stale.source_rows is v1 and stale.source_rows is not db.extent("X")
        assert Counter(stale.lookup(1)) == Counter(r for r in v1 if r["a"] == 1)
        assert catalog.index_increments == 1
        # the staleness is visible, so a rebuild heals it — and is counted
        healed = catalog.create_index("X", "a")
        assert healed.source_rows is db.extent("X")
        assert catalog.index_rebuilds == 1

    def test_create_index_racing_a_write_wins_over_the_late_notification(self, db):
        catalog = Catalog(db)
        catalog.create_index("X", "a")
        v0 = db.extent("X")
        batch = [_row(1, 100)]
        db.catalog = None
        db.insert_rows("X", batch)  # mutated, notification still in flight ...
        db.catalog = catalog
        rebuilt = catalog.create_index("X", "a")  # ... a reader rebuilds first
        catalog.note_insert("X", 1, before=v0, after=db.extent("X"), rows=batch)
        assert catalog.index_on("X", "a") is rebuilt  # the row is not filed twice
        _assert_equals_fresh(rebuilt, db)
        assert (catalog.index_rebuilds, catalog.index_increments) == (1, 0)

    def test_set_extent_takes_the_full_rebuild_path(self, db):
        catalog = Catalog(db)
        catalog.create_index("X", "a")
        version = catalog.version
        db.set_extent("X", [_row(1, 1), _row(2, 2)])
        stale = catalog.index_on("X", "a")
        assert stale.source_rows is not db.extent("X")
        assert catalog.index_increments == 0
        catalog.create_index("X", "a")
        _assert_equals_fresh(catalog.index_on("X", "a"), db)
        assert catalog.index_rebuilds == 1 and catalog.version == version + 1
        # and maintenance picks up again from the rebuilt index
        db.insert_rows("X", [_row(3, 3)])
        _assert_equals_fresh(catalog.index_on("X", "a"), db)
        assert catalog.index_increments == 1

    def test_only_the_written_extents_indexes_move(self):
        db = MemoryDatabase({"X": [_row(1, 1)], "Y": [VTuple(d=1)]})
        catalog = Catalog(db)
        catalog.create_index("X", "a")
        y_index = catalog.create_index("Y", "d")
        db.insert_rows("X", [_row(2, 2)])
        assert catalog.index_on("Y", "d") is y_index
        assert catalog.index_increments == 1
