"""Tests for the statistics catalog and named persistent indexes."""

import pytest

from repro.adl import ast as A
from repro.datamodel import StorageError, VTuple, vset
from repro.engine.plan import ExecRuntime, IndexScan
from repro.engine.stats import Stats
from repro.storage import Catalog, MemoryDatabase
from repro.workload.generator import generate_database


@pytest.fixture()
def db():
    return MemoryDatabase(
        {
            "X": [VTuple(a=i % 3, b=i, c=vset(*range(i % 4))) for i in range(12)],
            "Y": [VTuple(d=i, e=i * 2) for i in range(5)],
        }
    )


class TestAnalyze:
    def test_cardinality_and_distinct(self, db):
        stats = Catalog(db).analyze()["X"]
        assert stats.cardinality == 12
        assert stats.distinct_count("a") == 3
        assert stats.distinct_count("b") == 12
        assert stats.distinct_count("missing") is None

    def test_avg_set_size(self, db):
        stats = Catalog(db).analyze()["X"]
        # i % 4 yields sets of size 0,1,2,3 cycling over 12 rows → mean 1.5
        assert stats.set_size("c") == pytest.approx(1.5)
        assert stats.set_size("a") is None  # not set-valued

    def test_explicit_extent_list(self, db):
        catalog = Catalog(db)
        catalog.analyze(["Y"])
        assert catalog.stats("Y") is not None
        assert catalog.stats("X") is None

    def test_paged_store_page_counts(self):
        paged = generate_database(n_parts=30, n_suppliers=10, n_deliveries=10,
                                  seed=1, page_size=512)
        stats = Catalog(paged).analyze()["PART"]
        assert stats.cardinality == 30
        assert stats.pages == paged.page_count("PART")
        assert stats.pages > 0

    def test_registers_itself_on_the_db(self, db):
        catalog = Catalog(db)
        assert db.catalog is catalog


class TestIndexes:
    def test_create_and_lookup(self, db):
        catalog = Catalog(db)
        named = catalog.create_index("X", "a")
        assert named.name == "idx_X_a"
        rows = named.lookup(1)
        assert rows and all(row["a"] == 1 for row in rows)
        assert named.lookup(99) == []

    def test_multi_index_on_set_attribute(self, db):
        catalog = Catalog(db)
        named = catalog.create_index("X", "c", multi=True)
        assert named.multi
        assert all(2 in row["c"] for row in named.lookup(2))

    def test_index_on_and_named(self, db):
        catalog = Catalog(db)
        named = catalog.create_index("Y", "d", name="ydx")
        assert catalog.index_on("Y", "d") is named
        assert catalog.index_named("ydx") is named
        assert catalog.index_on("Y", "e") is None

    def test_replacing_same_slot(self, db):
        catalog = Catalog(db)
        first = catalog.create_index("Y", "d")
        # identical re-issue over an unchanged extent is a no-op: same
        # registered index, no rebuild, no version bump (concurrent
        # staleness rebuilds must not thrash the plan cache)
        version = catalog.version
        second = catalog.create_index("Y", "d")
        assert catalog.index_on("Y", "d") is second
        assert first is second
        assert catalog.version == version
        # ... but a changed extent value really does rebuild and bump
        db.set_extent("Y", list(db.extent("Y")) + [VTuple(d=99, e=99)])
        third = catalog.create_index("Y", "d")
        assert third is not first
        assert catalog.version > version
        assert third.lookup(99)

    def test_name_collision_across_extents(self, db):
        catalog = Catalog(db)
        catalog.create_index("Y", "d", name="shared")
        with pytest.raises(StorageError):
            catalog.create_index("X", "a", name="shared")

    def test_name_collision_across_attrs_same_extent(self, db):
        # re-pointing a name at a different attribute would make plans
        # that resolve by name probe the wrong index
        catalog = Catalog(db)
        catalog.create_index("Y", "d", name="shared")
        with pytest.raises(StorageError):
            catalog.create_index("Y", "e", name="shared")

    def test_renaming_a_slot_drops_the_old_name(self, db):
        catalog = Catalog(db)
        catalog.create_index("Y", "d", name="old")
        renamed = catalog.create_index("Y", "d", name="new")
        assert catalog.index_named("old") is None
        assert catalog.index_named("new") is renamed

    def test_next_read_rebuilds_indexes_and_stats(self):
        # no manual lever: the next indexed read heals the index, the next
        # statistics lookup absorbs the insert
        paged = generate_database(n_parts=10, n_suppliers=4, n_deliveries=4, seed=2)
        catalog = Catalog(paged)
        catalog.analyze(["PART"])
        named = catalog.create_index("PART", "pname")
        assert named.built_cardinality == 10
        paged.insert("Part", {"pname": "extra", "price": 1, "color": "red"})
        scan = IndexScan("PART", "pname", A.Literal("extra"), named.name)
        rows = scan.execute(ExecRuntime(paged, Stats(), catalog=catalog))
        assert [row["pname"] for row in rows] == ["extra"]
        refreshed = catalog.index_on("PART", "pname")
        assert refreshed.built_cardinality == 11
        assert refreshed.lookup("extra")
        assert catalog.stats("PART").cardinality == 11


class TestStaleStatistics:
    """Stale statistics are detected by extent-value identity (like stale
    indexes) and re-analyzed lazily instead of silently costing with old
    numbers."""

    def test_stats_refresh_lazily_after_extent_change(self, db):
        catalog = Catalog(db)
        catalog.analyze(["Y"])
        assert catalog.stats("Y").cardinality == 5
        assert catalog.stat_refreshes == 0
        db.set_extent("Y", [VTuple(d=i, e=i) for i in range(9)])
        refreshed = catalog.stats("Y")
        assert refreshed.cardinality == 9
        assert catalog.stat_refreshes == 1

    def test_fresh_stats_not_rerefreshed(self, db):
        catalog = Catalog(db)
        catalog.analyze(["Y"])
        db.set_extent("Y", [VTuple(d=1, e=1)])
        catalog.stats("Y")
        catalog.stats("Y")
        catalog.stats("Y")
        assert catalog.stat_refreshes == 1

    def test_same_cardinality_replacement_detected(self, db):
        catalog = Catalog(db)
        catalog.analyze(["Y"])
        assert catalog.stats("Y").distinct_count("e") == 5
        # same row count, different values: identity still catches it
        db.set_extent("Y", [VTuple(d=i, e=0) for i in range(5)])
        assert catalog.stats("Y").cardinality == 5
        assert catalog.stats("Y").distinct_count("e") == 1
        assert catalog.stat_refreshes == 1

    def test_unanalyzed_extent_stays_unanalyzed(self, db):
        catalog = Catalog(db)
        catalog.analyze(["Y"])
        db.set_extent("X", [])
        assert catalog.stats("X") is None
        assert catalog.stat_refreshes == 0

    def test_paged_store_insert_adjusts_incrementally(self):
        # PR 5: the paged store notifies inserts, so the stale-statistics
        # hit adjusts cardinality incrementally instead of re-analyzing
        paged = generate_database(n_parts=10, n_suppliers=4, n_deliveries=4,
                                  seed=2)
        catalog = Catalog(paged)
        catalog.analyze(["PART"])
        paged.insert("Part", {"pname": "extra", "price": 1, "color": "red"})
        assert catalog.stats("PART").cardinality == 11
        assert catalog.stat_refreshes == 0
        assert catalog.stat_increments == 1

    def test_explicit_analyze_does_not_count_as_lazy(self, db):
        catalog = Catalog(db)
        catalog.analyze()
        db.set_extent("Y", [VTuple(d=1, e=1)])
        catalog.analyze()
        assert catalog.stats("Y").cardinality == 1
        assert catalog.stat_refreshes == 0
