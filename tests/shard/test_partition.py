"""Partitioned extents: stable hashing, catalog registration, staleness,
and the incremental interaction with ANALYZE."""

import os
import subprocess
import sys

import pytest

from repro.datamodel import VTuple
from repro.datamodel.errors import PartitionError
from repro.datamodel.values import Oid
from repro.shard.partition import partition_of, partition_rows, stable_hash
from repro.storage import Catalog, MemoryDatabase


def flat_db(n=40, domain=10):
    return MemoryDatabase(
        {
            "X": [VTuple(a=i % domain, i=i) for i in range(n)],
            "Y": [VTuple(d=i % domain, e=i) for i in range(n)],
        }
    )


class TestStableHash:
    def test_atoms_hash(self):
        for value in (None, True, False, 0, -7, 2**70, 2**200, -(2**200),
                      1.5, "red", Oid("Part", 3), Oid("P", 2**150)):
            assert isinstance(stable_hash(value), int)

    def test_huge_ints_are_distinct(self):
        assert stable_hash(2**200) != stable_hash(2**200 + 1)

    def test_equal_values_agree(self):
        assert stable_hash(5) == stable_hash(5.0)
        assert stable_hash("s") == stable_hash("s")
        assert stable_hash(Oid("P", 1)) == stable_hash(Oid("P", 1))
        # the serial hash join co-locates Python-equal keys in one dict
        # bucket; shard routing must agree or matches silently vanish
        assert stable_hash(True) == stable_hash(1) == stable_hash(1.0)
        assert stable_hash(False) == stable_hash(0)

    def test_composite_keys_rejected(self):
        with pytest.raises(PartitionError):
            stable_hash(frozenset([1]))
        with pytest.raises(PartitionError):
            stable_hash(VTuple(a=1))

    def test_stable_across_interpreter_launches(self):
        """The whole point: shard routing must not depend on the hash seed."""
        code = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.shard.partition import stable_hash; "
            "print(stable_hash('supplier'), stable_hash(41), stable_hash(None))"
        )
        outs = set()
        for seed in ("0", "1", "random"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env,
                cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
            )
            assert result.returncode == 0, result.stderr
            outs.add(result.stdout.strip())
        assert len(outs) == 1

    def test_partition_of_range(self):
        for value in range(100):
            assert 0 <= partition_of(value, 4) < 4


class TestPartitionRows:
    def test_shards_partition_the_rows(self):
        rows = frozenset(VTuple(a=i, i=i) for i in range(30))
        shards = partition_rows(rows, "a", 4)
        assert len(shards) == 4
        assert frozenset().union(*shards) == rows
        assert sum(len(s) for s in shards) == len(rows)  # disjoint cover

    def test_routing_matches_partition_of(self):
        rows = frozenset(VTuple(a=i, i=i) for i in range(30))
        for index, shard in enumerate(partition_rows(rows, "a", 3)):
            assert all(partition_of(row["a"], 3) == index for row in shard)

    def test_single_partition_degenerate(self):
        rows = frozenset(VTuple(a=i, i=i) for i in range(9))
        (only,) = partition_rows(rows, "a", 1)
        assert only == rows

    def test_bad_part_count(self):
        with pytest.raises(PartitionError):
            partition_rows(frozenset(), "a", 0)


class TestCatalogPartitioning:
    def test_register_and_lookup(self):
        db = flat_db()
        catalog = Catalog(db)
        pe = catalog.partition("X", "a", 4)
        assert catalog.partitioning("X") is pe
        assert pe.parts == 4 and pe.attr == "a"
        assert frozenset().union(*pe.shards) == db.extent("X")
        assert catalog.partitioning("Y") is None

    def test_per_partition_stats(self):
        db = flat_db(n=40, domain=10)
        catalog = Catalog(db)
        pe = catalog.partition("X", "a", 4)
        assert len(pe.shard_stats) == 4
        assert sum(s.cardinality for s in pe.shard_stats) == 40
        for shard, stats in zip(pe.shards, pe.shard_stats):
            assert stats.cardinality == len(shard)
            if shard:
                assert stats.distinct_count("a") == len({r["a"] for r in shard})

    def test_partition_bumps_version(self):
        catalog = Catalog(flat_db())
        before = catalog.version
        catalog.partition("X", "a", 2)
        assert catalog.version == before + 1

    def test_stale_partitioning_rebuilds_lazily(self):
        db = flat_db()
        catalog = Catalog(db)
        catalog.partition("X", "a", 2)
        db.set_extent("X", [VTuple(a=1, i=99)])
        version = catalog.version
        pe = catalog.partitioning("X")
        assert catalog.partition_refreshes == 1
        assert catalog.version == version + 1
        assert frozenset().union(*pe.shards) == db.extent("X")
        # fresh lookup does not refresh again
        assert catalog.partitioning("X") is pe
        assert catalog.partition_refreshes == 1

    def test_analyze_rederives_partitions(self):
        db = flat_db()
        catalog = Catalog(db)
        catalog.analyze()
        catalog.partition("X", "a", 3)
        db.set_extent("X", [VTuple(a=i, i=i) for i in range(6)])
        catalog.analyze(["X"])
        pe = catalog.partitioning("X")
        assert catalog.partition_refreshes == 0  # ANALYZE did it eagerly
        assert frozenset().union(*pe.shards) == db.extent("X")
        assert sum(s.cardinality for s in pe.shard_stats) == 6

    def test_skew_and_cardinalities(self):
        db = MemoryDatabase({"X": [VTuple(a=0, i=i) for i in range(8)]})
        catalog = Catalog(db)
        pe = catalog.partition("X", "a", 4)
        assert sum(pe.cardinalities) == 8
        assert pe.skew == pytest.approx(4.0)  # everything in one shard

    def test_partition_snapshot_is_plain_data(self):
        db = flat_db()
        catalog = Catalog(db)
        catalog.partition("X", "a", 2)
        snapshot = catalog.partition_snapshot()
        assert set(snapshot) == {"X"}
        assert snapshot["X"].parts == 2


class TestIncrementalStatistics:
    """Satellite: notified inserts/deletes adjust cardinality without a
    full re-analyze; unnotified replacements still re-analyze."""

    def test_notified_insert_adjusts_incrementally(self):
        db = flat_db()
        catalog = Catalog(db)
        catalog.analyze(["X"])
        old_distinct = catalog.stats("X").distinct_count("a")
        db.insert_rows("X", [VTuple(a=1, i=1000), VTuple(a=2, i=1001)])
        stats = catalog.stats("X")
        assert stats.cardinality == 42
        assert catalog.stat_increments == 1
        assert catalog.stat_refreshes == 0
        # the documented contract: distinct counts stay lazily stale
        assert stats.distinct_count("a") == old_distinct

    def test_notified_delete_adjusts_incrementally(self):
        db = flat_db()
        catalog = Catalog(db)
        catalog.analyze(["X"])
        victim = next(iter(db.extent("X")))
        db.delete_rows("X", [victim])
        assert catalog.stats("X").cardinality == 39
        assert catalog.stat_increments == 1
        assert catalog.stat_refreshes == 0

    def test_incremental_bumps_version(self):
        db = flat_db()
        catalog = Catalog(db)
        catalog.analyze(["X"])
        version = catalog.version
        db.insert_rows("X", [VTuple(a=3, i=500)])
        catalog.stats("X")
        assert catalog.version == version + 1

    def test_unnotified_replacement_reanalyzes(self):
        db = flat_db()
        catalog = Catalog(db)
        catalog.analyze(["X"])
        db.set_extent("X", [VTuple(a=0, i=0)])
        stats = catalog.stats("X")
        assert stats.cardinality == 1
        assert stats.distinct_count("a") == 1  # fully fresh
        assert catalog.stat_refreshes == 1
        assert catalog.stat_increments == 0

    def test_replacement_taints_later_notified_inserts(self):
        db = flat_db()
        catalog = Catalog(db)
        catalog.analyze(["X"])
        db.set_extent("X", [VTuple(a=0, i=0)])          # unaccounted
        db.insert_rows("X", [VTuple(a=1, i=1)])          # notified
        stats = catalog.stats("X")
        assert catalog.stat_refreshes == 1               # full re-analyze
        assert catalog.stat_increments == 0
        assert stats.cardinality == 2
        assert stats.distinct_count("a") == 2

    def test_analyze_resets_the_incremental_baseline(self):
        db = flat_db()
        catalog = Catalog(db)
        catalog.analyze(["X"])
        db.insert_rows("X", [VTuple(a=1, i=700)])
        catalog.analyze(["X"])  # full baseline; the delta is consumed
        db.insert_rows("X", [VTuple(a=1, i=701)])
        stats = catalog.stats("X")
        assert stats.cardinality == 42
        assert catalog.stat_increments == 1
        assert catalog.stat_refreshes == 0

    def test_successive_increments(self):
        db = flat_db()
        catalog = Catalog(db)
        catalog.analyze(["X"])
        db.insert_rows("X", [VTuple(a=1, i=800)])
        assert catalog.stats("X").cardinality == 41
        db.insert_rows("X", [VTuple(a=1, i=801)])
        assert catalog.stats("X").cardinality == 42
        assert catalog.stat_increments == 2
        assert catalog.stat_refreshes == 0

    def test_paged_store_inserts_are_notified(self):
        from repro.workload.generator import generate_database

        paged = generate_database(n_parts=6, n_suppliers=3, n_deliveries=3, seed=1)
        catalog = Catalog(paged)
        catalog.analyze(["PART"])
        paged.insert("Part", {"pname": "n", "price": 2, "color": "red"})
        assert catalog.stats("PART").cardinality == 7
        assert catalog.stat_increments == 1
        assert catalog.stat_refreshes == 0
