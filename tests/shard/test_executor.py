"""ParallelExecutor lifecycle: pool snapshots, staleness, fallbacks,
and per-run accounting."""

import pytest

from repro.datamodel import VTuple
from repro.datamodel.errors import ServiceError
from repro.shard import FragmentSpec, ParallelExecutor, ShardRef
from repro.shard.fragment import (
    SCAN_PLACEHOLDER,
    ShardView,
    execute_fragment,
    fragment_stats_total,
)
from repro.engine.stats import Stats
from repro.storage import Catalog, MemoryDatabase


def make_db(n=100):
    return MemoryDatabase({"X": [VTuple(a=i % 10, i=i) for i in range(n)]})


def scan_specs(parts, params=None):
    return [
        FragmentSpec.make(
            SCAN_PLACEHOLDER, {SCAN_PLACEHOLDER: ShardRef("X", "a", parts, i)}, params
        )
        for i in range(parts)
    ]


class TestConstruction:
    def test_bad_workers(self):
        with pytest.raises(ServiceError):
            ParallelExecutor(make_db(), workers=0)

    def test_bad_mode(self):
        with pytest.raises(ServiceError):
            ParallelExecutor(make_db(), mode="threads")

    def test_defaults_to_registered_catalog(self):
        db = make_db()
        catalog = Catalog(db)
        executor = ParallelExecutor(db, workers=2, mode="inline")
        assert executor.catalog is catalog


class TestInlineRuns:
    def test_fragments_cover_the_extent(self):
        db = make_db()
        catalog = Catalog(db)
        catalog.partition("X", "a", 4)
        with ParallelExecutor(db, catalog, workers=4, mode="inline") as executor:
            results = executor.run_fragments(scan_specs(4))
        assert frozenset().union(*(rows for rows, _ in results)) == db.extent("X")
        assert all(isinstance(snapshot, dict) for _, snapshot in results)

    def test_last_report_accounting(self):
        db = make_db()
        catalog = Catalog(db)
        catalog.partition("X", "a", 4)
        with ParallelExecutor(db, catalog, workers=4, mode="inline") as executor:
            results = executor.run_fragments(scan_specs(4))
            report = executor.last_report
        per = [fragment_stats_total(s) for _, s in results]
        assert report["fragments"] == 4
        assert report["mode"] == "inline"
        assert report["per_fragment_work"] == per
        assert report["critical_path_work"] == max(per)
        assert report["total_work"] == sum(per)
        assert report["result_rows"] == sum(len(r) for r, _ in results)
        assert executor.runs == 1


class TestProcessPool:
    def test_pool_reused_across_runs(self):
        db = make_db()
        catalog = Catalog(db)
        catalog.partition("X", "a", 2)
        with ParallelExecutor(db, catalog, workers=2, mode="process") as executor:
            executor.run_fragments(scan_specs(2))
            executor.run_fragments(scan_specs(2))
            assert executor.pool_rebuilds == 1
            assert executor.runs == 2

    def test_catalog_version_retires_the_snapshot(self):
        db = make_db()
        catalog = Catalog(db)
        catalog.partition("X", "a", 2)
        with ParallelExecutor(db, catalog, workers=2, mode="process") as executor:
            before = executor.run_fragments(scan_specs(2))
            # data + partitioning change: version bump must re-fork workers
            db.set_extent("X", [VTuple(a=i % 10, i=i) for i in range(40)])
            catalog.partition("X", "a", 2)
            after = executor.run_fragments(scan_specs(2))
            assert executor.pool_rebuilds == 2
        assert frozenset().union(*(r for r, _ in after)) == db.extent("X")
        assert frozenset().union(*(r for r, _ in before)) != db.extent("X")

    def test_notified_insert_reaches_workers(self):
        """A notified insert bumps no version, but the extent-identity
        check must still re-fork the pool — forked children hold a
        pre-mutation heap image."""
        db = make_db(n=40)
        catalog = Catalog(db)
        catalog.partition("X", "a", 2)
        with ParallelExecutor(db, catalog, workers=2, mode="process") as executor:
            executor.run_fragments(scan_specs(2))
            db.insert_rows("X", [VTuple(a=3, i=999)])
            after = executor.run_fragments(scan_specs(2))
            assert executor.pool_rebuilds == 2
        merged = frozenset().union(*(rows for rows, _ in after))
        assert VTuple(a=3, i=999) in merged
        assert merged == db.extent("X")

    def test_notified_insert_reaches_inline_snapshot(self):
        """The inline path snapshots per run; the snapshot's identity
        handshake must re-derive stale shards."""
        db = make_db(n=40)
        catalog = Catalog(db)
        catalog.partition("X", "a", 2)
        with ParallelExecutor(db, catalog, workers=2, mode="inline") as executor:
            executor.run_fragments(scan_specs(2))
            db.insert_rows("X", [VTuple(a=3, i=999)])
            after = executor.run_fragments(scan_specs(2))
        assert frozenset().union(*(rows for rows, _ in after)) == db.extent("X")

    def test_broadcast_extent_change_reaches_workers(self):
        """Un-partitioned broadcast sides have no partitioning handshake:
        the per-batch extent-identity record must catch their changes."""
        db = MemoryDatabase({
            "X": [VTuple(a=i % 10, i=i) for i in range(40)],
            "R": [VTuple(d=1, w=1)],
        })
        catalog = Catalog(db)
        catalog.partition("X", "a", 2)
        specs = [
            FragmentSpec.make(
                "__r__", {"__r__": ShardRef("R")},
            )
            for _ in range(2)
        ]
        with ParallelExecutor(db, catalog, workers=2, mode="process") as executor:
            executor.run_fragments(specs)
            db.insert_rows("R", [VTuple(d=2, w=2)])
            after = executor.run_fragments(specs)
            assert executor.pool_rebuilds == 2
        assert after[0][0] == db.extent("R")

    def test_alternating_shapes_share_one_pool(self):
        """Shapes over different extents must not re-fork each other out:
        an extent the forking batch did not read is in the fork image as
        long as the store's epoch has not moved since the fork."""
        db = MemoryDatabase({
            "X": [VTuple(a=i % 10, i=i) for i in range(40)],
            "R": [VTuple(d=1, w=1)],
        })
        catalog = Catalog(db)
        catalog.partition("X", "a", 2)
        r_specs = [FragmentSpec.make("__r__", {"__r__": ShardRef("R")}) for _ in range(2)]
        with ParallelExecutor(db, catalog, workers=2, mode="process") as executor:
            for _ in range(3):
                x_rows = executor.run_fragments(scan_specs(2))
                r_rows = executor.run_fragments(r_specs)
            assert executor.pool_rebuilds == 1
            assert executor.runs == 6
        assert frozenset().union(*(rows for rows, _ in x_rows)) == db.extent("X")
        assert r_rows[0][0] == db.extent("R")

    def test_unrecorded_extent_mutated_since_the_fork_reforks(self):
        """The epoch proves coverage, so a moved epoch must not: R changed
        after the fork and before its first use — the workers' image has
        the old R, and the batch must see the new one."""
        db = MemoryDatabase({
            "X": [VTuple(a=i % 10, i=i) for i in range(40)],
            "R": [VTuple(d=1, w=1)],
        })
        catalog = Catalog(db)
        catalog.partition("X", "a", 2)
        r_specs = [FragmentSpec.make("__r__", {"__r__": ShardRef("R")}) for _ in range(2)]
        with ParallelExecutor(db, catalog, workers=2, mode="process") as executor:
            executor.run_fragments(scan_specs(2))  # forks; records X only
            db.insert_rows("R", [VTuple(d=2, w=2)])
            after = executor.run_fragments(r_specs)
            assert executor.pool_rebuilds == 2
            executor.run_fragments(scan_specs(2))  # X was not touched: recorded anew, no fork
            assert executor.pool_rebuilds == 2
        assert after[0][0] == db.extent("R") and VTuple(d=2, w=2) in after[0][0]

    def test_epochless_store_reforks_for_an_unrecorded_extent(self):
        class Epochless:
            """The interpreter protocol only: no epoch to vouch for the image."""

            def __init__(self, base):
                self._base = base

            def extent(self, name):
                return self._base.extent(name)

        base = MemoryDatabase({"X": [VTuple(a=1, i=1)], "R": [VTuple(d=1, w=1)]})
        db = Epochless(base)
        x_specs = [FragmentSpec.make("__x__", {"__x__": ShardRef("X")})]
        r_specs = [FragmentSpec.make("__r__", {"__r__": ShardRef("R")})]
        with ParallelExecutor(db, workers=1, mode="process") as executor:
            assert executor.run_fragments(x_specs)[0][0] == base.extent("X")
            assert executor.run_fragments(r_specs)[0][0] == base.extent("R")
            assert executor.pool_rebuilds == 2

    def test_partitioned_mutation_forces_refork(self):
        db = make_db()
        catalog = Catalog(db)
        catalog.partition("X", "a", 2)
        with ParallelExecutor(db, catalog, workers=2, mode="process") as executor:
            executor.run_fragments(scan_specs(2))
            db.insert_rows("X", [VTuple(a=3, i=999)])
            after = executor.run_fragments(scan_specs(2))
            assert executor.pool_rebuilds == 2
        assert frozenset().union(*(rows for rows, _ in after)) == db.extent("X")

    def test_params_ship_to_workers(self):
        db = make_db()
        catalog = Catalog(db)
        catalog.partition("X", "a", 2)
        text = "σ[x : x.i < $cap](__shard__)"
        specs = [
            FragmentSpec.make(
                text, {SCAN_PLACEHOLDER: ShardRef("X", "a", 2, i)}, {"cap": 7}
            )
            for i in range(2)
        ]
        with ParallelExecutor(db, catalog, workers=2, mode="process") as executor:
            results = executor.run_fragments(specs)
        merged = frozenset().union(*(rows for rows, _ in results))
        assert merged == frozenset(r for r in db.extent("X") if r["i"] < 7)


class TestShardView:
    def test_placeholder_resolution_and_passthrough(self):
        db = make_db()
        catalog = Catalog(db)
        pe = catalog.partition("X", "a", 2)
        stats = Stats()
        view = ShardView(db, {"X": pe}, {"__shard__": ShardRef("X", "a", 2, 0)}, stats)
        assert view.extent("__shard__") == pe.shard(0)
        assert view.extent("X") == db.extent("X")  # non-placeholder passthrough
        assert stats.pipeline_breaks == 0  # stored shard: no exchange

    def test_mismatched_partitioning_hash_filters(self):
        db = make_db()
        catalog = Catalog(db)
        pe = catalog.partition("X", "a", 4)  # stored as 4 parts
        stats = Stats()
        view = ShardView(db, {"X": pe}, {"__shard__": ShardRef("X", "a", 2, 1)}, stats)
        shard = view.extent("__shard__")
        from repro.shard.partition import partition_of
        assert shard == frozenset(
            r for r in db.extent("X") if partition_of(r["a"], 2) == 1
        )
        assert stats.pipeline_breaks == 1  # the shared-scan exchange
        assert stats.tuples_visited == len(db.extent("X"))

    def test_broadcast_binding_is_whole_extent(self):
        db = make_db()
        stats = Stats()
        view = ShardView(db, {}, {"__r__": ShardRef("X")}, stats)
        assert view.extent("__r__") == db.extent("X")

    def test_execute_fragment_roundtrip(self):
        db = make_db()
        catalog = Catalog(db)
        pe = catalog.partition("X", "a", 2)
        spec = FragmentSpec.make(
            SCAN_PLACEHOLDER, {SCAN_PLACEHOLDER: ShardRef("X", "a", 2, 1)}
        )
        rows, snapshot = execute_fragment(db, {"X": pe}, spec)
        assert rows == pe.shard(1)
        assert isinstance(snapshot, dict)
