"""Service integration of partition-parallel execution, plus the
per-shape compile-lock fix (the PR-4 known simplification)."""

import threading
import time

import pytest

from repro.datamodel import VTuple
from repro.service import QueryService
from repro.storage import Catalog, MemoryDatabase


def co_partitioned_db(n=4000, parts=4):
    db = MemoryDatabase({
        "X": [VTuple(a=i, v=i % 100, i=i) for i in range(n)],
        "Y": [VTuple(d=i % n, w=i % 7) for i in range(n)],
    })
    catalog = Catalog(db)
    catalog.analyze()
    catalog.partition("X", "a", parts)
    catalog.partition("Y", "d", parts)
    return db, catalog


PARALLEL_QUERY = "select x.i from x in X where exists y in Y : x.a = y.d and y.w < $m"
SERIAL_QUERY = "select x.i from x in X where x.a = $k"


class TestParallelRouting:
    def test_parallel_plan_matches_serial_service(self):
        db, catalog = co_partitioned_db()
        with QueryService(db, catalog=catalog) as serial:
            want = frozenset(serial.execute(PARALLEL_QUERY, {"m": 3}).rows)
        with QueryService(
            db, catalog=catalog, parallel_workers=4, parallel_mode="inline"
        ) as svc:
            explained = svc.explain(PARALLEL_QUERY)
            assert "Exchange(gather)" in explained
            assert "partition-wise, 4 parts" in explained
            got = svc.execute(PARALLEL_QUERY, {"m": 3})
            assert frozenset(got.rows) == want
            # the parallel run's fragment work landed in per-query stats
            assert got.stats["hash_probes"] > 0
            assert got.stats["pipeline_breaks"] >= 1

    def test_process_pool_end_to_end(self):
        db, catalog = co_partitioned_db()
        with QueryService(db, catalog=catalog) as serial:
            want = frozenset(serial.execute(PARALLEL_QUERY, {"m": 2}).rows)
        with QueryService(
            db, catalog=catalog, parallel_workers=2, parallel_mode="process"
        ) as svc:
            got = svc.execute(PARALLEL_QUERY, {"m": 2})
            assert frozenset(got.rows) == want
            stats = svc.stats()
            assert stats["parallel"]["runs"] == 1
            assert stats["parallel"]["mode"] == "process"

    def test_serial_shapes_unaffected(self):
        db, catalog = co_partitioned_db(n=500)
        with QueryService(
            db, catalog=catalog, parallel_workers=4, parallel_mode="inline"
        ) as svc:
            explained = svc.explain(SERIAL_QUERY)
            assert "Exchange" not in explained
            got = svc.execute(SERIAL_QUERY, {"k": 17})
            assert frozenset(got.rows) == {17}  # x.i projects bare ints
            assert svc.stats().get("parallel") is None  # pool never created

    def test_catalog_bump_retires_pool_and_replans(self):
        db, catalog = co_partitioned_db()
        with QueryService(
            db, catalog=catalog, parallel_workers=2, parallel_mode="inline"
        ) as svc:
            first = svc.execute(PARALLEL_QUERY, {"m": 3})
            catalog.analyze()  # version bump
            second = svc.execute(PARALLEL_QUERY, {"m": 3})
            assert not second.cache_hit  # plan recompiled under new version
            assert frozenset(first.rows) == frozenset(second.rows)

    def test_notified_insert_visible_to_parallel_queries(self):
        """A notified insert (no version bump until a stats lookup) must
        still be visible to the next parallel execution — stale stored
        shards re-derive through the snapshot's identity handshake."""
        from repro.datamodel import VTuple

        db, catalog = co_partitioned_db(n=1500)
        with QueryService(
            db, catalog=catalog, parallel_workers=4, parallel_mode="inline"
        ) as svc:
            before = svc.execute(PARALLEL_QUERY, {"m": 7})
            db.insert_rows("X", [VTuple(a=0, v=0, i=91000)])
            db.insert_rows("Y", [VTuple(d=0, w=0)])
            after = svc.execute(PARALLEL_QUERY, {"m": 7})
        with QueryService(db, catalog=catalog) as serial:
            want = frozenset(serial.execute(PARALLEL_QUERY, {"m": 7}).rows)
        assert frozenset(after.rows) == want
        assert 91000 in frozenset(after.rows)
        assert 91000 not in frozenset(before.rows)

    def test_no_executor_created_after_close(self):
        """A query racing close() must not fork an orphan pool: the
        handle lookup returns None and the gather runs inline."""
        db, catalog = co_partitioned_db(n=500)
        svc = QueryService(db, catalog=catalog, parallel_workers=4,
                           parallel_mode="process")
        svc.close()
        assert svc._parallel_handle() is None
        assert svc._parallel is None

    def test_parallel_plans_cache_hit(self):
        db, catalog = co_partitioned_db()
        with QueryService(
            db, catalog=catalog, parallel_workers=2, parallel_mode="inline"
        ) as svc:
            svc.execute(PARALLEL_QUERY, {"m": 3})
            again = svc.execute(PARALLEL_QUERY, {"m": 5})
            assert again.cache_hit


class TestPerShapeCompileLocks:
    """The PR-4 simplification, fixed: distinct shapes compile
    concurrently; one shape still compiles exactly once."""

    @staticmethod
    def _slow_service(db, catalog, delay=0.15, meet=None, **kw):
        """A service whose compiles are slow (``delay``), or, given a
        barrier ``meet``, each wait there for the others to be in flight."""

        class SlowCompileService(QueryService):
            concurrent_peak = 0
            _active = 0
            _gauge = threading.Lock()

            def _compile(self, shape, param_names):
                cls = type(self)
                with cls._gauge:
                    cls._active += 1
                    cls.concurrent_peak = max(cls.concurrent_peak, cls._active)
                try:
                    if meet is not None:
                        meet.wait()
                    else:
                        time.sleep(delay)
                    return super()._compile(shape, param_names)
                finally:
                    with cls._gauge:
                        cls._active -= 1

        return SlowCompileService(db, catalog=catalog, **kw)

    def test_distinct_shapes_compile_concurrently(self):
        db, catalog = co_partitioned_db(n=300)
        shapes = [
            "select x.i from x in X where x.a = 1",
            "select x.i from x in X where x.a = 2",  # distinct literal = distinct shape
        ]
        # each compile waits at the barrier until the other is in flight
        # too; serialized compiles never meet, and the barrier breaks at
        # its timeout
        meet = threading.Barrier(2, timeout=10)
        svc = self._slow_service(db, catalog, meet=meet, max_workers=4)
        errors = []

        def run(text):
            try:
                svc.execute(text)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        with svc:
            threads = [threading.Thread(target=run, args=(text,)) for text in shapes]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not meet.broken and errors == []
        assert type(svc).concurrent_peak == 2  # both compiles in flight at once
        assert svc.compilations == 2

    def test_same_shape_still_compiles_once(self):
        db, catalog = co_partitioned_db(n=300)
        svc = self._slow_service(db, catalog, max_workers=4)
        with svc:
            threads = [
                threading.Thread(
                    target=svc.execute, args=(SERIAL_QUERY, {"k": i})
                )
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert svc.compilations == 1  # no duplicate compile of one shape
        assert type(svc).concurrent_peak == 1

    def test_lock_registry_stays_bounded(self):
        db, catalog = co_partitioned_db(n=300)
        with QueryService(db, catalog=catalog) as svc:
            for k in range(8):
                svc.execute(f"select x.i from x in X where x.a = {k}")
            assert svc._compile_locks == {}  # refcounted entries all dropped
