"""Snapshot isolation and overload shedding at the service layer (PR 7).

The visibility contract: a query pins the store's epoch at submission
and every read — serial operators, statistics, shipped fragments —
resolves against that one epoch.  Session snapshots extend one pin
across queries.  The shed policy: queued work past ``queue_wait_s`` and
sessions past ``session_max_in_flight`` are refused with
:class:`OverloadError` (retry-after attached), never silently queued.
"""

import threading
import time

import pytest

from repro.datamodel import VTuple
from repro.datamodel.errors import AdmissionError, OverloadError, ServiceError
from repro.obs.trace import Q_ERROR_THRESHOLD
from repro.service import QueryService
from repro.storage import MemoryDatabase

JOIN = "select (b = x.b, e = y.e) from x in X, y in Y where x.a = y.d"
SIMPLE = "select x.b from x in X where x.a = $k"


def _db(n=60, mod=6):
    return MemoryDatabase(
        {
            "X": [VTuple(a=i % mod, b=i) for i in range(n)],
            "Y": [VTuple(d=i % mod, e=i) for i in range(n)],
        }
    )


# ---------------------------------------------------------------------------
# per-query snapshot pinning
# ---------------------------------------------------------------------------


def test_result_carries_its_epoch():
    db = _db()
    with QueryService(db) as svc:
        r = svc.execute(SIMPLE, {"k": 1})
        assert r.epoch == db.epoch
        db.insert_rows("X", [VTuple(a=1, b=999)])
        r2 = svc.execute(SIMPLE, {"k": 1})
        assert r2.epoch == db.epoch
        assert r2.epoch > r.epoch


def test_snapshot_isolation_off_reads_live_head():
    db = _db()
    with QueryService(db, snapshot_isolation=False) as svc:
        r = svc.execute(SIMPLE, {"k": 1})
        assert r.epoch is None
        with pytest.raises(ServiceError, match="unavailable"):
            svc.session().begin_snapshot()


def test_query_pins_are_released_after_execution():
    db = _db()
    with QueryService(db) as svc:
        for k in range(3):
            svc.execute(SIMPLE, {"k": k})
        stats = db.epoch_stats()
        assert stats["pinned"] == 0
        assert stats["pin_events"] >= 3
        assert svc.stats()["pins_taken"] >= 3


def test_multi_extent_batch_is_atomic_to_readers():
    # a reader pinned before a two-extent batch sees *neither* half of it
    db = _db()
    with QueryService(db) as svc:
        s = svc.session()
        with s.snapshot() as epoch:
            before = s.execute(JOIN).rows
            with db.batch():
                db.insert_rows("X", [VTuple(a=0, b=1000)])
                db.insert_rows("Y", [VTuple(d=0, e=2000)])
            during = s.execute(JOIN)
            assert during.rows == before
            assert during.epoch == epoch
        after = s.execute(JOIN).rows
        assert {(r["b"], r["e"]) for r in after} >= {
            (1000, 2000)
        }  # both halves visible together


def test_session_snapshot_repeatable_reads():
    db = _db()
    with QueryService(db) as svc:
        s = svc.session()
        epoch = s.begin_snapshot()
        r1 = s.execute(SIMPLE, {"k": 2})
        db.insert_rows("X", [VTuple(a=2, b=777)])
        r2 = s.execute(SIMPLE, {"k": 2})
        assert r1.rows == r2.rows
        assert r1.epoch == r2.epoch == epoch
        s.end_snapshot()
        r3 = s.execute(SIMPLE, {"k": 2})
        assert r3.rows != r1.rows  # the insert is visible again

    assert db.epoch_stats()["pinned"] == 0


def test_session_snapshot_misuse_rejected():
    db = _db()
    with QueryService(db) as svc:
        s = svc.session()
        s.begin_snapshot()
        with pytest.raises(ServiceError, match="already holds"):
            s.begin_snapshot()
        s.end_snapshot()
        with pytest.raises(ServiceError, match="holds no snapshot"):
            s.end_snapshot()


def test_session_close_releases_its_snapshot():
    db = _db()
    with QueryService(db) as svc:
        s = svc.session()
        s.begin_snapshot()
        db.insert_rows("X", [VTuple(a=0, b=123)])
        assert db.epoch_stats()["pinned"] == 1
        s.close()
        assert db.epoch_stats()["pinned"] == 0


def test_concurrent_writer_does_not_tear_serial_join():
    # a writer inserting matched pairs into both join sides between
    # queries: every result must equal the oracle at the result's epoch
    db = _db(n=30)
    db.keep_history = True
    stop = threading.Event()

    def writer():
        # throttled and bounded: the point is interleaving, not volume —
        # an unbounded tight loop would grow the join sides (and the
        # O(|X|*|Y|) oracle below) without limit
        for i in range(300):
            if stop.is_set():
                return
            with db.batch():
                db.insert_rows("X", [VTuple(a=i % 6, b=10_000 + i)])
                db.insert_rows("Y", [VTuple(d=i % 6, e=20_000 + i)])
            time.sleep(0.001)

    t = threading.Thread(target=writer)
    t.start()
    try:
        with QueryService(db, max_workers=4) as svc:
            s = svc.session()
            for _ in range(12):
                r = s.execute(JOIN)
                xs = db.extent_at("X", r.epoch)
                ys = db.extent_at("Y", r.epoch)
                oracle = {
                    (x["b"], y["e"]) for x in xs for y in ys if x["a"] == y["d"]
                }
                assert {(row["b"], row["e"]) for row in r.rows} == oracle
    finally:
        stop.set()
        t.join()


# ---------------------------------------------------------------------------
# estimate-vs-actual recording on epoch mismatch
# ---------------------------------------------------------------------------


def test_epoch_mismatch_records_estimate_delta():
    db = _db()
    with QueryService(db) as svc:
        svc.execute(JOIN)  # compiles at the current epoch
        db.insert_rows("X", [VTuple(a=0, b=555)])  # epoch moves, catalog doesn't
        r = svc.execute(JOIN)  # cache hit: plan priced at the old epoch
        assert r.cache_hit
        stats = svc.stats()
        assert stats["epoch_mismatch_runs"] >= 1
        rec = svc.misestimates.records("epoch-mismatch")[-1]
        assert rec["planned_epoch"] < rec["executed_epoch"]
        assert rec["actual_rows"] == len(r.rows)


def test_epoch_mismatch_is_recorded_only_when_the_estimate_misses():
    """After the first write *every* cached-plan read runs at a newer
    epoch than its plan was priced at: all are counted, but only a run
    whose row count misses the estimate by more than the q-error
    threshold lands on the misestimate store."""
    from repro.storage import Catalog

    db = _db()
    catalog = Catalog(db)
    catalog.analyze()
    with QueryService(db, catalog=catalog) as svc:
        first = svc.execute(SIMPLE, {"k": 1})  # priced at rows≈10, returns 10
        db.insert_rows("X", [VTuple(a=1, b=999)])  # epoch moves, version doesn't
        for _ in range(5):
            assert svc.execute(SIMPLE, {"k": 1}).cache_hit
        stats = svc.stats()
        assert stats["epoch_mismatch_runs"] == 5
        assert stats["misestimates"] == 0
        # the same plan, but the data has left the estimate behind
        db.insert_rows("X", [VTuple(a=2, b=2000 + i) for i in range(100)])
        skewed = svc.execute(SIMPLE, {"k": 2})
        assert skewed.cache_hit and len(skewed.rows) == 110
        (rec,) = svc.misestimates.records("epoch-mismatch")
        assert rec["actual_rows"] == 110 and rec["est_rows"] < 110 / Q_ERROR_THRESHOLD
        assert rec["planned_epoch"] == first.epoch < rec["executed_epoch"] == skewed.epoch
        assert svc.stats()["epoch_mismatch_runs"] == 6


# ---------------------------------------------------------------------------
# overload shedding
# ---------------------------------------------------------------------------


class _GatedDatabase(MemoryDatabase):
    """Extent access blocks until the gate opens (same trick as
    test_service.py) — makes saturation a deterministic state."""

    def __init__(self, extents):
        super().__init__(extents)
        self.gate = threading.Event()
        self.started = threading.Event()

    def extent(self, name):
        self.started.set()
        if not self.gate.wait(timeout=30):
            raise RuntimeError("test gate never opened")
        return super().extent(name)


def test_queue_wait_shed_instead_of_late_execution():
    db = _GatedDatabase({"X": [VTuple(a=i % 3, b=i) for i in range(9)]})
    with QueryService(db, max_workers=1, queue_depth=2, queue_wait_s=0.05) as svc:
        s = svc.session()
        first = s.execute_async(SIMPLE, {"k": 0})
        assert db.started.wait(timeout=30)
        queued = s.execute_async(SIMPLE, {"k": 1})
        time.sleep(0.2)  # let the queued query's wait blow the shed deadline
        db.gate.set()
        assert first.result().rows
        with pytest.raises(OverloadError) as exc_info:
            queued.result()
        assert exc_info.value.retry_after_s == pytest.approx(0.05)
        assert svc.stats()["shed_queue_wait"] == 1
    assert db.epoch_stats()["pinned"] == 0  # shed queries still unpin


def test_admission_error_is_an_overload_error():
    db = _GatedDatabase({"X": [VTuple(a=i % 3, b=i) for i in range(9)]})
    with QueryService(db, max_workers=1, queue_depth=0) as svc:
        s = svc.session()
        first = s.execute_async(SIMPLE, {"k": 0})
        assert db.started.wait(timeout=30)
        with pytest.raises(OverloadError) as exc_info:
            s.execute_async(SIMPLE, {"k": 1})
        assert isinstance(exc_info.value, AdmissionError)
        assert exc_info.value.retry_after_s > 0
        db.gate.set()
        first.result()


def test_session_fairness_cap():
    db = _GatedDatabase({"X": [VTuple(a=i % 3, b=i) for i in range(9)]})
    with QueryService(
        db, max_workers=2, queue_depth=8, session_max_in_flight=2
    ) as svc:
        greedy, polite = svc.session(), svc.session()
        futures = [greedy.execute_async(SIMPLE, {"k": 0}) for _ in range(2)]
        assert db.started.wait(timeout=30)
        # the greedy session is at its cap; the service still has slots
        with pytest.raises(OverloadError, match="outstanding"):
            greedy.execute_async(SIMPLE, {"k": 1})
        # ...which the polite session can use
        other = polite.execute_async(SIMPLE, {"k": 2})
        db.gate.set()
        assert all(f.result().rows is not None for f in futures)
        assert other.result().rows is not None
        assert svc.stats()["shed_fairness"] == 1
        # the cap frees as work drains
        assert greedy.execute(SIMPLE, {"k": 1}).rows is not None


def test_shed_counters_in_stats():
    db = _db()
    with QueryService(db, queue_wait_s=1.0, session_max_in_flight=4) as svc:
        svc.execute(SIMPLE, {"k": 0})
        stats = svc.stats()
        for key in (
            "pins_taken",
            "shed_queue_wait",
            "shed_fairness",
            "epoch_mismatch_runs",
            "warm_restored",
            "warm_dropped",
        ):
            assert key in stats
        assert stats["epochs"]["pinned"] == 0
        assert stats["epochs"]["epoch"] == db.epoch
