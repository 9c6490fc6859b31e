"""Per-query deadlines and fault surfacing at the service layer (PR 6).

``execute(timeout=...)`` must bound a query's *total* latency — queue
wait, compile, serial hot loops and parallel batches alike — raising
:class:`QueryTimeoutError` within the engine's polling granularity, with
any worker pool reclaimed so the next query runs normally.  Fault
recovery below the service must surface on ``QueryResult.faults`` and in
``stats()``, never in the rows.
"""

import time

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from repro.datamodel import VTuple
from repro.datamodel.errors import QueryTimeoutError, ServiceError
from repro.engine.plan import ExecRuntime, Filter, HashJoinBase, NestOp, Scan
from repro.engine.stats import Stats
from repro.faults import FaultPlan, RetryPolicy
from repro.service import QueryService
from repro.shred import StitchNest
from repro.storage import Catalog, MemoryDatabase

#: non-equality correlated predicate with no matches: the optimizer keeps
#: the nested-loop semijoin and must grind through all |X| * |Y| pairs
SLOW_QUERY = "select x.i from x in X where exists y in Y : x.a * y.d = $k"
PARALLEL_QUERY = "select x.i from x in X where exists y in Y : x.a = y.d and y.w < $m"

FAST = RetryPolicy(max_attempts=3, base_s=0.001, max_s=0.002)


def slow_db(n=1500):
    return MemoryDatabase({
        "X": [VTuple(a=i, i=i) for i in range(n)],
        "Y": [VTuple(d=i, w=i % 7) for i in range(n)],
    })


def big_db(n=4000):
    return MemoryDatabase({
        "X": [VTuple(a=i, v=i % 100, i=i) for i in range(n)],
        "Y": [VTuple(d=i, w=i % 7) for i in range(n)],
    })


class _ExpiringDatabase:
    """X's rows come from a generator that moves the runtime's deadline
    into the past after ``expire_after`` rows and counts the rows still
    pulled from there on — the engine's overshoot.  ``extent`` hands out
    the same generator, so a ``Scan`` (no deadline poll of its own)
    streams it too."""

    def __init__(self, db, expire_after):
        self._db = db
        self.expire_after = expire_after
        self.rt = None
        self.overshoot = 0

    def scan(self, name):
        rows = self._db.extent(name)
        return self._expiring(rows) if name == "X" else iter(rows)

    extent = scan

    def _expiring(self, rows):
        for n, row in enumerate(rows):
            if n == self.expire_after:
                self.rt.deadline = time.monotonic() - 1
            if n >= self.expire_after:
                self.overshoot += 1
            yield row


NO_ROWS = Filter("y", B.lt(B.attr(B.var("y"), "d"), 0), Scan("Y"))


def _hash_join(left, right):
    return HashJoinBase(
        "join", "x", "y",
        (B.attr(B.var("x"), "a"),), (B.attr(B.var("y"), "d"),),
        A.Literal(True), left, right,
    )


def co_partitioned_db(n=2500, parts=4):
    db = MemoryDatabase({
        "X": [VTuple(a=i, v=i % 100, i=i) for i in range(n)],
        "Y": [VTuple(d=i % n, w=i % 7) for i in range(n)],
    })
    catalog = Catalog(db)
    catalog.analyze()
    catalog.partition("X", "a", parts)
    catalog.partition("Y", "d", parts)
    return db, catalog


class TestSerialDeadlines:
    def test_slow_serial_query_times_out_promptly(self):
        with QueryService(slow_db()) as svc:
            start = time.monotonic()
            with pytest.raises(QueryTimeoutError):
                svc.execute(SLOW_QUERY, {"k": -1}, timeout=0.1)
            # a multi-second nested loop cancelled near its 0.1 s budget
            assert time.monotonic() - start < 2.0
            assert svc.stats()["timeouts"] == 1

    def test_generous_timeout_does_not_fire(self):
        with QueryService(slow_db(n=120)) as svc:
            res = svc.execute(SLOW_QUERY, {"k": -1}, timeout=30.0)
            assert res.rows == frozenset()
            assert svc.stats()["timeouts"] == 0
            assert res.faults == {}

    def test_timeout_zero_is_instant(self):
        with QueryService(slow_db(n=50)) as svc:
            with pytest.raises(QueryTimeoutError):
                svc.execute(SLOW_QUERY, {"k": -1}, timeout=0)

    def test_negative_timeout_rejected(self):
        with QueryService(slow_db(n=50)) as svc:
            with pytest.raises(ServiceError):
                svc.execute(SLOW_QUERY, {"k": -1}, timeout=-1)

    def test_queue_wait_spends_the_budget(self):
        """The deadline starts at submission: a query stuck behind a slow
        one on a single-worker service times out without ever executing."""
        with QueryService(slow_db(), max_workers=1, max_in_flight=1) as svc:
            session = svc.session()
            blocker = session.execute_async(SLOW_QUERY, {"k": -1})
            queued = session.execute_async(SLOW_QUERY, {"k": -2}, timeout=0.05)
            with pytest.raises(QueryTimeoutError):
                queued.result(timeout=30)
            blocker.result(timeout=60)  # the untimed query still completes
            assert svc.stats()["timeouts"] == 1

    def test_prepared_statement_timeout(self):
        with QueryService(slow_db()) as svc:
            session = svc.session()
            stmt = session.prepare(SLOW_QUERY)
            with pytest.raises(QueryTimeoutError):
                stmt.execute({"k": -1}, timeout=0.1)
            res = stmt.execute({"k": 1}, timeout=30.0)
            assert isinstance(res.rows, frozenset)


class TestDeadlineRunsTheBatchPlan:
    """A deadline never switches engines: a ``timeout=``-carrying run
    executes the same batch plan, polled once per batch."""

    def test_timeout_run_reports_batches_and_oracle_rows(self):
        db, catalog = co_partitioned_db(n=600)
        with QueryService(db, catalog=catalog) as svc:
            plain = svc.execute(PARALLEL_QUERY, {"m": 3})
            timed = svc.execute(PARALLEL_QUERY, {"m": 3}, timeout=30.0)
            assert timed.cache_hit
            assert timed.stats["batches_emitted"] > 0
            assert timed.rows == frozenset(i for i in range(600) if i % 7 < 3)
            # same cached plan, same engine: the whole work profile agrees
            assert timed.stats == plain.stats
            assert svc.stats()["batch"]["batch_runs"] == 2

    @pytest.mark.parametrize("expire_after", [0, 1000], ids=["expired", "mid-scan"])
    @pytest.mark.parametrize("shape", ["scan-filter-join", "hash-probe", "nest", "stitch"])
    def test_deadline_overshoots_at_most_one_batch(self, shape, expire_after):
        """Once the deadline passes, at most the batch in flight is still
        pulled: through Scan → Filter → HashJoin, and by each batch-native
        operator over a child with no poll of its own."""
        db = _ExpiringDatabase(big_db(), expire_after)
        unpolled = Scan("X")
        plan = {
            "scan-filter-join": lambda: _hash_join(
                Filter("x", B.ge(B.attr(B.var("x"), "v"), 0), Scan("X")), Scan("Y")
            ),
            # an empty build side: no output batch ever reaches the drain
            "hash-probe": lambda: _hash_join(unpolled, NO_ROWS),
            "nest": lambda: NestOp(("i",), "is", unpolled),
            "stitch": lambda: StitchNest(
                "x", "y", "ys", A.Var("y"), ("a", "v", "i"), unpolled, NO_ROWS
            ),
        }[shape]()
        deadline = time.monotonic() + (60 if expire_after else -1)
        db.rt = ExecRuntime(db, Stats(), deadline=deadline, batch_size=256)
        with pytest.raises(QueryTimeoutError):
            plan.execute(db.rt)
        assert db.overshoot <= 256
        assert db.overshoot > 0 or not expire_after


class TestParallelDeadlines:
    def test_hung_worker_times_out_and_pool_is_reclaimed(self):
        db, catalog = co_partitioned_db()
        with QueryService(db, catalog=catalog, parallel_workers=4,
                          fault_plan=FaultPlan.hang(fragment=0, delay_s=30.0),
                          retry_policy=FAST) as svc:
            with QueryService(db, catalog=catalog) as serial:
                want = serial.execute(PARALLEL_QUERY, {"m": 3}).rows
            start = time.monotonic()
            with pytest.raises(QueryTimeoutError):
                svc.execute(PARALLEL_QUERY, {"m": 3}, timeout=0.4)
            assert time.monotonic() - start < 5.0
            assert svc.stats()["timeouts"] == 1
            # the pool was reclaimed, not wedged: clear the plan and the
            # same service answers the same query with oracle rows
            svc._parallel_handle().inject(None)
            res = svc.execute(PARALLEL_QUERY, {"m": 3})
            assert res.rows == want


class TestFaultSurfacing:
    def test_worker_crash_surfaces_as_degraded_result(self):
        db, catalog = co_partitioned_db()
        with QueryService(db, catalog=catalog) as serial:
            want = serial.execute(PARALLEL_QUERY, {"m": 3}).rows
        with QueryService(db, catalog=catalog, parallel_workers=4,
                          fault_plan=FaultPlan.crash_once(fragment=0,
                                                          where="worker"),
                          retry_policy=FAST) as svc:
            res = svc.execute(PARALLEL_QUERY, {"m": 3})
            assert res.rows == want  # identical rows despite the crash
            assert res.faults["degraded"] and res.faults["retries"] == 1
            assert res.faults["mode"] == "inline"
            stats = svc.stats()
            assert stats["degraded_runs"] == 1 and stats["retries"] == 1
            assert stats["parallel"]["pool_deaths"] == 1
            assert stats["parallel"]["breaker"]["state"] == "closed"

    def test_transient_fault_surfaces_as_retries(self):
        db, catalog = co_partitioned_db()
        with QueryService(db, catalog=catalog) as serial:
            want = serial.execute(PARALLEL_QUERY, {"m": 3}).rows
        with QueryService(db, catalog=catalog, parallel_workers=4,
                          fault_plan=FaultPlan.transient(times=1),
                          retry_policy=FAST) as svc:
            res = svc.execute(PARALLEL_QUERY, {"m": 3})
            assert res.rows == want
            assert res.faults["retries"] == 1 and not res.faults["degraded"]
            stats = svc.stats()
            assert stats["retries"] == 1 and stats["degraded_runs"] == 0
            assert stats["parallel"]["transient_faults"] == 1

    def test_fault_free_result_has_empty_faults(self):
        db, catalog = co_partitioned_db()
        with QueryService(db, catalog=catalog, parallel_workers=4,
                          parallel_mode="inline") as svc:
            res = svc.execute(PARALLEL_QUERY, {"m": 3})
            assert res.faults.get("retries", 0) == 0
            assert not res.faults.get("degraded", False)
            stats = svc.stats()
            assert stats["timeouts"] == 0 and stats["retries"] == 0
