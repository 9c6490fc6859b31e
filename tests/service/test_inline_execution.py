"""Inline execution: ``Session.execute`` runs on the caller's thread, under
the same admission limits ``execute_async`` runs under on the pool.

One admission → run → release sequence serves both drivers, so every limit
is asserted here with *caller threads* doing the executing: the in-flight
bound, the outstanding bound, the shed and timeout of a caller waiting for
a slot, the session cap — each typed, counted, and leaving neither a slot
nor an epoch pin behind.  Saturation is a deterministic state (a gated
store), never a timing assumption.
"""

import sys
import threading
import time

import pytest

from repro.datamodel import VTuple
from repro.datamodel.errors import (
    AdmissionError,
    OverloadError,
    QueryTimeoutError,
    ServiceError,
)
from repro.service import QueryService
from repro.storage import MemoryDatabase

QUERY = "select x.b from x in X where x.a = $k"
JOIN = "select (b = x.b, e = y.e) from x in X, y in Y where x.a = y.d and y.e < $hi"


def _rows(n=30):
    return {
        "X": [VTuple(a=i % 5, b=i) for i in range(n)],
        "Y": [VTuple(d=i % 5, e=i) for i in range(n)],
    }


class _GatedDatabase(MemoryDatabase):
    """Extent access blocks until the gate opens; ``entered`` counts the
    reads that have reached it, so "N queries are executing" is a state
    the test can wait for."""

    def __init__(self, extents):
        super().__init__(extents)
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)

    def extent(self, name):
        self.entered.release()
        if not self.gate.wait(timeout=30):
            raise RuntimeError("test gate never opened")
        return super().extent(name)


class _Callers:
    """Threads that each run one ``session.execute`` and keep the outcome."""

    def __init__(self, svc, count, **kwargs):
        self.outcomes = [None] * count
        self.threads = [
            threading.Thread(target=self._call, args=(svc.session(), i, kwargs))
            for i in range(count)
        ]
        for thread in self.threads:
            thread.start()

    def _call(self, session, i, kwargs):
        try:
            self.outcomes[i] = session.execute(QUERY, {"k": i % 5}, **kwargs)
        except Exception as exc:
            self.outcomes[i] = exc

    def join(self):
        for thread in self.threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        return self.outcomes


def _wait_for(predicate):
    deadline = time.monotonic() + 30
    while not predicate():
        assert time.monotonic() < deadline, "state never reached"
        time.sleep(0.001)


def _executing(db, count):
    for _ in range(count):
        assert db.entered.acquire(timeout=30)


# ---------------------------------------------------------------------------
# the in-flight and outstanding bounds, with callers doing the executing
# ---------------------------------------------------------------------------


def test_four_times_more_callers_than_slots_never_exceed_max_in_flight():
    db = _GatedDatabase(_rows())
    with QueryService(db, max_workers=2, queue_depth=8) as svc:
        callers = _Callers(svc, 8)
        _executing(db, 2)
        _wait_for(lambda: svc._outstanding == 8)
        # two callers execute; the other six wait for a slot on their own
        # threads — none of them reached the store
        assert svc.stats()["in_flight"] == 2
        assert not db.entered.acquire(blocking=False)
        db.gate.set()
        outcomes = callers.join()
        assert [len(r.rows) for r in outcomes] == [6] * 8
        stats = svc.stats()
        assert stats["peak_in_flight"] == 2
        assert stats["executed"] == 8 and stats["in_flight"] == 0
        assert svc._outstanding == 0
    assert db.pinned_epochs == {}


def test_admission_error_at_exactly_in_flight_plus_queue_depth():
    db = _GatedDatabase(_rows())
    with QueryService(db, max_workers=2, queue_depth=3) as svc:
        callers = _Callers(svc, 5)
        _executing(db, 2)
        _wait_for(lambda: svc._outstanding == 5)
        assert svc.rejected == 0  # five outstanding were all admitted
        late = svc.session()
        with pytest.raises(AdmissionError, match="saturated") as exc_info:
            late.execute(QUERY, {"k": 0})
        assert exc_info.value.retry_after_s > 0
        with pytest.raises(AdmissionError, match="saturated"):
            late.execute_async(QUERY, {"k": 0})
        assert svc.rejected == 2
        assert svc._outstanding == 5  # a refusal holds nothing
        assert sum(db.pinned_epochs.values()) == 5
        db.gate.set()
        assert all(len(r.rows) == 6 for r in callers.join())
        # capacity is back
        assert len(late.execute(QUERY, {"k": 0}).rows) == 6
    assert db.pinned_epochs == {}


def test_pool_and_callers_share_the_execution_slots():
    db = _GatedDatabase(_rows())
    with QueryService(db, max_workers=2, queue_depth=8) as svc:
        session = svc.session()
        futures = [session.execute_async(QUERY, {"k": k}) for k in range(3)]
        callers = _Callers(svc, 3)
        _executing(db, 2)
        _wait_for(lambda: svc._outstanding == 6)
        assert svc.stats()["in_flight"] == 2
        db.gate.set()
        assert all(len(r.rows) == 6 for r in callers.join())
        assert all(len(f.result(timeout=30).rows) == 6 for f in futures)
        assert svc.stats()["peak_in_flight"] == 2
    assert db.pinned_epochs == {}


# ---------------------------------------------------------------------------
# a caller waiting for a slot gives up typed, counted, holding nothing
# ---------------------------------------------------------------------------


def test_waiting_caller_is_shed_at_queue_wait():
    db = _GatedDatabase(_rows())
    with QueryService(db, max_workers=1, queue_depth=4, queue_wait_s=0.05) as svc:
        blocker = _Callers(svc, 1)
        _executing(db, 1)
        start = time.monotonic()
        with pytest.raises(OverloadError, match="shed") as exc_info:
            svc.session().execute(QUERY, {"k": 1})
        assert time.monotonic() - start >= 0.05
        assert not isinstance(exc_info.value, AdmissionError)
        assert exc_info.value.retry_after_s == pytest.approx(0.05)
        stats = svc.stats()
        assert stats["shed_queue_wait"] == 1 and stats["timeouts"] == 0
        # slot and pin released: only the blocker is left
        assert svc._outstanding == 1 and stats["in_flight"] == 1
        assert sum(db.pinned_epochs.values()) == 1
        db.gate.set()
        assert len(blocker.join()[0].rows) == 6
    assert db.pinned_epochs == {}


def test_waiting_caller_times_out_at_its_deadline():
    db = _GatedDatabase(_rows())
    with QueryService(db, max_workers=1, queue_depth=4) as svc:
        blocker = _Callers(svc, 1)
        _executing(db, 1)
        waiter = svc.session()
        start = time.monotonic()
        with pytest.raises(QueryTimeoutError, match="before execution"):
            waiter.execute(QUERY, {"k": 1}, timeout=0.05)
        assert time.monotonic() - start >= 0.05
        stats = svc.stats()
        assert stats["timeouts"] == 1 and stats["shed_queue_wait"] == 0
        assert waiter.stats["errors"] == 1
        assert svc._outstanding == 1 and stats["in_flight"] == 1
        assert sum(db.pinned_epochs.values()) == 1
        db.gate.set()
        assert len(blocker.join()[0].rows) == 6
    assert db.pinned_epochs == {}


def test_session_cap_refuses_without_consuming_a_slot():
    db = _GatedDatabase(_rows())
    with QueryService(
        db, max_workers=2, queue_depth=0, session_max_in_flight=1
    ) as svc:
        greedy = svc.session()
        outcome = []
        runner = threading.Thread(
            target=lambda: outcome.append(greedy.execute(QUERY, {"k": 0}))
        )
        runner.start()
        _executing(db, 1)
        with pytest.raises(OverloadError, match="outstanding"):
            greedy.execute(QUERY, {"k": 1})
        stats = svc.stats()
        assert stats["shed_fairness"] == 1 and stats["rejected"] == 1
        assert svc._outstanding == 1
        # the refusal consumed nothing: with queue_depth=0 the second of the
        # two slots is still there for another session
        other = svc.session().execute_async(QUERY, {"k": 2})
        _executing(db, 1)
        db.gate.set()
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert len(outcome[0].rows) == 6 and len(other.result(timeout=30).rows) == 6
        # the cap frees as work drains
        assert len(greedy.execute(QUERY, {"k": 1}).rows) == 6
    assert db.pinned_epochs == {}


def test_waiter_that_gives_up_passes_the_wake_up_on(monkeypatch):
    """A release wakes one waiter.  If that waiter finds its deadline gone
    and leaves without the slot, the next waiter must be woken in its
    place — otherwise a free slot sits beside a caller waiting for it."""
    import types

    from repro.service import service as service_module

    skew = [0.0]
    clock = types.SimpleNamespace(
        monotonic=lambda: time.monotonic() + skew[0], perf_counter=time.perf_counter
    )
    monkeypatch.setattr(service_module, "time", clock)
    db = _GatedDatabase(_rows())
    with QueryService(db, max_workers=1, queue_depth=4) as svc:
        blocker = _Callers(svc, 1)
        _executing(db, 1)
        timed = _Callers(svc, 1, timeout=5.0)  # first in line for the slot
        _wait_for(lambda: svc._outstanding == 2)
        time.sleep(0.05)
        untimed = _Callers(svc, 1)
        _wait_for(lambda: svc._outstanding == 3)
        time.sleep(0.05)
        skew[0] = 10.0  # the timed waiter's deadline is now behind it
        db.gate.set()
        assert isinstance(timed.join()[0], QueryTimeoutError)
        assert len(blocker.join()[0].rows) == 6
        assert len(untimed.join()[0].rows) == 6
        assert svc.stats()["timeouts"] == 1
    assert db.pinned_epochs == {}


def test_slot_accounting_survives_timed_and_untimed_waiters():
    """Six callers on one slot, half of them with a deadline short enough
    to expire while waiting: every call ends executed or timed out, and
    nothing — slot, outstanding count, pin — is left behind."""
    db = MemoryDatabase(_rows(60))
    attempts = 50
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with QueryService(db, max_workers=1, queue_depth=16) as svc:
            outcomes = []

            def caller(i):
                session = svc.session()
                timeout = 0.0005 if i % 2 else None
                for _ in range(attempts):
                    try:
                        session.execute(JOIN, {"hi": 30}, timeout=timeout)
                        outcomes.append("ok")
                    except QueryTimeoutError:
                        outcomes.append("timeout")

            threads = [threading.Thread(target=caller, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            stats = svc.stats()
            assert len(outcomes) == 6 * attempts
            assert stats["executed"] == outcomes.count("ok") >= 3 * attempts
            assert stats["timeouts"] == outcomes.count("timeout")
            assert stats["peak_in_flight"] == 1
            assert svc._outstanding == 0 and stats["in_flight"] == 0
    finally:
        sys.setswitchinterval(interval)
    assert db.pinned_epochs == {}


# ---------------------------------------------------------------------------
# the two drivers are one sequence
# ---------------------------------------------------------------------------


def test_result_epoch_lies_between_submit_and_return():
    db = MemoryDatabase(_rows())
    stop = threading.Event()

    def writer():
        n = 1000
        while not stop.is_set():
            db.insert_rows("X", [VTuple(a=n % 5, b=n)])
            n += 1

    thread = threading.Thread(target=writer)
    with QueryService(db, max_workers=2) as svc:
        session = svc.session()
        thread.start()
        try:
            for k in range(200):
                before = db.epoch
                result = session.execute(QUERY, {"k": k % 5})
                assert before <= result.epoch <= db.epoch
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
    assert db.pinned_epochs == {}


def test_async_result_equals_inline_result_row_for_row_counter_for_counter():
    db = MemoryDatabase(_rows(120))
    with QueryService(db) as svc:
        session = svc.session()
        for text, bindings in (
            (QUERY, [{"k": k} for k in range(5)]),
            (JOIN, [{"hi": hi} for hi in (10, 60, 110)]),
        ):
            session.execute(text, bindings[0])  # compile once, outside the pairs
            for params in bindings:
                inline = session.execute(text, params)
                pooled = session.execute_async(text, params).result(timeout=30)
                assert pooled.rows == inline.rows
                assert pooled.stats == inline.stats
                assert (pooled.cache_hit, pooled.epoch, pooled.shape, pooled.option) == (
                    inline.cache_hit, inline.epoch, inline.shape, inline.option,
                )
        stats = svc.stats()
        assert stats["executed"] == 2 + 2 * 8
        assert session.stats["queries"] == stats["executed"]
        assert stats["pins_taken"] == stats["executed"]


def test_a_submission_that_fails_after_admission_gives_everything_back(monkeypatch):
    db = MemoryDatabase(_rows())
    with QueryService(db, max_workers=1, queue_depth=0) as svc:
        session = svc.session()
        pin_epoch = db.pin_epoch

        def failing_pin(epoch=None):
            raise RuntimeError("no pin today")

        monkeypatch.setattr(db, "pin_epoch", failing_pin)
        with pytest.raises(RuntimeError, match="no pin"):
            session.execute(QUERY, {"k": 0})
        monkeypatch.setattr(db, "pin_epoch", pin_epoch)
        assert (svc._outstanding, svc.stats()["pins_taken"]) == (0, 0)

        svc._pool.shutdown()  # the pool refuses the hand-off
        with pytest.raises(RuntimeError, match="shutdown"):
            session.execute_async(QUERY, {"k": 0})
        assert (svc._outstanding, svc.stats()["pins_taken"]) == (0, 1)
        assert db.pinned_epochs == {}
        # with queue_depth=0 and one slot, a leaked admission would refuse this
        assert len(session.execute(QUERY, {"k": 0}).rows) == 6


# ---------------------------------------------------------------------------
# close() and executions on caller threads
# ---------------------------------------------------------------------------


def test_close_waits_for_executions_on_caller_threads(tmp_path):
    db = _GatedDatabase(_rows())
    path = tmp_path / "plans.json"
    svc = QueryService(db, max_workers=2, cache_persist_path=str(path))
    session = svc.session()
    callers = _Callers(svc, 2)
    _executing(db, 2)
    closer = threading.Thread(target=svc.close)
    closer.start()
    _wait_for(lambda: svc._closed)
    # closed to new work on both drivers, while the admitted two still run
    with pytest.raises(ServiceError, match="closed"):
        session.execute(QUERY, {"k": 0})
    with pytest.raises(ServiceError, match="closed"):
        session.execute_async(QUERY, {"k": 0})
    closer.join(timeout=0.1)
    assert closer.is_alive() and not path.exists()
    db.gate.set()
    assert all(len(r.rows) == 6 for r in callers.join())
    closer.join(timeout=30)
    assert not closer.is_alive()
    # the cache was persisted after the callers' compile, not before
    assert QUERY.split(" where ")[0] in path.read_text()
    assert db.pinned_epochs == {}


def test_close_without_wait_returns_while_a_caller_still_runs():
    db = _GatedDatabase(_rows())
    svc = QueryService(db, max_workers=1)
    callers = _Callers(svc, 1)
    _executing(db, 1)
    svc.close(wait=False)
    with pytest.raises(ServiceError, match="closed"):
        svc.session()
    db.gate.set()
    assert len(callers.join()[0].rows) == 6
    assert db.pinned_epochs == {}
