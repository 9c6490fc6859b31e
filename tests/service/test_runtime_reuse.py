"""Runtime reuse: a cached plan keeps its idle ``ExecRuntime``s, and no run
can tell.

The isolation contract is "exclusively owned for the duration of one
execution": a runtime's compiled closures and batch kernels survive
between runs, everything else — counters, bindings, fault events,
transient indexes, cached columns — is dropped when a run releases it,
and bindings, deadline and the view's epoch are rebound in place at
checkout.  So a reused runtime must return exactly the rows
*and* the ``QueryResult.stats`` a brand-new service returns, a run that
raised must not hand its runtime back, and a traced run checks out the
same runtime as any other, its recorder bound for that run only.
"""

import gc
import sys
import threading
import time
import weakref

import pytest

from repro.datamodel import INT, Catalog as TypeCatalog, SetType, TupleType, VTuple
from repro.datamodel.errors import (
    EvaluationError,
    QueryTimeoutError,
    UnboundParameterError,
)
from repro.engine.plan import ExecRuntime
from repro.obs import TraceRecorder
from repro.service import QueryService
from repro.service.prepared import normalize_shape
from repro.storage import Catalog, HashIndex, MemoryDatabase

POINT = "select x.b from x in X where x.a = $k"
# two references to x.v and one to x.b: the batch kernels share columns
# through the compiler's per-attribute cache
FILTER = "select x.b from x in X where x.v * 2 - x.v < $m and x.b >= $lo"
SEMIJOIN = "select y.e from y in Y where y.d = $k and exists x in X : y.d = x.a and x.v < $m"
ORDERED = "select x.b from x in X where x.v < $m"

TYPES = TypeCatalog(
    {
        "X": SetType(TupleType({"a": INT, "b": INT, "v": INT})),
        "Y": SetType(TupleType({"d": INT, "e": INT})),
    }
)

CASES = [
    (POINT, [{"k": k} for k in (0, 3, 17, 39)]),
    (FILTER, [{"m": m, "lo": lo} for m, lo in ((10, 0), (50, 100), (90, 250), (0, 0))]),
    (SEMIJOIN, [{"k": k, "m": m} for k, m in ((1, 20), (2, 1), (30, 99), (7, 50))]),
]


def _setup(n=300, store=MemoryDatabase):
    db = store(
        {
            "X": [VTuple(a=i % 40, b=i, v=i % 100) for i in range(n)],
            "Y": [VTuple(d=i % 40, e=i) for i in range(n)],
        }
    )
    catalog = Catalog(db)
    catalog.analyze()
    catalog.create_index("X", "a")
    catalog.create_index("Y", "d")
    return db, catalog


def _entry(svc, text):
    entry = svc.cache.peek(normalize_shape(text)[0], svc._catalog_version())
    assert entry is not None
    return entry


def _rows(result):
    return sorted(result.rows)


# ---------------------------------------------------------------------------
# reused runtimes answer exactly like single-use ones
# ---------------------------------------------------------------------------


def test_threads_shapes_bindings_match_a_fresh_service_rows_and_stats():
    db, catalog = _setup()
    expected = {}
    for text, bindings in CASES:
        for bi, params in enumerate(bindings):
            # a service used for exactly one execution: nothing to leak from
            with QueryService(db, TYPES, catalog) as fresh:
                result = fresh.execute(text, params)
            expected[text, bi] = (result.rows, result.stats)

    rounds = 12
    errors = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with QueryService(db, TYPES, catalog, max_workers=4, queue_depth=16) as svc:
            barrier = threading.Barrier(8)

            def worker(wid):
                try:
                    session = svc.session()
                    barrier.wait(timeout=30)
                    for r in range(rounds):
                        for ci, (text, bindings) in enumerate(CASES):
                            bi = (wid + r + ci) % len(bindings)
                            result = session.execute(text, bindings[bi])
                            assert (result.rows, result.stats) == expected[text, bi], (
                                text, bindings[bi], result.stats,
                            )
                except BaseException as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert not errors, errors[:3]
            stats = svc.stats()
            assert stats["executed"] == 8 * rounds * len(CASES)
            assert stats["compilations"] == len(CASES)
            for text, _ in CASES:
                idle = _entry(svc, text).idle_runtimes
                # built only inside an execution slot, so never more than
                # max_in_flight of them — and the runs really did reuse
                assert 1 <= len(idle) <= svc.max_in_flight
                assert len({id(rt) for rt in idle}) == len(idle)
    finally:
        sys.setswitchinterval(interval)
    assert db.pinned_epochs == {}


def test_a_reused_runtime_keeps_its_closures():
    db, catalog = _setup()
    with QueryService(db, TYPES, catalog) as svc:
        session = svc.session()
        session.execute(FILTER, {"m": 50, "lo": 0})
        (runtime,) = _entry(svc, FILTER).idle_runtimes
        kernels = dict(runtime._batch_preds)
        assert kernels  # the vectorized predicate was compiled into it
        session.execute(FILTER, {"m": 10, "lo": 5})
        assert _entry(svc, FILTER).idle_runtimes == [runtime]
        assert runtime._batch_preds == kernels  # same kernel objects: no recompile


# ---------------------------------------------------------------------------
# what never goes (back) on the free-list
# ---------------------------------------------------------------------------


class _SlowDatabase(MemoryDatabase):
    """Extent reads take ``delay`` seconds — long enough for a deadline to
    pass *during* a run rather than before it."""

    delay = 0.0

    def extent(self, name):
        if self.delay:
            time.sleep(self.delay)
        return super().extent(name)


def test_a_run_that_raised_does_not_return_its_runtime():
    db, catalog = _setup(store=_SlowDatabase)
    with QueryService(db, TYPES, catalog) as svc:
        session = svc.session()

        def warm(text, params):
            session.execute(text, params)
            idle = _entry(svc, text).idle_runtimes
            assert len(idle) == 1
            return idle

        # evaluation error: an ordered comparison across types
        idle = warm(ORDERED, {"m": 5})
        with pytest.raises(EvaluationError):
            session.execute(ORDERED, {"m": "not-a-number"})
        assert idle == []
        # ...and the next run is clean, on a runtime of its own
        assert len(session.execute(ORDERED, {"m": 5}).rows) == 15
        assert len(idle) == 1

        # deadline: passes while the run is reading its extent
        idle = warm(FILTER, {"m": 50, "lo": 0})
        db.delay = 0.4
        with pytest.raises(QueryTimeoutError, match="exceeded"):
            session.execute(FILTER, {"m": 50, "lo": 0}, timeout=0.2)
        db.delay = 0.0
        assert svc.stats()["timeouts"] == 1
        assert idle == []

        # unbound parameter at run time (past the submit-time binding check)
        idle = warm(POINT, {"k": 3})
        shape, param_names = normalize_shape(POINT)
        with pytest.raises(UnboundParameterError):
            svc._submit(session, shape, param_names, {})
        assert idle == []
        assert _rows(session.execute(POINT, {"k": 3})) == list(range(3, 300, 40))
        assert session.stats["errors"] == 3
    assert db.pinned_epochs == {}


def test_traced_runs_reuse_the_idle_runtime(monkeypatch):
    """An ``analyze=True`` run and a ``REPRO_TRACE=1`` run check out the
    idle runtime like any other run: no ``ExecRuntime`` is built, rows and
    ``stats`` equal the untraced run's, ``rebind`` binds the run's
    recorder and ``release`` drops it."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    built, released_with = [], []
    init, release = ExecRuntime.__init__, ExecRuntime.release

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recording_release(self):
        released_with.append(self.trace)
        release(self)

    monkeypatch.setattr(ExecRuntime, "__init__", counting_init)
    monkeypatch.setattr(ExecRuntime, "release", recording_release)
    db, catalog = _setup()
    with QueryService(db, TYPES, catalog) as svc:
        session = svc.session()
        plain = session.execute(POINT, {"k": 3})
        idle = _entry(svc, POINT).idle_runtimes
        (runtime,) = idle
        assert built == [runtime] and released_with == [None]

        analyzed = session.execute(POINT, {"k": 3}, analyze=True)
        assert "actual=" in analyzed.analyze
        assert (analyzed.rows, analyzed.stats) == (plain.rows, plain.stats)

        monkeypatch.setenv("REPRO_TRACE", "1")
        traced = session.execute(POINT, {"k": 3})
        assert (traced.rows, traced.stats) == (plain.rows, plain.stats)
        monkeypatch.delenv("REPRO_TRACE")

        assert built == [runtime]
        assert [type(t) for t in released_with[1:]] == [TraceRecorder, TraceRecorder]
        assert idle == [runtime] and runtime.trace is None
        assert session.execute(POINT, {"k": 4}).stats == plain.stats
        assert released_with[-1] is None
        assert svc.stats()["analyzed_runs"] == 1


def test_a_retired_plan_takes_its_runtimes_with_it():
    db, catalog = _setup()
    with QueryService(db, TYPES, catalog) as svc:
        session = svc.session()
        session.execute(POINT, {"k": 3})
        retired = weakref.ref(_entry(svc, POINT))
        runtime = weakref.ref(retired().idle_runtimes[0])

        catalog.create_index("X", "v")  # version bump: every cached plan is stale
        assert len(session.execute(POINT, {"k": 3}).rows) == 8
        current = _entry(svc, POINT)
        assert current is not retired()
        assert len(current.idle_runtimes) == 1
        assert current.idle_runtimes[0] is not runtime()
        gc.collect()
        assert retired() is None and runtime() is None


# ---------------------------------------------------------------------------
# one runtime, many epochs
# ---------------------------------------------------------------------------


def test_snapshot_and_live_head_runs_rebind_the_view(monkeypatch):
    built = []
    init = HashIndex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HashIndex, "__init__", counting_init)
    db, catalog = _setup()
    db.keep_history = True
    with QueryService(db, TYPES, catalog, max_workers=1) as svc:
        reader, live = svc.session(), svc.session()
        live.execute(POINT, {"k": 3})
        idle = _entry(svc, POINT).idle_runtimes
        (runtime,) = idle
        old_rows = list(range(3, 300, 40))
        with reader.snapshot() as pinned_at:
            for i in range(4):
                db.insert_rows("X", [VTuple(a=3, b=9000 + i, v=0)])
                # historical read: the shared index has moved on, so this
                # run probes a private index over its own epoch's rows —
                # built for this run, not left over from the last one...
                before = len(built)
                then = reader.execute(POINT, {"k": 3})
                assert (then.epoch, _rows(then)) == (pinned_at, old_rows)
                assert len(built) == before + 1
                # ...and the live-head run on the same runtime must not see it
                now = live.execute(POINT, {"k": 3})
                assert len(built) == before + 1
                assert now.epoch == db.epoch > pinned_at
                assert _rows(now) == old_rows + [9000 + j for j in range(i + 1)]
                assert now.stats["index_probes"] == then.stats["index_probes"] == 1
                assert idle == [runtime]  # one runtime served every run
                assert runtime.db.pinned_epoch == runtime.pinned_epoch == now.epoch
                # idle means empty-handed: nothing of the finished run is kept
                assert not runtime._transient_indexes and not runtime.params
                assert not runtime.compiler._col_cache and not runtime.stats.total_work()
        assert catalog.index_on("X", "a").source_rows is db.extent("X")
    assert db.pinned_epochs == {}
