"""QueryService behaviour: sessions, prepared statements, admission
control, and the concurrency contract — N concurrent sessions over one
shared database return exactly the results serial execution returns
(per-execution runtimes mean no shared mutable state can bleed between
queries)."""

import threading

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from repro.datamodel import INT, Catalog as TypeCatalog, SetType, TupleType, VTuple
from repro.datamodel.errors import AdmissionError, ServiceError, TypeCheckError
from repro.engine.interpreter import evaluate
from repro.engine.planner import Planner
from repro.service import QueryService
from repro.storage import Catalog, MemoryDatabase
from repro.workload.paper_db import section4_catalog, section4_database


def _db(n=200, mod=20):
    return MemoryDatabase(
        {
            "X": [VTuple(a=i % mod, b=i) for i in range(n)],
            "Y": [VTuple(d=i % mod, e=i) for i in range(n)],
        }
    )


# ---------------------------------------------------------------------------
# sessions and prepared statements
# ---------------------------------------------------------------------------


def test_prepare_compiles_once_and_reports_params():
    with QueryService(_db()) as svc:
        s1, s2 = svc.session(), svc.session()
        text = "select x.b from x in X where x.a = $k"
        stmt1 = s1.prepare(text)
        stmt2 = s2.prepare("SELECT x.b FROM x IN X WHERE x.a = $k")
        assert stmt1.param_names == ("k",)
        assert stmt1.shape == stmt2.shape
        assert svc.compilations == 1  # shared across sessions
        r = stmt1.execute(k=3)
        assert r.cache_hit and len(r.rows) == 10


def test_binding_validation_is_strict_both_ways():
    with QueryService(_db()) as svc:
        s = svc.session()
        stmt = s.prepare("select x.b from x in X where x.a = $k")
        with pytest.raises(ServiceError, match=r"missing.*\$k"):
            stmt.execute()
        with pytest.raises(ServiceError, match=r"unexpected.*\$kk"):
            stmt.execute(k=1, kk=2)
        with pytest.raises(ServiceError, match="one dict or as keywords"):
            stmt.execute({"k": 1}, k=2)


def test_parameterless_query_and_repeat_hits():
    with QueryService(_db()) as svc:
        r1 = svc.execute("select x.b from x in X where x.a = 1")
        r2 = svc.execute("select x.b from x in X where x.a = 1")
        assert not r1.cache_hit and r2.cache_hit
        assert r1.rows == r2.rows
        # accounting matches per-query outcomes: one miss (the compile),
        # one hit — not a miss per internal lookup
        assert svc.cache.stats.snapshot() == {
            "hits": 1, "misses": 1, "invalidations": 0, "evictions": 0,
        }


def test_explain_is_counter_neutral():
    with QueryService(_db()) as svc:
        text = "select x.b from x in X where x.a = $k"
        svc.execute(text, {"k": 1})
        before = svc.cache.stats.snapshot()
        for _ in range(3):
            assert "Scan" in svc.explain(text)
        assert svc.cache.stats.snapshot() == before


def test_per_session_stats_accumulate():
    with QueryService(_db()) as svc:
        s = svc.session()
        stmt = s.prepare("select x.b from x in X where x.a = $k")
        for k in range(4):
            stmt.execute(k=k)
        stats = s.stats
        assert stats["queries"] == 4
        assert stats["cache_hits"] == 4       # prepare() compiled eagerly
        assert stats["work"]["tuples_visited"] > 0
        assert stats["wall_s"] > 0.0


def test_closed_session_and_closed_service_reject_work():
    svc = QueryService(_db())
    s = svc.session()
    s.close()
    with pytest.raises(ServiceError, match="closed"):
        s.execute("select x.b from x in X")
    svc.close()
    with pytest.raises(ServiceError, match="closed"):
        svc.session()


def test_prepare_time_errors_surface_at_prepare_time():
    db = section4_database()
    with QueryService(db, section4_catalog()) as svc:
        s = svc.session()
        with pytest.raises(TypeCheckError):
            s.prepare("select s.nope from s in SUPPLIER")


def test_failed_execution_counts_as_session_error():
    with QueryService(_db()) as svc:
        s = svc.session()
        # $k bound to a string makes x.a = $k fine (equality is universal)
        # but x.a < $k is an ordered comparison across types at runtime
        stmt = s.prepare("select x.b from x in X where x.a < $k")
        from repro.datamodel.errors import EvaluationError

        with pytest.raises(EvaluationError):
            stmt.execute(k="not-a-number")
        assert s.stats["errors"] == 1


def test_paper_db_service_with_schema():
    db = section4_database()
    catalog = Catalog(db)
    catalog.analyze()
    with QueryService(db, section4_catalog(), catalog) as svc:
        s = svc.session()
        stmt = s.prepare(
            "select s.sname from s in SUPPLIER where exists p in PART : "
            "(exists y in s.parts : y.pid = p.pid) and p.price < $maxprice"
        )
        assert sorted(stmt.execute(maxprice=12).rows) == ["s1"]
        assert sorted(stmt.execute(maxprice=100).rows) == ["s1", "s2", "s3"]
        assert stmt.execute(maxprice=12).option in (
            "relational", "grouping", "unnest", "nestjoin", "combined", "none-needed",
        )


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

class _GatedDatabase(MemoryDatabase):
    """Extent access blocks until the gate opens — makes 'a query is still
    running' a deterministic state instead of a timing assumption."""

    def __init__(self, extents):
        super().__init__(extents)
        self.gate = threading.Event()
        self.started = threading.Event()

    def extent(self, name):
        self.started.set()
        if not self.gate.wait(timeout=30):
            raise RuntimeError("test gate never opened")
        return super().extent(name)


GATED_QUERY = "select x.b from x in X where x.a = $k"


def test_admission_rejects_when_saturated():
    db = _GatedDatabase({"X": [VTuple(a=i % 5, b=i) for i in range(20)]})
    with QueryService(db, max_workers=1, queue_depth=0) as svc:
        s = svc.session()
        first = s.execute_async(GATED_QUERY, {"k": 1})
        assert db.started.wait(timeout=30)  # the query is now in flight
        with pytest.raises(AdmissionError, match="saturated"):
            # the slot frees only when `first` completes; this submit
            # happens while it is provably still running
            s.execute_async(GATED_QUERY, {"k": 2})
        assert svc.rejected == 1
        db.gate.set()
        assert first.result().rows
        # capacity is released after completion
        assert s.execute(GATED_QUERY, {"k": 3}).rows


def test_queue_depth_admits_waiting_work():
    db = _GatedDatabase({"X": [VTuple(a=i % 5, b=i) for i in range(20)]})
    with QueryService(db, max_workers=1, queue_depth=2) as svc:
        s = svc.session()
        futures = [s.execute_async(GATED_QUERY, {"k": i % 5}) for i in range(3)]
        assert db.started.wait(timeout=30)
        # 1 in flight + 2 queued fills the service; one more is rejected
        with pytest.raises(AdmissionError):
            s.execute_async(GATED_QUERY, {"k": 4})
        db.gate.set()
        results = [f.result() for f in futures]
        assert all(r.rows for r in results)
        assert svc.rejected == 1


# ---------------------------------------------------------------------------
# concurrency: shared db, per-execution state (the satellite regression)
# ---------------------------------------------------------------------------


def _concurrent_queries():
    return [
        ("select x.b from x in X where x.a = $k", {"k": k}) for k in range(4)
    ] + [
        (
            "select (b = x.b, e = y.e) from x in X, y in Y "
            "where x.a = y.d and y.e < $hi",
            {"hi": hi},
        )
        for hi in (40, 80, 120, 160)
    ]


def test_eight_concurrent_sessions_match_serial_oracle():
    db = _db(240, 12)
    catalog = Catalog(db)
    catalog.analyze()
    catalog.create_index("Y", "d")
    # with the extents' types the two-variable select unnests into one
    # emitting hash join; without a schema it would run as nested maps,
    # and this test would time the interpreter instead of the service
    schema = TypeCatalog(
        {
            "X": SetType(TupleType({"a": INT, "b": INT})),
            "Y": SetType(TupleType({"d": INT, "e": INT})),
        }
    )

    # serial oracle: a fresh service, one query at a time
    with QueryService(
        db, schema, catalog=catalog, cache_size=0, max_workers=1
    ) as oracle_svc:
        expected = [
            frozenset(oracle_svc.execute(text, params).rows)
            for text, params in _concurrent_queries()
        ]

    with QueryService(db, schema, catalog=catalog, max_workers=8, queue_depth=64) as svc:
        assert "HashJoin(join)" in svc.explain(_concurrent_queries()[-1][0])
        sessions = [svc.session() for _ in range(8)]
        rounds = 5
        outcomes = [[None] * len(expected) for _ in range(8)]
        errors = []
        barrier = threading.Barrier(8)

        def worker(wid):
            try:
                barrier.wait()
                session = sessions[wid]
                for _ in range(rounds):
                    for qi, (text, params) in enumerate(_concurrent_queries()):
                        rows = frozenset(session.execute(text, params).rows)
                        if outcomes[wid][qi] is None:
                            outcomes[wid][qi] = rows
                        assert outcomes[wid][qi] == rows
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors, errors
        for wid in range(8):
            assert outcomes[wid] == expected
        stats = svc.stats()
        assert stats["executed"] == 8 * rounds * len(expected)
        assert stats["peak_in_flight"] >= 2  # genuinely concurrent
        # the 8 queries are 4 bindings each of 2 shapes: each shape
        # compiled once, everything else hit the cache
        assert stats["compilations"] == 2
        for session in sessions:
            assert session.stats["errors"] == 0


def test_shared_planner_concurrent_plan_calls_are_consistent():
    """Each plan() carries its own join-order decisions on its root, so
    concurrent plan() calls on one shared planner never see each other's."""
    db = MemoryDatabase(
        {
            "R1": [VTuple(a1=i % 5, i1=i) for i in range(60)],
            "R2": [VTuple(a2=i % 5, b2=i % 4, i2=i) for i in range(60)],
            "R3": [VTuple(b3=i % 4, i3=i) for i in range(10)],
        }
    )
    catalog = Catalog(db)
    catalog.analyze()

    def av(v, a):
        return B.attr(B.var(v), a)

    chain = B.join(
        B.join(B.extent("R1"), B.extent("R2"), "x", "y", B.eq(av("x", "a1"), av("y", "a2"))),
        B.extent("R3"), "t", "z", B.eq(av("t", "b2"), av("z", "b3")),
    )
    single = B.sel("x", B.eq(av("x", "a1"), A.Param("k")), B.extent("R1"))

    planner = Planner(catalog)
    observed = []
    errors = []

    def worker(expr, want_decisions):
        try:
            for _ in range(30):
                seen = planner.plan(expr).join_orders
                # no decision for the single-extent query, exactly one for
                # the chain — whatever the other thread planned meanwhile
                assert len(seen) == want_decisions
                observed.append(len(seen))
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(chain, 1)),
        threading.Thread(target=worker, args=(single, 0)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    assert set(observed) <= {0, 1}


def test_concurrent_execution_against_interpreter_oracle():
    """Results under concurrency equal the reference interpreter's."""
    db = _db(120, 10)
    expr = B.sel("x", B.eq(B.attr(B.var("x"), "a"), A.Param("k")), B.extent("X"))
    with QueryService(db, max_workers=4, queue_depth=32) as svc:
        session = svc.session()
        futures = [
            session.execute_async("select x from x in X where x.a = $k", {"k": k % 10})
            for k in range(40)
        ]
        for k, future in enumerate(futures):
            want = evaluate(expr, db, params={"k": k % 10})
            assert frozenset(future.result().rows) == want
