"""The unified metrics registry, slow-query log, and misestimate store
(PR 10): units, the service wiring, the Prometheus export, and the PR-7
epoch-mismatch records on the misestimate store."""

import json
import sys
import threading

import pytest

from repro.datamodel import VTuple
from repro.obs import MetricsRegistry, MisestimateStore, SlowQueryLog
from repro.service import QueryService
from repro.storage import Catalog, MemoryDatabase

QUERY = "select x.b from x in X where x.a = 0"


def _db():
    return MemoryDatabase({"X": [VTuple(a=i % 3, b=i) for i in range(30)]})


# ---------------------------------------------------------------------------
# registry units
# ---------------------------------------------------------------------------


def test_counter_gauge_histogram():
    m = MetricsRegistry()
    c = m.counter("c", "a counter")
    c.inc()
    c.inc(4)
    g = m.gauge("g", "a gauge")
    g.set(2.5)
    fn_g = m.gauge("fn", "callable gauge", fn=lambda: 7)
    h = m.histogram("h", "a histogram", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(99.0)

    snap = m.snapshot()
    assert snap["c"] == 5
    assert snap["g"] == 2.5
    assert snap["fn"] == 7
    assert snap["h"]["count"] == 3
    assert snap["h"]["sum"] == pytest.approx(99.55)
    assert [b["count"] for b in snap["h"]["buckets"]] == [1, 2, 3]
    # stable + JSON-ready
    assert list(snap) == sorted(snap)
    json.dumps(snap)


def test_register_twice_returns_same_metric_and_type_clash_raises():
    m = MetricsRegistry()
    c1 = m.counter("x")
    c2 = m.counter("x")
    assert c1 is c2
    with pytest.raises(ValueError):
        m.gauge("x")


def test_prometheus_export_format():
    m = MetricsRegistry()
    m.counter("events_total", "all events").inc(3)
    m.histogram("lat", "latency", buckets=(0.5,)).observe(0.1)
    text = m.render_prometheus()
    assert "# HELP events_total all events" in text
    assert "# TYPE events_total counter" in text
    assert "events_total 3" in text
    assert "# TYPE lat histogram" in text
    assert 'lat_bucket{le="0.5"} 1' in text
    assert 'lat_bucket{le="+Inf"} 1' in text
    assert "lat_count 1" in text


# ---------------------------------------------------------------------------
# misestimate store
# ---------------------------------------------------------------------------


def test_misestimate_store_bounds_and_views():
    store = MisestimateStore(per_shape=2, max_shapes=2)
    for i in range(5):
        store.record("s1", kind="operator", q_error=float(i))
    assert len(store.for_shape("s1")) == 2  # per-shape bound
    assert store.recorded == 5
    store.record("s2", kind="epoch-mismatch", planned_epoch=1, executed_epoch=2,
                 est_rows=10, actual_rows=20)
    store.record("s3", kind="operator")
    assert len(store.shapes()) == 2  # LRU-evicted down to max_shapes
    # s1 was evicted; the epoch-mismatch record keeps every field it was given
    (rec,) = store.records("epoch-mismatch")
    assert rec == {
        "shape": "s2", "kind": "epoch-mismatch", "planned_epoch": 1,
        "executed_epoch": 2, "est_rows": 10, "actual_rows": 20,
    }


# ---------------------------------------------------------------------------
# slow-query log
# ---------------------------------------------------------------------------


def test_slow_log_threshold_gating():
    log = SlowQueryLog(threshold_s=0.5, capacity=2)
    assert not log.maybe_log(shape="q", wall_s=0.1)
    assert log.maybe_log(shape="q", wall_s=0.9)
    for i in range(3):
        log.maybe_log(shape=f"q{i}", wall_s=1.0)
    assert log.logged == 4
    assert len(log) == 2  # bounded
    disabled = SlowQueryLog(threshold_s=None)
    assert not disabled.maybe_log(shape="q", wall_s=100.0)


# ---------------------------------------------------------------------------
# service wiring
# ---------------------------------------------------------------------------


def test_service_metrics_surface():
    db = _db()
    catalog = Catalog(db)
    catalog.analyze()
    with QueryService(db, catalog=catalog, slow_query_s=0.0) as svc:
        svc.execute(QUERY)
        svc.execute(QUERY)
        snap = svc.metrics_snapshot()
        assert snap["repro_queries_executed"] == 2
        assert snap["repro_query_latency_seconds"]["count"] == 2
        assert snap["repro_queue_wait_seconds"]["count"] == 2
        assert snap["repro_cache_hits"] == 1
        assert snap["repro_cache_misses"] == 1
        assert snap["repro_cache_hit_ratio"] == pytest.approx(0.5)
        assert snap["repro_cached_shapes"] == 1
        assert snap["repro_epochs_pin_events"] >= 2
        # threshold 0.0 → every query is "slow"; entries carry the plan
        assert snap["repro_slow_queries"] == 2
        entry = svc.slow_log.entries()[-1]
        assert entry["plan"] and entry["wall_s"] >= 0.0
        json.dumps(snap)
        text = svc.metrics_text()
        assert "# TYPE repro_query_latency_seconds histogram" in text
        assert "repro_queries_executed 2" in text
        # stats() keeps its own keys working alongside the registry
        stats = svc.stats()
        assert stats["slow_queries"] == 2
        assert stats["misestimates"] == 0


def test_histograms_count_every_concurrent_run():
    """Caller threads observe both histograms inside the release's one
    ``_state_lock`` round, so no observation is lost to a racing one."""
    threads, per_thread = 8, 60
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: races surface
    try:
        with QueryService(_db(), max_workers=threads) as svc:
            sessions = [svc.session() for _ in range(threads)]
            start = threading.Barrier(threads)

            def client(session):
                start.wait(timeout=30)
                for _ in range(per_thread):
                    session.execute(QUERY)

            workers = [threading.Thread(target=client, args=(s,)) for s in sessions]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
            snap = svc.metrics_snapshot()
            executed = svc.stats()["executed"]
            hists = (svc._latency_hist, svc._queue_wait_hist)
    finally:
        sys.setswitchinterval(interval)
    assert executed == threads * per_thread
    assert snap["repro_query_latency_seconds"]["count"] == executed
    assert snap["repro_queue_wait_seconds"]["count"] == executed
    for hist in hists:
        assert sum(hist.counts) == hist.count  # no bucket increment lost


def test_every_counter_has_a_gauge_and_a_stats_key():
    """One table names each counter: every service and executor counter
    is both a registry gauge and a ``stats()`` entry with the same value."""
    from repro.service.service import _COUNTERS
    from repro.shard.executor import COUNTERS as PARALLEL_COUNTERS

    db = _db()
    catalog = Catalog(db)
    catalog.analyze()
    with QueryService(db, catalog=catalog, parallel_workers=2,
                      parallel_mode="inline") as svc:
        svc.execute(QUERY)
        svc._parallel_handle()
        snap, stats = svc.metrics_snapshot(), svc.stats()
        for attr, section, metric, _ in _COUNTERS:
            assert snap[metric] == (stats[section] if section else stats)[attr]
        for attr in PARALLEL_COUNTERS:
            assert snap[f"repro_parallel_{attr}"] == stats["parallel"][attr]
        assert "repro_parallel_extent_lookup_failures" in snap


def test_epoch_mismatch_lands_on_misestimate_store():
    """Epoch mismatches are ``kind="epoch-mismatch"`` records on the
    misestimate store — one estimate-feedback surface."""
    db = _db()
    with QueryService(db) as svc:
        svc.execute(QUERY)  # compiles at the current epoch
        db.insert_rows("X", [VTuple(a=0, b=555)])  # epoch moves
        r = svc.execute(QUERY)  # cache hit: plan priced at the old epoch
        assert r.cache_hit
        stats = svc.stats()
        assert stats["epoch_mismatch_runs"] >= 1
        rec = svc.misestimates.records("epoch-mismatch")[-1]
        assert rec["shape"] == r.shape
        assert rec["planned_epoch"] < rec["executed_epoch"]
        assert rec["actual_rows"] == len(r.rows)
        assert svc.metrics_snapshot()["repro_misestimates"] >= 1
