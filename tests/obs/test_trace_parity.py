"""Trace-vs-Stats parity (PR 10): attaching a recorder must change
nothing — across the whole streaming-parity operator matrix, through the
row stream, the batch stream and the drain, a traced run produces the
same rows AND the byte-identical ``Stats`` snapshot as an untraced run,
and the recorder's own row counts agree with what actually flowed."""

import pytest

from repro.adl import builders as B
from repro.engine.plan import ExecRuntime, Filter, Scan
from repro.engine.stats import Stats
from repro.obs import TraceRecorder
from tests.engine.test_streaming_parity import CASES

BATCH = 64


def _run_rows(factory, db, trace=None):
    stats = Stats()
    node = factory()
    rows = list(node.stream(ExecRuntime(db, stats, trace=trace)))
    return node, rows, stats


def _run_batch(factory, db, trace=None):
    stats = Stats()
    node = factory()
    rows = [
        row
        for batch in node.stream_batches(
            ExecRuntime(db, stats, batch_size=BATCH, trace=trace)
        )
        for row in batch.rows
    ]
    return node, rows, stats


class TestTraceParity:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_row_stream(self, name):
        """The row stream: the same metered edge, flattened."""
        factory, db_factory = CASES[name]
        _, plain_rows, plain_stats = _run_rows(factory, db_factory())

        recorder = TraceRecorder()
        node, traced_rows, traced_stats = _run_rows(
            factory, db_factory(), trace=recorder
        )

        assert sorted(map(repr, traced_rows)) == sorted(map(repr, plain_rows)), name
        assert traced_stats.snapshot() == plain_stats.snapshot(), name
        # the recorder's root count is the actual bag cardinality
        assert recorder.records[id(node)].rows_out == len(traced_rows), name

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_batch_mode(self, name):
        factory, db_factory = CASES[name]
        _, plain_rows, plain_stats = _run_batch(factory, db_factory())

        recorder = TraceRecorder()
        node, traced_rows, traced_stats = _run_batch(
            factory, db_factory(), trace=recorder
        )

        assert sorted(map(repr, traced_rows)) == sorted(map(repr, plain_rows)), name
        assert traced_stats.snapshot() == plain_stats.snapshot(), name
        rec = recorder.records[id(node)]
        assert rec.rows_out == len(traced_rows), name
        assert rec.batches_out >= (1 if traced_rows else 0), name

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_execute_materialized_parity(self, name):
        """``execute`` (the service's path) under tracing: same frozenset,
        same counters."""
        factory, db_factory = CASES[name]
        plain_stats = Stats()
        plain = factory().execute(ExecRuntime(db_factory(), plain_stats))

        traced_stats = Stats()
        traced = factory().execute(
            ExecRuntime(db_factory(), traced_stats, trace=TraceRecorder())
        )
        assert traced == plain, name
        assert traced_stats.snapshot() == plain_stats.snapshot(), name


def test_child_counts_match_stats_counters():
    """The trace agrees with the Stats counters it sits next to: a
    Filter's child row count is exactly the filter's tuples_visited."""
    factory, db_factory = CASES["Filter"]
    recorder = TraceRecorder()
    stats = Stats()
    node = factory()
    out = list(node.stream(ExecRuntime(db_factory(), stats, trace=recorder)))
    child_rec = recorder.records[id(node.child)]
    assert child_rec.rows_out == stats.tuples_visited
    assert recorder.records[id(node)].rows_out == len(out)


def test_untraced_runtime_returns_raw_iterator():
    """The hoisted-check contract: with no recorder, ``stream_batches``
    hands back ``iterate_batches``'s generator itself — zero wrapping on
    the untraced path."""
    db = CASES["Scan"][1]()
    node = Scan("X")
    rt = ExecRuntime(db)
    assert rt.trace is None
    it = node.stream_batches(rt)
    assert it.__class__ is node.iterate_batches(rt).__class__
    assert it.gi_code is node.iterate_batches(rt).gi_code


def test_fill_time_recorded_for_pipeline_breakers():
    """A breaker's fill time (open to first row) is captured."""
    factory, db_factory = CASES["NestOp"]
    recorder = TraceRecorder()
    node = factory()
    list(node.stream(ExecRuntime(db_factory(), trace=recorder)))
    rec = recorder.records[id(node)]
    assert rec.first_row_s is not None
    assert rec.first_row_s >= 0.0
    assert rec.wall_s >= rec.first_row_s
