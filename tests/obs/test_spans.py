"""Cross-process span assembly under fault injection (PR 10 satellite):
with a ``crash-once`` fault plan, a traced parallel query's span record
must show the failed pool attempt marked FAILED, the degraded inline
re-run's spans, and rows that still equal the fault-free oracle."""

import dataclasses

from repro.adl import builders as B
from repro.datamodel import VTuple
from repro.engine.plan import ExecRuntime
from repro.engine.planner import Executor
from repro.engine.stats import Stats
from repro.faults import FaultPlan
from repro.obs import TraceRecorder
from repro.shard import (
    Exchange,
    ParallelExecutor,
    PartitionedHashJoin,
    PartitionedScan,
)
from repro.shard.fragment import (
    LEFT_PLACEHOLDER,
    RIGHT_PLACEHOLDER,
    ShardRef,
    rebind_extent,
)
from repro.storage import Catalog, MemoryDatabase

EQ = B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d"))
JOIN = B.join(B.extent("X"), B.extent("Y"), "x", "y", EQ)
PARTS = 3


def make_db():
    db = MemoryDatabase(
        {
            "X": [VTuple(a=i % 12, v=i % 5, i=i) for i in range(90)],
            "Y": [VTuple(d=i % 12, w=i) for i in range(90)],
        }
    )
    catalog = Catalog(db)
    catalog.analyze()
    catalog.partition("X", "a", PARTS)
    catalog.partition("Y", "d", PARTS)
    return db, catalog


def gather_plan():
    template = dataclasses.replace(
        JOIN,
        left=rebind_extent(JOIN.left, LEFT_PLACEHOLDER),
        right=rebind_extent(JOIN.right, RIGHT_PLACEHOLDER),
    )
    bindings = [
        {
            LEFT_PLACEHOLDER: ShardRef("X", "a", PARTS, i),
            RIGHT_PLACEHOLDER: ShardRef("Y", "d", PARTS, i),
        }
        for i in range(PARTS)
    ]
    join = PartitionedHashJoin(
        "join", "x", "y", EQ, "partition-wise", PARTS, template, bindings,
        PartitionedScan("X", "a", PARTS), PartitionedScan("Y", "d", PARTS),
    )
    return Exchange("gather", join, PARTS)


def _oracle(db):
    return Executor(db).execute(JOIN)


def test_fault_free_process_spans():
    """Baseline: one ok pool attempt, one span per fragment, every span
    from a worker process.  The empty fault plan keeps it fault-free
    whatever ``$REPRO_FAULT_PLAN`` says."""
    db, catalog = make_db()
    plan = gather_plan()
    recorder = TraceRecorder()
    with ParallelExecutor(
        db, catalog, workers=PARTS, mode="process", fault_plan=FaultPlan()
    ) as parallel:
        rt = ExecRuntime(db, Stats(), catalog=catalog, parallel=parallel, trace=recorder)
        rows = plan.execute(rt)
    assert rows == _oracle(db)
    events = recorder.gather_events[id(plan)]
    assert events["attempts"] == [{"attempt": 0, "mode": "process", "status": "ok"}]
    spans = recorder.fragment_spans[id(plan)]
    assert len(spans) == PARTS
    assert all(span["in_worker"] for span in spans)
    assert all(span["attempt"] == 0 for span in spans)
    assert all(span["trace"] == recorder.trace_id for span in spans)


def test_crash_once_marks_failed_attempt_and_degraded_spans():
    """crash-once: the pool batch loses a worker on attempt 0; the span
    record shows the FAILED process attempt, the degraded inline re-run's
    spans (attempt 1, coordinator-side), and oracle-equal rows."""
    db, catalog = make_db()
    plan = gather_plan()
    recorder = TraceRecorder()
    with ParallelExecutor(
        db,
        catalog,
        workers=PARTS,
        mode="process",
        fault_plan=FaultPlan.parse("crash-once"),
    ) as parallel:
        rt = ExecRuntime(db, Stats(), catalog=catalog, parallel=parallel, trace=recorder)
        rows = plan.execute(rt)

    assert rows == _oracle(db)

    events = recorder.gather_events[id(plan)]
    assert events["degraded"] is True
    assert events["retries"] == 1
    attempts = events["attempts"]
    assert attempts[0]["status"] == "failed"
    assert attempts[0]["error"] == "WorkerCrashError"
    assert attempts[0]["mode"] == "process"
    assert attempts[-1] == {"attempt": 1, "mode": "inline", "status": "ok"}

    # the failed attempt contributed nothing: every surviving span is
    # from the degraded inline re-run on the coordinator
    spans = recorder.fragment_spans[id(plan)]
    assert len(spans) == PARTS
    assert all(span["attempt"] == 1 for span in spans)
    assert not any(span["in_worker"] for span in spans)

    # the rendered span section tells the same story
    text = recorder.render(plan)
    assert "FAILED (WorkerCrashError)" in text
    assert "attempt 1 [inline] ok" in text
    assert "degraded" in text


def test_crash_once_inline_mode():
    """The same plan in inline mode: attempt 0 crashes inline, attempt 1
    recovers inline — both attempts in the span record, rows exact."""
    db, catalog = make_db()
    plan = gather_plan()
    recorder = TraceRecorder()
    with ParallelExecutor(
        db,
        catalog,
        workers=PARTS,
        mode="inline",
        fault_plan=FaultPlan.parse("crash-once"),
    ) as parallel:
        rt = ExecRuntime(db, Stats(), catalog=catalog, parallel=parallel, trace=recorder)
        rows = plan.execute(rt)
    assert rows == _oracle(db)
    events = recorder.gather_events[id(plan)]
    attempts = events["attempts"]
    assert attempts[0]["status"] == "failed"
    assert attempts[-1]["status"] == "ok"
    spans = recorder.fragment_spans[id(plan)]
    assert len(spans) == PARTS
    assert not any(span["in_worker"] for span in spans)


def test_untraced_specs_carry_no_trace_context():
    """No recorder → fragments ship with ``trace=None`` and snapshots
    carry no span payload (the untraced contract is byte-identical)."""
    db, catalog = make_db()
    plan = gather_plan()
    specs = plan.child.payloads(None, epoch=None)
    assert all(spec.trace is None for spec in specs)
    with ParallelExecutor(db, catalog, workers=PARTS, mode="inline") as parallel:
        results = parallel.run_fragments(specs)
    assert all("_span" not in snapshot for _, snapshot in results)
