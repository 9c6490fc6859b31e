"""Epoch pinning across the parallel tier (PR 7).

The coordinator pins one epoch at submission and every shipped fragment
carries it in its :class:`FragmentSpec` — so a writer mutating an extent
*mid-batch* cannot tear a parallel join, in either execution mode.  This
is the regression suite for the PR-5 footgun ("mutations that bypass the
catalog need ``refresh()``"), which the epoch layer deletes.
"""

import dataclasses
import threading
import time
from collections import Counter

import pytest

from repro.adl import builders as B
from repro.engine.plan import ExecRuntime
from repro.engine.planner import Executor
from repro.engine.stats import Stats
from repro.datamodel import VTuple
from repro.faults import FaultPlan, RetryPolicy
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
from repro.storage import Catalog, EpochView, MemoryDatabase

EQ = B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d"))
JOIN = B.join(B.extent("X"), B.extent("Y"), "x", "y", EQ)
PARTS = 3
FAST = RetryPolicy(max_attempts=3, base_s=0.001, max_s=0.002)

mode_param = pytest.mark.parametrize("mode", ["inline", "process"])


def _template(expr):
    return dataclasses.replace(
        expr,
        left=rebind_extent(expr.left, LEFT_PLACEHOLDER),
        right=rebind_extent(expr.right, RIGHT_PLACEHOLDER),
    )


def co_partitioned():
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
    bindings = [
        {
            LEFT_PLACEHOLDER: ShardRef("X", "a", PARTS, i),
            RIGHT_PLACEHOLDER: ShardRef("Y", "d", PARTS, i),
        }
        for i in range(PARTS)
    ]
    join = PartitionedHashJoin(
        "join", JOIN.lvar, JOIN.rvar, JOIN.pred, "partition-wise", PARTS,
        _template(JOIN), bindings,
        PartitionedScan("X", "a", PARTS),
        PartitionedScan("Y", "d", PARTS),
    )
    return db, catalog, Exchange("gather", join, PARTS)


def _run(db, catalog, plan, parallel=None):
    stats = Stats()
    rt = ExecRuntime(db, stats, catalog=catalog, parallel=parallel)
    return plan.execute(rt)


# ---------------------------------------------------------------------------
# the fragment contract
# ---------------------------------------------------------------------------


def test_fragment_spec_carries_epoch():
    join = co_partitioned()[2].child
    specs = join.payloads({}, epoch=7)
    assert [s.epoch for s in specs] == [7] * PARTS
    assert all(s.epoch is None for s in join.payloads({}))


def test_runtime_epoch_flows_into_shipped_specs():
    db, catalog, plan = co_partitioned()
    with db.pinned() as e:
        view = EpochView(db, e)
        rt = ExecRuntime(db, Stats(), catalog=catalog)
        assert rt.pinned_epoch is None
        rt_pinned = ExecRuntime(view, Stats(), catalog=catalog)
        assert rt_pinned.pinned_epoch == e


# ---------------------------------------------------------------------------
# mid-batch mutation: the deleted PR-5 footgun, now a guarantee
# ---------------------------------------------------------------------------


@mode_param
def test_writer_mutating_mid_batch_cannot_tear_the_join(mode):
    """A slow fragment holds the batch open while a writer inserts
    matching rows into *both* join sides and deletes others; the pinned
    run must return exactly the rows of the pinned-epoch oracle — no
    torn mix of old and new extent values, no ``refresh()`` call."""
    db, catalog, plan = co_partitioned()
    with db.pinned() as e:
        view = EpochView(db, e)
        oracle = Counter(Executor(view, catalog=catalog).execute(JOIN))

        def writer():
            time.sleep(0.1)  # let fragment 0 start (it sleeps 0.4s)
            with db.batch():
                db.insert_rows("X", [VTuple(a=k, v=0, i=900 + k) for k in range(12)])
                db.insert_rows("Y", [VTuple(d=k, w=900 + k) for k in range(12)])
                db.delete_rows("X", [VTuple(a=0, v=0, i=0)])

        t = threading.Thread(target=writer)
        with ParallelExecutor(
            db, catalog, workers=PARTS, mode=mode,
            fault_plan=FaultPlan.slow(0.4, fragment=0), retry_policy=FAST,
        ) as parallel:
            t.start()
            try:
                rows = _run(view, catalog, plan, parallel)
            finally:
                t.join()
        assert Counter(rows) == oracle
    # and an unpinned run afterwards sees the mutated state
    assert Counter(_run(db, catalog, plan)) != oracle


@mode_param
def test_pinned_parallel_matches_serial_oracle_after_mutation(mode):
    db, catalog, plan = co_partitioned()
    with db.pinned() as e:
        view = EpochView(db, e)
        oracle = Counter(Executor(view, catalog=catalog).execute(JOIN))
        db.insert_rows("X", [VTuple(a=1, v=1, i=500)])
        with ParallelExecutor(
            db, catalog, workers=PARTS, mode=mode, retry_policy=FAST
        ) as parallel:
            assert Counter(_run(view, catalog, plan, parallel)) == oracle


# ---------------------------------------------------------------------------
# pool staleness: the epoch trigger
# ---------------------------------------------------------------------------


def test_pool_reforks_when_batch_epoch_passes_pool_epoch():
    """Mutating an extent the plan never reads moves the store epoch but
    neither the catalog version nor any read extent's identity — only
    the PR-7 epoch trigger can (and must) retire the worker snapshot."""
    db, catalog, plan = co_partitioned()
    with ParallelExecutor(
        db, catalog, workers=PARTS, mode="process", retry_policy=FAST
    ) as parallel:
        baseline = Counter(_run(db, catalog, plan, parallel))
        forks = parallel.pool_rebuilds
        _run(db, catalog, plan, parallel)
        assert parallel.pool_rebuilds == forks  # steady state: no re-fork
        db.set_extent("Z", frozenset([VTuple(z=1)]))  # unrelated extent
        with db.pinned() as e:
            rows = _run(EpochView(db, e), catalog, plan, parallel)
        assert Counter(rows) == baseline
        assert parallel.pool_rebuilds == forks + 1  # forked past the pin


# ---------------------------------------------------------------------------
# stale stored shards under a pin
# ---------------------------------------------------------------------------


def test_stale_copartitioned_shards_fall_back_to_shared_scan():
    """Once a mutation invalidates the stored shards, a pinned fragment
    must not read them (they were built from a different extent value):
    it falls back to hash-filtering the pinned shared scan."""
    db, catalog, plan = co_partitioned()
    with db.pinned() as e:
        view = EpochView(db, e)
        oracle = Counter(Executor(view, catalog=catalog).execute(JOIN))
        db.insert_rows("X", [VTuple(a=2, v=2, i=700)])  # shards now stale
        rows = _run(view, catalog, plan)  # inline fragments, no executor
        assert Counter(rows) == oracle
        assert all(r for r in rows)
        # the new row is invisible to the pinned run...
        assert not any(getattr(x, "i", None) == 700 for r in rows for x in [r])
    # ...and visible once unpinned (after the catalog refreshes shards)
    live = _run(db, catalog, plan)
    assert len(live) > sum(oracle.values())
