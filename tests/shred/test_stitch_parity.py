"""Shredded-vs-nestjoin parity (PR 9): the non-negotiable oracle matrix.

Every nestjoin in the matrix is shredded into its stitch form and both
forms are executed; the shredded rows must equal the serial nestjoin
engine's AND the reference interpreter's, across {serial, parallel
inline, process pool} x {chunk capacity 1/7/256} x {pinned epoch, live}.
Work counters of the shredded plan are checked against the frozen
tuple-engine record (``tests/engine/golden.py``): the chunk capacity
must be invisible modulo the batch protocol's own two counters.

The process-pool cells re-run under ``REPRO_FAULT_PLAN=crash-once`` in
CI's fault-injection job — recovery must not change a single row.
"""

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from repro.datamodel import Catalog as TypeCatalog, INT, SetType, TupleType, VTuple
from repro.adl.typecheck import TypeChecker
from repro.engine.interpreter import Interpreter
from repro.engine.planner import Executor
from repro.rewrite.common import RewriteContext
from repro.shard import ParallelExecutor
from repro.shred import StitchNest, shred_expr
from repro.storage import Catalog, EpochView, MemoryDatabase
from tests.engine.golden import assert_matches_reference

TYPES = TypeCatalog(
    {
        "X": SetType(TupleType({"a": INT, "b": INT})),
        "Y": SetType(TupleType({"d": INT, "e": INT})),
    }
)
CTX = RewriteContext(checker=TypeChecker(TYPES))

BATCH_SIZES = (1, 7, 256)
PARTS = 3

XB, YD = B.attr(B.var("x"), "b"), B.attr(B.var("y"), "d")
EQ = B.eq(XB, YD)


def make_db():
    # moderate fan-out, dangling tuples on both sides, duplicate keys
    x = [VTuple(a=i % 7, b=i % 15) for i in range(60)]
    y = [VTuple(d=i % 20, e=i % 4) for i in range(80)]
    return MemoryDatabase({"X": x, "Y": y})


def _nj(pred=EQ, result=None, left=None):
    return B.nestjoin(
        left if left is not None else B.extent("X"),
        B.extent("Y"),
        "x",
        "y",
        pred,
        "ys",
        result,
    )


#: the nested-query matrix: every shape the translator accepts
MATRIX = {
    "figure3-equi": _nj(),
    "projected-result": _nj(result=B.attr(B.var("y"), "e")),
    "computed-result": _nj(result=B.add(B.attr(B.var("y"), "e"), B.attr(B.var("x"), "a"))),
    "residual-pred": _nj(pred=B.conj(EQ, B.lt(B.attr(B.var("y"), "e"), B.attr(B.var("x"), "a")))),
    "non-equi-pred": _nj(pred=B.lt(YD, XB)),
    "filtered-left": _nj(left=B.sel("x", B.lt(B.attr(B.var("x"), "a"), B.lit(5)), B.extent("X"))),
    "under-project": A.Project(_nj(), ("a", "ys")),
}


def shredded(name):
    out = shred_expr(MATRIX[name], CTX)
    assert out is not None, f"{name} must be shreddable"
    return out


def reference_cells():
    """Every shredded shape, planned and executed serially — the recorded
    cells (see ``tests/engine/golden.py``)."""
    return {
        name: lambda stats, size, name=name: Executor(
            make_db(), stats, batch_size=size
        ).execute(shredded(name))
        for name in MATRIX
    }


def catalog_for(db, partitioned=True):
    catalog = Catalog(db)
    catalog.analyze()
    if partitioned:
        catalog.partition("X", "b", PARTS)
        catalog.partition("Y", "d", PARTS)
    return catalog


class TestSerialParity:
    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_shredded_equals_nestjoin_and_interpreter(self, name):
        db = make_db()
        want = Executor(db).execute(MATRIX[name])
        got = Executor(db).execute(shredded(name))
        assert got == want, name
        assert Interpreter(db).eval(MATRIX[name]) == want, name

    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_cost_based_serial_parity(self, name):
        db = make_db()
        catalog = catalog_for(db, partitioned=False)
        want = Executor(db, catalog=catalog).execute(MATRIX[name])
        assert Executor(db, catalog=catalog).execute(shredded(name)) == want

    def test_stitch_plan_node_is_used(self):
        db = make_db()
        ex = Executor(db)
        plan = ex.plan(shredded("figure3-equi"))
        assert any(isinstance(op, StitchNest) for op in plan.operators())


class TestBatchParity:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_rows_and_counters_match_tuple_mode(self, name, batch_size):
        got = assert_matches_reference(__name__, name, batch_size)
        assert got["stats"]["batches_emitted"] > 0
        db = make_db()
        rows = Executor(db, batch_size=batch_size).execute(shredded(name))
        assert rows == Interpreter(db).eval(MATRIX[name]), name

    def test_batch_equals_nestjoin_oracle(self):
        db = make_db()
        want = Executor(db).execute(MATRIX["figure3-equi"])
        got = Executor(db, batch_size=7).execute(shredded("figure3-equi"))
        assert got == want


class TestParallelParity:
    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_inline_pool_parity(self, name):
        db = make_db()
        catalog = catalog_for(db)
        want = Executor(db, catalog=catalog).execute(MATRIX[name])
        with ParallelExecutor(db, catalog, workers=PARTS, mode="inline") as parallel:
            got = Executor(db, catalog=catalog, parallel=parallel).execute(shredded(name))
        assert got == want, name

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_inline_pool_batched_parity(self, batch_size):
        db = make_db()
        catalog = catalog_for(db)
        want = Executor(db, catalog=catalog).execute(MATRIX["figure3-equi"])
        with ParallelExecutor(db, catalog, workers=PARTS, mode="inline") as parallel:
            got = Executor(
                db, catalog=catalog, parallel=parallel, batch_size=batch_size
            ).execute(shredded("figure3-equi"))
        assert got == want

    def test_inner_flat_join_goes_partition_wise(self):
        """The shredded inner join must be a first-class shard-tier
        citizen: on co-partitioned operands (at a scale where the cost
        model judges parallelism worthwhile) the planner builds an
        Exchange over a PartitionedHashJoin under the StitchNest."""
        from repro.shard import Exchange, PartitionedHashJoin

        db = MemoryDatabase(
            {
                "X": [VTuple(a=i % 7, b=i) for i in range(1200)],
                "Y": [VTuple(d=i % 1200, e=i % 4) for i in range(2400)],
            }
        )
        catalog = catalog_for(db)
        with ParallelExecutor(db, catalog, workers=PARTS, mode="inline") as parallel:
            ex = Executor(db, catalog=catalog, parallel=parallel)
            plan = ex.plan(shredded("figure3-equi"))
            ops = list(plan.operators())
            assert any(isinstance(op, StitchNest) for op in ops)
            assert any(isinstance(op, Exchange) for op in ops)
            assert any(isinstance(op, PartitionedHashJoin) for op in ops)
            got = plan.execute(ex._runtime())
            assert parallel.last_report["fragments"] == PARTS
        assert got == Executor(db, catalog=catalog).execute(MATRIX["figure3-equi"])

    def test_process_pool_parity(self):
        """One forked-pool cell (the inline matrix carries the bulk —
        both paths run the same execute_fragment).  Under CI's
        ``REPRO_FAULT_PLAN=crash-once`` replay this cell loses a worker
        on the first attempt and must still match."""
        db = make_db()
        catalog = catalog_for(db)
        want = Executor(db, catalog=catalog).execute(MATRIX["figure3-equi"])
        with ParallelExecutor(db, catalog, workers=PARTS, mode="process") as parallel:
            got = Executor(
                db, catalog=catalog, parallel=parallel, batch_size=64
            ).execute(shredded("figure3-equi"))
        assert got == want


class TestEpochParity:
    def test_pinned_epoch_shredded_run_is_exact_under_mutation(self):
        """The stitch reads the left source twice; a pinned run must be
        immune to a mutation landing between the two reads."""
        db = make_db()
        catalog = catalog_for(db, partitioned=False)
        expr = shredded("figure3-equi")
        with db.pinned() as e:
            view = EpochView(db, e)
            want = Executor(view, catalog=catalog).execute(MATRIX["figure3-equi"])
            # mutate both operands after pinning: the pinned run must not see it
            db.insert_rows("X", [VTuple(a=99, b=i % 15) for i in range(10)])
            db.insert_rows("Y", [VTuple(d=3, e=99)])
            got = Executor(view, catalog=catalog).execute(expr)
            assert got == want
        # a live run after unpinning sees the new rows
        live = Executor(db, catalog=catalog).execute(expr)
        assert live == Executor(db, catalog=catalog).execute(MATRIX["figure3-equi"])
        assert live != want

    def test_pinned_epoch_parallel_shredded_parity(self):
        db = make_db()
        catalog = catalog_for(db)
        expr = shredded("figure3-equi")
        with db.pinned() as e:
            view = EpochView(db, e)
            want = Executor(view, catalog=catalog).execute(MATRIX["figure3-equi"])
            db.insert_rows("Y", [VTuple(d=k % 20, e=7) for k in range(12)])
            with ParallelExecutor(db, catalog, workers=PARTS, mode="inline") as parallel:
                got = Executor(view, catalog=catalog, parallel=parallel).execute(expr)
            assert got == want
