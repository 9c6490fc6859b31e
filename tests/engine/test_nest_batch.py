"""Native batch grouping for ``Nest`` (PR 9, satellite of query
shredding): the bulk key-kernel group build must be invisible next to
the tuple engine — identical rows, identical work counters — while
actually running the PR-8 kernels (no fallback counts on uniform
input), and must stay exact on heterogeneous row shapes.
"""

import pytest

from repro.adl import builders as B
from repro.datamodel import VTuple
from repro.engine.interpreter import Interpreter
from repro.engine.plan import ExecRuntime, NestOp, Scan
from repro.engine.stats import Stats
from repro.storage import MemoryDatabase

BATCH_ONLY = ("batches_emitted", "vector_fallbacks")
BATCH_SIZES = (1, 7, 256)


def _snap(stats):
    snap = stats.snapshot()
    for k in BATCH_ONLY:
        snap.pop(k, None)
    return snap


def uniform_db(n=40):
    return MemoryDatabase(
        {"R": [VTuple(g=i % 5, h=i % 3, v=i % 7) for i in range(n)]}
    )


def hetero_db():
    # mixed shapes: some rows carry an extra attribute, one lacks "h" —
    # their group keys must stay distinct from every uniform key
    rows = [VTuple(g=i % 3, h=0, v=i) for i in range(12)]
    rows += [VTuple(g=1, h=0, v=100, extra=7)]
    rows += [VTuple(g=2, v=200)]
    return MemoryDatabase({"R": rows})


def nest():
    return NestOp(("v",), "vs", Scan("R"))


class TestNestBatchParity:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("db_factory", [uniform_db, hetero_db], ids=["uniform", "hetero"])
    def test_rows_and_counters_match_tuple_mode(self, db_factory, batch_size):
        oracle_stats = Stats()
        want = nest().execute(ExecRuntime(db_factory(), oracle_stats))
        stats = Stats()
        got = nest().execute(
            ExecRuntime(db_factory(), stats, batch_size=batch_size)
        )
        assert got == want
        assert _snap(stats) == _snap(oracle_stats)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("db_factory", [uniform_db, hetero_db], ids=["uniform", "hetero"])
    def test_rows_match_interpreter(self, db_factory, batch_size):
        db = db_factory()
        want = Interpreter(db).eval(B.nest(B.extent("R"), ("v",), "vs"))
        assert nest().execute(ExecRuntime(db, Stats(), batch_size=batch_size)) == want

    def test_empty_input(self):
        db = MemoryDatabase({"R": []})
        assert nest().execute(ExecRuntime(db, Stats(), batch_size=7)) == frozenset()


class TestNestBatchKernels:
    def test_uniform_input_runs_kernels_without_fallback(self):
        stats = Stats()
        nest().execute(ExecRuntime(uniform_db(), stats, batch_size=7))
        assert stats.vector_fallbacks == 0
        assert stats.batches_emitted > 0

    def test_group_sets_are_subscripted_tuples(self):
        rows = nest().execute(ExecRuntime(uniform_db(8), Stats(), batch_size=3))
        for row in rows:
            assert set(row.attributes) == {"g", "h", "vs"}
            for member in row["vs"]:
                assert set(member.attributes) == {"v"}

    def test_output_chunked_by_batch_size(self):
        rt = ExecRuntime(uniform_db(40), Stats(), batch_size=4)
        sizes = [len(b) for b in nest().iterate_batches(rt)]
        assert sum(sizes) == 15  # 5 x 3 distinct (g, h) keys
        assert all(s <= 4 for s in sizes)
