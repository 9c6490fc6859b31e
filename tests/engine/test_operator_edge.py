"""One protocol, one edge: every operator implements one loop, a row
loop over a batch-native child pulls that child's batches (and kernels)
through the flattened edge, the deadline is polled there per batch, and
the chunk capacity is a validated positive int.
"""

import signal
import time

import pytest

from repro.adl import builders as B
from repro.datamodel import VTuple
from repro.datamodel.errors import PlanError, QueryTimeoutError
from repro.engine import plan as P
from repro.engine.compile import Compiler
from repro.engine.interpreter import Interpreter
from repro.engine.plan import (
    ExecRuntime,
    Filter,
    FlattenOp,
    MapOp,
    NestedLoopJoin,
    PlanNode,
    Scan,
    SetOp,
    UnnestOp,
)
from repro.engine.planner import Executor
from repro.engine.stats import Stats
from repro.obs import TraceRecorder
from repro.storage import MemoryDatabase
from repro.storage.store import Database

from tests.engine.golden import SIZES, assert_matches_reference
from tests.engine.test_streaming_parity import paged_db

X, Y = B.var("x"), B.var("y")
XA = B.attr(X, "a")
A_LT_3 = B.lt(XA, 3)
A_GE_2 = B.ge(XA, 2)


def edge_db(dangling=False):
    """``X`` carries a set-valued ``ms`` for the flatten and unnest shapes;
    ``Y`` joins ``X`` on ``a = d``.  ``dangling``: every set is empty and
    no ``Y`` row joins, so those shapes emit nothing."""
    def ms(i):
        return frozenset() if dangling else frozenset({VTuple(m=i), VTuple(m=-i - 1)})

    return MemoryDatabase(
        {
            "X": [VTuple(a=i % 5, v=i, ms=ms(i)) for i in range(100)],
            "Y": [VTuple(d=99 if dangling else i % 5, e=i) for i in range(10)],
        }
    )


#: name -> (plan factory, the batch-native child to watch, logical form):
#: an operator over a batch-native child — the row loops of flatten, unnest
#: and union, and the nested-loop join, whose deadline poll is its own
SHAPES = {
    "flatten-map": (
        lambda: FlattenOp(MapOp("x", B.attr(X, "ms"), Scan("X"))),
        lambda plan: plan.child,
        B.flatten(B.amap("x", B.attr(X, "ms"), B.extent("X"))),
    ),
    "unnest-filter": (
        lambda: UnnestOp("ms", Filter("x", A_LT_3, Scan("X"))),
        lambda plan: plan.child,
        B.unnest(B.sel("x", A_LT_3, B.extent("X")), "ms"),
    ),
    "nested-loop-filter-outer": (
        lambda: NestedLoopJoin(
            "join", "x", "y", B.eq(XA, B.attr(Y, "d")),
            Filter("x", A_LT_3, Scan("X")), Scan("Y"),
        ),
        lambda plan: plan.left,
        B.join(B.sel("x", A_LT_3, B.extent("X")), B.extent("Y"), "x", "y", B.eq(XA, B.attr(Y, "d"))),
    ),
    "union": (
        lambda: SetOp("union", Filter("x", A_LT_3, Scan("X")), Filter("x", A_GE_2, Scan("X"))),
        lambda plan: plan.left,
        B.union(B.sel("x", A_LT_3, B.extent("X")), B.sel("x", A_GE_2, B.extent("X"))),
    ),
}


def reference_cells():
    """The four shapes, executed — the recorded cells (see ``golden.py``)."""
    return {
        name: lambda stats, size, factory=factory: factory().execute(
            ExecRuntime(edge_db(), stats, batch_size=size)
        )
        for name, (factory, _, _) in SHAPES.items()
    }


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestOneLoop:
    def test_no_operator_defines_both_loops(self):
        import repro.engine.nestjoin_impls  # noqa: F401 - registers subclasses
        import repro.shard.nodes  # noqa: F401
        import repro.shred.stitch  # noqa: F401

        both = [
            cls.__name__
            for cls in _subclasses(PlanNode)
            if {"iterate", "iterate_batches"} <= set(vars(cls))
        ]
        assert both == []

    def test_the_join_family_has_one_loop(self):
        """Every join strategy is an ``_open``: the kinds' emission lives
        in ``_JoinNode.iterate_batches`` alone."""
        import repro.shard.nodes  # noqa: F401 - registers subclasses
        import repro.shred.stitch  # noqa: F401

        loops = [
            cls.__name__
            for cls in _subclasses(P._JoinNode)
            if {"iterate", "iterate_batches"} & set(vars(cls))
        ]
        assert loops == []
        assert "iterate_batches" in vars(P._JoinNode)
        assert "iterate" not in vars(P._JoinNode)

    def test_the_row_stream_is_the_batch_edge_flattened(self):
        rt = ExecRuntime(edge_db(), Stats())
        assert type(Scan("X").stream(rt)).__name__ == "chain"


class TestRowLoopOverBatchNativeChild:
    """A tuple-native operator pulls its batch-native child's batches: the
    child's kernel runs, with the tuple engine's rows and counters."""

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_rows_and_counters_match_the_record(self, name, size):
        got = assert_matches_reference(__name__, name, size)
        assert got["stats"]["batches_emitted"] > 0
        factory, _, logical = SHAPES[name]
        db = edge_db()
        rows = factory().execute(ExecRuntime(db, Stats(), batch_size=size))
        assert rows == Interpreter(db).eval(logical)

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_the_child_runs_its_kernel(self, name, monkeypatch):
        kernels = []
        for method in ("compile_batch", "compile_batch_pred"):
            real = getattr(Compiler, method)

            def spy(self, expr, var, real=real):
                kernels.append(expr)
                return real(self, expr, var)

            monkeypatch.setattr(Compiler, method, spy)
        factory, child_of, _ = SHAPES[name]
        plan = factory()
        child = child_of(plan)
        recorder = TraceRecorder()
        stats = Stats()
        plan.execute(ExecRuntime(edge_db(), stats, batch_size=7, trace=recorder))
        expr = child.body if isinstance(child, MapOp) else child.pred
        assert expr in kernels
        assert stats.vector_fallbacks == 0
        rec = recorder.records[id(child)]
        assert rec.batches_out > 0 and rec.rows_out > 0


class _ExpiringDatabase:
    """``X`` streams from a generator that moves the runtime's deadline into
    the past after ``expire_after`` rows and counts every row pulled from
    there on — the overshoot."""

    def __init__(self, expire_after):
        self._db = edge_db(dangling=True)
        self.expire_after = expire_after
        self.rt = None
        self.overshoot = 0

    def extent(self, name):
        rows = self._db.extent(name)
        return self._expiring(rows) if name == "X" else rows

    scan = extent

    def _expiring(self, rows):
        for n, row in enumerate(rows):
            if n == self.expire_after:
                self.rt.deadline = time.monotonic() - 1
            if n >= self.expire_after:
                self.overshoot += 1
            yield row


class TestDeadlineAtTheFlattenedEdge:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_the_child_edge_stops_within_one_batch(self, name):
        """The deadline passes mid-scan: the edge below the row loop raises
        before its next batch, so at most one batch (4 rows) is pulled
        past the deadline — also where the row loop itself emits nothing
        (empty sets, no join partner, so its own edge never polls
        again)."""
        db = _ExpiringDatabase(expire_after=10)
        db.rt = ExecRuntime(db, Stats(), deadline=time.monotonic() + 60, batch_size=4)
        with pytest.raises(QueryTimeoutError):
            SHAPES[name][0]().execute(db.rt)
        assert 0 < db.overshoot <= 4


@pytest.fixture
def no_hang():
    """Turn a run that never returns into a failure after 10 s."""

    def expire(signum, frame):
        raise TimeoutError("the run did not return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestChunkCapacity:
    STORES = {
        "memory": (lambda: edge_db(), "X"),
        "paged": (paged_db, "PART"),
    }

    @pytest.mark.parametrize("store", sorted(STORES))
    @pytest.mark.parametrize("size", [0, -1])
    def test_a_non_positive_capacity_is_a_plan_error(self, size, store, no_hang):
        db_factory, extent = self.STORES[store]
        db = db_factory()
        assert isinstance(db, MemoryDatabase if store == "memory" else Database)
        with pytest.raises(PlanError, match="batch_size"):
            ExecRuntime(db, Stats(), batch_size=size)
        with pytest.raises(PlanError, match="batch_size"):
            Executor(db, batch_size=size).execute(B.sel("x", True, B.extent(extent)))

    @pytest.mark.parametrize("size", [2.5, "8", True])
    def test_only_an_int_is_a_capacity(self, size):
        with pytest.raises(PlanError):
            ExecRuntime(edge_db(), Stats(), batch_size=size)

    def test_none_is_the_default_capacity(self):
        assert ExecRuntime(edge_db(), Stats()).batch_size == P.DEFAULT_BATCH_SIZE

    @pytest.mark.parametrize("size", [1, 4, 256])
    @pytest.mark.parametrize("kind", ["join", "outerjoin"])
    def test_a_join_cuts_its_output_to_the_capacity(self, kind, size):
        """8 x 8 rows over two key values: each left row finds four
        partners, so a streamed chunk yields four times its size — and
        the join still emits chunks of at most the capacity."""
        db = MemoryDatabase(
            {
                "L": [VTuple(a=i % 2, i=i) for i in range(8)],
                "R": [VTuple(b=i % 2, j=i) for i in range(8)],
            }
        )
        pred = B.eq(XA, B.attr(Y, "b"))
        expr = (
            B.join(B.extent("L"), B.extent("R"), "x", "y", pred)
            if kind == "join"
            else B.outerjoin(B.extent("L"), B.extent("R"), "x", "y", pred, ("b", "j"))
        )
        plan = Executor(db).plan(expr)
        assert isinstance(plan, P.HashJoinBase)
        batches = list(plan.stream_batches(ExecRuntime(db, Stats(), batch_size=size)))
        full = min(size, 32)
        assert [len(b) for b in batches] == [full] * (32 // full)
        rows = frozenset(row for b in batches for row in b.rows)
        assert rows == Interpreter(db).eval(expr)
