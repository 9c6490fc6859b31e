"""Batch/tuple parity (PR 8): every operator shape from the streaming
parity matrix re-run in batch mode against the tuple-mode oracle.

Batch mode must be invisible except for its own two counters: identical
result sets AND identical work counters (``batches_emitted`` /
``vector_fallbacks`` excluded — those exist only in batch mode), for
batch sizes of 1, a non-divisor of the input, the default, and one
larger than every input.  Plus: empty extents, and a hypothesis property
that kernel fallback triggers *exactly* on uncovered expression forms.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adl import ast as A
from repro.adl import builders as B
from repro.datamodel import VTuple
from repro.engine.compile import vector_covered
from repro.engine.plan import Batch, ExecRuntime, Filter, HashJoinBase, MapOp, Scan
from repro.engine.stats import Stats
from repro.storage import MemoryDatabase
from repro.workload.paper_db import example_database

from tests.engine.test_streaming_parity import CASES, EQ, TRUE, XA, YD, flat_db

#: counters that only batch mode moves — everything else must match
BATCH_ONLY = ("batches_emitted", "vector_fallbacks")

#: 1 = every row its own batch; 7 = non-divisor of every input size;
#: 256 = the default; 10_000 = larger than any test input (one batch)
BATCH_SIZES = (1, 7, 256, 10_000)


def _snap(stats: Stats) -> dict:
    snap = stats.snapshot()
    for name in BATCH_ONLY:
        snap.pop(name, None)
    return snap


class TestBatchTupleParityMatrix:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_batch_matches_tuple_oracle(self, name, batch_size):
        factory, db_factory = CASES[name]
        oracle_stats = Stats()
        oracle = factory().execute(ExecRuntime(db_factory(), oracle_stats))
        stats = Stats()
        rows = factory().execute(
            ExecRuntime(db_factory(), stats, batch_size=batch_size)
        )
        assert rows == oracle, name
        assert _snap(stats) == _snap(oracle_stats), name

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_iterate_batches_flattens_to_oracle(self, name, batch_size):
        """The raw batch stream itself (not just execute) is row-equal."""
        factory, db_factory = CASES[name]
        oracle = factory().execute(ExecRuntime(db_factory(), Stats()))
        rt = ExecRuntime(db_factory(), Stats(), batch_size=batch_size)
        out = []
        for batch in factory().iterate_batches(rt):
            assert isinstance(batch, Batch)
            assert len(batch) >= 1, "empty batches must not be emitted"
            assert len(batch.rows) == len(batch)
            out.extend(batch.rows)
        assert frozenset(out) == oracle, name

    def test_batches_emitted_counted(self):
        db = flat_db()
        stats = Stats()
        Filter("x", TRUE, Scan("X")).execute(
            ExecRuntime(db, stats, batch_size=1)
        )
        assert stats.batches_emitted >= 3  # 3 X rows, one per batch


#: a reference path ``d.supplier.sname``: the batch kernel dereferences
#: the oid per row (``Compiler._vc_attr``'s deref closure)
_SUPPLIER_NAME = B.attr(B.attr(B.var("d"), "supplier"), "sname")

NESTED_PATH_CASES = {
    "filter": lambda: Filter(
        "d", B.eq(_SUPPLIER_NAME, B.lit("s1")), Scan("DELIVERY")
    ),
    "map": lambda: MapOp("d", _SUPPLIER_NAME, Scan("DELIVERY")),
}


class TestNestedPathKernel:
    @pytest.mark.parametrize("batch_size", (1, 3, 256))
    @pytest.mark.parametrize("name", sorted(NESTED_PATH_CASES))
    def test_deref_kernel_matches_tuple_mode(self, name, batch_size):
        factory = NESTED_PATH_CASES[name]
        oracle_stats = Stats()
        oracle = factory().execute(ExecRuntime(example_database(), oracle_stats))
        stats = Stats()
        rows = factory().execute(
            ExecRuntime(example_database(), stats, batch_size=batch_size)
        )
        assert rows == oracle
        assert _snap(stats) == _snap(oracle_stats)
        assert stats.oid_derefs == 4  # one per DELIVERY row, in every mode
        assert stats.vector_fallbacks == 0 and stats.batches_emitted > 0


def empty_db():
    """Every extent the parity plans reference, all empty."""
    return MemoryDatabase(
        {
            name: []
            for name in (
                "X",
                "Y",
                "Y2",
                "NESTED",
                "SETS",
                "DIV",
                "DIVISOR",
                "S",
                "P",
            )
        }
    )


class TestEmptyExtents:
    #: every parity case built over the flat database, re-run on empty
    #: extents — batch mode must agree with tuple mode on nothing at all
    FLAT_CASES = sorted(
        name for name, (_, db_factory) in CASES.items() if db_factory is flat_db
    )

    @pytest.mark.parametrize("batch_size", (1, 256))
    @pytest.mark.parametrize("name", FLAT_CASES)
    def test_batch_parity_on_empty_extents(self, name, batch_size):
        factory, _ = CASES[name]
        oracle_stats = Stats()
        oracle = factory().execute(ExecRuntime(empty_db(), oracle_stats))
        stats = Stats()
        rows = factory().execute(
            ExecRuntime(empty_db(), stats, batch_size=batch_size)
        )
        assert rows == oracle, name
        assert _snap(stats) == _snap(oracle_stats), name


# -- fallback exactness (hypothesis) ----------------------------------------

#: covered forms: every node type in VECTOR_NODE_TYPES, only ``x`` free,
#: well-typed over rows ``(a: int, b: int)`` so no runtime bail fires
_int_expr = st.deferred(
    lambda: st.one_of(
        st.integers(min_value=-5, max_value=5).map(A.Literal),
        st.sampled_from(["a", "b"]).map(lambda at: A.AttrAccess(A.Var("x"), at)),
        st.tuples(st.sampled_from(["+", "-", "*"]), _int_expr, _int_expr).map(
            lambda t: A.Arith(t[0], t[1], t[2])
        ),
        _int_expr.map(A.Neg),
    )
)

_bool_expr = st.deferred(
    lambda: st.one_of(
        st.tuples(
            st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
            _int_expr,
            _int_expr,
        ).map(lambda t: A.Compare(t[0], t[1], t[2])),
        st.tuples(_bool_expr, _bool_expr).map(lambda t: A.And(t[0], t[1])),
        st.tuples(_bool_expr, _bool_expr).map(lambda t: A.Or(t[0], t[1])),
        _bool_expr.map(A.Not),
    )
)


def _uncover(pred: A.Expr) -> A.Expr:
    """Wrap a covered predicate in a semantically-transparent uncovered
    form: ``pred and exists(y in {t} : true)`` — ``Exists`` is not a
    vector node type, so coverage is lost while the value is unchanged."""
    exists_true = A.Exists(
        "y", A.Literal(frozenset({VTuple(z=1)})), A.Literal(True)
    )
    return A.And(pred, exists_true)


_ROWS = st.lists(
    st.builds(
        lambda a, b: VTuple(a=a, b=b),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
    ),
    min_size=0,
    max_size=12,
    unique=True,
)


class TestFallbackExactness:
    @given(pred=_bool_expr)
    @settings(max_examples=60, deadline=None)
    def test_compile_batch_vectorizes_iff_covered(self, pred):
        """compile_batch returns a kernel exactly on vector_covered forms."""
        compiler = ExecRuntime(MemoryDatabase({"X": []}), Stats()).compiler
        assert vector_covered(pred, "x")
        assert compiler.compile_batch(pred, "x") is not None
        uncovered = _uncover(pred)
        assert not vector_covered(uncovered, "x")
        assert compiler.compile_batch(uncovered, "x") is None
        # referencing a variable other than the batch binder also uncovers
        assert not vector_covered(pred, "notx") or not _mentions_attr(pred)

    @given(pred=_bool_expr, rows=_ROWS)
    @settings(max_examples=60, deadline=None)
    def test_fallback_triggers_exactly_on_uncovered_forms(self, pred, rows):
        db = MemoryDatabase({"X": rows})

        def run(p, batch_size):
            stats = Stats()
            out = Filter("x", p, Scan("X")).execute(
                ExecRuntime(db, stats, batch_size=batch_size)
            )
            return out, stats

        oracle = Filter("x", pred, Scan("X")).execute(ExecRuntime(db, Stats()))

        covered_rows, covered_stats = run(pred, 256)
        assert covered_rows == oracle
        # covered + well-typed: the kernel never falls back
        assert covered_stats.vector_fallbacks == 0

        uncovered_rows, uncovered_stats = run(_uncover(pred), 256)
        assert uncovered_rows == oracle
        # uncovered: every batch goes through the tuple-wise fallback
        assert uncovered_stats.vector_fallbacks == (1 if rows else 0)


def _mentions_attr(expr: A.Expr) -> bool:
    if isinstance(expr, A.AttrAccess):
        return True
    for field in ("left", "right", "operand", "base"):
        child = getattr(expr, field, None)
        if child is not None and _mentions_attr(child):
            return True
    return False


class TestRuntimeBailParity:
    def test_mixed_type_batch_falls_back_and_matches_tuple_error(self):
        """A runtime anomaly mid-column re-runs element-wise: the error is
        exactly the tuple engine's, and the fallback is counted."""
        db = MemoryDatabase({"X": [VTuple(a=1), VTuple(a="zzz")]})
        pred = B.lt(B.attr(B.var("x"), "a"), B.lit(5))
        plan = Filter("x", pred, Scan("X"))

        tuple_err = batch_err = None
        try:
            plan.execute(ExecRuntime(db, Stats()))
        except Exception as exc:  # noqa: BLE001 - parity check
            tuple_err = (type(exc), str(exc))
        stats = Stats()
        try:
            plan.execute(ExecRuntime(db, stats, batch_size=256))
        except Exception as exc:  # noqa: BLE001 - parity check
            batch_err = (type(exc), str(exc))
        assert tuple_err is not None
        assert batch_err == tuple_err
        assert stats.vector_fallbacks == 1

    def test_join_key_kernels_cover_and_match(self):
        db = flat_db()
        plan = HashJoinBase("join", "x", "y", XA, YD, EQ, Scan("X"), Scan("Y"))
        oracle = plan.execute(ExecRuntime(flat_db(), Stats()))
        stats = Stats()
        rows = plan.execute(ExecRuntime(db, stats, batch_size=2))
        assert rows == oracle
        assert stats.vector_fallbacks == 0
        assert stats.batches_emitted > 0
