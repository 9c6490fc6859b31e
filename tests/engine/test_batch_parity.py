"""Batch parity: every operator shape from the streaming parity matrix,
at chunk capacities of 1, non-divisors of the inputs, the default and
one larger than every input, against the frozen tuple-engine record
(``golden.py``) and the reference interpreter.

The chunk capacity must be invisible except in the batch protocol's own
two counters: identical result sets AND identical work counters
(``batches_emitted`` / ``vector_fallbacks`` excluded).  Plus: empty
extents, kernel bails, and a hypothesis property that kernel fallback
triggers *exactly* on uncovered expression forms, against the row-wise
compiled closures (the vectorizer switched off).
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adl import ast as A
from repro.adl import builders as B
from repro.datamodel import VTuple
from repro.datamodel.errors import EvaluationError
from repro.engine import plan as plan_module
from repro.engine.compile import Compiler, vector_covered
from repro.engine.interpreter import Interpreter
from repro.engine.plan import (
    EMPTY_GROUP,
    Batch,
    ExecRuntime,
    Filter,
    HashJoinBase,
    MapOp,
    MembershipHashJoin,
    Scan,
)
from repro.engine.stats import Stats
from repro.storage import MemoryDatabase
from repro.workload.paper_db import example_database

from tests.engine.golden import BATCH_ONLY, assert_matches_reference
from tests.engine.test_streaming_parity import (
    CASES,
    EQ,
    GROUP_CELLS,
    LOGICAL,
    LOGICAL_JOINS,
    PARTS,
    PID,
    TRUE,
    XA,
    YD,
    flat_db,
)

THIS = __name__
OPERATORS = "tests.engine.test_streaming_parity"

#: 1 = every row its own batch; 7 = non-divisor of every input size;
#: 256 = the default; 10_000 = larger than any test input (one batch)
BATCH_SIZES = (1, 7, 256, 10_000)


def _snap(stats: Stats) -> dict:
    snap = stats.snapshot()
    for name in BATCH_ONLY:
        snap.pop(name, None)
    return snap


@mock.patch.object(Compiler, "compile_batch", lambda *args: None)
@mock.patch.object(Compiler, "compile_batch_pred", lambda *args: None)
def _row_wise(plan, db):
    """``(rows, stats)`` of ``plan`` with the vectorizer switched off:
    every batch element runs the row-wise compiled closure, with its
    counters — the oracle a kernel must reproduce."""
    stats = Stats()
    return plan.execute(ExecRuntime(db, stats)), stats


class TestBatchTupleParityMatrix:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_batch_matches_tuple_oracle(self, name, batch_size):
        assert_matches_reference(OPERATORS, name, batch_size)
        factory, db_factory = CASES[name]
        db = db_factory()
        rows = factory().execute(ExecRuntime(db, Stats(), batch_size=batch_size))
        assert rows == Interpreter(db).eval(LOGICAL[name]), name

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_iterate_batches_flattens_to_oracle(self, name, batch_size):
        """The raw batch stream itself (not just execute) is row-equal."""
        factory, db_factory = CASES[name]
        oracle = Interpreter(db_factory()).eval(LOGICAL[name])
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
        got = assert_matches_reference(THIS, f"nested-path/{name}", batch_size)
        stats = got["stats"]
        assert stats["oid_derefs"] == 4  # one per DELIVERY row, at every capacity
        assert "vector_fallbacks" not in stats and stats["batches_emitted"] > 0


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
    #: extents — the record holds on nothing at all too
    FLAT_CASES = sorted(
        name for name, (_, db_factory) in CASES.items() if db_factory is flat_db
    )

    @pytest.mark.parametrize("batch_size", (1, 256))
    @pytest.mark.parametrize("name", FLAT_CASES)
    def test_batch_parity_on_empty_extents(self, name, batch_size):
        assert_matches_reference(THIS, f"empty/{name}", batch_size)
        factory, _ = CASES[name]
        rows = factory().execute(ExecRuntime(empty_db(), Stats(), batch_size=batch_size))
        assert rows == Interpreter(empty_db()).eval(LOGICAL[name]), name


# -- fallback exactness (hypothesis) ----------------------------------------

#: covered forms: every node type in VECTOR_NODE_TYPES, only ``x`` free,
#: well-typed over rows ``(a: int, b: int, s: {int}, t: {int})`` so no
#: runtime bail fires
_set_expr = st.one_of(
    st.sampled_from(["s", "t"]).map(lambda at: A.AttrAccess(A.Var("x"), at)),
    st.frozensets(st.integers(min_value=0, max_value=3), max_size=3).map(A.Literal),
)

_int_expr = st.deferred(
    lambda: st.one_of(
        st.integers(min_value=-5, max_value=5).map(A.Literal),
        st.sampled_from(["a", "b"]).map(lambda at: A.AttrAccess(A.Var("x"), at)),
        st.tuples(st.sampled_from(["+", "-", "*"]), _int_expr, _int_expr).map(
            lambda t: A.Arith(t[0], t[1], t[2])
        ),
        _int_expr.map(A.Neg),
        _set_expr.map(lambda e: A.Aggregate("count", e)),
    )
)

#: the set comparisons whose operands are both sets, and the element ones
_SET_SET_OPS = [op for op in A.SET_COMPARE_OPS if op not in ("in", "notin", "ni", "notni")]

_bool_expr = st.deferred(
    lambda: st.one_of(
        st.tuples(
            st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
            _int_expr,
            _int_expr,
        ).map(lambda t: A.Compare(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(_SET_SET_OPS), _set_expr, _set_expr).map(
            lambda t: A.SetCompare(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(["in", "notin"]), _int_expr, _set_expr).map(
            lambda t: A.SetCompare(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(["ni", "notni"]), _set_expr, _int_expr).map(
            lambda t: A.SetCompare(t[0], t[1], t[2])
        ),
        st.tuples(_bool_expr, _bool_expr).map(lambda t: A.And(t[0], t[1])),
        st.tuples(_bool_expr, _bool_expr).map(lambda t: A.Or(t[0], t[1])),
        _bool_expr.map(A.Not),
    )
)

#: tuple constructors over every covered value kind, one level nested
_field_expr = st.one_of(_int_expr, _bool_expr, _set_expr)
_flat_tuple = st.lists(_field_expr, max_size=3).map(
    lambda es: A.TupleExpr(tuple((f"f{i}", e) for i, e in enumerate(es)))
)
_tuple_expr = st.lists(st.one_of(_field_expr, _flat_tuple), max_size=3).map(
    lambda es: A.TupleExpr(tuple((f"f{i}", e) for i, e in enumerate(es)))
)


def _uncover(pred: A.Expr) -> A.Expr:
    """Wrap a covered predicate in a semantically-transparent uncovered
    form: ``pred and exists(y in {t} : true)`` — ``Exists`` is not a
    vector node type, so coverage is lost while the value is unchanged."""
    exists_true = A.Exists(
        "y", A.Literal(frozenset({VTuple(z=1)})), A.Literal(True)
    )
    return A.And(pred, exists_true)


_small_set = st.frozensets(st.integers(min_value=0, max_value=3), max_size=3)

_ROWS = st.lists(
    st.builds(
        lambda a, b, s, t: VTuple(a=a, b=b, s=s, t=t),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
        _small_set,
        _small_set,
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

        def run(p):
            stats = Stats()
            out = Filter("x", p, Scan("X")).execute(ExecRuntime(db, stats))
            return out, stats

        oracle, oracle_stats = _row_wise(Filter("x", pred, Scan("X")), db)
        assert oracle == Interpreter(db).eval(B.sel("x", pred, B.extent("X")))

        covered_rows, covered_stats = run(pred)
        assert covered_rows == oracle
        assert _snap(covered_stats) == _snap(oracle_stats)
        # covered + well-typed: the kernel never falls back
        assert covered_stats.vector_fallbacks == 0

        uncovered_rows, uncovered_stats = run(_uncover(pred))
        assert uncovered_rows == oracle
        # uncovered: every batch goes through the tuple-wise fallback
        assert uncovered_stats.vector_fallbacks == (1 if rows else 0)

    @given(body=_tuple_expr)
    @settings(max_examples=60, deadline=None)
    def test_tuple_bodies_vectorize_iff_covered(self, body):
        compiler = ExecRuntime(MemoryDatabase({"X": []}), Stats()).compiler
        assert vector_covered(body, "x")
        assert compiler.compile_batch(body, "x") is not None
        uncovered = _uncover_field(body)
        assert not vector_covered(uncovered, "x")
        assert compiler.compile_batch(uncovered, "x") is None

    @given(body=_tuple_expr, rows=_ROWS)
    @settings(max_examples=60, deadline=None)
    def test_tuple_bodies_fall_back_exactly_on_uncovered_forms(self, body, rows):
        """``Map`` over a tuple constructor: a covered body maps every batch
        natively with the row-wise closure's rows and counters; one
        uncovered field makes every batch replay."""
        db = MemoryDatabase({"X": rows})

        def run(b):
            stats = Stats()
            out = MapOp("x", b, Scan("X")).execute(ExecRuntime(db, stats))
            return out, stats

        oracle, oracle_stats = _row_wise(MapOp("x", body, Scan("X")), db)
        assert oracle == Interpreter(db).eval(B.amap("x", body, B.extent("X")))
        covered_rows, covered_stats = run(body)
        assert covered_rows == oracle
        assert _snap(covered_stats) == _snap(oracle_stats)
        assert covered_stats.vector_fallbacks == 0

        uncovered = _uncover_field(body)
        uncovered_rows, uncovered_stats = run(uncovered)
        assert uncovered_rows == Interpreter(db).eval(B.amap("x", uncovered, B.extent("X")))
        assert uncovered_stats.vector_fallbacks == (1 if rows else 0)


def _uncover_field(body: A.TupleExpr) -> A.TupleExpr:
    """``body`` plus one field that is not vector-covered (``sum`` is an
    aggregate other than ``count``)."""
    extra = A.Aggregate("sum", A.AttrAccess(A.Var("x"), "s"))
    return A.TupleExpr(body.fields + (("uncovered", extra),))


def _mentions_attr(expr: A.Expr) -> bool:
    if isinstance(expr, A.AttrAccess):
        return True
    return any(_mentions_attr(child) for child in expr.child_exprs())


class TestRuntimeBailParity:
    def test_mixed_type_batch_falls_back_and_matches_tuple_error(self):
        """A runtime anomaly mid-column re-runs element-wise: the error is
        exactly the tuple engine's, and the fallback is counted."""
        got = assert_matches_reference(THIS, "mixed-type-bail", 256, only=())
        assert got["error"]
        assert got["stats"]["vector_fallbacks"] == 1

    def test_join_key_kernels_cover_and_match(self):
        db = flat_db()
        plan = HashJoinBase("join", "x", "y", XA, YD, EQ, Scan("X"), Scan("Y"))
        oracle = Interpreter(db).eval(LOGICAL_JOINS["join"])
        stats = Stats()
        rows = plan.execute(ExecRuntime(db, stats, batch_size=2))
        assert rows == oracle
        assert stats.vector_fallbacks == 0
        assert stats.batches_emitted > 0


_S, _T = B.attr(B.var("x"), "s"), B.attr(B.var("x"), "t")
SET_KERNEL_PLANS = {
    "subseteq": Filter("x", A.SetCompare("subseteq", _S, _T), Scan("X")),
    "in": Filter("x", A.SetCompare("in", B.lit(1), _S), Scan("X")),
    "ni": Filter("x", A.SetCompare("ni", _S, B.lit(1)), Scan("X")),
    "count": MapOp("x", A.Aggregate("count", _S), Scan("X")),
    "count-in-tuple": MapOp("x", B.tup(n=A.Aggregate("count", _S)), Scan("X")),
}
#: an int makes ``len`` / ``in`` raise on their own; a tuple is a
#: ``Mapping``, so only the kernel's set validation catches it
BAD_OPERANDS = {"int": 3, "tuple": VTuple(z=1)}


class TestSetKernelBails:
    """A non-set operand of a set comparison or of ``count`` bails the
    kernel: the batch replays tuple-wise and raises the tuple engine's
    error after the tuple engine's comparisons and predicate evaluations."""

    @staticmethod
    def _db(bad):
        return lambda: MemoryDatabase(
            {
                "X": [
                    VTuple(a=1, s=frozenset({1}), t=frozenset({1, 2})),
                    VTuple(a=2, s=frozenset({2}), t=frozenset({1, 2})),
                    VTuple(a=3, s=bad, t=frozenset({3})),
                ]
            }
        )

    @pytest.mark.parametrize("plan", list(SET_KERNEL_PLANS), ids=list(SET_KERNEL_PLANS))
    @pytest.mark.parametrize("bad", list(BAD_OPERANDS), ids=list(BAD_OPERANDS))
    def test_non_set_operand_replays_with_the_tuple_error(self, plan, bad):
        got = assert_matches_reference(
            THIS, f"set-kernel-bail/{plan}-{bad}", 256,
            only=("comparisons", "predicate_evals"),
        )
        assert got["error"].startswith("EvaluationError: ")
        assert got["stats"]["vector_fallbacks"] == 1


class TestSharedNestjoinGroups:
    """The hash nestjoin builds one group per key when neither its
    residual nor its result mentions the left variable; every row that
    probes the key carries that one frozen object, at every capacity."""

    @staticmethod
    def _rows(name, batch_size):
        factory, db_factory = CASES[name]
        return factory().execute(ExecRuntime(db_factory(), Stats(), batch_size=batch_size))

    @pytest.mark.parametrize("batch_size", (1, 7, 256))
    @pytest.mark.parametrize("suffix", sorted(s for s in GROUP_CELLS if s.startswith("shared")))
    def test_rows_with_one_key_share_one_group(self, suffix, batch_size):
        rows = self._rows(f"HashJoinBase-nestjoin-{suffix}", batch_size)
        multikey = suffix == "shared-multikey"
        by_key = {}
        for row in rows:
            key = (row["a"], row["b"]) if multikey else row["a"]
            by_key.setdefault(key, []).append(row["grp"])
        for key, groups in by_key.items():
            assert all(g is groups[0] for g in groups), key
            if not groups[0]:
                assert groups[0] is EMPTY_GROUP, key
        # a=7 and a=8 dangle: both carry the one empty group
        dangling = [row["grp"] for row in rows if row["a"] in (7, 8)]
        assert len(dangling) == 2 and all(g is EMPTY_GROUP for g in dangling)

    @pytest.mark.parametrize("batch_size", (1, 7, 256))
    def test_a_result_compare_counts_once_per_probed_build_row(self, batch_size):
        """``y.e > 2`` runs once per right row of a probed key (keys 1 and 3:
        five rows), not once per matching pair (3*3 + 2*2 = 13)."""
        factory, db_factory = CASES["HashJoinBase-nestjoin-shared-compare"]
        stats = Stats()
        factory().execute(ExecRuntime(db_factory(), stats, batch_size=batch_size))
        assert stats.comparisons == 5

    @pytest.mark.parametrize("batch_size", (1, 7, 256))
    @pytest.mark.parametrize("suffix", ["per-row-result", "per-row-residual"])
    def test_groups_that_mention_x_are_built_per_row(self, suffix, batch_size):
        """A result or residual over ``x`` depends on the left row: equal
        keys may carry different groups, and they do here."""
        rows = self._rows(f"HashJoinBase-nestjoin-{suffix}", batch_size)
        key_one = {row["grp"] for row in rows if row["a"] == 1}
        assert len(key_one) == 3


#: ``S`` rows whose ``parts`` sets meet ``P.pid`` (s=1), miss it (s=2), are
#: empty (s=3), or are not sets at all (s=4, only in the bad fixture)
def _membership_db(bad=False, empty_right=False):
    rows = [
        VTuple(s=1, parts=frozenset({10, 30})),
        VTuple(s=2, parts=frozenset({40})),
        VTuple(s=3, parts=frozenset()),
    ]
    if bad:
        rows.append(VTuple(s=4, parts=10))
    pids = [] if empty_right else [VTuple(pid=10), VTuple(pid=20), VTuple(pid=30)]
    return MemoryDatabase({"S": rows, "P": pids})


def _membership_nestjoin():
    return MembershipHashJoin(
        "nestjoin", "s", "p", PID, PARTS, "left-set", TRUE, Scan("S"), Scan("P"),
        as_attr="grp", result=B.var("p"),
    )


class TestMembershipBatchProbe:
    """The left-set semijoin / antijoin with a trivial residual (Example 5)
    asks only whether each row's set meets the build keys, with the tuple
    engine's rows and counters."""

    @staticmethod
    def _plan(kind):
        return MembershipHashJoin(
            kind, "s", "p", PID, PARTS, "left-set", TRUE, Scan("S"), Scan("P")
        )

    @pytest.mark.parametrize("batch_size", (1, 2, 256))
    @pytest.mark.parametrize("empty_right", (False, True))
    @pytest.mark.parametrize("kind", ["semijoin", "antijoin"])
    def test_rows_and_stats_match_the_tuple_loop(self, kind, empty_right, batch_size, monkeypatch):
        right = "empty-right" if empty_right else "right"
        assert_matches_reference(THIS, f"membership/{kind}-{right}", batch_size)
        # the run must take the ``isdisjoint`` probe: the candidate probe
        # checks every container with ``_set_members``
        monkeypatch.setattr(plan_module, "_set_members", None)
        stats = Stats()
        rows = self._plan(kind).execute(
            ExecRuntime(_membership_db(empty_right=empty_right), stats, batch_size=batch_size)
        )
        assert stats.vector_fallbacks == 0
        meets = set() if empty_right else {1}
        expected = meets if kind == "semijoin" else {1, 2, 3} - meets
        assert {row["s"] for row in rows} == expected

    @pytest.mark.parametrize("batch_size", (1, 256))
    @pytest.mark.parametrize("kind", ["semijoin", "antijoin"])
    def test_a_non_set_container_raises_the_tuple_error(self, kind, batch_size):
        got = assert_matches_reference(THIS, f"membership/{kind}-bad", batch_size)
        assert got["error"] == "EvaluationError: membership join container is not a set"
        with pytest.raises(EvaluationError):
            self._plan(kind).execute(
                ExecRuntime(_membership_db(bad=True), Stats(), batch_size=batch_size)
            )

    def test_other_kinds_and_orientations_keep_the_default_path(self):
        """Only the left-set semi/antijoin with a trivial residual asks
        ``isdisjoint``: a nestjoin probes for candidates."""
        assert_matches_reference(THIS, "membership/nestjoin", 256)


def _executes(plan_factory, db_factory):
    return lambda stats, size: plan_factory().execute(
        ExecRuntime(db_factory(), stats, batch_size=size)
    )


def reference_cells():
    """This module's recorded cells (see ``tests/engine/golden.py``): the
    flat cases on empty extents, the reference-path kernels, the kernel
    bails and the membership probe."""
    cells = {
        f"empty/{name}": _executes(CASES[name][0], empty_db)
        for name in TestEmptyExtents.FLAT_CASES
    }
    for name, factory in NESTED_PATH_CASES.items():
        cells[f"nested-path/{name}"] = _executes(factory, example_database)
    cells["mixed-type-bail"] = _executes(
        lambda: Filter("x", B.lt(B.attr(B.var("x"), "a"), B.lit(5)), Scan("X")),
        lambda: MemoryDatabase({"X": [VTuple(a=1), VTuple(a="zzz")]}),
    )
    for plan_id, plan in SET_KERNEL_PLANS.items():
        for bad_id, bad in BAD_OPERANDS.items():
            cells[f"set-kernel-bail/{plan_id}-{bad_id}"] = _executes(
                lambda plan=plan: plan, TestSetKernelBails._db(bad)
            )
    for kind in ("semijoin", "antijoin"):
        for right, db_kwargs in (
            ("right", {}), ("empty-right", {"empty_right": True}), ("bad", {"bad": True})
        ):
            cells[f"membership/{kind}-{right}"] = _executes(
                lambda kind=kind: TestMembershipBatchProbe._plan(kind),
                lambda db_kwargs=db_kwargs: _membership_db(**db_kwargs),
            )
    cells["membership/nestjoin"] = _executes(_membership_nestjoin, _membership_db)
    return cells
