"""The emitting join: a flat two-variable from-clause select,
``⊔(α[z : z.ys](L ⊣⟨x,y : p ; f ; ys⟩ R))`` after rewriting, is planned
and priced as ONE plain join that emits ``f(x, y)`` per matching pair —
no nestjoin group, no map, no flatten.

Covers the golden plan shapes, the physical-variant × chunk-capacity
parity matrix against the interpreter on the *unrewritten* translation
and the frozen tuple-engine counters (``golden.py``), a
hypothesis property over random select/where clauses, and the shapes
that must decline the fusion and still answer correctly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adl import ast as A
from repro.adl import builders as B
from repro.datamodel import Catalog as TypeCatalog, INT, SetType, TupleType, VTuple
from repro.datamodel.schema import Schema
from repro.engine import plan as P
from repro.engine.cost import CostModel, flat_join
from repro.engine.interpreter import Interpreter
from repro.engine.plan import ExecRuntime, Scan
from repro.engine.planner import Executor, Planner
from repro.engine.stats import Stats
from repro.rewrite.strategy import Optimizer
from repro.service import QueryService
from repro.storage import Catalog, MemoryDatabase
from repro.storage.store import Database
from repro.translate import compile_oosql

from tests.engine.golden import assert_matches_reference

TYPES = TypeCatalog(
    {
        "X": SetType(TupleType({"a": INT, "b": INT})),
        "Y": SetType(TupleType({"d": INT, "e": INT})),
    }
)

SELECT = "select (v = x.b, w = y.e) from x in X, y in Y where x.a = y.d"
WIDE = SELECT + " and y.e * 2 + 1 > $k"
LOW = SELECT + " and y.e < $k"

TRUE = A.Literal(True)
XA = B.attr(B.var("x"), "a")
YD = B.attr(B.var("y"), "d")
EMIT = B.tup(v=B.attr(B.var("x"), "b"), w=B.attr(B.var("y"), "e"))
RESIDUAL = B.gt(B.attr(B.var("y"), "e"), B.attr(B.var("x"), "b"))


def xy_rows(nx, ny, domain):
    xs = [{"a": i % domain, "b": i} for i in range(nx)]
    ys = [{"d": j % domain, "e": j} for j in range(ny)]
    return xs, ys


def flat_store(nx=300, ny=120, domain=30):
    xs, ys = xy_rows(nx, ny, domain)
    db = MemoryDatabase({"X": [VTuple(r) for r in xs], "Y": [VTuple(r) for r in ys]})
    catalog = Catalog(db)
    catalog.analyze()
    return db, TYPES, catalog


def class_store(nx=300, ny=120, domain=30):
    """``Schema.add_class`` extents: every row carries an ``oid`` field, so
    ``x ∘ y`` would clash — the emitting join never concatenates."""
    schema = Schema()
    schema.add_class("X", "X", {"a": INT, "b": INT})
    schema.add_class("Y", "Y", {"d": INT, "e": INT})
    db = Database(schema.freeze(), page_size=512)
    xs, ys = xy_rows(nx, ny, domain)
    for name, rows in (("X", xs), ("Y", ys)):
        for row in rows:
            db.insert(name, row)
    catalog = Catalog(db)
    catalog.analyze()
    return db, db.schema, catalog


def oracle(db, types, text, params=None):
    """The interpreter on the unrewritten translation."""
    return Interpreter(db, Stats(), params or {}).eval(compile_oosql(text, types))


# ---------------------------------------------------------------------------
# (a) golden plans
# ---------------------------------------------------------------------------


class TestGoldenPlans:
    @pytest.mark.parametrize("store", (flat_store, class_store))
    @pytest.mark.parametrize("text", (WIDE, LOW))
    def test_one_hash_join_no_nest_map_flatten(self, store, text):
        db, types, catalog = store()
        with QueryService(db, types, catalog, snapshot_isolation=False) as svc:
            plan = svc.explain(text)
            lines = plan.splitlines()
            assert lines[0].startswith(
                "HashJoin(join) [x.a = y.d ; emits (v = x.b, w = y.e)] <builds right>"
            ), plan
            assert "(rows≈" in lines[0] and "cost≈" in lines[0]
            for absent in ("Flatten", "Map", "nestjoin"):
                assert absent not in plan, plan
            assert lines[1].lstrip().startswith("Scan [X]")
            assert lines[2].lstrip().startswith("Filter [y:")
            for k in (1, 50):
                got = svc.execute(text, {"k": k}).rows
                assert got == oracle(db, types, text, {"k": k})

    def test_tiny_left_side_flips_the_build(self):
        db, types, catalog = flat_store(nx=6, ny=400, domain=40)
        with QueryService(db, types, catalog, snapshot_isolation=False) as svc:
            plan = svc.explain(SELECT)
            assert plan.startswith("HashJoin(join)") and "<builds left>" in plan, plan
            assert svc.execute(SELECT).rows == oracle(db, types, SELECT)

    def test_index_on_the_big_side_wins(self):
        db, types, catalog = flat_store(nx=6, ny=400, domain=40)
        catalog.create_index("Y", "d")
        with QueryService(db, types, catalog, snapshot_isolation=False) as svc:
            plan = svc.explain(SELECT)
            assert plan.startswith(
                "IndexNLJoin(join) [x.a -> Y.d via idx_Y_d ; emits (v = x.b, w = y.e)]"
            ), plan
            assert svc.execute(SELECT).rows == oracle(db, types, SELECT)

    def test_non_equi_predicate_is_an_emitting_nested_loop(self):
        db, types, catalog = flat_store(nx=12, ny=9, domain=4)
        text = "select (v = x.b, w = y.e) from x in X, y in Y where x.a < y.d"
        with QueryService(db, types, catalog, snapshot_isolation=False) as svc:
            plan = svc.explain(text)
            assert plan.startswith("NestedLoop(join) [x,y: x.a < y.d ; emits"), plan
            assert svc.execute(text).rows == oracle(db, types, text)

    def test_priced_below_the_unfused_estimate(self):
        """Chosen by price: the fused estimate undercuts what the same
        nestjoin → map → flatten pipeline is priced at operator by
        operator."""
        db, types, catalog = flat_store()
        expr = Optimizer(types, catalog=catalog).optimize(compile_oosql(LOW, types)).expr
        join = flat_join(expr)
        assert join is not None
        model = CostModel(catalog)
        fused = model.estimate(expr)
        nest = model.estimate(join)
        unfused_cost = nest.cost + 2 * nest.rows  # + the map pass + the flatten pass
        assert fused.cost < unfused_cost
        plan = Planner(catalog).plan(expr)
        assert plan.est_cost < unfused_cost
        assert plan.est_rows == fused.rows

    def test_heuristic_planner_fuses_too(self):
        db, types, _ = flat_store(nx=20, ny=10, domain=5)
        expr = Optimizer(types).optimize(compile_oosql(SELECT, types)).expr
        plan = Planner().plan(expr)
        assert isinstance(plan, P.HashJoinBase) and plan.kind == "join"
        assert plan.execute(ExecRuntime(db, Stats())) == oracle(db, types, SELECT)

    def test_paper_scale_store_still_plans_correctly(self):
        db, types, catalog = flat_store(nx=5, ny=4, domain=3)
        with QueryService(db, types, catalog, snapshot_isolation=False) as svc:
            assert "(join)" in svc.explain(SELECT)
            assert svc.execute(SELECT).rows == oracle(db, types, SELECT)


# ---------------------------------------------------------------------------
# (b) parity matrix
# ---------------------------------------------------------------------------


def matrix_db(empty_right=False):
    """Dangling left rows (a=7, a=8), and two distinct pairs mapping to one
    output tuple: (a=1,b=10)x(d=1,e=5) twice via the duplicate-b X rows."""
    db = MemoryDatabase(
        {
            "X": [
                VTuple(a=1, b=10, i=0),
                VTuple(a=1, b=10, i=1),  # same (v, w) outputs as the row above
                VTuple(a=2, b=1, i=2),
                VTuple(a=7, b=3, i=3),   # dangling
                VTuple(a=8, b=4, i=4),   # dangling
            ]
            + [VTuple(a=3, b=k, i=10 + k) for k in range(12)],
            "Y": []
            if empty_right
            else [VTuple(d=1, e=5), VTuple(d=1, e=50), VTuple(d=2, e=0), VTuple(d=9, e=9)]
            + [VTuple(d=3, e=k) for k in range(6)],
        }
    )
    catalog = Catalog(db)
    catalog.analyze()
    catalog.create_index("Y", "d")
    return db


MATRIX_TYPES = TypeCatalog(
    {
        "X": SetType(TupleType({"a": INT, "b": INT, "i": INT})),
        "Y": SetType(TupleType({"d": INT, "e": INT})),
    }
)


def _hash(residual, build_side):
    return P.HashJoinBase(
        "join", "x", "y", (XA,), (YD,), residual, Scan("X"), Scan("Y"),
        result=EMIT, build_side=build_side,
    )


VARIANTS = {
    "hash-build-right": lambda residual: _hash(residual, "right"),
    "hash-build-left": lambda residual: _hash(residual, "left"),
    "index-nested-loop": lambda residual: P.IndexNestedLoopJoin(
        "join", "x", "y", XA, "Y", "d", "idx_Y_d", residual, Scan("X"), result=EMIT
    ),
    "nested-loop": lambda residual: P.NestedLoopJoin(
        "join", "x", "y",
        B.eq(XA, YD) if residual == TRUE else A.And(B.eq(XA, YD), residual),
        Scan("X"), Scan("Y"), result=EMIT,
    ),
}


def matrix_oracle(db, residual):
    text = "select (v = x.b, w = y.e) from x in X, y in Y where x.a = y.d"
    if residual != TRUE:
        text += " and y.e > x.b"
    return oracle(db, MATRIX_TYPES, text)


def _cell_name(variant, residual, empty_right):
    return "-".join(
        (variant, "plain" if residual == TRUE else "residual", "empty" if empty_right else "full")
    )


def reference_cells():
    """The parity matrix's cells — recorded from the tuple engine (see
    ``tests/engine/golden.py``)."""
    return {
        _cell_name(variant, residual, empty_right): (
            lambda stats, size, variant=variant, residual=residual, empty_right=empty_right:
            VARIANTS[variant](residual).execute(
                ExecRuntime(matrix_db(empty_right), stats, batch_size=size)
            )
        )
        for variant in VARIANTS
        for residual in (TRUE, RESIDUAL)
        for empty_right in (False, True)
    }


class TestParityMatrix:
    @pytest.mark.parametrize("empty_right", (False, True))
    @pytest.mark.parametrize("residual", (TRUE, RESIDUAL), ids=("plain", "residual"))
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_rows_equal_oracle_and_counters_equal_tuple_mode(
        self, variant, residual, empty_right
    ):
        db = matrix_db(empty_right)
        want = matrix_oracle(db, residual)
        if not empty_right:
            assert want, "the matrix data must produce output"
        streamed = list(VARIANTS[variant](residual).stream(ExecRuntime(db, Stats())))
        assert frozenset(streamed) == want
        if not empty_right and residual == TRUE:
            # two distinct pairs, one output tuple: the stream is a bag
            assert len(streamed) > len(want)
        for batch_size in (1, 7, 256):
            rows = VARIANTS[variant](residual).execute(
                ExecRuntime(db, Stats(), batch_size=batch_size)
            )
            assert rows == want, (variant, batch_size)
            assert_matches_reference(
                __name__, _cell_name(variant, residual, empty_right), batch_size
            )

    def test_dangling_probe_rows_emit_nothing(self):
        db = matrix_db()
        stats = Stats()
        plan = _hash(TRUE, "right")
        out = [row for batch in plan.iterate_batches(ExecRuntime(db, stats, batch_size=4))
               for row in batch.rows]
        assert stats.output_tuples == len(out)
        assert all(set(row) == {"v", "w"} for row in out)

    def test_emitting_join_is_batch_native_on_both_build_sides(self):
        db = matrix_db()
        for side in ("left", "right"):
            stats = Stats()
            _hash(TRUE, side).execute(ExecRuntime(db, stats, batch_size=4))
            assert stats.batches_emitted > 0 and stats.vector_fallbacks == 0, side


# ---------------------------------------------------------------------------
# (c) hypothesis property
# ---------------------------------------------------------------------------

_small = st.integers(min_value=0, max_value=4)

_x_scalar = st.sampled_from(["x.a", "x.b", "x.a + x.b", "x.b * 2"])
_y_scalar = st.sampled_from(["y.d", "y.e", "y.e - y.d", "y.d * 3"])
_xy_scalar = st.sampled_from(["x.a + y.e", "x.b * y.d", "x.a - y.d"])
_scalar = st.one_of(_x_scalar, _y_scalar, _xy_scalar)

_join_pred = st.sampled_from(
    ["x.a = y.d", "y.d = x.a", "x.b = y.e", "x.a + 1 = y.d", "x.a < y.d", "x.a = y.d and x.b = y.e"]
)
_extra_pred = st.one_of(
    st.none(),
    st.sampled_from(["y.e > 1", "x.b < 3", "x.b <= y.e", "x.a + y.e > 2", "not (y.e = x.b)"]),
)


@st.composite
def flat_selects(draw):
    fields = draw(st.lists(_scalar, min_size=1, max_size=3))
    select = ", ".join(f"f{i} = {e}" for i, e in enumerate(fields))
    where = draw(_join_pred)
    extra = draw(_extra_pred)
    if extra is not None:
        where += f" and {extra}"
    return f"select ({select}) from x in X, y in Y where {where}"


@st.composite
def small_xy(draw):
    xs = draw(st.lists(st.builds(lambda a, b: VTuple(a=a, b=b), _small, _small), max_size=7))
    ys = draw(st.lists(st.builds(lambda d, e: VTuple(d=d, e=e), _small, _small), max_size=7))
    return MemoryDatabase({"X": xs, "Y": ys})


class TestProperty:
    @given(db=small_xy(), text=flat_selects(), batch_size=st.sampled_from([None, 1, 3, 256]))
    @settings(max_examples=120, deadline=None)
    def test_random_two_variable_selects_match_the_oracle(self, db, text, batch_size):
        want = oracle(db, TYPES, text)
        catalog = Catalog(db)
        catalog.analyze()
        expr = Optimizer(TYPES, catalog=catalog).optimize(compile_oosql(text, TYPES)).expr
        assert flat_join(expr) is not None, text
        for cat in (catalog, None):
            plan = Planner(cat).plan(expr)
            assert plan.kind == "join" and plan.result is not None, plan.explain()
            assert plan.execute(ExecRuntime(db, Stats(), batch_size=batch_size)) == want


# ---------------------------------------------------------------------------
# (d) shapes that decline
# ---------------------------------------------------------------------------


def _nestjoin(as_attr="ys"):
    return A.NestJoin(
        B.extent("X"), B.extent("Y"), "x", "y", B.eq(XA, YD), as_attr, EMIT
    )


class TestDeclines:
    def setup_method(self):
        self.db, _, self.catalog = flat_store(nx=20, ny=12, domain=5)

    def _check(self, expr):
        assert flat_join(expr) is None
        plan = Planner(self.catalog).plan(expr)
        operators = list(plan.operators())
        assert any(isinstance(node, P.FlattenOp) for node in operators), plan.explain()
        assert any(
            getattr(node, "kind", None) == "nestjoin" for node in operators
        ), plan.explain()
        want = Interpreter(self.db).eval(expr)
        for batch_size in (None, 7):
            assert plan.execute(ExecRuntime(self.db, Stats(), batch_size=batch_size)) == want

    def test_map_body_is_not_exactly_the_group(self):
        body = A.Union(B.attr(B.var("z"), "ys"), A.SetExpr((B.tup(v=B.lit(-1), w=B.lit(-1)),)))
        self._check(A.Flatten(A.Map("z", body, _nestjoin())))

    def test_map_reads_another_attribute(self):
        # z.b is a set only by accident of naming: not the nestjoin's group
        nest = A.NestJoin(
            B.extent("X"), B.extent("Y"), "x", "y", B.eq(XA, YD), "ys", EMIT
        )
        outer = A.NestJoin(nest, B.extent("Y"), "z", "y", TRUE, "zs", B.var("y"))
        self._check(A.Flatten(A.Map("z", B.attr(B.var("z"), "ys"), outer)))

    def test_group_used_elsewhere(self):
        # a selection on the group sits between the map and the nestjoin
        keep = A.Not(A.IsEmpty(B.attr(B.var("z"), "ys")))
        expr = A.Flatten(
            A.Map("z", B.attr(B.var("z"), "ys"), A.Select("z", keep, _nestjoin()))
        )
        self._check(expr)

    def test_three_variable_from_clause_answers_correctly(self):
        types = TypeCatalog(
            {
                "X": SetType(TupleType({"a": INT, "b": INT})),
                "Y": SetType(TupleType({"d": INT, "e": INT})),
                "W": SetType(TupleType({"g": INT})),
            }
        )
        db = MemoryDatabase(
            {
                "X": [VTuple(a=i % 3, b=i) for i in range(9)],
                "Y": [VTuple(d=i % 3, e=i) for i in range(6)],
                "W": [VTuple(g=i) for i in range(4)],
            }
        )
        catalog = Catalog(db)
        catalog.analyze()
        text = (
            "select (v = x.b, w = y.e, g = w.g) from x in X, y in Y, w in W "
            "where x.a = y.d and y.e = w.g"
        )
        with QueryService(db, types, catalog) as svc:
            plan = svc.explain(text)
            assert "emits" not in plan.splitlines()[0], plan
            assert svc.execute(text).rows == oracle(db, types, text)


# ---------------------------------------------------------------------------
# deadline / trace / analyze executions
# ---------------------------------------------------------------------------


class TestServiceModes:
    @pytest.mark.parametrize("text", (WIDE, LOW))
    def test_deadline_trace_and_analyze_runs_return_the_oracle(self, text, monkeypatch):
        db, types, catalog = class_store(nx=120, ny=48, domain=12)
        params = {"k": 20}
        want = oracle(db, types, text, params)
        assert want
        with QueryService(db, types, catalog, snapshot_isolation=False) as svc:
            assert svc.execute(text, params).rows == want
            # a deadline-bound run drains the same batch plan, polled per batch
            assert svc.execute(text, params, timeout=30.0).rows == want
            analyzed = svc.execute(text, params, analyze=True)
            assert analyzed.rows == want
            first = next(
                line for line in analyzed.analyze.splitlines() if not line.startswith("--")
            )
            assert first.startswith("HashJoin(join)"), analyzed.analyze
            assert "actual=" in first and "ms" in first
            monkeypatch.setenv("REPRO_TRACE", "1")
            assert svc.execute(text, params).rows == want

    def test_explain_analyze_attributes_rows_to_the_join_node(self):
        db, types, catalog = flat_store(nx=60, ny=24, domain=6)
        expr = Optimizer(types, catalog=catalog).optimize(compile_oosql(SELECT, types)).expr
        result = Executor(db, catalog=catalog, batch_size=16).explain_analyze(expr)
        assert result.rows == oracle(db, types, SELECT)
        head = result.text.splitlines()[0]
        assert head.startswith("HashJoin(join)")
        # 60 x 24 rows over 6 keys: 240 pairs flow out of the one join node
        assert "actual=240" in head, result.text
