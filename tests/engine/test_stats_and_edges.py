"""Edge cases: Stats arithmetic, runtime error paths, explain output."""

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from repro.datamodel import EvaluationError, VTuple, vset
from repro.engine.interpreter import Interpreter
from repro.engine.plan import EvalExpr, ExecRuntime, Scan
from repro.engine.planner import Executor
from repro.engine.stats import Stats
from repro.storage import MemoryDatabase


@pytest.fixture()
def db():
    return MemoryDatabase({"X": [VTuple(a=1, c=vset(1, 2))]})


class TestStats:
    def test_addition(self):
        a, b = Stats(), Stats()
        a.predicate_evals = 3
        a.hash_probes = 1
        b.predicate_evals = 2
        merged = a + b
        assert merged.predicate_evals == 5
        assert merged.hash_probes == 1
        # operands untouched
        assert a.predicate_evals == 3 and b.predicate_evals == 2

    def test_addition_type_error(self):
        with pytest.raises(TypeError):
            Stats() + 3

    def test_reset_and_snapshot(self):
        s = Stats()
        s.tuples_visited = 7
        snap = s.snapshot()
        assert snap["tuples_visited"] == 7
        s.reset()
        assert s.total_work() == 0

    def test_repr_shows_nonzero_only(self):
        s = Stats()
        s.oid_derefs = 2
        text = repr(s)
        assert "oid_derefs=2" in text
        assert "hash_probes" not in text

    def test_total_work_excludes_output(self):
        s = Stats()
        s.output_tuples = 100
        assert s.total_work() == 0


class TestRuntimeErrorPaths:
    def test_compiled_pred_requires_boolean(self, db):
        rt = ExecRuntime(db, Stats())
        with pytest.raises(EvaluationError, match="non-boolean"):
            rt.compiled_pred(B.lit(1))({})

    def test_interpreter_rejects_unknown_nodes(self, db):
        class Rogue(A.Expr):
            pass

        with pytest.raises(EvaluationError, match="no evaluation rule"):
            Interpreter(db).eval(Rogue())

    def test_attr_access_on_atom(self, db):
        with pytest.raises(EvaluationError):
            Interpreter(db).eval(B.attr(B.lit(3), "a"))

    def test_select_over_non_set(self, db):
        with pytest.raises(EvaluationError, match="set"):
            Interpreter(db).eval(B.sel("x", B.lit(True), B.lit(3)))

    def test_quantifier_over_non_set(self, db):
        with pytest.raises(EvaluationError):
            Interpreter(db).eval(B.exists("x", B.lit(3), B.lit(True)))


class TestExplain:
    def test_nested_explain_indents(self, db):
        expr = B.project(B.sel("x", B.gt(B.attr(B.var("x"), "a"), 0), B.extent("X")), "a")
        text = Executor(db).explain(expr)
        lines = text.splitlines()
        assert lines[0].startswith("Project")
        assert lines[1].startswith("  Filter")
        assert lines[2].startswith("    Scan")

    def test_eval_leaf_truncates_long_descriptions(self, db):
        big = B.setexpr(*(B.lit(i) for i in range(60)))
        leaf = EvalExpr(big)
        assert len(leaf.describe()) <= 63

    def test_operators_iterator(self, db):
        expr = B.sel("x", B.lit(True), B.extent("X"))
        plan = Executor(db).plan(expr)
        kinds = [type(op).__name__ for op in plan.operators()]
        assert kinds == ["Filter", "Scan"]


class TestEvalLeafIntegration:
    def test_plan_with_literal_set_leaf(self, db):
        expr = B.union(B.amap("x", B.attr(B.var("x"), "a"), B.extent("X")),
                       B.setexpr(9))
        out = Executor(db).execute(expr)
        assert out == vset(1, 9)

    def test_division_by_literal_divisor(self, db):
        db2 = MemoryDatabase({
            "R": [VTuple(d=1, e=1), VTuple(d=1, e=2), VTuple(d=2, e=1)],
        })
        divisor = B.setexpr(B.tup(e=1), B.tup(e=2))
        out = Executor(db2).execute(B.division(B.extent("R"), divisor))
        assert out == vset(VTuple(d=1))
