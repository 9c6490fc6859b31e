"""Oracle-equality for the expression compiler.

The contract of :mod:`repro.engine.compile`: a compiled closure is
observationally identical to ``Interpreter._eval`` — same values, same
error types and messages, same short-circuiting, same Stats counters —
and falls back to the interpreter on uncovered node forms without any
behavior change."""

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from repro.datamodel import EvaluationError, VTuple, vset
from repro.engine.compile import COMPILED_NODE_TYPES, Compiler, compile_expr
from repro.engine.interpreter import Interpreter
from repro.engine.stats import Stats
from repro.storage import MemoryDatabase
from repro.workload.paper_db import example_database


@pytest.fixture()
def db():
    return MemoryDatabase(
        {
            "X": [VTuple(a=1, b=10), VTuple(a=2, b=20), VTuple(a=3, b=30)],
            "Y": [VTuple(d=1, e=1), VTuple(d=1, e=2), VTuple(d=3, e=3)],
        }
    )


def both(expr, db, env=None):
    """Evaluate with interpreter and compiler; return (value, value) after
    asserting the Stats counters agree."""
    env = env or {}
    i_stats, c_stats = Stats(), Stats()
    expected = Interpreter(db, i_stats).eval(expr, dict(env))
    fn = compile_expr(expr, db, c_stats)
    got = fn(dict(env))
    assert i_stats.snapshot() == c_stats.snapshot(), f"counter divergence for {expr}"
    return expected, got


def assert_same(expr, db, env=None):
    expected, got = both(expr, db, env)
    assert expected == got, f"{expr}: interpreter={expected!r} compiled={got!r}"


def assert_same_error(expr, db, env=None):
    env = env or {}
    with pytest.raises(Exception) as interp_err:
        Interpreter(db).eval(expr, dict(env))
    fn = compile_expr(expr, db)
    with pytest.raises(Exception) as comp_err:
        fn(dict(env))
    assert type(interp_err.value) is type(comp_err.value), f"error type for {expr}"
    assert str(interp_err.value) == str(comp_err.value), f"error message for {expr}"


X = B.var("x")
Y = B.var("y")
ENV = {
    "x": VTuple(a=2, b=10, c=vset(1, 2, 3)),
    "y": VTuple(d=2, e=vset(VTuple(m=1), VTuple(m=2))),
    "n": 7,
    "s": "hello",
    "flag": True,
}


class TestCoveredForms:
    CASES = [
        B.lit(42),
        B.lit(None),
        B.var("n"),
        B.extent("X"),
        B.attr(X, "a"),
        B.attr(X, "c"),
        B.tup(p=B.attr(X, "a"), q=B.lit(1)),
        B.setexpr(B.lit(1), B.attr(X, "a")),
        A.TupleSubscript(X, ("a", "b")),
        A.TupleUpdate(X, (("a", B.lit(99)), ("new", B.lit(1)))),
        A.Concat(A.TupleSubscript(X, ("a",)), A.TupleSubscript(Y, ("d",))),
        A.Arith("+", B.attr(X, "a"), B.lit(3)),
        A.Arith("-", B.lit(10), B.var("n")),
        A.Arith("*", B.var("n"), B.var("n")),
        A.Arith("/", B.lit(10), B.lit(4)),
        A.Arith("mod", B.var("n"), B.lit(3)),
        A.Neg(B.var("n")),
        B.eq(B.attr(X, "a"), B.attr(Y, "d")),
        A.Compare("!=", B.var("n"), B.lit(7)),
        A.Compare("<", B.var("n"), B.lit(9)),
        A.Compare("<=", B.var("s"), B.lit("world")),
        A.Compare(">", B.lit(3.5), B.var("n")),
        A.Compare(">=", B.var("n"), B.lit(7)),
        A.SetCompare("in", B.lit(2), B.attr(X, "c")),
        A.SetCompare("notin", B.lit(9), B.attr(X, "c")),
        A.SetCompare("ni", B.attr(X, "c"), B.lit(3)),
        A.SetCompare("notni", B.attr(X, "c"), B.lit(9)),
        A.SetCompare("subset", B.setexpr(B.lit(1)), B.attr(X, "c")),
        A.SetCompare("subseteq", B.attr(X, "c"), B.attr(X, "c")),
        A.SetCompare("seteq", B.attr(X, "c"), B.setexpr(B.lit(1), B.lit(2), B.lit(3))),
        A.SetCompare("setneq", B.attr(X, "c"), B.setexpr()),
        A.SetCompare("supseteq", B.attr(X, "c"), B.setexpr(B.lit(2))),
        A.SetCompare("supset", B.attr(X, "c"), B.setexpr(B.lit(2))),
        A.SetCompare("disjoint", B.attr(X, "c"), B.setexpr(B.lit(9))),
        A.And(B.var("flag"), A.Compare("<", B.var("n"), B.lit(9))),
        A.Or(A.Not(B.var("flag")), B.lit(True)),
        A.IsEmpty(B.setexpr()),
        A.IsEmpty(B.attr(X, "c")),
        B.exists("i", B.extent("X"),
                 B.eq(B.attr(B.var("i"), "a"), B.attr(X, "a"))),
        B.forall("i", B.extent("X"),
                 A.Compare("<", B.attr(B.var("i"), "a"), B.lit(10))),
        A.Union(B.attr(X, "c"), B.setexpr(B.lit(9))),
        A.Intersect(B.attr(X, "c"), B.setexpr(B.lit(2), B.lit(9))),
        A.Difference(B.attr(X, "c"), B.setexpr(B.lit(1))),
        A.Aggregate("count", B.attr(X, "c")),
        A.Aggregate("sum", B.attr(X, "c")),
        A.Aggregate("min", B.attr(X, "c")),
        A.Aggregate("max", B.attr(X, "c")),
        A.Aggregate("avg", B.attr(X, "c")),
    ]

    @pytest.mark.parametrize("expr", CASES, ids=[str(i) for i in range(len(CASES))])
    def test_oracle_equality(self, db, expr):
        assert_same(expr, db, ENV)

    def test_no_fallback_needed_for_covered_battery(self, db):
        stats = Stats()
        compiler = Compiler(db, stats, Interpreter(db, stats))
        for expr in self.CASES:
            compiler.compile(expr)
        assert compiler.fallback_nodes == 0


class TestOidDeref:
    def test_attr_through_oid_counts_deref(self):
        db = example_database()
        delivery = next(iter(db.extent("DELIVERY")))
        supplier = next(
            s for s in db.extent("SUPPLIER") if s["oid"] == delivery["supplier"]
        )
        expr = B.attr(B.var("d"), "supplier", "sname")
        env = {"d": delivery}
        i_stats, c_stats = Stats(), Stats()
        expected = Interpreter(db, i_stats).eval(expr, dict(env))
        got = compile_expr(expr, db, c_stats)(dict(env))
        assert expected == got == supplier["sname"]
        assert i_stats.oid_derefs == c_stats.oid_derefs == 1


class TestErrorParity:
    def test_unbound_variable(self, db):
        assert_same_error(B.var("ghost"), db, ENV)

    def test_attr_on_non_tuple(self, db):
        assert_same_error(B.attr(B.var("n"), "a"), db, ENV)

    def test_missing_attribute(self, db):
        assert_same_error(B.attr(X, "ghost"), db, ENV)

    def test_arith_on_non_number(self, db):
        assert_same_error(A.Arith("+", B.var("s"), B.lit(1)), db, ENV)

    def test_arith_on_bool(self, db):
        assert_same_error(A.Arith("*", B.var("flag"), B.lit(2)), db, ENV)

    def test_division_by_zero(self, db):
        assert_same_error(A.Arith("/", B.lit(1), B.lit(0)), db, ENV)

    def test_modulo_by_zero(self, db):
        assert_same_error(A.Arith("mod", B.lit(1), B.lit(0)), db, ENV)

    def test_negation_of_string(self, db):
        assert_same_error(A.Neg(B.var("s")), db, ENV)

    def test_ordered_comparison_across_types(self, db):
        assert_same_error(A.Compare("<", B.var("n"), B.var("s")), db, ENV)

    def test_ordered_comparison_on_set(self, db):
        assert_same_error(A.Compare("<", B.attr(X, "c"), B.lit(1)), db, ENV)

    def test_membership_on_non_set(self, db):
        assert_same_error(A.SetCompare("in", B.lit(1), B.var("n")), db, ENV)

    def test_ni_on_non_set(self, db):
        assert_same_error(A.SetCompare("ni", B.var("n"), B.lit(1)), db, ENV)

    def test_set_comparison_on_non_sets(self, db):
        assert_same_error(A.SetCompare("subset", B.var("n"), B.var("n")), db, ENV)

    def test_and_on_non_boolean(self, db):
        assert_same_error(A.And(B.var("n"), B.lit(True)), db, ENV)

    def test_isempty_on_non_set(self, db):
        assert_same_error(A.IsEmpty(B.var("n")), db, ENV)

    def test_quantifier_over_non_set(self, db):
        assert_same_error(B.exists("i", B.var("n"), B.lit(True)), db, ENV)

    def test_aggregate_min_over_empty(self, db):
        assert_same_error(A.Aggregate("min", B.setexpr()), db, ENV)

    def test_aggregate_over_non_atoms(self, db):
        assert_same_error(A.Aggregate("sum", B.attr(B.var("y"), "e")), db, ENV)


class TestShortCircuit:
    def test_and_protects_raising_right(self, db):
        poison = B.eq(A.Arith("/", B.lit(1), B.lit(0)), B.lit(1))
        expr = A.And(B.lit(False), poison)
        assert_same(expr, db, ENV)  # both: False, no error

    def test_or_protects_raising_right(self, db):
        poison = B.eq(A.Arith("/", B.lit(1), B.lit(0)), B.lit(1))
        expr = A.Or(B.lit(True), poison)
        assert_same(expr, db, ENV)

    def test_exists_short_circuits_counters(self, db):
        # first matching tuple stops the scan in both engines; counters equal
        expr = B.exists("i", B.extent("X"), B.lit(True))
        assert_same(expr, db, ENV)


class TestConstantFolding:
    def test_counter_free_constants_fold(self, db):
        stats = Stats()
        compiler = Compiler(db, stats, Interpreter(db, stats))
        expr = A.Arith("+", B.lit(1), A.Arith("*", B.lit(2), B.lit(3)))
        fn = compiler.compile(expr)
        assert compiler.folded_nodes >= 2
        assert fn({}) == 7

    def test_comparisons_never_fold(self, db):
        """Folding a Compare would stop counting comparisons."""
        stats = Stats()
        compiler = Compiler(db, stats, Interpreter(db, stats))
        fn = compiler.compile(B.eq(B.lit(1), B.lit(1)))
        fn({})
        fn({})
        assert stats.comparisons == 2

    def test_failing_constant_defers_error_to_eval_time(self, db):
        stats = Stats()
        compiler = Compiler(db, stats, Interpreter(db, stats))
        # compilation itself must not raise...
        fn = compiler.compile(A.Arith("/", B.lit(1), B.lit(0)))
        # ...the error surfaces on evaluation, like the interpreter
        with pytest.raises(EvaluationError):
            fn({})

    def test_folded_inside_non_constant(self, db):
        expr = A.Arith("+", B.var("n"), A.Arith("*", B.lit(2), B.lit(3)))
        assert_same(expr, db, ENV)

    def test_non_repro_fold_error_also_defers(self, db):
        """A constant aggregate over mixed atoms raises TypeError inside the
        fold attempt — compilation must survive and defer, so a predicate
        containing it over an empty input still never raises."""
        stats = Stats()
        compiler = Compiler(db, stats, Interpreter(db, stats))
        poison = A.Compare(
            "<", A.Aggregate("sum", B.setexpr(B.lit("a"), B.lit(1))), B.lit(2)
        )
        fn = compiler.compile(A.And(B.lit(False), poison))
        assert fn({}) is False  # short-circuit protects the poison, as before


class TestFallback:
    def test_set_iterators_fall_back_and_agree(self, db):
        expr = A.IsEmpty(
            B.sel("i", B.gt(B.attr(B.var("i"), "a"), 99), B.extent("X"))
        )
        env = {}
        i_stats, c_stats = Stats(), Stats()
        expected = Interpreter(db, i_stats).eval(expr, dict(env))
        c = Compiler(db, c_stats, Interpreter(db, c_stats))
        fn = c.compile(expr)
        assert fn({}) == expected
        assert c.fallback_nodes == 1  # the Select subtree
        assert i_stats.snapshot() == c_stats.snapshot()

    def test_join_inside_predicate_falls_back(self, db):
        join = A.Join(B.extent("X"), B.extent("Y"), "x", "y",
                      B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d")))
        expr = A.Aggregate("count", join)
        assert_same(expr, db)

    def test_covered_node_registry_is_accurate(self, db):
        compiler = Compiler(db, Stats(), Interpreter(db))
        for node_type in COMPILED_NODE_TYPES:
            assert node_type in COMPILED_NODE_TYPES


class TestBindingDiscipline:
    def test_quantifier_does_not_leak_binding(self, db):
        env = {"x": ENV["x"]}
        expr = B.exists("q", B.extent("X"), B.lit(True))
        compile_expr(expr, db)(env)
        assert set(env) == {"x"}

    def test_quantifier_restores_shadowed_binding(self, db):
        env = {"x": ENV["x"]}
        # ∃ x ∈ X • true shadows the outer x; afterwards x must be restored
        expr = A.And(
            B.exists("x", B.extent("X"), B.lit(True)),
            B.eq(B.attr(X, "a"), B.lit(2)),
        )
        assert compile_expr(expr, db)(env) is True
        assert env["x"] == ENV["x"]

    def test_raising_predicate_restores_binding(self, db):
        env = {"x": ENV["x"]}
        poison = B.eq(A.Arith("/", B.lit(1), B.lit(0)), B.lit(1))
        expr = B.exists("x", B.extent("X"), poison)
        with pytest.raises(EvaluationError):
            compile_expr(expr, db)(env)
        assert env["x"] == ENV["x"]


class TestRuntimeIntegration:
    def test_runtime_compiles_once_per_expression(self, db):
        from repro.engine.plan import ExecRuntime

        rt = ExecRuntime(db)
        pred = B.eq(B.attr(X, "a"), B.lit(2))
        assert rt.compiled(pred) is rt.compiled(pred)
        assert rt.compiled_pred(pred) is rt.compiled_pred(pred)

    def test_cache_never_aliases_garbage_collected_expressions(self, db):
        """id() of a dead expression may be reused by a fresh one; the cache
        must keep compiled expressions alive so that can't alias closures."""
        from repro.engine.plan import ExecRuntime

        rt = ExecRuntime(db)
        env = {"i": 5}
        for k in range(500):
            expr = B.eq(B.var("i"), B.lit(5 if k % 2 == 0 else 6))
            expected = k % 2 == 0
            assert rt.eval(expr, env) is expected

    def test_compiled_results_match_interpreter(self, db):
        from repro.engine.planner import Executor

        expr = B.sel(
            "x",
            B.exists("y", B.extent("Y"),
                     B.eq(B.attr(X, "a"), B.attr(Y, "d"))),
            B.extent("X"),
        )
        assert Executor(db).execute(expr) == Interpreter(db).eval(expr)


class TestLazyReplay:
    """A batch kernel compiles its tuple-wise replay closure on its first
    bail, not next to the kernel: a kernel that never bails compiles its
    expression once."""

    @staticmethod
    def _counting(compiler, name):
        calls = []
        real = getattr(compiler, name)

        def counted(expr):
            calls.append(expr)
            return real(expr)

        setattr(compiler, name, counted)
        return calls

    @pytest.mark.parametrize(
        "build, compile_name, expr",
        [
            ("compile_batch", "compile", A.Aggregate("count", B.attr(X, "c"))),
            ("compile_batch_pred", "compile_pred",
             A.SetCompare("subseteq", B.attr(X, "c"), B.attr(X, "c"))),
        ],
    )
    def test_replay_compiles_on_the_first_bail_only(self, build, compile_name, expr):
        db = MemoryDatabase({"X": []})
        stats = Stats()
        compiler = Compiler(db, stats, Interpreter(db, stats))
        calls = self._counting(compiler, compile_name)
        kernel = getattr(compiler, build)(expr, "x")
        good = [VTuple(c=vset(1)), VTuple(c=vset(1, 2))]
        kernel(good)
        assert calls == [] and stats.vector_fallbacks == 0
        bad = [VTuple(c=vset(1)), VTuple(c=3)]
        for attempt in (1, 2):
            with pytest.raises(EvaluationError):
                kernel(bad)
            assert calls == [expr]  # compiled once, kept for the next bail
            assert stats.vector_fallbacks == attempt
