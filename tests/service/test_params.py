"""Parameter placeholders (``$name``) through every layer of the stack:
lexer → parser → type checker → translator → interpreter/compiler →
physical plans.  The invariant under test: a parameterized expression
evaluated with binding ``v`` behaves exactly like the same expression
with ``v`` inlined as a literal — for every engine."""

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from repro.adl.freevars import free_vars
from repro.adl.pretty import pretty as adl_pretty
from repro.adl.subst import substitute
from repro.adl.typecheck import TypeChecker
from repro.datamodel import VTuple
from repro.datamodel.errors import (
    OOSQLSyntaxError,
    UnboundParameterError,
)
from repro.datamodel.types import ANY
from repro.engine.compile import compile_expr
from repro.engine.interpreter import Interpreter, evaluate
from repro.engine.plan import ExecRuntime
from repro.engine.planner import Executor
from repro.engine.stats import Stats
from repro.oosql import ast as Q
from repro.oosql.lexer import tokenize
from repro.oosql.parser import parse
from repro.oosql.pretty import pretty as oosql_pretty
from repro.oosql.typecheck import OOSQLTypeChecker
from repro.storage import Catalog, MemoryDatabase
from repro.translate.translator import compile_oosql, translate


# ---------------------------------------------------------------------------
# front end
# ---------------------------------------------------------------------------


def test_lexer_produces_param_tokens():
    tokens = tokenize("x.a = $price_max")
    kinds = [(t.kind, t.text) for t in tokens[:-1]]
    assert ("param", "price_max") in kinds


def test_lexer_rejects_bare_dollar():
    with pytest.raises(OOSQLSyntaxError):
        tokenize("x.a = $ 3")
    with pytest.raises(OOSQLSyntaxError):
        tokenize("x.a = $1abc")


def test_parser_param_primary_and_pretty_roundtrip():
    node = parse("select x from x in X where x.a = $k")
    assert isinstance(node, Q.SFW)
    assert Q.Param("k") in list(node.walk())
    text = oosql_pretty(node)
    assert "$k" in text
    # the pretty form is re-parseable and stable (the plan-cache shape key)
    assert oosql_pretty(parse(text)) == text


def test_oosql_typecheck_param_is_any():
    assert OOSQLTypeChecker().check(Q.Param("k")) == ANY
    # params unify with scalars, sets, and orderings without complaint
    node = parse("select x from x in X where x.a < $k and x.a in $keys")
    from repro.datamodel.types import INT, SetType, TupleType
    from repro.datamodel.schema import Catalog as TypeCatalog

    types = TypeCatalog({"X": SetType(TupleType({"a": INT}))})
    OOSQLTypeChecker(types).check(node)


def test_translate_param_to_adl():
    expr = compile_oosql("select x.a from x in X where x.a = $k")
    params = [e for e in expr.walk() if isinstance(e, A.Param)]
    assert params == [A.Param("k")]


def test_adl_typecheck_and_pretty():
    assert TypeChecker().check(A.Param("k")) == ANY
    assert adl_pretty(A.Param("k")) == "$k"


def test_param_is_closed_and_substitution_proof():
    expr = A.Compare("=", B.attr(B.var("x"), "a"), A.Param("k"))
    assert free_vars(expr) == {"x"}
    assert free_vars(A.Param("k")) == frozenset()
    # substitution replaces variables, never parameters
    out = substitute(expr, {"x": B.var("y")})
    assert A.Param("k") in list(out.walk())


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


def _db():
    return MemoryDatabase(
        {"X": [VTuple(a=i % 5, b=i) for i in range(20)]}
    )


def _filter_expr():
    return B.sel("x", B.eq(B.attr(B.var("x"), "a"), A.Param("k")), B.extent("X"))


def test_interpreter_binds_params():
    db = _db()
    expr = _filter_expr()
    got = evaluate(expr, db, params={"k": 3})
    want = evaluate(B.sel("x", B.eq(B.attr(B.var("x"), "a"), B.lit(3)), B.extent("X")), db)
    assert got == want and len(got) == 4


def test_interpreter_unbound_param_raises():
    with pytest.raises(UnboundParameterError):
        evaluate(_filter_expr(), _db())


def test_compiled_closure_matches_interpreter():
    db = _db()
    pred = B.eq(B.attr(B.var("x"), "a"), A.Param("k"))
    stats = Stats()
    interp = Interpreter(db, stats, params={"k": 2})
    from repro.engine.compile import Compiler

    compiler = Compiler(db, stats, interp, params={"k": 2})
    fn = compiler.compile(pred)
    for row in db.extent("X"):
        assert fn({"x": row}) == interp.eval(pred, {"x": row})


def test_compiled_unbound_param_raises():
    db = _db()
    fn = compile_expr(A.Param("k"), db)
    with pytest.raises(UnboundParameterError):
        fn({})


def test_exec_runtime_params_match_interpreter():
    db = _db()
    expr = _filter_expr()
    rt = ExecRuntime(db, params={"k": 1})
    assert rt.eval(expr) == evaluate(expr, db, params={"k": 1})


def test_executor_param_passthrough():
    db = _db()
    expr = _filter_expr()
    oracle = evaluate(expr, db, params={"k": 4})
    assert Executor(db).execute(expr, params={"k": 4}) == oracle


def test_param_rebinding_gives_fresh_results():
    db = _db()
    ex = Executor(db)
    expr = _filter_expr()
    for k in range(5):
        assert ex.execute(expr, params={"k": k}) == evaluate(expr, db, params={"k": k})


# ---------------------------------------------------------------------------
# physical plans: params reach index access paths
# ---------------------------------------------------------------------------


def test_index_scan_accepts_param_key():
    db = MemoryDatabase({"X": [VTuple(a=i % 50, b=i) for i in range(500)]})
    catalog = Catalog(db)
    catalog.analyze()
    catalog.create_index("X", "a")
    ex = Executor(db, catalog=catalog)
    expr = _filter_expr()
    plan_text = ex.explain(expr)
    assert "IndexScan" in plan_text and "$k" in plan_text
    stats = ex.stats
    got = ex.execute(expr, params={"k": 7})
    assert got == evaluate(expr, db, params={"k": 7})
    assert stats.index_probes >= 1


def test_param_join_key_stays_residual_but_correct():
    """``x.a = $k`` is not a hashable *join* conjunct (no right-side var);
    the plan must still produce the right answer under any strategy."""
    db = MemoryDatabase(
        {
            "X": [VTuple(a=i % 4, i=i) for i in range(12)],
            "Y": [VTuple(d=i % 4, j=i) for i in range(12)],
        }
    )
    expr = B.join(
        B.extent("X"),
        B.extent("Y"),
        "x",
        "y",
        B.conj(
            B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d")),
            B.eq(B.attr(B.var("y"), "d"), A.Param("k")),
        ),
    )
    got = Executor(db).execute(expr, params={"k": 2})
    assert got == evaluate(expr, db, params={"k": 2})
    assert got  # non-trivial
