"""The OOSQL pretty printer must emit re-parseable, equivalent text."""

import pytest

from repro.oosql import parse, pretty

ROUNDTRIP_QUERIES = [
    "select s from s in SUPPLIER",
    'select s.sname from s in SUPPLIER where s.sname = "s1"',
    "select (a = 1, b = s.sname) from s in SUPPLIER",
    "select p from p in PART where p.price + 1 * 2 > 3",
    "select d from d in DELIVERY where exists x in d.supply : x.quantity > 10",
    "select s from s in S where forall p in P : p.a in s.parts",
    "select x from x in X where x.c subseteq {1, 2} union {3}",
    "select x from x in X where not x.a = 1 and x.b != 2",
    "select x from x in (select y from y in Y where y.a = 1) where x.b = 2",
    "select count(s.parts) from s in SUPPLIER",
    "select flatten(select t.parts from t in T) from s in S",
    "select x from x in X where x.c contains 1",
    "select x from x in X, y in Y where x.a = y.a",
    "select x from x in X where x.a not in {1}",
    "select -x.a from x in X",
    "select x from x in X where x.s disjoint y.s",
    "(select x.a from x in X where x.a > 1) union (select y.d from y in Y)",
    "(select x.a from x in X) intersect (select y.d from y in Y where y.e < 5)",
    "(select x.a from x in X where x.a > 1) minus {1, 2}",
    "select z from z in (select x.a from x in X where x.a > 1) union (select y.d from y in Y)",
]

SET_OP_QUERY = "(select x.a from x in X where x.a > 1) union (select y.d from y in Y)"


@pytest.mark.parametrize("text", ROUNDTRIP_QUERIES)
def test_roundtrip_fixpoint(text):
    """parse(pretty(parse(t))) == parse(t), and pretty is a fixpoint."""
    first = parse(text)
    printed = pretty(first)
    second = parse(printed)
    assert first == second
    assert pretty(second) == printed


def test_example_queries_roundtrip():
    from repro.workload.queries import OOSQL_EXAMPLES

    for name, text in OOSQL_EXAMPLES.items():
        node = parse(text)
        assert parse(pretty(node)) == node, name


def test_select_operands_of_set_operators_keep_their_parentheses():
    printed = pretty(parse(SET_OP_QUERY))
    assert printed == (
        "((select x.a from x in X where (x.a > 1)) union (select y.d from y in Y))"
    )


def test_set_operator_of_selects_through_the_service():
    """The plan-cache shape key is the printed text, so a printer that
    lets a ``where`` swallow ``union`` compiles a different query."""
    from repro.datamodel import VTuple
    from repro.engine.interpreter import evaluate
    from repro.service import QueryService
    from repro.storage import MemoryDatabase
    from repro.translate.translator import compile_oosql

    db = MemoryDatabase(
        {
            "X": [VTuple(a=i % 7, b=i) for i in range(40)],
            "Y": [VTuple(d=10 + i % 5, e=i) for i in range(40)],
        }
    )
    want = evaluate(compile_oosql(SET_OP_QUERY, db.schema), db)
    assert len(want) == 5 + 5
    with QueryService(db) as svc:
        result = svc.session().execute(SET_OP_QUERY)
    assert set(result.rows) == set(want)
    assert len(result.rows) == len(want)
