"""``explain()`` of a fixed set of plans against a recorded corpus.

Refactors of the planner, the join-order DP and the cost model must not
move a plan, a join order or a price unless they mean to.  Every case
below renders one plan; ``golden_explain.json`` holds its ``explain()``
lines, byte for byte.  The cases cover the paper's OOSQL examples over
the catalogued example database, and one hand-built shape per physical
strategy the planner picks between: index scan, index nested-loop join
(bare and with a pushed-down selection), hash join building either side,
membership hash join, nested loops, an emitting join, a shredded stitch
(serial and over a partition-wise inner join), partition-wise and
broadcast gathers (planned with two workers, never run), and 3-leaf join
regions with their ``-- join order:`` header (reordered and kept).

Regenerate only for a deliberate change to what the planner builds or
prices::

    PYTHONPATH=src python -m tests.engine.test_golden_explain \
        > tests/engine/golden_explain.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.adl import builders as B
from repro.datamodel import INT, Catalog as TypeCatalog, SetType, TupleType, VTuple, vset
from repro.engine.planner import plan_query
from repro.rewrite.strategy import Optimizer, optimize
from repro.shred import shred_expr
from repro.storage import Catalog, MemoryDatabase
from repro.translate import compile_oosql
from repro.workload import example_database, example_schema
from repro.workload.queries import OOSQL_EXAMPLES, figure3_nestjoin

GOLDEN_PATH = Path(__file__).with_name("golden_explain.json")

X, Y = B.var("x"), B.var("y")
EQ = B.eq(B.attr(X, "a"), B.attr(Y, "d"))

TYPES = TypeCatalog(
    {
        "X": SetType(TupleType({"a": INT, "b": INT})),
        "Y": SetType(TupleType({"d": INT, "e": INT})),
    }
)
FLAT_TYPES = TypeCatalog(
    {
        "X": SetType(TupleType({"a": INT, "v": INT})),
        "Y": SetType(TupleType({"d": INT, "w": INT})),
    }
)


def _catalog(db, indexes=(), partitions=()):
    catalog = Catalog(db)
    catalog.analyze()
    for extent, attr in indexes:
        catalog.create_index(extent, attr)
    for extent, attr, parts in partitions:
        catalog.partition(extent, attr, parts)
    return catalog


def skew_db():
    """SMALL (8 rows) and BIG (400 rows) joinable on ``SMALL.a = BIG.d``;
    SMALL carries a set-valued ``c`` for membership joins."""
    return MemoryDatabase(
        {
            "SMALL": [VTuple(a=i % 40, c=vset(i, i + 1), i=i) for i in range(8)],
            "BIG": [VTuple(d=i % 40, e=i) for i in range(400)],
        }
    )


def flat_db(n=150):
    return MemoryDatabase(
        {
            "X": [VTuple(a=i % 50, v=i) for i in range(n)],
            "Y": [VTuple(d=i % 50, w=i % 9) for i in range(n // 2)],
        }
    )


def nest_db(n, fan=2):
    return MemoryDatabase(
        {
            "X": [VTuple(a=i % 7, b=i) for i in range(n)],
            "Y": [VTuple(d=i % n, e=i % 5) for i in range(fan * n)],
        }
    )


def big_db(n=3000):
    return MemoryDatabase(
        {
            "X": [VTuple(a=i, b=i % 97, v=i % 100) for i in range(n)],
            "Y": [VTuple(d=i, w=i % 7) for i in range(n)],
            "S": [VTuple(k=i, t=i % 3) for i in range(40)],
        }
    )


def chain_db():
    return MemoryDatabase(
        {
            "X": [VTuple(a=i % 7, b=i) for i in range(200)],
            "Y": [VTuple(d=i % 800, e=i % 5) for i in range(1600)],
            "Z": [VTuple(f=i % 5, g=i) for i in range(10)],
        }
    )


def _on(lvar, lattr, rvar, rattr):
    return B.eq(B.attr(B.var(lvar), lattr), B.attr(B.var(rvar), rattr))


def chain_xyz():
    """``(X ⋈ Y) ⋈ Z`` over :func:`chain_db`: the DP keeps it."""
    return B.join(
        B.join(B.extent("X"), B.extent("Y"), "x", "y", _on("x", "b", "y", "d")),
        B.extent("Z"), "t", "z", _on("t", "e", "z", "f"),
    )


def chain_zyx():
    """``(Z ⋈ Y) ⋈ X`` over :func:`chain_db`: the DP reorders it."""
    return B.join(
        B.join(B.extent("Z"), B.extent("Y"), "z", "y", _on("z", "f", "y", "e")),
        B.extent("X"), "t", "x", _on("t", "d", "x", "b"),
    )


def _example(text):
    def build():
        db = example_database()
        schema = example_schema()
        catalog = _catalog(db)
        chosen = optimize(compile_oosql(text, schema), schema, catalog=catalog)
        return plan_query(chosen.expr, catalog)

    return build


def _planned(make_db, expr, workers=0, **layout):
    def build():
        return plan_query(expr, _catalog(make_db(), **layout), parallel_workers=workers)

    return build


def _emitting():
    text = "select (v = x.v, w = y.w) from x in X, y in Y where x.a = y.d"
    expr = Optimizer(FLAT_TYPES).optimize(compile_oosql(text, FLAT_TYPES)).expr
    return plan_query(expr, _catalog(flat_db()))


def _stitch(n, workers=0, parts=0):
    def build():
        shredded = shred_expr(figure3_nestjoin(), Optimizer(TYPES).ctx)
        layout = [("X", "b", parts), ("Y", "d", parts)] if parts else []
        catalog = _catalog(nest_db(n), partitions=layout)
        return plan_query(shredded, catalog, parallel_workers=workers)

    return build


def cases():
    """Case name -> a thunk planning it."""
    out = {
        f"oosql/{name}": _example(text) for name, text in sorted(OOSQL_EXAMPLES.items())
    }
    indexed = dict(indexes=[("BIG", "d")])
    out.update(
        {
            "index_scan": _planned(
                skew_db, B.sel("y", B.eq(B.attr(Y, "d"), 3), B.extent("BIG")), **indexed
            ),
            "index_scan_under_map": _planned(
                skew_db,
                B.amap("y", B.attr(Y, "e"), B.sel("y", B.eq(B.attr(Y, "d"), 3), B.extent("BIG"))),
                **indexed,
            ),
            "inlj": _planned(
                skew_db, B.join(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ), **indexed
            ),
            "inlj_pushed_selection": _planned(
                skew_db,
                B.join(
                    B.extent("SMALL"),
                    B.sel("b", B.lt(B.attr(B.var("b"), "e"), 300), B.extent("BIG")),
                    "x", "y", EQ,
                ),
                **indexed,
            ),
            "inlj_semijoin_under_map": _planned(
                skew_db,
                B.amap("x", B.attr(X, "i"), B.semijoin(
                    B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ)),
                **indexed,
            ),
            "hash_build_left": _planned(
                skew_db, B.join(B.extent("SMALL"), B.extent("BIG"), "x", "y", EQ)
            ),
            "hash_build_right": _planned(
                skew_db,
                B.join(B.extent("BIG"), B.extent("SMALL"), "y", "x",
                       B.eq(B.attr(Y, "d"), B.attr(X, "a"))),
            ),
            "hash_semijoin_under_map": _planned(
                skew_db,
                B.amap("x", B.attr(X, "i"), B.semijoin(
                    B.sel("x", B.lt(B.attr(X, "i"), 6), B.extent("SMALL")),
                    B.sel("y", B.lt(B.attr(Y, "e"), 100), B.extent("BIG")),
                    "x", "y", EQ,
                )),
            ),
            "membership": _planned(
                skew_db,
                B.semijoin(B.extent("SMALL"), B.extent("BIG"), "x", "y",
                           B.member(B.attr(Y, "e"), B.attr(X, "c"))),
            ),
            "nested_loops": _planned(
                skew_db,
                B.antijoin(B.extent("SMALL"), B.extent("BIG"), "x", "y",
                           B.lt(B.attr(X, "a"), B.attr(Y, "e"))),
            ),
            "emitting_join": _emitting,
            "stitch_serial": _stitch(40),
            "stitch_partition_wise": _stitch(3000, workers=2, parts=2),
            "partition_wise_gather": _planned(
                big_db,
                B.join(B.extent("X"), B.extent("Y"), "x", "y", EQ),
                workers=2,
                partitions=[("X", "a", 2), ("Y", "d", 2)],
            ),
            "broadcast_gather": _planned(
                big_db,
                B.amap("x", B.attr(X, "v"), B.semijoin(
                    B.extent("X"),
                    B.sel("s", B.lt(B.attr(B.var("s"), "t"), 2), B.extent("S")),
                    "x", "s", B.eq(B.attr(X, "b"), B.attr(B.var("s"), "k")),
                )),
                workers=2,
                partitions=[("X", "a", 2)],
            ),
            "join_order_kept": _planned(chain_db, chain_xyz()),
            "join_order_reordered": _planned(chain_db, chain_zyx()),
        }
    )
    return out


def current_records() -> dict:
    return {name: build().explain().splitlines() for name, build in sorted(cases().items())}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current() -> dict:
    return current_records()


def test_corpus_is_unchanged(golden, current):
    assert sorted(current) == sorted(golden)


@pytest.mark.parametrize("name", sorted(cases()))
def test_explain_is_byte_identical(golden, current, name):
    assert current[name] == golden[name]


if __name__ == "__main__":
    print(json.dumps(current_records(), indent=1, ensure_ascii=False))
