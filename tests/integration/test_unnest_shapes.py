"""A regression guard on the paper's nested shapes: the semijoin, the
antijoin, the nestjoin, the COUNT-bug query, the Figure 1 subset query
and Example 5's attribute unnest, each as OOSQL text through
``QueryService`` over a small generated ``X(a, b, c)`` / ``Y(d, e)``.

Every run must return the rows the reference interpreter computes on the
*unrewritten* translation, and run batch-native end to end: no kernel
may fall back to the tuple-wise closure (``vector_fallbacks == 0``).
"""

import random

import pytest

from repro.datamodel import INT, Catalog as TypeCatalog, SetType, TupleType, VTuple
from repro.engine.interpreter import Interpreter
from repro.engine.stats import Stats
from repro.service import QueryService
from repro.storage import Catalog, MemoryDatabase
from repro.translate import compile_oosql

Y_ROW = TupleType({"d": INT, "e": INT})
TYPES = TypeCatalog(
    {
        "X": SetType(TupleType({"a": INT, "b": INT, "c": SetType(Y_ROW)})),
        "Y": SetType(Y_ROW),
    }
)

#: the six query texts of the ``unnest_warm`` workload
SHAPES = {
    "semijoin": "select x.b from x in X where x.b < $k and exists y in Y : x.a = y.d and y.e < $m",
    "antijoin": "select x.b from x in X where x.b < $k and not exists y in Y : x.a = y.d and y.e < $m",
    "nestjoin": "select (b = x.b, ys = select y.e from y in Y where x.a = y.d) from x in X where x.b < $k",
    "count_sub": "select (b = x.b, n = count(select y from y in Y where x.a = y.d)) from x in X where x.b < $k",
    "subset": "select x.b from x in X where x.b < $k and x.c subseteq (select y from y in Y where x.a = y.d)",
    "attr_unnest": "select x.b from x in X where exists z in x.c : z in (select y from y in Y where y.e < $m)",
}

#: the physical operator each shape's nested block must plan to
NESTED_OPERATOR = {
    "semijoin": "HashJoin(semijoin)",
    "antijoin": "HashJoin(antijoin)",
    "nestjoin": "HashJoin(nestjoin)",
    "count_sub": "HashJoin(nestjoin)",
    "subset": "HashJoin(nestjoin)",
    "attr_unnest": "MembershipHashJoin(semijoin)",
}


def xy_store(n=200, domain=50, seed=3):
    """``n`` X and ``n`` Y rows: every key of ``range(domain)`` has
    ``n / domain`` Y rows, 30 % of X rows dangle, ``c`` sizes cycle 0..3
    (a quarter empty) and even rows draw ``c`` from their own key's Y rows,
    so ``x.c ⊆ ys`` holds for some rows and fails for others."""
    rng = random.Random(seed)
    e_values = list(range(n))
    rng.shuffle(e_values)
    ys = [VTuple(d=j % domain, e=e_values[j]) for j in range(n)]
    by_d = {}
    for y in ys:
        by_d.setdefault(y["d"], []).append(y)
    dangling = int(n * 0.3)
    keys = [domain + i for i in range(dangling)] + [i % domain for i in range(n - dangling)]
    rng.shuffle(keys)
    xs = []
    for i, key in enumerate(keys):
        pool = by_d.get(key) if i % 2 == 0 and key in by_d else ys
        c = frozenset(rng.sample(pool, min(i % 4, len(pool))))
        xs.append(VTuple(a=key, b=i, c=c))
    db = MemoryDatabase({"X": xs, "Y": ys})
    catalog = Catalog(db)
    catalog.analyze()
    return db, catalog


@pytest.fixture(scope="module")
def service():
    db, catalog = xy_store()
    with QueryService(db, TYPES, catalog) as svc:
        yield db, svc


@pytest.mark.parametrize("params", [{"k": 160, "m": 150}, {"k": 40, "m": 20}])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_nested_shape_is_oracle_equal_and_batch_native(service, name, params):
    db, svc = service
    text = SHAPES[name]
    bound = {p: v for p, v in params.items() if f"${p}" in text}
    assert NESTED_OPERATOR[name] in svc.explain(text)
    oracle = Interpreter(db, Stats(), bound).eval(compile_oosql(text, TYPES))
    for _ in range(2):  # a cold and a warm (cached plan, reused runtime) run
        result = svc.execute(text, bound)
        assert result.rows == oracle, name
        assert result.stats["vector_fallbacks"] == 0, name
        assert result.stats["batches_emitted"] > 0, name
