"""One compile pipeline: ``compile_oosql`` → ``optimize`` → ``plan_query``.

``optimize`` plans each distinct rewrite candidate once and ranks the
candidates by their plans' prices, so a candidate costs what its plan
costs and the service caches the chosen candidate's plan as it is.
Every explain surface — ``QueryService.explain``, a warm-start restore,
``Executor.explain`` and ``explain_analyze`` — renders the plan that one
pipeline builds, join-order headers included; the service's construction
refuses what it could never run; and a cold compile leaves no reference
cycles for the collector.
"""

import gc
import json

import pytest

import repro.engine.planner as planner_module

from repro.adl import builders as B
from repro.adl.pretty import pretty
from repro.datamodel import INT, Catalog as TypeCatalog, SetType, TupleType, VTuple
from repro.datamodel.errors import ServiceError
from repro.engine.plan import DEFAULT_BATCH_SIZE
from repro.engine.planner import Executor, plan_query
from repro.rewrite.strategy import optimize
from repro.service import QueryService
from repro.storage import Catalog, MemoryDatabase
from repro.translate import compile_oosql
from repro.workload import example_database, example_schema
from repro.workload.queries import OOSQL_EXAMPLES
from tests.rewrite.derivations import SEED, all_cases

TYPES = TypeCatalog(
    {
        "X": SetType(TupleType({"a": INT, "b": INT})),
        "Y": SetType(TupleType({"d": INT, "e": INT})),
        "Z": SetType(TupleType({"f": INT, "g": INT})),
    }
)

#: a nestjoin the optimizer shreds over :func:`xyz_store`'s partitioned
#: operands with four workers
SHREDDED = "select (a = x.a, ys = select y.e from y in Y where x.b = y.d) from x in X"
#: three leaves chained by two quantifiers
CHAIN_TEXT = (
    "select x.b from x in X where exists y in Y : x.b = y.d "
    "and exists z in Z : y.e = z.f"
)


def xyz_store(n=200):
    db = MemoryDatabase(
        {
            "X": [VTuple(a=i % 7, b=i) for i in range(n)],
            "Y": [VTuple(d=i % (4 * n), e=i % 5) for i in range(8 * n)],
            "Z": [VTuple(f=i % 5, g=i) for i in range(10)],
        }
    )
    catalog = Catalog(db)
    catalog.analyze()
    catalog.partition("X", "b", 4)
    catalog.partition("Y", "d", 4)
    return db, catalog


def chain():
    """A hand-built 3-leaf equi-join chain ``(X ⋈ Y) ⋈ Z``."""
    return B.join(
        B.join(
            B.extent("X"), B.extent("Y"), "x", "y",
            B.eq(B.attr(B.var("x"), "b"), B.attr(B.var("y"), "d")),
        ),
        B.extent("Z"), "t", "z",
        B.eq(B.attr(B.var("t"), "e"), B.attr(B.var("z"), "f")),
    )


def paper_service():
    db = example_database()
    catalog = Catalog(db)
    catalog.analyze()
    return QueryService(db, example_schema(), catalog, cache_size=0)


def test_cold_compiles_leave_no_cyclic_garbage():
    paper = paper_service()
    db, catalog = xyz_store()
    xyz = QueryService(
        db, TYPES, catalog, cache_size=0, parallel_workers=4, parallel_mode="inline"
    )
    assert xyz._compile(SHREDDED, ()).option == "shredded"
    compiles = [(paper, text) for text in OOSQL_EXAMPLES.values()]
    compiles += [(xyz, SHREDDED), (xyz, CHAIN_TEXT)]
    gc.collect()
    gc.disable()
    try:
        for svc, text in compiles:
            svc.explain(text)
        # a hand-built chain exercises the join-order walk end to end
        assert plan_query(chain(), catalog).join_orders
        assert gc.collect() == 0
    finally:
        gc.enable()
        paper.close()
        xyz.close()


@pytest.mark.parametrize("name", sorted(OOSQL_EXAMPLES))
def test_service_explain_is_the_executor_explain_of_the_optimized_adl(name):
    text = OOSQL_EXAMPLES[name]
    with paper_service() as svc:
        chosen = optimize(compile_oosql(text, svc.schema), svc.schema, catalog=svc.catalog)
        expected = Executor(svc.db, catalog=svc.catalog).explain(chosen.expr)
        assert svc.explain(text) == expected


def test_a_hand_built_chain_shows_its_join_order_on_every_executor_surface():
    db, catalog = xyz_store()
    ex = Executor(db, catalog=catalog)
    text = ex.explain(chain())
    assert text.startswith("-- join order: ")
    analyzed = ex.explain_analyze(chain())
    assert analyzed.text.splitlines()[0] == text.splitlines()[0]
    assert analyzed.rows == ex.execute(chain())
    assert len(ex.plan(chain()).join_orders) == 1


def test_a_restored_chain_shows_its_join_order_through_the_service(tmp_path):
    """A warm-start entry re-plans through the same planning phase as a
    compile, so the service's explain carries the decision header."""
    path = str(tmp_path / "plans.json")
    db, catalog = xyz_store()
    with QueryService(db, TYPES, catalog, cache_persist_path=path) as svc:
        svc.explain(CHAIN_TEXT)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    (entry,) = payload["entries"]
    entry["adl"] = pretty(chain())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with QueryService(db, TYPES, catalog, cache_persist_path=path) as svc:
        assert svc.warm_restored == 1
        assert svc.explain(CHAIN_TEXT) == Executor(db, catalog=catalog).explain(chain())
        assert svc.explain(CHAIN_TEXT).startswith("-- join order: ")
        result = svc.execute(CHAIN_TEXT, analyze=True)
        assert result.analyze.splitlines()[0] == svc.explain(CHAIN_TEXT).splitlines()[0]


def test_an_unknown_parallel_mode_is_refused_at_construction():
    with pytest.raises(ServiceError, match="unknown parallel mode 'bogus'"):
        QueryService(MemoryDatabase({}), parallel_workers=2, parallel_mode="bogus")


@pytest.mark.parametrize("knob", [{"reorder": False}, {"batch_size": 4}])
def test_the_service_has_no_reorder_or_batch_size_knob(knob):
    with pytest.raises(TypeError):
        QueryService(MemoryDatabase({}), **knob)


def test_the_batch_size_is_the_read_only_default():
    with QueryService(MemoryDatabase({})) as svc:
        assert svc.batch_size == DEFAULT_BATCH_SIZE
        assert svc.stats()["batch"]["batch_size"] == DEFAULT_BATCH_SIZE
        with pytest.raises(AttributeError):
            svc.batch_size = 4


# ---------------------------------------------------------------------------
# a candidate costs what its plan costs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def priced_derivations():
    """Every derivation case with a catalog: name -> (optimizer, result)."""
    out = {}
    for name, adl, make in all_cases():
        optimizer = make()
        if optimizer.catalog is not None:
            out[name] = (optimizer, optimizer.optimize(adl))
    assert out
    return out


def _planned(optimizer, expr):
    return plan_query(expr, optimizer.catalog, parallel_workers=optimizer.parallel_workers)


def test_every_priced_attempt_costs_its_plan(priced_derivations):
    for name, (optimizer, result) in priced_derivations.items():
        for attempt in result.attempts:
            if attempt.est_cost is not None:
                planned = _planned(optimizer, attempt.expr).est_cost
                assert attempt.est_cost == planned, (name, attempt.option)


def test_the_result_carries_the_chosen_candidates_plan(priced_derivations):
    for name, (optimizer, result) in priced_derivations.items():
        expected = _planned(optimizer, result.expr).explain()
        assert result.plan.explain() == expected, name


def _bench_shapes():
    """``(name, store, text)`` of every bench shape, as the derivation
    corpus compiles them."""
    from bench.workloads import WORKLOADS

    for wname, workload in sorted(WORKLOADS.items()):
        inputs = workload.small(SEED)
        system = workload.load_small(inputs)
        try:
            for shape in inputs.shapes:
                yield f"{wname}/{shape.name}", system.stores[shape.store], shape.text
        finally:
            system.close()


def test_a_cold_compile_runs_the_join_order_dp_once_per_distinct_candidate(monkeypatch):
    runs = []
    real = planner_module.reorder_joins

    def spy(*args, **kwargs):
        runs.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(planner_module, "reorder_joins", spy)
    seen = {}
    for name, store, text in _bench_shapes():
        result = optimize(compile_oosql(text, store.schema), store.schema, catalog=store.catalog)
        distinct = {a.expr for a in result.attempts if a.est_cost is not None}
        distinct.add(result.expr)
        del runs[:]
        with QueryService(store.db, store.schema, store.catalog, cache_size=0) as svc:
            svc.explain(text)
        assert len(runs) == len(distinct), name
        seen[name] = (sum(a.est_cost is not None for a in result.attempts), len(runs))
    # four equal candidates, one plan
    assert seen["compile_cold/example_3_1"] == (4, 1)


def _three_way():
    """ROADMAP item 1's 3-way from-clause at 90 / 60 / 40 rows, its types
    and an analyzed catalog: every rewrite option fails on it and the
    nested-loop fallback is chosen."""
    types = TypeCatalog(
        {
            "X": SetType(TupleType({"a": INT, "b": INT})),
            "Y": SetType(TupleType({"d": INT, "e": INT})),
            "W": SetType(TupleType({"g": INT})),
        }
    )
    db = MemoryDatabase(
        {
            "X": [VTuple(a=i % 3, b=i) for i in range(90)],
            "Y": [VTuple(d=i % 3, e=i) for i in range(60)],
            "W": [VTuple(g=i) for i in range(40)],
        }
    )
    catalog = Catalog(db)
    catalog.analyze()
    text = "select x.b from x in X, y in Y, w in W where x.a = y.d and y.e = w.g"
    return compile_oosql(text, types), types, catalog


def test_the_chosen_nested_loop_fallback_carries_its_plans_price():
    adl, types, catalog = _three_way()
    result = optimize(adl, types, catalog=catalog)
    assert result.option.startswith("nested-loop")
    assert result.chosen.est_cost is not None
    assert result.chosen.est_cost == result.plan.est_cost
    # the price shows in the attempt list, on the attempt whose plan it is
    (priced,) = [a for a in result.attempts if a.est_cost is not None]
    assert priced.expr == result.expr
    assert priced.est_cost == result.plan.est_cost


def test_without_a_catalog_the_fallback_stays_unpriced():
    adl, types, _ = _three_way()
    result = optimize(adl, types)
    assert result.option.startswith("nested-loop")
    assert result.chosen.est_cost is None
    assert all(a.est_cost is None for a in result.attempts)
