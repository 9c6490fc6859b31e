"""The optimizer corpus shared by the derivation tests.

Every case is one ``Optimizer.optimize()`` call: the bench query texts of
every workload (over the workload's own schema and analyzed catalog, the
way ``QueryService`` compiles them) plus the paper's examples, each with a
schema, without one, and — for the OOSQL examples — with the
materialize post-pass.  :func:`derivation_record` is the byte-exact
summary ``golden_derivations.json`` holds for each case.
"""

from __future__ import annotations

from typing import Callable, Iterator, Tuple

from repro.adl import ast as A
from repro.adl.pretty import pretty
from repro.rewrite.strategy import OptimizationResult, Optimizer

#: bench seed the workload stores are generated from (``bench/run.py``'s default)
SEED = 1

Case = Tuple[str, A.Expr, Callable[[], Optimizer]]


def bench_cases() -> Iterator[Case]:
    """Every bench shape, compiled and optimized as the service would."""
    from bench.workloads import WORKLOADS
    from repro.translate.translator import compile_oosql

    for wname, workload in sorted(WORKLOADS.items()):
        inputs = workload.small(SEED)
        system = workload.load_small(inputs)
        try:
            for shape in inputs.shapes:
                store = system.stores[shape.store]
                adl = compile_oosql(shape.text, store.schema)
                yield (
                    f"{wname}/{shape.name}",
                    adl,
                    lambda s=store: Optimizer(s.schema, catalog=s.catalog),
                )
        finally:
            system.close()


def paper_cases() -> Iterator[Case]:
    """``OOSQL_EXAMPLES`` and ``ALGEBRA_EXAMPLES``, with and without a schema."""
    from repro.translate.translator import compile_oosql
    from repro.workload.paper_db import example_schema, section4_catalog
    from repro.workload.queries import ALGEBRA_EXAMPLES, OOSQL_EXAMPLES

    schema = example_schema()
    for name, text in sorted(OOSQL_EXAMPLES.items()):
        adl = compile_oosql(text, schema)
        yield f"oosql/{name}", adl, lambda: Optimizer(schema)
        yield f"oosql/{name}/no-schema", adl, lambda: Optimizer()
        yield (
            f"oosql/{name}/materialize",
            adl,
            lambda: Optimizer(schema, introduce_materialize=True),
        )
    s4 = section4_catalog()
    for example in ALGEBRA_EXAMPLES:
        adl = example.build()
        yield f"algebra/{example.name}", adl, lambda: Optimizer(s4)
        yield f"algebra/{example.name}/no-schema", adl, lambda: Optimizer()


def all_cases() -> Iterator[Case]:
    yield from bench_cases()
    yield from paper_cases()


def derivation_record(result: OptimizationResult) -> dict:
    """What must not move when the rewrite engine is made faster."""
    return {
        "option": result.option,
        "expr": pretty(result.expr),
        "candidates_priced": sum(a.est_cost is not None for a in result.attempts),
        "attempts": [
            {
                "option": a.option,
                "rules": [f"{s.phase}:{s.rule}" for s in a.trace.steps],
                "est_cost": a.est_cost,
            }
            for a in result.attempts
        ],
        "render": result.render(),
    }


def trees_seen(result: OptimizationResult) -> Iterator[A.Expr]:
    """Every whole expression the optimizer held: the input, the normal
    form, each attempt's result and both sides of every firing."""
    yield result.original
    yield result.normalized
    for attempt in result.attempts:
        yield attempt.expr
        for step in attempt.trace.steps:
            yield step.before
            yield step.after

