"""repro — a reproduction of *From Nested-Loop to Join Queries in OODB*
(Steenhagen, Apers, Blanken, de By; VLDB 1994).

The package implements the paper's full stack:

* :mod:`repro.datamodel` — complex-object values, types, OODB schemas;
* :mod:`repro.storage` — a paged object store with I/O accounting;
* :mod:`repro.oosql` — the OOSQL source language (lexer, parser, checker);
* :mod:`repro.adl` — the ADL complex-object algebra;
* :mod:`repro.translate` — the Section 3 OOSQL → ADL translation;
* :mod:`repro.rewrite` — the Section 4–6 unnesting strategy (Rule 1/2,
  Tables 1–3, grouping + the Complex Object bug, the nestjoin);
* :mod:`repro.engine` — the naive interpreter, physical operators
  (hash/sort/membership joins, nestjoin, PNHL, materialize) and planner;
* :mod:`repro.workload` — the paper's example data and benchmark harness.

Quick use — text to plan is ``compile_oosql`` → ``optimize`` →
``plan_query``, the pipeline ``QueryService`` runs per query shape::

    from repro import Executor, compile_oosql, optimize
    from repro.workload import example_schema, example_database

    schema, db = example_schema(), example_database()
    adl = compile_oosql('select s.sname from s in SUPPLIER '
                        'where exists p in PART : p.oid in s.parts_supplied',
                        schema)
    chosen = optimize(adl, schema)        # Section 4 strategy
    executor = Executor(db)               # plans through plan_query
    print(executor.explain(chosen.expr))  # join-order headers, then the tree
    result = executor.execute(chosen.expr)
"""

from repro.adl.pretty import pretty, pretty_tree
from repro.engine.interpreter import Interpreter, evaluate
from repro.engine.planner import Executor, Planner, plan_query
from repro.engine.stats import Stats
from repro.oosql.parser import parse
from repro.rewrite.strategy import OptimizationResult, Optimizer, optimize
from repro.service import PreparedStatement, QueryService, Session
from repro.translate.translator import Translator, compile_oosql, translate

__version__ = "1.0.0"

__all__ = [
    "Executor",
    "Interpreter",
    "OptimizationResult",
    "Optimizer",
    "Planner",
    "PreparedStatement",
    "QueryService",
    "Session",
    "Stats",
    "Translator",
    "__version__",
    "compile_oosql",
    "evaluate",
    "optimize",
    "parse",
    "plan_query",
    "pretty",
    "pretty_tree",
    "translate",
]
