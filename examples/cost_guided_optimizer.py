"""Cost-guided optimization end to end: rewrite ranking + join reordering.

Loads the paper's Section 4 database, registers a statistics catalog, and
shows — for one paper query and for a multi-join chain — what changes when
the optimizer's decisions flow through the cost model:

1. **Rewrite selection** (Example Query 5, "suppliers supplying red
   parts"): without a catalog the Section 4 strategy takes the *first*
   option that succeeds; with one, every successful pipeline is priced
   and the cheapest wins, with the per-candidate estimates recorded on
   the trace.
2. **Join ordering** (a 4-extent chain with skewed cardinalities):
   ``explain()`` before (``reorder=False`` — the rewriter's left-to-right
   order) and after (DP join reordering), including the
   ``-- join order:`` header with both orders' estimated costs.
3. **Index joins in the join order** (a 3-extent region whose filtered
   extent is indexed): the DP and the physical planner price a join from
   one list of alternatives, so a pushed-down conjunct stacked on the
   filtered extent still lets the reordered plan probe its index; a
   region already in its cheapest order keeps the rewriter's tree.

Run:  PYTHONPATH=src python examples/cost_guided_optimizer.py
"""

from repro.adl import builders as B
from repro.datamodel import VTuple
from repro.engine.interpreter import Interpreter
from repro.engine.planner import Executor
from repro.rewrite.strategy import Optimizer
from repro.storage import Catalog, MemoryDatabase
from repro.workload.paper_db import section4_catalog, section4_database
from repro.workload.queries import example_query_5


def banner(title):
    print("=" * 72)
    print(title)
    print("=" * 72)


def paper_query_tour():
    banner("1. Cost-ranked rewrite selection — Example Query 5")
    db = section4_database()
    catalog = Catalog(db)
    catalog.analyze()
    query = example_query_5()

    before = Optimizer(section4_catalog()).optimize(query)
    print(f"before (paper priority order): option={before.option}, "
          f"attempts run: {len(before.attempts)}")

    after = Optimizer(section4_catalog(), catalog=catalog).optimize(query)
    print(f"after (cost-ranked):           option={after.option}, "
          f"attempts run: {len(after.attempts)}")
    print("per-candidate estimated costs:")
    for option, cost in after.candidate_costs.items():
        print(f"  {option:12s} {'—' if cost is None else f'≈{cost:.0f}'}")
    for note in after.chosen.trace.notes:
        print(f"  note: {note}")

    print("\nphysical plan of the chosen rewrite (cost-based planner):")
    print(Executor(db, catalog=catalog).explain(after.expr))
    result = Executor(db, catalog=catalog).execute(after.expr)
    oracle = Interpreter(db).eval(query)
    print(f"\nresult matches the un-rewritten query: {result == oracle} "
          f"({len(result)} suppliers)")
    print()


def join_reordering_tour():
    banner("2. DP join reordering — 4-extent chain, skewed cardinalities")
    db = MemoryDatabase(
        {
            "R1": [VTuple(a1=i % 50, i1=i) for i in range(400)],
            "R2": [VTuple(a2=i % 50, b2=i % 40, i2=i) for i in range(400)],
            "R3": [VTuple(b3=i % 40, c3=i % 20, i3=i) for i in range(30)],
            "R4": [VTuple(c4=i % 20, i4=i) for i in range(6)],
        }
    )
    catalog = Catalog(db)
    catalog.analyze()

    def av(var, attr):
        return B.attr(B.var(var), attr)

    chain = B.join(
        B.join(
            B.join(B.extent("R1"), B.extent("R2"), "x", "y",
                   B.eq(av("x", "a1"), av("y", "a2"))),
            B.extent("R3"), "t", "z", B.eq(av("t", "b2"), av("z", "b3")),
        ),
        B.extent("R4"), "u", "w", B.eq(av("u", "c3"), av("w", "c4")),
    )

    unordered = Executor(db, catalog=catalog, reorder=False)
    reordered = Executor(db, catalog=catalog)

    print("before — the rewriter's left-to-right order (reorder=False):")
    print(unordered.explain(chain))
    print("\nafter — DP join reordering (the default with a catalog):")
    print(reordered.explain(chain))

    same = unordered.execute(chain) == reordered.execute(chain)
    print(f"\nboth orders produce identical results: {same}")


def index_join_order_tour():
    banner("3. Index joins in the join order — a selection stacked on an index")
    db = MemoryDatabase(
        {
            "R1": [VTuple(a1=i % 50) for i in range(5)],
            "R2": [VTuple(a2=i % 50, b2=i) for i in range(200)],
            "R3": [VTuple(b3=i, c3=i % 7, i3=i) for i in range(4000)],
        }
    )
    catalog = Catalog(db)
    catalog.analyze()
    catalog.create_index("R3", "b3")

    def av(var, attr):
        return B.attr(B.var(var), attr)

    # t.i3 >= 0 names R3 only: the DP pushes it onto R3's filtered leaf
    region = B.join(
        B.join(
            B.sel("z", B.lt(av("z", "c3"), 5), B.extent("R3")), B.extent("R2"),
            "z", "y", B.eq(av("z", "b3"), av("y", "b2")),
        ),
        B.extent("R1"), "t", "x",
        B.conj(B.eq(av("t", "a2"), av("x", "a1")), B.ge(av("t", "i3"), 0)),
    )
    reordered = Executor(db, catalog=catalog)
    print(reordered.explain(region))
    same = reordered.execute(region) == Executor(
        db, catalog=catalog, reorder=False).execute(region)
    print(f"\nidentical to the rewriter's order: {same}")

    kept = B.join(
        B.join(B.extent("R1"), B.extent("R2"), "x", "y",
               B.eq(av("x", "a1"), av("y", "a2"))),
        B.extent("R3"), "t", "z", B.eq(av("t", "b2"), av("z", "b3")),
    )
    print("\nalready cheapest — the rewriter's tree is kept:")
    print(reordered.explain(kept))


def main():
    paper_query_tour()
    join_reordering_tour()
    index_join_order_tour()


if __name__ == "__main__":
    main()
