"""Partition-parallel execution end to end: partitioning → explain →
parallel execution.

Walks through:

1. **Partitioning** — two extents hash-partitioned on their join keys
   via ``Catalog.partition()``; per-partition statistics and skew are
   inspectable on the registered :class:`PartitionedExtent`.
2. **The cost model decides** — the same join explained three ways:
   serial (no parallel executor), parallel on big co-partitioned data
   (the planner picks a partition-wise plan behind a gather exchange),
   and on the paper's tiny data (the planner provably stays serial —
   below the parallelism threshold).
3. **Fragment shipping** — what actually crosses the process boundary:
   canonical pretty-printed ADL text plus shard and parameter bindings.
4. **Parallel execution** — the fragments run on a forked 4-worker
   pool; partial results and per-worker counters merge back, and the
   work-model critical path shows the parallelism the counters bought.
5. **The service route** — ``QueryService(parallel_workers=4)`` sends
   eligible cached plans through the same pool.

Run:  PYTHONPATH=src python examples/parallel_join.py
"""

from repro.adl import builders as B
from repro.datamodel import VTuple
from repro.engine.planner import Executor
from repro.engine.stats import Stats
from repro.service import QueryService
from repro.shard import ParallelExecutor
from repro.storage import Catalog, MemoryDatabase
from repro.workload.paper_db import section4_database


def banner(title):
    print("=" * 72)
    print(title)
    print("=" * 72)


def make_join():
    return B.join(
        B.extent("X"),
        B.sel("y", B.lt(B.attr(B.var("y"), "w"), B.lit(2)), B.extent("Y")),
        "x", "y",
        B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d")),
    )


def main():
    n = 12000
    db = MemoryDatabase({
        "X": [VTuple(a=i, v=i % 100, i=i) for i in range(n)],
        "Y": [VTuple(d=i, w=i % 7) for i in range(n)],
    })
    catalog = Catalog(db)
    catalog.analyze()

    banner("1. Partition both extents on their join keys (4 shards each)")
    for extent, attr in (("X", "a"), ("Y", "d")):
        pe = catalog.partition(extent, attr, 4)
        print(f"  {pe.describe():28s} shard sizes {pe.cardinalities} "
              f"skew {pe.skew:.2f}")

    expr = make_join()
    serial = Executor(db, catalog=catalog)

    banner("2. The cost model decides: serial vs parallel plans")
    print("without a parallel executor:")
    print("  " + serial.explain(expr).splitlines()[0])
    with ParallelExecutor(db, catalog, workers=4, mode="process") as parallel:
        par_executor = Executor(db, Stats(), catalog=catalog, parallel=parallel)
        print("with 4 workers (big co-partitioned data):")
        for line in par_executor.explain(expr).splitlines():
            print("  " + line)

        paper = section4_database()
        paper_catalog = Catalog(paper)
        paper_catalog.analyze()
        paper_catalog.partition("SUPPLIER", "eid", 4)
        paper_catalog.partition("PART", "pid", 4)
        paper_join = B.join(
            B.extent("SUPPLIER"), B.extent("PART"), "s", "p",
            B.eq(B.attr(B.var("s"), "eid"), B.attr(B.var("p"), "pid")),
        )
        with ParallelExecutor(paper, paper_catalog, workers=4, mode="inline") as tiny:
            tiny_plan = Executor(paper, catalog=paper_catalog, parallel=tiny).explain(paper_join)
        print("with 4 workers but tiny (paper) data — stays serial:")
        print("  " + tiny_plan.splitlines()[0])

        banner("3. What ships to a worker: ADL text + shard bindings")
        plan = par_executor.plan(expr)
        join_node = plan.children()[0]  # the PartitionedHashJoin under the gather
        spec = join_node.payloads({})[0]
        print(f"  fragment text : {spec.text}")
        for name, ref in spec.shards:
            print(f"  {name:12s} -> shard {ref.index} of {ref.extent} "
                  f"by {ref.attr} ({ref.parts} parts)")

        banner("4. Parallel execution: merged results, merged counters")
        serial_stats = Stats()
        serial_result = Executor(db, serial_stats, catalog=catalog).execute(expr)
        parallel_result = par_executor.execute(expr)
        report = parallel.last_report
        assert parallel_result == serial_result, "parallel must match serial exactly"
        critical = report["critical_path_work"] + report["result_rows"]
        print(f"  rows (parallel == serial): {len(parallel_result)}")
        print(f"  pool mode                : {report['mode']}")
        print(f"  per-fragment work        : {report['per_fragment_work']}")
        print(f"  serial work              : {serial_stats.total_work()}")
        print(f"  parallel critical path   : {critical}")
        print(f"  work-model speedup       : "
              f"{serial_stats.total_work() / critical:.1f}x")

    banner("5. The same join through the service")
    query = "select x.i from x in X where exists y in Y : x.a = y.d and y.w < $m"
    with QueryService(db, catalog=catalog, parallel_workers=4,
                      parallel_mode="process") as service:
        print("  " + service.explain(query).splitlines()[1].strip())
        result = service.execute(query, {"m": 2})
        print(f"  rows: {len(result.rows)}  cache_hit: {result.cache_hit}")
        again = service.execute(query, {"m": 2})
        print(f"  again -> cache_hit: {again.cache_hit}, "
              f"pool stats: {service.stats()['parallel']}")


if __name__ == "__main__":
    main()
