"""The query service end to end: the paper's database behind sessions,
prepared statements, and the parameterized plan cache.

Walks through:

1. **Prepared statements** — the Section 4 supplier/part query with a
   ``$maxprice`` placeholder, executed under several bindings: one
   compilation, one cached plan, parameters bound per call.
2. **Cache hits and misses** — same query in a second spelling (the shape
   key is the normalized parse tree, so whitespace/case/comments don't
   matter), then a ``Catalog.analyze()`` bump showing invalidation and
   re-optimization.
3. **Index-aware replanning** — ``create_index()`` bumps the catalog
   version; the replanned statement switches from a scan to an index
   probe, visible in ``explain()``.
4. **Concurrent sessions with per-session stats** — four sessions issue
   interleaved parameterized queries with ``execute_async`` (the worker
   pool; a plain ``execute`` runs on the caller's thread under the same
   admission limits); results stay oracle-consistent and every session
   reports its own counters.

Run:  PYTHONPATH=src python examples/query_service.py
"""

from concurrent.futures import wait

from repro.service import QueryService
from repro.storage import Catalog
from repro.workload.paper_db import section4_catalog, section4_database

SUPPLIER_QUERY = (
    "select s.sname from s in SUPPLIER where exists p in PART : "
    "(exists y in s.parts : y.pid = p.pid) and p.price < $maxprice"
)


def banner(title):
    print("=" * 72)
    print(title)
    print("=" * 72)


def main():
    db = section4_database()
    catalog = Catalog(db)
    catalog.analyze()

    with QueryService(db, section4_catalog(), catalog, max_workers=4) as service:
        banner("1. Prepared statements — one plan, many bindings")
        session = service.session()
        statement = session.prepare(SUPPLIER_QUERY)
        print(f"prepared: {statement!r}")
        for maxprice in (11, 12, 14, 100):
            result = statement.execute(maxprice=maxprice)
            print(
                f"  $maxprice={maxprice:<4} -> {sorted(result.rows)!r:30} "
                f"cache_hit={result.cache_hit}  option={result.option}"
            )
        print(f"compilations so far: {service.stats()['compilations']}")

        banner("2. Shape normalization and catalog-version invalidation")
        respelled = (
            "SELECT s.sname FROM s IN SUPPLIER WHERE exists p in PART : "
            "(exists y in s.parts : y.pid = p.pid) and (p.price < $maxprice) -- same shape"
        )
        r = session.execute(respelled, {"maxprice": 12})
        print(f"different spelling, same shape -> cache_hit={r.cache_hit}")
        version = catalog.version
        catalog.analyze()
        print(f"catalog.analyze(): version {version} -> {catalog.version}")
        r = statement.execute(maxprice=12)
        print(f"first call after the bump    -> cache_hit={r.cache_hit} (re-optimized)")
        r = statement.execute(maxprice=12)
        print(f"second call after the bump   -> cache_hit={r.cache_hit}")
        print(f"cache counters: {service.stats()['cache']}")

        banner("3. create_index() forces a replan that uses the index")
        lookup = "select p.pname from p in PART where p.price = $price"
        service.execute(lookup, {"price": 12})
        print("before:", service.explain(lookup).splitlines()[-1].strip())
        catalog.create_index("PART", "price")
        r = service.execute(lookup, {"price": 12})
        print("after: ", service.explain(lookup).splitlines()[-1].strip())
        print(f"replanned (cache_hit={r.cache_hit}), "
              f"index_probes={r.stats['index_probes']}, rows={sorted(r.rows)}")

        banner("4. Concurrent sessions, per-session stats")
        sessions = [service.session() for _ in range(4)]
        futures = [
            s.execute_async(SUPPLIER_QUERY, {"maxprice": 10 + i + j})
            for i, s in enumerate(sessions)
            for j in (0, 2, 90)
        ]
        wait(futures)
        for s in sessions:
            stats = s.stats
            print(
                f"  {s.id}: queries={stats['queries']} "
                f"cache_hits={stats['cache_hits']} "
                f"predicate_evals={stats['work']['predicate_evals']} "
                f"wall={stats['wall_s'] * 1e3:.2f}ms"
            )
        totals = service.stats()
        print(
            f"service: executed={totals['executed']} "
            f"compilations={totals['compilations']} "
            f"peak_in_flight={totals['peak_in_flight']} "
            f"cache={totals['cache']}"
        )


if __name__ == "__main__":
    main()
