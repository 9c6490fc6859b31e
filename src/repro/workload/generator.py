"""Synthetic workload generation for benchmarks and property tests.

Two families:

* :func:`generate_database` — populates the Section 2 OOSQL schema at a
  configurable scale (the storage-backed benchmarks);
* :func:`generate_xy` / :func:`generate_flat` — flat and nested X/Y tables
  with controlled match fraction and fan-out (the algebra-level sweeps and
  hypothesis-style randomized equivalence checks).

All generation is seeded and deterministic.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.datamodel.values import VTuple, vset
from repro.storage.store import Database, MemoryDatabase
from repro.workload.paper_db import _COLORS, example_schema


def generate_database(
    n_parts: int = 50,
    n_suppliers: int = 20,
    parts_per_supplier: int = 5,
    n_deliveries: int = 30,
    seed: int = 0,
    page_size: int = 4096,
    empty_supplier_fraction: float = 0.1,
) -> Database:
    """A seeded population of the Section 2 supplier–part–delivery schema.

    ``empty_supplier_fraction`` of suppliers supply nothing — the dangling
    tuples that make the COUNT/Complex-Object bug observable at scale.
    """
    rng = random.Random(seed)
    db = Database(example_schema(), page_size=page_size)
    part_oids = [
        db.insert(
            "Part",
            {
                "pname": f"p{i}",
                "price": rng.randint(1, 100),
                "color": rng.choice(_COLORS),
            },
        )
        for i in range(n_parts)
    ]
    supplier_oids = []
    for i in range(n_suppliers):
        if rng.random() < empty_supplier_fraction:
            supplied: List = []
        else:
            count = rng.randint(1, max(1, parts_per_supplier * 2 - 1))
            supplied = rng.sample(part_oids, min(count, len(part_oids)))
        supplier_oids.append(
            db.insert(
                "Supplier",
                {"sname": f"s{i}", "parts_supplied": vset(*supplied)},
            )
        )
    for i in range(n_deliveries):
        supplier = rng.choice(supplier_oids)
        size = rng.randint(1, 4)
        supply = vset(
            *(
                VTuple(part=rng.choice(part_oids), quantity=rng.randint(1, 500))
                for _ in range(size)
            )
        )
        db.insert(
            "Delivery",
            {"supplier": supplier, "supply": supply, "date": 940101 + rng.randint(0, 364)},
        )
    return db


def generate_flat(
    n: int,
    attrs: Tuple[str, ...],
    domain: int,
    seed: int = 0,
) -> List[VTuple]:
    """``n`` distinct flat tuples with integer attributes drawn from
    ``range(domain)``."""
    rng = random.Random(seed)
    rows = set()
    guard = 0
    while len(rows) < n:
        rows.add(VTuple({a: rng.randrange(domain) for a in attrs}))
        guard += 1
        if guard > 100 * n + 100:
            raise ValueError(
                f"domain {domain} too small to draw {n} distinct tuples over {attrs}"
            )
    return sorted(rows, key=lambda t: tuple(t[a] for a in attrs))


def generate_xy(
    nx: int,
    ny: int,
    key_domain: Optional[int] = None,
    fanout_attr: bool = False,
    max_fanout: int = 3,
    seed: int = 0,
) -> MemoryDatabase:
    """Flat-ish X/Y tables for join-vs-nested-loop sweeps.

    ``X`` tuples have a join attribute ``a`` (and, when ``fanout_attr`` is
    set, a set-valued attribute ``c`` holding up to ``max_fanout``
    ``(d, e)``-tuples); ``Y`` tuples are ``(d, e)`` with ``d`` drawn from
    the same key domain, so selectivity is controlled by ``key_domain``.
    """
    rng = random.Random(seed)
    domain = key_domain if key_domain is not None else max(nx, ny)
    y_rows = generate_flat(ny, ("d", "e"), domain, seed=seed + 1)
    x_rows = []
    for i in range(nx):
        key = rng.randrange(domain)
        if fanout_attr:
            fanout = rng.randint(0, max_fanout)
            members = vset(
                *(
                    VTuple(d=rng.randrange(domain), e=rng.randrange(domain))
                    for _ in range(fanout)
                )
            )
            x_rows.append(VTuple(a=key, i=i, c=members))
        else:
            x_rows.append(VTuple(a=key, i=i))
    return MemoryDatabase({"X": x_rows, "Y": y_rows})
