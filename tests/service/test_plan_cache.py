"""Plan-cache behaviour: keying, LRU, and — the contract that matters —
invalidation on catalog version bumps.  A stale plan must never execute:
``analyze()`` after a data change and ``create_index()`` both bump
``Catalog.version``, and the re-optimized plan must actually reflect the
new catalog state (the index-creation test checks the replan *uses* the
index)."""

import pytest

from repro.adl import ast as A
from repro.datamodel import VTuple
from repro.engine.interpreter import evaluate
from repro.service import CachedPlan, PlanCache, QueryService, normalize_shape
from repro.storage import Catalog, MemoryDatabase


def _entry(shape: str, version: int = 0) -> CachedPlan:
    from repro.engine.plan import EvalExpr

    return CachedPlan(
        shape=shape,
        catalog_version=version,
        expr=A.Literal(frozenset()),
        plan=EvalExpr(A.Literal(frozenset())),
        param_names=(),
        option="none-needed",
        explain="Eval",
    )


# ---------------------------------------------------------------------------
# PlanCache unit behaviour
# ---------------------------------------------------------------------------


def test_hit_miss_and_counters():
    cache = PlanCache(4)
    assert cache.get("q1", 0) is None
    cache.put(_entry("q1"))
    assert cache.get("q1", 0) is not None
    assert cache.stats.misses == 1 and cache.stats.hits == 1


def test_older_entry_is_miss_and_dropped():
    cache = PlanCache(4)
    cache.put(_entry("q1", version=3))
    assert cache.get("q1", 4) is None
    assert cache.stats.invalidations == 1
    # the stale entry is gone, not resurrected at the old version
    assert cache.get("q1", 3) is None
    assert len(cache) == 0


def test_newer_entry_survives_a_stale_reader():
    """A reader whose version snapshot is behind (it raced an analyze())
    must not evict the fresher plan a concurrent compile just cached."""
    cache = PlanCache(4)
    cache.put(_entry("q1", version=5))
    assert cache.get("q1", 4) is None       # miss for the stale reader...
    assert cache.stats.invalidations == 0   # ...but no eviction
    assert cache.get("q1", 5) is not None   # the fresh plan is still there


def test_lru_eviction_order():
    cache = PlanCache(2)
    cache.put(_entry("a"))
    cache.put(_entry("b"))
    cache.get("a", 0)          # refresh a
    cache.put(_entry("c"))     # evicts b
    assert tuple(e.shape for e in cache.entries()) == ("a", "c")
    assert cache.stats.evictions == 1


def test_zero_size_disables_caching():
    cache = PlanCache(0)
    cache.put(_entry("a"))
    assert len(cache) == 0 and cache.get("a", 0) is None


def test_newer_version_entry_is_not_clobbered():
    cache = PlanCache(4)
    cache.put(_entry("q", version=5))
    cache.put(_entry("q", version=4))  # late arrival from a slow compile
    assert cache.get("q", 5) is not None


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        PlanCache(-1)


# ---------------------------------------------------------------------------
# shape normalization
# ---------------------------------------------------------------------------


def test_spellings_share_one_shape():
    variants = [
        "select x.a from x in X where x.a = $k",
        "SELECT x.a FROM x IN X WHERE (x.a = $k)",
        "select x.a\n  from x in X -- comment\n  where x.a = $k",
    ]
    shapes = {normalize_shape(v)[0] for v in variants}
    assert len(shapes) == 1
    assert normalize_shape(variants[0])[1] == ("k",)


def test_literal_differences_are_different_shapes():
    s1, _ = normalize_shape("select x.a from x in X where x.a = 1")
    s2, _ = normalize_shape("select x.a from x in X where x.a = 2")
    assert s1 != s2


def test_shape_is_remembered_per_raw_text_not_per_shape():
    # the memo sits in front of the parser: equal texts share one result
    # object, other spellings of the same shape parse once each
    text = "select x.a from x in X where x.a = $memo_probe"
    first = normalize_shape(text)
    assert normalize_shape(text) is first
    respelled = normalize_shape("SELECT x.a FROM x IN X WHERE (x.a = $memo_probe)")
    assert respelled == first and respelled is not first


def test_syntax_error_raises_on_every_call():
    from repro.datamodel.errors import ReproError

    for _ in range(3):
        with pytest.raises(ReproError):
            normalize_shape("select x.a from x in")


def test_prepared_statement_is_unaffected_by_the_shape_memo():
    db = _db()
    with QueryService(db) as svc:
        session = svc.session()
        stmt = session.prepare(QUERY)
        assert stmt.shape == normalize_shape(QUERY)[0] and stmt.param_names == ("k",)
        assert stmt.execute(k=3).rows == _oracle(db, 3)
        assert session.execute("SELECT x.b FROM x IN X WHERE (x.a = $k)", {"k": 3}).cache_hit
        assert stmt.execute({"k": 4}).rows == _oracle(db, 4)


# ---------------------------------------------------------------------------
# end-to-end invalidation through the service
# ---------------------------------------------------------------------------

QUERY = "select x.b from x in X where x.a = $k"


def _db(n=400, mod=40):
    return MemoryDatabase({"X": [VTuple(a=i % mod, b=i) for i in range(n)]})


def _oracle(db, k):
    from repro.adl import builders as B

    expr = B.sel("x", B.eq(B.attr(B.var("x"), "a"), A.Param("k")), B.extent("X"))
    return frozenset(t["b"] for t in evaluate(expr, db, params={"k": k}))


def test_analyze_after_data_change_invalidates_and_recomputes():
    db = _db()
    catalog = Catalog(db)
    catalog.analyze()
    with QueryService(db, catalog=catalog) as svc:
        first = svc.execute(QUERY, {"k": 3})
        assert frozenset(first.rows) == _oracle(db, 3)
        warm = svc.execute(QUERY, {"k": 3})
        assert warm.cache_hit

        # change the data, re-ANALYZE: the version bump must drop the plan
        db.set_extent("X", [VTuple(a=i % 7, b=i * 10) for i in range(210)])
        version_before = catalog.version
        catalog.analyze()
        assert catalog.version > version_before

        after = svc.execute(QUERY, {"k": 3})
        assert not after.cache_hit          # stale plan was not executed
        assert frozenset(after.rows) == _oracle(db, 3)
        assert svc.cache.stats.invalidations >= 1


def test_create_index_invalidates_and_new_plan_uses_the_index():
    db = _db()
    catalog = Catalog(db)
    catalog.analyze()
    with QueryService(db, catalog=catalog) as svc:
        cold = svc.execute(QUERY, {"k": 5})
        assert not cold.cache_hit
        assert "IndexScan" not in svc.explain(QUERY)

        catalog.create_index("X", "a")

        replanned = svc.execute(QUERY, {"k": 5})
        assert not replanned.cache_hit      # version bump forced a replan
        assert frozenset(replanned.rows) == _oracle(db, 5)
        # the re-optimized plan actually exploits the new access path
        assert "IndexScan" in svc.explain(QUERY)
        assert replanned.stats["index_probes"] >= 1

        warm = svc.execute(QUERY, {"k": 9})
        assert warm.cache_hit
        assert frozenset(warm.rows) == _oracle(db, 9)


def test_cached_plan_never_survives_any_version_bump():
    """Every catalog mutation path — analyze, create_index, lazy stats
    refresh — must be followed by a miss, never a stale execution."""
    db = _db()
    catalog = Catalog(db)
    catalog.analyze()
    with QueryService(db, catalog=catalog) as svc:
        svc.execute(QUERY, {"k": 1})
        assert svc.execute(QUERY, {"k": 1}).cache_hit

        catalog.create_index("X", "b")      # unrelated index still bumps
        assert not svc.execute(QUERY, {"k": 1}).cache_hit
        assert svc.execute(QUERY, {"k": 1}).cache_hit

        # lazy stale-statistics refresh (data changed, no explicit analyze):
        # the next planning pass touches stats, which bumps the version
        db.set_extent("X", [VTuple(a=i % 3, b=i) for i in range(30)])
        result = svc.execute(QUERY, {"k": 1})
        assert frozenset(result.rows) == _oracle(db, 1)
