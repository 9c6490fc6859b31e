"""Plan-cache warm start (PR 7).

``QueryService.close()`` persists the cached shapes as canonical
re-parseable plan text; a restoring service re-plans them at
construction — skipping the expensive rewrite/join-order phases — and
refuses the whole file when the catalog version or schema fingerprint
no longer matches.
"""

import json

import pytest

from repro.datamodel import INT, STRING, Schema, VTuple
from repro.service import QueryService
from repro.storage import MemoryDatabase

JOIN = "select (b = x.b, e = y.e) from x in X, y in Y where x.a = y.d"
SIMPLE = "select x.b from x in X where x.a = $k"


def _db(n=24, mod=4):
    return MemoryDatabase(
        {
            "X": [VTuple(a=i % mod, b=i) for i in range(n)],
            "Y": [VTuple(d=i % mod, e=i) for i in range(n)],
        }
    )


def _warm_file(tmp_path, shapes=(JOIN, SIMPLE)):
    """Run each shape once under a persisting service; return the path."""
    path = str(tmp_path / "plans.json")
    with QueryService(_db(), cache_persist_path=path) as svc:
        for text in shapes:
            svc.execute(text, {"k": 1} if "$k" in text else None)
    return path


def test_close_persists_canonical_plan_text(tmp_path):
    path = _warm_file(tmp_path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["catalog_version"] == 0  # MemoryDatabase has no catalog
    assert payload["schema_fingerprint"] == ""
    shapes = {e["shape"] for e in payload["entries"]}
    assert len(shapes) == 2
    for entry in payload["entries"]:
        assert entry["adl"]  # re-parseable plan text, not a pickle
        assert isinstance(entry["param_names"], list)


def test_restore_roundtrip_first_query_is_a_hit(tmp_path):
    path = _warm_file(tmp_path)
    with QueryService(_db(), cache_persist_path=path) as svc:
        assert svc.warm_restored == 2
        assert svc.warm_dropped == 0
        assert svc.compilations == 0  # restore re-plans, never re-optimizes
        r = svc.execute(JOIN)
        assert r.cache_hit
        assert r.rows
        assert svc.compilations == 0


def test_restored_plan_matches_cold_plan(tmp_path):
    path = _warm_file(tmp_path, shapes=(JOIN,))
    with QueryService(_db()) as cold:
        cold_explain = cold.explain(JOIN)
    with QueryService(_db(), cache_persist_path=path) as warm:
        assert warm.explain(JOIN) == cold_explain


def test_catalog_fingerprint_mismatch_drops_whole_file(tmp_path):
    path = _warm_file(tmp_path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["catalog_fingerprint"] = "not-the-real-content-digest"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with QueryService(_db(), cache_persist_path=path) as svc:
        assert svc.warm_restored == 0
        assert svc.warm_dropped == len(payload["entries"])


def test_file_without_fingerprint_is_refused_wholesale(tmp_path):
    # the pre-fingerprint format is gone: even with a matching
    # ``catalog_version`` (which the old exact-version fallback accepted)
    # a payload without the content fingerprint is a mismatch
    path = _warm_file(tmp_path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    del payload["catalog_fingerprint"]
    assert payload["catalog_version"] == 0  # what a fresh _db() service reports
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with QueryService(_db(), cache_persist_path=path) as svc:
        assert svc.warm_restored == 0
        assert svc.warm_dropped == len(payload["entries"])


def test_restore_matches_catalog_content_not_version_counter(tmp_path):
    """PR-7 known simplification, fixed in PR 9: a rebuilt catalog's
    version counter restarts per process, so restore must match on the
    *content* fingerprint — same statistics, different version number
    still restores (and rebases entries onto the current version)."""
    from repro.storage import Catalog

    path = str(tmp_path / "plans.json")
    db = _db()
    catalog = Catalog(db)
    catalog.analyze(["X", "Y"])
    catalog.analyze(["X", "Y"])  # second ANALYZE: version 2, same content
    assert catalog.version == 2
    with QueryService(db, catalog=catalog, cache_persist_path=path) as svc:
        svc.execute(JOIN)
    # "restart": same data, fresh catalog whose counter lands elsewhere
    db2 = _db()
    catalog2 = Catalog(db2)
    catalog2.analyze(["X", "Y"])
    assert catalog2.version == 1  # != the persisted version...
    assert catalog2.fingerprint() == catalog.fingerprint()  # ...same content
    with QueryService(db2, catalog=catalog2, cache_persist_path=path) as svc:
        assert svc.warm_restored == 1
        assert svc.warm_dropped == 0
        assert svc.execute(JOIN).cache_hit


def test_restore_refuses_catalog_with_different_content(tmp_path):
    from repro.storage import Catalog

    path = str(tmp_path / "plans.json")
    db = _db()
    catalog = Catalog(db)
    catalog.analyze(["X", "Y"])
    with QueryService(db, catalog=catalog, cache_persist_path=path) as svc:
        svc.execute(JOIN)
    db2 = _db(n=48)  # different data -> different statistics
    catalog2 = Catalog(db2)
    catalog2.analyze(["X", "Y"])
    with QueryService(db2, catalog=catalog2, cache_persist_path=path) as svc:
        assert svc.warm_restored == 0
        assert svc.warm_dropped == 1


def test_schema_fingerprint_mismatch_drops_whole_file(tmp_path):
    path = _warm_file(tmp_path)
    schema = Schema()
    schema.add_class("Part", "X", {"pname": STRING, "price": INT})
    with QueryService(_db(), schema.freeze(), cache_persist_path=path) as svc:
        assert svc.warm_restored == 0
        assert svc.warm_dropped == 2


def test_single_bad_entry_dropped_without_poisoning_rest(tmp_path):
    path = _warm_file(tmp_path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["entries"][0]["adl"] = "this is not ADL %%"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with QueryService(_db(), cache_persist_path=path) as svc:
        assert svc.warm_restored == 1
        assert svc.warm_dropped == 1


@pytest.mark.parametrize("content", ["", "{not json", '"a string"', '{"entries": 3}'])
def test_corrupt_file_is_ignored(tmp_path, content):
    path = tmp_path / "plans.json"
    path.write_text(content, encoding="utf-8")
    with QueryService(_db(), cache_persist_path=str(path)) as svc:
        assert svc.warm_restored == 0
        assert svc.warm_dropped == 0
        assert svc.execute(SIMPLE, {"k": 1}).rows


def test_missing_file_is_fine_and_created_on_close(tmp_path):
    path = tmp_path / "sub" / "plans.json"
    path.parent.mkdir()
    with QueryService(_db(), cache_persist_path=str(path)) as svc:
        assert svc.warm_restored == 0
        svc.execute(SIMPLE, {"k": 1})
    assert path.exists()


def test_warm_counters_in_stats(tmp_path):
    path = _warm_file(tmp_path)
    with QueryService(_db(), cache_persist_path=path) as svc:
        stats = svc.stats()
        assert stats["warm_restored"] == 2
        assert stats["warm_dropped"] == 0
