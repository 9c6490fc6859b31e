"""Unit tests for the object store (Database) and MemoryDatabase."""

import pytest

from repro.datamodel import (
    INT,
    STRING,
    ClassRef,
    Oid,
    Schema,
    SchemaError,
    SetType,
    StorageError,
    UnknownExtentError,
    VTuple,
    vset,
)
from repro.storage import Database, MemoryDatabase


def small_schema() -> Schema:
    schema = Schema()
    schema.add_class("Part", "PART", {"pname": STRING, "price": INT})
    schema.add_class(
        "Supplier", "SUPPLIER", {"sname": STRING, "parts": SetType(ClassRef("Part"))}
    )
    return schema.freeze()


class TestDatabase:
    def test_insert_assigns_fresh_oids(self):
        db = Database(small_schema())
        o1 = db.insert("Part", {"pname": "a", "price": 1})
        o2 = db.insert("Part", {"pname": "b", "price": 2})
        assert o1 != o2
        assert o1.class_name == "Part"

    def test_insert_validates_attributes(self):
        db = Database(small_schema())
        with pytest.raises(SchemaError, match="missing"):
            db.insert("Part", {"pname": "a"})
        with pytest.raises(SchemaError, match="unexpected"):
            db.insert("Part", {"pname": "a", "price": 1, "color": "red"})

    def test_extent_contains_inserted_objects(self):
        db = Database(small_schema())
        oid = db.insert("Part", {"pname": "a", "price": 1})
        extent = db.extent("PART")
        assert len(extent) == 1
        (row,) = extent
        assert row["oid"] == oid
        assert row["pname"] == "a"

    def test_extent_cache_invalidated_on_insert(self):
        db = Database(small_schema())
        db.insert("Part", {"pname": "a", "price": 1})
        assert len(db.extent("PART")) == 1
        db.insert("Part", {"pname": "b", "price": 2})
        assert len(db.extent("PART")) == 2

    def test_deref_follows_pointer(self):
        db = Database(small_schema())
        part = db.insert("Part", {"pname": "a", "price": 1})
        supplier = db.insert("Supplier", {"sname": "s", "parts": vset(part)})
        assert db.deref(part)["pname"] == "a"
        assert part in db.deref(supplier)["parts"]

    def test_deref_dangling_oid(self):
        db = Database(small_schema())
        with pytest.raises(StorageError, match="dangling"):
            db.deref(Oid("Part", 99))

    def test_unknown_extent(self):
        db = Database(small_schema())
        with pytest.raises(UnknownExtentError):
            db.extent("GHOST")
        with pytest.raises(UnknownExtentError):
            list(db.scan("GHOST"))

    def test_scan_charges_io(self):
        db = Database(small_schema(), page_size=128)
        for i in range(20):
            db.insert("Part", {"pname": f"p{i}", "price": i})
        db.reset_io()
        rows = list(db.scan("PART"))
        assert len(rows) == 20
        assert db.io.pages_read == db.page_count("PART") > 1

    def test_fetch_many_clusters_page_reads(self):
        db = Database(small_schema(), page_size=512)
        oids = [db.insert("Part", {"pname": f"p{i}", "price": i}) for i in range(20)]
        db.reset_io()
        rows = db.fetch_many(oids)
        assert [r["oid"] for r in rows] == oids
        clustered = db.io.pages_read
        db.reset_io()
        for oid in oids:
            db.fetch(oid)
        assert clustered < db.io.pages_read

    def test_fetch_many_empty(self):
        db = Database(small_schema())
        assert db.fetch_many([]) == []

    def test_fetch_many_dangling(self):
        db = Database(small_schema())
        with pytest.raises(StorageError):
            db.fetch_many([Oid("Part", 5)])

    def test_extent_size(self):
        db = Database(small_schema())
        db.insert("Part", {"pname": "a", "price": 1})
        assert db.extent_size("PART") == 1
        with pytest.raises(UnknownExtentError):
            db.extent_size("GHOST")


class TestMemoryDatabase:
    def test_extents(self):
        db = MemoryDatabase({"X": [VTuple(a=1)]})
        assert db.extent("X") == frozenset({VTuple(a=1)})
        assert db.extent_names == ["X"]

    def test_unknown_extent(self):
        with pytest.raises(UnknownExtentError):
            MemoryDatabase().extent("X")

    def test_deref_via_oid_attribute(self):
        row = VTuple(oid=Oid("C", 1), a=5)
        db = MemoryDatabase({"X": [row]})
        assert db.deref(Oid("C", 1)) == row

    def test_deref_dangling(self):
        db = MemoryDatabase({"X": [VTuple(a=1)]})
        with pytest.raises(StorageError):
            db.deref(Oid("C", 9))

    def test_set_extent_replaces(self):
        db = MemoryDatabase()
        db.set_extent("X", [VTuple(a=1)])
        db.set_extent("X", [VTuple(a=2)])
        assert db.extent("X") == frozenset({VTuple(a=2)})

    def test_deleted_object_is_no_longer_dereferenceable(self):
        keep, gone = VTuple(oid=Oid("C", 1), a=5), VTuple(oid=Oid("C", 2), a=6)
        db = MemoryDatabase({"X": [keep, gone]})
        db.delete_rows("X", [VTuple(oid=Oid("C", 2), a=6)])  # an equal copy, not the stored object
        with pytest.raises(StorageError):
            db.deref(Oid("C", 2))
        assert db.deref(Oid("C", 1)) == keep

    def test_reinserted_oid_resolves_to_the_new_row(self):
        old, new = VTuple(oid=Oid("C", 1), a=5), VTuple(oid=Oid("C", 1), a=7)
        db = MemoryDatabase({"X": [old]})
        db.delete_rows("X", [old])
        db.insert_rows("X", [new])
        assert db.deref(Oid("C", 1)) == new
        # deleting a row that is not there (any more) leaves the newer object alone
        db.delete_rows("X", [old])
        assert db.deref(Oid("C", 1)) == new

    def test_overwritten_oid_survives_the_old_rows_delete(self):
        old, new = VTuple(oid=Oid("C", 1), a=5), VTuple(oid=Oid("C", 1), a=7)
        db = MemoryDatabase({"X": [old]})
        db.insert_rows("X", [new])  # same oid, new state; both rows in the extent
        db.delete_rows("X", [old])
        assert db.deref(Oid("C", 1)) == new

    def test_insert_rows_registers_only_object_rows(self):
        db = MemoryDatabase({"X": [VTuple(a=1)]})
        db.insert_rows("X", [VTuple(a=2), VTuple(oid=Oid("C", 3), a=3), VTuple(oid=4, a=4)])
        assert db.deref(Oid("C", 3)) == VTuple(oid=Oid("C", 3), a=3)
        assert len(db.extent("X")) == 4

    def test_set_extent_keeps_whole_extent_registration(self):
        rows = [VTuple(oid=Oid("C", i), a=i) for i in range(3)]
        db = MemoryDatabase()
        db.set_extent("X", rows)
        db.set_extent("Y", [VTuple(oid=Oid("D", 0), a=9)])
        assert [db.deref(Oid("C", i)) for i in range(3)] == rows
        assert db.deref(Oid("D", 0))["a"] == 9
