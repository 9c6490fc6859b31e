"""Unit tests for the complex-object value layer."""

import os
import subprocess
import sys

import pytest

from repro.datamodel import (
    DataModelError,
    MissingAttributeError,
    Oid,
    VTuple,
    concat,
    format_value,
    is_atom,
    is_value,
    sort_key,
    vset,
)
from repro.datamodel.values import trusted_tuple


class TestOid:
    def test_equality_by_class_and_number(self):
        assert Oid("Part", 1) == Oid("Part", 1)
        assert Oid("Part", 1) != Oid("Part", 2)
        assert Oid("Part", 1) != Oid("Supplier", 1)

    def test_hashable_and_usable_in_sets(self):
        oids = {Oid("Part", 1), Oid("Part", 1), Oid("Part", 2)}
        assert len(oids) == 2

    def test_not_equal_to_plain_ints(self):
        assert Oid("Part", 1) != 1

    def test_ordering_for_deterministic_output(self):
        assert Oid("A", 2) < Oid("B", 1)
        assert Oid("A", 1) < Oid("A", 2)

    def test_repr(self):
        assert repr(Oid("Part", 3)) == "@Part:3"

    def test_hash_and_set_order_are_process_stable(self):
        """Under one ``PYTHONHASHSEED`` every interpreter hashes an oid
        alike, so oid-set iteration order (and the work a short-circuiting
        quantifier does over it) repeats from process to process."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        code = (
            "from repro.datamodel import Oid\n"
            "oids = [Oid(c, n) for c in ('Part', 'Supplier') for n in range(4)]\n"
            "print(hash(oids[0]), list(frozenset(oids)))"
        )
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.abspath(src))
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True,
                text=True, check=True,
            ).stdout
            for _ in range(2)
        }
        assert len(outputs) == 1, outputs


class TestVTuple:
    def test_field_access(self):
        t = VTuple(a=1, b="x")
        assert t["a"] == 1
        assert t["b"] == "x"

    def test_mapping_protocol(self):
        t = VTuple(a=1, b=2)
        assert "a" in t
        assert "z" not in t
        assert len(t) == 2
        assert set(t) == {"a", "b"}
        assert dict(t) == {"a": 1, "b": 2}
        assert t.get("z") is None

    def test_missing_attribute_error(self):
        t = VTuple(a=1)
        with pytest.raises(MissingAttributeError):
            t["missing"]

    def test_missing_attribute_error_is_datamodel_error(self):
        with pytest.raises(DataModelError):
            VTuple(a=1)["nope"]

    def test_equality_is_order_insensitive(self):
        assert VTuple([("a", 1), ("b", 2)]) == VTuple([("b", 2), ("a", 1)])

    def test_hash_consistent_with_equality(self):
        assert hash(VTuple(a=1, b=2)) == hash(VTuple(b=2, a=1))

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(DataModelError):
            VTuple([("a", 1), ("a", 2)])

    def test_subscript(self):
        t = VTuple(a=1, b=2, c=3)
        assert t.subscript(["a", "c"]) == VTuple(a=1, c=3)

    def test_subscript_missing_raises(self):
        with pytest.raises(DataModelError):
            VTuple(a=1).subscript(["b"])

    def test_drop(self):
        assert VTuple(a=1, b=2).drop(["a"]) == VTuple(b=2)

    def test_update_except_overwrites_and_extends(self):
        t = VTuple(a=1, b=2)
        updated = t.update_except({"a": 10, "c": 3})
        assert updated == VTuple(a=10, b=2, c=3)
        # original untouched (immutability)
        assert t == VTuple(a=1, b=2)

    def test_attributes(self):
        assert VTuple(a=1, b=2).attributes == frozenset({"a", "b"})

    def test_nested_values(self):
        inner = VTuple(x=1)
        t = VTuple(a=vset(inner), b=inner)
        assert inner in t["a"]
        assert t["b"]["x"] == 1


class TestConcat:
    def test_concatenation(self):
        assert concat(VTuple(a=1), VTuple(b=2)) == VTuple(a=1, b=2)

    def test_clash_rejected(self):
        with pytest.raises(DataModelError, match="clash"):
            concat(VTuple(a=1), VTuple(a=2))

    def test_empty_concat(self):
        assert concat(VTuple(), VTuple(a=1)) == VTuple(a=1)


class TestTrustedConstruction:
    """``trusted_tuple`` skips validation, copying and the eager hash; the
    values it builds must be indistinguishable from ``VTuple(...)``'s."""

    FIELDS = {"b": vset(1, 2), "a": 1, "t": VTuple(x=Oid("Part", 3))}

    def pair(self):
        return VTuple(self.FIELDS), trusted_tuple(dict(self.FIELDS))

    def test_equality_hash_and_repr_parity(self):
        public, trusted = self.pair()
        assert trusted == public and public == trusted
        assert hash(trusted) == hash(public)
        assert repr(trusted) == repr(public)
        assert format_value(trusted) == format_value(public)
        assert sort_key(trusted) == sort_key(public)
        assert dict(trusted) == dict(public) and len(trusted) == 3
        assert trusted.attributes == public.attributes

    def test_lazily_hashed_tuple_as_set_member_and_dict_key(self):
        public, trusted = self.pair()
        assert trusted._hash is None  # nothing hashed it yet
        assert trusted in {public}
        assert public in frozenset([trusted])
        assert len({public, trusted}) == 1
        assert {trusted: "v"}[public] == "v"
        assert trusted._hash == hash(public)
        assert vset(trusted) == vset(public)

    def test_takes_ownership_without_copying(self):
        fields = {"a": 1}
        assert trusted_tuple(fields)._fields is fields

    def test_missing_attribute_error_is_unchanged(self):
        with pytest.raises(MissingAttributeError, match="'z'"):
            trusted_tuple({"a": 1})["z"]

    def test_public_constructor_still_validates(self):
        with pytest.raises(DataModelError, match="duplicate"):
            VTuple([("a", 1), ("a", 2)])
        with pytest.raises(DataModelError, match="duplicate"):
            VTuple({"a": 1}, a=2)
        with pytest.raises(TypeError):
            VTuple(a=[1, 2])  # unhashable field value, rejected eagerly

    @pytest.mark.parametrize(
        "derive",
        [
            lambda t: t.subscript(("a", "b")),
            lambda t: t.drop(("t",)),
            lambda t: t.update_except({"a": 2, "z": vset()}),
            lambda t: concat(t, VTuple(q=0)),
        ],
        ids=["subscript", "drop", "update_except", "concat"],
    )
    def test_tuple_operators_agree_across_construction_paths(self, derive):
        public, trusted = self.pair()
        from_public, from_trusted = derive(public), derive(trusted)
        assert from_public == from_trusted
        assert hash(from_public) == hash(from_trusted)
        assert repr(from_public) == repr(from_trusted)
        assert from_public == VTuple(dict(from_public))  # and the validating path
        assert hash(from_public) == hash(VTuple(dict(from_public)))

    def test_concat_clash_still_names_the_attributes(self):
        with pytest.raises(DataModelError, match=r"clash: \['a', 'b'\]"):
            concat(trusted_tuple({"a": 1, "b": 2, "c": 3}), VTuple(b=0, a=0))

    def test_pickle_round_trip(self):
        import pickle

        public, trusted = self.pair()
        hash(public)
        for value in (public, trusted):
            clone = pickle.loads(pickle.dumps(value))
            assert clone == public and hash(clone) == hash(public)


class TestPredicatesAndHelpers:
    def test_is_atom(self):
        for atom in (None, True, 3, 2.5, "s", Oid("C", 1)):
            assert is_atom(atom)
        assert not is_atom(VTuple(a=1))
        assert not is_atom(frozenset())

    def test_is_value_deep(self):
        assert is_value(vset(VTuple(a=vset(1, 2))))
        assert not is_value([1, 2])  # lists are not values
        assert not is_value(VTuple(a=1).update_except({"b": (1, 2)}))

    def test_vset_deduplicates(self):
        assert len(vset(1, 1, 2)) == 2

    def test_sort_key_total_order_across_kinds(self):
        values = [
            frozenset({1}),
            VTuple(a=1),
            Oid("C", 0),
            "s",
            2.5,
            3,
            True,
            None,
        ]
        ordered = sorted(values, key=sort_key)
        assert ordered[0] is None
        assert isinstance(ordered[-1], frozenset)

    def test_sort_key_rejects_non_values(self):
        with pytest.raises(DataModelError):
            sort_key(object())


class TestFormatValue:
    def test_atoms(self):
        assert format_value(None) == "null"
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(3) == "3"
        assert format_value("hi") == '"hi"'

    def test_set_is_sorted_deterministically(self):
        assert format_value(vset(3, 1, 2)) == "{1, 2, 3}"

    def test_tuple_fields_sorted(self):
        assert format_value(VTuple(b=2, a=1)) == "(a=1, b=2)"

    def test_nested(self):
        v = vset(VTuple(a=vset(2, 1)))
        assert format_value(v) == "{(a={1, 2})}"
