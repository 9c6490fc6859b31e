"""Complex-object values for the ADL algebra.

ADL (Section 3 of the paper) is a typed algebra over *complex objects* built
from atoms, object identifiers, tuples ``( )`` and sets ``{ }``.  All values
in this reproduction are immutable and hashable so that sets of tuples, sets
of sets, and tuples containing sets all work with Python's structural
equality — which is exactly the value semantics the algebra needs.

Representation choices:

* atoms are plain Python ``int`` / ``float`` / ``str`` / ``bool`` / ``None``;
* object identity is the dedicated :class:`Oid` atom (the paper's ``oid``
  base type);
* tuples are :class:`VTuple` — an immutable attribute->value mapping with
  order-insensitive equality (a tuple *type* is a set of named fields);
* sets are plain ``frozenset``.

The module also provides the tuple-level operators the paper defines as
algebra primitives: concatenation ``o`` (:func:`concat`), *tuple
subscription* ``e[a1, ..., an]`` (:meth:`VTuple.subscript`) and the
``except`` update/extend operator (:meth:`VTuple.update_except`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple, Union

from repro.datamodel.errors import DataModelError, MissingAttributeError

#: The union of all value kinds an ADL expression may produce.  ``Value`` is
#: intentionally a loose alias — the static shape is enforced by the type
#: checker (``repro.adl.typecheck``), not by the Python type system.
Value = Union[None, bool, int, float, str, "Oid", "VTuple", frozenset]


class Oid:
    """An object identifier — the paper's base type ``oid``.

    Oids carry the name of the class they identify purely as a debugging aid;
    identity and equality are decided by ``(class_name, number)`` so two oids
    minted by different stores never collide accidentally.
    """

    __slots__ = ("class_name", "number")

    def __init__(self, class_name: str, number: int) -> None:
        self.class_name = class_name
        self.number = number

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Oid):
            return NotImplemented
        return self.class_name == other.class_name and self.number == other.number

    def __hash__(self) -> int:
        # strings and ints only: process-stable under a fixed
        # PYTHONHASHSEED (a class object would hash by its address)
        return hash((self.class_name, self.number))

    def __repr__(self) -> str:
        return f"@{self.class_name}:{self.number}"

    def __lt__(self, other: "Oid") -> bool:
        if not isinstance(other, Oid):
            return NotImplemented
        return (self.class_name, self.number) < (other.class_name, other.number)


class VTuple(Mapping[str, Value]):
    """An immutable, hashable tuple value ``(a1 = v1, ..., an = vn)``.

    Field order is irrelevant for equality and hashing — ADL tuples are
    records, not sequences.  ``VTuple`` implements the ``Mapping`` protocol,
    so ``t["a"]``, ``"a" in t``, ``len(t)`` and ``dict(t)`` all behave as
    expected.
    """

    __slots__ = ("_fields", "_hash")

    def __init__(self, fields: Union[Mapping[str, Value], Iterable[Tuple[str, Value]]] = (), **kw: Value) -> None:
        items: Dict[str, Value] = {}
        pairs = fields.items() if isinstance(fields, Mapping) else fields
        for name, value in pairs:
            if name in items:
                raise DataModelError(f"duplicate tuple attribute: {name!r}")
            items[name] = value
        for name, value in kw.items():
            if name in items:
                raise DataModelError(f"duplicate tuple attribute: {name!r}")
            items[name] = value
        self._fields: Dict[str, Value] = items
        # eager: an unhashable field value is rejected here, at construction
        self._hash: Optional[int] = hash(frozenset(items.items()))

    # -- Mapping protocol -------------------------------------------------
    def __getitem__(self, name: str) -> Value:
        try:
            return self._fields[name]
        except KeyError:
            raise MissingAttributeError(
                f"tuple has no attribute {name!r}; attributes are {sorted(self._fields)}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    # -- value semantics ---------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VTuple):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._fields.items()))
        return h

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={format_value(v)}" for k, v in sorted(self._fields.items()))
        return f"({inner})"

    # -- the paper's tuple operators ---------------------------------------
    @property
    def attributes(self) -> frozenset:
        """The set of attribute names — the paper's ``SCH`` applied to a tuple."""
        return frozenset(self._fields)

    def subscript(self, names: Iterable[str]) -> "VTuple":
        """Tuple subscription ``e[a1, ..., an]`` (ADL operator 2).

        Produces a new tuple keeping only the named attributes.
        """
        return trusted_tuple({name: self[name] for name in names})

    def drop(self, names: Iterable[str]) -> "VTuple":
        """The complement of :meth:`subscript`: remove the named attributes."""
        dropped = set(names)
        return trusted_tuple({k: v for k, v in self._fields.items() if k not in dropped})

    def update_except(self, updates: Mapping[str, Value]) -> "VTuple":
        """The ``except`` operator (ADL operator 3).

        Overwrites existing fields and/or extends the tuple with new fields,
        leaving all other fields as they are.
        """
        merged = dict(self._fields)
        merged.update(updates)
        return trusted_tuple(merged)


_alloc = object.__new__


def trusted_tuple(fields: Dict[str, Value]) -> VTuple:
    """Wrap ``fields`` as a :class:`VTuple` without validating or copying.

    For callers whose dict is duplicate-free by construction (a dict
    always is) and not aliased: the tuple takes ownership of ``fields``,
    so the caller must never mutate it afterwards.  ``VTuple(...)`` stays
    the validating public constructor; the two paths build equal,
    equally-hashing values.
    """
    t = _alloc(VTuple)
    t._fields = fields
    t._hash = None
    return t


def concat(left: VTuple, right: VTuple) -> VTuple:
    """Tuple concatenation — the paper's ``o`` operator.

    The paper assumes no attribute naming conflicts occur (Section 3); we
    enforce that assumption, because silently shadowing a field would make
    join results ambiguous.
    """
    merged = dict(left._fields)
    merged.update(right._fields)
    if len(merged) != len(left._fields) + len(right._fields):
        clash = left.attributes & right.attributes
        raise DataModelError(f"tuple concatenation attribute clash: {sorted(clash)}")
    return trusted_tuple(merged)


def vset(*elements: Value) -> frozenset:
    """Construct a set value ``{e1, ..., en}`` (duplicates collapse)."""
    return frozenset(elements)


EMPTY_SET: frozenset = frozenset()


def is_atom(value: Value) -> bool:
    """True for atoms: ``None``, bool, int, float, str, and :class:`Oid`."""
    return value is None or isinstance(value, (bool, int, float, str, Oid))


def is_value(value: object) -> bool:
    """Deep check that ``value`` is a legal ADL value."""
    if is_atom(value):
        return True
    if isinstance(value, VTuple):
        return all(is_value(v) for v in value.values())
    if isinstance(value, frozenset):
        return all(is_value(v) for v in value)
    return False


def sort_key(value: Value):
    """A total order over all values, used for deterministic printing.

    The order is: None < bools < numbers < strings < oids < tuples < sets,
    with structural recursion inside tuples and sets.  It has no semantic
    meaning in the algebra — ADL only ever compares values for equality and
    (for atoms) the usual arithmetic order.
    """
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, Oid):
        return (4, value.class_name, value.number)
    if isinstance(value, VTuple):
        return (5, tuple(sorted((k, sort_key(v)) for k, v in value.items())))
    if isinstance(value, frozenset):
        return (6, tuple(sorted(sort_key(v) for v in value)))
    raise DataModelError(f"not an ADL value: {value!r}")


def format_value(value: Value) -> str:
    """Render a value in the paper's surface notation.

    Sets print in a deterministic (sorted) order, tuples with attributes in
    name order, so formatted values are directly comparable in golden tests.
    """
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, Oid):
        return repr(value)
    if isinstance(value, VTuple):
        return repr(value)
    if isinstance(value, frozenset):
        inner = ", ".join(format_value(v) for v in sorted(value, key=sort_key))
        return "{" + inner + "}"
    raise DataModelError(f"not an ADL value: {value!r}")
