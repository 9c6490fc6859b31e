"""Hash indexes over extents.

The paper's point about rewriting to joins is that the optimizer then gets
to *choose* among implementations — "index nested-loop join, sort-merge
join, hash join, etc." (Section 6).  The index here backs the index
nested-loop alternative and the attribute lookups in examples.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List

from repro.datamodel.errors import StorageError
from repro.datamodel.values import Value, VTuple


class HashIndex:
    """An equality index from a key function to lists of tuples.

    Built eagerly from an iterable of tuples; supports multi-valued keys so
    a set-valued attribute can be indexed by its *elements* (useful for
    ``p.pid ∈ s.parts`` style predicates).

    **Immutable once constructed**: readers probe a published index with
    no lock, so maintenance never touches its buckets —
    :meth:`with_changes` builds a *new* index that shares every untouched
    bucket list with this one and copies only the touched ones.
    """

    def __init__(
        self,
        rows: Iterable[VTuple],
        key: Callable[[VTuple], Value],
        multi: bool = False,
    ) -> None:
        self._buckets: Dict[Value, List[VTuple]] = {}
        self._key = key
        self._multi = multi
        for row in rows:
            for key_value in self._keys(row):
                self._buckets.setdefault(key_value, []).append(row)

    def _keys(self, row: VTuple) -> Iterable[Value]:
        """The bucket keys ``row`` is filed under (its elements if multi)."""
        key_value = self._key(row)
        if not self._multi:
            return (key_value,)
        if not isinstance(key_value, frozenset):
            raise StorageError("multi-valued index key must be a set")
        return key_value

    def with_changes(
        self, added: Iterable[VTuple], removed: Iterable[VTuple]
    ) -> "HashIndex":
        """A new index over ``(indexed rows − removed) ∪ added``.

        ``removed`` must be rows this index holds and ``added`` rows it
        does not (the store hands over exactly the rows a batch took out
        of / put into the extent).  Costs one shallow copy of the bucket
        dict plus the touched buckets; every other bucket list is shared
        with ``self``, which stays valid for whoever still holds it.
        """
        removed = frozenset(removed)
        out = HashIndex((), self._key, self._multi)
        buckets = out._buckets = dict(self._buckets)
        owned = set()  # keys whose list was already copied for `out`
        for key_value in {k for row in removed for k in self._keys(row)}:
            kept = [row for row in buckets.get(key_value, ()) if row not in removed]
            if kept:
                buckets[key_value] = kept
                owned.add(key_value)
            else:
                buckets.pop(key_value, None)
        for row in added:
            for key_value in self._keys(row):
                if key_value not in owned:
                    buckets[key_value] = list(buckets.get(key_value, ()))
                    owned.add(key_value)
                buckets[key_value].append(row)
        return out

    def lookup(self, key_value: Value) -> List[VTuple]:
        return self._buckets.get(key_value, [])

    def __contains__(self, key_value: Value) -> bool:
        return key_value in self._buckets

    def __len__(self) -> int:
        return len(self._buckets)


def attribute_index(rows: Iterable[VTuple], attr: str) -> HashIndex:
    """Index tuples by one top-level attribute."""
    return HashIndex(rows, key=lambda row: row[attr])


def element_index(rows: Iterable[VTuple], set_attr: str) -> HashIndex:
    """Index tuples by each element of a set-valued attribute."""
    return HashIndex(rows, key=lambda row: row[set_attr], multi=True)
