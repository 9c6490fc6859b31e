"""Bounded per-shape store of cardinality-estimate misses (PR 10).

This is the concrete hook for ROADMAP open item 5 (feed measured
cardinalities back into the catalog): every traced run whose per-operator
q-error exceeds the service threshold records a ``kind="operator"`` entry
here, and the PR-7 epoch-mismatch records (plan compiled against one
visibility epoch, executed against another) migrate here as
``kind="epoch-mismatch"`` — one estimate-feedback surface, not two.

Records are keyed by plan shape so a future replan trigger can ask "has
this shape misestimated recently?" without scanning a global log; each
shape keeps a bounded deque of recent records and shapes themselves are
evicted LRU once ``max_shapes`` is reached.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Dict, List


class MisestimateStore:
    """Recent estimate-vs-actual misses, bounded per shape and overall."""

    def __init__(self, *, per_shape: int = 8, max_shapes: int = 32) -> None:
        self.per_shape = per_shape
        self.max_shapes = max_shapes
        self._by_shape: "OrderedDict[str, deque]" = OrderedDict()
        self.recorded = 0

    def record(self, shape: str, *, kind: str = "operator", **fields) -> dict:
        entry = {"shape": shape, "kind": kind}
        entry.update(fields)
        bucket = self._by_shape.get(shape)
        if bucket is None:
            bucket = self._by_shape[shape] = deque(maxlen=self.per_shape)
            while len(self._by_shape) > self.max_shapes:
                self._by_shape.popitem(last=False)
        else:
            self._by_shape.move_to_end(shape)
        bucket.append(entry)
        self.recorded += 1
        return entry

    def shapes(self) -> List[str]:
        return list(self._by_shape)

    def for_shape(self, shape: str) -> List[dict]:
        return list(self._by_shape.get(shape, ()))

    def snapshot(self) -> Dict[str, List[dict]]:
        return {shape: list(bucket) for shape, bucket in self._by_shape.items()}

    def records(self, kind: str = None) -> List[dict]:
        out = []
        for bucket in self._by_shape.values():
            for entry in bucket:
                if kind is None or entry["kind"] == kind:
                    out.append(entry)
        return out

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_shape.values())
