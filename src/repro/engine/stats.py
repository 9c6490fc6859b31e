"""Execution statistics — the currency of the paper's argument.

"Tuple-oriented versus set-oriented query processing" is an access-pattern
claim; these counters make it measurable without real I/O hardware:

* ``predicate_evals`` — how many times a selection/join predicate ran.
  Nested-loop evaluation of a correlated subquery costs |X|·|Y| of these;
  a hash semijoin costs O(|X| + |Y|) probes instead.
* ``tuples_visited`` — every tuple an operator iterated over;
* ``hash_inserts`` / ``hash_probes`` — hash operator work;
* ``index_probes`` — lookups against persistent catalog indexes
  (index scans and index nested-loop joins);
* ``oid_derefs`` — pointer follow count (materialize/assembly);
* ``partitions_spilled`` — PNHL memory-budget overflow events;
* ``output_tuples`` — tuples emitted by operators;
* ``pipeline_breaks`` — how many operator inputs had to be fully
  materialized before the operator could emit (hash builds, grouping,
  sorting...).  Not part of :meth:`Stats.total_work` — a break is a
  *shape* property of the plan's dataflow, not per-tuple effort.
* ``batches_emitted`` / ``vector_fallbacks`` — batch execution
  (PR 8): columnar chunks produced, and batch kernels that had to apply
  the tuple-wise closure per element because the expression form is not
  covered by the vectorizing compiler.  Like ``pipeline_breaks``, both
  describe *how* the work ran, not how much work there was, so neither
  joins :meth:`Stats.total_work` — runs at different chunk capacities
  stay comparable on the same work currency.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Stats:
    """Mutable counter bundle threaded through interpreters and operators."""

    predicate_evals: int = 0
    tuples_visited: int = 0
    hash_inserts: int = 0
    hash_probes: int = 0
    index_probes: int = 0
    comparisons: int = 0
    oid_derefs: int = 0
    partitions_spilled: int = 0
    output_tuples: int = 0
    pipeline_breaks: int = 0
    batches_emitted: int = 0
    vector_fallbacks: int = 0

    # ``reset`` / ``snapshot`` / ``merge`` run per query (``reset`` per batch
    # kernel call), so none of them walks ``dataclasses.fields()``: the
    # instance dict of this plain dataclass *is* the counter set, in field
    # order — nothing ever sets another attribute on a ``Stats``.

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> dict:
        return vars(self).copy()

    def total_work(self) -> int:
        """A single scalar summarizing operator effort, for quick ratios."""
        return (
            self.predicate_evals
            + self.tuples_visited
            + self.hash_inserts
            + self.hash_probes
            + self.index_probes
            + self.comparisons
            + self.oid_derefs
        )

    def merge(self, other: "Stats") -> None:
        """Add ``other``'s counters into this bundle, in place."""
        mine = vars(self)
        for name, value in vars(other).items():
            if value:
                mine[name] += value

    def __add__(self, other: "Stats") -> "Stats":
        if not isinstance(other, Stats):
            return NotImplemented
        merged = Stats(**vars(self))
        merged.merge(other)
        return merged

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={value}" for name, value in vars(self).items() if value)
        return f"Stats({parts})"
