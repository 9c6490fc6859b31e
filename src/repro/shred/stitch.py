"""The stitching operator: reassemble a nested result from flat subplans.

:class:`StitchNest` is the physical counterpart of the logical
:class:`~repro.adl.ast.Stitch` node.  It has two children:

* ``inner`` — the *flat* subplan: the plain join
  ``left ⋈⟨x,y : p⟩ right``, planned through the full pipeline (so it
  may be a hash join either way around, an index nested-loop join, or a
  gather over a partitioned hash join when the shard tier wins);
* ``outer`` — the left operand itself, re-streamed so dangling left
  tuples keep their empty set (the nestjoin's no-tuple-loss contract).

Evaluation consumes the inner subplan once (a pipeline break — the
groups must be complete before any output row is emitted), splits every
flat row ``z`` back into its operands via the synthetic key
(``x = z[key_attrs]``, ``y = z`` without ``key_attrs``), evaluates the
result function per pair into per-key groups, freezes each group once,
and then streams the outer subplan attaching each left tuple's group
(every dangling tuple shares one empty set) through the attach step the
hash nestjoin uses, :func:`~repro.engine.plan.attach_group`.

Known simplification (documented in ROADMAP): an *unpinned* run reads
the left source twice — once inside the inner join, once as the outer
stream — so a concurrent mutation between the two reads can tear the
result.  Snapshot-pinned executions (PR 7) read both from the same
epoch and are exact.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from repro.adl import ast as A
from repro.datamodel.values import VTuple, Value
from repro.engine.plan import EMPTY_GROUP, Batch, ExecRuntime, PlanNode, attach_group


class StitchNest(PlanNode):
    """Group a flat join's output by the synthetic key and re-attach the
    groups to the re-streamed outer subplan."""

    label = "StitchNest"
    break_note = "groups flat join"

    def __init__(
        self,
        lvar: str,
        rvar: str,
        as_attr: str,
        result: A.Expr,
        key_attrs: Tuple[str, ...],
        outer: PlanNode,
        inner: PlanNode,
    ) -> None:
        self.lvar = lvar
        self.rvar = rvar
        self.as_attr = as_attr
        self.result = result
        self.key_attrs = tuple(key_attrs)
        self.outer = outer
        self.inner = inner

    def children(self):
        return (self.outer, self.inner)

    def describe(self) -> str:
        from repro.adl.pretty import pretty

        return (
            f"{{{', '.join(self.key_attrs)}}} -> {self.as_attr} ; "
            f"{self.lvar},{self.rvar}: {pretty(self.result)}"
        )

    def _build_groups(self, rt: ExecRuntime) -> Dict[VTuple, frozenset]:
        """Consume the inner flat subplan and fold it into per-key groups,
        each frozen once.

        Each flat row splits into its originating pair through the
        synthetic key; the result function is evaluated per pair.  The
        inner subplan executes batched (``_consume`` drains its
        batches), so the flat join's kernels run.
        """
        result_fn = rt.compiled(self.result)
        key_attrs = self.key_attrs
        groups: Dict[VTuple, Set[Value]] = {}
        env: Dict[str, Value] = {}
        stats = rt.stats
        for z in self._consume(self.inner, rt):
            stats.tuples_visited += 1
            x = z.subscript(key_attrs)
            env[self.lvar] = x
            env[self.rvar] = z.drop(key_attrs)
            groups.setdefault(x, set()).add(result_fn(env))
        return {x: frozenset(group) for x, group in groups.items()}

    def iterate_batches(self, rt: ExecRuntime) -> Iterator[Batch]:
        # the group build consumes the inner subplan, then the outer
        # stream is stitched chunk-wise
        groups = self._build_groups(rt)
        as_attr = self.as_attr
        stats = rt.stats
        get = groups.get
        for batch in self.outer.stream_batches(rt):
            rows = batch.rows
            stats.tuples_visited += len(rows)
            stats.batches_emitted += 1
            yield Batch([attach_group(x, as_attr, get(x, EMPTY_GROUP)) for x in rows])
