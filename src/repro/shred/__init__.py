"""Query shredding (PR 9): flat-relational evaluation of nested queries.

The paper rewrites nested OOSQL into join queries but stops at the
nestjoin — an operator that *produces* a nested result and therefore
evaluates its grouping fused with the join.  Query shredding (after
Cheney/Lindley/Wadler's shredded evaluation of nested queries) goes one
step further: decompose the nested-result plan into a DAG of *flat*
subplans — one per nesting level, linked by synthetic key attributes —
plus a stitching operator that reassembles the nested result from the
flat outputs.

The payoff is that each flat subplan is a first-class citizen of the
existing pipeline: the inner flat join is priced by the cost model,
reordered by the join-order DP, eligible for partitioned hash joins in
the shard tier and for batch kernels in the batch tier — none of
which the fused nestjoin can use.  Shredding enters the optimizer as a
*priced* rewrite candidate: the cost model compares the shredded plan
against the unshredded nestjoin and shredding wins only when estimated
cheaper (the paper's tiny queries provably stay unshredded).

Modules:

* :mod:`~repro.shred.translate` — the guarded ``NestJoin`` → ``Stitch``
  translation (:func:`shred_expr`);
* :mod:`~repro.shred.stitch` — the :class:`~repro.shred.stitch.StitchNest`
  physical operator reassembling the nested result.
"""

from repro.shred.stitch import StitchNest
from repro.shred.translate import shred_expr, shred_nestjoin

__all__ = ["StitchNest", "shred_expr", "shred_nestjoin"]
