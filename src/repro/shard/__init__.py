"""Partition-parallel execution (PR 5): sharded extents, exchange
operators, and a process-pool executor.

The paper's argument — set-oriented join plans beat tuple-at-a-time
nested loops — scales one more level: *partitioned* set-at-a-time
execution beats single-threaded set-at-a-time.  This package is that
level:

* :mod:`repro.shard.partition` — deterministic hash partitioning and the
  :class:`PartitionedExtent` snapshots the
  :class:`~repro.storage.catalog.Catalog` registers;
* :mod:`repro.shard.fragment` — the fragment-shipping contract: plan
  fragments travel as canonical pretty-printed ADL text plus shard
  bindings and parameter bindings, and re-parse/re-plan locally
  (:func:`execute_fragment`) wherever they run;
* :mod:`repro.shard.nodes` — the parallel physical operators
  (:class:`PartitionedScan`, :class:`Exchange`,
  :class:`PartitionedHashJoin`) that join the planner's candidate
  enumeration with real cost formulas;
* :mod:`repro.shard.executor` — :class:`ParallelExecutor`, the forked
  worker processes (one pipe each) that fan fragments out and merge
  partial results and per-worker statistics.
"""

from repro.shard.executor import ParallelExecutor
from repro.shard.fragment import (
    FragmentSpec,
    ShardRef,
    ShardView,
    execute_fragment,
    fragment_stats_total,
)
from repro.shard.nodes import Exchange, PartitionedHashJoin, PartitionedScan
from repro.shard.partition import PartitionedExtent, partition_of, partition_rows, stable_hash

__all__ = [
    "Exchange",
    "FragmentSpec",
    "ParallelExecutor",
    "PartitionedExtent",
    "PartitionedHashJoin",
    "PartitionedScan",
    "ShardRef",
    "ShardView",
    "execute_fragment",
    "fragment_stats_total",
    "partition_of",
    "partition_rows",
    "stable_hash",
]
