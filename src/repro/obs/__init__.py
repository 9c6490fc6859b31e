"""Query observability (PR 10): tracing, metrics, estimate feedback.

* :class:`TraceRecorder` — per-operator execution tracing, attached via
  ``ExecRuntime(trace=...)``; drives EXPLAIN ANALYZE and the
  cross-process span assembly;
* :class:`MetricsRegistry` (+ :class:`Counter` / :class:`Gauge` /
  :class:`Histogram`) — the unified metrics surface with JSON snapshot
  and Prometheus-style export;
* :class:`MisestimateStore` — bounded per-shape estimate-vs-actual miss
  records, the hook for the replan trigger (ROADMAP open item 5);
* :class:`SlowQueryLog` — threshold-gated slow-query capture.
"""

from repro.obs.analyze import AnalyzeResult
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.misestimate import MisestimateStore
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import OpTrace, TraceRecorder, misestimate

__all__ = [
    "AnalyzeResult",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MisestimateStore",
    "OpTrace",
    "SlowQueryLog",
    "TraceRecorder",
    "misestimate",
]
