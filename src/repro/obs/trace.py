"""Per-operator execution tracing (PR 10).

A :class:`TraceRecorder` attached to an :class:`~repro.engine.plan.ExecRuntime`
(``ExecRuntime(trace=recorder)``) observes every plan node at its
operator edge: ``stream_batches()`` routes the node's batch generator
through :meth:`TraceRecorder.wrap_batches`, which counts rows and batches
out, accumulates inclusive wall time per ``next()`` call, and records the
*fill time* — the delay between opening the iterator and its first
yield, which for pipeline breakers is the time spent materializing the
input.  ``stream()`` flattens that same metered edge into rows.

Overhead contract (the operator edge, shared with the deadline poll):

* **untraced runs pay nothing** — ``stream_batches()`` tests
  ``rt.trace is None`` once per operator *open* and, without a deadline
  either, returns the raw generator, so the hot loops are the engine's
  own;
* **traced runs pay one clock read and a few attribute bumps per
  batch** — no allocation per row, no callback indirection.

Cross-process spans: partitioned operators thread ``trace_id`` into every
shipped :class:`~repro.shard.fragment.FragmentSpec`; workers return a span
record piggybacked on the stats snapshot (under the ``"_span"`` key, which
:func:`~repro.shard.fragment.merge_stats_snapshot` skips), and the gather
hands it back to the recorder together with the retry/degradation events
from :meth:`~repro.shard.executor.ParallelExecutor.run_fragments` — so one
traced parallel query yields a complete tree spanning coordinator and
pool, failed attempts included.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterator, List, Optional

from repro.engine.cost import format_estimate

#: process-wide monotonic trace ids — stable, printable, no clock reads
_TRACE_IDS = itertools.count(1)

#: the q-error past which an executed operator's estimate is flagged
Q_ERROR_THRESHOLD = 4.0

#: the absolute floor of a misestimate: an estimate off by fewer rows
#: than this is never flagged, whatever its ratio (est≈2 vs 9 rows is a
#: q-error of 4.5 and harmless)
MISESTIMATE_MIN_ROWS = 10


def _fmt_rows(value) -> str:
    if value is None:
        return "?"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.1f}"
    return str(int(value))


def q_error(est: Optional[float], actual: int) -> Optional[float]:
    """The symmetric cardinality q-error ``max(est/actual, actual/est)``
    with both sides floored at 1 row; ``None`` when there is no estimate
    (heuristic plans carry none)."""
    if est is None:
        return None
    e = max(float(est), 1.0)
    a = max(float(actual), 1.0)
    return max(e / a, a / e)


def misestimate(est: Optional[float], actual: int) -> Optional[float]:
    """The one misestimate test: the q-error when it exceeds
    :data:`Q_ERROR_THRESHOLD` *and* the estimate is off by at least
    :data:`MISESTIMATE_MIN_ROWS` rows, else ``None`` (also when there is
    no estimate)."""
    q = q_error(est, actual)
    if q is None or q <= Q_ERROR_THRESHOLD or abs(est - actual) < MISESTIMATE_MIN_ROWS:
        return None
    return q


class OpTrace:
    """Per-operator record: rows/batches out, inclusive wall time, fill
    time to first row, and how many times the operator was opened."""

    __slots__ = (
        "label",
        "detail",
        "est_rows",
        "rows_out",
        "batches_out",
        "wall_s",
        "first_row_s",
        "calls",
    )

    def __init__(self, label: str, detail: str, est_rows) -> None:
        self.label = label
        self.detail = detail
        self.est_rows = est_rows
        self.rows_out = 0
        self.batches_out = 0
        self.wall_s = 0.0
        self.first_row_s: Optional[float] = None
        self.calls = 0

    def snapshot(self) -> dict:
        return {
            "label": self.label,
            "detail": self.detail,
            "est_rows": self.est_rows,
            "rows_out": self.rows_out,
            "batches_out": self.batches_out,
            "wall_s": self.wall_s,
            "first_row_s": self.first_row_s,
            "calls": self.calls,
        }


class TraceRecorder:
    """One traced run: per-operator records keyed by plan-node identity,
    plus cross-process fragment spans and gather events.

    The recorder holds strong references to the nodes it has seen so
    ``id()`` keys can never be recycled within a run.
    """

    def __init__(self) -> None:
        self.trace_id = f"t{next(_TRACE_IDS)}"
        self.records: Dict[int, OpTrace] = {}
        self._nodes: Dict[int, object] = {}
        #: per-gather-node fragment span records shipped back from workers
        self.fragment_spans: Dict[int, List[dict]] = {}
        #: per-gather-node batch report from ``run_fragments`` (mode,
        #: retries, degraded, breaker, attempts, per-fragment work)
        self.gather_events: Dict[int, dict] = {}

    # -- recording ----------------------------------------------------------
    def _record(self, node) -> OpTrace:
        key = id(node)
        rec = self.records.get(key)
        if rec is None:
            rec = OpTrace(node.label, node.describe(), node.est_rows)
            self.records[key] = rec
            self._nodes[key] = node
        return rec

    def wrap_batches(self, node, it: Iterator) -> Iterator:
        """Meter a batch iterator: batches and rows out, wall, fill."""
        rec = self._record(node)
        rec.calls += 1
        first = rec.first_row_s is None
        opened = time.perf_counter()
        start = opened
        for batch in it:
            now = time.perf_counter()
            rec.wall_s += now - start
            if first:
                rec.first_row_s = now - opened
                first = False
            rec.batches_out += 1
            rec.rows_out += len(batch)
            yield batch
            start = time.perf_counter()
        rec.wall_s += time.perf_counter() - start

    def record_result(self, node, rows: int, wall_s: float) -> None:
        """Record a node that produced its result in one shot (e.g. the
        direct-evaluation path of ``EvalExpr``)."""
        rec = self._record(node)
        rec.calls += 1
        rec.rows_out += rows
        rec.wall_s += wall_s
        if rec.first_row_s is None:
            rec.first_row_s = wall_s

    def add_fragment_span(self, node, span: dict) -> None:
        self._record(node)
        self.fragment_spans.setdefault(id(node), []).append(span)

    def add_events(self, node, events: dict) -> None:
        self._record(node)
        self.gather_events[id(node)] = dict(events)

    # -- reporting ----------------------------------------------------------
    def annotation(self, node) -> str:
        """The EXPLAIN ANALYZE suffix for one node: ``(est≈N, actual=M,
        X.Xms)`` plus a misestimate flag past the q-error threshold.
        Nodes that never opened fall back to the static estimate text."""
        rec = self.records.get(id(node))
        if rec is None:
            estimate = format_estimate(node.est_rows, node.est_cost)
            return f"{estimate} (never executed)".strip()
        text = (
            f"(est≈{_fmt_rows(rec.est_rows)}, actual={rec.rows_out},"
            f" {rec.wall_s * 1000.0:.1f}ms)"
        )
        q = misestimate(rec.est_rows, rec.rows_out)
        if q is not None:
            text += f" !! misestimate q≈{q:.1f}"
        return text

    def misestimates(self, plan) -> List[dict]:
        """Operator-level misestimate records for ``plan``: every executed
        node :func:`misestimate` flags."""
        out = []
        for node in plan.operators():
            rec = self.records.get(id(node))
            if rec is None:
                continue
            q = misestimate(rec.est_rows, rec.rows_out)
            if q is not None:
                out.append(
                    {
                        "operator": rec.label,
                        "detail": rec.detail,
                        "est_rows": rec.est_rows,
                        "actual_rows": rec.rows_out,
                        "q_error": q,
                    }
                )
        return out

    def _span_lines(self, plan) -> List[str]:
        lines: List[str] = []
        for node in plan.operators():
            spans = self.fragment_spans.get(id(node))
            events = self.gather_events.get(id(node))
            if not spans and not events:
                continue
            lines.append(f"-- spans: {node.label} [{node.describe()}]")
            if events:
                mode = events.get("mode", "?")
                summary = f"   events: mode={mode}"
                if events.get("retries"):
                    summary += f" retries={events['retries']}"
                if events.get("degraded"):
                    summary += " degraded"
                breaker = events.get("breaker")
                if breaker:
                    summary += f" breaker={breaker}"
                lines.append(summary)
                for att in events.get("attempts", ()):
                    mark = "FAILED" if att.get("status") != "ok" else "ok"
                    line = (
                        f"   attempt {att.get('attempt')}"
                        f" [{att.get('mode', '?')}] {mark}"
                    )
                    if att.get("error"):
                        line += f" ({att['error']})"
                    lines.append(line)
            for span in spans or ():
                where = "worker" if span.get("in_worker") else "inline"
                lines.append(
                    f"   fragment {span.get('fragment')}"
                    f" attempt={span.get('attempt')} [{where}"
                    f" pid={span.get('pid')}] rows={span.get('rows')}"
                    f" work={span.get('work')}"
                    f" {span.get('wall_s', 0.0) * 1000.0:.1f}ms"
                )
        return lines

    def render(self, plan) -> str:
        """The annotated EXPLAIN ANALYZE text: the ordinary ``explain()``
        headers and tree with per-node actuals, then the cross-process
        span section."""
        return "\n".join([plan.explain(annotate=self.annotation)] + self._span_lines(plan))

    def summary(self, plan=None) -> dict:
        """A JSON-friendly digest: per-operator snapshots (plan order when
        a plan is given, discovery order otherwise), spans, events."""
        if plan is not None:
            ops = [
                self.records[id(node)].snapshot()
                for node in plan.operators()
                if id(node) in self.records
            ]
        else:
            ops = [rec.snapshot() for rec in self.records.values()]
        return {
            "trace_id": self.trace_id,
            "operators": ops,
            "fragment_spans": [
                span for spans in self.fragment_spans.values() for span in spans
            ],
            "gather_events": list(self.gather_events.values()),
        }
