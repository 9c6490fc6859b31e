"""The traced run: per-layer metrics, every layer timed from outside.

Nothing here adds a span inside ``src/``.  The run

1. sets the system up once, timing the storage phases;
2. replays the op script through the service with tracing off (service
   wall per op, exact work counters off ``QueryResult.stats``) and then
   with ``analyze=True`` (the PR-10 per-operator records, folded onto the
   plan tree to get operator *self* time, and the cost of observing);
3. replays every shape stage by stage from here — ``parse`` ->
   ``OOSQLTypeChecker`` -> ``translate`` -> ``Optimizer.optimize`` ->
   ``reorder_joins`` -> ``Planner.plan`` -> plan ``execute`` (batch and
   tuple mode; through this file's own ``ParallelExecutor`` when the plan
   gathers) — one span per call, kept in memory and written at exit to
   ``bench/out/trace-<workload>.json``.

Steps 2 and 3 take turns — an untraced pass, a traced pass, one staged
replay of every shape — until the time budget is spent, so a slow spell of
the machine lands on every side of the ratios and shares reported.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

from bench import harness as H
from bench.workloads import Workload

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
COMPILE_STAGES = (
    "oosql.parse", "oosql.typecheck", "translate.translate",
    "rewrite.optimize", "joinorder.reorder", "planner.plan",
)
OP_CLASSES = ("scan", "indexscan", "filter", "map", "hashjoin", "nest", "flatten", "exchange")
QUERY_CLASSES = (
    "paper_example", "setcmp", "quantifier", "nested_select", "chain",
    "semijoin", "antijoin", "nestjoin", "count_sub", "subset", "attr_unnest",
    "scan_filter", "join_wide", "join_low", "broadcast", "point", "point_filter",
)
WORK_COUNTERS = (
    "tuples_visited", "predicate_evals", "hash_inserts", "hash_probes",
    "index_probes", "output_tuples", "pipeline_breaks", "batches_emitted",
)
MIN_REPS = 3          # staged replays of every shape, at least
TUPLE_REPS = 3        # of which this many also run in tuple mode


class SpanLog:
    """Spans kept in memory: name, start, end, parent, op_id."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, op_id: str):
        record = {
            "name": name, "op_id": op_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._origin, "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._origin

    def with_self_times(self) -> List[dict]:
        """Spans plus ``self_s``: duration minus what the children cover."""
        covered = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        return [
            dict(span, self_s=span["end"] - span["start"] - covered[i])
            for i, span in enumerate(self.spans)
        ]


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _weighted_median(per_shape: Dict[int, float], weights: Dict[int, int]) -> float:
    """The value the median op of a pass sees: per-shape values weighted
    by how often the script runs the shape."""
    expanded = sorted(
        value for si, value in per_shape.items() for _ in range(weights.get(si, 0))
    )
    return H.percentile(expanded, 0.5) if expanded else 0.0


def op_class(label: str) -> Optional[str]:
    if label in ("Scan", "PartitionedScan"):
        return "scan"
    if label == "IndexScan":
        return "indexscan"
    if label == "Filter":
        return "filter"
    if label in ("Map", "Project", "Rename", "Eval"):
        return "map"
    if "nestjoin" in label or label in ("Nest", "StitchNest", "SortMergeNestJoin"):
        return "nest"
    if label.startswith(("HashJoin(", "MembershipHashJoin(", "PartitionedHashJoin(")):
        return "hashjoin"
    if label in ("Flatten", "Unnest"):
        return "flatten"
    if label.startswith("Exchange("):
        return "exchange"
    return None


def fold_operators(plan, operators: List[dict]) -> List[dict]:
    """Fold a traced run's per-operator records (plan order, executed
    nodes only) onto the plan tree: each record gains its parent's index
    and ``self_s`` = inclusive wall minus the children's inclusive wall."""
    pending = iter(operators)
    current = next(pending, None)
    index_of: Dict[int, int] = {}
    folded: List[dict] = []

    def visit(node, parent: Optional[int]) -> None:
        nonlocal current
        mine = parent
        if (
            current is not None
            and current["label"] == node.label
            and current["detail"] == node.describe()
        ):
            mine = len(folded)
            index_of[id(node)] = mine
            folded.append(dict(current, parent=parent, self_s=current["wall_s"]))
            if parent is not None:
                folded[parent]["self_s"] -= current["wall_s"]
            current = next(pending, None)
        for child in node.children():
            visit(child, mine)

    visit(plan, None)
    for rec in folded:
        rec["self_s"] = max(rec["self_s"], 0.0)
    return folded


# ---------------------------------------------------------------------------
# the staged replay
# ---------------------------------------------------------------------------


def _runtime(store, params, parallel, batch_size):
    """An ``ExecRuntime`` built the way ``QueryService._run`` builds one;
    returns it with the epoch to unpin afterwards."""
    from repro.engine.plan import ExecRuntime
    from repro.engine.stats import Stats
    from repro.storage.store import EpochView

    pinned = store.db.pin_epoch() if store.svc.snapshot_isolation else None
    exec_db = EpochView(store.db, pinned) if pinned is not None else store.db
    runtime = ExecRuntime(
        exec_db, Stats(), catalog=store.catalog, params=params,
        parallel=parallel, batch_size=batch_size,
    )
    return runtime, pinned


def replay_once(spans: SpanLog, store, shape, rep: int, workers: int, get_parallel, out: dict) -> None:
    """One stage-by-stage replay of one shape; appends its stage times to
    ``out["times"]`` and, on the first replay, records the exact counts,
    the plan and its explain text."""
    from repro.engine.joinorder import reorder_joins
    from repro.engine.planner import Planner
    from repro.oosql.parser import parse
    from repro.oosql.typecheck import OOSQLTypeChecker
    from repro.rewrite.strategy import Optimizer
    from repro.shard.nodes import Exchange
    from repro.translate.translator import translate

    times = out["times"]
    op_id = f"{shape.name}#{rep}"
    # rep 0 and rep 1 share a binding, so their difference is first-run cost
    params = shape.bindings[max(rep - 1, 0) % len(shape.bindings)]

    def stage(name, fn, *args, **kwargs):
        with spans.span(name, op_id) as record:
            value = fn(*args, **kwargs)
        times[name].append(_dur(record))
        return value

    node = stage("oosql.parse", parse, shape.text)
    if store.schema is not None:
        stage("oosql.typecheck", OOSQLTypeChecker(store.schema).check, node)
    adl = stage("translate.translate", translate, node, store.schema)
    chosen = stage(
        "rewrite.optimize",
        Optimizer(store.schema, catalog=store.catalog, parallel_workers=workers).optimize,
        adl,
    )
    with spans.span("planner.plan", op_id) as plan_span:
        planner = Planner(store.catalog, reorder=False, parallel_workers=workers)
        with spans.span("joinorder.reorder", op_id) as order_span:
            reordered, decisions = reorder_joins(chosen.expr, planner.cost_model, store.catalog)
        plan = planner.plan(reordered)
    times["joinorder.reorder"].append(_dur(order_span))
    times["planner.plan"].append(_dur(plan_span) - _dur(order_span))
    gathers = any(isinstance(op, Exchange) for op in plan.operators())
    parallel = get_parallel(store) if gathers else None

    modes = [("engine.execute", store.svc.batch_size)]
    if rep < TUPLE_REPS:
        modes.append(("engine.execute_tuple", None))
    for mode, batch_size in modes:
        runtime, pinned = _runtime(store, params, parallel, batch_size)
        try:
            rows = stage(mode, plan.execute, runtime)
        finally:
            if pinned is not None:
                store.db.unpin_epoch(pinned)
        if mode == "engine.execute" and parallel is not None:
            report = dict(parallel.last_report)
            report["local_work"] = runtime.stats.total_work() - report["total_work"]
            out["pool_reports"].append(report)
    if rep == 0:
        out.update(
            plan=plan,
            explain=plan.explain(),
            option=chosen.option,
            est_cost=plan.est_cost,
            rows=len(rows),
            ast_nodes=sum(1 for _ in node.walk()),
            adl_nodes=sum(1 for _ in adl.walk()),
            adl_nodes_out=sum(1 for _ in chosen.expr.walk()),
            candidates_priced=sum(a.est_cost is not None for a in chosen.attempts),
            rule_applications=sum(len(a.trace.steps) for a in chosen.attempts),
            set_oriented=bool(chosen.set_oriented),
            regions_reordered=sum(d.reordered for d in decisions),
            plan_operators=sum(1 for _ in plan.operators()),
        )


# ---------------------------------------------------------------------------
# helpers over the service's own surfaces
# ---------------------------------------------------------------------------


def _service_counters(system) -> Counter:
    total = Counter()
    for store in system.stores.values():
        stats = store.svc.stats()
        cache = stats["cache"]
        epochs = stats.get("epochs", {})
        total.update(
            compilations=stats["compilations"],
            hits=cache["hits"], misses=cache["misses"], invalidations=cache["invalidations"],
            pins_taken=stats["pins_taken"],
            shed=stats["rejected"] + stats["shed_queue_wait"] + stats["shed_fairness"],
            timeouts=stats["timeouts"],
            retries=stats["retries"], degraded_runs=stats["degraded_runs"],
            pool_rebuilds=stats.get("parallel", {}).get("pool_rebuilds", 0),
            misestimates=stats["misestimates"],
            epochs_published=epochs.get("epoch", 0),
            preserved_snapshots=epochs.get("preserved_snapshots", 0),
            reclaimed_snapshots=epochs.get("reclaimed_snapshots", 0),
            stat_refreshes=store.catalog.stat_refreshes,
            stat_increments=store.catalog.stat_increments,
            page_reads=getattr(getattr(store.db, "io", None), "pages_read", 0),
        )
    return total


def _histogram_quantile(system, name: str, q: float) -> float:
    """A quantile of a service histogram, interpolated inside its bucket
    (the registry's bucket bounds are the resolution)."""
    buckets: Dict[float, int] = defaultdict(int)
    for store in system.stores.values():
        lower = 0
        for entry in store.svc.metrics_snapshot()[name]["buckets"]:
            bound = float("inf") if entry["le"] == "+Inf" else entry["le"]
            buckets[bound] += entry["count"] - lower
            lower = entry["count"]
    total = sum(buckets.values())
    if not total:
        return 0.0
    rank, seen, previous = q * total, 0, 0.0
    for bound in sorted(buckets):
        if seen + buckets[bound] >= rank and buckets[bound]:
            if bound == float("inf"):
                return previous
            return previous + (bound - previous) * (rank - seen) / buckets[bound]
        seen += buckets[bound]
        previous = bound if bound != float("inf") else previous
    return previous


def _spearman(xs: List[float], ys: List[float]) -> float:
    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2.0
            i = j + 1
        return out

    if len(xs) < 2:
        return 0.0
    rx, ry = ranks(xs), ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    var = (sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)) ** 0.5
    return cov / var if var else 0.0


# ---------------------------------------------------------------------------
# the traced run, in steps
# ---------------------------------------------------------------------------

def _reads(passes) -> List[tuple]:
    return [read for logs in passes for log in logs for read in log.reads]


def _work(stats: dict) -> int:
    from repro.engine.stats import Stats

    return Stats(**stats).total_work()


class ServiceRun:
    """Step 2: the op script through the service, untraced and traced
    passes in turn.

    Counts come from exactly one untraced and one traced pass, so they do
    not depend on how many passes the time budget allows."""

    def __init__(self, workload, inputs, system, expected, problems) -> None:
        self.workload, self.inputs, self.system = workload, inputs, system
        self.expected, self.problems = expected, problems
        self.epochs = H.base_epochs(system)
        self.runner = H.Runner(workload, inputs, system)
        self.attempted = self.failed = 0
        self.keep_rows = expected is None

        start = time.perf_counter()
        self._pass(keep_rows=True)                        # warm-up, checked row for row
        self.warm_s = time.perf_counter() - start

        before = _service_counters(system)
        cpu_start = H.worker_cpu_seconds()
        self.untraced = [self._pass(keep_rows=self.keep_rows)]
        self.worker_cpu_s = H.worker_cpu_seconds() - cpu_start
        self.one_pass = _service_counters(system) - before
        before = _service_counters(system)
        self.traced = [self._pass(keep_rows=self.keep_rows, analyze=True)]
        self.one_traced_pass = _service_counters(system) - before

    def more(self) -> None:
        """One more untraced and one more traced pass."""
        self.untraced.append(self._pass(keep_rows=self.keep_rows))
        self.traced.append(self._pass(keep_rows=self.keep_rows, analyze=True))

    def _pass(self, **kwargs):
        """One script pass, every read checked."""
        logs, _ = self.runner.run_pass(keep_result=True, **kwargs)
        bad = H.check_reads(
            self.workload, self.inputs, logs, self.expected, self.epochs, self.runner.write_log
        )
        bad += [e for log in logs for e in log.errors]
        self.problems.extend(bad)
        self.attempted += sum(len(script) for script in self.inputs.scripts)
        self.failed += len(bad)
        return logs

    def writes(self) -> List[float]:
        return [
            w for passes in (self.untraced, self.traced)
            for logs in passes for log in logs for w in log.writes
        ]


def p50_by_shape(reads) -> Dict[int, float]:
    by_shape = defaultdict(list)
    for read in reads:
        by_shape[read[0]].append(read[2])
    return {si: statistics.median(values) for si, values in by_shape.items()}


class StagedReplay:
    """Step 3: every shape stage by stage, one replay of each per round.
    Plans that gather run through an executor built here, its
    ``run_fragments`` wrapped in a span."""

    def __init__(self, spans: SpanLog, inputs, system, workers: int) -> None:
        self.spans, self.inputs, self.system, self.workers = spans, inputs, system, workers
        self.rounds = 0
        self.replays: Dict[int, dict] = {
            si: {"times": defaultdict(list), "pool_reports": []}
            for si in range(len(inputs.shapes))
        }
        self._executors: Dict[int, object] = {}
        self._fragment_runs: List[dict] = []

    def _parallel(self, store):
        from repro.shard.executor import ParallelExecutor

        if id(store) not in self._executors:
            spans, runs = self.spans, self._fragment_runs
            px = ParallelExecutor(store.db, store.catalog, workers=self.workers, mode="process")
            inner = px.run_fragments

            def timed_run_fragments(specs, **kwargs):
                op_id = spans.spans[spans._stack[-1]]["op_id"]
                forks = px.pool_rebuilds
                with spans.span("shard.run_fragments", op_id) as record:
                    result = inner(specs, **kwargs)
                record["reforked"] = px.pool_rebuilds > forks
                runs.append(record)
                return result

            px.run_fragments = timed_run_fragments
            self._executors[id(store)] = px
        return self._executors[id(store)]

    def round(self) -> None:
        for si, shape in enumerate(self.inputs.shapes):
            replay_once(
                self.spans, self.system.stores[shape.store], shape, self.rounds, self.workers,
                self._parallel, self.replays[si],
            )
        self.rounds += 1

    def close(self) -> None:
        for px in self._executors.values():
            px.close()

    def results(self):
        """The per-shape replay records, ``shard.run_fragments`` times
        filled in, and what a pool fork costs: per shape, the runs that
        re-forked the pool against the runs (of either mode) that found
        it standing."""
        by_fork = defaultdict(lambda: ([], []))
        by_shape = defaultdict(list)
        for record in self._fragment_runs:
            name = record["op_id"].split("#")[0]
            by_fork[name][record["reforked"]].append(_dur(record))
            if self.spans.spans[record["parent"]]["name"] == "engine.execute":
                by_shape[name].append(_dur(record))      # the batch-mode executions only
        fork_s = _median(
            _median(forked) - _median(standing)
            for standing, forked in by_fork.values() if standing and forked
        )
        for si, shape in enumerate(self.inputs.shapes):
            self.replays[si]["times"]["shard.run_fragments"] = by_shape.get(shape.name, [])
        return self.replays, fork_s


def pool_speedups(workload, inputs, service: ServiceRun, replays, budget_s: float):
    """The pool against a serial twin service over the same data: wall
    (p50 per shape, the two services taking passes in turn) and the PR-5
    work model (serial work over coordinator work + critical fragment +
    gathered rows)."""
    serial = workload.load(inputs, parallel=False)
    pool_reads, serial_reads = [], []
    try:
        twin = H.Runner(workload, inputs, serial)
        twin.run_pass(keep_rows=False)                    # warm its plan cache
        deadline = time.perf_counter() + budget_s
        while not pool_reads or time.perf_counter() < deadline:
            pool_reads += _reads([service.runner.run_pass(False)[0]])
            serial_reads += _reads([twin.run_pass(False, keep_result=True)[0]])
    finally:
        serial.close()
    pool_p50, serial_p50 = p50_by_shape(pool_reads), p50_by_shape(serial_reads)
    wall = [serial_p50[si] / pool_p50[si] for si in replays if pool_p50.get(si)]
    work = []
    for si, rep in replays.items():
        serial_work = _median(_work(r[7].stats) for r in serial_reads if r[0] == si and r[1] == 0)
        for report in rep["pool_reports"][:1]:
            critical = report["local_work"] + report["critical_path_work"] + report["result_rows"]
            work.append(serial_work / critical if critical else 0.0)
    return _median(wall), _median(work)


def fold_traced(traced_reads, first_pass_ops: int, replays, shapes):
    """Fold the traced passes' per-operator records onto the plan trees:
    self seconds per operator class, scanned rows, q-errors, and the first
    traced pass's folded records for the trace file."""
    op_self, scan_rows, q_errors, dump = Counter(), 0, [], []
    stitch_s = 0.0
    for n, read in enumerate(traced_reads):
        si, result = read[0], read[7]
        folded = fold_operators(replays[si]["plan"], (result.trace or {}).get("operators", []))
        for rec in folded:
            cls = op_class(rec["label"])
            if cls:
                op_self[cls] += rec["self_s"]
            if cls == "scan":
                scan_rows += rec["rows_out"]
            if rec["label"] == "StitchNest":
                stitch_s += rec["self_s"]
            if rec["est_rows"] is not None:
                est, actual = max(float(rec["est_rows"]), 1.0), max(float(rec["rows_out"]), 1.0)
                q_errors.append(max(est / actual, actual / est))
        if n < first_pass_ops:
            dump.append({"op_id": f"{shapes[si].name}@{n}", "operators": folded})
    return op_self, scan_rows, q_errors, stitch_s, dump


def run_layers(workload: Workload, seed: int, seconds: float, scale: float) -> dict:
    spans = SpanLog()
    problems, work_ratios = H.reduced_scale_oracle(workload, seed)
    expected = H.expected_answers(workload, workload.inputs(seed, scale))
    inputs, system, generate_s = H.build(workload, seed, scale)
    phases = dict(system.phases)
    shapes = inputs.shapes
    cold, workers = workload.cold_cache, workload.pool_workers

    service = ServiceRun(workload, inputs, system, expected, problems)
    staged = StagedReplay(spans, inputs, system, workers)
    # service passes and staged rounds take turns, so a slow spell of the
    # machine lands on every side of the shares and ratios computed below
    deadline = time.perf_counter() + 0.7 * seconds
    try:
        staged.round()
        while staged.rounds < MIN_REPS or time.perf_counter() < deadline:
            if time.perf_counter() < deadline:
                service.more()
            staged.round()
    finally:
        staged.close()
    replays, fork_s = staged.results()
    wall_speedup, work_speedup = (
        pool_speedups(workload, inputs, service, replays, 0.15 * seconds) if workers
        else (0.0, 0.0)
    )
    first_pass = _reads(service.untraced[:1])
    untraced, traced = _reads(service.untraced), _reads(service.traced)
    op_self, scan_rows, q_errors, stitch_s, operator_dump = fold_traced(
        traced, len(first_pass), replays, shapes
    )
    peak_in_flight = max(s.svc.stats()["peak_in_flight"] for s in system.stores.values())
    queue_wait = [_histogram_quantile(system, "repro_queue_wait_seconds", q) for q in (0.50, 0.95)]
    rss = H.peak_rss_mb()
    system.close()

    # -- per-shape medians, weighted by the script's mix ----------------------
    weights = Counter(op[1] for script in inputs.scripts for op in script if op[0] == "q")

    stage_names = (*COMPILE_STAGES, "engine.execute", "shard.run_fragments")
    per_shape: Dict[str, Dict[int, float]] = {
        name: {si: _median(rep["times"][name]) for si, rep in replays.items()}
        for name in stage_names
    }

    def stage_ms(name: str) -> float:
        return 1e3 * _weighted_median(per_shape[name], weights)

    def count_sum(key: str) -> int:
        return sum(rep[key] for rep in replays.values())

    def share_of_shapes(key, value=True) -> float:
        return sum(rep[key] == value for rep in replays.values()) / len(replays)

    execute = per_shape["engine.execute"]
    service_p50 = p50_by_shape(untraced)
    staged = {
        si: execute[si] + (sum(per_shape[s][si] for s in COMPILE_STAGES) if cold else 0.0)
        for si in replays
    }
    overhead_ms = 1e3 * _weighted_median(
        {si: service_p50[si] - staged[si] for si in replays if si in service_p50}, weights
    )
    exec_wall = sum(r[7].wall_s for r in untraced)
    stats_sum = Counter()
    for read in first_pass:
        stats_sum.update(read[7].stats)
    one, one_traced = service.one_pass, service.one_traced_pass
    reports = [r for rep in replays.values() for r in rep["pool_reports"][:1]]
    n_traced = max(len(traced), 1)

    values = {
        "oosql.parse_ms": (stage_ms("oosql.parse"), "ms"),
        "oosql.typecheck_ms": (stage_ms("oosql.typecheck"), "ms"),
        "oosql.ast_nodes": (count_sum("ast_nodes"), "count"),
        "translate.translate_ms": (stage_ms("translate.translate"), "ms"),
        "translate.adl_nodes": (count_sum("adl_nodes"), "count"),
        "rewrite.optimize_ms": (stage_ms("rewrite.optimize"), "ms"),
        "rewrite.candidates_priced": (count_sum("candidates_priced"), "count"),
        "rewrite.rule_applications": (count_sum("rule_applications"), "count"),
        "rewrite.adl_nodes_out": (count_sum("adl_nodes_out"), "count"),
        "rewrite.set_oriented_share": (share_of_shapes("set_oriented"), "ratio"),
        "rewrite.work_ratio": (_median(work_ratios.values()), "ratio"),
        "shred.chosen_share": (share_of_shapes("option", "shredded"), "ratio"),
        "shred.stitch_self_ms": (1e3 * stitch_s / n_traced, "ms"),
        "joinorder.reorder_ms": (stage_ms("joinorder.reorder"), "ms"),
        "joinorder.regions_reordered": (count_sum("regions_reordered"), "count"),
        "planner.plan_ms": (stage_ms("planner.plan"), "ms"),
        "planner.plan_operators": (count_sum("plan_operators"), "count"),
        "cost.q_error_p50": (_median(q_errors, 1.0), "ratio"),
        "cost.q_error_max": (max(q_errors, default=1.0), "ratio"),
        "cost.rank_corr": (
            _spearman(
                [float(rep["est_cost"] or 0.0) for rep in replays.values()],
                [execute[si] for si in replays],
            ), "ratio"),
        "compile.first_run_extra_ms": (
            1e3 * _median(
                rep["times"]["engine.execute"][0] - rep["times"]["engine.execute"][1]
                for rep in replays.values()
            ), "ms"),
        "compile.vector_fallback_share": (
            stats_sum["vector_fallbacks"] / max(stats_sum["batches_emitted"], 1), "ratio"),
        "engine.execute_ms": (stage_ms("engine.execute"), "ms"),
        "engine.ns_per_work": (
            1e9 * exec_wall / max(sum(_work(r[7].stats) for r in untraced), 1), "ns"),
        "engine.rows_out_per_s": (sum(len(r[7].rows) for r in untraced) / exec_wall, "1/s"),
        "engine.batch_over_tuple": (
            _median(
                _median(rep["times"]["engine.execute_tuple"]) / execute[si]
                for si, rep in replays.items()
            ), "ratio"),
        "engine.total_work": (_work(stats_sum), "count"),
    }
    for counter in WORK_COUNTERS:
        values[f"engine.{counter}"] = (stats_sum[counter], "count")
    for cls in OP_CLASSES:
        values[f"engine.op.{cls}.self_ms"] = (1e3 * op_self[cls] / n_traced, "ms")
    for cls in QUERY_CLASSES:
        sample = sorted(r[2] for r in untraced if shapes[r[0]].cls == cls)
        values[f"engine.class.{cls}.p50_ms"] = (
            1e3 * H.percentile(sample, 0.5) if sample else 0.0, "ms")
    values.update({
        "shard.run_fragments_ms": (stage_ms("shard.run_fragments"), "ms"),
        "shard.fragments": (sum(r["fragments"] for r in reports), "count"),
        "shard.critical_path_work": (sum(r["critical_path_work"] for r in reports), "count"),
        "shard.gathered_rows": (sum(r["result_rows"] for r in reports), "count"),
        "shard.work_model_speedup": (work_speedup, "ratio"),
        "shard.wall_speedup": (wall_speedup, "ratio"),
        "shard.pool_fork_ms": (1e3 * fork_s, "ms"),
        "shard.pool_rebuilds": (one["pool_rebuilds"], "count"),
        "shard.worker_cpu_s": (service.worker_cpu_s, "s"),
        "shard.retries": (one["retries"], "count"),
        "shard.degraded_runs": (one["degraded_runs"], "count"),
        "service.overhead_ms": (overhead_ms, "ms"),
        "service.queue_wait_p50_ms": (1e3 * queue_wait[0], "ms"),
        "service.queue_wait_p95_ms": (1e3 * queue_wait[1], "ms"),
        "service.cache_hit_ratio": (one["hits"] / max(one["hits"] + one["misses"], 1), "ratio"),
        "service.compilations": (one["compilations"], "count"),
        "service.invalidations": (one["invalidations"], "count"),
        "service.peak_in_flight": (peak_in_flight, "count"),
        "service.pins_taken": (one["pins_taken"], "count"),
        "service.shed": (one["shed"], "count"),
        "service.timeouts": (one["timeouts"], "count"),
        "storage.generate_s": (generate_s + phases["generate"], "s"),
        "storage.analyze_ms": (1e3 * phases["analyze"], "ms"),
        "storage.index_build_ms": (1e3 * phases["index"], "ms"),
        "storage.partition_ms": (1e3 * phases["partition"], "ms"),
        "storage.scan_rows_per_s": (scan_rows / op_self["scan"] if op_self["scan"] else 0.0, "1/s"),
        "storage.page_reads": (one["page_reads"], "count"),
        "storage.write_batch_p50_ms": (1e3 * _median(service.writes()), "ms"),
        "storage.epochs_published": (one["epochs_published"], "count"),
        "storage.preserved_snapshots": (one["preserved_snapshots"], "count"),
        "storage.reclaimed_snapshots": (one["reclaimed_snapshots"], "count"),
        "storage.stat_refreshes": (one["stat_refreshes"], "count"),
        "storage.stat_increments": (one["stat_increments"], "count"),
        "obs.trace_overhead_ratio": (
            _median(r[2] for r in traced) / _median(r[2] for r in untraced), "ratio"),
        "obs.analyze_render_ms": (
            1e3 * (_median(r[2] - r[7].wall_s for r in traced)
                   - _median(r[2] - r[7].wall_s for r in untraced)), "ms"),
        "obs.misestimates_flagged": (one_traced["misestimates"], "count"),
    })

    # -- layer shares: where the median op's service wall goes ----------------
    # stage rows are self times over the mix-weighted service p50; operator
    # rows are mean self time over the mean service wall of the traced ops
    # they were recorded in (a mean adds up across a mixed script, a median
    # does not)
    p50_ms = 1e3 * _weighted_median(service_p50, weights)
    mean_ms = 1e3 * statistics.fmean(r[2] for r in traced)
    compile_ms = sum(stage_ms(s) for s in COMPILE_STAGES)
    if not cold:
        # warm ops compile only on a cache miss, but parse the shape key every time
        ops_per_pass = sum(len(script) for script in inputs.scripts)
        compile_ms = compile_ms * one["compilations"] / ops_per_pass + stage_ms("oosql.parse")
    shares = {
        "service_p50_ms": p50_ms,
        "compile_phases": compile_ms / p50_ms,
        "engine.execute": 1e3 * _weighted_median(
            {si: execute[si] - per_shape["shard.run_fragments"][si] for si in replays}, weights
        ) / p50_ms,
        "shard.run_fragments": stage_ms("shard.run_fragments") / p50_ms,
        "service.overhead": overhead_ms / p50_ms,
        "traced_service_mean_ms": mean_ms,
    }
    for cls in OP_CLASSES:
        shares[f"engine.op.{cls}/mean"] = values[f"engine.op.{cls}.self_ms"][0] / mean_ms

    shape_info = {
        shapes[si].name: {
            "class": shapes[si].cls, "text": " ".join(shapes[si].text.split()),
            "option": rep["option"], "est_cost": rep["est_cost"], "rows": rep["rows"],
            "explain": rep["explain"].splitlines(),
        }
        for si, rep in replays.items()
    }
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{workload.name}.json")
    with open(trace_path, "w") as fh:
        json.dump(
            {
                "workload": workload.name, "seed": seed, "scale": scale,
                "sizes": inputs.sizes, "clients": len(inputs.scripts),
                "layer_shares": shares, "shapes": shape_info,
                "spans": spans.with_self_times(), "service_operators": operator_dump,
            },
            fh, indent=1, default=str,
        )
    return {
        "correct": service.failed == 0 and not problems,
        "attempted": service.attempted,
        "failed": service.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "detail": {
            "layer_shares": shares, "shapes": shape_info,
            "trace_file": os.path.relpath(trace_path, os.path.dirname(OUT)),
            "warmup_s": service.warm_s, "peak_rss_mb": rss,
            "passes": {"untraced": len(service.untraced), "traced": len(service.traced)},
            "problems": problems[:20],
        },
    }
