"""End-to-end measurement: set-up, oracle checks, closed-loop passes.

One run of one workload (tracing off):

1. inputs from ``--seed``; reference answers from ``bench/reference.py``;
2. the reduced-scale three-way oracle (service == interpreter on the
   unrewritten translation == reference);
3. set-up, five times, timed: generate + load + catalog work + service
   construction (+ pool fork) + one warm-up pass; the warm-up rows are
   checked row for row against the reference after the clock stops;
4. closed-loop measured passes of the fixed op script until ``--seconds``
   have elapsed (at least ``MIN_PASSES``), each op timed client side,
   checked on row count and epoch (sessions_rw: on rows, against the write
   log replayed up to ``QueryResult.epoch``).
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from bench import reference as R
from bench.workloads import Inputs, System, Workload, _vtuples

MIN_PASSES = 3
_TICKS = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# process accounting
# ---------------------------------------------------------------------------


def _child_pids() -> List[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid is not None]


def _proc_cpu(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS
    except (OSError, IndexError, ValueError):
        return 0.0


def cpu_seconds() -> float:
    """User+system CPU of this process, its reaped children and its live
    (pool worker) children — ``RUSAGE_CHILDREN`` alone misses live ones."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime + worker_cpu_seconds()


def worker_cpu_seconds() -> float:
    """CPU of child processes alone: reaped ones (a re-forked pool's old
    workers) plus the live ones."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime + sum(_proc_cpu(pid) for pid in _child_pids())


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus the high-water marks of its
    live pool children."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in _child_pids():
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


def percentile(sorted_values: List[float], q: float) -> float:
    """Linearly interpolated percentile of an already sorted sample.
    Interpolating keeps the value steady when the rank falls between two
    query classes of a mixed script."""
    position = q * (len(sorted_values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


# ---------------------------------------------------------------------------
# running a pass
# ---------------------------------------------------------------------------


@dataclass
class PassLog:
    """What one client saw in one pass."""

    #: (shape index, binding index, seconds, rows-or-count, result epoch,
    #:  store epoch before submit, store epoch after completion,
    #:  the QueryResult when the caller asked to keep it)
    reads: List[tuple] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


class Runner:
    """Drives the op scripts of one loaded system."""

    def __init__(self, workload: Workload, inputs: Inputs, system: System) -> None:
        self.workload = workload
        self.inputs = inputs
        self.system = system
        self.write_lock = threading.Lock()
        #: (epoch published, kind, raw rows) — appended under ``write_lock``
        self.write_log: List[tuple] = []
        self._write_rows: Dict[int, list] = {
            id(op[2]): _vtuples(op[2])
            for script in inputs.scripts for op in script if op[0] == "w"
        }
        self._sessions = [
            {name: store.svc.session() for name, store in system.stores.items()}
            for _ in inputs.scripts
        ]

    def _client(
        self, client: int, keep_rows: bool, log: PassLog, analyze: bool, keep_result: bool
    ) -> None:
        shapes = self.inputs.shapes
        sessions = self._sessions[client]
        stores = self.system.stores
        perf = time.perf_counter
        for op in self.inputs.scripts[client]:
            if op[0] == "q":
                _, si, bi = op
                shape = shapes[si]
                db = stores[shape.store].db
                before = db.epoch
                start = perf()
                try:
                    res = sessions[shape.store].execute(
                        shape.text, shape.bindings[bi], analyze=analyze
                    )
                except Exception as exc:  # counted as a failed op, never fatal
                    log.errors.append(f"{shape.name}: {type(exc).__name__}: {exc}")
                    continue
                elapsed = perf() - start
                log.reads.append(
                    (si, bi, elapsed, res.rows if keep_rows else len(res.rows),
                     res.epoch, before, db.epoch, res if keep_result else None)
                )
            else:
                _, kind, rows = op
                db = stores["xy"].db
                start = perf()
                try:
                    with self.write_lock:
                        mutate = db.insert_rows if kind == "insert" else db.delete_rows
                        mutate("X", self._write_rows[id(rows)])
                        self.write_log.append((db.epoch, kind, rows))
                except Exception as exc:
                    log.errors.append(f"write {kind}: {type(exc).__name__}: {exc}")
                    continue
                log.writes.append(perf() - start)

    def run_pass(
        self, keep_rows: bool, analyze: bool = False, keep_result: bool = False
    ) -> Tuple[List[PassLog], float]:
        """One pass of every client's script; returns the logs and the
        pass wall (barrier release to last client done)."""
        logs = [PassLog() for _ in self.inputs.scripts]
        if len(logs) == 1:
            start = time.perf_counter()
            self._client(0, keep_rows, logs[0], analyze, keep_result)
            return logs, time.perf_counter() - start
        barrier = threading.Barrier(len(logs) + 1)

        def work(client: int) -> None:
            barrier.wait()
            self._client(client, keep_rows, logs[client], analyze, keep_result)

        threads = [threading.Thread(target=work, args=(c,)) for c in range(len(logs))]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        return logs, time.perf_counter() - start


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def expected_answers(workload: Workload, inputs: Inputs) -> Optional[Dict[tuple, frozenset]]:
    """Reference answer per (shape, binding) of the script; ``None`` for a
    workload that writes, whose answers depend on the write log (checked
    after)."""
    if workload.mutates:
        return None
    wanted = {(op[1], op[2]) for script in inputs.scripts for op in script if op[0] == "q"}
    return {
        (si, bi): inputs.shapes[si].reference(
            inputs.raw[inputs.shapes[si].store], inputs.shapes[si].bindings[bi]
        )
        for si, bi in sorted(wanted)
    }


def check_reads(
    workload: Workload,
    inputs: Inputs,
    logs: List[PassLog],
    expected: Optional[Dict[tuple, frozenset]],
    base_epochs: Dict[str, Optional[int]],
    write_log: List[tuple],
) -> List[str]:
    """Mismatch descriptions (empty when every read is right).  Reads
    carrying rows are compared row for row, reads carrying a count on
    count; every read on its epoch."""
    problems: List[str] = []
    reads = [read for log in logs for read in log.reads]
    if expected is None:
        state = R.RwState(inputs.raw["xy"], base_epochs["xy"], write_log)
        for si, bi, _, rows, epoch, before, after, _ in sorted(reads, key=lambda r: r[4]):
            shape = inputs.shapes[si]
            if not before <= epoch <= after:
                problems.append(f"{shape.name}: epoch {epoch} outside [{before}, {after}]")
                continue
            state.advance(epoch)
            if R.plain(rows) != shape.reference(state, shape.bindings[bi]):
                problems.append(f"{shape.name}{shape.bindings[bi]} wrong rows at epoch {epoch}")
        return problems
    for si, bi, _, rows, epoch, _, _, _ in reads:
        shape = inputs.shapes[si]
        want = expected[(si, bi)]
        if epoch != base_epochs[shape.store]:
            problems.append(f"{shape.name}: epoch {epoch} != {base_epochs[shape.store]}")
        elif isinstance(rows, int):
            if rows != len(want):
                problems.append(f"{shape.name}{shape.bindings[bi]}: {rows} rows, want {len(want)}")
        elif R.plain(rows) != want:
            problems.append(f"{shape.name}{shape.bindings[bi]}: rows differ from the reference")
    return problems


def reduced_scale_oracle(workload: Workload, seed: int) -> Tuple[List[str], Dict[str, float]]:
    """Level (a): every shape, at reduced scale, three ways — service rows
    == ``Interpreter`` on the *unrewritten* translation == reference.
    Also returns per shape ``Stats.total_work`` of the unrewritten plan
    over the chosen plan (the reduced-scale ``rewrite.work_ratio``)."""
    from repro.engine import Interpreter, Stats
    from repro.translate import compile_oosql

    inputs = workload.small(seed)
    system = workload.load_small(inputs)
    problems: List[str] = []
    ratios: Dict[str, float] = {}
    try:
        for shape in inputs.shapes:
            store = system.stores[shape.store]
            adl = compile_oosql(shape.text, store.schema)
            for params in shape.bindings[:2]:
                got = store.svc.execute(shape.text, params)
                naive = Stats()
                want = Interpreter(store.db, naive, params).eval(adl)
                if workload.mutates:
                    ref = shape.reference(R.RwState(inputs.raw["xy"], 0, []), params)
                else:
                    ref = shape.reference(inputs.raw[shape.store], params)
                if got.rows != want:
                    problems.append(f"{shape.name}{params}: service != interpreter (reduced scale)")
                if R.plain(want) != ref:
                    problems.append(f"{shape.name}{params}: interpreter != reference (reduced scale)")
                ratios[shape.name] = naive.total_work() / max(Stats(**got.stats).total_work(), 1)
    finally:
        system.close()
    return problems, ratios


# ---------------------------------------------------------------------------
# the end-to-end run
# ---------------------------------------------------------------------------


def build(workload: Workload, seed: int, scale: float):
    """Set-up without the warm-up pass: inputs + loaded system, and the
    seconds the raw generation took."""
    start = time.perf_counter()
    inputs = workload.inputs(seed, scale)
    generate_s = time.perf_counter() - start
    return inputs, workload.load(inputs), generate_s


def base_epochs(system: System) -> Dict[str, Optional[int]]:
    """The epoch reads must report per store (``None`` when the service
    runs without snapshot isolation)."""
    return {
        name: (store.db.epoch if store.svc.snapshot_isolation else None)
        for name, store in system.stores.items()
    }


def run_end_to_end(
    workload: Workload, seed: int, seconds: float, scale: float, setup_repeats: int
) -> dict:
    problems, _ = reduced_scale_oracle(workload, seed)
    expected = expected_answers(workload, workload.inputs(seed, scale))

    setups: List[float] = []
    attempted = 0
    system = runner = inputs = None
    for _ in range(setup_repeats):
        if system is not None:
            system.close()
            system = runner = inputs = None
            gc.collect()
        start = time.perf_counter()
        inputs, system, _ = build(workload, seed, scale)
        epochs = base_epochs(system)
        runner = Runner(workload, inputs, system)
        warm_logs, _ = runner.run_pass(keep_rows=True)
        setups.append(time.perf_counter() - start)
        problems += check_reads(workload, inputs, warm_logs, expected, epochs, runner.write_log)
        problems += [e for log in warm_logs for e in log.errors]
        attempted += sum(len(script) for script in inputs.scripts)

    # every metric is computed per pass and the run reports its best pass:
    # interference (CPU steal, a noisy neighbour) only ever adds time, so
    # the least disturbed pass is the steadiest estimate of the true cost,
    # while a real regression slows every pass, the best one included
    per_pass: Dict[str, List[float]] = {"p50": [], "p95": [], "qps": [], "cpu": []}
    measured_ops = 0
    wall = 0.0
    keep_rows = expected is None
    # the loaded store is long-lived: keep it out of every later collection
    gc.collect()
    gc.freeze()
    deadline = time.perf_counter() + seconds
    while len(per_pass["p50"]) < MIN_PASSES or time.perf_counter() < deadline:
        gc.collect()
        cpu_start = cpu_seconds()
        logs, pass_wall = runner.run_pass(keep_rows=keep_rows)
        cpu = cpu_seconds() - cpu_start
        bad = check_reads(workload, inputs, logs, expected, epochs, runner.write_log)
        errors = [e for log in logs for e in log.errors]
        problems += bad + errors
        attempted += sum(len(script) for script in inputs.scripts)
        ok = sum(len(log.reads) + len(log.writes) for log in logs) - len(bad)
        latencies = sorted(read[2] for log in logs for read in log.reads)
        measured_ops += len(latencies)
        wall += pass_wall
        per_pass["p50"].append(percentile(latencies, 0.50) * 1e3)
        per_pass["p95"].append(percentile(latencies, 0.95) * 1e3)
        per_pass["qps"].append(ok / pass_wall)
        per_pass["cpu"].append(cpu * 1e3 / max(ok, 1))
        if len(per_pass["p50"]) == MIN_PASSES:
            # sampled after a fixed amount of work: how many passes fit into
            # --seconds must not leak into the memory figure
            rss = peak_rss_mb()
    system.close()
    failed = len(problems)                    # reduced-scale mismatches count too

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (min(per_pass["p50"]), "ms"),
        "latency_p95_ms": (min(per_pass["p95"]), "ms"),
        "throughput_qps": (max(per_pass["qps"]), "ops/s"),
        "cpu_ms_per_op": (min(per_pass["cpu"]), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {
            "failed_share": failed / attempted,
            "measured_query_ops": measured_ops,
            "measured_passes": len(per_pass["p50"]),
            "measured_wall_s": wall,
            "per_pass": per_pass,
            "setups_s": setups,
            "clients": len(inputs.scripts),
            "sizes": inputs.sizes,
            "problems": problems[:20],
        },
    }
