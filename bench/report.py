"""Driver mode, report mode, ``--smoke`` and ``--repeat-check``."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SMOKE_SCALE = 0.05
SMOKE_SECONDS = 0.3


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_one(args) -> int:
    """One workload in this process; the result object is the last line."""
    from bench.harness import run_end_to_end
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else float(spec()["run_seconds"])
    if args.trace:
        from bench.layers import run_layers

        result = run_layers(workload, args.seed, seconds, args.scale)
    else:
        result = run_end_to_end(workload, args.seed, seconds, args.scale, args.setup_repeats)
    detail = result.pop("detail", None)
    if detail:
        print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# report mode: every workload, each run in a fresh subprocess
# ---------------------------------------------------------------------------


def provenance(args, scale: float) -> dict:
    from bench.workloads import NPROC, WORKLOADS

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "seed": args.seed, "scale": scale, "commit": commit,
        "python": platform.python_version(), "nproc": NPROC,
        "clients": {name: w.clients for name, w in WORKLOADS.items()},
    }


def _child(workload: str, args, seconds: float, scale: float, repeats: int, trace: int):
    """Run one workload in a fresh interpreter; returns (result, detail)."""
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
        "--scale", str(scale), "--setup-repeats", str(repeats),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
    except (IndexError, ValueError, KeyError):
        sys.stderr.write(f"bench: {workload} (trace {trace}) produced no result\n{proc.stderr[-2000:]}\n")
        return None, {}
    return result, detail


def _entry(ends, traced, runs: int) -> dict:
    """One workload of one set: medians over its end-to-end runs plus its
    traced run."""
    layers, layer_detail = traced
    results = [r for r, _ in ends if r is not None]
    entry = {"ok": len(results) == runs and layers is not None}
    if results:
        entry["end_to_end"] = {
            metric: {
                "value": statistics.median(r["metrics"][metric]["value"] for r in results),
                "unit": results[0]["metrics"][metric]["unit"],
            }
            for metric in results[0]["metrics"]
        }
        entry["attempted"] = sum(r["attempted"] for r in results)
        entry["failed"] = sum(r["failed"] for r in results)
        entry["ok"] = entry["ok"] and all(r["correct"] for r in results)
        entry["detail"] = ends[0][1]
    if layers is not None:
        entry["per_layer"] = layers["metrics"]
        entry["layer_detail"] = layer_detail
        entry["ok"] = entry["ok"] and layers["correct"]
    return entry


def run_sets(
    args, seconds: float, scale: float, repeats: int, runs: int, sets: int
) -> List[Dict[str, dict]]:
    """``sets`` full sets: per workload ``runs`` end-to-end runs (medians
    kept) and one traced run each.  The sets take their runs in turn
    (A B, B A, A B …), so a slow spell of the host lands on all of them."""
    out: List[Dict[str, dict]] = [{} for _ in range(sets)]
    for name in [w["name"] for w in spec()["workloads"]]:
        ends: List[list] = [[] for _ in range(sets)]
        for i in range(runs):
            for k in (range(sets) if i % 2 == 0 else reversed(range(sets))):
                ends[k].append(_child(name, args, seconds, scale, repeats, trace=0))
        for k in range(sets):
            traced = _child(name, args, seconds, scale, repeats, trace=1)
            out[k][name] = _entry(ends[k], traced, runs)
    return out


def print_set(results: Dict[str, dict]) -> None:
    for name, entry in results.items():
        detail = entry.get("detail", {})
        print(f"\n== {name}  clients={detail.get('clients')}  sizes={detail.get('sizes')}"
              f"  {'ok' if entry['ok'] else 'FAILED'}")
        for metric, m in entry.get("end_to_end", {}).items():
            print(f"  {metric:<34} {m['value']:>14.4f} {m['unit']}")
        if "attempted" in entry:
            share = entry["failed"] / max(entry["attempted"], 1)
            print(f"  {'failed_share':<34} {share:>14.4f} ratio"
                  f"   ({detail.get('measured_query_ops')} measured query ops,"
                  f" {detail.get('measured_passes')} passes)")
        shares = entry.get("layer_detail", {}).get("layer_shares", {})
        if shares:
            print("  -- layer shares (traced run)")
            for key, value in shares.items():
                print(f"  {key:<34} {value:>14.4f}")
        print("  -- per-layer metrics (traced run)")
        for metric, m in entry.get("per_layer", {}).items():
            print(f"  {metric:<34} {m['value']:>14.4f} {m['unit']}")


def compare_sets(first: Dict[str, dict], second: Dict[str, dict]) -> bool:
    """``--repeat-check``: relative difference of every end-to-end metric
    against its bound, and exact counts on the single-client workloads."""
    from bench.workloads import WORKLOADS

    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    ok = True
    print("\n== repeat check: |second - first| / first against the bound")
    for name in first:
        a, b = first[name], second[name]
        if not (a["ok"] and b["ok"]):
            ok = False
            continue
        for metric, bound in bounds.items():
            va = a["end_to_end"][metric]["value"]
            vb = b["end_to_end"][metric]["value"]
            diff = abs(vb - va) / va
            breach = diff > bound
            ok = ok and not breach
            print(f"  {name:<15} {metric:<16} {va:>12.4f} {vb:>12.4f}"
                  f"  diff={diff:6.3f}  bound={bound:.2f}{'  BREACH' if breach else ''}")
        if a["failed"] or b["failed"]:
            ok = False
            print(f"  {name:<15} failed ops: {a['failed']} / {b['failed']}  BREACH")
        if WORKLOADS[name].clients == 1:
            for metric, m in a["per_layer"].items():
                if m["unit"] == "count" and m["value"] != b["per_layer"][metric]["value"]:
                    ok = False
                    print(f"  {name:<15} {metric}: count differs"
                          f" ({m['value']} vs {b['per_layer'][metric]['value']})  BREACH")
    return ok


def run_all(args) -> int:
    scale = SMOKE_SCALE if args.smoke else args.scale
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else float(spec()["run_seconds"])
    )
    repeats = 1 if args.smoke else args.setup_repeats
    runs = 3 if args.repeat_check and not args.smoke else 1
    started = time.time()
    first, *rest = run_sets(args, seconds, scale, repeats, runs, 2 if args.repeat_check else 1)
    print_set(first)
    ok = all(entry["ok"] for entry in first.values())
    for second in rest:
        ok = ok and all(entry["ok"] for entry in second.values())
        ok = compare_sets(first, second) and ok
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "report.json"), "w") as fh:
        json.dump({"provenance": provenance(args, scale), "workloads": first}, fh, indent=1)
    print(f"\n{'ok' if ok else 'FAILED'} in {time.time() - started:.1f}s;"
          f" report and traces under {os.path.relpath(OUT, ROOT)}/")
    return 0 if ok else 1
