"""Smoke test of the benchmark harness (not part of tier-1: ``pytest.ini``
collects ``tests/`` only; run with ``pytest bench/tests``).

Runs ``bench/run.py --smoke`` twice — every workload at ~1/20 scale, each
in its own subprocess — and checks the contract the numbers rest on: every
metric ``BENCHMARK.json`` names is printed with its unit, nothing else is,
the oracles pass, and exact counts repeat on the single-client workloads.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--smoke", "--seed", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(os.path.join(ROOT, "bench", "out", "report.json")) as fh:
        return json.load(fh), proc.stdout


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def runs():
    return _smoke(), _smoke()


def test_names_and_units_match_benchmark_json(spec, runs):
    (report, stdout), _ = runs
    assert list(report["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, entry in report["workloads"].items():
        for section, declared in (("end_to_end", spec["end_to_end"]), ("per_layer", spec["per_layer"])):
            printed = {metric: m["unit"] for metric, m in entry[section].items()}
            assert printed == {m["name"]: m["unit"] for m in declared}, (name, section)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["name"] in stdout


def test_oracles_pass_and_nothing_fails(runs):
    for report, _ in runs:
        for name, entry in report["workloads"].items():
            assert entry["ok"], name
            assert entry["failed"] == 0 and entry["attempted"] > 0, name
            assert not entry["detail"]["problems"] and not entry["layer_detail"]["problems"], name
            for metric, m in entry["end_to_end"].items():
                assert m["value"] > 0, (name, metric)


def test_counts_repeat_on_single_client_workloads(runs):
    (first, _), (second, _) = runs
    clients = first["provenance"]["clients"]
    for name, entry in first["workloads"].items():
        if clients[name] != 1:
            continue
        for metric, m in entry["per_layer"].items():
            if m["unit"] == "count":
                assert m["value"] == second["workloads"][name]["per_layer"][metric]["value"], (name, metric)


def test_provenance_and_plans_are_recorded(runs):
    (report, _), _ = runs
    assert {"seed", "scale", "commit", "python", "nproc", "clients"} <= set(report["provenance"])
    for name, entry in report["workloads"].items():
        for shape, info in entry["layer_detail"]["shapes"].items():
            assert info["explain"] and info["option"], (name, shape)
