"""The benchmark's one command.

Driver mode (one workload, one JSON object as the last line of stdout)::

    python3 bench/run.py --workload unnest_warm --seed 7 --seconds 10 --trace 0

Report mode (every workload, each in a fresh subprocess, end-to-end run
with tracing off plus a separate traced run)::

    PYTHONPATH=src python -m bench.run [--seed N] [--smoke] [--repeat-check]

See ``bench/README.md`` for the metric tables and how to read the trace.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _bootstrap() -> None:
    """Make ``bench`` and ``repro`` importable however the file was started,
    and refuse to run without the engine's sources."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"bench: no engine sources under {SRC}; nothing to measure\n")
        raise SystemExit(2)
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    # tracing and fault injection are off for every measurement
    os.environ.pop("REPRO_TRACE", None)
    os.environ.pop("REPRO_FAULT_PLAN", None)


def _pin_process() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0`` and address-space layout
    randomisation off.  Set iteration order — and with it the work a
    short-circuiting quantifier does — depends on string hashes and, for
    sets of oids, on the address of the ``Oid`` class; with both pinned the
    exact counts repeat from process to process.  Children inherit both."""
    if os.environ.get("BENCH_PINNED") == "1":
        return
    try:
        import ctypes

        ctypes.CDLL(None).personality(0x0040000)           # ADDR_NO_RANDOMIZE (Linux)
    except (OSError, AttributeError):
        pass                                               # counts over oid sets may then vary
    env = dict(os.environ, PYTHONHASHSEED="0", BENCH_PINNED="1")
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


def main(argv=None) -> int:
    if argv is None:
        _pin_process()
    _bootstrap()
    from bench import report
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--setup-repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at ~1/20 scale, a fraction of a second each")
    parser.add_argument("--repeat-check", action="store_true",
                        help="two full sets of runs; exit non-zero when they disagree")
    args = parser.parse_args(argv)

    if args.workload is not None:
        return report.run_one(args)
    return report.run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
