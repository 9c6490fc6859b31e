"""The frozen tuple-engine reference: rows and ``Stats`` per matrix cell.

The engine used to run every operator two ways, a tuple loop and a batch
loop, and the parity matrices checked one against the other.  Before the
tuple loops were deleted, their answer for every cell of those matrices
was recorded in ``golden_reference.json`` (one section per test module);
the matrices now check the batch engine against that record, and rows
against the reference interpreter as well.

A test module takes part by defining ``reference_cells()``: case name ->
``run(stats, batch_size)``, which executes the cell and returns its row
set.  A cell records its rows (sorted :func:`format_value` strings) or
the error it raised, and its non-zero counters.

Counters of semijoins, and of anything else that stops early, depend on
the iteration order of frozensets, i.e. on string hashing.  So the record
and every measurement compared with it come from a child interpreter
under ``PYTHONHASHSEED=0``: :func:`measured` runs one per module, at
every chunk capacity of :data:`SIZES`, and caches its table.  Print a
module's table with::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m tests.engine.golden \\
        tests.engine.test_batch_parity 1 256
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import subprocess
import sys
from typing import Dict, Optional, Tuple

from repro.datamodel.values import format_value
from repro.engine.stats import Stats

GOLDEN_REFERENCE = os.path.join(os.path.dirname(__file__), "golden_reference.json")

#: counters only the batch protocol moves: a tuple-engine cell has them
#: at zero, so a comparison with the record leaves them out
BATCH_ONLY = ("batches_emitted", "vector_fallbacks")

#: the chunk capacities every cell is measured at: 1 = every row its own
#: batch; 2, 3 and 7 do not divide the inputs; 256 = the default;
#: 10_000 = larger than any input (one batch)
SIZES = (1, 2, 3, 7, 256, 10_000)

_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def counters(stats: Stats) -> Dict[str, int]:
    """The non-zero counters of ``stats``."""
    return {name: value for name, value in stats.snapshot().items() if value}


def cell(run, batch_size: Optional[int]) -> dict:
    """Execute one cell: ``{"rows": [...]} `` or ``{"error": "Type: msg"}``,
    plus ``"stats"``."""
    stats = Stats()
    try:
        rows = run(stats, batch_size)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        out = {"error": f"{type(exc).__name__}: {exc}"}
    else:
        out = {"rows": sorted(format_value(row) for row in rows)}
    out["stats"] = counters(stats)
    return out


def table(module: str, sizes) -> Dict[str, Dict[str, dict]]:
    """``{str(size): {case: cell}}`` for every cell of ``module``."""
    cells = importlib.import_module(module).reference_cells()
    return {
        str(size): {name: cell(run, size) for name, run in sorted(cells.items())}
        for size in sizes
    }


@functools.lru_cache(maxsize=None)
def measured(module: str) -> Dict[int, Dict[str, dict]]:
    """``{size: {case: cell}}`` of ``module`` at every one of
    :data:`SIZES`, computed in a child interpreter under
    ``PYTHONHASHSEED=0`` — comparable with the record."""
    result = subprocess.run(
        [sys.executable, "-m", "tests.engine.golden", module, *map(str, SIZES)],
        capture_output=True,
        text=True,
        cwd=_ROOT,
        env=dict(
            os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(_ROOT, "src")
        ),
    )
    assert result.returncode == 0, result.stderr
    return {int(size): cells for size, cells in json.loads(result.stdout).items()}


@functools.lru_cache(maxsize=None)
def reference(module: str) -> Dict[str, dict]:
    """The recorded tuple-engine cells of ``module``."""
    with open(GOLDEN_REFERENCE) as fh:
        return json.load(fh)[module.rsplit(".", 1)[-1]]


def assert_matches_reference(
    module: str, name: str, size: int, only: Optional[Tuple[str, ...]] = None
) -> dict:
    """The cell ``name`` of ``module``, measured at chunk capacity
    ``size``, has the recorded rows or error and the recorded counters —
    all but :data:`BATCH_ONLY`, or just those named in ``only``.  Returns
    the measured cell."""
    got = measured(module)[size][name]
    want = reference(module)[name]
    assert got.get("rows") == want.get("rows"), name
    assert got.get("error") == want.get("error"), name

    def pick(stats):
        if only is not None:
            return {k: stats.get(k, 0) for k in only}
        return {k: v for k, v in stats.items() if k not in BATCH_ONLY}

    assert pick(got["stats"]) == pick(want["stats"]), name
    return got


if __name__ == "__main__":
    module, *sizes = sys.argv[1:]
    parsed = [None if size == "None" else int(size) for size in sizes]
    print(json.dumps(table(module, parsed), sort_keys=True))
