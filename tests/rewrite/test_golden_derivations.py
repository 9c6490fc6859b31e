"""``Optimizer.optimize()`` output against a recorded derivation corpus.

The rewrite engine's traversal may get faster; what it derives may not
move.  For every case of :mod:`tests.rewrite.derivations` the chosen
option, the pretty-printed plan, every attempt's ordered rule firings, the
per-attempt cost estimates and the number of priced candidates must match
``golden_derivations.json`` byte for byte.

Regenerate only for a deliberate change to what the optimizer derives::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m tests.rewrite.test_golden_derivations \
        > tests/rewrite/golden_derivations.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.rewrite.derivations import all_cases, derivation_record

GOLDEN_PATH = Path(__file__).with_name("golden_derivations.json")


def _dump(record: dict) -> str:
    return json.dumps(record, indent=1, ensure_ascii=False)


def current_records() -> dict:
    return {
        name: derivation_record(make().optimize(adl))
        for name, adl, make in all_cases()
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current() -> dict:
    return current_records()


def test_corpus_is_unchanged(golden, current):
    assert sorted(current) == sorted(golden)


def test_compile_cold_shapes_are_covered(golden):
    from bench.workloads import WORKLOADS

    shapes = WORKLOADS["compile_cold"].small(1).shapes
    assert shapes
    assert {f"compile_cold/{s.name}" for s in shapes} <= set(golden)


def test_derivations_are_byte_identical(golden, current):
    moved = [
        name
        for name in sorted(golden)
        if _dump(current.get(name)) != _dump(golden[name])
    ]
    if moved:
        first = moved[0]
        assert _dump(current.get(first)) == _dump(golden[first]), (
            f"{len(moved)} derivation(s) moved: {moved}"
        )

if __name__ == "__main__":
    print(_dump(current_records()))
