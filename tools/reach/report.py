"""Reachability census report: which ``src/repro`` functions a query runs.

Walks ``src/repro`` with :mod:`ast` for the denominator — every ``def``,
methods and nested functions included, each owning the physical lines
from its first decorator to its last line minus the lines of the
functions and classes nested in it — and reads the records the hook in
``sitecustomize.py`` left in each directory given:

* ``--reached``: workloads and examples — code a query reaches;
* ``--figures``: the paper figure/table scripts — figure-only code;
* ``--tests`` (optional): the test suite — splits what neither reached
  into test-only and nothing.

Prints a summary, the per-file lines no query or figure reaches and the
list of those functions, and exits 1 when their share of all function
lines exceeds ``--max-share`` (a percentage)::

    python tools/reach/report.py --reached reach/query --figures reach/figures --max-share 10
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import sys
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
MARK = os.path.join("src", "repro") + os.sep

#: (path relative to ``src``, first line, name)
Key = Tuple[str, int, str]

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _span(node) -> Tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return first, node.end_lineno


def _nested(node):
    """The functions and classes directly nested in ``node``'s body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCTIONS + (ast.ClassDef,)):
            yield child
        else:
            yield from _nested(child)


def functions(src: str) -> Dict[Key, int]:
    """Every function under ``src/repro`` with the lines it owns."""
    out: Dict[Key, int] = {}
    for path in sorted(glob.glob(os.path.join(src, "repro", "**", "*.py"), recursive=True)):
        rel = os.path.relpath(path, src)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if not isinstance(node, FUNCTIONS):
                continue
            first, last = _span(node)
            owned = last - first + 1
            for inner in _nested(node):
                inner_first, inner_last = _span(inner)
                owned -= inner_last - inner_first + 1
            out[(rel, first, node.name)] = owned
    return out


def records(directory: str) -> Set[Key]:
    """The functions the hook saw run, keyed like :func:`functions`."""
    seen: Set[Key] = set()
    for path in glob.glob(os.path.join(directory, "reach-*.txt")):
        with open(path, encoding="utf-8") as f:
            for line in f:
                filename, lineno, name = line.rstrip("\n").split("\t")
                at = filename.rfind(MARK)
                if at >= 0:
                    rel = filename[at + len("src") + 1:]
                    seen.add((rel, int(lineno), name))
    return seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--reached", required=True, help="records of workloads and examples")
    parser.add_argument("--figures", help="records of the figure/table scripts")
    parser.add_argument("--tests", help="records of the test suite")
    parser.add_argument("--max-share", type=float, default=100.0,
                        help="fail above this percentage of lines no query or figure reaches")
    args = parser.parse_args(argv)

    table = functions(args.src)
    reached = records(args.reached)
    figures = records(args.figures) if args.figures else set()
    tests = records(args.tests) if args.tests else set()

    classes: Dict[str, List[Key]] = {"query": [], "figure-only": [], "test-only": [], "not reached": []}
    for key in table:
        if key in reached:
            classes["query"].append(key)
        elif key in figures:
            classes["figure-only"].append(key)
        elif key in tests:
            classes["test-only"].append(key)
        else:
            classes["not reached"].append(key)

    total = sum(table.values())
    print(f"src/repro: {len(table)} functions, {total} lines")
    for name, keys in classes.items():
        if name == "test-only" and not args.tests:
            continue
        lines = sum(table[k] for k in keys)
        print(f"  {name:<12} {len(keys):>5} functions {lines:>6} lines {100.0 * lines / total:5.1f} %")
    unreached = sorted(classes["test-only"] + classes["not reached"])
    missed_keys = set(unreached)
    lines = sum(table[k] for k in unreached)
    share = 100.0 * lines / total
    print(f"not reached by a query or a figure: {lines} lines in {len(unreached)} functions, {share:.1f} %")

    print("\nper file (lines not reached / function lines):")
    per_file: Dict[str, List[int]] = {}
    for key, owned in table.items():
        entry = per_file.setdefault(key[0], [0, 0])
        entry[1] += owned
        if key in missed_keys:
            entry[0] += owned
    for rel, (missed, owned) in sorted(per_file.items(), key=lambda item: -item[1][0]):
        if missed:
            print(f"  {missed:>5} / {owned:<5} {rel}")

    print("\nfunctions not reached by a query or a figure:")
    for key in unreached:
        tag = " (tests)" if key in tests else ""
        print(f"  {key[0]}:{key[1]} {key[2]} [{table[key]}]{tag}")
    print("\nfigure-only functions:")
    for key in sorted(classes["figure-only"]):
        print(f"  {key[0]}:{key[1]} {key[2]} [{table[key]}]")

    if share > args.max_share:
        print(f"\nreach: {share:.1f} % of function lines not reached, ceiling {args.max_share} %",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
