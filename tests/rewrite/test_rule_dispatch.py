"""The rules' ``on=`` declarations against the nodes the optimizer meets.

The engine tries a rule only at nodes whose type is in the rule's ``on``.
A declaration that is too narrow silently changes derivations (declaring
``exchange-quantifiers`` ``Forall``-only drops its ``Exists`` firings), so
every rule is called on every node *outside* its ``on`` — over every tree
seen while optimizing the paper's examples and the bench query texts, with
and without a schema — and must decline there.
"""

from __future__ import annotations

import importlib
import pkgutil
from typing import Dict, List, Tuple

import pytest

import repro.rewrite
from repro.adl import ast as A
from repro.rewrite.common import RewriteContext
from repro.rewrite.engine import RewriteEngine, Rule, dispatch_table
from repro.rewrite.strategy import Optimizer
from tests.rewrite.derivations import all_cases, trees_seen


def shipped_rules() -> List[Rule]:
    rules: Dict[str, Rule] = {}
    for info in pkgutil.iter_modules(repro.rewrite.__path__):
        if not info.name.startswith("rules_"):
            continue
        module = importlib.import_module(f"repro.rewrite.{info.name}")
        for value in vars(module).values():
            if isinstance(value, Rule):
                rules[value.name] = value
    return [rules[name] for name in sorted(rules)]


RULES = shipped_rules()


def nodes_seen() -> List[Tuple[A.Expr, RewriteContext]]:
    """Every distinct node (by identity) of every tree seen, paired with
    the context of the optimizer that saw it; each case is optimized with
    its own optimizer and again without a schema."""
    seen: Dict[Tuple[int, int], Tuple[A.Expr, RewriteContext]] = {}
    for _name, adl, make in all_cases():
        for optimizer in (make(), Optimizer()):
            ctx = optimizer.ctx
            for tree in trees_seen(optimizer.optimize(adl)):
                for node in tree.walk():
                    seen.setdefault((id(node), id(ctx)), (node, ctx))
    return list(seen.values())


@pytest.fixture(scope="module")
def corpus() -> List[Tuple[A.Expr, RewriteContext]]:
    return nodes_seen()


def test_every_shipped_rule_declares_its_node_types():
    assert len(RULES) >= 30
    undeclared = [r.name for r in RULES if not r.on]
    assert undeclared == []


def test_corpus_meets_every_declared_node_type(corpus):
    types = {type(node) for node, _ in corpus}
    missing = {
        r.name: [t.__name__ for t in r.on if t not in types]
        for r in RULES
        if not any(issubclass(t, r.on) for t in types)
    }
    assert missing == {}


@pytest.mark.parametrize("r", RULES, ids=lambda r: r.name)
def test_rule_declines_outside_its_declaration(r, corpus):
    fired = []
    for node, ctx in corpus:
        if isinstance(node, r.on):
            continue
        out = r.apply(node, ctx)
        if out is not None and out is not node:
            fired.append(f"{type(node).__name__}: {node}")
    assert fired == [], f"{r.name} fires outside on={r.on}: {fired[:3]}"


def test_dispatch_keeps_rule_set_order():
    from repro.rewrite.strategy import RELATIONAL_RULES

    table = dispatch_table(RELATIONAL_RULES)
    for cls in (A.Select, A.Exists, A.Forall, A.Not, A.Join):
        expected = [r for r in RELATIONAL_RULES if issubclass(cls, r.on)]
        assert list(table[cls]) == expected


def test_undeclared_rule_is_tried_everywhere():
    engine = RewriteEngine(RewriteContext())
    bump = Rule("bump", lambda e, c: A.Literal(2) if e == A.Literal(1) else None)
    expr = A.SetExpr((A.Literal(1),))
    assert engine.apply_once(expr, (bump,)) == ("bump", A.SetExpr((A.Literal(2),)))
