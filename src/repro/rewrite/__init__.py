"""Logical optimization: rewriting nested ADL queries into join queries.

The package implements Sections 4–6 of the paper:

* :mod:`repro.rewrite.engine` — rule framework and fixpoint driver;
* :mod:`repro.rewrite.rules_simplify` — normalization / from-clause fusion;
* :mod:`repro.rewrite.rules_setcmp` — Tables 1 and 2;
* :mod:`repro.rewrite.rules_quantifier` — range transformation, negation
  pushing, quantifier exchange (Rewriting Examples 1–3);
* :mod:`repro.rewrite.rules_join` — Rule 1 and Rule 2;
* :mod:`repro.rewrite.rules_grouping` — [GaWo87] grouping, the Complex
  Object bug, and the outerjoin repair;
* :mod:`repro.rewrite.rules_nestjoin` — the nestjoin rewrites;
* :mod:`repro.rewrite.rules_unnest` — set-valued attribute flattening;
* :mod:`repro.rewrite.analysis` — the Table 3 ``P(x, ∅)`` reducer;
* :mod:`repro.rewrite.strategy` — the Section 4 priority strategy.
"""

from repro.rewrite.analysis import TriBool, classify_empty, reduce_static
from repro.rewrite.characterize import (
    Characterization,
    NestingClass,
    characterize_select,
)
from repro.rewrite.common import (
    RewriteContext,
    is_set_oriented,
    mentions_extent,
    nested_extent_count,
)
from repro.rewrite.engine import RewriteEngine, Rule, rule
from repro.rewrite.strategy import (
    DEFAULT_PRIORITY,
    OptimizationResult,
    Optimizer,
    optimize,
)
from repro.rewrite.trace import RewriteStep, RewriteTrace

__all__ = [
    "Characterization",
    "DEFAULT_PRIORITY",
    "NestingClass",
    "OptimizationResult",
    "Optimizer",
    "characterize_select",
    "RewriteContext",
    "RewriteEngine",
    "RewriteStep",
    "RewriteTrace",
    "Rule",
    "TriBool",
    "classify_empty",
    "is_set_oriented",
    "mentions_extent",
    "nested_extent_count",
    "optimize",
    "reduce_static",
    "rule",
]
