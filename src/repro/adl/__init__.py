"""ADL — the paper's complex-object algebra (Section 3).

Submodules:

* :mod:`repro.adl.ast` — expression nodes for every operator;
* :mod:`repro.adl.builders` — terse constructors;
* :mod:`repro.adl.freevars` — free/bound variable analysis (correlation);
* :mod:`repro.adl.subst` — capture-avoiding substitution;
* :mod:`repro.adl.pretty` — the paper's surface notation;
* :mod:`repro.adl.parser` — its inverse (the fragment-shipping surface);
* :mod:`repro.adl.typecheck` — static typing.
"""

from repro.adl import ast
from repro.adl.freevars import (
    all_var_names,
    bound_vars,
    free_vars,
    fresh_name,
    is_correlated,
)
from repro.adl.parser import parse_adl
from repro.adl.pretty import pretty, pretty_tree
from repro.adl.subst import substitute
from repro.adl.typecheck import TypeChecker

__all__ = [
    "TypeChecker",
    "all_var_names",
    "ast",
    "bound_vars",
    "free_vars",
    "fresh_name",
    "is_correlated",
    "parse_adl",
    "pretty",
    "pretty_tree",
    "substitute",
]
