"""Execution: the naive interpreter, physical operators, and the planner."""

from repro.engine.compile import Compiler, compile_expr
from repro.engine.cost import CardinalityEstimator, CostModel, Estimate, JoinRecipe
from repro.engine.interpreter import Interpreter, evaluate
from repro.engine.nestjoin_impls import SortMergeNestJoin
from repro.engine.plan import ExecRuntime, PlanNode
from repro.engine.planner import Executor, Planner
from repro.engine.pnhl import pnhl_join, unnest_join_nest
from repro.engine.stats import Stats

__all__ = [
    "CardinalityEstimator",
    "Compiler",
    "CostModel",
    "Estimate",
    "ExecRuntime",
    "Executor",
    "Interpreter",
    "JoinRecipe",
    "PlanNode",
    "Planner",
    "SortMergeNestJoin",
    "Stats",
    "compile_expr",
    "evaluate",
    "pnhl_join",
    "unnest_join_nest",
]
