"""Cardinality-constrained MSO model checking, MSO partitioning and
c-balanced partitioning on graphs of small vertex cover."""

import os

# numpy's BLAS reads its thread count at import; the root LP's dense products
# are small, so one thread unless the caller has set these variables
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .balanced import BalancedResult, cbalanced, generate_equitable_formula
from .errors import (
    BudgetExceeded, CardMSOError, CoverBudgetExceeded, FormulaStructureError,
    FormulaSyntaxError, GraphFormatError, InvalidCoverError, WitnessError,
)
from .formula import (
    Formula, FormulaStats, LinearConstraint, PreEvaluation, analyze,
    format_formula, parse_formula, pre_evaluate, substitute_params,
)
from .graph import (
    Graph, TypePartition, VertexCover, format_graph, min_vertex_cover,
    nd_partition, parse_graph, type_partition,
)
from .ilp import ILPResult, Program, solve_feasibility, solve_min
from .mso_eval import (
    PrefixAssignment, ReducedGraph, mso_check, reduce_graph,
    satisfying_prefix_assignments,
)
from .partitioning import (
    PartitionInstance, PartitionVerdict, enumerate_shapes, mso_partition,
    shape_satisfies,
)
from .solver import SolveStats, Verdict, check, extract_witness

__all__ = [
    "BalancedResult", "BudgetExceeded", "CardMSOError", "CoverBudgetExceeded",
    "Formula", "FormulaStats", "FormulaStructureError", "FormulaSyntaxError",
    "Graph", "GraphFormatError", "ILPResult",
    "InvalidCoverError", "LinearConstraint", "PartitionInstance",
    "PartitionVerdict", "PreEvaluation", "PrefixAssignment", "Program", "ReducedGraph",
    "SolveStats", "TypePartition", "Verdict", "VertexCover",
    "WitnessError", "analyze", "cbalanced", "check",
    "enumerate_shapes", "extract_witness", "format_formula", "format_graph",
    "generate_equitable_formula", "min_vertex_cover", "mso_check",
    "mso_partition", "nd_partition", "parse_formula", "parse_graph",
    "pre_evaluate", "reduce_graph", "satisfying_prefix_assignments",
    "shape_satisfies", "solve_feasibility", "solve_min", "substitute_params",
    "type_partition",
]
