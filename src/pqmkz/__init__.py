"""Two-parameter (p,q) Meyer-Konig-Zeller operators.

Truncated series evaluation with tail masses, moment diagnostics, modulus-based
error bounds, statistical-convergence experiments, and an exact-rational
reference oracle.
"""

from .engine import (
    EvalOutcome,
    Function,
    GridValues,
    PQParams,
    SupBoundError,
    TruncationPolicy,
    evaluate,
    evaluate_grid_values,
    evaluate_many,
    evaluate_sweep_values,
    node,
    normalization_defects,
    normalization_partial_sum,
    normalization_partial_sums,
    weight,
)
from .pqcore import PQPair, pq_int

__version__ = "0.1.0"

__all__ = [
    "PQPair",
    "PQParams",
    "TruncationPolicy",
    "EvalOutcome",
    "Function",
    "GridValues",
    "SupBoundError",
    "pq_int",
    "node",
    "weight",
    "evaluate",
    "evaluate_many",
    "evaluate_grid_values",
    "evaluate_sweep_values",
    "normalization_defects",
    "normalization_partial_sum",
    "normalization_partial_sums",
    "__version__",
]
