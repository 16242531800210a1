"""Two-parameter (p,q) Meyer-Konig-Zeller operators.

Truncated series evaluation with tail masses, moment diagnostics, modulus-based
error bounds, statistical-convergence experiments, and an exact-rational
reference oracle.
"""

from .engine import (
    Function,
    GridValues,
    PQParams,
    SupBoundError,
    TruncationPolicy,
    evaluate_grid_values,
    evaluate_sweep_values,
    node,
    normalization_defects,
    normalization_partial_sums,
    weight,
)
from .pqcore import PQPair, pq_int

__version__ = "0.1.0"

__all__ = [
    "PQPair",
    "PQParams",
    "TruncationPolicy",
    "Function",
    "GridValues",
    "SupBoundError",
    "pq_int",
    "node",
    "weight",
    "evaluate_grid_values",
    "evaluate_sweep_values",
    "normalization_defects",
    "normalization_partial_sums",
    "__version__",
]
