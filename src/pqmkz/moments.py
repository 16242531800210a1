"""Raw and central moments of the operator, with lemma-style diagnostics.

The second-moment inequalities are checked and reported with signed slack,
never asserted: for p < 1 the stated central-moment bound can go negative
while the true central moment of a positive operator cannot, so the honest
output is a diagnostic, not an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import PQParams, TruncationPolicy, evaluate_grid_values
from .pqcore import one_minus_tau_pow
from .presets import IDENTITY, ONE, SQUARE

__all__ = [
    "MomentTable",
    "MOMENT_CSV_COLUMNS",
    "moment_scale",
    "delta_n_sq",
    "lemma_bounds_report",
    "default_moment_grid",
]

_MONOMIALS = [ONE, IDENTITY, SQUARE]

MOMENT_CSV_COLUMNS = [
    "x",
    "m0",
    "m1",
    "m2",
    "central2",
    "l1_lower_slack",
    "l1_upper_slack",
    "l2_slack",
    "tail_mass_max",
]


@dataclass(frozen=True)
class MomentTable:
    """Moment diagnostics over a grid: one numpy column per field, one entry
    per x.

    The first nine fields are the MOMENT_CSV_COLUMNS.  tail_mass_max is the
    one tail of the three monomials, which share a truncation.  Slacks are
    signed (nonnegative means the inequality holds), and each *_ok flag
    allows the summed error bound of the three moments.
    """

    x: np.ndarray
    m0: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    central2: np.ndarray
    l1_lower_slack: np.ndarray
    l1_upper_slack: np.ndarray
    l2_slack: np.ndarray
    tail_mass_max: np.ndarray
    l2_bound: np.ndarray
    converged: np.ndarray
    l1_lower_ok: np.ndarray
    l1_upper_ok: np.ndarray
    l2_ok: np.ndarray


def moment_scale(params: PQParams) -> float:
    """p^n / [n+1], the decay coefficient of the second-moment bounds.

    Stable form (1 - tau) / (1 - tau^(n+1)); 1/(n+1) in classical mode.
    """
    if params.pq.classical_mode:
        return 1.0 / (params.n + 1)
    return one_minus_tau_pow(1, params.pq) / one_minus_tau_pow(
        params.n + 1, params.pq
    )


def delta_n_sq(params: PQParams, x: float) -> float:
    """Closed-form bound x^2 (p - 1) + (p^n / [n+1]) x; may be negative for p < 1."""
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    return x * x * (params.pq.p - 1.0) + moment_scale(params) * x


def default_moment_grid() -> list[float]:
    """101 uniform points on [0, 0.99] plus the interpolation endpoint x = 1."""
    return [float(v) for v in np.linspace(0.0, 0.99, 101)] + [1.0]


def lemma_bounds_report(
    params: PQParams,
    grid: Sequence[float],
    policy: TruncationPolicy = TruncationPolicy(),
) -> MomentTable:
    """Pointwise second-moment diagnostics over a grid, as columns.

    Each column is computed elementwise in the operation order of the
    one-point formulas, so every entry is the double those formulas give on
    the column of evaluate_grid_values at that x alone.
    """
    g = evaluate_grid_values(params, _MONOMIALS, grid, policy)
    m0, m1, m2 = g.values
    x = np.array(grid, dtype=float)
    scale = moment_scale(params)
    central2 = m2 - 2.0 * x * m1 + x * x * m0
    tol = g.error_bound[0] + g.error_bound[1] + g.error_bound[2]
    lower_slack = m2 - x * x
    upper_slack = scale * x + x * x - m2
    l2_bound = scale * x + (params.pq.p - 1.0) * x * x
    l2_slack = l2_bound - central2
    return MomentTable(
        x, m0, m1, m2, central2, lower_slack, upper_slack, l2_slack,
        g.tail_mass, l2_bound, g.converged,
        lower_slack >= -tol, upper_slack >= -tol, l2_slack >= -tol,
    )
