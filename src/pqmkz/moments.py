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

from .engine import EvalOutcome, Function, PQParams, TruncationPolicy, evaluate_many
from .pqcore import one_minus_tau_pow
from .presets import IDENTITY, ONE, SQUARE

__all__ = [
    "MomentReport",
    "MOMENT_CSV_COLUMNS",
    "moment_scale",
    "raw_moment",
    "moment_triple",
    "central_second_moment",
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
class MomentReport:
    x: float
    m0: EvalOutcome
    m1: EvalOutcome
    m2: EvalOutcome
    central2: float
    lemma1_lower_ok: bool
    lemma1_upper_ok: bool
    lemma2_ok: bool
    lemma1_lower_slack: float
    lemma1_upper_slack: float
    lemma2_slack: float
    # second-moment upper bound with the p*x^2 quadratic term, the variant
    # the convergence proofs actually use; reported alongside the +x^2 form
    lemma1_upper_alt_slack: float
    lemma2_bound: float

    def csv_row(self) -> list[float]:
        return [
            self.x,
            self.m0.value,
            self.m1.value,
            self.m2.value,
            self.central2,
            self.lemma1_lower_slack,
            self.lemma1_upper_slack,
            self.lemma2_slack,
            max(self.m0.tail_mass, self.m1.tail_mass, self.m2.tail_mass),
        ]


def moment_scale(params: PQParams) -> float:
    """p^n / [n+1], the decay coefficient of the second-moment bounds.

    Stable form (1 - tau) / (1 - tau^(n+1)); 1/(n+1) in classical mode.
    """
    if params.pq.classical_mode:
        return 1.0 / (params.n + 1)
    return one_minus_tau_pow(1, params.pq) / one_minus_tau_pow(
        params.n + 1, params.pq
    )


def raw_moment(
    params: PQParams,
    j: int,
    x: float,
    policy: TruncationPolicy = TruncationPolicy(),
) -> EvalOutcome:
    """Operator applied to t^j; monomials on [0,1] carry sup bound 1."""
    if j < 0:
        raise ValueError("moment order must be nonnegative")
    if j < len(_MONOMIALS):
        f = _MONOMIALS[j]
    else:
        f = Function(lambda ts: ts ** j, f"t^{j}", 1.0)
    return evaluate_many(params, [f], x, _with_unit_bound(policy))[0]


def _with_unit_bound(policy: TruncationPolicy) -> TruncationPolicy:
    if policy.f_sup_bound is not None:
        return policy
    return TruncationPolicy(policy.tail_tol, policy.k_max, 1.0)


def moment_triple(
    params: PQParams,
    x: float,
    policy: TruncationPolicy = TruncationPolicy(),
) -> tuple[EvalOutcome, EvalOutcome, EvalOutcome]:
    """m0, m1, m2 from a single shared weight pass."""
    m0, m1, m2 = evaluate_many(params, _MONOMIALS, x, _with_unit_bound(policy))
    return m0, m1, m2


def central_second_moment(
    params: PQParams,
    x: float,
    policy: TruncationPolicy = TruncationPolicy(),
) -> float:
    """Operator applied to (t - x)^2, from the shared moment pass."""
    m0, m1, m2 = moment_triple(params, x, policy)
    return m2.value - 2.0 * x * m1.value + x * x * m0.value


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
) -> list[MomentReport]:
    """Pointwise second-moment diagnostics over a grid.

    Pass/fail uses a tolerance equal to the summed moment error bounds;
    slacks are signed (nonnegative means the inequality holds).
    """
    scale = moment_scale(params)
    p = params.pq.p
    reports = []
    for x in grid:
        x = float(x)
        m0, m1, m2 = moment_triple(params, x, policy)
        central2 = m2.value - 2.0 * x * m1.value + x * x * m0.value
        tol = m0.error_bound + m1.error_bound + m2.error_bound
        lower_slack = m2.value - x * x
        upper_slack = scale * x + x * x - m2.value
        upper_alt_slack = scale * x + p * x * x - m2.value
        l2_bound = scale * x + (p - 1.0) * x * x
        l2_slack = l2_bound - central2
        reports.append(
            MomentReport(
                x=x,
                m0=m0,
                m1=m1,
                m2=m2,
                central2=central2,
                lemma1_lower_ok=lower_slack >= -tol,
                lemma1_upper_ok=upper_slack >= -tol,
                lemma2_ok=l2_slack >= -tol,
                lemma1_lower_slack=lower_slack,
                lemma1_upper_slack=upper_slack,
                lemma2_slack=l2_slack,
                lemma1_upper_alt_slack=upper_alt_slack,
                lemma2_bound=l2_bound,
            )
        )
    return reports
