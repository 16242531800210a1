"""Moduli of continuity and theoretical error bounds vs empirical sup-error.

Moduli are grid suprema on nested dyadic lattices (resolution 2^m + 1), so
refining the resolution can only increase an estimate.  The step set for a
modulus at width delta is every lattice multiple of the spacing up to delta,
plus delta itself; the extra step makes omega(t -> t, delta) = delta exact.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import Function, PQParams, TruncationPolicy, evaluate
from .moments import delta_n_sq, moment_scale

__all__ = [
    "ModulusKind",
    "ModulusEstimate",
    "BoundReport",
    "modulus",
    "second_modulus",
    "sup_error",
    "thm33_bound",
    "lipschitz_bound",
    "bound_report",
]


class ModulusKind(enum.Enum):
    FIRST_ORDER = "first_order"
    SECOND_ORDER = "second_order"


@dataclass(frozen=True)
class ModulusEstimate:
    delta: float
    value: float
    resolution: int
    kind: ModulusKind


@dataclass(frozen=True)
class BoundReport:
    empirical_sup_error: float
    max_truncation_bound: float
    thm33_bound: float
    # raw sup_x of the second modulus at the pointwise decay width; the
    # multiplicative constant in front of it is unspecified, so only the
    # ratio empirical / omega2 is observable
    omega2_sup: float
    omega2_ratio: float
    lipschitz_bound: float | None
    empirical_within_thm33: bool
    grid_size: int
    resolution: int
    # every grid point reached the tail target; not part of the JSON schema
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "empirical_sup_error": self.empirical_sup_error,
            "max_truncation_bound": self.max_truncation_bound,
            "thm33_bound": self.thm33_bound,
            "omega2_sup": self.omega2_sup,
            "omega2_ratio": self.omega2_ratio,
            "lipschitz_bound": self.lipschitz_bound,
            "empirical_within_thm33": self.empirical_within_thm33,
            "grid_size": self.grid_size,
            "resolution": self.resolution,
        }


def modulus(f: Function, delta: float, resolution: int) -> ModulusEstimate:
    """First-order modulus: grid sup of |f(x+h) - f(x)|, 0 < h <= delta."""
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    xs = np.linspace(0.0, 1.0, resolution)
    fv = f.values(xs)
    step = 1.0 / (resolution - 1)
    dmax = int(math.floor(delta / step + 1e-9))
    best = 0.0
    for d in range(1, dmax + 1):
        best = max(best, float(np.max(np.abs(fv[d:] - fv[:-d]))))
    mask = xs + delta <= 1.0 + 1e-12
    if np.any(mask):
        shifted = np.minimum(xs[mask] + delta, 1.0)
        best = max(best, float(np.max(np.abs(f.values(shifted) - fv[mask]))))
    return ModulusEstimate(delta, best, resolution, ModulusKind.FIRST_ORDER)


def second_modulus(f: Function, step_bound: float, resolution: int) -> ModulusEstimate:
    """Second-order modulus: grid sup of |f(x+2h) - 2f(x+h) + f(x)|.

    step_bound is the already-rooted bound on h (the convention that pairs
    with a squared width argument elsewhere); 0 < h <= step_bound, x+2h <= 1.
    """
    if not (0.0 < step_bound <= 0.5):
        raise ValueError("step bound must lie in (0, 1/2]")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    xs = np.linspace(0.0, 1.0, resolution)
    fv = f.values(xs)
    step = 1.0 / (resolution - 1)
    dmax = int(math.floor(step_bound / step + 1e-9))
    best = 0.0
    for d in range(1, dmax + 1):
        diff = fv[2 * d:] - 2.0 * fv[d:-d] + fv[: -2 * d]
        best = max(best, float(np.max(np.abs(diff))))
    mask = xs + 2.0 * step_bound <= 1.0 + 1e-12
    if np.any(mask):
        x0 = xs[mask]
        f1 = f.values(np.minimum(x0 + step_bound, 1.0))
        f2 = f.values(np.minimum(x0 + 2.0 * step_bound, 1.0))
        best = max(best, float(np.max(np.abs(f2 - 2.0 * f1 + fv[mask]))))
    return ModulusEstimate(step_bound, best, resolution, ModulusKind.SECOND_ORDER)


def sup_error(
    params: PQParams,
    f: Function,
    grid: Sequence[float],
    policy: TruncationPolicy = TruncationPolicy(),
) -> tuple[float, float, bool]:
    """(max |M f - f| over the grid, max truncation error bound, all converged)."""
    outs = [evaluate(params, f, float(x), policy) for x in grid]
    fxs = f.values(np.array(grid, dtype=float)).tolist()
    worst = 0.0
    worst_bound = 0.0
    for out, fx in zip(outs, fxs):
        worst = max(worst, abs(out.value - fx))
        worst_bound = max(worst_bound, out.error_bound)
    return worst, worst_bound, all(out.converged for out in outs)


def decay_width(params: PQParams) -> float:
    """sqrt(p^n / [n+1]), the uniform width fed to the modulus bound."""
    return math.sqrt(moment_scale(params))


def thm33_bound(params: PQParams, f: Function, resolution: int) -> float:
    """2 * omega(f, sqrt(p^n / [n+1])): uniform modulus error bound."""
    return 2.0 * modulus(f, decay_width(params), resolution).value


def lipschitz_bound(
    params: PQParams, M: float, alpha: float, x: float
) -> float:
    """M * delta_n(x)^alpha for a Lipschitz-class function.

    Raises when the pointwise width squared is negative (possible for p < 1),
    in which case no bound is available.
    """
    if M <= 0.0:
        raise ValueError("M must be positive")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    d2 = delta_n_sq(params, x)
    if d2 < 0.0:
        raise ValueError(
            f"pointwise width squared is negative ({d2}) at x={x}; no bound"
        )
    return M * d2 ** (alpha / 2.0)


def bound_report(
    params: PQParams,
    f: Function,
    grid: Sequence[float],
    policy: TruncationPolicy = TruncationPolicy(),
    resolution: int = 1025,
    lipschitz: tuple[float, float] | None = None,
) -> BoundReport:
    """Empirical sup-error next to every theoretical bound at once.

    lipschitz, when given, is the user-asserted (M, alpha) pair; membership
    in the class is not detected.  The Lipschitz entry is the grid maximum of
    the pointwise bound, or None when the width goes negative anywhere.
    """
    empirical, trunc, converged = sup_error(params, f, grid, policy)
    t33 = thm33_bound(params, f, resolution)

    widths = [delta_n_sq(params, float(x)) for x in grid]
    positive = [w for w in widths if w > 0.0]
    if positive:
        w_max = min(math.sqrt(max(positive)), 0.5)
        omega2 = second_modulus(f, w_max, resolution).value
    else:
        omega2 = 0.0
    ratio = empirical / omega2 if omega2 > 0.0 else 0.0

    lip = None
    if lipschitz is not None:
        M, alpha = lipschitz
        try:
            lip = max(
                lipschitz_bound(params, M, alpha, float(x)) for x in grid
            )
        except ValueError:
            lip = None

    return BoundReport(
        empirical_sup_error=empirical,
        max_truncation_bound=trunc,
        thm33_bound=t33,
        omega2_sup=omega2,
        omega2_ratio=ratio,
        lipschitz_bound=lip,
        empirical_within_thm33=empirical <= t33 + trunc,
        grid_size=len(grid),
        resolution=resolution,
        converged=converged,
    )
