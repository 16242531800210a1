"""Statistical-convergence experiments: density tables and rate bounds.

A statistical limit cannot be observed at desk scale; the assertable
surrogate is a table of finite-N densities of the epsilon-deviation set,
checked for a nonincreasing trend across increasing N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bounds import modulus
from .engine import Function, PQParams, TruncationPolicy, evaluate_many
from .moments import delta_n_sq
from .pqcore import PQPair, pq_int
from .presets import IDENTITY, ONE, SQUARE

__all__ = [
    "SequenceScheme",
    "DensityReport",
    "scheme_paper",
    "scheme_constant",
    "density",
    "st_korovkin_check",
    "stat_rate_bound",
    "default_stat_grid",
    "inverse_pq_int",
]


@dataclass(frozen=True)
class SequenceScheme:
    """A rule n -> (p_n, q_n) with 0 < q_n < p_n <= 1, defined for n >= n_min.

    The rule is checked at n_min on construction and at every n that params
    asks for.
    """

    name: str
    rule: Callable[[int], tuple[float, float]]
    n_min: int = 1

    def __post_init__(self) -> None:
        self._pair(self.n_min)

    def params(self, n: int) -> PQParams:
        if n < self.n_min:
            raise ValueError(f"scheme {self.name!r} starts at n={self.n_min}")
        return PQParams(n, PQPair(*self._pair(n)))

    def _pair(self, n: int) -> tuple[float, float]:
        p_n, q_n = self.rule(n)
        if not (0.0 < q_n < p_n <= 1.0):
            raise ValueError(
                f"scheme {self.name!r} violates 0 < q < p <= 1 at n={n}: "
                f"(p, q) = ({p_n}, {q_n})"
            )
        return p_n, q_n


@dataclass(frozen=True)
class DensityReport:
    epsilon: float
    Ns: list[int]
    densities: list[float]
    member_counts: list[int]
    excluded_counts: list[int] = field(default_factory=list)

    CSV_COLUMNS = ["N", "count", "density", "excluded"]

    def csv_rows(self) -> list[list[float]]:
        excluded = self.excluded_counts or [0] * len(self.Ns)
        return [
            [N, c, d, e]
            for N, c, d, e in zip(self.Ns, self.member_counts, self.densities, excluded)
        ]


def scheme_paper() -> SequenceScheme:
    """q_n = 1 - 1/n, p_n = e^(1/(2n)) (1 - 1/n); starts at n = 2.

    Along this scheme q_n^n -> 1/e and p_n^n -> 1/sqrt(e), so 1/[n] -> 0.
    """

    def rule(n: int) -> tuple[float, float]:
        q_n = 1.0 - 1.0 / n
        return math.exp(0.5 / n) * q_n, q_n

    return SequenceScheme("paper", rule, n_min=2)


def scheme_constant(p: float, q: float) -> SequenceScheme:
    """Fixed (p, q) for every n; deliberately non-convergent parameters."""
    PQPair(p, q)
    return SequenceScheme(f"constant({p},{q})", lambda n: (p, q))


def density(indicator: Callable[[int], bool], N: int) -> float:
    """|{k <= N : indicator(k)}| / N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return sum(1 for k in range(1, N + 1) if indicator(k)) / N


def default_stat_grid() -> np.ndarray:
    """33 points on [0, 0.96]: sup-norm probe avoiding the slow-tail region."""
    return np.linspace(0.0, 0.96, 33)


def st_korovkin_check(
    scheme: SequenceScheme,
    f: Function,
    epsilon: float,
    Ns: Sequence[int],
    grid: Sequence[float] | None = None,
    policy: TruncationPolicy | None = None,
) -> dict[str, DensityReport]:
    """Density tables of {n <= N : e_n >= epsilon} for g in {1, t, t^2, f}.

    e_n is the grid sup of |M_n g - g| under the scheme's (p_n, q_n).
    Indices outside the scheme domain or with non-converged evaluations are
    excluded from membership and counted separately.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    Ns = [int(N) for N in Ns]
    if Ns != sorted(Ns) or len(set(Ns)) != len(Ns) or Ns[0] < 1:
        raise ValueError("Ns must be strictly increasing positive integers")
    if grid is None:
        grid = default_stat_grid()
    if policy is None:
        policy = TruncationPolicy(tail_tol=1e-8, k_max=5000)

    gs = [ONE, IDENTITY, SQUARE, f]
    labels = ["1", "t", "t^2", f.label or "f"]
    # the grid is the same for every n, so each g is evaluated on it once
    xs = [float(x) for x in grid]
    g_at = [g.values(np.array(xs)).tolist() for g in gs]
    errors: dict[str, dict[int, float]] = {lab: {} for lab in labels}
    excluded: set[int] = set(range(1, scheme.n_min))

    for n in range(scheme.n_min, max(Ns) + 1):
        params = scheme.params(n)
        worst = [0.0] * len(gs)
        ok = True
        for j, x in enumerate(xs):
            outs = evaluate_many(params, gs, x, policy)
            if not all(o.converged for o in outs):
                ok = False
                break
            for i, o in enumerate(outs):
                worst[i] = max(worst[i], abs(o.value - g_at[i][j]))
        if not ok:
            excluded.add(n)
            continue
        for lab, e in zip(labels, worst):
            errors[lab][n] = e

    reports = {}
    for lab in labels:
        members = sorted(n for n, e in errors[lab].items() if e >= epsilon)
        counts = [sum(1 for n in members if n <= N) for N in Ns]
        exc = [sum(1 for n in excluded if n <= N) for N in Ns]
        reports[lab] = DensityReport(
            epsilon=epsilon,
            Ns=list(Ns),
            densities=[c / N for c, N in zip(counts, Ns)],
            member_counts=counts,
            excluded_counts=exc,
        )
    return reports


def stat_rate_bound(
    scheme: SequenceScheme,
    n: int,
    f: Function,
    resolution: int = 1025,
    grid: Sequence[float] | None = None,
) -> float:
    """Grid sup of 2 * omega(f, sqrt(delta_n(x))) along the scheme.

    Points where the pointwise width delta_n(x) goes negative are excluded;
    an all-negative profile is an error.
    """
    params = scheme.params(n)
    if grid is None:
        grid = np.linspace(0.0, 1.0, 33)
    best = None
    for x in grid:
        d = delta_n_sq(params, float(x))
        if d < 0.0:
            continue
        if d == 0.0:
            best = max(best or 0.0, 0.0)
            continue
        w = 2.0 * modulus(f, math.sqrt(d), resolution).value
        best = w if best is None else max(best, w)
    if best is None:
        raise ValueError("pointwise width is negative over the whole grid")
    return best


def inverse_pq_int(scheme: SequenceScheme, n: int) -> float:
    """1 / [n] along the scheme; tends to 0 for admissible schemes."""
    params = scheme.params(n)
    return 1.0 / pq_int(n, params.pq)
