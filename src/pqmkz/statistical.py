"""Statistical-convergence experiments: density tables along a scheme.

A statistical limit cannot be observed at desk scale; the assertable
surrogate is a table of finite-N densities of the epsilon-deviation set,
checked for a nonincreasing trend across increasing N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .engine import (
    Function,
    PQParams,
    TruncationPolicy,
    evaluate_sweep_values,
)
from .pqcore import PQPair, pq_int
from .presets import IDENTITY, ONE, SQUARE

__all__ = [
    "SequenceScheme",
    "DensityReport",
    "scheme_paper",
    "scheme_constant",
    "density",
    "st_korovkin_check",
    "default_stat_grid",
    "inverse_pq_int",
    "STAT_POLICY",
]

# the truncation of a density sweep unless the caller gives one
STAT_POLICY = TruncationPolicy(tail_tol=1e-8, k_max=5000)


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
    """One density table; CSV_COLUMNS name Ns, member_counts, densities and
    excluded_counts, one CSV row per N."""

    epsilon: float
    Ns: list[int]
    densities: list[float]
    member_counts: list[int]
    excluded_counts: list[int]

    CSV_COLUMNS = ["N", "count", "density", "excluded"]


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
    policy: TruncationPolicy = STAT_POLICY,
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
    if not Ns or Ns != sorted(Ns) or len(set(Ns)) != len(Ns) or Ns[0] < 1:
        raise ValueError("Ns must be strictly increasing positive integers")
    if grid is None:
        grid = default_stat_grid()

    gs = [ONE, IDENTITY, SQUARE, f]
    labels = ["1", "t", "t^2", f.label or "f"]
    # the grid is the same for every n, so each g is evaluated on it once
    xs = [float(x) for x in grid]
    if not xs:
        raise ValueError("grid must be nonempty")
    g_at = np.array([g.values(np.array(xs)) for g in gs], dtype=float)
    errors: dict[str, dict[int, float]] = {lab: {} for lab in labels}
    excluded: set[int] = set(range(1, scheme.n_min))

    late: list[Exception] = []

    def params_seq():
        # each n built when the sweep reaches it; a scheme that fails at
        # some n ends the sweep there and raises after the n before it
        for n in range(scheme.n_min, max(Ns) + 1):
            try:
                params = scheme.params(n)
            except Exception as exc:
                late.append(exc)
                return
            yield params

    # every n in one engine call, which ends at the first fatal failure
    sweep = evaluate_sweep_values(params_seq(), gs, xs, policy)
    for n, res in enumerate(sweep, scheme.n_min):
        if res.failure is not None:
            # an x failed; the scan over x stops at the first x that does
            # not converge, so the failure counts only if no such x
            # precedes it
            j, exc = res.failure
            if not isinstance(exc, ValueError) or res.converged[:j].all():
                raise exc
        if not res.converged.all():
            # a failure that is not fatal follows a non-converged x
            excluded.add(n)
            continue
        # fmax from 0, like a running max(), passes over nan
        worst = np.fmax.reduce(np.abs(res.values - g_at), axis=1, initial=0.0)
        for lab, e in zip(labels, worst.tolist()):
            errors[lab][n] = e
    if late:
        raise late[0]

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


def inverse_pq_int(scheme: SequenceScheme, n: int) -> float:
    """1 / [n] along the scheme; tends to 0 for admissible schemes."""
    params = scheme.params(n)
    return 1.0 / pq_int(n, params.pq)
