"""Numerically stable (p,q)-calculus primitives.

Everything large is reparameterized through tau = q/p, which lives in (0,1):
the two-parameter integer becomes p^(n-1) * (1 - tau^n) / (1 - tau), so no
p^n - q^n cancellation ever happens.  Quantities of the form 1 - tau^k are
evaluated as -expm1(k * log(tau)), which stays accurate all the way into the
tau -> 1 regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PQPair", "pq_int"]


@dataclass(frozen=True)
class PQPair:
    """Parameter pair with 0 < q < p <= 1, or the degenerate limit p = q = 1.

    The degenerate limit is an explicit constructor branch (classical_mode),
    never a threshold on tau: silently switching near tau = 1 would mask
    precision bugs in the deformed path.
    """

    p: float
    q: float
    classical_mode: bool = False

    def __post_init__(self) -> None:
        if self.classical_mode:
            if self.p != 1.0 or self.q != 1.0:
                raise ValueError("classical mode fixes p = q = 1")
        elif not (0.0 < self.q < self.p <= 1.0):
            raise ValueError(
                f"require 0 < q < p <= 1, got p={self.p!r}, q={self.q!r}"
            )

    @classmethod
    def classical(cls) -> "PQPair":
        return cls(1.0, 1.0, classical_mode=True)

    @property
    def log_tau(self) -> float:
        if self.classical_mode:
            return 0.0
        return math.log(self.q) - math.log(self.p)


def one_minus_tau_pow(k: int, pq: PQPair) -> float:
    """1 - tau^k without cancellation; 0 in classical mode."""
    if pq.classical_mode:
        return 0.0
    return -math.expm1(k * pq.log_tau)


def pq_int(n: int, pq: PQPair) -> float:
    """The two-parameter integer [n]: (p^n - q^n)/(p - q), with [0] = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0.0
    if pq.classical_mode:
        return float(n)
    return pq.p ** (n - 1) * one_minus_tau_pow(n, pq) / one_minus_tau_pow(1, pq)
