"""Series evaluation of the (p,q) Meyer-Konig-Zeller operator.

The operator is an infinite convex combination of function values: the
weights are nonnegative and sum exactly to 1, so the residual weight mass of
a truncated sum is a rigorous truncation certificate once a bound on |f| is
known.  All weight arithmetic stays in tau = q/p form; the factors p^(-kn)
and p^(n(n+1)/2) never appear on their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .pqcore import PQPair

__all__ = [
    "PQParams",
    "TruncationPolicy",
    "EvalOutcome",
    "Function",
    "node",
    "weight",
    "evaluate",
    "evaluate_many",
    "evaluate_grid",
    "normalization_defect",
    "normalization_partial_sum",
]

_BLOCK = 256
# Below this log-magnitude the leading weight underflows double precision and
# the tau-form recurrence cannot recover; refuse rather than return garbage.
_LOG_W0_FLOOR = -650.0


@dataclass(frozen=True)
class PQParams:
    """Operator degree n >= 1 together with its parameter pair."""

    n: int
    pq: PQPair

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("operator degree n must be >= 1")


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for the infinite series.

    tail_tol is the target residual weight mass; k_max caps the number of
    terms; f_sup_bound, when given, certifies error_bound = tail * bound.
    """

    tail_tol: float = 1e-12
    k_max: int = 100_000
    f_sup_bound: float | None = None

    def __post_init__(self) -> None:
        if self.tail_tol <= 0.0:
            raise ValueError("tail_tol must be positive")
        if not math.isfinite(self.tail_tol):
            raise ValueError("tail_tol must be finite")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.f_sup_bound is not None:
            if self.f_sup_bound < 0.0:
                raise ValueError("f_sup_bound must be nonnegative")
            if not math.isfinite(self.f_sup_bound):
                raise ValueError("f_sup_bound must be finite")


@dataclass(frozen=True)
class EvalOutcome:
    value: float
    tail_mass: float
    terms_used: int
    error_bound: float
    converged: bool
    heuristic_bound: bool = False


@dataclass(frozen=True)
class Function:
    """An evaluable real function on [0,1].

    values is the one evaluator: it maps a float array of points to a float
    array of the same shape, and calling the Function at a point t is a
    one-element view of it, so f(t) == f.values(ts)[i] bit for bit whenever
    ts[i] == t.  sup_hint, when present, must be a valid upper bound for
    sup |f| on [0,1]; without it a heuristic grid bound is used and outcomes
    are flagged accordingly.
    """

    values: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    sup_hint: float | None = None

    def __call__(self, t: float) -> float:
        # a one-element array, not a 0-d one: numpy's 0-d power can round
        # differently from the array loop
        return float(self.values(np.array([t], dtype=float))[0])


_SUP_CACHE: dict[Function, float] = {}


def _effective_sup_bound(f: Function) -> tuple[float, bool]:
    if f.sup_hint is not None:
        return f.sup_hint, False
    if f not in _SUP_CACHE:
        xs = np.linspace(0.0, 1.0, 1025)
        _SUP_CACHE[f] = 2.0 * float(np.max(np.abs(f.values(xs))))
    return _SUP_CACHE[f], True


def _log_w0(params: PQParams, x: float) -> float:
    """log w_0(x) = sum_{s=0..n} log(1 - tau^s x); refuses underflow."""
    n, pq = params.n, params.pq
    if pq.classical_mode:
        log_w0 = (n + 1) * math.log1p(-x) if x > 0.0 else 0.0
    else:
        s = np.arange(n + 1)
        log_w0 = float(np.sum(np.log1p(-np.exp(s * pq.log_tau) * x)))
    if log_w0 < _LOG_W0_FLOOR:
        raise ValueError(
            "leading weight underflows double precision for these parameters; "
            "reduce n or move x away from 1"
        )
    return log_w0


def _ratios(params: PQParams, x: float, ks: np.ndarray) -> np.ndarray:
    """w_k / w_{k-1} = x (1 - tau^(n+k)) / (1 - tau^k) for k in ks (all >= 1)."""
    n, pq = params.n, params.pq
    if pq.classical_mode:
        return x * (n + ks) / ks
    lt = pq.log_tau
    return x * np.expm1((n + ks) * lt) / np.expm1(ks * lt)


def _nodes(params: PQParams, count: int) -> np.ndarray:
    """Abscissae p^n [k] / [n+k] = (1 - tau^k) / (1 - tau^(n+k)), k < count."""
    n, pq = params.n, params.pq
    ks = np.arange(count)
    if pq.classical_mode:
        return ks / (n + ks)
    lt = pq.log_tau
    with np.errstate(invalid="ignore"):
        nodes = np.expm1(ks * lt) / np.expm1((n + ks) * lt)
    nodes[0] = 0.0
    return nodes


def node(params: PQParams, k: int) -> float:
    """Evaluation abscissa p^n [k] / [n+k], always in [0, 1)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return float(_nodes(params, k + 1)[k])


def weight(params: PQParams, k: int, x: float) -> float:
    """The k-th series weight w_k(x)."""
    if not (0.0 <= x < 1.0):
        raise ValueError("x must lie in [0, 1)")
    if k < 0:
        raise ValueError("k must be nonnegative")
    w0 = math.exp(_log_w0(params, x))
    if k == 0:
        return w0
    return float(w0 * np.cumprod(_ratios(params, x, np.arange(1, k + 1)))[-1])


def _weights_nodes(
    params: PQParams, x: float, tail_tol: float, max_terms: int
) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """All weights up to the stopping index, their nodes, tail mass, flag.

    tail_tol may be 0 here (internal use: fixed-length partial sums).
    """
    w0 = math.exp(_log_w0(params, x))

    target = 1.0 - tail_tol
    chunks = [np.array([w0])]
    total = w0
    w_last = w0
    produced = 1
    done = total >= target
    while not done and produced < max_terms:
        m = min(_BLOCK, max_terms - produced)
        wb = w_last * np.cumprod(
            _ratios(params, x, np.arange(produced, produced + m))
        )
        cums = total + np.cumsum(wb)
        hit = int(np.searchsorted(cums, target))
        if hit < m:
            wb = wb[: hit + 1]
            total = float(cums[hit])
            done = True
        else:
            total = float(cums[-1])
        chunks.append(wb)
        w_last = float(wb[-1])
        produced += len(wb)

    w = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    nodes = _nodes(params, len(w))
    tail = max(0.0, 1.0 - total)
    return w, nodes, tail, tail <= tail_tol


def evaluate(
    params: PQParams,
    f: Function,
    x: float,
    policy: TruncationPolicy = TruncationPolicy(),
) -> EvalOutcome:
    """Truncated operator value at x with a certified tail budget.

    x = 1 is the hard interpolation branch: the operator returns f(1).
    Non-convergence within k_max is reported, never silently truncated.
    """
    return evaluate_many(params, [f], x, policy)[0]


def evaluate_many(
    params: PQParams,
    fs: Sequence[Function],
    x: float,
    policy: TruncationPolicy = TruncationPolicy(),
) -> list[EvalOutcome]:
    """Evaluate several functions sharing one weight pass.

    Guarantees identical truncation (same weights, same tail) across all
    functions, which keeps derived quantities like central moments coherent.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if x == 1.0:
        return [
            EvalOutcome(float(f(1.0)), 0.0, 1, 0.0, True, False) for f in fs
        ]
    w, nodes, tail, converged = _weights_nodes(
        params, x, policy.tail_tol, policy.k_max
    )
    out = []
    for f in fs:
        fv = f.values(nodes)
        value = float(w @ fv)
        if policy.f_sup_bound is not None:
            bound, heuristic = policy.f_sup_bound, False
        else:
            bound, heuristic = _effective_sup_bound(f)
        out.append(
            EvalOutcome(value, tail, len(w), tail * bound, converged, heuristic)
        )
    return out


def evaluate_grid(
    params: PQParams,
    f: Function,
    grid: Sequence[float],
    policy: TruncationPolicy = TruncationPolicy(),
) -> list[EvalOutcome]:
    """Elementwise evaluate; output order matches input order."""
    if len(grid) == 0:
        raise ValueError("grid must be nonempty")
    return [evaluate(params, f, float(x), policy) for x in grid]


def normalization_partial_sum(params: PQParams, x: float, k_terms: int) -> float:
    """Sum of the first k_terms weights (indices 0 .. k_terms-1)."""
    if not (0.0 <= x < 1.0):
        raise ValueError("x must lie in [0, 1)")
    if k_terms < 1:
        raise ValueError("k_terms must be >= 1")
    w, _, _, _ = _weights_nodes(params, x, 0.0, k_terms)
    return float(np.sum(w))


def normalization_defect(
    params: PQParams, x: float, policy: TruncationPolicy = TruncationPolicy()
) -> float:
    """|prefix weight sum - 1| under the policy's truncation."""
    if not (0.0 <= x < 1.0):
        raise ValueError("x must lie in [0, 1)")
    w, _, _, _ = _weights_nodes(params, x, policy.tail_tol, policy.k_max)
    return abs(1.0 - float(np.sum(w)))
