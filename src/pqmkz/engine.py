"""Series evaluation of the (p,q) Meyer-Konig-Zeller operator.

The operator is an infinite convex combination of function values: the
weights are nonnegative and sum exactly to 1, so the residual weight mass of
a truncated sum is a rigorous truncation certificate once a bound on |f| is
known.  All weight arithmetic stays in tau = q/p form; the factors p^(-kn)
and p^(n(n+1)/2) never appear on their own.
"""

from __future__ import annotations

import functools
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
    "evaluate_grid_values",
    "GridValues",
    "SupBoundError",
    "normalization_defect",
    "normalization_defects",
    "normalization_partial_sum",
    "normalization_partial_sums",
]

_BLOCK = 256
# Grid rows run the recurrence together this many at a time, which bounds
# the 2-D temporaries of one block.
_ROWS = 64
# Below this log-magnitude the leading weight underflows double precision and
# the tau-form recurrence cannot recover; refuse rather than return garbage.
_LOG_W0_FLOOR = -650.0
_UNDERFLOW = (
    "leading weight underflows double precision for these parameters; "
    "reduce n or move x away from 1"
)


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
    terms.
    """

    tail_tol: float = 1e-12
    k_max: int = 100_000

    def __post_init__(self) -> None:
        if self.tail_tol <= 0.0:
            raise ValueError("tail_tol must be positive")
        if not math.isfinite(self.tail_tol):
            raise ValueError("tail_tol must be finite")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")


@dataclass(frozen=True)
class EvalOutcome:
    """One f at one x: the column of that x in a GridValues.
    heuristic_bound is true only below x = 1, where f's bound is used and
    was not given as a hint."""

    value: float
    tail_mass: float
    terms_used: int
    error_bound: float
    converged: bool
    heuristic_bound: bool = False


@dataclass(frozen=True)
class GridValues:
    """Columns of a grid evaluation of fs: row i of a 2-D array is fs[i] and
    column j is grid[j].

    tail_mass, terms_used and converged hold one entry per x; sup_bound and
    heuristic_bound one per f (0.0 and False when the grid holds only x = 1,
    which asks for no bound); error_bound[i, j] = tail_mass[j] * sup_bound[i]
    below x = 1 and 0.0 at x = 1.
    """

    values: np.ndarray
    tail_mass: np.ndarray
    terms_used: np.ndarray
    converged: np.ndarray
    sup_bound: np.ndarray
    heuristic_bound: np.ndarray
    error_bound: np.ndarray


class SupBoundError(ValueError):
    """f has no sup hint and the heuristic bound is not finite, so no error
    bound can be stated."""


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

    def __post_init__(self) -> None:
        if self.sup_hint is not None and not 0.0 <= self.sup_hint < math.inf:
            raise ValueError(f"sup_hint must be finite and >= 0, got {self.sup_hint!r}")

    def __call__(self, t: float) -> float:
        # a one-element array, not a 0-d one: numpy's 0-d power can round
        # differently from the array loop
        return float(self.values(np.array([t], dtype=float))[0])

    def sup_bound(self) -> tuple[float, bool]:
        """(sup_hint, False), or without a hint (2 * max|f| on 1025 points of
        [0, 1], True); raises SupBoundError when that heuristic is not
        finite."""
        if self.sup_hint is not None:
            return self.sup_hint, False
        h = self._heuristic_sup
        if not math.isfinite(h):
            raise SupBoundError(f"the heuristic sup bound 2*max|f| on [0, 1] is {h!r}")
        return h, True

    @functools.cached_property
    def _heuristic_sup(self) -> float:
        # stored on this object, so it lives and dies with f
        xs = np.linspace(0.0, 1.0, 1025)
        return 2.0 * float(np.max(np.abs(self.values(xs))))


class _Plan:
    """The part of the series that does not depend on x, for one PQParams.

    The weight ratio is w_k / w_{k-1} = x * e1[k] / e2[k] and the node is
    e2[k] / e1[k], with e1[k] = expm1((n+k) log tau) and e2[k] = expm1(k log
    tau) (n + k and k in classical mode); neg_tau_s holds -tau^s, s = 0..n,
    for log w_0.  A plan serves one call and grows on demand.
    """

    def __init__(self, params: PQParams) -> None:
        self.params = params
        self.e1 = self.e2 = self.nodes = np.empty(0)
        if not params.pq.classical_mode:
            s = np.arange(params.n + 1)
            self.neg_tau_s = -np.exp(s * params.pq.log_tau)

    def grow(self, count: int) -> None:
        """Hold at least count entries of e1, e2 and nodes."""
        if count <= len(self.nodes):
            return
        n, pq = self.params.n, self.params.pq
        ks = np.arange(max(count, 2 * len(self.nodes)))
        if pq.classical_mode:
            self.e1, self.e2 = (n + ks).astype(float), ks.astype(float)
        else:
            lt = pq.log_tau
            self.e1, self.e2 = np.expm1((n + ks) * lt), np.expm1(ks * lt)
        with np.errstate(invalid="ignore"):
            self.nodes = self.e2 / self.e1
        self.nodes[0] = 0.0

    def leading_weights(self, xs: np.ndarray) -> np.ndarray:
        """w_0(x) = prod_{s=0..n} (1 - tau^s x) for each x of xs in [0, 1);
        raises if any of them underflows double precision."""
        if self.params.pq.classical_mode:
            n = self.params.n
            log_w0 = np.array(
                [(n + 1) * math.log1p(-x) if x > 0.0 else 0.0 for x in xs]
            )
        else:
            log_w0 = np.sum(np.log1p(np.multiply.outer(xs, self.neg_tau_s)), axis=1)
        if np.any(log_w0 < _LOG_W0_FLOOR):
            raise ValueError(_UNDERFLOW)
        # math.exp, not np.exp: the two can differ in the last ulp
        return np.array([math.exp(v) for v in log_w0])


def _weight_rows(
    plan: _Plan, xs: np.ndarray, tail_tol: float, max_terms: int
) -> list[tuple[np.ndarray, float, bool]]:
    """(weights up to the stopping index, tail mass, flag) for each x of xs.

    Each x in [0, 1) runs the same recurrence: from k = 1, blocks of _BLOCK
    ratios, each block a cumprod scaled by the last weight, until the running
    sum reaches 1 - tail_tol or max_terms weights exist.  Every row keeps
    those block boundaries and that order of operations, so rows that share
    a block run as one 2-D array and still get the one-point arithmetic bit
    for bit.  tail_tol may be 0 here (internal use: fixed-length partial
    sums).
    """
    target = 1.0 - tail_tol
    out: list[tuple[np.ndarray, float, bool]] = []
    for start in range(0, len(xs), _ROWS):
        xc = xs[start: start + _ROWS]
        w0 = plan.leading_weights(xc)
        parts = [[w0[i: i + 1]] for i in range(len(w0))]
        total, last = w0.copy(), w0.copy()
        active = np.flatnonzero(~(total >= target))
        produced = 1
        while active.size and produced < max_terms:
            m = min(_BLOCK, max_terms - produced)
            plan.grow(produced + m)
            block = slice(produced, produced + m)
            ratios = xc[active, None] * plan.e1[block] / plan.e2[block]
            wb = last[active, None] * np.cumprod(ratios, axis=1)
            cums = total[active, None] + np.cumsum(wb, axis=1)
            reached = cums >= target
            stopped = reached.any(axis=1)
            ends = np.where(stopped, reached.argmax(axis=1), m - 1)
            at = (np.arange(active.size), ends)
            for j, i in enumerate(active.tolist()):
                parts[i].append(wb[j, : ends[j] + 1])
            total[active] = cums[at]
            last[active] = wb[at]
            active = active[~stopped]
            produced += m
        for chunks, t in zip(parts, total.tolist()):
            tail = max(0.0, 1.0 - t)
            w = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
            out.append((w, tail, tail <= tail_tol))
    return out


def node(params: PQParams, k: int) -> float:
    """Evaluation abscissa p^n [k] / [n+k], always in [0, 1)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    plan = _Plan(params)
    plan.grow(k + 1)
    return float(plan.nodes[k])


def weight(params: PQParams, k: int, x: float) -> float:
    """The k-th series weight w_k(x)."""
    if not (0.0 <= x < 1.0):
        raise ValueError("x must lie in [0, 1)")
    if k < 0:
        raise ValueError("k must be nonnegative")
    plan = _Plan(params)
    w0 = float(plan.leading_weights(np.array([x], dtype=float))[0])
    if k == 0:
        return w0
    plan.grow(k + 1)
    ratios = x * plan.e1[1: k + 1] / plan.e2[1: k + 1]
    return float(w0 * np.cumprod(ratios)[-1])


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
    """Evaluate several functions sharing one weight pass: the one column of
    evaluate_grid_values at x, one outcome per function in the order of fs.

    Guarantees identical truncation (same weights, same tail) across all
    functions, which keeps derived quantities like central moments coherent.
    """
    g = evaluate_grid_values(params, fs, [x], policy)
    (tail,), (k,), (ok,) = (g.tail_mass.tolist(), g.terms_used.tolist(),
                            g.converged.tolist())
    below = float(x) < 1.0
    return [EvalOutcome(v, tail, k, e, ok, h and below)
            for v, e, h in zip(g.values[:, 0].tolist(), g.error_bound[:, 0].tolist(),
                               g.heuristic_bound.tolist())]


def _first_failure(run: Callable[[list[float]], object], xs: list[float]):
    """run(xs), the work of a whole grid.  If it raises, run each x of xs
    alone, in grid order, so that the error raised is the one of the first x
    that fails alone; if none does, the original error is raised.  Either
    error carries, as its done attribute, the one-x results of the x before
    the failing one (of every x when none fails alone)."""
    try:
        return run(xs)
    except Exception as exc:
        done = []
        try:
            for x in xs:
                done.append(run([x]))
        except Exception as first:
            first.done = done
            raise
        exc.done = done
        raise


def evaluate_grid_values(
    params: PQParams,
    fs: Sequence[Function],
    grid: Sequence[float],
    policy: TruncationPolicy = TruncationPolicy(),
) -> GridValues:
    """Evaluate several functions at every x of a grid, as columns.

    Every x gets its own weights and truncation, as if evaluated alone; the
    x-free part of the series is built once, and each f is evaluated once,
    on the nodes of the longest row.  x = 1 is the interpolation branch:
    value f(1), tail 0, one term.  A failure raises the error that the first
    failing x, taken in grid order, raises.
    """
    if len(grid) == 0:
        raise ValueError("grid must be nonempty")
    plan = _Plan(params)

    def run(xs: list[float]) -> GridValues:
        if not all(0.0 <= x <= 1.0 for x in xs):
            raise ValueError("x must lie in [0, 1]")
        below = [j for j, x in enumerate(xs) if x < 1.0]
        rows = _weight_rows(
            plan, np.array([xs[j] for j in below], dtype=float),
            policy.tail_tol, policy.k_max,
        )
        ws = [w for w, _, _ in rows]
        size = max(map(len, ws), default=0)
        plan.grow(size)
        values = np.empty((len(fs), len(xs)))
        bound = np.zeros(len(fs))
        heuristic = np.zeros(len(fs), dtype=bool)
        if rows:
            # for each f: its values, then its sup bound
            for i, f in enumerate(fs):
                fv = f.values(plan.nodes[:size])
                values[i, below] = [w.dot(fv[: len(w)]) for w in ws]
                bound[i], heuristic[i] = f.sup_bound()
        tail = np.zeros(len(xs))
        terms = np.ones(len(xs), dtype=int)
        converged = np.ones(len(xs), dtype=bool)
        tail[below] = [t for _, t, _ in rows]
        terms[below] = list(map(len, ws))
        converged[below] = [c for _, _, c in rows]
        error = np.multiply.outer(bound, tail)
        if len(below) < len(xs):
            at_one = [j for j, x in enumerate(xs) if x == 1.0]
            values[:, at_one] = np.array([float(f(1.0)) for f in fs])[:, None]
            error[:, at_one] = 0.0
        return GridValues(values, tail, terms, converged, bound, heuristic, error)

    return _first_failure(run, [float(x) for x in grid])


def _prefix_sums(
    params: PQParams, grid: Sequence[float], tail_tol: float, max_terms: int
) -> list[float]:
    """Sum of the truncated weights at every x of a grid, in grid order."""
    plan = _Plan(params)

    def run(xs: list[float]) -> list[float]:
        if not all(0.0 <= x < 1.0 for x in xs):
            raise ValueError("x must lie in [0, 1)")
        rows = _weight_rows(plan, np.array(xs, dtype=float), tail_tol, max_terms)
        return [float(np.sum(w)) for w, _, _ in rows]

    return _first_failure(run, [float(x) for x in grid])


def normalization_partial_sums(
    params: PQParams, grid: Sequence[float], k_terms: int
) -> list[float]:
    """Sum of the first k_terms weights (indices 0 .. k_terms-1) at every x
    of a grid, in grid order; the first failing x raises."""
    if k_terms < 1:
        raise ValueError("k_terms must be >= 1")
    return _prefix_sums(params, grid, 0.0, k_terms)


def normalization_partial_sum(params: PQParams, x: float, k_terms: int) -> float:
    """Sum of the first k_terms weights (indices 0 .. k_terms-1)."""
    return normalization_partial_sums(params, [x], k_terms)[0]


def normalization_defects(
    params: PQParams,
    grid: Sequence[float],
    policy: TruncationPolicy = TruncationPolicy(),
) -> list[float]:
    """|prefix weight sum - 1| at every x of a grid, in grid order, under the
    policy's truncation; the first failing x raises."""
    return [abs(1.0 - s)
            for s in _prefix_sums(params, grid, policy.tail_tol, policy.k_max)]


def normalization_defect(
    params: PQParams, x: float, policy: TruncationPolicy = TruncationPolicy()
) -> float:
    """|prefix weight sum - 1| under the policy's truncation."""
    return normalization_defects(params, [x], policy)[0]
