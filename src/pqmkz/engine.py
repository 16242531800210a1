"""Series evaluation of the (p,q) Meyer-Konig-Zeller operator.

The operator is an infinite convex combination of function values: the
weights are nonnegative and sum exactly to 1, so the residual weight mass
times a bound on |f| bounds the truncation error.  The tail_mass reported
here is 1 - sum of the computed weights: it carries their rounding, so
tail_mass * sup|f| estimates that error and does not certify it.  All weight
arithmetic stays in tau = q/p form; the factors p^(-kn) and p^(n(n+1)/2)
never appear on their own.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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
    "evaluate_sweep_values",
    "GridValues",
    "SupBoundError",
    "normalization_defects",
    "normalization_partial_sum",
    "normalization_partial_sums",
]

# A row of weights is one scan, in passes over the rows of a chunk still
# running.  A pass runs terms lo .. lo + width - 1 of each row, width the
# larger of the terms made so far and the first pass's width: _SPAN terms
# when a chunk opens with at most _ROWS * _FIRST / _SPAN = 64 running rows,
# else _FIRST, so that most rows, which stop early, compute little past their
# stop.  A pass holds at most _WIDTH terms per row (a row that stops early in
# a pass wastes the rest of it) and _ROWS * _SPAN terms in all (about 1 MB
# per temporary).  A pass costs calls whatever its number of rows, so larger
# chunks and passes amortize them.
_FIRST = 32
_SPAN = 256
_ROWS = 512
_WIDTH = 4096
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

    tail_mass, terms_used, converged and status hold one entry per x;
    sup_bound and heuristic_bound one per f (0.0 and False when the grid
    holds only x = 1, which asks for no bound); error_bound[i, j] =
    tail_mass[j] * sup_bound[i] below x = 1 and 0.0 at x = 1.

    status[j] is what grid[j] gives alone: "ok", "k_max" (not converged),
    "underflow" (its leading weight underflows), "f_error" (an f raised) or
    "range" (x outside [0, 1]).  A row that is neither "ok" nor "k_max"
    holds nan values and error bounds, and its weights' tail, terms and
    flag if it has weights (else nan, 0 and False); failure is then (j,
    exc), the first such j and the exception it raises alone, which
    evaluate_grid_values raises.
    """

    values: np.ndarray
    tail_mass: np.ndarray
    terms_used: np.ndarray
    converged: np.ndarray
    sup_bound: np.ndarray
    heuristic_bound: np.ndarray
    error_bound: np.ndarray
    status: np.ndarray
    failure: tuple[int, Exception] | None = None


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


def _leading_weights(params: PQParams, xs: np.ndarray) -> np.ndarray:
    """w_0(x) = prod_{s=0..n} (1 - tau^s x) for each x of xs in [0, 1); nan
    where it underflows double precision."""
    n, pq = params.n, params.pq
    if pq.classical_mode:
        log_w0 = [(n + 1) * math.log1p(-x) if x > 0.0 else 0.0 for x in xs.tolist()]
    else:
        # slices of at most _ROWS * _SPAN factors, the terms of a full pass
        # (one x when n + 1 is more); each x's sum is the same whatever its
        # slice
        neg_tau_s = -np.exp(np.arange(n + 1) * pq.log_tau)
        log_w0 = []
        step = max(1, _ROWS * _SPAN // (n + 1))
        for i in range(0, len(xs), step):
            log_w0 += np.sum(np.log1p(np.multiply.outer(
                xs[i: i + step], neg_tau_s)), axis=1).tolist()
    # math.exp, not np.exp: the two can differ in the last ulp
    return np.array([math.exp(v) if v >= _LOG_W0_FLOOR else math.nan
                     for v in log_w0])


def _plan_major(segments):
    """Cut segments (params, xs, w0) into chunks of at most _ROWS rows, in
    order: lists of pieces (params, xs, w0), consecutive rows of one
    segment."""
    chunk, room = [], _ROWS
    for params, xs, w0 in segments:
        start = 0
        while start < len(xs):
            take = min(room, len(xs) - start)
            stop = start + take
            chunk.append((params, xs[start:stop], w0[start:stop]))
            start, room = stop, room - take
            if not room:
                yield chunk
                chunk, room = [], _ROWS
    if chunk:
        yield chunk


def _columns(params) -> list[np.ndarray]:
    """The n, log_tau and classical flag of each PQParams of params, as
    three arrays."""
    return [np.array(v) for v in zip(*[
        (p.n, p.pq.log_tau, p.pq.classical_mode) for p in params])]


def _factors(ns, log_taus, classical, ks) -> tuple[np.ndarray, np.ndarray]:
    """e(n + k) and e(k) of the plans (ns, log_taus, classical), one plan
    per row of these one-column arrays, for k of the range ks, with e(j) =
    expm1(j log tau) (j in classical mode, whose log_tau is 0.0): the weight
    ratio w_k / w_{k-1} is x * e(n + k) / e(k) and node k is e(k) / e(n +
    k)."""
    if len(ns) == 1 and ns[0, 0] < len(ks) and not classical[0, 0]:
        # one plan whose e(k) and e(n + k) overlap: one range holds both
        n = int(ns[0, 0])
        e = np.expm1(np.arange(ks[0], ks[-1] + n + 1) * log_taus)
        return e[:, n:], e[:, :len(ks)]
    # n + k is added in integers, so each product is the double (n + k) *
    # log_tau whatever the table's shape
    js = ns + ks
    e1, e2 = np.expm1(js * log_taus), np.expm1(ks * log_taus)
    if classical.any():
        e1, e2 = np.where(classical, js, e1), np.where(classical, ks, e2)
    return e1, e2


def _nodes(params, counts) -> np.ndarray:
    """Nodes 0 .. counts[i] - 1 of each PQParams params[i], end to end:
    node k is e(k) / e(n + k), and node 0 is 0.0."""
    ks = np.arange(max(counts))
    e1, e2 = _factors(*(a[:, None] for a in _columns(params)), ks)
    with np.errstate(invalid="ignore"):
        nodes = e2 / e1
    nodes[:, :1] = 0.0
    return nodes[ks < np.asarray(counts)[:, None]]


def _ratios(plans, piece, cuts, x, lo, hi) -> np.ndarray:
    """x * e(n + k) / e(k), k = lo .. hi - 1, of each row's plan, as one
    (rows, hi - lo) array; plans is _columns of the chunk's pieces, and rows
    cuts[i]:cuts[i + 1] are of piece piece[cuts[i]].  The factors of all of
    these runs of rows come from one (runs, hi - lo) table each, repeated
    to the runs' rows."""
    runs = piece[cuts[:-1]]
    e1, e2 = _factors(*(a[runs, None] for a in plans), np.arange(lo, hi))
    if len(cuts) > 2:
        counts = np.diff(cuts)
        e1, e2 = np.repeat(e1, counts, axis=0), np.repeat(e2, counts, axis=0)
    # a repeated e1 has a row per row, so it can take the product in place
    buf = np.multiply(x, e1, out=e1 if len(cuts) > 2 else None)
    return np.divide(buf, e2, out=buf)


def _stops(cums: np.ndarray, target: float) -> tuple[np.ndarray, np.ndarray]:
    """For each row of running sums: whether it reaches target, and the
    first index where it does (its last index where it does not).  Running
    sums never decrease, so a row reaches target iff its last sum does, and
    no row needs an any() over its columns."""
    reached = cums >= target
    stopped = reached[:, -1]
    at = reached.argmax(axis=1)
    at[~stopped] = cums.shape[1] - 1
    return stopped, at


def _weight_chunks(segments, tail_tol: float, max_terms: int):
    """Weights of rows (params, x), yielded one chunk of rows at a time.

    segments yields (params, xs, w0): rows of one PQParams with x in [0, 1)
    and w_0 at each, nan where it underflows.  Rows go through plan-major in
    chunks of at most _ROWS, and each chunk is yielded as (pieces, bounds,
    (head, lens, longs), total): rows bounds[i]:bounds[i+1] of the chunk
    are pieces[i] = (params, xs, w0), row r holds lens[r] weights with
    running sum total[r], and they are head[r, :lens[r]] when lens[r] <=
    head.shape[1], else longs[r].  A row whose w_0 is nan never runs: it
    holds no weights, and its total is nan.

    A row is one scan: w_k = w_0 * (r_1 * ... * r_k) with r_k = x * e(n +
    k) / e(k) of its own plan, and S_k = w_0 + (w_1 + ... + w_k), each taken
    in order, until 1 - S_k <= tail_tol, the test of the converged flag,
    or max_terms weights exist.
    The rows still running go through it in passes (see _FIRST).  A pass
    computes its ratios for all of its plans at once (see _ratios).  It
    multiplies the running product into its first ratio before its cumprod
    and adds the running sum into its first weight before its cumsum, so
    every weight and sum is the same double whatever the pass widths.  The
    product is never rescaled: it stays below 1 / w_0 <= exp(-_LOG_W0_FLOOR),
    so it cannot overflow.  Terms 0 to _SPAN go into head, one (rows, 1 +
    _SPAN) array whose column 0 is w_0; a longer row is its parts put end to
    end once it ends.
    tail_tol may be -inf here (internal use: fixed-length partial sums): no
    running sum reaches 1 - tail_tol = inf, so every row holds max_terms
    weights.
    """
    # the least double S with 1 - S <= tail_tol: fl(1 - tail_tol) can lie
    # one ulp below it, and a row that stopped there would read k_max
    target = 1.0 - tail_tol
    while 1.0 - target > tail_tol:
        target = math.nextafter(target, math.inf)
    for pieces in _plan_major(segments):
        bounds = np.cumsum([0] + [len(p[1]) for p in pieces])
        xs = np.concatenate([p[1] for p in pieces])
        w0 = np.concatenate([p[2] for p in pieces])
        plans = _columns([p[0] for p in pieces])
        total = w0.copy()
        lens = np.where(np.isnan(w0), 0, 1)
        span = min(_SPAN, max_terms - 1)
        head = np.empty((len(xs), 1 + span))
        head[:, 0] = w0
        longs: dict[int, np.ndarray] = {}
        # the rows still running: their rows of the chunk, their pieces, x
        # and w_0, and their running product and sum
        run = np.flatnonzero((total < target) & (max_terms > 1))
        piece = np.repeat(np.arange(len(pieces)), np.diff(bounds))[run]
        x, start = xs[run, None], w0[run, None]
        prod, run_sum = np.ones(run.size), np.zeros(run.size)
        cuts = None
        parts: dict[int, list] = {}
        lo = 1
        first = _SPAN if run.size * _SPAN <= _ROWS * _FIRST else _FIRST
        while run.size:
            a = run.size
            if cuts is None:
                # the runs of rows that share a plan (!= and nonzero cost
                # less than np.diff and flatnonzero)
                splits = (piece[1:] != piece[:-1]).nonzero()[0] + 1
                cuts = [0, *splits.tolist(), a]
            width = min(max(first, lo - 1), _WIDTH, _ROWS * _SPAN // a)
            hi = min(lo + width, 1 + span if lo <= span else max_terms)
            buf = _ratios(plans, piece, cuts, x, lo, hi)
            buf[:, 0] *= prod
            np.cumprod(buf, axis=1, out=buf)
            prod = buf[:, -1].copy()
            np.multiply(start, buf, out=buf)
            in_head = hi <= 1 + span
            if in_head:
                head[run, lo:hi] = buf
                sums = buf
            else:
                sums = buf.copy()
            sums[:, 0] += run_sum
            np.cumsum(sums, axis=1, out=sums)
            run_sum = sums[:, -1].copy()
            np.add(start, sums, out=sums)
            done, at = _stops(sums, target)
            total[run] = sums[np.arange(a), at]
            done |= hi == max_terms
            lens[run[done]] = lo + 1 + at[done]
            if not in_head:
                for row, r, end, fin in zip(buf, run.tolist(), at.tolist(),
                                            done.tolist()):
                    part = parts.setdefault(r, [head[r]])
                    part.append(row[: end + 1] if fin else row)
                    if fin:
                        longs[r] = np.concatenate(parts.pop(r))
            if done.any():
                keep = ~done
                run, piece, x, start = run[keep], piece[keep], x[keep], start[keep]
                prod, run_sum, cuts = prod[keep], run_sum[keep], None
            lo = hi
        yield pieces, bounds.tolist(), (head, lens, longs), total


def node(params: PQParams, k: int) -> float:
    """Evaluation abscissa p^n [k] / [n+k], always in [0, 1)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return float(_nodes([params], [k + 1])[k])


def weight(params: PQParams, k: int, x: float) -> float:
    """The k-th series weight w_k(x), x in [0, 1): the kernel's weight k of
    the row of x, bit for bit."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    [w] = _weight_rows(params, [x], -math.inf, k + 1)
    return float(w[k])


def evaluate(
    params: PQParams,
    f: Function,
    x: float,
    policy: TruncationPolicy = TruncationPolicy(),
) -> EvalOutcome:
    """Truncated operator value at x with its tail mass and error estimate.

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
    return [EvalOutcome(v, tail, k, e, ok, h)
            for v, e, h in zip(g.values[:, 0].tolist(), g.error_bound[:, 0].tolist(),
                               g.heuristic_bound.tolist())]


# the row statuses of GridValues, indexed by the codes a sweep keeps
_STATUSES = np.array(["ok", "k_max", "underflow", "f_error", "range"])
_ST_OK, _ST_K_MAX, _ST_UNDERFLOW, _ST_F_ERROR, _ST_RANGE = range(len(_STATUSES))


class _Sweep:
    """The state one evaluate_sweep_values call shares across its plans: the
    grid, each f's sup bound once asked for, and the kernel rows taken and
    not yet handed out.

    A plan's kernel rows are its x below 1, in grid order, so plan i is
    kernel rows i * nb .. (i + 1) * nb - 1, nb = len(below).  template holds
    the columns every plan starts from, f(1) and its error at x = 1
    included; kept holds values, tail, terms, flag, status and error, one
    entry per kernel row taken and not yet handed out."""

    def __init__(self, fs: Sequence[Function], xs: np.ndarray,
                 policy: TruncationPolicy) -> None:
        self.fs, self.policy = list(fs), policy
        self.sups: dict[int, tuple[float, bool] | Exception] = {}
        nf, nx = len(self.fs), len(xs)
        in_range = (xs >= 0.0) & (xs <= 1.0)
        self.below = np.flatnonzero(in_range & (xs < 1.0))
        at_one = np.flatnonzero(xs == 1.0)
        # the columns below x = 1 are the kernel's
        self.template = values, tail, terms, flag, code, errors = (
            np.full((nf, nx), math.nan), np.full(nx, math.nan),
            np.zeros(nx, dtype=int), np.zeros(nx, dtype=bool),
            np.where(in_range, _ST_OK, _ST_RANGE), np.full(nx, None))
        self.kept = [column[..., :0].swapaxes(0, -1) for column in self.template]
        if at_one.size:
            # x = 1: f(1) for each f, until one raises
            tail[at_one] = 0.0
            terms[at_one] = 1
            flag[at_one] = True
            for i, f in enumerate(self.fs):
                try:
                    values[i, at_one] = float(f(1.0))
                except Exception as exc:
                    values[:, at_one] = math.nan
                    code[at_one] = _ST_F_ERROR
                    errors[at_one] = exc
                    break

    def sup(self, i: int) -> tuple[float, bool] | Exception:
        """fs[i].sup_bound(), or what it raises, asked for once."""
        if i not in self.sups:
            try:
                self.sups[i] = self.fs[i].sup_bound()
            except Exception as exc:
                self.sups[i] = exc
        return self.sups[i]

    def take(self, pieces, bounds, rows, total) -> list[GridValues]:
        """Keeps the values, tails, terms, flags, statuses and errors of one
        chunk of rows, as _weight_chunks yields it, and hands out the
        GridValues of every plan whose rows are all taken now."""
        fs, nf = self.fs, len(self.fs)
        head, lens, longs = rows
        needs = np.maximum.reduceat(lens, bounds[:-1])
        nodes = _nodes([p[0] for p in pieces], needs)
        row_off = np.repeat(np.cumsum(needs) - needs, np.diff(bounds))
        # fvals[i] holds fs[i] at each piece's node prefix; fail_at[r] is the
        # first f that fails row r (nf for none, -1 for a row with no
        # weights), in the one-x order: for each f its values, then its sup
        # bound; errors[r] is what it raises
        fvals = np.empty((nf, len(nodes)))
        fail_at = np.where(lens > 0, nf, -1)
        errors = np.empty(len(lens), dtype=object)
        for i, f in enumerate(fs):
            live = fail_at == nf
            if not live.any():
                break
            try:
                fvals[i] = f.values(nodes)
            except Exception:
                # f fails on some row's nodes: each live row's own node
                # prefix says whether that x fails alone, and with what
                for r in np.flatnonzero(live).tolist():
                    o, k = row_off[r], lens[r]
                    try:
                        fvals[i, o: o + k] = f.values(nodes[o: o + k])
                    except Exception as exc:
                        fail_at[r], errors[r] = i, exc
                live = fail_at == nf
            if live.any() and isinstance(self.sup(i), Exception):
                fail_at[live], errors[live] = i, self.sup(i)
        values = np.full((len(lens), nf), math.nan)
        # a run is rows a:b that pass every f and share a piece (so a node
        # prefix) and a weight count k in head: one call dots them all, each
        # (f, row) still one BLAS dot over the same k doubles; a lone row or
        # a long one keeps the cheaper one-row call
        ok = fail_at == nf
        cap = head.shape[1]
        joins = (ok[1:] & ok[:-1] & (lens[1:] == lens[:-1])
                 & (row_off[1:] == row_off[:-1]) & (lens[1:] <= cap))
        starts = np.flatnonzero(ok & np.append(True, ~joins))
        ends = np.flatnonzero(ok & np.append(~joins, True)) + 1
        for a, b, o, k in zip(starts.tolist(), ends.tolist(),
                              row_off[starts].tolist(), lens[starts].tolist()):
            if b - a > 1:
                np.vecdot(fvals[:, None, o: o + k], head[a:b, :k], out=values[a:b].T)
            else:
                w = head[a, :k] if k <= cap else longs[a]
                fv = fvals[:, o: o + k]
                # a row of more than 8192 terms dots in blocks of 8192, each
                # one BLAS call below OpenBLAS's threading threshold (about
                # 10 000 terms), and adds the block sums in order: the same
                # doubles at any thread count
                np.vecdot(fv[:, :8192], w[:8192], out=values[a])
                for j in range(8192, k, 8192):
                    values[a] += np.vecdot(fv[:, j: j + 8192], w[j: j + 8192])
        tail = np.maximum(0.0, 1.0 - total)
        flag = tail <= self.policy.tail_tol
        code = np.where(flag, _ST_OK, _ST_K_MAX)
        code[fail_at < nf] = _ST_F_ERROR
        code[fail_at < 0] = _ST_UNDERFLOW
        taken = [values, tail, lens, flag, code, errors]
        if len(self.kept[1]):
            taken = [np.concatenate(pair) for pair in zip(self.kept, taken)]
        self.kept = taken
        done = len(taken[1]) // len(self.below)
        return self.results(done) if done else []

    def results(self, count: int) -> list[GridValues]:
        """The GridValues of the next count plans, from their kernel rows,
        the first count * nb rows kept: each column of all of them is one
        (count, ...) table, filled with one indexed assignment."""
        nb = len(self.below)
        cut = count * nb
        rows = [column[:cut] for column in self.kept]
        self.kept = [column[cut:] for column in self.kept]

        def table(k):
            out = self.template[k][None].repeat(count, axis=0)
            out[..., self.below] = rows[k].reshape(
                count, nb, *rows[k].shape[1:]).swapaxes(1, -1)
            return out

        # the errors' table is made only for a plan that fails on f
        values, tail, terms, flag, code = map(table, range(5))
        # a plan holds the sup bounds asked for once one of its rows has
        # weights
        sups = [self.sups.get(i) for i in range(len(self.fs))]
        sups = [s if isinstance(s, tuple) else (0.0, False) for s in sups]
        ran = (rows[2].reshape(count, nb) > 0).any(axis=1)[:, None]
        bound = np.where(ran, [s[0] for s in sups], 0.0)
        heuristic = ran & np.array([s[1] for s in sups], dtype=bool)
        valued = code <= _ST_K_MAX
        # 0.0 at x = 1, whose tail is 0.0
        error = np.where(valued[:, None, :], bound[:, :, None] * tail[:, None, :],
                         math.nan)
        statuses = _STATUSES[code]
        out = []
        for i, fails in enumerate((~valued.all(axis=1)).tolist()):
            failure = None
            if fails:
                j = int(np.argmin(valued[i]))
                if code[i, j] == _ST_RANGE:
                    exc = ValueError("x must lie in [0, 1]")
                elif code[i, j] == _ST_UNDERFLOW:
                    exc = ValueError(_UNDERFLOW)
                else:
                    exc = table(5)[i, j]
                failure = (j, exc)
            out.append(GridValues(values[i], tail[i], terms[i], flag[i], bound[i],
                                  heuristic[i], error[i], statuses[i], failure))
        return out


def evaluate_sweep_values(
    params_seq: Iterable[PQParams],
    fs: Sequence[Function],
    grid: Sequence[float],
    policy: TruncationPolicy = TruncationPolicy(),
) -> Iterator[GridValues]:
    """The grid columns of several PQParams at once: an iterator of one
    GridValues per element of params_seq, in order.

    Rows (params, x) of every plan go through one row kernel, a chunk at a
    time, and each f is evaluated once per chunk.  Nothing raises for a
    failing row: its status says why it failed, and element i is bit for
    bit evaluate_grid_values(params_seq[i], fs, grid, policy) whenever that
    returns; when that raises, element i's failure holds the index of the
    first failing x and what that call raises.

    params_seq is read only as the kernel fills its chunks, and each element
    comes out once the chunk that holds its plan's last row is done, so a
    caller that stops iterating starts no plan past that chunk.
    """
    xs = np.array([float(x) for x in grid], dtype=float)
    if len(xs) == 0:
        raise ValueError("grid must be nonempty")
    sweep = _Sweep(fs, xs, policy)
    below = xs[sweep.below]
    if not below.size:
        # no kernel rows: each plan is done as soon as it is read
        return (res for _ in params_seq for res in sweep.results(1))
    chunks = _weight_chunks(((params, below, _leading_weights(params, below))
                             for params in params_seq), policy.tail_tol, policy.k_max)
    return itertools.chain.from_iterable(sweep.take(*chunk) for chunk in chunks)


def evaluate_grid_values(
    params: PQParams,
    fs: Sequence[Function],
    grid: Sequence[float],
    policy: TruncationPolicy = TruncationPolicy(),
) -> GridValues:
    """Evaluate several functions at every x of a grid, as columns.

    Every x gets its own weights and truncation, as if evaluated alone; the
    x-free part of the series is built once, and each f is evaluated once
    per chunk of rows, on the nodes of its longest row.  x = 1 is the
    interpolation branch: value f(1), tail 0, one term.  A failure raises
    the error that the first failing x, taken in grid order, raises alone.
    """
    [res] = evaluate_sweep_values([params], fs, grid, policy)
    if res.failure is not None:
        raise res.failure[1]
    return res


def _row_chunks(
    params: PQParams, grid: Sequence[float], tail_tol: float, max_terms: int
):
    """The kernel's chunks (see _weight_chunks) of every x of a grid, in grid
    order; the first failing x raises, before any row runs."""
    xs = np.array([float(x) for x in grid], dtype=float)
    inside = (xs >= 0.0) & (xs < 1.0)
    w0 = np.full(len(xs), math.nan)
    w0[inside] = _leading_weights(params, xs[inside])
    bad = np.flatnonzero(np.isnan(w0))
    if bad.size:
        raise ValueError(_UNDERFLOW if inside[bad[0]] else "x must lie in [0, 1)")
    return _weight_chunks([(params, xs, w0)], tail_tol, max_terms)


def _weight_rows(
    params: PQParams, grid: Sequence[float], tail_tol: float, max_terms: int
) -> list[np.ndarray]:
    """The kernel's weights of every x of a grid, in grid order; the first
    failing x raises."""
    out = []
    for _, _, (head, lens, longs), _ in _row_chunks(params, grid, tail_tol, max_terms):
        cap = head.shape[1]
        out += [head[r, :k] if k <= cap else longs[r]
                for r, k in enumerate(lens.tolist())]
    return out


def normalization_partial_sums(
    params: PQParams, grid: Sequence[float], k_terms: int
) -> list[float]:
    """Sum of the first k_terms weights (indices 0 .. k_terms-1) at every x
    of a grid, in grid order; the first failing x raises."""
    if k_terms < 1:
        raise ValueError("k_terms must be >= 1")
    return [float(np.sum(w)) for w in _weight_rows(params, grid, -math.inf, k_terms)]


def normalization_partial_sum(params: PQParams, x: float, k_terms: int) -> float:
    """Sum of the first k_terms weights (indices 0 .. k_terms-1)."""
    return normalization_partial_sums(params, [x], k_terms)[0]


def normalization_defects(
    params: PQParams,
    grid: Sequence[float],
    policy: TruncationPolicy = TruncationPolicy(),
) -> list[float]:
    """|1 - S_K| at every x of a grid, in grid order, S_K the running sum
    that the kernel stops on under the policy's truncation (the sum whose
    tail evaluate reports); the first failing x raises."""
    return [abs(1.0 - s)
            for *_, total in _row_chunks(params, grid, policy.tail_tol, policy.k_max)
            for s in total.tolist()]

