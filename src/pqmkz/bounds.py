"""Moduli of continuity and theoretical error bounds vs empirical sup-error.

Moduli are grid suprema on the lattice of `resolution` points on [0, 1].
Refining the lattice can only increase an estimate when the coarse lattice
lies in the fine one, that is when R - 1 divides R' - 1 (as from 2^m + 1 to
2^(m+1) + 1 points).  Between other resolutions an estimate can fall:
second_modulus(|x - 1/2|, 0.001, R) is 0.001953125 at R = 1025 but
0.00107... at R = 1026.  The step set for a modulus at width delta is every
lattice multiple of the spacing up to delta, plus delta itself; the extra
step makes omega(t -> t, delta) = delta exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .engine import Function, PQParams, TruncationPolicy, evaluate_grid_values
from .moments import delta_n_sq, moment_scale

__all__ = [
    "BoundReport",
    "modulus",
    "second_modulus",
    "sup_error",
    "thm33_bound",
    "lipschitz_bound",
    "bound_report",
]

# the version of the layout of every JSON output, this report's and the CLI's
SCHEMA_VERSION = 1


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
        return {"schema_version": SCHEMA_VERSION,
                **{field.name: getattr(self, field.name)
                   for field in fields(self) if field.name != "converged"}}


def _lattice(f: Function, width: float, resolution: int):
    """Lattice points, f on them, and the largest d with d steps <= width."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    xs = np.linspace(0.0, 1.0, resolution)
    step = 1.0 / (resolution - 1)
    fv = f.values(xs)
    bad = ~np.isfinite(fv)
    if bad.any():
        raise ValueError(
            f"f is {fv[bad][0]!r} at x={xs[bad][0]!r} on the modulus lattice"
        )
    return xs, fv, int(math.floor(width / step + 1e-9))


def _window_extrema(v: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of every window of w consecutive entries of v, in
    O(len(v) log w).

    Doubling: with k a power of two, the max of v[i:i + 2k] is the larger of
    the maxima of v[i:i + k] and v[i + k:i + 2k], so about log2(w)
    elementwise np.maximum passes over shifted views give the max of every
    window of k entries, k the largest power of two up to w.  Window i of w
    entries is the union of the k-windows at i and at i + w - k, so one more
    pass gives its max (the sparse-table range max of Bender &
    Farach-Colton 2000); likewise its min.  A max or min of doubles is one of
    its arguments, so the values are those of any other order.
    """
    hi = lo = v
    k = 1
    while 2 * k <= w:
        hi = np.maximum(hi[:-k], hi[k:])
        lo = np.minimum(lo[:-k], lo[k:])
        k *= 2
    if w > k:
        hi = np.maximum(hi[: k - w], hi[w - k :])
        lo = np.minimum(lo[: k - w], lo[w - k :])
    return hi, lo


def modulus(f: Function, delta: float, resolution: int) -> float:
    """First-order modulus: grid sup of |f(x+h) - f(x)|, 0 < h <= delta.

    Over lattice steps 1..d the sup is the largest max - min over windows of
    d + 1 consecutive lattice values.  A difference too large for a double
    gives inf.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    xs, fv, dmax = _lattice(f, delta, resolution)
    hi, lo = _window_extrema(fv, dmax + 1)
    with np.errstate(over="ignore"):
        best = float(np.max(hi - lo))
    mask = xs + delta <= 1.0 + 1e-12
    if np.any(mask):
        shifted = f.values(np.minimum(xs[mask] + delta, 1.0))
        with np.errstate(over="ignore"):
            best = max(best, float(np.max(np.abs(shifted - fv[mask]))))
    return best


def _up(x):
    """The double after x, elementwise: at least the real value that rounded
    to x."""
    return np.nextafter(x, np.inf)


def _gap_bounds(lower, upper, spans, slope, slack):
    """G = max(m_a, m_c)(1 + 2u) + (c - a) slope + 3 slack for arrays of the
    formed ends' max |c| and of the spans c - a, each operation rounded up."""
    u = 2.0**-53
    with np.errstate(over="ignore"):
        ends = _up(np.maximum(lower, upper) * (1.0 + 2.0 * u))
        return _up(_up(ends + _up(spans * slope)) + _up(3.0 * slack))


def _curvature_bounds(lower, upper, squares, curv, slack):
    """G2 = ((m_a + m_c)(1 + 2u) + (c^2 - a^2) curv) / 2 + 3 slack for arrays
    of the ends' max |c| and of c^2 - a^2, each operation rounded up; where
    the lower end's is inf (it was not formed), the upper end's bound alone,
    m_c (1 + 2u) + (c^2 - a^2) curv + 3 slack."""
    u = 2.0**-53
    alone = np.isinf(lower)
    with np.errstate(over="ignore", invalid="ignore"):
        # the upper end alone is the mean of 2 m_c and twice the squares
        ends = _up(_up(np.where(alone, upper, lower) + upper)
                   * (1.0 + 2.0 * u))
        rise = _up(np.where(alone, 2.0, 1.0) * squares * curv)
        return _up(_up(_up(ends + rise) * 0.5) + _up(3.0 * slack))


def second_modulus(f: Function, step_bound: float, resolution: int) -> float:
    """Second-order modulus: grid sup of |f(x+2h) - 2f(x+h) + f(x)|.

    step_bound is the already-rooted bound on h (the convention that pairs
    with a squared width argument elsewhere); 0 < h <= step_bound, x+2h <= 1.
    Where 2 f overflows on the lattice, the sums run on f/2 and f and are
    doubled at the end, which halving by a power of two makes exact in the
    normal range.  A difference too large for a double gives inf.

    The off-lattice step h = step_bound runs first and seeds the max.  Of
    the lattice steps d = 1..dmax, those with a bound B(d) <= max cannot
    raise it and are never formed.  If B(dmax) > max, the walk forms step
    dmax and starts from the one gap (0, dmax); step 0 has D2_0 g = 0.
    Each formed step keeps its own max |c|, and each gap (a, c) between
    formed steps is tested with two bounds on the steps inside it, G(a, c)
    from the first differences and G2(a, c) from the second.  It skips the
    gap when min(G, G2) <= max or B(c - 1) <= max; otherwise it forms its
    middle step and tests the two halves in the next round.  Every round
    forms its steps one at a time into one row buffer and bounds its gaps
    in one numpy pass.  Each step is formed at most once, and the max is
    the max over every step, bit for bit.  When no gap can be ruled out, as
    with a kink close to x = 1, every step is formed.

    Proof.  Let g and m be the lattice values the sums run on (g = f and
    m = 2 f, or g = f/2 and m = f), and r = m - 2 g: r = 0, or |r| <= rho,
    the smallest subnormal, where f/2 is rounded.  Lattice step d's domain
    is 0 <= x <= R - 1 - 2d on R lattice points.  Step d computes
    c = fl(fl(a - b) + g(x)) with a = g(x + 2d) and b = m(x + d), and its
    exact value is e = D2_d g(x) - r(x + d).  Since
    D2_d g(x) = sum_{i,j<d} D2_1 g(x + i + j) = D_d g(x + d) - D_d g(x),
    |D2_d g| <= min(d^2 M, 2 d L), with M = max |D2_1 g| and L = max |D_1 g|.
    A computed difference w = fl(z) has |z - w| <= u |w|, u = 2^-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, (2.5)).  With
    l = fl(D_1 g) and k = fl(D_1 l), that gives L <= (1 + u) max |l| and
    M <= (1 + u) max |k| + 2u max |l|.  With S the larger of max g - min m
    and max m - min g, |a - b| <= S; if fl(S) is finite, fl(a - b) does not
    overflow and equals (a - b)(1 + t), |t| <= u, so
        |fl(a - b) + g(x)| <= |e| + u S <= min(d^2 M, 2 d L) + rho + u S.
    That is B(d).  It grows with d, and rounding is monotone, so
    B(d) <= max gives |c| <= max at every step up to d.

    Gap lemma.  Take lattice steps d < e and x in d's domain, and let
    t = max(0, x - (R - 1 - 2e)).  Then x - t = min(x, R - 1 - 2e) lies in
    e's domain, 0 <= t <= 2(e - d), and with k = e - d,
        |D2_d g(x) - D2_e g(x - t)|
            <= (|t - 2k| + 2 |t - k| + t) L <= 4 k L,
    since the three points of D2_d g(x) lie |t - 2k|, |t - k| and t lattice
    steps from those of D2_e g(x - t), and the sum is 4k - 2t for t <= k and
    2t for t >= k.  (Without the shift t, D2_e g(x) is not defined on the
    last 2k points of d's domain, and the bound from the larger step says
    nothing there.)  Likewise every x in e's domain lies in d's, and
    |D2_e g(x) - D2_d g(x)| <= 4 k L.  So for a < d < c,
        |D2_d g(x)| <= max(max_y |D2_a g(y)|, max_y |D2_c g(y)|)
                       + 4 min(d - a, c - d) L,
    and 4 min(d - a, c - d) <= 2 (c - a).  A formed step with max |c| = m_s
    has |D2_s g(y)| <= |e| + rho <= (1 + u) m_s + u S + rho at every y,
    since |e| <= |fl(a - b) + g(y)| + u S <= (1 + u) |c| + u S; step 0 has
    D2_0 g = 0.  Adding the rounding of step d itself,
        |fl(a - b) + g(x)| <= (1 + u) max(m_a, m_c) + 2 (c - a) L
                              + 2 (u S + rho) <= G(a, c)
    with G = max(m_a, m_c)(1 + 2u) + (c - a) slope + 3 slack, slope >= 2 L
    and slack >= u S + rho.  So G <= max gives |c| <= max at every step of
    the gap.

    Curvature lemma.  Take lattice steps a < d < c and x in d's domain.
    Each term D2_1 g(x + i + j), i, j < a, of D2_a g(x) is a term of
    D2_d g(x), and x lies in a's domain, so
        |D2_d g(x)| <= |D2_a g(x)| + (d^2 - a^2) M.
    With t as in the gap lemma for the steps d < c, 0 <= t <= 2(c - d), so
    t = t1 + t2 with 0 <= t1, t2 <= c - d.  Then (i, j) -> (i + t1, j + t2)
    maps the terms of D2_d g(x) one to one onto terms of D2_c g(x - t), the
    same points x + i + j, and
        |D2_d g(x)| <= |D2_c g(x - t)| + (c^2 - d^2) M.
    The smaller of the two bounds is at most their mean, and the rounding
    terms are those of G, so
        |fl(a - b) + g(x)| <= (1 + u)(m_a + m_c) / 2 + (c^2 - a^2) M / 2
                              + 2 (u S + rho) <= G2(a, c)
    with G2 = ((m_a + m_c)(1 + 2u) + (c^2 - a^2) curv) / 2 + 3 slack and
    curv >= M.  Where m_a is inf (a was ruled out by B but not formed, or
    its max overflowed), the second bound alone, with d > a, gives
    G2 = m_c (1 + 2u) + (c^2 - a^2) curv + 3 slack.  So min(G, G2) <= max
    gives |c| <= max at every step of the gap.

    Each operation that evaluates B, G or G2 is rounded up by one ulp (_up),
    so the float bounds are at least the real ones.  An overflow makes a
    bound inf, and an inf first difference makes it inf or nan; neither
    ever rules out a step while the max is finite.
    """
    if not (0.0 < step_bound <= 0.5):
        raise ValueError("step bound must lie in (0, 1/2]")
    xs, fv, dmax = _lattice(f, step_bound, resolution)
    n = len(fv)
    with np.errstate(over="ignore"):
        # exact: doubling changes only the exponent; where it overflows, the
        # sums run on f/2 and f, and halving is exact in the normal range
        outer, middle, scale, rho = fv, 2.0 * fv, 1.0, 0.0
        if not np.isfinite(middle).all():
            outer, middle, scale, rho = 0.5 * fv, fv, 2.0, 2.0**-1074
    best = 0.0
    mask = xs + 2.0 * step_bound <= 1.0 + 1e-12
    if np.any(mask):
        x0 = xs[mask]
        f1 = f.values(np.minimum(x0 + step_bound, 1.0))
        f2 = f.values(np.minimum(x0 + 2.0 * step_bound, 1.0))
        # (f2 - 2 f1 + f) / scale; multiplying by 1 is exact, so scale 1
        # runs f2 - 2 f1 + f bit for bit
        inv = 1.0 / scale
        with np.errstate(over="ignore"):
            d2 = inv * f2 - (2.0 * inv) * f1 + outer[mask]
            best = max(best, float(np.max(np.abs(d2))))
    # B(d) = min(d^2 curv, d slope) + slack with curv >= M, slope >= 2 L and
    # slack >= rho + u S, each rounded up; 1 + 2u is a double above 1 + u
    u = 2.0**-53
    with np.errstate(over="ignore", invalid="ignore"):
        unit = np.diff(outer)
        l_max = float(np.max(np.abs(unit), initial=0.0))
        k_max = float(np.max(np.abs(np.diff(unit)), initial=0.0))
        spread = _up(max(float(outer.max()) - float(middle.min()),
                         float(middle.max()) - float(outer.min())))
        curv = _up(_up(k_max * (1.0 + 2.0 * u)) + _up(2.0 * u * l_max))
        slope = _up(2.0 * _up(l_max * (1.0 + 2.0 * u)))
        slack = _up(_up(u * spread) + rho)

        def step_bounds_at(d):
            # B(d); fmin takes d slope where d^2 curv is nan, which a nan
            # curv, from an inf first difference, makes inf anyway
            return _up(np.fmin(_up(_up(d * d) * curv), _up(d * slope)) + slack)

        step_bounds = step_bounds_at(np.arange(1.0, dmax + 1.0))
    # out: steps 1..out have B <= best; peak[d]: the max |c| of step d, 0 for
    # step 0 and inf for a step never formed
    out = np.searchsorted(step_bounds, best, side="right")
    peak = np.full(dmax + 1, math.inf)
    peak[0] = 0.0
    row = np.empty(n)
    # the steps of a round and the gaps (lower, upper) they split
    steps = [dmax] if dmax > out else []
    lower, upper = np.array([0]), np.array([dmax])
    with np.errstate(over="ignore"):
        while steps:
            for d in steps:
                # f(x+2h) - 2 f(x+h) + f(x) in that order
                c = row[: n - 2 * d]
                np.subtract(outer[2 * d:], middle[d:-d], out=c)
                np.add(c, outer[: -2 * d], out=c)
                # Python floats: best * scale must not warn on overflow
                top = max(float(c.max()), -float(c.min()))
                peak[d], best = top, max(best, top)
            out = np.searchsorted(step_bounds, best, side="right")
            # a lower end that was ruled out, not formed, is inf: G is inf
            # and G2 takes the upper end alone
            m_a, m_c = peak[lower], peak[upper]
            squares = (upper * upper - lower * lower).astype(float)
            bound = np.fmin(_gap_bounds(m_a, m_c, upper - lower, slope, slack),
                            _curvature_bounds(m_a, m_c, squares, curv, slack))
            lower = np.maximum(lower, out)
            keep = (upper - lower >= 2) & ~(bound <= best)
            lower, upper = lower[keep], upper[keep]
            mid = (lower + upper) // 2
            steps = mid.tolist()
            lower, upper = np.concatenate([mid, lower]), np.concatenate([upper, mid])
    return best * scale


def sup_error(
    params: PQParams,
    f: Function,
    grid: Sequence[float],
    policy: TruncationPolicy = TruncationPolicy(),
) -> tuple[float, float, bool]:
    """(max |M f - f| over the grid, max truncation error bound, all converged)."""
    res = evaluate_grid_values(params, [f], grid, policy)
    gap = np.abs(res.values[0] - f.values(np.array(grid, dtype=float)))
    # fmax from 0, like a running max(), passes over nan
    return (
        float(np.fmax.reduce(gap, initial=0.0)),
        float(np.fmax.reduce(res.error_bound[0], initial=0.0)),
        bool(res.converged.all()),
    )


def decay_width(params: PQParams) -> float:
    """sqrt(p^n / [n+1]), the uniform width fed to the modulus bound."""
    return math.sqrt(moment_scale(params))


def thm33_bound(params: PQParams, f: Function, resolution: int) -> float:
    """2 * omega(f, sqrt(p^n / [n+1])): uniform modulus error bound."""
    return 2.0 * modulus(f, decay_width(params), resolution)


def _check_lipschitz_class(M: float, alpha: float) -> None:
    if not (0.0 < M < math.inf):
        raise ValueError("M must be positive and finite")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")


def lipschitz_bound(
    params: PQParams, M: float, alpha: float, x: float
) -> float:
    """M * delta_n(x)^alpha for a Lipschitz-class function.

    Raises when the pointwise width squared is negative (possible for p < 1),
    in which case no bound is available.
    """
    _check_lipschitz_class(M, alpha)
    d2 = delta_n_sq(params, x)
    if d2 < 0.0:
        raise ValueError(
            f"pointwise width squared is negative ({d2}) at x={x}; no bound"
        )
    return M * d2 ** (alpha / 2.0)


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} is {value!r}: the moduli of f overflow")
    return value


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
    in the class is not detected, but M must be positive and finite and
    alpha in (0, 1].  The Lipschitz entry is the grid maximum of the
    pointwise bound, or None when the width goes negative anywhere.  A bound
    that overflows, or an f that is not finite on the lattice, raises
    ValueError.
    """
    if lipschitz is not None:
        _check_lipschitz_class(*lipschitz)
    empirical, trunc, converged = sup_error(params, f, grid, policy)
    t33 = _finite("thm33_bound", thm33_bound(params, f, resolution))

    widths = [delta_n_sq(params, float(x)) for x in grid]
    positive = [w for w in widths if w > 0.0]
    if positive:
        w_max = min(math.sqrt(max(positive)), 0.5)
        omega2 = _finite("omega2_sup", second_modulus(f, w_max, resolution))
    else:
        omega2 = 0.0
    ratio = empirical / omega2 if omega2 > 0.0 else 0.0

    lip = None
    if lipschitz is not None and min(widths) >= 0.0:
        M, alpha = lipschitz
        lip = max(lipschitz_bound(params, M, alpha, float(x)) for x in grid)

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
