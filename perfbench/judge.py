"""Independent judge of ``pqmkz`` CLI outputs.

The judge never calls ``pqmkz.engine``.  It parses each op's output and
checks it in two passes:

* a structural pass over every row of every op: exit code, columns, the grid
  abscissae, float identities the CLI must reproduce bit for bit
  (``abs_error = |value - f_x|``, ``density = count / N``, ...), and
  ``f_x`` against the judge's own float implementation of ``f``;
* a sampled pass that recomputes operator values and tails with a
  36-digit ``decimal`` series written from the defining ratio
  ``w_{k+1}/w_k = x [n+k+1] / (p^n [k+1])`` (no code shared with the engine),
  exact-``Fraction`` brackets from ``pqmkz.oracle`` where its caps hold, and
  an O(R) van Herk / Gil-Werman sliding max-min for ``thm33_bound``.

Pass rule for a sampled value (K = printed number of terms)::

    |value - S_K| <= T_K * sup|f| + gamma_m * (sup|f| + sup|f'|) + 2 c_f u

where S_K is the 36-digit K-term sum, T_K the exact tail after K terms,
sup|f| and sup|f'| are proven by interval arithmetic over [0, 1], c_f * u
bounds the rounding of one float evaluation of f, and gamma_m = m u/(1 - m u)
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3-4)
with m counting the rounded operations behind one weight: the n+1 factors of
w_0 (each amplified by 1/(1 - tau^s x) through log1p), the error of log(tau)
(amplified by (|ln p| + |ln q|) / |ln(q/p)|), and eight per ratio of the K-1
ratios, all doubled.  The printed ``tail_mass`` must lie within gamma_m of
T_K.  The printed ``error_bound`` is not trusted: it is heuristic for parsed
f.

A converged row whose exact tail T_K exceeds ``tol`` is the known
certificate defect (the float tail ignores rounding).  It is counted in
``tail_over_tol_rows`` and does not fail the op.  The same defect shows in
``identity``, which re-sums the weights in another order and can print a
defect just above ``tol`` (exit code 1); every such row is recomputed, must
lie within the rounding allowance, and is counted in ``flag_flip_rows``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Callable

import numpy as np
from mpmath import iv

from pqmkz import oracle

U = 2.0 ** -53
PREC = 36
EVAL_COLUMNS = ["x", "value", "f_x", "abs_error", "tail_mass", "terms",
                "error_bound", "converged"]
MOMENT_COLUMNS = ["x", "m0", "m1", "m2", "central2", "l1_lower_slack",
                  "l1_upper_slack", "l2_slack", "tail_mass_max"]
BOUNDS_KEYS = {"schema_version", "empirical_sup_error", "max_truncation_bound",
               "thm33_bound", "omega2_sup", "omega2_ratio", "lipschitz_bound",
               "empirical_within_thm33", "grid_size", "resolution"}
FIGURE2_PAIRS = [("0.9", "0.85"), ("0.95", "0.9"), ("0.999", "0.995")]
FIGURE2_COLUMNS = ["x", "value", "f_x", "abs_error", "tail_mass", "converged"]
# CLI defaults the workloads rely on.
DEFAULT_TOL, DEFAULT_KMAX = 1e-12, 100_000
ORACLE_MAX_K = 24


def gamma(m: float) -> float:
    """Higham's gamma_m = m u / (1 - m u)."""
    mu = m * U
    if mu >= 0.5:
        return math.inf
    return mu / (1.0 - mu)


# ---------------------------------------------------------------- functions

_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _dsin(v: Decimal) -> Decimal:
    with localcontext() as ctx:
        ctx.prec += 10
        two_pi = 2 * _PI
        r = v - (v / two_pi).to_integral_value() * two_pi
        term = total = r
        r2 = r * r
        eps = Decimal(10) ** -(ctx.prec + 2)
        i = 1
        while abs(term) > eps:
            term = -term * r2 / ((2 * i) * (2 * i + 1))
            total += term
            i += 1
    return +total


class _Math:
    """Numeric context a judge function is written against."""

    def __init__(self, c, sin, cos, exp, sqrt):
        self.c, self.sin, self.cos, self.exp, self.sqrt = c, sin, cos, exp, sqrt


DEC = _Math(Decimal, _dsin, lambda v: _dsin(v + _PI / 2), lambda v: v.exp(),
            lambda v: v.sqrt())
FLOAT = _Math(float, math.sin, math.cos, math.exp, math.sqrt)
NP = _Math(float, np.sin, np.cos, np.exp, np.sqrt)
IV = _Math(iv.mpf, iv.sin, iv.cos, iv.exp, iv.sqrt)


@dataclass
class JudgeFn:
    """f on [0, 1], its derivative (or a Lipschitz majorant) and c_f.

    ``c_units`` bounds |fl(f)(t) - f(t)| / u for one float evaluation of the
    CLI's own expression at an exact float t in [0, 1].
    """

    f: Callable
    df: Callable
    c_units: float
    poly: list[Fraction] | None = None
    _proved: tuple[float, float] | None = field(default=None, repr=False)

    def proved(self) -> tuple[float, float]:
        """(sup|f|, sup|f'|) on [0, 1] by interval evaluation on 256 pieces."""
        if self._proved is None:
            sup = lip = 0.0
            pieces = 256
            for i in range(pieces):
                t = iv.mpf([i / pieces, (i + 1) / pieces])
                sup = max(sup, float(abs(iv.mpf(self.f(t, IV))).b))
                lip = max(lip, float(abs(iv.mpf(self.df(t, IV))).b))
            self._proved = (sup * (1 + 4 * U), lip * (1 + 4 * U))
        return self._proved

    def values(self, ts: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.f(ts, NP), dtype=float), ts.shape)


def _exp_neg(t, m):
    return m.exp(m.c(0) - t)


FNS = {
    "one": JudgeFn(lambda t, m: m.c(1), lambda t, m: m.c(0), 0, [Fraction(1)]),
    "identity": JudgeFn(lambda t, m: t, lambda t, m: m.c(1), 0,
                        [Fraction(0), Fraction(1)]),
    "paper_cubic": JudgeFn(
        lambda t, m: (t - m.c(1) / 3) * (t - m.c("0.5")) * (t - m.c("0.75")),
        lambda t, m: 3 * t * t - m.c(19) / 6 * t + m.c(19) / 24,
        8,
        [Fraction(-1, 8), Fraction(19, 24), Fraction(-19, 12), Fraction(1)],
    ),
    "x^2": JudgeFn(lambda t, m: t * t, lambda t, m: 2 * t, 2,
                   [Fraction(0), Fraction(0), Fraction(1)]),
    "sin(40*x)*exp(0-x)": JudgeFn(
        lambda t, m: m.sin(40 * t) * _exp_neg(t, m),
        lambda t, m: (40 * m.cos(40 * t) - m.sin(40 * t)) * _exp_neg(t, m),
        64,
    ),
    "1/(1+x)": JudgeFn(lambda t, m: m.c(1) / (m.c(1) + t),
                       lambda t, m: m.c(1) / ((m.c(1) + t) * (m.c(1) + t)), 4),
    "sqrt(1+x)*cos(3*x)": JudgeFn(
        lambda t, m: m.sqrt(m.c(1) + t) * m.cos(3 * t),
        lambda t, m: (m.cos(3 * t) / (2 * m.sqrt(m.c(1) + t))
                      - 3 * m.sqrt(m.c(1) + t) * m.sin(3 * t)),
        12,
    ),
    # |f'| <= 1 almost everywhere; the constant majorant is the Lipschitz bound.
    "abs(x-0.5)": JudgeFn(lambda t, m: abs(t - m.c("0.5")), lambda t, m: m.c(1), 2),
}
# The moment monomials are evaluated as t*t by the CLI: one rounding.
MOMENT_FNS = [FNS["one"], FNS["identity"],
              JudgeFn(lambda t, m: t * t, lambda t, m: 2 * t, 1,
                      [Fraction(0), Fraction(0), Fraction(1)])]


# ------------------------------------------------------------ the reference

def _series(n, p, q, x, fns, k_end=None, tail_below=None, k_cap=200_000):
    """36-digit partial sums: tails[k] = 1 - sum_{j<k} w_j, sums[i][k] likewise.

    Stops after k_end terms, or once the tail drops below tail_below.
    """
    with localcontext(Context(prec=PREC)):
        P, Q, X = Decimal(p), Decimal(q), Decimal(x)
        one = Decimal(1)
        # [m] p^(1-m) = (1 - tau^m) / (1 - tau), so the ratio is tau-only.
        tau = Q / P
        w = one
        ts = one
        for _ in range(n + 1):
            w *= one - ts * X
            ts *= tau
        tk = one              # tau^k
        tnk = tau ** n        # tau^(n+k)
        total = Decimal(0)
        acc = [Decimal(0)] * len(fns)
        tails = [one]
        sums = [[Decimal(0)] for _ in fns]
        stop = Decimal(tail_below) if tail_below is not None else None
        k = 0
        while True:
            node = (one - tk) / (one - tnk) if k else Decimal(0)
            total += w
            tails.append(one - total)
            for i, g in enumerate(fns):
                acc[i] += w * g.f(node, DEC)
                sums[i].append(acc[i])
            k += 1
            if (k_end is not None and k >= k_end) or k >= k_cap:
                break
            if stop is not None and tails[-1] < stop:
                break
            tk *= tau
            tnk *= tau
            w = w * X * (one - tnk) / (one - tk)
    return tails, sums


def _rounding_units(n: int, p: float, q: float, x: float) -> float:
    """The K-independent part of m (see the module docstring)."""
    lt = abs(math.log(q) - math.log(p))
    amp = (abs(math.log(p)) + abs(math.log(q))) / lt + 1.0
    tau = q / p
    e0 = 0.0
    worst = 0.0
    for s in range(n + 1):
        ys = tau ** s * x
        cond = ys / (1.0 - ys)
        worst = max(worst, cond)
        e0 += 4.0 * cond + 2.0 * abs(math.log1p(-ys)) + 2.0
    e0 += 4.0 * amp * (n + 1) * (1.0 + n * lt * worst)
    return e0


def _m(e0: float, k: int) -> float:
    return 2.0 * (e0 + 8.0 * (k + 1))


# ------------------------------------------------------------------ records

@dataclass
class Point:
    """One grid point whose printed values the sampled pass recomputes."""

    op: int
    where: str
    n: int
    p: float
    q: float
    x: float
    tol: float
    fns: list[JudgeFn]
    values: list[float]
    tail: float
    K: int | None
    converged: bool


@dataclass
class Group:
    """Points checked together; ``emp`` is a bounds sup-error to enclose."""

    points: list[Point]
    emp: float | None = None
    emp_full: bool = False
    force: bool = False


@dataclass
class Verdict:
    errors: list[str] = field(default_factory=list)
    failed_ops: set[int] = field(default_factory=set)
    rows: int = 0
    points_checked: int = 0
    terms: int = 0
    oracle_checks: int = 0
    thm33_checks: int = 0
    tail_over_tol_rows: int = 0
    flag_flip_rows: int = 0
    groups: list[Group] = field(default_factory=list)

    def fail(self, op: int, msg: str) -> None:
        self.failed_ops.add(op)
        if len(self.errors) < 50:
            self.errors.append(f"op {op}: {msg}")


# ------------------------------------------------------------------ parsing

def _opts(argv: list[str]) -> dict[str, str]:
    out = {}
    for i in range(1, len(argv) - 1, 2):
        out[argv[i].lstrip("-")] = argv[i + 1]
    return out


def _grid(spec: str) -> np.ndarray:
    count, lo, hi = spec.split(":")
    count = int(count)
    if count == 1:
        return np.array([float(lo)])
    return np.linspace(float(lo), float(hi), count)


def _bool(s) -> bool:
    if s in ("true", True):
        return True
    if s in ("false", False):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], rows[1:]


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


# ------------------------------------------------------- structural checks

def _fx_tol(g: JudgeFn) -> float:
    sup, _ = g.proved()
    return (2 * g.c_units + 2) * U * max(1.0, sup)


def _eval_rows(v, op, where, records, xs, g, n, p, q, tol, kmax, require_conv):
    """Checks eval-style rows (dicts); returns their Points."""
    if len(records) != len(xs):
        v.fail(op, f"{where}: {len(records)} rows for {len(xs)} grid points")
        return []
    sup, _ = g.proved()
    pts = []
    for r, x in zip(records, xs):
        v.rows += 1
        xv, val, fx = float(r["x"]), float(r["value"]), float(r["f_x"])
        tail, conv = float(r["tail_mass"]), _bool(r["converged"])
        if xv != x:
            v.fail(op, f"{where}: x={xv!r}, grid has {x!r}")
            return []
        if abs(fx - g.f(x, FLOAT)) > _fx_tol(g):
            v.fail(op, f"{where}: f_x={fx!r} at x={x!r}, expected {g.f(x, FLOAT)!r}")
        if not _same(float(r["abs_error"]), abs(val - fx)):
            v.fail(op, f"{where}: abs_error != |value - f_x| at x={x!r}")
        if not (math.isfinite(val) and abs(val) <= sup * (1 + 1e-9) + 1e-9):
            v.fail(op, f"{where}: value {val!r} outside [-sup|f|, sup|f|]")
        if not (0.0 <= tail <= 1.0) or conv != (tail <= tol):
            v.fail(op, f"{where}: tail_mass={tail!r} inconsistent with converged={conv}")
        if require_conv and not conv:
            v.fail(op, f"{where}: not converged at x={x!r} but exit code 0")
        K = None
        if "terms" in r:
            K = int(r["terms"])
            eb = float(r["error_bound"])
            if not (1 <= K <= kmax) or not (eb >= 0.0 and math.isfinite(eb)):
                v.fail(op, f"{where}: terms={K} or error_bound={eb!r} out of range")
                K = None
        pts.append(Point(op, where, n, p, q, x, tol, [g], [val], tail, K, conv))
    return pts


def _records_from_csv(text, columns):
    header, rows = _csv(text)
    if header != columns:
        raise ValueError(f"header {header} != {columns}")
    return [dict(zip(columns, row)) for row in rows]


def _check_eval(v, op, argv, rc, out):
    o = _opts(argv)
    g = FNS[o["fn"]]
    n, p, q = int(o["n"]), float(o["p"]), float(o["q"])
    xs = _grid(o["grid"])
    if o.get("format", "csv") == "csv":
        records = _records_from_csv(out["stdout"], EVAL_COLUMNS)
    else:
        doc = json.loads(out["stdout"])
        if doc.get("schema_version") != 1 or set(doc) != {"schema_version", "results"}:
            raise ValueError("eval JSON envelope")
        records = doc["results"]
        if any(list(r) != EVAL_COLUMNS for r in records):
            raise ValueError("eval JSON keys")
    pts = _eval_rows(v, op, "eval", records, xs, g, n, p, q, DEFAULT_TOL,
                     DEFAULT_KMAX, rc == 0)
    if rc != 0:
        v.fail(op, f"exit code {rc}")
    v.groups.extend(Group([pt]) for pt in pts)


def _check_moments(v, op, argv, rc, out):
    o = _opts(argv)
    n, p, q = int(o["n"]), float(o["p"]), float(o["q"])
    xs = _grid(o["grid"])
    if o.get("format", "csv") == "csv":
        records = _records_from_csv(out["stdout"], MOMENT_COLUMNS)
    else:
        doc = json.loads(out["stdout"])
        if doc.get("schema_version") != 1 or set(doc) != {"schema_version", "rows"}:
            raise ValueError("moments JSON envelope")
        records = doc["rows"]
    if rc != 0:
        v.fail(op, f"exit code {rc}")
    if len(records) != len(xs):
        v.fail(op, f"moments: {len(records)} rows for {len(xs)} grid points")
        return
    tau_scale = _moment_scale(p, q, n)
    amp = (abs(math.log(p)) + abs(math.log(q))) / abs(math.log(q) - math.log(p)) + 1
    for r, x in zip(records, xs):
        v.rows += 1
        vals = {k: float(r[k]) for k in MOMENT_COLUMNS}
        m0, m1, m2, c2 = vals["m0"], vals["m1"], vals["m2"], vals["central2"]
        if vals["x"] != x:
            v.fail(op, f"moments: x={vals['x']!r}, grid has {x!r}")
            return
        if not _same(c2, m2 - 2.0 * x * m1 + x * x * m0):
            v.fail(op, f"moments: central2 at x={x!r}")
        if not _same(vals["l1_lower_slack"], m2 - x * x):
            v.fail(op, f"moments: l1_lower_slack at x={x!r}")
        slack_tol = (16 + 8 * amp) * U * (tau_scale * x + 2.0) + 8 * U
        if abs(vals["l1_upper_slack"] - (tau_scale * x + x * x - m2)) > slack_tol:
            v.fail(op, f"moments: l1_upper_slack at x={x!r}")
        l2 = tau_scale * x + (p - 1.0) * x * x - c2
        if abs(vals["l2_slack"] - l2) > slack_tol:
            v.fail(op, f"moments: l2_slack at x={x!r}")
        tail = vals["tail_mass_max"]
        if not (0.0 <= tail <= DEFAULT_TOL):
            v.fail(op, f"moments: tail_mass_max={tail!r} at x={x!r}")
        v.groups.append(Group([Point(op, "moments", n, p, q, x, DEFAULT_TOL,
                                     MOMENT_FNS, [m0, m1, m2], tail, None, True)]))


def _moment_scale(p, q, n):
    with localcontext(Context(prec=PREC)):
        tau = Decimal(q) / Decimal(p)
        return float((1 - tau) / (1 - tau ** (n + 1)))


def _check_identity(v, op, argv, rc, out):
    o = _opts(argv)
    n, p, q = int(o["n"]), float(o["p"]), float(o["q"])
    xs = _grid(o["grid"])
    records = _records_from_csv(out["stdout"], ["x", "defect", "converged"])
    if len(records) != len(xs):
        v.fail(op, f"identity: {len(records)} rows for {len(xs)} grid points")
        return
    flips = 0
    for r, x in zip(records, xs):
        v.rows += 1
        d, conv = float(r["defect"]), _bool(r["converged"])
        if float(r["x"]) != x or conv != (d <= DEFAULT_TOL) or d < 0:
            v.fail(op, f"identity: row at x={x!r} inconsistent")
            return
        # The defect is re-summed in another order than the stopping rule's
        # running sum, so it can land just above tol.  Such a row must sit
        # within the rounding allowance of tol; the sampled pass checks all of
        # them and counts them in flag_flip_rows.
        flips += not conv
        v.groups.append(Group([Point(op, "identity", n, p, q, x, DEFAULT_TOL,
                                     [], [], d, None, True)], force=not conv))
    if rc != (1 if flips else 0):
        v.fail(op, f"exit code {rc} with {flips} rows above tol")


def _check_bounds(v, op, argv, rc, out):
    o = _opts(argv)
    if o.get("format", "json") == "csv":
        _check_eval(v, op, argv, rc, out)
        return
    g = FNS[o["fn"]]
    n, p, q = int(o["n"]), float(o["p"]), float(o["q"])
    R = int(o["resolution"])
    xs = _grid(o["grid"])
    doc = json.loads(out["stdout"])
    if rc != 0:
        v.fail(op, f"exit code {rc}")
    if set(doc) != BOUNDS_KEYS or doc["schema_version"] != 1:
        raise ValueError("bounds JSON keys")
    v.rows += 1
    emp, t33, trunc = (doc["empirical_sup_error"], doc["thm33_bound"],
                       doc["max_truncation_bound"])
    om2 = doc["omega2_sup"]
    if doc["grid_size"] != len(xs) or doc["resolution"] != R:
        v.fail(op, "bounds: grid_size or resolution")
    if doc["lipschitz_bound"] is not None or not (trunc >= 0.0 and om2 >= 0.0):
        v.fail(op, "bounds: lipschitz_bound, truncation bound or omega2")
    if not _same(doc["omega2_ratio"], emp / om2 if om2 > 0.0 else 0.0):
        v.fail(op, "bounds: omega2_ratio != empirical / omega2")
    if doc["empirical_within_thm33"] != (emp <= t33 + trunc):
        v.fail(op, "bounds: empirical_within_thm33")
    ref, tol33 = thm33_reference(g, n, p, q, R)
    v.thm33_checks += 1
    if abs(t33 - ref) > tol33:
        v.fail(op, f"bounds: thm33_bound={t33!r}, sliding max-min gives {ref!r}")
    pts = [Point(op, "bounds", n, p, q, float(x), DEFAULT_TOL, [g], [math.nan],
                 math.nan, None, True) for x in xs]
    if len(pts) <= 17:
        v.groups.append(Group(pts, emp, True))
    else:
        step = len(pts) // 3
        v.groups.append(Group(pts[::step][:3], emp, False))


def _check_figure(v, op, argv, rc, out):
    o = _opts(argv)
    g = FNS[o["fn"]]
    n = int(o["n"])
    files = out["files"]
    names = [f"figure2_p{p}_q{q}.csv" for p, q in FIGURE2_PAIRS]
    if out["stdout"] or sorted(files) != sorted(names + ["figure2_supgap.csv"]):
        raise ValueError(f"figure 2 files {sorted(files)}")
    if rc != 0:
        v.fail(op, f"exit code {rc}")
    xs = np.linspace(0.0, 0.99, 201)
    gaps = []
    for (ps, qs), name in zip(FIGURE2_PAIRS, names):
        records = _records_from_csv(files[name], FIGURE2_COLUMNS)
        pts = _eval_rows(v, op, name, records, xs, g, n, float(ps), float(qs),
                         DEFAULT_TOL, DEFAULT_KMAX, rc == 0)
        v.groups.extend(Group([pt]) for pt in pts)
        gaps.append(max(float(r["abs_error"]) for r in records))
    header, rows = _csv(files["figure2_supgap.csv"])
    want = [[float(p), float(q), gap] for (p, q), gap in zip(FIGURE2_PAIRS, gaps)]
    if header != ["p", "q", "sup_gap"] or [[float(c) for c in r] for r in rows] != want:
        v.fail(op, "figure2_supgap.csv does not match the per-pair maxima")


def _check_stat(v, op, argv, rc, out):
    o = _opts(argv)
    Ns = [int(s) for s in o["Ns"].split(",")]
    labels = ["1", "t", "t^2", o["fn"]]
    if rc != 0:
        v.fail(op, f"exit code {rc}")
    table = {}
    if o.get("format", "csv") == "csv":
        header, rows = _csv(out["stdout"])
        if header != ["g", "N", "count", "density", "excluded"]:
            raise ValueError("stat CSV header")
        for lab, N, c, d, e in rows:
            table.setdefault(lab, []).append((int(N), int(c), float(d), int(e)))
    else:
        doc = json.loads(out["stdout"])
        scheme = o["scheme"]
        if scheme.startswith("constant:"):
            _, ps, qs = scheme.split(":")
            scheme = f"constant({float(ps)!r},{float(qs)!r})"
        if (doc["schema_version"] != 1 or doc["epsilon"] != float(o["eps"])
                or doc["scheme"] != scheme):
            v.fail(op, "stat JSON envelope")
        for lab, r in doc["reports"].items():
            table[lab] = list(zip(r["Ns"], r["member_counts"], r["densities"],
                                  r["excluded_counts"]))
    if list(table) != labels:
        v.fail(op, f"stat labels {list(table)} != {labels}")
        return
    excluded = None
    for lab, rows in table.items():
        v.rows += len(rows)
        if [r[0] for r in rows] != Ns:
            v.fail(op, f"stat {lab}: Ns")
            continue
        prev_c = prev_e = 0
        for N, c, d, e in rows:
            if d != c / N:
                v.fail(op, f"stat {lab}: density {d!r} != {c}/{N}")
            if not (prev_c <= c and prev_e <= e and c + e <= N):
                v.fail(op, f"stat {lab}: counts at N={N}")
            prev_c, prev_e = c, e
        ex = [r[3] for r in rows]
        if excluded is not None and ex != excluded:
            v.fail(op, f"stat {lab}: excluded counts differ between functions")
        excluded = ex


_CHECKS = {"eval": _check_eval, "moments": _check_moments,
           "identity": _check_identity, "bounds": _check_bounds,
           "figure": _check_figure, "stat": _check_stat}


# -------------------------------------------------------------- thm33 check

def _window_max_min(v: np.ndarray, w: int) -> float:
    """max_i (max v[i:i+w] - min v[i:i+w]): van Herk / Gil-Werman, O(len)."""
    n = len(v)
    w = min(w, n)
    nb = -(-n // w)
    idx = np.arange(n - w + 1)

    def sliding(op, fill):
        a = np.concatenate([v, np.full(nb * w - n, fill)]).reshape(nb, w)
        pre = op.accumulate(a, axis=1).ravel()
        suf = op.accumulate(a[:, ::-1], axis=1)[:, ::-1].ravel()
        return op(suf[idx], pre[idx + w - 1])

    return float(np.max(sliding(np.maximum, -np.inf) - sliding(np.minimum, np.inf)))


def thm33_reference(g: JudgeFn, n: int, p: float, q: float, R: int):
    """(2 * omega(f, delta) on the R-point lattice, tolerance)."""
    delta = math.sqrt(_moment_scale(p, q, n))
    xs = np.linspace(0.0, 1.0, R)
    fv = g.values(xs)
    step = 1.0 / (R - 1)
    dmax = int(math.floor(delta / step + 1e-9))
    best = _window_max_min(fv, dmax + 1) if dmax >= 1 else 0.0
    mask = xs + delta <= 1.0 + 1e-12
    if np.any(mask):
        shifted = np.minimum(xs[mask] + delta, 1.0)
        best = max(best, float(np.max(np.abs(g.values(shifted) - fv[mask]))))
    sup, lip = g.proved()
    amp = (abs(math.log(p)) + abs(math.log(q))) / abs(math.log(q) - math.log(p)) + 1
    tol = 2.0 * ((2 * g.c_units + 4) * U * max(1.0, sup) + lip * (16 + 8 * amp) * U)
    return 2.0 * best, tol


# -------------------------------------------------------------- value check

def _check_group(v: Verdict, grp: Group) -> None:
    gaps = []
    for pt in grp.points:
        gap = _check_point(v, pt)
        if gap is None:
            return
        gaps.append(gap)
    if grp.emp is not None:
        lo = max(a for a, _ in gaps)
        hi = max(b for _, b in gaps)
        if grp.emp < lo or (grp.emp_full and grp.emp > hi):
            v.fail(grp.points[0].op, f"bounds: empirical_sup_error={grp.emp!r} "
                   f"outside [{lo!r}, {hi if grp.emp_full else math.inf!r}]")


def _check_point(v: Verdict, pt: Point):
    """Recomputes one point; returns an enclosure of the printed |value - f_x|."""
    v.points_checked += 1
    tol = pt.tol
    e0 = _rounding_units(pt.n, pt.p, pt.q, pt.x)
    where = f"{pt.where} x={pt.x!r} n={pt.n} p={pt.p!r} q={pt.q!r}"
    if pt.K is not None:
        K = pt.K
        tails, sums = _series(pt.n, pt.p, pt.q, pt.x, pt.fns, k_end=K)
        v.terms += K
        gm = gamma(_m(e0, K))
        T = float(tails[K])
        if abs(pt.tail - T) > gm:
            v.fail(pt.op, f"{where}: tail_mass={pt.tail!r}, exact tail {T!r} "
                   f"(allowance {gm:.3g})")
        if pt.converged and float(tails[K - 1]) < tol - gm:
            v.fail(pt.op, f"{where}: K={K} is later than the first index "
                   "whose tail reaches tol")
        if pt.converged and tails[K] > Decimal(tol):
            v.tail_over_tol_rows += 1
        refs = [(s[K], T, gm) for s in sums]
        _oracle(v, pt, K, gm)
    else:
        tails, sums = _series(pt.n, pt.p, pt.q, pt.x, pt.fns,
                              tail_below=tol * 1e-4)
        end = len(tails) - 1
        v.terms += end
        cands = [k for k in range(1, end + 1)
                 if float(tails[k - 1]) >= tol - gamma(_m(e0, k))
                 and float(tails[k]) <= tol + gamma(_m(e0, k))]
        if not cands:
            v.fail(pt.op, f"{where}: no stopping index is consistent with tol")
            return None
        ka, kb = cands[0], cands[-1]
        gm = gamma(_m(e0, kb))
        t_hi, t_lo = float(tails[ka]), float(tails[kb])
        if math.isnan(pt.tail):
            pass
        elif not (t_lo - gm <= pt.tail <= t_hi + gm):
            v.fail(pt.op, f"{where}: tail {pt.tail!r} outside [{t_lo!r}, {t_hi!r}] "
                   f"+- {gm:.3g}")
        elif pt.tail > tol:
            v.flag_flip_rows += 1
        # |M f - S_end| <= T_end sup|f|, and the engine's K-term sum is within
        # T_K sup|f| <= T_ka sup|f| of M f.
        refs = [(s[end], t_hi + float(tails[end]), gm) for s in sums]
    enclosure = None
    for i, (g, val, (S, T, gm)) in enumerate(zip(pt.fns, pt.values, refs)):
        sup, lip = g.proved()
        allow = T * sup + gm * (sup + lip) + 2 * g.c_units * U
        ref = float(S)
        if not math.isnan(val) and abs(val - ref) > allow:
            v.fail(pt.op, f"{where}: value[{i}]={val!r}, reference {ref!r} "
                   f"(allowance {allow:.3g})")
        if i == 0:
            with localcontext(Context(prec=PREC)):
                fx = g.f(Decimal(pt.x), DEC)
                gap = abs(float(S - fx))
            slack = allow + (2 * g.c_units + 2) * U * max(1.0, sup)
            enclosure = (max(0.0, gap - slack), gap + slack)
    return enclosure if enclosure is not None else (0.0, 0.0)


def _oracle(v: Verdict, pt: Point, K: int, gm: float) -> None:
    """Exact-rational bracket where pqmkz.oracle's caps hold."""
    g = pt.fns[0]
    if (g.poly is None or pt.n > oracle.MAX_N or K - 1 > ORACLE_MAX_K
            or len(g.poly) - 1 > oracle.MAX_DEGREE or v.oracle_checks >= 3):
        return
    v.oracle_checks += 1
    b = oracle.exact_polynomial_bracket(pt.n, Fraction(pt.p), Fraction(pt.q),
                                        Fraction(pt.x), g.poly, K - 1)
    sup, lip = g.proved()
    allow = gm * (sup + lip) + 2 * g.c_units * U
    val = pt.values[0]
    if not (float(b.lower) - allow <= val <= float(b.upper) + allow):
        v.fail(pt.op, f"oracle: value {val!r} outside [{float(b.lower)!r}, "
               f"{float(b.upper)!r}] at x={pt.x!r}")


# -------------------------------------------------------------- entry point

def judge(ops, results, seed: int, term_budget: int = 300_000) -> Verdict:
    """Judges ``results[i] = (rc, output)`` of ``ops[i]`` (argv lists).

    Every op gets the structural pass; groups of points are then drawn in a
    seeded random order and recomputed until ``term_budget`` series terms
    have been spent.
    """
    v = Verdict()
    for i, (argv, (rc, out)) in enumerate(zip(ops, results)):
        if out is None:
            v.fail(i, f"raised: {rc}")
            continue
        try:
            _CHECKS[argv[0]](v, i, argv, rc, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            v.fail(i, f"{argv[0]}: unparseable output ({exc!r})")
    order = list(range(len(v.groups)))
    random.Random(f"judge:{seed}").shuffle(order)
    order.sort(key=lambda gi: not v.groups[gi].force)
    for gi in order:
        grp = v.groups[gi]
        if v.terms >= term_budget and not grp.force:
            break
        if grp.points and grp.points[0].op not in v.failed_ops:
            _check_group(v, grp)
    return v
