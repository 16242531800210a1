"""Seeded workload generator: argv lists for ``pqmkz.cli.main``.

This module never imports pqmkz; the program under test receives only the
argv lists built here.  Each workload is a fixed list of slots.  One cycle
holds every slot once, in an order shuffled by the seed, and the seed only
jitters each slot's parameters inside narrow ranges.  The cost of a cycle is
therefore nearly the same for every seed, while the cycles of a run seldom
repeat an op exactly, so a cache across ops gets no free reuse.

Every range below converges at the parent commit.  Two known defects show
and must stay visible; the judge counts them and does not fail the op: a
converged row whose exact tail exceeds ``tol`` (mostly in ``tail_heavy``),
and an ``identity`` row whose re-summed defect lands just above ``tol``,
which makes that op exit 1.
"""

from __future__ import annotations

import random

# Parsed functions are written without unary minus, which the parser lacks.
POLY_FUNCTIONS = ["paper_cubic", "identity", "one", "x^2"]
SMOOTH_FUNCTIONS = ["sin(40*x)*exp(0-x)", "1/(1+x)", "sqrt(1+x)*cos(3*x)"]
KINKED_FUNCTIONS = ["abs(x-0.5)"]
FUNCTIONS = POLY_FUNCTIONS + SMOOTH_FUNCTIONS + KINKED_FUNCTIONS

# Relative to the checkout root; the worker empties it before each figure op.
FIGURE_DIR = ".bench_out/figure"

WORKLOADS = {
    "grid_eval": "short series on grids of 101-1001 points with x <= 0.9: "
    "per-x overhead (weights, nodes, f, formatting) dominates",
    "tail_heavy": "x in [0.98, 0.999] and q/p in [0.99, 0.999] need 2k-30k "
    "terms per point: per-term arithmetic dominates; shows the 4(a) defect",
    "stat_sweep": "thousands of evaluate_many calls at distinct (n, p, q) "
    "with a few x each, plus scheme construction: little per-plan reuse",
    "bounds_fine": "bounds at resolution 4097-16385 on short grids: the "
    "quadratic modulus loops dominate, the engine does not",
}


def _num(v: float, digits: int = 6) -> str:
    return repr(round(v, digits))


def _pair(rng: random.Random, p_lo: float, p_hi: float, r_lo: float, r_hi: float):
    """(p, q) with q/p drawn from [r_lo, r_hi]; q < p holds after rounding."""
    p = round(rng.uniform(p_lo, p_hi), 4)
    q = round(p * rng.uniform(r_lo, r_hi), 6)
    return _num(p, 4), _num(q)


def _op_args(rng, n_lo, n_hi, r_lo, r_hi, p_lo=0.95, p_hi=1.0):
    p, q = _pair(rng, p_lo, p_hi, r_lo, r_hi)
    return ["--n", str(rng.randint(n_lo, n_hi)), "--p", p, "--q", q]


def _grid(rng, c_lo, c_hi, lo_range=(0.0, 0.0), hi_range=(0.85, 0.9)):
    count = rng.randint(c_lo, c_hi)
    lo = round(rng.uniform(*lo_range), 4)
    hi = round(rng.uniform(*hi_range), 4)
    return f"{count}:{_num(lo, 4)}:{_num(hi, 4)}"


def _eval(fn, fmt, n, r, points):
    def make(rng):
        return (["eval"] + _op_args(rng, *n, *r) + ["--fn", fn,
                "--grid", _grid(rng, *points), "--format", fmt])
    return make


def _moments(fmt, n, r, points):
    def make(rng):
        return (["moments"] + _op_args(rng, *n, *r)
                + ["--grid", _grid(rng, *points), "--format", fmt])
    return make


def _identity(n, r, points):
    def make(rng):
        return ["identity"] + _op_args(rng, *n, *r) + ["--grid", _grid(rng, *points)]
    return make


def _bounds(fn, fmt, n, r, points, res):
    def make(rng):
        return (["bounds"] + _op_args(rng, *n, *r) + ["--fn", fn,
                "--grid", _grid(rng, *points),
                "--resolution", str(rng.randint(*res)), "--format", fmt])
    return make


def _tail_eval(fn, fmt, n, r, points, hi):
    def make(rng):
        args = _op_args(rng, *n, *r, p_lo=0.99, p_hi=1.0)
        grid = _grid(rng, *points, lo_range=(0.98, 0.981), hi_range=hi)
        return ["eval"] + args + ["--fn", fn, "--grid", grid, "--format", fmt]
    return make


def _figure2(fn):
    def make(rng):
        return ["figure", "--id", "2", "--n", str(rng.randint(9, 10)),
                "--fn", fn, "--out", FIGURE_DIR]
    return make


def _stat(scheme_kind, fn, fmt, n_maxes):
    def make(rng):
        if scheme_kind == "paper":
            scheme = "paper"
        elif scheme_kind == "constant":
            p, q = _pair(rng, 0.9, 1.0, 0.88, 0.9)
            scheme = f"constant:{p}:{q}"
        else:
            a = rng.randint(7, 9)
            scheme = f"expr:1-1/(n+{a});1-2/(n+{a})"
        top = rng.randint(*n_maxes)
        Ns = sorted({max(1, top // 4), max(2, top // 2), top})
        return ["stat", "--scheme", scheme, "--fn", fn,
                "--eps", _num(rng.uniform(0.15, 0.25), 3),
                "--Ns", ",".join(str(N) for N in Ns), "--format", fmt]
    return make


# Jitter ranges are narrow so that the cost of a slot, and hence of a cycle,
# hardly depends on the seed; the ranges across slots cover the workload.
SLOTS = {
    "grid_eval": [
        _eval("paper_cubic", "csv", (5, 6), (0.80, 0.82), (101, 111)),
        _eval("x^2", "json", (7, 8), (0.85, 0.87), (191, 211)),
        _eval("identity", "csv", (10, 11), (0.88, 0.90), (281, 301)),
        _eval("sin(40*x)*exp(0-x)", "json", (14, 15), (0.90, 0.92), (371, 391)),
        _eval("abs(x-0.5)", "csv", (19, 20), (0.82, 0.84), (461, 481)),
        _eval("1/(1+x)", "csv", (24, 25), (0.93, 0.95), (551, 571)),
        _eval("sqrt(1+x)*cos(3*x)", "json", (30, 31), (0.86, 0.88), (641, 661)),
        _eval("paper_cubic", "json", (39, 40), (0.95, 0.97), (981, 1001)),
        _moments("csv", (8, 9), (0.84, 0.86), (191, 211)),
        _moments("json", (34, 35), (0.92, 0.94), (371, 391)),
        _identity((27, 28), (0.89, 0.91), (281, 301)),
        _bounds("paper_cubic", "json", (12, 13), (0.87, 0.89), (191, 211), (1025, 1025)),
        _bounds("x^2", "csv", (17, 18), (0.80, 0.82), (101, 111), (1025, 1025)),
    ],
    "tail_heavy": [
        _tail_eval("paper_cubic", "csv", (10, 11), (0.998, 0.999), (9, 11), (0.998, 0.999)),
        _tail_eval("identity", "json", (6, 7), (0.99, 0.992), (17, 19), (0.995, 0.996)),
        _tail_eval("x^2", "csv", (8, 9), (0.994, 0.996), (31, 33), (0.996, 0.997)),
        _tail_eval("paper_cubic", "json", (5, 6), (0.996, 0.998), (13, 15), (0.998, 0.999)),
        _tail_eval("one", "csv", (11, 12), (0.992, 0.994), (23, 25), (0.995, 0.997)),
        _figure2("paper_cubic"),
    ],
    "stat_sweep": [
        _stat("paper", "x^2", "csv", (19, 21)),
        _stat("constant", "abs(x-0.5)", "json", (29, 31)),
        _stat("expr", "1/(1+x)", "csv", (14, 16)),
        _stat("paper", "sin(40*x)*exp(0-x)", "json", (39, 41)),
        _stat("constant", "one", "csv", (9, 11)),
        _stat("expr", "sqrt(1+x)*cos(3*x)", "json", (24, 26)),
        _stat("paper", "paper_cubic", "csv", (98, 102)),
    ],
    "bounds_fine": [
        _bounds("paper_cubic", "json", (30, 31), (0.90, 0.91), (5, 7), (4097, 4197)),
        _bounds("sin(40*x)*exp(0-x)", "json", (25, 26), (0.85, 0.86), (5, 7), (6100, 6250)),
        _bounds("abs(x-0.5)", "json", (35, 36), (0.92, 0.93), (5, 7), (8150, 8350)),
        _bounds("x^2", "json", (38, 39), (0.88, 0.89), (5, 7), (11000, 11250)),
        _bounds("1/(1+x)", "json", (39, 40), (0.95, 0.96), (5, 7), (16000, 16385)),
    ],
}


def cycles(workload: str, seed: int):
    """Endless iterator of cycles; each cycle is a list of argv lists."""
    if workload not in SLOTS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    slots = SLOTS[workload]
    while True:
        cycle = [make(rng) for make in slots]
        rng.shuffle(cycle)
        yield cycle
