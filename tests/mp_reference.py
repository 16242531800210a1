"""The (p,q) Meyer-Konig-Zeller series in mpmath at 30 significant digits,
a judge for the floating engine wherever its rows reach.

Works from the product form with tau = q/p taken from the exact values of
the doubles p and q: log w_0 as an fsum of log(1 - tau^s x), s = 0..n, then
the ratios w_k / w_{k-1} = x (1 - tau^(n+k)) / (1 - tau^k), the nodes
(1 - tau^k) / (1 - tau^(n+k)), and the exact tail 1 - (w_0 + ... + w_{K-1}),
since the weights of a row sum to 1.  The operator's value then lies within
that tail times sup |f| of the sum of w_k f(node_k) over the K terms.
Shares no code with the package.  Precision is set on a context of this
module's own, so callers' mpmath settings do not change.
"""

from __future__ import annotations

from itertools import islice

from mpmath import MPContext

DIGITS = 30

ctx = MPContext()
ctx.dps = DIGITS


def terms(n: int, p: float, q: float, x: float):
    """(w_k, node_k) for k = 0, 1, 2, ... at x in [0, 1) and 0 < q < p <= 1,
    without end."""
    if not 0.0 < q < p <= 1.0:
        raise ValueError("require 0 < q < p <= 1")
    x, tau = ctx.mpf(x), ctx.mpf(q) / ctx.mpf(p)
    w = ctx.exp(ctx.fsum(ctx.log(1 - tau**s * x) for s in range(n + 1)))
    yield w, ctx.zero
    # tau^k and tau^(n+k) of the term before
    low, high = ctx.one, tau**n
    while True:
        low, high = low * tau, high * tau
        w = w * x * (1 - high) / (1 - low)
        yield w, (1 - low) / (1 - high)


def row(n: int, p: float, q: float, x: float, count: int):
    """The weights and the nodes of terms 0 .. count - 1."""
    pairs = list(islice(terms(n, p, q, x), count))
    return [w for w, _ in pairs], [t for _, t in pairs]


def exact_tail(weights):
    """1 - the sum of the given weights: the weight of every later term."""
    return 1 - ctx.fsum(weights)

