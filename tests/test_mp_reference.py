"""The engine against the 30-digit mpmath series at pinned points."""

import math

import pytest

import mp_reference as mr
from pqmkz.cli import resolve_function
from pqmkz.engine import PQParams, _weight_rows, evaluate
from pqmkz.pqcore import PQPair

ctx = mr.ctx

# (n, p, q, x): a row of about 3.9k terms, one of about 30k near x = 1, and
# a row like the 1/(1+x) slot of the benchmark's grid_eval
POINTS = [(10, 1.0, 0.999, 0.99), (10, 0.999, 0.998, 0.999),
          (24, 0.9712, 0.912928, 0.9)]
# f with sup |f| = 1 on [0, 1], as f of an mpf node
FUNCTIONS = {"x^2": lambda t: t * t, "1/(1+x)": lambda t: 1 / (1 + t)}


@pytest.fixture(scope="module", params=POINTS, ids=lambda c: "n{}-p{}-q{}-x{}".format(*c))
def point(request):
    """(params, x, the engine's weights, the reference weights and nodes of
    as many terms)."""
    n, p, q, x = request.param
    params = PQParams(n, PQPair(p, q))
    [w] = _weight_rows(params, [x], 1e-12, 100_000)
    return params, x, w.tolist(), *mr.row(n, p, q, x, len(w))


def test_weights_relative_error(point):
    # measured: at most 5.7e-15, 2.9e-14 and 3.2e-15
    _, _, got, weights, _ = point
    worst = max(abs(ctx.mpf(g) - w) / w for g, w in zip(got, weights))
    assert worst <= 1e-13


def test_weights_at_the_floor():
    # log w_0 is about -504, near _LOG_W0_FLOOR, and the scan's running
    # product w_k / w_0 reaches 1.05e214 unscaled; measured: 1.26e-14
    n, p, q, x = 300, 1.0, 0.998, 0.99999
    [w] = _weight_rows(PQParams(n, PQPair(p, q)), [x], 1e-12, 5000)
    got = w.tolist()
    assert len(got) == 5000 and all(map(math.isfinite, got))
    weights, _ = mr.row(n, p, q, x, len(got))
    worst = max(abs(ctx.mpf(g) - w) / w for g, w in zip(got, weights))
    assert worst <= 1e-13


@pytest.mark.parametrize("spec", FUNCTIONS)
def test_value_within_error_bound(point, spec):
    # the operator's value lies within exact tail * sup |f| of the reference
    # sum over the engine's terms, so this bounds the engine's whole error
    params, x, got, weights, nodes = point
    out = evaluate(params, resolve_function(spec), x)
    assert out.converged and out.terms_used == len(weights)
    f = FUNCTIONS[spec]
    partial = ctx.fsum(w * f(t) for w, t in zip(weights, nodes))
    error = abs(ctx.mpf(out.value) - partial) + mr.exact_tail(weights)
    assert error <= out.error_bound
