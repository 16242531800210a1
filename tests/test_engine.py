import csv
import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pqmkz
from pqmkz import bounds, engine, moments, pqcore, statistical
from pqmkz.cli import main, resolve_function
from pqmkz.engine import (
    Function,
    PQParams,
    TruncationPolicy,
    _UNDERFLOW,
    _leading_weights,
    _nodes,
    _weight_chunks,
    evaluate,
    evaluate_grid_values,
    evaluate_sweep_values,
    evaluate_many,
    node,
    normalization_defects,
    normalization_partial_sum,
    normalization_partial_sums,
    weight,
)
from pqmkz.oracle import exact_polynomial_bracket, exact_weights
from pqmkz.pqcore import PQPair
from pqmkz.presets import IDENTITY, ONE, PAPER_CUBIC, SQUARE
from qmkz_reference import q_mkz

PARAMS = PQParams(3, PQPair(0.95, 0.9))
CLASSICAL3 = PQParams(3, PQPair.classical())


def kernel_rows(cases, tail_tol, max_terms):
    """(weights, tail, flag) of each row of one _weight_chunks call over
    cases, a list of (params, xs); a row whose leading weight underflows
    holds no weights, and its tail is nan."""
    segments = []
    for params, xs in cases:
        xs = np.asarray(xs, dtype=float)
        segments.append((params, xs, _leading_weights(params, xs)))
    out = []
    for _, _, (head, lens, longs), total in _weight_chunks(
            segments, tail_tol, max_terms):
        for r, (k, t) in enumerate(zip(lens.tolist(), total.tolist())):
            w = head[r, :k] if k <= head.shape[1] else longs[r]
            tail = max(0.0, 1.0 - t) if k else math.nan
            out.append((w, tail, tail <= tail_tol))
    return out


@pytest.mark.parametrize("module", [engine, pqcore], ids=["engine", "pqcore"])
def test_package_exports_every_engine_name(module):
    # every module the package imports from: each export is the module's own
    assert set(module.__all__) <= set(pqmkz.__all__)
    assert all(getattr(pqmkz, name) is getattr(module, name) for name in module.__all__)


@pytest.mark.parametrize(
    "module", [bounds, moments, statistical], ids=["bounds", "moments", "statistical"]
)
def test_every_export_exists(module):
    # a name deleted from a module must leave its __all__ too
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


class TestPQParams:
    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            PQParams(0, PQPair(0.9, 0.8))


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tail_tol=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(k_max=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="tail_tol must be"):
            TruncationPolicy(tail_tol=bad)


class TestFunctionSupBound:
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_sup_hint(self, bad):
        with pytest.raises(ValueError, match="sup_hint must be finite and >= 0"):
            Function(np.sin, "sin", bad)
        with pytest.raises(ValueError, match="sup_hint must be finite and >= 0"):
            dataclasses.replace(ONE, sup_hint=bad)


class TestNode:
    def test_zero(self):
        assert node(PARAMS, 0) == 0.0

    def test_classical(self):
        assert node(PQParams(2, PQPair.classical()), 3) == pytest.approx(0.6)

    def test_rational_case(self):
        # [1]/[2] at (p, q) = (1, 1/2)
        assert node(PQParams(1, PQPair(1.0, 0.5)), 1) == pytest.approx(
            2 / 3, abs=1e-15
        )

    def test_strictly_increasing_to_one(self):
        for n in range(1, 6):
            params = PQParams(n, PQPair(0.95, 0.9))
            prev = -1.0
            for k in range(51):
                t = node(params, k)
                assert 0.0 <= t < 1.0
                assert t > prev or k == 0
                prev = t
            assert node(params, 2000) == pytest.approx(1.0, abs=1e-6)

    def test_matches_kernel_nodes(self):
        [(w, _, _)] = kernel_rows([(PARAMS, [0.5])], 0.0, 300)
        nodes = _nodes([PARAMS], [len(w)])
        for k in range(300):
            assert nodes[k] == node(PARAMS, k)


class TestWeight:
    def test_k0_at_x0(self):
        assert weight(PARAMS, 0, 0.0) == 1.0

    def test_positive_k_at_x0(self):
        assert weight(PARAMS, 2, 0.0) == 0.0

    def test_known_value(self):
        # [2]_{1,1/2} * 0.5 * (1 - 0.5)(1 - 0.25)
        assert weight(PQParams(1, PQPair(1.0, 0.5)), 1, 0.5) == pytest.approx(
            0.28125, abs=1e-15
        )

    def test_rejects_bad_x(self):
        with pytest.raises(ValueError):
            weight(PARAMS, 0, 1.0)
        with pytest.raises(ValueError):
            weight(PARAMS, 0, -0.1)

    def test_nonnegative(self):
        for k in range(40):
            for x in (0.0, 0.3, 0.9, 0.99):
                assert weight(PARAMS, k, x) >= 0.0


class TestWeightStream:
    """The weight array of the evaluation kernel against the exact weights
    and the per-x reference copy."""

    @staticmethod
    def kernel(x, count):
        [(w, _, _)] = kernel_rows([(PARAMS, [x])], 0.0, count)
        assert len(w) == count
        return w

    @staticmethod
    def exact(x, count):
        pq = PARAMS.pq
        return exact_weights(PARAMS.n, count - 1, F(pq.p), F(pq.q), F(x))

    def test_first_element(self):
        w = self.kernel(0.4, 1)
        assert w[0] == pytest.approx(float(self.exact(0.4, 1)[0]), rel=1e-15)
        assert w.tobytes() == ref_weights_nodes(PARAMS, 0.4, 0.0, 1)[0].tobytes()

    def test_agrees_with_direct_weight(self):
        # the defining formula in exact rationals (its first 65 weights),
        # and the per-x reference bit for bit
        w = self.kernel(0.5, 201)
        for k, exact in enumerate(self.exact(0.5, 65)):
            assert w[k] == pytest.approx(float(exact), rel=1e-12)
        assert w.tobytes() == ref_weights_nodes(PARAMS, 0.5, 0.0, 201)[0].tobytes()

    def test_ratio_limit_is_x(self):
        x = 0.6
        w = self.kernel(x, 400)
        assert w[399] / w[398] == pytest.approx(x, rel=1e-10)

    def test_prefix_sums_monotone_to_one(self):
        w = self.kernel(0.5, 300)
        assert np.all(w >= 0.0)
        totals = np.cumsum(w)
        assert np.all(totals <= 1.0 + 1e-12)
        assert totals[-1] == pytest.approx(1.0, abs=1e-12)


class TestEvaluate:
    def test_constant_one(self):
        out = evaluate(PARAMS, ONE, 0.5)
        assert out.converged
        assert out.value == pytest.approx(1.0, abs=1e-12)

    def test_x0_is_single_exact_term(self):
        out = evaluate(PARAMS, PAPER_CUBIC, 0.0)
        assert out.value == PAPER_CUBIC(0.0)
        assert out.terms_used == 1
        assert out.tail_mass == 0.0

    def test_x1_interpolates(self):
        out = evaluate(PARAMS, PAPER_CUBIC, 1.0)
        assert out.value == PAPER_CUBIC(1.0)
        assert out.error_bound == 0.0

    def test_rejects_x_outside(self):
        with pytest.raises(ValueError):
            evaluate(PARAMS, ONE, 1.5)

    def test_nonconvergence_is_flagged(self):
        out = evaluate(PARAMS, ONE, 0.9, TruncationPolicy(1e-12, 10))
        assert not out.converged
        assert out.tail_mass > 1e-12

    def test_positivity(self):
        f = Function(lambda t: t * (1 - t), "bump", 0.25)
        for x in (0.1, 0.5, 0.9):
            assert evaluate(PARAMS, f, x).value >= 0.0

    def test_monotonicity(self):
        # f <= g pointwise implies Mf <= Mg up to truncation budgets
        f, g = SQUARE, IDENTITY
        for x in (0.2, 0.5, 0.8):
            of = evaluate(PARAMS, f, x)
            og = evaluate(PARAMS, g, x)
            slack = 2 * max(of.error_bound, og.error_bound)
            assert of.value <= og.value + slack

    def test_linearity(self):
        alpha, beta = -3.0, 7.5
        combo = Function(
            lambda ts: alpha * SQUARE.values(ts) + beta * PAPER_CUBIC.values(ts),
            "combo",
            10.0,
        )
        for x in (0.1, 0.4, 0.8):
            oc = evaluate(PARAMS, combo, x)
            os_ = evaluate(PARAMS, SQUARE, x)
            op = evaluate(PARAMS, PAPER_CUBIC, x)
            lhs = abs(oc.value - alpha * os_.value - beta * op.value)
            budget = (abs(alpha) + abs(beta) + 1) * max(
                oc.error_bound, os_.error_bound, op.error_bound
            )
            assert lhs <= budget + 1e-13

    def test_heuristic_bound_flagged(self):
        unhinted = Function(lambda ts: np.sin(3 * ts), "sin3")
        out = evaluate(PARAMS, unhinted, 0.5)
        assert out.heuristic_bound
        hinted = evaluate(PARAMS, ONE, 0.5)
        assert not hinted.heuristic_bound

    def test_shared_pass_matches_individual(self):
        outs = evaluate_many(PARAMS, [ONE, IDENTITY, SQUARE], 0.6)
        for f, shared in zip([ONE, IDENTITY, SQUARE], outs):
            alone = evaluate(PARAMS, f, 0.6)
            assert shared.value == pytest.approx(alone.value, abs=1e-15)
            assert shared.tail_mass == alone.tail_mass


class TestEvaluateGrid:
    def test_endpoints(self):
        values = evaluate_grid_values(PARAMS, [PAPER_CUBIC], [0.0, 1.0]).values
        assert values.tolist() == [[PAPER_CUBIC(0.0), PAPER_CUBIC(1.0)]]

    def test_constant_on_grid(self):
        values = evaluate_grid_values(PARAMS, [ONE], [0.5]).values
        assert values[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_first_moment_exact_at_p_one(self):
        params = PQParams(3, PQPair(1.0, 0.9))
        grid = [i / 10 for i in range(11)]
        values = evaluate_grid_values(params, [IDENTITY], grid).values
        assert values[0].tolist() == pytest.approx(grid, abs=1e-10)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            evaluate_grid_values(PARAMS, [ONE], [])


# An independent per-x implementation of the weight kernel, one x at a time:
# the reference that the row kernel must equal bit for bit.


def ref_log_w0(params, x):
    n, pq = params.n, params.pq
    if pq.classical_mode:
        log_w0 = (n + 1) * math.log1p(-x) if x > 0.0 else 0.0
    else:
        s = np.arange(n + 1)
        log_w0 = float(np.sum(np.log1p(-np.exp(s * pq.log_tau) * x)))
    if log_w0 < -650.0:
        raise ValueError("leading weight underflows double precision")
    return log_w0


def ref_ratios(params, x, ks):
    n, pq = params.n, params.pq
    if pq.classical_mode:
        return x * (n + ks) / ks
    lt = pq.log_tau
    return x * np.expm1((n + ks) * lt) / np.expm1(ks * lt)


def ref_nodes(params, count):
    n, pq = params.n, params.pq
    ks = np.arange(count)
    if pq.classical_mode:
        return ks / (n + ks)
    lt = pq.log_tau
    with np.errstate(invalid="ignore"):
        nodes = np.expm1(ks * lt) / np.expm1((n + ks) * lt)
    nodes[0] = 0.0
    return nodes


def ref_weights_nodes(params, x, tail_tol, max_terms):
    """The row of x as one scan: w_k = w_0 * (r_1 * ... * r_k) and S_k = w_0
    + (w_1 + ... + w_k), each taken in order, up to the first k with
    1 - S_k <= tail_tol, or k = max_terms - 1."""
    w0 = math.exp(ref_log_w0(params, x))
    size = 0
    while size < max_terms:
        # a longer scan only appends to a shorter one
        size = min(max(4 * size, 256), max_terms)
        prods = np.cumprod(ref_ratios(params, x, np.arange(1, size)))
        w = np.concatenate([[w0], w0 * prods])
        sums = np.concatenate([[w0], w0 + np.cumsum(w[1:])])
        reached = np.flatnonzero(1.0 - sums <= tail_tol)
        k = int(reached[0]) if reached.size else size
        if k < size:
            break
    k = min(k, size - 1)
    tail = max(0.0, 1.0 - float(sums[k]))
    return w[: k + 1], ref_nodes(params, k + 1), tail, tail <= tail_tol


def ref_rows(params, xs, tail_tol, max_terms):
    """Per-x reference rows up to the first x that underflows."""
    rows = []
    for x in xs:
        try:
            rows.append(ref_weights_nodes(params, x, tail_tol, max_terms))
        except ValueError:
            break
    return rows


REF_DEGREES = [1, 2, 7, 8, 9, 40, 300, "classical"]
REF_RATIOS = [0.5, 0.9, 0.99, 0.9995]
REF_KMAX = [1, 2, 256, 257, 5000]
REF_SIZES = [1, 63, 64, 65, 129]


def ref_cases(degree):
    """(params, tail_tol, k_max, grid in [0, 1)) over the reference ranges;
    every grid holds x = 0 and is shuffled."""
    rng = np.random.default_rng(degree if degree != "classical" else 0)
    ratios = [None] if degree == "classical" else REF_RATIOS
    i = 0
    for ratio in ratios:
        if ratio is None:
            params = PQParams(3, PQPair.classical())
        else:
            p = float(rng.choice([1.0, 0.97]))
            params = PQParams(degree, PQPair(p, p * ratio))
        for tol in (0.0, 1e-8, 1e-12):
            for k_max in REF_KMAX:
                size = REF_SIZES[i % len(REF_SIZES)]
                i += 1
                xs = np.concatenate([[0.0], rng.uniform(0.0, 0.999, size - 1)])
                if size > 2:
                    xs[1] = 0.999
                rng.shuffle(xs)
                yield params, tol, k_max, xs


def assert_outcomes_are_columns(params, fs, grid, policy, cols):
    """evaluate_many at each x of grid is, bit for bit, the column of x in
    cols, the grid's GridValues; its heuristic flags hold only below x = 1."""
    for j, x in enumerate(grid):
        outs = evaluate_many(params, fs, x, policy)
        got = [(o.value, o.error_bound, o.tail_mass) for o in outs]
        want = [(v, e, cols.tail_mass[j]) for v, e in zip(
            cols.values[:, j], cols.error_bound[:, j])]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert [(o.terms_used, o.converged, o.heuristic_bound) for o in outs] == [
            (cols.terms_used[j], cols.converged[j], h and x < 1.0)
            for h in cols.heuristic_bound.tolist()]


class TestRowKernelEqualsPerX:
    """The row kernel and its grid path against the per-x reference copy."""

    @staticmethod
    def assert_rows_are_ref(plans_xs, tol, k_max):
        """One kernel call over (params, xs) pairs: the x whose leading
        weight underflows are those the reference refuses, and hold no
        weights and a nan tail; every other x's weights, tail, flag and
        nodes are the reference's bit for bit."""
        refs = []
        for params, xs in plans_xs:
            w0 = _leading_weights(params, np.asarray(xs, dtype=float))
            for x, v in zip(xs, w0.tolist()):
                [ref] = ref_rows(params, [float(x)], tol, k_max) or [None]
                assert math.isnan(v) == (ref is None)
                refs.append((params, ref))
        rows = kernel_rows(plans_xs, tol, k_max)
        assert len(rows) == len(refs)
        for (w, tail, flag), (params, ref) in zip(rows, refs):
            if ref is None:
                assert len(w) == 0 and math.isnan(tail) and not flag
                continue
            w_ref, nodes_ref, tail_ref, flag_ref = ref
            assert w.tobytes() == w_ref.tobytes()
            assert tail == tail_ref and flag == flag_ref
            assert _nodes([params], [len(w)]).tobytes() == nodes_ref.tobytes()

    @pytest.mark.parametrize("degree", REF_DEGREES)
    def test_weights_tail_flag_bitwise(self, degree):
        for params, tol, k_max, xs in ref_cases(degree):
            self.assert_rows_are_ref([(params, xs)], tol, k_max)

    @pytest.mark.parametrize("tol", [0.0, 1e-8, 1e-12])
    @pytest.mark.parametrize("k_max", REF_KMAX)
    def test_rows_of_several_plans_in_one_call(self, tol, k_max):
        # the cases of every degree with this tol and k_max, their plans'
        # rows side by side in chunks of one kernel call
        plans_xs = [(params, xs)
                    for degree in REF_DEGREES
                    for params, t, k, xs in ref_cases(degree)
                    if (t, k) == (tol, k_max)]
        assert len(plans_xs) > 20
        self.assert_rows_are_ref(plans_xs, tol, k_max)

    @pytest.mark.parametrize("degree", REF_DEGREES)
    def test_grid_values_bitwise(self, degree):
        fs = [ONE, PAPER_CUBIC, resolve_function("sin(40*x)*exp(0-x)")]
        for params, tol, k_max, xs in ref_cases(degree):
            if tol == 0.0:
                continue
            policy = TruncationPolicy(tol, k_max)
            grid = [float(x) for x in xs] + [1.0]
            grid[0], grid[-1] = grid[-1], grid[0]
            ref = ref_rows(params, [x for x in grid if x < 1.0], tol, k_max)
            if len(ref) < len(grid) - 1:
                with pytest.raises(ValueError, match="underflows"):
                    evaluate_grid_values(params, fs, grid, policy)
                continue
            cols = evaluate_grid_values(params, fs, grid, policy)
            assert cols.values.shape == (len(fs), len(grid))
            ref = iter(ref)
            for j, x in enumerate(grid):
                if x == 1.0:
                    assert cols.values[:, j].tolist() == [f(1.0) for f in fs]
                    continue
                w_ref, nodes_ref, tail_ref, flag_ref = next(ref)
                want = [w_ref @ f.values(nodes_ref) for f in fs]
                assert cols.values[:, j].tobytes() == np.array(want).tobytes()
                assert cols.tail_mass[j] == tail_ref
                assert cols.converged[j] == flag_ref
                assert cols.terms_used[j] == len(w_ref)

    @pytest.mark.parametrize("size", [1, 64, 65, 201])
    @pytest.mark.parametrize("k_max", [2, 300, 100_000])
    def test_columns_are_the_outcomes(self, size, k_max):
        # a preset with a hint, a parsed f without one (heuristic bound), and
        # x = 1 at both ends and in the middle of the grid
        fs = [PAPER_CUBIC, resolve_function("x^2+sin(3*x)")]
        grid = np.linspace(0.0, 0.999, size).tolist()
        grid[size // 2] = grid[-1] = 1.0
        for params in (PARAMS, CLASSICAL3, PQParams(40, PQPair(1.0, 0.99))):
            policy = TruncationPolicy(1e-12, k_max)
            cols = evaluate_grid_values(params, fs, grid, policy)
            assert cols.values.shape == cols.error_bound.shape == (2, size)
            below = [x < 1.0 for x in grid]
            assert cols.sup_bound[0] == (0.125 if any(below) else 0.0)
            assert cols.heuristic_bound.tolist() == [False, any(below)]
            at_one = [j for j, x in enumerate(grid) if x == 1.0]
            assert cols.values[:, at_one].tolist() == [
                [f(1.0)] * len(at_one) for f in fs]
            assert cols.error_bound[:, at_one].tolist() == [[0.0] * len(at_one)] * 2
            assert cols.terms_used[at_one].tolist() == [1] * len(at_one)
            assert cols.converged[at_one].all()
            if k_max == 2 and any(below):
                assert not cols.converged.all()
            assert_outcomes_are_columns(params, fs, grid, policy, cols)

    def test_grid_of_only_x_one_asks_no_sup_bound(self):
        def never(ts):
            raise AssertionError("evaluated below x = 1")

        f = Function(lambda ts: never(ts) if np.any(ts < 1.0) else ts, "probe")
        cols = evaluate_grid_values(PARAMS, [f], [1.0, 1.0])
        assert cols.values.tolist() == [[1.0, 1.0]]
        assert cols.sup_bound.tolist() == [0.0]
        assert cols.heuristic_bound.tolist() == [False]

    def test_grid_values_raise_as_grid(self):
        small = PQParams(3, PQPair(0.95, 0.9))
        cases = [
            (small, [ONE, resolve_function("sqrt(0.5-x)")], [0.0, 0.3, 0.9, 1.0]),
            (DEEP, [ONE], [float(x) for x in np.linspace(0.0, 0.9, 70)]),
        ]
        for params, fs, grid in cases:
            got = _outcome(lambda: evaluate_grid_values(params, fs, grid))
            want = _outcome(lambda: expected_grid(params, fs, grid, TruncationPolicy()))
            assert isinstance(got, tuple) and got == want

    @pytest.mark.parametrize("degree", REF_DEGREES)
    def test_weight_and_node_views_bitwise(self, degree):
        for params, _, k_max, xs in ref_cases(degree):
            k = k_max - 1
            assert node(params, k) == ref_nodes(params, k + 1)[k]
            for x in xs[:3]:
                try:
                    w, _, _, _ = ref_weights_nodes(params, float(x), -math.inf, k + 1)
                except ValueError:
                    with pytest.raises(ValueError, match="underflows"):
                        weight(params, k, float(x))
                    continue
                assert weight(params, k, float(x)) == w[k]

    def test_one_point_views_match_grid_rows(self):
        params = PQParams(9, PQPair(0.97, 0.9))
        grid = [0.0, 0.3, 0.9, 1.0]
        policy = TruncationPolicy()
        cols = evaluate_grid_values(params, [ONE, SQUARE], grid, policy)
        assert_outcomes_are_columns(params, [ONE, SQUARE], grid, policy, cols)

    def test_grid_errors_come_from_the_first_failing_x(self):
        params = PQParams(3, PQPair(0.95, 0.9))
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
            evaluate_grid_values(params, [ONE], [0.2, 1.5, 0.3])
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\)"):
            normalization_defects(params, [0.2, 1.0])
        deep = PQParams(300, PQPair(1.0, 0.99999999))
        with pytest.raises(ValueError, match="underflows"):
            evaluate_grid_values(deep, [ONE], [0.0, 0.99, 1.5])
        with pytest.raises(ValueError, match="underflows"):
            normalization_defects(deep, [0.0, 0.99, 1.0])


# A row alone runs passes of 256, 256, 512, 1024, 2048, 4096, 4096, ...
# terms, so with few rows a pass ends after 257, 513, 1025, 2049, 4097, 8193,
# 12289, ... weights; SLOW's rows near x = 1 need up to 20k terms.
SLOW = PQParams(5, PQPair(1.0, 0.999))
SLOW_XS = [0.9, 0.99, 0.995, 0.999]


class TestBlockBatches:
    """Rows run in passes of growing widths and still equal the one-scan
    reference bit for bit."""

    assert_rows_are_ref = staticmethod(TestRowKernelEqualsPerX.assert_rows_are_ref)

    @pytest.mark.parametrize("k_max", [2049, 2050, 4097, 4098])
    def test_k_max_at_and_past_a_batch_end(self, k_max):
        # 2049 and 4097 weights end the passes of 1024 and 2048 terms; one
        # weight more runs a one-term pass
        self.assert_rows_are_ref([(SLOW, SLOW_XS)], 1e-12, k_max)

    @pytest.mark.parametrize("k_max", [3000, 10_077])
    def test_k_max_off_the_block_grid(self, k_max):
        # the last pass is cut at k_max
        self.assert_rows_are_ref([(SLOW, SLOW_XS)], 1e-12, k_max)

    def test_rows_stop_in_different_blocks_of_one_batch(self):
        xs = np.linspace(0.995, 0.999, 24).tolist()
        lens = [len(ref_weights_nodes(SLOW, x, 1e-12, 100_000)[0]) for x in xs]
        # two rows end in different 256-term stretches of the one pass that
        # holds terms 8193..12288
        batch = {(n - 2) // 256 for n in lens if 8193 < n <= 12289}
        assert len(batch) >= 2
        self.assert_rows_are_ref([(SLOW, xs)], 1e-12, 100_000)

    def test_row_of_twenty_thousand_terms(self):
        [(w, _, _, flag)] = ref_rows(SLOW, [0.999], 1e-12, 100_000)
        assert len(w) >= 20_000 and flag
        self.assert_rows_are_ref([(SLOW, [0.999])], 1e-12, 100_000)

    def test_rows_per_chunk_bound_the_batch(self, monkeypatch):
        # with _ROWS = 8, a pass of a rows holds at most 8 * 256 // a terms
        monkeypatch.setattr(engine, "_ROWS", 8)
        passes = self.record_passes(monkeypatch)
        xs = np.linspace(0.99, 0.999, 20).tolist()
        self.assert_rows_are_ref([(SLOW, xs)], 1e-12, 100_000)
        assert all(a * width <= 8 * engine._SPAN for a, width in passes)
        assert {width // engine._SPAN for _, width in passes} >= {1, 2, 4, 8}

    @staticmethod
    def record_passes(monkeypatch):
        # (rows, terms) of every pass
        passes = []
        stops = engine._stops

        def recorded(cums, target):
            passes.append(cums.shape)
            return stops(cums, target)

        monkeypatch.setattr(engine, "_stops", recorded)
        return passes

    def test_pass_schedule_of_one_long_row(self, monkeypatch):
        # a row alone opens with one pass of 256 terms, then each pass holds
        # the terms made so far, at most 4096
        passes = self.record_passes(monkeypatch)
        self.assert_rows_are_ref([(SLOW, [0.999])], 1e-12, 100_000)
        assert [terms for _, terms in passes[:7]] == [
            256, 256, 512, 1024, 2048, 4096, 4096]

    @pytest.mark.parametrize("rows, first", [(64, 256), (65, 32), (512, 32)])
    def test_block_zero_opens_by_the_rows_of_the_chunk(self, monkeypatch, rows,
                                                       first):
        # a chunk opens with one pass of 256 terms while that holds at most
        # 512 * 32 terms; more rows open with 32 terms, then 32, 64 and 128
        passes = self.record_passes(monkeypatch)
        xs = np.linspace(0.9, 0.999, rows).tolist()
        self.assert_rows_are_ref([(SLOW, xs)], 1e-12, 100_000)
        assert passes[0] == (rows, first)
        if first < engine._SPAN:
            assert [terms for _, terms in passes[:4]] == [32, 32, 64, 128]

    @pytest.mark.parametrize("k_max", [32, 33, 64, 65, 96, 97, 128, 129, 224,
                                       225, 256, 257, 258])
    def test_first_block_sub_passes_of_several_plans(self, k_max):
        # the 170 rows open with passes of terms 1-32, 33-64, 65-128 and
        # 129-256, each reading one table of the five plans; k_max ends the
        # rows one term before or at a pass end, or inside a pass, and rows
        # stop throughout terms 1-256
        xs = np.linspace(0.0, 0.99, 34)
        plans_xs = [(params, xs) for params in (
            PARAMS, CLASSICAL3, PQParams(1, PQPair(1.0, 0.5)),
            PQParams(9, PQPair(0.97, 0.9)), PQParams(40, PQPair(1.0, 0.99)))]
        lens = [len(ref_weights_nodes(params, x, 1e-12, 100_000)[0])
                for params, _ in plans_xs for x in xs.tolist()]
        # a row of n weights ends at term n - 1
        sub = np.searchsorted([32, 96, 224, 256], [n - 1 for n in lens if 1 < n <= 257])
        assert set(sub.tolist()) == {0, 1, 2, 3}
        for tol in (1e-8, 1e-12):
            self.assert_rows_are_ref(plans_xs, tol, k_max)


# rows of four plans, from w_0 alone (x = 0) to thousands of terms
SCAN_PLANS = [PARAMS, CLASSICAL3, PQParams(9, PQPair(0.97, 0.9)), SLOW]
SCAN_XS = [0.0, 0.5, 0.9, 0.99]


class TestPassWidths:
    """The pass widths are a pure speed choice: with any first width, span,
    chunk size and width cap, every row is the one-scan reference bit for
    bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 300), st.integers(1, 12),
           st.integers(1, 600), st.sampled_from([1, 2, 40, 300, 3000]),
           st.sampled_from([0.0, 1e-8, 1e-12]))
    def test_rows_equal_the_scan_bitwise(self, first, span, rows, width, k_max, tol):
        with pytest.MonkeyPatch.context() as patch:
            for name, value in (("_FIRST", first), ("_SPAN", span),
                                ("_ROWS", rows), ("_WIDTH", width)):
                patch.setattr(engine, name, value)
            TestRowKernelEqualsPerX.assert_rows_are_ref(
                [(params, SCAN_XS) for params in SCAN_PLANS], tol, k_max)


def stops_by_any(cums, target):
    """The stop rule that reads every column: whether any running sum
    reaches target, and the first that does (else the last index)."""
    reached = cums >= target
    stopped = reached.any(axis=1)
    return stopped, np.where(stopped, reached.argmax(axis=1), cums.shape[1] - 1)


class TestStops:
    """_stops decides by each row's last running sum, which on the kernel's
    nondecreasing rows is the any/argmax rule."""

    @staticmethod
    def assert_is_any_rule(cums, target):
        stopped, at = engine._stops(cums, target)
        ref_stopped, ref_at = stops_by_any(cums, target)
        assert stopped.tolist() == ref_stopped.tolist()
        assert at.tolist() == ref_at.tolist()

    def test_edge_rows(self):
        cums = np.array([
            [0.1, 0.2, 0.3, 0.4],  # never reaches the target
            [0.5, 0.6, 0.7, 0.8],  # reaches it at column 0
            [0.1, 0.2, 0.3, 0.6],  # at the last column
            [0.1, 0.5, 0.5, 0.5],  # ties it exactly, from column 1 on
            [0.1, 0.2, 0.3, 0.5],  # ties it at the last column only
        ])
        stopped, at = engine._stops(cums, 0.5)
        assert stopped.tolist() == [False, True, True, True, True]
        assert at.tolist() == [3, 0, 3, 1, 3]
        for target in (0.5, 0.1, 0.8, 0.0, math.inf):
            self.assert_is_any_rule(cums, target)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 40), st.data())
    def test_cumsums_of_nonnegative_rows(self, rows, cols, data):
        # a row's sums start from w_0 and add nonnegative weights, as in
        # the kernel; the target is drawn freely or as one of the sums
        weights = data.draw(st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows))
        cums = np.cumsum(np.array(weights), axis=1)
        target = data.draw(st.one_of(st.floats(0.0, float(cols)),
                                     st.sampled_from(cums.ravel().tolist())))
        self.assert_is_any_rule(cums, target)


class TestStopRule:
    """A row stops at the first S_k with 1 - S_k <= tail_tol, the test its
    flag reads, also where fl(1 - tail_tol) lies below that sum."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_a_row_that_stops_has_its_tail_within_tol(self, tol):
        params = PQParams(3, PQPair(0.95, 0.9))
        xs = np.array([1e-9, 1e-9, 0.3, 0.9])
        w0 = _leading_weights(params, xs)
        # row 0 starts at fl(1 - tol), whose tail 1 - w_0 is above tol
        w0[0] = 1.0 - tol
        assert 1.0 - w0[0] > tol
        max_terms = 5000
        [(_, _, (_, lens, _), total)] = _weight_chunks(
            [(params, xs, w0)], tol, max_terms)
        tail = np.maximum(0.0, 1.0 - total)
        stopped = lens < max_terms
        assert stopped.all()
        assert (tail[stopped] <= tol).all()
        assert lens[0] > 1


class TestLeadingWeights:
    """_leading_weights sums log w_0 over slices of at most _ROWS *
    _SPAN factors."""

    @pytest.mark.parametrize("rows", [1, 8])
    def test_slices_equal_reference_bitwise(self, monkeypatch, rows):
        # with _ROWS = 1 a slice holds 256 // (n + 1) x, one x from n = 256 on
        monkeypatch.setattr(engine, "_ROWS", rows)
        rng = np.random.default_rng(rows)
        xs = np.concatenate([[0.0], rng.uniform(0.0, 0.999, 200)])
        for n in (1, 7, 300, 2000):
            # q / p = 0.9999 underflows w_0 at some x from n = 300 on
            for pq in (PQPair(1.0, 0.99), PQPair(0.97, 0.5), PQPair(1.0, 0.9999)):
                params = PQParams(n, pq)
                want = []
                for x in xs.tolist():
                    try:
                        want.append(math.exp(ref_log_w0(params, x)))
                    except ValueError:
                        want.append(math.nan)
                got = _leading_weights(params, xs)
                assert got.tobytes() == np.array(want).tobytes()

    def test_temporaries_are_bounded(self):
        # one outer product of 1001 x and 20 001 factors would hold 160 MB
        params = PQParams(20_000, PQPair(1.0, 0.5))
        tracemalloc.start()
        try:
            w0 = _leading_weights(params, np.linspace(0.0, 0.9, 1001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not np.isnan(w0).any()
        assert peak < 16e6


class TestPartialSums:
    """normalization_partial_sums against the per-x reference copy."""

    @pytest.mark.parametrize("size", [1, 64, 65, 201])
    def test_equal_reference_sums_bitwise(self, size):
        rng = np.random.default_rng(size)
        for params in (PARAMS, CLASSICAL3, PQParams(40, PQPair(1.0, 0.99))):
            grid = rng.uniform(0.0, 0.99, size)
            grid[0] = 0.0
            for k in (1, 101, 256, 257, 501):
                sums = normalization_partial_sums(params, grid, k)
                assert sums == [
                    float(np.sum(ref_weights_nodes(params, float(x), -math.inf, k)[0]))
                    for x in grid
                ]
                assert normalization_partial_sum(params, float(grid[-1]), k) == sums[-1]

    def test_figure1_csv_holds_the_sums(self, tmp_path):
        assert main(["figure", "--id", "1", "--out", str(tmp_path)]) == 0
        with (tmp_path / "figure1.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        grid = [float(row["x"]) for row in rows]
        assert grid == [float(x) for x in np.linspace(0.0, 0.99, 201)]
        for column, k in (("s_k100", 101), ("s_k500", 501)):
            want = [
                float(np.sum(ref_weights_nodes(PARAMS, x, -math.inf, k)[0]))
                for x in grid
            ]
            assert [float(row[column]) for row in rows] == want

    def test_sums_hold_exactly_k_weights(self):
        # figure 1's fifth x, where the running sum reaches 1.0 at 12 weights
        x, k = float(np.linspace(0.0, 0.99, 201)[4]), 101
        w = np.array([weight(PARAMS, j, x) for j in range(k)])
        assert np.cumsum(w)[11] >= 1.0
        assert normalization_partial_sum(PARAMS, x, k) == float(np.sum(w))

    def test_rejects(self):
        with pytest.raises(ValueError, match="k_terms"):
            normalization_partial_sums(PARAMS, [0.5], 0)
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\)"):
            normalization_partial_sums(PARAMS, [0.5, 1.0], 5)


DEEP = PQParams(300, PQPair(1.0, 0.99999999))
FAILING_FNS = [
    "one",
    "sqrt(x-0.5)",  # fails at node 0, so at every x < 1
    "sqrt(0.99-x)",  # fails once a row reaches nodes above 0.99
    "1/(x-1)",  # fails at x = 1 only, and on the heuristic sup grid
    "x^2",
]


def _outcome(thunk):
    """The result of thunk(), or the (type, message) of what it raises."""
    try:
        return thunk()
    except Exception as exc:
        return type(exc), str(exc)


def expected_grid(params, fs, grid, policy):
    """evaluate_grid_values computed x by x from the reference weights, as
    one (value, tail, terms, converged) per f for each x: each x in grid
    order, its weights, then for each f its values and its sup bound."""
    out = []
    for x in grid:
        if not 0.0 <= x <= 1.0:
            raise ValueError("x must lie in [0, 1]")
        if x == 1.0:
            out.append([(f(1.0), 0.0, 1, True) for f in fs])
            continue
        try:
            w, nodes, tail, flag = ref_weights_nodes(
                params, x, policy.tail_tol, policy.k_max)
        except ValueError:
            raise ValueError(_UNDERFLOW) from None
        row = []
        for f in fs:
            fv = f.values(nodes)
            if f.sup_hint is None:
                f.values(np.linspace(0.0, 1.0, 1025))
            row.append((float(w @ fv), tail, len(w), flag))
        out.append(row)
    return out


def expected_sums(params, grid, tail_tol, max_terms, running=False):
    """numpy's sum of each row's weights, or with running its S_K = w_0 +
    (w_1 + ... + w_K), each sum taken in order: the sum the row stopped on."""
    out = []
    for x in grid:
        if not 0.0 <= x < 1.0:
            raise ValueError("x must lie in [0, 1)")
        try:
            w = ref_weights_nodes(params, x, tail_tol, max_terms)[0]
        except ValueError:
            raise ValueError(_UNDERFLOW) from None
        if running:
            out.append(float(w[0] + (np.cumsum(w[1:])[-1] if len(w) > 1 else 0.0)))
        else:
            out.append(float(np.sum(w)))
    return out


def failure_cases(count):
    """Seeded (params, fs, policy, grid) cases over the failure kinds: the
    underflow, f failing at node 0, at later nodes and at x = 1, and x = 1.5."""
    rng = np.random.default_rng(7)
    small = PQParams(3, PQPair(0.95, 0.9))
    for i in range(count):
        params = DEEP if i % 3 else small
        names = rng.choice(FAILING_FNS, size=int(rng.integers(1, 3)))
        fs = [resolve_function(str(name)) for name in names]
        if rng.random() < 0.5:
            # as eval --sup-bound 1 does
            fs = [dataclasses.replace(f, sup_hint=1.0) for f in fs]
        policy = TruncationPolicy(1e-8, int(rng.choice([40, 300, 5000])))
        hi = 0.99 if params is small else 0.9
        grid = np.sort(rng.uniform(0.0, hi, int(rng.integers(1, 140))))
        if rng.random() < 0.3:
            rng.shuffle(grid)
        grid = [float(x) for x in grid]
        for special in (1.0, 1.5):
            if rng.random() < 0.3:
                grid.insert(int(rng.integers(0, len(grid) + 1)), special)
        yield params, fs, policy, grid


class TestFailureRule:
    """Grid results, or grid errors, equal those of the first failing x
    computed one x at a time."""

    def test_seeded_grids(self):
        errors = late = 0
        for params, fs, policy, grid in failure_cases(200):
            want = _outcome(lambda: expected_grid(params, fs, grid, policy))
            got = _outcome(lambda: evaluate_grid_values(params, fs, grid, policy))
            if isinstance(want, tuple):
                assert got == want
            else:
                assert got.values.T.tolist() == [[v for v, _, _, _ in r] for r in want]
                assert got.tail_mass.tolist() == [r[0][1] for r in want]
                assert got.terms_used.tolist() == [r[0][2] for r in want]
                assert got.converged.tolist() == [r[0][3] for r in want]
            if isinstance(want, tuple):
                errors += 1
                first = next(
                    i for i, x in enumerate(grid)
                    if isinstance(
                        _outcome(lambda: expected_grid(params, fs, [x], policy)), tuple)
                )
                late += first >= 64
            want = _outcome(lambda: [
                abs(1.0 - s)
                for s in expected_sums(params, grid, policy.tail_tol, policy.k_max,
                                       running=True)
            ])
            assert _outcome(lambda: normalization_defects(params, grid, policy)) == want
            k = policy.k_max
            want = _outcome(lambda: expected_sums(params, grid, -math.inf, k))
            assert _outcome(lambda: normalization_partial_sums(params, grid, k)) == want
        assert errors >= 50 and late >= 10


SWEEP_PARAMS = [PQParams(n, pq) for n in (1, 2, 5, 9, 30)
                for pq in (PQPair(0.95, 0.9), PQPair(1.0, 0.9), PQPair.classical())]
GRID_COLUMNS = [field.name for field in dataclasses.fields(engine.GridValues)
                if field.name != "failure"]


def assert_same_columns(got, want):
    for name in GRID_COLUMNS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def alone_status(params, fs, x, policy):
    """The status of x from the per-x reference: its error, or its flag."""
    out = _outcome(lambda: expected_grid(params, fs, [x], policy))
    if not isinstance(out, tuple):
        return "ok" if out[0][0][3] else "k_max"
    if not 0.0 <= x <= 1.0:
        return "range"
    return "underflow" if out == (ValueError, _UNDERFLOW) else "f_error"


class TestSweep:
    """evaluate_sweep_values: every plan's rows in one kernel call."""

    @pytest.mark.parametrize("rows", [7, 64, None])
    def test_elements_are_grid_values_bitwise(self, monkeypatch, rows):
        # p < 1, p = 1 and the classical pair at five degrees; the kernel
        # rows of the default chunk size fill more than two chunks, and
        # small chunks split plans across chunks
        if rows is not None:
            monkeypatch.setattr(engine, "_ROWS", rows)
        fs = [ONE, PAPER_CUBIC, resolve_function("sin(40*x)*exp(0-x)")]
        grid = np.linspace(0.0, 0.999, 101).tolist() + [1.0]
        grid[50] = 1.0
        below = sum(x < 1.0 for x in grid)
        assert len(SWEEP_PARAMS) * below > 2 * engine._ROWS
        policy = TruncationPolicy(1e-10, 3000)
        sweep = list(evaluate_sweep_values(SWEEP_PARAMS, fs, grid, policy))
        assert len(sweep) == len(SWEEP_PARAMS)
        statuses = set()
        for params, got in zip(SWEEP_PARAMS, sweep):
            assert got.failure is None
            assert_same_columns(got, evaluate_grid_values(params, fs, grid, policy))
            statuses.update(got.status.tolist())
        assert statuses == {"ok", "k_max"}

    def test_empty_sequence_and_grid(self):
        assert list(evaluate_sweep_values([], [ONE], [0.5])) == []
        assert list(evaluate_sweep_values([], [ONE], [1.0])) == []
        with pytest.raises(ValueError, match="grid must be nonempty"):
            evaluate_sweep_values(SWEEP_PARAMS, [ONE], [])

    @pytest.mark.parametrize("rows", [5, None])
    def test_failures_are_data(self, monkeypatch, rows):
        # each element is evaluate_grid_values of its params: the same
        # columns, or, as its failure, the same error at the index of the
        # first x that fails alone; every x's status is that of x alone
        if rows is not None:
            monkeypatch.setattr(engine, "_ROWS", rows)
        failures = 0
        seen = set()
        for i, (params, fs, policy, grid) in enumerate(failure_cases(24)):
            seq = [params, PARAMS, DEEP, CLASSICAL3]
            sweep = list(evaluate_sweep_values(seq, fs, grid, policy))
            for p, got in zip(seq, sweep):
                seen.update(got.status.tolist())
                want = _outcome(lambda: evaluate_grid_values(p, fs, grid, policy))
                if not isinstance(want, tuple):
                    assert got.failure is None
                    assert_same_columns(got, want)
                    continue
                failures += 1
                j, exc = got.failure
                assert (type(exc), str(exc)) == want
                valued = [s in ("ok", "k_max") for s in got.status.tolist()]
                assert j == valued.index(False)
                assert np.isnan(got.values[:, j]).all()
            if i % 4 == 0:
                want = [alone_status(params, fs, x, policy) for x in grid]
                assert sweep[0].status.tolist() == want
        assert failures >= 30
        assert seen == {"ok", "k_max", "underflow", "f_error", "range"}

    @pytest.mark.parametrize("rows", [7, None])
    def test_stop_ends_the_sweep_with_that_element(self, monkeypatch, rows):
        # the elements come in order, each once its rows are done; taking
        # the first 4 gives that prefix of the full sweep.  21 rows per plan
        # fill 3 chunks of 7 exactly, so no plan past the 4th starts; one
        # default chunk holds every plan
        if rows is not None:
            monkeypatch.setattr(engine, "_ROWS", rows)
        fs = [ONE, PAPER_CUBIC]
        grid = np.linspace(0.0, 0.99, 21).tolist()
        policy = TruncationPolicy(1e-10, 3000)
        full = list(evaluate_sweep_values(SWEEP_PARAMS, fs, grid, policy))
        started = []
        leading = engine._leading_weights

        def recorded(params, xs):
            started.append(params)
            return leading(params, xs)

        monkeypatch.setattr(engine, "_leading_weights", recorded)
        part = list(itertools.islice(
            evaluate_sweep_values(SWEEP_PARAMS, fs, grid, policy), 4))
        assert len(part) == 4
        for got, want in zip(part, full):
            assert_same_columns(got, want)
        assert started == SWEEP_PARAMS[: 4 if rows else len(SWEEP_PARAMS)]

    def test_a_generator_is_read_only_as_chunks_fill(self, monkeypatch):
        # 5 rows per plan and _ROWS = 7: after k elements the kernel has
        # done ceil(5 k / 7) chunks, and has read exactly the plans whose
        # first row lies in them
        monkeypatch.setattr(engine, "_ROWS", 7)
        fs = [ONE, PAPER_CUBIC]
        grid = np.linspace(0.0, 0.9, 5).tolist() + [1.0]
        policy = TruncationPolicy(1e-10, 3000)
        full = list(evaluate_sweep_values(SWEEP_PARAMS, fs, grid, policy))
        read = []

        def params_seq():
            for params in SWEEP_PARAMS:
                read.append(params)
                yield params

        sweep = evaluate_sweep_values(params_seq(), fs, grid, policy)
        assert read == []
        for k, want in enumerate(full, 1):
            assert_same_columns(next(sweep), want)
            chunks = -(-5 * k // 7)
            assert read == SWEEP_PARAMS[: -(-chunks * 7 // 5)]
        assert next(sweep, None) is None

    def test_a_plan_of_underflow_rows_between_two(self, monkeypatch):
        # DEEP's w_0 underflows at every x of this grid below 1, so with
        # _ROWS = 5 its 12 kernel rows, between those of two plans that
        # converge, fill a whole chunk of underflow rows; DEEP's element
        # comes in order, with no sup bound
        monkeypatch.setattr(engine, "_ROWS", 5)
        totals = []
        chunks = engine._weight_chunks

        def recorded(*args):
            for chunk in chunks(*args):
                totals.append(chunk[3].copy())
                yield chunk

        monkeypatch.setattr(engine, "_weight_chunks", recorded)
        fs = [ONE, resolve_function("x^2+sin(3*x)")]
        grid = np.linspace(0.9, 0.99, 12).tolist() + [1.0]
        seq = [PARAMS, DEEP, CLASSICAL3]
        policy = TruncationPolicy()
        sweep = list(evaluate_sweep_values(seq, fs, grid, policy))
        assert len(sweep) == 3
        assert any(np.isnan(t).all() for t in totals)
        first, deep, last = sweep
        for params, got in ((PARAMS, first), (CLASSICAL3, last)):
            assert got.failure is None
            assert_same_columns(got, evaluate_grid_values(params, fs, grid, policy))
        with pytest.raises(ValueError, match=_UNDERFLOW) as raised:
            evaluate_grid_values(DEEP, fs, grid, policy)
        j, exc = deep.failure
        assert j == 0 and type(exc) is ValueError and str(exc) == str(raised.value)
        assert deep.status.tolist() == ["underflow"] * 12 + ["ok"]
        assert np.isnan(deep.values[:, :12]).all()
        assert np.isnan(deep.tail_mass[:12]).all()
        assert np.isnan(deep.error_bound[:, :12]).all()
        assert deep.terms_used[:12].tolist() == [0] * 12
        assert not deep.converged[:12].any()
        # x = 1 is the same column in every plan
        for name in ("values", "tail_mass", "terms_used", "converged",
                     "error_bound", "status"):
            column = getattr(deep, name)[..., 12]
            assert column.tobytes() == getattr(first, name)[..., 12].tobytes(), name
        assert deep.sup_bound.tolist() == [0.0, 0.0]
        assert deep.heuristic_bound.tolist() == [False, False]
        assert first.heuristic_bound.tolist() == [False, True]

    @pytest.mark.parametrize("k", [1, 2, 255, 256, 257, 300])
    def test_a_row_fails_once_it_holds_the_first_failing_node(self, k):
        # f fails at node k and past it; nodes increase, so a row of k + 1
        # terms holds node k and a row of k terms does not
        edge = node(PARAMS, k)

        def values(ts):
            if np.any(ts >= edge):
                raise ArithmeticError(f"past node {k}")
            return np.ones_like(ts)

        f = Function(values, "edge", 1.0)
        grid = [0.0, 0.99, 0.995]
        for k_max, status in ((k, "k_max"), (k + 1, "f_error")):
            policy = TruncationPolicy(1e-12, k_max)
            res = next(evaluate_sweep_values([PARAMS, CLASSICAL3], [ONE, f], grid,
                                             policy))
            assert res.status.tolist() == ["ok", status, status]
            assert res.terms_used.tolist() == [1, k_max, k_max]
        assert res.failure[0] == 1
        with pytest.raises(ArithmeticError, match=f"past node {k}$"):
            evaluate_grid_values(PARAMS, [ONE, f], grid, policy)

    def test_underflow_after_a_nonconverged_x(self):
        # n = 380: x index 26 does not converge within k_max, x index 32
        # underflows; the plan's failure is index 32
        params = PQParams(380, PQPair(1.0, 0.999))
        policy = TruncationPolicy(1e-8, 1000)
        grid = np.linspace(0.0, 0.96, 33)
        [res] = evaluate_sweep_values([params], [ONE], grid, policy)
        j, exc = res.failure
        assert j == 32 and str(exc) == _UNDERFLOW
        assert res.status[26] == "k_max" and res.status[32] == "underflow"
        assert not res.converged[:j].all()
        assert res.error_bound[0, 32] != res.error_bound[0, 32]


class TestDotsByRuns:
    """_Sweep.take dots a run of rows (one piece, one weight count in head)
    in one call, and every value is still the double of its own row's
    dot."""

    def test_take_equals_row_by_row_dots(self, monkeypatch):
        # a synthetic chunk, head 12 weights wide.  Piece a (n = 3): a run of
        # 3 rows, a row of 9 weights that fails on f0, a run of 2, and two
        # lone rows; piece b (n = 20) opens with a run of 5-weight rows like
        # a's last row, over other nodes, then two long rows of one length
        # and a lone row
        rng = np.random.default_rng(25)
        params_a, params_b = PARAMS, PQParams(20, PQPair(0.95, 0.9))
        edge = _nodes([params_a], [9])[8]
        assert _nodes([params_b], [15])[-1] < edge

        def past_edge(ts):
            if np.any(ts >= edge):
                raise ArithmeticError("past the edge")
            return 1.0 - 0.5 * ts

        fs = [Function(past_edge, "edge", 1.0),
              Function(lambda ts: ts * ts + 0.25 * ts, "poly", 2.0)]
        lens = np.array([4, 4, 4, 9, 4, 4, 6, 5, 5, 5, 5, 15, 15, 7])
        cap = 12
        head = rng.random((len(lens), cap))
        longs = {r: rng.random(15) for r in (11, 12)}
        # a grid of 14 x below 1, so the chunk's 14 rows complete one plan
        sweep = engine._Sweep(fs, np.linspace(0.0, 0.5, len(lens)), TruncationPolicy())
        pieces = [(params_a, None, None), (params_b, None, None)]
        calls = []
        vecdot = np.vecdot
        with monkeypatch.context() as m:
            m.setattr(np, "vecdot", lambda *a, **k: calls.append(1) or vecdot(*a, **k))
            [res] = sweep.take(pieces, [0, 8, 14], (head, lens, longs),
                               np.ones(len(lens)))
        want = np.full((len(fs), len(lens)), math.nan)
        for r, k in enumerate(lens.tolist()):
            if r == 3:
                continue
            nodes = _nodes([params_a if r < 8 else params_b], [k])
            w = head[r, :k] if k <= cap else longs[r]
            want[:, r] = np.vecdot(np.array([f.values(nodes) for f in fs]), w)
        assert np.array_equal(res.values, want, equal_nan=True)
        assert res.status[3] == "f_error"
        j, exc = res.failure
        assert j == 3 and str(exc) == "past the edge"
        # runs 0:3, 4:6 and 8:11, lone rows 6, 7 and 13, long rows 11 and 12
        assert len(calls) == 8

    def test_a_long_row_dots_in_blocks_of_8192_terms(self):
        # each block one BLAS call, below OpenBLAS's threading threshold,
        # and the block sums added in order; a row of 8192 terms is one dot
        rng = np.random.default_rng(15)
        fs = [Function(np.cos, "cos", 1.0), Function(lambda ts: ts, "x", 1.0)]
        lens = np.array([8192, 20000])
        longs = {r: rng.random(k) for r, k in enumerate(lens.tolist())}
        sweep = engine._Sweep(fs, np.array([0.2, 0.4]), TruncationPolicy())
        [res] = sweep.take([(PARAMS, None, None)], [0, 2],
                           (rng.random((2, 12)), lens, longs), np.ones(2))
        fv = np.array([f.values(_nodes([PARAMS], [20000])) for f in fs])
        assert np.array_equal(res.values[:, 0], np.vecdot(fv[:, :8192], longs[0]))
        blocks = [np.vecdot(fv[:, j: j + 8192], longs[1][j: j + 8192])
                  for j in (0, 8192, 16384)]
        assert np.array_equal(res.values[:, 1], blocks[0] + blocks[1] + blocks[2])


class TestQMKZReduction:
    @pytest.mark.parametrize("q", [0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_matches_reference_at_p_one(self, n, q):
        params = PQParams(n, PQPair(1.0, q))
        for x in [i / 10 for i in range(11)]:
            mine = evaluate(params, PAPER_CUBIC, x, TruncationPolicy(1e-14)).value
            ref = q_mkz(PAPER_CUBIC, n, q, x)
            assert mine == pytest.approx(ref, abs=1e-12)


class TestOracleAgreement:
    def test_value_inside_exact_bracket(self):
        coeffs = [F(1, 4), F(-1), F(3, 2)]
        f = Function(
            lambda t: 0.25 - t + 1.5 * t * t, "poly", float(sum(map(abs, coeffs)))
        )
        for n, p, q, x in [
            (2, F(9, 10), F(4, 5), F(1, 2)),
            (4, F(19, 20), F(9, 10), F(1, 4)),
            (1, F(1), F(1, 2), F(3, 4)),
        ]:
            params = PQParams(n, PQPair(float(p), float(q)))
            out = evaluate(params, f, float(x))
            br = exact_polynomial_bracket(n, p, q, x, coeffs, 60)
            eb = F(out.error_bound) + F(1, 10 ** 10)
            assert br.lower - eb <= F(out.value) <= br.upper + eb


class TestNormalization:
    def test_defect_zero_at_origin(self):
        assert normalization_defects(PARAMS, [0.0]) == [0.0]

    def test_defect_within_tolerance(self):
        policy = TruncationPolicy(1e-12)
        (defect,) = normalization_defects(PARAMS, [0.5], policy)
        assert defect <= 1e-12

    def test_classical_partial_sum_matches_binomial_series(self):
        # brute-force classical series: sum comb(n+k, k) x^k (1-x)^(n+1)
        n, x, K = 3, 0.9, 500
        brute = sum(
            math.comb(n + k, k) * x ** k * (1 - x) ** (n + 1)
            for k in range(K + 1)
        )
        mine = normalization_partial_sum(CLASSICAL3, x, K + 1)
        assert mine == pytest.approx(brute, abs=1e-12)

    def test_partial_sums_increase_with_terms(self):
        s100 = normalization_partial_sum(PARAMS, 0.8, 101)
        s500 = normalization_partial_sum(PARAMS, 0.8, 501)
        assert s100 <= s500 <= 1.0 + 1e-12
