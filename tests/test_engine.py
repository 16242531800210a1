import math
from fractions import Fraction as F

import numpy as np
import pytest

from pqmkz.engine import (
    Function,
    PQParams,
    TruncationPolicy,
    _weights_nodes,
    evaluate,
    evaluate_grid,
    evaluate_many,
    node,
    normalization_defect,
    normalization_partial_sum,
    weight,
)
from pqmkz.oracle import exact_polynomial_bracket
from pqmkz.pqcore import PQPair
from pqmkz.presets import IDENTITY, ONE, PAPER_CUBIC, SQUARE
from qmkz_reference import q_mkz

PARAMS = PQParams(3, PQPair(0.95, 0.9))
CLASSICAL3 = PQParams(3, PQPair.classical())


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
        with pytest.raises(ValueError):
            TruncationPolicy(f_sup_bound=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="tail_tol must be"):
            TruncationPolicy(tail_tol=bad)
        with pytest.raises(ValueError, match="f_sup_bound must be"):
            TruncationPolicy(f_sup_bound=bad)


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
        _, nodes, _, _ = _weights_nodes(PARAMS, 0.5, 0.0, 300)
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
    """The weight array of the evaluation kernel against the scalar view."""

    @staticmethod
    def kernel(x, count):
        w, _, _, _ = _weights_nodes(PARAMS, x, 0.0, count)
        assert len(w) == count
        return w

    def test_first_element(self):
        w = self.kernel(0.4, 1)
        assert w[0] == pytest.approx(weight(PARAMS, 0, 0.4), rel=1e-15)

    def test_agrees_with_direct_weight(self):
        w = self.kernel(0.5, 201)
        for k in range(201):
            direct = weight(PARAMS, k, 0.5)
            assert w[k] == pytest.approx(direct, rel=1e-12, abs=1e-300)

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
        outs = evaluate_grid(PARAMS, PAPER_CUBIC, [0.0, 1.0])
        assert outs[0].value == PAPER_CUBIC(0.0)
        assert outs[1].value == PAPER_CUBIC(1.0)

    def test_constant_on_grid(self):
        outs = evaluate_grid(PARAMS, ONE, [0.5])
        assert outs[0].value == pytest.approx(1.0, abs=1e-12)

    def test_first_moment_exact_at_p_one(self):
        params = PQParams(3, PQPair(1.0, 0.9))
        grid = [i / 10 for i in range(11)]
        outs = evaluate_grid(params, IDENTITY, grid)
        for x, out in zip(grid, outs):
            assert out.value == pytest.approx(x, abs=1e-10)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            evaluate_grid(PARAMS, ONE, [])


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
        assert normalization_defect(PARAMS, 0.0) == 0.0

    def test_defect_within_tolerance(self):
        policy = TruncationPolicy(1e-12)
        assert normalization_defect(PARAMS, 0.5, policy) <= 1e-12

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
