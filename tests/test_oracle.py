from fractions import Fraction as F

import pytest

from pqmkz.oracle import (
    MAX_DEGREE,
    MAX_K,
    MAX_N,
    ExactBracket,
    exact_identity_residual,
    exact_node,
    exact_pascal_residuals,
    exact_polynomial_bracket,
    exact_pq_binomial,
    exact_pq_int,
    exact_weight,
    exact_weights,
)


class TestExactWeights:
    def test_k0_at_x0(self):
        assert exact_weight(3, 0, F(9, 10), F(4, 5), F(0)) == 1

    def test_known_value(self):
        # [2]_{1,1/2} * (1/2) * (1/2)(3/4) = (3/2)(1/2)(3/8)
        assert exact_weight(1, 1, F(1), F(1, 2), F(1, 2)) == F(9, 32)

    def test_prefix_sums_strictly_increase(self):
        ws = exact_weights(2, 30, F(19, 20), F(9, 10), F(1, 2))
        total = F(0)
        prev = F(-1)
        for w in ws:
            assert w > 0
            total += w
            assert total > prev
            prev = total
        assert total < 1

    def test_caps_enforced(self):
        with pytest.raises(ValueError):
            exact_weight(MAX_N + 1, 0, F(9, 10), F(4, 5), F(0))
        with pytest.raises(ValueError):
            exact_weight(2, MAX_K + 1, F(9, 10), F(4, 5), F(0))
        with pytest.raises(ValueError):
            exact_weight(2, 1, F(4, 5), F(9, 10), F(0))
        with pytest.raises(ValueError):
            exact_weight(2, 1, F(9, 10), F(4, 5), F(1))


class TestIdentityResidual:
    def test_x0_exact(self):
        assert exact_identity_residual(3, F(9, 10), F(4, 5), F(0), 0) == 0

    def test_small_after_many_terms(self):
        r = exact_identity_residual(3, F(19, 20), F(9, 10), F(1, 2), 60)
        assert 0 <= r < F(1, 10 ** 9)

    def test_monotone_nonincreasing(self):
        prev = None
        for K in range(0, 65, 8):
            r = exact_identity_residual(2, F(9, 10), F(4, 5), F(3, 4), K)
            assert r >= 0
            if prev is not None:
                assert r <= prev
            prev = r


class TestNodes:
    def test_node_zero(self):
        assert exact_node(4, 0, F(9, 10), F(4, 5)) == 0

    def test_strictly_increasing_below_one(self):
        prev = F(-1)
        for k in range(40):
            t = exact_node(3, k, F(19, 20), F(9, 10))
            assert 0 <= t < 1
            assert t > prev
            prev = t


class TestPolynomialBracket:
    def test_constant_brackets_one(self):
        br = exact_polynomial_bracket(2, F(9, 10), F(4, 5), F(1, 2), [F(1)], 30)
        assert br.contains(F(1))
        assert br.upper - br.lower < F(1, 1000)

    def test_identity_at_x0(self):
        br = exact_polynomial_bracket(2, F(9, 10), F(4, 5), F(0), [F(0), F(1)], 5)
        assert br.lower == 0
        assert br.contains(F(0))

    def test_q_case_first_moment(self):
        # at p = 1 the first moment is exactly x
        br = exact_polynomial_bracket(2, F(1), F(9, 10), F(1, 2), [F(0), F(1)], 60)
        assert br.contains(F(1, 2))
        assert br.width() < F(1, 10 ** 8)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            exact_polynomial_bracket(
                2, F(9, 10), F(4, 5), F(1, 2), [F(1)] * (MAX_DEGREE + 2), 10
            )

    def test_empty_bracket_rejected(self):
        with pytest.raises(ValueError):
            ExactBracket(F(1), F(0))


def test_exact_pq_int_matches_sum_form():
    p, q = F(9, 10), F(4, 5)
    for m in range(10):
        assert exact_pq_int(m, p, q) == sum(
            p ** (m - 1 - i) * q ** i for i in range(m)
        )


class TestBinomial:
    def test_symmetry_exact(self):
        p, q = F(19, 20), F(9, 10)
        for n in range(13):
            for k in range(n + 1):
                assert exact_pq_binomial(n, k, p, q) == exact_pq_binomial(
                    n, n - k, p, q
                )


def _exact_expand(n, x, p, q):
    total = F(0)
    for k in range(n + 1):
        total += (
            F(-1) ** k
            * p ** ((n - k) * (n - k - 1) // 2)
            * q ** (k * (k - 1) // 2)
            * exact_pq_binomial(n, k, p, q)
            * x ** k
        )
    return total


def _exact_product(n, x, p, q):
    out = F(1)
    for s in range(n):
        out *= p ** s - q ** s * x
    return out


class TestOneMinusXPower:
    def test_expansion_identity_exact(self):
        p, q = F(9, 10), F(4, 5)
        for n in range(11):
            for x in (F(0), F(1, 4), F(1, 2), F(9, 10)):
                assert _exact_expand(n, x, p, q) == _exact_product(n, x, p, q)


class TestPascal:
    def test_exact_identity(self):
        for p, q in [(F(9, 10), F(4, 5)), (F(1), F(1, 2))]:
            for n in range(2, 13):
                for k in range(1, n):
                    assert exact_pascal_residuals(n, k, p, q) == (F(0), F(0))
