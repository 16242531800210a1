import math

import numpy as np
import pytest

from pqmkz.bounds import (
    ModulusKind,
    bound_report,
    decay_width,
    lipschitz_bound,
    modulus,
    second_modulus,
    sup_error,
    thm33_bound,
)
from pqmkz.engine import Function, PQParams, TruncationPolicy
from pqmkz.pqcore import PQPair
from pqmkz.presets import ABS_HALF, IDENTITY, ONE, PAPER_CUBIC, SQUARE

Q_CASE = PQParams(3, PQPair(1.0, 0.9))


def brute_force_modulus(f, delta, resolution):
    """O(res^2) enumeration over the same pair set as modulus()."""
    xs = np.linspace(0.0, 1.0, resolution)
    step = 1.0 / (resolution - 1)
    hs = [d * step for d in range(1, int(math.floor(delta / step + 1e-9)) + 1)]
    hs.append(delta)
    best = 0.0
    for x in xs:
        for h in hs:
            if x + h <= 1.0 + 1e-12:
                best = max(best, abs(f(min(x + h, 1.0)) - f(x)))
    return best


def all_pairs_modulus(f, delta, resolution):
    """max |f(t) - f(x)| over every lattice pair with 0 < t - x <= delta and
    over the off-lattice pairs (x, x + delta); O(resolution^2) memory."""
    xs = np.linspace(0.0, 1.0, resolution)
    fv = np.array([f(float(x)) for x in xs])
    i, j = np.triu_indices(resolution, k=1)
    near = j - i <= delta * (resolution - 1) * (1.0 + 1e-12)
    best = float(np.max(np.abs(fv[j[near]] - fv[i[near]]), initial=0.0))
    for x, fx in zip(xs, fv):
        if x + delta <= 1.0 + 1e-12:
            best = max(best, abs(f(min(x + delta, 1.0)) - fx))
    return best


class TestModulusAllPairs:
    def test_agrees_with_all_pairs(self):
        for f in (IDENTITY, PAPER_CUBIC, SQUARE, ABS_HALF):
            for delta in (1 / 16, 1 / 8, 1 / 4, 0.3):
                assert modulus(f, delta, 513).value == all_pairs_modulus(
                    f, delta, 513
                )

    def test_identity_gives_delta(self):
        got = modulus(IDENTITY, 0.15, 1025).value
        assert got == all_pairs_modulus(IDENTITY, 0.15, 1025)
        assert got == pytest.approx(0.15, abs=1e-14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            modulus(IDENTITY, 0.0, 257)
        with pytest.raises(ValueError):
            modulus(IDENTITY, 0.1, 1)


class TestModulus:
    def test_constant_is_zero(self):
        assert modulus(ONE, 0.3, 257).value == 0.0

    def test_identity_attains_delta(self):
        est = modulus(IDENTITY, 0.1, 1025)
        assert est.value == pytest.approx(0.1, abs=1e-15)
        assert est.kind is ModulusKind.FIRST_ORDER

    def test_square_matches_brute_force(self):
        expected = brute_force_modulus(SQUARE, 0.2, 257)
        assert modulus(SQUARE, 0.2, 257).value == pytest.approx(
            expected, abs=1e-14
        )
        # analytic sup 2*delta - delta^2 = 0.36 is approached from below
        fine = modulus(SQUARE, 0.2, 2049).value
        assert 0.36 - 2e-3 <= fine <= 0.36 + 1e-12

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            modulus(ONE, 0.0, 257)
        with pytest.raises(ValueError):
            modulus(ONE, 1.5, 257)
        with pytest.raises(ValueError):
            modulus(ONE, 0.5, 1)

    def test_monotone_in_delta(self):
        deltas = [1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2]
        vals = [modulus(PAPER_CUBIC, d, 513).value for d in deltas]
        assert vals == sorted(vals)

    def test_monotone_under_refinement(self):
        for f in (PAPER_CUBIC, ABS_HALF):
            v = [modulus(f, 0.3, 2 ** m + 1).value for m in (7, 8, 9, 10)]
            for a, b in zip(v, v[1:]):
                assert a <= b + 1e-15

    def test_subadditive_on_lattice(self):
        for d1, d2 in [(1 / 8, 1 / 8), (1 / 16, 1 / 8), (1 / 4, 1 / 4)]:
            lhs = modulus(PAPER_CUBIC, d1 + d2, 513).value
            rhs = (
                modulus(PAPER_CUBIC, d1, 513).value
                + modulus(PAPER_CUBIC, d2, 513).value
            )
            assert lhs <= rhs + 1e-12


class TestSecondModulus:
    def test_affine_vanishes(self):
        affine = Function(lambda ts: 3 * ts - 1, "affine", 2.0)
        assert second_modulus(affine, 0.2, 513).value <= 1e-14

    def test_constant_vanishes(self):
        assert second_modulus(ONE, 0.1, 257).value == 0.0

    def test_square_second_difference(self):
        # second difference of t^2 is exactly 2 h^2, maximized at h = bound
        h0 = 0.2
        assert second_modulus(SQUARE, h0, 513).value == pytest.approx(
            2 * h0 * h0, abs=1e-13
        )

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            second_modulus(ONE, 0.0, 257)
        with pytest.raises(ValueError):
            second_modulus(ONE, 0.6, 257)


class TestSupError:
    def test_constant_error_is_tail_only(self):
        err, bound, converged = sup_error(
            Q_CASE, ONE, [0.0, 0.3, 0.7], TruncationPolicy(1e-12)
        )
        assert converged
        assert err <= 1e-12
        assert bound <= 1e-12

    def test_identity_at_p_one(self):
        err, bound, converged = sup_error(
            Q_CASE, IDENTITY, [i / 10 for i in range(10)]
        )
        assert converged
        assert err <= bound + 1e-10

    def test_cubic_improves_as_parameters_approach_one(self):
        grid = [i / 50 * 0.98 for i in range(51)]
        far = sup_error(PQParams(6, PQPair(0.98, 0.95)), PAPER_CUBIC, grid)[0]
        near = sup_error(PQParams(6, PQPair(0.999, 0.998)), PAPER_CUBIC, grid)[0]
        assert near < far

    def test_reports_nonconvergence(self):
        policy = TruncationPolicy(1e-12, 5)
        params = PQParams(3, PQPair(0.95, 0.9))
        _, _, converged = sup_error(params, ONE, [0.0, 0.45, 0.9], policy)
        assert not converged


class TestThm33Bound:
    def test_identity_value(self):
        # 2 * sqrt(1 / [4]_{1,0.9}) with [4] = 3.439
        assert thm33_bound(Q_CASE, IDENTITY, 1025) == pytest.approx(
            2 * math.sqrt(1 / 3.439), abs=1e-13
        )

    def test_constant_gives_zero(self):
        assert thm33_bound(Q_CASE, ONE, 257) == 0.0

    def test_decreasing_in_degree_for_identity(self):
        vals = [
            thm33_bound(PQParams(n, PQPair(1.0, 0.9)), IDENTITY, 1025)
            for n in range(1, 31)
        ]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-15

    def test_lipschitz_one_function_hits_closed_form(self):
        for n in (2, 5, 9):
            params = PQParams(n, PQPair(1.0, 0.9))
            assert thm33_bound(params, IDENTITY, 1025) == pytest.approx(
                2 * decay_width(params), abs=1e-13
            )


class TestLipschitzBound:
    def test_zero_at_origin(self):
        assert lipschitz_bound(Q_CASE, 1.0, 1.0, 0.0) == 0.0

    def test_alpha_one(self):
        assert lipschitz_bound(Q_CASE, 1.0, 1.0, 1.0) == pytest.approx(
            math.sqrt(1 / 3.439), abs=1e-12
        )

    def test_alpha_half(self):
        assert lipschitz_bound(Q_CASE, 2.0, 0.5, 1.0) == pytest.approx(
            2 * (1 / 3.439) ** 0.25, abs=1e-12
        )

    def test_negative_width_is_flagged(self):
        # q > p^2, so at x = 1 the width squared goes negative for large n
        params = PQParams(20, PQPair(0.8, 0.7))
        with pytest.raises(ValueError):
            lipschitz_bound(params, 1.0, 1.0, 1.0)

    def test_rejects_bad_class_parameters(self):
        with pytest.raises(ValueError):
            lipschitz_bound(Q_CASE, -1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            lipschitz_bound(Q_CASE, 1.0, 1.5, 0.5)


class TestBoundReport:
    def test_constant_function(self):
        grid = [i / 20 for i in range(20)]
        report = bound_report(Q_CASE, ONE, grid, resolution=257)
        assert report.empirical_sup_error <= 1e-12
        # a constant has theoretical bound 0; only truncation noise remains
        assert report.thm33_bound == 0.0
        assert report.empirical_sup_error <= report.max_truncation_bound + 1e-15
        assert report.empirical_within_thm33

    def test_identity_q_case(self):
        grid = [i / 20 for i in range(20)]
        report = bound_report(Q_CASE, IDENTITY, grid, resolution=1025)
        assert report.empirical_sup_error <= 1e-9
        assert report.thm33_bound == pytest.approx(
            2 * math.sqrt(1 / 3.439), abs=1e-12
        )
        assert report.empirical_within_thm33

    def test_cubic_with_lipschitz(self):
        grid = [i / 20 for i in range(20)]
        report = bound_report(
            Q_CASE, PAPER_CUBIC, grid, resolution=513, lipschitz=(2.0, 1.0)
        )
        assert report.empirical_within_thm33
        assert report.lipschitz_bound is not None
        assert report.omega2_sup >= 0.0
        payload = report.to_json_dict()
        assert payload["schema_version"] == 1
