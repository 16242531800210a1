import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from pqmkz.bounds import (
    _curvature_bounds,
    _gap_bounds,
    _window_extrema,
    bound_report,
    decay_width,
    lipschitz_bound,
    modulus,
    second_modulus,
    sup_error,
    thm33_bound,
)
from pqmkz.cli import resolve_function
from pqmkz.engine import Function, PQParams, TruncationPolicy
from pqmkz.pqcore import PQPair
from pqmkz.presets import ABS_HALF, IDENTITY, ONE, PAPER_CUBIC, SQUARE
from test_expressions import SPECS

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
                assert modulus(f, delta, 513) == all_pairs_modulus(
                    f, delta, 513
                )

    def test_identity_gives_delta(self):
        got = modulus(IDENTITY, 0.15, 1025)
        assert got == all_pairs_modulus(IDENTITY, 0.15, 1025)
        assert got == pytest.approx(0.15, abs=1e-14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            modulus(IDENTITY, 0.0, 257)
        with pytest.raises(ValueError):
            modulus(IDENTITY, 0.1, 1)


def step_loop_moduli(f, deltas, resolution):
    """The per-step form at each delta: max over d = 1..dmax of
    max |f(x + d h) - f(x)|, plus the off-lattice step at delta.  One pass
    over d = 1..max(dmax) keeps the running max after every step."""
    xs = np.linspace(0.0, 1.0, resolution)
    fv = f.values(xs)
    step = 1.0 / (resolution - 1)
    dmaxes = [int(math.floor(delta / step + 1e-9)) for delta in deltas]
    running = [0.0]
    for d in range(1, max(dmaxes) + 1):
        running.append(
            max(running[-1], float(np.max(np.abs(fv[d:] - fv[:-d]))))
        )
    out = []
    for delta, dmax in zip(deltas, dmaxes):
        best = running[dmax]
        mask = xs + delta <= 1.0 + 1e-12
        if np.any(mask):
            shifted = np.minimum(xs[mask] + delta, 1.0)
            best = max(
                best, float(np.max(np.abs(f.values(shifted) - fv[mask])))
            )
        out.append(best)
    return out


# decay_width at the two ends of each fine-resolution bounds slot of the
# benchmark: (n, p, q / p) from its low and high corners.
SLOT_CORNERS = [
    ((30, 0.95, 0.90), (31, 1.0, 0.91)),
    ((25, 0.95, 0.85), (26, 1.0, 0.86)),
    ((35, 0.95, 0.92), (36, 1.0, 0.93)),
    ((38, 0.95, 0.88), (39, 1.0, 0.89)),
    ((39, 0.95, 0.95), (40, 1.0, 0.96)),
]


class TestModulusLargeResolution:
    """The window form equals the per-step form bit for bit at large R."""

    DELTAS = [1.0] + [
        decay_width(PQParams(n, PQPair(p, round(p * r, 6))))
        for corners in SLOT_CORNERS
        for n, p, r in corners
    ]

    @pytest.mark.parametrize("resolution", [2, 3, 5, 1025, 4097, 16385])
    @pytest.mark.parametrize("spec", SPECS)
    def test_equals_step_loop(self, spec, resolution):
        f = resolve_function(spec)
        step = 1.0 / (resolution - 1)
        deltas = [0.5 * step, step, 1.5 * step, 2.5 * step] + self.DELTAS
        deltas = [delta for delta in deltas if delta <= 1.0]
        got = [modulus(f, delta, resolution) for delta in deltas]
        assert got == step_loop_moduli(f, deltas, resolution)


def step_loop_second_moduli(f, step_bounds, resolution, halve=False):
    """The allocating per-step form of second_modulus at each step bound:
    max over d = 1..dmax of max |f(x+2dh) - 2 f(x+dh) + f(x)|, plus the
    off-lattice step.  One pass over d keeps the running max after each d.
    With halve, the sums run on f/2 and f and the result is doubled, as
    second_modulus runs them where 2 f overflows on the lattice."""
    xs = np.linspace(0.0, 1.0, resolution)
    fv = f.values(xs)
    outer, middle, scale = (0.5 * fv, fv, 2.0) if halve else (fv, 2.0 * fv, 1.0)
    step = 1.0 / (resolution - 1)
    dmaxes = [int(math.floor(b / step + 1e-9)) for b in step_bounds]
    running = [0.0]
    for d in range(1, max(dmaxes) + 1):
        diff = outer[2 * d:] - middle[d:-d] + outer[: -2 * d]
        running.append(max(running[-1], float(np.max(np.abs(diff)))))
    out = []
    for bound, dmax in zip(step_bounds, dmaxes):
        best = running[dmax]
        mask = xs + 2.0 * bound <= 1.0 + 1e-12
        if np.any(mask):
            x0 = xs[mask]
            f1 = f.values(np.minimum(x0 + bound, 1.0))
            f2 = f.values(np.minimum(x0 + 2.0 * bound, 1.0))
            diff = f2 / scale - (2.0 / scale) * f1 + outer[mask]
            best = max(best, float(np.max(np.abs(diff))))
        out.append(best * scale)
    return out


def reference_second_moduli(f, step_bounds, resolution):
    """step_loop_second_moduli, on f/2 and f where 2 f overflows on the
    lattice; a difference that overflows gives inf."""
    with np.errstate(over="ignore"):
        doubled = 2.0 * f.values(np.linspace(0.0, 1.0, resolution))
        halve = not np.isfinite(doubled).all()
        return step_loop_second_moduli(f, step_bounds, resolution, halve)


class TestSecondModulusLargeResolution:
    """The pruned one-buffer second modulus equals the allocating loop over
    every step bit for bit."""

    @pytest.mark.parametrize("resolution", [2, 3, 5, 1025, 4097, 16385])
    @pytest.mark.parametrize(
        "spec",
        ["paper_cubic", "sin(40*x)*exp(0-x)", "abs(x-0.5)", "x^2", "1/(1+x)",
         # the max at small steps, so that almost no step is skipped; tiny
         # and subnormal differences; 2 f overflowing, so the sums run on f/2
         "sin(400*x)", "1e-300*x^2", "1.5e308*x^2",
         # the largest second differences at the right end of each step's
         # domain, beyond the domains of larger steps: no gap can be ruled
         # out, and a gap bound taken from the larger step must shift x
         "abs(x-0.97)", "exp(60*(x-1))"],
    )
    def test_equals_step_loop(self, spec, resolution):
        f = resolve_function(spec)
        step = 1.0 / (resolution - 1)
        # dmax 0, 1, 2, 3 and 5 leave every remainder of the steps that
        # share one max and min
        # 0.16 is about the step bound of the benchmark's finest lattices,
        # where the curvature bound rules out most gaps of 1/(1+x) and the
        # cubic
        bounds = [0.5 * step, step, 2 * step, 3 * step, 5 * step, 2.5 * step,
                  0.05, 0.16, 0.2, 0.5]
        bounds = [b for b in bounds if b <= 0.5]
        got = [second_modulus(f, b, resolution) for b in bounds]
        assert got == reference_second_moduli(f, bounds, resolution)

    def test_steps_are_skipped(self, monkeypatch):
        # each lattice step d forms its row with one
        # np.subtract(g[2d:], m[d:-d], out=row), on 16385 lattice points
        formed = []
        subtract = np.subtract

        def counting(*args, **kwargs):
            if "out" in kwargs:
                formed.append((16385 - len(args[0])) // 2)
            return subtract(*args, **kwargs)

        monkeypatch.setattr(np, "subtract", counting)
        # 3276 lattice steps: the largest second difference of x^2 is at the
        # largest step, so a bound at the top cannot beat the max
        assert second_modulus(SQUARE, 0.2, 16385) == step_loop_second_moduli(
            SQUARE, [0.2], 16385)[0]
        assert len(formed) <= 4
        # sin(400 x) has its max near step 129 and the steps above about 82
        # could still raise it, but most gaps between formed steps are ruled
        # out by the steps at their ends: 649 of the 3276 are formed
        formed.clear()
        f = resolve_function("sin(400*x)")
        assert second_modulus(f, 0.2, 16385) == step_loop_second_moduli(
            f, [0.2], 16385)[0]
        assert len(formed) <= 649
        assert len(set(formed)) == len(formed)
        # smooth f whose largest second difference is at the largest step:
        # of 2621 steps, min(G, G2) forms 11 of each
        for spec, most in (("1/(1+x)", 11), ("paper_cubic", 11)):
            formed.clear()
            f = resolve_function(spec)
            assert second_modulus(f, 0.16, 16385) == step_loop_second_moduli(
                f, [0.16], 16385)[0]
            assert len(formed) <= most
            assert len(set(formed)) == len(formed)
        # a kink close to x = 1: no gap can be ruled out, and no step is
        # formed twice
        formed.clear()
        f = resolve_function("abs(x-0.97)")
        assert second_modulus(f, 0.5, 16385) == step_loop_second_moduli(
            f, [0.5], 16385)[0]
        assert len(set(formed)) == len(formed) > 7000

    def test_gap_whose_steps_rise_far_above_both_ends(self):
        # unit differences at most L = 1.  The walk forms step 56 (max |c|
        # 7), then 29 (12.43), then 17 and 42 (22 and 7.29), then step 49
        # (18.29) in the gap (42, 56), with 13, 23 and 35; step 52, in the
        # round after, reaches 23 at x = 0.  A gap bound with half the proven
        # slope, max(m_42, m_56) + 14 L, would rule out the gap (42, 56), and
        # one from the upper end alone, m_56 + 14 L, the gap (49, 56), each
        # against the max 22
        xs = np.linspace(0.0, 1.0, 113)
        data = np.interp(np.arange(113), [0, 14, 35, 42, 52, 56, 84, 104, 112],
                         [0, -8, 13, 19, 21, 25, 45, 65, 57])
        f = Function(lambda x: np.interp(x, xs, data))
        assert second_modulus(f, 0.5, 113) == 23.0
        assert reference_second_moduli(f, [0.5], 113) == [23.0]

    def test_gap_from_a_step_that_was_not_formed(self):
        # steps 1..33 are ruled out by B and never formed, so the gap
        # (33, 43) has no max |c| at its lower end; reading one of 0 there
        # would rule out the gap, and with it the max at step 41
        i = np.arange(253.0)
        data = (np.where(i > 193, (i - 193) / 12.5, 0.0) ** 2 * 0.9
                - np.where(i > 152, (i - 152) / 20, 0.0) ** 2)
        xs = np.linspace(0.0, 1.0, 253)
        f = Function(lambda x: np.interp(x, xs, data))
        want = reference_second_moduli(f, [0.5], 253)
        assert want == [7.913079999999999]
        assert second_modulus(f, 0.5, 253) == want[0]


_BOUND_INPUTS = st.floats(0.0, 1e300)


class TestGapBound:
    @settings(max_examples=300, deadline=None)
    @given(_BOUND_INPUTS, _BOUND_INPUTS, st.integers(2, 10**4), _BOUND_INPUTS,
           _BOUND_INPUTS)
    def test_covers_the_proof(self, lower, upper, span, slope, slack):
        # the proof needs G >= (1 + u) max(m_a, m_c) + 2 (c - a) L
        # + 2 (u S + rho), given slope >= 2 L and slack >= u S + rho
        got = float(_gap_bounds(np.array([lower]), np.array([upper]),
                                np.array([span]), slope, slack)[0])
        need = ((1 + Fraction(2) ** -53) * Fraction(max(lower, upper))
                + span * Fraction(slope) + 2 * Fraction(slack))
        assert got == math.inf or Fraction(got) >= need


    @settings(max_examples=300, deadline=None)
    @given(_BOUND_INPUTS | st.just(math.inf), _BOUND_INPUTS,
           st.integers(0, 10**4), st.integers(2, 10**4), _BOUND_INPUTS,
           _BOUND_INPUTS)
    def test_curvature_bound_covers_the_proof(self, lower, upper, a, span,
                                              curv, slack):
        # the proof needs G2 >= (1 + u)(m_a + m_c) / 2 + (c^2 - a^2) M / 2
        # + 2 (u S + rho), and with m_a inf (a not formed) G2 >= (1 + u) m_c
        # + (c^2 - a^2) M + 2 (u S + rho), given curv >= M and
        # slack >= u S + rho
        c = a + span
        got = float(_curvature_bounds(np.array([lower]), np.array([upper]),
                                      np.array([float(c * c - a * a)]), curv,
                                      slack)[0])
        u = Fraction(2) ** -53
        if lower == math.inf:
            need = (1 + u) * Fraction(upper) + (c * c - a * a) * Fraction(curv)
        else:
            need = ((1 + u) * (Fraction(lower) + Fraction(upper))
                    + (c * c - a * a) * Fraction(curv)) / 2
        need += 2 * Fraction(slack)
        assert got == math.inf or Fraction(got) >= need


_MAX = float(np.finfo(float).max)
# lattice values: one of the shapes times a magnitude (1.0 in a quarter of
# the cases), then runs and spikes of values relative to it, of _SPECIAL
# values, or of any finite double
_SHAPES = {
    "square": lambda x: x * x,
    "cubic": lambda x: x * (x - 0.5) * (x - 1.0),
    "kink": lambda x: np.abs(x - 0.3),
    "constant": np.ones_like,
}
_MAGNITUDES = [1.0, 1e-300, 1e-310, 5e-324, 1.0, 1e308, 1.5e308, _MAX]
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 9e307, 1.7e308,
            -1.7e308, _MAX]


@st.composite
def lattice_cases(draw):
    """(f, resolution, step bound), f the piecewise-linear interpolant of
    drawn lattice values, clipped to the doubles so that it is finite
    between lattice points too."""
    # large resolutions often enough that many groups of steps are walked
    resolution = draw(st.integers(2, 600) | st.integers(100, 600))
    xs = np.linspace(0.0, 1.0, resolution)
    shape = draw(st.sampled_from([*_SHAPES, "sine", "noise"]))
    if shape == "noise":
        unit = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=resolution,
                                      max_size=resolution)))
    elif shape == "sine":
        unit = np.sin(draw(st.floats(0.5, 60.0)) * xs)
    else:
        unit = _SHAPES[shape](xs)
    magnitude = draw(st.sampled_from(_MAGNITUDES)) * draw(st.sampled_from([1, -1]))
    data = magnitude * unit
    # constant runs, and spikes (runs of one); none in half the cases, so
    # that smooth lattices, on which steps are skipped, stay common
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        start = draw(st.integers(0, resolution - 1))
        length = draw(st.sampled_from([1, draw(st.integers(1, resolution))]))
        data[start:start + length] = draw(
            st.sampled_from([0.0, 0.5, -1.0]).map(lambda c: c * magnitude)
            | st.sampled_from(_SPECIAL) | st.floats(-_MAX, _MAX))
    step = 1.0 / (resolution - 1)
    bound = draw(st.floats(0.0, 0.5, exclude_min=True)
                 | st.integers(1, 300).map(lambda k: min(k * step, 0.5))
                 | st.floats(1.0, 300.0).map(lambda t: min(t * step, 0.5)))
    f = Function(lambda x: np.clip(np.interp(x, xs, data), -_MAX, _MAX))
    return f, resolution, bound


class TestSecondModulusProperty:
    @settings(max_examples=300, deadline=None)
    @given(lattice_cases())
    def test_equals_step_loop(self, case):
        f, resolution, bound = case
        got = second_modulus(f, bound, resolution)
        want = reference_second_moduli(f, [bound], resolution)[0]
        assert got.hex() == want.hex()


_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


# powers of two and their neighbours: the doubling's last pass is empty at
# 2^k and overlaps its two halves in all but one entry at 2^k + 1
_DOUBLING_WIDTHS = [w for k in range(1, 9) for w in (2**k - 1, 2**k, 2**k + 1)]


def window_reduction_modulus(f, delta, resolution):
    """modulus with each window's max and min reduced over the window."""
    xs = np.linspace(0.0, 1.0, resolution)
    fv = f.values(xs)
    windows = sliding_window_view(
        fv, int(math.floor(delta / (1.0 / (resolution - 1)) + 1e-9)) + 1)
    best = float(np.max(windows.max(axis=1) - windows.min(axis=1)))
    mask = xs + delta <= 1.0 + 1e-12
    if np.any(mask):
        shifted = f.values(np.minimum(xs[mask] + delta, 1.0))
        best = max(best, float(np.max(np.abs(shifted - fv[mask]))))
    return best


class TestWindowExtrema:
    @staticmethod
    def assert_window_reduction(v, w):
        hi, lo = _window_extrema(v, w)
        windows = sliding_window_view(v, w)
        # ==, with nan equal to nan: the two may differ in the sign of a zero
        assert np.array_equal(hi, windows.max(axis=1), equal_nan=True)
        assert np.array_equal(lo, windows.min(axis=1), equal_nan=True)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ENTRIES, min_size=1, max_size=300), st.data())
    def test_equals_window_reduction(self, values, data):
        v = np.array(values)
        self.assert_window_reduction(v, data.draw(st.integers(1, len(v))))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_DOUBLING_WIDTHS), st.data())
    def test_widths_at_powers_of_two(self, w, data):
        v = np.array(data.draw(st.lists(_ENTRIES, min_size=w, max_size=w + 8)))
        self.assert_window_reduction(v, w)

    @pytest.mark.parametrize("spec", ["(x-0.5)*0", "abs(x-0.97)"])
    def test_modulus_equals_window_reduction(self, spec):
        # (x-0.5)*0 is -0.0 left of 1/2 and 0.0 from there: the modulus is
        # the zero of the window reduction, sign included
        f = resolve_function(spec)
        for resolution in (2, 3, 17, 1025, 4097):
            step = 1.0 / (resolution - 1)
            for delta in (step, 3 * step, 1 / 16, 0.1, 0.25, 0.5, 1.0):
                if delta <= 1.0:
                    assert modulus(f, delta, resolution).hex() == (
                        window_reduction_modulus(f, delta, resolution).hex())


class TestOverflowAndNonFinite:
    def test_moduli_overflow_to_inf_quietly(self):
        f = resolve_function("1e308*sin(40*x)")
        assert modulus(f, 0.1, 1025) == math.inf
        assert second_modulus(f, 0.1, 1025) == math.inf

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_lattice_rejected(self, bad):
        f = Function(lambda x: np.where(x > 0.5, bad, x), sup_hint=1.0)
        with pytest.raises(ValueError, match="on the modulus lattice"):
            modulus(f, 0.1, 257)
        with pytest.raises(ValueError, match="on the modulus lattice"):
            second_modulus(f, 0.1, 257)

    def test_bound_report_rejects_infinite_thm33(self):
        f = resolve_function("8e307*sin(40*x)")
        with pytest.raises(ValueError, match="thm33_bound is inf"):
            bound_report(Q_CASE, f, [0.0, 0.5, 1.0], resolution=257)

    def test_bound_report_rejects_infinite_omega2(self):
        # lattice values of alternating sign near 1.7e308: the second
        # differences, about 6.8e308, overflow even with f halved; a second
        # difference at a step within the decay width is at most twice the
        # modulus, so the report meets the overflow at thm33_bound first
        f = Function(lambda x: np.where(np.arange(len(x)) % 2, -1.7e308, 1.7e308),
                     sup_hint=1.7e308)
        assert second_modulus(f, 0.1, 257) == math.inf
        with pytest.raises(ValueError, match="is inf: the moduli of f overflow"):
            bound_report(Q_CASE, f, [0.25, 0.5], resolution=257)

    def test_huge_constant_has_second_modulus_zero(self):
        # 2 f overflows, but every second difference is 0: the sums run on
        # f/2 and f
        f = Function(lambda x: np.full_like(x, 1e308), sup_hint=1e308)
        assert second_modulus(f, 0.1, 257) == 0.0
        report = bound_report(Q_CASE, f, [0.25, 0.5], resolution=257)
        assert report.omega2_sup == 0.0 and report.thm33_bound == 0.0

    @pytest.mark.parametrize("spec", ["1.5e308*sin(3*x)", "1e308*x^2", "1.7e308*x"])
    def test_second_modulus_of_f_with_2f_overflowing_is_twice_that_of_half(
            self, spec):
        # on f/2 the sums run as for any f; on f they run on the same f/2
        # and f, then double: bit for bit twice the result of f/2
        f = resolve_function(spec)
        half = Function(lambda x: 0.5 * f.values(x))
        for step, resolution in ((0.1, 257), (0.37, 1025), (0.5, 129)):
            with np.errstate(over="ignore"):
                twice = 2.0 * f.values(np.linspace(0.0, 1.0, resolution))
            assert not np.isfinite(twice).all()
            assert second_modulus(f, step, resolution) == 2.0 * second_modulus(
                half, step, resolution)


class TestModulus:
    def test_constant_is_zero(self):
        assert modulus(ONE, 0.3, 257) == 0.0

    def test_identity_attains_delta(self):
        est = modulus(IDENTITY, 0.1, 1025)
        assert type(est) is float
        assert est == pytest.approx(0.1, abs=1e-15)

    def test_square_matches_brute_force(self):
        expected = brute_force_modulus(SQUARE, 0.2, 257)
        assert modulus(SQUARE, 0.2, 257) == pytest.approx(
            expected, abs=1e-14
        )
        # analytic sup 2*delta - delta^2 = 0.36 is approached from below
        fine = modulus(SQUARE, 0.2, 2049)
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
        vals = [modulus(PAPER_CUBIC, d, 513) for d in deltas]
        assert vals == sorted(vals)

    def test_monotone_under_refinement(self):
        # between nested lattices, R - 1 dividing R' - 1
        for f in (PAPER_CUBIC, ABS_HALF):
            for modulus_of in (modulus, second_modulus):
                v = [modulus_of(f, 0.3, 2 ** m + 1) for m in (7, 8, 9, 10)]
                for a, b in zip(v, v[1:]):
                    assert a <= b + 1e-15
        # not between lattices that are not nested
        assert second_modulus(ABS_HALF, 0.001, 1025) == 0.001953125
        assert second_modulus(ABS_HALF, 0.001, 1026) < 0.0011

    def test_subadditive_on_lattice(self):
        for d1, d2 in [(1 / 8, 1 / 8), (1 / 16, 1 / 8), (1 / 4, 1 / 4)]:
            lhs = modulus(PAPER_CUBIC, d1 + d2, 513)
            rhs = (
                modulus(PAPER_CUBIC, d1, 513)
                + modulus(PAPER_CUBIC, d2, 513)
            )
            assert lhs <= rhs + 1e-12


class TestSecondModulus:
    def test_affine_vanishes(self):
        affine = Function(lambda ts: 3 * ts - 1, "affine", 2.0)
        assert second_modulus(affine, 0.2, 513) <= 1e-14

    def test_constant_vanishes(self):
        assert second_modulus(ONE, 0.1, 257) == 0.0

    def test_square_second_difference(self):
        # second difference of t^2 is exactly 2 h^2, maximized at h = bound
        h0 = 0.2
        assert second_modulus(SQUARE, h0, 513) == pytest.approx(
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

    def test_rejects_bad_lipschitz_class(self):
        grid = [0.0, 0.5]
        for lip in [(-1.0, 1.0), (0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                    (1.0, 2.0), (1.0, math.nan), (1.0, 0.0)]:
            with pytest.raises(ValueError):
                bound_report(Q_CASE, ONE, grid, resolution=257, lipschitz=lip)

    def test_negative_width_gives_no_lipschitz_entry(self):
        # q > p^2: the width squared at x = 1 is negative for n = 20
        params = PQParams(20, PQPair(0.8, 0.7))
        report = bound_report(
            params, IDENTITY, [0.5, 1.0], resolution=257, lipschitz=(1.0, 1.0)
        )
        assert report.lipschitz_bound is None

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
