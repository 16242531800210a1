import math

import pytest

from pqmkz.presets import IDENTITY, ONE, PAPER_CUBIC
from pqmkz.statistical import (
    DensityReport,
    SequenceScheme,
    default_stat_grid,
    density,
    inverse_pq_int,
    scheme_constant,
    scheme_paper,
    st_korovkin_check,
    stat_rate_bound,
)


class TestSchemes:
    def test_paper_scheme_limits(self):
        scheme = scheme_paper()
        p1000, q1000 = scheme.rule(1000)
        assert abs(q1000 ** 1000 - math.exp(-1)) < 1e-3
        assert abs(p1000 ** 1000 - math.exp(-0.5)) < 1e-3

    def test_paper_scheme_admissible_everywhere(self):
        scheme = scheme_paper()
        for n in (2, 10, 100, 5000):
            params = scheme.params(n)
            assert 0.0 < params.pq.q < params.pq.p <= 1.0

    def test_paper_scheme_domain_start(self):
        with pytest.raises(ValueError):
            scheme_paper().params(1)

    def test_constant_scheme(self):
        scheme = scheme_constant(0.95, 0.9)
        params = scheme.params(7)
        assert params.pq.p == 0.95
        assert params.pq.q == 0.9

    def test_inadmissible_rule_rejected(self):
        with pytest.raises(ValueError):
            SequenceScheme("bad", lambda n: (0.5, 0.9))
        with pytest.raises(ValueError):
            scheme_constant(0.8, 0.9)

    def test_rule_checked_at_each_requested_n(self):
        scheme = SequenceScheme(
            "late", lambda n: (0.5, 0.9) if n == 5000 else (0.95, 0.9)
        )
        assert scheme.params(4999).pq.q == 0.9
        with pytest.raises(ValueError, match=r"'late'.*n=5000"):
            scheme.params(5000)

    def test_inverse_int_shrinks_along_paper_scheme(self):
        scheme = scheme_paper()
        for n in (200, 500, 1000, 5000):
            assert inverse_pq_int(scheme, n) < 0.05


class TestDensity:
    def test_evens(self):
        assert density(lambda k: k % 2 == 0, 1000) == 0.5

    def test_squares_thin_out(self):
        assert density(lambda k: math.isqrt(k) ** 2 == k, 10_000) == 0.01

    def test_empty_set(self):
        assert density(lambda k: False, 50) == 0.0

    def test_finite_set(self):
        members = {3, 17, 90}
        assert density(lambda k: k in members, 100) == 0.03
        assert density(lambda k: k in members, 1000) == 0.003

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            density(lambda k: True, 0)


class TestStatRateBound:
    def test_constant_function_gives_zero(self):
        assert stat_rate_bound(scheme_paper(), 10, ONE) == 0.0

    def test_identity_closed_form(self):
        # sup over x of 2*sqrt(delta_n(x)) is attained at the grid maximum
        scheme = scheme_constant(1.0, 0.9)
        n = 3
        grid = [0.0, 0.5, 1.0]
        got = stat_rate_bound(scheme, n, IDENTITY, resolution=2049, grid=grid)
        assert got == pytest.approx(2 * math.sqrt(1 / 3.439), abs=1e-12)

    def test_trend_decreases_along_paper_scheme(self):
        scheme = scheme_paper()
        vals = [
            stat_rate_bound(scheme, n, PAPER_CUBIC, resolution=513)
            for n in (10, 40, 160)
        ]
        assert vals[0] > vals[1] > vals[2]


class TestKorovkinCheck:
    def test_paper_scheme_small_run(self):
        reports = st_korovkin_check(
            scheme_paper(), PAPER_CUBIC, 0.2, [20, 40]
        )
        assert set(reports) == {"1", "t", "t^2", PAPER_CUBIC.label}
        for report in reports.values():
            assert isinstance(report, DensityReport)
            assert report.Ns == [20, 40]
            assert len(report.densities) == 2
            # trend: deviation densities must not grow with N
            assert report.densities[1] <= report.densities[0] + 1e-15
        assert reports["1"].densities[1] == 0.0

    def test_constant_scheme_keeps_deviating(self):
        # frozen parameters far from 1 cannot push the t^2 error below eps
        reports = st_korovkin_check(
            scheme_constant(1.0, 0.5), IDENTITY, 0.05, [10, 20]
        )
        assert reports["t^2"].densities[-1] > 0.3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            st_korovkin_check(scheme_paper(), ONE, 0.0, [10])
        with pytest.raises(ValueError):
            st_korovkin_check(scheme_paper(), ONE, 0.1, [20, 10])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_epsilon(self, bad):
        with pytest.raises(ValueError, match="epsilon must be"):
            st_korovkin_check(scheme_paper(), ONE, bad, [10])

    def test_csv_rows_shape(self):
        reports = st_korovkin_check(scheme_paper(), ONE, 0.5, [5, 10])
        rows = reports["1"].csv_rows()
        assert len(rows) == 2
        assert all(len(row) == len(DensityReport.CSV_COLUMNS) for row in rows)


def test_default_stat_grid_shape():
    grid = default_stat_grid()
    assert len(grid) == 33
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(0.96)
