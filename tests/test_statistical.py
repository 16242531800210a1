import math

import numpy as np
import pytest

from pqmkz import engine, statistical
from pqmkz.cli import resolve_function
from pqmkz.engine import (
    Function,
    SupBoundError,
    TruncationPolicy,
    evaluate_grid_values,
    evaluate_sweep_values,
)
from pqmkz.expressions import EvalError
from pqmkz.expressions import parse_function
from pqmkz.presets import IDENTITY, ONE, PAPER_CUBIC, SQUARE
from pqmkz.statistical import (
    DensityReport,
    SequenceScheme,
    default_stat_grid,
    density,
    inverse_pq_int,
    scheme_constant,
    scheme_paper,
    st_korovkin_check,
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

    def test_failure_after_a_nonconverged_x_excludes_n(self):
        # at n = 378..380 an x of the grid fails to converge within k_max
        # before a larger x whose leading weight underflows: the scan over x
        # stops at the first and excludes n instead of raising
        scheme = SequenceScheme("tau=0.999", lambda n: (1.0, 0.999), n_min=378)
        policy = TruncationPolicy(1e-8, 1000)
        with pytest.raises(ValueError, match="underflows"):
            evaluate_grid_values(scheme.params(380), [ONE], default_stat_grid(), policy)
        reports = st_korovkin_check(scheme, ONE, 0.5, [380], policy=policy)
        assert reports["1"].excluded_counts == [380]

    def test_underflow_after_converged_rows_raises(self):
        # the paper scheme's first leading weight to underflow is at n = 420,
        # after every x before it converged: the sweep raises it
        with pytest.raises(ValueError, match="underflows"):
            st_korovkin_check(scheme_paper(), PAPER_CUBIC, 0.2, [420])

    def test_f_error_first_at_a_later_n_raises_it(self):
        # f is not defined on (0.3001, 0.3007), which the stat grid and the
        # 1025-point sup grid miss; the nodes of n = 16 are the first to
        # reach it, from the second x on, after a converged x
        f = resolve_function("sqrt(abs(x-0.3004)-0.0003)")
        scheme = scheme_paper()
        policy = TruncationPolicy(1e-8, 5000)
        grid = default_stat_grid()
        assert st_korovkin_check(scheme, f, 0.2, [15])["1"].excluded_counts == [1]
        [res] = evaluate_sweep_values(
            [scheme.params(16)], [ONE, IDENTITY, SQUARE, f], grid, policy)
        assert res.failure[0] == 1 and res.status.tolist()[:2] == ["ok", "f_error"]
        message = "invalid value encountered in sqrt"
        with pytest.raises(EvalError, match=message):
            evaluate_grid_values(scheme.params(16), [f], grid, policy)
        with pytest.raises(EvalError, match=message):
            st_korovkin_check(scheme, f, 0.2, [20])

    def test_fatal_failure_ends_the_sweep(self, monkeypatch):
        # f first fails at n = 16 (above); a sweep to n = 400 ends with the
        # chunk of rows that holds n = 16, so no plan past that chunk starts
        started = []
        leading = engine._leading_weights

        def recorded(params, xs):
            started.append(params.n)
            return leading(params, xs)

        monkeypatch.setattr(engine, "_leading_weights", recorded)
        f = resolve_function("sqrt(abs(x-0.3004)-0.0003)")
        with pytest.raises(EvalError, match="invalid value encountered in sqrt"):
            st_korovkin_check(scheme_paper(), f, 0.2, [400])
        assert started == list(range(2, 2 + len(started)))
        assert 16 <= max(started) <= 16 + engine._ROWS // 33

    def test_scheme_failure_is_raised_after_the_n_before_it(self):
        # q_n reaches p_n at n = 50: the sweep raises the scheme's error,
        # unless an n before it raises first (f fails from n = 16 on)
        paper = scheme_paper()

        def rule(n):
            return paper.rule(n) if n < 50 else (0.9, 0.95)

        scheme = SequenceScheme("late", rule, n_min=2)
        with pytest.raises(ValueError, match="violates 0 < q < p <= 1 at n=50"):
            st_korovkin_check(scheme, ONE, 0.2, [60])
        f = resolve_function("sqrt(abs(x-0.3004)-0.0003)")
        with pytest.raises(EvalError, match="invalid value encountered in sqrt"):
            st_korovkin_check(scheme, f, 0.2, [60])

    def test_sup_bound_error_of_a_parsed_f_raises(self):
        f = resolve_function("1.7976931348623157e308")
        with pytest.raises(SupBoundError, match="heuristic sup bound"):
            st_korovkin_check(scheme_paper(), f, 0.2, [5])

    def test_sweep_is_one_engine_call(self, monkeypatch):
        # at n = 373..380 the x at index 26 does not converge and the x at
        # index 32 underflows; most smaller n do not converge either, but
        # raise nothing.  The whole sweep is one engine call and one kernel
        # call, no x runs alone, and each plan's leading weights are
        # computed once, for every x of the grid together
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        leading = []
        plan_w0 = engine._leading_weights

        def recorded(params, xs):
            leading.append(len(xs))
            return plan_w0(params, xs)

        monkeypatch.setattr(statistical, "evaluate_sweep_values", counted(
            "sweep", statistical.evaluate_sweep_values))
        monkeypatch.setattr(engine, "_weight_chunks", counted(
            "kernel", engine._weight_chunks))
        monkeypatch.setattr(engine, "evaluate_grid_values", counted(
            "grid", engine.evaluate_grid_values))
        monkeypatch.setattr(engine, "_leading_weights", recorded)
        policy = TruncationPolicy(1e-8, 1000)
        reports = st_korovkin_check(
            scheme_constant(1.0, 0.999), ONE, 0.2, [380], policy=policy)
        assert reports["1"].excluded_counts == [367]
        assert calls == ["sweep", "kernel"]
        assert leading == [33] * 380

    def test_parsed_f_heuristic_sup_computed_once(self):
        # each sweep evaluates f once on the grid and once per chunk of
        # rows (n = 2..40, 33 x each), and asks for its sup bound; the
        # 1025-point heuristic (the only call whose points end at x = 1)
        # runs once over two sweeps
        expr = parse_function("sin(3*x)")
        calls = []

        def values(ts):
            calls.append(len(ts) == 1025 and ts[-1] == 1.0)
            return expr.evaluate_array(ts)

        f = Function(values, "sin(3*x)")
        chunks = -(-39 * 33 // engine._ROWS)
        st_korovkin_check(scheme_paper(), f, 0.2, [40])
        assert calls.count(False) == 1 + chunks and calls.count(True) == 1
        st_korovkin_check(scheme_paper(), f, 0.2, [40])
        assert calls.count(False) == 2 + 2 * chunks and calls.count(True) == 1
        bound, heuristic = f.sup_bound()
        xs = np.linspace(0.0, 1.0, 1025)
        assert heuristic and bound == 2.0 * np.max(np.abs(np.sin(3 * xs)))
        assert calls.count(True) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            st_korovkin_check(scheme_paper(), ONE, 0.0, [10])
        with pytest.raises(ValueError, match="grid must be nonempty"):
            st_korovkin_check(scheme_paper(), ONE, 0.1, [10], grid=[])
        with pytest.raises(ValueError):
            st_korovkin_check(scheme_paper(), ONE, 0.1, [20, 10])
        with pytest.raises(ValueError, match="Ns must be strictly increasing"):
            st_korovkin_check(scheme_paper(), ONE, 0.2, [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_epsilon(self, bad):
        with pytest.raises(ValueError, match="epsilon must be"):
            st_korovkin_check(scheme_paper(), ONE, bad, [10])

    def test_csv_rows_shape(self):
        # the CSV writes these columns, one row per N
        r = st_korovkin_check(scheme_paper(), ONE, 0.5, [5, 10])["1"]
        columns = [r.Ns, r.member_counts, r.densities, r.excluded_counts]
        assert len(columns) == len(DensityReport.CSV_COLUMNS)
        assert all(len(column) == 2 for column in columns)


def test_default_stat_grid_shape():
    grid = default_stat_grid()
    assert len(grid) == 33
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(0.96)
