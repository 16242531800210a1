import dataclasses

import numpy as np
import pytest

from pqmkz.engine import PQParams, TruncationPolicy, evaluate_many
from pqmkz.moments import (
    MomentTable,
    default_moment_grid,
    delta_n_sq,
    lemma_bounds_report,
    moment_scale,
    raw_moment,
)
from pqmkz.pqcore import PQPair
from pqmkz.presets import IDENTITY, ONE, SQUARE

Q_CASE = PQParams(3, PQPair(1.0, 0.9))
PQ_CASE = PQParams(5, PQPair(0.9, 0.8))


class TestRawMoments:
    def test_zeroth_is_one(self):
        out = raw_moment(PQ_CASE, 0, 0.5)
        assert out.value == pytest.approx(1.0, abs=1e-12)

    def test_first_at_origin(self):
        out = raw_moment(PQ_CASE, 1, 0.0)
        assert out.value == 0.0
        assert out.terms_used == 1

    def test_first_moment_q_case(self):
        out = raw_moment(PQParams(2, PQPair(1.0, 0.9)), 1, 0.5)
        assert out.value == pytest.approx(0.5, abs=1e-10)

    def test_unit_sup_bound_is_certified(self):
        out = raw_moment(PQ_CASE, 2, 0.5)
        assert out.error_bound <= out.tail_mass + 1e-18
        assert not out.heuristic_bound

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            raw_moment(PQ_CASE, -1, 0.5)


class TestDeltaNSq:
    def test_zero_at_origin(self):
        assert delta_n_sq(PQ_CASE, 0.0) == 0.0

    def test_q_case_closed_form(self):
        # 1/[4]_{1,0.9} with [4] = 1 + 0.9 + 0.81 + 0.729
        assert delta_n_sq(Q_CASE, 1.0) == pytest.approx(1 / 3.439, abs=1e-12)

    def test_general_closed_form(self):
        # 0.9/[2]_{0.9,0.8} - 0.1 with [2] = 1.7
        params = PQParams(1, PQPair(0.9, 0.8))
        assert delta_n_sq(params, 1.0) == pytest.approx(
            0.9 / 1.7 - 0.1, abs=1e-12
        )

    def test_nonnegative_at_p_one(self):
        for x in (0.0, 0.3, 1.0):
            assert delta_n_sq(Q_CASE, x) >= 0.0

    def test_moment_scale_classical(self):
        assert moment_scale(PQParams(4, PQPair.classical())) == pytest.approx(0.2)


def one_point_row(params, x, policy):
    """Every MomentTable field at x, from the one-point formulas on
    evaluate_many: the per-x reference the table must equal bit for bit."""
    m0, m1, m2 = evaluate_many(params, [ONE, IDENTITY, SQUARE], x, policy)
    scale = moment_scale(params)
    p = params.pq.p
    central2 = m2.value - 2.0 * x * m1.value + x * x * m0.value
    tol = m0.error_bound + m1.error_bound + m2.error_bound
    lower_slack = m2.value - x * x
    upper_slack = scale * x + x * x - m2.value
    l2_bound = scale * x + (p - 1.0) * x * x
    l2_slack = l2_bound - central2
    return {
        "x": x, "m0": m0.value, "m1": m1.value, "m2": m2.value,
        "central2": central2, "l1_lower_slack": lower_slack,
        "l1_upper_slack": upper_slack, "l2_slack": l2_slack,
        "tail_mass_max": max(m0.tail_mass, m1.tail_mass, m2.tail_mass),
        "l2_bound": l2_bound,
        "converged": m0.converged and m1.converged and m2.converged,
        "l1_lower_ok": lower_slack >= -tol, "l1_upper_ok": upper_slack >= -tol,
        "l2_ok": l2_slack >= -tol,
    }


class TestLemmaReport:
    def test_q_case_all_pass(self):
        grid = [i / 10 for i in range(11)]
        table = lemma_bounds_report(Q_CASE, grid)
        assert table.l1_lower_ok.all()
        assert table.l1_upper_ok.all()
        assert table.l2_ok.all()
        # upper value p^3/[4] * 0.5 at (p, q) = (1, 0.9)
        assert grid[5] == 0.5
        assert 0.0 <= table.central2[5] <= 0.5 / 3.439 + 1e-10

    def test_origin_row_has_zero_slack(self):
        table = lemma_bounds_report(PQ_CASE, [0.0, 1.0])
        assert table.l1_lower_slack[0] == pytest.approx(0.0, abs=1e-15)
        assert table.l1_upper_slack[0] == pytest.approx(0.0, abs=1e-15)
        assert table.l2_slack[0] == pytest.approx(0.0, abs=1e-15)
        # the central moment vanishes at both endpoints
        assert table.central2[0] == 0.0
        assert table.central2[1] == pytest.approx(0.0, abs=1e-15)

    def test_general_case_reports_without_asserting(self):
        # the stated bound can go negative for p < 1; the report must carry
        # the signed value and the flag instead of raising
        table = lemma_bounds_report(PQ_CASE, [0.9])
        assert table.central2[0] >= -1e-10
        if table.l2_bound[0] < 0.0:
            assert not table.l2_ok[0]
        # a positive operator's central moment is nonnegative up to the
        # error bounds of m0, m1 and m2: one shared tail, each sup bound 1
        for params in (Q_CASE, PQ_CASE):
            table = lemma_bounds_report(params, [0.1, 0.5, 0.9])
            assert (table.central2 >= -3.0 * table.tail_mass_max).all()

    def test_table_equals_one_point_formulas_bitwise(self):
        # grids with x = 0 and x = 1, more than 64 x (two row chunks), and a
        # k_max at which no x > 0 converges
        cases = [
            (PQ_CASE, default_moment_grid(), TruncationPolicy()),
            (Q_CASE, np.linspace(0.0, 1.0, 130).tolist(), TruncationPolicy(1e-12, 2)),
            (PQParams(4, PQPair.classical()), default_moment_grid(),
             TruncationPolicy(1e-12, 300)),
            (PQParams(20, PQPair(0.5, 0.45)), np.linspace(0.0, 1.0, 70).tolist(),
             TruncationPolicy()),
        ]
        names = [field.name for field in dataclasses.fields(MomentTable)]
        # the lemma 1 flags hold at every x (m2 >= m1^2 by Jensen; a truncated
        # m2 falls short by at most the tail, a third of the tolerance)
        flags = {"converged": set(), "l2_ok": set()}
        for params, grid, policy in cases:
            table = lemma_bounds_report(params, grid, policy)
            rows = [one_point_row(params, x, policy) for x in grid]
            assert list(rows[0]) == names
            for name in names:
                column = getattr(table, name)
                want = np.array([row[name] for row in rows], dtype=column.dtype)
                assert column.shape == (len(grid),)
                assert column.tobytes() == want.tobytes(), name
            for name, seen in flags.items():
                seen.update(getattr(table, name).tolist())
        # these flags are seen both ways, so the comparison covers both
        assert all(seen == {False, True} for seen in flags.values())

    def test_default_grid(self):
        grid = default_moment_grid()
        assert len(grid) == 102
        assert grid[0] == 0.0
        assert grid[-2] == pytest.approx(0.99)
        assert grid[-1] == 1.0


class TestFirstMomentDefect:
    def test_measured_not_assumed_for_p_below_one(self):
        # the exactness claim is only proven at p = 1; for p < 1 the defect
        # is a measured diagnostic
        defects = [
            abs(raw_moment(PQ_CASE, 1, x).value - x) for x in (0.2, 0.5, 0.8)
        ]
        assert all(d >= 0.0 for d in defects)

    def test_exact_at_p_one(self):
        for n in (1, 4, 8):
            params = PQParams(n, PQPair(1.0, 0.9))
            for x in (0.1, 0.5, 0.9):
                out = raw_moment(params, 1, x)
                assert abs(out.value - x) <= out.error_bound + 1e-12
