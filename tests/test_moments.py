import dataclasses

import numpy as np
import pytest

from pqmkz.engine import PQParams, TruncationPolicy, evaluate_grid_values
from pqmkz.moments import (
    MomentTable,
    default_moment_grid,
    delta_n_sq,
    lemma_bounds_report,
    moment_scale,
)
from pqmkz.pqcore import PQPair
from pqmkz.presets import IDENTITY, ONE, SQUARE

Q_CASE = PQParams(3, PQPair(1.0, 0.9))
PQ_CASE = PQParams(5, PQPair(0.9, 0.8))


class TestRawMoments:
    """The moments m0, m1 and m2 are lemma_bounds_report's columns, the
    operator at the monomials 1, t and t^2."""

    def test_zeroth_is_one(self):
        table = lemma_bounds_report(PQ_CASE, [0.5])
        assert table.m0[0] == pytest.approx(1.0, abs=1e-12)

    def test_first_at_origin(self):
        g = evaluate_grid_values(PQ_CASE, [IDENTITY], [0.0])
        assert g.values[0, 0] == 0.0
        assert g.terms_used[0] == 1

    def test_first_moment_q_case(self):
        table = lemma_bounds_report(PQParams(2, PQPair(1.0, 0.9)), [0.5])
        assert table.m1[0] == pytest.approx(0.5, abs=1e-10)

    def test_unit_sup_bound_is_certified(self):
        g = evaluate_grid_values(PQ_CASE, [SQUARE], [0.5])
        assert g.error_bound[0, 0] <= g.tail_mass[0] + 1e-18
        assert not g.heuristic_bound[0]


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
    """Every MomentTable field at x, from the one-point formulas on the
    column of evaluate_grid_values at x alone: the per-x reference the table
    must equal bit for bit."""
    g = evaluate_grid_values(params, [ONE, IDENTITY, SQUARE], [x], policy)
    m0, m1, m2 = g.values[:, 0]
    e0, e1, e2 = g.error_bound[:, 0]
    scale = moment_scale(params)
    p = params.pq.p
    central2 = m2 - 2.0 * x * m1 + x * x * m0
    tol = e0 + e1 + e2
    lower_slack = m2 - x * x
    upper_slack = scale * x + x * x - m2
    l2_bound = scale * x + (p - 1.0) * x * x
    l2_slack = l2_bound - central2
    return {
        "x": x, "m0": m0, "m1": m1, "m2": m2,
        "central2": central2, "l1_lower_slack": lower_slack,
        "l1_upper_slack": upper_slack, "l2_slack": l2_slack,
        "tail_mass_max": g.tail_mass[0],
        "l2_bound": l2_bound,
        "converged": g.converged[0],
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


# tail_mass is 1 - the computed sum, not a bound on the exact tail
ITEM_1 = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")


class TestFirstMomentDefect:
    """M e_1 = x for every (p, q), since M_(n,p,q) is the q-MKZ operator at
    tau = q/p: m1 - x is truncation and rounding only.  The omitted terms
    are w_k t_k with t_k < 1, so x - m1 lies in [0, exact tail] up to
    rounding."""

    def test_exact_below_p_one(self):
        grid = [0.2, 0.5, 0.8]
        table = lemma_bounds_report(PQ_CASE, grid)
        assert (np.abs(table.m1 - grid) <= table.tail_mass_max + 1e-12).all()

    def test_exact_at_p_one(self):
        grid = [0.1, 0.5, 0.9]
        for n in (1, 4, 8):
            table = lemma_bounds_report(PQParams(n, PQPair(1.0, 0.9)), grid)
            assert (np.abs(table.m1 - grid) <= table.tail_mass_max + 1e-12).all()

    @ITEM_1
    def test_defect_within_error_bound(self):
        # the error bound of f = t is its tail_mass (sup bound 1); a tail
        # that bounds the exact tail bounds |m1 - x| on every row.  Measured:
        # 434 of these 1601 rows miss it, README's row n = 10, p = 1, q =
        # 0.999, x = 0.99 among them (|m1 - x| = 9.976e-13 > 9.969e-13)
        rng = np.random.default_rng(20261022)
        cases = [(PQParams(10, PQPair(1.0, 0.999)), [0.99])]
        for _ in range(100):
            n, p, tau = rng.integers(1, 40), rng.uniform(0.9, 1.0), rng.uniform(0.5, 0.999)
            cases.append((PQParams(int(n), PQPair(p, tau * p)),
                          rng.uniform(0.0, 0.99, 16).tolist()))
        misses = rows = 0
        for params, grid in cases:
            table = lemma_bounds_report(params, grid)
            misses += int((np.abs(table.m1 - grid) > table.tail_mass_max).sum())
            rows += len(grid)
        assert misses == 0, f"{misses} of {rows} rows"
