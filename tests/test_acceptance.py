"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single PASS/FAIL line so the suite output doubles as a
checklist.  Timed tests assert wall-clock budgets with time.perf_counter.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest

from pqmkz.bounds import sup_error, thm33_bound
from pqmkz.cli import FIGURE2_PAIRS, main as cli_main
from pqmkz.engine import (
    Function,
    PQParams,
    TruncationPolicy,
    evaluate_grid_values,
    normalization_partial_sums,
)
from pqmkz.moments import lemma_bounds_report, moment_scale
from pqmkz.oracle import exact_pascal_residuals, exact_polynomial_bracket
from pqmkz.pqcore import PQPair, pq_int
from pqmkz.presets import ABS_HALF, IDENTITY, ONE, PAPER_CUBIC
from pqmkz.statistical import inverse_pq_int, scheme_paper, st_korovkin_check
from qmkz_reference import q_mkz


@contextmanager
def report(label):
    try:
        yield
    except BaseException:
        print(f"FAIL: {label}")
        raise
    print(f"PASS: {label}")


def test_acceptance_01_normalization_certified():
    with report("constant function reproduced within certified tolerance"):
        start = time.perf_counter()
        grid = [float(x) for x in np.linspace(0.0, 0.99, 101)]
        for p, q in [(1.0, 0.9), (0.95, 0.9), (0.9, 0.8)]:
            for n in range(1, 11):
                params = PQParams(n, PQPair(p, q))
                g = evaluate_grid_values(params, [ONE], grid)
                assert g.converged.all()
                assert np.all(np.abs(g.values[0] - 1.0) <= 1e-12 + 1e-13)
        assert time.perf_counter() - start < 10.0


def test_acceptance_02_floating_values_inside_exact_brackets():
    with report("floating evaluations land in exact rational brackets"):
        start = time.perf_counter()
        rng = random.Random(20260823)
        for _ in range(200):
            n = rng.randint(1, 8)
            a = rng.randint(10, 20)
            b = rng.randint(1, a - 1)
            p, q = F(a, 20), F(b, 20)
            x = F(rng.randint(0, 28), 32)
            coeffs = [F(rng.randint(-3, 3), 4) for _ in range(rng.randint(1, 4))]
            fc = [float(c) for c in coeffs]

            def poly(t, fc=fc):
                acc = 0.0
                for c in reversed(fc):
                    acc = acc * t + c
                return acc

            f = Function(poly, "poly", float(sum(abs(c) for c in coeffs)) or 1.0)
            params = PQParams(n, PQPair(float(p), float(q)))
            g = evaluate_grid_values(params, [f], [float(x)])
            br = exact_polynomial_bracket(n, p, q, x, coeffs, 48)
            slack = F(float(g.error_bound[0, 0])) + F(1, 10 ** 10)
            assert br.lower - slack <= F(float(g.values[0, 0])) <= br.upper + slack
        assert time.perf_counter() - start < 60.0


def test_acceptance_03_recurrence_residuals_exactly_zero():
    with report("both triangle recurrences hold exactly in rationals"):
        pairs = [
            (F(19, 20), F(9, 10)),
            (F(9, 10), F(4, 5)),
            (F(1), F(1, 2)),
            (F(3, 4), F(1, 2)),
            (F(99, 100), F(49, 50)),
        ]
        for p, q in pairs:
            for n in range(2, 13):
                for k in range(1, n):
                    assert exact_pascal_residuals(n, k, p, q) == (F(0), F(0))


def test_acceptance_04_reduces_to_single_parameter_form():
    with report("p = 1 evaluations match an independent one-parameter build"):
        policy = TruncationPolicy(1e-14)
        grid = [i / 10 for i in range(11)]
        for q in (0.5, 0.9, 0.99):
            for n in range(1, 11):
                params = PQParams(n, PQPair(1.0, q))
                for x in grid:
                    mine = evaluate_grid_values(params, [PAPER_CUBIC], [x], policy).values[0, 0]
                    ref = q_mkz(PAPER_CUBIC, n, q, x)
                    assert mine == pytest.approx(ref, abs=1e-12)


def test_acceptance_05_first_moment_fixed_point_at_p_one():
    with report("first moment reproduces x at p = 1 and p < 1, up to truncation"):
        grid = [float(x) for x in np.linspace(0.0, 0.99, 21)]
        for q in (0.9, 0.99):
            for n in range(1, 11):
                table = lemma_bounds_report(PQParams(n, PQPair(1.0, q)), grid)
                # m1's error bound is its tail mass: sup |t| = 1
                assert (np.abs(table.m1 - grid) <= table.tail_mass_max + 1e-12).all()
        # M e_1 = x for every (p, q), since M_(n,p,q) is the q-MKZ operator
        # at tau = q/p, so what remains at p < 1 is truncation
        worst = 0.0
        for n in range(1, 11):
            table = lemma_bounds_report(PQParams(n, PQPair(0.9, 0.8)), grid)
            assert (np.abs(table.m1 - grid) <= table.tail_mass_max + 1e-12).all()
            worst = max(worst, float(np.max(np.abs(table.m1 - grid))))
        print(f"  measured first-moment truncation at (p,q)=(0.9,0.8): {worst:.3e}")


def test_acceptance_06_second_moment_envelope_at_p_one():
    with report("second moment stays inside its envelope at p = 1"):
        grid = [float(x) for x in np.linspace(0.0, 0.99, 21)]
        for q in (0.9, 0.99):
            for n in range(1, 11):
                params = PQParams(n, PQPair(1.0, q))
                scale = moment_scale(params)
                table = lemma_bounds_report(params, grid)
                # m2's error bound is its tail mass: sup |t^2| = 1
                budget = table.tail_mass_max + 1e-13
                x = np.array(grid)
                assert (table.m2 >= x * x - budget).all()
                assert (table.m2 <= scale * x + x * x + budget).all()
        diag = lemma_bounds_report(PQParams(5, PQPair(0.9, 0.8)), [0.9])
        sign = "negative" if diag.l2_bound[0] < 0.0 else "nonnegative"
        print(f"  pointwise width bound at (0.9,0.8,n=5,x=0.9) is {sign}")


def test_acceptance_07_sup_error_within_modulus_bound():
    with report("empirical sup error within the two-modulus rate bound"):
        resolution = 4097
        grid = [float(x) for x in np.linspace(0.0, 0.96, 33)]
        for f in (IDENTITY, PAPER_CUBIC, ABS_HALF):
            for q in (0.9, 0.99):
                for n in (5, 10, 20):
                    params = PQParams(n, PQPair(1.0, q))
                    emp, max_eb, _ = sup_error(params, f, grid)
                    bound = thm33_bound(params, f, resolution)
                    slack = 8.0 / (resolution - 1) + 2.0 * max_eb
                    assert emp <= bound + slack


def test_acceptance_08_partial_sums_tighten_with_more_terms():
    with report("longer partial sums tighten the normalization defect"):
        start = time.perf_counter()
        params = PQParams(3, PQPair(0.95, 0.9))
        grid = [float(x) for x in np.linspace(0.0, 0.99, 201)]
        s100 = normalization_partial_sums(params, grid, 101)
        s500 = normalization_partial_sums(params, grid, 501)
        for x, a, b in zip(grid, s100, s500):
            d100, d500 = abs(1.0 - a), abs(1.0 - b)
            if x <= 0.9:
                assert d500 <= d100 + 1e-15
        [half] = normalization_partial_sums(params, [0.5], 501)
        assert abs(half - 1.0) <= 1e-9
        assert time.perf_counter() - start < 5.0


def test_acceptance_09_convergence_improves_toward_parameter_one():
    with report("sup gap shrinks strictly along the preset parameter ladder"):
        grid = [float(x) for x in np.linspace(0.0, 0.99, 201)]
        gaps = []
        for p, q in FIGURE2_PAIRS:
            params = PQParams(10, PQPair(p, q))
            gaps.append(sup_error(params, PAPER_CUBIC, grid)[0])
        assert gaps[0] > gaps[1] > gaps[2]


def test_acceptance_10_sequence_scheme_limits():
    with report("reference parameter sequence has the advertised limits"):
        scheme = scheme_paper()
        p1000, q1000 = scheme.rule(1000)
        assert abs(q1000 ** 1000 - math.exp(-1.0)) < 1e-3
        assert abs(p1000 ** 1000 - math.exp(-0.5)) < 1e-3
        for n in (200, 500, 1000, 2000, 5000, 10_000):
            assert inverse_pq_int(scheme, n) < 0.05


def test_acceptance_11_deviation_densities_shrink():
    with report("density of large-deviation indices shrinks with N"):
        start = time.perf_counter()
        reports = st_korovkin_check(
            scheme_paper(), PAPER_CUBIC, 0.2, [50, 100, 200]
        )
        for label, rep in reports.items():
            for earlier, later in zip(rep.densities, rep.densities[1:]):
                assert later <= earlier + 1e-15
        assert reports["1"].densities[-1] == 0.0
        assert time.perf_counter() - start < 120.0


def test_acceptance_12_cli_output_is_deterministic(tmp_path, capsys):
    with report("repeated CLI runs write byte-identical files"):
        argvs = [
            ["eval", "--n", "3", "--p", "0.95", "--q", "0.9",
             "--fn", "paper_cubic", "--grid", "21:0:0.95"],
            ["moments", "--n", "4", "--p", "0.9", "--q", "0.8",
             "--grid", "11:0:0.9"],
            ["stat", "--scheme", "paper", "--fn", "one", "--eps", "0.5",
             "--Ns", "5,10"],
        ]
        for i, argv in enumerate(argvs):
            first = tmp_path / f"first{i}.csv"
            second = tmp_path / f"second{i}.csv"
            assert cli_main(argv + ["--out", str(first)]) == 0
            assert cli_main(argv + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
        for sub in ("runA", "runB"):
            assert cli_main(
                ["figure", "--id", "2", "--n", "4", "--out", str(tmp_path / sub)]
            ) == 0
        capsys.readouterr()
        for name in sorted(f.name for f in (tmp_path / "runA").iterdir()):
            a = (tmp_path / "runA" / name).read_bytes()
            b = (tmp_path / "runB" / name).read_bytes()
            assert a == b
