import argparse
import csv
import gc
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
import weakref
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqmkz import cli, engine
from pqmkz.cli import DEFAULT_POLICY, build_parser, main, resolve_function
from pqmkz.engine import PQParams
from pqmkz.moments import MOMENT_CSV_COLUMNS, default_moment_grid, lemma_bounds_report
from pqmkz.pqcore import PQPair


ROOT = Path(__file__).resolve().parent.parent


def _cli_bytes():
    spec = importlib.util.spec_from_file_location(
        "cli_bytes", ROOT / "tools" / "cli_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# README's pqmkz lines and the byte judge's edge argvs, help and usage
# errors included
_CLI_BYTES = _cli_bytes()
PARSER_ARGVS = _CLI_BYTES.readme_argvs() + _CLI_BYTES.EDGE
COMMANDS = ["eval", "moments", "bounds", "identity", "figure", "stat"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_single_point_prints_key_values(self, capsys):
        code, out, err = run(
            capsys, "eval", "--n", "3", "--p", "0.95", "--q", "0.9",
            "--fn", "one", "--x", "0.5",
        )
        assert code == 0
        assert err == ""
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert abs(float(lines["value"]) - 1.0) <= 1e-12
        assert lines["converged"] == "true"

    def test_grid_csv(self, capsys, tmp_path):
        target = tmp_path / "eval.csv"
        code, _, _ = run(
            capsys, "eval", "--n", "2", "--p", "1", "--q", "0.9",
            "--fn", "identity", "--grid", "5:0:0.8", "--out", str(target),
        )
        assert code == 0
        rows = list(csv.DictReader(target.open()))
        assert len(rows) == 5
        assert float(rows[-1]["x"]) == pytest.approx(0.8)
        for row in rows:
            assert abs(float(row["abs_error"])) <= 1e-9

    def test_json_payload(self, capsys, tmp_path):
        target = tmp_path / "eval.json"
        code, _, _ = run(
            capsys, "eval", "--n", "2", "--p", "0.95", "--q", "0.9",
            "--fn", "x^2", "--grid", "3", "--format", "json",
            "--out", str(target),
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["schema_version"] == 1
        assert len(payload["results"]) == 3

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run(
            capsys, "eval", "--n", "3", "--p", "0.8", "--q", "0.9",
            "--x", "0.5",
        )
        assert code == 2
        assert "0 < q < p <= 1" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(
            capsys, "eval", "--n", "3", "--p", "0.95", "--q", "0.9",
            "--fn", "x^^2", "--x", "0.5",
        )
        assert code == 2
        assert "position 3" in err

    def test_missing_subcommand_exit_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_nonconvergence_exit_1(self, capsys, tmp_path):
        target = tmp_path / "partial.csv"
        code, _, _ = run(
            capsys, "eval", "--n", "3", "--p", "0.95", "--q", "0.9",
            "--fn", "one", "--x", "0.9", "--kmax", "5", "--out", str(target),
        )
        assert code == 1
        assert target.exists()

    @pytest.mark.parametrize(
        "fn", ["x^2", "sin(40*x)*exp(0-x)", "paper_cubic", "x*-2-x^2*exp(-x)"])
    def test_f_x_column_is_the_array_evaluator(self, capsys, fn):
        code, out, _ = run(
            capsys, "eval", "--n", "5", "--p", "0.95", "--q", "0.9",
            "--fn", fn, "--grid", "381:0:0.9",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        xs = np.array([float(row["x"]) for row in rows])
        f_x = np.array([float(row["f_x"]) for row in rows])
        want = resolve_function(fn).values(xs)
        assert f_x.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_a_row_that_stops_at_the_tail_target_converges(self, capsys):
        # fl(1 - 1e-8) lies one ulp below the least sum whose tail is within
        # 1e-8, and w_0 here is that double: a row that stopped at it would
        # read terms=1 and converged=false
        code, out, err = run(
            capsys, "eval", "--n", "1", "--p", "1", "--q", "0.5",
            "--x", "6.666666677972444e-09", "--tol", "1e-8",
        )
        assert code == 0
        assert err == ""
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert lines["terms"] == "2"
        assert lines["converged"] == "true"
        assert float(lines["tail_mass"]) <= 1e-8

    def test_readme_quotes_the_printed_tail_mass(self, capsys):
        # README.md quotes this argv's tail_mass line, so a drift in the
        # last bits must update the quote too
        code, out, _ = run(
            capsys, "eval", "--n", "10", "--p", "1", "--q", "0.999",
            "--fn", "one", "--x", "0.99",
        )
        assert code == 0
        [line] = [s for s in out.splitlines() if s.startswith("tail_mass=")]
        readme = Path(__file__).resolve().parent.parent / "README.md"
        assert f"`{line}`" in readme.read_text()


class TestSupBound:
    def test_sup_bound_replaces_the_preset_bound(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--n", "3", "--p", "0.95", "--q", "0.9", "--fn", "one",
            "--x", "0.5", "--sup-bound", "0.5",
        )
        assert code == 0
        row = dict(line.split("=") for line in out.splitlines())
        assert float(row["error_bound"]) == float(row["tail_mass"]) * 0.5

    def test_bounds_sup_bound_replaces_the_preset_bound(self, capsys):
        # as in eval: f's own bound, in the csv rows and in the JSON report
        common = ["bounds", "--n", "3", "--p", "0.95", "--q", "0.9", "--fn", "one",
                  "--grid", "5:0:0.9", "--sup-bound", "0.5"]
        code, out, _ = run(capsys, *common, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        tails = [float(row["tail_mass"]) for row in rows]
        assert [float(row["error_bound"]) for row in rows] == [t * 0.5 for t in tails]
        code, out, _ = run(capsys, *common)
        assert code == 0
        assert json.loads(out)["max_truncation_bound"] == max(t * 0.5 for t in tails)

    @pytest.mark.parametrize("bad", ["-1", "nan", "inf"])
    def test_bounds_rejects_sup_bound_as_eval_does(self, capsys, bad):
        common = ["--n", "3", "--p", "0.95", "--q", "0.9", "--fn", "one",
                  "--grid", "3:0:0.9", "--sup-bound", bad]
        results = [run(capsys, command, *common) for command in ("eval", "bounds")]
        assert results[0] == results[1]
        code, out, err = results[1]
        assert code == 2 and out == ""
        assert err.startswith("error: sup_hint must be finite and >= 0, got ")
        assert len(err.splitlines()) == 1

    def test_bounds_huge_constant_with_sup_bound(self, capsys):
        # 2 f overflows on the modulus lattice, yet its second differences
        # are 0
        code, out, err = run(
            capsys, "bounds", "--n", "3", "--p", "0.95", "--q", "0.9",
            "--fn", "1e308", "--sup-bound", "1e308", "--grid", "5:0:1",
        )
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["omega2_sup"] == 0.0 and report["thm33_bound"] == 0.0

    def test_parsed_function_is_freed_after_main(self, capsys, monkeypatch):
        # the heuristic sup bound is stored on f, so nothing keeps f alive
        refs = []

        def tracked(spec):
            f = resolve_function(spec)
            refs.append(weakref.ref(f))
            return f

        monkeypatch.setattr(cli, "resolve_function", tracked)
        code, out, _ = run(
            capsys, "eval", "--n", "3", "--p", "0.95", "--q", "0.9",
            "--fn", "sin(3*x)", "--grid", "3:0:0.9",
        )
        assert code == 0 and out
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None


class TestRejections:
    """Inputs the program cannot handle exit 2 with one error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--fn", "(x-2)^0.5", "--x", "1"],
            ["eval", "--fn", "exp(1000*x)", "--x", "1"],
            ["eval", "--fn", "exp(1000*x)", "--x", "0.5"],
            ["eval", "--fn", "x+1e999", "--x", "0.5"],
            ["eval", "--fn", "one", "--x", "0.5", "--tol", "nan"],
            ["eval", "--fn", "one", "--x", "0.5", "--tol", "inf"],
            ["eval", "--fn", "one", "--x", "0.5", "--sup-bound", "nan"],
            ["eval", "--fn", "one", "--x", "0.5", "--sup-bound", "inf"],
            ["eval", "--fn", "one", "--x", "0.5", "--sup-bound", "-1"],
        ],
    )
    def test_eval_exit_2(self, capsys, argv):
        argv = argv[:1] + ["--n", "3", "--p", "0.95", "--q", "0.9"] + argv[1:]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    def test_an_allocation_that_fails_exits_2(self, capsys, monkeypatch):
        # numpy raises a MemoryError for an array too large for memory, as
        # at --resolution 1000000000 under a memory limit
        message = "Unable to allocate 7.45 GiB for an array with shape (1000000000,)"

        def fail(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli.bounds_mod, "bound_report", fail)
        code, out, err = run(capsys, "bounds", "--n", "3", "--p", "0.95", "--q", "0.9",
                             "--grid", "5:0:0.9", "--resolution", "1000000000")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "300", "--p", "1", "--q", "0.99999999", "--fn", "sqrt(x-0.5)",
              "--grid", "4:0:0.99"], "invalid value encountered in sqrt"),
            (["--n", "300", "--p", "1", "--q", "0.99999999", "--fn", "one",
              "--grid", "4:0:0.99"], "leading weight underflows"),
            # x = 0.001 uses nodes in (0.3, 0.5) only; x = 0.9 also uses
            # nodes above 0.71, where exp(1000*x) overflows first
            (["--n", "3", "--p", "0.95", "--q", "0.9",
              "--fn", "exp(1000*x)*0+sqrt((x-0.3)*(x-0.5))",
              "--grid", "2:0.001:0.9"], "invalid value encountered in sqrt"),
        ],
    )
    def test_eval_grid_reports_the_first_failing_x(self, capsys, argv, message):
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("spec", ["abc", "2.5", "3:a:b", "1:2", ""])
    @pytest.mark.parametrize("command", ["eval", "moments", "identity", "bounds"])
    def test_malformed_grid_exit_2(self, capsys, command, spec):
        code, out, err = run(capsys, command, "--n", "3", "--p", "0.95", "--q", "0.9",
                             "--grid", spec)
        assert code == 2
        assert out == ""
        assert err == f"error: grid spec must be COUNT or COUNT:LO:HI, got {spec!r}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "--id", "1", "--fn", "x^2"],
            ["figure", "--id", "1", "--tol", "1e-3"],
            ["figure", "--id", "1", "--fn", "x^2", "--tol", "1e-3", "--kmax", "7"],
            ["figure", "--id", "2", "--p", "0.5"],
            ["figure", "--id", "2", "--p", "0.5", "--q", "0.1"],
            ["eval", "--n", "3", "--p", "0.95", "--q", "0.9", "--x", "0.5",
             "--grid", "5:0:0.9"],
        ],
        ids=" ".join,
    )
    def test_options_that_would_be_ignored_exit_2(self, capsys, tmp_path, argv):
        out_dir = tmp_path / "fig"
        if argv[0] == "figure":
            argv = [*argv, "--out", str(out_dir)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--scheme", "expr:1-(n-3)^0.5/100;0.5"],
            ["--scheme", "expr:exp(1000*n);0.5"],
            ["--eps", "nan"],
        ],
    )
    def test_stat_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "stat", *argv, "--Ns", "5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--grid", "5:0:1"],
            ["eval", "--grid", "3:0:1", "--format", "json"],
            ["bounds", "--grid", "5:0:1", "--format", "csv"],
        ],
    )
    def test_huge_constant_has_no_finite_sup_bound(self, capsys, argv):
        # 2 * max|f| overflows: no error bound, so no Infinity or NaN in JSON
        # and no overflow warning from the moduli
        code, out, err = run(
            capsys, argv[0], "--n", "3", "--p", "0.95", "--q", "0.9",
            "--fn", "1.7976931348623157e308", *argv[1:],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: the heuristic sup bound 2*max|f|")
        assert len(err.splitlines()) == 1
        assert err.rstrip().endswith("; give a finite one with --sup-bound")

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--n", "3", "--p", "0.95", "--q", "0.9", "--fn", "one",
             "--grid", "3", "--out", "{tmp}/missing/x.csv"],
            ["eval", "--n", "3", "--p", "0.95", "--q", "0.9", "--fn", "one",
             "--grid", "3", "--out", "{tmp}"],
            ["figure", "--id", "1", "--out", "{tmp}/file/fig"],
        ],
    )
    def test_unwritable_out_exit_2(self, capsys, tmp_path, argv):
        (tmp_path / "file").write_text("")
        code, out, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    def test_bounds_overflowing_modulus_exit_2(self, capsys):
        # 2 * max|f| is finite, but 2 * omega(f, delta) is not: no Infinity in
        # the JSON, no verdict and no overflow warning
        code, out, err = run(
            capsys, "bounds", "--n", "3", "--p", "0.95", "--q", "0.9",
            "--fn", "8e307*sin(40*x)", "--grid", "5:0:1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: thm33_bound is inf: the moduli of f overflow\n"


class TestMomentsIdentityBounds:
    def test_moments_json(self, capsys, tmp_path):
        target = tmp_path / "moments.json"
        code, _, _ = run(
            capsys, "moments", "--n", "3", "--p", "1", "--q", "0.9",
            "--grid", "5:0:0.9", "--format", "json", "--out", str(target),
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["schema_version"] == 1
        assert len(payload["rows"]) == 5
        first = payload["rows"][0]
        assert first["x"] == 0.0
        assert abs(first["m0"] - 1.0) <= 1e-12

    def test_moments_default_grid_rows_equal_one_point_rows(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--n", "3", "--p", "0.9", "--q", "0.8",
            "--format", "json",
        )
        assert code == 0
        params = PQParams(3, PQPair(0.9, 0.8))
        grid = default_moment_grid()
        assert grid[-1] == 1.0
        # the table's columns as rows; tests/test_moments.py holds each entry
        # to the one-point formulas at its x
        table = lemma_bounds_report(params, grid)
        columns = [getattr(table, name).tolist() for name in MOMENT_CSV_COLUMNS]
        want = [dict(zip(MOMENT_CSV_COLUMNS, row)) for row in zip(*columns)]
        assert json.loads(out)["rows"] == want
        last = want[-1]
        assert [last[c] for c in ("x", "m0", "m1", "m2", "tail_mass_max")] == [
            1.0, 1.0, 1.0, 1.0, 0.0
        ]

    def test_identity_csv(self, capsys, tmp_path):
        target = tmp_path / "identity.csv"
        code, _, _ = run(
            capsys, "identity", "--n", "4", "--p", "0.95", "--q", "0.9",
            "--grid", "6:0:0.9", "--out", str(target),
        )
        assert code == 0
        rows = list(csv.DictReader(target.open()))
        assert len(rows) == 6
        for row in rows:
            assert float(row["defect"]) <= 1e-12
            assert row["converged"] == "true"

    def test_identity_json_rows_equal_csv_rows(self, capsys):
        common = [
            "identity", "--n", "4", "--p", "0.95", "--q", "0.9",
            "--grid", "6:0:0.9",
        ]
        code_c, out_c, _ = run(capsys, *common)
        code_j, out_j, _ = run(capsys, *common, "--format", "json")
        assert code_c == code_j == 0
        payload = json.loads(out_j)
        assert payload["schema_version"] == 1
        csv_rows = list(csv.DictReader(out_c.splitlines()))
        assert len(payload["rows"]) == len(csv_rows) == 6
        for got, want in zip(payload["rows"], csv_rows):
            assert list(got) == list(want)
            assert got["x"] == float(want["x"])
            assert got["defect"] == float(want["defect"])
            assert got["converged"] == (want["converged"] == "true")

    @pytest.mark.parametrize(
        "lip",
        [["--lip-M", m] for m in ("-1", "0", "nan", "inf")]
        + [["--lip-M", "1", "--alpha", a] for a in ("2", "nan")],
        ids=" ".join,
    )
    def test_bounds_rejects_bad_lipschitz_class(self, capsys, lip):
        code, out, err = run(
            capsys, "bounds", "--n", "3", "--p", "0.95", "--q", "0.9",
            "--grid", "5:0:0.9", "--resolution", "257", *lip,
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "ignored",
        [["--alpha", "2"], ["--alpha", "0.5"]]
        + [["--format", "csv", *o] for o in (
            ["--lip-M", "-5"], ["--lip-M", "1"], ["--alpha", "1"],
            ["--lip-M", "1", "--alpha", "1"],
        )],
        ids=" ".join,
    )
    def test_bounds_rejects_options_it_would_ignore(self, capsys, ignored):
        code, out, err = run(
            capsys, "bounds", "--n", "3", "--p", "0.95", "--q", "0.9",
            "--grid", "5:0:0.9", "--resolution", "257", *ignored,
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    def test_bounds_alpha_defaults_to_one_with_lip_m(self, capsys):
        common = [
            "bounds", "--n", "3", "--p", "1", "--q", "0.9", "--grid", "5:0:0.9",
            "--resolution", "257", "--lip-M", "2",
        ]
        code, out, _ = run(capsys, *common)
        assert code == 0
        assert json.loads(out)["lipschitz_bound"] is not None
        assert run(capsys, *common, "--alpha", "1") == (code, out, "")

    def test_bounds_json_default_format(self, capsys, tmp_path):
        target = tmp_path / "bounds.json"
        code, _, _ = run(
            capsys, "bounds", "--n", "3", "--p", "1", "--q", "0.9",
            "--fn", "paper_cubic", "--grid", "9:0:0.9",
            "--resolution", "257", "--out", str(target),
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["schema_version"] == 1
        assert payload["empirical_sup_error"] <= payload["thm33_bound"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_bounds_nonconvergence_exit_1(self, capsys, fmt):
        code, out, _ = run(
            capsys, "bounds", "--n", "3", "--p", "0.95", "--q", "0.9",
            "--grid", "3:0:0.9", "--kmax", "5", "--format", fmt,
        )
        assert code == 1
        if fmt == "csv":
            rows = list(csv.DictReader(out.splitlines()))
            assert [row["converged"] for row in rows] == ["true", "false", "false"]
        else:
            assert json.loads(out)["grid_size"] == 3

    def test_bounds_csv_matches_eval_csv(self, capsys):
        common = [
            "--n", "3", "--p", "0.95", "--q", "0.9", "--fn", "paper_cubic",
            "--grid", "9:0:0.9", "--format", "csv",
        ]
        code_b, out_b, _ = run(capsys, "bounds", *common, "--resolution", "1025")
        code_e, out_e, _ = run(capsys, "eval", *common)
        assert code_b == code_e == 0
        assert out_b == out_e
        assert len(out_b.splitlines()) == 10


    def test_identity_judges_the_sum_the_kernel_stopped_on(self, capsys):
        # this row's weights, summed pairwise, fall 1.0006e-12 short of 1;
        # the running sum that the kernel stopped on falls 9.9964e-13 short
        code, out, _ = run(
            capsys, "identity", "--n", "11", "--p", "0.917741966803958",
            "--q", "0.6788234803832475",
            "--grid", "1:0.9410078059022056:0.9410078059022056", "--tol", "1e-12",
        )
        assert code == 0
        assert out.splitlines()[1] == "0.94100780590220556,9.9964481137249095e-13,true"

    def test_identity_flags_are_eval_one_flags(self, capsys):
        # where the kernel's sum S_K is at most 1, identity's defect is eval
        # --fn one's tail mass, so its flag is eval's
        rng = np.random.default_rng(29)
        rows = 0
        for _ in range(30):
            n = int(rng.integers(1, 30))
            p = float(rng.uniform(0.9, 1.0))
            q = p * float(rng.uniform(0.5, 0.999))
            tol = 10.0 ** -int(rng.integers(6, 13))
            lo = float(rng.uniform(0.0, 0.9))
            hi = float(rng.uniform(lo, 0.99))
            argv = ["--n", str(n), "--p", repr(p), "--q", repr(q), "--tol", repr(tol),
                    "--grid", f"25:{lo!r}:{hi!r}", "--format", "json"]
            _, out, _ = run(capsys, "identity", *argv)
            ident = json.loads(out)["rows"]
            _, out, _ = run(capsys, "eval", *argv, "--fn", "one")
            evals = json.loads(out)["results"]
            chunks = engine._row_chunks(PQParams(n, PQPair(p, q)),
                                        np.linspace(lo, hi, 25), tol, DEFAULT_POLICY.k_max)
            totals = np.concatenate([total for *_, total in chunks])
            for a, b, total in zip(ident, evals, totals.tolist()):
                if total <= 1.0:
                    rows += 1
                    assert (a["defect"], a["converged"]) == (b["tail_mass"],
                                                             b["converged"])
        assert rows > 600


class TestFigures:
    def test_figure1_outputs(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figure", "--id", "1", "--out", str(tmp_path))
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "figure1.csv").open()))
        assert len(rows) == 201
        for row in rows[::40]:
            assert float(row["defect_k500"]) <= float(row["defect_k100"]) + 1e-15

    def test_figure2_defaults_are_the_explicit_options(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "figure", "--id", "2", "--n", "3", "--out", str(tmp_path / "a"),
        )
        assert code == 0
        code, _, _ = run(
            capsys, "figure", "--id", "2", "--n", "3", "--fn", "paper_cubic",
            "--tol", "1e-12", "--kmax", "100000", "--out", str(tmp_path / "b"),
        )
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name).read_bytes()

    def test_failing_figure_leaves_no_directory(self, capsys, tmp_path):
        out = tmp_path / "fig"
        code, _, err = run(
            capsys, "figure", "--id", "1", "--n", "300", "--p", "1",
            "--q", "0.99999999", "--out", str(out),
        )
        assert code == 2 and "underflows" in err
        assert not out.exists()

    def test_figure2_outputs(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "figure", "--id", "2", "--n", "4", "--out", str(tmp_path),
        )
        assert code == 0
        summary = list(csv.DictReader((tmp_path / "figure2_supgap.csv").open()))
        assert len(summary) == 3
        gaps = [float(row["sup_gap"]) for row in summary]
        assert gaps[0] > gaps[1] > gaps[2]
        assert (tmp_path / "figure2_p0.95_q0.9.csv").exists()


class TestStat:
    def test_small_run_csv(self, capsys, tmp_path):
        target = tmp_path / "stat.csv"
        code, _, _ = run(
            capsys, "stat", "--scheme", "paper", "--fn", "paper_cubic",
            "--eps", "0.2", "--Ns", "10,20", "--out", str(target),
        )
        assert code == 0
        rows = list(csv.DictReader(target.open()))
        assert len(rows) == 8
        assert {row["g"] for row in rows} == {"1", "t", "t^2", "paper_cubic"}

    def test_constant_scheme_spec(self, capsys, tmp_path):
        target = tmp_path / "stat.json"
        code, _, _ = run(
            capsys, "stat", "--scheme", "constant:0.95:0.9", "--fn", "one",
            "--eps", "0.5", "--Ns", "5,10", "--format", "json",
            "--out", str(target),
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["scheme"] == "constant(0.95,0.9)"

    def test_bad_scheme_exit_2(self, capsys):
        code, _, err = run(capsys, "stat", "--scheme", "nope", "--Ns", "5")
        assert code == 2
        assert "unknown scheme" in err


def _reference_fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _reference_csv(header, columns) -> str:
    """The row-at-a-time CSV writer the columnar one replaced."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([_reference_fmt(v) for v in row])
    return out.getvalue()


def _reference_json(key, header, columns) -> str:
    """The indenting json.dumps of the payload of one object per row."""
    rows = [dict(zip(header, row)) for row in zip(*columns)]
    return json.dumps({"schema_version": 1, key: rows}, indent=2) + "\n"


def _stdout_lines(write, *args) -> list[str]:
    """What write prints, split at "\\n".  Lists, not text: pytest's text
    diff of a failing 300-row table makes shrinking take minutes."""
    out = io.StringIO()
    with redirect_stdout(out):
        write(None, *args)
    return out.getvalue().split("\n")


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                     5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3]),
)
_INTS = st.one_of(st.integers(-2**63, 2**63 - 1),
                  st.sampled_from([-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 1]))
_FLAGS = st.booleans()
_TEXT = st.text(st.sampled_from(list('ab ,"\'\n\r%{}:\\\té\u2028')), max_size=6)

# a numpy dtype per value strategy; str columns are CSV only
_JSON_KINDS = [(_FLOATS, np.float64), (_INTS, np.int64), (_FLAGS, np.bool_)]
_CSV_KINDS = [*_JSON_KINDS, (_TEXT, np.str_)]


@st.composite
def _table(draw, kinds):
    """(header, columns, values): typed numpy columns, each passed as an
    array, a list or a tuple of its values, and the Python values of each."""
    rows = draw(st.integers(1, 300))
    header = draw(st.lists(st.text(st.sampled_from(list('ab_%"\\ ,')), min_size=1,
                                   max_size=4), min_size=1, max_size=6, unique=True))
    columns, values = [], []
    for _ in header:
        strategy, dtype = draw(st.sampled_from(kinds))
        # a drawn pool of values repeated to the row count: drawing every
        # value of 300 rows makes each example slow
        pool = draw(st.lists(strategy, min_size=1, max_size=40))
        column = (pool * rows)[:rows]
        values.append(column)
        columns.append(draw(st.sampled_from([np.array(column, dtype=dtype),
                                             column, tuple(column)])))
    return header, columns, values


class TestColumnarWriter:
    """The columnar writers give the bytes of the row-at-a-time ones."""

    @given(table=_table(_CSV_KINDS))
    @settings(max_examples=150, deadline=None)
    def test_csv_equals_row_writer(self, table):
        header, columns, values = table
        assert _stdout_lines(cli._write_csv, header, columns) == (
            _reference_csv(header, values).split("\n"))

    @given(table=_table(_JSON_KINDS), key=st.sampled_from(["rows", "results"]))
    @settings(max_examples=150, deadline=None)
    def test_json_equals_indented_dumps(self, table, key):
        header, columns, values = table
        assert _stdout_lines(cli._write_json_rows, key, header, columns) == (
            _reference_json(key, header, values).split("\n"))

    @pytest.mark.parametrize("key", ["rows", "results"])
    def test_empty_table(self, key):
        header, columns = ["x", "y"], [[], []]
        assert _stdout_lines(cli._write_csv, header, columns) == ["x,y", ""]
        assert _stdout_lines(cli._write_json_rows, key, header, columns) == (
            _reference_json(key, header, columns).split("\n"))

    @pytest.mark.parametrize("column", [["a,b"], np.array(["a"]), [None], [2**64]])
    def test_json_rejects_columns_that_are_not_numbers_or_bools(self, column):
        with pytest.raises(TypeError, match="no JSON column"):
            _stdout_lines(cli._write_json_rows, "rows", ["s"], [column])

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("text", ["a,b", 'a"b', "a\nb", "a\rb", ""],
                             ids=["comma", "quote", "newline", "return", "empty"])
    def test_csv_quotes_text_as_csv_writer_does(self, text, width):
        """Text fields are quoted by the running Python's csv.writer, as
        values and as header names: 3.13 quotes "\\r" and 3.10-3.12 do not.
        An empty text is '""' as its row's one field, and empty beside
        others."""
        header = ["s", "x", "n"][:width]
        columns = [[text, "b", text], [0.5, 1.0, 2.0], [1, 2, 3]][:width]
        assert _stdout_lines(cli._write_csv, header, columns) == (
            _reference_csv(header, columns).split("\n"))
        header = [text, "x", "n"][:width]
        assert _stdout_lines(cli._write_csv, header, columns) == (
            _reference_csv(header, columns).split("\n"))

    @pytest.mark.parametrize("column", [[None], [2**64], [b"a"]])
    def test_csv_rejects_columns_of_no_table_dtype(self, column):
        with pytest.raises(TypeError, match="no CSV column"):
            _stdout_lines(cli._write_csv, ["s"], [column])


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path):
        argvs = [
            ["eval", "--n", "3", "--p", "0.95", "--q", "0.9",
             "--fn", "paper_cubic", "--grid", "21:0:0.95"],
            ["moments", "--n", "3", "--p", "0.9", "--q", "0.8",
             "--grid", "11:0:0.9"],
        ]
        for i, argv in enumerate(argvs):
            a = tmp_path / f"a{i}.csv"
            b = tmp_path / f"b{i}.csv"
            assert main(argv + ["--out", str(a)]) == 0
            assert main(argv + ["--out", str(b)]) == 0
            capsys.readouterr()
            assert a.read_bytes() == b.read_bytes()


    def test_long_rows_print_the_same_bytes_at_any_blas_thread_count(self):
        # rows of 14k-29k terms, past OpenBLAS's threading threshold of about
        # 10 000 terms for one dot
        argv = ["eval", "--n", "5", "--p", "1", "--q", "0.999", "--fn", "sin(40*x)",
                "--grid", "9:0.99:0.999"]
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                       OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "pqmkz.cli", *argv], env=env,
                                  capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


def _parse(capsys, parser, argv):
    """What parser.parse_args(argv) gives (the repr of the namespace, whose
    nan equals nan, or the exit code) and prints."""
    try:
        result = repr(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=shlex.join)
    def test_the_named_command_parses_as_the_full_build(self, capsys, argv):
        # namespaces, help texts and usage errors alike
        named = build_parser(argv[0] if argv else None)
        assert _parse(capsys, named, argv) == _parse(capsys, build_parser(), argv)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_texts_are_the_full_builds(self, capsys, command):
        # the top level's, and the command's own
        assert build_parser(command).format_help() == build_parser().format_help()
        argv = [command, "--help"]
        result, out, err = _parse(capsys, build_parser(command), argv)
        assert (result, out, err) == _parse(capsys, build_parser(), argv)
        assert result == 0 and out.startswith(f"usage: pqmkz {command}") and err == ""

    def test_main_adds_the_options_of_the_named_command_only(self, capsys,
                                                             monkeypatch):
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def record(parser, *args, **kwargs):
            added.append((parser.prog, args))
            return add_argument(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", record)
        code, _, _ = run(capsys, "eval", "--n", "3", "--p", "0.95", "--q", "0.9",
                         "--fn", "one", "--x", "0.5")
        assert code == 0
        options = [prog for prog, args in added if args != ("-h", "--help")]
        assert set(options) == {"pqmkz eval"}
        assert len(options) == 11
        # two parsers built, each with its own -h: the top level and eval
        helps = [prog for prog, args in added if args == ("-h", "--help")]
        assert helps == ["pqmkz", "pqmkz eval"]
        # and every command still registered by name: the usage line's
        # choices list all six
        usage = build_parser("eval").format_usage()
        assert "{" + ",".join(COMMANDS) + "}" in usage


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("fmt, first", [("csv", b"x,value,"), ("json", b"{")],
                             ids=["csv", "json"])
    def test_reader_closing_the_pipe_exits_1_quietly(self, fmt, first, unbuffered):
        # 20 000 rows fill the pipe long before the run ends, so the writer
        # meets the closed pipe mid-output.  Unbuffered, a write the pipe
        # takes only in part loses its rest silently, so only a later write
        # meets the closed pipe: every row must be its own write
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "pqmkz.cli", "eval", "--n", "5", "--p",
             "0.95", "--q", "0.9", "--fn=-x", "--grid", "20000:0:0.9",
             "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(first)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert err == b""
