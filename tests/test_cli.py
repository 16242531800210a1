import csv
import json

import numpy as np
import pytest

from pqmkz.cli import main, resolve_function


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

    @pytest.mark.parametrize("fn", ["x^2", "sin(40*x)*exp(0-x)", "paper_cubic"])
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
        ],
    )
    def test_eval_exit_2(self, capsys, argv):
        argv = argv[:1] + ["--n", "3", "--p", "0.95", "--q", "0.9"] + argv[1:]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

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
        code_b, out_b, _ = run(capsys, "bounds", *common)
        code_e, out_e, _ = run(capsys, "eval", *common)
        assert code_b == code_e == 0
        assert out_b == out_e
        assert len(out_b.splitlines()) == 10


class TestFigures:
    def test_figure1_outputs(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figure", "--id", "1", "--out", str(tmp_path))
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "figure1.csv").open()))
        assert len(rows) == 201
        for row in rows[::40]:
            assert float(row["defect_k500"]) <= float(row["defect_k100"]) + 1e-15

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
