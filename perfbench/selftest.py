"""Self-tests of the benchmark (not collected by the repo's default pytest run).

Run from the checkout root with either of:

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (str(ROOT / "src"), str(HERE)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import judge  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

TIME_KEYS = ("_s", "us_per_point", "ns_per_term")


def _cli():
    import pqmkz.cli as cli

    return cli


def _small_ops():
    """Cheap ops covering every command the workloads use."""
    return [
        ["eval", "--n", "6", "--p", "0.97", "--q", "0.85", "--fn", "paper_cubic",
         "--grid", "9:0.1:0.5", "--format", "csv"],
        ["eval", "--n", "9", "--p", "1.0", "--q", "0.995", "--fn", "x^2",
         "--grid", "5:0.98:0.995", "--format", "json"],
        ["moments", "--n", "7", "--p", "0.96", "--q", "0.86", "--grid", "21:0.0:0.9",
         "--format", "json"],
        ["identity", "--n", "12", "--p", "0.98", "--q", "0.9", "--grid", "21:0.0:0.9"],
        ["bounds", "--n", "12", "--p", "0.98", "--q", "0.9", "--fn", "abs(x-0.5)",
         "--grid", "5:0.0:0.9", "--resolution", "2049", "--format", "json"],
        ["stat", "--scheme", "expr:1-1/(n+5);1-2/(n+5)", "--fn", "1/(1+x)",
         "--eps", "0.2", "--Ns", "3,6", "--format", "csv"],
    ]


def _run_all(ops):
    cli = _cli()
    return [(rc, out) for rc, _, out in (worker.run_op(cli, argv) for argv in ops)]


def test_same_seed_same_argv():
    for name in workloads.WORKLOADS:
        a, b = workloads.cycles(name, 11), workloads.cycles(name, 11)
        first = [next(a) for _ in range(3)]
        assert first == [next(b) for _ in range(3)]
        assert first != [next(workloads.cycles(name, 12)) for _ in range(3)]
        assert first[0] != first[1]


def test_every_workload_function_has_a_judge():
    assert set(workloads.FUNCTIONS) <= set(judge.FNS)


def test_same_seed_same_outputs_and_counts():
    ops = _small_ops()
    first, second = _run_all(ops), _run_all(ops)
    assert first == second
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for i, argv in enumerate(ops):
                tracer.op = i
                worker.run_op(_cli(), argv)
        finally:
            tracer.uninstall()
        agg = tracer.aggregate()
        counts.append({k: v for k, v in agg.items() if not k.endswith(TIME_KEYS)})
    assert counts[0] == counts[1]
    assert counts[0]["engine.points"] > 0 and counts[0]["bounds.lattice_points"] > 0
    verdicts = [judge.judge(ops, first, seed=5), judge.judge(ops, second, seed=5)]
    summary = [(v.rows, v.points_checked, v.terms, v.tail_over_tol_rows,
                v.failed_ops, v.errors) for v in verdicts]
    assert summary[0] == summary[1]
    assert not verdicts[0].failed_ops, verdicts[0].errors


def _attributes():
    """Every function-valued attribute of the traced modules and their classes."""
    snap = {}
    for mod in tracing._modules().values():
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for meth, fn in vars(obj).items():
                    if isinstance(fn, types.FunctionType):
                        snap[(f"{mod.__name__}.{attr}", meth)] = fn
    return snap


def test_tracer_restores_every_attribute():
    before = _attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _attributes()
        changed = [k for k in before if during[k] is not before[k]]
        assert len(changed) >= 20
        assert ("pqmkz.cli", "evaluate") in changed
        assert ("pqmkz.statistical", "evaluate_many") in changed
    finally:
        tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.restored()


def _eval_csv_case():
    argv = _small_ops()[0]
    (rc, out), = _run_all([argv])
    header, *rows = out["stdout"].splitlines()
    return argv, rc, out, header, rows


def _judge_one(argv, rc, stdout):
    return judge.judge([argv], [(rc, {"stdout": stdout, "files": {}})], seed=1,
                       term_budget=10**9)


def test_judge_accepts_the_unmutated_output():
    argv, rc, out, _, _ = _eval_csv_case()
    v = _judge_one(argv, rc, out["stdout"])
    assert not v.failed_ops, v.errors
    assert v.points_checked == 9 and v.oracle_checks >= 1


def _allowances(argv, row):
    """(value allowance, tail allowance, exact tail) of one eval CSV row."""
    x, _, _, _, _, terms = row.split(",")[:6]
    o = judge._opts(argv)
    n, p, q, K = int(o["n"]), float(o["p"]), float(o["q"]), int(terms)
    g = judge.FNS[o["fn"]]
    tails, _ = judge._series(n, p, q, float(x), [g], k_end=K)
    gm = judge.gamma(judge._m(judge._rounding_units(n, p, q, float(x)), K))
    sup, lip = g.proved()
    T = float(tails[K])
    return T * sup + gm * (sup + lip) + 2 * g.c_units * judge.U, gm, T


def test_judge_rejects_a_value_shifted_beyond_the_allowance():
    argv, rc, out, header, rows = _eval_csv_case()
    cols = rows[4].split(",")
    allow, _, _ = _allowances(argv, rows[4])
    value = float(cols[1]) + 2.0 * allow
    cols[1] = format(value, ".17g")
    cols[3] = format(abs(value - float(cols[2])), ".17g")
    rows[4] = ",".join(cols)
    v = _judge_one(argv, rc, "\n".join([header] + rows) + "\n")
    assert v.failed_ops == {0}
    assert any("value[0]" in e for e in v.errors), v.errors


def test_judge_rejects_an_altered_tail_mass():
    argv, rc, out, header, rows = _eval_csv_case()
    for i, row in enumerate(rows):
        _, gm, T = _allowances(argv, row)
        if T > 3.0 * gm:
            break
    else:
        raise AssertionError("no row with a tail well above its allowance")
    cols = rows[i].split(",")
    cols[4] = format(T - 2.0 * gm, ".17g")
    rows[i] = ",".join(cols)
    v = _judge_one(argv, rc, "\n".join([header] + rows) + "\n")
    assert v.failed_ops == {0}
    assert any("tail_mass" in e for e in v.errors), v.errors


def test_judge_rejects_a_dropped_row():
    argv, rc, out, header, rows = _eval_csv_case()
    del rows[3]
    v = _judge_one(argv, rc, "\n".join([header] + rows) + "\n")
    assert v.failed_ops == {0}
    assert any("rows for 9 grid points" in e for e in v.errors), v.errors


def _emitted(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tail_heavy", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    return {k: m["unit"] for k, m in result["metrics"].items()}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert _emitted(0) == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert _emitted(1) == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_program_sources():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "grid_eval", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail overall
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failures else 0)
