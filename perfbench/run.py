#!/usr/bin/env python3
"""pqmkz benchmark: seeded CLI workloads in a closed loop, judged outputs.

Run from the checkout root:

    python3 perfbench/run.py --workload grid_eval --seed 1 --seconds 15 --trace 0

One worker process runs the workload's ops through ``pqmkz.cli.main(argv)``
one after another (a single-client closed loop, BLAS/OpenMP threads pinned to
1).  With ``--trace 0`` it runs a warm-up cycle and then whole cycles for
``--seconds`` and reports the end-to-end metrics; ``setup_s`` is the median
wall time of fresh interpreters running ``import pqmkz.cli``.  End-to-end
times are scaled by a reference run next to them (see CAL_REF and
SETUP_REF), so that the host's speed drift does not show as a change of the
program.  With ``--trace 1`` it alternates plain and traced passes over one
fixed cycle and reports the per-layer metrics.  Every op's output is judged after the timed
region by ``judge.py``; a sample of ops is rerun to check byte-identical
output.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import socket
import statistics
import subprocess
import sys
import time
from multiprocessing.connection import Connection
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 11
RERUNS = 3
SPANS_FILE = ".bench_out/spans.jsonl"
# Times are scaled to a host on which worker.calibrate() takes CAL_REF
# seconds: t * CAL_REF / (calibration time measured next to t).
CAL_REF = 0.015
# Set-up times are scaled to a host on which a bare interpreter start
# (``python3 -c pass``, same environment) takes SETUP_REF seconds.  Process
# start-up drifts with the host differently from the calibration kernel.
SETUP_REF = 0.08
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "engine.self_s": "s", "engine.us_per_point": "us", "engine.points": "count",
    "engine.fvalue_elems": "count", "engine.fvalue_redundancy": "ratio",
    "engine.terms": "count", "engine.ns_per_term": "ns",
    "engine.nonconverged_points": "count", "engine.tail_over_tol_rows": "count",
    "engine.flag_flip_rows": "count",
    "bounds.self_s": "s", "bounds.modulus_s": "s", "bounds.second_modulus_s": "s",
    "bounds.lattice_points": "count", "bounds.sup_error_s": "s",
    "statistical.self_s": "s", "statistical.scheme_build_s": "s",
    "statistical.n_evaluated": "count", "statistical.excluded_n": "count",
    "expressions.self_s": "s", "expressions.parse_calls": "count",
    "expressions.parse_s": "s", "expressions.eval_elems": "count",
    "expressions.eval_s": "s", "moments.self_s": "s", "pqcore.calls": "count",
    "pqcore.self_s": "s", "presets.self_s": "s", "cli.self_s": "s",
    "cli.bytes_out": "bytes", "trace.op_wall_s": "s",
    "trace.unattributed_s": "s", "trace.overhead_ratio": "ratio",
}


def _start_wall(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{code!r} failed: {proc.stderr.decode()[-500:]}")
    return wall


def _setup_probes(count: int) -> list[float]:
    """Scaled wall times of ``count`` fresh ``import pqmkz.cli`` interpreters.

    Bare interpreter starts run before the first probe and after each one; a
    probe is scaled by the mean of the two around it.
    """
    refs = [_start_wall("pass")]
    walls = []
    for _ in range(count):
        walls.append(_start_wall("import pqmkz.cli"))
        refs.append(_start_wall("pass"))
    return [w * SETUP_REF / ((a + b) / 2) for w, a, b in zip(walls, refs, refs[1:])]


class Worker:
    """The worker process and its connection; ``close`` stops and reaps it.

    The worker is a plain child process (``subprocess``), talking over one end
    of a socket pair, so that no helper process (such as multiprocessing's
    resource tracker) is started that could outlive the run.
    """

    def __init__(self):
        mine, theirs = socket.socketpair()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(ROOT),
                 str(theirs.fileno())],
                pass_fds=(theirs.fileno(),))
        except BaseException:
            mine.close()
            raise
        finally:
            theirs.close()
        self.conn = Connection(mine.detach())

    def close(self) -> None:
        try:
            self.conn.send(("stop",))
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.conn.close()


def _percentile(values, q):
    """Inclusive-method quantile q in (0, 1) of a nonempty list."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _timed(wk, workload, seed, seconds):
    wk.conn.send(("timed", workload, seed, seconds))
    ops, results, walls, cycle_of, cals = [], [], [], [], []
    # The worker draws the same cycles from the same seed.
    flat = ((c, argv) for c, cycle in enumerate(workloads.cycles(workload, seed))
            for argv in cycle)
    while True:
        msg = wk.conn.recv()
        if msg[0] == "done":
            elapsed, maxrss_kb = msg[1], msg[2]
            break
        if msg[0] == "cal":
            cals.append(msg[1])
            continue
        c, argv = next(flat)
        ops.append(argv)
        cycle_of.append(c)
        results.append((msg[1], msg[3]))
        walls.append(msg[2])
    picks = random.Random(f"rerun:{seed}").sample(
        [i for i, c in enumerate(cycle_of) if c > 0], RERUNS)
    wk.conn.send(("rerun", [ops[i] for i in picks]))
    again = wk.conn.recv()[1]
    rerun_bad = [i for i, (rc, _, out) in zip(picks, again)
                 if (rc, out) != results[i]]
    return ops, results, walls, cycle_of, cals, elapsed, maxrss_kb, rerun_bad


def run_plain(workload, seed, seconds):
    import judge

    probes = _setup_probes(SETUP_PROBES // 2 + 1)
    wk = Worker()
    try:
        (ops, results, walls, cycle_of, cals, elapsed, maxrss_kb,
         rerun_bad) = _timed(wk, workload, seed, seconds)
    finally:
        wk.close()
    probes += _setup_probes(SETUP_PROBES // 2)
    verdict = judge.judge(ops, results, seed)
    timed_idx = [i for i, c in enumerate(cycle_of) if c > 0]
    failed = sum(1 for i in timed_idx if i in verdict.failed_ops)
    # Timed op j ran between calibrations j and j+1.
    speed = [CAL_REF / ((a + b) / 2) for a, b in zip(cals, cals[1:])]
    norm = {i: walls[i] * s for i, s in zip(timed_idx, speed)}
    lat = sorted(v * 1e3 for v in norm.values())
    metrics = {
        "setup_s": statistics.median(probes),
        "ops_per_s": (len(timed_idx) - failed) / sum(norm.values()),
        "op_p50_ms": _percentile(lat, 0.5),
        "op_p90_ms": _percentile(lat, 0.9),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }
    beyond = sum(1 for v in lat if v > metrics["op_p90_ms"])
    info = {
        "ops": len(timed_idx), "warmup_ops": len(ops) - len(timed_idx),
        "cycles": cycle_of[-1], "measured_s": round(elapsed, 3),
        "samples_beyond_p90": beyond if beyond >= 10 else f"{beyond} (p90 indicative)",
        "host_speed_median": round(statistics.median(speed), 4),
        "ops_per_s_unscaled": round(len(timed_idx) / sum(walls[i] for i in timed_idx), 4),
        "setup_probes": len(probes), "reruns": RERUNS,
        "rerun_mismatches": len(rerun_bad),
    }
    correct = not verdict.failed_ops and not rerun_bad
    return metrics, END_TO_END, len(timed_idx), failed, correct, verdict, info


def run_traced(workload, seed, seconds):
    import judge

    ops = next(workloads.cycles(workload, seed))
    wk = Worker()
    plain, traced = [], []
    try:
        wk.conn.send(("traced", ops, seconds, SPANS_FILE))
        first = wk.conn.recv()[1]
        while True:
            msg = wk.conn.recv()
            if msg[0] == "done":
                break
            (plain if msg[0] == "plain" else traced).append(msg[1:])
    finally:
        wk.close()
    verdict = judge.judge(ops, first, seed)
    want = [tracing.digest(r) for r in first]
    bad = {i for digests, *_ in plain + traced
           for i, (a, b) in enumerate(zip(digests, want)) if a != b}
    restored = all(t[3] for t in traced)
    by_wall = sorted(traced, key=lambda t: sum(t[1]))
    _, walls, layers, _ = by_wall[len(by_wall) // 2]
    op_wall = sum(walls)
    m = {k: layers.get(k, 0.0) for k in PER_LAYER}
    m["engine.us_per_point"] = (m["engine.self_s"] / m["engine.points"] * 1e6
                                if m["engine.points"] else 0.0)
    m["engine.ns_per_term"] = (m["engine.self_s"] / m["engine.terms"] * 1e9
                               if m["engine.terms"] else 0.0)
    m["engine.tail_over_tol_rows"] = verdict.tail_over_tol_rows
    m["engine.flag_flip_rows"] = verdict.flag_flip_rows
    m["trace.op_wall_s"] = op_wall
    m["trace.unattributed_s"] = op_wall - sum(
        layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    m["trace.overhead_ratio"] = (statistics.median(sum(t[1]) for t in traced)
                                 / statistics.median(sum(p[1]) for p in plain))
    attempted = len(ops) * (1 + len(plain) + len(traced))
    failed_ops = verdict.failed_ops | bad
    failed = len(failed_ops) * (1 + len(plain) + len(traced))
    info = {"ops_per_pass": len(ops), "plain_passes": len(plain),
            "traced_passes": len(traced), "spans": layers["trace.spans"],
            "spans_file": SPANS_FILE,
            "attributes_restored": restored, "output_mismatches": len(bad)}
    correct = not failed_ops and restored
    return m, PER_LAYER, attempted, failed, correct, verdict, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pqmkz" / "cli.py").is_file():
        print(f"error: no pqmkz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, src)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    run = run_traced if args.trace else run_plain
    metrics, units, attempted, failed, correct, verdict, info = run(
        args.workload, args.seed, args.seconds)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    print(f"  judge: rows={verdict.rows} points={verdict.points_checked} "
          f"terms={verdict.terms} oracle={verdict.oracle_checks} "
          f"thm33={verdict.thm33_checks} tail_over_tol_rows={verdict.tail_over_tol_rows} "
          f"flag_flip_rows={verdict.flag_flip_rows}")
    for err in verdict.errors:
        print(f"  FAIL {err}")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
