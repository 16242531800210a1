"""Benchmark worker: one process running argv lists through ``pqmkz.cli.main``.

The parent starts it as ``python3 worker.py ROOT FD`` and sends requests over
the ``multiprocessing.connection.Connection`` on socket ``FD``; the worker
runs ops one after another (a single-client closed loop) and sends each
result back between ops, outside the op's timer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

FIGURE_FLAG = "--out"


def run_op(cli, argv: list[str]):
    """Runs one op; returns (exit code, wall seconds, output).

    ``output`` is ``{"stdout": str, "files": {name: str}}``, or ``None`` when
    the op raised, in which case the exit code slot holds the traceback.
    """
    outdir = None
    if argv[0] == "figure":
        outdir = Path(argv[argv.index(FIGURE_FLAG) + 1])
        shutil.rmtree(outdir, ignore_errors=True)
    buf = io.StringIO()
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # the loop must go on; the judge fails this op
        return traceback.format_exc(), time.perf_counter() - t0, None
    wall = time.perf_counter() - t0
    files = {}
    if outdir is not None and outdir.is_dir():
        files = {p.name: p.read_text() for p in sorted(outdir.iterdir())}
    return rc, wall, {"stdout": buf.getvalue(), "files": files}


def calibrate() -> float:
    """Wall seconds of a fixed mix of interpreter and numpy work.

    The host's speed drifts by up to 1.7x over tens of seconds, and this
    kernel slows down with it; the benchmark scales op times by it.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(64_000):
        acc += i * i % 7
    small = np.linspace(0.0, 0.9, 64)
    for k in range(1, 320):
        acc += float(np.sum(np.expm1(small * -1e-3 * k) / np.expm1(-1e-3 * k)))
    a = np.arange(16384.0)
    for d in range(1, 190):
        acc += float(np.max(np.abs(a[d:] - a[:-d])))
    return time.perf_counter() - t0


def output_bytes(out) -> int:
    if out is None:
        return 0
    return len(out["stdout"].encode()) + sum(len(t.encode()) for t in out["files"].values())


def _timed(conn, cli, workload, seed, seconds):
    """Warm-up cycle, then whole cycles until ``seconds`` have passed.

    Cycles are generated here, one at a time, so that no list of pending ops
    adds to the worker's memory.  The calibration kernel runs before the
    first timed op and after each.
    """
    import workloads

    gen = workloads.cycles(workload, seed)
    for argv in next(gen):
        conn.send(("warm",) + run_op(cli, argv))
    start = time.perf_counter()
    conn.send(("cal", calibrate()))
    for cycle in gen:
        for argv in cycle:
            conn.send(("op",) + run_op(cli, argv))
            conn.send(("cal", calibrate()))
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    conn.send(("done", elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))


def _traced(conn, cli, ops, seconds, spans_file):
    """A warm-up pass, then plain and traced passes over the same ops.

    The spans of the traced pass with the median wall time are written to
    ``spans_file`` at the end, one JSON list per line:
    [op, span id, parent id, layer, name, start ns, end ns].
    """
    import tracing

    def run_pass(tracer=None):
        results, walls = [], []
        for i, argv in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            rc, wall, out = run_op(cli, argv)
            results.append((rc, out))
            walls.append(wall)
        return results, walls

    first, _ = run_pass()
    conn.send(("outputs", first))
    kept = []
    start = time.perf_counter()
    while True:
        results, walls = run_pass()
        conn.send(("plain", [tracing.digest(r) for r in results], walls))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            results, walls = run_pass(tracer)
        finally:
            tracer.uninstall()
        layers = tracer.aggregate()
        layers["cli.bytes_out"] = sum(output_bytes(out) for _, out in results)
        conn.send(("traced", [tracing.digest(r) for r in results], walls, layers,
                   tracer.restored()))
        kept.append((sum(walls), tracer.spans))
        if time.perf_counter() - start >= seconds:
            break
    spans = sorted(kept, key=lambda k: k[0])[len(kept) // 2][1]
    Path(spans_file).parent.mkdir(parents=True, exist_ok=True)
    with open(spans_file, "w") as fh:
        fh.writelines(json.dumps(s) + "\n" for s in spans)
    conn.send(("done",))


def serve(conn, root: str) -> None:
    """Worker entry point; ``root`` is the checkout holding ``src/pqmkz``."""
    os.chdir(root)
    sys.path.insert(0, str(Path(root) / "src"))
    sys.path.insert(0, str(Path(root) / "perfbench"))
    import pqmkz.cli as cli

    while True:
        msg = conn.recv()
        if msg[0] == "timed":
            _timed(conn, cli, msg[1], msg[2], msg[3])
        elif msg[0] == "traced":
            _traced(conn, cli, msg[1], msg[2], msg[3])
        elif msg[0] == "rerun":
            conn.send(("rerun", [run_op(cli, argv) for argv in msg[1]]))
        else:
            break
    conn.close()


if __name__ == "__main__":
    from multiprocessing.connection import Connection

    serve(Connection(int(sys.argv[2])), sys.argv[1])
