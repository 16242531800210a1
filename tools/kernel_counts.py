"""Count the row kernel's work in one cycle of a benchmark workload.

Usage, from the checkout root:

    python3 tools/kernel_counts.py WORKLOAD [--seed S] [--src TREE]

Runs every argv of the first cycle of WORKLOAD for seed S (default 1), as
``perfbench/workloads.py`` of this checkout builds it, through
``pqmkz.cli.main`` of TREE (default this checkout), each argv in its own
empty working directory and with its output discarded.  It times nothing
and changes nothing under ``perfbench/``.

It counts by wrapping two functions of ``pqmkz.engine``, so it reads the
same on any tree whose kernel has them: ``_weight_chunks`` (one kernel call
each, and the rows of every chunk it yields) and ``_stops``, which every
pass calls once with its running sums, one row per running row and one
column per term.  A pass's terms computed are the size of those sums.  Its
terms kept are, for each row, the terms up to and including the one where
the row stops, or all of them when the row does not stop in the pass (it
runs on, or ends at k_max).  So kept counts every weight past w_0 of every
row that any kernel path (``evaluate_sweep_values``, ``weight``, the
normalization sums) returns, once; computed minus kept is the work past the
stops.  Passes are split by their width, their terms per row.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cycle(workload: str, seed: int) -> list[list[str]]:
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; one of "
                         f"{', '.join(workloads.WORKLOADS)}")
    return next(workloads.cycles(workload, seed))


def count(src: Path, argvs: list[list[str]]) -> dict:
    """Kernel calls, rows, and per pass width [passes, rows, computed,
    kept], over argvs run through pqmkz.cli.main of the tree src."""
    sys.path.insert(0, str(src / "src"))
    from pqmkz import cli, engine

    totals = {"calls": 0, "rows": 0}
    widths: dict[int, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    chunks, stops = engine._weight_chunks, engine._stops

    def counted_chunks(*args, **kwargs):
        totals["calls"] += 1
        for chunk in chunks(*args, **kwargs):
            totals["rows"] += len(chunk[3])
            yield chunk

    def counted_stops(cums, target):
        stopped, at = stops(cums, target)
        rows, width = cums.shape
        entry = widths[width]
        entry[0] += 1
        entry[1] += rows
        entry[2] += cums.size
        entry[3] += int(at.sum()) + rows
        return stopped, at

    engine._weight_chunks, engine._stops = counted_chunks, counted_stops
    home = os.getcwd()
    try:
        for argv in argvs:
            with tempfile.TemporaryDirectory() as work:
                os.chdir(work)
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        cli.main(argv)
                finally:
                    os.chdir(home)
    finally:
        engine._weight_chunks, engine._stops = chunks, stops
    return {**totals, "widths": dict(sorted(widths.items()))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="source tree whose pqmkz runs (default: this checkout)")
    args = parser.parse_args()
    argvs = _cycle(args.workload, args.seed)
    counts = count(args.src.resolve(), argvs)
    rows = [(str(w), *v) for w, v in counts["widths"].items()]
    rows.append(("all", *[sum(v[i] for v in counts["widths"].values())
                          for i in range(4)]))
    print(f"{args.workload} seed {args.seed}: {len(argvs)} ops, "
          f"{counts['calls']} kernel calls, {counts['rows']} rows")
    print(f"{'width':>6} {'passes':>7} {'rows':>8} {'computed':>10} {'kept':>10}")
    for row in rows:
        print(f"{row[0]:>6} {row[1]:>7} {row[2]:>8} {row[3]:>10} {row[4]:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
