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
column per term.  The rows count the rows whose leading weight underflows
on a tree whose kernel takes them (their w_0 is nan): they enter no pass
and are dotted by no ``take``.  A pass's terms computed are the size of
its running sums.  Its terms kept are, for each row, the terms up to and
including the one where the row stops, or all of them when the row does
not stop in the pass (it runs on, or ends at k_max).  So kept counts every weight past w_0 of every
row that any kernel path (``evaluate_sweep_values``, ``weight``, the
normalization sums) returns, once; computed minus kept is the work past the
stops.  Passes are split by their width, their terms per row.

It also counts the dots of ``_Sweep.take``, which turns every chunk into
values, by wrapping ``numpy.vecdot`` while a ``take`` call runs, and prints
for each call the rows dotted and the calls made.  A call whose output has
two axes dots a run of rows (one piece, one weight count in the chunk's
head), its rows being the output's second axis; a call with no output
dots a later block of a row already counted, so it is a call and no row;
any other call dots one row, long when its weights are longer than the
head.  The rule reads only the calls, so it reads the same on any tree
whose ``take`` dots through ``numpy.vecdot``.

It counts the lattice steps that ``pqmkz.bounds.second_modulus`` forms, by
wrapping it and, while it runs, counting the ``numpy.subtract`` calls that
pass ``out=``: each formed step is one such call.  It prints each call's
steps and their sum.
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

import numpy as np

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
    """Kernel calls, rows, per pass width [passes, rows, computed, kept],
    per _Sweep.take call [rows dotted, vecdot calls, runs, rows in runs,
    one-row calls in head, long rows], and per second_modulus call the
    steps formed, over argvs run through pqmkz.cli.main of the tree src."""
    sys.path.insert(0, str(src / "src"))
    from pqmkz import bounds, cli, engine

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

    # per take call: rows dotted, vecdot calls, runs, rows in runs, one-row
    # calls in head, long rows
    takes: list[list[int]] = []
    take, vecdot = engine._Sweep.take, np.vecdot
    cap = 0

    def counted_vecdot(fvals, weights, *args, out=None, **kwargs):
        entry = takes[-1]
        entry[1] += 1
        if out is not None and out.ndim == 2:
            entry[0] += out.shape[1]
            entry[2] += 1
            entry[3] += out.shape[1]
        elif out is not None:
            entry[0] += 1
            entry[5 if weights.shape[-1] > cap else 4] += 1
        return vecdot(fvals, weights, *args, out=out, **kwargs)

    def counted_take(self, pieces, bounds, rows, total):
        nonlocal cap
        takes.append([0] * 6)
        cap = rows[0].shape[1]
        np.vecdot = counted_vecdot
        try:
            return take(self, pieces, bounds, rows, total)
        finally:
            np.vecdot = vecdot

    # per second_modulus call: the steps formed
    steps: list[int] = []
    second_modulus, subtract = bounds.second_modulus, np.subtract

    def counted_subtract(*args, **kwargs):
        if "out" in kwargs:
            steps[-1] += 1
        return subtract(*args, **kwargs)

    def counted_second_modulus(*args, **kwargs):
        steps.append(0)
        np.subtract = counted_subtract
        try:
            return second_modulus(*args, **kwargs)
        finally:
            np.subtract = subtract

    engine._weight_chunks, engine._stops = counted_chunks, counted_stops
    engine._Sweep.take = counted_take
    bounds.second_modulus = counted_second_modulus
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
        engine._Sweep.take = take
        bounds.second_modulus = second_modulus
    return {**totals, "widths": dict(sorted(widths.items())), "takes": takes,
            "steps": steps}


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
    takes = counts["takes"]
    takes.append([sum(t[i] for t in takes) for i in range(6)])
    print(f"{'take':>6} {'rows':>7} {'vecdots':>8} {'runs':>6} {'in runs':>8} "
          f"{'lone':>6} {'long':>6}")
    for i, t in enumerate(takes, 1):
        name = "all" if i == len(takes) else str(i)
        print(f"{name:>6} {t[0]:>7} {t[1]:>8} {t[2]:>6} {t[3]:>8} {t[4]:>6} {t[5]:>6}")
    steps = counts["steps"]
    print(f"second_modulus: {len(steps)} calls, steps {steps}, sum {sum(steps)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
