"""The scripts under tools/, run as a reader runs them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, moduli, total",
                         [("bounds_fine", 5, 141), ("tail_heavy", 0, 0)])
def test_kernel_counts_runs_and_every_kernel_row_is_dotted(workload, moduli,
                                                           total):
    # neither workload has an underflow row, so every row the kernel yields
    # is dotted by _Sweep.take once; tail_heavy's rows of more than 8192
    # terms dot in blocks, each block a call and only the first a row.
    # bounds_fine's five second moduli (seed 1) form the 141 steps README
    # quotes
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "tools/kernel_counts.py", workload], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    [kernel_rows] = re.findall(r"kernel calls, (\d+) rows$", lines[0])
    alls = [line.split() for line in lines if line.split()[:1] == ["all"]]
    assert len(alls) == 2
    # the pass table's all line, then the take table's: rows dotted
    assert int(kernel_rows) == int(alls[1][1]) > 0
    [(calls, steps, summed)] = re.findall(
        r"^second_modulus: (\d+) calls, steps \[(.*)\], sum (\d+)$", lines[-1])
    steps = [int(s) for s in re.findall(r"\d+", steps)]
    assert int(calls) == len(steps) == moduli
    assert sum(steps) == int(summed) == total
