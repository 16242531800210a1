"""Compare the CLI of this checkout with the CLI of another source tree.

Usage, from the checkout root:

    python3 tools/cli_bytes.py PARENT

PARENT is a source tree, or a git revision of this checkout (such as
``HEAD~1``), which is archived into a temporary directory first.  Every argv
of a fixed corpus runs through ``pqmkz.cli.main`` of this checkout and of
PARENT, one subprocess per tree, each argv in its own empty working
directory.  The exit code, stdout, stderr and every file the argv writes are
compared byte for byte.  The corpus holds the ``pqmkz`` lines of README.md,
the edge and error argvs below, and two cycles of seeds 1-3 of every
benchmark workload (read from ``perfbench/workloads.py``).  Prints every
argv that differs with what differs, then a count, and exits 1 if any argv
differs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_BOUNDS = ["bounds", "--n", "3", "--p", "0.95", "--q", "0.9", "--grid", "5:0:0.9",
           "--resolution", "257"]
_DEEP = ["--n", "300", "--p", "1", "--q", "0.99999999"]
_SMALL = ["--n", "3", "--p", "0.95", "--q", "0.9"]
_FINE = ["bounds", "--n", "30", "--p", "0.97", "--q", "0.88", "--grid", "6:0:0.9"]
_LONG = ["--n", "5", "--p", "0.99", "--q", "0.9891"]

EDGE = [
    _BOUNDS + ["--alpha", "2"],
    _BOUNDS + ["--lip-M", "2"],
    _BOUNDS + ["--lip-M", "2", "--alpha", "0.5"],
    _BOUNDS + ["--format", "csv"],
    _BOUNDS + ["--format", "csv", "--lip-M", "-5"],
    _BOUNDS + ["--format", "csv", "--alpha", "1"],
    ["bounds", *_SMALL, "--grid", "3:0:0.9", "--kmax", "5", "--format", "csv"],
    ["eval", *_DEEP, "--fn", "sqrt(x-0.5)", "--grid", "4:0:0.99"],
    ["eval", *_DEEP, "--fn", "one", "--grid", "4:0:0.99"],
    ["identity", *_DEEP, "--grid", "4:0:0.99"],
    ["eval", *_SMALL, "--fn", "exp(1000*x)*0+sqrt((x-0.3)*(x-0.5))",
     "--grid", "2:0.001:0.9"],
    ["eval", *_SMALL, "--fn", "1/(x-1)", "--grid", "3:0:1"],
    ["eval", *_SMALL, "--fn", "1/(x-0.5)", "--grid", "3:0:0.9"],
    ["eval", *_SMALL, "--fn", "sin(3*x)", "--grid", "5:0:1", "--format", "json"],
    ["eval", *_SMALL, "--fn", "one", "--x", "0.9", "--kmax", "5"],
    ["eval", *_SMALL, "--fn", "one", "--x", "1.5"],
    ["eval", "--n", "3", "--p", "1", "--q", "1", "--fn", "one", "--x", "0.5"],
    ["eval", *_SMALL, "--fn", "x^2", "--grid", "129:0:0.999", "--kmax", "1"],
    ["eval", *_SMALL, "--fn", "x^2", "--grid", "65:0:0.999", "--kmax", "2"],
    # JSON rows that did not converge: bool false and int terms
    ["eval", *_SMALL, "--fn", "x^2", "--grid", "65:0:0.999", "--kmax", "2",
     "--format", "json"],
    ["identity", *_SMALL, "--grid", "3:0:0.99", "--kmax", "2", "--format", "json"],
    ["eval", *_SMALL, "--fn", "x^2", "--grid", "64:0:0.999", "--kmax", "257"],
    # 64 rows, the most that open with one pass of 256 terms; k_max ends
    # that pass at term 96 or 224
    ["eval", *_SMALL, "--fn", "x^2", "--grid", "64:0:0.999", "--kmax", "97"],
    ["eval", *_SMALL, "--fn", "x^2", "--grid", "64:0:0.999", "--kmax", "225"],
    ["eval", "--n", "3", "--p", "1", "--q", "1", "--fn", "x^2", "--grid", "9:0:0.9",
     "--kmax", "97"],
    # malformed grid specs
    ["eval", *_SMALL, "--fn", "x^2", "--grid", "abc"],
    ["eval", *_SMALL, "--fn", "x^2", "--grid", "2.5"],
    ["eval", *_SMALL, "--fn", "x^2", "--grid", "3:a:b"],
    ["eval", *_SMALL, "--fn", "one", "--grid", "5:0:0.9", "--tol", "1e-18",
     "--kmax", "20000"],
    # w_0 is fl(1 - 1e-8), one ulp below the least sum whose tail is within
    # 1e-8: the row runs on to a second term
    ["eval", "--n", "1", "--p", "1", "--q", "0.5", "--x", "6.666666677972444e-09",
     "--tol", "1e-8"],
    ["moments", "--n", "3", "--p", "0.9", "--q", "0.8"],
    ["moments", "--n", "3", "--p", "0.9", "--q", "0.8", "--format", "json"],
    ["identity", "--n", "4", "--p", "0.95", "--q", "0.9", "--grid", "5:0:1"],
    ["stat", "--scheme", "constant:1:0.999", "--kmax", "1000", "--Ns", "380",
     "--fn", "one"],
    ["figure", "--id", "1", "--out", "fig"],
    # the first x to underflow is index 68, past the first 64 rows
    ["identity", *_DEEP, "--grid", "70:0:0.9"],
    ["eval", *_DEEP, "--fn", "one", "--grid", "70:0:0.9"],
    ["figure", "--id", "1", *_DEEP, "--out", "fig"],
    # alone, the first x to reach a node above 0.99 is index 38
    ["eval", *_SMALL, "--fn", "sqrt(0.99-x)", "--sup-bound", "1",
     "--grid", "70:0:0.99"],
    # options the command would ignore
    ["figure", "--id", "1", "--fn", "x^2", "--tol", "1e-3", "--kmax", "7",
     "--out", "fig"],
    ["figure", "--id", "2", "--p", "0.5", "--q", "0.1", "--out", "fig"],
    ["eval", *_SMALL, "--x", "0.5", "--grid", "5:0:0.9"],
    # sup_error and the eval rows with an x = 1 row
    ["bounds", *_SMALL, "--grid", "5:0:1", "--resolution", "257"],
    ["bounds", *_SMALL, "--grid", "5:0:1", "--resolution", "257", "--format", "csv"],
    # an expression error at the first x ends the stat sweep
    ["stat", "--scheme", "constant:0.95:0.9", "--fn", "sqrt(0.5-x)", "--Ns", "3"],
    ["stat", "--scheme", "paper", "--fn", "sin(3*x)", "--Ns", "5,10", "--format",
     "json"],
    # one-row tables, x = 1 rows and a str column through the table writer
    ["eval", *_SMALL, "--x", "0.5", "--format", "json"],
    ["identity", *_SMALL, "--grid", "1", "--format", "json"],
    ["moments", *_SMALL, "--grid", "3:0:1", "--format", "json"],
    ["stat", "--scheme", "paper", "--fn", "sin(3*x)", "--Ns", "5", "--format", "csv"],
    ["figure", "--id", "2", "--n", "3"],
    # 2 * max|f| overflows, so f has no finite sup bound
    ["bounds", *_SMALL, "--fn", "1.7976931348623157e308", "--grid", "5:0:1"],
    ["eval", *_SMALL, "--fn", "1.7976931348623157e308", "--grid", "3:0:1",
     "--format", "json"],
    ["eval", *_SMALL, "--fn", "exp(-x)", "--x", "0.5"],
    # the moduli on the smallest lattices, at a large delta (n = 1) and at
    # the finest benchmark resolution
    ["bounds", *_SMALL, "--grid", "5:0:0.9", "--resolution", "2"],
    ["bounds", *_SMALL, "--grid", "5:0:0.9", "--resolution", "3"],
    ["bounds", "--n", "1", "--p", "1", "--q", "0.5", "--grid", "5:0:0.9",
     "--resolution", "257"],
    ["bounds", *_SMALL, "--fn", "abs(x-0.5)", "--grid", "5:0:0.9",
     "--resolution", "16385"],
    # 2 * max|f| is finite, but 2 * omega(f, delta) overflows
    ["bounds", *_SMALL, "--fn", "8e307*sin(40*x)", "--grid", "5:0:1"],
    # --sup-bound sets f's own bound: invalid, zero, and below a preset's
    ["eval", *_SMALL, "--fn", "one", "--grid", "3", "--sup-bound", "-1"],
    ["eval", *_SMALL, "--fn", "one", "--grid", "3", "--sup-bound", "nan"],
    ["eval", *_SMALL, "--fn", "x", "--grid", "3", "--sup-bound", "0"],
    ["eval", *_SMALL, "--fn", "one", "--grid", "3", "--sup-bound", "0.5"],
    # an --out that cannot be written: a missing directory, a directory, and
    # a figure directory under a file
    ["eval", *_SMALL, "--fn", "one", "--grid", "3", "--out", "missing/x.csv"],
    ["eval", *_SMALL, "--fn", "one", "--grid", "3", "--out", "."],
    ["figure", "--id", "1", "--out", "/dev/null/fig"],
    # the moments table on every exit path: a row that does not converge
    # (exit 1, rows written), an underflow (exit 2, no rows), one row
    ["moments", *_SMALL, "--grid", "3:0:0.99", "--kmax", "2"],
    ["moments", *_DEEP, "--grid", "4:0:0.99"],
    ["moments", *_SMALL, "--grid", "1"],
    # a sweep that underflows at n = 420 after every x before it converged,
    # the same sweep asked to go on to n = 100 000, and one whose f first
    # fails at n = 16, past the scheme's first n
    ["stat", "--scheme", "paper", "--Ns", "420"],
    ["stat", "--scheme", "paper", "--Ns", "100000"],
    ["stat", "--scheme", "paper", "--fn", "sqrt(abs(x-0.3004)-0.0003)", "--Ns", "20"],
    # a scheme that breaks 0 < q < p at n = 50, after the n before it
    ["stat", "--scheme", "expr:1;0.5+0.01*n", "--Ns", "60"],
    # bounds --sup-bound: f's own bound in the report and in the rows, an
    # invalid one, and a huge constant whose 2 f overflows on the lattice
    ["bounds", *_SMALL, "--fn", "one", "--grid", "5:0:0.9", "--sup-bound", "0.5"],
    ["bounds", *_SMALL, "--fn", "one", "--grid", "5:0:0.9", "--sup-bound", "0.5",
     "--format", "csv"],
    ["bounds", *_SMALL, "--fn", "one", "--grid", "5:0:0.9", "--sup-bound", "-1"],
    ["bounds", *_SMALL, "--fn", "1e308", "--sup-bound", "1e308", "--grid", "5:0:1"],
    # the second modulus at the finest benchmark resolution: the benchmark's
    # functions, one whose largest second difference is at small steps, and
    # a kink off the lattice
    *[_FINE + ["--fn", fn, "--resolution", "16385"]
      for fn in ("paper_cubic", "sin(40*x)*exp(0-x)", "abs(x-0.5)", "x^2",
                 "1/(1+x)", "sin(400*x)")],
    _FINE + ["--fn", "abs(x-0.5)", "--resolution", "16384"],
    # the largest second differences at the right end of each step's
    # domain, where no gap between formed steps can be ruled out
    _FINE + ["--fn", "abs(x-0.97)", "--resolution", "16385"],
    _FINE + ["--fn", "exp(60*(x-1))", "--resolution", "16385"],
    # the same kink at step bound 0.5 (n = 1): every gap stays open, and the
    # walk forms 7701 of the 8192 steps
    ["bounds", "--n", "1", "--p", "1", "--q", "0.5", "--fn", "abs(x-0.97)",
     "--grid", "5:0:0.9", "--resolution", "16385"],
    # a smooth f on a 5-point grid, whose gaps the curvature bound rules out
    ["bounds", "--n", "39", "--p", "0.96", "--q", "0.9168", "--fn", "1/(1+x)",
     "--grid", "5:0:0.9", "--resolution", "16385"],
    # -0.0 left of 1/2 and 0.0 from there: the sign of a zero modulus
    ["bounds", *_SMALL, "--fn", "(x-0.5)*0", "--grid", "5:0:0.9"],
    # long rows near x = 1 that run thousands of terms per pass: k_max ends
    # some rows mid-pass (exit 1 with the rows written), and rows of 10k-40k
    # terms
    ["eval", *_LONG, "--fn", "paper_cubic", "--grid", "9:0:0.999", "--kmax", "3000"],
    # one long row alone: one pass of 256 terms, then passes of up to 4096
    ["eval", *_LONG, "--fn", "paper_cubic", "--x", "0.999"],
    # 65 rows open with passes of 32 terms and run on past term 256
    ["eval", *_LONG, "--fn", "paper_cubic", "--grid", "65:0.98:0.999", "--kmax", "4097"],
    # rows past 20k terms
    ["eval", *_LONG, "--fn", "paper_cubic", "--grid", "3:0.99:0.999"],
    ["identity", *_LONG, "--grid", "9:0:0.999", "--kmax", "3000"],
    ["moments", "--n", "6", "--p", "0.999", "--q", "0.998", "--grid", "5:0.9:0.999",
     "--kmax", "40000"],
    # a large degree on a fine grid: the leading weights of 1001 x over
    # 20 001 factors each
    ["eval", "--n", "20000", "--p", "1", "--q", "0.5", "--fn", "x^2",
     "--grid", "1001:0:0.9"],
    # identity judges the running sum the kernel stopped on, as eval --fn
    # one does: this row's pairwise sum of weights is 1e-12 short
    ["identity", "--n", "11", "--p", "0.917741966803958", "--q", "0.6788234803832475",
     "--grid", "1:0.9410078059022056:0.9410078059022056", "--tol", "1e-12"],
    # rows of 9.8k-29k terms, each dotted in 8192-term blocks
    ["eval", "--n", "5", "--p", "1", "--q", "0.999", "--fn", "sin(40*x)",
     "--grid", "9:0.99:0.999"],
    # the parser: help, with every command or one, and usage errors (an
    # unknown or abbreviated command, a bad choice, a bad or missing value,
    # an unknown or extra argument), and abbreviated options
    [],
    ["--help"],
    ["-h", "eval"],
    *[[command, "--help"]
      for command in ("eval", "moments", "bounds", "identity", "figure", "stat")],
    ["nosuch"],
    ["ev", *_SMALL, "--x", "0.5"],
    ["stat", "--format", "xml"],
    ["figure", "--id", "3"],
    ["eval"],
    ["eval", "--n", "x", "--p", "0.95", "--q", "0.9", "--x", "0.5"],
    ["eval", *_SMALL, "--x", "0.5", "--bogus"],
    ["eval", *_SMALL, "--x", "0.5", "extra"],
    ["eval", *_SMALL, "--x", "0.5", "--fn"],
    ["eval", *_SMALL, "--fn", "x^2", "--grid", "3", "--form", "json"],
    ["bounds", *_SMALL, "--grid", "5:0:0.9", "--resolution", "257", "--lip", "2"],
]


def _workload_argvs() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            cycles = workloads.cycles(name, seed)
            for _ in range(2):
                out.extend(next(cycles))
    return out


def readme_argvs() -> list[list[str]]:
    """The argvs of README.md's lines that start with ``pqmkz``."""
    return [shlex.split(line)[1:]
            for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("pqmkz ")]


def corpus() -> list[list[str]]:
    return readme_argvs() + EDGE + _workload_argvs()


def _files(top: Path) -> dict[str, str]:
    """Every file under top, its bytes as latin-1 text (lossless in JSON)."""
    return {str(p.relative_to(top)): p.read_bytes().decode("latin-1")
            for p in sorted(top.rglob("*")) if p.is_file()}


def run_side(src: Path, argvs: list[list[str]]) -> list[dict]:
    """Run every argv through pqmkz.cli.main of src (this process only)."""
    sys.path.insert(0, str(src))
    from pqmkz import cli

    results = []
    home = os.getcwd()
    for argv in argvs:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except Exception as exc:
                # an error that escapes main is a result to compare, too
                rc = f"{type(exc).__name__}: {exc}"
            finally:
                os.chdir(home)
            results.append({"rc": rc, "stdout": out.getvalue(),
                            "stderr": err.getvalue(), "files": _files(Path(work))})
    return results


def _side(src: Path, argvs: list[list[str]]) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, __file__, "--side", str(src)],
        input=json.dumps(argvs), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _first_difference(a: str, b: str) -> str:
    for i, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines())):
        if la != lb:
            return f"line {i + 1}: {la!r} != {lb!r}"
    return f"{len(a.splitlines())} lines != {len(b.splitlines())} lines"


def _archive(rev: str, top: Path) -> None:
    """Extract git revision rev of this checkout into the directory top."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                         capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(top)], input=tar, check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?",
                        help="source tree or git revision to compare with")
    parser.add_argument("--side", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.side is not None:
        json.dump(run_side(Path(args.side) / "src", json.load(sys.stdin)), sys.stdout)
        return 0
    if args.parent is None:
        parser.error("PARENT is required")
    with tempfile.TemporaryDirectory() as top:
        parent = Path(args.parent)
        if not parent.is_dir():
            parent = Path(top)
            try:
                _archive(args.parent, parent)
            except subprocess.CalledProcessError as exc:
                parser.error(f"{args.parent} is neither a directory nor a git "
                             f"revision: {exc.stderr.decode().strip()}")
        argvs = corpus()
        mine = _side(ROOT, argvs)
        theirs = _side(parent.resolve(), argvs)
    differ = 0
    for argv, a, b in zip(argvs, mine, theirs):
        notes = []
        if a["rc"] != b["rc"]:
            notes.append(f"exit {a['rc']} != {b['rc']}")
        for key in ("stdout", "stderr"):
            if a[key] != b[key]:
                notes.append(f"{key} {_first_difference(a[key], b[key])}")
        if a["files"].keys() != b["files"].keys():
            notes.append(f"files {sorted(a['files'])} != {sorted(b['files'])}")
        for name in sorted(a["files"].keys() & b["files"].keys()):
            if a["files"][name] != b["files"][name]:
                notes.append(
                    f"{name} {_first_difference(a['files'][name], b['files'][name])}")
        if notes:
            differ += 1
            print(f"DIFF {shlex.join(argv)}")
            for note in notes:
                print(f"  {note}")
    print(f"{len(argvs)} argvs, {len(argvs) - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
