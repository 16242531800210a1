"""Command-line surface: experiments in, CSV/JSON data files out.

CSV prints numbers with 17 significant digits and JSON prints Python's
shortest round-trip repr, so doubles round-trip in both; every truncated
value is emitted next to its tail mass and convergence flag.  Row-shaped
outputs take their columns whole, fill one row template per table, and are
written a row at a time.  All output is deterministic for fixed inputs.

Exit codes: 0 success, 1 a point that did not converge (rows written) or a
closed stdout, 2 usage and evaluation errors and unwritable output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bounds as bounds_mod
from . import moments as moments_mod
from . import statistical as stat_mod
from .bounds import SCHEMA_VERSION
from .engine import (
    Function,
    PQParams,
    SupBoundError,
    TruncationPolicy,
    evaluate_grid_values,
    normalization_defects,
    normalization_partial_sums,
)
from .expressions import EvalError, ParseError, parse_function
from .pqcore import PQPair
from .presets import builtin

FIGURE2_PAIRS = [(0.9, 0.85), (0.95, 0.9), (0.999, 0.995)]
# the truncation without --tol and --kmax, and the bounds and identity grid
DEFAULT_POLICY = TruncationPolicy()
DEFAULT_GRID = "101:0:0.99"


def _csv_field(text: str, alone: bool) -> str:
    """text as csv.writer writes it as a field, quoted by csv's own rule,
    which differs across Pythons (3.13 quotes "\\r", 3.10-3.12 do not).  An
    empty text is '""' only as its row's one field (alone), as csv writes
    that row, and empty otherwise."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text])
    return out.getvalue()[:-1] if text or alone else ""


def _csv_column(col, alone: bool = False) -> tuple[list, str]:
    """The values of one column and their field format, by its numpy dtype:
    floats for "%.17g" (the text of format(v, ".17g")), ints for "%d" (the
    text of str), bools as true/false and str quoted as csv quotes them
    (see _csv_field), both for "%s"."""
    col = np.asarray(col)
    kind = col.dtype.kind
    if kind == "f":
        return col.tolist(), "%.17g"
    if kind in "iu":
        return col.tolist(), "%d"
    if kind == "b":
        return np.where(col, "true", "false").tolist(), "%s"
    if kind == "U":
        texts = col.tolist()
        quoted = {text: _csv_field(text, alone) for text in set(texts)}
        return [quoted[text] for text in texts], "%s"
    raise TypeError(f"no CSV column of dtype {col.dtype}")


def _json_column(col) -> list[str]:
    """The JSON tokens of one numeric or bool column, as json.dumps(...,
    indent=2) writes them: one C-encoder call, whose float, int and bool
    tokens are those of the indenting encoder and hold no comma."""
    col = np.asarray(col)
    if col.dtype.kind not in "fbiu":
        raise TypeError(f"no JSON column of dtype {col.dtype}")
    if not col.size:
        return []
    return json.dumps(col.tolist(), separators=(",", ":"))[1:-1].split(",")


def _write_lines(path, lines) -> None:
    """lines to stdout, or to a file opened with newline="", in one
    writelines call: each line is its own write, so a reader that closes
    the pipe meets the next one whatever the buffering."""
    if path is None:
        sys.stdout.writelines(lines)
    else:
        with open(path, "w", newline="") as out:
            out.writelines(lines)


def _write_csv(path, header: Sequence[str], columns) -> None:
    """The bytes of csv.writer(lineterminator="\\n"): a header row, then one
    row per index of the columns, each from one format template."""
    fields = [_csv_column(col, len(columns) == 1) for col in columns]
    row = ",".join(fmt for _, fmt in fields) + "\n"
    lines = [",".join(_csv_field(name, len(header) == 1) for name in header) + "\n",
             *map(row.__mod__, zip(*(values for values, _ in fields)))]
    _write_lines(path, lines)


def _write_json(path, payload) -> None:
    _write_lines(path, [json.dumps(payload, indent=2) + "\n"])


def _write_json_rows(path, key: str, header: Sequence[str], columns) -> None:
    """The bytes of _write_json({"schema_version": ..., key: rows}), rows
    holding one object per index of the columns, each its own line."""
    names = [json.dumps(name).replace("%", "%%") for name in header]
    row = "    {" + ",".join(f"\n      {name}: %s" for name in names) + "\n    },\n"
    head = f'{{\n  "schema_version": {SCHEMA_VERSION},\n  {json.dumps(key)}: ['
    lines = [f"{head}\n", *map(row.__mod__, zip(*map(_json_column, columns)))]
    # the last row ends the list and the object; no row: an empty list
    lines[-1] = lines[-1][:-2] + "\n  ]\n}\n" if len(lines) > 1 else f"{head}]\n}}\n"
    _write_lines(path, lines)


def _write_rows(args, key: str, header: Sequence[str], columns) -> None:
    """CSV, or JSON with one object per row under key."""
    if args.format == "csv":
        _write_csv(args.out, header, columns)
    else:
        _write_json_rows(args.out, key, header, columns)


def resolve_function(spec: str) -> Function:
    preset = builtin(spec)
    if preset is not None:
        return preset
    return Function(parse_function(spec).evaluate_array, spec)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    message = f"grid spec must be COUNT or COUNT:LO:HI, got {spec!r}"
    if len(parts) not in (1, 3):
        raise ValueError(message)
    try:
        count = int(parts[0])
        lo, hi = (float(parts[1]), float(parts[2])) if len(parts) == 3 else (0.0, 1.0)
    except ValueError:
        raise ValueError(message) from None
    if count < 1:
        raise ValueError("grid needs at least one point")
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError("grid range must satisfy 0 <= lo <= hi <= 1")
    return np.linspace(lo, hi, count)


def _params_from_args(args) -> PQParams:
    return PQParams(args.n, PQPair(args.p, args.q))


def _policy_from_args(args) -> TruncationPolicy:
    return TruncationPolicy(tail_tol=args.tol, k_max=args.kmax)


def _add_common(parser, with_function=True):
    parser.add_argument("--n", type=int, required=True, help="operator degree")
    parser.add_argument("--p", type=float, required=True)
    parser.add_argument("--q", type=float, required=True)
    if with_function:
        parser.add_argument(
            "--fn",
            default="paper_cubic",
            help="expression over x, or a preset name",
        )
    parser.add_argument("--tol", type=float, default=DEFAULT_POLICY.tail_tol,
                        help="tail mass target")
    parser.add_argument("--kmax", type=int, default=DEFAULT_POLICY.k_max,
                        help="term cap")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")


EVAL_COLUMNS = [
    "x",
    "value",
    "f_x",
    "abs_error",
    "tail_mass",
    "terms",
    "error_bound",
    "converged",
]


def _eval_columns(params, f, grid, policy):
    """The EVAL_COLUMNS of a grid, and whether every x converged."""
    res = evaluate_grid_values(params, [f], grid, policy)
    value = res.values[0]
    fx = f.values(np.array(grid, dtype=float))
    columns = [grid, value, fx, np.abs(value - fx), res.tail_mass, res.terms_used,
               res.error_bound[0], res.converged]
    return columns, bool(res.converged.all())


def _function_from_args(args) -> Function:
    """--fn, with --sup-bound as its own sup bound when given."""
    f = resolve_function(args.fn)
    if args.sup_bound is not None:
        f = dataclasses.replace(f, sup_hint=args.sup_bound)
    return f


def _cmd_eval(args) -> int:
    if args.x is not None and args.grid is not None:
        raise ValueError("eval takes --x or --grid, not both")
    params = _params_from_args(args)
    policy = _policy_from_args(args)
    f = _function_from_args(args)
    if args.x is not None:
        grid = [args.x]
    elif args.grid is not None:
        grid = _parse_grid(args.grid)
    else:
        raise ValueError("eval needs --x or --grid")
    columns, ok = _eval_columns(params, f, grid, policy)
    if args.x is not None and args.out is None and args.format == "csv":
        for name, col in zip(EVAL_COLUMNS, columns):
            values, fmt = _csv_column(col)
            print(f"{name}={fmt % values[0]}")
    else:
        _write_rows(args, "results", EVAL_COLUMNS, columns)
    return 0 if ok else 1


def _cmd_moments(args) -> int:
    params = _params_from_args(args)
    policy = _policy_from_args(args)
    grid = (moments_mod.default_moment_grid() if args.grid is None
            else _parse_grid(args.grid))
    table = moments_mod.lemma_bounds_report(params, grid, policy)
    header = moments_mod.MOMENT_CSV_COLUMNS
    _write_rows(args, "rows", header, [getattr(table, c) for c in header])
    return 0 if table.converged.all() else 1


def _cmd_bounds(args) -> int:
    if args.format == "csv" and (args.lip_M is not None or args.alpha is not None):
        raise ValueError("--lip-M and --alpha apply to the JSON report, not to csv")
    if args.alpha is not None and args.lip_M is None:
        raise ValueError("--alpha needs --lip-M")
    params = _params_from_args(args)
    policy = _policy_from_args(args)
    f = _function_from_args(args)
    grid = _parse_grid(args.grid)
    if args.format == "csv":
        columns, ok = _eval_columns(params, f, grid, policy)
        _write_csv(args.out, EVAL_COLUMNS, columns)
        return 0 if ok else 1
    lip = None
    if args.lip_M is not None:
        lip = (args.lip_M, 1.0 if args.alpha is None else args.alpha)
    report = bounds_mod.bound_report(
        params, f, grid, policy, resolution=args.resolution, lipschitz=lip
    )
    _write_json(args.out, report.to_json_dict())
    return 0 if report.converged else 1


def _cmd_identity(args) -> int:
    params = _params_from_args(args)
    policy = _policy_from_args(args)
    grid = _parse_grid(args.grid)
    defects = np.array(normalization_defects(params, grid, policy))
    converged = defects <= policy.tail_tol
    _write_rows(args, "rows", ["x", "defect", "converged"], [grid, defects, converged])
    return 0 if converged.all() else 1


def _write_figure_csv(path: Path, header: Sequence[str], columns) -> None:
    """_write_csv to a file, making its directory first: a figure that fails
    before its first file leaves no directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(path, header, columns)


def _figure1(args, outdir: Path) -> int:
    n = args.n if args.n is not None else 3
    p = args.p if args.p is not None else 0.95
    q = args.q if args.q is not None else 0.9
    params = PQParams(n, PQPair(p, q))
    grid = np.linspace(0.0, 0.99, 201)
    s100 = np.array(normalization_partial_sums(params, grid, 101))
    s500 = np.array(normalization_partial_sums(params, grid, 501))
    _write_figure_csv(
        outdir / "figure1.csv",
        ["x", "s_k100", "s_k500", "defect_k100", "defect_k500"],
        [grid, s100, s500, np.abs(1.0 - s100), np.abs(1.0 - s500)],
    )
    return 0


def _figure2(args, outdir: Path) -> int:
    n = args.n if args.n is not None else 10
    f = resolve_function(args.fn if args.fn is not None else "paper_cubic")
    policy = TruncationPolicy(
        DEFAULT_POLICY.tail_tol if args.tol is None else args.tol,
        DEFAULT_POLICY.k_max if args.kmax is None else args.kmax,
    )
    grid = np.linspace(0.0, 0.99, 201)
    header = ["x", "value", "f_x", "abs_error", "tail_mass", "converged"]
    summary = []
    status = 0
    for p, q in FIGURE2_PAIRS:
        params = PQParams(n, PQPair(p, q))
        columns, ok = _eval_columns(params, f, grid, policy)
        if not ok:
            status = 1
        table = dict(zip(EVAL_COLUMNS, columns))
        _write_figure_csv(
            outdir / f"figure2_p{p}_q{q}.csv",
            header,
            [table[name] for name in header],
        )
        summary.append([p, q, float(table["abs_error"].max())])
    _write_figure_csv(outdir / "figure2_supgap.csv", ["p", "q", "sup_gap"],
                      list(zip(*summary)))
    return status


def _cmd_figure(args) -> int:
    unused = ["fn", "tol", "kmax"] if args.id == 1 else ["p", "q"]
    given = [f"--{name}" for name in unused if getattr(args, name) is not None]
    if given:
        raise ValueError(f"figure {args.id} does not use {', '.join(given)}")
    outdir = Path(args.out) if args.out is not None else Path(".")
    if args.id == 1:
        return _figure1(args, outdir)
    return _figure2(args, outdir)


def _resolve_scheme(spec: str) -> stat_mod.SequenceScheme:
    if spec == "paper":
        return stat_mod.scheme_paper()
    if spec.startswith("constant:"):
        parts = spec.split(":")[1:]
        if len(parts) != 2:
            raise ValueError("constant scheme spec is constant:P:Q")
        return stat_mod.scheme_constant(float(parts[0]), float(parts[1]))
    if spec.startswith("expr:"):
        body = spec[len("expr:"):]
        if ";" not in body:
            raise ValueError("expression scheme spec is expr:P_EXPR;Q_EXPR")
        p_text, q_text = body.split(";", 1)
        p_expr = parse_function(p_text, var="n")
        q_expr = parse_function(q_text, var="n")
        return stat_mod.SequenceScheme(
            spec, lambda n: (p_expr(n), q_expr(n))
        )
    raise ValueError(f"unknown scheme {spec!r}")


def _cmd_stat(args) -> int:
    scheme = _resolve_scheme(args.scheme)
    f = resolve_function(args.fn)
    Ns = [int(s) for s in args.Ns.split(",")]
    policy = _policy_from_args(args)
    reports = stat_mod.st_korovkin_check(scheme, f, args.eps, Ns, policy=policy)
    names = ("Ns", "member_counts", "densities", "excluded_counts")
    if args.format == "csv":
        labels = [label for label, r in reports.items() for _ in r.Ns]
        columns = [[v for r in reports.values() for v in getattr(r, name)]
                   for name in names]
        _write_csv(args.out, ["g", *stat_mod.DensityReport.CSV_COLUMNS],
                   [labels, *columns])
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "epsilon": args.eps,
            "scheme": scheme.name,
            "reports": {label: {name: getattr(r, name) for name in names}
                        for label, r in reports.items()},
        }
        _write_json(args.out, payload)
    return 0


def _eval_options(parser) -> None:
    _add_common(parser)
    parser.add_argument("--x", type=float, default=None)
    parser.add_argument("--grid", default=None, help="COUNT or COUNT:LO:HI")
    parser.add_argument("--sup-bound", dest="sup_bound", type=float, default=None)
    parser.set_defaults(handler=_cmd_eval)


def _moments_options(parser) -> None:
    _add_common(parser, with_function=False)
    parser.add_argument("--grid", default=None, help="COUNT or COUNT:LO:HI")
    parser.set_defaults(handler=_cmd_moments)


def _bounds_options(parser) -> None:
    _add_common(parser)
    parser.add_argument("--grid", default=DEFAULT_GRID, help="COUNT or COUNT:LO:HI")
    parser.add_argument(
        "--resolution", type=int, default=1025,
        help="lattice points on [0, 1] for the moduli (default 1025); a finer "
        "lattice raises the moduli only when it contains the coarser one "
        "(R-1 divides R'-1)",
    )
    parser.add_argument(
        "--alpha", type=float, default=None, help="Lipschitz exponent (default 1)"
    )
    parser.add_argument("--lip-M", dest="lip_M", type=float, default=None)
    parser.add_argument("--sup-bound", dest="sup_bound", type=float, default=None)
    parser.set_defaults(handler=_cmd_bounds, format="json")


def _identity_options(parser) -> None:
    _add_common(parser, with_function=False)
    parser.add_argument("--grid", default=DEFAULT_GRID, help="COUNT or COUNT:LO:HI")
    parser.set_defaults(handler=_cmd_identity)


def _figure_options(parser) -> None:
    parser.add_argument("--id", type=int, choices=[1, 2], required=True)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--p", type=float, default=None, help="figure 1 only")
    parser.add_argument("--q", type=float, default=None, help="figure 1 only")
    parser.add_argument("--fn", default=None, help="figure 2 only")
    parser.add_argument("--tol", type=float, default=None, help="figure 2 only")
    parser.add_argument("--kmax", type=int, default=None, help="figure 2 only")
    parser.add_argument("--out", default=None, help="output directory")
    parser.set_defaults(handler=_cmd_figure)


def _stat_options(parser) -> None:
    parser.add_argument("--scheme", default="paper")
    parser.add_argument("--fn", default="paper_cubic")
    parser.add_argument("--eps", type=float, default=0.2)
    parser.add_argument("--Ns", default="50,100,200")
    parser.add_argument("--tol", type=float, default=stat_mod.STAT_POLICY.tail_tol)
    parser.add_argument("--kmax", type=int, default=stat_mod.STAT_POLICY.k_max)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.set_defaults(handler=_cmd_stat)


# each command's help text, and the function that adds its options and
# handler, in the order of the usage line
_COMMANDS = {
    "eval": ("evaluate the operator", _eval_options),
    "moments": ("moment diagnostics over a grid", _moments_options),
    "bounds": ("error bounds vs empirical error", _bounds_options),
    "identity": ("normalization defect over a grid", _identity_options),
    "figure": ("emit plot-ready data files", _figure_options),
    "stat": ("statistical convergence densities", _stat_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The pqmkz parser.  Every command is registered, so the top-level
    usage, help and errors are the same whichever is built; when command
    names one, only its options are added, else every command's."""
    parser = argparse.ArgumentParser(
        prog="pqmkz",
        description="Two-parameter Meyer-Konig-Zeller operator experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_options) in _COMMANDS.items():
        sub_parser = sub.add_parser(name, help=text)
        if command not in _COMMANDS or command == name:
            add_options(sub_parser)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # a parse needs the options of the command it names only (argv[0])
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered, and the
        # flush at exit, to devnull (the SIGPIPE recipe of the Python docs)
        # and report the output as incomplete; caught before OSError, of
        # which it is a subclass
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ParseError, EvalError, OSError, MemoryError) as exc:
        # an f with no finite sup bound: name the option that gives one
        hint = ""
        if isinstance(exc, SupBoundError) and hasattr(args, "sup_bound"):
            hint = "; give a finite one with --sup-bound"
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
