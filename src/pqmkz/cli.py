"""Command-line surface: experiments in, CSV/JSON data files out.

Numbers are printed with 17 significant digits so doubles round-trip; every
truncated value is emitted next to its tail mass and convergence flag.  All
output is deterministic for fixed inputs.

Exit codes: 0 success, 1 evaluation failures (partial output written),
2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bounds as bounds_mod
from . import moments as moments_mod
from . import statistical as stat_mod
from .engine import (
    Function,
    PQParams,
    TruncationPolicy,
    evaluate,
    normalization_defect,
    normalization_partial_sum,
)
from .expressions import EvalError, ParseError, parse_function
from .pqcore import PQPair
from .presets import builtin

SCHEMA_VERSION = 1

FIGURE2_PAIRS = [(0.9, 0.85), (0.95, 0.9), (0.999, 0.995)]


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _write_csv(path, header: Sequence[str], rows) -> None:
    out = sys.stdout if path is None else open(path, "w", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    finally:
        if path is not None:
            out.close()


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def resolve_function(spec: str) -> Function:
    preset = builtin(spec)
    if preset is not None:
        return preset
    return Function(parse_function(spec).evaluate_array, spec)


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) == 1:
        count, lo, hi = int(parts[0]), 0.0, 1.0
    elif len(parts) == 3:
        count, lo, hi = int(parts[0]), float(parts[1]), float(parts[2])
    else:
        raise ValueError(f"grid spec must be COUNT or COUNT:LO:HI, got {spec!r}")
    if count < 1:
        raise ValueError("grid needs at least one point")
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError("grid range must satisfy 0 <= lo <= hi <= 1")
    if count == 1:
        return [lo]
    return [float(v) for v in np.linspace(lo, hi, count)]


def _params_from_args(args) -> PQParams:
    pq = PQPair(args.p, args.q)
    return PQParams(args.n, pq)


def _policy_from_args(args) -> TruncationPolicy:
    return TruncationPolicy(
        tail_tol=args.tol,
        k_max=args.kmax,
        f_sup_bound=getattr(args, "sup_bound", None),
    )


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
    parser.add_argument("--tol", type=float, default=1e-12, help="tail mass target")
    parser.add_argument("--kmax", type=int, default=100_000, help="term cap")
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


def _eval_rows(params, f, grid, policy):
    outs = [evaluate(params, f, x, policy) for x in grid]
    fxs = f.values(np.array(grid, dtype=float)).tolist()
    rows = [
        [x, out.value, fx, abs(out.value - fx), out.tail_mass,
         out.terms_used, out.error_bound, out.converged]
        for x, out, fx in zip(grid, outs, fxs)
    ]
    return rows, all(out.converged for out in outs)


def _cmd_eval(args) -> int:
    params = _params_from_args(args)
    policy = _policy_from_args(args)
    f = resolve_function(args.fn)
    if args.x is not None:
        grid = [args.x]
    elif args.grid is not None:
        grid = _parse_grid(args.grid)
    else:
        raise ValueError("eval needs --x or --grid")
    rows, ok = _eval_rows(params, f, grid, policy)
    if args.x is not None and args.out is None and args.format == "csv":
        for name, v in zip(EVAL_COLUMNS, rows[0]):
            print(f"{name}={_fmt(v)}")
    elif args.format == "csv":
        _write_csv(args.out, EVAL_COLUMNS, rows)
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "results": [dict(zip(EVAL_COLUMNS, row)) for row in rows],
        }
        _write_json(args.out, payload)
    return 0 if ok else 1


def _cmd_moments(args) -> int:
    params = _params_from_args(args)
    policy = _policy_from_args(args)
    grid = (
        _parse_grid(args.grid)
        if args.grid is not None
        else moments_mod.default_moment_grid()
    )
    reports = moments_mod.lemma_bounds_report(params, grid, policy)
    rows = [r.csv_row() for r in reports]
    if args.format == "csv":
        _write_csv(args.out, moments_mod.MOMENT_CSV_COLUMNS, rows)
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "rows": [
                dict(zip(moments_mod.MOMENT_CSV_COLUMNS, row)) for row in rows
            ],
        }
        _write_json(args.out, payload)
    ok = all(r.m0.converged and r.m1.converged and r.m2.converged for r in reports)
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    params = _params_from_args(args)
    policy = _policy_from_args(args)
    f = resolve_function(args.fn)
    grid = (
        _parse_grid(args.grid) if args.grid is not None else _parse_grid("101:0:0.99")
    )
    if args.format == "csv":
        rows, ok = _eval_rows(params, f, grid, policy)
        _write_csv(args.out, EVAL_COLUMNS, rows)
        return 0 if ok else 1
    lip = None
    if args.lip_M is not None:
        lip = (args.lip_M, args.alpha)
    report = bounds_mod.bound_report(
        params, f, grid, policy, resolution=args.resolution, lipschitz=lip
    )
    _write_json(args.out, report.to_json_dict())
    return 0 if report.converged else 1


def _cmd_identity(args) -> int:
    params = _params_from_args(args)
    policy = _policy_from_args(args)
    grid = (
        _parse_grid(args.grid) if args.grid is not None else _parse_grid("101:0:0.99")
    )
    rows = []
    ok = True
    for x in grid:
        defect = normalization_defect(params, x, policy)
        converged = defect <= policy.tail_tol
        ok = ok and converged
        rows.append([x, defect, converged])
    _write_csv(args.out, ["x", "defect", "converged"], rows)
    return 0 if ok else 1


def _figure1(args, outdir: Path) -> int:
    n = args.n if args.n is not None else 3
    p = args.p if args.p is not None else 0.95
    q = args.q if args.q is not None else 0.9
    params = PQParams(n, PQPair(p, q))
    grid = np.linspace(0.0, 0.99, 201)
    rows = []
    for x in grid:
        s100 = normalization_partial_sum(params, float(x), 101)
        s500 = normalization_partial_sum(params, float(x), 501)
        rows.append([x, s100, s500, abs(1.0 - s100), abs(1.0 - s500)])
    _write_csv(
        outdir / "figure1.csv",
        ["x", "s_k100", "s_k500", "defect_k100", "defect_k500"],
        rows,
    )
    return 0


def _figure2(args, outdir: Path) -> int:
    n = args.n if args.n is not None else 10
    f = resolve_function(args.fn)
    policy = TruncationPolicy(tail_tol=args.tol, k_max=args.kmax)
    grid = [float(v) for v in np.linspace(0.0, 0.99, 201)]
    columns = ["x", "value", "f_x", "abs_error", "tail_mass", "converged"]
    keep = [EVAL_COLUMNS.index(c) for c in columns]
    gap = EVAL_COLUMNS.index("abs_error")
    summary = []
    status = 0
    for p, q in FIGURE2_PAIRS:
        params = PQParams(n, PQPair(p, q))
        rows, ok = _eval_rows(params, f, grid, policy)
        if not ok:
            status = 1
        _write_csv(
            outdir / f"figure2_p{p}_q{q}.csv",
            columns,
            [[row[i] for i in keep] for row in rows],
        )
        summary.append([p, q, max(row[gap] for row in rows)])
    _write_csv(outdir / "figure2_supgap.csv", ["p", "q", "sup_gap"], summary)
    return status


def _cmd_figure(args) -> int:
    outdir = Path(args.out) if args.out is not None else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
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
    policy = TruncationPolicy(tail_tol=args.tol, k_max=args.kmax)
    reports = stat_mod.st_korovkin_check(scheme, f, args.eps, Ns, policy=policy)
    rows = []
    for label, report in reports.items():
        for row in report.csv_rows():
            rows.append([label] + row)
    if args.format == "csv":
        _write_csv(args.out, ["g", "N", "count", "density", "excluded"], rows)
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "epsilon": args.eps,
            "scheme": scheme.name,
            "reports": {
                label: {
                    "Ns": r.Ns,
                    "member_counts": r.member_counts,
                    "densities": r.densities,
                    "excluded_counts": r.excluded_counts,
                }
                for label, r in reports.items()
            },
        }
        _write_json(args.out, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqmkz",
        description="Two-parameter Meyer-Konig-Zeller operator experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the operator")
    _add_common(p_eval)
    p_eval.add_argument("--x", type=float, default=None)
    p_eval.add_argument("--grid", default=None, help="COUNT or COUNT:LO:HI")
    p_eval.add_argument("--sup-bound", dest="sup_bound", type=float, default=None)
    p_eval.set_defaults(handler=_cmd_eval)

    p_mom = sub.add_parser("moments", help="moment diagnostics over a grid")
    _add_common(p_mom, with_function=False)
    p_mom.add_argument("--grid", default=None, help="COUNT or COUNT:LO:HI")
    p_mom.set_defaults(handler=_cmd_moments)

    p_bounds = sub.add_parser("bounds", help="error bounds vs empirical error")
    _add_common(p_bounds)
    p_bounds.add_argument("--grid", default=None, help="COUNT or COUNT:LO:HI")
    p_bounds.add_argument("--resolution", type=int, default=1025)
    p_bounds.add_argument("--alpha", type=float, default=1.0)
    p_bounds.add_argument("--lip-M", dest="lip_M", type=float, default=None)
    p_bounds.set_defaults(handler=_cmd_bounds, format="json")

    p_id = sub.add_parser("identity", help="normalization defect over a grid")
    _add_common(p_id, with_function=False)
    p_id.add_argument("--grid", default=None, help="COUNT or COUNT:LO:HI")
    p_id.set_defaults(handler=_cmd_identity)

    p_fig = sub.add_parser("figure", help="emit plot-ready data files")
    p_fig.add_argument("--id", type=int, choices=[1, 2], required=True)
    p_fig.add_argument("--n", type=int, default=None)
    p_fig.add_argument("--p", type=float, default=None)
    p_fig.add_argument("--q", type=float, default=None)
    p_fig.add_argument("--fn", default="paper_cubic")
    p_fig.add_argument("--tol", type=float, default=1e-12)
    p_fig.add_argument("--kmax", type=int, default=100_000)
    p_fig.add_argument("--out", default=None, help="output directory")
    p_fig.set_defaults(handler=_cmd_figure)

    p_stat = sub.add_parser("stat", help="statistical convergence densities")
    p_stat.add_argument("--scheme", default="paper")
    p_stat.add_argument("--fn", default="paper_cubic")
    p_stat.add_argument("--eps", type=float, default=0.2)
    p_stat.add_argument("--Ns", default="50,100,200")
    p_stat.add_argument("--tol", type=float, default=1e-8)
    p_stat.add_argument("--kmax", type=int, default=5000)
    p_stat.add_argument("--out", default=None)
    p_stat.add_argument("--format", choices=["csv", "json"], default="csv")
    p_stat.set_defaults(handler=_cmd_stat)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, ParseError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
