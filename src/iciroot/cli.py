"""Command-line front end: solve, order, basin, scan, compare.

Exit codes: 0 on success (solve/order: converged), 2 on non-convergence or
a degenerate/NaN outcome (compare: only a method that stops degenerate or
NaN), 1 on usage, parse or file errors.  Numeric output is a pure function of
the flags.  ``--preset`` expands to one of the subcommand's own documented
flag sets; explicit flags override preset values.  Flags are taken by their
whole names only.  An x0 ending in the imaginary unit (``--x0 5+0i``) solves
in complex mode.  ``solve --out`` writes the trace text that ``order
--trace`` reads back, and ``order --out`` the report's per-step table as CSV.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .expr import ExprError
from .mpscalar import Precision, log10_abs_text, opened, parse_complex, parse_scalar, to_decimal
from .solve import (METHODS, STATUS_DEGENERATE, STATUS_NAN, SolveConfig, read_trace_text,
                    solve_expr, write_trace_text)

SOLVE_PRESETS = {
    "newton-classic": {"f": "x^3-2*x-5", "x0": "1", "digits": 40},
    "exp-1000": {"f": "(x^2+x)*exp(-x)-1/3", "x0": "2.0", "digits": 1000, "max_iter": 8},
}

GRID_PRESETS = {
    "cube-roots": {"f": "z^3-1", "re": ["-2.0", "2.0"], "im": ["-2.0", "2.0"],
                   "size": [1600, 1600], "max_iter": 13, "tol": "1e-8"},
    "kepler-basin": {"f": "z - 0.083*sin(z) - 1", "re": ["-30.5", "-29.5"],
                     "im": ["-17.5", "-16.5"], "size": [1600, 1600], "max_iter": 30, "tol": "1e-8"},
}


class CliUsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)

    def _parse_optional(self, arg_string):
        # every flag but -h starts with '--', so any other argument led by a
        # single '-' is a value (-1e-3, -0.5+0.5i, -inf, -x^3+2*x+5); the
        # readers of numbers and expressions alone decide whether it is one
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)


def _build_parser():
    """The ``iciroot`` parser and its subcommand parsers by name.

    The grid flags default to None, so that ``BasinSpec``'s own defaults
    apply: the renderer loads where ``basin`` or ``scan`` runs, not here.
    """
    parser = _Parser(prog="iciroot", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help, run, digits, max_iter, tol, presets):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(run=run)
        p.add_argument("--f", type=str, help="function text, e.g. 'x^3-2*x-5'")
        p.add_argument("--digits", type=int, default=digits,
                       help="working precision in decimal digits")
        p.add_argument("--tol", type=str, default=tol,
                       help="residual tolerance (decimal literal)")
        p.add_argument("--max-iter", type=int, dest="max_iter", default=max_iter)
        p.add_argument("--preset", choices=sorted(presets))
        return p

    def add_solve_like(name, help, run, out_help=None):
        p = add_command(name, help, run, Precision.digits, SolveConfig.max_iter, None,
                        SOLVE_PRESETS)
        p.add_argument("--x0", type=str,
                       help="initial guess; an 'i'/'j' suffix (5+0i) selects complex mode")
        if out_help:        # compare runs every method and writes no file
            p.add_argument("--method", choices=METHODS, default=SolveConfig.method)
            p.add_argument("--out", type=str, help=out_help)
        return p

    add_solve_like("solve", "run one solve and print the trace", _run_solve,
                   "write the trace text that order --trace reads")
    p_order = add_solve_like("order", "solve and report convergence diagnostics", _run_order,
                             "write the report's per-step table as CSV")
    p_order.add_argument("--trace", type=str,
                         help="read a trace written by solve --out instead of solving")
    add_solve_like("compare", "newton vs ici vs secant on one problem", _run_compare)

    def add_grid(name, help, run):
        p = add_command(name, help, run, None, None, None, GRID_PRESETS)
        p.add_argument("--out", type=str, help="output file path")
        return p

    p_basin = add_grid("basin", "render a basin-of-attraction image (PPM)", _run_basin)
    p_basin.add_argument("--re", nargs=2, type=str, help="real-axis range MIN MAX")
    p_basin.add_argument("--im", nargs=2, type=str, help="imaginary-axis range MIN MAX")
    p_basin.add_argument("--size", nargs="+", type=int, help="pixels: WIDTH [HEIGHT]")
    p_basin.add_argument("--workers", type=int, help="row-parallel worker processes")
    p_basin.add_argument("--csv", type=str, help="also dump per-pixel outcomes as CSV")
    p_scan = add_grid("scan", "root assignments along a complex segment", _run_scan)
    p_scan.add_argument("--from", dest="seg_from", type=str,
                        help="segment start, e.g. '-1.45+0i'")
    p_scan.add_argument("--to", dest="seg_to", type=str, help="segment end")
    p_scan.add_argument("--samples", type=int, default=400)
    return parser, sub.choices


def _parse_args(argv):
    """Parse, make --preset the subcommand's defaults, parse again.

    An explicit flag thus beats the preset, which beats the built-in default.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "order" and args.trace:
        # parsed again without defaults, the namespace holds only the flags given
        for action in commands["order"]._actions:
            action.default = argparse.SUPPRESS
        given = vars(parser.parse_args(argv))
        for name in ("f", "x0", "digits", "tol", "max_iter", "method", "preset"):
            if name in given:
                raise CliUsageError(f"--trace reads a saved trace; {_flag(name)} does not apply")
    if args.preset:
        commands[args.command].set_defaults(**{**SOLVE_PRESETS, **GRID_PRESETS}[args.preset])
        args = parser.parse_args(argv)
    return args


def _flag(name):
    return "--" + {"seg_from": "from", "seg_to": "to"}.get(name, name.replace("_", "-"))


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise CliUsageError(f"missing required flag {_flag(name)}")


def _solve_flags(args, method):
    """(trace, config) of the solve that --f, --x0 and the shared solve flags ask for."""
    _require(args, "f", "x0")
    p = Precision(args.digits)
    cfg = SolveConfig(precision=p, tol=args.tol, method=method, max_iter=args.max_iter)
    return solve_expr(args.f, parse_scalar(args.x0, p), cfg), cfg


def _print_trace(trace, digits):
    """The trace table; log10|y| to 6 digits by ``log10_abs_text`` (the bracket rule)."""
    show = min(digits, 24)
    print(f"{'n':>4}  {'step':<16} {'x':<{show + 8}} {'log10|y|':>12}")
    for rec in trace.records:
        print(f"{rec.n:>4}  {rec.step_kind:<16} {to_decimal(rec.x, show):<{show + 8}} "
              f"{log10_abs_text(rec.y, 6):>12}")


def _run_solve(args) -> int:
    from .diagnostics import root_multiplicity

    trace, cfg = _solve_flags(args, args.method)
    _print_trace(trace, args.digits)
    print(f"status: {trace.status} ({len(trace) - 1} iterations)")
    print(f"root: {to_decimal(trace.final.x, args.digits)}")
    m = root_multiplicity(trace)
    if m:
        print(f"warning: multiple-root of multiplicity ~{m}; convergence is linear")
    if args.out:
        meta = {"function": args.f, "x0": args.x0, "digits": args.digits,
                "tol": to_decimal(cfg.tol, 8), "method": args.method}
        write_trace_text(trace, meta, args.out)
    return 0 if trace.converged else 2


def _run_order(args) -> int:
    from .diagnostics import build_report, report_to_text, write_report_csv

    if args.trace:
        trace, _ = read_trace_text(args.trace)
    else:
        trace, _ = _solve_flags(args, args.method)
    print(f"status: {trace.status} ({len(trace) - 1} iterations)")
    report = build_report(trace)
    print(report_to_text(report, digits=8), end="")
    if args.out:
        write_report_csv(report, args.out)
    return 0 if trace.converged else 2


def _run_compare(args) -> int:
    _require(args, "f", "x0")      # before the header, as well as in each solve
    print(f"{'method':<14} {'status':<12} {'iterations':>10} {'f_evals':>8} {'digits':>12}")
    worst = 0
    for method in ("newton", "ici", "secant"):
        trace, _ = _solve_flags(args, method)
        achieved = log10_abs_text(trace.final.y, 6, negate=True)
        print(f"{method:<14} {trace.status:<12} {len(trace) - 1:>10} {len(trace):>8} {achieved:>12}")
        if trace.status in (STATUS_DEGENERATE, STATUS_NAN):
            worst = 2
    return worst


def _grid_spec(args, **given):
    """The BasinSpec of --f and the grid flags given; BasinSpec's defaults fill the rest."""
    from .basins import BasinSpec

    digits = args.digits
    given.update(precision=None if digits is None else Precision(digits), max_iter=args.max_iter, tol=args.tol)
    return BasinSpec(args.f, **{k: v for k, v in given.items() if v is not None})


def _run_basin(args) -> int:
    from .basins import render, write_image

    _require(args, "f")
    size = args.size or [None]
    if len(size) > 2:
        raise CliUsageError(f"--size takes WIDTH [HEIGHT], got {len(size)} values")
    spec = _grid_spec(args, re_range=args.re and tuple(args.re), im_range=args.im and tuple(args.im),
                      width=size[0], height=size[-1], workers=args.workers)
    raster = render(spec)
    out = args.out or "basin.ppm"
    write_image(raster, out)
    conv, nan = raster.counts()
    total = spec.width * spec.height
    print(f"wrote {out}: {spec.width}x{spec.height}, "
          f"converged {conv}/{total}, nan {nan}")
    if args.csv:
        raster.to_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0


def _run_scan(args) -> int:
    from .basins import line_scan

    _require(args, "f", "seg_from", "seg_to")
    spec = _grid_spec(args)
    p = spec.precision
    seg = (parse_complex(args.seg_from, p), parse_complex(args.seg_to, p))
    assignments = line_scan(spec, seg, args.samples)
    changes = sum(1 for k in range(1, len(assignments)) if assignments[k] != assignments[k - 1])
    print(f"samples: {args.samples}")
    print(f"assignment changes: {changes}")
    print(f"distinct assignments: {sorted(set(assignments))}")
    if args.out:
        with opened(args.out, "w") as fh:
            w = csv.writer(fh)
            w.writerow(["sample", "assignment"])
            w.writerows(enumerate(assignments))
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return args.run(args)
    except (CliUsageError, ExprError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
