"""Command-line front end: solve, order, basin, scan, compare.

Exit codes: 0 on success (solve/order: converged), 2 on non-convergence or
a degenerate/NaN outcome, 1 on usage or parse errors.  Numeric output is a
pure function of the flags.  ``--preset`` expands to a documented flag set;
explicit flags override preset values, and ``--config FILE`` (a JSON object
keyed by long flag names) sits between the two.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import diagnostics as diag
from .basins import BasinSpec, line_scan, render, write_image
from .expr import ExprError
from .mpscalar import Precision, log10_abs, parse_complex, parse_real, to_decimal
from .solve import (METHODS, SolveConfig, read_trace_text, solve_expr,
                    write_trace_csv, write_trace_text)

PRESETS = {
    "newton-classic": {
        "commands": ("solve", "order", "compare"),
        "values": {"f": "x^3-2*x-5", "x0": "1", "digits": 40, "method": "ici"},
    },
    "exp-1000": {
        "commands": ("solve", "order", "compare"),
        "values": {"f": "(x^2+x)*exp(-x)-1/3", "x0": "2.0", "digits": 1000,
                   "max_iter": 8, "method": "ici"},
    },
    "cube-roots": {
        "commands": ("basin", "scan"),
        "values": {"f": "z^3-1", "re": [-2.0, 2.0], "im": [-2.0, 2.0],
                   "size": [1600, 1600], "max_iter": 13, "tol": "1e-8"},
    },
    "kepler-basin": {
        "commands": ("basin", "scan"),
        "values": {"f": "z - 0.083*sin(z) - 1", "re": [-30.5, -29.5],
                   "im": [-17.5, -16.5], "size": [1600, 1600],
                   "max_iter": 30, "tol": "1e-8"},
    },
}


class CliUsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="iciroot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--f", help="function text, e.g. 'x^3-2*x-5'")
        p.add_argument("--digits", type=int, help="working precision in decimal digits")
        p.add_argument("--tol", help="residual tolerance (decimal literal)")
        p.add_argument("--max-iter", type=int, dest="max_iter")
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--config", help="JSON file with flag values")
        p.add_argument("--out", help="output file path")

    def add_solve_like(p):
        add_common(p)
        p.add_argument("--x0", help="initial guess; an 'i'/'j' suffix selects complex mode")
        p.add_argument("--method", choices=METHODS)
        p.add_argument("--complex", action="store_true", dest="complex_mode",
                       help="force complex mode even for a real x0")
        p.add_argument("--format", choices=("csv", "text"), help="--out file format")

    p_solve = sub.add_parser("solve", help="run one solve and print the trace")
    add_solve_like(p_solve)

    p_order = sub.add_parser("order", help="solve and report convergence diagnostics")
    add_solve_like(p_order)
    p_order.add_argument("--trace", help="read a saved text trace instead of solving")

    p_compare = sub.add_parser("compare", help="newton vs ici vs secant on one problem")
    add_solve_like(p_compare)

    def add_grid(p):
        add_common(p)
        p.add_argument("--re", nargs=2, type=float, help="real-axis range MIN MAX")
        p.add_argument("--im", nargs=2, type=float, help="imaginary-axis range MIN MAX")
        p.add_argument("--size", nargs="+", type=int, help="pixels: WIDTH [HEIGHT]")
        p.add_argument("--workers", type=int, help="row-parallel worker processes")
        p.add_argument("--overflow-exp", type=int, dest="overflow_exp",
                       help="decimal exponent treated as overflow (NaN pixel)")

    p_basin = sub.add_parser("basin", help="render a basin-of-attraction image (PPM)")
    add_grid(p_basin)
    p_basin.add_argument("--csv", help="also dump per-pixel outcomes as CSV")

    p_scan = sub.add_parser("scan", help="root assignments along a complex segment")
    add_grid(p_scan)
    p_scan.add_argument("--from", dest="seg_from", help="segment start, e.g. '-1.45+0i'")
    p_scan.add_argument("--to", dest="seg_to", help="segment end")
    p_scan.add_argument("--samples", type=int)
    return parser


def _load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliUsageError(f"--config: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliUsageError("--config: expected a JSON object")
    return {str(k).replace("-", "_"): v for k, v in raw.items()}


def _resolve(args, keys, defaults):
    """Layer values: explicit flag > --config > --preset > built-in default."""
    config = _load_config(args.config) if args.config else {}
    preset = {}
    if args.preset:
        info = PRESETS[args.preset]
        if args.command not in info["commands"]:
            raise CliUsageError(f"--preset {args.preset} does not apply to '{args.command}'")
        preset = {k.replace("-", "_"): v for k, v in info["values"].items()}
    out = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is None or value is False:     # an explicit 0 is a value (0 == False)
            value = config.get(key, preset.get(key, defaults.get(key)))
        out[key] = value
    return out


_FLAG_NAMES = {"seg_from": "from", "seg_to": "to"}


def _require(values, *names):
    for name in names:
        if values.get(name) is None:
            flag = _FLAG_NAMES.get(name, name.replace("_", "-"))
            raise CliUsageError(f"missing required flag --{flag}")


def _solve_setup(values):
    digits = int(values["digits"])
    p = Precision(digits)
    cfg = SolveConfig(precision=p, tol=values["tol"], method=values["method"],
                      max_iter=int(values["max_iter"]))
    x0_text = str(values["x0"])
    complex_mode = values["complex_mode"] or ("i" in x0_text) or ("j" in x0_text)
    x0 = parse_complex(x0_text, p) if complex_mode else parse_real(x0_text, p)
    return p, cfg, x0


_SOLVE_KEYS = ("f", "x0", "digits", "tol", "max_iter", "method",
               "complex_mode", "format", "out")
_SOLVE_DEFAULTS = {"digits": 40, "max_iter": 100, "method": "ici",
                   "complex_mode": False, "format": "csv"}


def _print_trace(trace, digits):
    show = min(digits, 24)
    print(f"{'n':>4}  {'step':<16} {'x':<{show + 8}} {'log10|y|':>12}")
    for rec in trace.records:
        print(f"{rec.n:>4}  {rec.step_kind:<16} {to_decimal(rec.x, show):<{show + 8}} "
              f"{to_decimal(log10_abs(rec.y), 6):>12}")


def _write_solve_output(trace, values):
    meta = {"function": values["f"], "x0": values["x0"], "digits": values["digits"],
            "tol": to_decimal(values["_cfg"].tol, 8), "method": values["method"]}
    if values["format"] == "text":
        write_trace_text(trace, meta, values["out"])
    else:
        write_trace_csv(trace, values["out"], digits=int(values["digits"]))


def _run_solve(args) -> int:
    values = _resolve(args, _SOLVE_KEYS, _SOLVE_DEFAULTS)
    _require(values, "f", "x0")
    p, cfg, x0 = _solve_setup(values)
    values["_cfg"] = cfg
    trace = solve_expr(values["f"], x0, cfg)
    _print_trace(trace, p.digits)
    print(f"status: {trace.status} ({len(trace) - 1} iterations)")
    print(f"root: {to_decimal(trace.final.x, p.digits)}")
    if diag.ratio_growth_flag(trace):
        print("warning: residual ratios grow without bound "
              "(multiple-root signature); convergence is slow")
    if values["out"]:
        _write_solve_output(trace, values)
    return 0 if trace.converged else 2


def _run_order(args) -> int:
    values = _resolve(args, _SOLVE_KEYS + ("trace",), _SOLVE_DEFAULTS)
    if values["trace"]:
        trace, meta = read_trace_text(values["trace"])
        status_code = 0
    else:
        _require(values, "f", "x0")
        p, cfg, x0 = _solve_setup(values)
        trace = solve_expr(values["f"], x0, cfg)
        status_code = 0 if trace.converged else 2
        print(f"status: {trace.status} ({len(trace) - 1} iterations)")
    report = diag.build_report(trace)
    print(diag.report_to_text(report, digits=8), end="")
    if values["out"]:
        diag.write_report_csv(report, values["out"])
    return status_code


def _run_compare(args) -> int:
    values = _resolve(args, _SOLVE_KEYS, _SOLVE_DEFAULTS)
    _require(values, "f", "x0")
    print(f"{'method':<14} {'status':<12} {'iterations':>10} {'f_evals':>8} {'digits':>12}")
    worst = 0
    for method in ("newton", "ici", "secant"):
        method_values = dict(values, method=method)
        p, cfg, x0 = _solve_setup(method_values)
        trace = solve_expr(values["f"], x0, cfg)
        achieved = to_decimal(-log10_abs(trace.final.y), 6)
        print(f"{method:<14} {trace.status:<12} {len(trace) - 1:>10} {len(trace):>8} {achieved:>12}")
        if trace.status in ("degenerate", "nan"):
            worst = 2
    return worst


_GRID_KEYS = ("f", "re", "im", "size", "digits", "tol", "max_iter",
              "workers", "overflow_exp", "out")
_GRID_DEFAULTS = {"re": [-2.0, 2.0], "im": [-2.0, 2.0], "size": [200],
                  "digits": 34, "tol": "1e-8", "max_iter": 13,
                  "workers": 1, "overflow_exp": 308}


def _grid_spec(values) -> BasinSpec:
    size = values["size"]
    if isinstance(size, int):
        size = [size]
    if len(size) > 2:
        raise CliUsageError(f"--size takes WIDTH [HEIGHT], got {len(size)} values")
    width = int(size[0])
    height = int(size[1]) if len(size) > 1 else width
    return BasinSpec(ftext=values["f"],
                     re_range=tuple(values["re"]), im_range=tuple(values["im"]),
                     width=width, height=height,
                     max_iter=int(values["max_iter"]), tol=str(values["tol"]),
                     precision=Precision(int(values["digits"])),
                     overflow_exp=int(values["overflow_exp"]),
                     workers=int(values["workers"]))


def _run_basin(args) -> int:
    values = _resolve(args, _GRID_KEYS + ("csv",), _GRID_DEFAULTS)
    _require(values, "f")
    spec = _grid_spec(values)
    raster = render(spec)
    out = values["out"] or "basin.ppm"
    write_image(raster, out)
    conv, nan = raster.counts()
    total = spec.width * spec.height
    print(f"wrote {out}: {spec.width}x{spec.height}, "
          f"converged {conv}/{total}, nan {nan}")
    if values["csv"]:
        raster.to_csv(values["csv"])
        print(f"wrote {values['csv']}")
    return 0


def _run_scan(args) -> int:
    values = _resolve(args, _GRID_KEYS + ("seg_from", "seg_to", "samples"),
                      dict(_GRID_DEFAULTS, samples=400))
    _require(values, "f", "seg_from", "seg_to")
    spec = _grid_spec(values)
    p = spec.precision
    seg = (parse_complex(str(values["seg_from"]), p), parse_complex(str(values["seg_to"]), p))
    samples = int(values["samples"])
    assignments = line_scan(spec, seg, samples)
    changes = sum(1 for k in range(1, len(assignments)) if assignments[k] != assignments[k - 1])
    print(f"samples: {samples}")
    print(f"assignment changes: {changes}")
    print(f"distinct assignments: {sorted(set(assignments))}")
    if values["out"]:
        import csv as _csv

        with open(values["out"], "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["sample", "assignment"])
            for k, a in enumerate(assignments):
                w.writerow([k, a])
        print(f"wrote {values['out']}")
    return 0


_DISPATCH = {"solve": _run_solve, "order": _run_order, "compare": _run_compare,
             "basin": _run_basin, "scan": _run_scan}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except (CliUsageError, ExprError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
