"""Arbitrary-precision scalar rootfinding via a blended Newton/secant step.

The production iteration averages two Newton steps and a secant step with
residual-derived weights, equivalently evaluating an inverse cubic Hermite
interpolant at height zero.  It needs one function evaluation and one
derivative evaluation per step and converges with order 1 + sqrt(3).
"""

from .basins import BasinRaster, BasinSpec, line_scan, render, write_image
from .diagnostics import (ConvergenceReport, build_report, error_constant_oracle,
                          ratio_growth_flag, residual_ratio_limit)
from .expr import ExprError, ExprSyntaxError, UnknownIdentifierError, differentiate, evaluate, parse, render as render_expr
from .kernel import (EqualResidualsError, PointSample, ZeroDerivativeError, ici_step,
                     newton_step, secant_step)
from .mpscalar import Precision, log10_abs, parse_complex, parse_real, to_decimal
from .solve import (IterationRecord, IterationTrace, SolveConfig, read_trace_text,
                    solve, solve_expr, write_trace_csv, write_trace_text)

__version__ = "0.1.0"

__all__ = [
    "BasinRaster", "BasinSpec", "line_scan", "render", "write_image",
    "ConvergenceReport", "build_report", "error_constant_oracle", "ratio_growth_flag",
    "residual_ratio_limit",
    "ExprError", "ExprSyntaxError", "UnknownIdentifierError", "differentiate",
    "evaluate", "parse", "render_expr",
    "EqualResidualsError", "PointSample", "ZeroDerivativeError", "ici_step",
    "newton_step", "secant_step",
    "Precision", "log10_abs", "parse_complex", "parse_real", "to_decimal",
    "IterationRecord", "IterationTrace", "SolveConfig", "read_trace_text",
    "solve", "solve_expr", "write_trace_csv", "write_trace_text",
]
