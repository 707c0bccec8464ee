"""Arbitrary-precision scalar rootfinding via a blended Newton/secant step.

The production iteration averages two Newton steps and a secant step with
residual-derived weights, equivalently evaluating an inverse cubic Hermite
interpolant at height zero.  It needs one function evaluation and one
derivative evaluation per step and converges with order 1 + sqrt(3).

The names from ``basins`` (the renderer) and ``diagnostics`` (the report)
load on first use, so that ``import iciroot`` pays only for the solver.
``solve`` loads at once: ``iciroot.solve`` names both a submodule and the
exported function, and the first import of the submodule would otherwise
bind the package attribute to the module.
"""

from importlib import import_module

from .expr import ExprError, ExprSyntaxError, UnknownIdentifierError, differentiate, parse
from .kernel import (EqualResidualsError, PointSample, ZeroDerivativeError, ici_step,
                     newton_step, secant_step)
from .mpscalar import Precision, log10_abs, parse_complex, parse_real, to_decimal
from .solve import (IterationRecord, IterationTrace, SolveConfig, read_trace_text,
                    solve, solve_expr, write_trace_csv, write_trace_text)

__version__ = "0.1.0"

# the names that load on first use, and the module each comes from
_LAZY = {
    "BasinRaster": "basins", "BasinSpec": "basins", "line_scan": "basins", "render": "basins",
    "write_image": "basins",
    "ConvergenceReport": "diagnostics", "build_report": "diagnostics",
    "error_constant_oracle": "diagnostics", "residual_ratio_limit": "diagnostics",
    "root_multiplicity": "diagnostics",
}

__all__ = [
    "BasinRaster", "BasinSpec", "line_scan", "render", "write_image",
    "ConvergenceReport", "build_report", "error_constant_oracle", "residual_ratio_limit",
    "root_multiplicity",
    "ExprError", "ExprSyntaxError", "UnknownIdentifierError", "differentiate", "parse",
    "EqualResidualsError", "PointSample", "ZeroDerivativeError", "ici_step",
    "newton_step", "secant_step",
    "Precision", "log10_abs", "parse_complex", "parse_real", "to_decimal",
    "IterationRecord", "IterationTrace", "SolveConfig", "read_trace_text",
    "solve", "solve_expr", "write_trace_csv", "write_trace_text",
]


def __getattr__(name):
    """Load a ``basins`` or ``diagnostics`` name on its first access (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
