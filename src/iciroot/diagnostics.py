"""Convergence diagnostics: digits per step, residual ratios, order estimates.

For the blended two-point iteration the forward errors obey, to leading
order, e_{n+1} = K * (e_{n-1} * e_n)^2 with

    K = (f1^2*f4 - 10*f1*f2*f3 + 15*f2^3) / (24*f1^3)

in terms of the first four derivatives at the root.  Since the residual is
y ~ f1*e near a simple root, the observable residual ratios
r_k = |y_k| / (|y_{k-1}|*|y_{k-2}|)^2 approach K / f1^3, and solving the
log-recurrence gives asymptotic order 1 + sqrt(3) = 2.732...  The fitted
model used throughout is y_k = C**((1+sqrt(3))**k) with C fixed from the
final data point only.

One modulus and one logarithm per residual: |y_k| is taken once per record,
at the working precision, and so is L_k = ln|y_k|, from that modulus.  Every
diagnostic is derived from these two lists: the ratios, the order-estimate
admission, the fit index and the prediction from |y_k|; digits -L_k/ln 10,
order estimates L_{k+1}/L_k, the fitted constant C = exp(L_K * rho**-K) and
its misfit |L_{K-1} - L_K/rho| / ln 10 from L_k.  At 1000 digits one
logarithm costs about 0.25 ms by the fixed-point kernel of
:func:`~iciroot.mpscalar.ln_abs` (1.1-1.9 ms by mpmath's AGM), about a
third of one solver record, and a complex modulus is a square root at the
working precision, so :func:`build_report` takes each only once.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .mpscalar import context_of, exp_real, ln_abs, opened, to_decimal
from .solve import IterationTrace


class DiagnosticsError(ValueError):
    pass


class FitUndefinedError(DiagnosticsError):
    """Final residual missing, zero, or >= 1: the decay model cannot be fit."""


class MultipleRootError(DiagnosticsError):
    """First derivative vanishes at the root."""


def _ctx(trace: IterationTrace):
    return context_of(trace.records[0].y)


def _rho(ctx):
    return 1 + ctx.sqrt(ctx.mpf(3))


def _moduli(trace: IterationTrace):
    """|y_k| for every record, each taken once at the working precision."""
    return [abs(y) for y in trace.residuals()]


def _ratios(mods):
    """r_k = |y_k| / (|y_{k-1}|*|y_{k-2}|)^2 from the moduli; see :func:`ratio_sequence`."""
    out = []
    for k in range(2, len(mods)):
        if mods[k - 1] == 0 or mods[k - 2] == 0:
            break
        out.append(mods[k] / (mods[k - 1] * mods[k - 2]) ** 2)
    return out


def ratio_sequence(trace: IterationTrace):
    """Residual ratios r_k = |y_k| / (|y_{k-1}|*|y_{k-2}|)^2 for k >= 2.

    The sequence is truncated at the first k whose denominator residuals
    include a zero.  Traces with fewer than three records give [].
    """
    return _ratios(_moduli(trace))


def _log_abs(ctx, a):
    """ln|y| at the working precision, from its modulus a = |y|.

    -inf at zero; NaN and +inf pass through.  ``abs`` rounds the same complex
    modulus as ``ln_abs`` does, at the same precision, so this is ln|y| to
    the bit.
    """
    return ctx.make_mpf(ln_abs(a, ctx.prec))


def _fit_index(mods) -> int:
    """Index K of the final residual, which fixes C in y_K = C**rho**K.

    Raises:
        FitUndefinedError: if the final residual is missing, zero, or not below 1.
    """
    if not mods:
        raise FitUndefinedError("empty trace")
    y_last = mods[-1]
    if y_last == 0:
        raise FitUndefinedError("final residual is exactly zero")
    if y_last >= 1:
        raise FitUndefinedError("final residual is not below 1")
    return len(mods) - 1


def _fit_from_log(ctx, log_last, K):
    """C = exp(L_K * rho**-K), the fit of y_K = C**rho**K from L_K = ln|y_K|, by ``exp_real``."""
    return ctx.make_mpf(exp_real(log_last * _rho(ctx) ** (-K), ctx.prec))


def fit_constant(trace: IterationTrace):
    """Constant C of the decay model y_k = C**rho**k, fit at the final point.

    Raises:
        FitUndefinedError: if the final residual is zero or not below 1.
    """
    mods = _moduli(trace)
    K = _fit_index(mods)
    ctx = _ctx(trace)
    return _fit_from_log(ctx, _log_abs(ctx, mods[-1]), K)


def _predict(mods, ratios):
    """r_last * (|y_K|*|y_{K-1}|)^2; see :func:`predict_next`."""
    if not ratios or len(ratios) < len(mods) - 2:
        raise DiagnosticsError("need at least three consecutive nonzero residuals")
    return ratios[-1] * (mods[-1] * mods[-2]) ** 2


def predict_next(trace: IterationTrace):
    """Predicted |y_{K+1}| = r_last * (|y_K|*|y_{K-1}|)^2 from the last ratio."""
    mods = _moduli(trace)
    return _predict(mods, _ratios(mods))


def _orders_from_logs(mods, logs):
    """ln|y_{k+1}| / ln|y_k| over the pairs :func:`order_estimate` admits."""
    out = []
    for k in range(len(mods) - 1):
        a, b = mods[k], mods[k + 1]
        if a == 0 or b == 0 or a >= 1 or b >= 1 or b >= a:
            continue
        out.append(logs[k + 1] / logs[k])
    return out


def order_estimate(trace: IterationTrace):
    """Successive-exponent order estimates rho_k = ln|y_{k+1}| / ln|y_k|.

    Only indices where both residuals are nonzero, below 1 and strictly
    decreasing contribute; other k are skipped.
    """
    mods = _moduli(trace)
    ctx = _ctx(trace)
    return _orders_from_logs(mods, [_log_abs(ctx, a) for a in mods])


def error_constant_oracle(f1, f2, f3, f4):
    """Leading coefficient K of the forward-error recurrence e+ = K*(e-*e)^2.

    Takes the first four derivatives of f at the root.  K vanishes when
    f2 = f3 = f4 = 0, and blows up toward multiple roots.

    Raises:
        MultipleRootError: if f1 is zero.
    """
    if f1 == 0:
        raise MultipleRootError("first derivative is zero at the root")
    return (f1 * f1 * f4 - 10 * f1 * f2 * f3 + 15 * f2 ** 3) / (24 * f1 ** 3)


def residual_ratio_limit(f1, f2, f3, f4):
    """Limit of the residual ratios r_k, namely K / f1^3 (since y ~ f1*e)."""
    return error_constant_oracle(f1, f2, f3, f4) / f1 ** 3


def ratio_growth_flag(trace: IterationTrace, window: int = 4) -> bool:
    """True when the trailing ratios grow steadily: the multiple-root signature.

    The residual recorded at a converged stop sits at the evaluation noise
    floor, so its ratio is dropped before looking at the tail.  A simple
    root settles to a constant ratio (quotients -> 1); a multiple root keeps
    multiplying the ratio by a large steady factor.
    """
    ratios = ratio_sequence(trace)
    if trace.converged:
        ratios = ratios[:-1]
    if len(ratios) < window:
        return False
    tail = ratios[-window:]
    if any(r == 0 for r in tail):
        return False
    return all(tail[i + 1] >= 10 * tail[i] for i in range(window - 1))


@dataclass
class ConvergenceReport:
    digits_per_step: list
    ratios: list
    order_estimates: list
    fitted_constant: object       # None when the fit is undefined
    predicted_next: object        # None when fewer than 3 nonzero residuals
    fit_misfit_log10: object      # |log10 y_{K-1} - model|; None if unavailable


def build_report(trace: IterationTrace) -> ConvergenceReport:
    """Compute every diagnostic that the trace supports; missing ones are None.

    Takes one modulus and one working-precision logarithm per record (see
    the module notes).
    """
    ctx = _ctx(trace)
    mods = _moduli(trace)
    logs = [_log_abs(ctx, a) for a in mods]
    ln10 = +ctx.ln10
    digits = [-L / ln10 for L in logs]
    ratios = _ratios(mods)
    orders = _orders_from_logs(mods, logs)
    try:
        K = _fit_index(mods)
        c_fit = _fit_from_log(ctx, logs[K], K)
    except FitUndefinedError:
        c_fit = None
    try:
        predicted = _predict(mods, ratios)
    except DiagnosticsError:
        predicted = None
    misfit = None
    if c_fit is not None and len(mods) >= 2 and mods[-2] != 0:
        # log10 y_{K-1} against the model's rho**(K-1) * log10 C = L_K / (rho ln 10)
        misfit = abs(logs[-2] - logs[-1] / _rho(ctx)) / ln10
    return ConvergenceReport(digits, ratios, orders, c_fit, predicted, misfit)


# ---------------------------------------------------------------------------
# serialization

def _fmt_optional(value, digits):
    return to_decimal(value, digits) if value is not None else "-"


def _ratio_cell(report: ConvergenceReport, k: int, digits: int) -> str:
    """Ratio r_k as text; empty for k < 2 and past the truncated sequence."""
    return to_decimal(report.ratios[k - 2], digits) if 2 <= k < len(report.ratios) + 2 else ""


def report_to_text(report: ConvergenceReport, digits: int = 8) -> str:
    lines = [
        f"fitted_constant: {_fmt_optional(report.fitted_constant, digits)}",
        f"predicted_next: {_fmt_optional(report.predicted_next, digits)}",
        f"fit_misfit_log10: {_fmt_optional(report.fit_misfit_log10, digits)}",
        "order_estimates: " + " ".join(to_decimal(o, digits) for o in report.order_estimates),
        "k,digits,ratio",
    ]
    for k, d in enumerate(report.digits_per_step):
        lines.append(f"{k},{to_decimal(d, digits)},{_ratio_cell(report, k, digits)}")
    return "\n".join(lines) + "\n"


def write_report_csv(report: ConvergenceReport, path_or_file, digits: int = 12):
    """Per-step table (digits, ratio) plus summary columns on the k = 0 row."""
    with opened(path_or_file, "w") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "digits", "ratio",
                    "fitted_constant", "predicted_next", "fit_misfit_log10", "order_tail"])
        tail = report.order_estimates[-1] if report.order_estimates else None
        for k, d in enumerate(report.digits_per_step):
            summary = ([_fmt_optional(report.fitted_constant, digits),
                        _fmt_optional(report.predicted_next, digits),
                        _fmt_optional(report.fit_misfit_log10, digits),
                        _fmt_optional(tail, digits)]
                       if k == 0 else ["", "", "", ""])
            w.writerow([k, to_decimal(d, digits), _ratio_cell(report, k, digits)] + summary)
