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

:func:`build_report`, the one way to a :class:`ConvergenceReport`, takes one
modulus and one logarithm per residual: |y_k| once per record, at the
working precision, and L_k = ln|y_k| from that modulus.  Every
diagnostic is derived from these two lists: the ratios, the order-estimate
admission, the fit index and the prediction from |y_k|; digits -L_k/ln 10,
order estimates L_{k+1}/L_k, the fitted constant C = exp(L_K * rho**-K) and
its misfit |L_{K-1} - L_K/rho| / ln 10 from L_k.  At 1000 digits one
logarithm costs about 0.14 ms by the fixed-point kernel of
:func:`~iciroot.mpscalar.ln_abs` (1.0 ms by mpmath's AGM), half a solver
record, and a complex modulus is a square root at the working precision,
so :func:`build_report` takes each only once, and rho once per precision.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

from mpmath.libmp import fone, from_int, mpf_add, mpf_sqrt, round_nearest

from .mpscalar import context_of, exp_real, is_finite, ln_abs, opened, to_decimal
from .solve import IterationTrace

_CSV_DIGITS = 12        # write_report_csv: significant digits of every value


class MultipleRootError(ValueError):
    """First derivative vanishes at the root."""


def _ratio_denominator(mods, k):
    """(|y_{k-1}|*|y_{k-2}|)^2: r_k is |y_k| over it; at k = K+1, r_K times it predicts |y_{K+1}|."""
    return (mods[k - 1] * mods[k - 2]) ** 2


def _ratios(mods):
    """Ratios r_k for k >= 2 from the moduli, stopping at a zero in a denominator."""
    out = []
    for k in range(2, len(mods)):
        if mods[k - 1] == 0 or mods[k - 2] == 0:
            break
        out.append(mods[k] / _ratio_denominator(mods, k))
    return out


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


def root_multiplicity(trace: IterationTrace) -> int | None:
    """The multiplicity m >= 2 of the root that the trace approaches, else None.

    Schröder's estimate m_k = (x_k - x_{k-1}) / (N_k - N_{k-1}), with the
    Newton update N = y/y', tends to m because (f/f')' -> 1/m at a root of
    multiplicity m (Traub 1964, ch. 7), whichever method made the records.
    The three m_k of the last four records, complex ones by modulus, must
    each lie within 0.1 of one integer m >= 2.  None with fewer records, a
    zero or non-finite y', or N_k = N_{k-1}.
    """
    tail = trace.records[-4:]
    if len(tail) < 4 or not all(r.yp != 0 and is_finite(r.yp) for r in tail):
        return None
    ns = [r.y / r.yp for r in tail]
    if any(a == b for a, b in zip(ns, ns[1:])):
        return None
    ms = [abs((b.x - a.x) / (nb - na)) for a, b, na, nb in zip(tail, tail[1:], ns, ns[1:])]
    m = int(ms[-1] + 0.5) if ms[-1] < 2 ** 30 else 0      # 0 for a NaN or huge m_k
    return m if m >= 2 and all(abs(v - m) <= 0.1 for v in ms) else None


@dataclass
class ConvergenceReport:
    """Every diagnostic of one trace y_0 .. y_K; L_k = ln|y_k| and rho = 1 + sqrt(3).

    The three lists are never None, and empty when no k qualifies.

    Attributes:
        digits_per_step: -L_k / ln 10 for every k; inf at a zero residual.
        ratios: r_k = |y_k| / (|y_{k-1}|*|y_{k-2}|)^2 for k = 2, 3, ... up to
            the first k whose denominator holds a zero residual.
        order_estimates: L_{k+1} / L_k at each k where neither residual is
            zero or at least 1 and |y_{k+1}| is not at least |y_k|; a NaN
            residual fails none of these tests.
        fitted_constant: C = exp(L_K * rho**-K), fitting y_K = C**rho**K;
            None when y_K is zero or at least 1.
        predicted_next: r_K * (|y_K|*|y_{K-1}|)^2, the model's |y_{K+1}|;
            None unless every ratio r_2 .. r_K exists.
        fit_misfit_log10: |L_{K-1} - L_K / rho| / ln 10, the decades between
            y_{K-1} and the fit; None when fitted_constant is None, when
            K = 0 or when y_{K-1} = 0.
    """

    digits_per_step: list
    ratios: list
    order_estimates: list
    fitted_constant: object
    predicted_next: object
    fit_misfit_log10: object


@lru_cache(maxsize=None)
def _rho(prec: int):
    """1 + sqrt(3) as a raw mpf rounded to ``prec`` bits, the bits of ``1 + ctx.sqrt(3)``."""
    return mpf_add(fone, mpf_sqrt(from_int(3), prec, round_nearest), prec, round_nearest)


def build_report(trace: IterationTrace) -> ConvergenceReport:
    """Compute every diagnostic that the trace supports; missing ones are None.

    The one way to a report: one modulus and one working-precision logarithm
    per record (see the module notes).
    """
    ctx = context_of(trace.records[0].y)
    rho = ctx.make_mpf(_rho(ctx.prec))
    mods = [abs(y) for y in trace.residuals()]
    logs = [ctx.make_mpf(ln_abs(a, ctx.prec)) for a in mods]
    ln10 = +ctx.ln10
    digits = [-L / ln10 for L in logs]
    ratios = _ratios(mods)
    orders = []
    for k in range(len(mods) - 1):
        a, b = mods[k], mods[k + 1]
        if a == 0 or b == 0 or a >= 1 or b >= 1 or b >= a:
            continue
        orders.append(logs[k + 1] / logs[k])
    K = len(mods) - 1
    c_fit = predicted = misfit = None
    if not (mods[K] == 0 or mods[K] >= 1):
        c_fit = ctx.make_mpf(exp_real(logs[K] * rho ** (-K), ctx.prec))
    if ratios and len(ratios) >= K - 1:
        predicted = ratios[-1] * _ratio_denominator(mods, K + 1)
    if c_fit is not None and K >= 1 and mods[K - 1] != 0:
        # log10 y_{K-1} against the model's rho**(K-1) * log10 C = L_K / (rho ln 10)
        misfit = abs(logs[K - 1] - logs[K] / rho) / ln10
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


def write_report_csv(report: ConvergenceReport, path_or_file):
    """Per-step table (digits, ratio) plus summary columns on the k = 0 row."""
    with opened(path_or_file, "w") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "digits", "ratio",
                    "fitted_constant", "predicted_next", "fit_misfit_log10", "order_tail"])
        tail = report.order_estimates[-1] if report.order_estimates else None
        for k, d in enumerate(report.digits_per_step):
            summary = ([_fmt_optional(report.fitted_constant, _CSV_DIGITS),
                        _fmt_optional(report.predicted_next, _CSV_DIGITS),
                        _fmt_optional(report.fit_misfit_log10, _CSV_DIGITS),
                        _fmt_optional(tail, _CSV_DIGITS)]
                       if k == 0 else ["", "", "", ""])
            w.writerow([k, to_decimal(d, _CSV_DIGITS), _ratio_cell(report, k, _CSV_DIGITS)]
                       + summary)
