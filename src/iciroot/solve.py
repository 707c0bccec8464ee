"""Iteration driver: seed, one Newton step, then blended two-point steps.

The solver takes a single initial guess, generates the second point with one
Newton step, and from then on applies the configured two-point method.  Each
trace record holds exactly one fresh function evaluation and one fresh
derivative evaluation; previous evaluations are always reused.

Degenerate situations the step formulas cannot handle are safeguarded:

* (nearly) equal residuals, a gap at most ``guard`` = 10**(-digits+5) times
  the larger |y|: if already within tolerance the solve stops as
  converged, otherwise a plain Newton step from the current point is taken
  and recorded as ``safeguard_newton``;
* vanishing current derivative (at most ``guard`` * max(|y|, 1)): the blended
  method falls back to a plain secant step, which needs no derivative;
* vanishing previous derivative: plain Newton from the current point;
* NaN or infinity anywhere: the solve stops with status ``nan`` and a
  partial trace.

No modulus on the common path: the tolerance test, the derivative floors
and the residual-gap guard compare |.| against a threshold, and each reads
the binary exponents of the values first (:func:`_log2_bounds`), which
bound a magnitude within two binades.  Only when the bounds of the two sides
overlap does the decision fall back to the exact comparison at the working
precision (a complex modulus is a square root there), so every decision is
the one the exact comparison makes.

One y/y' division per record: the Newton update of a record is divided
once, beside its magnitude bounds, when a step first reads it.  The
Newton steps take x - (y/y'), with the bits of
:func:`~iciroot.kernel.newton_step`, and the blended step reads both
records' updates through :func:`~iciroot.kernel.ici_blend`, which adds one
division of its own.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .expr import compile_pair
from .kernel import ici_blend, secant_step
from .mpscalar import (Precision, context_of, digits_of, is_complex_scalar, is_finite,
                       log10_abs_text, opened, parse_complex, parse_real, parse_scalar, read_tol,
                       to_decimal)

METHODS = ("newton", "secant", "ici")

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_DEGENERATE = "degenerate"
STATUS_NAN = "nan"


@dataclass
class SolveConfig:
    """Solver parameters; an unset tolerance gets a precision-scaled default.

    tol defaults to 10**-max(digits - 10, ceil(digits / 2)): ten guard
    digits, so the residual evaluation itself is trustworthy, but never
    fewer than half the digits kept.
    """

    precision: Precision = field(default_factory=Precision)
    tol: object = None
    max_iter: int = 100
    method: str = "ici"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        p = self.precision
        self.tol = (p.ctx.mpf(10) ** -max(p.digits - 10, -(-p.digits // 2)) if self.tol is None
                    else read_tol(self.tol, p))


@dataclass(frozen=True)
class IterationRecord:
    n: int
    x: object
    y: object
    yp: object
    step_kind: str


@dataclass
class IterationTrace:
    records: list
    status: str

    def __len__(self):
        return len(self.records)

    @property
    def final(self) -> IterationRecord:
        return self.records[-1]

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED

    def residuals(self):
        return [r.y for r in self.records]


def solve(f, fp, x0, cfg: SolveConfig | None = None) -> IterationTrace:
    """Run the configured iteration from one initial guess, recording a trace.

    Args:
        f: residual function, evaluable on the working scalar kind.
        fp: its derivative.
        x0: initial guess (real or complex; kind selects the working mode).
        cfg: solver configuration; defaults to ``SolveConfig()``.

    Returns:
        IterationTrace whose records satisfy y = f(x), yp = fp(x), with one
        fresh (f, fp) evaluation pair per record.
    """
    return _solve(lambda x: (f(x), fp(x)), x0, cfg)


_ANY = (-math.inf, math.inf)


def _log2_bounds(v):
    """(lo, hi) with 2**lo <= |v| <= 2**hi, from the exponents of an mpf or mpc.

    A zero gives (-inf, -inf); a complex value has one binade of slack at
    the top, as |a + bi| < 2 * max(|a|, |b|).  Anything else (an infinity, a
    NaN, an int from a caller's function) gives (-inf, inf), which only the
    exact comparison decides.  Powers of two stay bounds of |v| and of
    products of such magnitudes rounded at any precision.
    """
    parts = getattr(v, "_mpc_", None)
    slack = 1
    if parts is None:
        raw = getattr(v, "_mpf_", None)
        if raw is None:
            return _ANY
        parts, slack = (raw,), 0
    top = -math.inf
    for _, man, exp, bc in parts:
        if man:
            top = max(top, exp + bc)
        elif bc:
            return _ANY
    return top - 1, top + slack


def _guard_bounds(digits: int):
    """:func:`_log2_bounds` of the guard 10**(-digits+5), digits > 5, without building it.

    With L the bit length of 10**m, m = digits - 5, 2**-L < 10**-m < 2**(1-L),
    and a rounding at the working precision reaches neither end: each lies
    a relative 2**-(L-m) or more from 10**-m, far past the last bit.
    """
    top = 1 - (10 ** (digits - 5)).bit_length()
    return top - 1, top


def _le(a, b, exact):
    """Whether a magnitude within bounds ``a`` is at most one within bounds ``b``.

    The bounds decide when they do not overlap; otherwise ``exact()``, the
    comparison at the working precision, does.
    """
    if a[1] <= b[0]:
        return True
    if a[0] > b[1]:
        return False
    return exact()


def _solve(pair, x0, cfg: SolveConfig | None) -> IterationTrace:
    """:func:`solve` on a closure ``pair(x) -> (f(x), f'(x))``."""
    cfg = cfg if cfg is not None else SolveConfig()
    x = cfg.precision.scalar(x0)
    records = []
    mods = []      # [bounds of |y|, of |y'|, y/y' or None] of each finite record
    tol_b = _log2_bounds(cfg.tol)
    g_lo, g_hi = _guard_bounds(cfg.precision.digits)

    def guard():
        """10**(-digits+5) at the working precision, for the exact comparisons only."""
        return cfg.precision.ctx.mpf(10) ** (-cfg.precision.digits + 5)

    def evaluate(xv, kind):
        """Record one fresh (f, fp) pair; return the status it stops on, or None."""
        try:
            y, yp = pair(xv)
        except (ZeroDivisionError, OverflowError):
            y = yp = cfg.precision.nan
        records.append(IterationRecord(len(records), xv, y, yp, kind))
        if not (is_finite(y) and is_finite(yp)):
            return STATUS_NAN
        mods.append([_log2_bounds(y), _log2_bounds(yp), None])
        return STATUS_CONVERGED if _le(mods[-1][0], tol_b, lambda: abs(y) <= cfg.tol) else None

    def update(k):
        """The Newton update y_k/y'_k, divided on first use."""
        m = mods[k]
        if m[2] is None:
            m[2] = records[k].y / records[k].yp
        return m[2]

    def dead_derivative(k):
        """|y'_k| at or below guard times the local scale max(|y_k|, 1)."""
        (y_lo, y_hi), yp_b, _ = mods[k]
        rec = records[k]
        return _le(yp_b, (g_lo + max(y_lo, 0), g_hi + max(y_hi, 0)),
                   lambda: abs(rec.yp) <= guard() * max(abs(rec.y), 1))

    def residuals_meet(cur, prev):
        """|y - y_prev| at or below guard times max(|y|, |y_prev|)."""
        gap = cur.y - prev.y
        (c_lo, c_hi), (p_lo, p_hi) = mods[-1][0], mods[-2][0]
        return _le(_log2_bounds(gap), (g_lo + max(c_lo, p_lo), g_hi + max(c_hi, p_hi)),
                   lambda: abs(gap) <= guard() * max(abs(cur.y), abs(prev.y)))

    stop = evaluate(x, "seed")
    for _ in range(cfg.max_iter):
        if stop:
            break
        cur = records[-1]
        if len(records) == 1 or cfg.method == "newton":
            if dead_derivative(-1):
                return IterationTrace(records, STATUS_DEGENERATE)
            x_next, kind = cur.x - update(-1), "newton"
        else:
            prev = records[-2]
            if residuals_meet(cur, prev):
                if dead_derivative(-1):
                    return IterationTrace(records, STATUS_DEGENERATE)
                x_next, kind = cur.x - update(-1), "safeguard_newton"
            elif cfg.method == "secant" or dead_derivative(-1):
                x_next, kind = secant_step(prev, cur), "secant"
            elif dead_derivative(-2):
                x_next, kind = cur.x - update(-1), "safeguard_newton"
            else:
                x_next = ici_blend(prev.x, prev.y, update(-2), cur.x, cur.y, update(-1))
                kind = "ici"
        if not is_finite(x_next):
            return IterationTrace(records, STATUS_NAN)
        stop = evaluate(x_next, kind)
    return IterationTrace(records, stop or STATUS_MAX_ITER)


def solve_expr(ftext: str, x0, cfg: SolveConfig | None = None) -> IterationTrace:
    """Parse ``ftext``, compile its (f, f') jet, and solve.

    The working mode (real/complex) follows the kind of ``x0``.  Parse and
    identifier errors from the expression module surface unchanged.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    return _solve(compile_pair(ftext, cfg.precision, is_complex_scalar(x0)), x0, cfg)


# ---------------------------------------------------------------------------
# serialization

_CSV_HEADER = ["n", "x", "y", "yp", "step_kind", "log10_abs_y"]


def _record_row(rec: IterationRecord, digits: int):
    return [str(rec.n),
            to_decimal(rec.x, digits),
            to_decimal(rec.y, digits),
            to_decimal(rec.yp, digits),
            rec.step_kind,
            log10_abs_text(rec.y, 12)]


def write_trace_csv(trace: IterationTrace, path_or_file, digits: int | None = None):
    """Write the trace as CSV with full-precision decimal columns.

    The ``log10_abs_y`` column has 12 digits, printed by
    :func:`~iciroot.mpscalar.log10_abs_text`: from a logarithm at that
    precision, with the bracket rule keeping the text of the full-precision
    value.
    """
    with opened(path_or_file, "w") as fh:
        w = csv.writer(fh)
        for row in [_CSV_HEADER, *(_record_row(rec, digits) for rec in trace.records)]:
            line = ",".join(row)
            # csv.writer checks each character of each field for one that needs
            # quoting, thousands a row at 1000 digits.  A row with no ',', '"', CR
            # or LF in a field is its plain join, byte for byte, and every row the
            # solver makes is one; any other (a hand-built step_kind) takes csv.writer.
            if line.count(",") == len(row) - 1 and not any(c in line for c in '"\r\n'):
                fh.write(line + "\r\n")
            else:
                w.writerow(row)


def write_trace_text(trace: IterationTrace, meta: dict, path_or_file):
    """Write run metadata (key: value lines; ``digits`` from the final x when
    ``meta`` has none), the trace's ``status`` line, then the CSV table."""
    if "digits" not in meta:
        meta = {**meta, "digits": digits_of(context_of(trace.final.x))}
    with opened(path_or_file, "w") as fh:
        for key, value in meta.items():
            fh.write(f"{key}: {value}\n")
        fh.write(f"status: {trace.status}\n")
        write_trace_csv(trace, fh, digits=int(meta["digits"]))


def read_trace_text(path_or_file):
    """Read a trace written by :func:`write_trace_text`.

    Returns:
        (IterationTrace, meta dict).  Record values are reconstructed at the
        precision named by the ``digits`` metadata entry.  A missing table
        header, a row with fewer than five fields, a table with no records
        (every trace has its seed) or text with no ``digits`` or ``status``
        line (a bare CSV table) raises ValueError.
    """
    with opened(path_or_file, "r") as fh:
        lines = fh.read().splitlines()
    meta = {}
    k = 0
    while k < len(lines) and not lines[k].startswith("n,"):
        if lines[k].strip():
            key, _, value = lines[k].partition(":")
            meta[key.strip()] = value.strip()
        k += 1
    if k == len(lines):
        raise ValueError("missing trace table header")
    rows = [row for row in csv.reader(lines[k + 1:]) if row]
    for row in rows:
        if len(row) < 5:
            raise ValueError(f"trace table row has {len(row)} fields, needs 5: {','.join(row)}")
    if not rows:
        raise ValueError("trace table has no records")
    for key in ("digits", "status"):
        if key not in meta:
            raise ValueError(f"trace text has no '{key}:' line")
    p = Precision(int(meta["digits"]))
    records = []
    for n, x_s, y_s, yp_s, kind, *_ in rows:
        x = parse_scalar(x_s, p)
        conv = parse_complex if is_complex_scalar(x) else parse_real
        records.append(IterationRecord(int(n), x, conv(y_s, p), conv(yp_s, p), kind))
    return IterationTrace(records, meta.pop("status")), meta
