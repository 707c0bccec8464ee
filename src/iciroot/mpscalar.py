"""Precision-tagged arbitrary-precision real and complex scalars.

Every computation in this package runs under an explicit :class:`Precision`,
which owns a private mpmath context.  Contexts are independent, so a 40-digit
solve and a 1600-digit solve can run side by side in one process without any
global precision state.  Values are ordinary (immutable) mpmath numbers bound
to their context; NaN and infinities are representable and propagate through
arithmetic instead of raising.
"""

from __future__ import annotations

import math
import os
import re as _re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import mpmath
from mpmath.ctx_mp import MPContext
from mpmath.libmp import (fone, mpc_abs, mpf_abs, mpf_add, mpf_div, mpf_ln10, mpf_log, mpf_neg,
                          mpf_shift, mpf_sub, round_ceiling, round_floor, round_nearest)

LOG2_10 = math.log2(10.0)

# Extra binary precision beyond the requested decimal digits, so that long
# iteration chains still honor the decimal-digit accuracy contract.
GUARD_BITS = 32


class UndefinedPhaseError(ValueError):
    """The phase of zero is undefined."""


@lru_cache(maxsize=None)
def _context(digits: int) -> MPContext:
    ctx = MPContext()
    ctx.prec = math.ceil(digits * LOG2_10) + GUARD_BITS
    ctx._decimal_digits = digits
    return ctx


@dataclass(frozen=True)
class Precision:
    """Working precision expressed in decimal significant digits (>= 10)."""

    digits: int = 40

    def __post_init__(self):
        if not isinstance(self.digits, int) or self.digits < 10:
            raise ValueError(f"precision requires an integer digit count >= 10, got {self.digits!r}")

    @property
    def ctx(self) -> MPContext:
        return _context(self.digits)

    @property
    def eps(self):
        """One unit in the last kept decimal digit, as a relative error bound."""
        return self.ctx.mpf(10) ** (1 - self.digits)

    def real(self, value):
        """Convert ``value`` (str, int, float or mpf) to a real at this precision.

        Strings are parsed as decimal literals, so ``real("0.1")`` is honest
        to the full digit count rather than inheriting a double's error.
        """
        if hasattr(value, "_mpf_"):
            return self.ctx.make_mpf(value._mpf_)
        if hasattr(value, "_mpc_"):
            raise TypeError("complex value given where a real scalar is required")
        return self.ctx.mpf(value)

    def cplx(self, re_part, im_part=0):
        """Build a complex scalar from real/imaginary parts at this precision."""
        return self.ctx.mpc(self.real(re_part), self.real(im_part))

    def scalar(self, value):
        """Convert ``value`` to a real or complex scalar, preserving kind."""
        if hasattr(value, "_mpc_"):
            re_t, im_t = value._mpc_
            return self.ctx.mpc(self.ctx.make_mpf(re_t), self.ctx.make_mpf(im_t))
        if isinstance(value, complex):
            return self.ctx.mpc(value)
        return self.real(value)

    @property
    def nan(self):
        return self.ctx.mpf("nan")

    @property
    def inf(self):
        return self.ctx.mpf("inf")


def context_of(x) -> MPContext:
    """The mpmath context a value is bound to (falls back to the global one)."""
    return getattr(x, "context", mpmath.mp)


def is_real_scalar(x) -> bool:
    return hasattr(x, "_mpf_")


def is_complex_scalar(x) -> bool:
    """An mpc or a Python complex: the values that put a solve in complex mode."""
    return hasattr(x, "_mpc_") or isinstance(x, complex)


@contextmanager
def opened(path_or_file, mode: str):
    """Yield a file object as it is, or open a path (``newline=""``) and close it after."""
    if not isinstance(path_or_file, (str, bytes, os.PathLike)):
        yield path_or_file
        return
    with open(path_or_file, mode, newline="") as fh:
        yield fh


def is_finite(x) -> bool:
    return bool(context_of(x).isfinite(x))


def is_nan(x) -> bool:
    return bool(context_of(x).isnan(x))


def phase(z):
    """Argument of a nonzero complex (or real) scalar, in (-pi, pi].

    Raises:
        UndefinedPhaseError: if ``z`` is zero.
    """
    if z == 0:
        raise UndefinedPhaseError("phase of zero is undefined")
    return context_of(z).arg(z)


def ln_abs(x, prec: int):
    """ln|x| of a real or complex scalar, as a raw mpf rounded to ``prec`` bits.

    The modulus of a complex value is taken at ``prec`` too, so the cost
    follows ``prec``, not the precision ``x`` carries.  Zero gives -inf;
    NaN and infinities pass through.  Every logarithm of a residual in this
    package is taken here.
    """
    a = mpc_abs(x._mpc_, prec, round_nearest) if hasattr(x, "_mpc_") else mpf_abs(x._mpf_)
    return mpf_log(a, prec, round_nearest)


def log10_abs(x):
    """log10 of |x| at ``x``'s working precision; a minus-infinity sentinel (not an error) at 0.

    ln|x| is taken 20 bits beyond the working precision and divided by the
    cached ln 10 at that precision, then rounded once.
    """
    ctx = context_of(x)
    wp = ctx.prec + 20
    return ctx.make_mpf(mpf_div(ln_abs(x, wp), mpf_ln10(wp), ctx.prec, round_nearest))


def log10_abs_text(x, digits: int, negate: bool = False) -> str:
    """``to_decimal(log10_abs(x), digits)``, or of ``-log10_abs(x)`` when ``negate``.

    The text comes from a logarithm taken at print precision: ``digits``
    plus GUARD_BITS.  The bracket rule keeps it the text of the
    full-precision value.  Both ends of the error bound of the short value
    are printed.  mpmath prints a value by truncating it to a bit grid set
    by its sign and binary exponent, so within one sign and exponent the
    text is monotone in the value.  When both ends share them and print
    alike, every value inside the bound prints so, the full-precision log10
    included.  Otherwise (a rounding boundary inside the bound, zero, NaN,
    an infinity) the full-precision log10 is printed.
    """
    wp = math.ceil(digits * LOG2_10) + GUARD_BITS
    v = mpf_div(ln_abs(x, wp), mpf_ln10(wp), wp, round_nearest)
    if negate:
        v = mpf_neg(v)
    if v[1]:
        # Rounding |x| to wp bits moves ln|x| by up to 2**-wp, and mpmath's
        # log is good to a few ulp: a few 2**-wp * (|v| + 1) in all.  The
        # bound is 64 times that.
        err = mpf_shift(mpf_add(mpf_abs(v), fone, 8, round_ceiling), 8 - wp)
        lo, hi = mpf_sub(v, err, wp, round_floor), mpf_add(v, err, wp, round_ceiling)
        if lo[0] == hi[0] and lo[2] + lo[3] == hi[2] + hi[3]:
            ctx = context_of(x)
            text = to_decimal(ctx.make_mpf(lo), digits)
            if text == to_decimal(ctx.make_mpf(hi), digits):
                return text
    full = log10_abs(x)
    return to_decimal(-full if negate else full, digits)


def _digits_of(ctx) -> int:
    return getattr(ctx, "_decimal_digits", ctx.dps)


def to_decimal(x, digits: int | None = None) -> str:
    """Render a scalar as a decimal string with an explicit digit count.

    Magnitudes outside roughly [1e-6, 1e6] use scientific notation
    ``d.ddd...e±EEE``.  Complex values render as ``re+imi`` / ``re-imi``.
    """
    if hasattr(x, "_mpc_"):
        ctx = context_of(x)
        re_s = to_decimal(x.real, digits)
        im = x.imag
        sign = "-" if (not ctx.isnan(im) and im < 0) else "+"
        return f"{re_s}{sign}{to_decimal(abs(im), digits)}i"
    ctx = context_of(x)
    if digits is None:
        digits = _digits_of(ctx)
    if ctx.isnan(x):
        return "nan"
    if not ctx.isfinite(x):
        return "inf" if x > 0 else "-inf"
    return mpmath.nstr(x, digits, min_fixed=-6, max_fixed=6)


def parse_real(text: str, p: Precision):
    """Parse a decimal real literal at precision ``p``."""
    try:
        return p.ctx.mpf(text.strip())
    except Exception as exc:
        raise ValueError(f"invalid real literal {text!r}") from exc


_IMAG_SUFFIX = _re.compile(r"[ij]\s*$")


def is_complex_literal(text: str) -> bool:
    """Whether ``text`` ends in the imaginary unit suffix ``i`` or ``j`` (so ``inf`` is real)."""
    return _IMAG_SUFFIX.search(text) is not None


def parse_complex(text: str, p: Precision):
    """Parse ``a``, ``bi``, or ``a±bi`` (``j`` accepted for ``i``) at precision ``p``."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if not is_complex_literal(s):
        return p.cplx(parse_real(s, p))
    body = s[:-1]
    # split at the last top-level +/- that is not an exponent sign
    split = -1
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            split = k
            break
    if split == -1:
        re_part, im_part = "0", body
    else:
        re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+"):
        im_part = "1"
    elif im_part == "-":
        im_part = "-1"
    return p.cplx(parse_real(re_part, p), parse_real(im_part, p))
