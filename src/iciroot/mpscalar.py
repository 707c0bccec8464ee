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


def log10_abs(x):
    """log10 of |x|; returns a minus-infinity sentinel (not an error) at x = 0."""
    ctx = context_of(x)
    if x == 0:
        return ctx.mpf("-inf")
    return ctx.log(abs(x), 10)


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
