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
from itertools import repeat
from operator import rshift

import mpmath
from mpmath.ctx_mp import MPContext
from mpmath.libmp import (MPZ_ONE, fone, from_man_exp, mpc_abs, mpf_abs, mpf_add, mpf_div,
                          mpf_ln10, mpf_log, mpf_neg, mpf_shift, mpf_sub, round_ceiling,
                          round_floor, round_nearest)
from mpmath.libmp.libelefun import LOG_TAYLOR_PREC, ln2_fixed

LOG2_10 = math.log2(10.0)
LOG10_2 = math.log10(2.0)

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
    """Yield a file object as it is, or open a path and close it after.

    A path opened in text mode gets ``newline=""``, as the csv module asks.
    """
    if not isinstance(path_or_file, (str, bytes, os.PathLike)):
        yield path_or_file
        return
    with open(path_or_file, mode, newline=None if "b" in mode else "") as fh:
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


# The fixed-point band of ln_abs: see its docstring for the measurements.
_LN_MIN_PREC = LOG_TAYLOR_PREC      # above it mpmath takes ln by AGM
_LN_MAX_PREC = 20_000               # bits, about 6000 digits: the first-report crossover
_LN_STEPS = 64                      # K: factors (1 + 2**-k), k = 1..K
_LN_GUARD = 40                      # guard bits of the fixed-point sum


@lru_cache(maxsize=None)
def _ln_table(wp: int) -> tuple:
    """ln(1 + 2**-k) for k = 1..K, fixed point at ``wp`` bits; built on first use at each ``wp``.

    ln(1 + x) = atanh(x) - sum over i >= 1 of atanh(x**(2**i)) / 2**i, and
    atanh(2**-m) = sum over odd j of 2**(-m j) / j, whose terms are one
    list of reciprocals 2**(w - j) // j shifted right by (m - 1) j bits:
    a shift and an add a term, where a series in 1/(2**(k+1) + 1) needs
    two divisions: 6 against 10 ms at 1000 digits, 0.17 against 0.32 s at
    6000.  Each term is low by less than 1 unit of 2**-w; with the dropped
    tails and shifts an entry is off by less than w / k + log2(w) + 7
    units, so w = wp + 24 keeps it within 2 units of 2**-wp for w < 2**22.
    """
    w = wp + 24
    recips = [(MPZ_ONE << (w - j)) // j for j in range(1, w + 1, 2)]

    @lru_cache(maxsize=None)
    def atanh_pow2(m):
        return sum(map(rshift, recips, range(m - 1, w, 2 * m - 2) if m > 1 else repeat(0)))

    table = []
    for k in range(1, _LN_STEPS + 1):
        entry, m, i = atanh_pow2(k), 2 * k, 1
        while m < w:
            entry -= atanh_pow2(m) >> i
            m, i = 2 * m, i + 1
        table.append(entry >> 24)
    return tuple(table)


def _ln_fixed_point(man: int, bc: int, mag: int, prec: int):
    """ln(m * 2**mag) rounded to ``prec`` bits, for m = man / 2**bc in [1/2, 1)."""
    wp = prec + _LN_GUARD
    one = MPZ_ONE << wp
    shift = wp - bc
    y = man << shift if shift >= 0 else man >> -shift
    # shift and add: y *= 1 + 2**-k while y stays <= 1; ln m = ln y - sum.
    # The table is kept per 256 bits of precision, so ln_abs at prec and
    # log10_abs at prec + 20 share one.
    table_wp = -(-wp // 256) * 256
    total = 0
    for k, ln_factor in enumerate(_ln_table(table_wp), 1):
        z = y + (y >> k)
        if z <= one:
            y = z
            total += ln_factor
    # ln y = -2 atanh(u), u = (1 - y) / (1 + y) < 2**-K; two terms per multiplication
    u = ((one - y) << wp) // (one + y)
    u2 = (u * u) >> wp
    u4 = (u2 * u2) >> wp
    even, odd = u, u // 3
    v = (u * u4) >> wp
    j = 5
    while v:
        even += v // j
        odd += v // (j + 2)
        v = (v * u4) >> wp
        j += 4
    atanh_u = even + ((odd * u2) >> wp)
    # ln 2 to as many extra bits as mag has, so mag * ln 2 is good to 2 units
    extra = abs(mag).bit_length() + 2
    m = (mag * ln2_fixed(wp + extra) >> extra) - (total >> (table_wp - wp)) - 2 * atanh_u
    return from_man_exp(m, -wp, prec, round_nearest)


def ln_abs(x, prec: int):
    """ln|x| of a real or complex scalar, as a raw mpf rounded to ``prec`` bits.

    The modulus of a complex value is taken at ``prec`` too, so the cost
    follows ``prec``, not the precision ``x`` carries.  Zero gives -inf;
    NaN and infinities pass through.  Every logarithm of a residual in this
    package is taken here.

    In the band LOG_TAYLOR_PREC < ``prec`` <= 20,000 bits (about 750 to
    6000 digits), where mpmath takes the logarithm by AGM, a fixed-point
    kernel takes it: write |x| = m * 2**e with m in [1/2, 1); multiply m
    by (1 + 2**-k) for k = 1..K = 64 whenever the product stays <= 1,
    each a shift and an add; finish ln of the remainder, within 2**-K of
    1, by the atanh series; subtract the chosen ln(1 + 2**-k) from a table
    built once per 256 bits of precision (:func:`_ln_table`) and add
    e * ln 2.  The sum is kept with 40 guard bits.  Its error is below
    2**9 units of 2**-(prec + 40): at most 2.4 units per factor from
    truncated shifts (the factors multiply to less than 2.4), 2 per table
    entry, a few dozen in the series and 2 in e * ln 2, whose ln 2 carries
    as many extra bits as e has.  Since |ln|x|| > 1/2 there, that is below
    2**-31 ulp before the one rounding, so the result is within 1 ulp of
    ln|x|, and equals the correctly rounded value unless ln|x| lies within
    2**-31 ulp of a rounding midpoint.

    mpmath's ``mpf_log`` stays outside the band and for zero, NaN,
    infinities, powers of two and 1/2 <= |x| < 2 (where cancellation near
    |x| = 1 needs mpmath's extra bits).

    Measured on a 2-CPU host with Python 3.11 and mpmath 1.3.0 (pure-Python
    backend), one log against ``mpf_log``: 0.12 against 0.81 ms at 750
    digits, 0.25 against 1.1-1.9 ms at 1000, 4.4 against 19 ms at 4000,
    11 against 33 ms at 6000; at 12,000 digits the two cost the same, and
    at 16,000 the kernel loses.  The first log at a precision also builds
    the table, 6 ms at 1000 digits and 0.17 s at 6000, so the upper edge
    is set by the first order report of a process, table included.  On
    9- to 12-record traces of a cubic and of an exp problem, from 1000 to
    6000 digits, it was faster than with ``mpf_log`` alone in 127 of 132
    alternated fresh-interpreter pairs (median time 0.55-0.89 of the
    other); with the band widened, it was slower in 12 of 24 pairs at 7000
    to 10,000 digits (1.45 times on the cubic at 10,000).  K = 32 costs
    0.38 ms a log at 1000 digits, K = 128 0.22 ms with a table up to 20%
    dearer.  On 60 random values each at 750, 1000 and 1624 digits and 10
    at 4000 the kernel returned ``mpf_log``'s bits every time.
    """
    a = mpc_abs(x._mpc_, prec, round_nearest) if hasattr(x, "_mpc_") else mpf_abs(x._mpf_)
    _, man, exp, bc = a
    mag = exp + bc
    if _LN_MIN_PREC < prec <= _LN_MAX_PREC and man > 1 and mag not in (0, 1):
        return _ln_fixed_point(man, bc, mag, prec)
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
    are printed.  :func:`to_decimal` rounds correctly, so its text is
    monotone in the value: when both ends print alike, every value inside
    the bound prints so, the full-precision log10 included.  Otherwise (a
    rounding boundary inside the bound, zero, NaN, an infinity) the
    full-precision log10 is printed.
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

    The text is ``x`` correctly rounded to ``digits`` significant digits,
    ties away from zero.  Magnitudes outside roughly [1e-6, 1e6] use
    scientific notation ``d.ddd...e±EEE``.  Complex values render as
    ``re+imi`` / ``re-imi``.
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
    return _mpf_text(x._mpf_, digits)


def _mpf_text(s, dps: int) -> str:
    """mpmath's ``to_str(s, dps, min_fixed=-6, max_fixed=6)``, correctly rounded.

    The digits come from the exact binary value, with integers; the layout
    is mpmath's.
    """
    sign, man, exp, bc = s
    if not man:
        return "0.0"
    head, exponent = _round_exact(man, exp, dps, math.floor((exp + bc - 1) * LOG10_2))
    if -6 < exponent < 6:
        if exponent < 0:
            head = "0" * -exponent + head
            split = 1
        else:
            split = exponent + 1
            head += "0" * (split - dps)
        exponent = 0
    else:
        split = 1
    text = (head[:split] + "." + head[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    text = "-" + text if sign else text
    return text if exponent == 0 else f"{text}e{exponent:+d}"


def _round_exact(man: int, exp: int, dps: int, e10: int):
    """man * 2**exp rounded to ``dps`` significant digits, ties away from zero.

    Returns the digit string and the decimal exponent of its first digit;
    ``e10`` is a first guess at that exponent.
    """
    while True:
        # q = man * 2**exp * 10**shift rounded half up, with 10**shift = 5**shift * 2**shift
        shift = dps - 1 - e10
        num, den = (man * 5 ** shift, 1) if shift >= 0 else (man, 5 ** -shift)
        b = exp + shift
        if b >= 0:
            q = ((num << (b + 1)) + den) // (2 * den)
        elif den == 1:
            q = ((num >> (-b - 1)) + 1) >> 1
        else:
            q = (2 * num + (den << -b)) // (den << (1 - b))
        if q < 10 ** (dps - 1):
            e10 -= 1
        elif q >= 10 ** dps:
            e10 += 1
        else:
            return str(q), e10


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
