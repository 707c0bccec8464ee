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
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import rshift

import mpmath
from mpmath.ctx_mp import MPContext
from mpmath.libmp import (MPZ_ONE, fone, from_int, from_man_exp, from_rational, isqrt,
                          mpc_abs, mpf_abs, mpf_add, mpf_cos_sin, mpf_div, mpf_exp, mpf_ln10,
                          mpf_log, mpf_mul, mpf_neg, mpf_pow_int, mpf_shift, mpf_sub,
                          round_ceiling, round_floor, round_nearest)
from mpmath.libmp.libelefun import LOG_TAYLOR_PREC, ln10_fixed, ln2_fixed, mod_pi2, pi_fixed

LOG2_10 = math.log2(10.0)
_TEN = from_int(10)

# Extra binary precision beyond the requested decimal digits, so that long
# iteration chains still honor the decimal-digit accuracy contract.
GUARD_BITS = 32


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

        Strings are read by :func:`parse_real`, so ``real("0.1")`` is honest
        to the full digit count rather than inheriting a double's error.
        """
        if hasattr(value, "_mpf_"):
            return self.ctx.make_mpf(value._mpf_)
        if hasattr(value, "_mpc_"):
            raise TypeError("complex value given where a real scalar is required")
        if isinstance(value, str):
            return parse_real(value, self)
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


# The fixed-point band of ln_abs, exp_real and cos_sin_real: see their docstrings.
_LN_MIN_PREC = LOG_TAYLOR_PREC      # above it mpmath takes ln by AGM
_LN_MAX_PREC = 40_000               # bits, about 12,000 digits: see ln_abs
_LN_STEPS = 128                     # K: factors (1 + 2**-k), k = 1..K
_LN_GUARD = 40                      # guard bits of the fixed-point sum
_KERNEL_MAX_MAG = 64                # exp and cos/sin of |x| >= 2**64 are left to mpmath


def _table_wp(wp: int) -> int:
    """The precision a table is kept at: ``wp`` rounded up to 256 bits, so nearby precisions share one."""
    return -(-wp // 256) * 256


def _atanh_sums(w: int, ms, alternate: bool) -> dict:
    """m -> the sum over odd j <= w of 2**(w - m j) // j, for each m of the ascending ``ms``.

    atanh(2**-m) and atan(2**-m) are sums over odd j of 2**(-m j) / j, the
    second with alternating signs (``alternate`` subtracts the j = 3 mod 4
    terms).  A term is 2**(w - j) // j shifted right by (m - 1) j bits (a floor
    of a floor is one floor): one division per j serves every m, where a series
    in 1/(2**(k+1) + 1) needs two divisions a term.  Each term is low by less
    than 1 unit of 2**-w.  The divisions are made a block of about 2**23 bits
    at a time: all w / 2 of them would hold w**2 / 8 bits, 50 MB at 12,000 digits.
    """
    sums = dict.fromkeys(ms, 0)
    size = max(1, (1 << 22) // w) * 2           # odd j per block, even: a block starts at j = 1 mod 4
    for j0 in range(1, w + 1, 2 * size):
        block = [(MPZ_ONE << (w - j)) // j for j in range(j0, min(j0 + 2 * size, w + 1), 2)]
        parts = ((block[0::2], j0, 4, 1), (block[1::2], j0 + 2, 4, -1)) if alternate else ((block, j0, 2, 1),)
        for m in ms:
            if (m - 1) * j0 >= w:
                break
            for terms, j, step, sign in parts:
                shifts = range((m - 1) * j, w, step * (m - 1)) if m > 1 else repeat(0)
                sums[m] += sign * sum(map(rshift, terms, shifts))
    return sums


@lru_cache(maxsize=None)
def _ln_table(wp: int) -> tuple:
    """ln(1 + 2**-k) for k = 1..K, fixed point at ``wp`` bits; built on first use at each ``wp``.

    ln(1 + x) = atanh(x) - sum over i >= 1 of atanh(x**(2**i)) / 2**i, each
    atanh from :func:`_atanh_sums`: 5 ms at 1000 digits and 0.15 s at 6000
    (measured as for :func:`ln_abs`).
    With the dropped tails and shifts an entry is off by less than w / k +
    log2(w) + 7 units of 2**-w, so w = wp + 24 keeps it within 2 units of
    2**-wp for w < 2**22.
    """
    w = wp + 24
    atanh = _atanh_sums(w, sorted({k << i for k in range(1, _LN_STEPS + 1)
                                   for i in range(w.bit_length()) if k << i < w}), False)
    table = []
    for k in range(1, _LN_STEPS + 1):
        entry, m, i = atanh[k], 2 * k, 1
        while m < w:
            entry -= atanh[m] >> i
            m, i = 2 * m, i + 1
        table.append(entry >> 24)
    return tuple(table)


@lru_cache(maxsize=None)
def _atan_table(wp: int) -> tuple:
    """(atan(2**-k) for k = 1..K, the gain prod (1 + 4**-k)**-1/2), fixed point at ``wp`` bits.

    Built on first use at each ``wp``, from :func:`_atanh_sums` with
    alternating signs.  An entry sums at most w / 2 terms, each low by less
    than 1 unit of 2**-w, so w = wp + 24 keeps it within 2 units of 2**-wp
    for w < 2**24.  The gain is the square root of 2**(2w) / prod(1 + 4**-k),
    each factor of the product a shift and an add; it is within 2 units too.
    """
    w = wp + 24
    atan = _atanh_sums(w, range(1, _LN_STEPS + 1), True)
    prod = MPZ_ONE << w
    for k in range(1, _LN_STEPS + 1):
        prod += prod >> (2 * k)
    gain = isqrt((MPZ_ONE << (3 * w)) // prod)
    return tuple(atan[m] >> 24 for m in range(1, _LN_STEPS + 1)), gain >> 24


def _split_series(x: int, wp: int, ratio, alternate: bool = False):
    """The halves (j even, j odd) of sum over j of c_j x**j, fixed point at ``wp`` bits, for a small x >= 0.

    c_0 = 1 and c_j = c_(j-1) * num / den for (num, den) = ``ratio(j)``,
    integers with 0 < num <= den; each term with j mod 4 in (2, 3) is negated when
    ``alternate``.  So ratio(j) = (1, j) gives (cosh x, sinh x), or (cos
    x, sin x) when ``alternate``, and (2j - 1, 2j + 1) the series of
    atanh(u) / u in x = u**2.  Paterson and Stockmeyer's split: the terms
    are summed per residue i of j mod m (m even) on powers of x**m, and each
    sum is multiplied by x**i once at the end, so N terms take about 2m
    full multiplications and N / m by x**m, not N, and each of the latter
    takes x**m cut to the bits the shrinking term still needs (1/4 unit).
    A coefficient is kept to 1 unit per step, and its error shrinks with
    x**m at each block, so each half is within a few dozen units of 2**-wp
    for the N of the kernels.
    """
    one = MPZ_ONE << wp
    terms = wp // max(1, wp - x.bit_length())      # x**j falls by 2**(wp - bitlen) a term
    m = max(2, 2 * int(math.sqrt(terms / 16) + 0.5))      # measured best: 2 at 1000 digits
    powers = [one, x]
    for _ in range(m - 1):
        powers.append((powers[-1] * x) >> wp)
    x_m = powers.pop()
    sums = [0] * m
    a, j = one, 0
    while a:
        for i in range(m):
            if alternate and j & 2:
                sums[i] -= a
            else:
                sums[i] += a
            j += 1
            num, den = ratio(j)
            a = a * num // den if num > 1 else a // den
        t = max(0, wp - a.bit_length() - 2)
        a = (a * (x_m >> t)) >> (wp - t)
    even = sums[0] + sum((s * p) >> wp for s, p in zip(sums[2::2], powers[2::2]))
    odd = sum((s * p) >> wp for s, p in zip(sums[1::2], powers[1::2]))
    return even, odd


def _factorial_ratio(j):
    return 1, j


def _atanh_ratio(j):
    return 2 * j - 1, 2 * j + 1


def _ln_fixed_point(man: int, bc: int, mag: int, prec: int):
    """ln(m * 2**mag) rounded to ``prec`` bits, for m = man / 2**bc in [1/2, 1)."""
    # next to |x| = 1, as many more guard bits as |x - 1| has leading zeros
    lost = 0
    if mag in (0, 1):
        near_one = (MPZ_ONE << bc) - man if mag == 0 else (man << 1) - (MPZ_ONE << bc)
        lost = bc - near_one.bit_length()       # |x - 1| >= 2**-(lost + 1)
    wp = prec + _LN_GUARD + lost
    one = MPZ_ONE << wp
    shift = wp - bc
    y = man << shift if shift >= 0 else man >> -shift
    total = 0
    if lost > _LN_STEPS:
        # |x - 1| < 2**-K: the series alone, on y = x (no factor would fit)
        y <<= mag
        mag = 0
    else:
        # shift and add: y *= 1 + 2**-k while y stays <= 1; ln m = ln y - sum.
        # ln_abs at prec and log10_abs at prec + 20 share one table.
        table_wp = _table_wp(wp)
        for k, ln_factor in enumerate(_ln_table(table_wp), 1):
            z = y + (y >> k)
            if z <= one:
                y = z
                total += ln_factor
        total >>= table_wp - wp
    # ln y = -2 atanh(u), u = (1 - y) / (1 + y), |u| < 2**-K
    u = (abs(one - y) << wp) // (one + y)
    atanh_u = (u * sum(_split_series((u * u) >> wp, wp, _atanh_ratio))) >> wp
    if y > one:
        atanh_u = -atanh_u
    # ln 2 to as many extra bits as mag has, so mag * ln 2 is good to 2 units
    extra = abs(mag).bit_length() + 2
    m = (mag * ln2_fixed(wp + extra) >> extra) - total - 2 * atanh_u
    return from_man_exp(m, -wp, prec, round_nearest)


def _exp_fixed_point(man: int, exp: int, mag: int, prec: int):
    """exp(man * 2**exp) rounded to ``prec`` bits, for a signed man and |x| < 2**mag."""
    wp = prec + _LN_GUARD
    table_wp = _table_wp(wp)
    # x = n ln 2 + r with 0 <= r < ln 2, at table_wp bits; ln 2 carries as
    # many extra bits as n has
    extra = max(mag, 0) + 2
    offset = exp + table_wp + extra
    t = man << offset if offset >= 0 else man >> -offset
    n, r = divmod(t, ln2_fixed(table_wp + extra))
    r >>= extra
    # shift and add: y *= 1 + 2**-k whenever ln(1 + 2**-k) fits in r; exp r = y exp(rest)
    y = MPZ_ONE << wp
    for k, ln_factor in enumerate(_ln_table(table_wp), 1):
        if r >= ln_factor:
            r -= ln_factor
            y += y >> k
    cosh_r, sinh_r = _split_series(r >> (table_wp - wp), wp, _factorial_ratio)
    return from_man_exp(y * (cosh_r + sinh_r), int(n) - 2 * wp, prec, round_nearest)


def _cos_sin_fixed_point(sign: int, man: int, exp: int, mag: int, prec: int):
    """(cos x, sin x) rounded to ``prec`` bits, for x = (-1)**sign * man * 2**exp, |x| < 2**mag."""
    # t = x - n pi/2 in [0, pi/2), with as many more guard bits as t lost
    # to cancellation (mpf_cos_sin's reduction)
    t, n, wp = mod_pi2(man, exp, mag, prec + _LN_GUARD)
    half_pi = pi_fixed(wp - 1)
    swap = 2 * t > half_pi
    if swap:                            # cos t = sin(pi/2 - t), sin t = cos(pi/2 - t)
        t = half_pi - t
    lost = wp - t.bit_length()          # t >= 2**-(lost + 1)
    if lost > _LN_STEPS:
        c, s = _split_series(t, wp, _factorial_ratio, alternate=True)
    else:
        # signed rotations of (gain, 0) by atan(2**-k), k = 1..K, at as many
        # more guard bits as t has leading zeros; the angle left, below
        # atan(2**-K), is kept at table_wp bits and rotated by the series
        rp = prec + _LN_GUARD + lost
        table_wp = _table_wp(rp)
        atans, gain = _atan_table(table_wp)
        z = t << (table_wp - wp) if table_wp >= wp else t >> (wp - table_wp)
        c, s = gain >> (table_wp - rp), 0
        for k, angle in enumerate(atans, 1):
            if z >= 0:
                c, s = c - (s >> k), s + (c >> k)
                z -= angle
            else:
                c, s = c + (s >> k), s - (c >> k)
                z += angle
        cos_z, sin_z = _split_series(abs(z) >> (table_wp - rp), rp, _factorial_ratio, alternate=True)
        if z < 0:
            sin_z = -sin_z
        c, s = (c * cos_z - s * sin_z) >> rp, (s * cos_z + c * sin_z) >> rp
        wp = rp
    if swap:
        c, s = s, c
    quadrant = n & 3
    if quadrant == 1:
        c, s = -s, c
    elif quadrant == 2:
        c, s = -c, -s
    elif quadrant == 3:
        c, s = s, -c
    if sign:
        s = -s
    return from_man_exp(c, -wp, prec, round_nearest), from_man_exp(s, -wp, prec, round_nearest)


def _in_band(prec: int, man: int, mag: int) -> bool:
    """Whether exp_real and cos_sin_real take a finite nonzero x in fixed point."""
    return _LN_MIN_PREC < prec <= _LN_MAX_PREC and man != 0 and -prec < mag <= _KERNEL_MAX_MAG


def ln_abs(x, prec: int):
    """ln|x| of a real or complex scalar, as a raw mpf rounded to ``prec`` bits.

    The modulus of a complex value is taken at ``prec`` too, so the cost
    follows ``prec``, not the precision ``x`` carries.  Zero gives -inf;
    NaN and infinities pass through.  Every logarithm of a residual in this
    package is taken here.

    In the band LOG_TAYLOR_PREC < ``prec`` <= 40,000 bits (about 750 to
    12,000 digits), where mpmath takes the logarithm by AGM, a fixed-point
    kernel takes it: write |x| = m * 2**e with m in [1/2, 1); multiply m
    by (1 + 2**-k) for k = 1..K = 128 whenever the product stays <= 1,
    each a shift and an add; finish ln of the remainder, within 2**-K of
    1, by the atanh series; subtract the chosen ln(1 + 2**-k) from a table
    built once per 256 bits of precision (:func:`_ln_table`) and add
    e * ln 2.  The sum is kept with 40 guard bits, and for 1/2 <= |x| < 2
    with as many more as |x - 1| has leading zeros, 2**-(c + 1) <= |x - 1|.
    Its error is below 2**10 units of 2**-(prec + 40 + c): at most 2.4
    units per factor from truncated shifts (the factors multiply to less
    than 2.4) and 2 per table entry, below 570 for the K factors; a few
    dozen in the series; 2 in e * ln 2, whose ln 2 carries as many extra
    bits as e has.  Since |ln|x|| > 1/2 outside [1/2, 2) and >= |x - 1| / 2
    inside, that is below 2**-29 ulp before the one rounding, so the
    result is within 1 ulp of ln|x|, and equals the correctly rounded
    value unless ln|x| lies within 2**-29 ulp of a rounding midpoint.

    mpmath's ``mpf_log`` stays outside the band and for zero, NaN,
    infinities and powers of two.

    Measured on a 2-CPU host with Python 3.11 and mpmath 1.3.0 (pure-Python
    backend), the least time per log over 20 arguments in [0.05, 6), in
    fresh interpreters: 0.09 against 0.67 ms for ``mpf_log`` at 750
    digits, 0.14 against 1.0 ms at 1000, 1.7 against 11 ms at 4000 and
    3.7 against 21 ms at 6000.  K weighs the table against the series
    (Brent 1976): with K = 64 a log took 0.15 ms at 1000 digits and 4.7 ms
    at 6000, with K = 160 about 5% less than with 128, from a dearer
    table.  The first log at a precision builds the table, 4.7 ms at
    1000 digits and 0.11 s at 6000, so the upper edge is set by the first
    solve and report of a process, tables included: on 8- to 12-record
    traces of a cubic and of an exp problem, a band to 40,000 bits beat one
    to 20,000 in all 36 alternated fresh-interpreter pairs at 7000, 9000 and
    12,000 digits (median time 0.55-0.81 of the other).  Past 12,000 the
    tables grow dear (0.44 s for ln's) and nothing was measured.  On 948
    arguments (200 each at 750, 1000, 1624 and 4000 digits, 100 at 6000, 24
    each at 9000 and 12,000; random, and next to multiples of ln 2 and
    pi/2) the kernel returned ``mpf_log``'s bits every time, and it is
    within 1 ulp on values with |x - 1| from 2**-1 to 2**-3364 at 1000
    digits.
    """
    a = mpc_abs(x._mpc_, prec, round_nearest) if hasattr(x, "_mpc_") else mpf_abs(x._mpf_)
    _, man, exp, bc = a
    if _LN_MIN_PREC < prec <= _LN_MAX_PREC and man > 1:
        return _ln_fixed_point(man, bc, exp + bc, prec)
    return mpf_log(a, prec, round_nearest)


def exp_real(x, prec: int):
    """exp(x) of a real scalar, as a raw mpf rounded to ``prec`` bits.

    In :func:`ln_abs`'s band, for 2**-prec <= |x| < 2**64, a fixed-point
    kernel on :func:`_ln_table` takes it: x = n ln 2 + r with 0 <= r <
    ln 2; for k = 1..K subtract ln(1 + 2**-k) from r whenever it fits and
    multiply y by (1 + 2**-k), a shift and an add; the rest, below 2**-K,
    goes through one split Taylor series (:func:`_split_series`), and
    exp(x) = 2**n * y * exp(rest).  No square root is taken.  With 40
    guard bits the error is below 2**10 units of 2**-(prec + 40): 2.4
    units per factor of y and 2 per table entry taken, at most K = 128 of
    each, 2 in n ln 2 (ln 2 carries as many extra bits as n has) and a few
    dozen in the series.  The result is within 1 ulp of exp(x).  mpmath's
    ``mpf_exp`` takes every other x.

    Measured as for :func:`ln_abs`, one exp against ``mpf_exp``: 0.08
    against 0.23 ms at 750 digits, 0.14 against 0.42 ms at 1000, 1.8
    against 6.2 ms at 4000 and 3.9 against 14 ms at 6000 (K = 64: 0.16
    ms at 1000 digits).  It shares :func:`ln_abs`'s table.  On the 948
    arguments of :func:`ln_abs` it gave ``mpf_exp``'s bits on 947; on the
    other it was within 0.5 ulp, so ``mpf_exp`` had rounded the wrong way.
    """
    s = x._mpf_
    sign, man, exp, bc = s
    if _in_band(prec, man, exp + bc):
        return _exp_fixed_point(-man if sign else man, exp, exp + bc, prec)
    return mpf_exp(s, prec, round_nearest)


def cos_sin_real(x, prec: int):
    """(cos x, sin x) of a real scalar, as raw mpfs rounded to ``prec`` bits.

    In :func:`ln_abs`'s band, for 2**-prec <= |x| < 2**64, a fixed-point
    kernel takes them: x is reduced mod pi/2 to t in [0, pi/2) by mpmath's
    own reduction, which keeps as many more bits as the reduction cancels,
    and t is folded to [0, pi/4].  A t below 2**-K goes through the
    alternating series alone (:func:`_split_series`).  Otherwise the
    vector (g, 0) is rotated by +-atan(2**-k) for k = 1..K, the sign
    chosen by the angle still to go, each rotation two shifts and two adds
    (CORDIC); g = prod (1 + 4**-k)**-1/2 undoes the rotations' stretch.
    The angle left, below atan(2**-K), is rotated by the series.  The
    atan table and g are built once per 256 bits of precision
    (:func:`_atan_table`).  The rotations run with 40 guard bits and as
    many more as t has leading zeros, so sin t keeps its relative error:
    below 2**10 units of the last guard bit in all, 2 per rotation times a
    stretch of 1.65 and 2 per table entry for K = 128 rotations, and a few
    dozen in the series.  Both results are within 1 ulp.  mpmath's
    ``mpf_cos_sin`` takes every other x.

    Measured as for :func:`ln_abs`, one (cos, sin) against
    ``mpf_cos_sin``: 0.15 against 0.24 ms at 750 digits, 0.22 against
    0.44 ms at 1000, 2.3 against 6.3 ms at 4000 and 4.9 against 14 ms at
    6000 (K = 64: 0.21 ms at 1000 digits).  The atan table costs 3.8 ms
    at 1000 digits and 0.09 s at 6000 on the first call.  On the same 948
    arguments it gave ``mpf_cos_sin``'s bits on 947; on the other it was
    within 0.5 ulp, so ``mpf_cos_sin`` had rounded the wrong way.
    """
    s = x._mpf_
    sign, man, exp, bc = s
    if _in_band(prec, man, exp + bc):
        return _cos_sin_fixed_point(sign, man, exp, exp + bc, prec)
    return mpf_cos_sin(s, prec, round_nearest)


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
    wp = _context(digits).prec
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


def digits_of(ctx) -> int:
    """The decimal digits a context works at: its Precision's, else its dps."""
    return getattr(ctx, "_decimal_digits", ctx.dps)


def to_decimal(x, digits: int | None = None) -> str:
    """Render a scalar as a decimal string with an explicit digit count.

    The text is ``x`` correctly rounded to ``digits`` significant digits,
    ties away from zero.  Magnitudes outside roughly [1e-6, 1e6] use
    scientific notation ``d.ddd...e±EEE``.  Complex values render as
    ``re+imi`` / ``re-imi``.
    """
    if hasattr(x, "_mpc_"):
        im = to_decimal(x.imag, digits)
        return f"{to_decimal(x.real, digits)}{'' if im.startswith('-') else '+'}{im}i"
    ctx = context_of(x)
    if digits is None:
        digits = digits_of(ctx)
    if ctx.isnan(x):
        return "nan"
    if not ctx.isfinite(x):
        return "inf" if x > 0 else "-inf"
    return _mpf_text(x._mpf_, digits)


@lru_cache(maxsize=None)
def _log10_2_fixed(wp: int) -> int:
    """log10(2) as a fixed-point integer of ``wp`` fraction bits."""
    return (ln2_fixed(wp) << wp) // ln10_fixed(wp)


def _mpf_text(s, dps: int) -> str:
    """mpmath's ``to_str(s, dps, min_fixed=-6, max_fixed=6)``, correctly rounded.

    The digits come from the binary value (:func:`_round_decimal`); the
    layout is mpmath's.
    """
    sign, man, exp, bc = s
    if not man:
        return "0.0"
    # log10(2) to 64 bits more than n has: the guess is within one of floor(n * log10(2))
    n = exp + bc - 1
    wp = n.bit_length() + 64
    e10 = (n * _log10_2_fixed(wp)) >> wp
    head, exponent = _round_decimal(man, exp, dps, e10)
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


# Past this many decimal places beyond the mantissa's bits and twice the
# digit count, a scaling by 10**shift costs less bracketed than exact.
_EXACT_SHIFT = 4096


def _round_decimal(man: int, exp: int, dps: int, e10: int):
    """man * 2**exp (man > 0) rounded to ``dps`` significant digits, ties away from zero.

    Returns the digit string and the decimal exponent of its first digit;
    ``e10`` is a first guess at that exponent, within two of it.  The digits
    are those of the value times 10**shift, shift = dps - 1 - e10, rounded
    half up.  Integers (:func:`_scaled_exact`) need 5**|shift|, seconds at
    1e1000000; past |shift| > bc + 2 dps + _EXACT_SHIFT (bc: man's bits)
    they come from an enclosure (:func:`_scaled_bracketed`), as no tie
    exists there.  For shift < 0 a tie needs 5**-shift to divide man.  For
    shift > 0 and an odd man, as mpmath keeps it, a tie needs exp + shift
    = -1, so the scaled value would be man * 5**shift / 2, yet it is below
    10**(dps + 2).
    """
    bc = man.bit_length()
    low, high = _int_power(10, dps - 1), _int_power(10, dps)
    while True:
        shift = dps - 1 - e10
        if abs(shift) > bc + 2 * dps + _EXACT_SHIFT:
            q = _scaled_bracketed(man, exp, shift, dps)
        else:
            q = _scaled_exact(man, exp, shift)
        if q < low:
            e10 -= 1
        elif q >= high:
            e10 += 1
        else:
            return _int_text(q, dps), e10


@lru_cache(maxsize=256)
def _int_power(base: int, exp: int) -> int:
    """base**exp; the values of one trace or report share a few digit counts and exponents."""
    return base ** exp


def _scaled_exact(man: int, exp: int, shift: int) -> int:
    """man * 2**exp * 10**shift rounded half up, in integers: 10**shift = 5**shift * 2**shift."""
    num, den = (man * _int_power(5, shift), 1) if shift >= 0 else (man, _int_power(5, -shift))
    b = exp + shift
    if b >= 0:
        return ((num << (b + 1)) + den) // (2 * den)
    if den == 1:
        return ((num >> (-b - 1)) + 1) >> 1
    return (2 * num + (den << -b)) // (den << (1 - b))


def _scaled_bracketed(man: int, exp: int, shift: int, dps: int) -> int:
    """:func:`_scaled_exact` of a value that is no tie, from an enclosure.

    The product with 10**shift is taken rounded down and rounded up, with
    directed rounding throughout (``mpf_pow_int`` keeps it so), at ``dps``
    digits plus 32 bits.  When both ends round to one integer, that is the
    answer; else the precision doubles.  A value that is no tie lies a
    positive distance from the nearest half-integer, so the loop ends.
    """
    x = from_man_exp(man, exp)
    wp = _context(dps).prec
    while True:
        lo, hi = (_scaled_exact(*mpf_mul(x, mpf_pow_int(_TEN, shift, wp, rnd), wp, rnd)[1:3], 0)
                  for rnd in (round_floor, round_ceiling))
        if lo == hi:
            return lo
        wp *= 2


# Python converts between int and decimal text only up to this many digits
# (4300 unless the process sets another limit; 0: no limit).  Longer digit
# strings go in parts, and the limit is left as it is.
_int_digit_limit = sys.get_int_max_str_digits


def _int_text(q: int, n: int) -> str:
    """The decimal digits of 0 <= q < 10**n, zero-padded to n."""
    limit = _int_digit_limit()
    if not limit or n <= limit:
        return str(q).zfill(n)
    half = n // 2
    hi, lo = divmod(q, 10 ** half)
    return _int_text(hi, n - half) + _int_text(lo, half)


def _int_of_digits(digits: str) -> int:
    """int(digits) of a string of decimal digits of any length."""
    limit = _int_digit_limit()
    if not limit or len(digits) <= limit:
        return int(digits)
    half = len(digits) // 2
    return _int_of_digits(digits[:-half]) * 10 ** half + _int_of_digits(digits[-half:])


_DECIMAL = _re.compile(r"([+-]?)(\d*)(?:\.(\d*))?(?:e([+-]?\d+))?")
_SPECIAL_WORDS = ("inf", "+inf", "-inf", "nan")


@lru_cache(maxsize=256)
def _ten_power(exp: int, prec: int):
    """10**exp to ``prec`` bits; the values of one trace share a few exponents."""
    return mpf_pow_int(_TEN, exp, prec)


def _from_decimal(m, prec: int, rnd):
    """mpmath's ``from_str`` of the literal matched by ``_DECIMAL``, for any length.

    The mantissa digits are read by :func:`_int_of_digits`; the rounding
    is ``from_str``'s, step for step, so the bits are the same wherever
    ``from_str`` can read the text.
    """
    sign, whole, frac, e = m.groups()
    frac = (frac or "").rstrip("0")
    exp = (int(e) if e else 0) - len(frac)
    man = _int_of_digits(whole + frac or "0")
    man = -man if sign == "-" else man
    if abs(exp) > 400:
        return mpf_mul(from_int(man, prec + 10), _ten_power(exp, prec + 10), prec, rnd)
    if exp >= 0:
        return from_int(man * 10 ** exp, prec, rnd)
    return from_rational(man, 10 ** -exp, prec, rnd)


def parse_real(text: str, p: Precision):
    """Parse a decimal real literal at precision ``p``: the one reader of decimal text.

    One grammar at every length: an optional sign, decimal digits with at
    most one point (a bare leading or trailing dot, ``.5`` or ``5.``, but
    not a lone ``.``), then an optional exponent ``e`` or ``E`` with an
    optional sign; or one of the words ``inf``, ``+inf``, ``-inf``, ``nan``.
    A digit is ``\\d``, as in the expression tokenizer, so any Unicode
    decimal digit counts.  Case and surrounding whitespace are ignored.
    Other forms that mpmath's reader or ``float`` would take (``1_0``,
    ``1/3``, ``infinity``) raise.  Past Python's int-from-text limit (a
    trace value past 4300 digits) the digits are read in parts, to the same
    bits.
    """
    s = text.strip().lower()
    if s in _SPECIAL_WORDS:
        return p.ctx.mpf(s)
    m = _DECIMAL.fullmatch(s)
    if m is None or not (m[2] or m[3]):
        raise ValueError(f"invalid real literal {text!r}")
    return p.ctx.make_mpf(_from_decimal(m, *p.ctx._prec_rounding))


def read_tol(value, p: Precision):
    """A tolerance (str, int, float or mpf) as a real at precision ``p``.

    Raises:
        ValueError: unless 0 < tol < inf.
    """
    tol = p.real(value)
    if not 0 < tol < p.inf:
        raise ValueError("tol must be positive and finite")
    return tol


def _imaginary(text: str) -> bool:
    """Whether ``text`` ends in the imaginary unit ``i`` or ``j``, trailing whitespace aside."""
    return text.rstrip().endswith(("i", "j"))


def _sign_split(body: str) -> int:
    """Index of the last ``+`` or ``-`` past the start of ``body`` not after ``e``/``E``; else -1.

    Each sign's last position comes from ``str.rfind``; one preceded by an
    exponent letter gives way to the next of its kind to the left.
    """
    plus, minus = body.rfind("+"), body.rfind("-")
    while True:
        k = max(plus, minus)
        if k <= 0:
            return -1
        if body[k - 1] not in "eE":
            return k
        if k == plus:
            plus = body.rfind("+", 0, k)
        else:
            minus = body.rfind("-", 0, k)


def parse_scalar(text: str, p: Precision):
    """Parse a real literal at precision ``p``, or a complex one by :func:`parse_complex`.

    Complex when ``text`` ends in the imaginary unit suffix ``i`` or ``j``
    (so ``inf`` is real, and ``5+0i`` is complex).
    """
    if _imaginary(text):
        return parse_complex(text, p)
    return parse_real(text, p)


def parse_complex(text: str, p: Precision):
    """Parse ``a``, ``bi``, or ``a±bi`` (``j`` accepted for ``i``) at precision ``p``.

    Spaces are dropped.  Text without the unit suffix is a real part.  With
    it, the split between the parts is the last ``+`` or ``-`` past the first
    character that is no exponent sign (:func:`_sign_split`, which finds it
    by ``str.rfind`` rather than a scan of each character); without one the
    whole is the imaginary part, and a bare sign or none stands for 1.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if not _imaginary(s):
        return p.cplx(parse_real(s, p))
    body = s[:-1]
    split = _sign_split(body)
    re_part, im_part = ("0", body) if split == -1 else (body[:split], body[split:])
    # a leading '+' is the operator at a split, as in Python's complex(), and
    # a no-op sign without one; dropped either way, '+nani' reads as 'nani'
    # (parse_real refuses a signed nan)
    im_part = im_part.removeprefix("+")
    if im_part == "":
        im_part = "1"
    elif im_part == "-":
        im_part = "-1"
    return p.cplx(parse_real(re_part, p), parse_real(im_part, p))
