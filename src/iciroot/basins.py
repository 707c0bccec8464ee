"""Basin-of-attraction rendering over a complex-plane pixel grid.

Every pixel center seeds one iteration that takes the solver's steps:
Newton first, then the blended two-point step, and the safeguard steps that
:func:`iciroot.kernel.next_step` picks where residuals meet or f' is dead.
A pixel records either the converged limit, the final iterate after
``max_iter`` steps, or a NaN flag: where no step exists (the solver's
``degenerate`` stop), where f or f' fails, or where the iteration escaped
the overflow cap.  Arbitrary-precision arithmetic never overflows on its
own, so the cap — magnitudes past 2**1024 (:data:`OVERFLOW_BITS`), where an
IEEE double overflows — is what makes "iteration blew up" an observable
pixel state, and the one stop the basin adds to the solver's.

The step, and f and f' from the expression's tape, run in fixed point at one
scale per render, F = P + max(GUARD_BITS, ceil(-log2 tol), ceil(-log2 s)),
P the spec's binary precision and s the smaller pixel spacing: a value is a
pair of ints (re, im) standing for (re + i*im) * 2**-F.  Each operation is
off by a few units of 2**-F, so values of magnitude 2**(P - F) or more keep
P bits and smaller ones fewer (an f' that small gives limits that need not
match the solver's).  A group of pixels advances together, one ``map`` pass
per integer operation over its lanes (:class:`_Lanes`), each pixel leaving
as it converges or fails.  Each lane's arithmetic is its own and results
travel as raw mantissa/exponent tuples, so the raster is bit-identical
whatever the grouping or the number of worker processes.  Renders and scans
read no module state but constants, so threads may run them at once.

A pixel's phase is ``float(arg(limit))`` at P bits, taken from the limit's
ints by :func:`_phase`: a fixed-point atan2 of about 100 bits, within 16
units of its last bit, kept when neither that error nor mpmath's own (under
1.25 * 2**(1 - P) relative) can move it across a rounding boundary between
doubles.  Otherwise, or for a phase below 2**-1000, mpmath's ``arg`` decides.
"""

from __future__ import annotations

import colorsys
import csv
import math
import time
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, floordiv, lshift, mul, neg, rshift, sub

from mpmath.libmp import from_man_exp
from mpmath.libmp.libelefun import atan_taylor, cos_sin_fixed, exp_basecase, ln2_fixed, pi_fixed

from .expr import compile_tape, lower, mp_lowering, square_and_multiply
from .kernel import PointSample, ici_blend, next_step, secant_step
from .mpscalar import GUARD_BITS, Precision, opened, parse_real, read_tol, to_decimal

DEFAULT_BASIN_DIGITS = 34
OVERFLOW_BITS = 1024        # |z|, |f| or |f'| past 2**1024 is a NaN pixel, as for a double


@dataclass
class BasinSpec:
    """Grid, iteration budget and precision for one basin render.

    ``tol`` and the range ends (str, int, float or mpf) are kept as their
    decimal text ``str(v)``, read at the spec's precision where used, so a
    spec pickles to worker processes.  They must be finite, the ranges
    ordered and ``tol`` positive at that precision.
    """

    ftext: str
    re_range: tuple = ("-2.0", "2.0")
    im_range: tuple = ("-2.0", "2.0")
    width: int = 200
    height: int = 200
    max_iter: int = 13
    tol: str = "1e-8"
    precision: Precision = field(default_factory=lambda: Precision(DEFAULT_BASIN_DIGITS))
    workers: int = 1

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.tol = str(self.tol)
        self.re_range = tuple(map(str, self.re_range))
        self.im_range = tuple(map(str, self.im_range))
        p = self.precision
        read_tol(self.tol, p)
        re0, re1, im0, im1 = (parse_real(v, p) for v in (*self.re_range, *self.im_range))
        if not (0 < re1 - re0 < p.inf and 0 < im1 - im0 < p.inf):
            raise ValueError("re_range and im_range must be finite, non-degenerate intervals")

    def _axes(self):
        """(re0, dre, im1, dim): the grid's left and top edges and its pixel spacings."""
        p = self.precision
        re0, re1, im0, im1 = (parse_real(v, p) for v in (*self.re_range, *self.im_range))
        return re0, (re1 - re0) / self.width, im1, (im1 - im0) / self.height

    def grid(self):
        """Pixel centers as (re of each column, im of each row).

        Row j = 0 sits at the top of im_range.
        """
        half = self.precision.ctx.mpf(0.5)
        re0, dre, im1, dim = self._axes()
        return ([re0 + (i + half) * dre for i in range(self.width)],
                [im1 - (j + half) * dim for j in range(self.height)])

    def pixel_center(self, i: int, j: int):
        """Center of pixel (i, j), read from :meth:`grid`."""
        res, ims = self.grid()
        return self.precision.ctx.mpc(res[i], ims[j])


@dataclass
class BasinRaster:
    """Per-pixel outcome arrays, indexed [row j][column i]."""

    width: int
    height: int
    final: list        # mpc limit, or None on a NaN pixel
    iterations: list   # iterations used (0 when the seed evaluation failed)
    converged: list
    nan_mask: list
    phase: list        # float in (-pi, pi], or None on a NaN pixel
    spec: BasinSpec

    def counts(self):
        conv = sum(r.count(True) for r in self.converged)
        nan = sum(r.count(True) for r in self.nan_mask)
        return conv, nan

    def to_csv(self, path_or_file):
        """One row per pixel; the centre's coordinates as decimal text at the spec's digits."""
        digits = self.spec.precision.digits
        res, ims = ([to_decimal(v, digits) for v in axis] for axis in self.spec.grid())
        with opened(path_or_file, "w") as fh:
            w = csv.writer(fh)
            w.writerow(["i", "j", "re_z0", "im_z0", "converged", "iterations", "phase"])
            for j, im in enumerate(ims):
                for i, re in enumerate(res):
                    ph = self.phase[j][i]
                    w.writerow([i, j, re, im,
                                int(self.converged[j][i]), self.iterations[j][i],
                                "" if ph is None else repr(ph)])


# ---------------------------------------------------------------------------
# fixed-point lanes: one slot's values over a group of pixels.  A lane that
# meets a zero divisor, a failure of mpmath or a value no pair may hold dies:
# it goes on as zero and ends as a NaN pixel, as every slot feeds f or f'.

GROUP_LANES = 1024      # 256 lanes took 1.1-1.2x as long on 128² frames of z^3-1, 4096 no less
HOLD_BITS = 64          # a part reaching 2**(OVERFLOW_BITS + HOLD_BITS) kills its lane


def _shift(x, k):
    return x << k if k >= 0 else x >> -k


def _outside(re, im, t):
    """The lanes with a part of magnitude t or more; the extremes of the parts rule most groups out."""
    if max(re) < t and min(re) > -t and max(im) < t and min(im) > -t:
        return ()
    return [k for k, (r, i) in enumerate(zip(re, im)) if not (-t < r < t and -t < i < t)]


def _scale_bits(spec: BasinSpec):
    """F = P + max(GUARD_BITS, ceil(-log2 tol), ceil(-log2 s)), s the smaller pixel spacing."""
    p, (_, dre, _, dim) = spec.precision, spec._axes()
    # ceil(-log2 x) = 1 - (exponent + bit count) for a positive mpf x
    return p.ctx.prec + max(GUARD_BITS, *(1 - e - bc for _, _, e, bc in
                                          (read_tol(spec.tol, p)._mpf_, min(dre, dim)._mpf_)))


class _Scale:
    """One render's scale F, its bounds (from OVERFLOW_BITS) and the positions of dead lanes."""

    __slots__ = ("F", "bits", "hold", "edge", "dead")

    def __init__(self, F):
        self.F = F
        self.bits = OVERFLOW_BITS + HOLD_BITS
        self.hold = 1 << self.bits + F
        self.edge = 1 << OVERFLOW_BITS + F - 1
        self.dead = set()

    def parts(self, v):
        """Lanes' parts, or those of a pair (a folded constant) or an int, repeated per lane."""
        if type(v) is _Lanes:
            return v.re, v.im
        if type(v) is int:
            v = (v << self.F, 0)
        elif type(v) is not tuple:
            raise OverflowError("not a lane value")     # a constant no pair holds: its reader fails
        return repeat(v[0]), repeat(v[1])

    def held(self, re, im):
        """re, im as lanes, each lane with a part past the hold bound dead and zero."""
        for k in _outside(re, im, self.hold):
            self.dead.add(k)
            re[k] = im[k] = 0
        return _Lanes(re, im, self)

    def divide(self, a, b):
        """a / b = a * conj(b) / |b|**2 over the lanes; a zero divisor kills its lane."""
        (ar, ai), (br, bi) = self.parts(a), self.parts(b)
        if type(b) is _Lanes:
            den = list(map(add, map(mul, b.re, b.re), map(mul, b.im, b.im)))
            for k in [k for k, v in enumerate(den) if not v] if 0 in den else ():
                self.dead.add(k)
                den[k] = 1
        else:
            den = next(br) ** 2 + next(bi) ** 2
            if not den:
                raise ZeroDivisionError("division by a zero constant")
            den = repeat(den)
        F = repeat(self.F)
        re = map(lshift, map(add, map(mul, ar, br), map(mul, ai, bi)), F)
        im = map(lshift, map(sub, map(mul, ai, br), map(mul, ar, bi)), F)
        return self.held(list(map(floordiv, re, den)), list(map(floordiv, im, den)))

    def over_cap(self, z):
        """Kill the lanes of z past the cap, as ``ctx.mag`` bounds |z|.

        That bound is the bit length of |re| | |im| less F, plus one when
        both parts are nonzero; parts below 2**(cap - 1) rule a group out.
        """
        c = self.edge
        for k in _outside(z.re, z.im, c):
            r, i = z.re[k], z.im[k]
            if abs(r) | abs(i) >= c << 1 or (r and i):
                self.dead.add(k)


class _Lanes:
    """One slot's values over a group of lanes: lane k is (re[k] + i*im[k]) * 2**-F.

    The operators take lanes, pairs and ints, one ``map`` pass per integer
    operation, so :func:`iciroot.kernel.ici_blend` runs on lanes as written.
    """

    __slots__ = ("re", "im", "g")

    def __init__(self, re, im, g):
        self.re, self.im, self.g = re, im, g

    def take(self, keep):
        """The lanes at the positions ``keep``."""
        return _Lanes(list(map(self.re.__getitem__, keep)), list(map(self.im.__getitem__, keep)),
                      self.g)

    def __add__(self, b):
        br, bi = self.g.parts(b)
        return _Lanes(list(map(add, self.re, br)), list(map(add, self.im, bi)), self.g)

    __radd__ = __add__

    def __sub__(self, b):
        br, bi = self.g.parts(b)
        return _Lanes(list(map(sub, self.re, br)), list(map(sub, self.im, bi)), self.g)

    def __rsub__(self, b):
        return -self + b

    def __neg__(self):
        return _Lanes(list(map(neg, self.re)), list(map(neg, self.im)), self.g)

    def __mul__(self, b):
        # a square, an int and a real constant take fewer products, each with
        # the bits of the general form by an integer identity
        ar, ai, g = self.re, self.im, self.g
        if b is self:           # ar*ar - ai*ai = (ar + ai)(ar - ai), ar*ai + ai*ar = 2*ar*ai
            return g.held(list(map(rshift, map(mul, map(add, ar, ai), map(sub, ar, ai)), repeat(g.F))),
                          list(map(rshift, map(mul, ar, ai), repeat(g.F - 1))))
        if type(b) is int:      # (b << F) >> F
            return g.held(list(map(mul, ar, repeat(b))), list(map(mul, ai, repeat(b))))
        if type(b) is tuple and not b[1]:
            c, F = repeat(b[0]), repeat(g.F)
            return g.held(list(map(rshift, map(mul, ar, c), F)), list(map(rshift, map(mul, ai, c), F)))
        (br, bi), F = g.parts(b), repeat(g.F)
        return g.held(list(map(rshift, map(sub, map(mul, ar, br), map(mul, ai, bi)), F)),
                      list(map(rshift, map(add, map(mul, ar, bi), map(mul, ai, br)), F)))

    __rmul__ = __mul__

    def __truediv__(self, b):
        return self.g.divide(self, b)

    def __rtruediv__(self, b):
        return self.g.divide(b, self)


def _within(y, tol2):
    """Whether |y|**2 <= tol2 in each lane, decided exactly."""
    return list(map(tol2.__ge__, map(add, map(mul, y.re, y.re), map(mul, y.im, y.im))))


def _power(a, n):
    """a**n on lanes for an integer n, by repeated squaring (of 1/a for n < 0); lanes of 1 for n = 0."""
    if n < 0:
        a, n = 1 / a, -n
    r = square_and_multiply(a, n, mul, lambda u: u * u)
    return a * 0 + 1 if r is None else r


# exp and cos_sin run on mpmath's fixed-point kernels at wp = P + _FIXED_GUARD
# + max(mag, 0) bits, P the context's precision and 2**mag bounding the
# argument's parts: the reduction by ln 2 or pi/2 consumes one bit per bit of
# the integer part.  Past 2**_FIXED_MAG (where exp and cosh of 1024 are
# already past the overflow cap) the lane goes to mpmath.  e**x is taken as
# v * 2**(n - wp) with n apart: mpmath's ``exp_fixed`` shifts v by n, which
# drops the low bits of a small result.  wp <= P + 26 < P + GUARD_BITS <= F,
# so an argument comes down from scale F by a right shift.
_FIXED_MAG = 10
_FIXED_GUARD = 16


def _exp_lane(r, i, d, wp, ln2, pi2):
    """exp(re + i*im) = e**re (cos im + i sin im) of a lane, as its parts at scale F = wp + d."""
    n, t = divmod(r >> d, ln2)
    v = exp_basecase(t, wp)
    if not i:
        return _shift(v, n + d), 0
    c, s = cos_sin_fixed(i >> d, wp, pi2)
    k = n - wp + d
    return _shift(v * c, k), _shift(v * s, k)


def _cos_sin_lane(r, i, d, wp, ln2, pi2):
    """(cos a, sin a) of a lane as the parts (cos re, cos im, sin re, sin im) at scale F = wp + d.

    With a = x + iy: cos a = cos x cosh y - i sin x sinh y and
    sin a = sin x cosh y + i cos x sinh y.
    """
    c, s = cos_sin_fixed(r >> d, wp, pi2)
    if not i:
        return c << d, 0, s << d, 0
    # e**y = v * 2**(n - wp) and e**-y = w * 2**(-n - wp), brought to one
    # exponent h: cosh y = (v + w) * 2**h and sinh y = (v - w) * 2**h
    n, t = divmod(i >> d, ln2)
    v = exp_basecase(t, wp)
    w = (1 << 2 * wp) // v
    if n >= 0:
        v <<= 2 * n
        h = -n - wp - 1
    else:
        w <<= -2 * n
        h = n - wp - 1
    ch, sh = v + w, v - w
    k = h + d
    return _shift(c * ch, k), _shift(-s * sh, k), _shift(s * ch, k), _shift(c * sh, k)


def _lanes_lowering(ctx, g: _Scale):
    """The lowering of an expression tape onto lanes at g's scale (complex mode).

    A slot holds lanes, or a pair (re, im) of ints for a folded constant, or
    None for a constant no pair may hold, which fails its reader through
    :meth:`_Scale.parts`; :func:`iciroot.expr.lower` fails the readers of a
    failed slot.  add, sub, mul, div, neg and pick are the mpmath
    lowering's, Python's operators, which :class:`_Lanes` overloads; powint
    and ``pow`` by an integer below 2**16 in magnitude run on lanes; exp and
    cos_sin per lane on mpmath's fixed-point kernels; anything else
    (``log``, ``sqrt``, other powers, exp or cos_sin past _FIXED_MAG) per
    lane through the mpmath lowering, where an exception or a value that is
    not finite kills the lane.  Constants fold on the mpmath lowering ("fold").
    """
    mp = mp_lowering(ctx, complex_mode=True)
    F, P, dead = g.F, ctx.prec, g.dead

    def pair(v):
        """mpf or mpc as ints at scale F (a cos_sin pair as four); None where no pair may hold it."""
        if type(v) is tuple:
            c, s = pair(v[0]), pair(v[1])
            return None if c is None or s is None else c + s
        out = ()
        for s, m, e, bc in getattr(v, "_mpc_", None) or (v._mpf_, (0, 0, 0, 0)):
            if (not m and (e or bc)) or e + bc > g.bits:
                return None         # special values carry a zero mantissa and a tag
            out += (_shift(-m if s else m, e + F),)
        return out

    def value(r, i):
        return ctx.make_mpc((from_man_exp(r, -F), from_man_exp(i, -F)))

    def lanewise(op, kernel=None):
        """op per lane: ``kernel(re, im, F - wp, wp, ln2, pi2)`` below _FIXED_MAG, else mpmath's op."""
        width = 4 if op == "cos_sin" else 2

        def make(arg):
            fallback = mp[op](arg)

            def slot(a, b):
                rows, consts = [], {}       # consts: ln 2 and pi/2 at each working precision
                for k, (ar, ai, br, bi) in enumerate(zip(*g.parts(a), *g.parts(b))):
                    mag = (abs(ar) | abs(ai)).bit_length() - F
                    try:
                        if kernel and mag <= _FIXED_MAG:
                            wp = P + _FIXED_GUARD + max(mag, 0)
                            if wp not in consts:
                                consts[wp] = ln2_fixed(wp), pi_fixed(wp - 1)
                            r = kernel(ar, ai, F - wp, wp, *consts[wp])
                        else:
                            r = pair(fallback(value(ar, ai), value(br, bi)))
                    except (ArithmeticError, ValueError):
                        r = None
                    if r is None:
                        dead.add(k)
                        r = (0,) * width
                    rows.append(r)
                cols = [list(c) for c in zip(*rows)]
                if width == 2:
                    return g.held(cols[0], cols[1])
                return g.held(cols[0], cols[1]), g.held(cols[2], cols[3])
            return slot
        return make

    def pow_(n):
        # repeated squaring takes one step per bit of n: a power beyond 2**16
        # goes to the mpmath lowering, which overflows past 2**1024
        if n is None or abs(n) >> 16:
            return lanewise("pow")(n)
        return lambda a, _: _power(a, n)

    return {
        **mp,
        "fold": mp,
        "const": lambda v: None if type(v) is tuple else pair(v),
        "powint": lambda _: mul,        # u^(n-1) * u
        "pow": pow_,
        "exp": lanewise("exp", _exp_lane),
        "cos_sin": lanewise("cos_sin", _cos_sin_lane),
        "log": lanewise("log"),
        "sqrt": lanewise("sqrt"),
    }


# ---------------------------------------------------------------------------
# the pixel loop

_PHASE_BITS = 100       # bits of each phase before it is rounded to a double
_PHASE_SLACK = 16       # units of 2**-wp: quotient 1, pi 2, atan_taylor under 6 at wp 100-1100


def _phase(x, y, P):
    """``float(arg(x + i*y))`` as mpmath gives it at P bits, from the ints alone; None if unsure.

    The smaller part over the larger, q <= 1, goes through mpmath's
    ``atan_taylor`` at wp bits and is taken from or added to pi/2 or pi,
    giving a within _PHASE_SLACK units of theta * 2**wp, theta the phase; wp
    is _PHASE_BITS plus, where theta = atan(q), the bits q lies below 1.
    mpmath's ``arg`` (a quotient and an atan at P + 4 bits, then a rounding
    to P bits) is within 1.25 * 2**(1 - P) * |theta|, under (a >> P - 3) + 1
    units.  If all of a +- e, e both bounds, rounds to one double, it is
    mpmath's; else None, as for |theta| < 2**-1000, where doubles thin out.
    """
    if not y and x >= 0:
        return 0.0
    ax, ay = abs(x), abs(y)
    near = ay <= ax                 # the phase is within pi/4 of 0 or of +-pi
    small, big = (ay, ax) if near else (ax, ay)
    k = big.bit_length() - small.bit_length() if near and x > 0 else 0
    if k > 1000:
        return None
    wp = _PHASE_BITS + k
    a = atan_taylor((small << wp) // big, wp)
    if not near:
        a = pi_fixed(wp - 1) + (a if x < 0 else -a)
    elif x < 0:
        a = pi_fixed(wp) - a
    e = _PHASE_SLACK + (a >> P - 3) + 1
    lo = float(a - e)               # float() of an int rounds to nearest, ties to even
    if lo != float(a + e):
        return None
    return math.ldexp(lo if y >= 0 else -lo, -wp)


def _lane_iterator(spec: BasinSpec):
    """The spec's pixel iteration, ``iterate(re, im)``: one outcome per seed, re and im its parts.

    The seeds advance GROUP_LANES at a time, each lane taking the step that
    :func:`iciroot.kernel.next_step` picks, as the solver does: a Newton
    step, then blended steps (:func:`iciroot.kernel.ici_blend` on lanes),
    and the safeguard steps on the few lanes whose residuals meet or whose
    f' is dead, decided exactly at the solver's guard.  An outcome is (final
    ``_mpc_``, iterations, converged, NaN, phase), with None for the limit
    and the phase of a NaN pixel; a pixel that stops at ``max_iter``
    reports its last iterate, and one with no step left (``degenerate``) is
    a NaN pixel at the solver's iteration count.
    """
    ctx, F, max_iter = spec.precision.ctx, _scale_bits(spec), spec.max_iter
    g = _Scale(F)
    dead = g.dead
    jet = lower(compile_tape(spec.ftext), _lanes_lowering(ctx, g))
    _, man, exp, _ = read_tol(spec.tol, spec.precision)._mpf_
    tol2 = (man << exp + F) ** 2            # |y| <= tol decided exactly on the squares
    # the guard 10**(-digits+5): the predicates compare squared moduli with its
    # inverse square, exactly.  Both compare a quotient of the step (nc = yc/dc,
    # u = yp/(yp - yc)) with 1/guard, and one whose parts lie below `near`
    # is under half that in modulus, each part floored within a unit: so
    # only lanes with a part at `near` or more, or a lane the quotient
    # killed, need the exact test
    inv2 = 10 ** (2 * spec.precision.digits - 10)
    near = 10 ** (spec.precision.digits - 5) << F - 2

    def flat(ks, y, d):
        """The lanes ks of (y, d) with |d| <= guard * |y|: a dead f'."""
        return {k for k in ks if (d.re[k] ** 2 + d.im[k] ** 2) * inv2 <= y.re[k] ** 2 + y.im[k] ** 2}

    def meet(ks, yc, yp):
        """The lanes ks with |yc - yp| <= guard * max(|yc|, |yp|): residuals that meet."""
        return {k for k in ks if ((yc.re[k] - yp.re[k]) ** 2 + (yc.im[k] - yp.im[k]) ** 2) * inv2
                <= max(yc.re[k] ** 2 + yc.im[k] ** 2, yp.re[k] ** 2 + yp.im[k] ** 2)}

    def fixed(v):
        s, m, e, _ = v._mpf_
        return _shift(-m if s else m, e + F)

    def sample(z):
        """(f, f') at z as lanes; a failed output kills every lane, and each is held to the cap."""
        n = len(z.re)
        out = []
        for v in jet(z):
            if type(v) is tuple:
                v = _Lanes([v[0]] * n, [v[1]] * n, g)
            elif type(v) is not _Lanes:
                dead.update(range(n))
                v = _Lanes([0] * n, [0] * n, g)
            g.over_cap(v)
            out.append(v)
        return out

    def outcome(lanes, k, it, conv):
        r, i = lanes.re[k], lanes.im[k]
        z = from_man_exp(r, -F), from_man_exp(i, -F)
        ph = _phase(r, i, ctx.prec)
        return z, it, conv, False, float(ctx.arg(ctx.make_mpc(z))) if ph is None else ph

    def apart(zn, ks, step):
        """Put the lanes ks of ``step()``, a step over the whole group, on zn; only their kills stay."""
        kept = dead.union(ks)
        s = step()
        dead.intersection_update(kept)
        for k in ks:
            zn.re[k], zn.im[k] = s.re[k], s.im[k]

    def run(z):
        """The outcomes of one group, z its seeds."""
        out = [None] * len(z.re)
        idx = list(range(len(z.re)))        # each lane's seed
        spent = set()                       # seeds whose previous f' was dead

        def settle(it, lanes, conv=(), stuck=()):
            """End dead lanes (NaN) and those in conv (limits lanes[0]) at iteration it, and those
            in stuck (NaN) at it - 1; the rest's lanes."""
            for k in dead.union(conv):
                out[idx[k]] = (None, it, False, True, None) if k in dead else outcome(lanes[0], k, it, True)
            for k in stuck:
                out[idx[k]] = (None, it - 1, False, True, None)
            gone = dead.union(conv, stuck)
            keep = [k for k in range(len(idx)) if k not in gone]
            idx[:] = [idx[k] for k in keep]
            dead.clear()
            return [v.take(keep) for v in lanes]

        dead.clear()
        y, d = sample(z)                    # a seed that meets tol is its own limit
        zc, yc, dc = settle(0, (z, y, d), {k for k, c in enumerate(_within(y, tol2)) if c})
        zp = yp = np_ = None
        for it in range(1, max_iter + 1):
            if not idx:
                break
            nc = yc / dc                    # Newton update at the current point
            dc_dead = flat(dead.union(_outside(nc.re, nc.im, near)), yc, dc)
            dead.difference_update(dc_dead)
            lost = set(dead)                # nc past the hold bound: every step left reads it
            met = ()
            # the bulk takes the step of a lane where no predicate holds
            if next_step("ici", zp is None, False, False, False) == "newton":
                zn = zc - nc
            else:
                u = yp / (yp - yc)
                met = meet(dead.union(_outside(u.re, u.im, near)).difference(lost), yc, yp)
                zn = ici_blend(u, zp, np_, zc, nc)
            dp_dead = {k for k, j in enumerate(idx) if j in spent} if spent else set()
            kinds = {k: next_step("ici", zp is None, k in met, k in dc_dead, k in dp_dead)
                     for k in dc_dead.union(met, dp_dead).difference(lost)}
            dead.difference_update(kinds)
            ks = [k for k, s in kinds.items() if s == "safeguard_newton"]
            if ks:
                apart(zn, ks, lambda: zc - nc)
            ks = [k for k, s in kinds.items() if s == "secant"]
            if ks:                          # lanes compare by identity: secant_step's check passes
                apart(zn, ks, lambda: secant_step(PointSample(zp, yp, None), PointSample(zc, yc, None)))
            spent = {idx[k] for k in ks}
            stuck = [k for k, s in kinds.items() if s == "degenerate"]
            g.over_cap(zn)
            if dead or stuck:
                zn, zc, yc, nc = settle(it, (zn, zc, yc, nc), stuck=stuck)    # zp, yp, np_ are spent
                if not idx:
                    break
            y, d = sample(zn)
            conv = _within(y, tol2)
            if dead or True in conv:
                conv = {k for k, c in enumerate(conv) if c}
                zn, zc, yc, nc, y, d = settle(it, (zn, zc, yc, nc, y, d), conv)
            zp, yp, np_ = zc, yc, nc        # Np: the previous point's update
            zc, yc, dc = zn, y, d
        for k, j in enumerate(idx):
            out[j] = outcome(zc, k, max_iter, False)
        return out

    def iterate(re, im):
        re, im = list(map(fixed, re)), list(map(fixed, im))
        out = []
        for s in range(0, len(re), GROUP_LANES):
            out += run(_Lanes(re[s:s + GROUP_LANES], im[s:s + GROUP_LANES], g))
        return out
    return iterate


def _rows_renderer(spec: BasinSpec):
    """``render_rows(rows)``: those rows of the spec's grid, each a list of outcome tuples."""
    iterate = _lane_iterator(spec)
    res, ims = spec.grid()
    w = spec.width

    def render_rows(rows):
        out = iterate(res * len(rows), [im for j in rows for im in [ims[j]] * w])
        return [out[k:k + w] for k in range(0, len(out), w)]
    return render_rows


def _render_share(spec: BasinSpec, rows):
    """A pool process's task: those rows of the spec's grid (spawn pickles it by name)."""
    return _rows_renderer(spec)(rows)


def render(spec: BasinSpec) -> BasinRaster:
    """Iterate from every pixel center and assemble the outcome raster.

    The result is a pure function of the spec: identical specs give
    bit-identical rasters, whatever ``spec.workers`` is.  With n = min(workers,
    height) >= 2 the rows go out in n interleaved shares (rows j with
    j = k mod n), so each share is wide and the shares cost alike: this
    process renders share 0 while n - 1 pool processes render the rest.
    """
    render_rows = _rows_renderer(spec)  # here, so a bad expression raises before any pool starts
    n = min(spec.workers, spec.height)
    if n == 1:
        rows = render_rows(range(spec.height))
    else:
        # imported here: the pool stack costs a cold start that serial renders skip
        from concurrent.futures import ProcessPoolExecutor
        shares = [range(k, spec.height, n) for k in range(n)]
        # fork starts every worker up front.  The pool's threads hand the shares
        # out, each step once it holds the GIL, which this process keeps while
        # it renders (a worker started 10-35 ms late on a 2-CPU host), so it
        # sleeps until the shares are out
        with ProcessPoolExecutor(max_workers=n - 1) as pool:
            rest = [pool.submit(_render_share, spec, rows) for rows in shares[1:]]
            while not all(f.running() or f.done() for f in rest):
                time.sleep(5e-4)
            time.sleep(5e-4)            # a running share is queued; its feeder thread sends it
            done = [render_rows(shares[0]), *(f.result() for f in rest)]
        rows = [done[j % n][j // n] for j in range(spec.height)]
    ctx = spec.precision.ctx
    final, iters, conv, nan_mask, phase = [], [], [], [], []
    for row in rows:
        final.append([None if t[0] is None else ctx.make_mpc(t[0]) for t in row])
        iters.append([t[1] for t in row])
        conv.append([t[2] for t in row])
        nan_mask.append([t[3] for t in row])
        phase.append([t[4] for t in row])
    return BasinRaster(spec.width, spec.height, final, iters, conv, nan_mask, phase, spec)


def write_image(raster: BasinRaster, path_or_file):
    """Write a binary PPM (P6, maxval 255) to a path or an open binary file.

    Hue from phase, NaN pixels white: hue = (phase + pi) / (2*pi) through an
    HSV->RGB map with S = V = 1; row 0 of the file is the top of the
    imaginary range.
    """
    two_pi = 2 * math.pi
    with opened(path_or_file, "wb") as fh:
        fh.write(f"P6\n{raster.width} {raster.height}\n255\n".encode("ascii"))
        buf = bytearray()
        for j in range(raster.height):
            for i in range(raster.width):
                if raster.nan_mask[j][i]:
                    buf.extend((255, 255, 255))
                else:
                    hue = (raster.phase[j][i] + math.pi) / two_pi
                    r, g, b = colorsys.hsv_to_rgb(min(max(hue, 0.0), 1.0), 1.0, 1.0)
                    buf.extend((round(r * 255), round(g * 255), round(b * 255)))
        fh.write(bytes(buf))


def line_scan(spec: BasinSpec, segment, samples: int):
    """Iterate from points along a segment; assign each limit to a root index.

    Successive distinct limits (within 1000 * tol of each other) share an
    index, in order of first appearance.  A sample with no limit, a NaN
    pixel or one that stops at ``max_iter``, gets -1.  The number of index
    changes along the scan witnesses basin disconnection on the line.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    p = spec.precision
    ctx = p.ctx
    z_start, z_end = p.scalar(segment[0]), p.scalar(segment[1])
    ts = [ctx.mpf(k) / (samples - 1) if samples > 1 else ctx.mpf(0) for k in range(samples)]
    zs = [z_start + t * (z_end - z_start) for t in ts]
    outcomes = _lane_iterator(spec)([z.real for z in zs], [z.imag for z in zs])
    radius = parse_real(spec.tol, p) * 1000
    reps = []
    assignments = []
    for final, _, converged, _, _ in outcomes:
        if not converged:
            assignments.append(-1)
            continue
        z = ctx.make_mpc(final)
        for idx, rep in enumerate(reps):
            if abs(z - rep) <= radius:
                assignments.append(idx)
                break
        else:
            reps.append(z)
            assignments.append(len(reps) - 1)
    return assignments
