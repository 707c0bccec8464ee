"""Basin-of-attraction rendering over a complex-plane pixel grid.

Every pixel center seeds one iteration (Newton first, then the blended
two-point step).  A pixel records either the converged limit, the final
iterate after ``max_iter`` steps, or a NaN flag when the iteration hit a
degeneracy (equal residuals, zero derivative, division by zero) or escaped
the overflow cap.  Arbitrary-precision arithmetic never overflows on its
own, so the cap — a decimal exponent, IEEE-double-like 308 by default —
is what makes "iteration blew up" an observable pixel state.  The step
arithmetic, and f and f' from the expression's tape, run on fixed-precision
complex numbers at the spec's binary precision; an op with no fixed-precision
form falls back to mpmath for its own value only.

Pixels are independent; rows may be partitioned across worker processes.
Per-pixel results are transported as raw mantissa/exponent tuples, so the
assembled raster is bit-identical regardless of the worker count.  Renders
and scans own their pixel iterators and read no module state, so threads
may run them at once; only a pool process keeps its row renderer global.
"""

from __future__ import annotations

import colorsys
import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from mpmath.libmp import from_man_exp
from mpmath.libmp.libelefun import cos_sin_fixed, exp_basecase, ln2_fixed

from .expr import compile_tape, lower, mp_lowering
from .mpscalar import LOG2_10, Precision, opened

DEFAULT_BASIN_DIGITS = 34


@dataclass
class BasinSpec:
    """Grid, iteration budget and precision for one basin render."""

    ftext: str
    re_range: tuple = (-2.0, 2.0)
    im_range: tuple = (-2.0, 2.0)
    width: int = 200
    height: int = 200
    max_iter: int = 13
    tol: object = "1e-8"
    precision: Precision = field(default_factory=lambda: Precision(DEFAULT_BASIN_DIGITS))
    overflow_exp: int = 308
    workers: int = 1

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (float(self.re_range[0]) < float(self.re_range[1])
                and float(self.im_range[0]) < float(self.im_range[1])):
            raise ValueError("re_range and im_range must be non-degenerate intervals")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def grid(self):
        """Pixel centers as (re of each column, im of each row).

        Row j = 0 sits at the top of im_range.  Range endpoints go through
        their decimal string form, so a spec carrying floats, strings or mpf
        values gives the same grid.
        """
        p = self.precision
        half = p.ctx.mpf("0.5")
        re0, re1 = (p.real(str(v)) for v in self.re_range)
        im0, im1 = (p.real(str(v)) for v in self.im_range)
        dre = (re1 - re0) / self.width
        dim = (im1 - im0) / self.height
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
        res, ims = self.spec.grid()
        with opened(path_or_file, "w") as fh:
            w = csv.writer(fh)
            w.writerow(["i", "j", "re_z0", "im_z0", "converged", "iterations", "phase"])
            for j, im in enumerate(ims):
                for i, re in enumerate(res):
                    ph = self.phase[j][i]
                    w.writerow([i, j, repr(float(re)), repr(float(im)),
                                int(self.converged[j][i]), self.iterations[j][i],
                                "" if ph is None else repr(ph)])


# ---------------------------------------------------------------------------
# fixed-precision complex arithmetic for the pixel loop
#
# A pixel iterate is a triple (re, im, e) of Python ints standing for
# (re + i*im) * 2**e, with the larger of |re|, |im| holding exactly P bits
# (P = the spec's binary working precision); zero is (0, 0, 0).  One shared
# exponent turns each complex operation into a few integer multiplications
# and shifts, several times cheaper than going through mpmath's per-component
# rounding, at a normwise error of about 2**-P per operation.  f and f' come
# from the expression's tape lowered onto triples (below); every value the
# step sees is finite, so the NaN and overflow checks reduce to reading the
# exponent.

_CZERO = (0, 0, 0)


def _cnorm(re, im, e, P):
    n = (abs(re) | abs(im)).bit_length()
    if n == 0:
        return _CZERO
    s = n - P
    if s > 0:
        return re >> s, im >> s, e + s
    return re << -s, im << -s, e + s


def _cadd(a, b, P):
    ar, ai, ae = a
    br, bi, be = b
    if not (ar or ai):
        return b
    if not (br or bi):
        return a
    d = ae - be
    if d > P + 1:       # b lies below the last kept bit of a
        return a
    if d < -P - 1:
        return b
    if d >= 0:
        return _cnorm((ar << d) + br, (ai << d) + bi, be, P)
    return _cnorm(ar + (br << -d), ai + (bi << -d), ae, P)


def _csub(a, b, P):
    return _cadd(a, (-b[0], -b[1], b[2]), P)


def _cmul(a, b, P):
    ar, ai, ae = a
    br, bi, be = b
    return _cnorm(ar * br - ai * bi, ar * bi + ai * br, ae + be, P)


def _cdiv(a, b, P):
    """a / b = a * conj(b) / |b|^2 for normalized a and nonzero normalized b."""
    ar, ai, ae = a
    br, bi, be = b
    den = br * br + bi * bi
    k = P + 2
    return _cnorm(((ar * br + ai * bi) << k) // den,
                  ((ai * br - ar * bi) << k) // den, ae - be - k, P)


def _cmag(a):
    """Bound m with |a| <= 2**m, the way ``ctx.mag`` bounds an mpc."""
    ar, ai, ae = a
    if not (ar or ai):
        return -math.inf
    return ae + (abs(ar) | abs(ai)).bit_length() + (1 if ar and ai else 0)


def _from_mp(v, P):
    """mpf or mpc -> fixed-precision triple; None for an infinity or NaN."""
    if hasattr(v, "_mpc_"):
        re_t, im_t = v._mpc_
    else:
        re_t, im_t = v._mpf_, (0, 0, 0, 0)
    rs, rm, rx, rb = re_t
    is_, im_, ix, ib = im_t
    if (not rm and (rx or rb)) or (not im_ and (ix or ib)):
        return None     # special values carry a zero mantissa and a tag
    if rs:
        rm = -rm
    if is_:
        im_ = -im_
    if not im_:
        return _cnorm(rm, 0, rx, P)
    if not rm:
        return _cnorm(0, im_, ix, P)
    return _cadd(_cnorm(rm, 0, rx, P), _cnorm(0, im_, ix, P), P)


def _to_mpc(ctx, a):
    ar, ai, ae = a
    return ctx.make_mpc((from_man_exp(ar, ae), from_man_exp(ai, ae)))


def _abs_le(a, tol_man, tol_exp):
    """|a| <= tol_man * 2**tol_exp, decided exactly on the squares."""
    ar, ai, ae = a
    lhs = ar * ar + ai * ai
    rhs = tol_man * tol_man
    sh = 2 * (tol_exp - ae)
    if sh >= 0:
        return lhs <= rhs << sh
    return lhs << -sh <= rhs


def _cpow(a, n, P):
    """a**n for an integer n, by repeated squaring (then 1/a**-n for n < 0)."""
    if n < 0:
        return _cdiv(_cnorm(1, 0, 0, P), _cpow(a, -n, P), P)
    r = None
    while n:
        if n & 1:
            r = a if r is None else _cmul(r, a, P)
        n >>= 1
        if n:
            a = _cmul(a, a, P)
    return _cnorm(1, 0, 0, P) if r is None else r


# exp and cos_sin run in fixed point, on mpmath's fixed-point kernels, while
# the argument's real and imaginary parts lie below 2**_FIXED_MAG in
# magnitude; beyond that (where exp and cosh of 1024 are already past the
# default overflow cap) the slot goes to mpmath.  The argument is reduced
# with _FIXED_GUARD guard bits plus one per bit of its integer part, which
# the reduction by ln 2 or pi/2 consumes.
_FIXED_MAG = 10
_FIXED_GUARD = 16


def _fixed(m, e, wp):
    """m * 2**e as an integer scaled by 2**wp (rounded down)."""
    s = e + wp
    return m << s if s >= 0 else m >> -s


def _fixed_prec(a, P):
    """Working precision for exp/cos_sin of the triple a, or None past _FIXED_MAG."""
    ar, ai, ae = a
    mag = ae + (abs(ar) | abs(ai)).bit_length()
    if mag > _FIXED_MAG:
        return None
    return P + _FIXED_GUARD + max(mag, 0)


def _exp_fixed(x, wp):
    """(v, n) with e**(x / 2**wp) = v * 2**(n - wp).

    mpmath's ``exp_fixed`` returns v shifted by n into fixed point, which
    drops the low bits of a small result; a triple keeps n in its exponent.
    """
    n, t = divmod(x, ln2_fixed(wp))
    return exp_basecase(t, wp), n


def _cexp(a, P):
    """exp(re + i*im) = e**re (cos im + i sin im); None past _FIXED_MAG."""
    wp = _fixed_prec(a, P)
    if wp is None:
        return None
    ar, ai, ae = a
    v, n = _exp_fixed(_fixed(ar, ae, wp), wp)
    if not ai:
        return _cnorm(v, 0, n - wp, P)
    c, s = cos_sin_fixed(_fixed(ai, ae, wp), wp)
    return _cnorm(v * c, v * s, n - 2 * wp, P)


def _ccos_sin(a, P):
    """(cos a, sin a); None past _FIXED_MAG.

    With a = x + iy: cos a = cos x cosh y - i sin x sinh y and
    sin a = sin x cosh y + i cos x sinh y.
    """
    wp = _fixed_prec(a, P)
    if wp is None:
        return None
    ar, ai, ae = a
    c, s = cos_sin_fixed(_fixed(ar, ae, wp), wp)
    if not ai:
        return _cnorm(c, 0, -wp, P), _cnorm(s, 0, -wp, P)
    # e**y = v * 2**(n - wp) and e**-y = w * 2**(-n - wp), brought to one
    # exponent h: cosh y = (v + w) * 2**h and sinh y = (v - w) * 2**h
    v, n = _exp_fixed(_fixed(ai, ae, wp), wp)
    w = (1 << 2 * wp) // v
    if n >= 0:
        v <<= 2 * n
        h = -n - wp - 1
    else:
        w <<= -2 * n
        h = n - wp - 1
    ch, sh = v + w, v - w
    return _cnorm(c * ch, -s * sh, h - wp, P), _cnorm(s * ch, c * sh, h - wp, P)


def _triple_lowering(ctx, P):
    """The lowering of an expression tape onto triples at precision P (complex mode).

    A slot holds a triple while its value is finite, else mpmath's value (an
    infinity or NaN).  add, sub, mul, div, neg, powint and ``pow`` by a
    folded integer below 2**16 in magnitude run on triples, exp and
    cos_sin in fixed point.
    Any other op (``pow``, ``log``, ``sqrt``), an exp/cos_sin argument past
    _FIXED_MAG, or an operand that is not a triple falls back to the mpmath
    lowering for that slot only; a finite result turns back into a triple.
    A zero divisor raises ZeroDivisionError, as in mpmath, so a tape's NaN
    cones fall where they fall for mpmath values.
    """
    mp = mp_lowering(ctx, complex_mode=True)

    def canon(v):
        """An mpmath value (or a cos_sin pair of them) in slot form."""
        if type(v) is tuple:
            return canon(v[0]), canon(v[1])
        t = _from_mp(v, P)
        return v if t is None else t

    def via_mp(op, arg):
        fn = mp[op](arg)

        def slot(a, b):
            if type(a) is tuple:
                a = _to_mpc(ctx, a)
            if type(b) is tuple:
                b = _to_mpc(ctx, b)
            return canon(fn(a, b))
        return slot

    def binary(op, kernel):
        def make(arg):
            fallback = via_mp(op, arg)

            def fn(a, b):
                if type(a) is tuple and type(b) is tuple:
                    return kernel(a, b, P)
                return fallback(a, b)
            return fn
        return make

    def unary(op, kernel):
        """kernel(a, arg) on a triple; None from it means mpmath."""
        def make(arg):
            fallback = via_mp(op, arg)

            def fn(a, b):
                if type(a) is tuple:
                    r = kernel(a, arg)
                    if r is not None:
                        return r
                return fallback(a, b)
            return fn
        return make

    def pow_(n):
        # repeated squaring takes one step per bit of n: a power beyond
        # 2**16 goes to the mpmath lowering
        if n is None or abs(n) >> 16:
            return via_mp("pow", n)
        return unary("pow", lambda a, _: _cpow(a, n, P))(n)

    return {
        "const": canon,
        "add": binary("add", _cadd),
        "sub": binary("sub", _csub),
        "mul": binary("mul", _cmul),
        "div": binary("div", _cdiv),
        "powint": binary("powint", _cmul),      # u^(n-1) * u
        "neg": unary("neg", lambda a, _: (-a[0], -a[1], a[2])),
        "pow": pow_,
        "exp": unary("exp", lambda a, _: _cexp(a, P)),
        "cos_sin": unary("cos_sin", lambda a, _: _ccos_sin(a, P)),
        "log": lambda arg: via_mp("log", arg),
        "sqrt": lambda arg: via_mp("sqrt", arg),
        "pick": mp["pick"],
    }


# ---------------------------------------------------------------------------
# the pixel loop


def _pixel_iterator(spec: BasinSpec):
    """The spec's pixel iteration, ``iterate(z0) -> (z, iters, converged, nan)``.

    Newton seed step then blended steps.  z0 is a triple, or None for a seed
    that is not finite.  Degeneracies and overflow produce
    (None, iters, False, True) instead of raising; their pixels render as
    NaN.  The blended step is the one of :func:`iciroot.kernel.ici_step`,
    written with the weights u = y_prev/dy and v = y_cur/dy,
    dy = y_prev - y_cur.
    """
    p = spec.precision
    ctx = p.ctx
    P = ctx.prec
    jet = lower(compile_tape(spec.ftext, p, complex_mode=True), _triple_lowering(ctx, P))
    _, tol_man, tol_exp, _ = p.real(str(spec.tol))._mpf_     # as text, like the workers
    cap = int(spec.overflow_exp * LOG2_10) + 1
    max_iter = spec.max_iter
    one = _cnorm(1, 0, 0, P)

    def sample(z):
        """(f(z), f'(z)) as triples, or None on a NaN, an infinity or an overflow."""
        y, d = jet(z)
        if type(y) is not tuple or _cmag(y) > cap or type(d) is not tuple or _cmag(d) > cap:
            return None
        return y, d

    def iterate(z0):
        s = None if z0 is None else sample(z0)
        if s is None:
            return None, 0, False, True
        zc, (yc, dc) = z0, s
        zp = yp = np_ = None
        for it in range(1, max_iter + 1):
            if not (dc[0] or dc[1]):
                return None, it, False, True
            nc = _cdiv(yc, dc, P)               # Newton update at the current point
            if zp is None:
                zn = _csub(zc, nc, P)
            else:
                dy = _csub(yp, yc, P)
                if not (dy[0] or dy[1]):
                    return None, it, False, True
                t = _cdiv(one, dy, P)
                u = _cmul(yp, t, P)
                v = _cmul(yc, t, P)
                # v^2 (zp - Np) + u^2 (zc - Nc) - 2uv (zc + v (zc - zp))
                uv2 = _cmul(u, v, P)
                uv2 = (uv2[0], uv2[1], uv2[2] + 1)
                secant = _cadd(zc, _cmul(v, _csub(zc, zp, P), P), P)
                zn = _csub(_cadd(_cmul(_cmul(v, v, P), _csub(zp, np_, P), P),
                                 _cmul(_cmul(u, u, P), _csub(zc, nc, P), P), P),
                           _cmul(uv2, secant, P), P)
            if _cmag(zn) > cap:
                return None, it, False, True
            s = sample(zn)
            if s is None:
                return None, it, False, True
            zp, yp, np_ = zc, yc, nc            # Np: the previous point's update
            zc, (yc, dc) = zn, s
            if _abs_le(yc, tol_man, tol_exp):
                return _to_mpc(ctx, zc), it, True, False
        return _to_mpc(ctx, zc), max_iter, False, False
    return iterate


def _row_renderer(spec: BasinSpec):
    """``render_row(j)``: row j of the spec's grid as a list of transport tuples.

    A pixel's tuple is (final ``_mpc_``, iterations, converged, NaN, phase),
    with None for the limit and the phase of a NaN pixel.
    """
    iterate = _pixel_iterator(spec)
    ctx = spec.precision.ctx
    P = ctx.prec
    re, im = spec.grid()
    res = [_from_mp(v, P) for v in re]                       # real triples
    ims = [(0, t[0], t[2]) for t in (_from_mp(v, P) for v in im)]

    def render_row(j):
        im = ims[j]
        row = []
        for re in res:
            z, iters, conv, nan = iterate(_cadd(re, im, P))
            if nan:
                row.append((None, iters, False, True, None))
            else:
                row.append((z._mpc_, iters, conv, False, float(ctx.arg(z))))
        return row
    return render_row


# A pool process's row renderer.  Spawn pickles the initializer and the row
# function by name, so both live at module level and reach the renderer here.
_worker_render_row = None


def _init_worker(spec: BasinSpec):
    global _worker_render_row
    _worker_render_row = _row_renderer(spec)


def _render_row_in_worker(j):
    return _worker_render_row(j)


def render(spec: BasinSpec) -> BasinRaster:
    """Iterate from every pixel center and assemble the outcome raster.

    The result is a pure function of the spec: identical specs give
    bit-identical rasters, whatever ``spec.workers`` is.
    """
    # an mpf is bound to its context and does not pickle, and the spawn and
    # forkserver start methods pickle initargs: send tol and ranges as text
    portable = replace(spec, tol=str(spec.tol),
                       re_range=tuple(str(v) for v in spec.re_range),
                       im_range=tuple(str(v) for v in spec.im_range))
    render_row = _row_renderer(portable)    # here, so bad text raises before any pool starts
    if spec.workers == 1 or spec.height == 1:
        rows = list(map(render_row, range(spec.height)))
    else:
        with ProcessPoolExecutor(max_workers=spec.workers,
                                 initializer=_init_worker,
                                 initargs=(portable,)) as pool:
            chunk = max(1, spec.height // (spec.workers * 4))
            rows = list(pool.map(_render_row_in_worker, range(spec.height), chunksize=chunk))
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
    index, in order of first appearance; NaN outcomes get -1.  The number of
    index changes along the scan witnesses basin disconnection on the line.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    iterate = _pixel_iterator(spec)
    p = spec.precision
    ctx = p.ctx
    z_start, z_end = p.scalar(segment[0]), p.scalar(segment[1])
    radius = p.real(str(spec.tol)) * 1000
    reps = []
    assignments = []
    for k in range(samples):
        t = ctx.mpf(k) / (samples - 1) if samples > 1 else ctx.mpf(0)
        z0 = z_start + t * (z_end - z_start)
        z, _, _, nan = iterate(_from_mp(z0, ctx.prec))
        if nan:
            assignments.append(-1)
            continue
        for idx, rep in enumerate(reps):
            if abs(z - rep) <= radius:
                assignments.append(idx)
                break
        else:
            reps.append(z)
            assignments.append(len(reps) - 1)
    return assignments
