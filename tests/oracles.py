"""Independent reference computations for the tests.

These run on raw mpmath contexts, deliberately bypassing the package's own
arithmetic helpers, so they stay independent of the code paths they check.
"""

import math
from functools import lru_cache
from itertools import repeat
from operator import rshift

from mpmath.ctx_mp import MPContext

from iciroot.expr import (_MAX_ARG_MAG, _MAX_EXP_MAG, Bin, Call, Const, Neg, Num,
                          UnknownIdentifierError, Var, free_variables)
from iciroot.kernel import EqualResidualsError, ZeroDerivativeError
from iciroot.mpscalar import _LN_STEPS


def make_ctx(digits):
    ctx = MPContext()
    ctx.prec = math.ceil(digits * math.log2(10)) + 32
    return ctx


def bisect_root(f, lo, hi, digits, steps=None):
    """Plain sign-change bisection; f(lo) and f(hi) must have opposite signs."""
    ctx = make_ctx(digits + 10)
    lo, hi = ctx.mpf(lo), ctx.mpf(hi)
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0, "bisection bracket does not change sign"
    if steps is None:
        steps = int((digits + 10) * math.log2(10)) + int(ctx.log(hi - lo, 2)) + 4
    for _ in range(steps):
        mid = (lo + hi) / 2
        fmid = f(mid)
        if fmid == 0:
            return mid
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return (lo + hi) / 2


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


def digits_of_accuracy(x, ref):
    """-log10 |x - ref| as a float; inf when the difference is exactly zero."""
    ctx = make_ctx(50)
    err = abs(ctx.mpf(str(x)) - ctx.mpf(str(ref)))
    if err == 0:
        return float("inf")
    return float(-ctx.log(err, 10))


def wilkinson_text(n=20):
    """Wilkinson's polynomial prod_{k=1}^{n} (x - k), written out with its integer coefficients.

    Highest degree first, as ``x^20 - 210*x^19 + ... + 2432902008176640000``
    for n = 20.  The expanded form rounds every term, so near a root |f|
    stops falling at a floor far above the working precision's unit.
    """
    coeffs = [1]                    # coefficient of x^k at index k
    for r in range(1, n + 1):
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    terms = []
    for k in range(n, -1, -1):
        c = abs(coeffs[k])
        power = "x" if k == 1 else f"x^{k}"
        body = str(c) if k == 0 else power if c == 1 else f"{c}*{power}"
        terms.append(("- " if coeffs[k] < 0 else "+ ") + body)
    return " ".join(terms)[2:]


def double_root_contraction_rate(digits):
    """Per-step error factor r of the blended step at a double root.

    Take f(x) = x^2 (any double root maps to this one by an affine change of
    x, which the step respects).  Scaling x by c scales f by c^2 and f' by c,
    so the step taken from the samples at x0 and x1 = t*x0 is x0*step(1, t).
    A steady error factor t therefore satisfies the fixed-point equation

        t^2 = step(1, t),

    where step(1, t) is the inverse cubic Hermite interpolant of x = sqrt(y)
    through (y, x, dx/dy) = (1, 1, 1/2) and (t^2, t, 1/(2t)), evaluated at
    y = 0.  Written as the weighted average of two Newton steps (1/2 and t/2)
    and a secant step (t/(1+t)) with weights t^4, 1 and -2t^2 over
    (1 - t^2)^2, the same step reads

        step(1, t) = (t^4/2 + t/2 - 2t^3/(1+t)) / (1 - t^2)^2.

    The equation has t = 0 as a trivial root and one root r in (0, 1): near
    0 the step is about t/2 > t^2, and at t = 1/2 (Newton's rate on a double
    root) it falls below t^2.  r is found from the inverse-Hermite form and
    checked against the Newton/Newton/secant form to within 1e-30.
    """
    ctx = make_ctx(digits)
    lo, hi = ctx.mpf(1) / 100, ctx.mpf(99) / 100

    def hermite_step(t):
        # cubic Hermite basis in the normalized height s = (y - 1)/(t^2 - 1),
        # through x = 1, dx/dy = 1/2 at s = 0 and x = t, dx/dy = 1/(2t) at s = 1
        x0, m0, x1, m1 = 1, ctx.mpf(1) / 2, t, 1 / (2 * t)
        dy = t * t - 1
        s = -1 / dy
        oms = 1 - s
        return ((1 + 2 * s) * oms * oms * x0 + s * oms * oms * dy * m0
                + s * s * (3 - 2 * s) * x1 + s * s * (s - 1) * dy * m1)

    def blended_step(t):
        return (t ** 4 / 2 + t / 2 - 2 * t ** 3 / (1 + t)) / (1 - t * t) ** 2

    r = ctx.findroot(lambda t: hermite_step(t) - t * t, (lo, hi), solver="anderson")
    r_blend = ctx.findroot(lambda t: blended_step(t) - t * t, (lo, hi), solver="anderson")
    assert lo < r < hi
    assert abs(r - r_blend) <= ctx.mpf("1e-30"), "step forms disagree on the rate"
    return r


# ---------------------------------------------------------------------------
# the paper's derivation of the blended step, as cubic Hermite interpolants
#
# The package ships only the stable Newton/Newton/secant average
# (kernel.ici_step); these are the forms it was derived from, and the same
# average grouped another way, written out term by term.  They take the
# kernel's PointSample and raise its public errors, but call none of its
# step code.

class DegenerateIntervalError(ValueError):
    """Two-point operation received samples with equal abscissae."""


def hermite_forward_eval(pa, pb, theta):
    """Cubic Hermite interpolant of f through two derivative-tagged samples.

    theta is the normalized abscissa (x - pa.x) / (pb.x - pa.x); the result
    interpolates pa.y, pb.y with slopes pa.yp, pb.yp at theta = 0, 1.
    """
    if pa.x == pb.x:
        raise DegenerateIntervalError("samples share the same abscissa")
    h = pb.x - pa.x
    omt = theta - 1
    return ((1 + 2 * theta) * omt * omt * pa.y
            + theta * omt * omt * h * pa.yp
            + theta * theta * (3 - 2 * theta) * pb.y
            + theta * theta * omt * h * pb.yp)


def _check_inverse(pa, pb):
    if pa.y == pb.y:
        raise EqualResidualsError("equal residuals: inverse interpolant undefined")
    if pa.yp == 0 or pb.yp == 0:
        raise ZeroDerivativeError("zero derivative: inverse slope undefined")


def hermite_inverse_eval(pa, pb, s):
    """Cubic interpolant of the inverse function x(y), evaluated at s.

    s is the normalized height (y - pa.y) / (pb.y - pa.y); the inverse data
    are the abscissae with slopes 1/pa.yp, 1/pb.yp at s = 0, 1.
    """
    _check_inverse(pa, pb)
    delta = pb.y - pa.y
    oms = 1 - s
    return (((1 + 2 * s) * pa.x + s * delta / pa.yp) * oms * oms
            + ((3 - 2 * s) * pb.x - oms * delta / pb.yp) * s * s)


def ici_step_blind(p_prev, p_cur):
    """The inverse cubic interpolant at height zero: the paper's step before regrouping.

    Mathematically equal to ``kernel.ici_step``, but without its
    small-update grouping.
    """
    _check_inverse(p_prev, p_cur)
    return hermite_inverse_eval(p_prev, p_cur, p_prev.y / (p_prev.y - p_cur.y))


def ici_step_averaged(p_prev, p_cur):
    """Blended step computed as (average of base points) + (average of updates).

    Same weights as ``kernel.ici_step``; the three sub-step base points
    (x_prev, x_cur, x_cur) and the three small updates are averaged
    separately before combining.  Mathematically equal to ``kernel.ici_step``.
    """
    _check_inverse(p_prev, p_cur)
    # u - v = 1, so v*v + u*u - 2*u*v = 1 exactly in exact arithmetic
    t = 1 / (p_prev.y - p_cur.y)
    u = p_prev.y * t
    v = p_cur.y * t
    w_prev, w_cur, w_sec = v * v, u * u, -2 * u * v
    base = w_prev * p_prev.x + w_cur * p_cur.x + w_sec * p_cur.x
    update = (w_prev * (-p_prev.y / p_prev.yp)
              + w_cur * (-p_cur.y / p_cur.yp)
              + w_sec * (-p_cur.y * (p_cur.x - p_prev.x) / (p_cur.y - p_prev.y)))
    return base + update


# ---------------------------------------------------------------------------
# expression trees, walked node by node

def render(e) -> str:
    """A tree as canonical, fully parenthesized text, which :func:`iciroot.expr.parse` reads back."""
    if isinstance(e, Num):
        return e.text
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{render(e.child)})"
    if isinstance(e, Bin):
        return f"({render(e.left)} {e.op} {render(e.right)})"
    if isinstance(e, Call):
        return f"{e.fn}({render(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def _literal(ctx, text):
    return ctx.mpf("0" + text if text.startswith(".") else text)


def reference_fn(e, var, ctx, complex_mode=False):
    """Compile a tree into a closure ``x -> value`` that walks it node by node in ``ctx``.

    The reference for every lowering of the package's tape: nothing is
    folded or shared.  Literals are read at ctx's precision.  In real mode a
    domain violation (sqrt/log/power of a negative argument) gives NaN; in
    complex mode the principal branches are used.  A division by zero
    anywhere makes the whole result NaN, and so does an exp, sin or cos of
    a finite argument past 2**_MAX_ARG_MAG in magnitude, or a power whose
    finite exponent has a part of magnitude 2**_MAX_EXP_MAG or more (an
    overflow).
    """
    nan = ctx.mpf("nan")
    nan_result = ctx.mpc(nan, nan) if complex_mode else nan

    def real_only(r):
        return r if complex_mode or hasattr(r, "_mpf_") else nan

    def bounded(u):
        if ctx.isfinite(u) and ctx.mag(u) > _MAX_ARG_MAG:
            raise OverflowError("argument too large")
        return u

    def bounded_exponent(b):
        if ctx.isfinite(b) and max(abs(ctx.re(b)), abs(ctx.im(b))) >= 2 ** _MAX_EXP_MAG:
            raise OverflowError("exponent too large")
        return b

    def build(node):
        if isinstance(node, Num):
            c = _literal(ctx, node.text)
            return lambda x: c
        if isinstance(node, Const):
            c = +ctx.pi
            return lambda x: c
        if isinstance(node, Var):
            if node.name != var:
                raise UnknownIdentifierError(f"unbound identifier {node.name!r}")
            return lambda x: x
        if isinstance(node, Neg):
            f = build(node.child)
            return lambda x: -f(x)
        if isinstance(node, Bin):
            lf, rf = build(node.left), build(node.right)
            op = node.op
            if op == "+":
                return lambda x: lf(x) + rf(x)
            if op == "-":
                return lambda x: lf(x) - rf(x)
            if op == "*":
                return lambda x: lf(x) * rf(x)
            if op == "/":
                return lambda x: lf(x) / rf(x)
            return lambda x: real_only(lf(x) ** bounded_exponent(rf(x)))
        if isinstance(node, Call):
            f = build(node.arg)
            fn = getattr(ctx, node.fn)
            if node.fn in ("exp", "sin", "cos"):
                return lambda x: fn(bounded(f(x)))
            return lambda x: real_only(fn(f(x)))
        raise TypeError(f"not an expression node: {node!r}")

    body = build(e)

    def evaluate_at(x):
        try:
            return body(x)
        except (ZeroDivisionError, OverflowError):
            return nan_result
    return evaluate_at


class _NotFirstOrder(Exception):
    pass


def rounding_error_scale(e, var, ctx, x, unit, floor=0):
    """First-order scale m of the rounding error of the tree ``e`` at the complex point ``x``.

    An evaluation at precision P (``unit`` = 2**-P) that rounds each node's
    value with a relative error of a few units, reads ``x`` exactly, and
    computes integer powers by repeated multiplication is off by at most a
    small multiple of 2**-P * m.  ``ctx`` (of much higher precision than P)
    walks the tree; each node adds its own |value| and carries its
    operands' m through its partial derivatives.  With a ``floor``, each
    node's own term (the last of each rule below; the |val| or cosh times 1
    for u ^ v, exp, sin and cos) is at least ``floor``: the scale of an
    evaluation whose error per node is absolute where |value| < floor, as
    fixed point at scale 2**-F is with floor = 2**(P - F).  The rules:

        literal, pi        |c|
        variable           0
        -u                 m_u
        u + v, u - v       m_u + m_v + |val|
        u * v              m_u |v| + |u| m_v + |val|
        u / v              (m_u + |val| m_v) / |v| + |val|
        u ^ n, integer n   |n| |u^(n-1)| m_u + 2 |n| |val|
        u ^ v              |val| (|v| m_u / |u| + |log u| m_v + 1)
        exp(u)             |val| (m_u + 1)
        sin(u), cos(u)     cosh(Im u) (m_u + 1)
        sqrt(u)            m_u / (2 |val|) + |val|
        log(u)             m_u / |u| + |val|

    The rules are first order: they hold while no operand can be off by
    more than about 2**-32 of itself (of 1, for an exp/sin/cos argument,
    whose error is absolute).  Returns None beyond that, where the value is
    not finite, or where a division by zero occurs: no bound then.
    """
    small = ctx.mpf(2) ** -32

    def own(val):
        return max(abs(val), floor)

    def first_order(m, size=1):
        if unit * m > small * size:
            raise _NotFirstOrder

    def walk(node):
        if isinstance(node, Num):
            c = ctx.mpc(_literal(ctx, node.text))
            return c, own(c)
        if isinstance(node, Const):
            return ctx.mpc(ctx.pi), own(ctx.pi)
        if isinstance(node, Var):
            return x, 0
        if isinstance(node, Neg):
            u, mu = walk(node.child)
            return -u, mu
        if isinstance(node, Call):
            u, mu = walk(node.arg)
            val = getattr(ctx, node.fn)(u)
            if node.fn in ("exp", "sin", "cos"):
                first_order(mu)
                bound = abs(val) if node.fn == "exp" else ctx.cosh(u.imag)
                return val, bound * mu + own(bound)
            first_order(mu, abs(u))
            if node.fn == "sqrt":
                return val, mu / (2 * abs(val)) + own(val)
            return val, mu / abs(u) + own(val)
        u, mu = walk(node.left)
        v, mv = walk(node.right)
        if node.op in "+-":
            val = u + v if node.op == "+" else u - v
            return val, mu + mv + own(val)
        if node.op == "*":
            val = u * v
            return val, mu * abs(v) + abs(u) * mv + own(val)
        if node.op == "/":
            first_order(mv, abs(v))
            val = u / v
            return val, (mu + abs(val) * mv) / abs(v) + own(val)
        val = u ** v
        if not free_variables(node.right) and ctx.isint(v):
            n = int(v.real)
            if n > 0:
                prop = n * abs(u) ** (n - 1) * mu
            else:
                first_order(mu, abs(u))
                prop = -n * abs(val) / abs(u) * mu if n else 0
            return val, prop + 2 * abs(n) * own(val)
        first_order(mu, abs(u))
        first_order(mv)
        return val, abs(val) * (abs(v) * mu / abs(u) + abs(ctx.log(u)) * mv) + own(val)

    try:
        val, m = walk(e)
    except (ZeroDivisionError, _NotFirstOrder):
        return None
    return m if ctx.isfinite(val) and ctx.isfinite(m) else None


# ---------------------------------------------------------------------------
# one basin pixel in fixed point

class DeadPixel(Exception):
    """A fixed-point pixel's iteration met a zero divisor, an unheld value or a failed f, f'."""


class FixedPairs:
    """Pairs (re, im) of ints standing for (re + i*im) * 2**-F, one pixel at a time.

    The reference for the renderer's lanes, written without them: products
    and quotients round down at scale F, and a zero divisor or a component
    reaching 2**hold_bits raises :class:`DeadPixel`.
    """

    def __init__(self, F, hold_bits):
        self.F = F
        self.hold = 1 << hold_bits + F
        self.one = (1 << F, 0)

    def held(self, re, im):
        if abs(re) >= self.hold or abs(im) >= self.hold:
            raise DeadPixel
        return re, im

    @staticmethod
    def add(a, b):
        return a[0] + b[0], a[1] + b[1]

    @staticmethod
    def sub(a, b):
        return a[0] - b[0], a[1] - b[1]

    def mul(self, a, b):
        return self.held((a[0] * b[0] - a[1] * b[1]) >> self.F, (a[0] * b[1] + a[1] * b[0]) >> self.F)

    def div(self, a, b):
        den = b[0] * b[0] + b[1] * b[1]
        if not den:
            raise DeadPixel
        return self.held(((a[0] * b[0] + a[1] * b[1]) << self.F) // den,
                         ((a[1] * b[0] - a[0] * b[1]) << self.F) // den)

    def mag(self, a):
        """ctx.mag of the value a stands for: bit length less F, plus one when both parts are nonzero."""
        return (abs(a[0]) | abs(a[1])).bit_length() - self.F + (1 if a[0] and a[1] else 0)

    def pixel(self, fd, z0, tol2, max_iter, cap_bits):
        """One pixel's basin iteration from z0: (z, iterations, converged, nan), z None when nan.

        fd(z) gives (f(z), f'(z)) as pairs, or raises DeadPixel.  A Newton
        step, then the blended step of kernel.ici_blend operation by
        operation (u = yp/(yp - yc), v = u - 1); a value past cap_bits by
        :meth:`mag` ends the pixel as NaN, and |f|**2 <= tol2 converges it
        (at iteration 0 for the seed).
        """
        add, sub, mul, div = self.add, self.sub, self.mul, self.div

        def sample(z):
            y, d = fd(z)
            if self.mag(y) > cap_bits or self.mag(d) > cap_bits:
                raise DeadPixel
            return y, d

        try:
            yc, dc = sample(z0)
        except DeadPixel:
            return None, 0, False, True
        if yc[0] * yc[0] + yc[1] * yc[1] <= tol2:
            return z0, 0, True, False       # a seed that meets tol is its own limit
        zc, zp = z0, None
        for it in range(1, max_iter + 1):
            try:
                nc = div(yc, dc)
                if zp is None:
                    zn = sub(zc, nc)
                else:
                    u = div(yp, sub(yp, yc))
                    v = sub(u, self.one)
                    w = add(mul(u, (2 << self.F, 0)), self.one)
                    bracket = add(np_, mul(w, sub(zc, zp)))
                    zn = sub(zc, add(mul(mul(u, u), nc), mul(mul(v, v), bracket)))
                if self.mag(zn) > cap_bits:
                    raise DeadPixel
                y, d = sample(zn)
            except DeadPixel:
                return None, it, False, True
            zp, yp, np_ = zc, yc, nc
            zc, yc, dc = zn, y, d
            if y[0] * y[0] + y[1] * y[1] <= tol2:
                return zc, it, True, False
        return zc, max_iter, False, False


# ---------------------------------------------------------------------------
# convergence diagnostics, from their definitions

def reference_report(residuals, digits):
    """Log-based diagnostics of a residual list, by their definitions in a raw context.

    Runs at ``digits + 20`` digits on exact copies of the residuals and
    takes every logarithm where its definition puts it, reusing none:
    digits per step -log10|y_k|; order estimates ln|y_{k+1}| / ln|y_k| over
    nonzero residuals below 1 that strictly decrease; the fitted constant
    C = |y_K|**(rho**-K); and the misfit |log10|y_{K-1}| - rho**(K-1) *
    log10 C|, with rho = 1 + sqrt(3).  C and the misfit are None where the
    fit is undefined (final residual zero or not below 1, or y_{K-1} = 0).
    Returns a dict with keys digits, orders, constant, misfit.
    """
    ctx = make_ctx(digits + 20)
    ys = [abs(ctx.mpc(y) if hasattr(y, "_mpc_") else ctx.mpf(y)) for y in residuals]
    rho = 1 + ctx.sqrt(3)
    orders = [ctx.ln(b) / ctx.ln(a) for a, b in zip(ys, ys[1:])
              if a != 0 and b != 0 and a < 1 and b < 1 and b < a]
    K = len(ys) - 1
    constant = misfit = None
    if ys[K] != 0 and ys[K] < 1:
        constant = ys[K] ** (rho ** -K)
        if K >= 1 and ys[K - 1] != 0:
            misfit = abs(ctx.log(ys[K - 1], 10) - rho ** (K - 1) * ctx.log(constant, 10))
    return {"digits": [-ctx.log(y, 10) for y in ys], "orders": orders,
            "constant": constant, "misfit": misfit}


# ---------------------------------------------------------------------------
# the fixed-point kernels' tables, built from every reciprocal at once

def _reciprocals(w):
    """2**(w - j) // j for odd j <= w: all w / 2 of them, about w**2 / 8 bits."""
    return [(1 << (w - j)) // j for j in range(1, w + 1, 2)]


def reference_ln_table(wp):
    """ln(1 + 2**-k) for k = 1..K at ``wp`` bits, each atanh(2**-m) summed from the whole reciprocal list."""
    w = wp + 24
    recips = _reciprocals(w)

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


def reference_atan_table(wp):
    """(atan(2**-k) for k = 1..K, the gain prod (1 + 4**-k)**-1/2) at ``wp`` bits, from the whole reciprocal list."""
    w = wp + 24
    recips = _reciprocals(w)
    plus, minus = recips[0::2], recips[1::2]        # j = 1, 5, 9, ... and j = 3, 7, 11, ...
    table = [sum(plus) - sum(minus)]
    for m in range(2, _LN_STEPS + 1):
        step = 4 * m - 4
        table.append(sum(map(rshift, plus, range(m - 1, w, step)))
                     - sum(map(rshift, minus, range(3 * m - 3, w, step))))
    prod = 1 << w
    for k in range(1, _LN_STEPS + 1):
        prod += prod >> (2 * k)
    gain = math.isqrt((1 << (3 * w)) // prod)
    return tuple(entry >> 24 for entry in table), gain >> 24
