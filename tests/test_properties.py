"""Property tests over generated expression trees, polynomials with known roots
and samples for the blended step.

The polynomial tests also run ``mpmath.findroot`` as an independent reference.
Examples are drawn from a fixed seed so the suite is reproducible; raise
``max_examples`` or drop ``derandomize`` locally to search wider.
"""

import mpmath
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iciroot.expr import FUNCTIONS, Call, Const, Num, Var, _bin, _neg, parse
from iciroot.kernel import PointSample, ici_step
from iciroot.mpscalar import Precision
from iciroot.solve import (METHODS, STATUS_CONVERGED, STATUS_DEGENERATE, STATUS_MAX_ITER,
                           STATUS_NAN, SolveConfig, solve_expr)

from oracles import render

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

# ---------------------------------------------------------------------------
# parse(render(t)) == t over trees built through the smart constructors

_numbers = st.from_regex(r"(\d{1,3}(\.\d{0,3})?|\.\d{1,3})([eE][+-]?\d{1,2})?",
                         fullmatch=True).map(Num)


def _extend(children):
    return st.one_of(
        children.map(_neg),
        st.builds(_bin, st.sampled_from("+-*/^"), children, children),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
    )


def trees_over(names):
    """Trees built through the smart constructors, with variables from ``names``."""
    leaves = st.one_of(_numbers, st.just(Const("pi")), st.sampled_from(names).map(Var))
    return st.recursive(leaves, _extend, max_leaves=12)


@SETTINGS
@given(trees_over(["x", "t"]))
def test_parse_inverts_render(tree):
    assert parse(render(tree)) == tree


# ---------------------------------------------------------------------------
# polynomials c * prod(x - r_k) with roots on a grid of spacing 1/4

_roots = st.lists(st.integers(-20, 20), min_size=1, max_size=5).map(
    lambda ks: [k / 4 for k in ks])
_scales = st.sampled_from(["1", "-3", "0.5", "7.25"])


def _poly_text(scale, roots):
    return scale + "".join(f"*(x-({r!r}))" for r in roots)


@SETTINGS
@given(roots=_roots, scale=_scales, x0=st.integers(-1200, 1200).map(lambda k: k / 200),
       method=st.sampled_from(METHODS), max_iter=st.integers(1, 30),
       digits=st.sampled_from([20, 40]))
def test_solve_ends_in_a_defined_status_within_budget(roots, scale, x0, method, max_iter,
                                                      digits):
    # repeated roots allowed: multiple roots, flat spots and exact hits all occur
    p = Precision(digits)
    cfg = SolveConfig(precision=p, max_iter=max_iter, method=method)
    trace = solve_expr(_poly_text(scale, roots), p.real(repr(x0)), cfg)
    assert trace.status in (STATUS_CONVERGED, STATUS_MAX_ITER, STATUS_DEGENERATE, STATUS_NAN)
    assert 1 <= len(trace) <= max_iter + 1
    if trace.converged:
        assert abs(trace.final.y) <= cfg.tol


@SETTINGS
@given(roots=st.lists(st.integers(-20, 20), min_size=1, max_size=5, unique=True).map(
           lambda ks: [k / 4 for k in ks]),
       scale=_scales, pick=st.integers(0, 4), offset=st.integers(-8, 8),
       method=st.sampled_from(METHODS))
def test_solve_agrees_with_findroot_near_a_simple_root(roots, scale, pick, offset, method):
    # roots are at least 1/4 apart, so |x0 - r| <= 1/32 starts within an eighth
    # of the gap: Newton (findroot) and every method here must reach that root
    target = roots[pick % len(roots)]
    x0 = target + offset / 256
    digits = 30
    p = Precision(digits)
    cfg = SolveConfig(precision=p, max_iter=40, method=method)
    trace = solve_expr(_poly_text(scale, roots), p.real(repr(x0)), cfg)
    assert trace.converged

    with mpmath.workdps(digits + 10):
        c = mpmath.mpf(scale)
        rs = [mpmath.mpf(r) for r in roots]

        def f(x):
            return c * mpmath.fprod(x - r for r in rs)

        def df(x):
            return c * mpmath.fsum(mpmath.fprod(x - r for j, r in enumerate(rs) if j != k)
                                   for k in range(len(rs)))

        reference = mpmath.findroot(f, mpmath.mpf(x0), solver="newton", df=df)
        # |y| <= tol bounds the forward error by about tol / |f'(root)|
        bound = 2 * mpmath.mpf(cfg.tol) / abs(df(mpmath.mpf(target)))
        ours = mpmath.mpf(trace.final.x)
        assert abs(reference - target) <= bound
        assert abs(ours - target) <= bound
        assert abs(ours - reference) <= 2 * bound


# ---------------------------------------------------------------------------
# the blended step: symmetric in its samples, covariant under x -> alpha*x + beta

_P30 = Precision(30)
_STEP_ULPS = 4


def _dyadics(limit):
    return st.integers(-limit, limit).map(lambda k: _P30.real(k) / 64)


def _scalars(nonzero=False):
    values = st.one_of(_dyadics(4096), st.builds(_P30.cplx, _dyadics(4096), _dyadics(4096)))
    return values.filter(lambda v: v != 0) if nonzero else values


_samples = st.builds(PointSample, _scalars(), _scalars(), _scalars(nonzero=True))


def _step_error_scale(a, b):
    """What one unit of rounding in ici_step(a, b) can move its result by.

    The step sums two Newton points and a secant point with weights v^2,
    u^2 and -2uv (u = y_a/(y_a - y_b), v = y_b/(y_a - y_b)); the secant point
    itself carries the factor u or v on the abscissa gap.
    """
    dy = a.y - b.y
    u, v = abs(a.y / dy), abs(b.y / dy)
    terms = max(abs(a.x), abs(b.x)) + max(abs(a.y / a.yp), abs(b.y / b.yp))
    return (u + v) ** 2 * (1 + u + v) * terms


@SETTINGS
@given(_samples, _samples)
def test_step_is_symmetric_in_its_samples(a, b):
    assume(a.y != b.y)
    bound = _STEP_ULPS * _P30.ctx.mpf(2) ** -_P30.ctx.prec * _step_error_scale(a, b)
    assert abs(ici_step(a, b) - ici_step(b, a)) <= bound


@SETTINGS
@given(_samples, _samples, _scalars(nonzero=True), _scalars())
def test_step_is_covariant_under_affine_maps_of_the_abscissa(a, b, alpha, beta):
    # g(t) = f((t - beta)/alpha) has g = f and g' = f'/alpha at t = alpha*x + beta
    assume(a.y != b.y)

    def remap(s):
        return PointSample(alpha * s.x + beta, s.y, s.yp / alpha)

    ra, rb = remap(a), remap(b)
    scale = abs(alpha) * _step_error_scale(a, b) + _step_error_scale(ra, rb) + abs(beta)
    bound = _STEP_ULPS * _P30.ctx.mpf(2) ** -_P30.ctx.prec * scale
    assert abs(ici_step(ra, rb) - (alpha * ici_step(a, b) + beta)) <= bound
