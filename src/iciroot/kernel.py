"""Pure rootfinding step formulas over (x, f(x), f'(x)) samples.

Everything here is a stateless function of one or two :class:`PointSample`
values, defined identically for real and complex scalars.  The production
step, :func:`ici_step`, is a residual-weighted average of two Newton steps
and a secant step; it equals the value of the inverse cubic Hermite
interpolant at height zero, so it is exact whenever the two samples are
drawn from the inverse of a cubic.  It is computed by :func:`ici_blend`,
grouped as the current abscissa minus an update built from the two Newton
updates y/y', so a driver that keeps each sample's update divides once per
sample.  Where the average is undefined or untrustworthy (equal residuals, a
dead derivative), :func:`next_step` picks the step a driver takes instead,
as Brent's ``zeroin`` does for its own steps; the solver and the basin lanes
both ask it.  The cubic Hermite interpolant forms the step is derived from,
and the same average grouped as base points plus updates, are test oracles
(``tests/oracles.py``).  The iteration driver lives in :mod:`iciroot.solve`.
"""

from __future__ import annotations

from dataclasses import dataclass


class EqualResidualsError(ValueError):
    """Two-point operation received samples with equal residuals."""


class ZeroDerivativeError(ValueError):
    """A Newton-type sub-step requires a nonzero derivative."""


@dataclass(frozen=True)
class PointSample:
    """One function sample: abscissa, residual f(x), derivative f'(x)."""

    x: object
    y: object
    yp: object


def newton_step(p: PointSample):
    """x - y/y'."""
    if p.yp == 0:
        raise ZeroDerivativeError("zero derivative in Newton step")
    return p.x - p.y / p.yp


def secant_step(p_prev: PointSample, p_cur: PointSample):
    """Root of the line through the two samples; symmetric in its arguments."""
    if p_prev.y == p_cur.y:
        raise EqualResidualsError("equal residuals in secant step")
    return p_cur.x - p_cur.y * (p_cur.x - p_prev.x) / (p_cur.y - p_prev.y)


def _check_blend(p_prev: PointSample, p_cur: PointSample):
    if p_prev.y == p_cur.y:
        raise EqualResidualsError("equal residuals: inverse interpolant undefined")
    if p_prev.yp == 0 or p_cur.yp == 0:
        raise ZeroDerivativeError("zero derivative: inverse slope undefined")


def ici_blend(u, zp, np_, zc, nc):
    """The blended step of :func:`ici_step` from the two samples' Newton updates.

    np_ = yp/y'p and nc = yc/y'c are the Newton updates at the previous
    point zp and the current point zc, and u = yp/(yp - yc) is the weight,
    divided by the caller, who checks yp != yc first.  With v = u - 1 =
    yc/(yp - yc) the weighted average is taken in update form:
    zn = zc - (u^2 nc + v^2 (np_ + (1 + 2u)(zc - zp))).  The update rounds
    at its own scale; only the last subtraction rounds at that of zc.

    v = u - 1 carries u's rounding error, about 2^-P |u| at P bits; through
    v^2 that adds about 2^-P |u v| times the bracket, which is at the scale
    of the update (|v| ~ |yc/yp|), so the update keeps an error of a few
    2^-P relative to itself.
    """
    v = u - 1
    return zc - (u * u * nc + v * v * (np_ + (1 + 2 * u) * (zc - zp)))


def ici_step(p_prev: PointSample, p_cur: PointSample):
    """The stable blended step: weighted average of Newton, Newton, secant.

    With y0 = p_prev.y, y1 = p_cur.y the weights are y1^2, y0^2 and
    -2*y0*y1, each divided by (y0 - y1)^2; they sum to 1 and give the most
    weight to the more accurate estimate.  Exact for samples of an inverse
    cubic, and independent of the argument order up to rounding.  The
    average is grouped as x1 minus an update (:func:`ici_blend`), from the
    Newton updates y/y' of both samples.
    """
    _check_blend(p_prev, p_cur)
    return ici_blend(p_prev.y / (p_prev.y - p_cur.y), p_prev.x, p_prev.y / p_prev.yp,
                     p_cur.x, p_cur.y / p_cur.yp)


def next_step(method, first, residuals_meet, dead_current, dead_previous) -> str:
    """The kind of step a driver takes next, or ``degenerate`` where none exists.

    One of ``newton``, ``safeguard_newton``, ``secant``, ``ici`` or
    ``degenerate``.  ``method`` is ``newton``, ``secant`` or ``ici``;
    ``first`` says that only the seed has been sampled.  With guard =
    10**(-digits+5) at the working precision the predicates are relative, so
    scaling f changes none of them:

    * residuals_meet: |y - y_prev| <= guard * max(|y|, |y_prev|), where the
      secant and the blended step divide by a vanishing gap;
    * dead_current, dead_previous: |y'| <= guard * |y| at the current or
      the previous sample, where its Newton update is meaningless.

    Each predicate is a bool or a callable that returns one, called only
    when the ladder reaches it, so a caller evaluates only what it needs.
    """
    def holds(p):
        return p() if callable(p) else p

    if first or method == "newton":
        return "degenerate" if holds(dead_current) else "newton"
    if holds(residuals_meet):
        return "degenerate" if holds(dead_current) else "safeguard_newton"
    if method == "secant" or holds(dead_current):
        return "secant"
    return "safeguard_newton" if holds(dead_previous) else "ici"
