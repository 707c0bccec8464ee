import random

import pytest

from iciroot.kernel import (EqualResidualsError, PointSample, ZeroDerivativeError, ici_step,
                            newton_step, secant_step)
from iciroot.mpscalar import Precision

from oracles import (DegenerateIntervalError, hermite_forward_eval, hermite_inverse_eval,
                     ici_step_averaged, ici_step_blind)

P50 = Precision(50)
R = P50.real


def _cubic_samples():
    # inverse data x = g(y) = y^3 + 2y + 1 at y = -1, 1; f'(x) = 1/g'(y) = 1/5
    pa = PointSample(R(-2), R(-1), R(1) / 5)
    pb = PointSample(R(4), R(1), R(1) / 5)
    return pa, pb


def test_forward_hermite_hits_both_endpoints():
    pa = PointSample(R(0), R("0.25"), R(3))
    pb = PointSample(R(2), R(-7), R("0.5"))
    assert hermite_forward_eval(pa, pb, R(0)) == pa.y
    assert hermite_forward_eval(pa, pb, R(1)) == pb.y


def test_forward_hermite_reproduces_x_cubed_at_midpoint():
    pa = PointSample(R(0), R(0), R(0))
    pb = PointSample(R(2), R(8), R(12))
    v = hermite_forward_eval(pa, pb, R(1) / 2)
    assert abs(v - 1) <= 4 * P50.eps


def test_forward_hermite_rejects_equal_abscissae():
    pa = PointSample(R(1), R(0), R(1))
    with pytest.raises(DegenerateIntervalError):
        hermite_forward_eval(pa, pa, R("0.5"))


def test_inverse_hermite_endpoints_and_midpoint():
    pa, pb = _cubic_samples()
    assert hermite_inverse_eval(pa, pb, R(0)) == pa.x
    assert hermite_inverse_eval(pa, pb, R(1)) == pb.x
    # exactness: x(s=1/2) = g(0) = 1
    assert abs(hermite_inverse_eval(pa, pb, R(1) / 2) - 1) <= 8 * P50.eps


def test_inverse_hermite_degeneracies():
    pa, pb = _cubic_samples()
    flat = PointSample(R(9), pa.y, R(2))
    with pytest.raises(EqualResidualsError):
        hermite_inverse_eval(pa, flat, R("0.5"))
    dead = PointSample(pb.x, pb.y, R(0))
    with pytest.raises(ZeroDerivativeError):
        hermite_inverse_eval(pa, dead, R("0.5"))


def test_newton_step_examples():
    assert newton_step(PointSample(R(1), R(-6), R(1))) == 7
    assert newton_step(PointSample(R(2), R(-1), R(10))) == R("2.1")
    r = R("1.73205")
    assert newton_step(PointSample(r, R(0), R("42.5"))) == r
    with pytest.raises(ZeroDerivativeError):
        newton_step(PointSample(R(1), R(2), R(0)))


def test_secant_step_examples():
    pa, pb = _cubic_samples()
    assert secant_step(pa, pb) == 1
    at_root = PointSample(R(5), R(0), R(1))
    other = PointSample(R(2), R(3), R(1))
    assert secant_step(other, at_root) == at_root.x
    # symmetric in its two arguments
    assert secant_step(pa, pb) == secant_step(pb, pa)
    with pytest.raises(EqualResidualsError):
        secant_step(pa, PointSample(R(0), pa.y, R(1)))


def test_ici_step_is_exact_on_inverse_cubic_data():
    pa, pb = _cubic_samples()
    # weights 1/4, 1/4, 1/2 over Newton values 3, -1 and secant value 1
    assert newton_step(pa) == 3
    assert newton_step(pb) == -1
    assert secant_step(pa, pb) == 1
    v = ici_step(pa, pb)
    assert abs(v - 1) <= 8 * P50.eps


def test_ici_step_on_linear_data_hits_the_root():
    pa = PointSample(R(-1), R(-1), R(1))
    pb = PointSample(R(2), R(2), R(1))
    assert abs(ici_step(pa, pb)) <= 4 * P50.eps
    assert abs(ici_step_blind(pa, pb)) <= 4 * P50.eps
    assert abs(ici_step_averaged(pa, pb)) <= 4 * P50.eps


def test_ici_step_weight_collapse_at_root():
    prev = PointSample(R(1), R(2), R(3))
    cur = PointSample(R(7), R(0), R(5))
    assert ici_step(prev, cur) == cur.x
    assert ici_step_averaged(prev, cur) == cur.x


def test_ici_step_degeneracies():
    pa, pb = _cubic_samples()
    with pytest.raises(EqualResidualsError):
        ici_step(pa, PointSample(R(0), pa.y, R(1)))
    with pytest.raises(ZeroDerivativeError):
        ici_step(pa, PointSample(pb.x, pb.y, R(0)))
    with pytest.raises(EqualResidualsError):
        ici_step_blind(pa, PointSample(R(0), pa.y, R(1)))
    with pytest.raises(ZeroDerivativeError):
        ici_step_averaged(PointSample(pa.x, pa.y, R(0)), pb)


def test_blind_and_averaged_match_on_cubic_data():
    pa, pb = _cubic_samples()
    assert abs(ici_step_blind(pa, pb) - 1) <= 8 * P50.eps
    assert abs(ici_step_averaged(pa, pb) - 1) <= 8 * P50.eps


def _random_monotone_samples(p, rng):
    # samples of x = g(y) = c3*y^3 + c1*y + c0 with c3, c1 > 0 (monotone)
    c3 = p.real(f"{rng.uniform(0.2, 2):.6f}")
    c1 = p.real(f"{rng.uniform(0.2, 2):.6f}")
    c0 = p.real(f"{rng.uniform(-2, 2):.6f}")
    ya = p.real(f"{rng.uniform(-2, -0.2):.6f}")
    yb = p.real(f"{rng.uniform(0.2, 2):.6f}")

    def g(y):
        return c3 * y ** 3 + c1 * y + c0

    def gp(y):
        return 3 * c3 * y ** 2 + c1

    pa = PointSample(g(ya), ya, 1 / gp(ya))
    pb = PointSample(g(yb), yb, 1 / gp(yb))
    return pa, pb, g(p.real(0))


def test_blind_matches_stable_form_on_random_monotone_data_at_200_digits():
    p = Precision(200)
    rng = random.Random(3)
    for _ in range(50):
        pa, pb, _ = _random_monotone_samples(p, rng)
        a = ici_step(pa, pb)
        b = ici_step_blind(pa, pb)
        scale = max(abs(a), p.real(1))
        # agreement to at least 190 of the 200 working digits
        assert abs(a - b) <= scale * p.ctx.mpf(10) ** -190


def test_ici_step_matches_inverse_interpolant_at_height_zero():
    # dual route: the blended step equals x(s) at s = (0 - y_prev)/(y_cur - y_prev)
    p = Precision(50)
    rng = random.Random(11)
    for _ in range(100):
        pa = PointSample(p.real(f"{rng.uniform(-3, 3):.6f}"),
                         p.real(f"{rng.uniform(-3, -0.4):.6f}"),
                         p.real(f"{rng.uniform(0.3, 4):.6f}"))
        pb = PointSample(p.real(f"{rng.uniform(-3, 3):.6f}"),
                         p.real(f"{rng.uniform(0.4, 3):.6f}"),
                         p.real(f"{rng.uniform(0.3, 4):.6f}"))
        s0 = (0 - pa.y) / (pb.y - pa.y)
        via_interp = hermite_inverse_eval(pa, pb, s0)
        assert ici_step_blind(pa, pb) == via_interp     # one formula, not two
        via_step = ici_step(pa, pb)
        scale = max(abs(via_step), p.real(1), abs(pa.x), abs(pb.x))
        assert abs(via_interp - via_step) <= 20 * scale * p.ctx.eps


def test_steps_work_on_complex_scalars():
    p = Precision(40)
    pa = PointSample(p.cplx(1, 1), p.cplx(-1, "0.5"), p.cplx(2, -1))
    pb = PointSample(p.cplx(-2, "0.25"), p.cplx(1, -2), p.cplx(1, 3))
    for step in (ici_step, ici_step_blind, ici_step_averaged):
        v = step(pa, pb)
        assert hasattr(v, "_mpc_")
    a, b = ici_step(pa, pb), ici_step_averaged(pa, pb)
    assert abs(a - b) <= 20 * max(abs(a), p.real(1)) * p.ctx.eps
