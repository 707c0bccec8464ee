"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Expected values marked by hand-checkable arithmetic or an oracle are
frozen here; the oracles (bisection, finite differences) live in oracles.py
and are re-run live.
"""

import math
import random
import time

import pytest

from iciroot.basins import BasinSpec, line_scan, render
from iciroot.diagnostics import build_report, error_constant_oracle, residual_ratio_limit
from iciroot.expr import compile_fn, differentiate, parse
from iciroot.kernel import PointSample, ici_step, newton_step, secant_step
from iciroot.mpscalar import Precision, log10_abs, to_decimal
from iciroot.solve import SolveConfig, solve_expr

from oracles import (bisect_root, double_root_contraction_rate, hermite_forward_eval,
                     ici_step_averaged, ici_step_blind, make_ctx)

EXP_FUNCTION = "(x^2+x)*exp(-x)-1/3"


def _check(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _log10(v):
    return float(log10_abs(v))


@pytest.fixture(scope="module")
def exp_traces_1000():
    p = Precision(1000)
    t0 = time.perf_counter()
    ici = solve_expr(EXP_FUNCTION, p.real("2.0"), SolveConfig(precision=p, max_iter=8))
    newton = solve_expr(EXP_FUNCTION, p.real("2.0"),
                        SolveConfig(precision=p, max_iter=8, method="newton"))
    elapsed = time.perf_counter() - t0
    return ici, newton, elapsed


def test_a1_classic_cubic_digits_of_accuracy():
    p = Precision(40)
    t0 = time.perf_counter()
    trace = solve_expr("x^3-2*x-5", p.real(1), SolveConfig(precision=p, max_iter=8))
    elapsed = time.perf_counter() - t0
    root = bisect_root(lambda x: x ** 3 - 2 * x - 5, 2, 3, 100)
    assert str(root).startswith("2.0945514815423265914823865405793029638")

    def digits_at(n):
        err = abs(p.real(str(root)) - trace.records[n].x)
        return float(-log10_abs(err)) if err != 0 else float("inf")

    # k "iterations" = k blended steps after the Newton seed = record k+1
    d6, d7 = digits_at(7), digits_at(8)
    ok = d6 >= 9 and d7 >= 28 and elapsed < 1.0
    assert _check("A1", ok,
                  f"6 iterations: {d6:.2f} digits (>=9), 7 iterations: {d7:.2f} "
                  f"digits (>=28), runtime {elapsed:.2f}s (<1s)")


def test_a2_exp_example_residual_magnitudes(exp_traces_1000):
    ici, newton, elapsed = exp_traces_1000
    l_ici = _log10(ici.records[8].y)
    l_newton = _log10(newton.records[8].y)
    ok = (-596 <= l_ici <= -592) and (-65 <= l_newton <= -61) and elapsed < 30
    assert _check("A2", ok,
                  f"log10|y8| ici {l_ici:.2f} (-594±2), newton {l_newton:.2f} "
                  f"(-63±2), runtime {elapsed:.1f}s (<30s)")


def test_a3_ratio_sequence_and_fitted_constant(exp_traces_1000):
    ici, _, _ = exp_traces_1000
    stated = [1.5952, 17.048, 4.5955, 4.9061, 4.9080, 4.9081, 4.9080]
    report = build_report(ici)
    ratios = report.ratios
    assert len(ratios) == 7
    deviations = []
    ok = True
    for got, want in zip(ratios, stated):
        unit4 = 10.0 ** (math.floor(math.log10(want)) - 3)  # one unit, 4th sig digit
        dev = abs(float(got) - want)
        deviations.append(dev / unit4)
        ok = ok and dev <= unit4
    c = float(report.fitted_constant)
    ok_c = abs(c - 0.6437) <= 1e-4
    assert _check("A3", ok and ok_c,
                  f"ratios within {max(deviations):.2f} units of the 4th significant "
                  f"digit (<=1), fitted constant {c:.5f} (0.6437±0.0001)")


def test_a4_prediction_at_1624_digits():
    p = Precision(1624)
    t0 = time.perf_counter()
    trace = solve_expr(EXP_FUNCTION, p.real("2.0"), SolveConfig(precision=p, max_iter=9))
    elapsed = time.perf_counter() - t0
    assert len(trace) == 10
    y9 = abs(trace.records[9].y)
    exponent = math.floor(_log10(y9))
    mantissa = float(y9 / p.ctx.mpf(10) ** exponent)
    ok = exponent == -1622 and abs(mantissa - 1.7383) <= 1e-3 and elapsed < 60
    assert _check("A4", ok,
                  f"|y9| = {mantissa:.5f}e{exponent} (want 1.7383e-1622, exact "
                  f"exponent), runtime {elapsed:.1f}s (<60s)")


def _double_root_clauses(trace, x0, root, r, err_target):
    """A5's rate and step-count clauses for a solve of a double root.

    Returns (quotients match r, iterations within bound, tail quotient,
    bound).  The first step is Newton, which halves the error at a double
    root; from then on the error shrinks by r per step, so reaching
    err_target takes 1 + ceil(log(err_target/e1)/log r) iterations.  Two
    extra are allowed for the steps before the asymptotic rate sets in.
    """
    e1 = abs(x0 - root) / 2
    bound = 1 + math.ceil(math.log(err_target / e1) / math.log(r)) + 2
    errs = [abs(rec.x - root) for rec in trace.records[-6:]]
    quotients = [float(errs[k + 1] / errs[k]) for k in range(5)]
    rate_ok = all(abs(q - r) <= 1e-12 * r for q in quotients)
    return rate_ok, len(trace) - 1 <= bound, quotients[-1], bound


def test_a5_multiple_root():
    p = Precision(30)
    trace = solve_expr("(x-2)^2", p.real("0.5"), SolveConfig(precision=p))
    iterations = len(trace) - 1
    err = abs(trace.final.x - 2)
    ratios = build_report(trace).ratios
    tail = [float(r) for r in ratios[-4:]]
    increasing = len(tail) == 4 and all(tail[i] < tail[i + 1] for i in range(3))
    r = float(double_root_contraction_rate(40))
    rate_ok, steps_ok, q_tail, bound = _double_root_clauses(trace, 0.5, 2, r, 1e-10)
    # the same clauses must reject a different double-root rate (Newton's 1/2)
    newton = solve_expr("(x-2)^2", p.real("0.5"),
                        SolveConfig(precision=p, method="newton"))
    n_rate_ok, n_steps_ok, _, _ = _double_root_clauses(newton, 0.5, 2, r, 1e-10)
    ok = (trace.converged and rate_ok and steps_ok
          and err <= p.real("1e-10") and increasing
          and not n_rate_ok and not n_steps_ok)
    assert _check("A5", ok,
                  f"status {trace.status} after {iterations} iterations (<={bound}, "
                  f"derived from r), last error quotient {q_tail:.15f} vs oracle "
                  f"r {r:.15f} (last 5 within 1e-12 relative: {rate_ok}), "
                  f"forward error {to_decimal(err, 3)} (<=1e-10), "
                  f"last-4 ratios strictly increasing: {increasing}, "
                  f"Newton trace rejected: {not (n_rate_ok or n_steps_ok)}")


def test_a6_order_law(exp_traces_1000):
    ici, newton, _ = exp_traces_1000
    rho_ici = float(build_report(ici).order_estimates[-1])
    rho_newton = float(build_report(newton).order_estimates[-1])
    ok = 2.68 <= rho_ici <= 2.78 and 1.95 <= rho_newton <= 2.05
    assert _check("A6", ok,
                  f"order tail ici {rho_ici:.4f} (in [2.68, 2.78]), "
                  f"newton {rho_newton:.4f} (in [1.95, 2.05])")


# ---------------------------------------------------------------------------
# A7: randomized kernel property suite

N_INSTANCES = 1000
P50 = Precision(50)
ULP50 = P50.ctx.mpf(10) ** (1 - 50)          # one unit in the 50th digit


def _mpf(rng, lo, hi):
    return P50.real(f"{rng.uniform(lo, hi):.10f}")


def _separated_samples(rng):
    pa = PointSample(_mpf(rng, -3, 3), _mpf(rng, -3, -0.3), _mpf(rng, 0.2, 4))
    pb = PointSample(_mpf(rng, -3, 3), _mpf(rng, 0.3, 3), _mpf(rng, 0.2, 4))
    return pa, pb


def _close(a, b, scale, ulps=10):
    return abs(a - b) <= ulps * ULP50 * scale


def test_a7_kernel_property_suite():
    rng = random.Random(20240809)
    worst = {"weights": 0.0, "equiv": 0.0, "inverse": 0.0, "forward": 0.0,
             "symmetry": 0.0, "scale": 0.0, "affine": 0.0}

    def track(key, err, scale):
        worst[key] = max(worst[key], float(err / scale / ULP50))

    for _ in range(N_INSTANCES):
        # weight-sum identity
        y0, y1 = _mpf(rng, -5, 5), _mpf(rng, -5, 5)
        if y0 == y1:
            y1 = y0 + 1
        t = 1 / (y0 - y1)
        w_sum = (y1 * t) ** 2 + (y0 * t) ** 2 - 2 * (y0 * t) * (y1 * t)
        track("weights", abs(w_sum - 1), P50.real(1))
        assert _close(w_sum, P50.real(1), P50.real(1))

        # three-way equivalence on non-degenerate samples
        pa, pb = _separated_samples(rng)
        scale = max(abs(pa.x), abs(pb.x), P50.real(1))
        v1, v2, v3 = ici_step(pa, pb), ici_step_blind(pa, pb), ici_step_averaged(pa, pb)
        scale_eq = max(scale, abs(v1))
        track("equiv", max(abs(v1 - v2), abs(v1 - v3)), scale_eq)
        assert _close(v1, v2, scale_eq) and _close(v1, v3, scale_eq)

        # symmetry of the blended step
        track("symmetry", abs(ici_step(pb, pa) - v1), scale_eq)
        assert _close(ici_step(pb, pa), v1, scale_eq)

        # scale invariance: y and yp scaled by a common nonzero constant
        c = P50.real(f"{rng.uniform(0.1, 10):.8f}") * (10 ** rng.randint(-5, 5))
        if rng.random() < 0.5:
            c = -c
        pa_s = PointSample(pa.x, pa.y * c, pa.yp * c)
        pb_s = PointSample(pb.x, pb.y * c, pb.yp * c)
        track("scale", abs(ici_step(pa_s, pb_s) - v1), scale_eq)
        assert _close(newton_step(pa_s), newton_step(pa), max(abs(pa.x), P50.real(1)))
        assert _close(secant_step(pa_s, pb_s), secant_step(pa, pb), scale_eq)
        assert _close(ici_step(pa_s, pb_s), v1, scale_eq)

        # affine covariance: abscissae remapped by x -> alpha*x + beta; the
        # derivative field carries the chain-rule factor (y is unchanged, so
        # dy/dx_new = yp/alpha), and every step output maps by the same map
        alpha = _mpf(rng, 0.5, 2) * (1 if rng.random() < 0.5 else -1)
        beta = _mpf(rng, -3, 3)
        pa_a = PointSample(alpha * pa.x + beta, pa.y, pa.yp / alpha)
        pb_a = PointSample(alpha * pb.x + beta, pb.y, pb.yp / alpha)
        mapped = alpha * v1 + beta
        scale_af = max(abs(mapped), abs(alpha) * scale_eq, P50.real(1))
        track("affine", abs(ici_step(pa_a, pb_a) - mapped), scale_af)
        assert _close(ici_step(pa_a, pb_a), mapped, scale_af)
        assert _close(newton_step(pa_a), alpha * newton_step(pa) + beta, scale_af)
        assert _close(secant_step(pa_a, pb_a), alpha * secant_step(pa, pb) + beta, scale_af)

        # cubic-inverse exactness: samples from a monotone cubic x = g(y)
        c3, c1 = _mpf(rng, 0.2, 2), _mpf(rng, 0.2, 2)
        c0 = _mpf(rng, -2, 2)
        ya, yb = _mpf(rng, -2, -0.2), _mpf(rng, 0.2, 2)
        g = lambda y: c3 * y ** 3 + c1 * y + c0
        gp = lambda y: 3 * c3 * y ** 2 + c1
        qa = PointSample(g(ya), ya, 1 / gp(ya))
        qb = PointSample(g(yb), yb, 1 / gp(yb))
        g0 = g(P50.real(0))
        scale_g = max(abs(qa.x), abs(qb.x), P50.real(1))
        track("inverse", abs(ici_step(qa, qb) - g0), scale_g)
        assert _close(ici_step(qa, qb), g0, scale_g, ulps=100)

        # forward-cubic exactness at a random normalized abscissa
        d0, d1 = _mpf(rng, -2, 2), _mpf(rng, -2, 2)
        d2, d3 = _mpf(rng, -2, 2), _mpf(rng, -2, 2)
        a, b = _mpf(rng, -2, 0), _mpf(rng, 0.1, 2)
        poly = lambda x: d3 * x ** 3 + d2 * x ** 2 + d1 * x + d0
        dpoly = lambda x: 3 * d3 * x ** 2 + 2 * d2 * x + d1
        theta = _mpf(rng, -1, 2)
        ra = PointSample(a, poly(a), dpoly(a))
        rb = PointSample(b, poly(b), dpoly(b))
        x_at = a + theta * (b - a)
        expected = poly(x_at)
        scale_f = max(abs(expected), abs(ra.y), abs(rb.y), P50.real(1))
        track("forward", abs(hermite_forward_eval(ra, rb, theta) - expected), scale_f)
        assert _close(hermite_forward_eval(ra, rb, theta), expected, scale_f, ulps=100)

    detail = ", ".join(f"{k} {v:.3g} ulps" for k, v in worst.items())
    assert _check("A7", True, f"{N_INSTANCES} instances per property; worst: {detail}")


def test_a8_basins(exp_traces_1000):
    t0 = time.perf_counter()
    cube = BasinSpec(ftext="z^3-1", re_range=(-2.0, 2.0), im_range=(-2.0, 2.0),
                     width=200, height=200, max_iter=13, tol="1e-8", workers=2)
    raster = render(cube)
    p = cube.precision
    ctx = p.ctx
    roots = [ctx.mpc(1, 0), ctx.expjpi(ctx.mpf(2) / 3), ctx.expjpi(-ctx.mpf(2) / 3)]
    counts = [0, 0, 0]
    bad = 0
    limit_tol = p.real("1e-6")
    for j in range(cube.height):
        for i in range(cube.width):
            if not raster.converged[j][i]:
                continue
            z = raster.final[j][i]
            dists = [abs(z - r) for r in roots]
            k = dists.index(min(dists))
            counts[k] += 1
            if dists[k] > limit_tol:
                bad += 1
    scan = line_scan(cube, (p.cplx("-1.45", 0), p.cplx("-1.05", 0)), 400)
    changes = sum(1 for k in range(1, len(scan)) if scan[k] != scan[k - 1])

    kepler = BasinSpec(ftext="z - 0.083*sin(z) - 1",
                       re_range=(-30.5, -29.5), im_range=(-17.5, -16.5),
                       width=100, height=100, max_iter=30, tol="1e-8", workers=2)
    _, nan_count = render(kepler).counts()
    elapsed = time.perf_counter() - t0
    ok = (bad == 0 and all(c > 0 for c in counts) and changes > 2
          and nan_count >= 1 and elapsed < 60)
    assert _check("A8", ok,
                  f"limits off-root: {bad} (=0), basin sizes {counts} (all>0), "
                  f"scan changes {changes} (>2), kepler NaN pixels {nan_count} (>=1), "
                  f"runtime {elapsed:.1f}s (<60s)")


def test_a9_error_constant_resolution(exp_traces_1000):
    ici, _, _ = exp_traces_1000
    observed = float(build_report(ici).ratios[-1])

    def oracle_f(x):
        ctx = x.context
        return (x * x + x) * ctx.exp(-x) - ctx.mpf(1) / 3

    root = bisect_root(oracle_f, 4, "4.5", 150)
    assert str(root).startswith("4.16894306000853872")
    p = Precision(150)
    r = p.real(str(root))
    tree = parse(EXP_FUNCTION)
    derivs = []
    node = tree
    for _ in range(4):
        node = differentiate(node, "x")
        derivs.append(compile_fn(node, "x", p)(r))
    f1, f2, f3, f4 = derivs
    direct = float(residual_ratio_limit(f1, f2, f3, f4))
    removed = float(error_constant_oracle(f1, f2, f3, f4) * f1)
    unit3 = 10.0 ** (math.floor(math.log10(observed)) - 2)  # one unit, 3rd sig digit
    match_direct = abs(direct - observed) <= unit3
    match_removed = abs(removed - observed) <= unit3
    ok = match_direct and not match_removed
    assert _check("A9", ok,
                  f"observed ratio limit {observed:.5f}; K/f1^3 = {direct:.5f} "
                  f"({'matches' if match_direct else 'no match'}), K*f1 = {removed:.5g} "
                  f"({'matches' if match_removed else 'no match'}) -> the y ~ f1*e "
                  f"substitution (K/f1^3) is the consistent reading")
