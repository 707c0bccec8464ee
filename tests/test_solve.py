import csv
import dataclasses
import importlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import ctx_mp_python
from mpmath.ctx_mp import MPContext
from mpmath.libmp import libmpc, libmpf

from iciroot.diagnostics import root_multiplicity
from iciroot.kernel import PointSample, ici_step, newton_step, secant_step
from iciroot.mpscalar import (GUARD_BITS, LOG2_10, Precision, parse_complex, parse_real,
                              to_decimal)
from iciroot.solve import (METHODS, IterationRecord, IterationTrace, SolveConfig, read_trace_text,
                           solve, solve_expr, write_trace_csv, write_trace_text)

from oracles import bisect_root, digits_of_accuracy


def _cubic(p):
    f = lambda x: x ** 3 - 2 * x - 5
    fp = lambda x: 3 * x ** 2 - 2
    return f, fp


def test_linear_function_converges_in_one_newton_step():
    p = Precision(20)
    trace = solve(lambda x: x, lambda x: x * 0 + 1, p.real(5), SolveConfig(precision=p))
    assert trace.status == "converged"
    assert len(trace) == 2
    assert trace.records[0].step_kind == "seed"
    assert trace.records[1].step_kind == "newton"
    assert trace.final.x == 0


def test_seed_already_at_root():
    p = Precision(20)
    trace = solve(lambda x: x - 1, lambda x: x * 0 + 1, p.real(1), SolveConfig(precision=p))
    assert trace.status == "converged"
    assert len(trace) == 1
    assert trace.records[0].step_kind == "seed"


def test_classic_cubic_trace_shape_and_convergence():
    p = Precision(40)
    f, fp = _cubic(p)
    trace = solve(f, fp, p.real(1), SolveConfig(precision=p))
    assert trace.status == "converged"
    kinds = [r.step_kind for r in trace.records]
    assert kinds[0] == "seed"
    assert kinds[1] == "newton"
    assert set(kinds[2:]) == {"ici"}
    root = bisect_root(lambda x: x ** 3 - 2 * x - 5, 2, 3, 60)
    assert digits_of_accuracy(trace.final.x, root) >= 30


def test_every_record_is_a_fresh_consistent_evaluation():
    p = Precision(40)
    f, fp = _cubic(p)
    calls = {"f": 0, "fp": 0}

    def fc(x):
        calls["f"] += 1
        return f(x)

    def fpc(x):
        calls["fp"] += 1
        return fp(x)

    trace = solve(fc, fpc, p.real(1), SolveConfig(precision=p))
    assert calls["f"] == len(trace)
    assert calls["fp"] == len(trace)
    for rec in trace.records:
        assert rec.y == f(rec.x)
        assert rec.yp == fp(rec.x)


def test_first_step_matches_newton_for_every_method():
    p = Precision(40)
    f, fp = _cubic(p)
    x1 = {}
    for method in METHODS:
        trace = solve(f, fp, p.real(2), SolveConfig(precision=p, method=method, max_iter=3))
        x1[method] = trace.records[1].x
        assert trace.records[1].step_kind == "newton"
    assert len(set(map(str, x1.values()))) == 1


def test_solver_is_scale_invariant():
    p = Precision(40)
    f, fp = _cubic(p)
    cfg = SolveConfig(precision=p, tol="1e-35")
    t1 = solve(f, fp, p.real(1), cfg)
    t17 = solve(lambda x: 17 * f(x), lambda x: 17 * fp(x), p.real(1),
                SolveConfig(precision=p, tol="1e-35"))
    n = min(len(t1), len(t17))
    for a, b in zip(t1.records[:n], t17.records[:n]):
        assert abs(a.x - b.x) <= max(abs(a.x), p.real(1)) * 10 * p.eps


def test_converged_status_implies_residual_below_tol():
    p = Precision(30)
    cfg = SolveConfig(precision=p)
    trace = solve_expr("x^2-2", p.real("1.5"), cfg)
    assert trace.converged
    assert abs(trace.final.y) <= cfg.tol


def test_default_tolerance_keeps_half_the_digits_below_20():
    # at 10 digits 10**(-digits+10) would be 1, met by x^2-2 at its seed x = 1
    p = Precision(10)
    trace = solve_expr("x^2-2", p.real(1), SolveConfig(precision=p))
    assert trace.converged and len(trace) > 1
    assert abs(trace.final.y) <= p.real("1e-5")
    for digits in (20, 40, 1000):
        p = Precision(digits)
        assert SolveConfig(precision=p).tol == p.ctx.mpf(10) ** (-digits + 10)


def test_solve_expr_matches_handle_based_solve():
    p = Precision(40)
    f, fp = _cubic(p)
    cfg = SolveConfig(precision=p)
    t_handle = solve(f, fp, p.real(1), cfg)
    t_text = solve_expr("x^3-2*x-5", p.real(1), cfg)
    assert t_handle.status == t_text.status
    assert [str(r.x) for r in t_handle.records] == [str(r.x) for r in t_text.records]


def test_kepler_equation_root_matches_bisection_oracle():
    p = Precision(40)
    trace = solve_expr("x - 0.083*sin(x) - 1", p.real("1.0"), SolveConfig(precision=p))
    assert trace.converged

    def kepler(x):
        ctx = x.context
        return x - ctx.mpf("0.083") * ctx.sin(x) - 1

    root = bisect_root(kepler, 1, "1.2", 50)
    assert str(root).startswith("1.07292384667653582")
    assert digits_of_accuracy(trace.final.x, root) >= 29


def test_multiple_root_converges_slowly_at_multiplicity_two():
    p = Precision(30)
    cfg = SolveConfig(precision=p)
    trace = solve_expr("(x-2)^2", p.real("0.5"), cfg)
    assert trace.converged
    assert abs(trace.final.x - 2) <= p.real("1e-10")
    assert len(trace) - 1 > 10  # linear-rate convergence: many steps
    assert root_multiplicity(trace) == 2


def test_complex_solve_finds_a_cube_root_of_unity():
    p = Precision(34)
    cfg = SolveConfig(precision=p, tol="1e-20", max_iter=40)
    trace = solve_expr("z^3-1", p.cplx("0.5", "0.5"), cfg)
    assert trace.converged
    assert abs(trace.final.x ** 3 - 1) <= p.real("1e-19")


def test_nan_mid_run_gives_partial_trace():
    p = Precision(30)
    trace = solve_expr("log(x)+2", p.real(10), SolveConfig(precision=p, max_iter=20))
    assert trace.status == "nan"
    assert len(trace) >= 2
    assert p.ctx.isnan(trace.final.y)


def test_nan_at_seed():
    p = Precision(30)
    trace = solve_expr("sqrt(x)", p.real(-4), SolveConfig(precision=p))
    assert trace.status == "nan"
    assert len(trace) == 1


def test_division_by_zero_in_the_pair_gives_a_nan_record():
    p = Precision(30)
    trace = solve(lambda x: 1 / (x - 1), lambda x: -1 / (x - 1) ** 2, p.real(1),
                  SolveConfig(precision=p))
    assert trace.status == "nan"
    assert len(trace) == 1
    assert p.ctx.isnan(trace.final.y) and p.ctx.isnan(trace.final.yp)


def test_an_overflow_in_the_pair_gives_a_nan_record():
    # mpmath raises OverflowError where an exponent outgrows Python's integers
    def f(x):
        raise OverflowError("too many digits in integer")
    p = Precision(30)
    trace = solve(f, lambda x: 1, p.real(10), SolveConfig(precision=p))
    assert trace.status == "nan"
    assert len(trace) == 1
    assert p.ctx.isnan(trace.final.y) and p.ctx.isnan(trace.final.yp)


def test_non_finite_step_stops_with_status_nan():
    p = Precision(30)
    trace = solve(lambda x: 1, lambda x: 1, p.inf, SolveConfig(precision=p))
    assert trace.status == "nan"
    assert len(trace) == 1      # the Newton step from inf is inf and is not evaluated


def test_dead_previous_derivative_falls_back_to_safeguard_newton():
    # x^3-3x+3 from 0: Newton lands exactly on the critical point 1, so the
    # next step is a secant step, and the one after it has a dead previous f'
    p = Precision(30)
    trace = solve_expr("x^3-3*x+3", p.real(0), SolveConfig(precision=p, max_iter=3))
    assert [r.step_kind for r in trace.records] == \
        ["seed", "newton", "secant", "safeguard_newton"]
    assert trace.records[1].x == 1 and trace.records[1].yp == 0


def test_dy_guard_falls_back_to_safeguard_newton():
    p = Precision(30)
    # x^2+3 from 1: Newton lands on -1, where f is 4 again, and each plain
    # Newton step from there lands on the other point
    trace = solve_expr("x^2+3", p.real(1), SolveConfig(precision=p, max_iter=6))
    assert [r.step_kind for r in trace.records[2:]] == ["safeguard_newton"] * 5
    assert trace.status == "max_iter"
    # x^3-x+1 from 0: Newton lands on 1, where f is 1 again; after the
    # safeguard step the blended steps converge to the real root
    trace = solve_expr("x^3-x+1", p.real(0), SolveConfig(precision=p))
    assert [r.step_kind for r in trace.records[:4]] == ["seed", "newton", "safeguard_newton", "ici"]
    assert trace.records[1].x == 1 and trace.records[1].y == trace.records[0].y
    assert trace.converged
    assert str(trace.final.x).startswith("-1.32471795724474602596")


def test_dfmin_falls_back_to_secant():
    p = Precision(30)
    calls = {"n": 0}

    def f(x):
        return x * x - 2

    def fp(x):
        # derivative goes numerically dead after the seed evaluation
        calls["n"] += 1
        return 2 * x if calls["n"] == 1 else p.real("1e-40")

    trace = solve(f, fp, p.real("1.5"), SolveConfig(precision=p))
    kinds = [r.step_kind for r in trace.records]
    assert kinds[:2] == ["seed", "newton"]
    assert set(kinds[2:]) == {"secant"}
    assert trace.converged


def test_the_guards_sit_at_ten_to_the_five_minus_digits():
    # at 30 digits: a residual gap of at most 1e-25 times the larger |y|, and
    # a derivative of at most 1e-25 times max(|y|, 1), count as degenerate
    p = Precision(30)
    for c, kind in (("0.999", "safeguard_newton"), ("1.001", "ici")):
        small = p.real(c) * p.real("1e-25")
        trace = solve(lambda x: 1 + small * x, lambda x: x * 0 + 1, p.real(0),
                      SolveConfig(precision=p, max_iter=2))
        assert [r.step_kind for r in trace.records] == ["seed", "newton", kind]
    for c, kind in (("0.999", "secant"), ("1.001", "ici")):
        small = p.real(c) * p.real("1e-25")
        trace = solve(lambda x: x * x - 2, lambda x: 2 * x if x == p.real("1.5") else small,
                      p.real("1.5"), SolveConfig(precision=p, max_iter=2))
        assert [r.step_kind for r in trace.records] == ["seed", "newton", kind]


# The tolerance test and the guards decide from exponents unless a value is
# within a few binades of its threshold; there the exact comparison decides.
# Each case sits at a threshold or one ulp from it, and must decide as the
# comparison at the working precision does.

def _ulps(v, k):
    """v moved by k units in the last place of the working precision."""
    ctx = v.context
    _, _, exp, bc = v._mpf_
    return v + k * ctx.ldexp(1, exp + bc - ctx.prec)


def _near(v):
    return [_ulps(v, k) for k in (-1, 0, 1)]


def _guard(p):
    return p.ctx.mpf(10) ** (-p.digits + 5)


def test_tolerance_test_at_tol_and_one_ulp_either_side():
    p = Precision(30)
    cfg = SolveConfig(precision=p, tol="1e-20", max_iter=1)
    one = p.real(1)
    cases = [s * v for v in _near(cfg.tol) for s in (1, -1)]
    cases += [p.cplx(v, 0) for v in _near(cfg.tol)] + [p.cplx(0, v) for v in _near(cfg.tol)]
    rot = p.cplx("0.6", "0.8")
    cases += [p.ctx.mpc(_ulps(y.real, k), y.imag) for y in [cfg.tol * rot] for k in range(-3, 4)]
    outcomes = set()
    for y in cases:
        trace = solve(lambda x: y, lambda x: one, p.real(0), cfg)
        want = abs(y) <= cfg.tol
        assert trace.converged == want, y
        outcomes.add(want)
    assert outcomes == {True, False}


def test_dead_derivative_floor_at_and_one_ulp_either_side():
    # a Newton step from a record whose |y'| is at guard * max(|y|, 1)
    p = Precision(30)
    cfg = SolveConfig(precision=p, method="newton", max_iter=1)
    outcomes = set()
    for y in (p.real(3), p.real("-0.25"), p.real("1e-10"), p.real(1), p.cplx("0.6", "-2.4")):
        ay = abs(y)
        floor = _guard(p) * (ay if ay > 1 else 1)
        for yp in _near(floor) + [p.cplx(0, v) for v in _near(floor)]:
            trace = solve(lambda x: y, lambda x: yp, p.real(0), cfg)
            want = abs(yp) <= _guard(p) * (ay if ay > 1 else 1)
            assert (trace.status == "degenerate") == want, (y, yp)
            outcomes.add(want)
    assert outcomes == {True, False}


def test_guard_bounds_are_those_of_the_guard_at_the_working_precision():
    solve_module = importlib.import_module("iciroot.solve")
    ctx = MPContext()
    for digits in range(6, 5001):
        ctx.prec = math.ceil(digits * LOG2_10) + GUARD_BITS      # as Precision(digits) sets it
        guard = ctx.mpf(10) ** (-digits + 5)
        assert solve_module._guard_bounds(digits) == solve_module._log2_bounds(guard), digits


def test_exact_fallbacks_compare_against_the_guard_at_1000_digits(monkeypatch):
    # both guards one ulp either side of their thresholds, where only the
    # exact comparison decides; it must decide as one against _guard(p)
    solve_module = importlib.import_module("iciroot.solve")
    real_le, fallbacks = solve_module._le, []
    monkeypatch.setattr(solve_module, "_le",
                        lambda a, b, exact: real_le(a, b, lambda: fallbacks.append(1) or exact()))
    p = Precision(1000)
    guard, one = _guard(p), p.real(1)
    outcomes = set()
    for y in (p.real(3), p.real("-0.25"), p.cplx("0.6", "-2.4")):
        scale = max(abs(y), one)
        for yp in _near(guard * scale):
            trace = solve(lambda x: y, lambda x: yp, p.real(0),
                          SolveConfig(precision=p, method="newton", max_iter=1))
            want = abs(yp) <= guard * scale
            assert (trace.status == "degenerate") == want
            outcomes.add(want)
    for y_prev in (p.real(1), p.real(-3)):
        for y in _near(y_prev * (1 - guard)):
            ys = iter([y_prev, y, y])
            trace = solve(lambda x: next(ys), lambda x: one, p.real(0),
                          SolveConfig(precision=p, max_iter=2))
            want = abs(y - y_prev) <= guard * max(abs(y), abs(y_prev))
            assert trace.records[2].step_kind == ("safeguard_newton" if want else "ici")
            outcomes.add(want)
    assert outcomes == {True, False}
    assert fallbacks


def test_residual_gap_guard_at_guard_times_the_larger_residual():
    # two records with y_prev and y = y_prev - gap; the gaps straddle
    # guard * max(|y|, |y_prev|) by single units of the residuals' last place
    p = Precision(30)
    cfg = SolveConfig(precision=p, max_iter=2)
    outcomes = set()
    for y_prev in (p.real(1), p.real(-3), p.cplx("0.6", "0.8")):
        unit = p.ctx.ldexp(1, int(p.ctx.floor(p.ctx.log(abs(y_prev), 2))) - p.ctx.prec)
        steps = int(_guard(p) * abs(y_prev) / unit)
        for k in range(steps - 2, steps + 3):
            y = y_prev - y_prev / abs(y_prev) * (k * unit) if k else y_prev
            ys = iter([y_prev, y, y])
            trace = solve(lambda x: next(ys), lambda x: x * 0 + 1, p.real(0), cfg)
            want = abs(y - y_prev) <= _guard(p) * max(abs(y), abs(y_prev))
            kind = trace.records[2].step_kind
            assert kind == ("safeguard_newton" if want else "ici"), (y_prev, k)
            outcomes.add(want)
    assert outcomes == {True, False}


@pytest.mark.parametrize("f, fp, max_iter", [
    (lambda x: 0, lambda x: 1, 5),          # converged at the seed
    (lambda x: 1, lambda x: 0, 5),          # dead derivative at the seed
    (lambda x: 3, lambda x: 1, 3),          # equal residuals: safeguard Newton steps
    (lambda x: 3 - x, lambda x: -1, 5)],    # an mpf y with an int y'
    ids=["zero", "dead", "equal", "int-derivative"])
def test_callables_that_return_ints_decide_as_their_mpf_twins(f, fp, max_iter):
    p = Precision(30)
    cfg = SolveConfig(precision=p, max_iter=max_iter)
    got = solve(f, fp, p.real(0), cfg)
    want = solve(lambda x: p.real(f(x)), lambda x: p.real(fp(x)), p.real(0), cfg)
    assert got.status == want.status
    assert [(r.x, r.step_kind) for r in got.records] == [(r.x, r.step_kind) for r in want.records]


@st.composite
def _magnitude_pairs(draw):
    """(a, b) with b > 0 and |a| within 0-3 ulp of b or many binades from it; a real or complex."""
    p = Precision(draw(st.sampled_from([10, 30, 1000])))
    ctx = p.ctx
    b = ctx.ldexp(ctx.mpf(draw(st.integers(1, 2 ** 64))), draw(st.integers(-4000, 4000)))
    if draw(st.booleans()):
        a = _ulps(b, draw(st.integers(-3, 3)))
    else:
        a = ctx.ldexp(b, draw(st.integers(-300, 300)))
    a = a * draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        turn = ctx.expjpi(ctx.mpf(draw(st.integers(0, 2 ** 20))) / 2 ** 19)
        a = ctx.mpc(_ulps(a * turn.real, draw(st.integers(-3, 3))) if turn.real else 0,
                    a * turn.imag)
    return a, b


@settings(max_examples=300, deadline=None)
@given(_magnitude_pairs(), st.integers(-60, 60))
def test_exponent_bounds_decide_as_the_working_precision_comparison(pair, shift):
    a, b = pair
    solve_module = importlib.import_module("iciroot.solve")
    bounds, le = solve_module._log2_bounds, solve_module._le
    # |a| <= b, and |a| <= c * b with the product rounded, as the guards take it
    c = b.context.ldexp(b.context.mpf(3), shift) / 7
    for rhs, rhs_bounds in ((b, bounds(b)),
                            (c * b, tuple(x + y for x, y in zip(bounds(c), bounds(b))))):
        want = abs(a) <= rhs
        decided = le(bounds(a), rhs_bounds, lambda: None)
        assert decided in (None, want)
        assert le(bounds(a), rhs_bounds, lambda: want) == want
        a_lo, a_hi = bounds(a)
        if a_lo - 2 >= rhs_bounds[1] or a_hi + 2 <= rhs_bounds[0]:
            assert decided is not None


def test_dead_derivative_at_seed_is_degenerate():
    p = Precision(30)
    trace = solve_expr("x^2+1", p.real(0), SolveConfig(precision=p))    # f'(0) = 0
    assert len(trace) == 1
    assert trace.status == "degenerate"
    # x^3-2x^2+x-1 from 0: Newton lands on 1, where f is -1 again and f'(1) = 0,
    # so neither a blended nor a safeguard Newton step exists
    trace = solve_expr("x^3-2*x^2+x-1", p.real(0), SolveConfig(precision=p))
    assert [r.step_kind for r in trace.records] == ["seed", "newton"]
    assert trace.records[1].yp == 0 and trace.status == "degenerate"


def test_degenerate_status_on_flat_function():
    p = Precision(30)
    trace = solve(lambda x: x * 0 + 1, lambda x: x * 0, p.real(1), SolveConfig(precision=p))
    assert trace.status == "degenerate"


def test_config_validation():
    p = Precision(30)
    with pytest.raises(ValueError):
        SolveConfig(precision=p, method="halley")
    with pytest.raises(ValueError):
        SolveConfig(precision=p, max_iter=0)
    for tol in (0, "-1e-5", float("inf"), "nan"):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            SolveConfig(precision=p, tol=tol)
    with pytest.raises(ValueError, match="invalid real literal"):
        SolveConfig(precision=p, tol=".1.")
    assert SolveConfig(precision=p, tol=".5e-10").tol == p.real("5e-11")
    cfg = SolveConfig(precision=p)
    assert cfg.tol == p.ctx.mpf(10) ** (-20)
    assert [f.name for f in dataclasses.fields(cfg)] == ["precision", "tol", "max_iter", "method"]


def test_trace_csv_has_full_precision_columns():
    p = Precision(40)
    trace = solve_expr("x^3-2*x-5", p.real(1), SolveConfig(precision=p))
    buf = io.StringIO()
    write_trace_csv(trace, buf, digits=40)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,x,y,yp,step_kind,log10_abs_y"
    assert lines[1].startswith("0,1.0,-6.0,1.0,seed,")
    root_field = lines[-1].split(",")[1]
    assert root_field.startswith("2.0945514815423265914823865405793")


def test_trace_text_round_trip():
    p = Precision(40)
    cfg = SolveConfig(precision=p)
    trace = solve_expr("x^3-2*x-5", p.real(1), cfg)
    buf = io.StringIO()
    meta = {"function": "x^3-2*x-5", "x0": "1", "digits": 40,
            "tol": to_decimal(cfg.tol, 8), "method": "ici"}
    write_trace_text(trace, meta, buf)
    back, meta2 = read_trace_text(io.StringIO(buf.getvalue()))
    assert meta2["function"] == "x^3-2*x-5"
    assert back.status == trace.status
    assert len(back) == len(trace)
    for a, b in zip(trace.records, back.records):
        assert a.step_kind == b.step_kind
        assert abs(a.x - p.real(b.x)) <= max(abs(a.x), p.real(1)) * p.eps
        assert abs(a.y - p.real(b.y)) <= max(abs(a.y), p.real(1)) * p.eps


def test_complex_trace_text_round_trip():
    p = Precision(34)
    cfg = SolveConfig(precision=p, tol="1e-20", max_iter=40)
    trace = solve_expr("z^3-1", p.cplx("0.5", "0.5"), cfg)
    buf = io.StringIO()
    write_trace_text(trace, {"function": "z^3-1", "x0": "0.5+0.5i", "digits": 34}, buf)
    back, _ = read_trace_text(io.StringIO(buf.getvalue()))
    assert hasattr(back.final.x, "_mpc_")
    assert abs(back.final.x - trace.final.x) <= abs(trace.final.x) * 10 * p.eps


def test_a_complex_nan_trace_reads_back_and_rewrites_byte_identically():
    # the residual at the seed is nan+nani
    p = Precision(20)
    trace = solve_expr("log(z-1)*(z-1)", p.cplx(1, 0), SolveConfig(precision=p))
    assert trace.status == "nan" and to_decimal(trace.final.y) == "nan+nani"
    meta = {"function": "log(z-1)*(z-1)", "x0": "1+0i", "digits": 20}
    first, second = io.StringIO(), io.StringIO()
    write_trace_text(trace, meta, first)
    back, meta2 = read_trace_text(io.StringIO(first.getvalue()))
    write_trace_text(back, meta2, second)
    assert second.getvalue() == first.getvalue()
    assert p.ctx.isnan(back.final.y.real) and p.ctx.isnan(back.final.y.imag)


def test_a_5000_digit_trace_text_rewrites_byte_identically():
    # past Python's 4300-digit limit on int <-> str, in both directions
    p = Precision(5000)
    trace = solve_expr("x^2-2", p.real(1), SolveConfig(precision=p))
    assert trace.converged
    meta = {"function": "x^2-2", "x0": "1", "digits": 5000}
    first, second = io.StringIO(), io.StringIO()
    write_trace_text(trace, meta, first)
    back, meta2 = read_trace_text(io.StringIO(first.getvalue()))
    write_trace_text(back, meta2, second)
    assert second.getvalue() == first.getvalue()
    assert len(to_decimal(back.final.x)) == 5001
    assert abs(back.final.x - trace.final.x) <= p.eps


def _csv_writer_text(trace, digits):
    """The trace table as csv.writer writes the rows of write_trace_csv."""
    solve_module = importlib.import_module("iciroot.solve")
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(solve_module._CSV_HEADER)
    for rec in trace.records:
        w.writerow(solve_module._record_row(rec, digits))
    return buf.getvalue()


def test_trace_csv_is_what_csv_writer_writes():
    p, q = Precision(40), Precision(34)
    real = solve_expr("x^3-2*x-5", p.real(1), SolveConfig(precision=p))
    cplx = solve_expr("z^3-1", q.cplx("0.5", "0.5"), SolveConfig(precision=q, tol="1e-20"))
    odd = IterationTrace([IterationRecord(0, p.real(2), p.nan, p.inf, "seed"),
                          IterationRecord(1, p.real("-1.5e-300"), -p.inf, p.real(0), 'a,"b"'),
                          IterationRecord(2, p.real(3), p.real("1e500"), p.nan, "newton")],
                         "nan")
    odd_cplx = IterationTrace([IterationRecord(0, q.cplx(1, -2), q.cplx(q.inf, -q.inf), q.nan,
                                               'say "seed"'),
                               IterationRecord(1, q.cplx("-0.5", "1e-9"), q.cplx(0, q.inf),
                                               q.cplx(-q.inf, 3), "x\r\ny")], "nan")
    for trace, digits in ((real, 40), (cplx, 34), (odd, 40), (odd_cplx, 34)):
        buf = io.StringIO()
        write_trace_csv(trace, buf, digits=digits)
        assert buf.getvalue() == _csv_writer_text(trace, digits)
    # a row with a comma and a quote in step_kind is quoted, and reads back
    text = io.StringIO()
    write_trace_text(odd, {"digits": 40}, text)
    assert '"a,""b"""' in text.getvalue()
    back, _ = read_trace_text(io.StringIO(text.getvalue()))
    assert [r.step_kind for r in back.records] == ["seed", 'a,"b"', "newton"]
    assert ([[to_decimal(v, 40) for v in (r.x, r.y, r.yp)] for r in back.records]
            == [[to_decimal(v, 40) for v in (r.x, r.y, r.yp)] for r in odd.records])


def test_trace_writers_and_reader_accept_pathlib_paths(tmp_path):
    p = Precision(40)
    trace = solve_expr("x^3-2*x-5", p.real(1), SolveConfig(precision=p))
    meta = {"function": "x^3-2*x-5", "x0": "1", "digits": 40}
    csv_buf, text_buf = io.StringIO(), io.StringIO()
    write_trace_csv(trace, csv_buf, digits=40)
    write_trace_text(trace, meta, text_buf)
    write_trace_csv(trace, tmp_path / "t.csv", digits=40)
    write_trace_text(trace, meta, tmp_path / "t.txt")
    assert (tmp_path / "t.csv").read_bytes() == csv_buf.getvalue().encode()
    assert (tmp_path / "t.txt").read_bytes() == text_buf.getvalue().encode()
    back, meta2 = read_trace_text(tmp_path / "t.txt")
    assert meta2["function"] == "x^3-2*x-5"
    assert ([to_decimal(r.x, 40) for r in back.records]
            == [to_decimal(r.x, 40) for r in trace.records])


def test_read_trace_text_rejects_a_row_with_too_few_fields():
    text = ("digits: 40\nn,x,y,yp,step_kind,log10_abs_y\n"
            "0,1.5,0.25,3.0,seed,-0.60206\n1,1.41,0.0025\n")
    with pytest.raises(ValueError, match="1,1.41,0.0025"):
        read_trace_text(io.StringIO(text))


def test_read_trace_text_rejects_text_with_no_table_header():
    with pytest.raises(ValueError, match="missing trace table header"):
        read_trace_text(io.StringIO("digits: 40\nstatus: converged\n0,1.5,0.25,3.0,seed\n"))


# arithmetic budgets of a 1000-digit complex solve, counted at mpmath's
# complex kernels: the (f, f') pair takes no logarithm or exponential, and
# the loop takes one division per record and per blended step and no square
# root at the working precision (the tolerance test and the guards read
# exponents; the modulus bound below is the older, looser budget)

def _count_calls(monkeypatch, module, names):
    """Count the calls that reach each of ``module``'s functions ``names``."""
    calls = dict.fromkeys(names, 0)

    def counted(name, real):
        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counting
    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def _zpow_solve():
    p = Precision(1000)
    trace = solve_expr("z^4 - 0.5", p.cplx("0.7", "0.3"), SolveConfig(precision=p))
    assert trace.converged and len(trace) >= 6
    return trace


def test_complex_integer_power_solve_takes_no_log_or_exp(monkeypatch):
    calls = _count_calls(monkeypatch, libmpc, ["mpc_log", "mpc_exp"])
    _zpow_solve()
    assert calls == {"mpc_log": 0, "mpc_exp": 0}


def test_solver_takes_one_modulus_per_value_and_per_residual_gap(monkeypatch):
    calls = _count_calls(monkeypatch, ctx_mp_python, ["mpc_abs"])
    trace = _zpow_solve()
    # |y| and |y'| of the seed; |y|, |y'| and |y - y_prev| of each later record
    assert calls["mpc_abs"] <= 2 + 3 * (len(trace) - 1)


def test_solver_takes_two_complex_divisions_per_record(monkeypatch):
    calls = _count_calls(monkeypatch, ctx_mp_python, ["mpc_div", "mpc_mpf_div"])
    trace = _zpow_solve()
    # each record's Newton update y/y' once, and u = y_prev/(y_prev - y) of a blended step
    assert calls["mpc_div"] + calls["mpc_mpf_div"] <= 2 * (len(trace) - 1)


def test_solver_takes_no_working_precision_square_root(monkeypatch):
    # a complex modulus is a square root at the working precision; only the
    # exact fallback of a decision too close to call may take one
    solve_module = importlib.import_module("iciroot.solve")
    work = Precision(1000).ctx.prec
    state = {"sqrt": 0, "exact": 0, "in_exact": False}
    real_sqrt, real_le = libmpf.mpf_sqrt, solve_module._le

    def sqrt(s, prec, *args):
        if prec >= work and not state["in_exact"]:
            state["sqrt"] += 1
        return real_sqrt(s, prec, *args)

    def le(a, b, exact):
        def fallback():
            state["exact"] += 1
            state["in_exact"] = True
            try:
                return exact()
            finally:
                state["in_exact"] = False
        return real_le(a, b, fallback)

    monkeypatch.setattr(libmpf, "mpf_sqrt", sqrt)
    monkeypatch.setattr(solve_module, "_le", le)
    _zpow_solve()
    assert state["sqrt"] == 0
    assert state["exact"] == 0      # no decision of this solve is close to its threshold


def _sample(rec):
    return PointSample(rec.x, rec.y, rec.yp)


_BLENDED = {"newton", "ici"}


@pytest.mark.parametrize("ftext, x0, digits, max_iter, kinds", [
    ("x^3-2*x-5", "1", 40, 100, _BLENDED),
    ("(x^2+x)*exp(-x)-1/3", "2.0", 1000, 100, _BLENDED),
    ("z^4 - 0.5", "0.7+0.3i", 1000, 100, _BLENDED),
    ("x^3-x+1", "0", 30, 100, _BLENDED | {"safeguard_newton"}),
    ("x^3-3*x+3", "0", 30, 3, {"newton", "secant", "safeguard_newton"})],
    ids=["cubic", "exp", "zpow", "safeguard-ici", "secant-safeguard"])
def test_every_iterate_replays_from_the_public_kernel(ftext, x0, digits, max_iter, kinds):
    # the solver reuses each record's Newton update; the public steps divide
    # afresh, and must give the same bits
    p = Precision(digits)
    start = parse_complex(x0, p) if x0.endswith("i") else parse_real(x0, p)
    trace = solve_expr(ftext, start, SolveConfig(precision=p, max_iter=max_iter))
    recs = trace.records
    for k in range(1, len(recs)):
        kind = recs[k].step_kind
        if kind == "ici":
            want = ici_step(_sample(recs[k - 2]), _sample(recs[k - 1]))
        elif kind == "secant":
            want = secant_step(_sample(recs[k - 2]), _sample(recs[k - 1]))
        else:
            assert kind in ("newton", "safeguard_newton")
            want = newton_step(_sample(recs[k - 1]))
        assert recs[k].x == want, (k, kind)
    assert {r.step_kind for r in recs[1:]} == kinds


@pytest.mark.parametrize("text, key", [
    ("status: converged\nn,x,y,yp,step_kind,log10_abs_y\n0,1.5,0.25,3.0,seed,-0.6\n", "digits"),
    ("digits: 40\nn,x,y,yp,step_kind,log10_abs_y\n0,1.5,0.25,3.0,seed,-0.6\n", "status"),
    ("n,x,y,yp,step_kind,log10_abs_y\n0,1.5,0.25,3.0,seed,-0.6\n", "digits")],
    ids=["no-digits", "no-status", "bare-table"])
def test_read_trace_text_rejects_text_that_does_not_say_its_precision_and_status(text, key):
    with pytest.raises(ValueError, match=f"trace text has no '{key}:' line"):
        read_trace_text(io.StringIO(text))


def test_trace_text_says_the_trace_precision_when_the_meta_does_not():
    p = Precision(34)
    trace = solve_expr("z^3-1", p.cplx("0.5", "0.5"), SolveConfig(precision=p, tol="1e-20"))
    bare, given = io.StringIO(), io.StringIO()
    write_trace_text(trace, {"function": "z^3-1"}, bare)
    write_trace_text(trace, {"function": "z^3-1", "digits": 34}, given)
    assert bare.getvalue() == given.getvalue()
    assert bare.getvalue().startswith("function: z^3-1\ndigits: 34\nstatus: converged\nn,x,")
    back, meta = read_trace_text(io.StringIO(bare.getvalue()))
    assert meta == {"function": "z^3-1", "digits": "34"} and back.converged
