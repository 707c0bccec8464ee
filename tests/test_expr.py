import random

import pytest
from hypothesis import given
from mpmath.libmp import from_man_exp

from iciroot import basins
from iciroot.expr import (Bin, Call, ExprSyntaxError, Neg, Num, UnknownIdentifierError,
                          Var, build_tape, compile_fn, compile_pair, compile_tape, differentiate,
                          free_variables, lower, mp_lowering, parse)
from iciroot.mpscalar import GUARD_BITS, Precision
from iciroot.solve import SolveConfig, solve_expr

from oracles import central_diff, make_ctx, reference_fn, render, rounding_error_scale
from test_properties import SETTINGS, trees_over


def test_parse_classic_cubic_structure():
    tree = parse("x^3-2*x-5")
    assert render(tree) == "(((x ^ 3) - (2 * x)) - 5)"


def test_parse_kepler_function():
    tree = parse("x - 0.083*sin(x) - 1")
    assert render(tree) == "((x - (0.083 * sin(x))) - 1)"
    assert free_variables(tree) == {"x"}


def test_unary_minus_binds_looser_than_power():
    p = Precision(30)
    tree = parse("-x^2")
    assert render(tree) == "(-(x ^ 2))"
    assert compile_fn(tree, "x", p)(p.real(3)) == -9


def test_power_is_right_associative():
    p = Precision(30)
    assert compile_fn(parse("2^3^2"), "x", p)(p.real(0)) == 512


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse("2x")


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x + * 3")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
        parse("x$1")
    assert err.value.offset == 1
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("(x + 1")


def test_a_tree_too_deep_for_the_stack_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        parse("(" * 2000 + "x" + ")" * 2000)
    # the parser reads a long sum with its loop; the tape builder recurses
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        compile_tape("x" + "+1" * 2000)


def test_unknown_function_is_reported_with_offset():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("x + tan(x)")
    assert err.value.offset == 4


def test_pi_constant():
    p = Precision(40)
    assert abs(compile_fn(parse("cos(pi)"), "x", p)(p.real(0)) + 1) < 4 * p.eps


def test_eval_classic_cubic_points():
    p = Precision(40)
    tree = parse("x^3-2*x-5")
    f = compile_fn(tree, "x", p)
    assert f(p.real(1)) == -6
    assert f(p.real(2)) == -1


def test_eval_exp_example_against_direct_oracle():
    # direct high-precision evaluation: 6*exp(-2) - 1/3 at 60 digits
    ctx = make_ctx(60)
    expected = 6 * ctx.exp(ctx.mpf(-2)) - ctx.mpf(1) / 3
    assert str(expected).startswith("0.478678366086342818")
    p = Precision(50)
    got = compile_fn(parse("(x^2+x)*exp(-x)-1/3"), "x", p)(p.real(2))
    assert abs(got - p.real(str(expected))) < abs(got) * p.eps


def test_differentiate_power_rule():
    p = Precision(40)
    d = differentiate(parse("x^3-2*x-5"), "x")
    for t in ("-2", "0.5", "3"):
        x = p.real(t)
        assert abs(compile_fn(d, "x", p)(x) - (3 * x * x - 2)) <= 8 * p.eps * (1 + abs(x) ** 2)


def test_differentiate_kepler():
    p = Precision(40)
    d = differentiate(parse("x - 0.083*sin(x) - 1"), "x")
    for t in ("0.1", "1.2"):
        x = p.real(t)
        want = 1 - p.real("0.083") * p.ctx.cos(x)
        assert abs(compile_fn(d, "x", p)(x) - want) <= 8 * p.eps


def test_differentiate_product_exp_matches_finite_difference():
    digits = 40
    p = Precision(digits)
    tree = parse("exp(-x)*(x^2+x)")
    d = differentiate(tree, "x")
    ctx = make_ctx(digits)
    h = ctx.mpf(10) ** (-digits // 2)
    for t in ("0.7", "2.0", "-1.3"):
        fd = central_diff(lambda v: (v * v + v) * ctx.exp(-v), ctx.mpf(t), h)
        got = compile_fn(d, "x", p)(p.real(t))
        assert abs(got - p.real(str(fd))) <= abs(got) * p.ctx.mpf(10) ** (-digits // 2 + 2)


def _random_tree(rng, depth):
    if depth == 0:
        return rng.choice([Var("x"), Num(str(rng.randint(1, 9))),
                           Num(f"0.{rng.randint(1, 99)}")])
    kind = rng.random()
    if kind < 0.55:
        op = rng.choice(["+", "-", "*"])
        return Bin(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind < 0.7:
        # keep denominators away from zero: x^2 + constant
        denom = Bin("+", Bin("^", Var("x"), Num("2")), Num(str(rng.randint(1, 5))))
        return Bin("/", _random_tree(rng, depth - 1), denom)
    if kind < 0.85:
        return Bin("^", Bin("+", Bin("^", Var("x"), Num("2")), Num("1")),
                   Num(str(rng.randint(1, 3))))
    return Call(rng.choice(["exp", "sin", "cos"]), _random_tree(rng, depth - 1))


def test_random_trees_derivative_matches_finite_difference():
    digits = 40
    p = Precision(digits)
    ctx = make_ctx(digits + 20)
    h = ctx.mpf(10) ** (-digits // 2)
    tol = p.ctx.mpf(10) ** (-digits // 2 + 2)
    rng = random.Random(987)
    checked = 0
    for _ in range(60):
        tree = _random_tree(rng, rng.randint(1, 6))
        if "x" not in free_variables(tree):
            continue
        d = differentiate(tree, "x")
        f = compile_fn(tree, "x", Precision(digits + 20))
        x0 = ctx.mpf(rng.choice(["0.3", "1.1", "-0.8", "2.4"]))
        fd = central_diff(lambda v: f(v), x0, h)
        if ctx.isnan(fd) or abs(fd) > 1e6:
            continue
        got = compile_fn(d, "x", p)(p.real(str(x0)))
        scale = max(abs(got), p.real(1))
        assert abs(got - p.real(str(fd))) <= scale * tol, render(tree)
        checked += 1
    assert checked >= 30


def test_render_parse_idempotent():
    rng = random.Random(555)
    samples = ["x^3-2*x-5", "x - 0.083*sin(x) - 1", "(x^2+x)*exp(-x)-1/3", "-x^2"]
    samples += [render(_random_tree(rng, 4)) for _ in range(20)]
    for text in samples:
        once = render(parse(text))
        assert render(parse(once)) == once


def test_eval_precision_consistency():
    lo, hi = Precision(30), Precision(80)
    tree = parse("exp(sin(x)+1)/(x^2+3)")
    a = compile_fn(tree, "x", lo)(lo.real("1.7"))
    b = compile_fn(tree, "x", hi)(hi.real("1.7"))
    assert abs(a - lo.real(b)) <= abs(a) * lo.ctx.mpf(10) ** (2 - lo.digits)


def test_real_domain_errors_become_nan():
    p = Precision(30)
    for text, x in (("sqrt(x)", -4), ("log(x)", -2), ("1/x", 0), ("x^0.5", -1)):
        assert p.ctx.isnan(compile_fn(parse(text), "x", p)(p.real(x)))


def test_complex_mode_uses_principal_branches():
    p = Precision(30)
    z = compile_fn(parse("sqrt(x)"), "x", p, complex_mode=True)(p.cplx(-4, 0))
    assert abs(z - p.cplx(0, 2)) < 4 * p.eps
    w = compile_fn(parse("log(x)"), "x", p, complex_mode=True)(p.cplx(-1, 0))
    assert abs(w.imag - p.ctx.pi) < 4 * p.eps


def test_unbound_identifier_at_eval():
    p = Precision(30)
    with pytest.raises(UnknownIdentifierError):
        compile_pair("x + y", p, False)
    with pytest.raises(UnknownIdentifierError):
        compile_fn(parse("y + 1"), "x", p)


_P34 = Precision(34)


@pytest.mark.parametrize("call", [
    lambda: compile_pair("x*y", _P34, False),
    lambda: solve_expr("x*y", _P34.real(1), SolveConfig(precision=_P34)),
    lambda: basins.render(basins.BasinSpec("x*y", width=2, height=2)),
    lambda: basins.render(basins.BasinSpec("x*y", width=2, height=2, workers=2)),
    lambda: basins.line_scan(basins.BasinSpec("x*y"), (0, 1), 3),
], ids=["compile_pair", "solve_expr", "render", "render_workers_2", "line_scan"])
def test_two_variables_rejected_at_every_entry_point(call):
    with pytest.raises(UnknownIdentifierError, match="more than one variable.*'y'"):
        call()


def test_literal_conversion_happens_at_evaluation_precision():
    # 0.083 parsed at 60 digits differs from the double-rounded value
    p = Precision(60)
    v = compile_fn(parse("0.083"), "x", p)(p.real(0))
    assert v == p.real("0.083")
    assert abs(v - p.real(0.083)) > 0


@pytest.mark.parametrize("text", [".0", ".00", ".0e1", "0.e1", "5.", ".5"])
def test_literals_with_a_bare_dot_evaluate(text):
    p = Precision(30)
    tree = parse(f"x-{text}-1")
    want = 2 - p.real(float(text))
    assert compile_fn(tree, "x", p)(p.real(3)) == want
    assert mp_jet(tree, "x", p)(p.real(3)) == (want, 1)


@pytest.mark.parametrize("text", ["0", "0.0", ".0", ".00", "0e1", ".0e1", "0.0e5"])
def test_every_zero_literal_folds_as_zero(text):
    # x^0 folds to 1, so f' is 0 even at x = 0, where 0 * x^-1 would be NaN
    p = Precision(30)
    tree = parse(f"x^{text}")
    assert tree == Num("1")
    assert parse(f"x*{text} + 2") == Num("2")
    assert mp_jet(tree, "x", p)(p.real(0)) == (1, 0)


# ---------------------------------------------------------------------------
# each lowering of the (f, f') tape against a node-by-node walk of the tree
# and of its derivative tree (tests/oracles.py)

# The mpmath lowering repeats the walk's operations except that u^n (n >= 3)
# is u^(n-1) * u, two roundings where u ** n makes one: allow 4 units of the
# last bit of max(1, |reference|).  NaN must sit in exactly the same components.
JET_ULPS = 4

# The lanes lowering holds values at one binary scale 2**-F (F = P + 32 here),
# so it is held to the walk at 80 digits instead: within LANE_ULPS * 2**-P * m,
# m the first-order rounding-error scale of oracles.rounding_error_scale with
# every node's own term at least 2**(P - F), for an error per node of a few
# units of 2**-F (P = 145 bits at 34 digits).  A lane dies where a value the
# tape holds is a NaN or an infinity or has a part of
# 2**(OVERFLOW_BITS + HOLD_BITS) or more (:func:`_lane_holds`: the walk at 80
# digits of each subtree of f and f' that reads the variable, and of each
# largest constant subtree, which the tape folds).  Elsewhere it lives
# wherever that scale gives a first-order bound.
LANE_ULPS = 8

# zeros, poles and branch cuts of the generated trees sit at these points.
# They stay within |x| <= 1: from larger points the nested exp/cos of the
# random trees reach arguments so large that mpmath's cos of them does not
# finish within seconds, for the walk as for the tape.
_REAL_POINTS = ("0", "1", "-1", "0.5", "-0.75")
_COMPLEX_POINTS = ((0, 0), (1, 0), (-1, 0), (0, 1), (-0.6, 0.5), (0.25, -0.9))


def _points(p, complex_mode):
    if complex_mode:
        return [p.cplx(*z) for z in _COMPLEX_POINTS]
    return [p.real(t) for t in _REAL_POINTS]


def _var(tree):
    return (free_variables(tree) or {"x"}).pop()


def assert_jet_matches_reference(tree, points, p, complex_mode, ulps=JET_ULPS, jet=None):
    """The mpmath lowering (or ``jet``) against the walk at the same precision."""
    ctx = p.ctx
    var = _var(tree)
    ref_f = reference_fn(tree, var, ctx, complex_mode)
    ref_d = reference_fn(differentiate(tree, var), var, ctx, complex_mode)
    jet = jet or mp_jet(tree, var, p, complex_mode)
    bound = ulps * ctx.mpf(2) ** -ctx.prec
    for x in points:
        for got, want in zip(jet(x), (ref_f(x), ref_d(x))):
            where = (render(tree), str(x), str(got), str(want))
            assert ctx.isnan(got) == ctx.isnan(want), where
            if ctx.isnan(want):
                continue
            if not ctx.isfinite(want):
                assert got == want, where
            else:
                assert abs(got - want) <= bound * max(1, abs(want)), where


def mp_jet(tree, var, p, complex_mode=False):
    """The tape of tree and its derivative under the mpmath lowering."""
    return lower(build_tape(tree, var), mp_lowering(p.ctx, complex_mode))


def _lane_holds(tree, var, ctx, x, bits):
    """Whether every value of ``tree`` that a lane holds at x is finite with parts below 2**bits."""
    def holds(node):
        v = reference_fn(node, var, ctx, complex_mode=True)(x)
        if not ctx.isfinite(v) or max(abs(ctx.re(v)), abs(ctx.im(v))) >= ctx.ldexp(1, bits):
            return False
        if var not in free_variables(node):     # a constant folds whole
            return True
        kids = ((node.left, node.right) if isinstance(node, Bin) else (node.arg,)
                if isinstance(node, Call) else (node.child,) if isinstance(node, Neg) else ())
        return all(map(holds, kids))
    return holds(tree)


def assert_lanes_match_reference(tree, points, p, tape=None, lowering=basins._lanes_lowering):
    """The lanes lowering (or ``lowering``) of tree's tape (or ``tape``) over one group of points, against the walk."""
    ctx, P = p.ctx, p.ctx.prec
    var = _var(tree)
    trees = (tree, differentiate(tree, var))
    walks = [reference_fn(t, var, ctx, complex_mode=True) for t in trees]
    g = basins._Scale(P + GUARD_BITS)
    F = g.F
    jet = lower(tape or build_tape(tree, var), lowering(ctx, g))
    zs = [(int(ctx.floor(ctx.ldexp(z.real, F))), int(ctx.floor(ctx.ldexp(z.imag, F))))
          for z in map(ctx.mpc, points)]
    g.dead.clear()
    outputs = jet(basins._Lanes([r for r, _ in zs], [i for _, i in zs], g))
    ref = make_ctx(80)
    unit = ref.mpf(2) ** -P
    floor = ref.mpf(2) ** (P - F)

    def exact(r, i):
        return ctx.make_mpc((from_man_exp(r, -F), from_man_exp(i, -F)))

    for k, z in enumerate(zs):
        x = exact(*z)                        # the value lane k stands for
        x_ref = ref.make_mpc(x._mpc_)
        got = [v if type(v) is tuple else (v.re[k], v.im[k]) if type(v) is basins._Lanes else None
               for v in outputs]
        dead = k in g.dead or None in got
        where = (render(tree), str(x), str([walk(x) for walk in walks]))
        if not all(_lane_holds(t, var, ref, x_ref, g.bits) for t in trees):
            assert dead, where
            continue
        scales = [rounding_error_scale(t, var, ref, x_ref, unit, floor) for t in trees]
        if None in scales:
            # beyond first order a value below 2**(P - F) carries too few bits:
            # the lane may die (a constant 1e-50 is 0 at scale F), and has no bound
            continue
        assert not dead, where
        for pair, t, scale in zip(got, trees, scales):
            value = reference_fn(t, var, ref, complex_mode=True)(x_ref)
            err = abs(ref.make_mpc(exact(*pair)._mpc_) - value)
            assert err <= LANE_ULPS * unit * scale, where + (render(t), str(err / (unit * scale)))


@pytest.mark.parametrize("complex_mode", [False, True], ids=["real", "complex"])
def test_jet_matches_reference_on_random_trees(complex_mode):
    p = Precision(40)
    rng = random.Random(2718)
    for _ in range(80):
        tree = _random_tree(rng, rng.randint(1, 6))
        assert_jet_matches_reference(tree, _points(p, complex_mode), p, complex_mode)
        if complex_mode:
            assert_lanes_match_reference(tree, _points(p, complex_mode), p)


@SETTINGS
@given(trees_over(["x"]))
def test_jet_matches_reference_on_generated_trees(tree):
    p = Precision(30)
    for complex_mode in (False, True):
        assert_jet_matches_reference(tree, _points(p, complex_mode), p, complex_mode)
    assert_lanes_match_reference(tree, _points(p, True), p)


@pytest.mark.parametrize("text, x, want_f_nan, want_d_nan", [
    ("sqrt(x)", "-4", True, True),
    ("log(x)", "-2", True, False),      # f' = 1/x needs no log
    ("x^0.5", "-1", True, True),
    ("1/x", "0", True, True),
    ("sqrt(x)", "0", False, True),      # f = 0; f' = 1/(2*sqrt(0)) divides by zero
    ("log(x)", "0", False, True),       # f = -inf; f' = 1/0
    ("x + 1/0", "2", True, False),      # 1/0 folds at the binding; f' = 1 does not read it
    # real log's edges, each against the walk: NaN below zero and at NaN,
    # -inf at 0 (above), +inf at +inf
    ("log(x)", "-1", True, False),
    ("log(x)", "-inf", True, False),    # f' = 1/x = 0
    ("log(x)", "nan", True, True),
    ("log(x)", "inf", False, False),
])
def test_jet_real_domain_nan_components(text, x, want_f_nan, want_d_nan):
    p = Precision(30)
    tree = parse(text)
    assert_jet_matches_reference(tree, [p.real(x)], p, complex_mode=False)
    f, d = mp_jet(tree, "x", p)(p.real(x))
    assert (p.ctx.isnan(f), p.ctx.isnan(d)) == (want_f_nan, want_d_nan)


def test_jet_division_by_zero_makes_the_whole_complex_component_nan():
    # as in the walk, where 1/0 raises; mpmath itself gives 1 for an mpc NaN^0
    p = Precision(30)
    tree = parse("(1/x)^(x-x)")
    assert_jet_matches_reference(tree, [p.cplx(0)], p, complex_mode=True)
    assert_lanes_match_reference(tree, [p.cplx(0)], p)
    f, _ = mp_jet(tree, "x", p, complex_mode=True)(p.cplx(0))
    assert p.ctx.isnan(f)


def test_a_failed_slot_fails_every_step_that_reads_it():
    # 1/x fails at 0, and so does its power by x - x, which mpmath alone
    # would take to 1 (an mpc NaN**0): under both mpmath lowerings and on lanes
    p = Precision(30)
    tape = compile_tape("(1/x)^(x-x)")
    for complex_mode, x in ((False, p.real(0)), (True, p.cplx(0))):
        f, _ = lower(tape, mp_lowering(p.ctx, complex_mode))(x)
        assert p.ctx.isnan(f), complex_mode
    g = basins._Scale(p.ctx.prec + GUARD_BITS)
    lower(tape, basins._lanes_lowering(p.ctx, g))(basins._Lanes([0], [0], g))
    assert g.dead == {0}


def test_a_power_by_an_exact_zero_exponent_is_lanes_of_one():
    # x^(1/2-1/2) is a pow step by the integer 0: its ones are lanes, so the
    # sum of two such steps adds and a power of one multiplies
    p = Precision(34)
    for text in ("(x^(1/2-1/2))^3 + x", "x^(1/2-1/2) + x^(1/2-1/2) + x"):
        assert_lanes_match_reference(parse(text), _points(p, True), p)


def test_jet_power_of_an_infinite_complex_value_is_mpmaths_power():
    # log(0) = -inf: ** keeps (-inf)^3 real, where (-inf)^2 * (-inf) as mpc
    # values would get a NaN imaginary part
    p = Precision(30)
    tree = parse("log(x)^3")
    assert_jet_matches_reference(tree, [p.cplx(0)], p, complex_mode=True)
    assert_lanes_match_reference(tree, [p.cplx(0)], p)
    f, _ = mp_jet(tree, "x", p, complex_mode=True)(p.cplx(0))
    assert f == p.cplx("-inf")


# the pow step by a folded integer n, 3 <= |n| <= 20: binary powering for a
# finite complex base, mpmath's ** for everything else
_INT_EXPONENTS = [n for k in range(3, 21) for n in (k, -k)]


def _power_or_raise(fn, a, b):
    """fn(a, b) as raw tuples, or ZeroDivisionError's class where it divides by zero."""
    try:
        r = fn(a, b)
    except ZeroDivisionError as exc:
        return type(exc)
    return r._mpc_ if hasattr(r, "_mpc_") else r._mpf_


@pytest.mark.parametrize("digits", [34, 1000])
def test_complex_integer_powers_match_the_reference(digits):
    # at 1000 digits the walk's ** goes through log and exp; the jet does not
    p = Precision(digits)
    for n in _INT_EXPONENTS:
        assert_jet_matches_reference(parse(f"z^{n}"), _points(p, True), p, complex_mode=True)


def test_complex_integer_power_step_has_the_bits_of_mpmaths_power_at_40_digits():
    # below mpmath's exact-power cutoff ** rounds the exact power once
    p = Precision(40)
    ops = mp_lowering(p.ctx, complex_mode=True)
    for n in _INT_EXPONENTS:
        b = p.ctx.mpf(n)
        for z in _points(p, True):
            assert (_power_or_raise(ops["pow"](n), z, b)
                    == _power_or_raise(lambda u, v: u ** v, z, b)), (n, z)


def test_mp_lowering_is_read_only():
    # it is cached per context: an edit would reroute every later lowering there
    for complex_mode in (False, True):
        ops = mp_lowering(Precision(1000).ctx, complex_mode)
        with pytest.raises(TypeError):
            ops["exp"] = ops["log"]
        assert mp_lowering(Precision(1000).ctx, complex_mode) is ops


@pytest.mark.parametrize("ftext, x0, digits", [
    ("(x^2+x)*exp(-x)-1/3", "2.0", 1000),        # the exp example of A2 and A3
    ("(x^2+x)*exp(-x)-1/3", "2.0", 1624),        # and of A4
    ("x - 0.083*sin(x) - 1", "1", 1000),
    ("cos(x) - x", "1", 1000),
    ("log(x)-1", "2.5", 1000),
    ("log(x)-1", "2.5", 1624),
    ("x*log(x)-2", "2", 1000),
    ("x*log(x)-2", "2", 1624)])
def test_fixed_point_exp_and_cos_sin_give_the_walks_bits(ftext, x0, digits):
    # on every iterate of the solve and the usual points, (f, f') of the real
    # jet, whose exp, cos/sin and log are mpscalar's kernels, equal the walk's
    p = Precision(digits)
    trace = solve_expr(ftext, p.real(x0), SolveConfig(precision=p, max_iter=9))
    points = [r.x for r in trace.records] + _points(p, False) + [p.real("-40.25"), p.real("1e-30")]
    assert_jet_matches_reference(parse(ftext), points, p, complex_mode=False, ulps=0)


def test_real_integer_powers_are_mpmaths_power():
    # real mode, and real (folded constant) values in complex mode, keep **
    p = Precision(1000)
    for complex_mode in (False, True):
        ops = mp_lowering(p.ctx, complex_mode)
        for n in _INT_EXPONENTS:
            b = p.ctx.mpf(n)
            for x in _points(p, False) + [p.real("-1.3"), p.real("0.37")]:
                assert (_power_or_raise(ops["pow"](n), x, b)
                        == _power_or_raise(lambda u, v: u ** v, x, b)), (complex_mode, n, x)


def test_lanes_lowering_falls_back_to_mpmath_per_lane():
    # sqrt and x^0.5 have no lanes form; exp and cos of arguments past the
    # fixed-point range, and integer powers past 2**16, go to mpmath one lane
    # at a time; a negative integer power stays on lanes and divides by zero
    # at 0; exp(log(x)) dies at 0, where log gives -inf, and only there
    p = Precision(34)
    for text in ("exp(log(x))", "sqrt(x) + x^0.5", "exp(x*3000)", "cos(x*3000)", "x^(-2)",
                 "x^100000"):
        assert_lanes_match_reference(parse(text), _points(p, True), p)
    g = basins._Scale(p.ctx.prec + GUARD_BITS)
    f, _ = lower(compile_tape("exp(log(x))"), basins._lanes_lowering(p.ctx, g))(
        basins._Lanes([0, 1 << g.F], [0, 0], g))
    assert g.dead == {0} and f.re[1] == 1 << g.F


_A8_WINDOWS = {
    "kepler": basins.BasinSpec("z - 0.083*sin(z) - 1", re_range=(-30.5, -29.5),
                               im_range=(-17.5, -16.5), width=12, height=12),
    "cube": basins.BasinSpec("z^3-1", width=12, height=12),
}


def _a8_centers(spec):
    res, ims = spec.grid()
    return [spec.precision.ctx.mpc(re, im) for im in ims for re in res]


def test_jet_matches_reference_at_every_a8_window_pixel_center():
    for name, ulps in (("kepler", 0), ("cube", JET_ULPS)):    # Kepler has no shared power
        spec = _A8_WINDOWS[name]
        tree, p = parse(spec.ftext), spec.precision
        assert_jet_matches_reference(tree, _a8_centers(spec), p, complex_mode=True, ulps=ulps)
        assert_lanes_match_reference(tree, _a8_centers(spec), p)


def _swap_cos_sin(lowering):
    cos_sin = lowering["cos_sin"]
    return {**lowering, "cos_sin": lambda arg: (lambda fn: lambda a, b: fn(a, b)[::-1])(cos_sin(arg))}


def _swallow_division_by_zero(lowering, ctx):
    """div gives a NaN instead of raising ZeroDivisionError, so the failure never reaches lower."""
    def div(arg):
        fn = lowering["div"](arg)

        def swallowing(a, b):
            try:
                return fn(a, b)
            except ZeroDivisionError:
                return ctx.mpc(ctx.nan, ctx.nan)
        return swallowing
    return {**lowering, "div": div}


def _forget_dead_lanes(lowering):
    """Lanes keep their failures in the scale's dead set as well: each op forgets them."""
    def mutated(ctx, g):
        ops = lowering(ctx, g)

        def forgetting(make):
            return lambda arg: (lambda fn: lambda a, b: (fn(a, b), g.dead.clear())[0])(make(arg))
        return {op: v if op in ("fold", "const") else forgetting(v) for op, v in ops.items()}
    return mutated


@pytest.mark.parametrize("lowering", ["mpmath", "lanes"])
@pytest.mark.parametrize("mutation", ["swap_cos_sin", "swallow_failure"])
def test_a_mutated_lowering_fails_its_reference_check(lowering, mutation):
    if mutation == "swap_cos_sin":
        spec = _A8_WINDOWS["kepler"]
        tree, p, points = parse(spec.ftext), spec.precision, _a8_centers(spec)
    else:
        tree, p = parse("(1/x)^(x-x)"), Precision(30)
        points = [p.cplx(0)]
    tape = build_tape(tree, _var(tree))
    if lowering == "mpmath":
        ops = mp_lowering(p.ctx, complex_mode=True)
        ops = _swap_cos_sin(ops) if mutation == "swap_cos_sin" else _swallow_division_by_zero(ops, p.ctx)
        with pytest.raises(AssertionError):
            assert_jet_matches_reference(tree, points, p, True, jet=lower(tape, ops))
    else:
        # a lane's failure never reaches lower; it is dropped where lanes keep it
        if mutation == "swap_cos_sin":
            mutated = lambda ctx, g: _swap_cos_sin(basins._lanes_lowering(ctx, g))
        else:
            mutated = _forget_dead_lanes(basins._lanes_lowering)
        with pytest.raises(AssertionError):
            assert_lanes_match_reference(tree, points, p, tape, lowering=mutated)


# ---------------------------------------------------------------------------
# one tape, bound at any precision

_ANY_PRECISION_TEXT = "x^3 - 0.083*sin(x) + pi/3 - exp(1/7)"


def _raw(v):
    return v._mpc_ if hasattr(v, "_mpc_") else v._mpf_


@pytest.mark.parametrize("complex_mode", [False, True], ids=["real", "complex"])
def test_one_tape_binds_at_any_precision(complex_mode):
    # compiled once; each binding matches the walk and a fresh compile at its own precision
    tree, tape = parse(_ANY_PRECISION_TEXT), compile_tape(_ANY_PRECISION_TEXT)
    for digits in (40, 1000, 16000):
        p = Precision(digits)
        jet = lower(tape, mp_lowering(p.ctx, complex_mode))
        points = _points(p, complex_mode)[:3]
        assert_jet_matches_reference(tree, points, p, complex_mode, jet=jet)
        fresh = compile_pair(_ANY_PRECISION_TEXT, p, complex_mode)
        for x in points:
            assert [_raw(v) for v in jet(x)] == [_raw(v) for v in fresh(x)], (digits, x)
    if complex_mode:
        p = Precision(34)
        assert_lanes_match_reference(tree, _points(p, True), p, tape)


def test_constants_fold_at_the_binding_precision():
    tape = compile_tape("x + 1/7 + pi")
    for digits in (40, 1000, 16000):
        p = Precision(digits)
        f, d = lower(tape, mp_lowering(p.ctx))(p.real(0))
        assert f == p.real(1) / 7 + p.ctx.pi and d == 1, digits


def _pow_args(text, p, complex_mode):
    """The args that binding ``text``'s tape at ``p`` hands to its pow steps and folds."""
    ops, seen = mp_lowering(p.ctx, complex_mode), []
    lower(compile_tape(text), {**ops, "pow": lambda n: seen.append(n) or ops["pow"](n)})
    return seen


@pytest.mark.parametrize("text, args", [
    ("x^(3+1e-50)-2", [None, None]),    # 3 at 40 digits, but not an integer
    ("x^(6/2)", [2, 3]),                # f' = 6/2 * x^(6/2 - 1) comes first
    ("x^(2*1.5)", [2, 3]),
    ("x^3.0", [2, 3]),
    ("x^(-(9/3))", [-4, -3]),
    ("x^1e100000000", [None, None]),    # past the exact bound: no 10**100000000 is built
    ("x^(pi-pi+3)", [None, None]),
    ("2^(3^2)", [2, None]),             # 3^2 folds first; a power is no exact fold
])
def test_integer_exponents_are_decided_exactly_at_every_precision(text, args):
    for digits in (40, 100, 1000):
        for complex_mode in (False, True):
            assert _pow_args(text, Precision(digits), complex_mode) == args, (digits, complex_mode)


# an exponent of magnitude 2**1024 or more overflows: mpmath's working
# precision for a power grows with the exponent's bits (11 s for 0.3**1e3000)
@pytest.mark.parametrize("text", ["x^(1e3000)-1", "x^(1e100000)-1", "x^(2^1030)", "2^(1e400*x)-1"])
@pytest.mark.parametrize("complex_mode", [False, True], ids=["real", "complex"])
def test_a_power_by_a_huge_exponent_is_nan(text, complex_mode):
    p = Precision(30)
    tree, points = parse(text), [x for x in _points(p, complex_mode) if x != 0]
    assert_jet_matches_reference(tree, points, p, complex_mode)
    if complex_mode:
        assert_lanes_match_reference(tree, points, p)
    assert all(p.ctx.isnan(v) for x in points for v in mp_jet(tree, "x", p, complex_mode)(x))


def test_the_exponent_bound_is_two_to_the_1024():
    ctx = Precision(30).ctx
    edge = ctx.mpf(2) ** 1024
    for complex_mode in (False, True):
        pow_ = mp_lowering(ctx, complex_mode)["pow"](None)
        assert pow_(ctx.mpf(1), edge * (1 - ctx.mpf(2) ** -60)) == 1
        for b in (edge, -edge, ctx.mpc(1, edge)):
            with pytest.raises(OverflowError):
                pow_(ctx.mpf(1), b)
        assert ctx.isnan(pow_(ctx.mpf(1), ctx.nan))


@pytest.mark.parametrize("complex_mode", [False, True], ids=["real", "complex"])
def test_a_near_integer_exponent_takes_the_walks_power(complex_mode):
    # at 40 digits 3+1e-50 rounds to 3; the walk's ** of it and the tape's agree bit for bit
    p = Precision(40)
    assert_jet_matches_reference(parse("x^(3+1e-50)-2"), _points(p, complex_mode), p,
                                 complex_mode, ulps=0)
