import random

import pytest

from iciroot import basins
from iciroot.expr import (Bin, Call, ExprSyntaxError, Num, UnknownIdentifierError,
                          Var, compile_fn, differentiate, evaluate, free_variables,
                          parse, render)
from iciroot.mpscalar import Precision, is_nan
from iciroot.solve import SolveConfig, solve_expr

from oracles import central_diff, make_ctx


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
    assert evaluate(tree, p.real(3), p) == -9


def test_power_is_right_associative():
    p = Precision(30)
    assert evaluate(parse("2^3^2"), p.real(0), p) == 512


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse("2x")


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x + * 3")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("(x + 1")


def test_unknown_function_is_reported_with_offset():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("x + tan(x)")
    assert err.value.offset == 4


def test_pi_constant():
    p = Precision(40)
    assert abs(evaluate(parse("cos(pi)"), p.real(0), p) + 1) < 4 * p.eps


def test_eval_classic_cubic_points():
    p = Precision(40)
    tree = parse("x^3-2*x-5")
    assert evaluate(tree, p.real(1), p) == -6
    assert evaluate(tree, p.real(2), p) == -1


def test_eval_exp_example_against_direct_oracle():
    # direct high-precision evaluation: 6*exp(-2) - 1/3 at 60 digits
    ctx = make_ctx(60)
    expected = 6 * ctx.exp(ctx.mpf(-2)) - ctx.mpf(1) / 3
    assert str(expected).startswith("0.478678366086342818")
    p = Precision(50)
    got = evaluate(parse("(x^2+x)*exp(-x)-1/3"), p.real(2), p)
    assert abs(got - p.real(str(expected))) < abs(got) * p.eps


def test_differentiate_power_rule():
    p = Precision(40)
    d = differentiate(parse("x^3-2*x-5"), "x")
    for t in ("-2", "0.5", "3"):
        x = p.real(t)
        assert abs(evaluate(d, x, p) - (3 * x * x - 2)) <= 8 * p.eps * (1 + abs(x) ** 2)


def test_differentiate_kepler():
    p = Precision(40)
    d = differentiate(parse("x - 0.083*sin(x) - 1"), "x")
    for t in ("0.1", "1.2"):
        x = p.real(t)
        want = 1 - p.real("0.083") * p.ctx.cos(x)
        assert abs(evaluate(d, x, p) - want) <= 8 * p.eps


def test_differentiate_product_exp_matches_finite_difference():
    digits = 40
    p = Precision(digits)
    tree = parse("exp(-x)*(x^2+x)")
    d = differentiate(tree, "x")
    ctx = make_ctx(digits)
    h = ctx.mpf(10) ** (-digits // 2)
    for t in ("0.7", "2.0", "-1.3"):
        fd = central_diff(lambda v: (v * v + v) * ctx.exp(-v), ctx.mpf(t), h)
        got = evaluate(d, p.real(t), p)
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
        if is_nan(fd) or abs(fd) > 1e6:
            continue
        got = evaluate(d, p.real(str(x0)), p)
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
    a = evaluate(tree, lo.real("1.7"), lo)
    b = evaluate(tree, hi.real("1.7"), hi)
    assert abs(a - lo.real(b)) <= abs(a) * lo.ctx.mpf(10) ** (2 - lo.digits)


def test_real_domain_errors_become_nan():
    p = Precision(30)
    assert is_nan(evaluate(parse("sqrt(x)"), p.real(-4), p))
    assert is_nan(evaluate(parse("log(x)"), p.real(-2), p))
    assert is_nan(evaluate(parse("1/x"), p.real(0), p))
    assert is_nan(evaluate(parse("x^0.5"), p.real(-1), p))


def test_complex_mode_uses_principal_branches():
    p = Precision(30)
    z = evaluate(parse("sqrt(x)"), p.cplx(-4, 0), p)
    assert abs(z - p.cplx(0, 2)) < 4 * p.eps
    w = evaluate(parse("log(x)"), p.cplx(-1, 0), p)
    assert abs(w.imag - p.ctx.pi) < 4 * p.eps


def test_unbound_identifier_at_eval():
    p = Precision(30)
    with pytest.raises(UnknownIdentifierError):
        evaluate(parse("x + y"), p.real(1), p)
    with pytest.raises(UnknownIdentifierError):
        compile_fn(parse("y + 1"), "x", p)


_P34 = Precision(34)


@pytest.mark.parametrize("call", [
    lambda: evaluate(parse("x*y"), _P34.real(1), _P34),
    lambda: solve_expr("x*y", _P34.real(1), SolveConfig(precision=_P34)),
    lambda: basins.render(basins.BasinSpec("x*y", width=2, height=2)),
    lambda: basins.render(basins.BasinSpec("x*y", width=2, height=2, workers=2)),
    lambda: basins.line_scan(basins.BasinSpec("x*y"), (0, 1), 3),
], ids=["evaluate", "solve_expr", "render", "render_workers_2", "line_scan"])
def test_two_variables_rejected_at_every_entry_point(call):
    with pytest.raises(UnknownIdentifierError, match="more than one variable.*'y'"):
        call()


def test_literal_conversion_happens_at_evaluation_precision():
    # 0.083 parsed at 60 digits differs from the double-rounded value
    p = Precision(60)
    v = evaluate(parse("0.083"), p.real(0), p)
    assert v == p.real("0.083")
    assert abs(v - p.real(0.083)) > 0
