import os
import random
import subprocess
import sys
from decimal import ROUND_HALF_UP, Decimal, localcontext

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_man_exp, mpc_abs, mpf_abs, mpf_log, round_nearest

from iciroot import mpscalar
from iciroot.mpscalar import (Precision, UndefinedPhaseError, is_finite, is_nan,
                              log10_abs, log10_abs_text, parse_complex, parse_real, phase,
                              to_decimal)
from test_solve import _count_calls


def test_precision_rejects_fewer_than_ten_digits():
    with pytest.raises(ValueError):
        Precision(9)
    with pytest.raises(ValueError):
        Precision(0)
    Precision(10)


def test_contexts_are_independent_and_cached():
    a, b = Precision(40), Precision(1624)
    assert a.ctx is Precision(40).ctx
    assert a.ctx is not b.ctx
    assert a.ctx.prec >= 40 * 3.32 + 32
    assert b.ctx.prec >= 1624 * 3.32 + 32


def test_phase_axis_examples():
    p = Precision(40)
    assert phase(p.cplx(1, 0)) == 0
    assert abs(phase(p.cplx(0, 1)) - p.ctx.pi / 2) < p.eps
    # branch convention: arg(-1) = +pi, in (-pi, pi]
    assert abs(phase(p.cplx(-1, 0)) - p.ctx.pi) < p.eps
    assert phase(p.cplx(-1, 0)) > 0


def test_phase_of_zero_is_an_error():
    p = Precision(40)
    with pytest.raises(UndefinedPhaseError):
        phase(p.cplx(0, 0))
    with pytest.raises(UndefinedPhaseError):
        phase(p.real(0))


def test_log10_abs_examples():
    p = Precision(40)
    assert log10_abs(p.real(100)) == 2
    tiny = p.real("1e-594")
    assert abs(log10_abs(tiny) + 594) < p.eps
    z = p.cplx(3, 4)
    assert abs(log10_abs(z) - p.ctx.log(p.real(5), 10)) < p.eps


def test_log10_abs_of_zero_is_minus_infinity_sentinel():
    p = Precision(40)
    v = log10_abs(p.real(0))
    assert v == p.ctx.mpf("-inf")
    assert not is_nan(v)


def _count_full_logs(monkeypatch):
    """Count calls of the full-precision log10_abs, the bracket rule's fallback."""
    calls = []
    real = mpscalar.log10_abs

    def counting(x):
        calls.append(x)
        return real(x)
    monkeypatch.setattr(mpscalar, "log10_abs", counting)
    return calls


def _rounding_boundary(hp, near, digits):
    """A value of ``hp`` within 2**-210 of where the ``digits``-digit text changes near ``near``.

    Found by bisection on the printed text, so it is the printer's own
    boundary, whatever rounding rule the printer follows.
    """
    a, b = hp.mpf(near) * (1 - hp.mpf("1e-9")), hp.mpf(near) * (1 + hp.mpf("1e-9"))
    ta = to_decimal(a, digits)
    assert to_decimal(b, digits) != ta
    while abs(b - a) > hp.mpf(2) ** -210:
        mid = (a + b) / 2
        if to_decimal(mid, digits) == ta:
            a = mid
        else:
            b = mid
    return (a + b) / 2


# log10|y| values near the halfway point between two texts at 6 or 12 digits
_BOUNDARIES = [(6, "-12.34565"), (6, "0.0001234565"), (6, "-1234565"),
               (12, "-123.4567890125"), (12, "-0.3010299956645"), (12, "7.0000000000005")]


@pytest.mark.parametrize("digits, near", _BOUNDARIES)
def test_log10_text_at_a_rounding_boundary_falls_back_to_full_precision(
        monkeypatch, digits, near):
    # log10|y| lies within 2**-200 of a rounding boundary, far inside the
    # error bound of a log taken at print precision: only the full-precision
    # value decides the text, so the bracket rule must fall back to it
    p = Precision(100)
    hp = MPContext()
    hp.prec = p.ctx.prec + 100
    boundary = _rounding_boundary(hp, near, digits)
    calls = _count_full_logs(monkeypatch)
    texts = set()
    for side in (-1, 1):
        log10_y = boundary + side * hp.mpf(2) ** -201
        for y in (+p.real(hp.power(10, log10_y)),
                  p.ctx.mpc(0, 1) * p.real(-hp.power(10, log10_y))):
            full = log10_abs(y)
            calls.clear()
            assert log10_abs_text(y, digits) == to_decimal(full, digits)
            assert log10_abs_text(y, digits, negate=True) == to_decimal(-full, digits)
            assert len(calls) == 2
            texts.add(to_decimal(full, digits))
    assert len(texts) == 2      # the two sides of the boundary print differently


def test_log10_text_equals_full_precision_text_on_ordinary_values(monkeypatch):
    rng = random.Random(20261018)
    p = Precision(1000)
    calls = _count_full_logs(monkeypatch)
    for _ in range(60):
        mant = p.real(f"{rng.uniform(0.1, 10):.17f}")
        y = mant * p.real(10) ** rng.randint(-1000, 6)
        for v in (y, p.cplx(y, y * rng.uniform(-2, 2))):
            want = p.ctx.log(abs(v), 10)
            for digits in (6, 12):
                assert log10_abs_text(v, digits) == to_decimal(want, digits)
                assert log10_abs_text(v, digits, negate=True) == to_decimal(-want, digits)
    assert calls == []


@pytest.mark.parametrize("value, text, negated", [
    ("0", "-inf", "inf"), ("nan", "nan", "nan"), ("inf", "inf", "-inf"), ("1", "0.0", "0.0")])
def test_log10_text_of_special_values(value, text, negated):
    p = Precision(40)
    assert log10_abs_text(p.real(value), 12) == text
    assert log10_abs_text(p.real(value), 6, negate=True) == negated


def test_render_reparse_round_trip_within_one_ulp():
    rng = random.Random(20240811)
    for digits in (12, 40, 200):
        p = Precision(digits)
        for _ in range(40):
            x = p.real(rng.uniform(-1, 1)) * p.ctx.mpf(10) ** rng.randint(-30, 30)
            s = to_decimal(x, digits)
            back = parse_real(s, p)
            assert abs(back - x) <= abs(x) * p.eps


def test_recompute_at_higher_precision_agrees_through_lower_digits():
    lo, hi = Precision(30), Precision(90)

    def compute(p):
        x = p.real("1.75")
        return p.ctx.exp(p.ctx.sin(x)) + p.ctx.sqrt(x) / 3

    a, b = compute(lo), compute(hi)
    assert abs(lo.real(b) - a) < abs(a) * lo.ctx.mpf(10) ** (2 - lo.digits)


def test_sin_cos_identity_spot_checks():
    for digits in (20, 100):
        p = Precision(digits)
        for t in ("0.5", "1.25", "-3.1", "12.0"):
            x = p.real(t)
            r = p.ctx.sin(x) ** 2 + p.ctx.cos(x) ** 2 - 1
            assert abs(r) <= 4 * p.eps


def test_nan_and_infinity_propagate_through_arithmetic():
    p = Precision(40)
    assert is_nan(p.nan + 1)
    assert is_nan(p.inf - p.inf)
    assert not is_finite(p.inf * 2)
    assert is_nan(p.nan * p.real(3))


def test_scientific_notation_beyond_1e6():
    p = Precision(40)
    assert "e" in to_decimal(p.real("1.25e7"), 8)
    assert "e" in to_decimal(p.real("3e-9"), 8)
    assert "e" not in to_decimal(p.real("0.001"), 8)
    assert "e" not in to_decimal(p.real("999999"), 8)
    assert to_decimal(p.real("1.7383e-1622"), 5) == "1.7383e-1622"
    assert to_decimal(p.nan) == "nan"
    assert to_decimal(-p.inf) == "-inf"


def test_complex_rendering():
    p = Precision(30)
    assert to_decimal(p.cplx(1, -2), 5).endswith("i")
    assert "-" in to_decimal(p.cplx(1, -2), 5)
    assert to_decimal(p.cplx(0, 1), 5) == "0.0+1.0i"


@pytest.mark.parametrize("text,re_im", [
    ("1.5", ("1.5", "0")),
    ("-2", ("-2", "0")),
    ("1+2i", ("1", "2")),
    ("1.5-0.25j", ("1.5", "-0.25")),
    ("2i", ("0", "2")),
    ("-i", ("0", "-1")),
    ("i", ("0", "1")),
    ("3e-2+1e-3i", ("0.03", "0.001")),
])
def test_parse_complex_forms(text, re_im):
    p = Precision(30)
    z = parse_complex(text, p)
    assert z.real == p.real(re_im[0])
    assert z.imag == p.real(re_im[1])


def test_parse_complex_rejects_garbage():
    p = Precision(30)
    with pytest.raises(ValueError):
        parse_complex("", p)
    with pytest.raises(ValueError):
        parse_complex("1+2k", p)


# to_decimal: correct rounding, checked against the decimal module, which
# holds man * 2**exp exactly

def _exact_decimal(raw):
    sign, man, exp, _ = raw
    text = str(man << exp) if exp >= 0 else f"{man * 5 ** -exp}E{exp}"
    return Decimal(("-" if sign else "") + text)


def _correctly_rounded(raw, digits):
    with localcontext() as dec:
        dec.prec, dec.rounding = digits, ROUND_HALF_UP     # ties away from zero
        return +_exact_decimal(raw)


@pytest.mark.parametrize("value, digits, text", [
    ("-12.34565000000077", 6, "-12.3457"),      # mpmath's text is -12.3456
    ("0.0001234565000000001", 6, "0.000123457"),
    ("2.5", 1, "3.0"), ("-2.5", 1, "-3.0"), ("0.125", 2, "0.13"), ("0.5", 1, "0.5"),
    ("9.99999951", 7, "10.0"), ("-1.2345e-20", 4, "-1.235e-20"),
    ("125", 2, "130.0"), ("-2.5e7", 1, "-3.0e+7")])      # ties past the last integer digit
def test_to_decimal_rounds_correctly_at_half_way_points(value, digits, text):
    x = Precision(40).real(value)
    assert to_decimal(x, digits) == text
    assert Decimal(text) == _correctly_rounded(x._mpf_, digits)


@st.composite
def _values_and_digits(draw):
    """A raw mpf and a digit count; a third of the draws are exact ties, a third next to one."""
    kind = draw(st.sampled_from(["random", "tie", "near tie"]))
    if kind == "random":
        man, exp = draw(st.integers(1, 2 ** 240)), draw(st.integers(-6000, 6000))
        digits = draw(st.integers(1, 80))
    else:
        # odd / 2**t has t decimal places, the last a 5: a tie one digit short
        odd, t = 2 * draw(st.integers(0, 10 ** 15)) + 1, draw(st.integers(1, 60))
        digits = max(len(str(odd * 5 ** t)) - 1, 1)
        bits = draw(st.integers(0, 120))
        man, exp = odd << bits, -t - bits
        if kind == "near tie":
            man += draw(st.sampled_from([-1, 1]))
    return from_man_exp(-man if draw(st.booleans()) else man, exp), digits


@settings(max_examples=400, deadline=None)
@given(_values_and_digits())
def test_to_decimal_is_the_correctly_rounded_decimal(case):
    raw, digits = case
    x = Precision(40).ctx.make_mpf(raw)
    text = to_decimal(x, digits)
    assert Decimal(text) == _correctly_rounded(raw, digits)
    theirs = mpmath.nstr(x, digits, min_fixed=-6, max_fixed=6)
    if Decimal(theirs) == _correctly_rounded(raw, digits):
        assert text == theirs       # same layout wherever mpmath rounds right


# ln_abs: the fixed-point kernel in its band, mpf_log outside it

def _ulps_from_log(got, a, prec):
    """|got - ln a| in ulp of a prec-bit result, against mpf_log taken 64 bits higher."""
    ref = mpf_log(a, prec + 64, round_nearest)
    hp = MPContext()
    hp.prec = prec + 128
    ulp = hp.ldexp(1, ref[2] + ref[3] - prec)
    return abs(hp.make_mpf(got) - hp.make_mpf(ref)) / ulp


_MP = MPContext()      # make_mpf and make_mpc keep a raw value's bits


def _random_raw(rng, prec, mag):
    man = rng.getrandbits(prec) | (1 << (prec - 1)) | 1
    return from_man_exp(man, mag - prec)


@pytest.mark.parametrize("prec", [
    Precision(1000).ctx.prec, Precision(1624).ctx.prec, Precision(4000).ctx.prec,
    mpscalar._LN_MIN_PREC + 1, mpscalar._LN_MAX_PREC])
def test_ln_abs_kernel_is_within_one_ulp(monkeypatch, prec):
    rng = random.Random(prec)
    calls = _count_calls(monkeypatch, mpscalar, ["_ln_fixed_point"])
    n = 40 if prec < 8000 else 6
    mags = ([rng.randint(-10_000, 10_000) for _ in range(n - 9)]
            + [-10_000, -1, 2, 10_000, -3322, 40, 10_001, -123_456, -2 ** 40])
    for mag in mags:
        a = _random_raw(rng, prec + rng.randint(-64, 64), mag)
        got = mpscalar.ln_abs(_MP.make_mpf(a), prec)
        assert _ulps_from_log(got, a, prec) <= 1
        # a complex value takes the log of its modulus
        z = (a, _random_raw(rng, prec, mag - rng.randint(0, 3)))
        got = mpscalar.ln_abs(_MP.make_mpc(z), prec)
        assert _ulps_from_log(got, mpc_abs(z, prec, round_nearest), prec) <= 1
    # every real value is in the kernel's range; |z| may have crossed into 1/2 <= |z| < 2
    assert len(mags) < calls["_ln_fixed_point"] <= 2 * len(mags)


@pytest.mark.parametrize("wp", [2816, 3584, 6912])
def test_ln_table_entries_are_within_two_units(wp):
    for k, entry in enumerate(mpscalar._ln_table(wp), 1):
        exact = mpf_log(from_man_exp((1 << k) + 1, -k), wp + 64, round_nearest)
        assert abs((entry << 64) - mpmath.libmp.to_fixed(exact, wp + 64)) < 2 << 64


def _fallback_values(rng, prec):
    return ([_random_raw(rng, prec, 0), _random_raw(rng, prec, 1),   # [1/2, 1) and [1, 2)
             from_man_exp(1, 1000), from_man_exp(1, -3001), from_man_exp(1, 0)]  # powers of two
            + [mpmath.mpf(v)._mpf_ for v in ("0", "nan", "+inf", "-inf")])


def _fail_if_called(*args):
    raise AssertionError("the fixed-point kernel ran outside its band")


def test_ln_abs_falls_back_to_mpf_log_outside_the_kernel(monkeypatch):
    rng = random.Random(7)
    monkeypatch.setattr(mpscalar, "_ln_fixed_point", _fail_if_called)
    for prec in (Precision(1000).ctx.prec, mpscalar._LN_MIN_PREC + 1):
        for a in _fallback_values(rng, prec):
            want = mpf_log(mpf_abs(a), prec, round_nearest)
            assert mpscalar.ln_abs(_MP.make_mpf(a), prec) == want
    # precisions outside the band, on values the kernel would take inside it
    for prec in (60, mpscalar._LN_MIN_PREC, mpscalar._LN_MAX_PREC + 1):
        for mag in (-3000, -1, 2, 9000):
            a = _random_raw(rng, prec, mag)
            assert mpscalar.ln_abs(_MP.make_mpf(a), prec) == mpf_log(a, prec, round_nearest)


def test_ln_table_is_built_on_first_use_not_at_import():
    code = ("import iciroot, iciroot.cli\n"
            "from iciroot import mpscalar\n"
            "assert mpscalar._ln_table.cache_info().currsize == 0\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
