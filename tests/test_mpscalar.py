import math
import os
import random
import re
import subprocess
import sys
import time
from decimal import ROUND_HALF_UP, Decimal, localcontext

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext
from mpmath.libmp import (fnan, fninf, finf, from_int, from_man_exp, fzero, mpc_abs, mpf_abs,
                          mpf_cos_sin, mpf_exp, mpf_ln2, mpf_log, mpf_mul, mpf_pi, mpf_shift,
                          round_ceiling, round_floor, round_nearest)

from iciroot import mpscalar
from iciroot.expr import compile_fn, parse
from iciroot.mpscalar import (Precision, is_finite, log10_abs, log10_abs_text, parse_complex,
                              parse_real, to_decimal)
from oracles import reference_atan_table, reference_ln_table
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
    assert not p.ctx.isnan(v)


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


def _long_literal(rng):
    """A decimal literal of 700 to 1500 digits, with exponents for both branches of from_str."""
    digits = str(rng.randrange(10 ** 699, 10 ** rng.randint(700, 1500)))
    point = rng.randint(0, len(digits))
    zeros = "0" * rng.randint(0, 3)
    body = rng.choice(["", "-", "+"]) + digits[:point] + "." + digits[point:] + zeros
    exp = rng.choice([rng.randint(-2000, -401), rng.randint(-400, 400), rng.randint(401, 2000)])
    return f"{body}e{exp + len(digits) - point}"


@pytest.mark.parametrize("digits", [50, 1000, 4000])
def test_long_literals_are_read_and_written_in_parts_to_the_same_bits(monkeypatch, digits):
    # with the int <-> str digit limit lowered to 640 (the least Python
    # allows), texts Python still converts whole take the part-wise paths
    p = Precision(digits)
    rng = random.Random(digits)
    texts = [_long_literal(rng) for _ in range(40)]
    values = [p.ctx.mpf(t) for t in texts]
    printed = [to_decimal(v) for v in values]
    monkeypatch.setattr(mpscalar, "_int_digit_limit", lambda: 640)
    for text, value, shown in zip(texts, values, printed):
        assert parse_real(text, p)._mpf_ == value._mpf_
        assert to_decimal(value) == shown
    with pytest.raises(ValueError, match="invalid real literal"):
        parse_real("1" * 700 + "x", p)


_DIGIT_RUN = st.text("0123456789", max_size=25)


@st.composite
def _decimal_literals(draw):
    """Signed decimal literals with bare leading or trailing dots and exponents; some past 4300 digits."""
    whole = draw(_DIGIT_RUN) + "7" * draw(st.sampled_from([0, 0, 0, 4400]))
    point = draw(st.sampled_from(["", "."]))
    frac = draw(_DIGIT_RUN) if point else ""
    assume(whole or frac)
    exp = draw(st.one_of(st.just(""), st.builds("{}{}{}".format, st.sampled_from("eE"),
                                                    st.sampled_from(["", "+", "-"]),
                                                    st.integers(0, 999))))
    return draw(st.sampled_from(["", "-", "+"])) + whole + point + frac + exp


@settings(max_examples=200, deadline=None)
@given(_decimal_literals(), st.sampled_from([10, 34, 1000]))
def test_every_reader_of_decimal_text_gives_the_same_bits(text, digits):
    p = Precision(digits)
    want = parse_real(text, p)._mpf_
    assert p.real(text)._mpf_ == want
    assert compile_fn(parse(text), "x", p)(p.real(0))._mpf_ == want
    sign, body = ("", text) if text[0] not in "+-" else (text[0], text[1:])
    if len(body) <= 4300:
        assert p.ctx.mpf(sign + "0" + body)._mpf_ == want      # mpmath's own reader


@pytest.mark.parametrize("lead", ["", "7" * 4400], ids=["short", "past-4300"])
def test_parse_real_takes_one_grammar_at_every_length(lead):
    # mpmath's reader (and float) take underscores, fractions and more; the
    # one decimal grammar takes none of them, short or long
    p = Precision(30)
    for text in ("1_0", "1/3", "1e", "1..2", "1e5.0", "1 0", "1l", "1j", "1e+-3"):
        with pytest.raises(ValueError, match="invalid real literal"):
            parse_real(lead + text, p)
    for text in ("", ".", ".e5", "e5", "+", "--1", "0x10", "infinity", "+nan", "inf1"):
        with pytest.raises(ValueError, match="invalid real literal"):
            parse_real(text, p)
    assert parse_real(lead + "5.", p) == parse_real(lead + "5e0", p) == parse_real(lead + "5", p)
    for text, want in ((" INF ", p.inf), ("-Inf", -p.inf), ("+inf", p.inf), ("1E3", 1000),
                       ("-.5", p.real("-0.5")), ("\u0661\u0662", 12)):
        assert parse_real(text, p) == want
    assert p.ctx.isnan(parse_real("NaN", p))


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
    assert p.ctx.isnan(p.nan + 1)
    assert p.ctx.isnan(p.inf - p.inf)
    assert not is_finite(p.inf * 2)
    assert p.ctx.isnan(p.nan * p.real(3))


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
    ("+2i", ("0", "2")),
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
    with pytest.raises(ValueError):      # the grammar's NaN has no sign
        parse_complex("-nani", p)


# The text scans that parse_scalar and parse_complex made before str.rfind
# and str.endswith took them over, kept as references (with the later rule
# that a leading '+' of the imaginary part, at a split or not, is dropped).

_REF_IMAG_SUFFIX = re.compile(r"[ij]\s*$")


def _ref_sign_split(body):
    """The split index by a backward scan of each character."""
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            return k
    return -1


def _ref_parse_complex(text, p):
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if not _REF_IMAG_SUFFIX.search(s):
        return p.cplx(parse_real(s, p))
    body = s[:-1]
    split = _ref_sign_split(body)
    re_part, im_part = ("0", body) if split == -1 else (body[:split], body[split:])
    im_part = im_part.removeprefix("+")
    im_part = {"": "1", "-": "-1"}.get(im_part, im_part)
    return p.cplx(parse_real(re_part, p), parse_real(im_part, p))


def _ref_parse_scalar(text, p):
    return _ref_parse_complex(text, p) if _REF_IMAG_SUFFIX.search(text) else parse_real(text, p)


def _outcome(read, text, p):
    """The raw parts of what ``read`` returns, or the type and text of its error."""
    try:
        v = read(text, p)
    except ValueError as exc:
        return type(exc), str(exc)
    return v._mpc_ if hasattr(v, "_mpc_") else v._mpf_


_SCAN_TEXT = st.builds(
    lambda body, newline: body + newline,
    st.one_of(st.text(alphabet="0123456789.eE+-ij \t", max_size=30),
              st.lists(st.sampled_from(["1", "07", "2.5", ".", "e", "E", "e-3", "E+12", "+", "-",
                                        "i", "j", " ", "\t"]), max_size=10).map("".join)),
    st.sampled_from(["", "\n"]))


@settings(max_examples=500, deadline=None)
@given(_SCAN_TEXT)
def test_text_scans_agree_with_their_per_character_references(text):
    p = Precision(30)
    assert mpscalar._sign_split(text) == _ref_sign_split(text)
    assert mpscalar._imaginary(text) == bool(_REF_IMAG_SUFFIX.search(text))
    assert _outcome(parse_complex, text, p) == _outcome(_ref_parse_complex, text, p)
    assert _outcome(mpscalar.parse_scalar, text, p) == _outcome(_ref_parse_scalar, text, p)


def test_text_scans_agree_on_1000_digit_values():
    p = Precision(1000)
    z = p.cplx(p.ctx.pi * 10 ** 20, -p.ctx.e / 10 ** 30)
    for w in (z, z.conjugate(), -z, p.cplx(0, -1), p.cplx(p.ctx.pi / 10 ** 7, 0)):
        text = to_decimal(w)
        assert mpscalar._sign_split(text[:-1]) == _ref_sign_split(text[:-1]) > 0
        assert _outcome(parse_complex, text, p) == _outcome(_ref_parse_complex, text, p)
    run = "1e+2e-" * 50_000
    assert mpscalar._sign_split(run) == _ref_sign_split(run) == -1


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


def test_to_decimal_far_from_one_agrees_with_the_exact_path(monkeypatch):
    # past a few thousand decimal places the digits come from an enclosure;
    # up to decimal exponents of about 1e5 the integer path still finishes
    rng = random.Random(12)
    cases = []
    for _ in range(40):
        digits = rng.choice([1, 2, 6, 12, 34, 100, 1000])
        prec = rng.choice([53, 145, 3354])
        e10 = rng.choice([-1, 1]) * rng.randint(8000, 100_000)
        man = rng.getrandbits(prec) | (1 << (prec - 1)) | 1
        cases.append((from_man_exp(man, math.floor(e10 * mpscalar.LOG2_10) - prec), digits))
        # next to a half-way point, so that the enclosure at print precision
        # straddles it and the precision has to grow
        q = rng.randrange(10 ** (digits - 1), 10 ** digits)
        ctx = MPContext()
        ctx.prec = 4 * math.ceil(digits * mpscalar.LOG2_10) + 200
        cases.append((ctx.mpf(f"{(2 * q + 1) * 5}e{e10 - digits}")._mpf_, digits))
    calls = []
    bracketed = mpscalar._scaled_bracketed
    monkeypatch.setattr(mpscalar, "_scaled_bracketed", lambda *a: calls.append(a) or bracketed(*a))
    fast = [to_decimal(_MP.make_mpf(raw), digits) for raw, digits in cases]
    assert len(calls) >= len(cases)
    monkeypatch.setattr(mpscalar, "_EXACT_SHIFT", math.inf)
    assert [to_decimal(_MP.make_mpf(raw), digits) for raw, digits in cases] == fast


def test_to_decimal_of_a_long_tie_far_from_one_is_exact():
    # man * 2**-5501 times 10**5500 is a tie 4000 digits long, 5500 places from one
    man = (2 * 10 ** 3999 // 5 ** 5500 + 1) | 1
    raw = from_man_exp(man, -5501)
    assert Decimal(to_decimal(_MP.make_mpf(raw), 4000)) == _correctly_rounded(raw, 4000)


@pytest.mark.parametrize("value, text", [
    ("1.5e1000000", "1.5e+1000000"), ("-2.5e-3000000", "-2.5e-3000000"),
    ("1e400000000", "1.0e+400000000"), ("9.9999995e-123456789", "1.0e-123456788")])
def test_to_decimal_at_huge_exponents_is_quick(value, text):
    x = Precision(12).real(value)
    assert to_decimal(x, 6) == text


@pytest.mark.parametrize("exp", [2 ** 200, -2 ** 200, 2 ** 80, -2 ** 80, 2 ** 70, -2 ** 61],
                         ids=["2**200", "-2**200", "2**80", "-2**80", "2**70", "-2**61"])
def test_to_decimal_at_any_binary_exponent_has_mpmath_digits_and_reads_back(exp):
    x = _MP.make_mpf(from_man_exp(3, exp))
    start = time.perf_counter()
    text = to_decimal(x, 20)
    assert time.perf_counter() - start < 2
    assert text == mpmath.libmp.to_str(x._mpf_, 20)
    assert to_decimal(parse_real(text, Precision(20)), 20) == text


_SPECIAL_PARTS = {"zero": fzero, "inf": finf, "-inf": fninf, "nan": fnan}


@st.composite
def _printed_values(draw):
    """A real or complex value and a print digit count.

    Each part has a mantissa of 10 to 1000 digits and a binary exponent up
    to +-2**70, or is zero, +-inf or NaN.
    """
    def part():
        kind = draw(st.sampled_from(["finite"] * 3 + list(_SPECIAL_PARTS)))
        if kind != "finite":
            return _SPECIAL_PARTS[kind]
        bits = draw(st.integers(34, 3322))
        man = draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))
        exp = draw(st.one_of(st.integers(-2 ** 70, 2 ** 70), st.integers(-4000, 4000)))
        return from_man_exp(-man if draw(st.booleans()) else man, exp - bits)

    digits = draw(st.integers(10, 1000))
    if draw(st.booleans()):
        return _MP.make_mpc((part(), part())), digits, True
    return _MP.make_mpf(part()), digits, False


@settings(max_examples=200, deadline=None)
@given(_printed_values())
def test_every_printed_value_reads_back_to_its_text(case):
    value, digits, is_complex = case
    text = to_decimal(value, digits)
    back = (parse_complex if is_complex else mpscalar.parse_scalar)(text, Precision(digits))
    assert to_decimal(back, digits) == text


def test_a_complex_nan_reads_back():
    p = Precision(20)
    z = parse_complex("nan+nani", p)
    assert p.ctx.isnan(z.real) and p.ctx.isnan(z.imag)
    assert to_decimal(z) == "nan+nani"
    assert to_decimal(parse_complex("-inf-infi", p)) == "-inf-infi"
    # a lone '+' before the imaginary part is dropped, as before "2i" and "infi"
    for text in ("nani", "+nani", "1+nani"):
        assert p.ctx.isnan(parse_complex(text, p).imag)


# ln_abs: the fixed-point kernel in its band, mpf_log outside it

def _ulps_from_log(got, a, prec):
    """|got - ln a| in ulp of a prec-bit result, against mpf_log taken 64 bits higher."""
    return _ulps(got, mpf_log(a, prec + 64, round_nearest), prec)


def _ulps(got, ref, prec):
    """|got - ref| in ulp of a prec-bit result; ``ref`` is taken at least 64 bits higher."""
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
    mpscalar._LN_MIN_PREC + 1, 20_000, mpscalar._LN_MAX_PREC])
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
    # every value, real or complex, is in the kernel's range
    assert calls["_ln_fixed_point"] == 2 * len(mags)


def test_ln_abs_kernel_keeps_relative_accuracy_next_to_one(monkeypatch):
    prec = Precision(1000).ctx.prec
    rng = random.Random(11)
    calls = _count_calls(monkeypatch, mpscalar, ["_ln_fixed_point"])
    K = mpscalar._LN_STEPS
    gaps = (1, 2, 10, 63, 64, 65, 66, K - 1, K, K + 1, K + 2, 200, 1329, prec - 2, prec + 10)
    for k in gaps:
        for sign in (1, -1):
            # |x| = 1 + sign * 2**-k * (1 + r), r in [0, 1): ln|x| has about k leading zeros
            a = from_man_exp((1 << (k + prec)) + sign * ((1 << prec) + rng.getrandbits(prec)),
                             -(k + prec))
            got = mpscalar.ln_abs(_MP.make_mpf(a), prec)
            assert _ulps(got, mpf_log(a, prec + 64 + k, round_nearest), prec) <= 1, (k, sign)
    assert calls["_ln_fixed_point"] == 2 * len(gaps)


@pytest.mark.parametrize("wp", [2816, 3584, 6912])
def test_ln_table_entries_are_within_two_units(wp):
    for k, entry in enumerate(mpscalar._ln_table(wp), 1):
        exact = mpf_log(from_man_exp((1 << k) + 1, -k), wp + 64, round_nearest)
        assert abs((entry << 64) - mpmath.libmp.to_fixed(exact, wp + 64)) < 2 << 64


@pytest.mark.parametrize("wp", [3584, 13568, 39936])
def test_tables_keep_the_bits_of_the_whole_reciprocal_list(wp):
    # the tables at 1000, 4000 and 12,000 digits: one, 12 and 97 blocks of
    # reciprocals; built uncached, so the test process keeps none of them
    assert mpscalar._ln_table.__wrapped__(wp) == reference_ln_table(wp)
    assert mpscalar._atan_table.__wrapped__(wp) == reference_atan_table(wp)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB")
def test_the_first_12000_digit_log_holds_few_reciprocals():
    # all w / 2 reciprocals at once raised a fresh interpreter's peak RSS by 54 MB
    code = ("import resource\n"
            "from iciroot import Precision, mpscalar\n"
            "p = Precision(12000)\n"
            "x = p.real('1.2345')\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "mpscalar.ln_abs(x, p.ctx.prec)\n"
            "assert mpscalar._ln_table.cache_info().currsize == 1\n"
            "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
            "assert grown < 10 * 1024, f'peak RSS grew by {grown} KiB'\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def _fallback_values(rng, prec):
    return ([from_man_exp(1, 1000), from_man_exp(1, -3001), from_man_exp(1, 0)]  # powers of two
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
    # nor at compile: the solve-1000 families' jets build the ln and atan
    # tables on their first evaluation
    code = ("import iciroot, iciroot.cli\n"
            "from iciroot import Precision, expr, mpscalar\n"
            "tables = (mpscalar._ln_table, mpscalar._atan_table)\n"
            "p = Precision(1000)\n"
            "jets = [expr.compile_pair(f, p, False)\n"
            "        for f in ('(x^2+x)*exp(-x)-1/3', 'x - 0.083*sin(x) - 1')]\n"
            "assert [t.cache_info().currsize for t in tables] == [0, 0]\n"
            "for jet in jets:\n"
            "    jet(p.real('2.5'))\n"
            "assert [t.cache_info().currsize for t in tables] == [1, 1]\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


# exp_real and cos_sin_real: fixed-point kernels in ln_abs's band, mpmath outside it

_KERNEL_PRECS = [Precision(d).ctx.prec for d in (750, 1000, 1624, 4000, 6000)]


def _check_exp_and_cos_sin(a, prec, same):
    """Both kernels within 1 ulp of mpmath taken 64 bits higher; counts mpmath's bits in ``same``."""
    x = _MP.make_mpf(a)
    e = mpscalar.exp_real(x, prec)
    c, s = mpscalar.cos_sin_real(x, prec)
    ref_c, ref_s = mpf_cos_sin(a, prec + 64, round_nearest)
    assert _ulps(e, mpf_exp(a, prec + 64, round_nearest), prec) <= 1, a
    assert _ulps(c, ref_c, prec) <= 1 and _ulps(s, ref_s, prec) <= 1, a
    same["exp"] += e == mpf_exp(a, prec, round_nearest)
    same["cos_sin"] += (c, s) == mpf_cos_sin(a, prec, round_nearest)


def _kernel_calls(monkeypatch):
    return _count_calls(monkeypatch, mpscalar, ["_exp_fixed_point", "_cos_sin_fixed_point"])


@pytest.mark.parametrize("prec", _KERNEL_PRECS)
def test_exp_and_cos_sin_kernels_are_within_one_ulp(monkeypatch, prec):
    rng = random.Random(prec)
    calls = _kernel_calls(monkeypatch)
    n = 24 if prec < 8000 else 6
    same = {"exp": 0, "cos_sin": 0}
    for i in range(n):
        mag = rng.randint(-8, 8) if i % 2 else rng.randint(-prec + 1, 64)
        sign, man, exp, bc = _random_raw(rng, prec + rng.randint(-64, 64), mag)
        _check_exp_and_cos_sin((rng.getrandbits(1), man, exp, bc), prec, same)
    assert calls == {"_exp_fixed_point": n, "_cos_sin_fixed_point": n}
    # mpmath's own bits, but for a value that lies next to a rounding midpoint
    assert same["exp"] >= n - 1 and same["cos_sin"] >= n - 1, same


def _near_multiples(constant, prec):
    """n * constant rounded down and up to prec bits, for a few n of either sign and size."""
    return [mpf_mul(from_int(n), constant, prec, rnd)
            for n in (1, -1, 2, 3, -4, 5, 1000, -2 ** 40 - 1) for rnd in (round_floor, round_ceiling)]


def test_exp_and_cos_sin_kernels_at_the_edges(monkeypatch):
    prec = Precision(1000).ctx.prec
    rng = random.Random(5)
    calls = _kernel_calls(monkeypatch)
    K = mpscalar._LN_STEPS
    mags = (-64, -65, -K, -K - 1, -1000, -prec + 1, 64)
    edges = ([_random_raw(rng, prec, mag) for mag in mags]
             + _near_multiples(mpf_ln2(2 * prec), prec)
             + _near_multiples(mpf_shift(mpf_pi(2 * prec), -1), prec))
    edges += [(1, man, exp, bc) for _, man, exp, bc in edges[:len(mags)]]
    same = {"exp": 0, "cos_sin": 0}
    for a in edges:
        _check_exp_and_cos_sin(a, prec, same)
    assert calls == {"_exp_fixed_point": len(edges), "_cos_sin_fixed_point": len(edges)}


def test_kernel_series_are_as_short_as_a_128_factor_table_makes_them(monkeypatch):
    # the tables take the argument below 2**-128, so at wp bits the atanh
    # series in u**2 < 2**-256 needs about wp / 256 terms and the Taylor
    # series about wp / 128, plus a block of m = 2 terms past the last
    # that counts; a shorter table, or a longer series, fails here
    K = 128
    x = Precision(1000).real("0.3")
    prec = x.context.prec
    wp = prec + mpscalar._LN_GUARD
    for kernel, ratio, terms in ((mpscalar.ln_abs, "_atanh_ratio", wp / (2 * K)),
                                 (mpscalar.exp_real, "_factorial_ratio", wp / K),
                                 (mpscalar.cos_sin_real, "_factorial_ratio", wp / K)):
        with monkeypatch.context() as m:
            calls = _count_calls(m, mpscalar, [ratio])
            kernel(x, prec)
        assert 0 < calls[ratio] <= terms + 2, (kernel.__name__, calls)


def test_exp_and_cos_sin_fall_back_to_mpmath_outside_the_kernel(monkeypatch):
    rng = random.Random(9)
    monkeypatch.setattr(mpscalar, "_exp_fixed_point", _fail_if_called)
    monkeypatch.setattr(mpscalar, "_cos_sin_fixed_point", _fail_if_called)

    def assert_mpmaths(a, prec):
        x = _MP.make_mpf(a)
        assert mpscalar.exp_real(x, prec) == mpf_exp(a, prec, round_nearest)
        assert mpscalar.cos_sin_real(x, prec) == mpf_cos_sin(a, prec, round_nearest)
    for prec in (Precision(1000).ctx.prec, mpscalar._LN_MIN_PREC + 1):
        # zero, NaN and the infinities, 2**64 <= |x| and |x| < 2**-prec
        for a in (fzero, fnan, finf, fninf, _random_raw(rng, prec, 65), _random_raw(rng, prec, 900),
                  _random_raw(rng, prec, -prec), (1, 1, -prec - 5, 1)):
            assert_mpmaths(a, prec)
    # precisions outside the band, on values the kernels would take inside it
    for prec in (60, mpscalar._LN_MIN_PREC, mpscalar._LN_MAX_PREC + 1):
        for mag in (-30, 0, 2):
            assert_mpmaths(_random_raw(rng, prec, mag), prec)
