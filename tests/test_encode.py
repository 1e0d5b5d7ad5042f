"""Wire-format round trips and decimal rendering."""

import random
import sys
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtu import encode
from dtu.classify import c734_word, growth_rate
from dtu.encode import (decimal_str, fraction_str, golden_str, parse_fraction,
                        parse_golden, parse_seq, parse_surd, seq_str, surd_str)
from dtu.errors import InputError
from dtu.geval import LambdaKind, g_mediant, sample_farey
from dtu.golden import GoldenScalar
from dtu.surd import QuadraticSurd


def test_fraction_round_trip():
    for x in (Fraction(3), Fraction(-3), Fraction(2, 5), Fraction(-7, 12)):
        assert parse_fraction(fraction_str(x)) == x
    assert fraction_str(Fraction(15)) == "15"
    assert fraction_str(Fraction(2, 4)) == "1/2"
    with pytest.raises(ValueError):
        parse_fraction("1/0")
    with pytest.raises(ValueError):
        parse_fraction("a/b")


def test_golden_round_trip():
    cases = [GoldenScalar(7, -4), GoldenScalar(-1, 1), GoldenScalar(0, 1),
             GoldenScalar(Fraction(1, 2), Fraction(-3, 4)), GoldenScalar(5)]
    for g in cases:
        assert parse_golden(golden_str(g)) == g
    assert golden_str(GoldenScalar(7, -4)) == "7-4*phi"
    assert golden_str(GoldenScalar(-1, 1)) == "-1+1*phi"
    assert parse_golden("3/2") == GoldenScalar(Fraction(3, 2))
    with pytest.raises(ValueError):
        parse_golden("phi+phi")


def test_surd_round_trip():
    cases = [QuadraticSurd(15, 4, 1, 14), QuadraticSurd(-14, 4, 7, 14),
             QuadraticSurd(-1, 1, 2, 5), QuadraticSurd.from_fraction(Fraction(2, 3))]
    for s in cases:
        assert parse_surd(surd_str(s)) == s
    assert surd_str(QuadraticSurd(15, 4, 1, 14)) == "(15+4*sqrt(14))/1"
    with pytest.raises(ValueError):
        parse_surd("(1+2*sqrt(-3))/4")


def test_seq_round_trip():
    assert parse_seq(seq_str((7, 4))) == (7, 4)
    assert parse_seq("1,2,3") == (1, 2, 3)
    with pytest.raises(ValueError):
        parse_seq("1,0,2")
    with pytest.raises(ValueError):
        parse_seq("1,x")
    # an empty item is malformed wherever it sits; only "" is empty
    for text in ("7,,4", "7,4,", ",7", ",", " , "):
        with pytest.raises(ValueError, match="malformed quotient sequence"):
            parse_seq(text)
    assert parse_seq("") == () and parse_seq(seq_str(())) == ()
    assert parse_seq(" 7, 4 ") == (7, 4)


def test_seq_str_is_the_plain_join():
    # one-digit quotients take a byte translation; every other sequence
    # must read the same as the join of the quotients' decimal strings
    def join(seq):
        return ",".join(str(a) for a in seq)

    word = c734_word(8000, 24457)  # 48,914 quotients, all one digit
    assert seq_str(word) == join(word) and len(seq_str(word)) == 2 * len(word) - 1
    for seq in [(), (7,), (0,), (9,), (10,), (7, 10, 3), (12, 1), (1, 255),
                (1, 256), (48, 57), (3, 10 ** 30), (-1, 2), word + (10,)]:
        assert seq_str(seq) == join(seq), seq
    rng = random.Random(16)
    for _ in range(500):
        top = rng.choice([1, 9, 10, 58, 300, 10 ** 6])
        seq = tuple(rng.randint(0, top) for _ in range(rng.randint(0, 40)))
        assert seq_str(seq) == join(seq), seq


@contextmanager
def int_str_digits(limit):
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def test_int_str_is_str():
    # past _STR_BITS bits int_str splits n in halves through decimal; it must
    # read as str(n) on either side of that size and far beyond it
    rng = random.Random(17)
    sizes = [1, 2, 64, 1000, *range(encode._STR_BITS - 3, encode._STR_BITS + 4),
             2 * encode._STR_BITS + 1, 100_000, 250_001]
    with int_str_digits(0):
        for bits in sizes:
            top = 1 << (bits - 1)
            for n in (top, 2 * top - 1, top | rng.getrandbits(bits - 1),
                      10 ** (bits * 3 // 10)):
                assert encode.int_str(n) == str(n), bits
                assert encode.int_str(-n) == str(-n), bits
        assert encode.int_str(0) == "0"
        big = Fraction(3 ** 40_000, 7 ** 30_000)  # 63,399 and 84,220 bits
        assert fraction_str(big) == f"{big.numerator}/{big.denominator}"
        assert fraction_str(-big) == f"-{big.numerator}/{big.denominator}"
        assert golden_str(GoldenScalar(big, -big)) == \
            f"{fraction_str(big)}-{fraction_str(big)}*phi"
        for q in (5 ** 20_000, -(5 ** 20_000)):
            s = QuadraticSurd(-(3 ** 30_000), q, 7 ** 15_000, 2 ** 50_001 + 1)
            assert min(abs(s.p), abs(s.q), s.r, s.d).bit_length() > encode._STR_BITS
            sign = "+" if s.q > 0 else "-"
            assert surd_str(s) == f"({s.p}{sign}{abs(s.q)}*sqrt({s.d}))/{s.r}"


def test_int_str_keeps_the_int_str_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str limit")
    with int_str_digits(5000):
        assert encode.int_str(10 ** 4999) == str(10 ** 4999)
        for n in (10 ** 5000, 1 << 60_000):  # below and past _STR_BITS
            with pytest.raises(ValueError):
                encode.int_str(n)


@pytest.mark.parametrize("parse, text", [
    (parse_seq, "1_0,+3"), (parse_seq, "+7,4"), (parse_seq, "\u0663,4"),
    (parse_fraction, "+3"), (parse_fraction, "1_0/3"),
    (parse_fraction, "\u0663/\u0664"), (parse_fraction, "--3"),
    (parse_golden, "+1+1*phi"), (parse_golden, "1+\u0661*phi"),
    (parse_surd, "(+1+1*sqrt(5))/2"), (parse_surd, "(1+1*sqrt(\u0665))/2"),
    (parse_surd, "(1+1*sqrt(5))/0"),
])
def test_parsers_take_ascii_digits_and_a_leading_minus_only(parse, text):
    with pytest.raises(InputError):
        parse(text)


def test_decimal_renders_30_significant_digits():
    out = decimal_str(GoldenScalar(7, -4))
    mantissa = out.replace(".", "").lstrip("0").lstrip("-")
    assert len(mantissa) >= 30
    assert out.startswith("0.5278640450004206071816526625")
    assert decimal_str(Fraction(89)).startswith("89.0000")
    assert len(decimal_str(Fraction(89)).replace(".", "")) == 30
    # deterministic
    assert decimal_str(QuadraticSurd(15, 4, 1, 14)) == \
        decimal_str(QuadraticSurd(15, 4, 1, 14))


def _reference_decimal(p: int, q: int, r: int, d: int, k: int = 2000) -> str:
    """(p + q sqrt(d))/r rounded half-even to 30 significant digits, from a
    k-bit integer square root: the rendering decimal_str must give."""
    s = isqrt(q * q * d << (2 * k))  # |q| sqrt(d) 2^k, floored
    return _rounded(Fraction((p << k) + (s if q >= 0 else -s), r << k))


def _rounded(x: Fraction) -> str:
    """The rational x rounded half-even to 30 significant digits, exactly."""
    if x == 0:
        return "0." + "0" * 29
    mag = abs(x)
    e = len(str(mag.numerator)) - len(str(mag.denominator))
    while Fraction(10) ** e > mag:
        e -= 1
    while Fraction(10) ** (e + 1) <= mag:
        e += 1
    digits = round(mag / Fraction(10) ** (e - 29))  # round() is half-even
    if digits == 10 ** 30:
        digits, e = 10 ** 29, e + 1
    return str(Decimal((int(x < 0), tuple(map(int, str(digits))), e - 29)))


def _reference(x, k: int = 2000) -> str:
    if isinstance(x, QuadraticSurd):
        return _reference_decimal(x.p, x.q, x.r, x.d, k)
    if isinstance(x, Fraction):
        return _reference_decimal(x.numerator, 0, x.denominator, 1, k)
    u, v = x.a + Fraction(x.b, 2), Fraction(x.b, 2)  # x = u + v sqrt5
    r = u.denominator * v.denominator
    return _reference_decimal(int(u * r), int(v * r), r, 5, k)


def _significant_digits(text: str) -> int:
    return len(text.split("E")[0].lstrip("-").replace(".", "").lstrip("0"))


def _surd_cases() -> list:
    pell = [(1, 1)]  # p/q -> sqrt2, p - q sqrt2 = (1 - sqrt2)^n -> 0
    while len(pell) < 60:
        p, q = pell[-1]
        pell.append((p + 2 * q, p + q))
    return [QuadraticSurd(15, 4, 1, 14), QuadraticSurd(-14, 4, 7, 14),
            QuadraticSurd(3, -1, 2, 7 * 10 ** 40),
            QuadraticSurd(pell[-1][0], -pell[-1][1], 1, 2),
            QuadraticSurd(-pell[-1][0], pell[-1][1], 3, 2),
            QuadraticSurd.from_golden(GoldenScalar.phi_power(-301)),
            growth_rate(c734_word(2, 7)).value]


def test_decimal_is_the_correctly_rounded_value():
    cases = []
    # the rows of sample_farey(lam, 200) with x <= 1/140 or x >= 139/140,
    # by g_mediant (tiny values, and values 1 - tiny that round up to 1)
    edge = [Fraction(1, q) for q in range(140, 201)] + \
        [Fraction(q - 1, q) for q in range(140, 201)]
    for lam in LambdaKind:
        cases += [g_mediant(lam, x) for x in edge]
    cases += [GoldenScalar.phi_power(k) for k in range(-400, 401, 7)]
    for x in cases + _surd_cases():
        out = decimal_str(x)
        assert out == _reference(x), x
        assert _significant_digits(out) == 30 or x == 0, (x, out)
    assert decimal_str(GoldenScalar.phi_power(-300)) == \
        "2.01237042016878006617406661025E-63"
    assert decimal_str(g_mediant(LambdaKind.HALF, Fraction(101, 102))) == \
        "1.00000000000000000000000000000"


def _coefficient_bits(x) -> int:
    """Bits of the largest of the integers p, q, r, d of x = (p + q sqrt(d))/r."""
    parts = (x.p, x.q, x.r, x.d) if isinstance(x, QuadraticSurd) else x.surd_parts()
    return max(p.bit_length() for p in parts)


def _midpoint_cases() -> list:
    """Golden values with Fraction coefficients over 2, 3, 7 and 10^k; surds
    whose q/r has fewer bits than 1 (size < 0) or q < 0; and values whose
    largest coefficient has exactly _BIG_BITS and _BIG_BITS + 1 bits."""
    rng = random.Random(22)
    dens = [2, 3, 7] + [10 ** k for k in (1, 5, 20, 40)]
    cases = []
    for _ in range(300):
        da, db = rng.choice(dens), rng.choice(dens)
        a = Fraction(rng.randint(-da * 10 ** 6, da * 10 ** 6), da)
        b = Fraction(rng.choice([-1, 1]) * rng.randint(db, db * 10 ** 6), db)
        cases += [GoldenScalar(a, b),
                  GoldenScalar.phi_power(rng.randint(-60, 60)) * b]
    for _ in range(300):
        r = rng.randint(1, 10 ** 40)
        q = rng.choice([-1, 1]) * rng.randint(1, r)
        cases.append(QuadraticSurd(rng.randint(-r, r), q, r, rng.randint(2, 10 ** 6)))
    for n in (encode._BIG_BITS, encode._BIG_BITS + 1):
        cases += [QuadraticSurd((1 << n - 1) + 12345, -(1 << n - 3) - 7,
                                (1 << n - 2) + 3, 2),
                  GoldenScalar(Fraction(1, 2), Fraction((1 << n - 1) + 1, 2)),
                  GoldenScalar(Fraction(-(1 << n - 4) - (n - 4095), 3),
                               Fraction((1 << n - 4) + 3, 7))]
    return cases


def test_decimal_is_the_rounded_midpoint_of_bounds_200():
    # away from 0 the digits are those of (lo + hi)/2 for bounds(200)
    cases = _midpoint_cases()
    bits = [_coefficient_bits(x) for x in cases]
    assert bits.count(encode._BIG_BITS) == 3 and bits.count(encode._BIG_BITS + 1) == 3
    assert any(isinstance(x, QuadraticSurd) and x.q < 0
               and x.q.bit_length() < x.r.bit_length() for x in cases)
    with unlimited_int_str():
        for x in cases:
            lo, hi = x.bounds(200)
            mid = (lo + hi) / 2
            assert abs(mid) > Fraction(1, 2 ** 50), x
            assert decimal_str(x) == _rounded(mid), x


def test_decimal_below_2_to_the_minus_50_on_int_coefficients():
    # such values are rounded from an enclosure sized by encode._abs_floor,
    # which must divide their int coefficients exactly
    cases = [GoldenScalar.phi_power(-120), g_mediant(LambdaKind.TAU, Fraction(1, 200)),
             GoldenScalar.phi_power(-121) * -3, g_mediant(LambdaKind.PHI_INV,
                                                          Fraction(199, 200)) - 1]
    for x in cases:
        assert type(x.a) is int and type(x.b) is int, x
        lo, hi = x.bounds(64)
        assert -Fraction(1, 2 ** 50) < lo <= hi < Fraction(1, 2 ** 50), x
        assert type(encode._abs_floor(x)) is Fraction, x
        assert 0 < encode._abs_floor(x) < (x if x > 0 else -x), x
        assert decimal_str(x) == _reference(x), x
    assert decimal_str(GoldenScalar.phi_power(-120)) == \
        "8.34609204456396367080443149819E-26"


def _normalised_midpoint_decimal(value) -> str:
    """decimal_str below _BIG_BITS as it was with Fraction midpoints: the
    normalised (lo + hi)/2 of bounds(200), or of the enclosure sized by
    _abs_floor when the midpoint's bit lengths differ by -50 or less."""
    if isinstance(value, (GoldenScalar, QuadraticSurd)):
        lo, hi = value.bounds(200)
        approx = (lo + hi) / 2
        if lo != hi and (not approx or encode._exponent(approx) <= -50):
            lo, hi = value.bounds(150 - encode._exponent(encode._abs_floor(value)))
            approx = (lo + hi) / 2
    else:
        approx = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = 30
        dec = Decimal(approx.numerator) / Decimal(approx.denominator)
        if dec == 0:
            return "0." + "0" * 29
        return str(dec.quantize(Decimal(1).scaleb(dec.adjusted() - 29)))


def test_decimal_from_unreduced_midpoints_matches_normalised_ones():
    # +-phi^k for k = -70..-78 straddle |x| = 2^-50, where decimal_str
    # switches enclosures (phi^-72 is about 2^-49.97)
    cases = [s * GoldenScalar.phi_power(k) for k in range(-78, -69) for s in (1, -1)]
    rng = random.Random(41)
    for lam in (LambdaKind.PHI_INV, LambdaKind.TAU):
        rows = sample_farey(lam, 200)
        cases += [g for _, g in rng.sample(rows, 500)] + [rows[0][1], rows[-1][1]]
    cases += _surd_cases()
    cases += [Fraction(0), Fraction(-7, 3), Fraction(10 ** 40 + 1, 3 ** 90), 5]
    for x in cases:
        assert decimal_str(x) == _normalised_midpoint_decimal(x), x
    assert decimal_str(GoldenScalar.phi_power(-72)) == \
        _reference(GoldenScalar.phi_power(-72))


def test_decimal_of_big_coefficients_is_the_correctly_rounded_value():
    # past 4096 coefficient bits decimal_str rounds in integers; the
    # reference resolves |x| >= 2^-20000 at k = 24000
    pell = (1, 1)
    for _ in range(4000):
        pell = (pell[0] + 2 * pell[1], pell[0] + pell[1])
    cases = [GoldenScalar.phi_power(k) for k in (-12001, -8000, 6000, 12001)]
    cases += [g_mediant(lam, x) for lam in (LambdaKind.PHI_INV, LambdaKind.TAU)
              for x in (Fraction(1, 6500), Fraction(6499, 6500))]
    cases += [QuadraticSurd(pell[0], -pell[1], 1, 2),
              QuadraticSurd(-pell[0], pell[1], 7, 2),
              QuadraticSurd(3 * pell[0], pell[1], 1, 2),
              growth_rate(c734_word(800, 2513)).value]
    with unlimited_int_str():
        for x in cases:
            assert _coefficient_bits(x) > encode._BIG_BITS
            out = decimal_str(x)
            assert out == _reference(x, 24000), x
            assert _significant_digits(out) == 30
        # g(1/100000) = phi^-99999, as the Fraction route printed it
        assert decimal_str(g_mediant(LambdaKind.PHI_INV, Fraction(1, 100000))) == \
            "2.78588151928291683971617497577E-20899"


@contextmanager
def unlimited_int_str():
    """Lift the int <-> str digit limit (where Python has one), then restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# small values and values of up to 40,000 bits (about 12,000 digits)
huge = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                 st.integers(-(1 << 40000), 1 << 40000))
huge_positive = huge.map(lambda n: abs(n) + 1)
huge_fractions = st.builds(Fraction, huge, huge_positive)


@settings(max_examples=100, deadline=None)
@given(huge_fractions)
def test_fraction_round_trip_huge(x):
    with unlimited_int_str():
        assert parse_fraction(fraction_str(x)) == x


@settings(max_examples=100, deadline=None)
@given(huge_fractions, huge_fractions)
def test_golden_round_trip_huge(a, b):
    g = GoldenScalar(a, b)
    with unlimited_int_str():
        assert parse_golden(golden_str(g)) == g


@settings(max_examples=100, deadline=None)
@given(huge, huge, huge_positive, huge_positive)
def test_surd_round_trip_huge(p, q, r, d):
    s = QuadraticSurd(p, q, r, d)
    with unlimited_int_str():
        t = parse_surd(surd_str(s))
    assert (t.p, t.q, t.r, t.d) == (s.p, s.q, s.r, s.d)


@settings(max_examples=100, deadline=None)
@given(st.lists(huge_positive, min_size=1, max_size=50))
def test_seq_round_trip_huge(seq):
    with unlimited_int_str():
        assert parse_seq(seq_str(seq)) == tuple(seq)


def test_growth_rate_surd_round_trip():
    # the largest kappa2 period at eps = 1e-6 (5,026 quotients)
    rate = growth_rate(c734_word(800, 2513)).value
    with unlimited_int_str():
        assert len(str(rate.d)) > 4300
        text = surd_str(rate)
        back = parse_surd(text)
    assert (back.p, back.q, back.r, back.d) == (rate.p, rate.q, rate.r, rate.d)
