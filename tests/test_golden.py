"""Golden field arithmetic: identities, powers, exact ordering."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtu import golden
from dtu.geval import LambdaKind, g_finite_series, g_mediant, sample_farey
from dtu.golden import (GOLDEN_ONE, GOLDEN_ZERO, PHI, GoldenScalar,
                        bits_for_width)
from dtu.surd import QuadraticSurd

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=40)
goldens = st.builds(GoldenScalar, fractions, fractions)


def test_defining_relation():
    assert PHI * PHI == GoldenScalar(1, 1)
    assert PHI * PHI == PHI + 1


def test_phi_powers_ascending_and_descending():
    assert GoldenScalar.phi_power(0) == GOLDEN_ONE
    assert GoldenScalar.phi_power(1) == PHI
    assert GoldenScalar.phi_power(2) == GoldenScalar(1, 1)
    assert GoldenScalar.phi_power(-1) == GoldenScalar(-1, 1)
    assert GoldenScalar.phi_power(-5) == GoldenScalar(-8, 5)
    for k in range(-12, 13):
        assert GoldenScalar.phi_power(k) * GoldenScalar.phi_power(-k) == GOLDEN_ONE
    # the linear recurrences: phi^(k+1) = phi^k + phi^(k-1) upward and
    # phi^(k-1) = phi^(k+1) - phi^k downward
    up = [(1, 0), (0, 1)]
    down = [(1, 0), (-1, 1)]
    for _ in range(299):
        up.append((up[-1][0] + up[-2][0], up[-1][1] + up[-2][1]))
        down.append((down[-2][0] - down[-1][0], down[-2][1] - down[-1][1]))
    for k in range(301):
        assert GoldenScalar.phi_power(k) == GoldenScalar(*up[k])
        assert GoldenScalar.phi_power(-k) == GoldenScalar(*down[k])
    # exponent laws far beyond the recurrence range
    for m, n in ((100_003, 99_989), (-100_003, 99_991), (100_000, -100_000),
                 (-99_998, -100_001), (1, 99_999)):
        product = GoldenScalar.phi_power(m) * GoldenScalar.phi_power(n)
        assert product == GoldenScalar.phi_power(m + n)


def test_phi_power_matches_repeated_multiplication():
    acc = GOLDEN_ONE
    for k in range(1, 30):
        acc = acc * PHI
        assert GoldenScalar.phi_power(k) == acc


@pytest.mark.parametrize("name", ["a", "b", "c"])
def test_golden_scalars_refuse_set_and_del(name):
    # PHI is shared by every caller: neither a set nor a del may reach it
    for g in (PHI, GoldenScalar(Fraction(1, 2), 3)):
        before = (g.a, g.b)
        with pytest.raises(AttributeError):
            setattr(g, name, 7)
        with pytest.raises(AttributeError):
            delattr(g, name)
        assert (g.a, g.b) == before
    assert PHI == GoldenScalar(0, 1) and PHI * PHI == PHI + 1


def test_compare_against_fraction():
    assert GoldenScalar(7, -4) > Fraction(1, 2)
    assert GoldenScalar(7, -4) < Fraction(13, 24)
    assert GoldenScalar(-1, 1) < GoldenScalar(2, -1) + Fraction(1, 4)


@settings(max_examples=200, deadline=None)
@given(goldens, goldens)
def test_ring_laws(u, v):
    assert u + v == v + u
    assert u * v == v * u
    assert (u - v) + v == u
    assert u * (v + GOLDEN_ONE) == u * v + u


@settings(max_examples=200, deadline=None)
@given(goldens, goldens, goldens)
def test_mul_associative_distributive(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w


def _decimal_sign(g: GoldenScalar, digits: int = 100) -> int:
    # independent 100-digit evaluation: phi = (1 + sqrt5)/2 via integer sqrt
    scale = 10 ** digits
    sqrt5_lo = isqrt(5 * scale * scale)
    # value * 2 * scale is between these two integers
    def at(s5):
        num = 2 * g.a * scale + g.b * (scale + s5)
        return num
    lo, hi = sorted((at(sqrt5_lo), at(sqrt5_lo + 1)))
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return 0


def test_comparison_agrees_with_100_digit_decimal():
    rng = random.Random(2024)
    for _ in range(10_000):
        u = GoldenScalar(Fraction(rng.randint(-99, 99), rng.randint(1, 30)),
                         Fraction(rng.randint(-99, 99), rng.randint(1, 30)))
        v = GoldenScalar(Fraction(rng.randint(-99, 99), rng.randint(1, 30)),
                         Fraction(rng.randint(-99, 99), rng.randint(1, 30)))
        expected = _decimal_sign(u - v)
        got = (u > v) - (u < v)
        assert got == expected, (u, v)


def test_bounds_enclose_value():
    g = GoldenScalar(3, -2)  # 3 - 2 phi < 0
    lo, hi = g.bounds(128)
    assert lo <= hi
    assert hi - lo <= Fraction(2, 2 ** 126)
    assert g.sign() == -1
    assert lo < 0 < -lo  # sanity: enclosure is on the negative side
    assert hi < Fraction(1, 10 ** 30)


def _random_goldens(rng):
    """Small rational coefficients, and Fibonacci-sized ones: phi^k and
    multiples of it for |k| up to 3000."""
    for _ in range(60):
        yield GoldenScalar(Fraction(rng.randint(-99, 99), rng.randint(1, 30)),
                           Fraction(rng.choice([-1, 1]) * rng.randint(1, 99),
                                    rng.randint(1, 30)))
        k = rng.randint(-3000, 3000)
        yield GoldenScalar.phi_power(k) * Fraction(rng.randint(-999, 999) or 1,
                                                   rng.randint(1, 99))


@pytest.mark.parametrize("bits", [1, 64, 200, 1000])
def test_bounds_width_below_half_an_ulp_of_bits(bits):
    for g in _random_goldens(random.Random(bits)):
        lo, hi = g.bounds(bits)
        assert hi - lo < Fraction(1, 2 ** (bits + 1)), g
        assert GoldenScalar(lo) < g < GoldenScalar(hi), g  # exact comparisons


def test_bits_for_width_is_the_least_that_suffices():
    rng = random.Random(12)
    widths = [Fraction(1, 10 ** 30) / 8, Fraction(1, 10 ** 12), Fraction(1, 8),
              Fraction(1, 9), Fraction(3, 7), Fraction(1), Fraction(5)]
    widths += [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 40))
               for _ in range(500)]
    for w in widths:
        bits = bits_for_width(w)
        assert bits >= 0 and Fraction(1, 2 ** (bits + 1)) <= w, w
        assert bits == 0 or Fraction(1, 2 ** bits) > w, w
    assert bits_for_width(Fraction(1, 10 ** 30) / 8) == 102


def test_pow_and_errors():
    assert PHI ** 0 == GOLDEN_ONE
    assert PHI ** 7 == GoldenScalar.phi_power(7)
    with pytest.raises(ValueError):
        PHI ** -1
    assert GOLDEN_ZERO + 3 == GoldenScalar(3)


def test_pow_of_the_units_matches_phi_power():
    # lambda = phi - 1 = phi^-1 and 1 - lambda = 2 - phi = phi^-2 at phi-inv
    for k in range(301):
        for base, step in ((GoldenScalar(-1, 1), -1), (GoldenScalar(2, -1), -2),
                           (PHI, 1)):
            power, want = base ** k, GoldenScalar.phi_power(step * k)
            assert (power.a, power.b) == (want.a, want.b), (base, k)
            assert type(power.a) is int and type(power.b) is int, (base, k)


def test_negation_and_reflected_subtraction():
    g = GoldenScalar(7, -4)
    assert ((-g).a, (-g).b) == (-7, 4)
    assert ((3 - g).a, (3 - g).b) == (-4, 4)
    h = Fraction(1, 2) - PHI
    assert (h.a, h.b) == (Fraction(1, 2), -1)
    assert (1 - PHI) * PHI == -1


def _fraction_sign(g: GoldenScalar) -> int:
    """GoldenScalar.sign as it was on Fraction coefficients: the oracle."""
    a, b = Fraction(g.a), Fraction(g.b)
    u = a + b / 2  # a + b(1+sqrt5)/2 = u + v*sqrt5
    v = b / 2
    if v == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return 1 if v > 0 else -1
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    lhs, rhs = u * u, 5 * v * v
    if lhs == rhs:
        return 0
    if u > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


def _fraction_bounds(g: GoldenScalar, bits: int) -> tuple[Fraction, Fraction]:
    """GoldenScalar.bounds as it was on Fraction coefficients: the oracle."""
    v = Fraction(g.b) / 2
    base = Fraction(g.a) + v
    if v == 0:
        return base, base
    k = bits + max(0, abs(v.numerator).bit_length() - v.denominator.bit_length()) + 2
    s = isqrt(5 << (2 * k))
    r0, r1 = Fraction(s, 1 << k), Fraction(s + 1, 1 << k)
    if v < 0:
        r0, r1 = r1, r0
    return base + v * r0, base + v * r1


def _coefficient(rng):
    """An int (small, or of up to 300 bits) or a Fraction, integral or not."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-99, 99)
    if kind == 1:
        return rng.choice([-1, 1]) * rng.getrandbits(rng.randint(1, 300))
    if kind == 2:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 30))
    if kind == 3:
        return Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 20))
    return Fraction(rng.randint(-99, 99))  # integral: stored as an int


def _oracle_values(rng, count):
    """Random scalars, with the edge cases of sign among them: b = 0,
    u = 2a + b = 0, phi^k times a coefficient (u^2 close to 5 v^2), and 0."""
    for i in range(count):
        kind = i % 5
        if kind == 0:
            yield GoldenScalar(_coefficient(rng), _coefficient(rng))
        elif kind == 1:
            yield GoldenScalar(_coefficient(rng))
        elif kind == 2:
            b = _coefficient(rng)
            yield GoldenScalar(Fraction(-b, 2), b)
        elif kind == 3:
            yield (GoldenScalar.phi_power(rng.randint(-400, 400))
                   * _coefficient(rng))
        else:
            yield GoldenScalar(_coefficient(rng), _coefficient(rng)) * 0


def test_sign_and_bounds_equal_the_fraction_formulas():
    rng = random.Random(19)
    for g in _oracle_values(rng, 10_000):
        assert g.sign() == _fraction_sign(g), g
        for bits in (0, 5, 64, 200, 400):
            lo, hi = g.bounds(bits)
            assert (lo, hi) == _fraction_bounds(g, bits), (g, bits)
            assert type(lo) is Fraction and type(hi) is Fraction, (g, bits)


def test_integer_enclosure_ends_are_the_ends_of_bounds():
    # bounds and encode.decimal_str read one integer core: its unreduced
    # ends over den, for each class's parts, are the Fractions bounds gives
    rng = random.Random(22)
    values = list(_oracle_values(rng, 2000))
    for _ in range(1000):
        r = rng.randint(1, 10 ** rng.randint(1, 40))
        q = rng.choice([-1, 0, 1]) * rng.randint(1, 10 ** rng.randint(1, 40))
        values.append(QuadraticSurd(rng.randint(-10 ** 30, 10 ** 30), q, r,
                                    rng.randint(2, 10 ** 6)))
    assert {type(x) for x in values} == {GoldenScalar, QuadraticSurd}
    for x in values:
        parts = x._enclosure_parts()
        if isinstance(x, GoldenScalar):
            assert parts[:4] == (*x.surd_parts(), 5), x
        for bits in (0, 5, 64, 200, 400):
            lo, hi, den = golden._enclosure_ends(*parts, bits)
            assert den > 0 and lo <= hi, (x, bits)
            assert (Fraction(lo, den), Fraction(hi, den)) == x.bounds(bits), (x, bits)


def test_cached_square_root_gives_the_ends_of_a_fresh_isqrt(monkeypatch):
    # bounds shifts one cached floor(sqrt(d) 2^K) down for every k <= K
    monkeypatch.setattr(golden, "_root", (0, -1, 0))
    g = GoldenScalar.phi_power(-40) * 7
    # k - bits: the size of b/2, |b| less 2 bits, plus 2
    pad = abs(g.b).bit_length()
    largest = -1
    # k rises, falls, rises past the cached K, and falls after the cache grew
    for bits in (64, 300, 10, 1000, 0, 300, 1001, 64):
        assert g.bounds(bits) == _fraction_bounds(g, bits), bits
        largest = max(largest, bits + pad)
        assert golden._root[:2] == (5, largest), bits
    # another d takes the cache over, and d = 5 takes it back afresh
    for bits in (500, 20, 600, 20):
        assert golden._sqrt_floor(7, bits) == isqrt(7 << (2 * bits)), bits
        assert golden._root[:2] == (7, bits), bits
        assert g.bounds(bits) == _fraction_bounds(g, bits), bits
        assert golden._root[:2] == (5, bits + pad), bits
    for k in (5, 3000, 1, 2999, 3001, 0):
        assert golden._sqrt_floor(7, k) == isqrt(7 << (2 * k)), k


def _is_canonical(x) -> bool:
    """An int, or a Fraction that is not integral: never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def test_ops_never_make_a_float_or_integral_fraction_coefficient():
    rng = random.Random(23)
    for _ in range(2000):
        u = GoldenScalar(_coefficient(rng), _coefficient(rng))
        v = GoldenScalar(_coefficient(rng), _coefficient(rng))
        r = _coefficient(rng)
        results = [u + v, u - v, u * v, -u, u + r, r + u, u - r, r - u,
                   u * r, r * u, u ** rng.randint(0, 5)]
        for w in results:
            assert _is_canonical(w.a) and _is_canonical(w.b), (u, v, r, w)
    for x in (1.5, 2.0, True, Fraction(6, 3), "3/4"):
        g = GoldenScalar(x, x)
        assert _is_canonical(g.a) and g == GoldenScalar(Fraction(x), Fraction(x))


def test_golden_field_values_have_int_coefficients():
    def ints(g):
        return type(g.a) is int and type(g.b) is int

    assert all(ints(GoldenScalar.phi_power(k)) for k in range(-500, 501))
    for lam in (LambdaKind.PHI_INV, LambdaKind.TAU):
        table = sample_farey(lam, 60)
        assert all(ints(g) for _, g in table), lam
        for x, g in table[1:-1]:
            assert ints(g_mediant(lam, x)), (lam, x)
        assert ints(g_finite_series(lam, (3, 1, 4, 1, 5))), lam
        assert ints(g_mediant(lam, Fraction(1, 100000))), lam
