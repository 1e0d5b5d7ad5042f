"""Quadratic surd canonicalization, arithmetic and exact comparison."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from dtu import cf
from dtu.cf import PeriodicCF
from dtu.golden import GoldenScalar
from dtu.surd import QuadraticSurd, compare_values


def test_canonical_forms():
    assert QuadraticSurd(2, 4, 2, 896) == QuadraticSurd(1, 16, 1, 14)
    s = QuadraticSurd(2, 4, 2, 896)
    assert (s.p, s.q, s.r, s.d) == (1, 16, 1, 14)
    # perfect-square radicand folds into the rational part
    t = QuadraticSurd(1, 3, 2, 9)
    assert (t.p, t.q, t.r, t.d) == (5, 0, 1, 1)
    # negative denominator normalizes
    u = QuadraticSurd(1, -1, -2, 5)
    assert (u.p, u.q, u.r, u.d) == (-1, 1, 2, 5)
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 0, 5)
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 1, -3)


@pytest.mark.parametrize("name", ["p", "q", "r", "d", "e"])
def test_surds_refuse_set_and_del(name):
    s = QuadraticSurd(15, 4, 1, 14)
    with pytest.raises(AttributeError):
        setattr(s, name, 7)
    with pytest.raises(AttributeError):
        delattr(s, name)
    assert (s.p, s.q, s.r, s.d) == (15, 4, 1, 14)


def test_identical_canonical_triples_compare_equal():
    a = QuadraticSurd(2, 1, 1, 3)
    b = QuadraticSurd(4, 2, 2, 3)
    assert (a.p, a.q, a.r, a.d) == (b.p, b.q, b.r, b.d)
    assert a == b


def test_ordering_examples():
    sqrt3m1 = QuadraticSurd(-1, 1, 1, 3)
    golden_conj = QuadraticSurd(-1, 1, 2, 5)  # (sqrt5 - 1)/2
    assert sqrt3m1 > golden_conj
    lam = QuadraticSurd(15, 4, 1, 14)
    assert compare_values(lam * lam, GoldenScalar.phi_power(15)) == -1
    assert compare_values(lam * lam, GoldenScalar.phi_power(14)) == 1
    # unequal values whose 64-bit enclosures overlap are decided exactly
    root2 = QuadraticSurd(0, 1, 1, 2)
    nudged = root2 + Fraction(1, 2 ** 200)
    lo, hi = root2.bounds(64)
    nlo, nhi = nudged.bounds(64)
    assert max(lo, nlo) <= min(hi, nhi)
    assert root2.compare(nudged) == -1 and nudged.compare(root2) == 1
    assert compare_values(root2, nudged) == -1 and compare_values(nudged, root2) == 1
    # one value in two representations: 101^2 escapes the small-prime
    # square extraction, so the radicands differ
    wide = QuadraticSurd(3, 1, 2, 5 * 101 ** 2)
    narrow = QuadraticSurd(3, 101, 2, 5)
    assert (wide.d, narrow.d) == (5 * 101 ** 2, 5)
    assert wide.compare(narrow) == 0 and narrow.compare(wide) == 0
    assert compare_values(wide, narrow) == 0


def test_cross_field_equality_via_square_merge():
    # sqrt(8) and 2 sqrt(2) in nominally different radicands
    a = QuadraticSurd(0, 1, 1, 8)
    b = QuadraticSurd(0, 2, 1, 2)
    assert a == b
    assert a.algebraically_equal(b)
    # sqrt(2) vs sqrt(3): never equal, ordered across fields
    assert QuadraticSurd(0, 1, 1, 2) < QuadraticSurd(0, 1, 1, 3)


def test_arithmetic_in_field():
    s = QuadraticSurd(1, 1, 2, 5)  # (1 + sqrt5)/2 = phi
    assert s * s == s + 1
    inv = QuadraticSurd(1, 0, 1, 1) / s
    assert inv == s - 1
    with pytest.raises(ValueError):
        QuadraticSurd(0, 1, 1, 2) + QuadraticSurd(0, 1, 1, 3)


def test_golden_promotion():
    g = GoldenScalar(Fraction(1, 2), Fraction(-3, 4))
    s = QuadraticSurd.from_golden(g)
    lo, hi = s.bounds(128)
    glo, ghi = g.bounds(128)
    assert max(lo, glo) <= min(hi, ghi)  # the enclosures overlap
    assert compare_values(s, g) == 0


def test_compare_values_on_rationals():
    assert compare_values(Fraction(1, 3), Fraction(2, 6)) == 0
    assert compare_values(-5, Fraction(-9, 2)) == -1
    big = 10 ** 5000
    assert compare_values(big + 1, big) == 1
    assert compare_values(big, big + Fraction(1, big)) == -1


def test_comparison_against_random_decimal_oracle():
    rng = random.Random(99)
    digits = 60
    scale = 10 ** digits
    for _ in range(2000):
        d = rng.choice([2, 3, 5, 7, 11, 13])
        s = QuadraticSurd(rng.randint(-20, 20), rng.randint(-20, 20),
                          rng.randint(1, 20), d)
        t = QuadraticSurd(rng.randint(-20, 20), rng.randint(-20, 20),
                          rng.randint(1, 20), d)
        sq = isqrt(d * scale * scale)
        def approx(x):
            return Fraction(x.p * scale + x.q * sq, x.r * scale)
        diff = approx(s) - approx(t)
        if abs(diff) > Fraction(1, 10 ** 20):  # clear separation
            assert (s > t) == (diff > 0)
        else:
            assert s.algebraically_equal(t) == (s == t)


def _exceeds(x: QuadraticSurd, c: Fraction) -> bool:
    """x > c exactly, for rational c: x - c = (u + q sqrt(d))/r with r > 0."""
    u = x.p - c * x.r
    if u >= 0 and x.q >= 0:
        return u > 0 or x.q > 0
    if u <= 0 and x.q <= 0:
        return False
    return (u > 0) == (u * u > x.q * x.q * x.d)


@pytest.mark.parametrize("bits", [1, 64, 200, 1000])
def test_bounds_width_below_half_an_ulp_of_bits(bits):
    rng = random.Random(bits)
    surds = []
    for _ in range(40):
        surds.append(QuadraticSurd(rng.randint(-10 ** 6, 10 ** 6),
                                   rng.choice([-1, 1]) * rng.randint(1, 10 ** 6),
                                   rng.randint(1, 10 ** 6), rng.choice([2, 3, 7, 1234567])))
        # Fibonacci-sized coefficients, and periodic values of long periods
        surds.append(-QuadraticSurd.from_golden(
            GoldenScalar.phi_power(rng.randint(-3000, 3000))))
        period = tuple(rng.randint(1, 12) for _ in range(2 * rng.randint(1, 60)))
        surds.append(cf.periodic_value(PeriodicCF((), period)))
    for x in surds:
        lo, hi = x.bounds(bits)
        assert hi - lo < Fraction(1, 2 ** (bits + 1)), x
        assert _exceeds(x, lo) and not _exceeds(x, hi), x


def test_rational_surds():
    s = QuadraticSurd.from_fraction(Fraction(-3, 7))
    assert s.q == 0 and Fraction(s.p, s.r) == Fraction(-3, 7)
    assert s < 0 < s + 1


def test_mixed_comparisons_negation_and_reflected_subtraction():
    phi = QuadraticSurd(1, 1, 2, 5)
    # a golden or rational first argument is promoted to a surd
    assert compare_values(GoldenScalar(0, 1), phi) == 0
    assert compare_values(GoldenScalar(2), phi) == 1
    assert compare_values(Fraction(3, 2), phi) == -1
    assert compare_values(Fraction(13, 8), phi) == 1
    assert compare_values(1, phi) == -1
    assert phi <= phi and phi >= phi
    assert phi <= 2 and not phi >= 2
    assert phi >= Fraction(8, 5) and not phi <= Fraction(8, 5)
    neg = -phi
    assert (neg.p, neg.q, neg.r, neg.d) == (-1, -1, 2, 5)
    # int - surd: 3 - phi = (5 - sqrt5)/2 and 1 - phi = (1 - sqrt5)/2
    for k, want in ((3, (5, -1, 2, 5)), (1, (1, -1, 2, 5))):
        got = k - phi
        assert (got.p, got.q, got.r, got.d) == want
    assert (1 - phi) * phi == -1


def _fraction_bounds(x: QuadraticSurd, bits: int) -> tuple[Fraction, Fraction]:
    """QuadraticSurd.bounds as it was, with Fraction bounds on sqrt(d): the
    oracle."""
    if x.q == 0:
        v = Fraction(x.p, x.r)
        return v, v
    k = bits + max(0, abs(x.q).bit_length() - x.r.bit_length()) + 2
    s = isqrt(x.d << (2 * k))
    r0, r1 = Fraction(s, 1 << k), Fraction(s + 1, 1 << k)
    if x.q < 0:
        r0, r1 = r1, r0
    return (x.p + x.q * r0) / x.r, (x.p + x.q * r1) / x.r


def _refined_compare(x, y) -> int:
    """QuadraticSurd.compare as it was, by dyadic refinement: the oracle.
    Equality is tested algebraically once the 64-bit enclosures overlap;
    unequal values separate as the precision doubles."""
    x, y = QuadraticSurd._coerce(x), QuadraticSurd._coerce(y)
    bits = 64
    while True:
        alo, ahi = _fraction_bounds(x, bits)
        blo, bhi = _fraction_bounds(y, bits)
        if ahi < blo:
            return -1
        if bhi < alo:
            return 1
        if bits == 64 and x.algebraically_equal(y):
            return 0
        bits *= 2


# radicands with square factors above _SMALL_PRIMES, which stay in d
_RADICANDS = (2, 3, 5, 6, 7, 13, 2 * 101 ** 2, 5 * 103 ** 2, 3 * 101 ** 2 * 107 ** 2)


def _random_surd(rng, d=None):
    big = rng.random() < 0.2
    top = 10 ** 30 if big else 50
    return QuadraticSurd(rng.randint(-top, top), rng.randint(-top, top),
                         rng.randint(1, top), d or rng.choice(_RADICANDS))


def _other_form(rng, x: QuadraticSurd) -> QuadraticSurd:
    """x with its radicand multiplied by a square above _SMALL_PRIMES, or
    divided by one: an equal value in a different representation."""
    for f in (101, 103, 107):
        if x.d % (f * f) == 0 and rng.random() < 0.5:
            return QuadraticSurd(x.p, x.q * f, x.r, x.d // (f * f))
    f = rng.choice((101, 103, 107))
    return QuadraticSurd(x.p * f, x.q, x.r * f, x.d * f * f)


def _pairs(rng, count):
    """Pairs (x, y, kind): from one field (0), from two fields (1), one
    value in two forms (2), near-ties a rational 2^-k apart (3), and a
    surd against a rational (4)."""
    for i in range(count):
        kind = i % 5
        x = _random_surd(rng)
        if kind == 0:
            y = _random_surd(rng, x.d)
        elif kind == 1:
            y = _random_surd(rng)
        elif kind == 2:
            y = _other_form(rng, x)
        elif kind == 3:
            y = _other_form(rng, x) + Fraction(rng.choice([-1, 1]),
                                               2 ** rng.randint(1, 300))
        else:
            y = rng.choice([QuadraticSurd.from_fraction(_fraction_bounds(x, 70)[0]),
                            _random_surd(rng, 1)])
        yield x, y, kind


def test_compare_equals_refinement_on_random_pairs():
    rng = random.Random(20)
    signs, forms = set(), 0
    for x, y, kind in _pairs(rng, 5000):
        want = _refined_compare(x, y)
        if kind == 2:  # two radicands unless x is rational
            assert want == 0 and (x.d != y.d or x.q == 0), (x, y)
            forms += x.d != y.d
        assert x.compare(y) == want and y.compare(x) == -want, (x, y)
        assert compare_values(x, y) == want, (x, y)
        assert compare_values(y, x) == -want, (x, y)
        signs.add(want)
    assert signs == {-1, 0, 1} and forms > 900


def test_compare_with_golden_rational_and_int_operands():
    rng = random.Random(21)
    for _ in range(1000):
        x = _random_surd(rng, rng.choice([5, 5 * 103 ** 2, 2, 3]))
        g = GoldenScalar(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                         rng.randint(-50, 50))
        near = Fraction(g.a) + Fraction(g.b) * _fraction_bounds(
            QuadraticSurd(1, 1, 2, 5), 80)[rng.randint(0, 1)]
        for y in (g, Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                  rng.randint(-9, 9), near):
            want = _refined_compare(x, y)
            assert x.compare(y) == want, (x, y)
            assert compare_values(x, y) == want, (x, y)
            assert compare_values(y, x) == -want, (x, y)
        # a golden scalar against its own value as a surd, in either order
        s = QuadraticSurd.from_golden(g)
        assert compare_values(g, s) == 0 == compare_values(s, g)
        assert compare_values(g, near) == _refined_compare(g, near)


def test_compare_decides_the_near_tie_of_sqrt2_and_a_deep_convergent():
    # the n-th convergent p/q of sqrt2 has p + q sqrt2 = (1 + sqrt2)^(n+1)
    # and p^2 - 2 q^2 = (-1)^(n+1), so the 3000th lies below sqrt2
    p, q = 1, 1
    for _ in range(3000):
        p, q = p + 2 * q, p + q
    assert q.bit_length() == 3815 and p * p - 2 * q * q == -1
    # sqrt2, also as sqrt(2 101^2)/101
    for root2 in (QuadraticSurd(0, 1, 1, 2), QuadraticSurd(0, 1, 101, 2 * 101 ** 2)):
        for c in (Fraction(p, q), QuadraticSurd(p, 0, q, 1)):
            want = _refined_compare(root2, c)
            assert want == 1
            assert root2.compare(c) == want and compare_values(c, root2) == -want
    # across fields: sqrt3 against (1 + sqrt2) scaled by a convergent of
    # its ratio to sqrt3
    x = QuadraticSurd(1, 1, 1, 2)
    ratio = (_fraction_bounds(x, 4000)[0] / _fraction_bounds(
        QuadraticSurd(0, 1, 1, 3), 4000)[0]).limit_denominator(10 ** 500)
    y = QuadraticSurd(0, ratio.numerator, ratio.denominator, 3)
    want = _refined_compare(x, y)
    assert want != 0
    assert x.compare(y) == want and y.compare(x) == -want


def test_bounds_equal_the_fraction_formula():
    rng = random.Random(22)
    surds = [_random_surd(rng) for _ in range(1500)]
    surds += [QuadraticSurd.from_golden(GoldenScalar.phi_power(rng.randint(-900, 900)))
              * rng.randint(-99, 99) for _ in range(200)]
    surds += [cf.periodic_value(PeriodicCF((), tuple(rng.randint(1, 12) for _ in
                                                     range(2 * rng.randint(1, 30)))))
              for _ in range(100)]
    for x in surds:
        for bits in (0, 5, 64, 200, 400):
            lo, hi = x.bounds(bits)
            assert (lo, hi) == _fraction_bounds(x, bits), (x, bits)
            assert type(lo) is Fraction and type(hi) is Fraction, (x, bits)
