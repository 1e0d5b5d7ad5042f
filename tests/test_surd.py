"""Quadratic surd canonicalization, arithmetic and certified comparison."""

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
    # unequal values whose 64-bit enclosures overlap separate by refinement
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
    # sqrt(2) vs sqrt(3): never equal, ordering by refinement
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
