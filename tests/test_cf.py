"""Continuants, convergents, quotient sequences, periodic values."""

import itertools
import random
from fractions import Fraction

import pytest

from dtu import cf
from dtu.cf import CFConvention, Orientation, PeriodicCF
from dtu.surd import QuadraticSurd


def naive_continuant(seq):
    """Definition-level recurrence, kept independent of the library path."""
    if not seq:
        return 1
    if len(seq) == 1:
        return seq[0]
    return seq[-1] * naive_continuant(seq[:-1]) + naive_continuant(seq[:-2])


def test_continuant_examples():
    assert cf.continuant(()) == 1
    assert cf.continuant((5,)) == 5
    assert cf.continuant((1, 2, 3, 4)) == 43
    assert cf.continuant((1, 3, 2, 4)) == 40
    with pytest.raises(ValueError):
        cf.continuant((1, 0, 2))
    with pytest.raises(ValueError):
        cf.continuant((1, -3))


def test_quotient_matrix_entries_and_determinant():
    assert cf.quotient_matrix((7, 4)) == ((29, 7), (4, 1))
    assert cf.quotient_matrix((5,)) == ((5, 1), (1, 0))
    # entries are the four continuants with first/last dropped; det = (-1)^n
    assert cf.quotient_matrix((1, 2, 3, 4)) == ((43, 10), (30, 7))
    for seq in [(2,), (1, 2), (3, 1, 4), (2, 2, 2, 2), (1, 2, 3, 4, 5)]:
        (m00, m01), (m10, m11) = cf.quotient_matrix(seq)
        assert m00 == naive_continuant(seq)
        assert m01 == naive_continuant(seq[:-1])
        assert m10 == naive_continuant(seq[1:])
        if len(seq) >= 2:
            assert m11 == naive_continuant(seq[1:-1])
        else:
            assert m11 == 0
        assert m00 * m11 - m01 * m10 == (-1) ** len(seq)
    with pytest.raises(ValueError):
        cf.quotient_matrix(())


def test_value_of_examples():
    assert cf.value_of((2,)) == Fraction(1, 2)
    assert cf.value_of((1, 2)) == Fraction(2, 3)
    assert cf.value_of((3, 2, 3)) == Fraction(7, 24)
    with pytest.raises(ValueError):
        cf.value_of(())


def test_cf_of_round_trip_and_conventions():
    assert cf.cf_of(Fraction(1, 2)) == (2,)
    assert cf.cf_of(Fraction(1, 2), CFConvention.LAST_IS_ONE) == (1, 1)
    assert cf.cf_of(Fraction(2, 5)) == (2, 2)
    assert cf.cf_of(Fraction(7, 24)) == (3, 2, 3)
    rng = random.Random(5)
    for _ in range(500):
        den = rng.randint(2, 400)
        num = rng.randint(1, den - 1)
        x = Fraction(num, den)
        seq = cf.cf_of(x)
        assert cf.value_of(seq) == x
        assert seq[-1] >= 2 or len(seq) == 1
        alt = cf.cf_of(x, CFConvention.LAST_IS_ONE)
        assert alt[-1] == 1
        assert cf.value_of(alt) == x
        assert cf.canonical(alt) == seq
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            cf.cf_of(bad)


def test_reversal_exhaustive():
    # continuants are invariant under reversal: all words up to length 7,
    # entries up to 5
    for n in range(0, 8):
        for seq in itertools.product(range(1, 6), repeat=n):
            assert cf.continuant(seq) == cf.continuant(cf.reverse(seq))
    assert cf.reverse(()) == ()
    assert cf.reverse((7, 4)) == (4, 7)
    assert cf.reverse((1, 2, 3, 4)) == (4, 3, 2, 1)


def test_split_identity_randomized():
    # <X, Y> = <X><Y> + <X^-><Y_->, zero tolerance; dropping an element of an
    # empty factor contributes 0 (matrix convention)
    def dropped(seq, front):
        if not seq:
            return 0
        return cf.continuant(seq[1:] if front else seq[:-1])

    rng = random.Random(11)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        word = tuple(rng.randint(1, 9) for _ in range(n))
        k = rng.randint(0, n)
        x, y = word[:k], word[k:]
        lhs = cf.continuant(word)
        rhs = (cf.continuant(x) * cf.continuant(y)
               + dropped(x, False) * dropped(y, True))
        assert lhs == rhs


def test_convergent_laws():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(2, 10)
        seq = tuple(rng.randint(1, 9) for _ in range(n))
        conv = cf.convergents(seq)
        assert conv[-1] == cf.value_of(seq)
        qs = [c.denominator for c in conv]
        ps = [c.numerator for c in conv]
        for i in range(2, n):
            assert qs[i] == seq[i] * qs[i - 1] + qs[i - 2]
        for i in range(1, n):
            assert abs(ps[i] * qs[i - 1] - ps[i - 1] * qs[i]) == 1


def test_weighted_sums():
    assert cf.weighted_sum((7, 4), Orientation.PHI) == 15
    assert cf.weighted_sum((7, 4), Orientation.TAU) == 18
    assert cf.weighted_sum((1, 2, 3, 4), Orientation.PHI) == 16
    rng = random.Random(17)
    for _ in range(500):
        n = rng.randint(1, 12)
        seq = tuple(rng.randint(1, 9) for _ in range(n))
        total = sum(seq)
        for o in Orientation:
            assert cf.weighted_sum(seq, o) == \
                sum(a * o.weight(i) for i, a in enumerate(seq, start=1))
        assert (cf.weighted_sum(seq, Orientation.PHI)
                + cf.weighted_sum(seq, Orientation.TAU)) == 3 * total
        if n % 2 == 0:
            assert cf.weighted_sum(seq, Orientation.TAU) == \
                cf.weighted_sum(cf.reverse(seq), Orientation.PHI)


def test_periodic_values():
    assert cf.periodic_value(PeriodicCF((), (1,))) == QuadraticSurd(-1, 1, 2, 5)
    assert cf.periodic_value(PeriodicCF((), (1, 2))) == QuadraticSurd(-1, 1, 1, 3)
    assert cf.periodic_value(PeriodicCF((), (7, 4))) == QuadraticSurd(-14, 4, 7, 14)


def test_periodic_value_reproduces_itself_through_one_period():
    rng = random.Random(19)
    for _ in range(100):
        period = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 5)))
        pre = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 3)))
        y = cf.periodic_value(PeriodicCF((), period))
        # substitute back: y = [0; period, 1/y]
        (m00, m01), (m10, m11) = cf.quotient_matrix(period)
        again = (QuadraticSurd.from_fraction(m10) + y * m11) / \
            (QuadraticSurd.from_fraction(m00) + y * m01)
        assert again.algebraically_equal(y)
        x = cf.periodic_value(PeriodicCF(pre, period))
        assert QuadraticSurd.from_fraction(0) < x < QuadraticSurd.from_fraction(1)


def test_periodic_value_with_preperiod_matches_convergents():
    x = cf.periodic_value(PeriodicCF((2, 1), (3, 5)))
    # compare against a deep truncation
    approx = cf.value_of((2, 1) + (3, 5) * 20)
    lo, hi = x.bounds(256)
    assert abs((lo + hi) / 2 - approx) < Fraction(1, 10 ** 12)
