"""Continuants, convergents, quotient sequences, periodic values."""

import enum
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtu import cf
from dtu.cf import Orientation, PeriodicCF
from dtu.classify import c734_word
from dtu.errors import InputError
from dtu.surd import QuadraticSurd


def naive_continuant(seq):
    """Definition-level recurrence, kept independent of the library path."""
    if not seq:
        return 1
    if len(seq) == 1:
        return seq[0]
    return seq[-1] * naive_continuant(seq[:-1]) + naive_continuant(seq[:-2])


def linear_quotient_matrix(seq):
    """The plain left-to-right recurrence, kept as the oracle of the product tree."""
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in seq:
        m00, m01 = m00 * a + m01, m00
        m10, m11 = m10 * a + m11, m10
    return (m00, m01), (m10, m11)


def fraction_fold(seq):
    """[0; a_1, ..., a_n] folded from the back in Fractions."""
    x = Fraction(0)
    for a in reversed(seq):
        x = 1 / (a + x)
    return x


def mat_mul(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)


# quotient words of 1 to 400 entries up to 10^6: split points of the product
# tree fall inside and across its leaves
words = st.integers(1, 400).flatmap(
    lambda n: st.lists(st.integers(1, 10 ** 6), min_size=n, max_size=n))


def test_continuant_examples():
    assert cf.continuant(()) == 1
    assert cf.continuant((5,)) == 5
    assert cf.continuant((1, 2, 3, 4)) == 43
    assert cf.continuant((1, 3, 2, 4)) == 40
    with pytest.raises(ValueError):
        cf.continuant((1, 0, 2))
    with pytest.raises(ValueError):
        cf.continuant((1, -3))
    # the message names the first offender, wherever it stands
    for bad in (True, 0, -1, 1.0, Fraction(1), "1"):
        for seq in ((bad,), (2, bad, 0), (3, 1, 4, bad, -5, "x")):
            with pytest.raises(InputError) as raised:
                cf.check_quotients(seq)
            assert str(raised.value) == \
                f"partial quotients must be integers >= 1, got {bad!r}"
    # an int subclass other than bool is a quotient, and is kept as given
    Two = enum.IntEnum("Two", {"TWO": 2})
    assert cf.check_quotients([1, Two.TWO]) == (1, 2)
    assert type(cf.check_quotients((Two.TWO,))[0]) is Two
    assert cf.continuant((1, Two.TWO, 3)) == 10
    assert cf.check_quotients(iter((4, 1))) == (4, 1)
    assert cf.check_quotients(()) == ()
    assert cf.check_quotients((), allow_empty=True) == ()
    with pytest.raises(InputError) as raised:
        cf.check_quotients((), allow_empty=False)
    assert str(raised.value) == "empty quotient sequence not allowed here"


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


def test_quotient_matrix_matches_linear_recurrence():
    rng = random.Random(23)
    leaf_edges = [cf._LEAF * 2 ** k + d for k in range(8) for d in (-1, 0, 1)]
    for n in list(range(1, 301)) + leaf_edges:
        seq = tuple(rng.randint(1, 10 ** 6) for _ in range(n))
        m = cf.quotient_matrix(seq)
        assert m == linear_quotient_matrix(seq), n
        (m00, m01), (m10, m11) = m
        assert m00 * m11 - m01 * m10 == (-1) ** n
        if n <= 300:
            assert cf.value_of(seq) == fraction_fold(seq)
    # the longest kappa2 periods at eps = 1e-7 and 1e-8
    for p, q in ((2900, 8740), (8000, 24457)):
        period = c734_word(p, q)
        (m00, m01), (m10, m11) = m = cf.quotient_matrix(period)
        assert m == linear_quotient_matrix(period)
        assert m00 * m11 - m01 * m10 == 1


@settings(max_examples=60, deadline=None)
@given(words, words)
def test_matrix_of_concatenation_is_the_product(a, b):
    assert cf.quotient_matrix(a + b) == \
        mat_mul(cf.quotient_matrix(a), cf.quotient_matrix(b))


@settings(max_examples=60, deadline=None)
@given(words)
def test_matrix_of_reversal_is_the_transpose(a):
    (m00, m01), (m10, m11) = cf.quotient_matrix(a)
    assert cf.quotient_matrix(cf.reverse(a)) == ((m00, m10), (m01, m11))


def test_value_of_examples():
    assert cf.value_of((2,)) == Fraction(1, 2)
    assert cf.value_of((1, 2)) == Fraction(2, 3)
    assert cf.value_of((3, 2, 3)) == Fraction(7, 24)
    with pytest.raises(ValueError):
        cf.value_of(())


def test_cf_of_round_trip_and_conventions():
    assert cf.cf_of(Fraction(1, 2)) == (2,)
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
        alt = seq[:-1] + (seq[-1] - 1, 1)  # the last-is-one form
        assert cf.value_of(alt) == x
        assert cf.canonical(alt) == seq
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            cf.cf_of(bad)


def floor_rule_blocks(common, rare, n_common, n_rare):
    """The O(m) floor-rule loop: the rare block at the mechanical positions
    floor((j+1) rho) - floor(j rho) = 1, rho = n_rare / m, kept as the oracle
    of the Christoffel builder."""
    m = n_common + n_rare
    return [rare if ((j + 1) * n_rare) // m - (j * n_rare) // m == 1 else common
            for j in range(m)]


def test_mechanical_word_with_block_letters_matches_the_floor_rule():
    # the letters of balanced_max: 1-tuples of (light, heavy) blocks, with
    # either kind the rare one; m = 0 is the empty word
    b0, b1 = (9, 4), (10, 4)
    for m in range(121):
        for k in range(m + 1):
            for common, rare in ((b0, b1), (b1, b0)):
                want = tuple(floor_rule_blocks(common, rare, m - k, k))
                assert cf._mechanical_word(k, m, (common,), (rare,)) == want, (k, m)


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
    for n in range(42):
        for o in Orientation:
            assert cf.light_positions(n, o) == \
                tuple(i for i in range(1, n + 1) if o.weight(i) == 1)
            assert cf.heavy_positions(n, o) == \
                tuple(i for i in range(1, n + 1) if o.weight(i) == 2)


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
