"""The digit helpers behind the verify report's kappa2-digits row."""

import random
from fractions import Fraction

from dtu import cf
from dtu.verify import common_cf_prefix, common_decimal_prefix


def expansion(x: Fraction, places: int) -> str:
    digits = str(x.numerator * 10 ** places // x.denominator).zfill(places + 1)
    return digits[:-places] + "." + digits[-places:]


def test_common_decimal_prefix_cases():
    assert common_decimal_prefix(Fraction(131, 10), Fraction(1315, 100)) == "13.1"
    # integer parts of different lengths share no digit: 2 lies between
    assert common_decimal_prefix(Fraction(3, 2), Fraction(21, 2)) == ""
    assert common_decimal_prefix(Fraction(11, 2), Fraction(13, 2)) == ""
    # a bracket across a decimal carry, 0.1999... to 0.2000...
    assert common_decimal_prefix(Fraction(19999, 100000),
                                 Fraction(20001, 100000)) == "0"
    assert common_decimal_prefix(Fraction(1, 5),
                                 Fraction(1, 5) + Fraction(1, 10 ** 50)) \
        == "0.2" + "0" * 48
    # a bracket tighter than 1e-60 certifies all of its digits
    third = Fraction(1, 3)
    assert common_decimal_prefix(third, third + Fraction(1, 10 ** 80)) \
        == "0." + "3" * 79


def test_common_decimal_prefix_is_the_longest_shared_one():
    rng = random.Random(11)
    for _ in range(300):
        lo = Fraction(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 4))
        hi = lo + Fraction(1, rng.randrange(1, 10 ** rng.randrange(1, 30)))
        prefix = common_decimal_prefix(lo, hi)
        inside = [lo, hi, (lo + hi) / 2,
                  lo + (hi - lo) * Fraction(rng.randrange(1, 999), 1000)]
        assert all(expansion(x, 40).startswith(prefix) for x in inside)
        # lo and hi differ in the next digit, or in their integer parts
        if prefix:
            n = len(prefix) + (1 if "." in prefix else 2)
            assert expansion(lo, 40)[:n] != expansion(hi, 40)[:n]
        else:
            assert int(lo) != int(hi)


def test_common_cf_prefix_cases():
    lo, hi = sorted([cf.value_of((2, 3, 4)), cf.value_of((2, 3, 6))])
    assert common_cf_prefix(lo, hi) == (2, 3)
    # 3/7 = [0; 2, 3] = [0; 2, 2, 1] sits on the edge of the numbers whose
    # expansion continues past (2, 3), so only (2,) is certified
    lo, hi = sorted([Fraction(3, 7), cf.value_of((2, 3, 5))])
    assert common_cf_prefix(lo, hi) == (2,)
    assert common_cf_prefix(Fraction(1, 3), Fraction(1, 2)) == ()


def test_common_cf_prefix_is_shared_by_every_number_between():
    rng = random.Random(12)
    for _ in range(300):
        seq = tuple(rng.randrange(1, 9) for _ in range(rng.randrange(2, 12)))
        lo = cf.value_of(seq)
        hi = cf.value_of(seq[:rng.randrange(1, len(seq))]
                         + tuple(rng.randrange(1, 9) for _ in range(6)))
        if lo == hi:
            continue
        lo, hi = min(lo, hi), max(lo, hi)
        prefix = common_cf_prefix(lo, hi)
        for t in range(1, 20):
            x = lo + (hi - lo) * Fraction(t, 20)
            assert cf.cf_of(x)[:len(prefix)] == prefix
