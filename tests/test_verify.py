"""The digit helpers behind the verify report's kappa2-digits row, and the
kappa2 trace writer."""

import json
import math
import random
from fractions import Fraction

from dtu import cf
from dtu.classify import BracketStep, Classification, KappaBracket, kappa2_bracket
from dtu.encode import fraction_str
from dtu.verify import common_cf_prefix, common_decimal_prefix, trace_json


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


def json_trace(bracket: KappaBracket) -> str:
    """The trace as json.dumps renders it from Fractions: the bytes that
    trace_json writes from each step's integers."""
    rows = [{"step": s.step,
             "density": fraction_str(s.density),
             "period_length": s.period_length,
             "kappa": fraction_str(s.kappa),
             "classification": s.classification.value}
            for s in bracket.trace]
    return json.dumps(rows, sort_keys=True, indent=2) + "\n"


def test_trace_json_is_the_json_dumps_of_its_rows():
    rng = random.Random(17)
    # log-uniform eps in [1e-12, 1/2], half of them 1/N as `--epsilon 1/N`
    epsilons = [Fraction(1), Fraction(1, 2)]
    for _ in range(300):
        den = round(10 ** rng.uniform(math.log10(2), 12))
        epsilons.append(Fraction(rng.choice([1, rng.randrange(1, den)]), den))
    lengths = set()
    for eps in epsilons:
        eps = max(eps, Fraction(1, 10 ** 12))
        bracket = kappa2_bracket(eps)
        assert trace_json(bracket) == json_trace(bracket), eps
        lengths.add(len(bracket.trace))
    assert trace_json(kappa2_bracket(Fraction(1))) == "[]\n"
    assert min(lengths) == 0 and max(lengths) >= 40
    # q = 1 and q = 2 give integral kappa 13, 15 and 14; an odd q > 1 keeps
    # the denominator, an even one halves it
    steps = [BracketStep(1, 0, 1, Classification.DERIV_INFINITY),
             BracketStep(2, 1, 1, Classification.DERIV_ZERO),
             BracketStep(3, 1, 2, Classification.BOUNDARY),
             BracketStep(4, 3, 7, Classification.DERIV_ZERO),
             BracketStep(5, 3, 8, Classification.DERIV_INFINITY)]
    bracket = KappaBracket(Fraction(13), Fraction(15), tuple(steps))
    text = trace_json(bracket)
    assert text == json_trace(bracket)
    assert [(r["density"], r["kappa"], r["period_length"]) for r in json.loads(text)] \
        == [("0", "13", 2), ("1", "15", 2), ("1/2", "14", 4), ("3/7", "97/7", 14),
            ("3/8", "55/4", 16)]
