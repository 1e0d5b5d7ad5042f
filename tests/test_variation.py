"""Continuant transformations: reflections, unit variations, (1,2)-variations
and their exact certificates."""

import itertools
import random
from fractions import Fraction

import pytest

from dtu import cf
from dtu.cf import Orientation
from dtu.variation import (OneTwoKind, OneTwoVariation, Reflection,
                           UnitVariation, VariationDirection,
                           apply_12_variation, apply_unit_variation,
                           certificate_inequality, is_abs_increasing_12,
                           is_increasing_unit, kan_delta, reflect,
                           step_ratio_bounds, value_sets, vertex)


def small_words(max_len, max_entry, allow_empty=True):
    start = 0 if allow_empty else 1
    for n in range(start, max_len + 1):
        yield from itertools.product(range(1, max_entry + 1), repeat=n)


def test_kan_examples():
    assert kan_delta((1,), (2, 3), (4,)) == (3, 1)
    assert kan_delta((), (1, 2), (3,)) == (-1, -1)
    # palindromic middle: zero difference
    assert kan_delta((2,), (3, 1, 3), (5,)) == (0, 0)
    with pytest.raises(ValueError):
        kan_delta((1,), (), (2,))


def test_kan_exhaustive_small_and_random():
    for P in small_words(3, 3):
        for Q in small_words(3, 3, allow_empty=False):
            for R in small_words(2, 3):
                kan_delta(P, Q, R)  # internal dual-route assertion
    rng = random.Random(31)
    for _ in range(2000):
        P = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 6)))
        Q = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
        R = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 6)))
        delta, sign = kan_delta(P, Q, R)
        assert delta == cf.continuant(P + Q + R) - cf.continuant(P + cf.reverse(Q) + R)
        assert sign == (delta > 0) - (delta < 0)


def test_reflect_examples_and_weight_preservation():
    assert reflect((1, 2, 3, 4, 5), Reflection(3, 5)) == (1, 2, 5, 4, 3)
    assert reflect((1, 2, 3, 4, 5), Reflection(2, 4)) == (1, 4, 3, 2, 5)
    assert reflect((1, 2, 3), Reflection(2, 2)) == (1, 2, 3)
    with pytest.raises(ValueError):
        Reflection(2, 5)  # parity mismatch
    with pytest.raises(ValueError):
        reflect((1, 2), Reflection(1, 3))
    rng = random.Random(37)
    for _ in range(500):
        n = rng.randint(2, 10)
        word = tuple(rng.randint(1, 9) for _ in range(n))
        i = rng.randint(1, n)
        js = [j for j in range(i, n + 1) if (j - i) % 2 == 0]
        j = rng.choice(js)
        out = reflect(word, Reflection(i, j))
        for o in Orientation:
            assert cf.weighted_sum(out, o) == cf.weighted_sum(word, o)


def test_reflection_factor_exhaustive():
    # the continuant changes by a factor strictly inside (1/2, 2)
    for n in range(1, 7):
        for word in itertools.product(range(1, 5), repeat=n):
            base = cf.continuant(word)
            for i in range(1, n + 1):
                for j in range(i, n + 1, 2):
                    out = reflect(word, Reflection(i, j))
                    ratio = Fraction(cf.continuant(out), base)
                    assert Fraction(1, 2) < ratio < 2


def test_vertex_examples():
    assert vertex((1,), (2, 3), (4,)) == Fraction(-25, 56)
    # palindromic middle with equal flanks cancels
    assert vertex((2, 5), (3, 1, 3), (5, 2)) == 0
    assert abs(vertex((), (4, 4), ())) < 1


def f_parabola(P, Q, R, a2, x):
    """<P, a+x, Q, a-x, R> with a the half-sum; x shifts the pair."""
    hi = (a2 + x)
    lo = (a2 - x)
    return cf.continuant(P + (hi,) + Q + (lo,) + R)


def test_vertex_second_difference_and_integer_argmax():
    rng = random.Random(41)
    for _ in range(500):
        P = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 4)))
        Q = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        R = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 4)))
        a = rng.randint(4, 9)
        window = range(-3, 4)
        vals = {x: f_parabola(P, Q, R, a, x) for x in window}
        second = {x: vals[x + 1] - 2 * vals[x] + vals[x - 1]
                  for x in range(-2, 3)}
        expected = -2 * cf.continuant(P) * cf.continuant(Q) * cf.continuant(R)
        assert all(v == expected for v in second.values())
        x_m = vertex(P, Q, R)
        assert abs(x_m) < 1
        best = max(vals, key=lambda x: (vals[x], -abs(x)))
        assert best in (-1, 0, 1)
        # the parabola vertex matches: argmax over integers is the rounding
        assert abs(Fraction(best) - x_m) <= Fraction(1, 2)


def test_unit_variation_examples():
    v = UnitVariation(1, 3, -1)
    assert apply_unit_variation((1, 2, 3, 4), v) == (2, 2, 2, 4)
    assert cf.continuant((2, 2, 2, 4)) == 53 > 43
    assert is_increasing_unit((1, 2, 3, 4), v)
    v0 = UnitVariation(1, 3, 0)
    assert apply_unit_variation((1, 2, 3, 4), v0) == (1, 2, 3, 4)
    assert is_increasing_unit((1, 2, 3, 4), v0)
    with pytest.raises(ValueError):
        apply_unit_variation((1, 2, 3, 4), UnitVariation(1, 3, 1))  # 1-1=0
    with pytest.raises(ValueError):
        UnitVariation(1, 2, 1)  # parity


def test_unit_variation_certificate_is_exact():
    # the vertex criterion must agree with direct comparison whenever it
    # certifies an increase
    rng = random.Random(43)
    checked = 0
    for _ in range(3000):
        n = rng.randint(3, 9)
        word = tuple(rng.randint(1, 7) for _ in range(n))
        i = rng.randint(1, n - 2)
        j = rng.choice([j for j in range(i + 2, n + 1, 2)])
        lo_shift = -(word[j - 1] - 1)
        hi_shift = word[i - 1] - 1
        if lo_shift > hi_shift:
            continue
        x = rng.randint(lo_shift, hi_shift)
        v = UnitVariation(i, j, x)
        out = apply_unit_variation(word, v)
        if is_increasing_unit(word, v):
            assert cf.continuant(out) >= cf.continuant(word), (word, v)
            checked += 1
        else:
            assert cf.continuant(out) <= cf.continuant(word), (word, v)
    assert checked > 200


def test_weighted_sum_preserved_by_unit_variation():
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randint(4, 10)
        word = tuple(rng.randint(2, 8) for _ in range(n))
        i = rng.randint(1, n - 2)
        j = rng.choice([j for j in range(i + 2, n + 1, 2)])
        v = UnitVariation(i, j, 1)
        out = apply_unit_variation(word, v)
        for o in Orientation:
            assert cf.weighted_sum(out, o) == cf.weighted_sum(word, o)


def test_c_bounds_exact_values():
    cl, cr = step_ratio_bounds(1, 3)
    assert cl == Fraction(31, 19)
    assert cr == Fraction(12, 7)
    # a and b both range over 1..11, so both window orders are covered
    for a in range(1, 12):
        for b in range(1, 12):
            cl, cr = step_ratio_bounds(a, b)
            assert 1 < cl <= cr < 2


def test_c_bounds_bracket_measured_ratios():
    # random words with value sets in ({a, a+1}, {b, b+1}); stepping one
    # a-window value up changes the continuant by a ratio inside [c_l, c_r]
    rng = random.Random(53)
    trials = 0
    while trials < 1000:
        a = rng.randint(1, 6)
        b = rng.randint(1, 6)
        pairs = rng.randint(2, 5)
        word = []
        for _ in range(pairs):
            word += [rng.choice((a, a + 1)), rng.choice((b, b + 1))]
        # interior a-window positions only (flanked on both sides)
        pos = [i for i in range(3, 2 * pairs - 1, 2) if word[i - 1] == a]
        if not pos:
            continue
        i = rng.choice(pos)
        stepped = list(word)
        stepped[i - 1] += 1
        ratio = Fraction(cf.continuant(stepped), cf.continuant(word))
        cl, cr = step_ratio_bounds(a, b)
        assert cl <= ratio <= cr, (word, i, a, b)
        trials += 1


def test_decision_table():
    assert is_abs_increasing_12(1, 3, VariationDirection.RAISE_LIGHT)
    assert is_abs_increasing_12(2, 4, VariationDirection.RAISE_HEAVY)
    assert not is_abs_increasing_12(1, 2, VariationDirection.RAISE_HEAVY)
    assert not is_abs_increasing_12(1, 2, VariationDirection.RAISE_LIGHT)
    assert is_abs_increasing_12(3, 7, VariationDirection.RAISE_LIGHT)
    assert not is_abs_increasing_12(3, 6, VariationDirection.RAISE_LIGHT)
    assert is_abs_increasing_12(3, 6, VariationDirection.RAISE_HEAVY)


def test_decision_table_inside_certificate_region():
    # whenever the table certifies, the underlying step-ratio inequality holds
    for a in range(1, 25):
        for b in range(1, 25):
            for d in VariationDirection:
                if is_abs_increasing_12(a, b, d):
                    assert certificate_inequality(a, b, d), (a, b, d)


def test_certificate_polynomial_positive():
    # numerator of the boundary-case certificate difference
    poly = lambda a: (16 * a ** 8 + 96 * a ** 7 + 264 * a ** 6 + 432 * a ** 5
                      + 417 * a ** 4 + 198 * a ** 3 - 29 * a ** 2 - 92 * a - 32)
    for a in range(1, 101):
        assert poly(a) > 0
    # and it is the exact numerator of c_l(a-step) - c_r(b-step)^2 at b = 2a+1
    for a in range(1, 30):
        al, _ = step_ratio_bounds(a, 2 * a + 1)
        _, br = step_ratio_bounds(2 * a + 1, a)
        diff = al - br * br
        denom = ((4 * a ** 3 + 8 * a ** 2 + 11 * a + 4) ** 2
                 * (4 * a ** 4 + 8 * a ** 3 + 13 * a ** 2 + 9 * a + 4))
        assert diff == Fraction(poly(a), denom)


def test_apply_12_examples():
    v = OneTwoVariation(OneTwoKind.TWO_FOR_ONE, 2, (3,), -1)
    assert apply_12_variation((1, 2, 3, 4, 5), v) == (1, 3, 1, 4, 5)
    v2 = OneTwoVariation(OneTwoKind.ONE_ONE_FOR_ONE, 2, (3, 5), -1)
    assert apply_12_variation((1, 2, 3, 4, 5), v2) == (1, 3, 2, 4, 4)
    v0 = OneTwoVariation(OneTwoKind.TWO_FOR_ONE, 2, (1,), 0)
    assert apply_12_variation((1, 2, 3, 4, 5), v0) == (1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        apply_12_variation((1, 2, 3, 4, 5), OneTwoVariation(
            OneTwoKind.TWO_FOR_ONE, 2, (3,), 2))  # 3 - 4 < 1
    with pytest.raises(ValueError):
        apply_12_variation((1, 2, 3, 4), OneTwoVariation(
            OneTwoKind.TWO_FOR_ONE, 1, (2,), 1), Orientation.PHI)  # weights
    # TAU orientation swaps the roles of the positions
    v_tau = OneTwoVariation(OneTwoKind.TWO_FOR_ONE, 1, (2,), -1)
    out = apply_12_variation((2, 3, 3, 4), v_tau, Orientation.TAU)
    assert out == (3, 1, 3, 4)
    assert cf.weighted_sum(out, Orientation.TAU) == \
        cf.weighted_sum((2, 3, 3, 4), Orientation.TAU)


def test_certified_12_variations_never_decrease_exhaustive():
    # every certified direction applied to every word with matching value
    # sets, at every choice of interior positions (the certificate's
    # flanking sequences need at least two quotients), up to length 10
    for a, b, direction in [(1, 3, VariationDirection.RAISE_LIGHT),
                            (1, 4, VariationDirection.RAISE_LIGHT),
                            (2, 5, VariationDirection.RAISE_LIGHT),
                            (2, 4, VariationDirection.RAISE_HEAVY),
                            (2, 3, VariationDirection.RAISE_HEAVY),
                            (3, 5, VariationDirection.RAISE_HEAVY)]:
        assert is_abs_increasing_12(a, b, direction)
        raise_light = direction is VariationDirection.RAISE_LIGHT
        for pairs in (4, 5):
            n = 2 * pairs
            interior = range(3, n - 1)
            for word in itertools.product(*(((a, a + 1) if i % 2 == 0 else
                                             (b, b + 1)) for i in range(n))):
                heavy_from = a if raise_light else a + 1
                light_from = b + 1 if raise_light else b
                hs = [i + 1 for i in range(0, n, 2)
                      if word[i] == heavy_from and i + 1 in interior]
                ls = [i + 1 for i in range(1, n, 2)
                      if word[i] == light_from and i + 1 in interior]
                if not hs or len(ls) < 2:
                    continue
                x = -1 if raise_light else 1
                for hp in hs:
                    for l1, l2 in itertools.combinations(ls, 2):
                        v = OneTwoVariation(OneTwoKind.ONE_ONE_FOR_ONE, hp,
                                            (l1, l2), x)
                        out = apply_12_variation(word, v, Orientation.TAU)
                        assert cf.continuant(out) >= cf.continuant(word), \
                            (a, b, direction, word, out)


def test_value_sets():
    vp = value_sets((1, 2, 1, 3, 5, 3, 1, 4), Orientation.PHI)
    assert vp.light_set == frozenset({1, 5})
    assert vp.heavy_set == frozenset({2, 3, 4})
