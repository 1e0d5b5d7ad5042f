"""Evaluation of g_lambda: mediant recursion, closed series, ?-function,
certified intervals, Farey sampling."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from dtu import cf
from dtu.cf import PeriodicCF
from dtu.errors import CapExceededError, InputError
from dtu.geval import (SAMPLE_WEIGHTED_DEPTH_MAX, CertifiedInterval, LambdaKind,
                       check_sample_cost, farey_rows, g_finite_series,
                       g_interval, g_mediant, question_mark, sample_farey)
from dtu.golden import GoldenScalar


def farey_fractions(order):
    out = []
    for den in range(1, order + 1):
        for num in range(1, den):
            if gcd(num, den) == 1:
                out.append(Fraction(num, den))
    return sorted(set(out))


def test_mediant_examples():
    assert g_mediant(LambdaKind.PHI_INV, Fraction(1, 2)) == GoldenScalar(-1, 1)
    assert g_mediant(LambdaKind.HALF, Fraction(1, 3)) == Fraction(1, 4)
    assert g_mediant(LambdaKind.PHI_INV, Fraction(2, 5)) == GoldenScalar(7, -4)
    assert g_mediant(LambdaKind.HALF, Fraction(0)) == Fraction(0)
    assert g_mediant(LambdaKind.HALF, Fraction(1)) == Fraction(1)
    with pytest.raises(ValueError):
        g_mediant(LambdaKind.HALF, Fraction(3, 2))


def test_series_examples():
    assert g_finite_series(LambdaKind.PHI_INV, (2,)) == GoldenScalar(-1, 1)
    assert g_finite_series(LambdaKind.PHI_INV, (2, 2)) == GoldenScalar(7, -4)
    assert g_finite_series(LambdaKind.TAU, (2,)) == GoldenScalar(2, -1)
    with pytest.raises(ValueError):
        g_finite_series(LambdaKind.TAU, ())


# 3/7 and 5/8: the integer walk of sample_farey divides exactly by b = 7, 8
WEIGHTS = [LambdaKind.HALF, LambdaKind.PHI_INV, LambdaKind.TAU, Fraction(1, 3),
           Fraction(3, 7), Fraction(5, 8)]


@pytest.mark.parametrize("lam", WEIGHTS)
def test_mediant_jumps_match_stepwise_farey_table(lam):
    # sample_farey applies the recursion one mediant at a time
    golden = lam in (LambdaKind.PHI_INV, LambdaKind.TAU)
    for x, g in sample_farey(lam, 64):
        assert g_mediant(lam, x) == g, (lam, x)
        assert type(x) is Fraction, (lam, x)
        if golden:
            assert type(g) is GoldenScalar, (lam, x)
            assert type(g.a) is int and type(g.b) is int, (lam, x)
        else:
            assert type(g) is Fraction, (lam, x)


@pytest.mark.parametrize("lam", WEIGHTS)
def test_mediant_at_one_huge_quotient(lam):
    # a single run of 99,998 mediant steps toward 0
    assert g_mediant(lam, Fraction(1, 100000)) == g_finite_series(lam, (100000,))


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2, 7), Fraction(3, 7),
                                 Fraction(5, 8), LambdaKind.PHI_INV, LambdaKind.TAU])
def test_mediant_matches_series_on_long_expansions(lam):
    # g_mediant keeps its ends, and g_finite_series its partial sum, as
    # integers: over one power of a rational weight's denominator, and as
    # Z[phi] pairs at the golden weights; each is the other's reference
    rng = random.Random(31)
    points = [Fraction(rng.randint(1, 10 ** 6), 10 ** 6 + 1) for _ in range(20)]
    points.append(cf.value_of([rng.randint(1, 4) for _ in range(1024)]))
    for x in points:
        assert g_mediant(lam, x) == g_finite_series(lam, cf.cf_of(x)), (lam, x)
    # normalising a Fraction at every run (every term) took 10.7 s (8.4 s)
    # at 3/7 on 1,024 quotients of 42, and a GoldenScalar power per term
    # took the golden series about 2 s
    seq = (42,) * 1024
    start = time.perf_counter()
    value = g_mediant(lam, cf.value_of(seq))
    series = g_finite_series(lam, seq)
    assert time.perf_counter() - start < 2
    assert value == series
    assert 0 < value < 1


# the GoldenScalar loops that g_mediant and g_finite_series ran at the golden
# weights, kept as the reference for their integer loops; at a rational
# weight they run on Fractions.  Each weight is written out here, apart from
# the weight object that the mediant, the series and the Farey walk share,
# so that a wrong power there cannot agree with itself.
REFERENCE_WEIGHTS = {LambdaKind.PHI_INV: (GoldenScalar(-1, 1), GoldenScalar(2, -1)),
                     LambdaKind.TAU: (GoldenScalar(2, -1), GoldenScalar(-1, 1)),
                     LambdaKind.HALF: (Fraction(1, 2), Fraction(1, 2))}


def reference_weight(lam):
    """(lambda, 1 - lambda) in the exact field of lam."""
    return REFERENCE_WEIGHTS.get(lam) or (lam, 1 - lam)


def mediant_reference(lam, x):
    lam_v, com_v = reference_weight(lam)
    one = lam_v + com_v
    runs = list(cf.cf_of(x))
    runs[0] -= 1
    runs[-1] -= 1
    g_lo, g_hi = one - one, one
    for i, k in enumerate(runs):
        if i % 2 == 0:
            g_hi = g_lo + lam_v ** k * (g_hi - g_lo)
        else:
            g_lo = g_hi - com_v ** k * (g_hi - g_lo)
    return com_v * g_lo + lam_v * g_hi


def series_reference(lam, seq):
    lam_v, com_v = reference_weight(lam)
    odd_sum = even_sum = 0
    total = lam_v - lam_v
    for i, a in enumerate(cf.canonical(seq), start=1):
        if i % 2 == 1:
            odd_sum += a
        else:
            even_sum += a
        term = lam_v ** (odd_sum - 1) * com_v ** even_sum
        total = total + term if i % 2 == 1 else total - term
    return total


@pytest.mark.parametrize("lam", [LambdaKind.PHI_INV, LambdaKind.TAU, LambdaKind.HALF,
                                 Fraction(1, 3), Fraction(3, 7), Fraction(5, 8)])
def test_golden_evaluators_match_the_golden_scalar_loops(lam):
    golden = lam in (LambdaKind.PHI_INV, LambdaKind.TAU)
    # Fraction powers are slow, so a rational weight takes fewer points
    order, draws, runs = (60, 2000, 4) if golden else (24, 200, 1)
    rng = random.Random(41)
    points = farey_fractions(order)
    for _ in range(draws):
        q = rng.randint(2, 10 ** 6)
        points.append(Fraction(rng.randint(1, q - 1), q))
    points.append(Fraction(1, 100000))
    cases = [(x, cf.cf_of(x)) for x in points]
    for _ in range(runs):
        seq = tuple(rng.randint(1, 4) for _ in range(1024))
        cases.append((cf.value_of(seq), seq))
    for x, seq in cases:
        for got, want in ((g_mediant(lam, x), mediant_reference(lam, x)),
                          (g_finite_series(lam, seq), series_reference(lam, seq))):
            if golden:
                assert type(got) is GoldenScalar, (lam, x)
                assert type(got.a) is int and type(got.b) is int, (lam, x)
                assert (got.a, got.b) == (want.a, want.b), (lam, x)
            else:
                assert type(got) is Fraction, (lam, x)
                assert got == want, (lam, x)


def test_series_equals_mediant_on_farey_order_24_with_random_weights():
    rng = random.Random(23)
    weights = [LambdaKind.HALF, LambdaKind.PHI_INV, LambdaKind.TAU]
    weights += [Fraction(rng.randint(1, 9), rng.randint(10, 19))
                for _ in range(5)]
    for lam in weights:
        for x in farey_fractions(24):
            assert g_finite_series(lam, cf.cf_of(x)) == g_mediant(lam, x), (lam, x)


def test_series_convention_insensitive():
    rng = random.Random(29)
    for _ in range(200):
        den = rng.randint(3, 200)
        num = rng.randint(1, den - 1)
        x = Fraction(num, den)
        a = cf.cf_of(x)
        b = a[:-1] + (a[-1] - 1, 1)  # the last-is-one form
        for lam in (LambdaKind.PHI_INV, LambdaKind.TAU, LambdaKind.HALF):
            assert g_finite_series(lam, a) == g_finite_series(lam, b)


def test_question_mark():
    assert question_mark(Fraction(1, 3)) == Fraction(1, 4)
    assert question_mark(Fraction(1, 2)) == Fraction(1, 2)
    assert question_mark(Fraction(2, 5)) == Fraction(3, 8)
    for x in farey_fractions(20):
        q = question_mark(x)
        assert q == g_mediant(LambdaKind.HALF, x)
        # dyadic denominator
        assert q.denominator & (q.denominator - 1) == 0


def test_reflection_identity_exact():
    for x in farey_fractions(20) + [Fraction(0), Fraction(1)]:
        lhs = g_mediant(LambdaKind.PHI_INV, x) + g_mediant(LambdaKind.TAU, 1 - x)
        assert lhs == GoldenScalar(1)


def test_interval_enclosure_and_width():
    tol = Fraction(1, 10 ** 6)
    iv = g_interval(LambdaKind.PHI_INV, PeriodicCF((), (1,)), tol)
    assert isinstance(iv, CertifiedInterval)
    assert iv.width <= tol
    # the value is squeezed by evaluations at deep convergents
    lo_approx = g_mediant(LambdaKind.PHI_INV, cf.value_of((1,) * 26))
    hi_approx = g_mediant(LambdaKind.PHI_INV, cf.value_of((1,) * 25))
    assert lo_approx < hi_approx
    assert iv.hi >= lo_approx - tol and iv.lo <= hi_approx + tol


def test_interval_partial_sum_form():
    tol = Fraction(1, 1000)
    iv = g_interval(LambdaKind.PHI_INV, PeriodicCF((), (2,)), tol)
    assert iv.width <= tol
    # partial sums of phi^(1 - S_i) for the all-twos word bracket the value
    partial = GoldenScalar(0)
    weighted = 0
    sign = 1
    for i in range(1, 40):
        weighted += 2 * (2 if i % 2 == 0 else 1)
        partial = partial + GoldenScalar.phi_power(1 - weighted) * sign
        sign = -sign
    plo, phi_ = partial.bounds(256)
    assert iv.lo - tol <= plo <= iv.hi + tol


def test_interval_reflection_cross_check():
    tol = Fraction(1, 10 ** 6)
    a = g_interval(LambdaKind.TAU, PeriodicCF((2,), (1,)), tol)
    b = g_interval(LambdaKind.PHI_INV, PeriodicCF((), (1,)), tol)
    # x = [0; overline 1] and 1 - x = [0; 2, overline 1]: values sum to 1
    total_lo = a.lo + b.lo
    total_hi = a.hi + b.hi
    assert total_lo <= 1 <= total_hi


def test_interval_encloses_each_partial_sum_once(monkeypatch):
    calls = []
    bounds = GoldenScalar.bounds

    def counted(self, bits=64):
        calls.append(bits)
        return bounds(self, bits)

    monkeypatch.setattr(GoldenScalar, "bounds", counted)
    tol = Fraction(1, 10 ** 30)
    iv = g_interval(LambdaKind.PHI_INV, PeriodicCF((), (1, 2)), tol)
    assert calls == [102, 102]  # one per endpoint, 2^-103 <= tol/8
    assert iv.width <= tol


def test_interval_validation():
    with pytest.raises(ValueError):
        g_interval(LambdaKind.HALF, PeriodicCF((), (1,)), Fraction(1, 10))
    with pytest.raises(ValueError):
        g_interval(LambdaKind.TAU, PeriodicCF((), (1,)), Fraction(0))


@pytest.mark.parametrize("lam", [LambdaKind.HALF, LambdaKind.PHI_INV,
                                 LambdaKind.TAU, Fraction(2, 7)])
def test_sample_farey_complete_sorted_monotone(lam):
    depth = 12
    table = sample_farey(lam, depth)
    xs = [x for x, _ in table]
    assert xs == farey_fractions(depth) == sorted(xs) or \
        xs == [Fraction(0)] + farey_fractions(depth) + [Fraction(1)]
    values = [g for _, g in table]
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
    assert values[0] == 0 if not isinstance(values[0], GoldenScalar) else values[0] == GoldenScalar(0)


def test_sample_farey_examples_and_cap():
    table = dict(sample_farey(LambdaKind.HALF, 2))
    assert table == {Fraction(0): Fraction(0), Fraction(1, 2): Fraction(1, 2),
                     Fraction(1): Fraction(1)}
    table3 = dict(sample_farey(LambdaKind.PHI_INV, 3))
    assert table3[Fraction(1, 3)] == GoldenScalar(2, -1)
    assert table3[Fraction(1, 2)] == GoldenScalar(-1, 1)
    assert table3[Fraction(2, 3)] == GoldenScalar(-4, 3)
    tau_table = dict(sample_farey(LambdaKind.TAU, 3))
    for x, g in tau_table.items():
        assert g == GoldenScalar(1) - table3[1 - x]
    with pytest.raises(CapExceededError, match="depth 10 exceeds cap 5"):
        sample_farey(LambdaKind.HALF, 10, depth_cap=5)


@pytest.mark.parametrize("lam", [LambdaKind.PHI_INV, Fraction(3, 7)])
def test_farey_rows_stream_the_table_and_check_when_called(lam):
    table = sample_farey(lam, 40)
    rows = farey_rows(lam, 40)
    assert next(rows) == table[0]
    assert list(rows) == table[1:]
    # rejected before any row is asked for, so `dtu sample` opens no file
    with pytest.raises(CapExceededError, match="depth 10 exceeds cap 5"):
        farey_rows(lam, 10, depth_cap=5)
    with pytest.raises(InputError):
        farey_rows(lam, 0)
    with pytest.raises(InputError):
        farey_rows(Fraction(3, 2), 10)


def test_sample_cost_counts_the_depth_once_per_bit_of_q():
    # every named weight and every q < 2^8 passes up to the default depth cap
    for lam in [*LambdaKind, Fraction(1, 2), Fraction(1, 255), Fraction(254, 255)]:
        check_sample_cost(lam, 512)
    assert SAMPLE_WEIGHTED_DEPTH_MAX == 8 * 512
    check_sample_cost(Fraction(1, 1000000007), 136)  # 30 bits: 4,080
    for lam, depth in [(Fraction(1, 256), 512), (Fraction(1, 1000000007), 137),
                       (Fraction(1, 10 ** 16 + 1), 256)]:
        with pytest.raises(CapExceededError, match="passes the cap 4096"):
            check_sample_cost(lam, depth)
    # a weight outside (0, 1) is sample_farey's to reject; the library is uncapped
    check_sample_cost(Fraction(3, 2), 10 ** 6)
    lam = Fraction(1, 2 ** 4000)
    with pytest.raises(CapExceededError):
        check_sample_cost(lam, 2)
    assert sample_farey(lam, 2)[1] == (Fraction(1, 2), lam)
