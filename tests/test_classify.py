"""Derivative classification, growth rates, envelopes, threshold bracketing."""

import importlib
import math
import random
from fractions import Fraction

import pytest

from dtu import cf
from dtu.cf import Orientation, PeriodicCF
from dtu.classify import (BracketStep, Classification, EnvelopeSide,
                          _run_node, c734_word, classify, classify_verdict,
                          envelope, growth_rate, kappa, kappa2_bracket)
from dtu.golden import GoldenScalar
from dtu.surd import QuadraticSurd, compare_values

P = lambda *seq: PeriodicCF((), tuple(seq))


def test_growth_rates():
    assert growth_rate((1, 2)).value == QuadraticSurd(2, 1, 1, 3)
    assert growth_rate((7, 4)).value == QuadraticSurd(15, 4, 1, 14)
    assert growth_rate((1, 1)).value == QuadraticSurd(3, 1, 2, 5)
    # odd periods double
    r = growth_rate((3,))
    assert r.period_length == 2
    assert r.value == growth_rate((3, 3)).value
    # trace of the period matrix: [[29, 7], [4, 1]] and [[10, 3], [3, 1]]
    assert growth_rate((7, 4)).trace == 30
    assert r.trace == 11
    with pytest.raises(ValueError):
        growth_rate(())


def test_growth_rate_matches_continuant_growth():
    # <A^m> / lambda^m stabilizes; successive relative change < 1e-9 by m=40
    lam = growth_rate((7, 4)).value
    lam_lo, lam_hi = lam.bounds(128)
    prev = None
    word = ()
    ratios = []
    for m in range(1, 42):
        word += (7, 4)
        q = cf.continuant(word)
        ratios.append(Fraction(q) / ((lam_lo + lam_hi) / 2) ** m)
    for m in (39, 40):
        change = abs(ratios[m] / ratios[m - 1] - 1)
        assert change < Fraction(1, 10 ** 9)
    # <A^(m+1)> <A^(m-1)> / <A^m>^2 -> 1
    q39 = cf.continuant((7, 4) * 39)
    q40 = cf.continuant((7, 4) * 40)
    q41 = cf.continuant((7, 4) * 41)
    assert abs(Fraction(q41 * q39, q40 * q40) - 1) < Fraction(1, 10 ** 9)


def test_pinned_classifications():
    assert classify(P(7, 4)) is Classification.DERIV_ZERO
    assert classify(P(7, 3)) is Classification.DERIV_INFINITY
    assert classify(P(1, 2)) is Classification.DERIV_INFINITY
    assert classify(P(1, 3)) is Classification.DERIV_ZERO


def test_certificate_is_exact_and_consistent():
    v = classify_verdict(P(7, 3))
    assert v.certificate.sign == 1
    assert v.certificate.exponent == 13
    assert v.certificate.lambda_squared > v.certificate.phi_power
    # phi^13 = 144 + 233 phi, so L_13 = 521; tr(M^4) = 527^2 - 2 > L_26 = 521^2 + 2
    assert v.certificate.phi_power == GoldenScalar(144, 233)
    assert (v.certificate.trace, v.certificate.lucas) == (23, 521)
    v = classify_verdict(P(7, 4))
    assert v.certificate.sign == -1
    assert v.certificate.lambda_squared < v.certificate.phi_power
    assert v.kappa == 15


BOUNDARY_CASES = [((4, 4), Orientation.PHI), ((4, 4), Orientation.TAU),
                  ((8, 2), Orientation.PHI), ((1, 3, 1, 2), Orientation.PHI),
                  ((2, 8), Orientation.TAU)]


def test_boundary_verdicts_pinned():
    # lambda_A^2 = phi^S exactly: S is even and tr(M^2) = T^2 - 2 = L_S
    for period, o in BOUNDARY_CASES:
        v = classify_verdict(P(*period), o)
        cert = v.certificate
        assert v.classification is Classification.BOUNDARY, (period, o)
        assert classify(P(*period), o) is Classification.BOUNDARY
        assert cert.sign == 0 and cert.exponent % 2 == 0
        assert cert.trace ** 2 - 2 == cert.lucas
        assert cert.lambda_squared.algebraically_equal(
            QuadraticSurd.from_golden(cert.phi_power))
    # (4,4): T = 18, S = 12, L_12 = 322 = 18^2 - 2, lambda^2 = phi^12
    cert = classify_verdict(P(4, 4)).certificate
    assert (cert.trace, cert.exponent, cert.lucas) == (18, 12, 322)


def _interval_sign(period, o) -> int:
    """The interval-refinement verdict: lambda_A^2 against phi^S as surds."""
    lam = growth_rate(period).value
    return compare_values(lam * lam,
                          GoldenScalar.phi_power(cf.weighted_sum(period, o)))


def test_integer_verdict_matches_interval_oracle():
    rng = random.Random(101)
    periods = [tuple(rng.randint(1, 12) for _ in range(2 * rng.randint(1, 8)))
               for _ in range(300)]
    periods += [period for period, _ in BOUNDARY_CASES]
    for period in periods:
        for o in Orientation:
            cert = classify_verdict(P(*period), o).certificate
            assert cert.sign == _interval_sign(period, o), (period, o)
    steps = kappa2_bracket(Fraction(1, 500)).trace
    assert len(steps) == 12
    for step in steps:
        word = c734_word(step.density.numerator, step.density.denominator)
        v = classify_verdict(P(*word))
        assert v.classification is step.classification
        assert v.certificate.sign == _interval_sign(word, Orientation.PHI)


def test_kappa():
    assert kappa((7, 3), Orientation.PHI) == 13
    assert kappa((1, 1), Orientation.PHI) == 3
    assert kappa(c734_word(1, 38), Orientation.PHI) == 13 + Fraction(2, 38)
    with pytest.raises(ValueError):
        kappa((1, 2, 3), Orientation.PHI)


def test_preperiod_never_changes_verdict():
    rng = random.Random(83)
    for _ in range(50):
        period = tuple(rng.randint(1, 8) for _ in range(2 * rng.randint(1, 4)))
        pre = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 4)))
        assert classify(PeriodicCF(pre, period)) == classify(PeriodicCF((), period))


def test_rotation_invariance():
    rng = random.Random(89)
    for _ in range(60):
        period = tuple(rng.randint(1, 8) for _ in range(2 * rng.randint(1, 4)))
        n = len(period)
        two_rot = period[2 % n:] + period[:2 % n]
        assert classify(P(*two_rot)) == classify(P(*period))
        one_rot = period[1:] + period[:1]
        assert classify(P(*one_rot), Orientation.TAU) == \
            classify(P(*period), Orientation.PHI)


def test_tau_duality():
    rng = random.Random(97)
    for _ in range(100):
        period = tuple(rng.randint(1, 9) for _ in range(2 * rng.randint(1, 5)))
        assert classify(PeriodicCF((), period), Orientation.TAU) == \
            classify(PeriodicCF((), cf.reverse(period)), Orientation.PHI)
    assert classify(P(7, 4), Orientation.TAU) == classify(P(4, 7), Orientation.PHI)


def test_envelope_values():
    env = envelope((7, 4), Orientation.PHI, EnvelopeSide.LOWER)
    assert env.exact == GoldenScalar.phi_power(-22) * 203
    assert env.interval.lo <= env.interval.hi
    assert env.interval.width <= Fraction(1, 10 ** 12)
    env = envelope((7, 4, 7, 4), Orientation.PHI, EnvelopeSide.UPPER)
    assert env.exact == GoldenScalar.phi_power(-25) * (869 * 869)
    env_tau = envelope((7, 4), Orientation.TAU, EnvelopeSide.LOWER)
    assert env_tau.exact == GoldenScalar.phi_power(-(18 + 9)) * 203


def test_envelope_encloses_its_value_once(monkeypatch):
    calls = []
    bounds = GoldenScalar.bounds

    def counted(self, bits=64):
        calls.append(bits)
        return bounds(self, bits)

    monkeypatch.setattr(GoldenScalar, "bounds", counted)
    env = envelope((7, 4, 7, 3), Orientation.TAU, EnvelopeSide.UPPER)
    assert calls == [64]
    assert env.interval.width < Fraction(1, 2 ** 65)
    assert GoldenScalar(env.interval.lo) < env.exact < GoldenScalar(env.interval.hi)


def test_envelope_verdict_coherence():
    # DERIV_ZERO: upper envelope -> 0 along prefix powers (geometric decay);
    # DERIV_INFINITY: lower envelope -> infinity (geometric growth), checked
    # to 50 periods
    for period, expected in [((7, 4), Classification.DERIV_ZERO),
                             ((7, 3), Classification.DERIV_INFINITY),
                             ((1, 2), Classification.DERIV_INFINITY),
                             ((1, 3), Classification.DERIV_ZERO)]:
        assert classify(P(*period)) is expected
        side = (EnvelopeSide.UPPER if expected is Classification.DERIV_ZERO
                else EnvelopeSide.LOWER)
        values = [envelope(period * m, Orientation.PHI, side).exact
                  for m in range(2, 51, 8)]
        if expected is Classification.DERIV_ZERO:
            assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
            assert values[-1] < Fraction(1, 10 ** 3)
        else:
            assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
            assert values[-1] > values[0] * Fraction(3, 2)  # clear growth
    # monotone growth of the lower envelope along the infinite-verdict point
    values = [envelope((7, 3) * m, Orientation.PHI, EnvelopeSide.LOWER).exact
              for m in range(2, 12)]
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))


def test_c734_words():
    assert c734_word(0, 1) == (7, 3)
    assert c734_word(1, 1) == (7, 4)
    assert c734_word(1, 38) == (7, 3) * 37 + (7, 4)
    assert c734_word(1, 39) == (7, 3) * 38 + (7, 4)
    word = c734_word(3, 8)
    pairs = [(word[i], word[i + 1]) for i in range(0, len(word), 2)]
    assert pairs.count((7, 4)) == 3 and pairs.count((7, 3)) == 5
    # the (7,4) blocks sit where the mechanical word of density p/q steps
    for q in range(1, 40):
        for p in range(q + 1):
            heavy = [4 if ((j + 1) * p) // q - (j * p) // q == 1 else 3
                     for j in range(q)]
            assert c734_word(p, q) == tuple(v for h in heavy for v in (7, h))


def test_kappa2_bracket_eps_one():
    br = kappa2_bracket(Fraction(1))
    assert (br.lo, br.hi) == (13, 15)
    assert br.witness_lo.period == (7, 3)
    assert br.witness_hi.period == (7, 4)
    assert br.trace == ()


def test_kappa2_bracket_properties():
    eps = Fraction(1, 50)
    br = kappa2_bracket(eps)
    assert br.hi - br.lo <= 2 * eps
    assert classify(br.witness_lo) is Classification.DERIV_INFINITY
    assert classify(br.witness_hi) is Classification.DERIV_ZERO
    assert br.lo < br.hi
    assert len(br.trace) <= 12
    for step in br.trace:
        assert isinstance(step, BracketStep)
        assert step.kappa == 13 + 2 * step.density
        assert step.period_length == 2 * step.density.denominator


def test_kappa2_bracket_corrected_enclosure():
    # exact arithmetic places the threshold between the 37-pair and 36-pair
    # family words: the 37-pair word's growth satisfies lambda^2 > phi^496
    br = kappa2_bracket(Fraction(1, 500))
    assert br.lo == 13 + Fraction(2, 38)
    assert br.hi == 13 + Fraction(2, 37)
    assert br.witness_lo.period == (7, 3) * 37 + (7, 4)
    assert br.witness_hi.period == (7, 3) * 36 + (7, 4)
    assert classify(br.witness_lo) is Classification.DERIV_INFINITY
    assert classify(br.witness_hi) is Classification.DERIV_ZERO
    assert len(br.trace) == 12


def test_kappa2_trace_budget():
    import math
    for eps in (Fraction(1), Fraction(1, 10), Fraction(1, 500)):
        br = kappa2_bracket(eps)
        assert len(br.trace) <= math.ceil(math.log2(2 / eps)) + 2
    with pytest.raises(ValueError):
        kappa2_bracket(Fraction(0))


def test_kappa2_verdict_monotone_along_trace():
    br = kappa2_bracket(Fraction(1, 500))
    zeros = [s.density for s in br.trace
             if s.classification is Classification.DERIV_ZERO]
    infs = [s.density for s in br.trace
            if s.classification is Classification.DERIV_INFINITY]
    assert max(infs) < min(zeros)


def farey_neighbours(lo=(0, 1), hi=(1, 1)):
    """Every Farey-neighbour pair a/b < c/d in [0, 1] with b + d <= 120."""
    (a, b), (c, d) = lo, hi
    if b + d > 120:
        return
    yield lo, hi
    yield from farey_neighbours(lo, (a + c, b + d))
    yield from farey_neighbours((a + c, b + d), hi)


def test_c734_words_factor_at_farey_neighbours():
    # the Christoffel factorization the kappa2 descent builds its words by:
    # for Farey neighbours a/b < c/d the word at (a+c)/(b+d) is the word at
    # a/b followed by the word at c/d
    pairs = list(farey_neighbours())
    # one pair per mediant: every reduced fraction in (0, 1) of denominator <= 120
    assert len(pairs) == sum(1 for q in range(2, 121) for p in range(1, q)
                             if math.gcd(p, q) == 1)
    for (a, b), (c, d) in pairs:
        assert c734_word(a + c, b + d) == c734_word(a, b) + c734_word(c, d)


def test_run_node_matrix_is_the_quotient_matrix_of_its_word():
    # the whole matrix, not only its trace: the trace is invariant under
    # rotation, so only the full matrix tells M(near)^k M(far) from
    # M(far) M(near)^k
    def node(p, q):
        word = c734_word(p, q)
        return p, q, word, cf._quotient_matrix(word)

    for (a, b), (c, d) in farey_neighbours():
        lo, hi = node(a, b), node(c, d)
        for k in (1, 2, 3, 5):
            for near_left in (True, False):
                near, far = (lo, hi) if near_left else (hi, lo)
                p, q, word, m = _run_node(near, far, k, near_left)
                assert (p, q) == (k * near[0] + far[0], k * near[1] + far[1])
                assert word == (near[2] * k + far[2] if near_left
                                else far[2] + near[2] * k)
                # unchecked: the words concatenate c734_word ones, so
                # validating them again would only add time
                assert m == cf._quotient_matrix(word), (a, b, c, d, k, near_left)


@pytest.mark.parametrize("eps", [Fraction(1, 500), Fraction(1, 10 ** 4),
                                 Fraction(1, 10 ** 6)])
def test_kappa2_steps_match_the_word_verdicts(eps):
    # the word-based route is the oracle for the descent's matrix verdicts
    br = kappa2_bracket(eps)
    for step in br.trace:
        p, q = step.density.numerator, step.density.denominator
        v = classify_verdict(PeriodicCF((), c734_word(p, q)))
        assert (step.classification, step.kappa) == (v.classification, v.kappa)


@pytest.mark.parametrize("eps", [Fraction(1, 50), Fraction(1, 500),
                                 Fraction(1, 10 ** 4), Fraction(1, 10 ** 6)])
def test_kappa2_witnesses_are_the_endpoint_words(eps):
    br = kappa2_bracket(eps)
    for end, witness in ((br.lo, br.witness_lo), (br.hi, br.witness_hi)):
        density = (end - 13) / 2
        assert witness == PeriodicCF(
            (), c734_word(density.numerator, density.denominator))


def test_kappa2_bracket_builds_and_validates_each_word_once(monkeypatch):
    # the package re-exports the function classify, which shadows the module
    classify_module = importlib.import_module("dtu.classify")
    calls = {"c734_word": 0, "classify_verdict": 0, "check_quotients": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(classify_module, "c734_word",
                        counted("c734_word", classify_module.c734_word))
    monkeypatch.setattr(classify_module, "classify_verdict",
                        counted("classify_verdict",
                                classify_module.classify_verdict))
    monkeypatch.setattr(cf, "check_quotients",
                        counted("check_quotients", cf.check_quotients))
    br = kappa2_bracket(Fraction(1, 10 ** 6))
    assert len(br.trace) == 24
    # only the two anchors are built by c734_word and classified from their
    # words; each anchor is validated by PeriodicCF (preperiod and period)
    # and by its period matrix, and the steps validate nothing
    assert calls["c734_word"] <= 2
    assert calls["classify_verdict"] == 2
    assert calls["check_quotients"] <= 2 * 3


def test_f_monotonicity_at_n8():
    # brute max^2 / phi^S strictly decreases as S grows across per-pair sums
    # 13..15 at n = 8 (exact extrema over all of M(8, S); the largest
    # instances have more words than the default cap)
    from dtu.extremal import ExtremalInstance, brute_extrema

    maxima = {}
    for s in range(52, 61):
        maxima[s] = brute_extrema(ExtremalInstance(8, s), cap=2 * 10 ** 7).max_value
    for s in range(52, 60):
        lhs = GoldenScalar.phi_power(s + 1) * maxima[s] ** 2
        rhs = GoldenScalar.phi_power(s) * maxima[s + 1] ** 2
        assert lhs > rhs  # f(s) > f(s+1)


def test_boundary_verdict_reachable_in_principle():
    # the interval path must report equality exactly when it holds
    lam = growth_rate((1, 1)).value  # phi^2
    sq = lam * lam
    assert sq.algebraically_equal(QuadraticSurd.from_golden(GoldenScalar.phi_power(4)))
    assert sq.compare(GoldenScalar.phi_power(4)) == 0
