"""Derivative classification, growth rates, envelopes, threshold bracketing."""

import importlib
import math
import random
from fractions import Fraction

import pytest

from dtu import cf
from dtu.cf import Orientation, PeriodicCF
from dtu.errors import CapExceededError
from dtu.classify import (BracketStep, Classification, EnvelopeSide,
                          KappaBracket, _run_node, c734_word, classify,
                          classify_verdict, envelope, growth_rate, kappa,
                          kappa2_bracket)
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
    rng = random.Random(7)
    pairs = [(p, q) for q in range(1, 40) for p in range(q + 1)]
    pairs += [(rng.randint(0, q), q) for q in rng.sample(range(40, 5000), 60)]
    for p, q in pairs:
        heavy = [4 if ((j + 1) * p) // q - (j * p) // q == 1 else 3
                 for j in range(q)]
        assert c734_word(p, q) == tuple(v for h in heavy for v in (7, h)), (p, q)


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


def _fibonacci_power(n):
    """F^n for F = [[1, 1], [1, 0]], flat, by repeated squaring."""
    result, square = (1, 0, 0, 1), (1, 1, 1, 0)
    while n:
        if n & 1:
            result = cf._matrix_product(result, square)
        n >>= 1
        square = cf._matrix_product(square, square)
    return result


def _exact_node(p, q):
    """The descent's node for c734_word(p, q), with its matrices exact."""
    # unchecked: c734_word's words are valid
    m = cf._quotient_matrix(c734_word(p, q))
    f = _fibonacci_power(13 * q + 2 * p)
    return p, q, (m, m, 0), (f, f, 0)


def test_run_node_matrix_is_the_quotient_matrix_of_its_word():
    # the whole matrix, not only its trace: the trace is invariant under
    # rotation, so only the full matrix tells M(near)^k M(far) from
    # M(far) M(near)^k.  At 8-bit mantissas the enclosures must contain the
    # node word's matrix and F^S, S = 13q + 2p; with room for every entry
    # they must equal them.
    exact_bits = 1 << 16
    for (a, b), (c, d) in farey_neighbours():
        lo, hi = _exact_node(a, b), _exact_node(c, d)
        for k in (1, 2, 3, 5):
            for near_left in (True, False):
                near, far = (lo, hi) if near_left else (hi, lo)
                p, q, *enclosures = _run_node(near, far, k, near_left, 8)
                assert (p, q) == (k * near[0] + far[0], k * near[1] + far[1])
                exact = _exact_node(p, q)
                for (xlo, xhi, e), (x, _, _) in zip(enclosures, exact[2:]):
                    assert all(u << e <= v <= w << e
                               for u, v, w in zip(xlo, x, xhi)), (a, b, c, d, k)
                    assert max(xhi) <= 1 << 8
                assert _run_node(near, far, k, near_left, exact_bits) == exact, \
                    (a, b, c, d, k, near_left)


def test_anchors_are_exact_nodes():
    # F^n = [[F(n+1), F(n)], [F(n), F(n-1)]]
    assert _fibonacci_power(13) == (377, 233, 233, 144)
    assert _fibonacci_power(15) == (987, 610, 610, 377)
    classify_module = importlib.import_module("dtu.classify")
    for p in (0, 1):
        assert classify_module._anchor(p) == (c734_word(p, 1), _exact_node(p, 1))


def _descend(eps, bits):
    """The descent from the anchor nodes 0/1 and 1/1 at `bits`-bit mantissas."""
    classify_module = importlib.import_module("dtu.classify")
    anchors = [classify_module._anchor(p)[1] for p in (0, 1)]
    return classify_module._descend(eps, *anchors, bits)


@pytest.mark.parametrize("eps", [Fraction(1, 500), Fraction(1, 10 ** 6),
                                 Fraction(1, 10 ** 9)])
def test_interval_steps_match_the_exact_node_verdicts(eps, monkeypatch):
    classify_module = importlib.import_module("dtu.classify")
    # mantissas wide enough that no enclosure is ever rounded, so every
    # step takes the integer route
    exact = _descend(eps, 1 << 40)
    integer_route = []
    verdict_sign = classify_module._verdict_sign
    monkeypatch.setattr(classify_module, "_verdict_sign",
                        lambda t, s: integer_route.append(s) or verdict_sign(t, s))
    br = kappa2_bracket(eps)
    assert (br.lo, br.hi, br.trace) == (exact.lo, exact.hi, exact.trace)
    if eps < Fraction(1, 10 ** 6):
        # most steps were decided by the enclosures, not the integer route
        assert len(integer_route) < len(br.trace) / 2


@pytest.mark.parametrize("bits", [7, 8, 12])
def test_interval_sign_is_the_exact_sign_or_undecided(bits):
    # with few mantissa bits many nodes are undecided; a decided one must
    # agree with the integer verdict of its exact matrix
    classify_module = importlib.import_module("dtu.classify")
    decided = 0
    for (a, b), (c, d) in farey_neighbours():
        if b + d > 60:
            continue
        ends = [_exact_node(a, b), _exact_node(c, d)]
        for k in (1, 2, 7):
            for near_left in (True, False):
                near, far = ends if near_left else ends[::-1]
                node = _run_node(near, far, k, near_left, bits)
                p, q, (_, _, e), _ = node
                m = cf._quotient_matrix(c734_word(p, q))
                exact = classify_module._verdict_sign(m[0] + m[3], 13 * q + 2 * p)[0]
                try:
                    sign = classify_module._node_sign(node)
                except classify_module._Undecided:
                    continue
                decided += e > 0
                assert sign == exact, (p, q)
    assert decided > 50


@pytest.mark.parametrize("t_lo, t_hi, lucas, sign", [
    (3, 3, 36, -1),  # T^2 = L_S: T^2 - 2 < L_S <= phi^S + phi^-S
    (3, 3, 30, 1),  # T^2 - 2 = 34 > 32 > phi^S + phi^-S
    (3, 3, 33, None),  # true sign +1 for an even S, but within the rule's slack
    (3, 4, 50, None),  # T^2 in [36, 64] straddles L_S
])
def test_node_sign_rule_on_given_enclosures(t_lo, t_hi, lucas, sign):
    # T in [2 t_lo, 2 t_hi] and L_S = tr(F^S) = lucas exactly, to test the
    # decision rule of _node_sign apart from the enclosures it is given
    classify_module = importlib.import_module("dtu.classify")

    def node_sign(l_lo, l_hi):
        node = (1, 38, ((t_lo, 0, 0, 0), (t_hi, 0, 0, 0), 1),
                ((l_lo - 10, 0, 0, 10), (l_hi - 10, 0, 0, 10), 0))
        try:
            return classify_module._node_sign(node)
        except classify_module._Undecided:
            return None

    assert node_sign(lucas, lucas) == sign
    # a wider enclosure of L_S decides a sign only when both its ends do
    below, above = node_sign(lucas - 1, lucas - 1), node_sign(lucas + 1, lucas + 1)
    assert node_sign(lucas - 1, lucas + 1) == (below if below == above else None)


@pytest.mark.parametrize("bits", [8, 12, 64, 200])
def test_phi_power_enclosure_contains_phi_power(bits):
    # phi^S reaches _node_sign through an enclosure of F^S: its entries
    # F(S+1), F(S), F(S-1) give phi^S = F(S) phi + F(S-1) and its trace L_S
    classify_module = importlib.import_module("dtu.classify")
    fib = ((1, 1, 1, 0), (1, 1, 1, 0), 0)
    for s in list(range(1, 300)) + [1000, 4097, 65535]:
        lo, hi, e = classify_module._enclosure_power(fib, s, bits)
        assert max(hi) <= 1 << bits
        exact = _fibonacci_power(s)
        assert all(u << e <= v <= w << e for u, v, w in zip(lo, exact, hi)), s
        scale = Fraction(2) ** e
        phi_s = GoldenScalar.phi_power(s)
        assert compare_values(GoldenScalar(lo[3] * scale, lo[1] * scale), phi_s) <= 0, s
        assert compare_values(GoldenScalar(hi[3] * scale, hi[1] * scale), phi_s) >= 0, s
    if bits >= 64:  # F^1000, so phi^1000 and L_1000, to better than 20 bits
        lo, hi, _ = classify_module._enclosure_power(fib, 1000, bits)
        assert all((w - u) << 20 < u for u, w in zip(lo, hi))


def test_kappa2_brackets_nest_down_to_1e40():
    previous = None
    for k in range(2, 41):
        eps = Fraction(1, 10 ** k)
        br = kappa2_bracket(eps)
        assert br.hi - br.lo <= 2 * eps
        if previous is not None:
            assert previous.lo <= br.lo < br.hi <= previous.hi, k
        previous = br


def test_kappa2_trace_does_not_depend_on_the_precision():
    # every interval verdict is certified, so a descent at four times the
    # mantissa bits must take the same steps
    eps = Fraction(1, 10 ** 15)
    wide = _descend(eps, 4 * importlib.import_module("dtu.classify")._mantissa_bits(eps))
    br = kappa2_bracket(eps)
    assert (br.lo, br.hi, br.trace) == (wide.lo, wide.hi, wide.trace)


def test_kappa2_undecided_steps_rerun_at_doubled_precision(monkeypatch):
    classify_module = importlib.import_module("dtu.classify")
    expected = kappa2_bracket(Fraction(1, 10 ** 6))
    runs = []
    descend = classify_module._descend
    monkeypatch.setattr(classify_module, "_descend",
                        lambda *args: runs.append(args[-1]) or descend(*args))
    monkeypatch.setattr(classify_module, "_mantissa_bits", lambda eps: 8)
    br = kappa2_bracket(Fraction(1, 10 ** 6))
    assert runs == [8, 16, 32, 64][:len(runs)] and len(runs) > 1
    assert (br.lo, br.hi, br.trace) == (expected.lo, expected.hi, expected.trace)

    def undecided(node):
        raise classify_module._Undecided(Fraction(node[0], node[1]))

    runs.clear()
    monkeypatch.setattr(classify_module, "_node_sign", undecided)
    with pytest.raises(CapExceededError, match="undecided at 64-bit"):
        kappa2_bracket(Fraction(1, 10 ** 6))
    assert runs == [8, 16, 32, 64]


def test_kappa2_eps_floor():
    classify_module = importlib.import_module("dtu.classify")
    floor = classify_module.KAPPA2_EPS_FLOOR
    assert floor == Fraction(1, 10 ** 100)
    with pytest.raises(CapExceededError):
        kappa2_bracket(floor * Fraction(99, 100))
    br = kappa2_bracket(floor)
    assert br.hi - br.lo <= 2 * floor


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


def test_kappa2_witnesses_past_the_cap_are_not_built(monkeypatch):
    classify_module = importlib.import_module("dtu.classify")
    cap = classify_module.WITNESS_QUOTIENTS_MAX
    at_cap = KappaBracket(13 + Fraction(2, cap // 2), 14, ())
    assert len(at_cap.witness_lo.period) == cap
    with pytest.raises(CapExceededError):
        KappaBracket(12, 13 + Fraction(2, cap // 2 + 1), ()).witness_hi
    # at 1e-15 both witnesses (1.7e8 and 6.3e7 quotients) are refused
    # before any word is built
    br = kappa2_bracket(Fraction(1, 10 ** 15))

    def unbuilt(p, q):
        raise AssertionError(f"c734_word({p}, {q}) was built")

    monkeypatch.setattr(classify_module, "c734_word", unbuilt)
    for side in ("witness_lo", "witness_hi"):
        with pytest.raises(CapExceededError):
            getattr(br, side)


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
