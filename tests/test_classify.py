"""Derivative classification, growth rates, envelopes, threshold bracketing."""

import dataclasses
import importlib
import math
import random
from fractions import Fraction

import pytest

from dtu import cf
from dtu.cf import Orientation, PeriodicCF
from dtu.errors import CapExceededError
from dtu.classify import (BracketStep, Classification, EnvelopeSide,
                          KappaBracket, c734_word, classify,
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
        word = c734_word(step.p, step.q)
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


def test_bracket_step_is_its_node():
    # a step holds the Stern-Brocot node p/q that it decided; density, kappa
    # and period length are derived from it
    for step in kappa2_bracket(Fraction(1, 10 ** 12)).trace:
        density = step.density
        assert (density.numerator, density.denominator) == (step.p, step.q)
        assert step.kappa == 13 + 2 * density
        assert step.period_length == 2 * step.q
        if step.q < 1000:
            assert len(c734_word(step.p, step.q)) == step.period_length
    step = BracketStep(3, 2, 5, Classification.DERIV_ZERO)
    assert (step.density, step.kappa, step.period_length) == \
        (Fraction(2, 5), Fraction(69, 5), 10)
    twin = BracketStep(3, 2, 5, Classification.DERIV_ZERO)
    assert step == twin and hash(step) == hash(twin)
    others = [BracketStep(4, 2, 5, Classification.DERIV_ZERO),
              BracketStep(3, 3, 5, Classification.DERIV_ZERO),
              BracketStep(3, 2, 7, Classification.DERIV_ZERO),
              BracketStep(3, 2, 5, Classification.DERIV_INFINITY)]
    assert all(step != other for other in others)
    assert len({step, twin, *others}) == 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.q = 7


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


def farey_neighbours(lo=(0, 1), hi=(1, 1), depth=120):
    """Every Farey-neighbour pair a/b < c/d in [0, 1] with b + d <= depth."""
    (a, b), (c, d) = lo, hi
    if b + d > depth:
        return
    yield lo, hi
    yield from farey_neighbours(lo, (a + c, b + d), depth)
    yield from farey_neighbours((a + c, b + d), hi, depth)


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


def _word_matrices(p, q):
    """M of c734_word(p, q) and F^S, S = 13q + 2p, exactly."""
    return cf._quotient_matrix(c734_word(p, q)), _fibonacci_power(13 * q + 2 * p)


def _exact_node(p, q):
    """The descent's node for c734_word(p, q): its exact T and L_S."""
    m, f = _word_matrices(p, q)
    t, l = m[0] + m[3], f[0] + f[3]
    return p, q, (t, t, 0), (l, l, 0)


def _encloses(x, value):
    lo, hi, e = x
    return lo << e <= value <= hi << e


def _run_state(run, k):
    """The state of a _Run at k, by the ladder: double to the top bit of k,
    then advance by each lower set bit, as the descent's bisection does."""
    top = k.bit_length() - 1
    m0, m1, _, f0, f1, _ = run.ladder[0]
    state = m0, m1, f0, f1
    for _ in range(top):
        state = run.double()
    for i in reversed(range(top)):
        if k >> i & 1:
            state = run.advance(state, i)
    return state


def _run_node(near, far, k, bits):
    """Node k*near + far of the run from exact nodes near and far, and the
    run's state at k."""
    classify_module = importlib.import_module("dtu.classify")
    ends = sorted([near, far], key=lambda n: Fraction(n[0], n[1]))
    mediant = _exact_node(ends[0][0] + ends[1][0], ends[0][1] + ends[1][1])
    run = classify_module._Run(near, far, mediant, bits)
    state = _run_state(run, k)
    return run.node(k, state), state


def test_run_node_matrix_is_the_quotient_matrix_of_its_word():
    # the node k*near + far has the matrix U_k C - Q U_{k-1} B, with C the
    # mediant's matrix and B far's (for M, and for F^S with Q = det F^S(near)):
    # from the run's Lucas pair that whole matrix, not only its trace, must
    # be the node word's, and the run's T and L_S enclosures must contain
    # the word's, equal at 2^16 bits.  The trace is invariant under rotation,
    # so only the full matrix tells M(near)^k M(far) from M(far) M(near)^k.
    # The mediant of the nodes k and k + 1 is checked the same way.
    classify_module = importlib.import_module("dtu.classify")
    exact_bits = 1 << 16
    for (a, b), (c, d) in farey_neighbours(depth=40):
        lo, hi = _exact_node(a, b), _exact_node(c, d)
        mediant = _word_matrices(a + c, b + d)
        for k in (1, 2, 3, 5, 6, 13):
            for near, far in ((lo, hi), (hi, lo)):
                node, _ = _run_node(near, far, k, 8)
                p, q = k * near[0] + far[0], k * near[1] + far[1]
                assert node[:2] == (p, q)
                exact = _exact_node(p, q)
                for x, (v, _, _) in zip(node[2:], exact[2:]):
                    assert _encloses(x, v) and x[1] <= 1 << 8, (a, b, c, d, k)
                node, state = _run_node(near, far, k, exact_bits)
                assert node == exact, (a, b, c, d, k)
                pairs = state[:2], state[2:]
                signs = (1, -1 if near[1] % 2 else 1)  # det M, det F^S(near)
                for (u0, u1), s, cm, bm, word in zip(pairs, signs, mediant,
                                                     _word_matrices(*far[:2]),
                                                     _word_matrices(p, q)):
                    assert tuple(u1[0] * x - s * u0[0] * y
                                 for x, y in zip(cm, bm)) == word, (a, b, c, d, k)
                if k <= 5:
                    after, _ = _run_node(near, far, k + 1, exact_bits)
                    assert classify_module._mediant(node, after, near, exact_bits) == \
                        _exact_node(node[0] + after[0], node[1] + after[1])


def test_anchors_are_exact_nodes():
    # F^n = [[F(n+1), F(n)], [F(n), F(n-1)]]
    assert _fibonacci_power(13) == (377, 233, 233, 144)
    assert _fibonacci_power(15) == (987, 610, 610, 377)
    classify_module = importlib.import_module("dtu.classify")
    words, nodes = classify_module._anchors()
    assert words == (c734_word(0, 1), c734_word(1, 1))
    assert nodes == (_exact_node(0, 1), _exact_node(1, 2), _exact_node(1, 1))


def _descend(eps, bits):
    """The descent from the anchor nodes 0/1 and 1/1 at `bits`-bit mantissas."""
    classify_module = importlib.import_module("dtu.classify")
    return classify_module._descend(eps, *classify_module._anchors()[1], bits)


@pytest.mark.parametrize("eps", [Fraction(1, 500), Fraction(1, 10 ** 6),
                                 Fraction(1, 10 ** 9)])
def test_interval_steps_match_the_exact_node_verdicts(eps, monkeypatch):
    classify_module = importlib.import_module("dtu.classify")
    # mantissas wide enough that no enclosure is ever rounded, so every
    # step takes the integer route
    exact = _descend(eps, 1 << 40)
    integer_route = []
    sign_terms = classify_module._sign_terms
    monkeypatch.setattr(classify_module, "_sign_terms",
                        lambda t, l, s: integer_route.append(s) or sign_terms(t, l, s))
    br = kappa2_bracket(eps)
    assert (br.lo, br.hi, br.trace) == (exact.lo, exact.hi, exact.trace)
    assert len(integer_route) > 2  # the anchors, and the first steps
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
            for near, far in (ends, ends[::-1]):
                node, _ = _run_node(near, far, k, bits)
                p, q, t, _ = node
                m = cf._quotient_matrix(c734_word(p, q))
                exact = classify_module._verdict_sign(m[0] + m[3], 13 * q + 2 * p)[0]
                try:
                    sign = classify_module._node_sign(*node)
                except classify_module._Undecided:
                    continue
                decided += t[2] > 0
                assert sign == exact, (p, q)
    assert decided > 50


@pytest.mark.parametrize("t_lo, t_hi, lucas, sign", [
    (3, 3, 36, -1),  # T^2 = L_S: T^2 - 2 < L_S <= phi^S + phi^-S
    (3, 3, 30, 1),  # T^2 - 2 = 34 > 32 > phi^S + phi^-S
    (3, 3, 33, None),  # true sign +1 for an even S, but within the rule's slack
    (3, 4, 50, None),  # T^2 in [36, 64] straddles L_S
])
def test_node_sign_rule_on_given_enclosures(t_lo, t_hi, lucas, sign):
    # T in [2 t_lo, 2 t_hi] and L_S in [l_lo, l_hi], to test the decision
    # rule of _node_sign apart from the enclosures it is given
    classify_module = importlib.import_module("dtu.classify")

    def node_sign(l_lo, l_hi):
        try:
            return classify_module._node_sign(1, 38, (t_lo, t_hi, 1), (l_lo, l_hi, 0))
        except classify_module._Undecided:
            return None

    assert node_sign(lucas, lucas) == sign
    # a wider enclosure of L_S decides a sign only when both its ends do
    below, above = node_sign(lucas - 1, lucas - 1), node_sign(lucas + 1, lucas + 1)
    assert node_sign(lucas - 1, lucas + 1) == (below if below == above else None)


@pytest.mark.parametrize("bits", [8, 12, 64, 200])
def test_phi_power_enclosure_contains_phi_power(bits):
    # phi^S reaches _node_sign through the Lucas number L_S = phi^S +
    # (-phi)^-S, which a run computes as a trace U_k tr(C) - Q U_{k-1} tr(B).
    # The run from near = F (trace 1, Q = -1; q = 1 odd) with far = F^0 = I
    # (trace 2) and mediant F has L_k at node k.  Its M side runs on the
    # identity, where U_k = k and the trace 2 U_k - 2 U_{k-1} cancels, so
    # only its enclosure is checked.
    classify_module = importlib.import_module("dtu.classify")
    one, two = (1, 1, 0), (2, 2, 0)
    near, far = (0, 1, two, one), (0, 0, two, two)
    for s in list(range(1, 300)) + [1000, 4097, 65535]:
        run = classify_module._Run(near, far, near, bits)
        (_, _, t, l) = run.node(s, _run_state(run, s))
        assert _encloses(t, 2)
        lo, hi, e = l
        assert hi <= 1 << bits
        lucas = sum(_fibonacci_power(s)[::3])
        assert lo << e <= lucas <= hi << e, s
        scale = Fraction(2) ** e
        phi_sum = GoldenScalar.phi_power(s) + GoldenScalar.phi_power(-s) * (-1) ** s
        assert phi_sum == GoldenScalar(lucas)
        assert compare_values(GoldenScalar(lo * scale), phi_sum) <= 0, s
        assert compare_values(GoldenScalar(hi * scale), phi_sum) >= 0, s
        if s == 1000 and bits >= 64:  # L_1000 to better than 20 bits
            assert (hi - lo) << 20 < lo


def _round_matrices(lo, hi, e, bits):
    shift = max(hi).bit_length() - bits
    if shift <= 0:
        return lo, hi, e
    return (tuple(x >> shift for x in lo), tuple(-(-x >> shift) for x in hi),
            e + shift)


def _matrix_enclosure_product(x, y, bits):
    (xlo, xhi, xe), (ylo, yhi, ye) = x, y
    return _round_matrices(cf._matrix_product(xlo, ylo),
                           cf._matrix_product(xhi, yhi), xe + ye, bits)


def _matrix_enclosure_power(x, k, bits):
    result = None
    while True:
        if k & 1:
            result = x if result is None else _matrix_enclosure_product(result, x, bits)
        k >>= 1
        if not k:
            return result
        x = _matrix_enclosure_product(x, x, bits)


def _matrix_power_descent(eps, bits):
    """(p, q, T, L_S, sign) at every step of the descent at eps, by the
    matrix-power route: a node carries enclosures of M and F^S, lower and
    upper matrices with one exponent, and node k*near + far has the
    matrices M(near)^k M(far) or M(far) M(near)^k, and F^S(near)^k F^S(far),
    by repeated squaring.  The verdicts come from _node_sign."""
    classify_module = importlib.import_module("dtu.classify")
    steps = []

    def node(p, q):
        m, f = _word_matrices(p, q)
        return p, q, (m, m, 0), (f, f, 0)

    def run_node(near, far, k, near_left):
        (p, q, m, f), (p2, q2, m2, f2) = near, far
        mk = _matrix_enclosure_power(m, k, bits)
        m = _matrix_enclosure_product(*((mk, m2) if near_left else (m2, mk)), bits)
        f = _matrix_enclosure_product(_matrix_enclosure_power(f, k, bits), f2, bits)
        return k * p + p2, k * q + q2, m, f

    def verdict(n):
        traces = [(lo[0] + lo[3], hi[0] + hi[3], e) for lo, hi, e in n[2:]]
        sign = classify_module._node_sign(n[0], n[1], *traces)
        steps.append((n[0], n[1], *traces, sign))
        return sign

    lo, hi = node(0, 1), node(1, 1)
    while lo[1] * hi[1] * eps < 1:
        inside = run_node(lo, hi, 1, True)
        target = verdict(inside)
        near_left = target < 0
        near, far = (lo, hi) if near_left else (hi, lo)
        k = 1
        while True:
            out_k = 2 * k
            outside = run_node(near, far, out_k, near_left)
            if verdict(outside) != target:
                break
            k, inside = out_k, outside
            if near[1] * inside[1] * eps >= 1:
                outside = near
                break
        while out_k - k > 1:
            mid = (k + out_k) // 2
            n = run_node(near, far, mid, near_left)
            if verdict(n) == target:
                k, inside = mid, n
            else:
                out_k, outside = mid, n
        lo, hi = (outside, inside) if near_left else (inside, outside)
    return steps


@pytest.mark.parametrize("eps, oracle_bits", [
    (Fraction(1, 500), 1 << 16), (Fraction(1, 10 ** 6), 1 << 16),
    (Fraction(1, 10 ** 15), 400), (Fraction(1, 10 ** 40), 800)])
def test_lucas_enclosures_contain_the_matrix_power_values(eps, oracle_bits,
                                                          monkeypatch):
    # every step's T and L_S enclosures contain the values of the
    # matrix-power route, which are exact at 2^16 bits (1/500, 1e-6) and
    # enclosed at more than twice the descent's bits (1e-15, 1e-40), and
    # both routes take the same steps with the same verdicts
    classify_module = importlib.import_module("dtu.classify")
    oracle = _matrix_power_descent(eps, oracle_bits)
    if oracle_bits == 1 << 16:
        assert all(t[2] == l[2] == 0 for _, _, t, l, _ in oracle)
    steps = []
    node_sign = classify_module._node_sign

    def recorded(p, q, t, l):
        steps.append((p, q, t, l, node_sign(p, q, t, l)))
        return steps[-1][-1]

    monkeypatch.setattr(classify_module, "_node_sign", recorded)
    br = kappa2_bracket(eps)
    assert len(steps) == len(oracle) == len(br.trace)
    assert [(p, q, sign) for p, q, _, _, sign in steps] == \
        [(p, q, sign) for p, q, _, _, sign in oracle]
    for step, exact in zip(steps, oracle):
        for (lo, hi, e), (x_lo, x_hi, x_e) in zip(step[2:4], exact[2:4]):
            low = min(e, x_e)
            assert lo << (e - low) <= x_lo << (x_e - low), step[:2]
            assert x_hi << (x_e - low) <= hi << (e - low), step[:2]


def test_combine_encloses_the_exact_range():
    # a b - sign c d over every a, b, c, d in the given enclosures lies in
    # the result, once raised to 0; a negative upper end is refused, and
    # without rounding the result is the exact range
    classify_module = importlib.import_module("dtu.classify")
    rng = random.Random(11)
    for _ in range(3000):
        bits = rng.choice([4, 8, 30, 200])
        ends = []
        for _ in range(4):
            lo = rng.randint(0, 1 << rng.randint(0, 24))
            ends.append((lo, lo + rng.choice([0, 0, 1, rng.randint(0, lo + 1)]),
                         rng.randint(0, 5)))
        sign = rng.choice([1, -1])
        a, b, c, d = ((lo << e, hi << e) for lo, hi, e in ends)
        if sign > 0:
            least, most = a[0] * b[0] - c[1] * d[1], a[1] * b[1] - c[0] * d[0]
        else:
            least, most = a[0] * b[0] + c[0] * d[0], a[1] * b[1] + c[1] * d[1]
        if most < 0:
            with pytest.raises(AssertionError):
                classify_module._combine(*ends, sign, bits)
            continue
        lo, hi, e = classify_module._combine(*ends, sign, bits)
        assert hi <= 1 << bits
        assert lo << e <= max(least, 0) and most <= hi << e
        if not any(x[2] for x in ends) and \
                2 * max(x[1].bit_length() for x in ends) + 2 <= bits:
            assert (lo, hi, e) == (max(least, 0), most, 0)


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

    def undecided(p, q, t, l):
        raise classify_module._Undecided(Fraction(p, q))

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
        v = classify_verdict(PeriodicCF((), c734_word(step.p, step.q)))
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
