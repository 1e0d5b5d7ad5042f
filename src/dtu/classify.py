"""Derivative classification for quadratic irrationals and the kappa2 bracket.

For an eventually periodic continued fraction, the denominators of the
convergents grow like lambda_A^m per period A, with lambda_A the dominant
eigenvalue of the period's quotient matrix.  The derivative of the golden
Denjoy-Tichy-Uitz function at that point is decided by the exact comparison
of lambda_A^2 against phi^(weighted sum of the period): larger means the
derivative exists and is +infinity, smaller means 0, equality is the
boundary case where neither regime applies.

The comparison is one of integers.  For an even period the quotient matrix
M has determinant +1 and trace T, so lambda_A^4 + lambda_A^-4 = tr(M^4) =
(T^2-2)^2 - 2, while phi^2S + phi^-2S is the Lucas number L_2S = L_S^2 -
2(-1)^S.  As x -> x + 1/x increases for x > 1, lambda_A^2 - phi^S has the
sign of tr(M^4) - L_2S.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from . import cf
from .cf import Orientation, PeriodicCF, Quotients
from .extremal import _assemble, _mechanical_blocks
from .geval import CertifiedInterval, _golden_enclosure
from .golden import GoldenScalar
from .surd import QuadraticSurd, compare_values


class Classification(enum.Enum):
    DERIV_INFINITY = "DerivInfinity"
    DERIV_ZERO = "DerivZero"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class GrowthRate:
    """Dominant per-period factor of the convergent denominators."""

    value: QuadraticSurd
    period_length: int
    trace: int  # trace of the (doubled if odd) period's quotient matrix


def growth_rate(period) -> GrowthRate:
    """lambda_A = <A> + <A^-> * [0; A repeated], as an exact surd.

    Odd-length periods are doubled first so the weight pattern is
    period-invariant.  The value equals the dominant root of
    z^2 - T z + det = 0 for the period's quotient matrix (T = <A> + <A_-^->,
    det = +1 after doubling); the identity is asserted on every call.
    """
    period = tuple(period)
    if len(period) % 2 == 1:
        period = period + period
    (m00, m01), (m10, m11) = cf.quotient_matrix(period)  # validates the period
    tail = cf.periodic_value(PeriodicCF._of_valid((), period))
    value = QuadraticSurd.from_fraction(m00) + tail * m01
    trace = m00 + m11
    dominant = QuadraticSurd(trace, 1, 2, trace * trace - 4)
    if not value.algebraically_equal(dominant):
        raise AssertionError("growth rate disagrees with the dominant eigenvalue")
    return GrowthRate(value, len(period), trace)


@dataclass(frozen=True)
class VerdictCertificate:
    """Exact sign certificate for lambda_A^2 versus phi^S.

    `sign` is the sign of (trace^2 - 2)^2 - 2 - (lucas^2 - 2(-1)^S), with
    `trace` the period matrix's trace and `lucas` = L_S = 2a + b for
    phi^S = a + b phi.
    """

    lambda_squared: QuadraticSurd
    exponent: int
    phi_power: GoldenScalar
    sign: int
    trace: int
    lucas: int


@dataclass(frozen=True)
class Verdict:
    classification: Classification
    kappa: Fraction
    rate: GrowthRate
    certificate: VerdictCertificate


def _even_period(x: PeriodicCF) -> Quotients:
    period = x.period
    return period + period if len(period) % 2 == 1 else period


def kappa(period, o: Orientation) -> Fraction:
    """Per-pair weighted sum 2 S(period) / |period|; the period must be even."""
    period = cf.check_quotients(period, allow_empty=False)
    if len(period) % 2 == 1:
        raise ValueError("kappa needs an even period length; double it first")
    return Fraction(2 * cf.weighted_sum(period, o), len(period))


def classify_verdict(x: PeriodicCF, o: Orientation = Orientation.PHI) -> Verdict:
    """Full classification with the exact certificate.

    The preperiod never affects the verdict (growth rates and weighted-sum
    densities are tail invariants); it is accepted and ignored.
    """
    period = _even_period(x)
    s = cf._weighted_sum(period, o)
    rate = growth_rate(period)
    phi_s = GoldenScalar.phi_power(s)
    lucas = int(2 * phi_s.a + phi_s.b)
    tr_m2 = rate.trace * rate.trace - 2
    sign = compare_values(tr_m2 * tr_m2 - 2,  # tr(M^4)
                          lucas * lucas - (2 if s % 2 == 0 else -2))  # L_2S
    if sign > 0:
        cls = Classification.DERIV_INFINITY
    elif sign < 0:
        cls = Classification.DERIV_ZERO
    else:
        cls = Classification.BOUNDARY
    return Verdict(cls, Fraction(2 * s, len(period)), rate,
                   VerdictCertificate(rate.value * rate.value, s, phi_s, sign,
                                      rate.trace, lucas))


def classify(x: PeriodicCF, o: Orientation = Orientation.PHI) -> Classification:
    """Derivative verdict of the golden-weight function at the point x."""
    return classify_verdict(x, o).classification


class EnvelopeSide(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class EnvelopeBound:
    """One difference-quotient envelope value: exact in the golden field,
    plus a certified rational enclosure."""

    exact: GoldenScalar
    interval: CertifiedInterval


def envelope(prefix, o: Orientation, side: EnvelopeSide,
             width: Fraction = Fraction(1, 10 ** 12)) -> EnvelopeBound:
    """Envelope value for a convergent prefix.

    LOWER is q_t q_{t-1} / phi^(S_t + 7) for the (1,2,...) weights and
    / phi^(S_t + 9) for (2,1,...); UPPER is q_t^2 / phi^(S_t - 5).
    """
    prefix = cf.check_quotients(prefix, allow_empty=False)
    q_t = cf.continuant(prefix)
    s = cf._weighted_sum(prefix, o)
    if side is EnvelopeSide.LOWER:
        offset = 7 if o is Orientation.PHI else 9
        numerator = q_t * cf.continuant(prefix[:-1])
        exponent = s + offset
    else:
        numerator = q_t * q_t
        exponent = s - 5
    exact = GoldenScalar.phi_power(-exponent) * numerator
    return EnvelopeBound(exact, CertifiedInterval(*_golden_enclosure(exact, width)))


# -- kappa2 bracketing ----------------------------------------------------------


@dataclass(frozen=True)
class BracketStep:
    step: int
    density: Fraction
    period_length: int
    kappa: Fraction
    classification: Classification


@dataclass(frozen=True)
class KappaBracket:
    lo: Fraction
    hi: Fraction
    witness_lo: PeriodicCF
    witness_hi: PeriodicCF
    trace: tuple[BracketStep, ...]

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError("bracket endpoints out of order")


def c734_word(p: int, q: int) -> Quotients:
    """The balanced word of q pairs with light value 7 and p heavy values 4
    among 3s: the (7,4) blocks sit at the mechanical positions of density p/q,
    with the rare block placed last for p/q <= 1/2."""
    if not 0 <= p <= q or q < 1:
        raise ValueError("density must be a fraction p/q with 0 <= p <= q")
    return _assemble(_mechanical_blocks((7, 3), (7, 4), q - p, p))


def kappa2_bracket(eps: Fraction) -> KappaBracket:
    """Certified enclosure of the upper threshold constant kappa2.

    Bisection by Stern-Brocot descent on the (7,4)-block density d in [0,1]
    (the word at density p/q has kappa = 13 + 2p/q and period length 2q).
    The verdict is monotone in the density, so each digit of the threshold's
    continued fraction is found by a doubling gallop plus binary refinement;
    the loop stops once the density gap (half the kappa gap) is at most eps.
    Runs after the two anchors take at most ~2 log2(1/eps) classifications.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")

    trace: list[BracketStep] = []

    def verdict(p: int, q: int) -> Classification:
        # a Stern-Brocot descent never meets a density twice
        v = classify_verdict(PeriodicCF((), c734_word(p, q)))
        trace.append(BracketStep(len(trace) + 1, Fraction(p, q),
                                 2 * q, v.kappa, v.classification))
        return v.classification

    # family anchors, classified during initialization (not bisection steps)
    lo_d, hi_d = (0, 1), (1, 1)
    anchor_lo = classify(PeriodicCF((), c734_word(0, 1)))
    anchor_hi = classify(PeriodicCF((), c734_word(1, 1)))
    if anchor_lo is not Classification.DERIV_INFINITY or \
            anchor_hi is not Classification.DERIV_ZERO:
        raise AssertionError("family anchors do not bracket the threshold")

    def gap(lo, hi) -> Fraction:
        return Fraction(hi[0], hi[1]) - Fraction(lo[0], lo[1])

    while gap(lo_d, hi_d) > eps:
        # one digit: a maximal run of mediant steps toward one side
        med = (lo_d[0] + hi_d[0], lo_d[1] + hi_d[1])
        v = verdict(*med)
        toward_lo = v is Classification.DERIV_ZERO
        lo0, hi0 = lo_d, hi_d
        if toward_lo:
            cand = lambda k: (k * lo0[0] + hi0[0], k * lo0[1] + hi0[1])
            target = Classification.DERIV_ZERO
        else:
            cand = lambda k: (k * hi0[0] + lo0[0], k * hi0[1] + lo0[1])
            target = Classification.DERIV_INFINITY
        k = 1
        early = None
        while True:
            k2 = 2 * k
            v2 = verdict(*cand(k2))
            if v2 is not target:
                lo_k, hi_k = k, k2
                break
            k = k2
            if toward_lo and gap(lo_d, cand(k)) <= eps:
                early = (lo_d, cand(k))
                break
            if not toward_lo and gap(cand(k), hi_d) <= eps:
                early = (cand(k), hi_d)
                break
        if early is not None:
            lo_d, hi_d = early
            break
        while hi_k - lo_k > 1:
            mid = (lo_k + hi_k) // 2
            if verdict(*cand(mid)) is target:
                lo_k = mid
            else:
                hi_k = mid
        if toward_lo:
            hi_d, lo_d = cand(lo_k), cand(hi_k)
        else:
            lo_d, hi_d = cand(lo_k), cand(hi_k)

    lo_word = c734_word(*lo_d)
    hi_word = c734_word(*hi_d)
    return KappaBracket(
        lo=13 + 2 * Fraction(*lo_d),
        hi=13 + 2 * Fraction(*hi_d),
        witness_lo=PeriodicCF((), lo_word),
        witness_hi=PeriodicCF((), hi_word),
        trace=tuple(trace),
    )
