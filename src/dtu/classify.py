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
from .cf import (Orientation, PeriodicCF, Quotients, _assemble,
                 _mechanical_blocks)
from .errors import InputError
from .geval import CertifiedInterval
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


_BY_SIGN = {1: Classification.DERIV_INFINITY, -1: Classification.DERIV_ZERO,
            0: Classification.BOUNDARY}


def _verdict_sign(trace: int, s: int) -> tuple[int, GoldenScalar, int]:
    """Sign of lambda^2 - phi^S, with phi^S and L_S, for an even period whose
    quotient matrix M has trace `trace` and weighted sum s.

    The sign is that of tr(M^4) - L_2S (module docstring); L_S = 2a + b for
    phi^S = a + b phi.
    """
    phi_s = GoldenScalar.phi_power(s)
    lucas = int(2 * phi_s.a + phi_s.b)
    tr_m2 = trace * trace - 2
    sign = compare_values(tr_m2 * tr_m2 - 2,  # tr(M^4)
                          lucas * lucas - (2 if s % 2 == 0 else -2))  # L_2S
    return sign, phi_s, lucas


def classify_verdict(x: PeriodicCF, o: Orientation = Orientation.PHI) -> Verdict:
    """Full classification with the exact certificate.

    The preperiod never affects the verdict (growth rates and weighted-sum
    densities are tail invariants); it is accepted and ignored.
    """
    period = _even_period(x)
    s = cf._weighted_sum(period, o)
    rate = growth_rate(period)
    sign, phi_s, lucas = _verdict_sign(rate.trace, s)
    return Verdict(_BY_SIGN[sign], Fraction(2 * s, len(period)), rate,
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


def envelope(prefix, o: Orientation, side: EnvelopeSide) -> EnvelopeBound:
    """Envelope value for a convergent prefix, enclosed to width < 2^-65.

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
    return EnvelopeBound(exact, CertifiedInterval(*exact.bounds(64)))


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


def _run_node(near, far, k: int, near_left: bool):
    """The node k*near + far of a Stern-Brocot run, as (p, q, word, matrix).

    Its word is the endpoint words concatenated, the left one first (the
    standard factorization of Christoffel words at Farey neighbours): near*k
    + far when near is the left endpoint, far + near*k otherwise.  Its
    quotient matrix is the endpoint matrices multiplied in the same order,
    M(near)^k M(far) or M(far) M(near)^k: O(log k) 2x2 products by
    repeated squaring, and no pass over the word.
    """
    (p, q, word, m), (fp, fq, fword, fm) = near, far
    mk = cf._matrix_power(m, k)
    if near_left:
        word, m = word * k + fword, cf._matrix_product(mk, fm)
    else:
        word, m = fword + word * k, cf._matrix_product(fm, mk)
    return k * p + fp, k * q + fq, word, m


def kappa2_bracket(eps: Fraction) -> KappaBracket:
    """Certified enclosure of the upper threshold constant kappa2.

    Bisection by Stern-Brocot descent on the (7,4)-block density d in [0,1]
    (the word at density p/q has kappa = 13 + 2p/q and period length 2q).
    The verdict is monotone in the density, so each digit of the threshold's
    continued fraction is found by a doubling gallop plus binary refinement;
    the loop stops once the density gap (half the kappa gap) is at most eps.
    Runs after the two anchors take at most ~2 log2(1/eps) steps.
    Endpoints are nodes (p, q, word, matrix): only the anchors' words and
    matrices are built from c734_word, and every later node is its
    endpoints' nodes combined (`_run_node`), at O(log k) 2x2 products.  A
    step's verdict is the sign of tr(M^4) - L_2S from the node matrix's
    trace and the word's weighted sum S = 13q + 2p.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")

    trace: list[BracketStep] = []

    def verdict(node) -> Classification:
        # a Stern-Brocot descent never meets a density twice
        p, q, _, (m00, _, _, m11) = node
        cls = _BY_SIGN[_verdict_sign(m00 + m11, 13 * q + 2 * p)[0]]
        density = Fraction(p, q)
        trace.append(BracketStep(len(trace) + 1, density, 2 * q,
                                 13 + 2 * density, cls))
        return cls

    def narrow(a, b) -> bool:
        # neighbours p/q < p'/q' have p'q - pq' = 1, so their gap is 1/(qq')
        return a[1] * b[1] * eps >= 1

    def anchor(p):
        word = c734_word(p, 1)
        return p, 1, word, cf._quotient_matrix(word)

    # family anchors, classified during initialization (not bisection steps)
    lo, hi = anchor(0), anchor(1)
    if classify(PeriodicCF((), lo[2])) is not Classification.DERIV_INFINITY or \
            classify(PeriodicCF((), hi[2])) is not Classification.DERIV_ZERO:
        raise AssertionError("family anchors do not bracket the threshold")

    while not narrow(lo, hi):
        # one digit: the mediant's verdict names the endpoint `near` that the
        # run k*near + far approaches; the run keeps that verdict up to some k
        inside = _run_node(lo, hi, 1, True)
        target = verdict(inside)
        near_left = target is Classification.DERIV_ZERO
        near, far = (lo, hi) if near_left else (hi, lo)
        k = 1
        while True:  # gallop: k = 2, 4, ...
            out_k = 2 * k
            outside = _run_node(near, far, out_k, near_left)
            if verdict(outside) is not target:
                break
            k, inside = out_k, outside
            if narrow(near, inside):
                # early stop: near, the run's limit, is already close enough
                outside = near
                break
        while out_k - k > 1:  # bisect for the last k that keeps the verdict
            mid = (k + out_k) // 2
            node = _run_node(near, far, mid, near_left)
            if verdict(node) is target:
                k, inside = mid, node
            else:
                out_k, outside = mid, node
        lo, hi = (outside, inside) if near_left else (inside, outside)

    return KappaBracket(
        lo=13 + 2 * Fraction(lo[0], lo[1]),
        hi=13 + 2 * Fraction(hi[0], hi[1]),
        witness_lo=PeriodicCF._of_valid((), lo[2]),
        witness_hi=PeriodicCF._of_valid((), hi[2]),
        trace=tuple(trace),
    )
