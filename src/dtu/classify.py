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
from functools import cached_property

from . import cf
from .cf import Orientation, PeriodicCF, Quotients
from .errors import CapExceededError, InputError
from .geval import CertifiedInterval
from .golden import GoldenScalar, _lucas
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


# The largest quotient sum of a period that `dtu classify` takes on, counted
# twice for an odd period, which the verdict doubles: a period of 262,144
# ones takes 1.3 s, and c734_word(8000, 24457), of 48,914 quotients, sums
# to 252,570.
CLASSIFY_QUOTIENT_SUM_MAX = 2 ** 18

_BY_SIGN = {1: Classification.DERIV_INFINITY, -1: Classification.DERIV_ZERO,
            0: Classification.BOUNDARY}


def _verdict_sign(trace: int, s: int) -> tuple[int, GoldenScalar, int]:
    """Sign of lambda^2 - phi^S, with phi^S and L_S, for an even period whose
    quotient matrix M has trace `trace` and weighted sum s.

    The sign is that of tr(M^4) - L_2S (`_sign_terms`).
    """
    lucas = _lucas(s)
    return (compare_values(*_sign_terms(trace, lucas, s)),
            GoldenScalar.phi_power(s), lucas)


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

# The least eps that kappa2_bracket accepts; a smaller one is refused before
# any work.  At 1e-100 the descent takes 350 steps in 7-13 ms (2-core Xeon
# VM, CPython 3.11), with 372-bit mantissas and nodes of q up to 2^168.
KAPPA2_EPS_FLOOR = Fraction(1, 10 ** 100)
# an undecided step reruns the descent at twice the mantissa bits, at most
# this many times
_DOUBLINGS = 3
# The most quotients a witness word may have: a longer witness_lo or
# witness_hi raises CapExceededError before its word is built.  The longest
# witness at eps = 1e-8 has 48,914 quotients, at 1e-15 1.7e8 (1.4 GB).
WITNESS_QUOTIENTS_MAX = 10 ** 5


# The kappa2 family: c734_word(p, q) has q letters, p of them _HIGH, and
# weighted sum S = _BASE q + _STEP p.  The descent needs letters of 2
# quotients (det M = 1) and S = q (mod 2) (`_determinant`).
_LOW, _HIGH = (7, 3), (7, 4)
_BASE = cf._weighted_sum(_LOW, Orientation.PHI)
_STEP = cf._weighted_sum(_HIGH, Orientation.PHI) - _BASE
if not (len(_LOW) == len(_HIGH) == 2 and _BASE % 2 == 1 and _STEP % 2 == 0):
    raise AssertionError("the kappa2 family breaks the rules the descent relies on")


def _family_sum(p: int, q: int) -> int:
    """The weighted sum S of the word c734_word(p, q)."""
    return _BASE * q + _STEP * p


@dataclass(frozen=True)
class BracketStep:
    """Step `step` of a descent decided the word c734_word(p, q), a
    Stern-Brocot node, so p/q is in lowest terms."""

    step: int
    p: int
    q: int
    classification: Classification

    @property
    def density(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def kappa(self) -> Fraction:
        return Fraction(_family_sum(self.p, self.q), self.q)

    @property
    def period_length(self) -> int:
        return 2 * self.q


@dataclass(frozen=True)
class KappaBracket:
    """kappa2 lies in [lo, hi].  The endpoints are 13 + 2 d for the (7,4)-block
    densities d = p/q of the witnesses, whose words c734_word(p, q) of 2q
    quotients are built on first access, up to WITNESS_QUOTIENTS_MAX."""

    lo: Fraction
    hi: Fraction
    trace: tuple[BracketStep, ...]

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError("bracket endpoints out of order")

    @property
    def density_lo(self) -> Fraction:
        return (self.lo - _BASE) / _STEP

    @property
    def density_hi(self) -> Fraction:
        return (self.hi - _BASE) / _STEP

    @cached_property
    def witness_lo(self) -> PeriodicCF:
        return _witness(self.density_lo)

    @cached_property
    def witness_hi(self) -> PeriodicCF:
        return _witness(self.density_hi)


def _witness(density: Fraction) -> PeriodicCF:
    if 2 * density.denominator > WITNESS_QUOTIENTS_MAX:
        raise CapExceededError(f"the witness of density {density} exceeds"
                               f" {WITNESS_QUOTIENTS_MAX} quotients")
    return PeriodicCF._of_valid(
        (), c734_word(density.numerator, density.denominator))


def c734_word(p: int, q: int) -> Quotients:
    """The balanced word of q pairs with light value 7 and p heavy values 4
    among 3s, the (7,4) blocks at the mechanical positions of density p/q
    (`cf._mechanical_word`)."""
    if not 0 <= p <= q or q < 1:
        raise ValueError("density must be a fraction p/q with 0 <= p <= q")
    return cf._mechanical_word(p, q, _LOW, _HIGH)


# A node of the descent is (p, q, t, l) for the word c734_word(p, q) of
# weighted sum S = `_family_sum(p, q)`: t and l enclose the trace T of the word's
# quotient matrix M and the Lucas number L_S, the trace of the Fibonacci
# power F^S, F = [[1, 1], [1, 0]].  An enclosure (lo, hi, e) of a number
# x >= 0 holds mantissas of at most `bits` bits: lo 2^e <= x <= hi 2^e.
# Exponent 0 means no rounding yet: lo = hi = x exactly.


def _combine(a, b, c, d, sign: int, bits: int):
    """Enclosure of a b - sign c d, sign = +-1, for enclosures a, b, c, d.

    The product of the smaller exponent is rounded outward to the larger
    one.  The lower bound takes the lower product minus the upper one, the
    upper bound the reverse, and both are then rounded outward to `bits`
    bits.  The scheme needs every value nonnegative: a lower bound below 0
    is raised to 0, and an upper bound below 0 means the enclosures were
    wrong."""
    (alo, ahi, ae), (blo, bhi, be), (clo, chi, ce), (dlo, dhi, de) = a, b, c, d
    xlo, xhi, e = alo * blo, ahi * bhi, ae + be
    y = ce + de
    if e > y:
        ylo, yhi = clo * dlo >> e - y, -(-chi * dhi >> e - y)
    else:
        ylo, yhi = clo * dlo, chi * dhi
    if y > e:
        xlo, xhi, e = xlo >> y - e, -(-xhi >> y - e), y
    if sign < 0:
        lo, hi = xlo + ylo, xhi + yhi
    else:
        lo, hi = xlo - yhi, xhi - ylo
        if hi < 0:
            raise AssertionError("a nonnegative difference has a negative enclosure")
        if lo < 0:
            lo = 0
    shift = hi.bit_length() - bits
    if shift > 0:
        return lo >> shift, -(-hi >> shift), e + shift
    return lo, hi, e


_ZERO, _ONE = (0, 0, 0), (1, 1, 0)


def _determinant(node) -> int:
    """det M = 1, as the word has even length, and det F^S = (-1)^S, where
    S is odd with q (the family's parity rules)."""
    return -1 if node[1] % 2 else 1


def _mediant(inside, outside, near, bits: int):
    """The mediant of the nodes k*near + far and (k+1)*near + far.

    Its word is theirs concatenated, so its matrices are the products XY or
    YX, X outside's and Y inside's.  For 2x2 matrices tr(XY) = tr(X) tr(Y)
    - det(Y) tr(X Y^-1), and X Y^-1 is near's matrix or conjugate to it."""
    return (inside[0] + outside[0], inside[1] + outside[1],
            _combine(inside[2], outside[2], near[2], _ONE, 1, bits),
            _combine(inside[3], outside[3], near[3], _ONE, _determinant(inside), bits))


class _Run:
    """The nodes k*near + far, k >= 1, of one Stern-Brocot run.

    Node k's word is near's word k times and far's, in the order of the
    mediant's (k = 1) word, so its matrix is A^k B or B A^k, with A near's
    matrix and B far's; this holds for M and, as powers of F commute, for
    F^S.  With Q = det A, Cayley-Hamilton gives A^k = U_k A - Q U_{k-1} I
    for the Lucas sequence U_0 = 0, U_1 = 1, U_{k+1} = tr(A) U_k - Q U_{k-1},
    so node k's trace is U_k tr(C) - Q U_{k-1} tr(B), C the mediant's
    matrix.  Every U_k is nonnegative, as tr(A) >= 2 when Q = 1.

    A state holds (U_{k-1}, U_k) for M, then for F^S.  The ladder holds
    (U_{n-1}, U_n, U_{n+1}) for M, then for F^S, at n = 2^i; through
    U_{m+n} = U_m U_{n+1} - Q U_{m-1} U_n, `double` extends it and
    `advance` moves a state by n.
    """

    def __init__(self, near, far, mediant, bits: int):
        self.near, self.far, self.bits = near, far, bits
        self.sign = _determinant(near)
        self.ladder = [(_ZERO, _ONE, near[2], _ZERO, _ONE, near[3])]
        self.traces = (mediant[2], far[2], mediant[3], far[3])

    def double(self):
        """The state at twice the ladder's last n, extending the ladder."""
        m0, m1, m2, f0, f1, f2 = self.ladder[-1]
        bits, s = self.bits, self.sign
        rung = (_combine(m1, m1, m0, m0, 1, bits), _combine(m1, m2, m0, m1, 1, bits),
                _combine(m2, m2, m1, m1, 1, bits),
                _combine(f1, f1, f0, f0, s, bits), _combine(f1, f2, f0, f1, s, bits),
                _combine(f2, f2, f1, f1, s, bits))
        self.ladder.append(rung)
        return rung[0], rung[1], rung[3], rung[4]

    def advance(self, state, i: int):
        """The state at k + 2^i from the state at k."""
        m0, m1, f0, f1 = state
        r0, r1, r2, g0, g1, g2 = self.ladder[i]
        bits, s = self.bits, self.sign
        return (_combine(m1, r1, m0, r0, 1, bits), _combine(m1, r2, m0, r1, 1, bits),
                _combine(f1, g1, f0, g0, s, bits), _combine(f1, g2, f0, g1, s, bits))

    def node(self, k: int, state):
        """Node k, from its state."""
        m0, m1, f0, f1 = state
        t1, t0, l1, l0 = self.traces
        (p, q, *_), (p0, q0, *_) = self.near, self.far
        return (k * p + p0, k * q + q0, _combine(m1, t1, m0, t0, 1, self.bits),
                _combine(f1, l1, f0, l0, self.sign, self.bits))


def _compare_scaled(a: int, x: int, b: int, y: int) -> int:
    """Sign of a 2^x - b 2^y for integers a, b >= 0."""
    if not (a and b):  # a lower mantissa may round down to 0
        return (a > 0) - (b > 0)
    # 2^(n-1) <= a 2^x < 2^n with n = bit_length(a) + x
    size_a, size_b = a.bit_length() + x, b.bit_length() + y
    if size_a != size_b:
        return 1 if size_a > size_b else -1
    low = min(x, y)
    a, b = a << (x - low), b << (y - low)
    return (a > b) - (a < b)


class _Undecided(Exception):
    """A descent step whose enclosures do not separate."""


def _sign_terms(trace: int, lucas: int, s: int) -> tuple[int, int]:
    """tr(M^4) and L_2S, for an even word whose quotient matrix M has trace
    `trace` and weighted sum s with L_S = `lucas`: lambda^2 - phi^S has the
    sign of their difference (module docstring)."""
    tr_m2 = trace * trace - 2
    return tr_m2 * tr_m2 - 2, lucas * lucas - (2 if s % 2 == 0 else -2)


def _node_sign(p: int, q: int, t, l) -> int:
    """Sign of lambda^2 - phi^S for the word c734_word(p, q), S =
    `_family_sum(p, q)`, from enclosures t of T = tr(M) and l of L_S.

    An exact T (exponent 0) takes the integer route (`_sign_terms`), which
    also decides Boundary.
    Otherwise, as x + 1/x increases for x > 1, the sign is that of
    (T^2 - 2) - (phi^S + phi^-S), and L_S = phi^S + (-phi)^-S, so
    phi^S + phi^-S lies in [L_S, L_S + 2).  With T in [t_lo 2^e, t_hi 2^e],
    e >= 1, and L_S in [l_lo 2^f, l_hi 2^f]:
      T^2 - 2 > phi^S + phi^-S  if  (t_lo^2 - 1) 4^e >= l_hi 2^f, and
      T^2 - 2 < phi^S + phi^-S  if  t_hi^2 4^e <= l_lo 2^f.
    Raises _Undecided when neither holds.
    """
    t_lo, t_hi, e = t
    if not e:
        s = _family_sum(p, q)
        tr_m4, lucas_2s = _sign_terms(t_lo, _lucas(s), s)
        return (tr_m4 > lucas_2s) - (tr_m4 < lucas_2s)
    l_lo, l_hi, f = l
    if _compare_scaled(max(t_lo * t_lo - 1, 0), 2 * e, l_hi, f) >= 0:
        return 1
    if _compare_scaled(t_hi * t_hi, 2 * e, l_lo, f) <= 0:
        return -1
    raise _Undecided(Fraction(p, q))


def _exact_node(p: int, q: int, word):
    """The node of the word c734_word(p, q), from the word, exactly."""
    m = cf._quotient_matrix(word)
    t, l = m[0] + m[3], _lucas(_family_sum(p, q))
    return p, q, (t, t, 0), (l, l, 0)


def _anchors():
    """The anchor words c734_word(0, 1) and c734_word(1, 1), and the exact
    nodes 0/1, 1/2 and 1/1 of the descent's first run; the mediant's word
    is the anchor words concatenated."""
    lo, hi = c734_word(0, 1), c734_word(1, 1)
    return (lo, hi), (_exact_node(0, 1, lo), _exact_node(1, 2, lo + hi),
                      _exact_node(1, 1, hi))


def _mantissa_bits(eps: Fraction) -> int:
    """The starting mantissa bits of the descent at eps: log2(1/eps) + 40.

    A step at q needs about 2 log2(q) + 10 bits: the relative widths of a
    node's enclosures of T and L_S, from the Lucas sequences of its run,
    stay below 0.3 q 2^-bits along the descents at 1e-15, 1e-40 and
    1e-100, and along the descents through 1e-9 q |2 ln(lambda) -
    S ln(phi)| >= 0.018, while q^2 is about 1/eps.  On 60 log-uniform eps
    in [1e-60, 1e-3], log2(1/eps) + 6 bits left 5 descents with an
    undecided step and + 8 none, so + 40 keeps 32 bits spare.
    """
    return max(64, eps.denominator.bit_length() - eps.numerator.bit_length() + 40)


def kappa2_bracket(eps: Fraction) -> KappaBracket:
    """Certified enclosure of the upper threshold constant kappa2.

    Bisection by Stern-Brocot descent on the (7,4)-block density d in [0,1]
    (the word at density p/q has kappa = 13 + 2p/q and period length 2q).
    The verdict is monotone in the density, so each digit of the threshold's
    continued fraction is found by a doubling gallop plus binary refinement;
    the loop stops once the density gap (half the kappa gap) is at most eps.
    Runs after the two anchors take at most ~2 log2(1/eps) steps.

    The anchors are classified from their words.  Every later node is
    decided by `_node_sign` on outward-rounded enclosures of its trace and
    of L_S, found from its run's Lucas sequences (`_Run`).  The mantissa
    bits come from eps; a step whose enclosures do not separate reruns the
    whole descent at twice the bits, and after _DOUBLINGS reruns
    CapExceededError is raised.  eps below KAPPA2_EPS_FLOOR raises
    CapExceededError at once.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    if eps < KAPPA2_EPS_FLOOR:
        raise CapExceededError(
            f"eps is below the kappa2 floor {float(KAPPA2_EPS_FLOOR):.0e}")

    # family anchors, classified during initialization (not bisection steps)
    (lo_word, hi_word), nodes = _anchors()
    if classify(PeriodicCF((), lo_word)) is not Classification.DERIV_INFINITY or \
            classify(PeriodicCF((), hi_word)) is not Classification.DERIV_ZERO:
        raise AssertionError("family anchors do not bracket the threshold")

    bits = _mantissa_bits(eps)
    for doubling in range(_DOUBLINGS + 1):
        try:
            return _descend(eps, *nodes, bits << doubling)
        except _Undecided as exc:
            density = exc.args[0]
    raise CapExceededError(f"kappa2 step at density {density} undecided at"
                           f" {bits << _DOUBLINGS}-bit precision")


def _descend(eps: Fraction, lo, mediant, hi, bits: int) -> KappaBracket:
    """The Stern-Brocot descent from the Farey neighbours lo < hi, with
    their mediant, at `bits`-bit mantissas; raises _Undecided at the first
    step it cannot decide."""
    rows: list[tuple[int, int, int]] = []  # (p, q, sign) of each step
    num, den = eps.numerator, eps.denominator

    def verdict(node) -> int:
        sign = _node_sign(*node)
        rows.append((node[0], node[1], sign))
        return sign

    # neighbours p/q < p'/q' have p'q - pq' = 1, so their gap is 1/(qq')
    while lo[1] * hi[1] * num < den:
        # one digit: the mediant's verdict names the endpoint `near` that the
        # run k*near + far approaches; the run keeps that verdict up to some k
        target = verdict(mediant)
        near, far = (lo, hi) if target < 0 else (hi, lo)
        run = _Run(near, far, mediant, bits)
        k, state, inside = 1, None, mediant
        while True:  # gallop: k = 2, 4, ...
            out_state = run.double()
            outside = run.node(2 * k, out_state)
            if verdict(outside) != target:
                break
            k, state, inside = 2 * k, out_state, outside
            if near[1] * inside[1] * num >= den:
                # early stop: near, the run's limit, is already close enough
                outside = near
                break
        if outside is not near:
            # bisect for the last k that keeps the verdict: the gap to the
            # outside node is the n of the ladder's last rung but one, so
            # each halving advances by the next rung down
            for i in reversed(range(len(run.ladder) - 2)):
                mid_state = run.advance(state, i)
                node = run.node(k + (1 << i), mid_state)
                if verdict(node) == target:
                    k, state, inside = k + (1 << i), mid_state, node
                else:
                    outside = node
            mediant = _mediant(inside, outside, near, bits)
        lo, hi = (outside, inside) if near is lo else (inside, outside)

    trace = tuple(BracketStep(i, p, q, _BY_SIGN[sign])
                  for i, (p, q, sign) in enumerate(rows, 1))
    return KappaBracket(lo=Fraction(_family_sum(*lo[:2]), lo[1]),
                        hi=Fraction(_family_sum(*hi[:2]), hi[1]), trace=trace)
