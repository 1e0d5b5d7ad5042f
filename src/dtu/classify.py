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
from math import gcd

from . import cf
from .cf import Orientation, PeriodicCF, Quotients
from .errors import CapExceededError, InputError
from .geval import CertifiedInterval
from .golden import GoldenScalar, _fibonacci_pair
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

# The least eps that kappa2_bracket accepts; a smaller one is refused before
# any work.  At 1e-100 the descent takes 350 steps in 25-50 ms (Xeon,
# CPython 3.11), with 372-bit mantissas and nodes of q up to 2^168.
KAPPA2_EPS_FLOOR = Fraction(1, 10 ** 100)
# an undecided step reruns the descent at twice the mantissa bits, at most
# this many times
_DOUBLINGS = 3
# The most quotients a witness word may have: a longer witness_lo or
# witness_hi raises CapExceededError before its word is built.  The longest
# witness at eps = 1e-8 has 48,914 quotients, at 1e-15 1.7e8 (1.4 GB).
WITNESS_QUOTIENTS_MAX = 10 ** 5


@dataclass(frozen=True)
class BracketStep:
    step: int
    density: Fraction
    period_length: int
    kappa: Fraction
    classification: Classification


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
        return (self.lo - 13) / 2

    @property
    def density_hi(self) -> Fraction:
        return (self.hi - 13) / 2

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
    among 3s: the (7,4) blocks sit at the mechanical positions of density p/q,
    pair j (from 0) being (7, 4) when floor((j+1)p/q) - floor(jp/q) = 1.

    Built by the Christoffel factorization: for Farey neighbours a/b < c/d
    the word at (a+c)/(b+d) is the word at a/b followed by the word at c/d,
    so the Stern-Brocot path to p/q builds it by O(log q) tuple repetitions
    and concatenations.  A non-reduced p/q
    repeats the word of its reduced form.
    """
    if not 0 <= p <= q or q < 1:
        raise ValueError("density must be a fraction p/q with 0 <= p <= q")
    g = gcd(p, q)
    p, q = p // g, q // g
    (a, b, left), (c, d, right) = (0, 1, (7, 3)), (1, 1, (7, 4))
    if q == 1:
        return (right if p else left) * g
    while True:  # a/b < p/q < c/d, Farey neighbours
        below, above = p * b - q * a, q * c - p * d  # q b (p/q - a/b), ...
        if p * (b + d) < q * (a + c):
            # p/q below the mediant: c/d moves k times towards a/b, to the
            # last (c + ka)/(d + kb) above p/q
            k = (above - 1) // below
            c, d, right = c + k * a, d + k * b, left * k + right
        elif p * (b + d) > q * (a + c):
            k = (below - 1) // above
            a, b, left = a + k * c, b + k * d, left + right * k
        else:
            return (left + right) * g


# A node of the descent is (p, q, m, f) for the word c734_word(p, q) of
# weighted sum S = 13q + 2p.  m and f are enclosures of the word's quotient
# matrix M and of the Fibonacci power F^S, F = [[1, 1], [1, 0]].  An
# enclosure (lo, hi, e) holds flat 2x2 matrices of mantissas with one
# exponent: the matrix lies entrywise in [lo 2^e, hi 2^e].  Both matrices
# are nonnegative, so a product of enclosures is the product of the lower
# and of the upper matrices, rounded outward (`_round_out`).  Exponent 0
# means no rounding yet: lo = hi = the matrix exactly.


def _round_out(lo: tuple, hi: tuple, e: int, bits: int):
    """The enclosure with `bits`-bit mantissas: the nonnegative mantissas are
    shifted right together, the lower ones rounded down, the upper ones up."""
    shift = max(hi).bit_length() - bits
    if shift <= 0:
        return lo, hi, e
    return (tuple(x >> shift for x in lo), tuple(-(-x >> shift) for x in hi),
            e + shift)


def _enclosure_product(x, y, bits: int):
    """Enclosure of the product of the matrices enclosed by x and y."""
    (xlo, xhi, xe), (ylo, yhi, ye) = x, y
    hi = cf._matrix_product(xhi, yhi)
    lo = hi if xe == ye == 0 else cf._matrix_product(xlo, ylo)
    return _round_out(lo, hi, xe + ye, bits)


def _enclosure_power(x, k: int, bits: int):
    """Enclosure of the k-th power, k >= 1, by repeated squaring."""
    result = None
    while True:
        if k & 1:
            result = x if result is None else _enclosure_product(result, x, bits)
        k >>= 1
        if not k:
            return result
        x = _enclosure_product(x, x, bits)


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


def _node_sign(node) -> int:
    """Sign of lambda^2 - phi^S for the node's word.

    A node with an exact M takes the integer route (`_verdict_sign`), which
    also decides Boundary.  Otherwise, as x + 1/x increases for x > 1, the
    sign is that of (T^2 - 2) - (phi^S + phi^-S), T = tr(M).  The trace of
    F^S is the Lucas number L_S = phi^S + (-phi)^-S, so phi^S + phi^-S lies
    in [L_S, L_S + 2).  With T in [t_lo 2^e, t_hi 2^e], e >= 1, and L_S in
    [l_lo 2^f, l_hi 2^f]:
      T^2 - 2 > phi^S + phi^-S  if  (t_lo^2 - 1) 4^e >= l_hi 2^f, and
      T^2 - 2 < phi^S + phi^-S  if  t_hi^2 4^e <= l_lo 2^f.
    Raises _Undecided when neither holds.
    """
    p, q, (lo, hi, e), (flo, fhi, f) = node
    if e == 0:
        return _verdict_sign(lo[0] + lo[3], 13 * q + 2 * p)[0]
    t_lo, t_hi = lo[0] + lo[3], hi[0] + hi[3]
    if _compare_scaled(max(t_lo * t_lo - 1, 0), 2 * e, fhi[0] + fhi[3], f) >= 0:
        return 1
    if _compare_scaled(t_hi * t_hi, 2 * e, flo[0] + flo[3], f) <= 0:
        return -1
    raise _Undecided(Fraction(p, q))


def _run_node(near, far, k: int, near_left: bool, bits: int):
    """The node k*near + far of a Stern-Brocot run.

    Its word is the endpoint words concatenated, the left one first (the
    standard factorization of Christoffel words at Farey neighbours): near*k
    + far when near is the left endpoint, far + near*k otherwise.  So its
    matrix is the endpoint matrices multiplied in the same order,
    M(near)^k M(far) or M(far) M(near)^k: O(log k) enclosure products.  Its
    weighted sum is k S(near) + S(far), and F's powers commute, so its
    Fibonacci power is F^S(near)^k F^S(far) in either order.
    """
    (p, q, m, f), (p2, q2, m2, f2) = near, far
    mk = _enclosure_power(m, k, bits)
    if near_left:
        m = _enclosure_product(mk, m2, bits)
    else:
        m = _enclosure_product(m2, mk, bits)
    f = _enclosure_product(_enclosure_power(f, k, bits), f2, bits)
    return k * p + p2, k * q + q2, m, f


def _anchor(p: int):
    """The word c734_word(p, 1) and its exact node: S = 13 + 2p, and
    F^S = [[F(S+1), F(S)], [F(S), F(S-1)]] in Fibonacci numbers."""
    word = c734_word(p, 1)
    m = cf._quotient_matrix(word)
    fib, fib_next = _fibonacci_pair(13 + 2 * p)
    f = (fib_next, fib, fib, fib_next - fib)
    return word, (p, 1, (m, m, 0), (f, f, 0))


def _mantissa_bits(eps: Fraction) -> int:
    """The starting mantissa bits of the descent at eps: log2(1/eps) + 40.

    A step at q needs about 2 log2(q) + 10 bits: the relative widths of a
    node's enclosures of T and L_S stay below 0.3 q 2^-bits along the
    descents at 1e-15, 1e-40 and 1e-100, and along the descents through 1e-9
    q |2 ln(lambda) - S ln(phi)| >= 0.018, while q^2 is about 1/eps.  On 60
    log-uniform eps in [1e-60, 1e-3], log2(1/eps) + 6 bits left 7 descents
    with an undecided step and + 8 none, so + 40 keeps 32 bits spare.
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

    The anchors are classified from their words.  Every later node carries
    outward-rounded enclosures of its quotient matrix and of its Fibonacci
    power (`_run_node`), and its verdict is decided by `_node_sign`.  The mantissa bits come from
    eps; a step whose enclosures do not separate reruns the whole descent
    at twice the bits, and after _DOUBLINGS reruns CapExceededError is
    raised.  eps below KAPPA2_EPS_FLOOR raises CapExceededError at once.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    if eps < KAPPA2_EPS_FLOOR:
        raise CapExceededError(
            f"eps is below the kappa2 floor {float(KAPPA2_EPS_FLOOR):.0e}")

    # family anchors, classified during initialization (not bisection steps)
    (lo_word, lo), (hi_word, hi) = _anchor(0), _anchor(1)
    if classify(PeriodicCF((), lo_word)) is not Classification.DERIV_INFINITY or \
            classify(PeriodicCF((), hi_word)) is not Classification.DERIV_ZERO:
        raise AssertionError("family anchors do not bracket the threshold")

    bits = _mantissa_bits(eps)
    for doubling in range(_DOUBLINGS + 1):
        try:
            return _descend(eps, lo, hi, bits << doubling)
        except _Undecided as exc:
            density = exc.args[0]
    raise CapExceededError(f"kappa2 step at density {density} undecided at"
                           f" {bits << _DOUBLINGS}-bit precision")


def _descend(eps: Fraction, lo, hi, bits: int) -> KappaBracket:
    """The Stern-Brocot descent from the anchor nodes lo < hi at `bits`-bit
    mantissas; raises _Undecided at the first step it cannot decide."""
    trace: list[BracketStep] = []

    def verdict(node) -> Classification:
        # a Stern-Brocot descent never meets a density twice
        cls = _BY_SIGN[_node_sign(node)]
        density = Fraction(node[0], node[1])
        trace.append(BracketStep(len(trace) + 1, density, 2 * node[1],
                                 13 + 2 * density, cls))
        return cls

    def narrow(a, b) -> bool:
        # neighbours p/q < p'/q' have p'q - pq' = 1, so their gap is 1/(qq')
        return a[1] * b[1] * eps >= 1

    while not narrow(lo, hi):
        # one digit: the mediant's verdict names the endpoint `near` that the
        # run k*near + far approaches; the run keeps that verdict up to some k
        inside = _run_node(lo, hi, 1, True, bits)
        target = verdict(inside)
        near_left = target is Classification.DERIV_ZERO
        near, far = (lo, hi) if near_left else (hi, lo)
        k = 1
        while True:  # gallop: k = 2, 4, ...
            out_k = 2 * k
            outside = _run_node(near, far, out_k, near_left, bits)
            if verdict(outside) is not target:
                break
            k, inside = out_k, outside
            if narrow(near, inside):
                # early stop: near, the run's limit, is already close enough
                outside = near
                break
        while out_k - k > 1:  # bisect for the last k that keeps the verdict
            mid = (k + out_k) // 2
            node = _run_node(near, far, mid, near_left, bits)
            if verdict(node) is target:
                k, inside = mid, node
            else:
                out_k, outside = mid, node
        lo, hi = (outside, inside) if near_left else (inside, outside)

    return KappaBracket(lo=13 + 2 * Fraction(lo[0], lo[1]),
                        hi=13 + 2 * Fraction(hi[0], hi[1]),
                        trace=tuple(trace))
