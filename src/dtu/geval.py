"""Evaluation of the Denjoy-Tichy-Uitz functions g_lambda.

g_lambda is defined on the Stern-Brocot/Farey tree by g(0)=0, g(1)=1 and
g(mediant(l, r)) = (1-lambda) g(l) + lambda g(r); equivalently, at
x = [0; a1, a2, ...] it is the alternating series whose i-th term is
lambda^(a1+a3+...-1) * (1-lambda)^(a2+a4+...) truncated at index i.

lambda = 1/2 gives the Minkowski question-mark function; lambda = 1/phi and
lambda = 1/phi^2 take exact values in the golden field.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from . import cf
from .cf import Orientation, PeriodicCF
from .errors import CapExceededError, InputError
from .golden import (GOLDEN_ONE, GOLDEN_ZERO, GoldenScalar, _fibonacci_pair,
                     bits_for_width)

DEFAULT_FAREY_DEPTH_CAP = 512
# The most work that `dtu eval` takes on, checked by check_mediant_cost
# before g_mediant runs: the number of partial quotients of x, and their sum,
# times the bits of q for a rational weight p/q, as lambda^k then has about
# k log2(q) bits.  1,024 quotients of 128 take about 0.05 s in g_mediant at
# tau and 0.1 s in `dtu eval` in process, and g at x = 1/100000 prints 42 kB.
EVAL_QUOTIENTS_MAX = 2 ** 10
EVAL_QUOTIENT_SUM_MAX = 2 ** 17
# The most work that `dtu sample` takes on, checked by check_sample_cost
# before sample_farey runs: the depth, counted once per bit of q for a
# rational weight p/q, as a value at depth D then has about D log2(q) bits.
# Every named weight, and every q < 2^8, passes up to the default depth cap.
SAMPLE_WEIGHTED_DEPTH_MAX = 8 * DEFAULT_FAREY_DEPTH_CAP

ExactScalar = Union[Fraction, GoldenScalar]


class LambdaKind(enum.Enum):
    """Named weights; rational weights are passed as Fraction values."""

    HALF = "half"
    PHI_INV = "phi-inv"
    TAU = "tau"


Lambda = Union[LambdaKind, Fraction]


def _field(lam: Lambda):
    """(lambda, 1-lambda, zero, one) in the exact field matching the weight."""
    if lam is LambdaKind.PHI_INV:
        return GoldenScalar(-1, 1), GoldenScalar(2, -1), GOLDEN_ZERO, GOLDEN_ONE
    if lam is LambdaKind.TAU:
        return GoldenScalar(2, -1), GoldenScalar(-1, 1), GOLDEN_ZERO, GOLDEN_ONE
    if lam is LambdaKind.HALF:
        half = Fraction(1, 2)
        return half, half, Fraction(0), Fraction(1)
    value = Fraction(lam)
    if not 0 < value < 1:
        raise InputError(f"rational weight must lie in (0, 1), got {value}")
    return value, 1 - value, Fraction(0), Fraction(1)


def g_mediant(lam: Lambda, x: Fraction) -> ExactScalar:
    """Evaluate g_lambda at a rational x by descending the Stern-Brocot tree.

    From [0, 1], the path to x = [0; a1..an] is a run of a1-1 steps toward 0,
    then runs of a2, ..., a_{n-1} alternating sides, then a_n - 1 (a1-2 when
    n = 1).  A run is one jump: k steps toward 0 shrink g_hi - g_lo by
    lambda^k from the left end, k steps toward 1 by (1-lambda)^k from the
    right end; x is the mediant of the final ends.

    At the golden weights lambda and 1 - lambda are the units phi^-1 and
    phi^-2 (phi^-2 and phi^-1 at tau), so a jump multiplies g_hi - g_lo by
    a power of phi^-1 read off Fibonacci numbers, and the ends are int
    pairs x + y phi; a rational weight runs on integers in _rational_mediant.
    """
    lam_v, com_v, zero, one = _field(lam)
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise InputError(f"x must lie in [0, 1], got {x}")
    if x == 0:
        return zero
    if x == 1:
        return one
    runs = list(cf.cf_of(x))
    runs[0] -= 1
    runs[-1] -= 1
    if isinstance(lam_v, Fraction):
        return _rational_mediant(lam_v, runs)
    # lambda = phi^-el and 1 - lambda = phi^-ec; g_lo = lx + ly phi and
    # g_hi = hx + hy phi, and a run of k steps multiplies g_hi - g_lo by
    # phi^-m = u + v phi, m = k el or k ec, by the Z[phi] product
    # (u + v phi)(x + y phi) = ux + vy + (uy + vx + vy) phi
    el, ec = (1, 2) if lam is LambdaKind.PHI_INV else (2, 1)
    lx, ly, hx, hy = 0, 0, 1, 0
    for i, k in enumerate(runs):
        m = k * (el if i % 2 == 0 else ec)
        f, g = _fibonacci_pair(m)  # phi^-m = (-1)^m (F(m+1) - F(m) phi)
        u, v = (g, -f) if m % 2 == 0 else (-g, f)
        dx, dy = hx - lx, hy - ly
        px, py = u * dx + v * dy, u * dy + v * dx + v * dy
        if i % 2 == 0:
            hx, hy = lx + px, ly + py
        else:
            lx, ly = hx - px, hy - py
    # GoldenScalar ops: farey-table's trace expects golden __add__/__mul__, made only here
    return com_v * GoldenScalar(lx, ly) + lam_v * GoldenScalar(hx, hy)


def _rational_mediant(lam: Fraction, runs) -> Fraction:
    """The jumps of g_mediant at a rational weight a/b, on integers: after e
    steps g_lo and g_hi are lo/b^e and hi/b^e, and one Fraction is
    normalised at the end, not one per run."""
    a, b = lam.numerator, lam.denominator
    c = b - a  # 1 - lambda = c/b
    lo, hi = 0, 1
    for i, k in enumerate(runs):
        scale = b ** k
        if i % 2 == 0:
            lo, hi = lo * scale, lo * scale + a ** k * (hi - lo)
        else:
            lo, hi = hi * scale - c ** k * (hi - lo), hi * scale
    return Fraction(c * lo + a * hi, b ** (sum(runs) + 1))


def check_mediant_cost(lam: Lambda, x) -> None:
    """Raise CapExceededError when the partial quotients of x, a Fraction or
    the quotients themselves, pass EVAL_QUOTIENTS_MAX in number or
    EVAL_QUOTIENT_SUM_MAX in sum, each counted once per bit of q for a
    rational weight p/q.  An x outside (0, 1) is left to g_mediant."""
    if isinstance(x, Fraction):
        if not 0 < x < 1:
            return
        x = cf._euclid(x)
    weight = lam.denominator.bit_length() if isinstance(lam, Fraction) else 1
    total = 0
    for n, a in enumerate(x, 1):
        if n > EVAL_QUOTIENTS_MAX:
            raise CapExceededError(
                f"x has more than {EVAL_QUOTIENTS_MAX} partial quotients")
        total += a * weight
        if total > EVAL_QUOTIENT_SUM_MAX:
            each = f", each counted {weight} times for lambda," if weight > 1 else ""
            raise CapExceededError(f"the partial quotients of x{each} sum past"
                                   f" the cap {EVAL_QUOTIENT_SUM_MAX}")


def check_sample_cost(lam: Lambda, depth: int) -> None:
    """Raise CapExceededError when depth, counted once per bit of q for a
    rational weight p/q, passes SAMPLE_WEIGHTED_DEPTH_MAX.  A weight outside
    (0, 1) is left to sample_farey."""
    if not isinstance(lam, Fraction) or not 0 < lam < 1:
        return
    weight = lam.denominator.bit_length()
    if depth * weight > SAMPLE_WEIGHTED_DEPTH_MAX:
        raise CapExceededError(f"depth {depth}, counted {weight} times for lambda,"
                               f" passes the cap {SAMPLE_WEIGHTED_DEPTH_MAX}")


def g_finite_series(lam: Lambda, seq) -> ExactScalar:
    """Evaluate g_lambda([0; a1..an]) by the closed alternating sum.

    Non-canonical input (trailing 1) is normalized first; the t-th partial
    term is lambda^(sum of odd-indexed a_i up to t, minus 1) times
    (1-lambda)^(sum of even-indexed a_i up to t).

    Each term is the one before times lambda^(a_t) or (1-lambda)^(a_t).  At
    the golden weights these are units, powers of phi^-1 read off Fibonacci
    numbers, and the term and the sum are int pairs x + y phi; a rational
    weight runs on integers in _rational_series.
    """
    seq = cf.canonical(cf.check_quotients(seq, allow_empty=False))
    lam_v, _, _, _ = _field(lam)
    if isinstance(lam_v, Fraction):
        return _rational_series(lam_v, seq)
    # lambda = phi^-el and 1 - lambda = phi^-ec; the term tx + ty phi starts
    # at lambda^(a1 - 1) and is multiplied by phi^-m = u + v phi, m = a el
    # or a ec, at each later quotient a, by the Z[phi] product of g_mediant
    el, ec = (1, 2) if lam is LambdaKind.PHI_INV else (2, 1)
    tx, ty, sx, sy = 1, 0, 0, 0
    for i, a in enumerate(seq):
        m = (a - 1 if i == 0 else a) * (el if i % 2 == 0 else ec)
        f, g = _fibonacci_pair(m)  # phi^-m = (-1)^m (F(m+1) - F(m) phi)
        u, v = (g, -f) if m % 2 == 0 else (-g, f)
        tx, ty = u * tx + v * ty, u * ty + v * tx + v * ty
        if i % 2 == 0:
            sx, sy = sx + tx, sy + ty
        else:
            sx, sy = sx - tx, sy - ty
    return GoldenScalar(sx, sy)


def _rational_series(lam: Fraction, seq) -> Fraction:
    """The series of g_finite_series at a rational weight a/b, on integers:
    after a1..at, with O and E the odd- and even-indexed sums, term is
    a^O c^E (c = b - a) and total / b^(O+E) is the sum of the signed
    lambda^O (1-lambda)^E; the series is b/a times that, and one Fraction
    is normalised at the end, not one per term."""
    a, b = lam.numerator, lam.denominator
    c = b - a  # 1 - lambda = c/b
    total, term, scale = 0, 1, 1
    for i, k in enumerate(seq):
        step = b ** k
        total, scale = total * step, scale * step
        if i % 2 == 0:
            term *= a ** k
            total += term
        else:
            term *= c ** k
            total -= term
    return Fraction(total * b, scale * a)


def question_mark(x: Fraction) -> Fraction:
    """Minkowski's ?-function: dyadic-valued, equal to g at weight 1/2."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise InputError(f"x must lie in [0, 1], got {x}")
    if x == 0:
        return Fraction(0)
    if x == 1:
        return Fraction(1)
    seq = cf.cf_of(x)
    total = Fraction(0)
    exponent = 0
    sign = 1
    for a in seq:
        exponent += a
        total += sign * Fraction(1, 2 ** (exponent - 1))
        sign = -sign
    return total


@dataclass(frozen=True)
class CertifiedInterval:
    """A rational enclosure [lo, hi] of an exact real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def g_interval(lam: LambdaKind, x: PeriodicCF, tol: Fraction) -> CertifiedInterval:
    """Certified enclosure of g at a quadratic irrational, width <= tol.

    The alternating series in powers of 1/phi is truncated once the next
    term drops below tol/2 (terms strictly decrease because the weighted
    quotient sums strictly increase); the tail is bounded by the first
    omitted term, and the golden-field partial sums are rationalized with
    the remaining tolerance budget.
    """
    if lam not in (LambdaKind.PHI_INV, LambdaKind.TAU):
        raise ValueError("certified interval evaluation needs a golden weight")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    orientation = Orientation.PHI if lam is LambdaKind.PHI_INV else Orientation.TAU
    offset = 1 if lam is LambdaKind.PHI_INV else 2
    threshold = tol / 2
    partial = GOLDEN_ZERO
    weighted = 0
    sign = 1
    lo_sum = hi_sum = partial
    for i, a in enumerate(x.quotients(), start=1):
        weighted += a * orientation.weight(i)
        term = GoldenScalar.phi_power(offset - weighted)
        nxt = partial + term if sign > 0 else partial - term
        lo_sum, hi_sum = (partial, nxt) if sign > 0 else (nxt, partial)
        partial = nxt
        sign = -sign
        if term < threshold:
            break
    bits = bits_for_width(tol / 8)
    lo, _ = lo_sum.bounds(bits)
    _, hi = hi_sum.bounds(bits)
    return CertifiedInterval(lo, hi)


def sample_farey(lam: Lambda, depth: int,
                 depth_cap: int = DEFAULT_FAREY_DEPTH_CAP) -> list[tuple[Fraction, ExactScalar]]:
    """All Farey fractions of order <= depth with exact g values, sorted by x:
    the rows of farey_rows as one list."""
    return list(farey_rows(lam, depth, depth_cap))


def farey_rows(lam: Lambda, depth: int,
               depth_cap: int = DEFAULT_FAREY_DEPTH_CAP) -> Iterator[tuple[Fraction, ExactScalar]]:
    """The rows (x, g(x)) of sample_farey, yielded in order of x as the walk
    reaches them, so a caller that writes each row never holds the table.
    The weight, the depth and its cap are checked when this is called, not
    when the first row is asked for.

    Values are propagated down the tree (each mediant's value from its two
    parents), so the table is a single in-order traversal that computes each
    value once.  The walk runs on integers for every weight: with lambda and
    1 - lambda written as Z[phi] numerators over one integer b (b = 1 at the
    golden weights, b = q at a rational weight p/q), a value is an int pair
    (x, y), x + y phi over b^depth.  Rows are GoldenScalar(x, y) at the
    golden weights and Fraction(x, b^depth) at rational ones.
    """
    lam_v, com_v, _, _ = _field(lam)  # a weight outside (0, 1) is a usage error
    if depth < 1:
        raise InputError("depth must be >= 1")
    if depth > depth_cap:
        raise CapExceededError(f"depth {depth} exceeds cap {depth_cap}")
    if isinstance(lam_v, GoldenScalar):
        return _farey_walk(depth, 1, 1, (lam_v.a, lam_v.b, com_v.a, com_v.b),
                           GoldenScalar)
    b = lam_v.denominator
    scale = b ** depth

    def row(x, _):
        return Fraction(x, scale)
    return _farey_walk(depth, b, scale, (lam_v.numerator, 0, b - lam_v.numerator, 0), row)


def _farey_walk(depth: int, b: int, scale: int, weights: tuple[int, int, int, int],
                row) -> Iterator[tuple[Fraction, ExactScalar]]:
    """The rows of farey_rows: weights are the Z[phi] numerators (la, lb)
    of lambda and (ca, cb) of 1 - lambda over b, and row(x, y) is the value
    of the int pair (x, y) over scale = b^depth."""
    la, lb, ca, cb = weights
    # in-order walk of the mediant tree restricted to denominators <= depth:
    # go left from (l, r) while the mediant fits, keeping each mediant with
    # its value and its right end; a popped mediant is the next left end.
    # g(m) = ((ca + cb phi) g(l) + (la + lb phi) g(r)) / b by the Z[phi]
    # product (a + b phi)(c + d phi) = ac + bd + (ad + bc + bd) phi, and the
    # division is exact: a node at tree depth t has a value over b^t, and a
    # node p/q has t = (sum of the partial quotients of p/q) - 1 <= q - 1,
    # so every node of order <= depth has t < depth
    yield Fraction(0), row(0, 0)
    ln, ld, lx, ly = 0, 1, 0, 0
    rn, rd, rx, ry = 1, 1, scale, 0
    stack = []
    while True:
        while ld + rd <= depth:
            mn, md = ln + rn, ld + rd
            mx = (ca * lx + cb * ly + la * rx + lb * ry) // b
            my = (ca * ly + cb * (lx + ly) + la * ry + lb * (rx + ry)) // b
            stack.append((mn, md, mx, my, rn, rd, rx, ry))
            rn, rd, rx, ry = mn, md, mx, my
        if not stack:
            break
        ln, ld, lx, ly, rn, rd, rx, ry = stack.pop()
        yield Fraction(ln, ld), row(lx, ly)
    yield Fraction(1), row(scale, 0)
