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
from typing import Callable, Iterator, Union

from . import cf
from .cf import PeriodicCF
from .errors import CapExceededError, InputError
from .golden import GOLDEN_ZERO, GoldenScalar, _fibonacci_pair, bits_for_width

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


class _Weight:
    """A weight as integer data: lambda and 1 - lambda are the Z[phi]
    numerators lam = (x, y) and com, x + y phi, over one integer b.  At the
    golden weights b = 1 and lambda = phi^-el, 1 - lambda = phi^-ec with
    units = (el, ec); a rational weight a/b has lam = (a, 0), com = (b - a, 0)
    and no units.  A plain class: a dataclass costs about 1 ms at import."""

    __slots__ = ("lam", "com", "b", "units")

    def __init__(self, lam: tuple[int, int], com: tuple[int, int], b: int,
                 units: tuple[int, ...] = ()):
        self.lam, self.com, self.b, self.units = lam, com, b, units

    def power(self, side: int, k: int) -> tuple[int, int, int]:
        """(u, v, s) with lambda^k (side 0) or (1 - lambda)^k (side 1) equal
        to (u + v phi) / s: a unit phi^-m over 1 at the golden weights, and
        a^k or (b - a)^k over b^k at a rational a/b."""
        if self.units:
            m = k * self.units[side]
            f, g = _fibonacci_pair(m)  # phi^-m = (-1)^m (F(m+1) - F(m) phi)
            return (g, -f, 1) if m % 2 == 0 else (-g, f, 1)
        return (self.com if side else self.lam)[0] ** k, 0, self.b ** k

    def values(self, n: int) -> Callable[[int, int], ExactScalar]:
        """The map from an int pair (x, y) over b^n to its exact value:
        GoldenScalar(x, y) at the golden weights, where b is 1, and
        Fraction(x, b^n) at a rational weight, where y is 0."""
        if self.units:
            return GoldenScalar
        scale = self.b ** n
        return lambda x, _: Fraction(x, scale)


_NAMED = {LambdaKind.HALF: _Weight((1, 0), (1, 0), 2),
          LambdaKind.PHI_INV: _Weight((-1, 1), (2, -1), 1, (1, 2)),
          LambdaKind.TAU: _Weight((2, -1), (-1, 1), 1, (2, 1))}


def _weight(lam: Lambda) -> _Weight:
    """The _Weight of a named weight, or of a rational one in (0, 1)."""
    if isinstance(lam, LambdaKind):
        return _NAMED[lam]
    value = Fraction(lam)
    if not 0 < value < 1:
        raise InputError(f"rational weight must lie in (0, 1), got {value}")
    a, b = value.numerator, value.denominator
    return _Weight((a, 0), (b - a, 0), b)


def g_mediant(lam: Lambda, x: Fraction) -> ExactScalar:
    """Evaluate g_lambda at a rational x by descending the Stern-Brocot tree.

    From [0, 1], the path to x = [0; a1..an] is a run of a1-1 steps toward 0,
    then runs of a2, ..., a_{n-1} alternating sides, then a_n - 1 (a1-2 when
    n = 1).  A run is one jump: k steps toward 0 shrink g_hi - g_lo by
    lambda^k from the left end, k steps toward 1 by (1-lambda)^k from the
    right end; x is the mediant of the final ends.

    The ends are int pairs x + y phi over one growing power of the weight's
    denominator b, and each jump multiplies by a power (u + v phi) / s of
    the weight: a unit phi^-m read off Fibonacci numbers at the golden
    weights (s = 1), a^k / b^k at a rational a/b.
    """
    weight = _weight(lam)
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise InputError(f"x must lie in [0, 1], got {x}")
    if x == 0 or x == 1:
        return weight.values(0)(x.numerator, 0)
    runs = list(cf._euclid(x))
    runs[0] -= 1
    runs[-1] -= 1
    # a run of k steps multiplies g_hi - g_lo by (u + v phi) / s, by the
    # Z[phi] product (u + v phi)(x + y phi) = ux + vy + (uy + vx + vy) phi,
    # and brings the end it keeps over the new denominator
    power = weight.power
    lx, ly, hx, hy = 0, 0, 1, 0
    for i, k in enumerate(runs):
        side = i % 2
        u, v, s = power(side, k)
        dx, dy = hx - lx, hy - ly
        px, py = u * dx + v * dy, u * dy + v * dx + v * dy
        if side == 0:
            lx, ly = lx * s, ly * s
            hx, hy = lx + px, ly + py
        else:
            hx, hy = hx * s, hy * s
            lx, ly = hx - px, hy - py
    if weight.units:
        # GoldenScalar ops: farey-table's trace expects golden __add__/__mul__, made only here
        return GoldenScalar(lx, ly) + GoldenScalar(*weight.lam) * GoldenScalar(hx - lx, hy - ly)
    a, c = weight.lam[0], weight.com[0]
    return Fraction(c * lx + a * hx, weight.b ** (sum(runs) + 1))


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

    Each term is the one before times lambda^(a_t) or (1-lambda)^(a_t), a
    power (u + v phi) / s of the weight as in g_mediant, and the term and
    the sum are int pairs x + y phi over one growing power of the weight's
    denominator.
    """
    seq = cf.canonical(cf.check_quotients(seq, allow_empty=False))
    weight = _weight(lam)
    # the term tx + ty phi starts at lambda^(a1 - 1), so the first power is
    # one short; the sum is brought over each new denominator before the
    # term is added or taken away
    runs = list(seq)
    runs[0] -= 1
    power = weight.power
    tx, ty, sx, sy = 1, 0, 0, 0
    for i, k in enumerate(runs):
        side = i % 2
        u, v, s = power(side, k)
        tx, ty = u * tx + v * ty, u * ty + v * tx + v * ty
        if side == 0:
            sx, sy = sx * s + tx, sy * s + ty
        else:
            sx, sy = sx * s - tx, sy * s - ty
    return weight.values(sum(runs))(sx, sy)


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
    el, ec = _NAMED[lam].units  # lambda = phi^-el, 1 - lambda = phi^-ec
    threshold = tol / 2
    partial = GOLDEN_ZERO
    weighted = 0
    sign = 1
    lo_sum = hi_sum = partial
    for i, a in enumerate(x.quotients()):
        weighted += a * (ec if i & 1 else el)
        term = GoldenScalar.phi_power(el - weighted)
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
    (x, y), x + y phi over b^depth, and the weight's values map makes the
    rows GoldenScalar(x, y) at the golden weights and Fraction(x, b^depth)
    at rational ones.
    """
    weight = _weight(lam)  # a weight outside (0, 1) is a usage error
    if depth < 1:
        raise InputError("depth must be >= 1")
    if depth > depth_cap:
        raise CapExceededError(f"depth {depth} exceeds cap {depth_cap}")
    return _farey_walk(depth, weight)


def _farey_walk(depth: int, weight: _Weight) -> Iterator[tuple[Fraction, ExactScalar]]:
    """The rows of farey_rows."""
    (la, lb), (ca, cb), b = weight.lam, weight.com, weight.b
    scale = b ** depth
    row = weight.values(depth)
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
