"""Continued fractions and continuants over exact integer arithmetic.

Quotient sequences are plain tuples of positive integers a_1..a_n, read as
the regular continued fraction [0; a_1, a_2, ...].  The continuant <A> is
the denominator of that fraction: <> = 1, <a1> = a1, and
<a1..an> = an * <a1..a_{n-1}> + <a1..a_{n-2}>.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence

from .errors import InputError
from .surd import QuadraticSurd

Quotients = tuple[int, ...]
Matrix = tuple[int, int, int, int]  # flat 2x2 matrix (m00, m01, m10, m11)


class Orientation(enum.Enum):
    """Weight vector for quotient sums: PHI = (1,2,1,2,...), TAU = (2,1,2,1,...)."""

    PHI = "phi"
    TAU = "tau"

    def weight(self, index: int) -> int:
        """Weight of the 1-based position `index`."""
        if self is Orientation.PHI:
            return 2 if index % 2 == 0 else 1
        return 1 if index % 2 == 0 else 2


def check_quotients(seq: Sequence[int], allow_empty: bool = True) -> Quotients:
    """Validate and freeze a quotient sequence; every item must be >= 1.

    A plain int passes on an exact type test and one comparison.  Only an
    item that fails them takes the full test, which accepts an int subclass
    other than bool and otherwise names that item, the first offender.
    """
    out = tuple(seq)
    if not allow_empty and not out:
        raise InputError("empty quotient sequence not allowed here")
    for a in out:
        if type(a) is not int or a < 1:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise InputError(f"partial quotients must be integers >= 1, got {a!r}")
    return out


def continuant(seq: Sequence[int]) -> int:
    """The continuant <a_1, ..., a_n>; <> = 1."""
    return _continuant(check_quotients(seq))


def _continuant(seq: Sequence[int]) -> int:
    """continuant of an already validated quotient sequence, unchecked."""
    value, prev = 1, 0
    for a in seq:
        value, prev = a * value + prev, value
    return value


def quotient_matrix(seq: Sequence[int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Ordered product of [[a_i, 1], [1, 0]]: [[<A>, <A^->], [<A_->, <A_-^->]].

    <A^-> drops the last element, <A_-> the first, <A_-^-> both; the
    determinant is (-1)^n.
    """
    m00, m01, m10, m11 = _quotient_matrix(check_quotients(seq, allow_empty=False))
    return (m00, m01), (m10, m11)


# Runs of at most this many quotients are multiplied left to right; longer
# ones are split at the midpoint, so the big products multiply operands of
# equal size (Karatsuba in CPython) instead of a huge entry by a small int.
_LEAF = 32


def _quotient_matrix(seq: Quotients, lo: int = 0,
                     hi: int | None = None) -> Matrix:
    """quotient_matrix of the validated seq[lo:hi], unchecked, as a flat 4-tuple."""
    if hi is None:
        hi = len(seq)
    if hi - lo <= _LEAF:
        m00, m01, m10, m11 = 1, 0, 0, 1
        # indexed, not sliced: CPython keeps freed short tuples on free
        # lists, so the leaf slices of a long period would stay resident
        for i in range(lo, hi):
            a = seq[i]
            m00, m01 = m00 * a + m01, m00
            m10, m11 = m10 * a + m11, m10
        return m00, m01, m10, m11
    mid = (lo + hi) // 2
    return _matrix_product(_quotient_matrix(seq, lo, mid),
                           _quotient_matrix(seq, mid, hi))


def _matrix_product(a: Matrix, b: Matrix) -> Matrix:
    """The 2x2 product a b of flat matrices."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def value_of(seq: Sequence[int]) -> Fraction:
    """Exact value of [0; a_1, ..., a_n] = <A_->/<A>, in (0, 1]."""
    (m00, _), (m10, _) = quotient_matrix(seq)
    return Fraction(m10, m00)


def cf_value(seq: Sequence[int]) -> Fraction:
    """Like value_of but 0 for the empty sequence (the convention of empty tails)."""
    return value_of(seq) if seq else Fraction(0)


def cf_of(x: Fraction) -> Quotients:
    """Euclid's quotients of a rational x in (0, 1); the last one is >= 2."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError(f"x must lie strictly inside (0, 1), got {x}")
    return tuple(_euclid(x))


def _euclid(x: Fraction) -> Iterator[int]:
    """The partial quotients a1, a2, ... of x = [0; a1, a2, ...] in (0, 1),
    unchecked, one at a time, so that a cap can stop Euclid's loop early."""
    num, den = x.numerator, x.denominator
    while num:
        a, num, den = den // num, den % num, num
        yield a


def canonical(seq: Sequence[int]) -> Quotients:
    """Normalize to the last-quotient >= 2 form: [..., a_n, 1] -> [..., a_n + 1]."""
    seq = check_quotients(seq)
    if len(seq) >= 2 and seq[-1] == 1:
        return seq[:-2] + (seq[-2] + 1,)
    return seq


def reverse(seq: Sequence[int]) -> Quotients:
    """The reversed sequence; continuants are invariant under reversal."""
    return tuple(reversed(check_quotients(seq)))


def weighted_sum(seq: Sequence[int], o: Orientation) -> int:
    """Sum of a_i weighted by the orientation's (1,2,...) or (2,1,...) pattern."""
    return _weighted_sum(check_quotients(seq), o)


def _weighted_sum(seq: Quotients, o: Orientation) -> int:
    """weighted_sum of an already validated quotient tuple."""
    odd, even = sum(seq[0::2]), sum(seq[1::2])
    return odd + 2 * even if o is Orientation.PHI else 2 * odd + even


def light_positions(n: int, o: Orientation) -> tuple[int, ...]:
    """1-based weight-1 positions of a length-n word: the odd ones for PHI,
    the even ones for TAU."""
    return tuple(range(1 if o is Orientation.PHI else 2, n + 1, 2))


def heavy_positions(n: int, o: Orientation) -> tuple[int, ...]:
    """1-based weight-2 positions of a length-n word: the even ones for PHI,
    the odd ones for TAU."""
    return tuple(range(2 if o is Orientation.PHI else 1, n + 1, 2))


def _mechanical_word(p: int, q: int, left: tuple, right: tuple) -> tuple:
    """The q letters (tuples) of the mechanical word of density p/q,
    0 <= p <= q, concatenated, unchecked: letter j (from 0) is `right` when
    floor((j+1)p/q) - floor(jp/q) = 1, else `left`.

    For Farey neighbours a/b < c/d the word at (a+c)/(b+d) is the word at
    a/b followed by the word at c/d (Christoffel), so the Stern-Brocot path
    to p/q builds it in O(log q) repetitions and concatenations.
    """
    if not q:
        return ()
    g = gcd(p, q)
    p, q = p // g, q // g
    if q == 1:
        return (right if p else left) * g
    (a, b), (c, d) = (0, 1), (1, 1)
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


def _assemble(blocks: Sequence) -> Quotients:
    """Flatten (light, heavy) pairs into the (1,2,...)-weighted position order."""
    word = []
    for light_v, heavy_v in blocks:
        word.extend((light_v, heavy_v))
    return tuple(word)


@dataclass(frozen=True)
class PeriodicCF:
    """An eventually periodic continued fraction: preperiod then repeated period."""

    preperiod: Quotients
    period: Quotients

    def __post_init__(self):
        object.__setattr__(self, "preperiod", check_quotients(self.preperiod))
        object.__setattr__(self, "period", check_quotients(self.period, allow_empty=False))

    @classmethod
    def _of_valid(cls, preperiod: Quotients, period: Quotients) -> "PeriodicCF":
        """Build from quotient tuples that are already validated, unchecked."""
        x = object.__new__(cls)
        object.__setattr__(x, "preperiod", preperiod)
        object.__setattr__(x, "period", period)
        return x

    def quotients(self) -> Iterator[int]:
        """The infinite quotient stream."""
        yield from self.preperiod
        while True:
            yield from self.period


def periodic_value(x: PeriodicCF) -> QuadraticSurd:
    """Exact value of the eventually periodic continued fraction, in (0, 1).

    The purely periodic part y solves <A^-> y^2 + (<A> - <A_-^->) y - <A_-> = 0
    (positive root); a preperiod P maps y through the Moebius transform
    (<P_-> + y <P_-^->) / (<P> + y <P^->).
    """
    m00, m01, m10, m11 = _quotient_matrix(x.period)  # validated by PeriodicCF
    a, b, c = m01, m00 - m11, -m10
    disc = b * b - 4 * a * c
    y = QuadraticSurd(-b, 1, 2 * a, disc)
    if x.preperiod:
        p00, p01, p10, p11 = _quotient_matrix(x.preperiod)
        y = (QuadraticSurd.from_fraction(Fraction(p10)) + y * p11) / \
            (QuadraticSurd.from_fraction(Fraction(p00)) + y * p01)
    if not (QuadraticSurd.from_fraction(0) < y < QuadraticSurd.from_fraction(1)):
        raise AssertionError("periodic continued fraction value outside (0, 1)")
    return y
