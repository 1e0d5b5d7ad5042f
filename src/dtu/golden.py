"""Exact arithmetic in the golden field Q(phi), phi = (1+sqrt5)/2, phi^2 = phi + 1."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

RationalLike = Union[int, Fraction]


def _fibonacci_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) for n >= 0 by fast doubling:
    F(2m) = F(m) (2 F(m+1) - F(m)) and F(2m+1) = F(m)^2 + F(m+1)^2."""
    f, g = 0, 1
    for bit in bin(n)[2:]:
        f, g = f * (2 * g - f), f * f + g * g
        if bit == "1":
            f, g = g, f + g
    return f, g


def sqrt_bounds(d: int, num: int, den: int, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic bounds s/2^k, (s+1)/2^k on sqrt(d), s = isqrt(d 4^k), for the
    term (num/den) sqrt(d) of an enclosure, swapped when num < 0.  k pads
    bits by 2 and by the size of num/den < 2^(num bits - den bits + 1), so
    the term's enclosure is narrower than 2^-(bits+1)."""
    k = bits + max(0, abs(num).bit_length() - den.bit_length()) + 2
    s = isqrt(d << (2 * k))
    lo, hi = Fraction(s, 1 << k), Fraction(s + 1, 1 << k)
    return (lo, hi) if num > 0 else (hi, lo)


def bits_for_width(width: Fraction) -> int:
    """The least bits >= 0 with 2^-(bits+1) <= width: bounds(bits) is narrower."""
    m = -(-width.denominator // width.numerator)  # ceil(1/width)
    return max(0, (m - 1).bit_length() - 1)  # 2^(bits+1) >= m


class GoldenScalar:
    """An exact element a + b*phi of Q(sqrt5), with a, b rational.

    The representation is unique; comparisons follow the real embedding
    phi = (1+sqrt5)/2 and are decided by exact rational arithmetic.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike, b: RationalLike = 0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("GoldenScalar is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def phi_power(cls, k: int) -> "GoldenScalar":
        """phi**k for any integer k, in O(log |k|) integer products.

        With Fibonacci numbers F, phi^k = F(k-1) + F(k) phi and
        phi^-k = (-1)^k (F(k+1) - F(k) phi).
        """
        f, g = _fibonacci_pair(abs(k))  # F(|k|), F(|k|+1)
        if k >= 0:
            return cls(g - f, f)
        if k % 2 == 0:
            return cls(g, -f)
        return cls(-g, f)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "GoldenScalar":
        if isinstance(other, GoldenScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return GoldenScalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GoldenScalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GoldenScalar(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + b phi)(c + d phi) = ac + bd + (ad + bc + bd) phi
        a, b, c, d = self.a, self.b, other.a, other.b
        return GoldenScalar(a * c + b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def __neg__(self):
        return GoldenScalar(-self.a, -self.b)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        result = GoldenScalar(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- exact ordering ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value a + b*phi."""
        # a + b(1+sqrt5)/2 = u + v*sqrt5 with u = a + b/2, v = b/2
        u = self.a + self.b / 2
        v = self.b / 2
        if v == 0:
            return (u > 0) - (u < 0)
        if u == 0:
            return 1 if v > 0 else -1
        if u > 0 and v > 0:
            return 1
        if u < 0 and v < 0:
            return -1
        # opposite signs: compare u^2 against 5 v^2
        lhs, rhs = u * u, 5 * v * v
        if lhs == rhs:
            return 0
        if u > 0:  # v < 0
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def _cmp(self, other) -> int:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign()

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __hash__(self):
        return hash((self.a, self.b))

    # -- numeric views -----------------------------------------------------

    def bounds(self, bits: int = 64) -> tuple[Fraction, Fraction]:
        """A rational enclosure [lo, hi] of the real value, width < 2^-(bits+1).

        a + b*phi = (a + b/2) + (b/2) sqrt5, enclosed by sqrt_bounds.
        """
        v = self.b / 2
        base = self.a + v
        if v == 0:
            return base, base
        r0, r1 = sqrt_bounds(5, v.numerator, v.denominator, bits)
        return base + v * r0, base + v * r1

    def __repr__(self):
        return f"GoldenScalar({self.a!r}, {self.b!r})"

    def __str__(self):
        from .encode import golden_str

        return golden_str(self)


PHI = GoldenScalar(0, 1)
GOLDEN_ONE = GoldenScalar(1)
GOLDEN_ZERO = GoldenScalar(0)
