"""Exact arithmetic in the golden field Q(phi), phi = (1+sqrt5)/2, phi^2 = phi + 1."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
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


def _sign(u, v, d: int) -> int:
    """Exact sign of u + v sqrt(d), for rational u, v and d >= 1: agreeing
    signs decide it, otherwise the sign of u^2 - v^2 d does, taken with u's."""
    su, sv = (u > 0) - (u < 0), (v > 0) - (v < 0)
    if su * sv >= 0:
        return su or sv
    n = u * u - v * v * d
    return su * ((n > 0) - (n < 0))


# (d, K, isqrt(d 4^K)) of the last root _sqrt_floor took, K the largest
# asked for that d since.  Each tuple is right on its own, so a thread that
# reads an older one, or whose store another overwrites, still gets exact
# roots: sharing it costs at most a recomputation, never a wrong end.
_root = (0, -1, 0)


def _sqrt_floor(d: int, k: int) -> int:
    """isqrt(d 4^k) = floor(sqrt(d) 2^k): for k <= K it is the cached
    floor(sqrt(d) 2^K) shifted right by K - k, as floor(floor(y)/2^j) =
    floor(y/2^j); otherwise it is taken afresh and cached."""
    global _root
    cached_d, cached_k, root = _root
    if d == cached_d and k <= cached_k:
        return root >> (cached_k - k)
    root = isqrt(d << (2 * k))
    _root = (d, k, root)
    return root


def _enclosure_ends(p: int, q: int, r: int, d: int, size: int,
                    bits: int) -> tuple[int, int, int]:
    """(lo, hi, den) with lo/den <= (p + q sqrt(d))/r <= hi/den, r > 0, and
    (hi - lo)/den < 2^-(bits+1) when |q/r| < 2^(size+1): the integer core of
    both classes' bounds, whose ends it leaves unreduced.

    s = isqrt(d 4^k) gives s/2^k <= sqrt(d) < (s+1)/2^k, with k padding
    bits by 2 and by size; the ends are p 2^k + q s and p 2^k + q (s+1)
    over den = r 2^k, swapped when q < 0.  A rational value (q = 0) is
    (p, p, r).  Each class reads its (p, q, r, d, size) from its own
    _enclosure_parts, so bounds and encode.decimal_str size k alike.
    """
    if not q:
        return p, p, r
    k = bits + (size if size > 0 else 0) + 2  # max() costs a call
    s = _sqrt_floor(d, k)
    lo = (p << k) + q * s
    hi = lo + q
    if q < 0:
        lo, hi = hi, lo
    return lo, hi, r << k


def _enclosure(p: int, q: int, r: int, d: int, size: int,
               bits: int) -> tuple[Fraction, Fraction]:
    """The ends of _enclosure_ends as Fractions, one per end."""
    lo, hi, den = _enclosure_ends(p, q, r, d, size, bits)
    return Fraction(lo, den), Fraction(hi, den)


def _exact(x) -> RationalLike:
    """x as an int when it is integral, else as a Fraction."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def bits_for_width(width: Fraction) -> int:
    """The least bits >= 0 with 2^-(bits+1) <= width: bounds(bits) is narrower."""
    m = -(-width.denominator // width.numerator)  # ceil(1/width)
    return max(0, (m - 1).bit_length() - 1)  # 2^(bits+1) >= m


class GoldenScalar:
    """An exact element a + b*phi of Q(sqrt5), with a, b rational.

    Each coefficient is stored as an int when it is integral and as a
    Fraction only when it is not, so the values of Z[phi] (phi^k, and g at
    the golden weights, whose lambda = phi - 1 and 1 - lambda = 2 - phi are
    units) run on int arithmetic, by the same formulas.  The representation
    is unique; comparisons follow the real embedding phi = (1+sqrt5)/2 and
    are decided by exact rational arithmetic.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike, b: RationalLike = 0):
        _set_a(self, a if type(a) is int else _exact(a))
        _set_b(self, b if type(b) is int else _exact(b))

    def __setattr__(self, name, value):
        raise AttributeError("GoldenScalar is immutable")

    def __delattr__(self, name):
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

    # no library code calls this, but it stays: bench/dtubench/tracing.py
    # looks it up in the class __dict__, so Tracer.install raises KeyError
    # without it
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
        """Exact sign of the real value a + b*phi = ((2a + b) + b sqrt5)/2."""
        return _sign(2 * self.a + self.b, self.b, 5)

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

    def surd_parts(self) -> tuple[int, int, int]:
        """Integers (p, q, r) with a + b*phi = (p + q sqrt5)/r and r > 0:
        (2a + b)/2 + (b/2) sqrt5 over the least common denominator."""
        a, b = self.a, self.b
        if type(a) is int and type(b) is int:
            return 2 * a + b, b, 2
        u, v = 2 * a + b, b
        den = lcm(u.denominator, v.denominator)
        return (u.numerator * (den // u.denominator),
                v.numerator * (den // v.denominator), 2 * den)

    def _enclosure_parts(self) -> tuple[int, int, int, int, int]:
        """(p, q, r, d, size) of _enclosure_ends: surd_parts, d = 5, and
        size from b/2 in lowest terms (reducing n/(2d) divides both by 2 or
        by nothing, which leaves their difference in bits unchanged).  Int
        coefficients give (2a + b, b, 2, 5, bits of |b| less 2) directly."""
        a, b = self.a, self.b
        if type(a) is int and type(b) is int:
            return 2 * a + b, b, 2, 5, abs(b).bit_length() - 2
        size = abs(b.numerator).bit_length() - (2 * b.denominator).bit_length()
        return (*self.surd_parts(), 5, size)

    def bounds(self, bits: int = 64) -> tuple[Fraction, Fraction]:
        """A rational enclosure [lo, hi] of the real value, width < 2^-(bits+1):
        the ends of _enclosure_ends as Fractions."""
        return _enclosure(*self._enclosure_parts(), bits)

    def __repr__(self):
        return f"GoldenScalar({self.a!r}, {self.b!r})"

    def __str__(self):
        from .encode import golden_str

        return golden_str(self)


# the slots' own setters, which __init__ calls as __setattr__ refuses
_set_a, _set_b = GoldenScalar.a.__set__, GoldenScalar.b.__set__

PHI = GoldenScalar(0, 1)
GOLDEN_ONE = GoldenScalar(1)
GOLDEN_ZERO = GoldenScalar(0)
