"""Textual encodings shared by the CLI and reports.

Formats: Fraction "p/q" (plain "p" when integral), GoldenScalar "a+b*phi"
with rational a, b, QuadraticSurd "(p+q*sqrt(d))/r", quotient sequences
"a1,a2,...".  Every emitted value re-parses to an equal value.  decimal_str
renders a number correctly rounded to 30 significant digits, in integer
arithmetic and in the layout of str(Decimal), so the caller's decimal
context never changes its text.  The parsers
accept these forms only, with ASCII digits and a sign only as a leading "-"
or between terms, so "+3", "1_0" and non-ASCII digits raise InputError.
"""

from __future__ import annotations

import re
import sys
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction

from .errors import InputError
from .golden import GoldenScalar, _enclosure_ends
from .surd import QuadraticSurd

_DIGITS = 30  # significant digits of decimal_str
_TOP = 10 ** _DIGITS  # the least integer of _DIGITS + 1 digits
_BITS = 200  # precision of its first enclosure
_GUARD = 150  # bits of |x| that its enclosures resolve
# coefficient bits past which decimal_str encloses once, at bits sized by
# _magnitude, instead of at _BITS and again near 0
_BIG_BITS = 4096
# int_str converts ints of more bits by divide and conquer: with CPython
# 3.11 on a 2-core Xeon VM, str() takes 1.5 ms at 32,000 bits, as long as
# the split does, 6 ms at 64,000 (split 3.8 ms) and 92 ms at 250,000 (18 ms)
_STR_BITS = 40_000
_SPLIT_BITS = 1024  # pieces of at most this many bits convert directly
# ASCII digits only; int() alone would also take "+3", "1_0", "\u0663"
_QUOTIENT_RE = re.compile(r"[0-9]+")
_FRACTION_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_GOLDEN_RE = re.compile(
    r"(?P<a>-?[0-9]+(?:/[0-9]+)?)?"
    r"(?:(?P<sign>[+-])?(?P<b>[0-9]+(?:/[0-9]+)?)\*phi)?"
)
_SURD_RE = re.compile(
    r"\((?P<p>-?[0-9]+)(?P<sign>[+-])(?P<q>[0-9]+)\*sqrt\((?P<d>[0-9]+)\)\)/(?P<r>[0-9]+)"
)


def int_str(n: int) -> str:
    """str(n), including its ValueError past sys.get_int_max_str_digits(),
    in time below quadratic for n of more than _STR_BITS bits.

    Such an n is split at half its bits, n = hi 2^h + lo, recursively; the
    pieces and the powers 2^h become exact Decimals, which multiply in
    subquadratic time, and str() of the integral Decimal is its digits.
    """
    if n.bit_length() <= _STR_BITS:
        return str(n)
    powers = {}

    def power(w: int) -> Decimal:
        if w not in powers:
            h = w >> 1
            powers[w] = (Decimal(1 << w) if w <= _SPLIT_BITS
                         else power(h) * power(w - h))
        return powers[w]

    def convert(m: int, w: int) -> Decimal:  # m < 2^w
        if w <= _SPLIT_BITS:
            return Decimal(m)
        h = w >> 1
        hi = m >> h
        return convert(m - (hi << h), h) + convert(hi, w - h) * power(h)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True  # every operation must be exact
        text = str(convert(abs(n), n.bit_length()))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(text) > limit:
        raise ValueError(f"an int of {len(text)} digits exceeds the limit"
                         f" of {limit} (sys.set_int_max_str_digits)")
    return "-" + text if n < 0 else text


def fraction_str(x) -> str:
    if type(x) is int:
        return int_str(x)
    if not isinstance(x, Fraction):
        x = Fraction(x)
    num, den = x.numerator, x.denominator
    if den == 1:
        return int_str(num)
    return f"{int_str(num)}/{int_str(den)}"


def parse_fraction(text: str) -> Fraction:
    m = _FRACTION_RE.fullmatch(text.strip())
    if not m:
        raise InputError(f"malformed fraction: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise InputError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def golden_str(g: GoldenScalar) -> str:
    a, b = g.a, g.b
    if (type(a) is int and type(b) is int and a.bit_length() <= _STR_BITS
            and b.bit_length() <= _STR_BITS):  # str() is int_str there
        if not b:
            return str(a)
        return f"{a}+{b}*phi" if b > 0 else f"{a}-{-b}*phi"
    if b == 0:
        return fraction_str(a)
    sign = "+" if b > 0 else "-"
    return f"{fraction_str(a)}{sign}{fraction_str(abs(b))}*phi"


def parse_golden(text: str) -> GoldenScalar:
    text = text.strip().replace(" ", "")
    if "phi" not in text:
        return GoldenScalar(parse_fraction(text))
    m = _GOLDEN_RE.fullmatch(text)
    if not m or m.group("b") is None:
        raise InputError(f"malformed golden scalar: {text!r}")
    a = parse_fraction(m.group("a")) if m.group("a") else Fraction(0)
    b = parse_fraction(m.group("b"))
    if m.group("sign") == "-":
        b = -b
    return GoldenScalar(a, b)


def surd_str(s: QuadraticSurd) -> str:
    if s.q == 0:
        return fraction_str(Fraction(s.p, s.r))
    sign = "+" if s.q > 0 else "-"
    return (f"({int_str(s.p)}{sign}{int_str(abs(s.q))}*sqrt({int_str(s.d)}))"
            f"/{int_str(s.r)}")


def parse_surd(text: str) -> QuadraticSurd:
    text = text.strip().replace(" ", "")
    if "sqrt" not in text:
        x = parse_fraction(text)
        return QuadraticSurd.from_fraction(x)
    m = _SURD_RE.fullmatch(text)
    if not m or int(m.group("r")) == 0:
        raise InputError(f"malformed quadratic surd: {text!r}")
    q = int(m.group("q"))
    if m.group("sign") == "-":
        q = -q
    return QuadraticSurd(int(m.group("p")), q, int(m.group("r")), int(m.group("d")))


# bytes 0-9 to ASCII digits, every other byte to a non-digit
_DIGIT_BYTES = bytes(range(48, 58)) + b"\xff" * 246


def seq_str(seq) -> str:
    """The sequence of integers a_i as "a1,a2,...".  When every a_i is in
    0-9 the digits come from one byte translation, the commas in between."""
    try:
        digits = bytes(seq).translate(_DIGIT_BYTES)
    except ValueError:  # an a_i outside 0-255
        digits = b""
    if not digits.isdigit():  # also the empty sequence
        return ",".join(str(a) for a in seq)
    text = bytearray(b",") * (2 * len(digits) - 1)
    text[::2] = digits
    return text.decode()


def parse_seq(text: str) -> tuple[int, ...]:
    """The quotients of "a1,a2,..."; "" is the empty sequence, and an empty
    item anywhere else is malformed."""
    if not text.strip():
        return ()
    items = [p.strip() for p in text.split(",")]
    if not all(_QUOTIENT_RE.fullmatch(p) for p in items):
        raise InputError(f"malformed quotient sequence: {text!r}")
    seq = tuple(int(p) for p in items)
    if any(a < 1 for a in seq):
        raise InputError(f"partial quotients must be >= 1: {text!r}")
    return seq


def exact_str(value) -> str:
    """Canonical textual encoding of any exact value this package produces."""
    if isinstance(value, GoldenScalar):
        return golden_str(value)
    if isinstance(value, QuadraticSurd):
        return surd_str(value)
    return fraction_str(value)


def _magnitude(p: int, q: int, r: int, d: int) -> int:
    """e with 2^e < |x| < 2^(e+5) for the irrational x = (p + q sqrt(d))/r,
    r > 0, from bit lengths, with 2^h <= sqrt(d) < 2^(h+1).

    |p| + |q| sqrt(d) lies in [2^(m-1), 2^(m+2)), m = max(bits p, bits q + h).
    That is |p + q sqrt(d)| unless p and q have opposite signs; then it is
    the conjugate's |p - q sqrt(d)|, and |x| is the exact norm
    |p^2 - q^2 d| over it, over r.
    """
    m = max(p.bit_length(), q.bit_length() + ((d.bit_length() - 1) >> 1))
    if (p < 0) == (q < 0) or not p:
        return m - 1 - r.bit_length()
    return (p * p - q * q * d).bit_length() - 3 - m - r.bit_length()


def _rounded_str(num: int, den: int) -> str:
    """num/den, den > 0, rounded half-even to _DIGITS significant digits and
    written as str(Decimal) writes them: plain when the exponent is at most
    0 and the adjusted exponent at least -6, otherwise d.ddd...E+-n.

    t from the bit lengths makes num 10^t / den >= 10^(_DIGITS-1), and one
    divmod gives its floor.  The estimate overshoots by at most one digit
    (for exponents below 10^9 bits); a digit past the 30th is folded into
    the remainder, and the remainder rounds the last digit.
    """
    if not num:
        return "0." + "0" * (_DIGITS - 1)
    sign = "-" if num < 0 else ""
    num = abs(num)
    # num/den > 2^e, and 1292913986/2^32 < log10(2) < 1292913987/2^32
    e = num.bit_length() - den.bit_length() - 1
    t = _DIGITS - 1 - (e * (1292913986 if e >= 0 else 1292913987) >> 32)
    if t >= 0:
        div = den
        digits, rem = divmod(num * 10 ** t, den)
    else:
        div = den * 10 ** -t
        digits, rem = divmod(num, div)
    while digits >= _TOP:
        digits, low = divmod(digits, 10)
        rem, div, t = low * div + rem, 10 * div, t - 1
    if 2 * rem > div or (2 * rem == div and digits & 1):
        digits += 1
        if digits == _TOP:  # 9.99..95 rounds up to 10.0..0
            digits, t = digits // 10, t - 1
    text = str(digits)
    point = _DIGITS - t  # digits before the decimal point
    if t >= 0 and point > -6:  # exponent <= 0, adjusted exponent >= -6
        if point > 0:
            return f"{sign}{text[:point]}.{text[point:]}" if t else sign + text
        return f"{sign}0.{'0' * -point}{text}"
    return f"{sign}{text[0]}.{text[1:]}E{point - 1:+d}"


def _midpoint(lo: Fraction, hi: Fraction) -> tuple[int, int]:
    """(lo + hi)/2 as an unreduced numerator and a positive denominator."""
    return (lo.numerator * hi.denominator + hi.numerator * lo.denominator,
            2 * lo.denominator * hi.denominator)


def decimal_str(value) -> str:
    """The value correctly rounded (half-even) to 30 significant digits.

    A golden or surd value x = (p + q sqrt(d))/r is rounded from a rational
    num/den within 2^-151 |x| of x, so the digits are those of x unless x
    lies that close to a rounding tie.  Its parts are read once, from
    _enclosure_parts, and num/den from the integer ends of _enclosure_ends:
    no Fraction is built.  Up to _BIG_BITS coefficient bits it is the
    midpoint of bounds(200), and |x| <= 2^-50 takes bounds() again, at bits
    sized from _magnitude.  Past them x is enclosed once, at those bits, or
    its conjugate when p and q have opposite signs, so that neither the bits
    nor the square root grow with the cancellation.  A rational x (q = 0) is
    p/r.  Every route ends in _rounded_str, which rounds in integers.
    """
    if isinstance(value, (GoldenScalar, QuadraticSurd)):
        p, q, r, d, size = value._enclosure_parts()
        if not q:
            num, den = p, r
        elif (abs(p) | abs(q) | r | d).bit_length() > _BIG_BITS:  # the most bits
            # if x cancels, its conjugate c = (p - q sqrt(d))/r does not, and
            # x = (p^2 - q^2 d)/(r^2 c) takes the relative error of c
            u = -q if p and (p < 0) != (q < 0) else q
            bits = max(0, _GUARD - _magnitude(p, u, r, d))
            lo, hi, den = _enclosure_ends(p, u, r, d, size, bits)
            num, den = lo + hi, den << 1
            if u != q:  # num has the sign of c, which is that of p
                num, den = (p * p - q * q * d) * (den if p > 0 else -den), r * r * abs(num)
        else:
            lo, hi, den = _enclosure_ends(p, q, r, d, size, _BITS)
            num, den = lo + hi, den << 1
            # |num/den| > 2^-50 leaves |x| > 2^-51, as the width is below 2^-201
            if abs(num) << (_BITS - _GUARD) <= den:
                # this route keeps value.bounds: its near-zero rows are the
                # only farey-table call of golden.bounds, and the traced
                # benchmark run expects that span
                num, den = _midpoint(*value.bounds(_GUARD - _magnitude(p, q, r, d)))
    else:
        x = value if isinstance(value, Fraction) else Fraction(value)
        num, den = x.numerator, x.denominator
    return _rounded_str(num, den)
