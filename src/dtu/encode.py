"""Textual encodings shared by the CLI and reports.

Formats: Fraction "p/q" (plain "p" when integral), GoldenScalar "a+b*phi"
with rational a, b, QuadraticSurd "(p+q*sqrt(d))/r", quotient sequences
"a1,a2,...".  Every emitted value re-parses to an equal value.  decimal_str
renders a number correctly rounded to 30 significant digits.  The parsers
accept these forms only, with ASCII digits and a sign only as a leading "-"
or between terms, so "+3", "1_0" and non-ASCII digits raise InputError.
"""

from __future__ import annotations

import re
import sys
from decimal import (MAX_EMAX, MAX_PREC, ROUND_HALF_EVEN, Context, Decimal,
                     Inexact, localcontext)
from fractions import Fraction
from math import isqrt

from .errors import InputError
from .golden import GoldenScalar, _enclosure_ends
from .surd import QuadraticSurd

_DIGITS = 30  # significant digits of decimal_str
_BITS = 200  # precision of its first enclosure
_GUARD = 150  # bits of |x| that its enclosures resolve
# its arithmetic: one context for every call, as entering a localcontext
# took about 1.8 us a call (CPython 3.11, 2-core VM); the calls only set
# its flags, which nothing reads, so sharing it changes no result
_CONTEXT = Context(prec=_DIGITS, rounding=ROUND_HALF_EVEN)
_BIG_BITS = 4096  # coefficient bits beyond which it works in integers
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
    if g.b == 0:
        return fraction_str(g.a)
    sign = "+" if g.b > 0 else "-"
    mag = fraction_str(abs(g.b))
    return f"{fraction_str(g.a)}{sign}{mag}*phi"


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


def _exponent(x: Fraction) -> int:
    """e with 2^(e-1) < |x| < 2^(e+1), for x != 0."""
    return x.numerator.bit_length() - x.denominator.bit_length()


def _abs_floor(x) -> Fraction:
    """A lower bound on |x| for irrational x = (p + q sqrt(d))/r: its norm
    (p^2 - q^2 d)/r^2 over |x'| < (|p| + |q| (isqrt(d) + 1))/r."""
    p, q, r, d, _ = x._enclosure_parts()
    return Fraction(abs(p * p - q * q * d), r * (abs(p) + abs(q) * (isqrt(d) + 1)))


def _big_decimal_str(p: int, q: int, r: int, d: int) -> str:
    """decimal_str of the irrational (p + q sqrt(d))/r, in integers.

    The midpoint of the enclosure p 2^k + q sqrt(d) 2^k in [s, s+1] (s an
    isqrt) over r 2^k is within 2^-151 |x|: k is sized from the exact lower
    bound |p^2 - q^2 d| / (r (|p| + |q| (isqrt(d) + 1))) on |x|.  Its 30
    digits come from one division whose quotient has 30 digits, so no
    Fraction of the operands' size is ever normalised.
    """
    conj = r * (abs(p) + abs(q) * (isqrt(d) + 1))
    e = abs(p * p - q * q * d).bit_length() - 1 - conj.bit_length()  # |x| > 2^e
    k = max(0, _GUARD + 1 - e - r.bit_length())
    s = isqrt(q * q * d << 2 * k)
    num = (p << k + 1) + (2 * s + 1 if q > 0 else -2 * s - 1)
    den = r << k + 1
    sign, num = int(num < 0), abs(num)
    # 10^(D-1) <= num 10^t / den < 10^D, from log10(2) ~ 0.30103 and a fix-up
    t = _DIGITS - 1 - (num.bit_length() - den.bit_length()) * 30103 // 100000
    while True:
        scaled, div = (num * 10 ** t, den) if t >= 0 else (num, den * 10 ** -t)
        digits, rem = divmod(scaled, div)
        if digits >= 10 ** _DIGITS:
            t -= 1
        elif digits < 10 ** (_DIGITS - 1):
            t += 1
        else:
            break
    if 2 * rem > div or (2 * rem == div and digits & 1):  # half-even
        digits += 1
        if digits == 10 ** _DIGITS:  # 9.99..95 rounds up to 10.0..0
            digits, t = digits // 10, t - 1
    return str(Decimal((sign, tuple(map(int, str(digits))), -t)))


def _midpoint(lo: Fraction, hi: Fraction) -> tuple[int, int]:
    """(lo + hi)/2 as an unreduced numerator and a positive denominator."""
    return (lo.numerator * hi.denominator + hi.numerator * lo.denominator,
            2 * lo.denominator * hi.denominator)


def decimal_str(value) -> str:
    """The value correctly rounded (half-even) to 30 significant digits.

    A golden or surd value x = (p + q sqrt(d))/r is rounded from the
    midpoint of an enclosure narrower than 2^-150 |x|, so the digits are
    those of x unless x lies that close to a rounding tie.  Its parts are
    read once, from _enclosure_parts.  The midpoint is (lo + hi)/(2 den) of
    the integer ends of _enclosure_ends at 200 bits, the exact rational
    midpoint of bounds(200), divided as two ints: no Fraction is built.
    For |x| at most 2^-50 the enclosure is bounds(), sized from an exact
    lower bound on |x|.  An irrational x whose p, q, r or d passes
    _BIG_BITS bits is rounded by `_big_decimal_str`, whose work grows with
    those bits but never normalises a Fraction of them; a rational one
    (q = 0) is p/r.
    """
    if isinstance(value, (GoldenScalar, QuadraticSurd)):
        p, q, r, d, size = value._enclosure_parts()
        if not q:
            num, den = p, r
        elif max(p.bit_length(), q.bit_length(), r.bit_length(),
                 d.bit_length()) > _BIG_BITS:
            return _big_decimal_str(p, q, r, d)
        else:
            lo, hi, den = _enclosure_ends(p, q, r, d, size, _BITS)
            num, den = lo + hi, den << 1
            # |num/den| > 2^-50 leaves |x| > 2^-51, as the width is below 2^-201
            if abs(num) << (_BITS - _GUARD) <= den:
                # this route keeps value.bounds: its near-zero rows are the
                # only farey-table call of golden.bounds, and the traced
                # benchmark run expects that span
                num, den = _midpoint(*value.bounds(_GUARD - _exponent(_abs_floor(value))))
    else:
        x = value if isinstance(value, Fraction) else Fraction(value)
        num, den = x.numerator, x.denominator
    dec = _CONTEXT.divide(num, den)  # the ints convert exactly
    if dec == 0:
        return "0." + "0" * (_DIGITS - 1)
    # the exponent of the rounded quotient: 0.99..96 rounds up to 1.00..0
    quantum = Decimal(1).scaleb(dec.adjusted() - _DIGITS + 1, _CONTEXT)
    return str(dec.quantize(quantum, context=_CONTEXT))
