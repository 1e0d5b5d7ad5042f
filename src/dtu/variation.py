"""Sum-preserving continuant transformations and their exact certificates.

Three transformations keep the length and the weighted quotient sum fixed:
segment reflection, the unit variation (+x at one position, -x at another of
equal parity), and the (1,2)-variation (one weight-2 position against one or
two weight-1 positions).  Each comes with an exact integer/rational
certificate deciding whether the continuant can only grow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import cf
from .cf import Orientation, Quotients


# -- reflections ------------------------------------------------------------


@dataclass(frozen=True)
class Reflection:
    """Reverse the segment at 1-based positions i..j inclusive; i, j of equal parity."""

    i: int
    j: int

    def __post_init__(self):
        if self.i < 1 or self.j < self.i:
            raise ValueError("need 1 <= i <= j")
        if (self.i - self.j) % 2 != 0:
            raise ValueError("reflection endpoints must share parity")


def kan_delta(P: Sequence[int], Q: Sequence[int], R: Sequence[int]) -> tuple[int, int]:
    """<P,Q,R> - <P,Q reversed,R>, with an internal cross-check.

    The difference is computed directly and via the product identity
    ([reverse P] - [R]) * ([Q] - [reverse Q]) * <P><Q><R>, where the
    continued-fraction value of an empty sequence is 0; both routes must
    agree exactly.  Returns (difference, sign).
    """
    P = cf.check_quotients(P)
    Q = cf.check_quotients(Q, allow_empty=False)
    R = cf.check_quotients(R)
    direct = cf.continuant(P + Q + R) - cf.continuant(P + cf.reverse(Q) + R)
    formula = ((cf.cf_value(cf.reverse(P)) - cf.cf_value(R))
               * (cf.cf_value(Q) - cf.cf_value(cf.reverse(Q)))
               * cf.continuant(P) * cf.continuant(Q) * cf.continuant(R))
    if formula != direct:
        raise AssertionError(
            f"continuant comparison identity violated: {direct} vs {formula}")
    return direct, (direct > 0) - (direct < 0)


def reflect(seq: Sequence[int], r: Reflection) -> Quotients:
    """Apply a segment reflection; preserves the weighted sum of either orientation."""
    seq = cf.check_quotients(seq)
    if r.j > len(seq):
        raise ValueError("reflection segment out of range")
    i, j = r.i - 1, r.j
    return seq[:i] + tuple(reversed(seq[i:j])) + seq[j:]


# -- unit variations ---------------------------------------------------------


@dataclass(frozen=True)
class UnitVariation:
    """Replace (a_i, a_j) by (a_i - x, a_j + x); i < j of equal parity."""

    i: int
    j: int
    x: int

    def __post_init__(self):
        if self.i < 1 or self.j <= self.i:
            raise ValueError("need 1 <= i < j")
        if (self.i - self.j) % 2 != 0:
            raise ValueError("unit variation indices must share parity")


def vertex(P: Sequence[int], Q: Sequence[int], R: Sequence[int]) -> Fraction:
    """Vertex abscissa of the parabola f(x) = <P, a+x, Q, a-x, R>.

    x_m = ([reverse Q] - [Q] + [R] - [reverse P]) / 2, with empty sequences
    contributing 0; independently of a, f has constant second difference
    -2 <P><Q><R> and |x_m| < 1.
    """
    P = cf.check_quotients(P)
    Q = cf.check_quotients(Q)
    R = cf.check_quotients(R)
    return (cf.cf_value(cf.reverse(Q)) - cf.cf_value(Q)
            + cf.cf_value(R) - cf.cf_value(cf.reverse(P))) / 2


def apply_unit_variation(seq: Sequence[int], v: UnitVariation) -> Quotients:
    """Apply the variation; both resulting quotients must stay >= 1."""
    seq = cf.check_quotients(seq)
    if v.j > len(seq):
        raise ValueError("variation indices out of range")
    ai, aj = seq[v.i - 1] - v.x, seq[v.j - 1] + v.x
    if ai < 1 or aj < 1:
        raise ValueError("unit variation would produce a quotient below 1")
    out = list(seq)
    out[v.i - 1], out[v.j - 1] = ai, aj
    return tuple(out)


def is_increasing_unit(seq: Sequence[int], v: UnitVariation) -> bool:
    """Whether the parabola-vertex criterion certifies a non-decreasing continuant.

    Writing the affected pair as (a + t, a - t), the continuant is a downward
    parabola in t with vertex x_m; the move is non-decreasing exactly when it
    does not move t away from x_m.
    """
    seq = cf.check_quotients(seq)
    if v.j > len(seq):
        raise ValueError("variation indices out of range")
    ai, aj = seq[v.i - 1], seq[v.j - 1]
    if ai - v.x < 1 or aj + v.x < 1:
        raise ValueError("unit variation would produce a quotient below 1")
    P = seq[:v.i - 1]
    Q = seq[v.i:v.j - 1]
    R = seq[v.j:]
    x_m = vertex(P, Q, R)
    t_old = Fraction(ai - aj, 2)
    t_new = t_old - v.x
    return abs(t_new - x_m) <= abs(t_old - x_m)


# -- (1,2)-variations ---------------------------------------------------------


class OneTwoKind(enum.Enum):
    """TwoForOne: one heavy -x and one light +2x.  OneOneForOne: one heavy -x
    and two lights +x each."""

    TWO_FOR_ONE = "two-for-one"
    ONE_ONE_FOR_ONE = "one-one-for-one"


@dataclass(frozen=True)
class OneTwoVariation:
    """A weighted-sum-preserving variation pairing one weight-2 position
    against one (x2) or two (x1 each) weight-1 positions."""

    kind: OneTwoKind
    heavy_index: int
    light_indices: tuple[int, ...]
    x: int

    def __post_init__(self):
        expected = 1 if self.kind is OneTwoKind.TWO_FOR_ONE else 2
        if len(self.light_indices) != expected:
            raise ValueError(
                f"{self.kind.value} needs exactly {expected} light position(s)")
        if len(set(self.light_indices)) != len(self.light_indices):
            raise ValueError("light positions must be distinct")
        if self.heavy_index in self.light_indices:
            raise ValueError("heavy and light positions must be distinct")


def apply_12_variation(seq: Sequence[int], v: OneTwoVariation,
                       o: Orientation = Orientation.PHI) -> Quotients:
    """Apply a (1,2)-variation; validates weights, positivity and sum preservation."""
    seq = cf.check_quotients(seq)
    n = len(seq)
    if v.heavy_index < 1 or v.heavy_index > n or any(
            i < 1 or i > n for i in v.light_indices):
        raise ValueError("variation indices out of range")
    if o.weight(v.heavy_index) != 2:
        raise ValueError(f"position {v.heavy_index} is not weight-2 for {o}")
    for i in v.light_indices:
        if o.weight(i) != 1:
            raise ValueError(f"position {i} is not weight-1 for {o}")
    out = list(seq)
    out[v.heavy_index - 1] -= v.x
    bump = 2 * v.x if v.kind is OneTwoKind.TWO_FOR_ONE else v.x
    for i in v.light_indices:
        out[i - 1] += bump
    if any(a < 1 for a in out):
        raise ValueError("(1,2)-variation would produce a quotient below 1")
    result = tuple(out)
    if cf.weighted_sum(result, o) != cf.weighted_sum(seq, o):
        raise AssertionError("(1,2)-variation failed to preserve the weighted sum")
    return result


# -- value windows and step-ratio certificates --------------------------------


@dataclass(frozen=True)
class ValuePair:
    """The sets of values occurring at weight-1 and weight-2 positions."""

    light_set: frozenset[int]
    heavy_set: frozenset[int]


def value_sets(seq: Sequence[int], o: Orientation) -> ValuePair:
    seq = cf.check_quotients(seq, allow_empty=False)
    light = frozenset(a for i, a in enumerate(seq, start=1) if o.weight(i) == 1)
    heavy = frozenset(a for i, a in enumerate(seq, start=1) if o.weight(i) == 2)
    return ValuePair(light, heavy)


def step_ratio_bounds(stepped: int, neighbor: int) -> tuple[Fraction, Fraction]:
    """Exact bounds (c_l, c_r) for <P, v+1, R> / <P, v, R>.

    v is the stepped value, and the positions adjacent to it hold values
    from the window {w, w+1}: the ratio equals 1 + 1/(v + [reverse P] + [R])
    and the two neighbor continued fractions lie between [w+1, v] and
    [w, v+1, w].
    """
    if stepped < 1 or neighbor < 1:
        raise ValueError("window bases must be >= 1")
    c1 = cf.value_of((neighbor, stepped + 1, neighbor))
    c2 = cf.value_of((neighbor + 1, stepped))
    c_l = 1 + Fraction(1, 1) / (stepped + 2 * c1)
    c_r = 1 + Fraction(1, 1) / (stepped + 2 * c2)
    return c_l, c_r


class VariationDirection(enum.Enum):
    """The two certified one-against-two step patterns on a word with value
    sets inside ({a, a+1}, {b, b+1}).

    RAISE_LIGHT: one a-window value steps a -> a+1 while two b-window values
    step b+1 -> b.  RAISE_HEAVY: one a-window value steps a+1 -> a while two
    b-window values step b -> b+1.
    """

    RAISE_LIGHT = "raise-light"
    RAISE_HEAVY = "raise-heavy"


def is_abs_increasing_12(a: int, b: int, direction: VariationDirection) -> bool:
    """Certified decision table for absolutely increasing (1,2)-variations.

    RAISE_LIGHT is certified for b >= 2a+1 (any a >= 1); RAISE_HEAVY for
    b <= 2a with a >= 2.  Outside these regimes the answer is False
    (unknown), not a claim of decrease.
    """
    if a < 1 or b < 1:
        raise ValueError("window bases must be >= 1")
    if direction is VariationDirection.RAISE_LIGHT:
        return b >= 2 * a + 1
    return a >= 2 and b <= 2 * a


def certificate_inequality(a: int, b: int, direction: VariationDirection) -> bool:
    """The raw step-ratio inequality behind is_abs_increasing_12.

    RAISE_LIGHT holds when c_l(a-step) > c_r(b-step)^2; RAISE_HEAVY when
    c_l(b-step)^2 > c_r(a-step).  Exact rational arithmetic throughout.
    """
    a_l, a_r = step_ratio_bounds(a, b)
    b_l, b_r = step_ratio_bounds(b, a)
    if direction is VariationDirection.RAISE_LIGHT:
        return a_l > b_r * b_r
    return b_l * b_l > a_r
