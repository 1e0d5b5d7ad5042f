"""Minimization and maximization of continuants at fixed length and weighted sum.

M(n, S) is the set of quotient sequences of even length n whose weighted sum
(per the chosen orientation) equals S.  The module provides exact extrema by
a Pareto-frontier DP, a direct near-minimal construction, window-narrowing
normalization by unit variations, reduction to three-value words by certified
(1,2)-variations, and the balanced-block construction of near-maximal words.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Optional, Sequence

from . import cf
from .cf import Orientation, Quotients, _assemble, _mechanical_word
from .errors import CapExceededError, InfeasibleError, InputError
from .variation import VariationDirection, is_abs_increasing_12

DEFAULT_BRUTE_CAP = 10_000_000
DEFAULT_SUM_CAP = 1_000_000
# The longest word that `dtu extremal --mode min|max` takes on: balanced_max
# with an odd remainder scores up to m - 1 placements of m rotations, each by
# two products of ints of O(m) digits, and at n = 512 takes up to about 0.8 s
# (per-pair sums near the sum cap's 3,906, 255 placements), at n = 1,024
# about 9 s.
EXTREMAL_LENGTH_MAX = 2 ** 9


@dataclass(frozen=True)
class ExtremalInstance:
    """Length n (even), target weighted sum S, and orientation.

    Construction rejects an odd or nonpositive length (InputError), a target
    sum over DEFAULT_SUM_CAP (CapExceededError) and one below the all-ones
    floor 3n/2 (InfeasibleError), so every instance names a nonempty M(n, S).
    """

    n: int
    s: int
    orientation: Orientation = Orientation.PHI

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise InputError("length must be a positive even integer")
        if self.s > DEFAULT_SUM_CAP:
            raise CapExceededError(f"target sum exceeds cap {DEFAULT_SUM_CAP}")
        if self.s < 3 * self.n // 2:
            raise InfeasibleError(f"S={self.s} below the all-ones floor"
                                  f" {3 * self.n // 2} for n={self.n}")

    @property
    def pairs(self) -> int:
        return self.n // 2

    @property
    def per_pair(self) -> Fraction:
        return Fraction(2 * self.s, self.n)


def count_words(inst: ExtremalInstance) -> int:
    """Number of words in M(n, S), by a closed binomial sum.

    A pair of weighted cost c >= 3 has (c-1)//2 realizations in either
    orientation, so one pair counts as z^3 / ((1-z)(1-z^2)), and |M(n, S)| is
    the coefficient of z^N in (1-z)^-m (1-z^2)^-m for m pairs, where
    N = S - 3m is the surplus over the all-ones floor: the sum over
    k = 0..N//2 of C(m-1+k, m-1) C(m-1+r, m-1) with r = N - 2k.  Each
    binomial is updated from the previous term by its ratio, and every
    division is exact.  With one pair every term is 1, so the count is
    (S-1)//2.
    """
    m = inst.pairs
    if m == 1:
        return (inst.s - 1) // 2
    r = inst.s - 3 * m
    a, b = 1, comb(m - 1 + r, m - 1)
    total = b
    for k in range(r // 2):
        a = a * (m + k) // (k + 1)
        b = b * r * (r - 1) // ((m - 1 + r) * (m - 2 + r))
        r -= 2
        total += a * b
    return total


@dataclass(frozen=True)
class Extrema:
    min_seq: Quotients
    min_value: int
    max_seq: Quotients
    max_value: int
    count: int


def _contenders(cost: int, phi: bool, sign: int) -> list:
    """The pairs of weighted cost `cost` that can still give the smallest
    (sign = 1) or largest (sign = -1) continuant, in position order: at most
    two of them.

    A state (r0, r1) becomes (r0', r1') under the pair, and a completion R
    then gives K(R) (r0' + r1' t), where t = K(R minus its first quotient) /
    K(R) lies in [0, 1) (t = 0 when R is empty).  Every state has
    rho = r1/r0 in [0, 1): the root is (1, 0), and r0' - r1' >= r0 after
    each pair.  On one cost line c = cost, r0' + r1' t is a strictly concave
    quadratic in p1: leading coefficient -r0/2 and vertex c/2 - rho/2 + t
    for PHI (p1 + 2 p2 = c), -2 r0 and (c - 2 rho + t)/4 for TAU
    (2 p1 + p2 = c).  So the minimum lies at an end of the p1 lattice, and
    the maximum at the lattice points nearest the vertex, whatever rho and t
    are: c - 2 <= 2 p1 <= c + 3 for PHI, c - 3 <= 4 p1 <= c + 2 for TAU.
    Every other pair is strictly worse than one of these for every
    completion, so it is never optimal and never tied.
    """
    if phi:  # p1 = cost (mod 2)
        w1, w2, lo, hi, step = 1, 2, 2 - cost % 2, cost - 2, 2
        near, far = -(-(cost - 2) // 2), (cost + 3) // 2
    else:
        w1, w2, lo, hi, step = 2, 1, 1, (cost - 1) // 2, 1
        near, far = -(-(cost - 3) // 4), (cost + 2) // 4
    if sign > 0:
        p1s = (lo, hi) if lo < hi else (lo,)
    else:
        p1s = range(max(lo, near + (lo - near) % step), min(hi, far) + 1, step)
        if not p1s:
            raise AssertionError(f"no pair of cost {cost} near the vertex")
    return [(p1, (cost - w1 * p1) // w2) for p1 in p1s]


def _pareto(states: list) -> list:
    """The states that can still win, best first, each as
    (r0, r1, prefix + (p1, p2)).

    A frontier state still has at least one pair to place, so a completion
    weighs it by r0 + r1 t with t in (0, 1) strictly.  After an ascending
    sort every earlier state has an r0 no larger, so a candidate
    (r0, r1, prefix, p1, p2) survives only if r0 + r1 is smaller than that of
    every state kept before it; a dropped line lies strictly above a kept one
    on all of (0, 1), or equals it with a lexicographically smaller prefix.
    Every prefix at one level has the same length, so the sort orders
    (prefix, p1, p2) as it would the extended prefix, and only the survivors'
    prefixes are built."""
    states.sort()
    r0, r1, prefix, p1, p2 = states[0]
    keep = [(r0, r1, prefix + (p1, p2))]
    low = r0 + r1
    for r0, r1, prefix, p1, p2 in states:
        if r0 + r1 < low:
            low = r0 + r1
            keep.append((r0, r1, prefix + (p1, p2)))
    return keep


def _extreme(m: int, s: int, phi: bool, sign: int) -> tuple[int, Quotients]:
    """Smallest (sign = 1) or largest (sign = -1) continuant over M(2m, S)
    with its lexicographically smallest word, by a Pareto-frontier DP.

    A pair (p1, p2) maps the prefix row vector (r0, r1) to
    (r0(p1p2+1) + r1p2, r0p1 + r1), starting from (1, 0); the finished word's
    continuant is r0.  Two exact rules prune it, each dropping only
    candidates that are strictly worse for every completion (or tie with a
    lexicographically smaller word): each state meets at most two pairs per
    cost, by concavity along the cost line (`_contenders`), and a state
    survives only if its line r0 + r1 t is not above another's on
    t in (0, 1) (`_pareto`).  States hold sign*(r0, r1) and the prefix, so
    one ascending sort and one sweep leave that frontier.
    """
    # the pairs each cost offers, up to the largest budget a pair can have;
    # with m = 1 the one pair spends S, which may run to the sum cap
    offer = ({c: _contenders(c, phi, sign) for c in range(3, s - 3 * m + 4)}
             if m > 1 else {s: _contenders(s, phi, sign)})
    frontier = {s: [(sign, 0, ())]}  # remaining budget -> states
    for left in range(m - 1, 0, -1):  # pairs still to place after this one
        # each remaining budget's candidates are built and pruned in turn,
        # so only one budget's candidates are alive at once
        frontier = {rest: _pareto([(r0 * (p1 * p2 + 1) + r1 * p2, r0 * p1 + r1,
                                    prefix, p1, p2)
                                   for budget, states in frontier.items()
                                   if budget - rest >= 3
                                   for p1, p2 in offer[budget - rest]
                                   for r0, r1, prefix in states])
                    for rest in range(3 * left, max(frontier) - 2)}
    # the last pair spends the remaining budget exactly
    value, prefix, p1, p2 = min((r0 * (p1 * p2 + 1) + r1 * p2, prefix, p1, p2)
                                for budget, states in frontier.items()
                                for p1, p2 in offer[budget]
                                for r0, r1, prefix in states)
    return sign * value, prefix + (p1, p2)


def brute_extrema(inst: ExtremalInstance, cap: int = DEFAULT_BRUTE_CAP) -> Extrema:
    """Exact minimum and maximum continuant over M(n, S).

    Ties break to the lexicographically smallest sequence.  Raises
    CapExceededError when |M(n, S)| exceeds `cap`; the count is a closed
    sum, established before any search.  The search is a plain-integer
    Pareto-frontier DP over prefix row vectors that builds at most 2
    candidates per state and cost: the continuant is strictly concave in p1
    along a cost line, so only the ends of the p1 lattice (minimum) or the
    lattice points nearest its vertex (maximum) can win.  A state survives
    only if no other state at its level and budget is at most as large on
    every line r0 + r1 t, t in (0, 1).  Both rules drop only candidates that
    are strictly worse for every completion, so the result is exact.
    """
    total = count_words(inst)
    if total > cap:
        raise CapExceededError(f"{total} words exceed the cap of {cap}")
    phi = inst.orientation is Orientation.PHI
    min_value, min_seq = _extreme(inst.pairs, inst.s, phi, 1)
    max_value, max_seq = _extreme(inst.pairs, inst.s, phi, -1)
    return Extrema(min_seq, min_value, max_seq, max_value, total)


def _checked(word: Quotients, inst: ExtremalInstance) -> Quotients:
    """A constructed word, once it is checked to lie in M(n, S): a word
    that does not is a fault of the construction, not of the input."""
    if min(word) < 1 or cf._weighted_sum(word, inst.orientation) != inst.s:
        raise AssertionError(f"constructed word is not in M({inst.n}, {inst.s})")
    return word


# -- direct near-minimum -------------------------------------------------------


def min_construct(inst: ExtremalInstance) -> Quotients:
    """All-ones word with one large quotient at a weight-2 position.

    The surplus S - 3n/2 is packed into a single heavy quotient s (each unit
    of s above 1 costs 2); an odd surplus additionally turns one light
    position into 2.  Among the fixed candidate placements the exact smallest
    continuant is returned (lexicographic tie-break).
    """
    n, o = inst.n, inst.orientation
    delta = inst.s - 3 * n // 2
    heavy = cf.heavy_positions(n, o)
    light = cf.light_positions(n, o)

    def build(s_pos: int, bump_pos: Optional[int]) -> Quotients:
        word = [1] * n
        if bump_pos is not None:
            word[bump_pos - 1] = 2
        word[s_pos - 1] += (delta - (1 if bump_pos is not None else 0)) // 2
        return tuple(word)

    if delta % 2 == 0:
        candidates = [build(heavy[0], None)]
    else:
        candidates = [build(heavy[0], light[0]), build(heavy[0], light[-1])]
    return _checked(min(candidates, key=lambda w: (cf._continuant(w), w)), inst)


# -- window narrowing by unit variations ----------------------------------------


def normalize_m4(seq: Sequence[int], o: Orientation) -> Quotients:
    """Narrow both weight classes to windows {a, a+1} by unit variations.

    Steepest ascent: each step takes, among all equalizing moves of a
    same-class pair differing by >= 2 (dd moves from the larger quotient
    to the smaller, dd the half difference, both roundings when it is odd),
    the one with the largest resulting continuant, even if that is smaller
    than the current one; ties go to the lexicographically smallest word.
    It repeats until both classes have spread <= 1, and terminates because
    every step strictly lowers the within-class sum of squares.

    A move is scored in O(1).  Each step builds L_x = K(a_1..a_{x-1}),
    L'_x = K(a_2..a_{x-1}) and R_x = K(a_{x+1}..a_n) once.  The continuant
    K is affine in each quotient, with slope C_x = L_x R_x at position x,
    so taking dd from position i and giving it to j makes
    K + dd (C_j - C_i) - dd^2 X, where X = L_i K(a_{i+1}..a_{j-1}) R_j for
    i < j (and X is symmetric in i and j): the unit-variation parabola, of
    second difference -2 <P><Q><R> (`variation.vertex`).  The prefix
    matrices [[L_{x+1}, L_x], [L'_{x+1}, L'_x]] have determinant (-1)^x, so
    K(a_{i+1}..a_{j-1}) = (-1)^i (L'_i L_j - L_i L'_j).  Only the moves
    tied at the top build words.

    Each class is scanned by descending value, the larger quotient i
    against the smaller ones j from the smallest up, until the gap
    a_i - a_j falls below 2.  A pair is passed over before its X is formed
    when ceil(gap/2) (C_j - C_i) is at most the best gain found so far.
    This is exact: X >= 1, so each of the pair's gains lies strictly below
    dd (C_j - C_i), which is largest at dd = ceil(gap/2), and the pair can
    neither win nor tie.  That dd gives the largest product because
    C_j > C_i: expanding K at x gives
    K = a_x C_x + K(a_1..a_{x-2}) R_x + L_x K(a_{x+2}..a_n), whose last two
    terms lie in (0, 2 C_x] for n >= 2, so
    C_i < K / a_i <= K / (a_j + 2) <= C_j.
    """
    word = list(cf.check_quotients(seq, allow_empty=False))
    n = len(word)
    classes = (cf.light_positions(n, o), cf.heavy_positions(n, o))
    while True:
        # L, L2 (for L') and R at 1-based index x; index 0 is unused
        L, L2, R = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
        p, q, p0, q0 = 1, 0, 0, 1  # L_1, L'_1, and the entries before them
        for x, a in enumerate(word, 1):
            L[x], L2[x] = p, q
            p, p0 = a * p + p0, p
            q, q0 = a * q + q0, q
        s, s0 = 1, 0  # R_n, and the entry after it
        for x in range(n, 0, -1):
            R[x] = s
            s, s0 = word[x - 1] * s + s0, s
        C = [a * b for a, b in zip(L, R)]
        best, tied = None, []
        for positions in classes:
            order = sorted(positions, key=lambda x: -word[x - 1])
            for k, i in enumerate(order):
                hi = word[i - 1]
                for j in order[:k:-1]:  # ascending values
                    gap = hi - word[j - 1]
                    if gap < 2:
                        break
                    slope = C[j] - C[i]
                    d = gap // 2
                    if best is not None and (gap - d) * slope <= best:
                        continue
                    l, r = (i, j) if i < j else (j, i)
                    cross = L[l] * R[r] * (L2[l] * L[r] - L[l] * L2[r])
                    if l % 2:
                        cross = -cross
                    for dd in ((d,) if gap % 2 == 0 else (d, d + 1)):
                        gain = dd * (slope - dd * cross)
                        if best is None or gain > best:
                            best, tied = gain, [(i, j, dd)]
                        elif gain == best:
                            tied.append((i, j, dd))
        if best is None:
            return tuple(word)

        def moved(i, j, dd):
            out = list(word)
            out[i - 1] -= dd
            out[j - 1] += dd
            return out

        word = min(moved(*move) for move in tied)


# -- three-value shapes ---------------------------------------------------------


class M3Case(enum.Enum):
    LOW = "low"
    MID = "mid"
    HIGH = "high"


# per case: the light values' offsets from 2a and the heavy values' from a
_M3_OFFSETS = {M3Case.LOW: ((-1, 0), (0,)),
               M3Case.MID: ((0, 1), (0,)),
               M3Case.HIGH: ((1,), (0, 1))}


@dataclass(frozen=True)
class M3Shape:
    """Value windows of a three-value word class with per-pair sums around 4a."""

    a: int
    case: M3Case

    def __post_init__(self):
        if self.a < 2:
            raise ValueError("shape parameter a must be >= 2")

    @property
    def light_values(self) -> tuple[int, ...]:
        return tuple(2 * self.a + d for d in _M3_OFFSETS[self.case][0])

    @property
    def heavy_values(self) -> tuple[int, ...]:
        return tuple(self.a + d for d in _M3_OFFSETS[self.case][1])

    @property
    def per_pair_range(self) -> tuple[int, int]:
        light, heavy = self.light_values, self.heavy_values
        return light[0] + 2 * heavy[0], light[-1] + 2 * heavy[-1]


def m3_parameters(per_pair: Fraction) -> M3Shape:
    """The unique shape whose per-pair range contains per_pair (boundaries
    resolve to the range that starts lower); requires per_pair >= 7."""
    per_pair = Fraction(per_pair)
    if per_pair < 7:
        raise ValueError("three-value shapes need per-pair sums >= 7")
    a = -((-(per_pair - 3)) // 4)  # ceil((per_pair - 3) / 4)
    a = max(2, int(a))
    if per_pair <= 4 * a:
        case = M3Case.LOW
    elif per_pair <= 4 * a + 1:
        case = M3Case.MID
    else:
        case = M3Case.HIGH
    return M3Shape(a, case)


def _in_shape(lmin: int, lmax: int, hmin: int, hmax: int) -> Optional[M3Shape]:
    """The first shape, by a and then by case, whose windows hold every
    light value in [lmin, lmax] and every heavy one in [hmin, hmax], or
    None.  A heavy window {a} or {a, a+1} holds them only when
    hmax - 1 <= a <= hmin."""
    for a in range(max(2, hmax - 1), hmin + 1):
        for case in M3Case:
            light, heavy = _M3_OFFSETS[case]
            if (2 * a + light[0] <= lmin and lmax <= 2 * a + light[-1]
                    and a + heavy[0] <= hmin and hmax <= a + heavy[-1]):
                return M3Shape(a, case)
    return None


@dataclass(frozen=True)
class M3Result:
    sequence: Quotients
    certified: bool
    shape: Optional[M3Shape]


def reduce_m3(seq: Sequence[int], o: Orientation) -> M3Result:
    """Drive a window-form word into a three-value shape by certified
    (1,2)-variations, never decreasing the continuant.

    The step certificates assume interior positions (two quotients on either
    flank), so candidate positions are tried interior-first and every step is
    confirmed by exact comparison before it is kept.  Words with per-pair sum
    below 8 are returned unchanged and flagged; if no strictly increasing
    certified step exists before a shape is reached, the partial result is
    flagged as well.
    """
    seq = cf.check_quotients(seq, allow_empty=False)
    n = len(seq)
    o_light = cf.light_positions(n, o)
    o_heavy = cf.heavy_positions(n, o)
    lights = [seq[i - 1] for i in o_light]
    heavies = [seq[i - 1] for i in o_heavy]
    if max(lights) - min(lights) > 1 or max(heavies) - min(heavies) > 1:
        raise ValueError("input must already have value windows of spread <= 1")
    s = cf.weighted_sum(seq, o)
    if 2 * s < 8 * n:  # per-pair sum below 8
        return M3Result(seq, False, None)

    def interior_first(positions):
        return sorted(positions, key=lambda p: (not 3 <= p <= n - 2, p))

    def finish(certified: bool, shape: Optional[M3Shape]) -> M3Result:
        out = tuple(word)
        if cf.weighted_sum(out, o) != s:
            raise AssertionError(f"reduce_m3 changed the weighted sum of {seq}")
        return M3Result(out, certified, shape)

    word = list(seq)
    guard = 4 * s * n + 16
    for _ in range(guard):
        lights = [word[i - 1] for i in o_light]
        heavies = [word[i - 1] for i in o_heavy]
        lmin, lmax = min(lights), max(lights)
        hmin, hmax = min(heavies), max(heavies)
        shape = _in_shape(lmin, lmax, hmin, hmax)
        if shape is not None:
            return finish(True, shape)
        before = cf._continuant(word)
        moves = []
        # lower one heavy, raise two lights
        if hmax >= 3 and is_abs_increasing_12(hmax - 1, lmin,
                                              VariationDirection.RAISE_HEAVY):
            moves.append((hmax, -1, lmin, +1))
        # raise one heavy, lower two lights
        if lmax >= 2 and is_abs_increasing_12(hmin, lmax - 1,
                                              VariationDirection.RAISE_LIGHT):
            moves.append((hmin, +1, lmax, -1))
        best = None
        for h_from, dh, l_from, dl in moves:
            h_pos = interior_first(i for i in o_heavy if word[i - 1] == h_from)
            l_pos = interior_first(i for i in o_light if word[i - 1] == l_from)
            if not h_pos or len(l_pos) < 2:
                continue
            for hp in h_pos[:4]:
                for i1 in range(min(4, len(l_pos))):
                    for i2 in range(i1 + 1, min(5, len(l_pos))):
                        cand = list(word)
                        cand[hp - 1] += dh
                        cand[l_pos[i1] - 1] += dl
                        cand[l_pos[i2] - 1] += dl
                        value = cf._continuant(cand)
                        if best is None or value > best[0]:
                            best = (value, cand)
        if best is None or best[0] <= before:
            return finish(False, None)
        word = best[1]
    raise RuntimeError("three-value reduction failed to terminate")


# -- balanced block maximum -----------------------------------------------------


def _block_word(inst: ExtremalInstance) -> tuple:
    """The blocks `balanced_max` lays out: the mechanical arrangement of the
    ordinary blocks, the auxiliary block that absorbs an odd remainder (None
    for an even one), and the period of the arrangement as a cyclic word.

    The arrangement of k rare blocks among q is the mechanical word of
    density k/q, which is its primitive word of length q/gcd(k, q) repeated;
    with no ordinary block (one pair, odd remainder) the period is 1."""
    if 2 * inst.s < 8 * inst.n:
        raise ValueError("balanced construction requires per-pair sums >= 8")
    m = inst.pairs
    shape = m3_parameters(inst.per_pair)
    light, heavy = shape.light_values, shape.heavy_values
    b0, b1 = (light[0], heavy[0]), (light[-1], heavy[-1])
    low, high = shape.per_pair_range
    step = high - low
    rem = inst.s - m * low
    special = None
    ordinary = m
    if rem % step:  # sums step by 2: an odd unit goes to b0's light value
        special = (b0[0] + 1, b0[1])
        ordinary = m - 1
        rem -= 1
    k = rem // step
    if not 0 <= k <= ordinary:
        raise InfeasibleError(
            f"S={inst.s} is not representable with shape {shape} blocks")

    if k <= ordinary - k:
        blocks = _mechanical_word(k, ordinary, (b0,), (b1,))
    else:
        blocks = _mechanical_word(ordinary - k, ordinary, (b1,), (b0,))
    return blocks, special, ordinary // gcd(k, ordinary) if ordinary else 1


def _layout_continuants(blocks: tuple, special: Optional[tuple],
                        period: int) -> list:
    """Continuants of the distinct layouts of `blocks`, whose arrangement
    has the cyclic period `period`.

    Without an auxiliary block the layouts are the rotations
    blocks[t:] + blocks[:t], and rotations t and t + period are one word:
    the result is [values], with the continuant of rotation t at values[t],
    t < period.  With one, base list i is blocks[:i] + (special,) + blocks[i:],
    for i = 0..L (L = len(blocks)), and its layouts are its rotations.  Lists
    i and i + period are one cyclic word, and list L is a rotation of list 0,
    so the result holds one entry per i < period: the continuants of the
    rotations t = 0..L of list i, in order of t.

    A block (l, h) has the quotient matrix B = [[lh+1, l], [h, 1]], and a
    layout's continuant is the top-left entry of the product of its
    blocks' matrices.  With the prefix products PF[j] = B_0...B_{j-1} and
    suffix products SF[j] = B_j...B_{L-1}, built once, rotation t of list i
    with auxiliary matrix X has the product B_t...B_{i-1} X SF[i] PF[t] for
    t <= i, and SF[t-1] PF[i] X B_i...B_{t-2} for t > i.  So each list takes
    one backward pass from X SF[i] and one forward pass from PF[i] X, L block
    steps in all, and one multiply-add of a first row by a first column per
    rotation.
    """
    steps = [(l * h + 1, l, h) for l, h in blocks]
    prefix = [(1, 0, 0, 1)]
    for lh, l, h in steps:
        a, b, c, d = prefix[-1]
        prefix.append((a * lh + b * h, a * l + b, c * lh + d * h, c * l + d))
    suffix = [(1, 0, 0, 1)]
    for lh, l, h in reversed(steps):
        a, b, c, d = suffix[-1]
        suffix.append((lh * a + l * c, lh * b + l * d, h * a + c, h * b + d))
    suffix.reverse()
    if special is None:
        return [[s[0] * p[0] + s[1] * p[2]
                 for s, p in zip(suffix[:period], prefix)]]
    xl, xh = special
    xlh = xl * xh + 1
    out = []
    for i in range(period):
        values = []
        # t = i down to 0: the first row of B_t...B_{i-1} X SF[i]
        a, b, c, d = suffix[i]
        a, b, c, d = xlh * a + xl * c, xlh * b + xl * d, xh * a + c, xh * b + d
        p = prefix[i]
        values.append(a * p[0] + b * p[2])
        for t in range(i - 1, -1, -1):
            lh, l, h = steps[t]
            a, b, c, d = lh * a + l * c, lh * b + l * d, h * a + c, h * b + d
            p = prefix[t]
            values.append(a * p[0] + b * p[2])
        values.reverse()
        # t = j + 1 for j = i..L-1: the first column of PF[i] X B_i...B_{j-1}
        a, b, c, d = prefix[i]
        a, b, c, d = a * xlh + b * xh, a * xl + b, c * xlh + d * xh, c * xl + d
        for j in range(i, len(steps)):
            s = suffix[j]
            values.append(s[0] * a + s[1] * c)
            lh, l, h = steps[j]
            a, b, c, d = a * lh + b * h, a * l + b, c * lh + d * h, c * l + d
        out.append(values)
    return out


def balanced_max(inst: ExtremalInstance) -> Quotients:
    """Near-maximal word built from two block kinds in balanced arrangement.

    The shape is fixed by the per-pair sum; the block multiset is the unique
    mix meeting S exactly (one auxiliary (2a+2, a) pair absorbs the odd
    remainder in the high case, where block sums step by 2).  Blocks are laid
    out as a mechanical word and the exact best rotation (and auxiliary
    placement) is selected by continuant comparison, ties going to the
    lexicographically smallest word.  Each distinct layout is scored once,
    from block-matrix prefix/suffix products shared by all of them: O(m)
    block steps for an even remainder, and O(m) more per distinct auxiliary
    placement for an odd one, of which there are q/gcd(k, q) for k rare
    blocks among the q = m - 1 ordinary ones.
    """
    blocks, special, period = _block_word(inst)
    scores = _layout_continuants(blocks, special, period)
    tops = list(map(max, scores))
    top = max(tops)
    tied = [(i, shift) for i, values in enumerate(scores) if tops[i] == top
            for shift, value in enumerate(values) if value == top]

    def layout(i, shift):
        lst = blocks if special is None else blocks[:i] + (special,) + blocks[i:]
        return lst[shift:] + lst[:shift]

    # blocks are pairs, so block lists compare as the words they flatten to
    best = _assemble(min(layout(i, shift) for i, shift in tied))
    if inst.orientation is not Orientation.PHI:
        best = best[::-1]
    return _checked(best, inst)


@dataclass(frozen=True)
class MaxConstruction:
    sequence: Quotients
    certified: bool


def max_construct(inst: ExtremalInstance) -> MaxConstruction:
    """Near-maximal word: balanced blocks for per-pair >= 8 (within the proven
    constant factor of the true maximum); below that, a greedy word, flagged
    as uncertified.  It raises the heavy positions round-robin, so the first
    (S - 3n/2) // 2 mod n/2 of them get one unit more than the others, and
    puts an odd unit on the first light position, so it is already a window
    form (both weight classes have spread <= 1)."""
    n = inst.n
    if 2 * inst.s >= 8 * n:  # per-pair sum >= 8
        return MaxConstruction(balanced_max(inst), True)
    units, odd = divmod(inst.s - 3 * n // 2, 2)
    rise, extra = divmod(units, n // 2)
    first = 0 if inst.orientation is Orientation.PHI else 1  # first light index
    word = [1] * n
    word[1 - first::2] = [2 + rise] * extra + [1 + rise] * (n // 2 - extra)
    word[first] += odd
    return MaxConstruction(_checked(tuple(word), inst), False)
