"""Independent reference computations for the benchmark's output checks.

Everything here uses plain Python integers and `fractions.Fraction` only; no
function of the `dtu` package is called, so a defect in the library cannot
hide itself by also breaking its own oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# Certified kappa2 enclosure every correct bracket must contain.
KAPPA2_LO = Fraction("13.053318063")
KAPPA2_HI = Fraction("13.053318068")


def weight(index: int, phi: bool) -> int:
    """Weight of the 1-based position `index`: (1,2,1,2,...) for phi,
    (2,1,2,1,...) for tau."""
    if phi:
        return 2 if index % 2 == 0 else 1
    return 1 if index % 2 == 0 else 2


def weighted_sum(seq, phi: bool) -> int:
    return sum(a * weight(i, phi) for i, a in enumerate(seq, start=1))


def continuant(seq) -> int:
    value, prev = 1, 0
    for a in seq:
        value, prev = a * value + prev, value
    return value


def matrix_trace(seq) -> int:
    """Trace of the ordered product of [[a, 1], [1, 0]]."""
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in seq:
        m00, m01 = m00 * a + m01, m00
        m10, m11 = m10 * a + m11, m10
    return m00 + m11


def lucas(k: int) -> int:
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def verdict_sign(period, phi: bool) -> int:
    """Sign of lambda_A^2 - phi^S from the integer identity tr(M^4) - L_2S.

    For an even period with quotient matrix M (det +1, trace T) the dominant
    eigenvalue satisfies lambda^4 + lambda^-4 = tr(M^4) = (T^2-2)^2 - 2, and
    phi^2S + phi^-2S = L_2S; x -> x + 1/x increases for x > 1.
    """
    period = tuple(period)
    if len(period) % 2:
        period = period + period
    t = matrix_trace(period)
    diff = (t * t - 2) ** 2 - 2 - lucas(2 * weighted_sum(period, phi))
    return (diff > 0) - (diff < 0)


def cf_quotients(num: int, den: int) -> tuple[int, ...]:
    """Partial quotients of num/den in (0, 1), last quotient >= 2."""
    out = []
    while num:
        a, rem = divmod(den, num)
        out.append(a)
        den, num = num, rem
    return tuple(out)


def farey_size(order: int) -> int:
    """Number of fractions in [0, 1] with denominator <= order."""
    phi = list(range(order + 1))
    for p in range(2, order + 1):
        if phi[p] == p:
            for k in range(p, order + 1, p):
                phi[k] -= phi[k] // p
    return 1 + sum(phi[1:])


def _pair_realizations(cost: int, phi: bool) -> list[tuple[int, int]]:
    """All (a, b) pairs of positive quotients whose weighted cost is `cost`."""
    if phi:
        return [(cost - 2 * b, b) for b in range(1, (cost - 1) // 2 + 1)]
    return [(a, cost - 2 * a) for a in range(1, (cost - 1) // 2 + 1)]


def count_words(n: int, s: int) -> int:
    """Size of M(n, S) by convolution over pair costs."""
    ways = {0: 1}
    for _ in range(n // 2):
        nxt: dict[int, int] = {}
        for acc, w in ways.items():
            for c in range(3, s - acc + 1):
                nxt[acc + c] = nxt.get(acc + c, 0) + w * ((c - 1) // 2)
        ways = nxt
    return ways.get(s, 0)


def naive_extrema(n: int, s: int, phi: bool):
    """(min_value, min_seq, max_value, max_seq, count) over M(n, S) by plain
    enumeration; ties break to the lexicographically smallest word."""
    m = n // 2
    best_min = best_max = None
    count = 0
    for head in itertools.product(range(3, s - 3 * (m - 1) + 1), repeat=m - 1):
        last = s - sum(head)
        if last < 3:
            continue
        choices = [_pair_realizations(c, phi) for c in head + (last,)]
        for pairs in itertools.product(*choices):
            word = tuple(itertools.chain.from_iterable(pairs))
            value = continuant(word)
            count += 1
            if best_min is None or (value, word) < best_min:
                best_min = (value, word)
            if best_max is None or (-value, word) < best_max:
                best_max = (-value, word)
    return best_min[0], best_min[1], -best_max[0], best_max[1], count
