"""Extremal continuants: exhaustive oracle, constructions, reductions."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from dtu import cf
from dtu.cf import Orientation
from dtu.extremal import (CapExceededError, ExtremalInstance, InfeasibleError,
                          M3Case, M3Shape, _block_word, _contenders,
                          _in_shape, _layout_continuants, balanced_max,
                          brute_extrema, count_words, m3_parameters,
                          max_construct, min_construct, normalize_m4,
                          reduce_m3)

PHI, TAU = Orientation.PHI, Orientation.TAU


def words_of(n, s, o):
    """Every word of M(n, S), built pair by pair: a pair may take any cost
    that leaves at least 3 for each pair after it.  Nothing is pruned."""
    if n == 0:
        if s == 0:
            yield ()
        return
    w1, w2 = o.weight(1), o.weight(2)
    for p1 in range(1, s):
        for p2 in range(1, s):
            left = s - w1 * p1 - w2 * p2
            if left < 3 * (n // 2 - 1):
                break
            for tail in words_of(n - 2, left, o):
                yield (p1, p2) + tail


def naive_extrema(n, s, o):
    best = worst = None
    for word in words_of(n, s, o):
        v = cf.continuant(word)
        if best is None or v < best[0] or (v == best[0] and word < best[1]):
            best = (v, word)
        if worst is None or v > worst[0] or (v == worst[0] and word < worst[1]):
            worst = (v, word)
    return best, worst


def test_instance_validation():
    with pytest.raises(ValueError):
        ExtremalInstance(3, 10)
    with pytest.raises(ValueError):
        ExtremalInstance(0, 10)
    # the target sum has its own cap, reported as a cap, not a usage error
    with pytest.raises(CapExceededError, match="target sum exceeds cap 1000000"):
        ExtremalInstance(4, 2_000_000)
    assert ExtremalInstance(4, 1_000_000).s == 1_000_000
    # below the all-ones floor 3n/2, rejected when built, whatever the mode
    with pytest.raises(InfeasibleError,
                       match="S=5 below the all-ones floor 6 for n=4"):
        ExtremalInstance(4, 5)
    assert ExtremalInstance(4, 6).s == 6


def test_brute_examples():
    e = brute_extrema(ExtremalInstance(2, 3))
    assert (e.min_seq, e.min_value, e.max_seq, e.max_value) == ((1, 1), 2, (1, 1), 2)
    e = brute_extrema(ExtremalInstance(2, 5))
    assert (e.min_seq, e.min_value, e.max_seq, e.max_value) == ((1, 2), 3, (3, 1), 4)
    e = brute_extrema(ExtremalInstance(4, 16))
    assert (e.min_seq, e.min_value) == ((1, 6, 1, 1), 15)
    assert (e.max_seq, e.max_value) == ((4, 2, 4, 2), 89)


def test_brute_matches_naive_enumeration():
    rng = random.Random(61)
    cases = [(2, s, o) for s in range(3, 14) for o in (PHI, TAU)]
    cases += [(4, rng.randint(6, 17), rng.choice((PHI, TAU))) for _ in range(8)]
    cases += [(6, 11, PHI), (6, 13, TAU)]
    # 10,032 and 94,523 words
    cases += [(8, s, o) for s in (25, 32) for o in (PHI, TAU)]
    # ties at the last pair (14 and 344 words), and frontiers that need
    # more than two (4,488 words) or three (109,252 words) states
    cases += [(8, 14, PHI), (8, 18, PHI), (8, 23, TAU), (10, 30, TAU)]
    # beyond the old n <= 12 limit, just above the all-ones floor of 21
    cases += [(14, 24, TAU)]
    for n, s, o in cases:
        (bv, bs), (wv, ws) = naive_extrema(n, s, o)
        e = brute_extrema(ExtremalInstance(n, s, o))
        assert (e.min_value, e.min_seq, e.max_value, e.max_seq) == (bv, bs, wv, ws)


def all_pairs(cost, w1, w2):
    """All pairs (p1, p2) with w1*p1 + w2*p2 == cost, in position order."""
    return [(p1, (cost - w1 * p1) // w2) for p1 in range(1, (cost - w2) // w1 + 1)
            if (cost - w1 * p1) % w2 == 0]


def weakly_pareto(states):
    """The states whose (r0, r1) no other state weakly dominates, as
    (r0, r1, prefix + (p1, p2)), best first."""
    states.sort()
    r0, r1, prefix, p1, p2 = states[0]
    keep = [(r0, r1, prefix + (p1, p2))]
    for r0, r1, prefix, p1, p2 in states:
        if r1 < keep[-1][1]:
            keep.append((r0, r1, prefix + (p1, p2)))
    return keep


def all_pairs_extreme(m, s, phi, sign):
    """The Pareto-frontier DP without the concavity rule: every state meets
    every pair of every cost, and the frontier keeps every vector that is
    not weakly dominated in both coordinates."""
    w1, w2 = (1, 2) if phi else (2, 1)
    frontier = {s: [(sign, 0, ())]}
    for left in range(m - 1, 0, -1):
        grown = {}
        for budget, states in frontier.items():
            for cost in range(3, budget - 3 * left + 1):
                out = grown.setdefault(budget - cost, [])
                for p1, p2 in all_pairs(cost, w1, w2):
                    out.extend((r0 * (p1 * p2 + 1) + r1 * p2, r0 * p1 + r1,
                                prefix, p1, p2) for r0, r1, prefix in states)
        frontier = {budget: weakly_pareto(states)
                    for budget, states in grown.items()}
    value, prefix, p1, p2 = min((r0 * (p1 * p2 + 1) + r1 * p2, prefix, p1, p2)
                                for budget, states in frontier.items()
                                for p1, p2 in all_pairs(budget, w1, w2)
                                for r0, r1, prefix in states)
    return sign * value, prefix + (p1, p2)


def test_brute_matches_all_pairs_oracle():
    # every instance with n <= 12 and at most 2e4 words (n = 2, whose count
    # grows only linearly in S, up to S = 200), both orientations
    checked = 0
    for n in range(2, 13, 2):
        for s in itertools.count(3 * n // 2):
            if s > 200 or count_words(ExtremalInstance(n, s)) > 2 * 10 ** 4:
                break
            for o in (PHI, TAU):
                e = brute_extrema(ExtremalInstance(n, s, o))
                want = [all_pairs_extreme(n // 2, s, o is PHI, sign)
                        for sign in (1, -1)]
                assert [(e.min_value, e.min_seq), (e.max_value, e.max_seq)] == want
                checked += 1
    assert checked == 672


def test_contenders_hold_every_extreme_pair():
    # a state (1, rho) under a pair (p1, p2), then completed with weight t:
    # (p1 p2 + 1 + rho p2) + (p1 + rho) t; a state (r0, r1) scales this by
    # r0.  Less the rho t that every pair shares, and times the common
    # denominator d of rho and t, the values are exact integers.
    grid = [Fraction(k, 8) for k in range(8)] + [Fraction(99, 100)]
    for phi, (w1, w2) in ((True, (1, 2)), (False, (2, 1))):
        for cost in range(3, 121):
            pairs = all_pairs(cost, w1, w2)
            low, high = _contenders(cost, phi, 1), _contenders(cost, phi, -1)
            assert len(low) <= 2 and len(high) <= 2
            assert set(low) <= set(pairs) and set(high) <= set(pairs)
            for rho in grid:
                for t in grid:
                    d = math.lcm(rho.denominator, t.denominator)
                    a, b = int(rho * d), int(t * d)
                    values = [d * (p1 * p2 + 1) + a * p2 + b * p1
                              for p1, p2 in pairs]
                    lo, hi = min(values), max(values)
                    for pair, v in zip(pairs, values):
                        assert v != lo or pair in low, (phi, cost, rho, t)
                        assert v != hi or pair in high, (phi, cost, rho, t)


def test_count_matches_enumeration():
    for n, s in [(2, 9), (4, 14), (6, 13), (4, 20)]:
        inst = ExtremalInstance(n, s)
        explicit = sum(1 for _ in words_of(n, s, PHI))
        assert count_words(inst) == explicit == brute_extrema(inst).count


def convolution_count(n, s):
    """|M(n, S)| by convolving the per-pair counts (c-1)//2, c >= 3, once
    per pair."""
    ways = [1] + [0] * s
    for _ in range(n // 2):
        nxt = [0] * (s + 1)
        for acc, w in enumerate(ways):
            if w:
                for c in range(3, s - acc + 1):
                    nxt[acc + c] += w * ((c - 1) // 2)
        ways = nxt
    return ways[s]


def test_count_matches_convolution():
    for n, s in [(4, 400), (10, 200), (40, 300)]:
        want = convolution_count(n, s)
        for o in (PHI, TAU):
            assert count_words(ExtremalInstance(n, s, o)) == want
    for n in range(2, 21, 2):
        for s in range(3 * n // 2, 3 * n // 2 + 25):
            assert count_words(ExtremalInstance(n, s)) == convolution_count(n, s)


def comb_sum_count(n, s):
    """|M(n, S)| by the closed sum with fresh binomials for every term."""
    m, surplus = n // 2, s - 3 * (n // 2)
    return sum(math.comb(m - 1 + k, m - 1) * math.comb(m - 1 + surplus - 2 * k, m - 1)
               for k in range(surplus // 2 + 1))


def test_count_ratio_updates_match_fresh_binomials():
    cases = [(n, s) for n in range(2, 25, 2)
             for s in range(3 * n // 2, 3 * n // 2 + 41)]
    cases += [(4, 16), (10, 60), (40, 4000), (400, 6000), (2, 10 ** 5)]
    for n, s in cases:
        assert count_words(ExtremalInstance(n, s)) == comb_sum_count(n, s)


def test_count_words_one_pair_closed_form():
    # one pair: every term of the sum is 1, so the count is (S-1)//2
    for s in range(3, 401):
        want = (s - 1) // 2
        assert count_words(ExtremalInstance(2, s)) == want
        assert comb_sum_count(2, s) == convolution_count(2, s) == want
    assert count_words(ExtremalInstance(2, 10 ** 6)) == 499_999


def test_cap_enforced():
    with pytest.raises(CapExceededError):
        brute_extrema(ExtremalInstance(10, 60), cap=1000)


def test_min_construct():
    assert min_construct(ExtremalInstance(4, 16)) == (1, 6, 1, 1)
    assert min_construct(ExtremalInstance(4, 6)) == (1, 1, 1, 1)
    assert min_construct(ExtremalInstance(6, 9)) == (1, 1, 1, 1, 1, 1)
    # odd surplus bumps one light position to 2
    w = min_construct(ExtremalInstance(4, 9))
    assert cf.weighted_sum(w, PHI) == 9
    assert sorted(w)[:2] == [1, 1]
    for n in (2, 4, 6, 8):
        for s in range(3 * n // 2, 3 * n // 2 + 15):
            for o in (PHI, TAU):
                w = min_construct(ExtremalInstance(n, s, o))
                assert cf.weighted_sum(w, o) == s


def test_min_construct_close_to_brute():
    for n in (2, 4, 6):
        for s in range(3 * n // 2, 3 * n // 2 + 12):
            inst = ExtremalInstance(n, s)
            built = cf.continuant(min_construct(inst))
            exact = brute_extrema(inst).min_value
            assert exact <= built <= 8 * exact


def test_normalize_m4():
    # fixed point
    assert normalize_m4((4, 2, 4, 2), PHI) == (4, 2, 4, 2)
    out = normalize_m4((5, 2, 1, 2, 5, 2), PHI)
    light = {out[i] for i in range(0, 6, 2)}
    heavy = {out[i] for i in range(1, 6, 2)}
    assert max(light) - min(light) <= 1 and heavy == {2}
    assert cf.weighted_sum(out, PHI) == cf.weighted_sum((5, 2, 1, 2, 5, 2), PHI)
    assert cf.continuant(out) >= cf.continuant((5, 2, 1, 2, 5, 2))
    out2 = normalize_m4((1, 1, 9, 1), PHI)
    light2 = {out2[0], out2[2]}
    assert max(light2) - min(light2) <= 1
    assert cf.weighted_sum(out2, PHI) == 14
    assert cf.continuant(out2) >= cf.continuant((1, 1, 9, 1)) // 4 + 1
    # within factor 4 of the brute maximum at (4, 14)
    assert 4 * cf.continuant(out2) >= brute_extrema(ExtremalInstance(4, 14)).max_value


def test_normalize_m4_random_properties():
    rng = random.Random(67)
    for _ in range(150):
        n = 2 * rng.randint(1, 5)
        word = tuple(rng.randint(1, 9) for _ in range(n))
        o = rng.choice((PHI, TAU))
        out = normalize_m4(word, o)
        assert cf.weighted_sum(out, o) == cf.weighted_sum(word, o)
        for positions in (cf.light_positions(n, o), cf.heavy_positions(n, o)):
            vals = [out[i - 1] for i in positions]
            assert max(vals) - min(vals) <= 1


def reference_moves(seq, o):
    """The words one equalizing move away from seq, each built in full: a
    same-class pair differing by >= 2 moves dd toward each other, with dd
    the half difference (both roundings when it is odd)."""
    n = len(seq)
    out = []
    for positions in (cf.light_positions(n, o), cf.heavy_positions(n, o)):
        for ii in positions:
            for jj in positions:
                if ii == jj:
                    continue
                hi, lo = seq[ii - 1], seq[jj - 1]
                if hi - lo < 2:
                    continue
                d = (hi - lo) // 2
                for dd in ((d,) if (hi - lo) % 2 == 0 else (d, d + 1)):
                    word = list(seq)
                    word[ii - 1], word[jj - 1] = hi - dd, lo + dd
                    out.append(tuple(word))
    return out


def reference_path(seq, o):
    """The steps of normalize_m4 as first written, scoring every candidate
    by a fresh continuant: each step takes the largest continuant, ties
    going to the lexicographically smallest word.  Yields each step's
    candidates, as a dict from word to continuant, and its choice."""
    seq = tuple(seq)
    while candidates := reference_moves(seq, o):
        scored = {w: cf._continuant(w) for w in candidates}
        top = max(scored.values())
        seq = min(w for w, value in scored.items() if value == top)
        yield scored, seq


def reference_normalize_m4(seq, o):
    for _, seq in reference_path(seq, o):
        pass
    return tuple(seq)


def most_ties(seq, o):
    """The most candidates tied at the top continuant in one reference step."""
    most = 0
    for scored, _ in reference_path(seq, o):
        values = list(scored.values())
        most = max(most, values.count(max(values)))
    return most


# words with several candidate moves tied at the top continuant in a step
TIED_WORDS = [((6, 6, 1, 1, 1, 1, 6, 6), PHI), ((6, 6, 1, 1, 1, 1, 6, 6), TAU),
              ((1, 3, 3, 1), PHI), ((7, 2, 2, 7), TAU), ((3, 4, 6, 2), PHI)]


def test_tied_words_have_tied_top_moves():
    for word, o in TIED_WORDS:
        assert most_ties(word, o) >= 2, word


def bound_tally(seq, o, scored):
    """How the gain bound of normalize_m4 meets one step on seq, whose
    candidates' continuants `scored` holds, in its scan order: each class by
    descending value, the larger quotient i against the smaller ones j from
    the smallest up, until the gap is below 2.  A pair is passed over when
    dd (C_j - C_i), at its largest over the pair's dd, is at most the best
    gain scored before it; C_x = K(a_1..a_{x-1}) K(a_{x+1}..a_n) comes from
    the plain recurrence.  Returns the counts of pairs with C_j <= C_i, of
    pairs passed over, and of the step's top moves that come from an
    odd-gap pair scored only because its bound takes dd = d + 1, not d."""
    n, here = len(seq), cf._continuant(seq)
    left, right = [0, 1], [0, 1]  # K of the first x - 1, and of the last x - 1
    for a, b in zip(seq, reversed(seq)):
        left.append(a * left[-1] + left[-2])
        right.append(b * right[-1] + right[-2])
    C = [None] + [left[x] * right[n - x + 1] for x in range(1, n + 1)]
    best, tally, odd_kept = None, [0, 0, 0], []
    for positions in (cf.light_positions(n, o), cf.heavy_positions(n, o)):
        order = sorted(positions, key=lambda x: -seq[x - 1])
        for k, i in enumerate(order):
            for j in order[:k:-1]:
                gap = seq[i - 1] - seq[j - 1]
                if gap < 2:
                    break
                slope, d = C[j] - C[i], gap // 2
                tally[0] += slope <= 0
                if best is not None and max(d * slope, (d + gap % 2) * slope) <= best:
                    tally[1] += 1
                    continue
                odd = best is not None and d * slope <= best
                for dd in ((d,) if gap % 2 == 0 else (d, d + 1)):
                    word = list(seq)
                    word[i - 1] -= dd
                    word[j - 1] += dd
                    gain = scored[tuple(word)] - here
                    best = gain if best is None else max(best, gain)
                    if odd:
                        odd_kept.append(gain)
    tally[2] = odd_kept.count(best)
    return tally


def test_normalize_m4_picks_the_reference_word():
    rng = random.Random(73)
    cases = TIED_WORDS + [((5, 2, 1, 2, 5, 2), PHI), ((5, 2, 1, 2, 5, 2), TAU),
                          # a step won by dd = d + 1 of an odd gap, above d (C_j - C_i)
                          ((2, 2, 2, 2, 2, 1, 1, 1, 2, 1, 5, 1), TAU)]
    for k in range(3000):
        n = 2 * rng.randint(1, 12)
        top = (3, 7, 14, 30)[k % 4]
        cases.append((tuple(rng.randint(1, top) for _ in range(n)),
                      (PHI, TAU)[k // 4 % 2]))
    lowering, tally = 0, [0, 0, 0]
    for word, o in cases:
        seq = word
        for scored, step in reference_path(word, o):
            lowering += scored[step] < cf._continuant(seq)
            tally = [a + b for a, b in zip(tally, bound_tally(seq, o, scored))]
            seq = step
        assert normalize_m4(word, o) == seq, (word, o)
    falling, passed, odd_won = tally
    # every scanned pair has C_j > C_i; the set reaches steps whose best move
    # lowers K, pairs passed over, and a top move that a bound taking dd = d
    # would have passed over
    assert falling == 0 and min(lowering, passed, odd_won) > 0, (lowering, tally)


def reference_in_shape(light, heavy):
    """_in_shape as first written, on the sets of light and heavy values:
    every shape with a heavy value or one less as a, in order of a and then
    of case, until one's windows hold both sets."""
    for a in sorted({v for v in heavy} | {v - 1 for v in heavy}):
        if a < 2:
            continue
        for case in M3Case:
            shape = M3Shape(a, case)
            if light <= set(shape.light_values) and heavy <= set(shape.heavy_values):
                return shape
    return None


def test_in_shape_matches_the_set_search():
    found = 0
    for lmin, hmin in itertools.product(range(1, 21), repeat=2):
        for lmax, hmax in itertools.product(range(lmin, min(lmin + 3, 20) + 1),
                                            range(hmin, min(hmin + 3, 20) + 1)):
            want = reference_in_shape(frozenset(range(lmin, lmax + 1)),
                                      frozenset(range(hmin, hmax + 1)))
            assert _in_shape(lmin, lmax, hmin, hmax) == want, (lmin, lmax, hmin, hmax)
            found += want is not None
    assert found == 51


def test_m3_parameters():
    s = m3_parameters(Fraction(1305, 100))
    assert (s.a, s.case) == (3, M3Case.HIGH)
    assert s.light_values == (7,) and s.heavy_values == (3, 4)
    s = m3_parameters(Fraction(8))
    assert (s.a, s.case) == (2, M3Case.LOW)
    assert s.light_values == (3, 4) and s.heavy_values == (2,)
    s = m3_parameters(Fraction(15))
    assert (s.a, s.case) == (3, M3Case.HIGH)
    s = m3_parameters(Fraction(7))
    assert (s.a, s.case) == (2, M3Case.LOW)
    s = m3_parameters(Fraction(12))
    assert (s.a, s.case) == (3, M3Case.LOW)
    with pytest.raises(ValueError):
        m3_parameters(Fraction(13, 2))
    lo, hi = m3_parameters(Fraction(41, 3)).per_pair_range
    assert lo <= Fraction(41, 3) <= hi


def test_reduce_m3_examples():
    r = reduce_m3((7, 3, 7, 3), PHI)
    assert r.sequence == (7, 3, 7, 3) and r.certified
    r = reduce_m3((5, 4, 5, 4), PHI)
    assert r.certified and r.shape.a == 3
    assert r.shape.case in (M3Case.MID, M3Case.HIGH)
    assert cf.weighted_sum(r.sequence, PHI) == 26
    assert cf.continuant(r.sequence) >= cf.continuant((5, 4, 5, 4))
    r = reduce_m3((9, 3, 9, 3), PHI)
    assert r.sequence == (7, 4, 7, 4)
    assert (r.shape.a, r.shape.case) == (3, M3Case.HIGH)
    # below the certified regime: flagged, unchanged
    r = reduce_m3((3, 2, 3, 2), PHI)
    assert not r.certified and r.sequence == (3, 2, 3, 2)
    with pytest.raises(ValueError):
        reduce_m3((9, 1, 1, 1), PHI)  # not window form


def test_reduce_m3_output_range_matches_shape():
    rng = random.Random(71)
    for _ in range(60):
        pairs = rng.randint(2, 6)
        base_l = rng.randint(4, 9)
        base_h = rng.randint(2, 5)
        word = []
        for _ in range(pairs):
            word += [base_l + rng.randint(0, 1), base_h + rng.randint(0, 1)]
        word = tuple(word)
        if Fraction(2 * cf.weighted_sum(word, PHI), len(word)) < 8:
            continue
        r = reduce_m3(word, PHI)
        assert cf.weighted_sum(r.sequence, PHI) == cf.weighted_sum(word, PHI)
        assert cf.continuant(r.sequence) >= cf.continuant(word)
        if r.certified:
            lo, hi = r.shape.per_pair_range
            per_pair = Fraction(2 * cf.weighted_sum(r.sequence, PHI), len(word))
            assert lo <= per_pair <= hi


def test_balanced_max_examples():
    assert balanced_max(ExtremalInstance(4, 16)) == (4, 2, 4, 2)
    w = balanced_max(ExtremalInstance(4, 28))
    assert cf.continuant(w) == 666
    assert sorted((w[0], w[1])) == [3, 7] or sorted((w[0], w[1])) == [4, 7]
    w = balanced_max(ExtremalInstance(6, 24))
    assert w == (4, 2, 4, 2, 4, 2)
    # the threshold-family word: 37 low blocks and one high block
    w = balanced_max(ExtremalInstance(76, 496))
    pairs = [(w[i], w[i + 1]) for i in range(0, 76, 2)]
    assert pairs.count((7, 3)) == 37 and pairs.count((7, 4)) == 1


def test_balanced_max_block_multiset_and_balance():
    rng = random.Random(73)
    for _ in range(80):
        pairs = rng.randint(1, 12)
        n = 2 * pairs
        s = rng.randint(4 * n, 10 * n)
        inst = ExtremalInstance(n, s)
        w = balanced_max(inst)
        assert cf.weighted_sum(w, PHI) == s
        blocks = [(w[i], w[i + 1]) for i in range(0, n, 2)]
        kinds = sorted(set(blocks))
        assert len(kinds) <= 3
        # balance: counts of the rarer kind in any window differ by <= 1
        if len(kinds) == 2:
            rare = min(kinds, key=blocks.count)
            marks = [1 if b == rare else 0 for b in blocks]
            for width in range(1, pairs + 1):
                window_counts = {sum(marks[i:i + width])
                                 for i in range(pairs - width + 1)}
                assert max(window_counts) - min(window_counts) <= 1


def test_balanced_max_is_argmax_over_arrangements():
    # exhaustive over all arrangements of the same pair multiset
    for n, s in [(8, 64), (10, 85), (12, 102), (8, 74), (12, 127)]:
        inst = ExtremalInstance(n, s)
        w = balanced_max(inst)
        blocks = [(w[i], w[i + 1]) for i in range(0, n, 2)]
        best = max(cf.continuant(sum(p, ()))
                   for p in set(itertools.permutations(blocks)))
        assert cf.continuant(w) == best


def base_lists(inst):
    """Every block list whose rotations balanced_max compares: the ordinary
    arrangement, or, with an auxiliary block, that arrangement with the
    auxiliary block in each of its places, repeats included."""
    blocks, special, _ = _block_word(inst)
    if special is None:
        return [blocks]
    return [blocks[:i] + (special,) + blocks[i:] for i in range(len(blocks) + 1)]


def rotation_continuants(blocks):
    """Continuant of every rotation blocks[s:] + blocks[:s], s = 0..L-1, of
    one block list on its own.

    A block (l, h) has the quotient matrix B = [[lh+1, l], [h, 1]], and
    rotation s has the matrix B_s...B_{L-1} B_0...B_{s-1}, so its continuant
    is the first row of the suffix product times the first column of the
    prefix product.  A backward pass keeps every suffix row and a forward pass
    builds the prefix products: O(L) block steps in all.
    """
    rows = []
    s00, s01, s10, s11 = 1, 0, 0, 1
    for l, h in reversed(blocks):
        lh = l * h + 1
        s00, s01, s10, s11 = (lh * s00 + l * s10, lh * s01 + l * s11,
                              h * s00 + s10, h * s01 + s11)
        rows.append((s00, s01))
    rows.reverse()
    out = []
    p00, p01, p10, p11 = 1, 0, 0, 1
    for (r0, r1), (l, h) in zip(rows, blocks):
        out.append(r0 * p00 + r1 * p10)
        lh = l * h + 1
        p00, p01, p10, p11 = (p00 * lh + p01 * h, p00 * l + p01,
                              p10 * lh + p11 * h, p10 * l + p11)
    return out


def all_layouts_max(inst):
    """balanced_max by building every rotation of every base list as a word
    and scoring each with its own continuant."""
    layouts = [lst[shift:] + lst[:shift] for lst in base_lists(inst)
               for shift in range(len(lst))]
    best = max((sum(lst, ()) for lst in layouts),
               key=lambda w: (cf.continuant(w), [-x for x in w]))
    return best if inst.orientation is PHI else cf.reverse(best)


def test_balanced_max_matches_all_layouts_oracle():
    checked = 0
    for n in range(2, 25, 2):
        for s in range(4 * n, 9 * n + 10):
            for o in (PHI, TAU):
                inst = ExtremalInstance(n, s, o)
                try:
                    want = all_layouts_max(inst)
                except InfeasibleError:
                    with pytest.raises(InfeasibleError):
                        balanced_max(inst)
                    continue
                assert balanced_max(inst) == want
                checked += 1
    assert checked == 1800


def test_layouts_repeat_with_the_period_of_the_ordinary_blocks():
    # every instance with n <= 30 and an odd remainder, both orientations
    # alike: lists i and i + period hold the same rotation words (so list
    # L, a rotation of list 0, adds none), lists i < period are distinct
    # cyclic words, and each is scored as the per-list oracle scores it
    kinds = set()
    for n in range(2, 31, 2):
        for s in range(4 * n, 10 * n + 12):
            inst = ExtremalInstance(n, s)
            try:
                blocks, special, period = _block_word(inst)
            except InfeasibleError:
                continue
            if special is None:
                assert _layout_continuants(blocks, None, period) == \
                    [rotation_continuants(blocks)[:period]]
                continue
            lists = base_lists(inst)
            size = len(blocks)
            rare = size - blocks.count((special[0] - 1, special[1]))
            kinds.add("one pair" if size == 0 else "k = 0" if rare == 0 else
                      "k = ordinary" if rare == size else
                      "gcd > 1" if math.gcd(rare, size) > 1 else "gcd = 1")
            words = [sorted(lst[t:] + lst[:t] for t in range(size + 1))
                     for lst in lists]
            assert all(words[i] == words[i + period]
                       for i in range(size + 1 - period)), inst
            assert len({tuple(w) for w in words[:period]}) == period, inst
            assert _layout_continuants(blocks, special, period) == \
                [rotation_continuants(lst) for lst in lists[:period]], inst
    assert kinds == {"one pair", "k = 0", "k = ordinary", "gcd > 1", "gcd = 1"}


def scored_layouts_max(inst):
    """balanced_max from every rotation of every base list, each list
    scored on its own by `rotation_continuants`."""
    scored = [(value, lst[shift:] + lst[:shift]) for lst in base_lists(inst)
              for shift, value in enumerate(rotation_continuants(lst))]
    top = max(value for value, _ in scored)
    best = sum(min(lst for value, lst in scored if value == top), ())
    return best if inst.orientation is PHI else cf.reverse(best)


def test_balanced_max_matches_every_layout_at_odd_remainders():
    # lengths 40-160, past the exhaustive oracle above; only odd
    # remainders, whose auxiliary block may take any place
    rng = random.Random(97)
    checked = 0
    while checked < 24:
        n = 2 * rng.randint(20, 80)
        inst = ExtremalInstance(n, rng.randint(4 * n, 10 * n + 11),
                                rng.choice((PHI, TAU)))
        try:
            if len(base_lists(inst)) == 1:
                continue
        except InfeasibleError:
            continue
        assert balanced_max(inst) == scored_layouts_max(inst), inst
        checked += 1


def test_balanced_max_scores_layouts_without_continuants(monkeypatch):
    # at (400, 3401) there are 200 x 200 layouts; scoring each by a
    # continuant of its word would cost O(n) apiece
    inst = ExtremalInstance(400, 3401)
    scores = [v for lst in base_lists(inst) for v in rotation_continuants(lst)]
    calls = []
    for name in ("continuant", "_continuant"):
        real = getattr(cf, name)
        monkeypatch.setattr(cf, name,
                            lambda seq, real=real: calls.append(1) or real(seq))
    balanced_max(inst)
    assert len(scores) == 200 * 200
    assert len(calls) <= scores.count(max(scores))


def test_max_construct_examples_and_regimes():
    assert max_construct(ExtremalInstance(4, 16)).sequence == (4, 2, 4, 2)
    assert max_construct(ExtremalInstance(2, 15)).sequence == (7, 4)
    assert cf.continuant(max_construct(ExtremalInstance(2, 15)).sequence) == 29
    r = max_construct(ExtremalInstance(6, 24))
    assert r.certified
    low = max_construct(ExtremalInstance(4, 14))  # per-pair 7 < 8
    assert not low.certified
    assert cf.weighted_sum(low.sequence, PHI) == 14


def round_robin_max(n, s, o):
    """max_construct's greedy word as first written: from all ones, raise
    the heavy positions one unit at a time in turn, and put an odd unit on
    the first light position."""
    delta = s - 3 * n // 2
    word = [1] * n
    heavy = [i for i in range(1, n + 1) if o.weight(i) == 2]
    light = [i for i in range(1, n + 1) if o.weight(i) == 1]
    i = 0
    while delta >= 2:
        word[heavy[i % len(heavy)] - 1] += 1
        delta -= 2
        i += 1
    if delta:
        word[light[0] - 1] += 1
    return tuple(word)


def test_max_construct_below_eight_is_a_window_form():
    # the greedy word needs no narrowing: normalize_m4 leaves it unchanged
    for n in range(2, 41, 2):
        for s in range(3 * n // 2, 4 * n):  # per-pair sum 2s/n below 8
            for o in (PHI, TAU):
                built = max_construct(ExtremalInstance(n, s, o))
                assert not built.certified
                assert built.sequence == round_robin_max(n, s, o), (n, s, o)
                assert normalize_m4(built.sequence, o) == built.sequence


def test_tau_bijection():
    # extrema for TAU are the reversals of the PHI extrema
    for n, s in [(4, 16), (4, 21), (6, 20)]:
        p = brute_extrema(ExtremalInstance(n, s, PHI))
        t = brute_extrema(ExtremalInstance(n, s, TAU))
        assert p.min_value == t.min_value and p.max_value == t.max_value
        assert t.min_seq == cf.reverse(p.min_seq) or \
            cf.continuant(t.min_seq) == p.min_value
        assert cf.weighted_sum(t.max_seq, TAU) == s


def test_constructions_preserve_instance_exactly():
    rng = random.Random(79)
    for _ in range(60):
        n = 2 * rng.randint(1, 6)
        s = rng.randint(3 * n // 2, 12 * n)
        o = rng.choice((PHI, TAU))
        inst = ExtremalInstance(n, s, o)
        w = min_construct(inst)
        assert len(w) == n and cf.weighted_sum(w, o) == s
        built = max_construct(inst)
        assert len(built.sequence) == n
        assert cf.weighted_sum(built.sequence, o) == s


def test_block_tail_reversal_identity():
    # block structures: level-0 blocks (a, b) and (a+1, b); the level-k tail
    # is (b, s0, s1, ..., s_{k-1}) with s_j the dominated block of level j;
    # reversing a level-k block moves its tail to the front
    for a, b in [(3, 7), (2, 5), (4, 9)]:
        for counts in [(2, 2, 2), (3, 2, 4), (2, 3, 2)]:
            blocks = {0: ((a, b), (a + 1, b))}
            subs = {}
            for k in range(1, 4):
                dom, sub = blocks[k - 1]
                subs[k - 1] = sub
                blocks[k] = (dom * counts[k - 1] + sub,
                             dom * (counts[k - 1] + 1) + sub)
            tail = (b,)
            for k in range(1, 4):
                tail = tail + subs[k - 1]
                for blk in blocks[k]:
                    assert blk[-len(tail):] == tail
                    assert tuple(reversed(blk)) == tail + blk[:-len(tail)]
