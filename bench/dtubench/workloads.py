"""The four benchmark workloads: job generation from a seed, the job bodies
(public library calls plus the rendering the matching CLI verb does), and
the output checks, which run outside the timed region.

Each workload is an endless sequence of short cycles with a fixed mix of job
kinds; the harness stops only at a cycle boundary, so every run has the same
mix.  Parameters whose cost varies a lot (epsilon, Farey order, word counts,
construction lengths) are drawn from a low-discrepancy sequence with a
seeded offset, so the empirical cost mix of a run is close to the mean for
any run length; the first cycle takes the top of each range, so peak memory
always includes the largest inputs.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import oracles

cf = importlib.import_module("dtu.cf")
classify = importlib.import_module("dtu.classify")
encode = importlib.import_module("dtu.encode")
extremal = importlib.import_module("dtu.extremal")
geval = importlib.import_module("dtu.geval")
verify = importlib.import_module("dtu.verify")

PHI, TAU = cf.Orientation.PHI, cf.Orientation.TAU
LAMBDAS = (geval.LambdaKind.PHI_INV, geval.LambdaKind.TAU, geval.LambdaKind.HALF)
G_INTERVAL_TOL = Fraction(1, 10 ** 30)
_GOLDEN = (5 ** 0.5 - 1) / 2
# the step of a second sequence, for a parameter drawn jointly with a first
# one: with equal steps the two draws of a job would differ by a constant
_SILVER = 2 ** 0.5 - 1


@dataclass(frozen=True)
class Job:
    kind: str
    args: tuple


class Spread:
    """Draw i of a seeded low-discrepancy sequence in [0, 1]; draw 0 is 1."""

    def __init__(self, rng: random.Random, step: float = _GOLDEN):
        self.offset = rng.random()
        self.step = step

    def __call__(self, i: int) -> float:
        return 1.0 if i == 0 else (self.offset + i * self.step) % 1.0


def log_between(lo: float, hi: float, w: float) -> float:
    return lo * (hi / lo) ** w


def alternate(i: int):
    """Orientations taken in turn, so that a run has as many of each."""
    return PHI if i % 2 == 0 else TAU


def pick(count: int, w: float) -> int:
    """The index in range(count) at quantile w in [0, 1]."""
    return min(int(w * count), count - 1)


class Workload:
    name = ""
    # span names a traced run of this workload must exercise
    expected: tuple = ()
    # cycles a traced run replays (about ten seconds untraced on a 2-core
    # virtual machine), so that its counts repeat exactly for a given seed
    trace_cycles = 1

    def __init__(self, seed: int):
        self.seed = seed
        self._offsets = random.Random(f"{self.name}/{seed}/offsets")

    def spread(self, step: float = _GOLDEN) -> Spread:
        return Spread(self._offsets, step)

    def rng(self, c: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{c}")

    def cycle(self, c: int) -> list[Job]:
        raise NotImplementedError

    def run(self, job: Job):
        return getattr(self, "run_" + job.kind)(*job.args)

    def check(self, job: Job, out) -> list[str]:
        """Problems found in one job's output; empty when it is correct."""
        return getattr(self, "check_" + job.kind)(out, *job.args)

    def final_checks(self) -> list[str]:
        return []


# -- kappa2-deep -------------------------------------------------------------


class Kappa2Deep(Workload):
    name = "kappa2-deep"
    trace_cycles = 40
    expected = ("classify.kappa2_bracket", "classify.classify",
                "classify.classify_verdict", "classify.growth_rate",
                "cf.quotient_matrix", "cf.check_quotients", "cf.periodic_value",
                "golden.phi_power", "surd.compare", "surd.bounds",
                "surd.algebraically_equal", "verify.trace_json")

    def __init__(self, seed):
        super().__init__(seed)
        self.eps = self.spread()

    def cycle(self, c):
        # epsilon log-uniform in [1e-7, 1e-5], as 1/N like `--epsilon 1/N`
        return [Job("kappa2", (Fraction(1, round(log_between(1e5, 1e7, self.eps(c)))),))]

    def run_kappa2(self, eps):
        bracket = classify.kappa2_bracket(eps)
        payload = {
            "lo": encode.fraction_str(bracket.lo),
            "hi": encode.fraction_str(bracket.hi),
            "witness_lo": encode.seq_str(bracket.witness_lo.period),
            "witness_hi": encode.seq_str(bracket.witness_hi.period),
            "steps": len(bracket.trace),
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        return bracket, text, verify.trace_json(bracket)

    def check_kappa2(self, out, eps):
        bracket, text, trace = out
        problems = []
        if bracket.hi - bracket.lo > 2 * eps:
            problems.append(f"bracket wider than 2*eps={eps}")
        if not (bracket.lo <= oracles.KAPPA2_LO and bracket.hi >= oracles.KAPPA2_HI):
            problems.append(f"bracket [{bracket.lo}, {bracket.hi}] misses the"
                            " certified kappa2 enclosure")
        rows = json.loads(trace)
        if [r["step"] for r in rows] != list(range(1, len(bracket.trace) + 1)):
            problems.append("trace rows are not the numbered steps")
        payload = json.loads(text)
        if Fraction(payload["lo"]) != bracket.lo or payload["steps"] != len(rows):
            problems.append("rendered payload disagrees with the bracket")
        return problems


# -- classify-many -------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def boundary_periods() -> tuple:
    """Periods of length 2 or 4 with quotients 1..12 whose verdict is Boundary
    in at least one orientation, found with the integer identity."""
    found = []
    for length in (2, 4):
        for period in itertools.product(range(1, 13), repeat=length):
            if oracles.verdict_sign(period, True) == 0 or \
                    oracles.verdict_sign(period, False) == 0:
                found.append(period)
    return tuple(found)


def render_verdict(period, preperiod, o, verdict) -> str:
    """The JSON document `dtu classify` prints for this verdict."""
    cert = verdict.certificate
    payload = {
        "period": encode.seq_str(period),
        "preperiod": encode.seq_str(preperiod),
        "orientation": o.value,
        "kappa": encode.fraction_str(verdict.kappa),
        "growth_rate_exact": encode.surd_str(verdict.rate.value),
        "growth_rate_decimal": encode.decimal_str(verdict.rate.value),
        "classification": verdict.classification.value,
        "certificate": {
            "lambda_squared": encode.surd_str(cert.lambda_squared),
            "phi_exponent": cert.exponent,
            "phi_power": encode.exact_str(cert.phi_power),
            "sign": cert.sign,
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_SIGN_CLASS = {1: "DerivInfinity", -1: "DerivZero", 0: "Boundary"}


class ClassifyMany(Workload):
    name = "classify-many"
    trace_cycles = 300
    expected = ("classify.classify_verdict", "classify.growth_rate",
                "cf.quotient_matrix", "cf.check_quotients", "cf.periodic_value",
                "golden.phi_power", "golden.__add__", "golden.bounds",
                "golden.__lt__", "surd.compare", "surd.bounds",
                "surd.algebraically_equal", "geval.g_interval",
                "encode.surd_str", "encode.decimal_str", "encode.exact_str")
    JOBS_PER_CYCLE = 16

    def cycle(self, c):
        rng = self.rng(c)
        jobs = []
        for j in range(self.JOBS_PER_CYCLE):
            if j == self.JOBS_PER_CYCLE - 1:
                period = rng.choice(boundary_periods())
            else:
                period = tuple(rng.randint(1, 12) for _ in range(2 * rng.randint(1, 8)))
            pre = ()
            if rng.random() < 0.3:
                pre = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 4)))
            jobs.append(Job("classify", (pre, period)))
        return jobs

    def run_classify(self, pre, period):
        x = cf.PeriodicCF(pre, period)
        rendered = []
        for o in (PHI, TAU):
            verdict = classify.classify_verdict(x, o)
            rendered.append((verdict, render_verdict(period, pre, o, verdict)))
        return rendered, geval.g_interval(geval.LambdaKind.PHI_INV, x, G_INTERVAL_TOL)

    def check_classify(self, out, pre, period):
        rendered, interval = out
        even = period + period if len(period) % 2 else period
        problems = []
        # tau verdict of A is the phi verdict of reversed A (orientation duality)
        wants = (oracles.verdict_sign(even, True),
                 oracles.verdict_sign(even[::-1], True))
        for (verdict, text), want, phi in zip(rendered, wants, (True, False)):
            cert = verdict.certificate
            if cert.sign != want or verdict.classification.value != _SIGN_CLASS[want]:
                problems.append(f"{period} {'phi' if phi else 'tau'}: sign"
                                f" {cert.sign}, integer identity says {want}")
            if cert.exponent != oracles.weighted_sum(even, phi):
                problems.append(f"{period}: wrong phi exponent {cert.exponent}")
            if json.loads(text)["classification"] != verdict.classification.value:
                problems.append(f"{period}: rendered classification differs")
        if not (0 <= interval.lo <= interval.hi <= 1) or \
                interval.hi - interval.lo > G_INTERVAL_TOL:
            problems.append(f"{pre}|{period}: g_interval wider than the tolerance")
        return problems


# -- farey-table ----------------------------------------------------------------


def _parse_exact(lam, text):
    if lam is geval.LambdaKind.HALF:
        return encode.parse_fraction(text)
    return encode.parse_golden(text)


def _value_from_quotients(seq) -> tuple[int, int]:
    """(p, q) of [0; seq]."""
    p, q = 0, 1
    for a in reversed(seq):
        p, q = q, a * q + p
    return p, q


class FareyTable(Workload):
    name = "farey-table"
    trace_cycles = 9
    expected = ("geval.sample_farey", "geval.g_mediant", "geval.g_finite_series",
                "golden.__add__", "golden.__mul__", "golden.bounds",
                "encode.exact_str", "encode.decimal_str")
    POINTS_PER_CYCLE = 40
    POINT_SUM_MAX = 300

    def __init__(self, seed):
        super().__init__(seed)
        self.depth = self.spread()
        self.tail = self.spread()

    def cycle(self, c):
        rng = self.rng(c)
        # table cost grows about as D^2, so D^2 is drawn uniformly, and two
        # cycles in a row take the same weight and opposite draws w, 1 - w:
        # tables are most of the work, and a pair then costs the same for
        # every seed
        lam = LAMBDAS[c // 2 % 3]
        w = self.depth(c // 2)
        depth = round(math.sqrt(100 ** 2 + 3 * 100 ** 2 * (w if c % 2 == 0 else 1 - w)))
        jobs = [Job("table", (lam, depth))]
        for j in range(self.POINTS_PER_CYCLE):
            # a point costs about its quotient sum; random points above
            # POINT_SUM_MAX are drawn again, as a few in the thousands made a
            # run's total depend on the seed, and the tail point below
            # covers sums from there on evenly
            while True:
                q = rng.randint(2, 3000)
                p = rng.randint(1, q - 1)
                quotients = oracles.cf_quotients(p, q)
                if math.gcd(p, q) == 1 and sum(quotients) <= self.POINT_SUM_MAX:
                    break
            mode = "mediant" if j % 2 == 0 else "series"
            jobs.append(Job("point", (rng.choice(LAMBDAS), p, q, mode, quotients)))
        # one point with a single large partial quotient: Sum(a) up to ~4000
        big = round(log_between(300, 4000, self.tail(c)))
        seq = (tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 2))) + (big,)
               + tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 2))))
        p, q = _value_from_quotients(seq)
        jobs.append(Job("point", (lam, p, q, "mediant", seq)))
        return jobs

    def run_table(self, lam, depth):
        rows = geval.sample_farey(lam, depth)
        lines = ["x_num,x_den,g_exact,g_decimal"]
        for x, g in rows:
            lines.append(f"{x.numerator},{x.denominator},"
                         f"{encode.exact_str(g)},{encode.decimal_str(g)}")
        return rows, "\n".join(lines) + "\n"

    def check_table(self, out, lam, depth):
        rows, text = out
        problems = []
        if len(rows) != oracles.farey_size(depth):
            problems.append(f"order {depth}: {len(rows)} rows, expected"
                            f" {oracles.farey_size(depth)}")
        if any(rows[i][0] >= rows[i + 1][0] for i in range(len(rows) - 1)):
            problems.append(f"order {depth}: x not strictly increasing")
        lines = text.splitlines()
        if len(lines) != len(rows) + 1:
            problems.append(f"order {depth}: {len(lines)} CSV lines")
            return problems
        for k in range(1, 8):
            i = k * (len(rows) - 1) // 8
            x, g = rows[i]
            want = geval.g_finite_series(lam, oracles.cf_quotients(x.numerator,
                                                                   x.denominator))
            if g != want:
                problems.append(f"order {depth}: g({x}) differs from the series")
            if lam is geval.LambdaKind.HALF and g != geval.question_mark(x):
                problems.append(f"order {depth}: g({x}) differs from ?(x)")
            if _parse_exact(lam, lines[i + 1].split(",")[2]) != g:
                problems.append(f"order {depth}: row {i} does not re-parse")
        return problems

    def run_point(self, lam, p, q, mode, seq):
        if mode == "mediant":
            value = geval.g_mediant(lam, Fraction(p, q))
        else:  # `dtu eval --x-is-cf`, which also computes x from the quotients
            value = geval.g_finite_series(lam, seq)
            cf.value_of(seq)
        return value, f"{encode.exact_str(value)}\n{encode.decimal_str(value)}\n"

    def check_point(self, out, lam, p, q, mode, seq):
        value, text = out
        x = Fraction(p, q)
        other = (geval.g_finite_series(lam, seq) if mode == "mediant"
                 else geval.g_mediant(lam, x))
        problems = []
        if value != other:
            problems.append(f"g({x}) by {mode} differs from the other evaluator")
        if lam is geval.LambdaKind.HALF and value != geval.question_mark(x):
            problems.append(f"g({x}) at weight 1/2 differs from ?(x)")
        if _parse_exact(lam, text.splitlines()[0]) != value:
            problems.append(f"g({x}) exact string does not re-parse")
        return problems


# -- extremal-search ------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def word_counts(n: int, limit: int = 4_000_000) -> tuple:
    """(S, |M(n, S)|) for S from the floor 3n/2 until the count passes limit."""
    out = []
    s = 3 * n // 2
    while True:
        count = oracles.count_words(n, s)
        out.append((s, count))
        if count > limit:
            return tuple(out)
        s += 1


def _render_extremal(n, s, o, mode, seq, value, extra=None) -> str:
    """The JSON document `dtu extremal` prints."""
    payload = {"n": n, "s": s, "orientation": o.value, "mode": mode,
               "sequence": encode.seq_str(seq), "certified": True,
               "value_exact": str(value),
               "value_decimal": encode.decimal_str(Fraction(value))}
    payload.update(extra or {})
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class ExtremalSearch(Workload):
    name = "extremal-search"
    trace_cycles = 15
    expected = ("extremal.brute_extrema", "extremal.count_words",
                "extremal.min_construct", "extremal.max_construct",
                "extremal.normalize_m4", "extremal.reduce_m3",
                "variation.is_abs_increasing_12", "cf.continuant",
                "cf.weighted_sum", "cf.check_quotients", "encode.decimal_str")
    MAX_CLASSES = ("greedy", "mid", "high-even", "high-odd")

    def __init__(self, seed):
        super().__init__(seed)
        self.brute = {n: self.spread() for n in (6, 8, 10)}
        self.small = self.spread()
        self.length = {k: self.spread() for k in self.MAX_CLASSES}
        self.pair_sum = {k: self.spread(_SILVER) for k in self.MAX_CLASSES}
        self.min_length = self.spread()
        self.min_sum = self.spread(_SILVER)

    def _max_job(self, kind, c, rng):
        # per-pair sum 2S/n: below 8 greedy; [8, 9] two-value blocks; above 9
        # the high three-value shape, whose odd remainder adds a special block
        # and costs about n^3 (4 s at n = 400), so that branch stops at n = 200
        # and draws n uniformly: single multi-second jobs made runs unsteady
        w = self.length[kind](c)
        m = round(20 + 80 * w) if kind == "high-odd" else round(log_between(20, 200, w))
        v = self.pair_sum[kind](c)
        if kind == "greedy":
            s = 3 * m + pick(5 * m, v)
        elif kind == "mid":
            s = 8 * m + pick(m + 1, v)
        elif kind == "high-even":
            s = 9 * m + 2 * (1 + pick(m, v))
        else:
            s = 9 * m + 2 * pick(m, v) + 1
        return Job("max", (2 * m, s, alternate(c + self.MAX_CLASSES.index(kind))))

    def cycle(self, c):
        rng = self.rng(c)
        brute = []
        for k, n in enumerate((6, 8, 10)):
            # cost grows with the word count: uniform in [1e4, 3e5], for the
            # same reason as above
            target = 1e4 + 2.9e5 * self.brute[n](c)
            s = next(s for s, count in word_counts(n) if count >= target)
            brute.append(Job("brute", (n, s, alternate(c + k))))
        n_small = (6, 8, 10)[c % 3]
        small_sums = [s for s, count in sorted(word_counts(n_small), key=lambda p: p[1])
                      if 1000 <= count <= 10_000]
        small = Job("brute", (n_small, small_sums[pick(len(small_sums), self.small(c))],
                              alternate(c // 3)))
        maxes = [self._max_job(kind, c, rng) for kind in self.MAX_CLASSES]
        m = round(log_between(20, 200, self.min_length(c)))
        minimum = Job("min", (2 * m, 3 * m + pick(9 * m + 1, self.min_sum(c)), alternate(c)))
        reduces = []
        for _ in range(2):
            o = rng.choice((PHI, TAU))
            word = tuple(rng.randint(1, 14) if oracles.weight(i, o is PHI) == 1
                         else rng.randint(1, 7)
                         for i in range(1, 2 * rng.randint(4, 10) + 1))
            reduces.append(Job("reduce", (word, o)))
        return [brute[0], maxes[0], reduces[0], brute[1], maxes[1], minimum,
                brute[2], maxes[2], reduces[1], small, maxes[3]]

    def run_brute(self, n, s, o):
        res = extremal.brute_extrema(extremal.ExtremalInstance(n, s, o))
        text = _render_extremal(n, s, o, "brute", res.max_seq, res.max_value,
                                {"count": res.count,
                                 "min_sequence": encode.seq_str(res.min_seq),
                                 "min_value_exact": str(res.min_value)})
        return res, text

    def check_brute(self, out, n, s, o):
        res, _ = out
        phi = o is PHI
        problems = []
        for seq, value in ((res.min_seq, res.min_value), (res.max_seq, res.max_value)):
            if len(seq) != n or oracles.weighted_sum(seq, phi) != s or \
                    oracles.continuant(seq) != value:
                problems.append(f"({n},{s},{o.value}): word {seq} does not match"
                                f" value {value} or lies outside M(n,S)")
        if res.count != oracles.count_words(n, s):
            problems.append(f"({n},{s}): count {res.count} is wrong")
        if res.count <= 10_000:
            naive = oracles.naive_extrema(n, s, phi)
            if naive != (res.min_value, res.min_seq, res.max_value, res.max_seq,
                         res.count):
                problems.append(f"({n},{s},{o.value}): differs from naive enumeration")
        inst = extremal.ExtremalInstance(n, s, o)
        built_min = oracles.continuant(extremal.min_construct(inst))
        if not res.min_value <= built_min <= 8 * res.min_value:
            problems.append(f"({n},{s}): min_construct {built_min} outside"
                            f" [min, 8 min] of {res.min_value}")
        if s >= 4 * n:  # per-pair sum >= 8: the certified balanced construction
            built_max = oracles.continuant(extremal.max_construct(inst).sequence)
            if not built_max <= res.max_value <= 8 * built_max:
                problems.append(f"({n},{s}): max_construct {built_max} outside"
                                f" the factor-8 sandwich of {res.max_value}")
        return problems

    def run_max(self, n, s, o):
        built = extremal.max_construct(extremal.ExtremalInstance(n, s, o))
        value = cf.continuant(built.sequence)
        return built, _render_extremal(n, s, o, "max", built.sequence, value,
                                       {"certified": built.certified})

    def check_max(self, out, n, s, o):
        built, _ = out
        seq = built.sequence
        problems = []
        if len(seq) != n or min(seq) < 1 or oracles.weighted_sum(seq, o is PHI) != s:
            problems.append(f"max ({n},{s},{o.value}): word outside M(n,S)")
        if built.certified != (s >= 4 * n):
            problems.append(f"max ({n},{s}): certified flag {built.certified}")
        low = extremal.min_construct(extremal.ExtremalInstance(n, s, o))
        if oracles.continuant(seq) < oracles.continuant(low):
            problems.append(f"max ({n},{s}): below min_construct")
        return problems

    def run_min(self, n, s, o):
        seq = extremal.min_construct(extremal.ExtremalInstance(n, s, o))
        return seq, _render_extremal(n, s, o, "min", seq, cf.continuant(seq))

    def check_min(self, out, n, s, o):
        seq, text = out
        problems = []
        if len(seq) != n or min(seq) < 1 or oracles.weighted_sum(seq, o is PHI) != s:
            problems.append(f"min ({n},{s},{o.value}): word outside M(n,S)")
        if int(json.loads(text)["value_exact"]) != oracles.continuant(seq):
            problems.append(f"min ({n},{s}): rendered value is not the continuant")
        return problems

    def run_reduce(self, word, o):
        narrowed = extremal.normalize_m4(word, o)
        return narrowed, extremal.reduce_m3(narrowed, o)

    def check_reduce(self, out, word, o):
        narrowed, reduced = out
        phi = o is PHI
        s = oracles.weighted_sum(word, phi)
        problems = []
        classes = ([a for i, a in enumerate(narrowed, 1) if oracles.weight(i, phi) == w]
                   for w in (1, 2))
        if len(narrowed) != len(word) or oracles.weighted_sum(narrowed, phi) != s or \
                any(max(vals) - min(vals) > 1 for vals in classes):
            problems.append(f"normalize_m4{word}: not a window form of M(n,S)")
        seq = reduced.sequence
        if oracles.weighted_sum(seq, phi) != s or \
                oracles.continuant(seq) < oracles.continuant(narrowed):
            problems.append(f"reduce_m3{narrowed}: sum changed or continuant fell")
        if reduced.certified and reduced.shape is None:
            problems.append(f"reduce_m3{narrowed}: certified without a shape")
        return problems

    def final_checks(self):
        inst = extremal.ExtremalInstance(4, 16)
        problems = []
        if extremal.brute_extrema(inst).min_value != 15:
            problems.append("(4,16) brute-force minimum is not 15")
        built = extremal.max_construct(inst).sequence
        if built != (4, 2, 4, 2) or oracles.continuant(built) != 89:
            problems.append(f"(4,16) max_construct gave {built}, not 4,2,4,2 = 89")
        return problems


WORKLOADS = {cls.name: cls for cls in (Kappa2Deep, ClassifyMany, FareyTable,
                                       ExtremalSearch)}
