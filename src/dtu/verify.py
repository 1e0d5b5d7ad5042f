"""Self-verification suite: reruns the computable claims behind the classifier
and the threshold bracket, and renders a pass/fail report."""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import cf
from .cf import Orientation, PeriodicCF
from .classify import (_STEP, Classification, KappaBracket, _family_sum,
                       classify, kappa, kappa2_bracket)
from .encode import fraction_str, seq_str
from .errors import CapExceededError
from .golden import GoldenScalar

_SEED = 0x5F3759
_EPS = Fraction(1, 500)  # the threshold bracket's width is at most 2 * _EPS
_DEEP_EPS = Fraction(1, 10 ** 40)  # the bracket of the kappa2 digits row
_DIGITS_MIN = 30  # certified significant digits of kappa2 that the row needs
_FAMILY_M, _FAMILY_ALPHA = 400, Fraction(11, 20)  # alpha * m must be integral


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: str
    observed: str
    passed: bool

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]
    bracket: KappaBracket

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _random_word(rng: random.Random, pairs: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(rng.randint(lo, hi) for _ in range(2 * pairs))


def random_low_sum_word(rng: random.Random) -> tuple[int, ...]:
    """A random period of 1 to 6 pairs with per-pair weighted sum below 4.

    Built constructively: all ones, then a random sub-budget of n/2 - 1 extra
    units spent on positions (weight-1 bumps cost 1, weight-2 bumps cost 2),
    which keeps the weighted sum below 2n.
    """
    pairs = rng.randint(1, 6)
    n = 2 * pairs
    word = [1] * n
    budget = rng.randint(0, n // 2 - 1) if n >= 4 else 0
    while budget > 0:
        pos = rng.randrange(n)
        cost = 2 if pos % 2 == 1 else 1  # 0-based: odd index is weight-2
        if cost <= budget:
            word[pos] += 1
            budget -= cost
        elif budget == 1:
            word[rng.randrange(pairs) * 2] += 1
            budget = 0
    return tuple(word)


def verify_suite() -> VerifyReport:
    """Run every verification check and collect one row per check."""
    checks: list[CheckResult] = []

    def record(name: str, expected: str, observed: str, passed: bool):
        checks.append(CheckResult(name, expected, observed, passed))

    # 1. the four pinned single-period verdicts
    pinned = [((7, 4), Classification.DERIV_ZERO),
              ((7, 3), Classification.DERIV_INFINITY),
              ((1, 2), Classification.DERIV_INFINITY),
              ((1, 3), Classification.DERIV_ZERO)]
    for period, expected in pinned:
        got = classify(PeriodicCF((), period))
        record(f"witness-{seq_str(period).replace(',', '-')}",
               expected.value, got.value, got is expected)

    # 2. every even period over {1, 2} up to length 10 -> infinite derivative
    bad = 0
    total = 0
    for length in range(2, 11, 2):
        for word in itertools.product((1, 2), repeat=length):
            total += 1
            if classify(PeriodicCF((), word)) is not Classification.DERIV_INFINITY:
                bad += 1
    record("bounded-by-two-periods", f"all {total} DerivInfinity",
           f"{total - bad}/{total} DerivInfinity", bad == 0)

    # 3. random words with per-pair sum below 4 -> infinite derivative
    rng = random.Random(_SEED)
    words = [random_low_sum_word(rng) for _ in range(200)]
    if not all(kappa(w, Orientation.PHI) < 4 for w in words):
        raise AssertionError("a low-sum word has a per-pair sum of 4 or more")
    bad = sum(1 for w in words
              if classify(PeriodicCF((), w)) is not Classification.DERIV_INFINITY)
    record("low-sum-words", "200/200 DerivInfinity",
           f"{200 - bad}/200 DerivInfinity", bad == 0)

    # 4. sparse-tail family member: period 1^(2m-1), alpha*m + 1
    m, alpha = _FAMILY_M, _FAMILY_ALPHA
    eps_cond = alpha - Fraction(1, 2)
    cond_ok = eps_cond > 0 and GoldenScalar.phi_power(int(m * eps_cond)) >= 3 * m
    word = (1,) * (2 * m - 1) + (int(alpha * m) + 1,)
    got = classify(PeriodicCF((), word))
    kap = kappa(word, Orientation.PHI)
    record("sparse-tail-family",
           f"DerivZero at kappa {fraction_str(3 + 2 * alpha)} (side conditions hold)",
           f"{got.value} at kappa {fraction_str(kap)}"
           f" (side conditions {'hold' if cond_ok else 'violated'})",
           got is Classification.DERIV_ZERO and kap == 3 + 2 * alpha and cond_ok)

    # 5. orientation duality on random even periods
    rng2 = random.Random(_SEED + 1)
    dual_bad = 0
    for _ in range(100):
        word = _random_word(rng2, rng2.randint(1, 5), 1, 9)
        tau_side = classify(PeriodicCF((), word), Orientation.TAU)
        phi_side = classify(PeriodicCF((), cf.reverse(word)), Orientation.PHI)
        if tau_side is not phi_side:
            dual_bad += 1
    record("orientation-duality", "100/100 agree",
           f"{100 - dual_bad}/100 agree", dual_bad == 0)

    # 6. the threshold bracket
    bracket = kappa2_bracket(_EPS)
    lo_cls = classify(bracket.witness_lo)
    hi_cls = classify(bracket.witness_hi)
    structural = (bracket.hi - bracket.lo <= 2 * _EPS
                  and lo_cls is Classification.DERIV_INFINITY
                  and hi_cls is Classification.DERIV_ZERO)
    record("threshold-bracket",
           f"enclosure width <= {fraction_str(2 * _EPS)},"
           f" witnesses DerivInfinity/DerivZero",
           f"[{_sum_per_pairs(bracket.density_lo)},"
           f" {_sum_per_pairs(bracket.density_hi)}] width"
           f" {fraction_str(bracket.hi - bracket.lo)},"
           f" witnesses {lo_cls.value}/{hi_cls.value}",
           structural)

    # 7. kappa2's certified digits, from a deeper bracket nested in the first
    deep = kappa2_bracket(_DEEP_EPS)
    digits = common_decimal_prefix(deep.lo, deep.hi)
    count = sum(c.isdigit() for c in digits)
    quotients = common_cf_prefix(deep.density_lo, deep.density_hi)
    record("kappa2-digits",
           f">= {_DIGITS_MIN} certified digits at eps 1e-40,"
           f" bracket nested in threshold-bracket",
           f"kappa2 = {digits}... ({count} digits),"
           f" d* = (kappa2 - 13)/2 = [0; {', '.join(map(str, quotients))}, ...]"
           f" ({len(quotients)} quotients)",
           count >= _DIGITS_MIN and bracket.lo <= deep.lo < deep.hi <= bracket.hi)

    return VerifyReport(tuple(checks), bracket)


def _sum_per_pairs(density: Fraction) -> str:
    """The weighted sum of the kappa2 family's word of density p/q over its
    q pairs, as the unreduced text S/q."""
    p, q = density.numerator, density.denominator
    return f"{_family_sum(p, q)}/{q}"


def common_decimal_prefix(lo: Fraction, hi: Fraction) -> str:
    """The leading decimal digits shared by every number in [lo, hi], for
    0 <= lo < hi: lo cut at the most places m for which floor(10^m x) is one
    integer on the whole interval, without a trailing point; "" when the
    integer parts differ.  The loop ends because 10^m (hi - lo) reaches 1."""
    def cut(x: Fraction, m: int) -> int:
        return x.numerator * 10 ** m // x.denominator

    if cut(lo, 0) != cut(hi, 0):
        return ""
    m = 0
    while cut(lo, m + 1) == cut(hi, m + 1):
        m += 1
    digits = str(cut(lo, m)).zfill(m + 1)
    return digits[:-m] + "." + digits[-m:] if m else digits


def common_cf_prefix(lo: Fraction, hi: Fraction) -> tuple[int, ...]:
    """The leading partial quotients shared by every number in [lo, hi]
    within (0, 1).

    Numbers whose expansion continues past a_1..a_n form an interval, so a
    prefix both endpoints share and continue past is shared by all between.
    """
    a, b = cf.cf_of(lo), cf.cf_of(hi)
    n = 0
    while n < min(len(a), len(b)) - 1 and a[n] == b[n]:
        n += 1
    return a[:n]


def report_markdown(report: VerifyReport) -> str:
    lines = ["# Verification report", "",
             "| check | expected | observed | status |",
             "|---|---|---|---|"]
    for c in report.checks:
        lines.append(f"| {c.name} | {c.expected} | {c.observed} | {c.status} |")
    lines.append("")
    b = report.bracket
    lines += [
        "## Threshold enclosure",
        "",
        f"- lower endpoint: {_sum_per_pairs(b.density_lo)}"
        f" = {fraction_str(b.lo)} (witness period `{seq_str(b.witness_lo.period)}`,"
        f" derivative +infinity)",
        f"- upper endpoint: {_sum_per_pairs(b.density_hi)}"
        f" = {fraction_str(b.hi)} (witness period `{seq_str(b.witness_hi.period)}`,"
        f" derivative 0)",
        f"- bisection steps: {len(b.trace)}",
        "",
    ]
    lines.append(f"Overall: {'PASS' if report.passed else 'FAIL'}")
    lines.append("")
    return "\n".join(lines)


def report_json(report: VerifyReport) -> str:
    payload = {
        "checks": [{"name": c.name, "expected": c.expected,
                    "observed": c.observed, "status": c.status}
                   for c in report.checks],
        "passed": report.passed,
        "kappa2": kappa2_payload(report.bracket),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def kappa2_payload(bracket: KappaBracket) -> dict:
    """The enclosure's endpoints, witnesses and step count, encoded.

    A witness that the bracket builds is its period, under witness_lo or
    witness_hi; one past the bracket's cap, which it refuses to build, is its
    density p/q, under witness_lo_density or witness_hi_density.
    """
    payload = {"lo": fraction_str(bracket.lo), "hi": fraction_str(bracket.hi),
               "steps": len(bracket.trace)}
    for side, density in (("lo", bracket.density_lo), ("hi", bracket.density_hi)):
        try:
            witness = getattr(bracket, "witness_" + side)
        except CapExceededError:
            payload[f"witness_{side}_density"] = fraction_str(density)
        else:
            payload["witness_" + side] = seq_str(witness.period)
    return payload


def _fraction_text(num: int, den: int) -> str:
    """fraction_str of num/den, for coprime num and den > 0."""
    return f"{num}/{den}" if den != 1 else str(num)


def trace_json(bracket: KappaBracket) -> str:
    """The steps as the JSON list of objects {classification, density, kappa,
    period_length, step}, in the bytes of json.dumps(rows, sort_keys=True,
    indent=2) + "\\n".

    The rows are written from each step's p/q, in lowest terms: kappa =
    S/q for the family sum S = base q + step p, whose terms share only
    gcd(step p, q) = gcd(step, q), and the period has 2q quotients.  No
    value needs escaping.
    """
    rows = []
    for s in bracket.trace:
        p, q = s.p, s.q
        g = gcd(_STEP, q)
        rows.append(f'  {{\n    "classification": "{s.classification.value}",\n'
                    f'    "density": "{_fraction_text(p, q)}",\n'
                    f'    "kappa": "{_fraction_text(_family_sum(p, q) // g, q // g)}",\n'
                    f'    "period_length": {2 * q},\n'
                    f'    "step": {s.step}\n  }}')
    if not rows:
        return "[]\n"
    return "[\n" + ",\n".join(rows) + "\n]\n"
