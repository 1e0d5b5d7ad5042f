"""End-to-end CLI behavior: outputs, exit codes, determinism, round trips."""

import hashlib
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import dtu
from dtu import cf
from dtu.classify import (CLASSIFY_QUOTIENT_SUM_MAX, WITNESS_QUOTIENTS_MAX,
                          c734_word, kappa2_bracket)
from dtu.cli import main
from dtu.encode import (decimal_str, parse_fraction, parse_golden, parse_seq,
                        parse_surd)
from dtu.errors import InputError
from dtu.extremal import EXTREMAL_LENGTH_MAX, ExtremalInstance
from dtu.geval import (EVAL_QUOTIENT_SUM_MAX, EVAL_QUOTIENTS_MAX, LambdaKind,
                       g_mediant, question_mark, sample_farey)
from dtu.verify import report_markdown, verify_suite


# byte-exact CLI outputs recorded before verdicts were decided in integers
# (kappa2_eps1e-6*: before period matrices became balanced products;
# extremal_max_*: before balanced_max scored rotations by block products;
# kappa2_eps1e-7*: before the kappa2 descent built words by concatenation;
# kappa2_eps1e-8*: before the kappa2 descent decided steps from node matrices;
# eval_cf_*, verify_report.*: before `eval --x-is-cf` went through g_mediant
# and the verify report lost its optional bracket; verify_report.* again
# when the kappa2-digits row was added, every earlier row unchanged;
# kappa2_eps1e-15*: from the first descent on outward-rounded node
# matrices, which an exact descent cannot reach; kappa2_eps1e-40*,
# kappa2_eps1e-100*: while that descent still enclosed phi^S by powering
# an enclosure of phi, before nodes carried an enclosure of F^S)
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_text(capsys):
    code, out, _ = run(capsys, "eval", "--lambda", "phi-inv", "--x", "2/5")
    assert code == 0
    exact, decimal = out.strip().split("\n")
    assert exact == "7-4*phi"
    assert decimal.startswith("0.5278640450")
    assert parse_golden(exact) == g_mediant(LambdaKind.PHI_INV, Fraction(2, 5))


def test_eval_json_round_trip(capsys):
    code, out, _ = run(capsys, "eval", "--lambda", "half", "--x", "2/5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert parse_fraction(payload["exact"]) == Fraction(3, 8)


def test_eval_cf_input(capsys):
    code, out, _ = run(capsys, "eval", "--lambda", "tau", "--x", "2",
                       "--x-is-cf")
    assert code == 0
    assert out.splitlines()[0] == "2-1*phi"


@pytest.mark.parametrize("lam", ["half", "phi-inv", "tau", "2/7"])
def test_eval_cf_output_is_pinned(capsys, lam):
    # a non-canonical sequence: [0; 3,2,4,1] = [0; 3,2,5] = 11/38
    stem = "eval_cf_" + lam.replace("/", "_")
    for fmt, ext in (("text", "txt"), ("json", "json")):
        code, out, _ = run(capsys, "eval", "--lambda", lam, "--x", "3,2,4,1",
                           "--x-is-cf", "--format", fmt)
        assert code == 0
        assert out == (GOLDEN / f"{stem}.{ext}").read_text()


def test_sample_csv(capsys):
    code, out, _ = run(capsys, "sample", "--lambda", "half", "--depth", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x_num,x_den,g_exact,g_decimal"
    rows = [line.split(",") for line in lines[1:]]
    xs = [Fraction(int(r[0]), int(r[1])) for r in rows]
    assert xs == sorted(xs)
    assert xs[0] == 0 and xs[-1] == 1
    third = next(r for r in rows if (r[0], r[1]) == ("1", "3"))
    assert parse_fraction(third[2]) == Fraction(1, 4)
    assert len(third[3].replace(".", "").lstrip("0")) >= 30


def test_sample_decimals_are_positive_with_30_significant_digits(capsys):
    # g_tau maps [0, 1] onto itself; at x = 1/200 it is about 6.7e-84
    code, out, _ = run(capsys, "sample", "--lambda", "tau", "--depth", "200")
    assert code == 0
    decimals = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
    assert len(decimals) == 12233
    assert not [d for d in decimals if d.startswith("-")]
    digits = {len(d.split("E")[0].replace(".", "").lstrip("0")) for d in decimals[1:]}
    assert decimals[0] == "0." + "0" * 29 and digits == {30}
    assert decimals[1] == "6.65149364539833850630871698042E-84"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--period", "7,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "DerivZero"
    assert payload["kappa"] == "15"
    assert parse_surd(payload["growth_rate_exact"]).compare(
        parse_surd("(15+4*sqrt(14))/1")) == 0
    assert payload["certificate"]["sign"] == -1
    code, out, _ = run(capsys, "classify", "--period", "7,3",
                       "--preperiod", "2,1", "--orientation", "phi")
    assert json.loads(out)["classification"] == "DerivInfinity"


@pytest.mark.parametrize("argv, expected", [
    (["--period", "7,4"], "classify_7_4.json"),
    (["--period", "4,4"], "classify_4_4.json"),
    (["--period", "1,3,1,2", "--orientation", "tau"], "classify_1_3_1_2_tau.json"),
])
def test_classify_output_is_pinned(capsys, argv, expected):
    code, out, _ = run(capsys, "classify", *argv)
    assert code == 0
    assert out == (GOLDEN / expected).read_text()


def test_extremal_modes(capsys):
    code, out, _ = run(capsys, "extremal", "--n", "4", "--s", "16",
                       "--mode", "brute")
    payload = json.loads(out)
    assert code == 0
    assert payload["sequence"] == "4,2,4,2"
    assert payload["value_exact"] == "89"
    assert payload["min_sequence"] == "1,6,1,1"
    assert payload["certified"] is True
    code, out, _ = run(capsys, "extremal", "--n", "4", "--s", "16",
                       "--mode", "min")
    assert json.loads(out)["sequence"] == "1,6,1,1"
    code, out, _ = run(capsys, "extremal", "--n", "4", "--s", "16",
                       "--mode", "max")
    assert json.loads(out)["sequence"] == "4,2,4,2"


@pytest.mark.parametrize("n, s, o", [(n, s, o) for n, s in ((400, 3401), (200, 1701))
                                     for o in ("phi", "tau")])
def test_extremal_max_output_is_pinned(capsys, n, s, o):
    # odd remainders in the high shape: the auxiliary block's placement
    code, out, _ = run(capsys, "extremal", "--n", str(n), "--s", str(s),
                       "--orientation", o, "--mode", "max")
    assert code == 0
    assert out == (GOLDEN / f"extremal_max_{n}_{s}_{o}.json").read_text()


def test_kappa2_command(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code, out, _ = run(capsys, "kappa2", "--epsilon", "1/500",
                       "--trace", str(trace_path))
    assert code == 0
    payload = json.loads(out)
    assert parse_fraction(payload["lo"]) == 13 + Fraction(2, 38)
    assert parse_fraction(payload["hi"]) == 13 + Fraction(2, 37)
    assert parse_seq(payload["witness_lo"]) == (7, 3) * 37 + (7, 4)
    steps = json.loads(trace_path.read_text())
    assert len(steps) == payload["steps"] <= 12
    assert {"step", "density", "period_length", "kappa",
            "classification"} <= set(steps[0])
    assert out == (GOLDEN / "kappa2.json").read_text()
    assert trace_path.read_text() == (GOLDEN / "kappa2_trace.json").read_text()


@pytest.mark.parametrize("epsilon, stem, longest", [
    ("1/1000000", "kappa2_eps1e-6", 5026),
    ("1/10000000", "kappa2_eps1e-7", 17480),
    ("1/100000000", "kappa2_eps1e-8", 48914),
    ("1/1000000000000000", "kappa2_eps1e-15", 170503932),
    ("1/1" + "0" * 40, "kappa2_eps1e-40", 340965696674201284616),
    ("1/1" + "0" * 100, "kappa2_eps1e-100",
     539559784712096233128114649791996899469105636453524),
], ids=["1e-6", "1e-7", "1e-8", "1e-15", "1e-40", "1e-100"])
def test_deep_kappa2_output_is_pinned(tmp_path, capsys, epsilon, stem, longest):
    # a descent of about 2 log2(1/eps) steps; the witnesses of thousands of
    # quotients are printed whole, those at 1e-15 (over 6e7) as densities
    trace_path = tmp_path / "trace.json"
    code, out, _ = run(capsys, "kappa2", "--epsilon", epsilon,
                       "--trace", str(trace_path))
    assert code == 0
    assert max(step["period_length"]
               for step in json.loads(trace_path.read_text())) == longest
    assert out == (GOLDEN / f"{stem}.json").read_text()
    assert trace_path.read_text() == (GOLDEN / f"{stem}_trace.json").read_text()


def test_kappa2_prints_long_witnesses_as_densities(capsys):
    code, out, _ = run(capsys, "kappa2", "--epsilon", "1/1000000000000000")
    assert code == 0
    payload = json.loads(out)
    assert "witness_lo" not in payload and "witness_hi" not in payload
    for side in ("lo", "hi"):
        density = parse_fraction(payload[f"witness_{side}_density"])
        assert 2 * density.denominator > WITNESS_QUOTIENTS_MAX
        assert parse_fraction(payload[side]) == 13 + 2 * density
    # at 1e-9 the lower witness (80,348 quotients) is printed, the upper
    # one (129,262) is not
    code, out, _ = run(capsys, "kappa2", "--epsilon", "1/1000000000")
    payload = json.loads(out)
    assert len(parse_seq(payload["witness_lo"])) == 80348
    assert payload["witness_hi_density"] == "1723/64631"
    assert "witness_lo_density" not in payload and "witness_hi" not in payload


def test_kappa2_below_the_eps_floor_exits_2(capsys):
    code, out, err = run(capsys, "kappa2", "--epsilon", "1/" + "1" + "0" * 101)
    assert code == 2 and out == ""
    assert "below the kappa2 floor 1e-100" in err


def test_exit_codes(capsys):
    # usage errors -> 1
    code, _, err = run(capsys, "eval", "--lambda", "nope", "--x", "1/2")
    assert code == 1
    code, _, err = run(capsys, "eval", "--lambda", "half", "--x", "3/2")
    assert code == 1
    # infeasible instance -> 2
    code, _, err = run(capsys, "extremal", "--n", "4", "--s", "5",
                       "--mode", "min")
    assert code == 2
    # cap exceeded -> 2
    code, _, err = run(capsys, "extremal", "--n", "12", "--s", "120",
                       "--mode", "brute")
    assert code == 2
    # the cap check itself is quick at n = 2000 (the sum has 13,501 terms)
    code, _, err = run(capsys, "extremal", "--n", "2000", "--s", "30000",
                       "--mode", "brute")
    assert code == 2
    # the word count is a closed sum: 1.1e12 words are counted, not visited
    code, _, err = run(capsys, "extremal", "--n", "4", "--s", "30000",
                       "--mode", "brute")
    assert code == 2
    assert "1124662532499 words exceed the cap" in err
    # so is a target sum over its cap, whatever the mode
    code, out, err = run(capsys, "extremal", "--n", "4", "--s", "2000000",
                         "--mode", "max")
    assert code == 2 and out == ""
    assert err == "error: target sum exceeds cap 1000000\n"
    with pytest.raises(SystemExit):
        main(["eval", "--help"])


_CLASSIFY_CAP, _EVAL_CAP = CLASSIFY_QUOTIENT_SUM_MAX, EVAL_QUOTIENT_SUM_MAX
_LENGTH_CAP = EXTREMAL_LENGTH_MAX


@pytest.mark.parametrize("at_cap, over_cap, message", [
    # the period's quotient sum; an odd period counts twice, as it is doubled
    (["classify", "--period", f"{_CLASSIFY_CAP - 2},2"],
     ["classify", "--period", f"{_CLASSIFY_CAP - 1},2"],
     f"the quotient sum of the period exceeds the cap {_CLASSIFY_CAP}"),
    (["classify", "--period", str(_CLASSIFY_CAP // 2)],
     ["classify", "--period", str(_CLASSIFY_CAP // 2 + 1)],
     "the quotient sum of the doubled period exceeds"),
    # the partial quotients of x: their number, and their sum, which a
    # rational weight p/q scales by the bits of q
    (["eval", "--lambda", "tau", "--x", ",".join(["1"] * EVAL_QUOTIENTS_MAX),
      "--x-is-cf"],
     ["eval", "--lambda", "tau", "--x", ",".join(["1"] * (EVAL_QUOTIENTS_MAX + 1)),
      "--x-is-cf"],
     f"x has more than {EVAL_QUOTIENTS_MAX} partial quotients"),
    (["eval", "--lambda", "phi-inv", "--x", f"1/{_EVAL_CAP}"],
     ["eval", "--lambda", "phi-inv", "--x", f"1/{_EVAL_CAP + 1}"],
     f"the partial quotients of x sum past the cap {_EVAL_CAP}"),
    (["eval", "--lambda", "half", "--x", f"{_EVAL_CAP - 1},1", "--x-is-cf"],
     ["eval", "--lambda", "half", "--x", f"{_EVAL_CAP},1", "--x-is-cf"],
     f"the partial quotients of x sum past the cap {_EVAL_CAP}"),
    (["eval", "--lambda", "3/7", "--x", f"1/{_EVAL_CAP // 3}"],
     ["eval", "--lambda", "3/7", "--x", f"1/{_EVAL_CAP // 3 + 1}"],
     "each counted 3 times for lambda, sum past"),
    # the Farey order of sample, counted once per bit of q for a weight p/q:
    # a q of 1,024 bits allows depth 4
    (["sample", "--lambda", f"1/{2 ** 1023}", "--depth", "4"],
     ["sample", "--lambda", f"1/{2 ** 1023}", "--depth", "5"],
     f"depth 5, counted 1024 times for lambda, passes the cap {8 * 512}"),
    # the word length of --mode min|max; past the cap, per-pair sum 10 over
    # 257 pairs leaves the odd remainder whose balanced branch is cubic in
    # the pair count
    (["extremal", "--n", str(_LENGTH_CAP), "--s", "1000000", "--mode", "min"],
     ["extremal", "--n", str(_LENGTH_CAP + 2), "--s", "1000000", "--mode", "min"],
     f"length {_LENGTH_CAP + 2} exceeds the cap {_LENGTH_CAP} of --mode min"),
    (["extremal", "--n", str(_LENGTH_CAP), "--s", str(10 * _LENGTH_CAP),
      "--mode", "max"],
     ["extremal", "--n", str(_LENGTH_CAP + 2), "--s", str(5 * (_LENGTH_CAP + 2)),
      "--mode", "max"],
     f"length {_LENGTH_CAP + 2} exceeds the cap {_LENGTH_CAP} of --mode max"),
], ids=["classify-sum", "classify-odd", "eval-count", "eval-sum", "eval-cf-sum",
        "eval-rational-weight", "sample-rational-weight", "extremal-min",
        "extremal-max"])
def test_classify_and_eval_caps(capsys, at_cap, over_cap, message):
    code, out, _ = run(capsys, *at_cap)
    assert code == 0 and out
    start = time.perf_counter()
    code, out, err = run(capsys, *over_cap)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_eval_cap_stops_euclid_early(capsys):
    # x = F(n)/F(n+1) has n partial quotients 1: 130,000 bits, under the
    # sum cap, but Euclid would take seconds to list all 186,000 of them
    a, b = 0, 1
    for _ in range(187_000):
        a, b = b, a + b
    assert b.bit_length() <= _EVAL_CAP
    x = f"{Decimal(a)}/{Decimal(b)}"  # str() of ints this long is limited
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--lambda", "tau", "--x", x)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert f"x has more than {EVAL_QUOTIENTS_MAX} partial quotients" in err


@pytest.mark.parametrize("argv", [
    ["classify", "--period", "7,3", "--orientation", "sideways"],
    ["extremal", "--n", "4", "--s", "16", "--mode", "max",
     "--orientation", "sideways"],
])
def test_orientation_must_be_phi_or_tau(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and "sideways" in err


@pytest.mark.parametrize("argv", [
    ["classify", "--period", "7,,4"],
    ["classify", "--period", "7,4,"],
    ["classify", "--period", "7,3", "--preperiod", ",2"],
    ["eval", "--lambda", "half", "--x", ",7", "--x-is-cf"],
])
def test_empty_quotient_items_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error: malformed quotient sequence")


@pytest.mark.parametrize("argv", [
    ["classify", "--period", "1_0,+3"],
    ["classify", "--period", "\u0663,4"],
    ["classify", "--period", "7,3", "--preperiod", "+2"],
    ["eval", "--lambda", "half", "--x", "\u0663/\u0664"],
    ["eval", "--lambda", "+1/2", "--x", "2/5"],
    ["kappa2", "--epsilon", "\u0661/\u0663"],
])
def test_numbers_take_ascii_digits_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error: malformed")


@pytest.mark.parametrize("call", [
    lambda: parse_seq("1,x"),
    lambda: cf.check_quotients((1, 0)),
    lambda: g_mediant(Fraction(3, 2), Fraction(1, 2)),
    lambda: g_mediant(LambdaKind.HALF, Fraction(3, 2)),
    lambda: question_mark(Fraction(-1)),
    lambda: sample_farey(LambdaKind.HALF, 0),
    lambda: kappa2_bracket(Fraction(0)),
    lambda: ExtremalInstance(3, 10),
], ids=["parse_seq", "check_quotients", "weight", "x", "question_mark_x",
        "depth", "epsilon", "length"])
def test_input_checks_raise_input_error(call):
    with pytest.raises(InputError):
        call()


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # a ValueError from inside g_mediant is a fault of the program, so it
    # propagates instead of exiting 1 as "usage error"
    def broken(x):
        raise ValueError("internal fault")

    monkeypatch.setattr(cf, "cf_of", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["eval", "--lambda", "half", "--x", "2/5"])
    assert "usage error" not in capsys.readouterr().err


def test_construction_fault_is_not_a_usage_error(capsys, monkeypatch):
    # a constructed word holding a 0 is a fault of the construction: it
    # propagates instead of exiting 1 as "usage error"
    from dtu import extremal

    assemble = extremal._assemble
    monkeypatch.setattr(extremal, "_assemble",
                        lambda blocks: (0,) + assemble(blocks)[1:])
    with pytest.raises(AssertionError):
        main(["extremal", "--n", "200", "--s", "1701", "--mode", "max"])
    assert "usage error" not in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_deterministic_outputs(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "classify", "--period", "7,3,7,4")
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "sample", "--lambda", "phi-inv",
                           "--depth", "5")
        outs.append(out)
    assert outs[0] == outs[1]


# sha256 of outputs too large for tests/golden, recorded before compare
# became exact and both bounds methods shared one enclosure
@pytest.mark.parametrize("argv, digest", [
    (["sample", "--lambda", "half", "--depth", "200"],
     "3e622e3ac337a2f2851ef6b3867373d6a137afbf5c8931c88979d57975084457"),
    (["sample", "--lambda", "phi-inv", "--depth", "200"],
     "6be4dd034f09c7faf7a46ee0fb04c37a65853e24880d29c2d0c91d45eef9cad1"),
    (["sample", "--lambda", "tau", "--depth", "200"],
     "64661541ea8d417ccb9ee3bb94c8771ceb8d5f9382a6508e1c97ecbb037d9387"),
    # rational weights whose walk divides by b = 7 and b = 8
    (["sample", "--lambda", "3/7", "--depth", "120"],
     "f6252b7d8363f67f2cc8beeb7ae5b1b8f6d4528862b35df4e909ae8b72b793f2"),
    (["sample", "--lambda", "5/8", "--depth", "120"],
     "435e234b32bc567c3bdd244263770b316bcc962a9fcdff7f904bc18cb1454765"),
    # 2,446 quotients: the growth rate passes encode._BIG_BITS, so its
    # decimal comes from _big_decimal_str
    (["classify", "--period", "c734_word(400, 1223)"],
     "a35ac09625ec98a094d8e23c38e30d35616b347ab36048800f3e38305ff773bc"),
], ids=["sample-half", "sample-phi-inv", "sample-tau", "sample-3-7",
         "sample-5-8", "classify-c734"])
def test_large_outputs_are_pinned_by_hash(capsys, argv, digest):
    if argv[-1].startswith("c734_word"):
        word = c734_word(400, 1223)
        assert len(word) == 2446
        argv = argv[:-1] + [",".join(map(str, word))]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sample_rejects_a_weight_outside_0_1_before_its_caps(capsys):
    # the weight is checked first: past both caps it is still a usage error
    for lam in ("5/3", "1", "0"):
        code, out, err = run(capsys, "sample", "--lambda", lam, "--depth", "9000")
        assert (code, out) == (1, ""), lam
        assert err.startswith("usage error: rational weight must lie in (0, 1)"), lam


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("DTU_FAREY_DEPTH_CAP", "4")
    code, out, err = run(capsys, "sample", "--lambda", "half", "--depth", "64")
    assert code == 2 and out == ""
    assert err == "error: depth 64 exceeds cap 4\n"
    monkeypatch.setenv("DTU_BRUTE_CAP", "10")
    code, _, err = run(capsys, "extremal", "--n", "4", "--s", "16",
                       "--mode", "brute")
    assert code == 2
    # each verb reads only its own cap
    monkeypatch.setenv("DTU_BRUTE_CAP", "abc")
    code, out, err = run(capsys, "extremal", "--n", "4", "--s", "16",
                         "--mode", "brute")
    assert code == 1 and out == ""
    assert "DTU_BRUTE_CAP" in err
    # a malformed cap does not fail a verb that does not read it
    code, out, _ = run(capsys, "eval", "--lambda", "half", "--x", "1/3")
    assert code == 0 and out.startswith("1/4\n")
    code, out, _ = run(capsys, "extremal", "--n", "4", "--s", "16",
                       "--mode", "max")
    assert code == 0 and json.loads(out)["sequence"] == "4,2,4,2"
    monkeypatch.setenv("DTU_FAREY_DEPTH_CAP", "0")
    code, out, err = run(capsys, "sample", "--lambda", "half", "--depth", "3")
    assert code == 1 and out == ""
    assert "DTU_FAREY_DEPTH_CAP" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--lambda", "phi-inv", "--x", "2/5"],
    ["eval", "--lambda", "tau", "--x", "3,2,3", "--x-is-cf", "--format", "json"],
    ["sample", "--lambda", "phi-inv", "--depth", "6"],
    ["classify", "--period", "7,3", "--preperiod", "2,1"],
    ["extremal", "--n", "4", "--s", "16", "--mode", "min"],
    ["extremal", "--n", "6", "--s", "30", "--mode", "max", "--orientation", "tau"],
    ["extremal", "--n", "4", "--s", "16", "--mode", "brute"],
    ["kappa2", "--epsilon", "1/50"],
])
def test_output_file_holds_the_printed_document(tmp_path, capsys, argv):
    code, printed, _ = run(capsys, *argv)
    assert code == 0 and printed
    path = tmp_path / "out.txt"
    code, out, _ = run(capsys, *argv, "--output", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == printed


@pytest.mark.parametrize("lam", ["phi-inv", "3/7"])
def test_sample_output_file_holds_the_printed_bytes(tmp_path, capsys, lam):
    argv = ["sample", "--lambda", lam, "--depth", "120"]
    code, printed, _ = run(capsys, *argv)
    assert code == 0 and printed.count("\n") == 4388
    path = tmp_path / "table.csv"
    code, out, _ = run(capsys, *argv, "--output", str(path))
    assert (code, out) == (0, "")
    assert path.read_bytes() == printed.encode()


@pytest.mark.parametrize("argv, cap, exit_code", [
    (["--lambda", "half", "--depth", "64"], "4", 2),
    (["--lambda", f"1/{2 ** 1023}", "--depth", "5"], None, 2),
    (["--lambda", "5/3", "--depth", "10"], None, 1),
    (["--lambda", "nope", "--depth", "10"], None, 1),
    (["--lambda", "tau", "--depth", "0"], None, 1),
], ids=["depth-cap", "weighted-cap", "weight-outside-0-1", "bad-weight", "depth-0"])
def test_failed_sample_leaves_no_file(tmp_path, capsys, monkeypatch, argv, cap,
                                      exit_code):
    if cap:
        monkeypatch.setenv("DTU_FAREY_DEPTH_CAP", cap)
    path = tmp_path / "table.csv"
    code, out, err = run(capsys, "sample", *argv, "--output", str(path))
    assert (code, out) == (exit_code, "") and err
    assert not path.exists()


def _python(*args):
    """Run a fresh interpreter that imports this checkout's dtu."""
    src = str(Path(dtu.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_cli_import_leaves_numpy_out():
    # every CLI call pays its imports; numpy is a test dependency only
    proc = _python("-c", "import dtu.cli, sys; assert 'numpy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def _dtu_modules_after(statement: str) -> set[str]:
    """The dtu submodules that a fresh interpreter holds after `statement`."""
    code = ("import contextlib, io, sys\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    {statement}\n"
            "print(*sorted(m[4:] for m in sys.modules if m.startswith('dtu.')))")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_each_verb_loads_only_its_modules():
    assert _dtu_modules_after("import dtu.cli") == {"cli", "errors"}
    for argv in (["eval", "--lambda", "phi-inv", "--x", "2/5"],
                 ["eval", "--lambda", "tau", "--x", "3,2", "--x-is-cf"]):
        loaded = _dtu_modules_after(f"from dtu.cli import main; main({argv!r})")
        assert {"geval", "encode"} <= loaded
        assert not loaded & {"classify", "extremal", "variation", "verify"}
    loaded = _dtu_modules_after(
        "from dtu.cli import main; main(['classify', '--period', '1,2'])")
    assert "classify" in loaded
    assert not loaded & {"extremal", "variation", "verify"}
    loaded = _dtu_modules_after(
        "from dtu.cli import main; main(['kappa2', '--epsilon', '1/5'])")
    assert {"classify", "verify"} <= loaded
    assert not loaded & {"extremal", "variation"}


# the package's public names by defining module, as the package listed them
# when it imported every module eagerly
_PUBLIC = {
    "cf": ["Orientation", "PeriodicCF", "cf_of", "continuant", "periodic_value",
           "quotient_matrix", "reverse", "value_of", "weighted_sum"],
    "classify": ["Classification", "KappaBracket", "classify",
                 "classify_verdict", "growth_rate", "kappa", "kappa2_bracket"],
    "extremal": ["ExtremalInstance", "balanced_max", "brute_extrema",
                 "max_construct", "min_construct"],
    "geval": ["CertifiedInterval", "LambdaKind", "g_finite_series",
              "g_interval", "g_mediant", "question_mark", "sample_farey"],
    "golden": ["PHI", "GoldenScalar"],
    "surd": ["QuadraticSurd", "compare_values"],
}

_API_CHECK = """
import contextlib, importlib, io, sys
with contextlib.redirect_stdout(io.StringIO()):
    {prelude}
import dtu
public = {public!r}
assert dtu.__all__ == sorted(n for names in public.values() for n in names)
assert dtu.__version__ == "0.1.0"
for module, names in public.items():
    home = importlib.import_module("dtu." + module)
    for name in names:
        assert getattr(dtu, name) is getattr(home, name), name
namespace = {{}}
exec("from dtu import *", namespace)
assert set(namespace) - {{"__builtins__"}} == set(dtu.__all__)
assert set(dtu.__all__) <= set(dir(dtu))
from dtu import classify
assert callable(classify) and classify.__module__ == "dtu.classify"
"""


@pytest.mark.parametrize("prelude", [
    "pass",
    "import dtu.cli",
    "from dtu.cli import main; main(['classify', '--period', '7,4'])",
    "importlib.import_module('dtu.classify')",
    "import dtu.classify",
], ids=["fresh", "cli", "classify-verb", "import_module", "import-statement"])
def test_public_names_resolve_to_their_home_objects(prelude):
    proc = _python("-c", _API_CHECK.format(prelude=prelude, public=_PUBLIC))
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_gives_its_commented_results():
    # run the block as written, then compare each `expression  # result` line
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    check = ("import sys\n"
             "from fractions import Fraction\n"
             "import dtu\n"
             "block = sys.argv[1]\n"
             "ns = {}\n"
             "exec(block, ns)\n"
             "names = {n: getattr(dtu, n) for n in dtu.__all__}\n"
             "for line in block.splitlines():\n"
             "    code, sep, result = line.partition('#')\n"
             "    if sep and code.strip():\n"
             "        got = eval(code, ns)\n"
             "        want = eval(result, {'Fraction': Fraction, **names})\n"
             "        assert got == want, (line, got)\n")
    proc = _python("-c", check, block)
    assert proc.returncode == 0, proc.stderr
    assert block.count("#") == 7


def test_eval_prints_values_past_the_int_str_limit():
    # g(1/100000) has coefficients of about 20,900 digits, past Python's
    # 4300-digit int-to-str limit.  main() lifts the limit while it runs;
    # here the CLI runs in fresh interpreters, which start at the default
    # limit, as a user's command does
    by_mediant = _python("-m", "dtu.cli", "eval", "--lambda", "phi-inv",
                         "--x", "1/100000")
    by_series = _python("-m", "dtu.cli", "eval", "--lambda", "phi-inv",
                        "--x", "100000", "--x-is-cf")
    assert by_mediant.returncode == 0, by_mediant.stderr
    assert by_series.returncode == 0, by_series.stderr
    assert by_mediant.stdout == by_series.stdout
    exact, decimal = by_mediant.stdout.splitlines()
    assert len(exact) == 41_804 and exact.endswith("*phi")
    assert decimal == decimal_str(g_mediant(LambdaKind.PHI_INV,
                                            Fraction(1, 100000)))
    assert decimal == "2.78588151928291683971617497577E-20899"  # phi^-99999


def test_main_restores_the_int_str_limit(capsys):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str limit")
    before = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "eval", "--lambda", "phi-inv",
                       "--x", "1/100000")
    assert code == 0
    exact, decimal = out.splitlines()
    assert len(exact) == 41_804 and exact.endswith("*phi")
    assert decimal == decimal_str(g_mediant(LambdaKind.PHI_INV,
                                            Fraction(1, 100000)))
    assert sys.get_int_max_str_digits() == before


def test_verify_command_and_fault_injection(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "report"
    code, out, _ = run(capsys, "verify", "--output", str(out_dir))
    assert code == 0
    assert "Overall: PASS" in out
    assert (out_dir / "report.md").exists()
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["passed"] is True
    assert all(c["status"] == "PASS" for c in payload["checks"])
    assert payload["kappa2"]["lo"] == "248/19"
    trace = json.loads((out_dir / "kappa2_trace.json").read_text())
    assert len(trace) == payload["kappa2"]["steps"]

    # a broken reversal fails only the duality check: one FAIL row, exit 3
    monkeypatch.setattr(cf, "reverse", tuple)
    code, out, _ = run(capsys, "verify")
    assert code == 3
    fails = [line for line in out.splitlines() if "| FAIL |" in line]
    assert len(fails) == 1
    assert "orientation-duality" in fails[0]


def test_verify_report_is_pinned(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--output", str(tmp_path))
    assert code == 0
    assert out == (GOLDEN / "verify_report.md").read_text()
    for name, golden in (("report.md", "verify_report.md"),
                         ("report.json", "verify_report.json"),
                         ("kappa2_trace.json", "kappa2_trace.json")):
        assert (tmp_path / name).read_text() == (GOLDEN / golden).read_text()


def test_report_renders_bracket_endpoints_unreduced():
    report = verify_suite()
    md = report_markdown(report)
    assert "496/38" in md
    assert "483/37" in md
    assert report.passed
