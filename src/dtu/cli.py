"""Command-line front end.

Subcommands: eval, sample, classify, extremal, kappa2, verify.  Exact values
are printed in the package's textual encodings; decimals carry 30 significant
digits and are approximate.  Exit codes: 0 success, 1 usage error,
2 infeasible instance or cap exceeded, 3 verification failure.

Each verb imports the modules it uses when it runs, so importing this module
loads only dtu and dtu.errors, and a launch pays for its own verb alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from .errors import CapExceededError, InfeasibleError, InputError

# --help prints the docstring up to its last paragraph, which is about the
# code (python -OO strips docstrings, and then --help has no description)
_DESCRIPTION = __doc__ and __doc__.rsplit("\n\n", 1)[0] + "\n"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_lambda(text: str):
    from .encode import parse_fraction
    from .geval import LambdaKind

    table = {"half": LambdaKind.HALF, "phi-inv": LambdaKind.PHI_INV,
             "tau": LambdaKind.TAU}
    if text in table:
        return table[text]
    return parse_fraction(text)  # geval checks that it lies in (0, 1)


def _env_cap(name: str, default: int) -> int:
    """The positive integer in DTU_<name>, or `default` when it is unset."""
    var = "DTU_" + name
    raw = os.environ.get(var)
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"{var} must be an integer, got {raw!r}") from None
    if cap <= 0:
        raise InputError(f"{var} must be positive, got {raw!r}")
    return cap


def _emit(text: str, path):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_eval(args) -> int:
    from . import cf
    from .encode import (decimal_str, exact_str, fraction_str, parse_fraction,
                         parse_seq)
    from .geval import check_mediant_cost, g_mediant

    lam = _parse_lambda(args.lam)
    if args.x_is_cf:
        seq = parse_seq(args.x)
        check_mediant_cost(lam, seq)
        x = cf.value_of(seq)
    else:
        x = parse_fraction(args.x)
        check_mediant_cost(lam, x)
    value = g_mediant(lam, x)
    if args.format == "json":
        payload = {"lambda": args.lam, "x": fraction_str(x),
                   "exact": exact_str(value), "decimal": decimal_str(value)}
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.output)
    else:
        _emit(f"{exact_str(value)}\n{decimal_str(value)}\n", args.output)
    return EXIT_OK


def _cmd_sample(args) -> int:
    from .encode import decimal_str, exact_str
    from .geval import DEFAULT_FAREY_DEPTH_CAP, check_sample_cost, sample_farey

    lam = _parse_lambda(args.lam)
    cap = _env_cap("FAREY_DEPTH_CAP", DEFAULT_FAREY_DEPTH_CAP)
    check_sample_cost(lam, args.depth)
    table = sample_farey(lam, args.depth, depth_cap=cap)
    # the file opens only now, so a rejected sample leaves none; rows are
    # written as they are rendered, so the CSV is never held whole
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
        write = out.write
        write("x_num,x_den,g_exact,g_decimal\n")
        for x, g in table:
            write(f"{x.numerator},{x.denominator},{exact_str(g)},{decimal_str(g)}\n")
    return EXIT_OK


def _cmd_classify(args) -> int:
    from .cf import Orientation, PeriodicCF
    from .classify import CLASSIFY_QUOTIENT_SUM_MAX, classify_verdict
    from .encode import (decimal_str, exact_str, fraction_str, parse_seq,
                         seq_str, surd_str)

    period = parse_seq(args.period)
    preperiod = parse_seq(args.preperiod)
    odd = len(period) % 2
    if sum(period) * (1 + odd) > CLASSIFY_QUOTIENT_SUM_MAX:
        raise CapExceededError(
            f"the quotient sum of the {'doubled ' if odd else ''}period"
            f" exceeds the cap {CLASSIFY_QUOTIENT_SUM_MAX}")
    o = Orientation(args.orientation)
    verdict = classify_verdict(PeriodicCF(preperiod, period), o)
    cert = verdict.certificate
    payload = {
        "period": seq_str(period),
        "preperiod": seq_str(preperiod),
        "orientation": o.value,
        "kappa": fraction_str(verdict.kappa),
        "growth_rate_exact": surd_str(verdict.rate.value),
        "growth_rate_decimal": decimal_str(verdict.rate.value),
        "classification": verdict.classification.value,
        "certificate": {
            "lambda_squared": surd_str(cert.lambda_squared),
            "phi_exponent": cert.exponent,
            "phi_power": exact_str(cert.phi_power),
            "sign": cert.sign,
        },
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    return EXIT_OK


def _cmd_extremal(args) -> int:
    from . import cf
    from .encode import decimal_str, seq_str
    from .extremal import (DEFAULT_BRUTE_CAP, EXTREMAL_LENGTH_MAX,
                           ExtremalInstance, brute_extrema, max_construct,
                           min_construct)

    if args.mode != "brute" and args.n > EXTREMAL_LENGTH_MAX:
        raise CapExceededError(f"length {args.n} exceeds the cap"
                               f" {EXTREMAL_LENGTH_MAX} of --mode {args.mode}")
    o = cf.Orientation(args.orientation)
    inst = ExtremalInstance(args.n, args.s, o)
    payload = {"n": args.n, "s": args.s, "orientation": o.value,
               "mode": args.mode}
    if args.mode == "min":
        seq = min_construct(inst)
        payload.update(sequence=seq_str(seq), certified=True)
        value = cf._continuant(seq)
    elif args.mode == "max":
        built = max_construct(inst)
        payload.update(sequence=seq_str(built.sequence), certified=built.certified)
        value = cf._continuant(built.sequence)
    else:
        res = brute_extrema(inst, cap=_env_cap("BRUTE_CAP", DEFAULT_BRUTE_CAP))
        payload.update(sequence=seq_str(res.max_seq), certified=True,
                       count=res.count,
                       min_sequence=seq_str(res.min_seq),
                       min_value_exact=str(res.min_value))
        value = res.max_value
    payload["value_exact"] = str(value)
    payload["value_decimal"] = decimal_str(Fraction(value))
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    return EXIT_OK


def _cmd_kappa2(args) -> int:
    from .classify import kappa2_bracket
    from .encode import parse_fraction
    from .verify import kappa2_payload, trace_json

    eps = parse_fraction(args.epsilon)
    bracket = kappa2_bracket(eps)
    if args.trace:
        Path(args.trace).write_text(trace_json(bracket))
    _emit(json.dumps(kappa2_payload(bracket), sort_keys=True, indent=2) + "\n",
          args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import (report_json, report_markdown, trace_json,
                         verify_suite)

    report = verify_suite()
    md = report_markdown(report)
    if args.output:
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.md").write_text(md)
        (out / "report.json").write_text(report_json(report))
        (out / "kappa2_trace.json").write_text(trace_json(report.bracket))
    sys.stdout.write(md)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="dtu", description=_DESCRIPTION,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate g_lambda at a rational point")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="half | phi-inv | tau | p/q")
    p.add_argument("--x", required=True, help="rational point p/q in [0, 1]")
    p.add_argument("--x-is-cf", action="store_true",
                   help="interpret --x as a quotient sequence a1,a2,...")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sample", help="CSV of g over a Farey order")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("classify", help="derivative verdict for a periodic point")
    p.add_argument("--period", required=True, help="quotients a1,a2,...")
    p.add_argument("--preperiod", default="", help="optional quotients")
    p.add_argument("--orientation", choices=("phi", "tau"), default="phi")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("extremal", help="extremal continuants at fixed (n, S)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--orientation", choices=("phi", "tau"), default="phi")
    p.add_argument("--mode", choices=("min", "max", "brute"), required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("kappa2", help="certified threshold enclosure")
    p.add_argument("--epsilon", required=True, help="positive fraction")
    p.add_argument("--trace", help="path for the step trace (JSON)")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_kappa2)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--output", help="directory for report artifacts")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    # exact values outgrow Python's 4300-digit int-to-str limit (g at
    # x = 1/100000 prints 41,841 characters), so main lifts it while it runs;
    # Pythons before 3.10.7 have no such limit
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (InfeasibleError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
