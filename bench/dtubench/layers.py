"""Per-layer metrics of a traced run: self times and call counts by span
name, counters filled by observers at the traced boundaries, ratios, the
tracing overhead and the import-time breakdown."""

from __future__ import annotations

from fractions import Fraction

from . import oracles
from .harness import DTU_MODULES
from .tracing import ROOT, TRACED, self_times

LAYERS = tuple(TRACED)
GOLDEN_ARITH = tuple(f"golden.{op}" for op in
                     ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"))


def _boundary(tracer, args, verdict):
    if verdict.classification.value == "Boundary":
        tracer.count("classify.verdicts.boundary")


def _bracket(tracer, args, bracket):
    tracer.count("classify.kappa2_bracket.steps", len(bracket.trace))
    tracer.maximum("classify.kappa2_bracket.period_len_max",
                   max(step.period_length for step in bracket.trace))


def _quotient_sum(tracer, args, value):
    x = Fraction(args[1])
    if 0 < x < 1:
        tracer.count("geval.g_mediant.quotient_sum",
                     sum(oracles.cf_quotients(x.numerator, x.denominator)))


OBSERVERS = {
    "cf.quotient_matrix": lambda t, a, r: t.maximum(
        "cf.quotient_matrix.entry_bits_max", r[0][0].bit_length()),
    "golden.phi_power": lambda t, a, r: t.count(
        "golden.phi_power.abs_exp_sum", abs(a[-1])),
    "classify.classify_verdict": _boundary,
    "classify.kappa2_bracket": _bracket,
    "geval.g_mediant": _quotient_sum,
    "geval.sample_farey": lambda t, a, r: t.count("geval.sample_farey.points", len(r)),
    "extremal.brute_extrema": lambda t, a, r: t.count("extremal.brute_extrema.words",
                                                      r.count),
    "extremal.reduce_m3": lambda t, a, r: t.count("extremal.reduce_m3.certified",
                                                  int(r.certified)),
}

# span names whose summed self time, or call count, is reported as is
SELF_TIMED = ("cf.quotient_matrix", "cf.check_quotients", "cf.periodic_value",
              "cf.continuant", "golden.phi_power", "golden.bounds", "surd.compare",
              "classify.classify_verdict", "classify.growth_rate",
              "geval.g_mediant", "geval.sample_farey", "geval.g_finite_series",
              "geval.g_interval", "encode.exact_str", "encode.decimal_str",
              "extremal.brute_extrema", "extremal.count_words",
              "extremal.max_construct", "extremal.normalize_m4",
              "extremal.reduce_m3", "variation.is_abs_increasing_12")
COUNTED = ("cf.quotient_matrix", "cf.check_quotients", "cf.continuant",
           "golden.phi_power", "surd.compare", "surd.algebraically_equal",
           "classify.classify_verdict", "geval.g_mediant", "encode.decimal_str",
           "extremal.brute_extrema", "variation.is_abs_increasing_12")
# observer counters: name -> unit
COUNTERS = {
    "cf.quotient_matrix.entry_bits_max": "bits",
    "golden.phi_power.abs_exp_sum": "count",
    "classify.verdicts.boundary": "count",
    "classify.kappa2_bracket.steps": "count",
    "classify.kappa2_bracket.period_len_max": "count",
    "geval.g_mediant.quotient_sum": "count",
    "geval.sample_farey.points": "count",
    "extremal.brute_extrema.words": "count",
}

# every reported metric -> unit
UNITS = {f"{layer}.self_s": "s" for layer in LAYERS}
UNITS["harness.self_s"] = "s"
UNITS.update({f"{name}.self_s": "s" for name in SELF_TIMED})
UNITS.update({f"{name}.calls": "count" for name in COUNTED})
UNITS.update(COUNTERS)
UNITS.update({
    "golden.arith.calls": "count",
    "golden.arith.self_s": "s",
    "cf.check_quotients.per_verdict": "ratio",
    "surd.bounds.per_compare": "ratio",
    "extremal.words_per_s": "1/s",
    "extremal.reduce_m3.certified_ratio": "ratio",
    "trace.spans": "count",
    "trace.job_wall_s": "s",
    "trace.layer_self_share": "ratio",
    "trace.jobs_per_s_untraced": "1/s",
    "trace.jobs_per_s_traced": "1/s",
    "trace.overhead": "ratio",
    "setup.import.total_ms": "ms",
    "setup.import.numpy_ms": "ms",
    "setup.import.dtu_ms": "ms",
})
UNITS.update({f"setup.import.dtu.{module}_ms": "ms" for module in DTU_MODULES})


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class SpanTable:
    """Calls, summed self time and summed inclusive time per span name."""

    def __init__(self, tracer):
        selfs = self_times(tracer.start, tracer.end, tracer.parent)
        size = len(tracer.names)
        self._calls = [0] * size
        self._self = [0.0] * size
        self._incl = [0.0] * size
        ids = tracer._ids
        compare, bounds = ids.get("surd.compare", -2), ids.get("surd.bounds", -2)
        self.bounds_in_compare = 0
        name_id, parent = tracer.name_id, tracer.parent
        start, end = tracer.start, tracer.end
        for i in range(len(start)):
            nid = name_id[i]
            self._calls[nid] += 1
            self._self[nid] += selfs[i]
            self._incl[nid] += end[i] - start[i]
            if nid == bounds and parent[i] >= 0 and name_id[parent[i]] == compare:
                self.bounds_in_compare += 1
        self._ids = ids
        self.spans = len(start)

    def calls(self, *names) -> int:
        return sum(self._calls[self._ids[n]] for n in names if n in self._ids)

    def self_s(self, *names) -> float:
        return sum(self._self[self._ids[n]] for n in names if n in self._ids)

    def inclusive_s(self, name) -> float:
        return self._incl[self._ids[name]] if name in self._ids else 0.0

    def layer_self_s(self, layer: str) -> float:
        return self.self_s(*(n for n in self._ids if n.split(".", 1)[0] == layer))


def layer_metrics(table: SpanTable, counters: dict, untraced_jobs_per_s: float,
                  traced_jobs_per_s: float, imports: dict) -> dict[str, float]:
    t = table
    out = {f"{layer}.self_s": t.layer_self_s(layer) for layer in LAYERS}
    out["harness.self_s"] = t.self_s(ROOT)
    out.update({f"{name}.self_s": t.self_s(name) for name in SELF_TIMED})
    out.update({f"{name}.calls": t.calls(name) for name in COUNTED})
    out.update({key: counters.get(key, 0) for key in COUNTERS})
    out["golden.arith.calls"] = t.calls(*GOLDEN_ARITH)
    out["golden.arith.self_s"] = t.self_s(*GOLDEN_ARITH)
    out["cf.check_quotients.per_verdict"] = _ratio(
        t.calls("cf.check_quotients"), t.calls("classify.classify_verdict"))
    # each refinement round encloses both operands once
    out["surd.bounds.per_compare"] = _ratio(t.bounds_in_compare / 2,
                                            t.calls("surd.compare"))
    out["extremal.words_per_s"] = _ratio(counters.get("extremal.brute_extrema.words", 0),
                                         t.inclusive_s("extremal.brute_extrema"))
    out["extremal.reduce_m3.certified_ratio"] = _ratio(
        counters.get("extremal.reduce_m3.certified", 0), t.calls("extremal.reduce_m3"))
    out["trace.spans"] = t.spans
    out["trace.job_wall_s"] = wall = t.inclusive_s(ROOT)
    out["trace.layer_self_share"] = _ratio(sum(out[f"{l}.self_s"] for l in LAYERS), wall)
    out["trace.jobs_per_s_untraced"] = untraced_jobs_per_s
    out["trace.jobs_per_s_traced"] = traced_jobs_per_s
    out["trace.overhead"] = _ratio(untraced_jobs_per_s, traced_jobs_per_s)
    out.update(imports)
    return {name: out[name] for name in UNITS}
