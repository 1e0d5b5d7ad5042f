"""Span tracing around the library's public functions, from outside the library.

`Tracer.install()` replaces each traced function in every loaded `dtu.*`
module that binds it (so `dtu.classify.compare_values` is traced as well as
`dtu.surd.compare_values`), and each traced method on its class.  Spans are
kept in flat arrays (name, start, end, parent span, job id) and written out
when the run ends; self time is computed afterwards from the spans alone.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (layer, attribute path inside the module `dtu.<layer>`).  A dotted path
# names a method on a class of that module.
TRACED = {
    "cf": ["check_quotients", "continuant", "quotient_matrix", "periodic_value",
           "weighted_sum", "cf_of", "canonical", "reverse", "value_of"],
    "golden": ["GoldenScalar.phi_power", "GoldenScalar.__add__",
               "GoldenScalar.__radd__", "GoldenScalar.__sub__",
               "GoldenScalar.__rsub__", "GoldenScalar.__mul__",
               "GoldenScalar.__rmul__", "GoldenScalar.__neg__",
               "GoldenScalar.__pow__", "GoldenScalar.sign",
               "GoldenScalar.bounds", "GoldenScalar.__eq__",
               "GoldenScalar.__lt__", "GoldenScalar.__le__",
               "GoldenScalar.__gt__", "GoldenScalar.__ge__"],
    "surd": ["compare_values", "QuadraticSurd.compare", "QuadraticSurd.bounds",
             "QuadraticSurd.algebraically_equal", "QuadraticSurd.from_fraction",
             "QuadraticSurd.from_golden", "QuadraticSurd.__add__",
             "QuadraticSurd.__radd__", "QuadraticSurd.__sub__",
             "QuadraticSurd.__rsub__", "QuadraticSurd.__mul__",
             "QuadraticSurd.__rmul__", "QuadraticSurd.__truediv__",
             "QuadraticSurd.__neg__"],
    "classify": ["growth_rate", "classify_verdict", "classify", "kappa",
                 "kappa2_bracket", "c734_word", "envelope"],
    "geval": ["g_mediant", "g_finite_series", "g_interval", "sample_farey",
              "question_mark"],
    "encode": ["exact_str", "decimal_str", "surd_str"],
    "extremal": ["brute_extrema", "count_words", "min_construct",
                 "max_construct", "normalize_m4", "reduce_m3"],
    "variation": ["is_abs_increasing_12"],
    "verify": ["trace_json"],
}

ROOT = "job"


def span_name(layer: str, path: str) -> str:
    """`golden.GoldenScalar.__add__` -> `golden.__add__`; functions keep their name."""
    return f"{layer}.{path.rsplit('.', 1)[-1]}"


class Tracer:
    """In-memory span recorder with counters filled by per-function observers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self._stack = [-1]
        self._job_id = -1
        self.enabled = False
        self.counters: dict[str, float] = {}
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self._job_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def record(self, name: str, start: float, end: float, parent: int = -1,
               job: int = -1) -> int:
        """Append a finished span directly (used to build synthetic traces)."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(parent)
        self.job.append(job)
        self.start.append(start)
        self.end.append(end)
        return idx

    def run_job(self, job_id: int, fn, *args):
        """Run fn(*args) as the root span of one job; spans are recorded only
        inside jobs, so the untimed output checks stay untraced."""
        self._job_id = job_id
        idx = self._open(self._id(ROOT))
        self.enabled = True
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self.enabled = False
            self._stack.pop()
            self._job_id = -1

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def wrap(self, name: str, fn, observe=None):
        nid = self._id(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.start[idx] = t0
                tracer._stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, observers=None):
        """Patch every traced function and method; `observers` maps span
        names to callbacks (tracer, args, result) run after the span closes."""
        observers = observers or {}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dtu" or key.startswith("dtu."))]
        for layer, paths in TRACED.items():
            module = sys.modules[f"dtu.{layer}"]
            for path in paths:
                name = span_name(layer, path)
                observe = observers.get(name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    if isinstance(original, (classmethod, staticmethod)):
                        patched = type(original)(
                            self.wrap(name, original.__func__, observe))
                    else:
                        patched = self.wrap(name, original, observe)
                    setattr(cls, attr, patched)
                    self._patches.append((cls, attr, original))
                    continue
                original = getattr(module, path)
                patched = self.wrap(name, original, observe)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, patched)
                            self._patches.append((mod, key, original))

    def uninstall(self):
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: Path):
        """Write the spans as a JSON header plus one raw binary array per column."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "count": len(self.start),
                  "columns": [["name", "i"], ["start", "d"], ["end", "d"],
                              ["parent", "i"], ["job", "i"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_id, self.start, self.end, self.parent,
                           self.job):
                column.tofile(fh)


def load_spans(path: Path) -> Tracer:
    """Read a span file written by `Tracer.write`."""
    tracer = Tracer()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        for name in header["names"]:
            tracer._id(name)
        columns = (tracer.name_id, tracer.start, tracer.end, tracer.parent,
                   tracer.job)
        for column in columns:
            column.fromfile(fh, header["count"])
    return tracer


def self_times(start, end, parent) -> array:
    """Per-span self time: duration minus the union of its children's
    intervals, each clipped to the parent's interval.

    Children are merged in start order; spans recorded by `Tracer` are
    already in start order, other inputs are sorted first.
    """
    n = len(start)
    order = range(n)
    if any(start[i] > start[i + 1] for i in range(n - 1)):
        order = sorted(range(n), key=start.__getitem__)
    covered = array("d", bytes(8 * n))
    reach = array("d", start)  # covered prefix of each span, by its end time
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))
