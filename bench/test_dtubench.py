"""Tests of the benchmark harness itself (not of the dtu library).

Run with `PYTHONPATH=src python -m pytest -q bench`.
"""

from __future__ import annotations

import dataclasses
import importlib
from fractions import Fraction

import pytest

from dtubench import harness, layers, oracles
from dtubench.tracing import Tracer, load_spans, self_times
from dtubench.workloads import WORKLOADS, Job

classify = importlib.import_module("dtu.classify")


def _inputs(name, seed, cycles=4):
    w = WORKLOADS[name](seed)
    return [w.cycle(c) for c in range(cycles)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_other_seed_other_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


def test_p90_needs_one_hundred_samples():
    assert harness.tail_percentile(list(range(99))) is None
    assert harness.tail_percentile(list(range(1, 101))) == 90
    assert harness.percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_self_time_of_nested_and_overlapping_spans():
    t = Tracer()
    root = t.record("job", 0.0, 10.0)
    a = t.record("cf.a", 1.0, 4.0, parent=root)
    t.record("golden.b", 2.0, 3.0, parent=a)
    t.record("surd.c", 5.0, 9.0, parent=root)
    t.record("surd.d", 8.0, 9.5, parent=root)  # overlaps c: union is 5..9.5
    t.record("surd.e", 9.8, 11.0, parent=root)  # clipped to the parent's end
    assert list(self_times(t.start, t.end, t.parent)) == pytest.approx(
        [10 - 3 - 4.5 - 0.2, 2.0, 1.0, 4.0, 1.5, 1.2])
    # spans given out of start order give the same answer
    order = [3, 0, 5, 1, 4, 2]
    start = [t.start[i] for i in order]
    end = [t.end[i] for i in order]
    parent = [order.index(t.parent[i]) if t.parent[i] >= 0 else -1 for i in order]
    expected = [10 - 3 - 4.5 - 0.2, 2.0, 1.0, 4.0, 1.5, 1.2]
    assert list(self_times(start, end, parent)) == pytest.approx(
        [expected[i] for i in order])


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    surd = importlib.import_module("dtu.surd")
    original = surd.compare_values
    assert classify.compare_values is original
    tracer = Tracer()
    tracer.install(layers.OBSERVERS)
    try:
        assert classify.compare_values is not original
        w = WORKLOADS["classify-many"](1)
        job = Job("classify", ((), (4, 4)))
        tracer.run_job(0, w.run, job)
        classify.classify_verdict(classify.PeriodicCF((), (1, 2)))  # outside a job
    finally:
        tracer.uninstall()
    assert classify.compare_values is original and surd.compare_values is original
    table = layers.SpanTable(tracer)
    assert table.calls("classify.classify_verdict") == 2
    assert table.calls("surd.compare_values") == 2
    assert tracer.counters["classify.verdicts.boundary"] == 2
    metrics = layers.layer_metrics(table, tracer.counters, 1.0, 1.0,
                                   harness.import_breakdown({}))
    assert set(metrics) == set(layers.UNITS)
    assert 0 < metrics["trace.layer_self_share"] <= 1
    tracer.write(tmp_path / "spans.bin")
    back = load_spans(tmp_path / "spans.bin")
    assert back.names == tracer.names and list(back.end) == list(tracer.end)


def test_importtime_parser():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       200 |     148589 |   numpy\n"
            "import time:       900 |        900 |     dtu.cf\n"
            "import time:       644 |     206565 |   dtu\n"
            "import time:      3798 |     224489 | dtu.cli\n")
    metrics = harness.import_breakdown(harness.parse_importtime(text))
    assert metrics["setup.import.numpy_ms"] == 148.589
    assert metrics["setup.import.total_ms"] == 224.489
    assert metrics["setup.import.dtu_ms"] == pytest.approx(5.342)
    assert metrics["setup.import.dtu.init_ms"] == 0.644
    assert metrics["setup.import.dtu.verify_ms"] == 0


def test_wrong_results_are_counted_as_failed():
    k2 = WORKLOADS["kappa2-deep"](1)
    eps = Fraction(1, 500)
    bracket, text, trace = k2.run_kappa2(eps)
    assert k2.check_kappa2((bracket, text, trace), eps) == []
    narrow = dataclasses.replace(bracket, lo=bracket.hi - Fraction(1, 10 ** 12))
    assert k2.check_kappa2((narrow, text, trace), eps)  # misses the enclosure
    assert k2.check_kappa2((bracket, text, trace), Fraction(1, 10 ** 6))  # too wide

    cm = WORKLOADS["classify-many"](1)
    rendered, interval = cm.run_classify((), (1, 3))
    assert cm.check_classify((rendered, interval), (), (1, 3)) == []
    other, _ = cm.run_classify((), (1, 2))
    assert cm.check_classify((other, interval), (), (1, 3))
    assert cm.check_classify((rendered, dataclasses.replace(interval, hi=interval.hi + 1)),
                             (), (1, 3))

    ex = WORKLOADS["extremal-search"](1)
    res, text = ex.run_brute(6, 26, classify.Orientation.PHI)
    assert ex.check_brute((res, text), 6, 26, classify.Orientation.PHI) == []
    wrong = dataclasses.replace(res, max_value=res.max_value + 1)
    assert ex.check_brute((wrong, text), 6, 26, classify.Orientation.PHI)

    class Wrong:
        def cycle(self, c):
            return [Job("x", ())] * 3

        def run(self, job):
            return 1

        def check(self, job, out):
            return ["deliberately wrong"] if out == 1 else []

    phase = harness.run_phase(Wrong(), cycles=range(2))
    assert (phase.attempted, phase.failed) == (6, 6)


def test_naive_oracle_matches_the_identity_count():
    assert oracles.naive_extrema(4, 16, True)[0] == 15
    assert oracles.naive_extrema(6, 26, False)[4] == oracles.count_words(6, 26)
    assert oracles.verdict_sign((4, 4), True) == 0
    assert oracles.farey_size(5) == 11
