"""The benchmark's span contract, checked against the library: one traced
cycle of each workload in bench/ calls every span name that the workload
lists in `expected`, and every job of it passes its check.  A library change
that routes around a traced function fails here rather than only in a
`--trace 1` run."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_one_cycle_of_each_workload_calls_every_expected_span(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from dtubench import harness, layers
    from dtubench.tracing import Tracer
    from dtubench.workloads import WORKLOADS

    assert len(WORKLOADS) == 4
    for name, cls in WORKLOADS.items():
        workload = cls(1)
        tracer = Tracer()
        tracer.install(layers.OBSERVERS)
        try:
            phase = harness.run_phase(
                workload, cycles=range(1),
                run_job=lambda index, job: tracer.run_job(index, workload.run, job))
        finally:
            tracer.uninstall()
        assert phase.failed == 0, (name, phase.problems)
        table = layers.SpanTable(tracer)
        assert [span for span in workload.expected if table.calls(span) == 0] == [], name
