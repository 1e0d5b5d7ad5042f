"""Benchmark runner for the dtu library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, one job at a time (closed loop), against
the sources in ./src of the checkout that holds this file.  Prints a
human-readable summary, then as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A traced run replays a
fixed number of cycles per workload, untraced and traced in alternating
blocks, so its counts repeat exactly for a given seed and its overhead
compares equal work.
Exits 2 without a result when the sources or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("kappa2-deep", "classify-many", "farey-table", "extremal-search")
# a traced run alternates this many blocks of cycles between its untraced
# and its traced phase, and starts no new block after this much job time
TRACE_BLOCKS = 15
TRACE_GUARD_S = 60.0
# interpreter launches timed for setup_s, spread over the timed loop
SETUP_LAUNCHES = 12

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_library():
    """Import dtu from ./src of this checkout, or return an error message."""
    if not (SRC / "dtu" / "__init__.py").is_file():
        return f"no dtu sources under {SRC}"
    sys.path.insert(0, str(SRC))
    try:
        import dtu
    except ImportError as exc:
        return f"cannot import dtu from {SRC}: {exc}"
    if SRC not in Path(dtu.__file__).resolve().parents:
        return f"dtu was imported from {dtu.__file__}, not from {SRC}"
    return None


def _fmt(value, unit):
    return "n/a (fewer than 100 jobs)" if value is None else f"{value:.6g} {unit}"


def end_to_end(workload, phase, setup):
    """The gated metrics, at reference CPU speed, plus the two that are only
    printed: job_p90_ms needs at least 100 jobs, and fail_ratio is also
    carried by attempted/failed.  Wall-clock values are printed beside them."""
    from dtubench import harness

    ms = [t * 1000 for t in phase.ref_latencies]
    wall_ms = [t * 1000 for t in phase.latencies]
    completed = phase.attempted - phase.failed
    metrics = {
        "setup_s": setup[0],
        "jobs_per_s": phase.jobs_per_s,
        "job_p50_ms": statistics.median(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = {"setup_s": setup[1], "jobs_per_s": completed / phase.busy_s,
            "job_p50_ms": statistics.median(wall_ms)}
    slowdown = phase.busy_s / sum(phase.ref_latencies)
    print(f"{workload.name}: {phase.attempted} jobs in {phase.cycles} cycles,"
          f" {phase.busy_s:.3f} s busy, wall over reference time x{slowdown:.3f}")
    for name, value in metrics.items():
        raw = f"  (wall {_fmt(wall[name], END_TO_END_UNITS[name])})" if name in wall else ""
        print(f"  {name:12s} {_fmt(value, END_TO_END_UNITS[name])}{raw}")
    print(f"  {'job_p90_ms':12s} {_fmt(harness.tail_percentile(ms), 'ms')}"
          f"  (wall {_fmt(harness.tail_percentile(wall_ms), 'ms')})")
    print(f"  {'fail_ratio':12s} {phase.failed / phase.attempted:.6g}"
          f" ({phase.failed}/{phase.attempted})")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


def traced_run(workload):
    """Replay a fixed number of cycles untraced and traced, in alternating
    blocks, so that both phases time the same jobs under the same drift of
    the machine; returns (phases, metrics, problems)."""
    from dtubench import harness, layers
    from dtubench.tracing import Tracer

    imports = harness.import_profile(ROOT)
    n = workload.trace_cycles
    blocks = min(n, TRACE_BLOCKS)
    untraced, traced = harness.Phase(), harness.Phase()
    tracer = Tracer()
    for b in range(blocks):
        if max(untraced.busy_s, traced.busy_s) >= TRACE_GUARD_S:
            break
        block = range(b * n // blocks, (b + 1) * n // blocks)
        harness.run_phase(workload, cycles=block, phase=untraced)
        tracer.install(layers.OBSERVERS)
        try:
            harness.run_phase(
                workload, cycles=block, phase=traced,
                run_job=lambda index, job: tracer.run_job(index, workload.run, job))
        finally:
            tracer.uninstall()
    tracer.write(SPAN_DIR / f"spans-{workload.name}.bin")
    table = layers.SpanTable(tracer)
    metrics = layers.layer_metrics(table, tracer.counters, untraced.jobs_per_s,
                                   traced.jobs_per_s, imports)
    problems = [f"traced run never called {name}" for name in workload.expected
                if table.calls(name) == 0]
    wall = metrics["trace.job_wall_s"]
    print(f"{workload.name} traced: {traced.cycles} of {workload.trace_cycles} cycles,"
          f" {traced.attempted} jobs, {table.spans} spans,"
          f" overhead x{metrics['trace.overhead']:.3f}"
          f" ({untraced.jobs_per_s:.6g} -> {traced.jobs_per_s:.6g} jobs/s)")
    for layer in layers.LAYERS + ("harness",):
        share = metrics[f"{layer}.self_s"] / wall if wall else 0.0
        print(f"  {layer:10s} self {metrics[f'{layer}.self_s']:10.4f} s  {share:6.1%}")
    return [untraced, traced], {name: {"value": value, "unit": layers.UNITS[name]}
                                for name, value in metrics.items()}, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    error = load_library()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from dtubench import harness
    from dtubench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        phases, metrics, problems = traced_run(workload)
    else:
        setup = harness.SetupTimer(ROOT, args.seconds / SETUP_LAUNCHES)
        phases = [harness.run_phase(workload, args.seconds, between_cycles=setup)]
        metrics = end_to_end(workload, phases[0], setup.median(SETUP_LAUNCHES))
        problems = []
    for phase in phases:
        problems += phase.problems
    problems += workload.final_checks()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
