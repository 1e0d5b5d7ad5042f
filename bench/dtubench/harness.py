"""Closed-loop job runner, latency statistics and set-up measurements.

On a 2-core virtual machine (Python 3.11.7) CPU speed drifted by up to
+-30 % over minutes (identical jobs timed 180 to 317 ms in different runs),
so every timed interval is also scaled to a reference speed: a fixed
stdlib-only kernel is timed before and after each stretch of jobs, and a
job's reference time is its wall time times CAL_REF_S over the mean of the
two kernel times around it.  Set-up launches are scaled by reference
launches instead (see SetupTimer).  Raw wall times are printed alongside.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# modules whose own import time is reported as setup.import.dtu.<module>_ms
DTU_MODULES = ("init", "cf", "golden", "surd", "geval", "variation", "extremal",
               "classify", "encode", "config", "verify", "cli")
IMPORT_STATEMENT = "import dtu.cli"
# the launch that scales set-up times, and its typical time on that machine
REFERENCE_STATEMENT = "import numpy"
REFERENCE_S = 0.15


# the kernel's typical time on that machine; it only
# sets the scale, so that reference times read like its wall times
CAL_REF_S = 0.0037
# job time between two kernel samples
CAL_EVERY_S = 0.05
_BIG = 7 ** 3000


def calibration_kernel():
    """Fixed work mixing what the workloads do: an interpreted integer loop,
    Fraction arithmetic, small allocations and big-integer products."""
    s = 0
    for i in range(15000):
        s += i * i
    x = Fraction(1, 3)
    for i in range(1, 240):
        x = x * Fraction(i, i + 2) + Fraction(1, i + 3)
    d = {}
    for i in range(2500):
        d[i] = (i, str(i), [i])
    y = _BIG
    for _ in range(8):
        y = (y * _BIG) >> 8000
    return s, x, d, y


def kernel_seconds() -> float:
    """Fastest of three kernel runs, which drops runs hit by an interrupt."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def percentile(values, q: float, min_samples: int = 1):
    """Nearest-rank q-quantile (0 < q <= 1); None with fewer than min_samples."""
    if len(values) < max(1, min_samples):
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_percentile(values):
    """The 90th percentile, reported only when at least ten samples lie beyond
    it, i.e. with at least 100 samples."""
    return percentile(values, 0.9, min_samples=100)


@dataclass
class Phase:
    """Outcome of one timed loop."""

    latencies: list = field(default_factory=list)
    ref_latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    cycles: int = 0
    problems: list = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def jobs_per_s(self) -> float:
        """Completed jobs per second of reference-speed job time."""
        return (self.attempted - self.failed) / sum(self.ref_latencies)

    def close_segment(self, kernel_before: float, kernel_after: float):
        """Scale the latencies recorded since the last kernel sample."""
        scale = CAL_REF_S / ((kernel_before + kernel_after) / 2)
        done = len(self.ref_latencies)
        self.ref_latencies.extend(t * scale for t in self.latencies[done:])

    def record_failure(self, problems):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.extend(problems[:2])


def run_phase(workload, seconds: float = math.inf, cycles=None, run_job=None,
              phase: Phase | None = None, between_cycles=None) -> Phase:
    """Run the cycles numbered in `cycles` (all of them from 0 on when None)
    until the job time of this call reaches `seconds`, adding to `phase`.

    One job runs at a time and the next starts when it finishes.  Only the
    job itself is timed; its output is checked afterwards, untimed, and a job
    that raises or fails its check counts as failed.  `between_cycles(busy)`
    is called after each cycle with the job time so far.
    """
    run_job = run_job or (lambda index, job: workload.run(job))
    phase = Phase() if phase is None else phase
    busy = since_kernel = 0.0
    kernel = kernel_seconds()
    for c in itertools.count() if cycles is None else cycles:
        if busy >= seconds:
            break
        for job in workload.cycle(c):
            index = phase.attempted
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                out = run_job(index, job)
            except Exception as exc:  # a raising job is a failed job
                dt = time.perf_counter() - t0
                phase.record_failure([f"{job.kind}{job.args}: {exc!r}"])
            else:
                dt = time.perf_counter() - t0
                try:
                    problems = workload.check(job, out)
                except Exception as exc:
                    problems = [f"{job.kind}{job.args}: check raised {exc!r}"]
                if problems:
                    phase.record_failure(problems)
                del out
            phase.latencies.append(dt)
            busy += dt
            since_kernel += dt
            if since_kernel >= CAL_EVERY_S:
                after = kernel_seconds()
                phase.close_segment(kernel, after)
                kernel, since_kernel = after, 0.0
        phase.cycles += 1
        if between_cycles is not None:
            between_cycles(busy)
    if since_kernel:
        phase.close_segment(kernel, kernel_seconds())
    return phase


# -- set-up -----------------------------------------------------------------


def _command(*flags: str) -> list[str]:
    return [sys.executable, *flags, "-c", IMPORT_STATEMENT]


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class SetupTimer:
    """Times fresh interpreters running `import dtu.cli`, which every CLI call
    pays before any work, after one untimed launch that leaves the bytecode
    cache warm.  Passed to `run_phase` as `between_cycles`, it launches once
    per `every_s` seconds of job time, so its median samples the whole run.

    Launch time drifts with the machine's process-start and loading speed,
    which the in-process kernel does not follow, so each launch is scaled by
    a reference launch on both sides of it: a fresh interpreter that imports
    only numpy, the same kind of work with no `dtu` code in it."""

    def __init__(self, root: Path, every_s: float):
        self.cmd, self.env, self.root = _command(), _env(root), root
        self.reference = [sys.executable, "-c", REFERENCE_STATEMENT]
        self.every_s = every_s
        self.next_at = 0.0
        self.wall: list[float] = []
        self.ref: list[float] = []
        self._time(self.cmd)
        self._time(self.reference)

    def _time(self, cmd) -> float:
        t0 = time.perf_counter()
        subprocess.run(cmd, env=self.env, cwd=self.root, check=True)
        return time.perf_counter() - t0

    def launch(self):
        before = self._time(self.reference)
        wall = self._time(self.cmd)
        after = self._time(self.reference)
        self.wall.append(wall)
        self.ref.append(wall * REFERENCE_S / ((before + after) / 2))

    def __call__(self, busy: float):
        if busy >= self.next_at:
            self.launch()
            self.next_at = busy + self.every_s

    def median(self, launches: int) -> tuple[float, float]:
        """(reference, wall) median over at least `launches` launches."""
        while len(self.wall) < launches:
            self.launch()
        return statistics.median(self.ref), statistics.median(self.wall)


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)\s*$")


def parse_importtime(text: str) -> dict[str, tuple[int, int]]:
    """{module: (self_us, cumulative_us)} from `python -X importtime` output."""
    out = {}
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(3) not in out:
            out[m.group(3)] = (int(m.group(1)), int(m.group(2)))
    return out


def import_breakdown(table: dict[str, tuple[int, int]]) -> dict[str, float]:
    """setup.import.* metrics in milliseconds from one parsed importtime run."""
    def self_ms(module):
        return table.get(module, (0, 0))[0] / 1000

    metrics = {
        "setup.import.total_ms": table.get("dtu.cli", (0, 0))[1] / 1000,
        "setup.import.numpy_ms": table.get("numpy", (0, 0))[1] / 1000,
        "setup.import.dtu_ms": sum(self_ms(m) for m in table
                                   if m == "dtu" or m.startswith("dtu.")),
    }
    for module in DTU_MODULES:
        key = "dtu" if module == "init" else f"dtu.{module}"
        metrics[f"setup.import.dtu.{module}_ms"] = self_ms(key)
    return metrics


def import_profile(root: Path, runs: int = 5) -> dict[str, float]:
    """Median over fresh interpreters of each setup.import.* metric; the
    first run only warms the bytecode cache."""
    cmd, env = _command("-X", "importtime"), _env(root)
    samples = []
    for _ in range(runs + 1):
        done = subprocess.run(cmd, env=env, cwd=root, check=True,
                              capture_output=True, text=True)
        samples.append(import_breakdown(parse_importtime(done.stderr)))
    return {key: statistics.median(s[key] for s in samples[1:]) for key in samples[0]}
