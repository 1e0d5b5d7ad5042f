"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/baseline.py --out bench/baseline.json

Each (workload, seed) is one fresh `bench/run.py` process, run for the
`run_seconds` of BENCHMARK.json: ten seeds untraced, the first three also
traced.  Seeds are the outer loop so slow drift of the machine spreads over
all workloads.  For each metric it reports the median, the quartiles
(`statistics.quantiles`, n=4) and the spread, i.e. the interquartile
distance as a share of the median, and fails if any run reports an
incorrect result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402

SEEDS = range(1, 11)
TRACE_SEEDS = 3


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect output:\n{done.stderr}")
    return result


def summarise(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    plain = {w: [] for w in WORKLOAD_NAMES}
    traced = {w: [] for w in WORKLOAD_NAMES}
    for seed in SEEDS:
        for workload in WORKLOAD_NAMES:
            plain[workload].append(run_once(workload, seed, seconds, 0))
            if seed - SEEDS[0] < TRACE_SEEDS:
                traced[workload].append(run_once(workload, seed, seconds, 1))
            print(f"seed {seed} {workload} done", file=sys.stderr, flush=True)

    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seconds": seconds,
        "seeds": list(SEEDS),
        "end_to_end": {w: summarise(plain[w]) for w in WORKLOAD_NAMES},
        "per_layer": {w: summarise(traced[w]) for w in WORKLOAD_NAMES},
    }
    for workload, metrics in report["end_to_end"].items():
        for name, s in metrics.items():
            print(f"{workload:16s} {name:12s} median {s['median']:.6g} {s['unit']}"
                  f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
