"""Run the benchmark on every workload and summarize the runs.

Run from the repository root:

    python3 perfbench/collect.py --seeds 1 2 3 --trace 0 1 --output perfbench/out/summary.json

For each workload, trace mode and seed it runs `perfbench/run.py` once,
one run at a time, and prints every metric with its unit. The summary
gives, per workload and metric, the values, their median, and the spread
between the first and third quartile as a share of the median (the
figure BENCHMARK.json's bounds are compared with), plus the failed and
attempted command counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def spread(values: list[float]) -> float | None:
    """Distance between the first and third quartile as a share of the median."""
    if len(values) < 2 or statistics.median(values) == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--trace", nargs="+", type=int, default=[0, 1], choices=(0, 1))
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--output", type=Path, help="write the summary JSON here")
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    summary = {}
    for name in args.workloads:
        for trace in args.trace:
            runs = []
            for seed in args.seeds:
                cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
                start = time.perf_counter()
                done = subprocess.run(cmd, capture_output=True, text=True, check=False)
                elapsed = time.perf_counter() - start
                if done.returncode != 0:
                    print(f"{name} seed={seed} trace={trace}: exit {done.returncode}\n{done.stderr}")
                    return 1
                lines = done.stdout.splitlines()
                result = json.loads(lines[-1])
                info = json.loads(lines[-2].split(" ", 1)[1])
                environment = info["environment"]
                result["run_s"] = elapsed
                runs.append(result)
                print(f"{name} seed={seed} trace={trace}: {elapsed:.1f} s,"
                      f" failed {result['failed']}/{result['attempted']}", flush=True)
            metrics = {}
            for metric in runs[0]["metrics"]:
                values = [r["metrics"][metric]["value"] for r in runs]
                metrics[metric] = {
                    "unit": runs[0]["metrics"][metric]["unit"],
                    "median": statistics.median(values),
                    "spread": spread(values),
                    "values": values,
                }
                s = metrics[metric]["spread"]
                print(f"  {metric:36} {metrics[metric]['median']:>14.6g} {metrics[metric]['unit']:6}"
                      f" spread {'n/a' if s is None else f'{s:.3f}'}")
            summary.setdefault("workloads", {}).setdefault(name, {})[f"trace{trace}"] = {
                "seeds": args.seeds,
                "failed": [r["failed"] for r in runs],
                "attempted": [r["attempted"] for r in runs],
                "run_s": [r["run_s"] for r in runs],
                "metrics": metrics,
            }
    summary["environment"] = environment
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
