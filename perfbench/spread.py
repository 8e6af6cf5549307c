"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload realize --seeds 1-10

Runs the benchmark once per seed (one after another, never in parallel)
and prints, per end-to-end metric, the median, the quartiles from
`statistics.quantiles(values, n=4)`, and their distance as a share of the
median next to a third of the metric's bound from BENCHMARK.json.  Exits
1 when a spread other than setup_s's reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        command = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    steady = True
    for metric in spec["end_to_end"]:
        xs = values[metric["name"]]
        median = statistics.median(xs)
        q1, _q2, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        ok = spread < metric["bound"] / 3
        steady &= ok or metric["name"] == "setup_s"
        print(f"{args.workload} {metric['name']}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} (bound/3 {metric['bound'] / 3:.4f}) {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
