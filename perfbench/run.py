"""protolab benchmark: one closed-loop client running a workload ladder
through the in-process CLI entry point `protolab.cli.main`.

    python3 perfbench/run.py --workload realize --seed 1 --seconds 30 --trace 0

One process, one thread: each op starts after the previous one finished.
The ladder (ladders.py) is built from the seed, written under
.perfbench/ and run pass after pass until --seconds have elapsed, not
counting ops cut off at the limit, always at least one whole pass; an
op's time is its median over the passes.
Every answer is checked against its known answer.  An op that reaches the
workload's time limit is stopped by a timer signal, counts as undecided,
is recorded at the limit, and is not run again in later passes.

Times (set-up included) and limits are given at a reference host speed:
each measured time is divided by the host's slowness, taken from a fixed
reference loop timed after every op (harness.py).  The run prints the
slowness and the unscaled times on the lines before the result.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 a separate traced pass gives the per-layer metrics (tracing.py).
The run must start at the root of a protolab checkout: it imports the
program from src/ and exits 2 without a result when src/ is missing.
DESIGN.md describes the workloads and metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import ladders  # noqa: E402
from harness import ERROR, REFERENCE_S, TIMEOUT, Runner, run_pass  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
# A traced op may run this many times its untraced limit, so that tracing
# overhead does not cut off an op that finished untraced.
TRACE_LIMIT_FACTOR = 4

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "decided_share": "ratio",
    "error_free_share": "ratio",
    "peak_rss_mb": "MB",
}


def tail(values: list[float]) -> tuple[float, float]:
    """The value at the highest percentile with at least ten values beyond
    it, and that percentile."""
    ordered = sorted(values)
    rank = max(len(ordered) - 10, 1)  # 1-based rank of the tail value
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def setup(workload: str, seed: int, tiny: bool, runner: Runner, limit: float):
    """Build the ladder and its input files, then warm up by running the
    workload's tiny ladder once, which reaches every code path the workload
    uses.  Returns the ladder, the work directory and the warm-up results."""
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    fixtures = SRC / "protolab" / "fixtures"
    ops = ladders.build(workload, seed, workdir, fixtures, tiny=tiny)
    warm_ops = ladders.build(workload, seed, workdir / "warm", fixtures, tiny=True)
    return ops, workdir, run_pass(runner, warm_ops, limit)


def timed_run(runner: Runner, ops, limit: float, seconds: float, setup_s: float, ops_path: Path) -> dict:
    """Closed loop over the ladder until `seconds` have elapsed, not counting
    ops cut off at the limit, at least one whole pass; and the end-to-end
    metrics."""
    mark, raw_start, cut_start = len(runner.reference), runner.raw_s, runner.cut_s
    deadline = time.perf_counter() + seconds
    first = run_pass(runner, ops, limit)
    deadline += runner.cut_s - cut_start
    samples = {op_id: [t] for op_id, (t, _, _) in first.items()}
    cut = frozenset(op_id for op_id, (_, status, _) in first.items() if status == TIMEOUT)
    while time.perf_counter() < deadline:
        for op_id, (t, _, _) in run_pass(runner, ops, limit, deadline, cut).items():
            samples[op_id].append(t)

    times = {op.id: statistics.median(samples[op.id]) for op in ops}
    tail_s, tail_pct = tail(list(times.values()))
    statuses = [first[op.id][1] for op in ops]
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(times.values()),
        "op_p50_ms": 1000 * statistics.median(times.values()),
        "op_tail_ms": 1000 * tail_s,
        "decided_share": statuses.count(ladders.DECIDED) / len(ops),
        "error_free_share": 1 - (statuses.count(ERROR) + statuses.count(ladders.WRONG)) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    ops_path.parent.mkdir(parents=True, exist_ok=True)
    per_op = {
        op.id: {"family": op.family, "seconds": times[op.id], "samples": len(samples[op.id]),
                "status": first[op.id][1], "detail": first[op.id][2]}
        for op in ops
    }
    ops_path.write_text(json.dumps(per_op, indent=1, sort_keys=True) + "\n")
    return {
        "first": first,
        "correct": ladders.WRONG not in statuses,
        "lines": [
            f"op_tail_ms is the p{tail_pct:.1f} of {len(ops)} per-op median times; per-op results in {ops_path}",
            f"host slowness {runner.slowness_since(mark):.3f} (median reference loop / {REFERENCE_S * 1000:g} ms); "
            f"ops ran {runner.raw_s - raw_start:.2f} s measured, unscaled",
        ],
        "metrics": {name: (value, UNITS[name]) for name, value in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(ladders.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="run the tiny ladder (self-check)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "protolab" / "cli.py").is_file():
        print(f"perfbench: no protolab sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    runner = Runner(lambda argv: protolab.cli.main(argv))
    t_import = time.perf_counter()
    import protolab.cli

    import_s = time.perf_counter() - t_import
    limit = ladders.LIMITS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        mark = len(runner.reference)
        t0 = time.perf_counter()
        ops, workdir, warm = setup(args.workload, args.seed, args.tiny, runner, limit)
        setups.append((time.perf_counter() - t0) / runner.slowness_since(mark))
        if len(setups) < SETUP_REPEATS:
            shutil.rmtree(workdir, ignore_errors=True)
    # process start to the first timed op: the harness's imports and the
    # runner's first reference loops, the program's import, and the median
    # of the repeated builds and warm-ups, each at the reference speed
    setup_s = (t_import - T_START + import_s) / runner.slowness_since(0) + statistics.median(setups)
    # Keep the harness's own objects (ladder, results) out of the program's
    # garbage collections from here on, as in a fresh CLI process.
    gc.collect()
    gc.freeze()
    try:
        if args.trace:
            import tracing

            report = tracing.traced_run(runner, ops, limit, limit * TRACE_LIMIT_FACTOR, args, OUT)
        else:
            ops_path = OUT / f"{args.workload}-seed{args.seed}-ops.json"
            report = timed_run(runner, ops, limit, args.seconds, setup_s, ops_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = report["first"]
    failed = [op.id for op in ops if first[op.id][1] in (ERROR, ladders.WRONG)]
    warm_failed = [op_id for op_id, (_, status, _) in warm.items() if status in (ERROR, ladders.WRONG)]
    for op_id in failed:
        print(f"{first[op_id][1]}: {op_id}: {first[op_id][2]}")
    for op_id in warm_failed:
        print(f"warm-up {warm[op_id][1]}: {op_id}: {warm[op_id][2]}")
    for line in report["lines"]:
        print(line)
    statuses = [first[op.id][1] for op in ops]
    census = {status: statuses.count(status) for status in sorted(set(statuses))}
    print(f"{args.workload}: {len(ops)} ops, statuses {census}, per-op limit {limit:g} s")
    result = {
        "correct": report["correct"] and not warm_failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report["metrics"].items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
