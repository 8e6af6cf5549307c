"""Self-check of the benchmark harness, at a tiny size.

    python3 perfbench/selfcheck.py

From the root of a checkout, checks that:

- each workload's tiny ladder runs with every answer correct and no
  failure, and prints every end-to-end metric with its unit;
- two traced tiny runs of the same seed give every per-layer metric and
  exactly the same call and work counts;
- BENCHMARK.json names the same workloads, limits and metrics as the code;
- the harness's golden cases and choice-form input still match the
  acceptance tests and the program;
- without src/ the benchmark exits non-zero and prints no result.

Exits 0 when all hold; prints one line per failed check otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ladders  # noqa: E402
import tracing  # noqa: E402
from run import OUT, UNITS  # noqa: E402

SEED = 7


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload: str, spec: dict, failures: list[str]) -> None:
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", "0", "--tiny")
    if proc.returncode != 0:
        failures.append(f"{workload}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return
    result = result_of(proc)
    if not result["correct"] or result["failed"]:
        failures.append(f"{workload}: tiny ladder not all correct:\n{proc.stdout}")
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        failures.append(f"{workload}: end-to-end metrics {got}, want {want}")

    counts = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", "1", "--tiny")
        if proc.returncode != 0:
            failures.append(f"{workload} traced: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return
        result = result_of(proc)
        want = {m["name"]: m["unit"] for m in spec["per_layer"]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want or not result["correct"]:
            failures.append(f"{workload} traced: wrong metric set or answers:\n{proc.stdout[-2000:]}")
        counts.append((OUT / "traces" / f"{workload}-seed{SEED}.counts.json").read_text())
    if counts[0] != counts[1]:
        failures.append(f"{workload}: call and work counts differ between two traced runs of seed {SEED}")


def check_spec(spec: dict, failures: list[str]) -> None:
    names = [w["name"] for w in spec["workloads"]]
    if names != list(ladders.WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {names}, code has {list(ladders.WORKLOADS)}")
    for w in spec["workloads"]:
        limit = ladders.LIMITS.get(w["name"])
        if limit is None or f"limit {limit:g} s" not in w["why"]:
            failures.append(f"BENCHMARK.json: the why of {w['name']} must state 'limit {limit:g} s'")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != UNITS:
        failures.append(f"BENCHMARK.json end_to_end {e2e}, code reports {UNITS}")
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if per_layer != tracing.metric_table():
        failures.append("BENCHMARK.json per_layer differs from tracing.metric_table()")


def check_inputs(failures: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from protolab.cfp.trace_parser import parse_trace
    from protolab.cfp.transforms import eliminate_shuffle

    fixture = (ROOT / "src" / "protolab" / "fixtures" / "flexible_purchase.trace").read_text()
    if parse_trace(ladders.FLEX_CHOICE) != eliminate_shuffle(parse_trace(fixture)):
        failures.append("ladders.FLEX_CHOICE is no longer the choice form of flexible_purchase.trace")
    sys.path.insert(0, str(ROOT / "tests"))
    import test_acceptance

    want = [(cid, outcome.value, tuple(r.value for r in reasons)) for cid, _e, _c, outcome, reasons in test_acceptance._golden_cases()]
    got = [(cid, outcome, reasons) for cid, _name, _flags, outcome, reasons in ladders.golden_cases()]
    if got != want:
        failures.append("ladders.golden_cases() no longer matches the golden cases of tests/test_acceptance.py")


def check_bare_directory(failures: list[str]) -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "toolchain", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            failures.append(f"without src/ the benchmark must fail without a result; exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    check_spec(spec, failures)
    check_inputs(failures)
    check_bare_directory(failures)
    for workload in ladders.WORKLOADS:
        check_workload(workload, spec, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck: " + ("PASS" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
