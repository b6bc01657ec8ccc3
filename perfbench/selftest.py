"""Seconds-long self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that

- every workload, traced and untraced, ends with the result line and
  prints exactly the metrics ``BENCHMARK.json`` names, with their units;
- a deliberately wrong expected value is counted as a failure, so the
  failed fraction rises above 0;
- in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the command exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_output(spec: dict, problems: list) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode} {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            where = f"{workload} trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {lines[-8:]}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {sorted(got)} differ from {sorted(want)}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    problems.append(f"{where}: {name} is not a number")


def check_wrong_expectation(problems: list) -> None:
    """Corrupt one expected value per workload; the checks must count it."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    for name in workloads.SIZES:
        state = workloads.prepare(name, 3, "tiny")
        if name == "census-small":
            state["ref"]["histogram"][0][3] -= 1
        else:
            state[0].expected += 1
        results = workloads.execute(name, state, workloads.Clock(), 1)
        failures = workloads.check(name, state, results)[0]
        attempted = len(workloads.instance_list(name, state))
        if not len(failures) / attempted > 0:
            problems.append(f"{name}: a wrong expected value left failed_frac at 0")


def check_bare_directory(problems: list) -> None:
    bare = BENCH / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        proc = run(bare, "solve-deep", 0)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or last.startswith("{"):
            problems.append("a directory without the package sources still produced a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list = []
    check_output(spec, problems)
    check_wrong_expectation(problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
