"""locdom benchmark: run one workload, check every answer, print metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-deep --seed 1 --seconds 40 --trace 0

Each round runs in a fresh interpreter (``round.py``) with ``src/`` on the
path.  Rounds repeat while another one fits in ``--seconds`` (a run holds
at least one) and every metric is the median over rounds.

``--trace 0`` prints the end-to-end metrics: set-up time, wall and CPU
time of the timed section in multiples of the round's reference slice
(see ``workloads.reference_slice``), and peak resident memory; the raw
seconds are printed above the result line.  ``--trace 1`` alternates
untraced and traced rounds (plus, on solve-deep, untraced rounds of the
pool probe, c_l_exact(P_15) at two workers and at one) and prints the
per-layer metrics; see README.md.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record, with the seed and
the instance list, goes to ``perfbench/results/``.  Without the package
sources next to it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("solve-deep", "gamma-sweep", "census-small")
POOL_PROBE = "solve-pool"  # round workload behind the solver.pool.* metrics
POOL_WORKERS = 2
RUN_LIMIT_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_norm", "ref"), ("cpu_norm", "ref"), ("peak_rss_mb", "MB"))
RAW = (("wall_s", "s"), ("cpu_s", "s"), ("ref_s", "s"))
PER_LAYER_UNITS = {
    "ld.is_ld_mask.calls": "count",
    "ld.is_ld_mask.self_s": "s",
    "ld.is_ld_mask.ns_per_call": "ns",
    "ld.gamma_l.calls": "count",
    "ld.gamma_l.self_s": "s",
    "ld.d_loc.self_s": "s",
    "solver.c_l_exact.calls": "count",
    "solver.c_l_exact.self_s": "s",
    "solver.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.type_labels.calls": "count",
    "solver.types_survived_frac": "frac",
    "solver.c_l_exact.p50_ms": "ms",
    "solver.c_l_exact.p98_ms": "ms",
    "solver.pool.speedup": "x",
    "solver.pool.cpu_over_wall": "x",
    "coalition.verify_ldc_partition.calls": "count",
    "coalition.verify_ldc_partition.self_s": "s",
    "canon.canonical_key.calls": "count",
    "canon.canonical_key.self_s": "s",
    "canon.tree_canonical_key.self_s": "s",
    "census.enumerate_graphs.s": "s",
    "census.enumerate_trees.s": "s",
    "census.reps_per_key": "x",
    "trace.overhead_frac": "frac",
}


class RoundFailed(RuntimeError):
    pass


def run_round(args, kind: str, deadline: float) -> dict:
    """Run one round in a fresh interpreter.  kind is "plain" or "traced"
    (the workload at one worker), or "pool" or "single" (the pool probe at
    two workers or one)."""
    workload = POOL_PROBE if kind in ("pool", "single") else args.workload
    workers = POOL_WORKERS if kind == "pool" else 1
    cmd = [
        sys.executable,
        str(BENCH / "round.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--workers", str(workers),
    ]
    trace_dir = None
    if kind == "traced":
        trace_dir = BENCH / "results" / f"trace-{os.getpid()}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        cmd += ["--trace-dir", str(trace_dir)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONSTARTUP", None)
    try:
        launch = time.perf_counter()
        proc = subprocess.Popen(
            cmd + ["--launch", repr(launch)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the round and its pool workers
            proc.communicate()
            raise RoundFailed(f"{kind} round ran past the {RUN_LIMIT_S:.0f} s limit")
        if proc.returncode != 0:
            raise RoundFailed(f"{kind} round exited {proc.returncode}: {err.strip()[-2000:]}")
        record = json.loads(out.strip().splitlines()[-1])
        record["kind"] = kind
        record["workers"] = workers
        if trace_dir is not None:
            from tracing import analyse

            record["trace"] = analyse(trace_dir)
        return record
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, math.ceil(round(q * len(values), 6)))
    return values[rank - 1]


def layer_metrics(traced: dict, plain: list, pool: list, single: list) -> dict:
    """Per-layer metrics of one traced round, with the ratios that need
    the untraced rounds of the same run."""
    st = traced["trace"]

    def calls(name):
        return st[name]["calls"]

    def self_s(name):
        return st[name]["self_s"]

    ld_calls = calls("ld.is_ld_mask")
    screened = calls("solver.type_labels")
    keys = calls("canon.canonical_key") + calls("canon.tree_canonical_key")
    reps = st["census.enumerate_graphs"]["sum"] + st["census.enumerate_trees"]["sum"]
    solve_s = median(sum(r["solve_ms"]) / 1e3 for r in plain)
    plain_wall = median(r["wall_norm"] for r in plain)
    return {
        "ld.is_ld_mask.calls": ld_calls,
        "ld.is_ld_mask.self_s": self_s("ld.is_ld_mask"),
        "ld.is_ld_mask.ns_per_call": self_s("ld.is_ld_mask") / ld_calls * 1e9 if ld_calls else 0.0,
        "ld.gamma_l.calls": calls("ld.gamma_l"),
        "ld.gamma_l.self_s": self_s("ld.gamma_l"),
        "ld.d_loc.self_s": self_s("ld.d_loc"),
        "solver.c_l_exact.calls": calls("solver.c_l_exact"),
        "solver.c_l_exact.self_s": self_s("solver.c_l_exact"),
        "solver.nodes": traced["nodes"],
        "solver.nodes_per_s": traced["nodes"] / solve_s if solve_s else 0.0,
        "solver.type_labels.calls": screened,
        "solver.types_survived_frac": st["solver.type_labels"]["sum"] / screened if screened else 0.0,
        "solver.c_l_exact.p50_ms": median(percentile(r["solve_ms"], 0.50) for r in plain),
        "solver.c_l_exact.p98_ms": median(percentile(r["solve_ms"], 0.98) for r in plain),
        # raw seconds: the probe's one long call leaves no room for
        # reference slices, and its rounds run back to back
        "solver.pool.speedup": (
            median(r["wall_s"] for r in single) / median(r["wall_s"] for r in pool) if pool else 0.0
        ),
        "solver.pool.cpu_over_wall": median(r["cpu_s"] / r["wall_s"] for r in pool) if pool else 0.0,
        "coalition.verify_ldc_partition.calls": calls("coalition.verify_ldc_partition"),
        "coalition.verify_ldc_partition.self_s": self_s("coalition.verify_ldc_partition"),
        "canon.canonical_key.calls": calls("canon.canonical_key"),
        "canon.canonical_key.self_s": self_s("canon.canonical_key"),
        "canon.tree_canonical_key.self_s": self_s("canon.tree_canonical_key"),
        "census.enumerate_graphs.s": st["census.enumerate_graphs"]["outer_s"],
        "census.enumerate_trees.s": st["census.enumerate_trees"]["outer_s"],
        "census.reps_per_key": reps / keys if keys else 0.0,
        "trace.overhead_frac": traced["wall_norm"] / plain_wall - 1.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: self-test sizes")
    args = ap.parse_args()
    if not (SRC / "locdom" / "__init__.py").is_file():
        print(f"locdom sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2

    sys.path.insert(0, str(BENCH))
    (BENCH / "results").mkdir(exist_ok=True)
    cycle = ["plain"]
    if args.trace:
        cycle.append("traced")
        if args.workload == "solve-deep":
            cycle += ["pool", "single"]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rounds: list = []
    errors: list = []
    while True:
        cycle_start = time.monotonic()
        try:
            for kind in cycle:
                rounds.append(run_round(args, kind, deadline))
        except RoundFailed as exc:
            errors.append(str(exc))
            break
        now = time.monotonic()
        if now + (now - cycle_start) - start > args.seconds:
            break  # another cycle would overrun the measuring time

    plain = [r for r in rounds if r["kind"] == "plain"]
    traced = [r for r in rounds if r["kind"] == "traced"]
    pool = [r for r in rounds if r["kind"] == "pool"]
    single = [r for r in rounds if r["kind"] == "single"]
    attempted = sum(r["attempted"] for r in rounds) + len(errors)
    failed = sum(r["failed"] for r in rounds) + len(errors)
    for group in (plain + traced, pool + single):
        if len({r["answers_sha256"] for r in group}) > 1:
            errors.append("answers or node counts differ between rounds")
    correct = failed == 0 and not errors and bool(plain) and (not args.trace or bool(traced))

    metrics = {}
    if plain and not args.trace:
        metrics = {name: {"value": median(r[name] for r in plain), "unit": unit}
                   for name, unit in END_TO_END}
    elif plain and traced:
        per_round = [layer_metrics(t, plain, pool, single) for t in traced]
        metrics = {name: {"value": median(m[name] for m in per_round), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": sys.version.split()[0],
        "instances": plain[0]["instances"] if plain else [],
        "pool_instances": pool[0]["instances"] if pool else [],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "errors": errors,
        "failures": [r["failures"] for r in rounds if r["failures"]],
        "metrics": metrics,
        "rounds": [
            {k: v for k, v in r.items() if k not in ("instances", "solve_ms", "trace")}
            for r in rounds
        ],
    }
    tag = "-tiny" if args.size == "tiny" else ""
    out = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for msg in errors:
        print(f"error: {msg}")
    for failures in record["failures"][:3]:
        for name, msg in list(failures.items())[:5]:
            print(f"failed: {name}: {msg}")
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"attempted={attempted} failed={failed} failed_frac={record['failed_frac']:.4f}")
    if plain:
        for name, unit in RAW:
            print(f"  {name:40s} {median(r[name] for r in plain):.6g} {unit} (raw, not a metric)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
