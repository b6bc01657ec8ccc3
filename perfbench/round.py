"""One timed round of a workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on stdout.  ``setup_s`` runs
from the parent's launch timestamp (``--launch``, on the shared monotonic
clock) to the end of set-up, so it covers interpreter start-up,
``import locdom``, building and relabelling the instances and, in traced
rounds, installing the wrappers.  Reference slices (see ``workloads``) run
before, between and after the timed parts; ``wall_norm`` and ``cpu_norm``
are the timed wall and CPU seconds over the median slice.  Answers are
checked after the clock stops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--trace-dir", default=None)
    args = ap.parse_args()

    import locdom  # noqa: F401  (import time belongs to set-up)
    import workloads

    state = workloads.prepare(args.workload, args.seed, args.size)
    tracer = None
    if args.trace_dir:
        from tracing import Tracer

        tracer = Tracer(args.trace_dir)
        tracer.install()
    setup_done = time.perf_counter()
    clock = workloads.Clock()
    clock.reference(workloads.REF_EDGE_SLICES)
    results = workloads.execute(args.workload, state, clock, args.workers)
    clock.reference(workloads.REF_EDGE_SLICES)
    if tracer is not None:
        tracer.finish()
    ref_s = statistics.median(clock.ref)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    failures, answers, nodes, solve_ms = workloads.check(args.workload, state, results)
    instances = workloads.instance_list(args.workload, state)
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    print(
        json.dumps(
            {
                "setup_s": setup_done - args.launch,
                "wall_s": clock.wall,
                "cpu_s": clock.cpu,
                "ref_s": ref_s,
                "ref_slices": len(clock.ref),
                "wall_norm": clock.wall / ref_s,
                "cpu_norm": clock.cpu / ref_s,
                "peak_rss_mb": max(own, kids) / 1024.0,
                "attempted": len(instances),
                "failed": len(failures),
                "failures": dict(list(failures.items())[:20]),
                "answers_sha256": digest,
                "nodes": nodes,
                "solve_ms": solve_ms,
                "instances": instances,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
