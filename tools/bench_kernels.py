"""Before/after timings of the LD kernels, gamma_l, the census phases and
the C_L solver.

Usage, from the repository root, with OLD a checkout of the commit to
compare against:

    python3 tools/bench_kernels.py --before OLD/src --after src \\
        --before-label OLD_COMMIT --after-label NEW_COMMIT --out BENCH_kernels.json

Each of the ROUNDS rounds measures each side in a fresh interpreter that
has only that side's source tree on its path; the sides alternate which
goes first, and every figure is the median over the rounds, with its
quartiles.

The host's speed for the same work drifts by tens of percent within
minutes, so every timing is also given in units of perfbench's reference
slice (workloads.reference_slice, a fixed pure-Python job), run before
each section and after the last; reference.slice_s is the round's median
slice.  A key ending in _s (seconds) gets a twin ending in _ref, the
seconds over the mean of the two slices taken just before and just after
its section, and a key ns_per_X a twin uref_per_X, in millionths of that
mean.  Compare sides by these: the raw figures carry the drift.

Kernels: ns per call of ld.is_ld_mask and ld.singleton_completers,
looped over one fixed list of uniformly random masks (random.Random(0),
the same on both sides) on a 10-vertex tree, P_15 and C_20.  The loop and
the call are inside the figure.

Census: enumerate_graphs(7) and enumerate_trees(10), each timed on its
own, then gamma_l, d_loc and c_l_exact on each of the 959 graphs, as the
census-small benchmark workload does at seed 0, each call timed on its
own.  key_searches counts the canonical searches the two enumerations
run: the census module's calls of canonical_key (one per candidate) and,
where it has it, of canonical_search (one per parent).  The C_max walk is
timed inside c_l_exact by wrapping solver._Search.capacity; nodes are the
summed nodes_explored, walk nodes the ticks the walks took, and
colex_searches the calls of ld._colex_least_ld (one per cardinality
gamma_l tries).

Gamma: seconds of gamma_l on the gamma-sweep benchmark instances at seed
1 (perfbench/workloads.py builds them: 12 relabelled copies each of P_n
and C_n, 3 <= n <= 18), and on prism(12), prism(14) and mobius_ladder(14)
(24, 28 and 28 vertices), each graph a fresh object so no memo answers.
The nodes are the colex-walk nodes the locating prune admitted, counted
in a second, untimed pass by wrapping ld.colex_walk.

Solve: ns per search node of c_l_exact on P_14, P_15, C_15, P_18 and
C_18, the fastest of INNER solves, each on a fresh graph, over its exact
nodes_explored (walk nodes included); kernel_calls counts, in a second,
untimed pass, the completer masks the search judges for sizes whose
walk stopped early: the calls of solver.completers.

Solve-deep: seconds per c_l_exact solve, the fastest of DEEP_INNER, on the
benchmark's solve-deep graphs P_12, C_12, P_13, C_13 and P_14 (seed 0,
unrelabelled), and their sum.  Compare sides by time per solve, not per
node: where a change removes walk nodes, the nodes left cost more each.
walk_nodes counts the ticks of the C_max walks and early_walks the walks
that stopped before the end (their size gets no table), both in a
second, untimed pass that wraps solver._Search.capacity.

Trees: seconds of c_l_exact, gamma_l search included, summed over fresh
copies of the 106 trees of order 10 (enumerate_trees(10)), and on one
random recursive tree of order 16 (TREE16: gamma_l 8, C_L 4) whose k = 5
types were the solver's costliest tree refutation; with nodes, the
summed nodes_explored, and walk_nodes, the ticks of the C_max walks,
counted in the timed pass by wrapping solver._Search.capacity.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TREE10 = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 6), (6, 7), (3, 8), (8, 9)]
TREE16 = [(1, 0), (2, 1), (3, 0), (4, 2), (5, 4), (6, 5), (7, 1), (8, 2),
          (9, 2), (10, 5), (11, 10), (12, 7), (13, 1), (14, 1), (15, 14)]
MASKS = 20_000
ROUNDS = 7
INNER = 3  # the fastest of INNER passes over the masks counts
DEEP_INNER = 15  # solve-deep solves take about a millisecond each


def _kernels() -> dict:
    from locdom.families import cycle, path
    from locdom.graph import Graph
    from locdom.ld import is_ld_mask, singleton_completers

    out = {}
    for name, g in (("tree10", Graph(10, TREE10)), ("P15", path(15)), ("C20", cycle(20))):
        rng = random.Random(0)
        masks = [rng.getrandbits(g.n) for _ in range(MASKS)]
        for fname, fn in (("is_ld_mask", is_ld_mask), ("singleton_completers", singleton_completers)):
            best = None
            for _ in range(INNER):
                t0 = time.perf_counter_ns()
                for m in masks:
                    fn(g, m)
                dt = time.perf_counter_ns() - t0
                best = dt if best is None else min(best, dt)
            out[f"{fname}.{name}.ns_per_call"] = best / len(masks)
    return out


def _census() -> dict:
    from locdom import census, ld, solver

    clock = time.perf_counter
    walk = {"s": 0.0, "nodes": 0}
    searches = [0]
    keyed = [0]
    capacity = solver._Search.capacity
    colex_least_ld = ld._colex_least_ld

    def timed_capacity(self, t):
        if t in self.capacities:
            return capacity(self, t)
        n0, t0 = self.nodes, clock()
        try:
            return capacity(self, t)
        finally:
            walk["s"] += clock() - t0
            walk["nodes"] += self.nodes - n0

    def counted(g, k, *deadline):
        searches[0] += 1
        return colex_least_ld(g, k, *deadline)

    def keying(search):
        def counted_search(g):
            keyed[0] += 1
            return search(g)

        return counted_search

    for name in ("canonical_key", "canonical_search"):
        if hasattr(census, name):
            setattr(census, name, keying(getattr(census, name)))
    solver._Search.capacity = timed_capacity
    ld._colex_least_ld = counted
    t0 = clock()
    graphs = census.enumerate_graphs(7)
    t1 = clock()
    graphs += census.enumerate_trees(10)
    phases = {
        "enumerate_graphs_s": t1 - t0,
        "enumerate_trees_s": clock() - t1,
        "gamma_l_s": 0.0,
        "d_loc_s": 0.0,
        "c_l_exact_s": 0.0,
    }
    nodes = 0
    for g in graphs:
        for key, fn in (("gamma_l_s", ld.gamma_l), ("d_loc_s", ld.d_loc), ("c_l_exact_s", solver.c_l_exact)):
            t0 = clock()
            result = fn(g)
            phases[key] += clock() - t0
        nodes += result.nodes_explored
    return {
        **phases,
        "cmax_walk_s": walk["s"],
        "graphs": len(graphs),
        "key_searches": keyed[0],
        "nodes": nodes,
        "cmax_walk_nodes": walk["nodes"],
        "colex_searches": searches[0],
    }


def _gamma() -> dict:
    from locdom import ld
    from locdom.cubic import mobius_ladder, prism

    from workloads import prepare_gamma

    builds = {
        "sweep": lambda: [inst.graph for inst in prepare_gamma("gamma-sweep", 1, "full")],
        "prism12": lambda: [prism(12)],
        "prism14": lambda: [prism(14)],
        "mobius14": lambda: [mobius_ladder(14)],
    }
    walk = ld.colex_walk
    admitted = [0]

    def counted_walk(g, k, admit, leaf):
        def counted_admit(chosen, limit):
            ok = admit(chosen, limit)
            admitted[0] += ok
            return ok

        return walk(g, k, counted_admit, leaf)

    out = {}
    for name, build in builds.items():
        graphs = build()
        t0 = time.perf_counter()
        for g in graphs:
            ld.gamma_l(g)
        out[f"{name}_s"] = time.perf_counter() - t0
        admitted[0] = 0
        ld.colex_walk = counted_walk
        try:
            for g in build():
                ld.gamma_l(g)
        finally:
            ld.colex_walk = walk
        out[f"{name}_nodes"] = admitted[0]
    return out


def _solve() -> dict:
    from locdom import solver
    from locdom.families import cycle, path

    builds = {
        "P14": lambda: path(14),
        "P15": lambda: path(15),
        "C15": lambda: cycle(15),
        "P18": lambda: path(18),
        "C18": lambda: cycle(18),
    }
    kernel = solver.completers
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    out = {}
    for name, build in builds.items():
        best = None
        for _ in range(INNER):
            g = build()
            t0 = time.perf_counter_ns()
            nodes = solver.c_l_exact(g).nodes_explored
            dt = time.perf_counter_ns() - t0
            best = dt if best is None else min(best, dt)
        calls[0] = 0
        solver.completers = counted
        try:
            solver.c_l_exact(build())
        finally:
            solver.completers = kernel
        out[f"{name}.nodes"] = nodes
        out[f"{name}.ns_per_node"] = best / nodes
        out[f"{name}.kernel_calls"] = calls[0]
    return out


def _solve_deep() -> dict:
    from locdom import solver
    from locdom.families import cycle, path

    builds = {
        "P12": lambda: path(12),
        "C12": lambda: cycle(12),
        "P13": lambda: path(13),
        "C13": lambda: cycle(13),
        "P14": lambda: path(14),
    }
    capacity = solver._Search.capacity
    walks = {"nodes": 0, "early": 0}

    def counted_capacity(self, t):
        if t in self.capacities:
            return capacity(self, t)
        n0 = self.nodes
        try:
            return capacity(self, t)
        finally:
            walks["nodes"] += self.nodes - n0
            walks["early"] += t not in self.tables

    out = {}
    total = 0.0
    for name, build in builds.items():
        best = None
        for _ in range(DEEP_INNER):
            g = build()
            t0 = time.perf_counter()
            nodes = solver.c_l_exact(g).nodes_explored
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        total += best
        walks.update(nodes=0, early=0)
        solver._Search.capacity = counted_capacity
        try:
            solver.c_l_exact(build())
        finally:
            solver._Search.capacity = capacity
        out[f"{name}.solve_s"] = best
        out[f"{name}.nodes"] = nodes
        out[f"{name}.walk_nodes"] = walks["nodes"]
        out[f"{name}.early_walks"] = walks["early"]
    out["total.solve_s"] = total
    return out


def _trees() -> dict:
    from locdom import solver
    from locdom.census import enumerate_trees
    from locdom.graph import Graph

    builds = {
        "tree10": lambda: [Graph(g.n, g.edges()) for g in enumerate_trees(10)],
        "tree16": lambda: [Graph(16, TREE16)],
    }
    capacity = solver._Search.capacity
    walk = [0]

    def counted_capacity(self, t):
        n0 = self.nodes
        try:
            return capacity(self, t)
        finally:
            walk[0] += self.nodes - n0

    out = {}
    solver._Search.capacity = counted_capacity
    try:
        for name, build in builds.items():
            graphs = build()
            walk[0] = nodes = 0
            t0 = time.perf_counter()
            for g in graphs:
                nodes += solver.c_l_exact(g).nodes_explored
            out[f"{name}.c_l_exact_s"] = time.perf_counter() - t0
            out[f"{name}.nodes"] = nodes
            out[f"{name}.walk_nodes"] = walk[0]
    finally:
        solver._Search.capacity = capacity
    return out


def _in_ref_units(section: dict, ref_s: float) -> dict:
    """The section with each timing's twin in reference-slice units."""
    out = {}
    for key, value in section.items():
        out[key] = value
        if key.endswith("_s"):
            out[key[:-2] + "_ref"] = value / ref_s
        elif "ns_per_" in key:
            out[key.replace("ns_per_", "uref_per_")] = value * 1e-3 / ref_s
    return out


def _measure() -> dict:
    sys.path.insert(0, str(PERFBENCH))
    from workloads import reference_slice

    sections = {
        "kernels": _kernels,
        "gamma": _gamma,
        "census": _census,
        "solve": _solve,
        "solve_deep": _solve_deep,
        "trees": _trees,
    }
    slices = [reference_slice()]
    out = {}
    for name, measure in sections.items():
        section = measure()
        slices.append(reference_slice())
        out[name] = _in_ref_units(section, (slices[-2] + slices[-1]) / 2)
    return {"reference": {"slice_s": statistics.median(slices)}, **out}


def _summary(rounds: list[dict]) -> dict:
    out = {}
    for section in rounds[0]:
        out[section] = {}
        for key in rounds[0][section]:
            values = [r[section][key] for r in rounds]
            if isinstance(values[0], int):
                if len(set(values)) != 1:
                    raise RuntimeError(f"count {key} differs between rounds: {values}")
                out[section][key] = values[0]
                continue
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
            out[section][key] = {k: float(f"{v:.4g}") for k, v in (("median", med), ("q1", q1), ("q3", q3))}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--before", help="source tree (the directory holding locdom) of the old side")
    ap.add_argument("--after", help="source tree of the new side")
    ap.add_argument("--before-label", default="before")
    ap.add_argument("--after-label", default="after")
    ap.add_argument("--out", default="BENCH_kernels.json")
    ap.add_argument("--measure", help=argparse.SUPPRESS)  # child: one round
    args = ap.parse_args()
    if args.measure:
        sys.path.insert(0, args.measure)
        import locdom

        if Path(args.measure).resolve() not in Path(locdom.__file__).resolve().parents:
            raise SystemExit(f"locdom was imported from {locdom.__file__}, not {args.measure}")
        print(json.dumps(_measure()))
        return
    if not (args.before and args.after):
        ap.error("--before and --after are required")
    runs = {"before": [], "after": []}
    for i in range(ROUNDS):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for side in order:
            src = args.before if side == "before" else args.after
            proc = subprocess.run(
                [sys.executable, __file__, "--measure", src],
                check=True, capture_output=True, text=True,
            )
            runs[side].append(json.loads(proc.stdout))
    record = {
        "harness": "tools/bench_kernels.py",
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(terse=True),
            "processor": platform.machine(),
        },
        "rounds": ROUNDS,
        "masks_per_graph": MASKS,
        "before": {"label": args.before_label, **_summary(runs["before"])},
        "after": {"label": args.after_label, **_summary(runs["after"])},
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
