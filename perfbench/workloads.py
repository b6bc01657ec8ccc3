"""The benchmark's workloads: instances, the timed calls into locdom, and
the answer checks.

Every instance is relabelled by a permutation drawn from the workload seed
(seed 0 is the identity, the graphs exactly as ``locdom.families`` or the
census builds them).  Answers do not depend on the labelling, so the checks
are the same on every seed; search order does, so a gain that only holds
for the natural labelling shows up as a loss on other seeds.

Expected values come from ``oracle`` (closed forms, an LD predicate written
from the definition, frozen brute-force census histograms), never from the
solver being measured.
"""

from __future__ import annotations

import json
import random
import resource
import time
from collections import Counter

import oracle

# workload -> size -> parameters.  "tiny" sizes serve the self-test.
SIZES = {
    # P_14 refutes k = 6 by exhausting three part-size types (132k nodes),
    # P_12 refutes k = 6 the same way; C_12 finds a 6-part partition after
    # a short search; P_13 and C_13 are settled by type screening alone.
    # Refutations cost the same under every labelling, which keeps the
    # workload steady across seeds.
    "solve-deep": {
        "full": [("P", 12), ("C", 12), ("P", 13), ("C", 13), ("P", 14)],
        "tiny": [("P", 8), ("C", 8)],
    },
    # The pool probe, run only in solve-deep's traced runs, at two workers
    # and at one: P_15 refutes k = 7 and k = 6 with two heavy surviving
    # types at k = 6, so the pool has real parallel work.  One solve takes
    # 13 to 23 s at two workers, and its time swings by 20 to 30% between
    # runs when both cores are busy, so it is not a workload of its own.
    # C_10 has two surviving types.
    "solve-pool": {"full": [("P", 15)], "tiny": [("C", 10)]},
    # (largest order, relabelled copies per graph)
    "gamma-sweep": {"full": (18, 12), "tiny": (8, 1)},
    "census-small": {"full": "full", "tiny": "tiny"},
}


def relabelling(seed: int, name: str, n: int):
    """Permutation applied to instance ``name``; None (identity) at seed 0."""
    if seed == 0:
        return None
    perm = list(range(n))
    random.Random(f"{seed}/{name}").shuffle(perm)
    return perm


def family_edges(kind: str, n: int) -> list[tuple[int, int]]:
    edges = [(i, i + 1) for i in range(n - 1)]
    if kind == "C":
        edges.append((n - 1, 0))
    return edges


# -- reference work ---------------------------------------------------------

# The host's speed for the same pure-Python work drifts by 20 to 40% over
# seconds to minutes.  Each round therefore also times a fixed reference
# slice, written here and not in locdom, between its timed parts; wall and
# CPU time are reported in multiples of the median slice, which cancels the
# drift that both share.
REF_ADJ = oracle.adjacency(15, family_edges("C", 15))
REF_LD_SETS = 7479  # LD-sets of C_15: the slice's answer, checked every time
REF_EVERY_S = 0.2  # timed work between two slices
REF_EDGE_SLICES = 8  # slices before the first and after the last timed part


def reference_slice() -> float:
    """Seconds taken by the fixed reference work: the definition-level LD
    predicate on every subset of C_15 (about 40 ms on a 2-core VM)."""
    t0 = time.perf_counter()
    found = sum(1 for s in range(1 << 15) if oracle.is_ld(REF_ADJ, s))
    elapsed = time.perf_counter() - t0
    if found != REF_LD_SETS:
        raise AssertionError(f"reference slice found {found} LD-sets")
    return elapsed


class Clock:
    """Wall and CPU time summed over the timed parts of a round, and the
    reference slices run between them.

    CPU time counts this process and its reaped children (pool workers).
    Call ``between`` between timed parts: it runs a reference slice once
    ``REF_EVERY_S`` of timed work has passed since the last one."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.ref = []  # seconds per reference slice
        self._since_ref = 0.0

    @staticmethod
    def _cpu() -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime

    def reference(self, slices: int = 1) -> None:
        self.ref.extend(reference_slice() for _ in range(slices))
        self._since_ref = 0.0

    def between(self) -> None:
        if self._since_ref >= REF_EVERY_S:
            self.reference()

    def __enter__(self):
        self._cpu0 = self._cpu()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self._wall0
        self.wall += wall
        self.cpu += self._cpu() - self._cpu0
        self._since_ref += wall
        return False


class Instance:
    def __init__(self, name, graph, perm, adj, expected=None):
        self.name = name
        self.graph = graph
        self.perm = perm
        self.adj = adj  # adjacency built by the benchmark, for the checks
        self.expected = expected


def _family_instance(kind, n, seed, copy=None):
    from locdom import cycle, path

    name = f"{kind}_{n}" if copy is None else f"{kind}_{n}#{copy}"
    g = (path if kind == "P" else cycle)(n)
    perm = relabelling(seed, name, n)
    edges = family_edges(kind, n)
    if perm is not None:
        g = g.relabeled(perm, name=name)
        edges = [(perm[u], perm[v]) for u, v in edges]
    return Instance(name, g, perm, oracle.adjacency(n, edges))


# -- solve-deep / solve-pool ---------------------------------------------


def prepare_solve(workload, seed, size):
    out = []
    for kind, n in SIZES[workload][size]:
        inst = _family_instance(kind, n, seed)
        inst.expected = oracle.c_l_path(n) if kind == "P" else oracle.c_l_cycle(n)
        out.append(inst)
    return out


def execute_solve(instances, clock, workers):
    from locdom import c_l_exact

    results = []
    for inst in instances:
        clock.between()
        with clock:
            t0 = time.perf_counter()
            try:
                rep = c_l_exact(inst.graph, workers=workers)
            except Exception as exc:  # a failed instance is counted, not fatal
                rep = exc
            results.append((rep, (time.perf_counter() - t0) * 1e3))
    return results


def _check_report(inst, rep):
    """Failure message for one c_l_exact report, or None."""
    if isinstance(rep, Exception):
        return f"raised {rep!r}"
    expected = inst.expected
    if expected == "none":
        return None if rep.status == "none" and rep.c_l == "none" else f"got {rep.c_l}"
    if rep.status != "exact" or rep.c_l != expected:
        return f"status {rep.status}, C_L {rep.c_l}, expected {expected}"
    cert = rep.certificate
    if cert is None or len(cert) != expected:
        return "missing certificate or wrong part count"
    if not cert.verify(inst.graph):
        return "certificate fails LdcCertificate.verify"
    if not oracle.is_ldc_partition(inst.adj, cert.partition.masks(), cert.partners):
        return "certificate fails the independent check"
    return None


def check_solve(instances, results):
    failures = {}
    answers = []
    nodes = 0
    solve_ms = []
    for inst, (rep, ms) in zip(instances, results):
        msg = _check_report(inst, rep)
        if msg:
            failures[inst.name] = msg
        if not isinstance(rep, Exception):
            nodes += rep.nodes_explored
            answers.append([inst.name, rep.c_l, rep.nodes_explored])
        solve_ms.append(ms)
    return failures, answers, nodes, solve_ms


# -- gamma-sweep ----------------------------------------------------------


def prepare_gamma(workload, seed, size):
    top, copies = SIZES[workload][size]
    out = []
    for n in range(3, top + 1):
        for kind in ("P", "C"):
            for copy in range(copies):
                inst = _family_instance(kind, n, seed, copy)
                inst.expected = oracle.gamma_l_path_cycle(n)
                out.append(inst)
    return out


def execute_gamma(instances, clock, workers):
    from locdom import gamma_l

    results = []
    for inst in instances:
        clock.between()
        with clock:
            try:
                results.append(gamma_l(inst.graph))
            except Exception as exc:
                results.append(exc)
    return results


def _check_witness(inst, value, witness, expected):
    from locdom import is_ld_set

    if value != expected:
        return f"gamma_l {value}, expected {expected}"
    if len(witness) != value:
        return "witness size differs from gamma_l"
    if not is_ld_set(inst.graph, witness).ok or not oracle.is_ld(inst.adj, witness.bits):
        return "witness is not an LD-set"
    return None


def check_gamma(instances, results):
    failures = {}
    answers = []
    for inst, res in zip(instances, results):
        if isinstance(res, Exception):
            failures[inst.name] = f"raised {res!r}"
            continue
        value, witness = res
        msg = _check_witness(inst, value, witness, inst.expected)
        if msg:
            failures[inst.name] = msg
        answers.append([inst.name, value, witness.bits])
    return failures, answers, 0, []


# -- census-small ---------------------------------------------------------


def prepare_census(workload, seed, size):
    with open(oracle.REFERENCE_FILE) as fh:
        ref = json.load(fh)[SIZES[workload][size]]
    return {"seed": seed, "ref": ref, "instances": []}


def execute_census(state, clock, workers):
    from locdom import c_l_exact, d_loc, enumerate_graphs, enumerate_trees, gamma_l

    ref = state["ref"]
    seed = state["seed"]
    with clock:
        graphs = enumerate_graphs(ref["graph_order"])
    clock.between()
    with clock:
        trees = enumerate_trees(ref["tree_order"])
    state["counts"] = (len(graphs), len(trees))
    instances = state["instances"]
    for prefix, reps in ((f"G{ref['graph_order']}", graphs), (f"T{ref['tree_order']}", trees)):
        for i, g in enumerate(reps):
            name = f"{prefix}[{i}]"
            perm = relabelling(seed, name, g.n)
            if perm is not None:
                g = g.relabeled(perm, name=name)
            instances.append(Instance(name, g, perm, list(g.adj)))
    results = []
    for inst in instances:
        g = inst.graph
        clock.between()
        with clock:
            try:
                gam = gamma_l(g)
                dom = d_loc(g)
                t0 = time.perf_counter()
                rep = c_l_exact(g, workers=workers)
                results.append((gam, dom, rep, (time.perf_counter() - t0) * 1e3))
            except Exception as exc:
                results.append(exc)
    return results


def check_census(state, results):
    ref = state["ref"]
    failures = {}
    answers = []
    nodes = 0
    solve_ms = []
    if state["counts"] != (ref["graphs"], ref["trees"]):
        failures["census"] = f"class counts {state['counts']}, expected {(ref['graphs'], ref['trees'])}"
    triples = Counter()
    by_triple = {}
    for inst, res in zip(state["instances"], results):
        if isinstance(res, Exception):
            failures[inst.name] = f"raised {res!r}"
            continue
        (value, witness), dom, rep, ms = res
        msg = _check_witness(inst, value, witness, value)
        if msg is None and (
            dom.k != len(dom.partition)
            or not oracle.is_partition(inst.graph.n, [p.bits for p in dom.partition])
            or not all(oracle.is_ld(inst.adj, p.bits) for p in dom.partition)
        ):
            msg = "d_loc partition is not a partition into LD-sets"
        if msg is None:
            inst.expected = rep.c_l if rep.status in ("exact", "none") else "exact answer"
            msg = _check_report(inst, rep)
        if msg:
            failures[inst.name] = msg
        nodes += rep.nodes_explored
        triple = (value, dom.k, rep.c_l)
        triples[triple] += 1
        by_triple.setdefault(triple, []).append(inst.name)
        answers.append([inst.name, *triple, rep.nodes_explored])
        solve_ms.append(ms)
    expected = Counter({(g, d, c): k for g, d, c, k in ref["histogram"]})
    for triple, count in triples.items():
        surplus = count - expected.get(triple, 0)
        for name in by_triple[triple][:max(0, surplus)]:
            failures.setdefault(name, f"(gamma_l, d_loc, C_L) = {triple} exceeds the frozen histogram")
    return failures, answers, nodes, solve_ms


# -- dispatch -------------------------------------------------------------

STEPS = {
    "solve-deep": (prepare_solve, execute_solve, check_solve),
    "solve-pool": (prepare_solve, execute_solve, check_solve),
    "gamma-sweep": (prepare_gamma, execute_gamma, check_gamma),
    "census-small": (prepare_census, execute_census, check_census),
}


def prepare(workload, seed, size):
    """Set-up: build and relabel the instances (untimed)."""
    return STEPS[workload][0](workload, seed, size)


def execute(workload, state, clock, workers):
    """The timed calls; ``clock`` accumulates their wall and CPU time."""
    return STEPS[workload][1](state, clock, workers)


def check(workload, state, results):
    """(failures by instance, deterministic answers, solver nodes, per-solve ms)."""
    return STEPS[workload][2](state, results)


def instance_list(workload, state):
    instances = state["instances"] if workload == "census-small" else state
    return [{"name": i.name, "perm": i.perm} for i in instances]
