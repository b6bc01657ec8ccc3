"""Exact C_L solver: type-first search with label pruning.

Candidate sizes k are tried downward from min(n, n - gamma_l + 2); for each
k the multisets of part sizes (types, largest first) are screened by two
arguments that need no assignment search at all (a part size with no
possible partner, a part size forced to carry too many partners), and
surviving types go to a slot-sequential assignment search with symmetry
breaking and incremental partner checks.  The search takes the predicate
parts are judged by: ld.is_ld_mask for C_L, ld.is_dominating for the plain
coalition number, where a dominating singleton may also stand alone.
"""

from __future__ import annotations

import functools
import multiprocessing
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Optional, Union

from .coalition import LdcCertificate, certify_masks
from .graph import DisconnectedGraphError, Graph, bits_of, is_connected, popcount
from .ld import colex_subsets, gamma_l_value, is_dominating, is_ld_mask

SCHEMA_VERSION = 1


class BudgetExceeded(RuntimeError):
    """Search ran out of wall-clock or node budget before an answer."""

    def __init__(self, message: str, nodes_explored: int = 0):
        super().__init__(message)
        self.nodes_explored = nodes_explored


@dataclass(frozen=True)
class Budget:
    """Caps on the assignment search; None means unlimited."""

    seconds: Optional[float] = None
    nodes: Optional[int] = None

    def deadline(self) -> Optional[float]:
        if self.seconds is None:
            return None
        return time.monotonic() + self.seconds


@dataclass
class SolveReport:
    """Solver answer with certificate, bound trace, and search statistics."""

    c_l: Union[int, str, None]
    certificate: Optional[LdcCertificate]
    bounds_used: list = field(default_factory=list)
    nodes_explored: int = 0
    elapsed: float = 0.0
    status: str = "exact"

    def to_json_dict(self) -> dict:
        parts = None
        partners = None
        if self.certificate is not None:
            parts = [p.to_sorted_list() for p in self.certificate.partition]
            partners = list(self.certificate.partners)
        return {
            "schema_version": SCHEMA_VERSION,
            "c_l": self.c_l,
            "parts": parts,
            "partners": partners,
            "bounds_used": [[name, value] for name, value in self.bounds_used],
            "nodes_explored": self.nodes_explored,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
            "status": self.status,
        }


def c_l_numeric(value: Union[int, str, None]) -> int:
    """Comparable form of a c_l value; "none" sorts below 1."""
    if value == "none":
        return 0
    if value is None:
        raise ValueError("inconclusive c_l has no numeric form")
    return int(value)


def partitions_of_int(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into exactly k positive parts, each tuple
    descending, enumerated largest-first."""
    if k <= 0 or k > n:
        return

    def rec(remaining: int, slots: int, cap: int):
        if slots == 1:
            if remaining <= cap:
                yield (remaining,)
            return
        lo = -(-remaining // slots)  # ceil keeps parts descending
        for first in range(min(cap, remaining - slots + 1), lo - 1, -1):
            for rest in rec(remaining - first, slots - 1, first):
                yield (first,) + rest

    yield from rec(n, k, n)


def type_labels(sizes: tuple[int, ...], gamma: int, max_partners: int) -> frozenset:
    """Why a part-size type admits no partition, decided from sizes alone.

    Two parts can only union to a feasible set when their sizes sum to at
    least gamma, so label {1} marks a type with some part size that has no
    possible partner at all.  Failing that, label {1, 2} marks a type with
    a part forced to partner more parts than any one part may carry
    (max_partners).  Empty set: the type survives to assignment search.

    A size-1 part is exempt when gamma <= 1: it may be a good singleton
    standing alone, which needs no partner.
    """
    k = len(sizes)
    possible = []
    for j in range(k):
        if sizes[j] == 1 and gamma <= 1:
            possible.append(None)
            continue
        pj = frozenset(
            i for i in range(k) if i != j and sizes[i] + sizes[j] >= gamma
        )
        if not pj:
            return frozenset({1})
        possible.append(pj)
    for i in range(k):
        forced = sum(1 for j in range(k) if j != i and possible[j] == frozenset({i}))
        if forced > max_partners:
            return frozenset({1, 2})
    return frozenset()


# -- assignment search ---------------------------------------------------

# Set in pool workers: once one type settles the answer, the parent sets it
# and the searches still running stop at their next check.
_stop = None


def _worker_init(stop) -> None:
    global _stop
    _stop = stop


class _Engine:
    """Slot-sequential assignment search for one part-size type.

    good(g, mask) is the predicate parts are judged by (is_ld_mask or
    is_dominating) and gamma the size of the least good set.  Slots are
    filled in capacity-descending order with lexicographic combinations
    from the remaining pool; equal-capacity slots keep their least elements
    increasing, and with rotation_root set (vertex-transitive callers only)
    the first slot must contain vertex 0.  After each placement: the part
    must not already be good alone, unless it is a singleton and
    gamma <= 1 (then it stands alone and needs no partner); every placed
    part must have an exact partner or an optimistic one through the
    untouched pool; and once the remaining slots are too small to partner
    a singleton, enough pool vertices must complete some placed part (or
    stand alone) to fill every remaining singleton slot.

    Two caches, one per engine, sit in front of good.  verdict(mask) is
    good(g, mask) memoized, so each distinct mask is judged once: the
    search asks about a few thousand masks a million times.
    completers(p) is the mask of every w outside the part p with
    good(p | {w}), and alone holds the good singletons when gamma <= 1
    (else 0).  The singleton shortfall is then a popcount of the pool
    against the completer_reach of the placed parts, which place() carries
    down once the prune applies (it applies at every deeper slot too).
    Both fill lazily: a search touches a small, graph-dependent share of
    the 2^n masks, and Graph allows n up to 128.
    """

    def __init__(
        self,
        g: Graph,
        gamma: int,
        good,
        deadline: Optional[float] = None,
        node_cap: Optional[int] = None,
        rotation_root: bool = False,
    ):
        self.g = g
        self.gamma = gamma
        self.deadline = deadline
        self.node_cap = node_cap
        self.rotation_root = rotation_root
        self.nodes = 0
        full = g.full_mask()
        self.verdict = verdict = functools.cache(lambda m: good(g, m))
        self.completers = functools.cache(
            lambda p: sum(1 << w for w in bits_of(full & ~p) if verdict(p | 1 << w))
        )
        self.alone = 0
        if gamma <= 1:
            self.alone = sum(1 << w for w in range(g.n) if verdict(1 << w))

    def completer_reach(self, cands) -> int:
        """Vertices that complete some part in cands to a good set, or
        that are good alone."""
        reach = self.alone
        for p in cands:
            reach |= self.completers(p)
        return reach

    def _tick(self):
        self.nodes += 1
        if self.node_cap is not None and self.nodes > self.node_cap:
            raise BudgetExceeded("node budget exceeded", self.nodes)
        if self.nodes % 256 == 0:
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise BudgetExceeded("time budget exceeded", self.nodes)
            if _stop is not None and _stop.is_set():
                raise BudgetExceeded("another type settled the answer", self.nodes)

    def search_type(self, caps: tuple[int, ...]) -> Optional[list[int]]:
        """Masks of a partition realizing the type, or None (exhausted)."""
        g = self.g
        gamma = self.gamma
        verdict = self.verdict
        completers = self.completers
        k = len(caps)
        singles_after = [0] * (k + 1)
        for i in range(k - 1, -1, -1):
            singles_after[i] = singles_after[i + 1] + (1 if caps[i] == 1 else 0)

        parts: list[int] = []  # placed masks
        mins: list[int] = []  # least element per placed part
        needs: list[bool] = []  # placed part needs (and can be) a partner

        # reach: completer_reach of the placed parts, None until the
        # singleton-shortfall prune first applies
        def place(
            i: int, pool: int, settled: list[bool], reach: Optional[int]
        ) -> Optional[list[int]]:
            if i == k:
                return parts[:] if all(settled) else None
            cap = caps[i]
            floor = mins[-1] if (i > 0 and caps[i - 1] == cap) else -1
            avail = [v for v in bits_of(pool) if v > floor]
            if self.rotation_root and i == 0:
                tail = [v for v in avail if v > 0]
                combos = ((0,) + rest for rest in combinations(tail, cap - 1))
            else:
                combos = combinations(avail, cap)
            for combo in combos:
                self._tick()
                m = 0
                for v in combo:
                    m |= 1 << v
                # gamma <= 1 only for plain coalitions: every connected graph
                # of order >= 3 has gamma_l >= 2, and C_L searches only those
                standalone = cap == 1 and gamma <= 1 and verdict(m)
                if cap >= gamma and not standalone and verdict(m):
                    continue
                rest = pool & ~m
                needs_i = not standalone
                new_settled = settled + [not needs_i]
                if needs_i:
                    for j in range(i):
                        if (
                            needs[j]
                            and not (new_settled[j] and new_settled[i])
                            and verdict(parts[j] | m)
                        ):
                            new_settled[j] = True
                            new_settled[i] = True
                ok = True
                for j in range(i + 1):
                    if not new_settled[j]:
                        base = parts[j] if j < i else m
                        if not verdict(base | rest):
                            ok = False
                            break
                reach_i = None
                if ok:
                    s = singles_after[i + 1]
                    cap_future = caps[i + 1] if i + 1 < k else 0
                    if s > 0 and cap_future + 1 < gamma:
                        if reach is None:
                            reach = self.completer_reach(
                                p for j, p in enumerate(parts) if needs[j]
                            )
                        reach_i = reach | completers(m) if needs_i else reach
                        if popcount(rest & reach_i) < s:
                            ok = False
                if ok:
                    parts.append(m)
                    mins.append(combo[0])
                    needs.append(needs_i)
                    found = place(i + 1, rest, new_settled, reach_i)
                    if found is not None:
                        return found
                    parts.pop()
                    mins.pop()
                    needs.pop()
            return None

        return place(0, (1 << g.n) - 1, [], None)


def _search_one_type(
    g: Graph,
    gamma: int,
    caps: tuple[int, ...],
    good,
    deadline: Optional[float],
    node_cap: Optional[int],
    rotation_root: bool,
) -> tuple[str, Optional[list[int]], int]:
    eng = _Engine(g, gamma, good, deadline, node_cap, rotation_root)
    try:
        res = eng.search_type(caps)
    except BudgetExceeded as exc:
        return ("budget", None, exc.nodes_explored)
    return ("sat" if res is not None else "unsat", res, eng.nodes)


def _worker_task(args) -> tuple[str, Optional[list[int]], int]:
    n, edges, gamma, caps, good, deadline, node_cap, rotation = args
    g = Graph(n, edges)
    return _search_one_type(g, gamma, caps, good, deadline, node_cap, rotation)


def _run_types(
    g: Graph,
    gamma: int,
    types: list[tuple[int, ...]],
    good,
    deadline: Optional[float],
    node_budget: Optional[int],
    nodes_so_far: int,
    rotation_root: bool,
    workers: int,
) -> tuple[str, Optional[list[int]], int]:
    """Search the given types in order; first satisfiable type wins.

    Returns (status, masks or None, total nodes).  status "budget" means
    some type ran out before an answer and no earlier type was satisfiable.
    Pooled types are answered in order, so the total counts the same types
    at any worker count.  Once a type settles the answer the workers are
    stopped through a shared flag and joined, never terminated: a worker
    killed while holding the result queue's lock hangs Pool.terminate().
    """
    nodes = nodes_so_far
    if workers > 1 and len(types) > 1:
        if deadline is not None and deadline <= time.monotonic():
            return ("budget", None, nodes)
        per_cap = None if node_budget is None else max(0, node_budget - nodes)
        # the deadline stays absolute: forked workers share CLOCK_MONOTONIC,
        # and a task that starts late must not get a fresh budget
        payload = [
            (g.n, g.edges(), gamma, caps, good, deadline, per_cap, rotation_root)
            for caps in types
        ]
        ctx = multiprocessing.get_context("fork")
        stop = ctx.Event()
        pool = ctx.Pool(workers, initializer=_worker_init, initargs=(stop,))
        try:
            for status, masks, used in pool.imap(_worker_task, payload):
                nodes += used
                if status != "unsat":
                    return (status, masks, nodes)
            return ("unsat", None, nodes)
        finally:
            stop.set()
            pool.close()
            pool.join()
    for caps in types:
        per_cap = None if node_budget is None else max(0, node_budget - nodes)
        status, masks, used = _search_one_type(
            g, gamma, caps, good, deadline, per_cap, rotation_root
        )
        nodes += used
        if status != "unsat":
            return (status, masks, nodes)
    return ("unsat", None, nodes)


def c_l_exact(
    g: Graph,
    budget: Optional[Budget] = None,
    workers: int = 1,
    assume_vertex_transitive: bool = False,
) -> SolveReport:
    """Exact C_L with certificate; "none" when no LDC-partition exists.

    assume_vertex_transitive licenses pinning vertex 0 into the first slot
    of each type; set it only for graphs whose automorphism group is
    transitive on vertices (it is unsound otherwise).
    """
    if not is_connected(g):
        raise DisconnectedGraphError("C_L search requires a connected graph")
    start = time.monotonic()
    if g.n <= 2:
        return SolveReport(
            c_l="none",
            certificate=None,
            bounds_used=[("order", g.n)],
            nodes_explored=0,
            elapsed=time.monotonic() - start,
            status="none",
        )
    budget = budget or Budget()
    deadline = budget.deadline()
    gamma = gamma_l_value(g)
    kmax = min(g.n, g.n - gamma + 2)
    cap = 2 * g.max_degree()
    bounds = [("gamma_l", gamma), ("upper_start", kmax)]
    nodes = 0
    for k in range(kmax, 1, -1):
        survivors = [
            t
            for t in partitions_of_int(g.n, k)
            if not type_labels(t, gamma, cap)
        ]
        status, masks, nodes = _run_types(
            g,
            gamma,
            survivors,
            is_ld_mask,
            deadline,
            budget.nodes,
            nodes,
            assume_vertex_transitive,
            workers,
        )
        if status == "sat":
            cert = certify_masks(g, masks, "the C_L search")
            return SolveReport(
                c_l=k,
                certificate=cert,
                bounds_used=bounds + [("settled_at", k)],
                nodes_explored=nodes,
                elapsed=time.monotonic() - start,
                status="exact",
            )
        if status == "budget":
            return SolveReport(
                c_l=None,
                certificate=None,
                bounds_used=bounds + [("refuted_down_to", k + 1)],
                nodes_explored=nodes,
                elapsed=time.monotonic() - start,
                status="inconclusive",
            )
    return SolveReport(
        c_l="none",
        certificate=None,
        bounds_used=bounds,
        nodes_explored=nodes,
        elapsed=time.monotonic() - start,
        status="none",
    )


def c_l_at_least(
    g: Graph,
    k: int,
    budget: Optional[Budget] = None,
    workers: int = 1,
    assume_vertex_transitive: bool = False,
    only_types: Optional[list] = None,
) -> Optional[LdcCertificate]:
    """Certificate of an LDC-partition with exactly k parts, or None.

    A None answer is exhaustive: no LDC-partition of size exactly k
    exists (of the given types, when only_types restricts the search).
    Running out of budget raises BudgetExceeded instead of returning an
    answer.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("C_L search requires a connected graph")
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n <= 2 or k > g.n:
        return None
    budget = budget or Budget()
    deadline = budget.deadline()
    gamma = gamma_l_value(g)
    if k > g.n - gamma + 2:
        return None  # refuted by the C_L <= n - gamma_l + 2 bound
    cap = 2 * g.max_degree()
    survivors = [
        t for t in partitions_of_int(g.n, k) if not type_labels(t, gamma, cap)
    ]
    if only_types is not None:
        wanted = {tuple(t) for t in only_types}
        for t in wanted:
            if tuple(sorted(t, reverse=True)) != t or sum(t) != g.n or len(t) != k:
                raise ValueError(f"malformed type restriction {t}")
        survivors = [t for t in survivors if t in wanted]
    status, masks, nodes = _run_types(
        g,
        gamma,
        survivors,
        is_ld_mask,
        deadline,
        budget.nodes,
        0,
        assume_vertex_transitive,
        workers,
    )
    if status == "budget":
        raise BudgetExceeded(f"search at size {k} ran out of budget", nodes)
    if status == "sat":
        return certify_masks(g, masks, "the C_L search")
    return None


# -- naive oracles (testing / small cases) -------------------------------


def _set_partitions(n: int) -> Iterator[list[int]]:
    """All set partitions of range(n) as restricted growth strings."""

    def rec(i: int, rgs: list[int], blocks: int):
        if i == n:
            yield rgs[:]
            return
        for b in range(blocks + 1):
            rgs.append(b)
            yield from rec(i + 1, rgs, max(blocks, b + 1))
            rgs.pop()

    yield from rec(0, [], 0)


def _rgs_masks(rgs: list[int]) -> list[int]:
    k = max(rgs) + 1
    masks = [0] * k
    for v, b in enumerate(rgs):
        masks[b] |= 1 << v
    return masks


def _valid_coalition_partition(
    g: Graph, masks: list[int], good, singletons_alone: bool
) -> bool:
    for idx, m in enumerate(masks):
        if good(g, m):
            if singletons_alone and popcount(m) == 1:
                continue
            return False
        if not any(
            j != idx and not good(g, other) and good(g, m | other)
            for j, other in enumerate(masks)
        ):
            return False
    return True


def c_l_oracle(g: Graph, good=None) -> Union[int, str]:
    """Unpruned all-partitions maximum; reference oracle for small n.

    With no predicate this is C_L by its definition: every part is non-LD
    and has a partner, so K_1 and K_2 get "none".  Given a predicate, it
    is the coalition number of that predicate in the plain sense, where a
    singleton satisfying the predicate may also stand alone as a part;
    good=is_dominating gives the plain coalition number.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("C_L search requires a connected graph")
    singletons_alone = good is not None
    if good is None:
        good = is_ld_mask
    best = 0
    for rgs in _set_partitions(g.n):
        masks = _rgs_masks(rgs)
        if len(masks) > best and _valid_coalition_partition(
            g, masks, good, singletons_alone
        ):
            best = len(masks)
    return best if best else "none"


def _domination_number(g: Graph) -> int:
    for size in range(1, g.n + 1):
        for m in colex_subsets(g.n, size):
            if is_dominating(g, m):
                return size
    raise AssertionError("V itself always dominates")


def plain_coalition_number(
    g: Graph, budget: Optional[Budget] = None, workers: int = 1
) -> Union[int, str]:
    """Exact plain coalition number by the type-filtered search.

    Parts must be non-dominating with a partner (two non-dominating parts
    whose union dominates), except that a dominating set of size one may
    stand alone as its own part.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("coalition search requires a connected graph")
    if g.n == 1:
        return 1  # the single vertex dominates and stands alone
    budget = budget or Budget()
    deadline = budget.deadline()
    gamma = _domination_number(g)
    if g.max_degree() == g.n - 1:
        kmax = g.n
    else:
        kmax = min(g.n, g.n - gamma + 2)
    cap = g.max_degree() + 1
    nodes = 0
    for k in range(kmax, 0, -1):
        survivors = [
            t for t in partitions_of_int(g.n, k) if not type_labels(t, gamma, cap)
        ]
        status, masks, nodes = _run_types(
            g,
            gamma,
            survivors,
            is_dominating,
            deadline,
            budget.nodes,
            nodes,
            False,
            workers,
        )
        if status == "budget":
            raise BudgetExceeded(f"search at size {k} ran out of budget", nodes)
        if status == "sat":
            if not _valid_coalition_partition(g, masks, is_dominating, True):
                raise AssertionError("search returned an invalid coalition partition")
            return k
    return "none"
