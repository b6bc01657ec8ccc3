"""Locating-domination predicates and exact invariants.

A set S is locating-dominating (an LD-set) when every vertex outside S has a
non-empty trace N(v) & S and all those traces are pairwise distinct.  The
module computes the locating-domination number gamma_l and the
location-domatic number d_loc exactly, at the small orders this project
targets, and holds what the C_L solver shares with them: the predicates,
their completer masks (the domination filter, then the predicate on each
vertex it passes), their one-pass breaker masks, the pruned colex walk
and the Meter that holds every budgeted search to its budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .graph import (
    Graph,
    VertexSet,
    as_mask,
    bits_of,
    closed_mask,
    lower_twins,
)


class BudgetExceeded(RuntimeError):
    """Search ran out of wall-clock or node budget before an answer."""

    def __init__(self, message: str, nodes_explored: int = 0):
        super().__init__(message)
        self.nodes_explored = nodes_explored


# A budgeted search checks its deadline every _CHECK_EVERY nodes.
_CHECK_EVERY = 256


class Meter:
    """A search's node count, held to a node cap and to a deadline (a
    time.monotonic() value, read every _CHECK_EVERY nodes); None means
    unlimited.  Past either, _tick raises BudgetExceeded."""

    def __init__(self, deadline: Optional[float] = None, node_cap: Optional[int] = None):
        self.deadline = deadline
        self.node_cap = node_cap
        self.nodes = 0
        self._check_at = self._next_check()

    def _next_check(self) -> int:
        """The node count at which _tick next checks the budget."""
        at = (self.nodes // _CHECK_EVERY + 1) * _CHECK_EVERY
        return at if self.node_cap is None else min(at, self.node_cap + 1)

    def _tick(self):
        self.nodes += 1
        if self.nodes >= self._check_at:
            if self.node_cap is not None and self.nodes > self.node_cap:
                raise BudgetExceeded("node budget exceeded", self.nodes)
            if (
                self.nodes % _CHECK_EVERY == 0
                and self.deadline is not None
                and time.monotonic() > self.deadline
            ):
                raise BudgetExceeded("time budget exceeded", self.nodes)
            self._check_at = self._next_check()


# -- predicates ----------------------------------------------------------


def is_dominating(g: Graph, s) -> bool:
    """True iff N[S] covers every vertex."""
    m = as_mask(g, s)
    return closed_mask(g, m) == g.full_mask()


def is_locating(g: Graph, s) -> bool:
    """True iff all outside traces N(v) & S are pairwise distinct.

    Empty traces count as equal to each other, so two undominated outside
    vertices already violate the property.
    """
    return is_ld_set(g, s).locating


def is_ld_mask(g: Graph, m: int) -> bool:
    """Fast combined check on a raw bitmask (hot path for the solvers)."""
    adj = g.adj
    seen = set()
    out = g.full_mask() & ~m
    while out:
        low = out & -out
        t = adj[low.bit_length() - 1] & m
        if t == 0 or t in seen:  # empty trace = undominated, or a duplicate
            return False
        seen.add(t)
        out ^= low
    return True


def dominating_completers(g: Graph, m: int) -> int:
    """Mask of the vertices w outside m for which m | {w} dominates: those
    in N[u] for every vertex u that m leaves undominated."""
    full = g.full_mask()
    cand = full & ~m
    for u in bits_of(full & ~closed_mask(g, m)):
        cand &= g.adj[u] | 1 << u
    return cand


def completers(g: Graph, m: int, good) -> int:
    """Mask of the vertices w outside m with good(g, m | {w}), for a
    predicate whose good sets all dominate (is_ld_mask, is_dominating):
    only the w that dominating_completers passes are judged."""
    cand = dominating_completers(g, m)
    rest = cand
    while rest:
        low = rest & -rest
        if not good(g, m | low):
            cand ^= low
        rest ^= low
    return cand


def singleton_completers(g: Graph, m: int) -> int:
    """Mask of the vertices w outside m for which m | {w} is an LD-set."""
    return completers(g, m, is_ld_mask)


def ld_breakers(g: Graph, m: int) -> int:
    """-1 if m is not an LD-set, else the mask of the vertices v in m for
    which m - v is not an LD-set.

    Taking v out of an LD-set S takes v out of every outside trace and
    gives v its own trace N(v) & S.  With T the outside traces of S, all
    non-empty and distinct, S - v fails exactly when a trace t in T that
    holds v becomes empty or equal to another (t - v is empty or in T),
    or v's trace is empty or equal to a trace of S - v (it or it plus v
    lies in T).  So one pass builds T, with the empty trace added to it.
    """
    adj = g.adj
    traces = set()
    out = g.full_mask() & ~m
    while out:
        low = out & -out
        t = adj[low.bit_length() - 1] & m
        if t == 0 or t in traces:
            return -1
        traces.add(t)
        out ^= low
    traces.add(0)
    breakers = 0
    for t in traces:
        rest = t
        while rest:
            low = rest & -rest
            if t ^ low in traces:
                breakers |= low
            rest ^= low
    rest = m
    while rest:
        low = rest & -rest
        own = adj[low.bit_length() - 1] & m
        if own in traces or own | low in traces:
            breakers |= low
        rest ^= low
    return breakers


def dominating_breakers(g: Graph, m: int) -> int:
    """-1 if m does not dominate, else the mask of the vertices v in m for
    which m - v does not: those that are the only vertex of m in some
    closed neighbourhood N[u]."""
    adj = g.adj
    breakers = 0
    for u in range(g.n):
        c = (adj[u] | 1 << u) & m
        if not c:
            return -1
        if not c & (c - 1):
            breakers |= c
    return breakers


@dataclass(frozen=True)
class LdVerdict:
    """Outcome of an LD-set check with a concrete witness on failure.

    witness is a pair (u, v) of outside vertices with equal traces whenever
    locating fails (the lexicographically least such pair, empty traces
    comparing equal), or the least undominated vertex when only domination
    fails.
    """

    dominating: bool
    locating: bool
    witness: Union[None, int, tuple[int, int]]

    @property
    def ok(self) -> bool:
        return self.dominating and self.locating


def is_ld_set(g: Graph, s) -> LdVerdict:
    m = as_mask(g, s)
    by_trace: dict[int, list[int]] = {}
    undominated = []
    for v in bits_of(g.full_mask() & ~m):
        t = g.adj[v] & m
        by_trace.setdefault(t, []).append(v)
        if t == 0:
            undominated.append(v)
    dominating = not undominated
    clashes = [vs for vs in by_trace.values() if len(vs) >= 2]
    locating = not clashes
    witness: Union[None, int, tuple[int, int]] = None
    if not locating:
        witness = min((vs[0], vs[1]) for vs in clashes)
    elif not dominating:
        witness = undominated[0]
    return LdVerdict(dominating, locating, witness)


# -- gamma_l -------------------------------------------------------------


def slater_log_lower_bound(n: int) -> int:
    """Least k with 2^(k+1) >= n + 1, i.e. ceil(log2(n+1) - 1); at least 1
    for non-empty graphs."""
    if n <= 0:
        return 0
    k = 0
    while (1 << (k + 1)) < n + 1:
        k += 1
    return max(k, 1)


def gamma_l_lower_bound(g: Graph) -> int:
    """Least k >= 1 passing two counting tests that every LD-set of size k
    passes.  Both are monotone in k, so gamma_l(g) is at least this.

    (i) Size (Slater 1988): the n - k outside traces are distinct non-empty
    subsets of a k-set, so n - k <= 2^k - 1.
    (ii) Degree sum (Slater 1995, behind gamma_l >= 2n / (Delta + 3)): for
    an LD-set S of size k, let a1 count the outside vertices with a
    one-vertex trace and a2 the rest.  One-vertex traces are distinct, so
    a1 <= min(k, n - k), and 2(n - k) - a1 = a1 + 2 a2 <= e(S, V - S) <= D_k,
    the sum of the k largest degrees.

    On paths and cycles of order n >= 3 the bound is ceil(2n / 5) = gamma_l.
    """
    degrees = sorted((a.bit_count() for a in g.adj), reverse=True)
    top = 0  # D_k
    for k, d in enumerate(degrees, 1):
        top += d
        out = g.n - k
        if out < 1 << k and top + min(k, out) >= 2 * out:
            return k
    raise ValueError("gamma_l of the empty graph is undefined")


def colex_subsets(n: int, k: int) -> Iterator[int]:
    """All k-subsets of 0..n-1 as masks, in colexicographic order."""
    if k == 0:
        yield 0
        return
    for m in range(k - 1, n):
        top = 1 << m
        for rest in colex_subsets(m, k - 1):
            yield rest | top


def gamma_l_naive(g: Graph) -> tuple[int, VertexSet]:
    """Reference implementation: plain colex scan per cardinality.

    Kept as the oracle the pruned search is tested against; only usable at
    small orders.
    """
    for k in range(slater_log_lower_bound(g.n), g.n + 1):
        for m in colex_subsets(g.n, k):
            if is_ld_mask(g, m):
                return k, VertexSet(m, g.n)
    raise AssertionError("unreachable: V itself is an LD-set")


def colex_walk(g: Graph, k: int, admit, leaf) -> Optional[int]:
    """First k-set S in colex order with leaf(S) true, or None; k >= 1.

    Walks k-subsets in exact colex order (max element chosen first,
    ascending).  A node (chosen, limit) may still add any vertex below
    limit, so it is pruned when some vertex has no closed neighbor in
    chosen | prefix, as then no completion dominates, or when
    admit(chosen, limit) is false.  A leaf adds nothing more, so it must
    dominate by itself: every leaf reached dominates, and walks that want
    all of them keep leaf false.  So the last pick must lie in N[u] for
    every vertex u still undominated, and only those vertices below limit
    are tried there.
    """
    full = g.full_mask()
    cadj = [g.adj[v] | 1 << v for v in range(g.n)]
    reach = [0]  # reach[i] = N[{0, ..., i - 1}]
    for v in range(g.n):
        reach.append(reach[-1] | cadj[v])

    def descend(chosen: int, closed: int, limit: int, need: int) -> Optional[int]:
        if need == 1:
            last = (1 << limit) - 1
            missing = full & ~closed
            while missing and last:
                low = missing & -missing
                last &= cadj[low.bit_length() - 1]
                missing ^= low
            while last:
                low = last & -last
                c2 = chosen | low
                if admit(c2, low.bit_length() - 1) and leaf(c2):
                    return c2
                last ^= low
            return None
        for m in range(need - 1, limit):
            c2 = chosen | (1 << m)
            closed2 = closed | cadj[m]
            if closed2 | reach[m] != full or not admit(c2, m):
                continue
            hit = descend(c2, closed2, m, need - 1)
            if hit is not None:
                return hit
        return None

    return descend(0, 0, g.n, k)


def _colex_least_ld(g: Graph, k: int, deadline: Optional[float] = None) -> Optional[int]:
    """Colex-least LD-set of size k, or None if no size-k LD-set exists.
    Given a deadline, admit ticks a Meter(deadline) at every node, which
    raises BudgetExceeded past it; without one no node is counted.

    Beyond colex_walk's domination test, prunes a node (chosen, limit) at
    which two decided vertices, outside chosen with no neighbour below
    limit, share a trace: later picks lie below limit, so the traces are
    final.  Both tests hold for every completion, so the first subset
    reached is exactly the colex-least LD-set of this size.

    decided[L] only grows as L falls, so the admitted parent (limit p, the
    least chosen vertex above limit, or n) had decided[p] & ~chosen, with
    the same traces, all distinct: only the newly decided need a check.
    owner maps a trace to its last claimant, with no undo; an entry
    clashes only while its vertex is another decided vertex with that
    trace, so every clash found is real.  A check overwrites owner[t] only
    if no decided vertex of the parent has trace t, and an admitted node
    registers all its new vertices, so on the current path each decided
    vertex owns its trace: the prune cuts exactly what a full rescan cuts.
    """
    n, adj = g.n, g.adj
    decided = [0] * (n + 1)  # decided[L]: the v >= L with no neighbour below L
    for v in range(n):
        c = adj[v] | 1 << v
        decided[(c & -c).bit_length() - 1] |= 1 << v  # L = min N[v]
    for i in range(n - 1, -1, -1):
        decided[i] |= decided[i + 1]
    owner: dict[int, int] = {}

    def locatable(chosen: int, limit: int) -> bool:
        above = chosen ^ (1 << limit)
        now = decided[limit] & ~chosen
        new = now & ~decided[(above & -above).bit_length() - 1 if above else n]
        while new:
            v = (new & -new).bit_length() - 1
            t = adj[v] & chosen  # non-empty: the domination test passed
            u = owner.get(t, v)
            if u != v and now >> u & 1 and adj[u] & chosen == t:
                return False
            owner[t] = v
            new ^= 1 << v
        return True

    admit = locatable
    if deadline is not None:
        tick = Meter(deadline)._tick
        admit = lambda chosen, limit: tick() or locatable(chosen, limit)

    return colex_walk(g, k, admit, lambda m: is_ld_mask(g, m))


def gamma_l(g: Graph, deadline: Optional[float] = None) -> tuple[int, VertexSet]:
    """Exact locating-domination number with its colex-least witness.

    Iterates cardinalities upward from gamma_l_lower_bound(g), the size
    and degree-sum counting bound; every smaller cardinality is infeasible
    by that proof, so no search refutes it.  Within each cardinality the
    witness search follows colex order, so the result matches the plain
    enumeration (gamma_l_naive) exactly.

    The value and witness are memoized on the Graph object itself, which
    is immutable, so the memo is never stale: later calls on the same
    object, and d_loc and c_l_exact through gamma_l_value, reuse them
    without a search.  An equal but distinct Graph searches again.  Each
    call returns a fresh VertexSet.

    deadline, a time.monotonic() value, bounds the search: past it,
    BudgetExceeded is raised and nothing is memoized.
    """
    if g._gamma_l is None:
        if g.n == 0:
            raise ValueError("gamma_l of the empty graph is undefined")
        for k in range(gamma_l_lower_bound(g), g.n + 1):
            hit = _colex_least_ld(g, k, deadline)
            if hit is not None:
                g._gamma_l = (k, hit)
                break
        else:
            raise AssertionError("unreachable: V itself is an LD-set")
    k, hit = g._gamma_l
    return k, VertexSet(hit, g.n)


def gamma_l_value(g: Graph, deadline: Optional[float] = None) -> int:
    return gamma_l(g, deadline)[0]


# -- minimal LD-sets -----------------------------------------------------


def minimalize_ld_set(g: Graph, s) -> VertexSet:
    """Shrink an LD-set to a minimal one by greedy removal in ascending
    vertex order.

    A single ascending pass suffices: subsets of non-LD sets are never LD,
    so a vertex that cannot be removed now can never be removed later.
    """
    m = as_mask(g, s)
    if not is_ld_mask(g, m):
        raise ValueError("minimalize_ld_set requires an LD-set")
    for v in list(bits_of(m)):
        without = m & ~(1 << v)
        if is_ld_mask(g, without):
            m = without
    return VertexSet(m, g.n)


# -- location-domatic number ---------------------------------------------


@dataclass(frozen=True)
class DomaticResult:
    k: int
    partition: tuple[VertexSet, ...]


def _domatic_partition(g: Graph, k: int) -> Optional[list[int]]:
    """Search a partition of V into exactly k LD-sets; class masks or None.

    Vertices are assigned in index order; class c+1 may only be opened once
    class c is non-empty, which kills the class-relabeling symmetry.  A
    class that is not an LD-set even with every unassigned vertex added can
    never become one (monotonicity), so such branches are cut.

    Twin rule: class(v) >= class(u) for every lower twin u of v (see
    lower_twins).  Were class(v) < class(u), swapping u and v, an
    automorphism, would keep the vertices before u in place and put u in
    class(v), already open there: once the classes are renumbered by
    first appearance, a lexicographically smaller valid sequence.  The
    search returns the least one first, so the rule changes no answer.
    """
    n = g.n
    full = g.full_mask()
    classes = [0] * k
    twins = lower_twins(g)
    cls = [0] * n  # class of each assigned vertex

    def assign(v: int, used: int) -> bool:
        if v == n:
            return all(is_ld_mask(g, c) for c in classes)
        unassigned_after = full & ~((1 << (v + 1)) - 1)
        limit = min(used + 1, k)
        lo = max(cls[u] for u in bits_of(twins[v])) if twins[v] else 0
        for ci in range(lo, limit):
            cls[v] = ci
            classes[ci] |= 1 << v
            if all(
                is_ld_mask(g, classes[cj] | unassigned_after)
                for cj in range(max(used, ci + 1))
            ):
                if assign(v + 1, max(used, ci + 1)):
                    return True
            classes[ci] &= ~(1 << v)
        return False

    if assign(0, 0):
        return classes
    return None


def d_loc(g: Graph) -> DomaticResult:
    """Maximum number of parts in a partition of V into LD-sets."""
    if g.n == 0:
        raise ValueError("d_loc of the empty graph is undefined")
    gl = gamma_l_value(g)
    for k in range(g.n // gl, 1, -1):
        classes = _domatic_partition(g, k)
        if classes is not None:
            parts = tuple(VertexSet(c, g.n) for c in classes)
            if not all(is_ld_mask(g, c) for c in classes):
                raise AssertionError("d_loc search returned a non-LD class")
            return DomaticResult(k, parts)
    return DomaticResult(1, (VertexSet(g.full_mask(), g.n),))


# -- Slater upper-bound characterization ---------------------------------


def is_star(g: Graph) -> bool:
    if g.n < 2:
        return False
    degs = sorted(g.degree(v) for v in range(g.n))
    return degs == [1] * (g.n - 1) + [g.n - 1]


def is_complete(g: Graph) -> bool:
    return all(g.degree(v) == g.n - 1 for v in range(g.n))


def slater_upper_check(g: Graph) -> bool:
    """Self-test of the n-1 upper bound: gamma_l = n-1 exactly for stars
    and complete graphs."""
    if g.n < 2:
        raise ValueError("characterization applies to graphs of order >= 2")
    value = gamma_l_value(g)
    if value > g.n - 1:
        raise AssertionError("upper bound gamma_l <= n-1 violated")
    return (value == g.n - 1) == (is_star(g) or is_complete(g))
