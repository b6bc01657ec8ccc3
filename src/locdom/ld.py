"""Locating-domination predicates and exact invariants.

A set S is locating-dominating (an LD-set) when every vertex outside S has a
non-empty trace N(v) & S and all those traces are pairwise distinct.  The
module computes the locating-domination number gamma_l and the
location-domatic number d_loc exactly, at the small orders this project
targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .graph import (
    DisconnectedGraphError,
    Graph,
    VertexSet,
    as_mask,
    bits_of,
    closed_mask,
    is_connected,
    popcount,
)


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
    m = as_mask(g, s)
    seen = set()
    for v in bits_of(g.full_mask() & ~m):
        t = g.adj[v] & m
        if t in seen:
            return False
        seen.add(t)
    return True


def is_ld_mask(g: Graph, m: int) -> bool:
    """Fast combined check on a raw bitmask (hot path for the solvers)."""
    seen = set()
    for v in bits_of(g.full_mask() & ~m):
        t = g.adj[v] & m
        if t == 0 or t in seen:  # empty trace = undominated, or a duplicate
            return False
        seen.add(t)
    return True


def singleton_completers(g: Graph, m: int) -> list[int]:
    """Vertices w outside the mask m for which m | {w} is an LD-set."""
    return [w for w in bits_of(g.full_mask() & ~m) if is_ld_mask(g, m | (1 << w))]


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
    if not is_connected(g):
        raise DisconnectedGraphError("gamma_l assumes a connected graph")
    for k in range(slater_log_lower_bound(g.n), g.n + 1):
        for m in colex_subsets(g.n, k):
            if is_ld_mask(g, m):
                return k, VertexSet(m, g.n)
    raise AssertionError("unreachable: V itself is an LD-set")


def _colex_least_ld(g: Graph, k: int, cadj: tuple[int, ...]) -> Optional[int]:
    """Colex-least LD-set of size k, or None if no size-k LD-set exists.

    Walks k-subsets in exact colex order (max element chosen first,
    ascending) and prunes branches that cannot be completed:

    - a vertex with no closed neighbor inside chosen | prefix can never be
      dominated by any completion;
    - two vertices outside chosen | prefix whose traces are already fully
      decided (no neighbors in the undecided zone) and equal can never be
      separated.

    Both conditions are necessary for every completion, so the first subset
    reached is exactly the colex-least LD-set of this size.
    """
    full = g.full_mask()
    adj = g.adj

    def feasible(chosen: int, limit: int) -> bool:
        pool = chosen | ((1 << limit) - 1)
        free = pool & ~chosen
        fixed_traces = set()
        for v in bits_of(full & ~pool):
            if cadj[v] & pool == 0:
                return False
            if adj[v] & free == 0:
                t = adj[v] & chosen
                if t == 0 or t in fixed_traces:
                    return False
                fixed_traces.add(t)
        return True

    def descend(chosen: int, limit: int, need: int) -> Optional[int]:
        if need == 0:
            return chosen if is_ld_mask(g, chosen) else None
        for m in range(need - 1, limit):
            c2 = chosen | (1 << m)
            if not feasible(c2, m):
                continue
            hit = descend(c2, m, need - 1)
            if hit is not None:
                return hit
        return None

    return descend(0, g.n, k)


def gamma_l(g: Graph) -> tuple[int, VertexSet]:
    """Exact locating-domination number with its colex-least witness.

    Iterates cardinalities upward from the logarithmic lower bound; within
    each cardinality the witness search follows colex order, so the result
    matches the plain enumeration exactly.
    """
    if g.n == 0:
        raise ValueError("gamma_l of the empty graph is undefined")
    if not is_connected(g):
        raise DisconnectedGraphError("gamma_l assumes a connected graph")
    cadj = tuple(g.adj[v] | (1 << v) for v in range(g.n))
    for k in range(slater_log_lower_bound(g.n), g.n + 1):
        hit = _colex_least_ld(g, k, cadj)
        if hit is not None:
            # size sanity bound: n <= 2^k + k - 1 must hold for the optimum
            if g.n > (1 << k) + k - 1:
                raise AssertionError("size bound violated by computed gamma_l")
            return k, VertexSet(hit, g.n)
    raise AssertionError("unreachable: V itself is an LD-set")


def gamma_l_value(g: Graph) -> int:
    return gamma_l(g)[0]


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
    """
    n = g.n
    full = g.full_mask()
    classes = [0] * k

    def ok_optimistic(ci: int, unassigned: int) -> bool:
        return is_ld_mask(g, classes[ci] | unassigned)

    def assign(v: int, used: int) -> bool:
        if v == n:
            return all(is_ld_mask(g, c) for c in classes)
        unassigned_after = full & ~((1 << (v + 1)) - 1)
        limit = min(used + 1, k)
        for ci in range(limit):
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
    if not is_connected(g):
        raise DisconnectedGraphError("d_loc assumes a connected graph")
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
