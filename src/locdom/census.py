"""Isomorphism-free enumeration of small graphs and trees.

Every graph, connected graph and tree of order m+1 arises from one of
order m by adding vertex m with some neighbourhood: any, any non-empty
one, or a single vertex.  So one loop serves all three censuses: it
augments every class representative of order m with one allowed
neighbourhood per orbit of its automorphism group (McKay's orbit pruning;
automorphic neighbourhoods give isomorphic graphs) and keeps the first
graph of each canonical key, which yields exactly one representative per
class, the same ones in the same order as augmenting with every allowed
neighbourhood would.  A Prüfer-sequence generator for labeled trees
doubles as an independent cross-check at small orders.
"""

from __future__ import annotations

import heapq
from itertools import product
from typing import Callable, Iterable, Iterator

from .canon import canonical_key, canonical_search, orbit_leaders
from .graph import Graph, bits_of

MAX_CENSUS_ORDER = 7
MAX_TREE_ORDER = 10

# known class counts, order 1 upward (regression anchors)
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853)
ALL_GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044)
TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)

_cache: dict = {}


def _grow(
    n: int, kind: str, parents: Callable[[], list[Graph]], nbhds: Iterable[int]
) -> list[Graph]:
    """The census of order n named kind: vertex n - 1 joins every
    representative P of order n - 1 (from parents) with the first
    neighbourhood mask in nbhds of each orbit of the group that
    canonical_search(P)'s generators generate, keeping the first graph of
    each canonical key.  nbhds must be closed under every permutation of
    the n - 1 old vertices; each set of masks defined by size alone is.

    1. If s is an automorphism of P, P + N and P + s(N) are isomorphic
       (s, fixing the new vertex, maps one onto the other).  So any
       group of automorphisms, a subgroup included, loses no class: this
       needs only that each generator is an automorphism.
    2. The first candidate (P, N) of each class, in the unpruned order
       (parents, then masks in nbhds order), is the first of its orbit:
       an earlier mask of the orbit would give an earlier candidate of
       the class.  So the pruned loop meets every class's first candidate
       first, and keeps the same representatives in the same order.
    3. The generators generate all of Aut(P) (canonical_search), so no
       two kept masks of one parent are automorphic: the pruning is the
       most orbits allow.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if (n, kind) not in _cache:
        if n == 1:
            reps = [Graph(1, [])]
        else:
            first: dict = {}
            for parent in parents():
                base = parent.edges()
                # searched again, so no representative carries generators
                for nbhd in orbit_leaders(canonical_search(parent)[1], nbhds):
                    g = Graph(n, base + [(v, n - 1) for v in bits_of(nbhd)])
                    first.setdefault(canonical_key(g), g)
            reps = list(first.values())
        _cache[n, kind] = reps
    return list(_cache[n, kind])


def enumerate_graphs(n: int, connected_only: bool = True) -> list[Graph]:
    """One representative per isomorphism class of order n."""
    if n > MAX_CENSUS_ORDER:
        raise ValueError(
            f"desk scale caps graph enumeration at order {MAX_CENSUS_ORDER}"
        )
    return _grow(
        n,
        "connected" if connected_only else "all",
        lambda: enumerate_graphs(n - 1, connected_only),
        range(1 if connected_only else 0, 1 << (n - 1)),
    )


def enumerate_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees of order n."""
    if n > MAX_TREE_ORDER:
        raise ValueError(f"desk scale caps tree enumeration at order {MAX_TREE_ORDER}")
    return _grow(
        n, "trees", lambda: enumerate_trees(n - 1), [1 << v for v in range(n - 1)]
    )


def _edges_from_prufer(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        v = heapq.heappop(leaves)
        edges.append((v, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def labeled_trees(n: int) -> Iterator[Graph]:
    """All n^(n-2) labeled trees on n vertices, via Prüfer sequences."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        yield Graph(1, [])
        return
    if n == 2:
        yield Graph(2, [(0, 1)])
        return
    for seq in product(range(n), repeat=n - 2):
        yield Graph(n, _edges_from_prufer(seq, n))
