"""Canonical forms for isomorphism-free enumeration of small graphs.

One key serves every graph the package canonicalizes, trees included.  It
refines an ordered vertex partition to an equitable one and individualizes
each vertex of its first non-singleton cell in turn, after McKay and
Piperno, "Practical graph isomorphism II" (J. Symb. Comput. 2014).  Each
discrete leaf of that search orders the vertices; the key is the least
upper-triangle adjacency bitstring over the leaves, read column by column
(the bit order graph6 uses).  The order cap is the tree census cap, the
largest order any census keys.

The same search yields generators of the automorphism group
(canonical_search), and orbit_leaders turns generators into orbits on
vertex masks: the census augments one neighbourhood per orbit, after
McKay, "Isomorph-free exhaustive generation" (J. Algorithms 1998).
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable

from .graph import Graph, bits_of, is_connected

MAX_CANON_ORDER = 10
_MEMBERS = [list(bits_of(m)) for m in range(1 << MAX_CANON_ORDER)]


def _refine(adj: tuple[int, ...], cells: list[int], queue: list[int]) -> list[int]:
    """Split each cell (a vertex mask) by its vertices' neighbour counts in
    the queued splitters, subcells in count order and queued in turn, until
    the ordered partition is equitable.  Every step is label-invariant."""
    while queue and len(cells) < len(adj):
        w = queue.pop(0)
        out = []
        for cell in cells:
            if cell & (cell - 1):
                groups: dict[int, int] = {}
                for v in _MEMBERS[cell]:
                    c = (adj[v] & w).bit_count()
                    groups[c] = groups.get(c, 0) | 1 << v
                if len(groups) > 1:
                    parts = [groups[c] for c in sorted(groups)]
                    out += parts
                    queue += parts
                    continue
            out.append(cell)
        cells = out
    return cells


def canonical_search(g: Graph) -> tuple[tuple[int, tuple[int, ...]], list[list[int]]]:
    """canonical_key(g) and generators of g's automorphism group, from one
    search.  A generator p is a list: p[v] is the image of vertex v.

    Column j (1 <= j < n) of a leaf is the j-bit integer of adjacencies
    between the j-th vertex of the leaf ordering and the earlier ones,
    first vertex highest bit.  The search is label-invariant and every
    leaf reads an adjacency matrix of g, so two graphs share a key iff
    they are isomorphic.

    The generators are of two kinds, each an automorphism:
    - the transposition (v w) of each twin pair the search skips (w tried,
      N(v) - w = N(w) - v): swapping twins preserves every adjacency;
    - for each leaf that reads the first leaf's bitstring, the map taking
      the j-th vertex of the first leaf to the j-th of this one: both
      orderings read the same adjacency matrix.

    They generate all of Aut(g).  Automorphisms map the unpruned search
    tree onto itself (every step is label-invariant) and a leaf to a leaf
    with the same bitstring, and only the identity fixes a leaf.  A
    skipped subtree at v is the image under (v w) of the subtree at w,
    which fixes the node, so by induction from the leaves every leaf of
    the unpruned tree is h(l) for an explored leaf l and h in the group H
    of the skipped transpositions.  Given gamma in Aut, write gamma(l0) =
    h(l) for the first leaf l0: l reads l0's bitstring, so h^-1 gamma is
    the generator mapping l0 onto l, and gamma = h (h^-1 gamma).
    """
    n = g.n
    if n > MAX_CANON_ORDER:
        raise ValueError(
            f"canonical form is desk-scale only (order <= {MAX_CANON_ORDER})"
        )
    if n <= 1:
        return (n, ()), []
    adj = g.adj
    leaves = []
    gens: list[list[int]] = []
    first: list[int] = []  # the first leaf's ordering

    def descend(cells: list[int], queue: list[int]):
        cells = _refine(adj, cells, queue)
        for i, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            order = [c.bit_length() - 1 for c in cells]
            cols = [0] * n
            for j, v in enumerate(order):
                for u in order[:j]:
                    cols[j] = (cols[j] << 1) | ((adj[u] >> v) & 1)
            leaf = tuple(cols[1:])
            if not leaves:
                first[:] = order
            elif leaf == leaves[0]:
                p = [0] * n
                for u, v in zip(first, order):
                    p[u] = v
                gens.append(p)
            leaves.append(leaf)
            return
        # Skip v if a tried w in its cell is a twin (N(v) - w = N(w) - v):
        # swapping them is an automorphism fixing every cell, so v's subtree
        # reads the same bitstrings.  The parent is equitable, so {v} is the
        # only splitter the child needs.
        tried: list[int] = []
        for v in _MEMBERS[cell]:
            for w in tried:
                if adj[v] & ~(1 << w) == adj[w] & ~(1 << v):
                    p = list(range(n))
                    p[v], p[w] = w, v
                    gens.append(p)
                    break
            else:
                tried.append(v)
                descend(cells[:i] + [1 << v, cell ^ 1 << v] + cells[i + 1 :], [1 << v])

    # V as the first splitter gives the degree partition, cells by degree
    descend([(1 << n) - 1], [(1 << n) - 1])
    return (n, min(leaves)), gens


def canonical_key(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Hashable isomorphism invariant: (n, least column bitstring over the
    leaves of canonical_search)."""
    return canonical_search(g)[0]


def orbit_leaders(gens: list[list[int]], masks: Iterable[int]) -> list[int]:
    """The first mask of each orbit, in the order of masks, of the group
    that gens generate acting on vertex masks (p maps mask m to the mask
    of the p[v], v in m).  masks must be closed under that action; every
    set of masks defined by size alone is."""
    seen: set[int] = set()
    leaders = []
    for m in masks:
        if m in seen:
            continue
        leaders.append(m)
        seen.add(m)
        stack = [m]
        while stack:
            x = stack.pop()
            for p in gens:
                y = 0
                for v in _MEMBERS[x]:
                    y |= 1 << p[v]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return leaders


def canonical_key_naive(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Reference implementation: minimum over all n! orderings."""
    n = g.n
    if n <= 1:
        return (n, ())
    adj = g.adj
    best = None
    for perm in permutations(range(n)):
        cols = []
        for j in range(1, n):
            c = 0
            for i in range(j):
                c = (c << 1) | ((adj[perm[i]] >> perm[j]) & 1)
            cols.append(c)
        if best is None or cols < best:
            best = cols
    return (n, tuple(best))


def are_isomorphic(a: Graph, b: Graph) -> bool:
    """Desk-scale isomorphism test via canonical keys."""
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    return canonical_key(a) == canonical_key(b)


def tree_canonical_key(g: Graph) -> tuple[int, tuple[int, ...]]:
    """canonical_key of g, refusing any graph that is not a tree."""
    if g.edge_count() != g.n - 1 or not is_connected(g):
        raise ValueError("tree key requires a tree")
    return canonical_key(g)
