"""Canonical forms for isomorphism-free enumeration of small graphs.

One key serves every graph the package canonicalizes, trees included.  It
refines an ordered vertex partition to an equitable one and individualizes
each vertex of its first non-singleton cell in turn, after McKay and
Piperno, "Practical graph isomorphism II" (J. Symb. Comput. 2014).  Each
discrete leaf of that search orders the vertices; the key is the least
upper-triangle adjacency bitstring over the leaves, read column by column
(the bit order graph6 uses).  The order cap is the tree census cap, the
largest order any census keys.
"""

from __future__ import annotations

from itertools import permutations

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


def canonical_key(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Hashable isomorphism invariant: (n, least column bitstring).

    Column j (1 <= j < n) is the j-bit integer of adjacencies between the
    j-th vertex of a leaf ordering and the earlier ones, first vertex
    highest bit.  The search is label-invariant and every leaf reads an
    adjacency matrix of g, so two graphs share a key iff they are isomorphic.
    """
    n = g.n
    if n > MAX_CANON_ORDER:
        raise ValueError(
            f"canonical form is desk-scale only (order <= {MAX_CANON_ORDER})"
        )
    if n <= 1:
        return (n, ())
    adj = g.adj
    leaves = []

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
            leaves.append(tuple(cols[1:]))
            return
        # Skip v if a tried w in its cell is a twin (N(v) - w = N(w) - v):
        # swapping them is an automorphism fixing every cell, so v's subtree
        # reads the same bitstrings.  The parent is equitable, so {v} is the
        # only splitter the child needs.
        tried: list[int] = []
        for v in _MEMBERS[cell]:
            if all(adj[v] & ~(1 << w) != adj[w] & ~(1 << v) for w in tried):
                tried.append(v)
                descend(cells[:i] + [1 << v, cell ^ 1 << v] + cells[i + 1 :], [1 << v])

    # V as the first splitter gives the degree partition, cells by degree
    descend([(1 << n) - 1], [(1 << n) - 1])
    return (n, min(leaves))


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
