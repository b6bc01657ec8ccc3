"""Immutable simple-graph representation over dense integer vertices.

Vertices are 0..n-1 and every vertex set is a bitmask (Python ints give
arbitrary-width masks for free), which keeps the exponential searches in the
solver modules cheap.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_ORDER = 128  # documented cap; instances at paper scale are far smaller


class GraphFormatError(ValueError):
    """Malformed textual graph input (bad header, loop edge, bad index)."""


class DisconnectedGraphError(ValueError):
    """Raised by operations that need a connected graph: the diameter."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


class VertexSet:
    """A subset of the vertices of a graph of order n, stored as a bitmask.

    Thin value wrapper used at API boundaries; search internals work on the
    raw masks directly.
    """

    __slots__ = ("bits", "n")

    def __init__(self, bits: int, n: int):
        if bits < 0 or bits >> n:
            raise ValueError(f"bitmask {bits:#x} has bits outside 0..{n - 1}")
        self.bits = bits
        self.n = n

    @classmethod
    def of(cls, vertices: Iterable[int], n: int) -> "VertexSet":
        return cls(mask_of(vertices), n)

    def __int__(self) -> int:
        return self.bits

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.bits)

    def __len__(self) -> int:
        return popcount(self.bits)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.bits >> v) & 1 == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.bits == other.bits
            and self.n == other.n
        )

    def __hash__(self) -> int:
        return hash((self.bits, self.n))

    def __repr__(self) -> str:
        return "{" + ",".join(str(v) for v in self) + "}"

    def _check_same(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError("vertex sets belong to graphs of different order")

    def union(self, other: "VertexSet") -> "VertexSet":
        self._check_same(other)
        return VertexSet(self.bits | other.bits, self.n)

    def difference(self, other: "VertexSet") -> "VertexSet":
        self._check_same(other)
        return VertexSet(self.bits & ~other.bits, self.n)

    def to_sorted_list(self) -> list[int]:
        return list(self)


def as_mask(g: "Graph", s) -> int:
    """Coerce a VertexSet / int mask / iterable of vertices to a raw mask."""
    if isinstance(s, VertexSet):
        if s.n != g.n:
            raise ValueError("vertex set belongs to a graph of different order")
        return s.bits
    if isinstance(s, int):
        if s < 0 or s >> g.n:
            raise ValueError(f"mask {s:#x} has bits outside 0..{g.n - 1}")
        return s
    m = mask_of(s)
    if m >> g.n:
        raise ValueError("vertex out of range")
    return m


class Graph:
    """Finite simple graph with per-vertex adjacency bitmasks.

    Construction is idempotent on duplicate edges and rejects loops; the
    instance is immutable afterwards (adjacency stored as a tuple).
    _gamma_l holds (gamma_l, witness mask) once ld.gamma_l has found them.
    """

    __slots__ = ("n", "adj", "name", "_hash", "_gamma_l")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), name: str = ""):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if n > MAX_ORDER:
            raise ValueError(f"order {n} exceeds the supported cap of {MAX_ORDER}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) has a vertex outside 0..{n - 1}")
            if u == v:
                raise GraphFormatError(f"loop edge at vertex {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self.name = name
        self._hash = hash((n, self.adj))
        self._gamma_l = None

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        label = self.name or f"graph(n={self.n})"
        return f"<{label}: {self.edge_count()} edges>"

    # -- basic queries ----------------------------------------------------

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")

    def vertices(self) -> range:
        return range(self.n)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits_of(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(popcount(m) for m in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return (self.adj[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return popcount(self.adj[v])

    def max_degree(self) -> int:
        return max((popcount(m) for m in self.adj), default=0)

    def min_degree(self) -> int:
        return min((popcount(m) for m in self.adj), default=0)

    def relabeled(self, perm: Iterable[int], name: str = "") -> "Graph":
        """Image of the graph under vertex -> perm[vertex]."""
        p = list(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}")
        return Graph(self.n, [(p[u], p[v]) for u, v in self.edges()], name=name)

    def with_name(self, name: str) -> "Graph":
        g = Graph.__new__(Graph)
        g.n = self.n
        g.adj = self.adj
        g.name = name
        g._hash = self._hash
        g._gamma_l = self._gamma_l
        return g


# -- neighborhoods, connectivity and distances ---------------------------


def closed_mask(g: Graph, mask: int) -> int:
    """N[A] of a raw mask A: the union of the closed neighborhoods of its
    members, for search inner loops."""
    adj = g.adj
    out = rest = mask
    while rest:
        low = rest & -rest
        out |= adj[low.bit_length() - 1]
        rest ^= low
    return out


def lower_twins(g: Graph) -> list[int]:
    """For each v, the mask of its lower twins: the u < v with
    N(u) - v = N(v) - u.  Swapping twins is an automorphism."""
    return [
        mask_of(u for u in range(v) if g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u))
        for v in range(g.n)
    ]


def reachable_mask(g: Graph, start: int, within: int) -> int:
    """The vertices of the mask ``within`` that start reaches by paths
    inside it; start must be a member."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        for v in bits_of(frontier):
            nxt |= g.adj[v]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return reachable_mask(g, 0, g.full_mask()) == g.full_mask()


def bfs_distances(g: Graph, start: int) -> list[int]:
    """BFS distances from start; unreachable vertices get -1."""
    dist = [-1] * g.n
    dist[start] = 0
    seen = 1 << start
    frontier = seen
    d = 0
    while frontier:
        nxt = 0
        for v in bits_of(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
        d += 1
        for v in bits_of(frontier):
            dist[v] = d
    return dist


def diameter_and_diametral_pair(g: Graph) -> tuple[int, int, int]:
    """Diameter plus the lexicographically least pair realizing it.

    Pairs (u, v) with u < v are compared by (u, v); the graph must be
    connected.
    """
    if g.n == 0:
        raise DisconnectedGraphError("diameter of the empty graph is undefined")
    if not is_connected(g):
        raise DisconnectedGraphError("diameter requires a connected graph")
    best = (0, 0, 0) if g.n == 1 else None
    for u in range(g.n):
        dist = bfs_distances(g, u)
        for v in range(u + 1, g.n):
            if best is None or dist[v] > best[0]:
                best = (dist[v], u, v)
    assert best is not None
    return best
