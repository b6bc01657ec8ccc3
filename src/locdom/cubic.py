"""Search over small connected cubic graphs for a dominating non-LD set
whose singleton completers reach the twice-maximum-degree partner cap,
and a partition construction that realizes the cap."""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Optional

from .coalition import LdcCertificate, Partition, partner_count, verify_ldc_partition
from .families import complete, complete_bipartite
from .graph import Graph, VertexSet, bits_of, is_connected, mask_of
from .ld import is_dominating, is_ld_mask, singleton_completers


def is_cubic(g: Graph) -> bool:
    return all(g.degree(v) == 3 for v in g.vertices())


def prism(k: int) -> Graph:
    """Circular ladder: two k-cycles joined by a perfect matching."""
    if k < 3:
        raise ValueError("prism needs k >= 3")
    edges = []
    for i in range(k):
        edges.append((i, (i + 1) % k))
        edges.append((k + i, k + (i + 1) % k))
        edges.append((i, k + i))
    return Graph(2 * k, edges, name=f"prism_{k}")


def mobius_ladder(k: int) -> Graph:
    """Cycle on 2k vertices plus all antipodal chords."""
    if k < 3:
        raise ValueError("mobius ladder needs k >= 3")
    n = 2 * k
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, i + k) for i in range(k)]
    return Graph(n, edges, name=f"mobius_{n}")


def generalized_petersen(n: int, k: int) -> Graph:
    """Outer n-cycle, spokes, and an inner cycle with step k."""
    if n < 3 or not (1 <= k < n) or 2 * k == n:
        raise ValueError(
            f"generalized Petersen graph needs n >= 3, 1 <= k <= n - 1 and 2k != n; got n={n}, k={k}"
        )
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + k) % n))
    return Graph(2 * n, edges, name=f"GP({n},{k})")


def petersen() -> Graph:
    return generalized_petersen(5, 2).with_name("petersen")


def cubic_candidates() -> list[Graph]:
    """Well-known connected cubic graphs of order at most 12, smallest
    first."""
    out = [
        complete(4),
        complete_bipartite(3, 3),
        prism(3),
        prism(4).with_name("cube"),
        mobius_ladder(4),
        petersen(),
        prism(5),
        mobius_ladder(5),
        prism(6),
        mobius_ladder(6),
        generalized_petersen(6, 2),
    ]
    for g in out:
        assert is_cubic(g) and is_connected(g)
    return out


def six_completer_witnesses(g: Graph) -> list[tuple[VertexSet, list[int]]]:
    """All dominating non-LD sets of g with exactly six completing
    vertices, smallest sets first."""
    out = []
    for size in range(1, g.n - 6 + 1):
        for combo in combinations(range(g.n), size):
            m = mask_of(combo)
            if not is_dominating(g, m) or is_ld_mask(g, m):
                continue
            cs = list(bits_of(singleton_completers(g, m)))
            if len(cs) == 6:
                out.append((VertexSet(m, g.n), cs))
    return out


def find_sharp_witness() -> Optional[tuple[Graph, VertexSet, list[int]]]:
    """First known cubic graph of order at most 12 carrying a dominating
    non-LD set with exactly six completing vertices, the cap of twice
    the maximum degree."""
    for g in cubic_candidates():
        ws = six_completer_witnesses(g)
        if ws:
            a, cs = ws[0]
            return g, a, cs
    return None


def partition_realizing_cap(
    g: Graph, a: VertexSet, completers: list[int]
) -> Optional[LdcCertificate]:
    """LDC-partition in which the given set is one part and partners all
    six completer parts; leftovers outside the set and its completers are
    absorbed into completer parts, searched over injective assignments."""
    a_mask = int(a)
    comp_set = set(completers)
    leftovers = [
        v for v in bits_of(g.full_mask() & ~a_mask) if v not in comp_set
    ]
    if len(leftovers) > len(completers):
        return None
    for assignment in permutations(completers, len(leftovers)):
        part_of = {c: [c] for c in completers}
        for v, c in zip(leftovers, assignment):
            part_of[c].append(v)
        parts = [list(bits_of(a_mask))] + [part_of[c] for c in completers]
        p = Partition(parts, g.n)
        cert = verify_ldc_partition(g, p)
        if isinstance(cert, LdcCertificate):
            if partner_count(g, p, 0) == len(completers):
                return cert
    return None
