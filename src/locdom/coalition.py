"""LD-coalitions, LDC-partition verification, and constructive builders.

An LD-coalition is a pair of disjoint non-LD sets whose union is an LD-set;
an LDC-partition is a vertex partition in which every part is non-LD and has
a coalition partner.  Certificates produced here re-verify from scratch
using only the LD-set predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .graph import (
    Graph,
    VertexSet,
    as_mask,
    bits_of,
    diameter_and_diametral_pair,
)
from .ld import (
    DomaticResult,
    d_loc,
    gamma_l_value,
    is_ld_mask,
    is_ld_set,
    minimalize_ld_set,
    singleton_completers,
)


class PartitionError(ValueError):
    """Malformed partition (overlap, gap, empty part, wrong order)."""


class Partition:
    """Ordered list of pairwise-disjoint, covering, non-empty vertex sets."""

    __slots__ = ("parts", "n")

    def __init__(self, parts: Iterable, n: int):
        out = []
        for p in parts:
            if isinstance(p, VertexSet):
                if p.n != n:
                    raise PartitionError("part belongs to a graph of different order")
                out.append(p)
            else:
                p = list(p)
                for v in p:
                    # before any shift: 1 << v is huge for a large v
                    if not 0 <= v < n:
                        raise PartitionError(
                            f"part {len(out)} has vertex {v}, outside 0..{n - 1}"
                        )
                out.append(VertexSet.of(p, n))
        union = 0
        total = 0
        for idx, p in enumerate(out):
            if p.bits == 0:
                raise PartitionError(f"part {idx} is empty")
            if union & p.bits:
                raise PartitionError(f"part {idx} overlaps an earlier part")
            union |= p.bits
            total += len(p)
        if union != (1 << n) - 1:
            missing = next(bits_of(~union & ((1 << n) - 1)))
            raise PartitionError(f"vertex {missing} is not covered by any part")
        assert total == n
        self.parts = tuple(out)
        self.n = n

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i: int) -> VertexSet:
        return self.parts[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and self.parts == other.parts
        )

    def __hash__(self) -> int:
        return hash((self.n, self.parts))

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(p) for p in self.parts) + "}"

    def masks(self) -> tuple[int, ...]:
        return tuple(p.bits for p in self.parts)


@dataclass(frozen=True)
class Refusal:
    """Why a partition is not an LDC-partition."""

    part_index: int
    reason: str


@dataclass(frozen=True)
class LdcCertificate:
    """An LDC-partition plus one witnessed partner index per part."""

    partition: Partition
    partners: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.partition)

    def verify(self, g: Graph) -> bool:
        """Re-check the certificate from scratch using only is_ld_set."""
        p = self.partition
        if g.n != p.n or len(self.partners) != len(p):
            return False
        for i, part in enumerate(p):
            j = self.partners[i]
            if j == i or not (0 <= j < len(p)):
                return False
            if is_ld_set(g, part).ok:
                return False
            if not is_ld_set(g, part.union(p[j])).ok:
                return False
        return True


def is_ld_coalition(g: Graph, x, y) -> bool:
    """True iff x and y are both non-LD but their union is an LD-set."""
    mx = as_mask(g, x)
    my = as_mask(g, y)
    if mx == 0 or my == 0:
        raise ValueError("coalition members must be non-empty")
    if mx & my:
        raise ValueError("coalition members must be disjoint")
    return (
        not is_ld_mask(g, mx)
        and not is_ld_mask(g, my)
        and is_ld_mask(g, mx | my)
    )


def verify_ldc_partition(g: Graph, p: Partition) -> Union[LdcCertificate, Refusal]:
    """Certificate with first-ascending partners, or the first refusal."""
    if p.n != g.n:
        raise PartitionError("partition does not match the graph's order")
    masks = p.masks()
    for i, m in enumerate(masks):
        if is_ld_mask(g, m):
            return Refusal(i, f"part {i} is an LD-set")
    partners = []
    for i, m in enumerate(masks):
        partner = next(
            (j for j, mj in enumerate(masks) if j != i and is_ld_mask(g, m | mj)),
            None,
        )
        if partner is None:
            return Refusal(i, f"part {i} has no LD-coalition partner")
        partners.append(partner)
    cert = LdcCertificate(p, tuple(partners))
    if not cert.verify(g):
        raise AssertionError("certificate failed its own re-verification")
    return cert


# -- coalition graph -----------------------------------------------------


@dataclass(frozen=True)
class CoalitionGraph:
    """Graph on partition parts; edges join LD-coalition partners."""

    graph: Graph
    labels: tuple[str, ...]

    def to_dot(self) -> str:
        lines = ["graph coalition {"]
        for i, label in enumerate(self.labels):
            lines.append(f'  p{i} [label="{label}"];')
        for u, v in self.graph.edges():
            lines.append(f"  p{u} -- p{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def coalition_graph(g: Graph, p: Partition) -> CoalitionGraph:
    """The coalition graph of a valid LDC-partition."""
    res = verify_ldc_partition(g, p)
    if isinstance(res, Refusal):
        raise PartitionError(f"not an LDC-partition: {res.reason}")
    masks = p.masks()
    k = len(masks)
    edges = [
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if is_ld_mask(g, masks[i] | masks[j])
    ]
    cg = Graph(k, edges, name="coalition")
    if cg.min_degree() < 1:
        raise AssertionError("every part of an LDC-partition has a partner")
    labels = tuple(repr(part) for part in p)
    return CoalitionGraph(cg, labels)


def partner_cap(g: Graph) -> int:
    """The most partners any part of an LDC-partition of g can have:
    max(2 Delta, Delta + 1).

    A part that does not dominate leaves some x undominated, and each of
    its partners meets N[x], so it has at most Delta + 1 partners.  A part
    that dominates but does not locate has u, v outside it with the same
    trace, so N(u) and N(v) share a vertex of the part, and each of its
    partners meets {u, v} | (N(u) ^ N(v)), at most 2 Delta vertices.  The
    parts are disjoint, so each vertex of those sets lies in at most one
    partner.
    """
    d = g.max_degree()
    return max(2 * d, d + 1)


def partner_count(g: Graph, p: Partition, i: int) -> int:
    """Number of coalition partners of part i; never exceeds partner_cap."""
    cg = coalition_graph(g, p)
    if not (0 <= i < len(p)):
        raise IndexError(f"part index {i} out of range")
    count, cap = cg.graph.degree(i), partner_cap(g)
    if not 1 <= count <= cap:
        raise AssertionError(f"part {i} has {count} partners, outside [1, {cap}]")
    return count


def max_singleton_completers(g: Graph, a) -> tuple[int, list[int]]:
    """All vertices w outside a with a | {w} an LD-set."""
    m = as_mask(g, a)
    if is_ld_mask(g, m):
        raise ValueError("set is already an LD-set")
    completers = list(bits_of(singleton_completers(g, m)))
    return len(completers), completers


# -- constructive builders -----------------------------------------------


def certify_masks(g: Graph, masks: list[int], producer: str) -> LdcCertificate:
    """Certificate of a partition given as masks; a refusal means the
    producer is broken, so it raises instead of returning."""
    p = Partition([VertexSet(m, g.n) for m in masks], g.n)
    res = verify_ldc_partition(g, p)
    if isinstance(res, Refusal):
        raise AssertionError(f"{producer} produced an invalid partition: {res.reason}")
    return res


def build_diam3_partition(g: Graph) -> LdcCertificate:
    """The 2-part certificate {N[x], rest} for a diametral endpoint x."""
    d, x, _ = diameter_and_diametral_pair(g)
    if d < 3:
        raise ValueError(f"diameter {d} < 3: construction does not apply")
    closed = (g.adj[x] | (1 << x))
    rest = g.full_mask() & ~closed
    return certify_masks(g, [closed, rest], "build_diam3_partition")


def find_twins(g: Graph) -> Optional[tuple[int, int]]:
    """Lexicographically least pair of open twins (N(u) = N(v)), or None;
    closed twins (N[u] = N[v]) are not found, unlike in graph.lower_twins."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adj[u] == g.adj[v]:
                return (u, v)
    return None


def build_twin_partition(g: Graph) -> LdcCertificate:
    """The 2-part certificate {{u,v}, rest} for the least twin pair."""
    if g.n < 4:
        raise ValueError("twin construction needs order at least 4")
    tw = find_twins(g)
    if tw is None:
        raise ValueError("graph has no twins")
    u, v = tw
    x = (1 << u) | (1 << v)
    return certify_masks(g, [x, g.full_mask() & ~x], "build_twin_partition")


def build_halves_partition(g: Graph) -> LdcCertificate:
    """All-singletons for n = 3; otherwise the floor/ceil split when
    gamma_l exceeds ceil(n/2) (both halves are then too small to be
    LD-sets)."""
    n = g.n
    if n == 3:
        return certify_masks(g, [1 << v for v in range(3)], "build_halves_partition")
    if n < 3:
        raise ValueError("construction needs order at least 3")
    need = (n + 1) // 2
    if gamma_l_value(g) <= need:
        raise ValueError(f"gamma_l does not exceed ceil(n/2) = {need}")
    x = (1 << (n // 2)) - 1
    return certify_masks(g, [x, g.full_mask() & ~x], "build_halves_partition")


def _split_minimal_ld(g: Graph, m: int) -> tuple[int, int]:
    """Split a minimal LD-set into two non-empty non-LD halves.

    First element versus rest always works: m minus its first element is
    non-LD by minimality, and the first element lies inside m minus its
    second, which is non-LD, so it is non-LD too (LD is upward closed).
    """
    vs = list(bits_of(m))
    assert len(vs) >= 2, "minimal LD-sets have size >= 2 for order >= 3"
    first = 1 << vs[0]
    rest = m & ~first
    if is_ld_mask(g, first) or is_ld_mask(g, rest):
        raise AssertionError("minimal LD-set admitted no non-LD 2-split")
    return first, rest


def build_from_domatic(g: Graph) -> LdcCertificate:
    """Certificate with at least 2*d_loc parts, following the locating-
    domatic construction.

    Each of the first k-1 classes is minimalized (residues pushed into the
    last class) and split into a coalition pair.  The last class is either
    split directly (if minimal) or reduced to a minimal core that is split,
    with the leftover attached as its own part when it has a partner and
    merged into the second half otherwise; in the merge case the leftover's
    failure to partner with that half is exactly what certifies the merged
    part as non-LD.
    """
    if g.n < 3:
        raise ValueError("construction needs order at least 3")
    dres: DomaticResult = d_loc(g)
    k = dres.k
    if k == 1:
        # precondition then requires diameter >= 3
        return build_diam3_partition(g)

    last = dres.partition[-1].bits
    minimal_cores = []
    for cls in dres.partition[:-1]:
        core = minimalize_ld_set(g, cls).bits
        last |= cls.bits & ~core
        minimal_cores.append(core)

    parts: list[int] = []
    for core in minimal_cores:
        a, b = _split_minimal_ld(g, core)
        parts += [a, b]

    last_core = minimalize_ld_set(g, VertexSet(last, g.n)).bits
    if last_core == last:
        a, b = _split_minimal_ld(g, last)
        parts += [a, b]
    else:
        a, b = _split_minimal_ld(g, last_core)
        residue = last & ~last_core
        # were the residue an LD-set, the cores plus it would form more than
        # d_loc disjoint LD-sets
        if is_ld_mask(g, residue):
            raise AssertionError("residue contradicts maximality of d_loc")
        with_pair = parts + [a, b]
        if any(is_ld_mask(g, residue | q) for q in with_pair):
            parts = with_pair + [residue]
        else:
            parts = parts + [a, b | residue]

    cert = certify_masks(g, parts, "build_from_domatic")
    if len(cert) < 2 * k:
        raise AssertionError(f"only {len(cert)} parts, below 2 * d_loc = {2 * k}")
    return cert
