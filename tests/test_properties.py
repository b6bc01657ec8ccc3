import math
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from locdom.canon import canonical_key, tree_canonical_key
from locdom.cyclepath import gap_configuration, reconstruct_from_gaps
from locdom.families import cycle
from locdom.graph import Graph, VertexSet, bits_of, is_connected, popcount
from locdom.graphio import parse_edge_list, parse_graph6, to_edge_list, to_graph6
from locdom.ld import (
    gamma_l_value,
    is_dominating,
    is_ld_mask,
    is_ld_set,
    minimalize_ld_set,
)
from locdom.solver import _Engine, partitions_of_int


def graph_from_mask(n, mask):
    pairs = list(combinations(range(n), 2))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    return Graph(n, edges)


@st.composite
def small_graphs(draw, min_n=3, max_n=7):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << m) - 1))
    return graph_from_mask(n, mask)


@settings(max_examples=120, deadline=None)
@given(small_graphs(), st.data())
def test_ld_sets_are_upward_closed(g, data):
    bits = data.draw(st.integers(1, (1 << g.n) - 1))
    s = VertexSet(bits, g.n)
    assume(is_ld_set(g, s).ok)
    extra = data.draw(st.integers(0, g.n - 1))
    t = s.union(VertexSet(1 << extra, g.n))
    assert is_ld_set(g, t).ok


@settings(max_examples=100, deadline=None)
@given(st.integers(5, 20), st.data())
def test_gap_round_trip(n, data):
    bits = data.draw(st.integers(1, (1 << n) - 1))
    s = VertexSet(bits, n)
    cfg = gap_configuration(n, s)
    assert sum(gp + 1 for gp in cfg.gaps) == n
    anchor = s.to_sorted_list()[0]
    assert reconstruct_from_gaps(n, cfg.gaps, anchor=anchor) == s


@settings(max_examples=100, deadline=None)
@given(small_graphs(min_n=1, max_n=8))
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)).edges() == g.edges()


@settings(max_examples=100, deadline=None)
@given(small_graphs(min_n=1, max_n=8))
def test_edge_list_round_trip(g):
    h = parse_edge_list(to_edge_list(g))
    assert h.n == g.n and h.edges() == g.edges()


@settings(max_examples=80, deadline=None)
@given(small_graphs(min_n=2, max_n=6), st.data())
def test_canonical_key_is_isomorphism_invariant(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_key(g.relabeled(list(perm))) == canonical_key(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 9), st.data())
def test_tree_key_invariant_on_random_trees(n, data):
    nx = pytest.importorskip("networkx")
    seq = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    t = nx.from_prufer_sequence(seq)
    g = Graph(n, sorted(tuple(sorted(e)) for e in t.edges()))
    perm = data.draw(st.permutations(range(n)))
    assert tree_canonical_key(g.relabeled(list(perm))) == tree_canonical_key(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 10), st.data())
def test_tree_lower_bound(n, data):
    nx = pytest.importorskip("networkx")
    seq = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    t = nx.from_prufer_sequence(seq)
    g = Graph(n, sorted(tuple(sorted(e)) for e in t.edges()))
    assert gamma_l_value(g) >= math.ceil((n + 1) / 3)


@settings(max_examples=60, deadline=None)
@given(small_graphs(min_n=3, max_n=7))
def test_minimalize_yields_minimal_ld_set(g):
    assume(is_connected(g))
    s = minimalize_ld_set(g, VertexSet((1 << g.n) - 1, g.n))
    assert is_ld_set(g, s).ok
    for v in s.to_sorted_list():
        smaller = s.difference(VertexSet(1 << v, g.n))
        if len(smaller) > 0:
            assert not is_ld_set(g, smaller).ok


def completers_by_vertex(g, good, gamma, cands, rest):
    """The singleton-shortfall count as a scan over the pool's vertices."""
    return sum(
        1
        for w in bits_of(rest)
        if (gamma <= 1 and good(g, 1 << w))
        or any(good(g, p | 1 << w) for p in cands)
    )


@settings(max_examples=150, deadline=None)
@given(
    small_graphs(min_n=1, max_n=8),
    st.sampled_from([is_ld_mask, is_dominating]),
    st.integers(0, 3),
    st.data(),
)
def test_completer_masks_match_vertex_scan(g, good, gamma, data):
    assume(is_connected(g))
    # each vertex lies in one candidate part, in the pool, or in neither
    k = data.draw(st.integers(0, 3))
    where = data.draw(st.lists(st.integers(-1, k), min_size=g.n, max_size=g.n))
    cands = [sum(1 << v for v in range(g.n) if where[v] == j) for j in range(k)]
    cands = [p for p in cands if p]
    rest = sum(1 << v for v in range(g.n) if where[v] == k)
    eng = _Engine(g, gamma, good)
    # twice: the second count reads the caches the first one filled
    for _ in range(2):
        count = popcount(rest & eng.completer_reach(cands))
        assert count == completers_by_vertex(g, good, gamma, cands, rest)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 14), st.integers(1, 7))
def test_partitions_of_int_properties(n, k):
    parts = list(partitions_of_int(n, k))
    brute = [
        t
        for t in combinations_with_repetition(n, k)
    ]
    assert len(parts) == len(set(parts))
    for t in parts:
        assert len(t) == k
        assert sum(t) == n
        assert all(a >= b for a, b in zip(t, t[1:]))
        assert t[-1] >= 1
    assert sorted(parts) == sorted(brute)


def combinations_with_repetition(n, k):
    """All descending k-tuples of positive integers summing to n."""
    if k == 1:
        return [(n,)] if n >= 1 else []
    out = []
    for first in range(n, 0, -1):
        for rest in combinations_with_repetition(n - first, k - 1):
            if rest[0] <= first:
                out.append((first,) + rest)
    return out


def test_cycle_gap_of_full_set():
    n = 9
    s = VertexSet((1 << n) - 1, n)
    cfg = gap_configuration(n, s)
    assert cfg.gaps == (0,) * n
    assert reconstruct_from_gaps(n, cfg.gaps, anchor=0) == s
    assert is_ld_set(cycle(n), s).ok
