import pytest

from locdom.families import cycle, path
from locdom.graph import (
    Graph,
    VertexSet,
    bfs_distances,
    bits_of,
    closed_mask,
    diameter_and_diametral_pair,
    is_connected,
    mask_of,
    popcount,
    reachable_mask,
)


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(bits_of(0b100101)) == [0, 2, 5]
    assert popcount(0b100101) == 3


def test_graph_construction_and_edges():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.edge_count() == 3
    assert g.has_edge(1, 2) and not g.has_edge(0, 3)
    assert g.degree(1) == 2 and g.degree(0) == 1
    assert g.max_degree() == 2 and g.min_degree() == 1


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_vertex_set_operations():
    a = VertexSet.of([0, 2], 5)
    b = VertexSet.of([2, 4], 5)
    assert a.union(b).to_sorted_list() == [0, 2, 4]
    assert a.difference(b).to_sorted_list() == [0]
    assert 2 in a and 1 not in a
    assert len(a) == 2


def test_neighborhoods():
    g = path(4)
    assert closed_mask(g, mask_of([1])) == mask_of([0, 1, 2])
    assert closed_mask(g, mask_of([0])) == mask_of([0, 1])


def test_connectivity():
    assert is_connected(path(6))
    disc = Graph(4, [(0, 1), (2, 3)])
    assert not is_connected(disc)
    assert reachable_mask(disc, 0, disc.full_mask()) == mask_of([0, 1])
    # the path 0-1-2-3 of C_6 is cut at 2, so 3 is not reached
    assert reachable_mask(cycle(6), 0, mask_of([0, 1, 3])) == mask_of([0, 1])
    # N[{0, 7}] on C_15 is two arcs, {14, 0, 1} and {6, 7, 8}
    c15 = cycle(15)
    closed = closed_mask(c15, mask_of([0, 7]))
    assert reachable_mask(c15, 0, closed) == mask_of([14, 0, 1])


def test_distance_and_diameter():
    g = cycle(6)
    assert bfs_distances(g, 0)[3] == 3
    assert diameter_and_diametral_pair(g)[0] == 3
    d, u, v = diameter_and_diametral_pair(path(5))
    assert d == 4 and (u, v) == (0, 4)


def test_diametral_pair_is_lex_least():
    d, u, v = diameter_and_diametral_pair(cycle(6))
    assert d == 3 and (u, v) == (0, 3)


def test_relabeled_preserves_structure():
    g = path(4)
    h = g.relabeled([3, 2, 1, 0])
    assert sorted(h.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_relabeled_rejects_non_permutation():
    with pytest.raises(ValueError):
        path(4).relabeled([0, 0, 1, 2])
