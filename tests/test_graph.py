import pytest

from locdom.families import complete, complete_bipartite, cycle, path, star
from locdom.graph import (
    Graph,
    VertexSet,
    are_twins,
    bits_of,
    closed_mask,
    closed_neighborhood,
    diameter,
    diameter_and_diametral_pair,
    distance,
    is_connected,
    mask_of,
    open_neighborhood,
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
    assert a.intersection(b).to_sorted_list() == [2]
    assert a.difference(b).to_sorted_list() == [0]
    assert a.complement().to_sorted_list() == [1, 3, 4]
    assert 2 in a and 1 not in a
    assert len(a) == 2


def test_neighborhoods():
    g = path(4)
    assert open_neighborhood(g, 1).to_sorted_list() == [0, 2]
    assert closed_neighborhood(g, 1).to_sorted_list() == [0, 1, 2]
    assert closed_mask(g, mask_of([0])) == mask_of([0, 1])


def test_connectivity():
    assert is_connected(path(6))
    disc = Graph(4, [(0, 1), (2, 3)])
    assert not is_connected(disc)
    assert reachable_mask(disc, 0) == mask_of([0, 1])


def test_distance_and_diameter():
    g = cycle(6)
    assert distance(g, 0, 3) == 3
    assert diameter(g) == 3
    d, u, v = diameter_and_diametral_pair(path(5))
    assert d == 4 and (u, v) == (0, 4)


def test_diametral_pair_is_lex_least():
    d, u, v = diameter_and_diametral_pair(cycle(6))
    assert d == 3 and (u, v) == (0, 3)


def test_twins():
    g = star(5)
    assert are_twins(g, 1, 2)
    assert not are_twins(g, 0, 1)
    assert not are_twins(complete(4), 0, 1)
    k23 = complete_bipartite(2, 3)
    assert are_twins(k23, 0, 1)
    assert are_twins(k23, 2, 3)
    assert not are_twins(k23, 0, 2)
    assert not any(
        are_twins(path(5), u, v) for u in range(5) for v in range(u + 1, 5)
    )


def test_relabeled_preserves_structure():
    g = path(4)
    h = g.relabeled([3, 2, 1, 0])
    assert sorted(h.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_relabeled_rejects_non_permutation():
    with pytest.raises(ValueError):
        path(4).relabeled([0, 0, 1, 2])
