import random
from itertools import permutations

import pytest

from locdom import canon
from locdom.canon import (
    are_isomorphic,
    canonical_key,
    canonical_key_naive,
    tree_canonical_key,
)
from locdom.census import (
    ALL_GRAPH_COUNTS,
    CONNECTED_COUNTS,
    TREE_COUNTS,
    enumerate_graphs,
    enumerate_trees,
    labeled_trees,
)
from locdom.cubic import prism
from locdom.families import complete, complete_bipartite, cycle, path, star
from locdom.graph import Graph


def test_canonical_key_matches_naive_small():
    # The key picks its own representative, so it need not equal the
    # lex-least one; it must induce the same classes.  Over all 208 graphs
    # of order <= 6 and a relabelled copy of each, two keys are equal
    # exactly when the oracle's keys are.
    rng = random.Random(0)
    graphs = []
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=False):
            perm = list(range(n))
            rng.shuffle(perm)
            graphs += [g, g.relabeled(perm)]
    assert len(graphs) == 2 * sum(ALL_GRAPH_COUNTS[:6]) == 416
    pairs = {(canonical_key(g), canonical_key_naive(g)) for g in graphs}
    assert len(pairs) == len({k for k, _ in pairs}) == len({k for _, k in pairs}) == 208


def test_symmetric_graphs_keep_the_search_small(monkeypatch):
    # Twin skipping and refinement keep highly symmetric graphs from
    # costing n! leaves: K_8 would take 40,320 without the skip.
    nodes = []
    refine = canon._refine
    monkeypatch.setattr(canon, "_refine", lambda *a: nodes.append(1) or refine(*a))
    minus_matching = Graph(8, [(i, 4 + j) for i in range(4) for j in range(4) if i != j])
    graphs = [complete(8), Graph(8), complete_bipartite(4, 4), cycle(8), prism(4)]
    rng = random.Random(1)
    keys = []
    for g in graphs:
        key = canonical_key(g)
        for _ in range(5):
            perm = list(range(8))
            rng.shuffle(perm)
            nodes.clear()
            assert canonical_key(g.relabeled(perm)) == key
            assert len(nodes) <= 81
        keys.append(key)
    assert len(set(keys)) == 5
    assert canonical_key(prism(4)) == canonical_key(minus_matching)


def test_canonical_key_invariant_under_relabeling():
    g = cycle(5)
    key = canonical_key(g)
    for perm in permutations(range(5)):
        assert canonical_key(g.relabeled(perm)) == key


def test_are_isomorphic():
    assert are_isomorphic(path(4).relabeled([2, 0, 3, 1]), path(4))
    assert not are_isomorphic(path(4), star(4))
    assert not are_isomorphic(cycle(6), path(6))


def test_connected_census_counts():
    for n in range(1, 8):
        got = len(enumerate_graphs(n, connected_only=True))
        assert got == CONNECTED_COUNTS[n - 1]


def test_all_graph_census_counts():
    for n in range(1, 7):
        got = len(enumerate_graphs(n, connected_only=False))
        assert got == ALL_GRAPH_COUNTS[n - 1]


def test_tree_census_counts():
    for n in range(1, 11):
        assert len(enumerate_trees(n)) == TREE_COUNTS[n - 1]


def test_trees_agree_with_prufer_enumeration():
    n = 7
    labeled = 0
    classes = set()
    for t in labeled_trees(n):
        labeled += 1
        classes.add(tree_canonical_key(t))
    assert labeled == n ** (n - 2)
    assert len(classes) == TREE_COUNTS[n - 1]


def test_tree_key_invariant_under_relabeling():
    t = next(iter(enumerate_trees(6)))
    key = tree_canonical_key(t)
    assert tree_canonical_key(t.relabeled([5, 3, 1, 0, 2, 4])) == key


def test_tree_key_separates_small_trees():
    keys = {tree_canonical_key(t) for t in enumerate_trees(8)}
    assert len(keys) == TREE_COUNTS[7]
    assert tree_canonical_key(path(5)) != tree_canonical_key(star(5))


def test_tree_key_refuses_disconnected_graphs_with_n_minus_1_edges():
    # A triangle plus an isolated vertex, and a triangle plus a disjoint
    # edge: each has n - 1 edges but is not a tree.
    for g in (Graph(4, [(0, 1), (1, 2), (0, 2)]), Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])):
        with pytest.raises(ValueError):
            tree_canonical_key(g)
