import math
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from locdom import ld, solver
from locdom.canon import canonical_key, canonical_search, orbit_leaders, tree_canonical_key
from locdom.cubic import prism
from locdom.families import complete_bipartite, cycle, path, spider
from locdom.graph import (
    Graph,
    VertexSet,
    bits_of,
    closed_mask,
    lower_twins,
    popcount,
    reachable_mask,
)
from locdom.graphio import parse_edge_list, parse_graph6, to_edge_list, to_graph6
from locdom.ld import (
    colex_subsets,
    colex_walk,
    d_loc,
    dominating_breakers,
    dominating_completers,
    gamma_l,
    gamma_l_lower_bound,
    gamma_l_naive,
    gamma_l_value,
    is_dominating,
    is_ld_mask,
    is_ld_set,
    ld_breakers,
    minimalize_ld_set,
    singleton_completers,
)
from locdom.oracles import _rgs_masks, _set_partitions
from locdom.solver import (
    _Search,
    c_l_exact,
    c_l_numeric,
    c_l_oracle,
    partitions_of_int,
    plain_coalition_number,
)


@st.composite
def small_graphs(draw, min_n=3, max_n=7):
    # One boolean per edge: a drawn edge mask favours small integers, and
    # so near-empty graphs.
    n = draw(st.integers(min_n, max_n))
    return Graph(n, [p for p in combinations(range(n), 2) if draw(st.booleans())])


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
@given(small_graphs(min_n=1, max_n=8), st.data())
def test_reachable_mask_is_the_component_inside_the_mask(g, data):
    nx = pytest.importorskip("networkx")
    within = data.draw(st.integers(1, (1 << g.n) - 1))
    v = data.draw(st.sampled_from(list(bits_of(within))))
    gx = nx.empty_graph(g.n)
    gx.add_edges_from(g.edges())
    component = nx.node_connected_component(gx.subgraph(bits_of(within)), v)
    assert set(bits_of(reachable_mask(g, v, within))) == component


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
@given(small_graphs(min_n=2, max_n=8), st.data())
def test_canonical_key_is_isomorphism_invariant(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_key(g.relabeled(list(perm))) == canonical_key(g)


def double_edge_swaps(edges: set) -> list:
    """Every (ab, cd, {ad, cb}) that trades two edges for two non-edges on
    the same four vertices, keeping each vertex's degree."""
    out = []
    for (a, b), (c, d) in combinations(sorted(edges), 2):
        if len({a, b, c, d}) < 4:
            continue
        for x, y in ((c, d), (d, c)):
            swapped = {tuple(sorted((a, y))), tuple(sorted((x, b)))}
            if not swapped & edges:
                out.append(((a, b), (c, d), swapped))
    return out


@settings(max_examples=200, deadline=None)
@given(small_graphs(min_n=5, max_n=8), st.data())
def test_canonical_key_agrees_with_networkx_on_degree_mates(g, data):
    # h is a relabelled g after one to four double-edge swaps, so the two
    # share a degree sequence and may or may not be isomorphic; networkx
    # decides which, independently of canon.
    nx = pytest.importorskip("networkx")
    n = g.n
    perm = data.draw(st.permutations(range(n)))
    h_edges = {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()}
    for _ in range(data.draw(st.integers(1, 4))):
        swaps = double_edge_swaps(h_edges)
        if not swaps:
            break
        e, f, swapped = data.draw(st.sampled_from(swaps))
        h_edges = (h_edges - {e, f}) | swapped
    h = Graph(n, sorted(h_edges))
    assert sorted(map(popcount, g.adj)) == sorted(map(popcount, h.adj))
    gx, hx = nx.empty_graph(n), nx.empty_graph(n)
    gx.add_edges_from(g.edges())
    hx.add_edges_from(h.edges())
    assert (canonical_key(g) == canonical_key(h)) == nx.is_isomorphic(gx, hx)


def vertex_orbits(n, perms):
    """The orbits, as sorted tuples, of the group that perms generate."""
    orbit = {v: {v} for v in range(n)}
    for p in perms:
        for v in range(n):
            if orbit[v] is not orbit[p[v]]:
                merged = orbit[v] | orbit[p[v]]
                for u in merged:
                    orbit[u] = merged
    return {tuple(sorted(o)) for o in orbit.values()}


@settings(max_examples=60, deadline=None)
@given(small_graphs(min_n=1, max_n=7))
@example(prism(4))
@example(complete_bipartite(4, 4))
@example(cycle(8))
def test_canonical_search_generates_the_automorphism_group(g):
    # Against brute force over all n! permutations: every generator is an
    # automorphism, and the group they generate is all of Aut(g), so its
    # vertex orbits are Aut's.  orbit_leaders on the singletons gives the
    # least vertex of each orbit.
    n = g.n
    edges = set(g.edges())
    auts = {
        p
        for p in permutations(range(n))
        if all(tuple(sorted((p[u], p[v]))) in edges for u, v in edges)
    }
    key, gens = canonical_search(g)
    assert key == canonical_key(g)
    assert {tuple(p) for p in gens} <= auts
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        q = frontier.pop()
        for p in gens:
            r = tuple(p[q[v]] for v in range(n))
            if r not in group:
                group.add(r)
                frontier.append(r)
    assert group == auts
    orbits = vertex_orbits(n, auts)
    assert vertex_orbits(n, gens) == orbits
    assert orbit_leaders(gens, [1 << v for v in range(n)]) == sorted(1 << o[0] for o in orbits)


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


@settings(max_examples=100, deadline=None)
@given(small_graphs(min_n=1, max_n=9))
def test_gamma_l_lower_bound_is_sound(g):
    value, witness = gamma_l_naive(g)
    assert gamma_l_lower_bound(g) <= value
    got_value, got_witness = gamma_l(g)
    assert (got_value, int(got_witness)) == (value, int(witness))


@settings(max_examples=60, deadline=None)
@given(small_graphs(min_n=3, max_n=7))
def test_minimalize_yields_minimal_ld_set(g):
    s = minimalize_ld_set(g, VertexSet((1 << g.n) - 1, g.n))
    assert is_ld_set(g, s).ok
    for v in s.to_sorted_list():
        smaller = s.difference(VertexSet(1 << v, g.n))
        if len(smaller) > 0:
            assert not is_ld_set(g, smaller).ok


# each predicate with its completer and breaker kernels
PREDICATES = [
    (is_ld_mask, singleton_completers, ld_breakers),
    (is_dominating, dominating_completers, dominating_breakers),
]


def completer_mask_by_vertex(g, good, m):
    """The vertices w outside m with good(m | {w}), one vertex at a time."""
    outside = g.full_mask() & ~m
    return sum(1 << w for w in bits_of(outside) if good(g, m | 1 << w))


@settings(max_examples=150, deadline=None)
@given(small_graphs(min_n=1, max_n=8), st.sampled_from(PREDICATES))
@example(path(12), PREDICATES[0])
@example(cycle(12), PREDICATES[0])
def test_completer_kernels_match_vertex_scan_on_every_mask(g, kernels):
    # the predicate's kernel and ld.completers under the predicate, which
    # the search judges early-stopped sizes by, on every mask: good ones,
    # the empty set and V itself too
    good, kernel, _ = kernels
    for m in range(1 << g.n):
        assert kernel(g, m) == ld.completers(g, m, good) == completer_mask_by_vertex(g, good, m)


@settings(max_examples=150, deadline=None)
@given(small_graphs(min_n=1, max_n=8))
def test_ld_kernels_match_the_definition_on_every_mask(g):
    # the reference uses Python sets, not the kernels' bit loops: S is
    # LD iff every outside trace N(v) & S is non-empty and no two agree
    # (the completer kernels are checked against is_ld_mask above)
    n = g.n
    nbrs = [{u for u in range(n) if g.has_edge(u, v)} for v in range(n)]
    for m in range(1 << n):
        s = {v for v in range(n) if m >> v & 1}
        traces = [frozenset(nbrs[v] & s) for v in range(n) if v not in s]
        assert is_ld_mask(g, m) == (all(traces) and len(set(traces)) == len(traces))
        closed = s.union(*(nbrs[v] for v in s))
        assert closed_mask(g, m) == sum(1 << v for v in closed)


@settings(max_examples=150, deadline=None)
@given(small_graphs(min_n=1, max_n=9), st.data())
def test_colex_walk_reaches_exactly_the_dominating_sets(g, data):
    # the walk prunes only where no completion dominates, and every leaf
    # it reaches dominates: its leaves are the dominating k-sets, in order
    k = data.draw(st.integers(1, g.n))
    leaves = []

    def leaf(s):
        leaves.append(s)
        return False

    assert colex_walk(g, k, lambda chosen, limit: True, leaf) is None
    assert all(is_dominating(g, s) for s in leaves)
    assert leaves == [m for m in colex_subsets(g.n, k) if is_dominating(g, m)]


def rescan_least_ld(g, k):
    """ld._colex_least_ld with its locating prune as a full rescan: each
    node checks every decided vertex (outside chosen, no neighbour below
    limit) against all the others."""
    full, adj = g.full_mask(), g.adj

    def locatable(chosen, limit):
        pool = chosen | ((1 << limit) - 1)
        free = pool & ~chosen
        fixed_traces = set()
        for v in bits_of(full & ~pool):
            if adj[v] & free == 0:
                if adj[v] & chosen in fixed_traces:
                    return False
                fixed_traces.add(adj[v] & chosen)
        return True

    return ld.colex_walk(g, k, locatable, lambda m: is_ld_mask(g, m))


def walked(search, g, k):
    """search(g, k) with the admit calls of its colex_walk and how many
    of them admitted."""
    walk = ld.colex_walk
    counts = [0, 0]

    def counted_walk(g, k, admit, leaf):
        def counted_admit(chosen, limit):
            ok = admit(chosen, limit)
            counts[0] += 1
            counts[1] += ok
            return ok

        return walk(g, k, counted_admit, leaf)

    ld.colex_walk = counted_walk
    try:
        return search(g, k), counts
    finally:
        ld.colex_walk = walk


def assert_incremental_prune_is_the_rescan(g):
    # same mask and the same nodes at every cardinality gamma_l tries
    for k in range(gamma_l_lower_bound(g), gamma_l_value(g) + 1):
        assert walked(ld._colex_least_ld, g, k) == walked(rescan_least_ld, g, k)


@settings(max_examples=200, deadline=None)
@given(small_graphs(min_n=1, max_n=10))
def test_incremental_locating_prune_matches_the_rescan(g):
    assert_incremental_prune_is_the_rescan(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 18), st.sampled_from([path, cycle]), st.data())
def test_incremental_locating_prune_matches_the_rescan_on_paths_and_cycles(n, family, data):
    perm = data.draw(st.permutations(range(n)))
    assert_incremental_prune_is_the_rescan(family(n).relabeled(perm))


def completers_by_vertex(g, good, cands, rest):
    """The capacity rule's pool count as a scan over the pool's vertices."""
    return sum(1 for w in bits_of(rest) if any(good(g, p | 1 << w) for p in cands))


@settings(max_examples=150, deadline=None)
@given(small_graphs(min_n=1, max_n=8), st.sampled_from(PREDICATES), st.data())
def test_completer_masks_match_vertex_scan(g, kernels, data):
    good, _, breakers = kernels
    # each vertex lies in one candidate part, in the pool, or in neither
    k = data.draw(st.integers(0, 3))
    where = data.draw(st.lists(st.integers(-1, k), min_size=g.n, max_size=g.n))
    cands = [sum(1 << v for v in range(g.n) if where[v] == j) for j in range(k)]
    cands = [p for p in cands if p]
    rest = sum(1 << v for v in range(g.n) if where[v] == k)
    search = _Search(g, good, breakers, 0)  # gamma does not enter the caches
    # twice: the second count reads the caches the first one filled
    for _ in range(2):
        count = popcount(rest & search.completer_reach(cands))
        assert count == completers_by_vertex(g, good, cands, rest)


@settings(max_examples=150, deadline=None)
@given(small_graphs(min_n=1, max_n=8), st.sampled_from(PREDICATES))
@example(path(12), PREDICATES[0])
@example(cycle(12), PREDICATES[0])
@example(spider(3, 3, 3), PREDICATES[1])
def test_capacity_bounds_every_rejected_set(g, kernels):
    # C_max(t) is the most completers of any rejected t-set: it bounds
    # every one of them, and some rejected t-set attains it (0 if none)
    good, _, breakers = kernels
    search = _Search(g, good, breakers, 0)  # gamma does not enter C_max
    for t in range(1, g.n + 1):
        counts = [
            popcount(completer_mask_by_vertex(g, good, m))
            for m in colex_subsets(g.n, t)
            if not good(g, m)
        ]
        assert search.capacity(t) == max(counts, default=0)


@settings(max_examples=150, deadline=None)
@given(small_graphs(min_n=1, max_n=8), st.sampled_from(PREDICATES))
@example(path(12), PREDICATES[0])
@example(cycle(12), PREDICATES[0])
@example(path(12), PREDICATES[1])
@example(cycle(12), PREDICATES[1])
def test_walk_tables_hold_the_kernel_completers(g, kernels):
    # a C_max walk that runs to the end records the completers of every
    # rejected t-set, and no other set; the search reads completers from
    # that table, and judges them for sizes whose walk stopped early
    good, completers, breakers = kernels
    search = _Search(g, good, breakers, 0)  # gamma does not enter the walk
    for t in range(1, g.n + 1):
        search.capacity(t)
        rejected = {m: completers(g, m) for m in colex_subsets(g.n, t) if not good(g, m)}
        if t in search.tables:
            assert set(search.tables[t]) <= set(rejected)
            assert all(search.tables[t][m] == c for m, c in rejected.items())
        assert all(search.completer_table(t)[m] == c for m, c in rejected.items())
    if g.n >= 12:  # P_12 and C_12 finish some of their walks
        assert search.tables


def breakers_by_definition(good):
    """The breaker kernel of good by its definition: -1 on a rejected
    mask, else the v in m for which good rejects m - v."""

    def breakers(g, m):
        if not good(g, m):
            return -1
        return sum(1 << v for v in bits_of(m) if not good(g, m ^ 1 << v))

    return breakers


@settings(max_examples=150, deadline=None)
@given(small_graphs(min_n=1, max_n=8), st.sampled_from(PREDICATES))
def test_breaker_kernels_match_the_definition(g, kernels):
    good, _, breakers = kernels
    by_definition = breakers_by_definition(good)
    for m in range(1 << g.n):
        assert breakers(g, m) == by_definition(g, m)


@settings(max_examples=100, deadline=None)
@given(small_graphs(min_n=1, max_n=8), st.sampled_from(PREDICATES))
@example(path(12), PREDICATES[0])
@example(cycle(12), PREDICATES[1])
def test_breaker_walks_keep_the_walk_tables(g, kernels):
    # the walk's one breaker-kernel call per leaf finds what judging each
    # S - v found: the same C_max, the same tables and the same nodes
    good, _, breakers = kernels
    fast = _Search(g, good, breakers, 0)
    plain = _Search(g, good, breakers_by_definition(good), 0)
    for t in range(1, g.n + 1):
        assert fast.capacity(t) == plain.capacity(t)
    assert fast.tables == plain.tables
    assert fast.nodes == plain.nodes


def hit_sets_by_definition(g, good):
    """The minimal hit sets of at most two vertices, by brute force: the H
    with good rejecting V - H and accepting V - H' for every proper H'."""
    full = g.full_mask()
    hit = [not good(g, full ^ 1 << v) for v in range(g.n)]
    ones = [1 << v for v in range(g.n) if hit[v]]
    pairs = [
        1 << u | 1 << v
        for u, v in combinations(range(g.n), 2)
        if not (hit[u] or hit[v] or good(g, full ^ (1 << u | 1 << v)))
    ]
    return ones + sorted(pairs)


@settings(max_examples=200, deadline=None)
@given(small_graphs(min_n=1, max_n=8), st.sampled_from(PREDICATES))
@example(path(12), PREDICATES[0])
@example(path(12), PREDICATES[1])
@example(cycle(12), PREDICATES[0])
@example(cycle(12), PREDICATES[1])
@example(spider(1, 1, 3), PREDICATES[0])
@example(spider(1, 1, 3), PREDICATES[1])
def test_small_hit_sets_are_the_minimal_ones(g, kernels):
    # the degree-1 and twin candidates miss no minimal hit set of size 2
    good, _, breakers = kernels
    assert ld.small_hit_sets(g, good, breakers, lower_twins(g)) == hit_sets_by_definition(g, good)


def accumulation_walk(g, good, breakers, t):
    """C_max(t) by the walk that stops only once some t-set's completer
    count reaches n - t: (C_max, its table if the walk ran to the end,
    walk nodes, the leaf it stopped at or None)."""
    table = {}
    nodes = 0

    def admit(chosen, limit):
        nonlocal nodes
        nodes += 1
        return True

    def leaf(s):
        rest = breakers(g, s)
        for v in bits_of(rest) if rest > 0 else ():
            a = s ^ 1 << v
            table[a] = table.get(a, 0) | 1 << v
            if popcount(table[a]) == g.n - t:
                return True
        return False

    stop = colex_walk(g, t + 1, admit, leaf)
    best = max(map(popcount, table.values()), default=0)
    return best, (table if stop is None else None), nodes, stop


@settings(max_examples=150, deadline=None)
@given(small_graphs(min_n=1, max_n=8), st.sampled_from(PREDICATES))
@example(path(12), PREDICATES[0])
@example(cycle(13), PREDICATES[0])
@example(path(12), PREDICATES[1])
@example(spider(3, 3, 3), PREDICATES[1])
def test_witness_stop_keeps_the_walk_and_stops_first(g, kernels):
    # the walk that tests each rejected t-set at its colex-first superset
    # finds the C_max and tables of the walk that waits for a full count,
    # never takes more nodes, and stops exactly at the colex-least
    # A | min(V - A) over the witnesses A (rejected t-sets that every
    # outside vertex completes); colex order on t-sets is mask order
    good, _, breakers = kernels
    search = _Search(g, good, breakers, 0)
    stops = []

    def spy(*args):
        stops.append(colex_walk(*args))
        return stops[-1]

    full = g.full_mask()
    for t in range(1, g.n + 1):
        best, table, nodes, _ = accumulation_walk(g, good, breakers, t)
        before = search.nodes
        with mock.patch.object(solver, "colex_walk", spy):
            assert search.capacity(t) == best
        assert search.nodes - before <= nodes
        assert search.tables.get(t) == table
        witnesses = [
            a
            for a in colex_subsets(g.n, t)
            if not good(g, a) and all(good(g, a | 1 << w) for w in bits_of(full & ~a))
        ]
        # ~a & (a + 1) is the lowest bit outside a
        assert stops[-1] == min((a | ~a & (a + 1) for a in witnesses), default=None)


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=6), st.booleans(), st.data())
def test_twin_rule_keeps_every_answer(g, adjacent, data):
    # plant a false or true twin y of a drawn vertex x, relabel, and check
    # the twin-pruned searches against unpruned brute force
    x = data.draw(st.integers(0, g.n - 1))
    y = g.n
    edges = g.edges() + [(v, y) for v in bits_of(g.adj[x])]
    if adjacent:
        edges.append((x, y))
    perm = data.draw(st.permutations(range(g.n + 1)))
    h = Graph(g.n + 1, edges).relabeled(perm)
    low, high = sorted((perm[x], perm[y]))
    assert lower_twins(h)[high] >> low & 1
    assert c_l_numeric(c_l_exact(h).c_l) == c_l_numeric(c_l_oracle(h))
    assert plain_coalition_number(h) == c_l_oracle(h, is_dominating)
    domatic = max(
        len(masks)
        for masks in map(_rgs_masks, _set_partitions(h.n))
        if all(is_ld_mask(h, m) for m in masks)
    )
    assert d_loc(h).k == domatic


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
