import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import locdom
from locdom.census import enumerate_graphs, enumerate_trees
from locdom.families import (
    complete,
    complete_bipartite,
    cycle,
    path,
    spider,
    star,
)
from locdom import ld
from locdom.graph import Graph, VertexSet, mask_of
from locdom.ld import (
    d_loc,
    dominating_breakers,
    gamma_l,
    gamma_l_lower_bound,
    gamma_l_naive,
    gamma_l_value,
    is_dominating,
    is_ld_mask,
    is_ld_set,
    is_locating,
    ld_breakers,
    minimalize_ld_set,
    slater_log_lower_bound,
    slater_upper_check,
)
from locdom.solver import c_l_exact


def test_is_dominating():
    g = path(5)
    assert is_dominating(g, [1, 3])
    assert not is_dominating(g, [0, 1])


def test_is_locating_and_verdict():
    g = path(4)
    assert is_ld_set(g, [0, 3]).ok
    assert is_ld_set(g, [1, 3]).ok
    v = is_ld_set(g, [0, 1])
    assert not v.ok
    assert not v.dominating and v.locating
    assert v.witness == 3
    w = is_ld_set(path(5), [2])
    assert not w.ok
    assert not w.dominating and not w.locating
    assert w.witness == (0, 4)


def test_undominated_outside_vertices_share_empty_trace():
    g = path(5)
    assert not is_locating(g, [2])


def test_ld_examples_complete_graph():
    g = complete(4)
    assert is_ld_set(g, [1, 2, 3]).ok
    assert not is_ld_set(g, [2, 3]).ok


def test_whole_vertex_set_is_ld():
    assert is_ld_set(cycle(9), VertexSet((1 << 9) - 1, 9)).ok


def test_gamma_l_known_values():
    assert gamma_l_value(path(1)) == 1
    assert gamma_l_value(path(2)) == 1
    assert gamma_l_value(complete(4)) == 3
    assert gamma_l_value(star(6)) == 5
    assert gamma_l_value(cycle(7)) == 3
    assert gamma_l_value(path(6)) == 3
    assert gamma_l_value(path(8)) == 4


def test_gamma_l_closed_form_small():
    for n in range(3, 21):
        want = math.ceil(2 * n / 5)
        assert gamma_l_value(cycle(n)) == want
        assert gamma_l_value(path(n)) == want


def census_up_to_6_and_trees_10():
    for n in range(1, 7):
        yield from enumerate_graphs(n, connected_only=True)
    yield from enumerate_trees(10)


def test_gamma_l_matches_naive_on_census():
    # the naive scan starts at the logarithmic bound, so it checks both the
    # counting bound's soundness and the witness the pruned search returns
    checked = 0
    for g in census_up_to_6_and_trees_10():
        value, witness = gamma_l_naive(g)
        assert gamma_l_lower_bound(g) <= value, g.edges()
        got_value, got_witness = gamma_l(g)
        assert (got_value, int(got_witness)) == (value, int(witness)), g.edges()
        checked += 1
    assert checked == 143 + 106


def test_gamma_l_lower_bound_is_tight_on_paths_and_cycles():
    assert gamma_l_lower_bound(path(1)) == gamma_l_lower_bound(path(2)) == 1
    for n in range(3, 31):
        assert gamma_l_lower_bound(path(n)) == math.ceil(2 * n / 5)
        assert gamma_l_lower_bound(cycle(n)) == math.ceil(2 * n / 5)


def test_gamma_l_searches_only_from_the_bound(monkeypatch):
    # on P_30 and C_30 the counting bound is gamma_l = 12, so the colex
    # search runs once and refutes no smaller cardinality
    calls = []
    search = ld._colex_least_ld

    def counted(g, k, deadline=None):
        calls.append(k)
        return search(g, k, deadline)

    monkeypatch.setattr(ld, "_colex_least_ld", counted)
    for g in (path(30), cycle(30)):
        calls.clear()
        assert gamma_l_value(g) == 12
        assert calls == [12]


def test_gamma_l_is_memoized_on_the_graph_object(monkeypatch):
    calls = []
    search = ld._colex_least_ld

    def counted(g, k, deadline=None):
        calls.append(k)
        return search(g, k, deadline)

    monkeypatch.setattr(ld, "_colex_least_ld", counted)
    g = cycle(9)
    value, witness = gamma_l(g)
    assert calls == [4]
    calls.clear()
    again = gamma_l(g)
    assert again == (value, witness) and again[1] is not witness
    d_loc(g)
    c_l_exact(g)
    assert gamma_l(g.with_name("x")) == (value, witness)
    assert calls == []
    # the memo belongs to the object: equal graphs built anew search again
    rotated = g.relabeled([(v + 1) % 9 for v in range(9)])
    for h in (rotated, Graph(9, g.edges())):
        assert h == g
        calls.clear()
        assert gamma_l(h) == (value, witness)
        assert calls == [4]


def test_gamma_l_lower_bound_rejects_empty_graph():
    with pytest.raises(ValueError):
        gamma_l_lower_bound(Graph(0))


def test_gamma_l_witness_is_valid_and_least():
    g = cycle(7)
    value, witness = gamma_l(g)
    assert is_ld_set(g, witness).ok and len(witness) == value
    naive_value, naive_witness = gamma_l_naive(g)
    assert value == naive_value and int(witness) == int(naive_witness)


def test_minimalize_ld_set():
    g = path(6)
    small = minimalize_ld_set(g, VertexSet.of(range(6), 6))
    assert is_ld_set(g, small).ok
    for v in small:
        shrunk = small.difference(VertexSet.of([v], 6))
        assert not is_ld_set(g, shrunk).ok


def test_slater_log_lower_bound():
    assert slater_log_lower_bound(3) == 1
    assert slater_log_lower_bound(7) == 2
    assert slater_log_lower_bound(15) == 3
    for n in range(1, 16):
        assert gamma_l_value(path(n)) >= slater_log_lower_bound(n)


def test_slater_upper_check_census():
    for n in range(2, 7):
        for g in enumerate_graphs(n, connected_only=True):
            assert slater_upper_check(g)


def test_d_loc_values():
    assert d_loc(path(2)).k == 2
    assert d_loc(path(7)).k == 2
    assert d_loc(cycle(10)).k == 2
    assert d_loc(complete(3)).k == 1
    for n in range(3, 7):
        assert d_loc(complete(n)).k == 1


def test_d_loc_partition_parts_are_ld_sets():
    res = d_loc(cycle(10))
    union = 0
    for part in res.partition:
        assert is_ld_set(cycle(10), part).ok
        union |= int(part)
    assert union == mask_of(range(10))


def test_tree_lower_bound():
    for n in range(2, 11):
        bound = math.ceil((n + 1) / 3)
        for t in enumerate_trees(n):
            assert gamma_l_value(t) >= bound


def test_ld_mask_fast_path_agrees_with_verdict():
    g = complete_bipartite(2, 3)
    for m in range(1 << g.n):
        assert is_ld_mask(g, m) == is_ld_set(g, m).ok


def breakers_by_definition(g, good):
    """Each mask's breakers as the kernels define them: -1 if good rejects
    m, else the v in m for which good rejects m - v."""
    verdicts = [good(g, m) for m in range(1 << g.n)]
    return [
        sum(1 << v for v in range(g.n) if m >> v & 1 and not verdicts[m ^ 1 << v])
        if verdicts[m]
        else -1
        for m in range(1 << g.n)
    ]


def test_breaker_kernels_match_the_definition_on_every_graph_of_order_7():
    # every mask of every graph of order <= 7, disconnected ones included
    checked = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected_only=False):
            for good, kernel in ((is_ld_mask, ld_breakers), (is_dominating, dominating_breakers)):
                expected = breakers_by_definition(g, good)
                assert [kernel(g, m) for m in range(1 << n)] == expected, (g, good)
            checked += 1
    assert checked == 1 + 2 + 4 + 11 + 34 + 156 + 1044


def test_spider_gamma_values():
    assert gamma_l_value(spider(1, 1, 1)) == 3
    assert gamma_l_value(spider(2, 2, 2)) == 3


def test_result_checks_survive_optimize_flag():
    # python -O strips assert statements; the checks that guard results
    # must raise all the same
    code = (
        "import locdom.ld as ld\n"
        "from locdom.families import path\n"
        "ld.gamma_l_value = lambda g: g.n\n"
        "ld.slater_upper_check(path(4))\n"
    )
    src = Path(locdom.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "AssertionError: upper bound gamma_l <= n-1 violated" in proc.stderr
