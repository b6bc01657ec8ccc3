"""Acceptance checks for the headline claims of this package.

Each test covers one numbered claim about locating-dominating sets and
LDC-partitions, enforces its stated time budget, and prints a one-line
summary. One check is expected to fail: the asserted three-completer
bound for six-subsets of C_15 is refuted by the exhaustive scan, which
finds 30 dominating non-locating sets that admit four completers. The
failure message names a concrete counterexample.
"""

import math
import time

import pytest

from locdom.canon import canonical_key
from locdom.census import enumerate_graphs
from locdom.coalition import (
    build_diam3_partition,
    build_from_domatic,
    build_halves_partition,
    build_twin_partition,
    partner_count,
)
from locdom.cubic import find_sharp_witness, is_cubic, partition_realizing_cap
from locdom.cyclepath import (
    c_l_cycle_formula,
    c_l_path_formula,
    census_c_l_equals_n,
    census_trees_c_l_n_minus_1,
    refute_surviving_types,
    verify_lemma_ld5_1,
    verify_lemma_ld5_2,
)
from locdom.families import (
    c5_plus_e,
    complete,
    cycle,
    h_graph,
    k4_minus_e,
    path,
    spider,
    star,
)
from locdom.ld import (
    d_loc,
    gamma_l_value,
    is_dominating,
    is_ld_set,
    slater_log_lower_bound,
    slater_upper_check,
)
from locdom.solver import (
    c_l_exact,
    c_l_numeric,
    c_l_oracle,
    partitions_of_int,
    plain_coalition_number,
)


def test_criterion_01_gamma_l_closed_form():
    start = time.monotonic()
    for n in range(7, 31):
        expected = math.ceil(2 * n / 5)
        assert gamma_l_value(cycle(n)) == expected, f"C_{n}"
        assert gamma_l_value(path(n)) == expected, f"P_{n}"
    elapsed = time.monotonic() - start
    print(f"criterion 1: pass (48 graphs, {elapsed:.1f}s)")
    assert elapsed < 60.0


def test_criterion_02_slater_bounds_census():
    start = time.monotonic()
    checked = 0
    for n in range(2, 7):
        for g in enumerate_graphs(n, connected_only=True):
            value = gamma_l_value(g)
            assert slater_log_lower_bound(n) <= value <= n - 1, g
            assert slater_upper_check(g), g
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 142
    print(f"criterion 2: pass ({checked} graphs, {elapsed:.1f}s)")
    assert elapsed < 60.0


def test_criterion_03_path_table(solve_cache):
    start = time.monotonic()
    for n in range(3, 13):
        assert solve_cache("path", n).c_l == c_l_path_formula(n), f"P_{n}"
    full_elapsed = time.monotonic() - start

    shortcut_start = time.monotonic()
    for n in range(13, 18):
        rep = solve_cache("path", n)
        assert rep.c_l == c_l_path_formula(n), f"P_{n}"
        assert rep.certificate is not None
        assert rep.certificate.verify(path(n))
    for order in (12, 14):
        result = refute_surviving_types(order, "path")
        assert result["all_refuted"], result
    shortcut_elapsed = time.monotonic() - shortcut_start
    print(
        f"criterion 3: pass (full {full_elapsed:.1f}s, "
        f"shortcut {shortcut_elapsed:.1f}s)"
    )
    assert full_elapsed < 600.0
    assert shortcut_elapsed < 600.0


def test_criterion_04_cycle_table(solve_cache):
    start = time.monotonic()
    for n in range(3, 13):
        assert solve_cache("cycle", n).c_l == c_l_cycle_formula(n), f"C_{n}"
    for order in (13, 15):
        result = refute_surviving_types(order, "cycle")
        assert result["all_refuted"], result
    for n in range(13, 18):
        rep = solve_cache("cycle", n)
        assert rep.c_l == c_l_cycle_formula(n), f"C_{n}"
        if n in (16, 17):
            assert rep.c_l == 6
            assert rep.certificate is not None
            assert rep.certificate.verify(cycle(n))
    elapsed = time.monotonic() - start
    print(f"criterion 4: pass ({elapsed:.1f}s)")
    assert elapsed < 1800.0


def test_criterion_05_five_subset_completers():
    start = time.monotonic()
    report = verify_lemma_ld5_1()
    elapsed = time.monotonic() - start
    assert report["subsets_scanned"] == 3003
    assert report["with_completer"] == 30
    assert report["violations"] == []
    assert report["ok"]
    print(f"criterion 5: pass (3003 subsets, {elapsed:.1f}s)")
    assert elapsed < 10.0


def test_criterion_06_six_subset_completer_bound():
    start = time.monotonic()
    report = verify_lemma_ld5_2()
    elapsed = time.monotonic() - start
    assert report["subsets_scanned"] == 5005
    assert elapsed < 30.0
    exceptions = report["three_completer_bound_exceptions"]
    status = "pass" if exceptions == 0 else "fail"
    print(f"criterion 6: {status} ({exceptions} sets exceed 3 completers, {elapsed:.1f}s)")
    if exceptions:
        combo, completers, _ = report["four_completer_sets"][0]
        pytest.fail(
            f"the claimed bound of at most 3 singleton completers fails for "
            f"{exceptions} of the 5005 six-subsets of C_15; each offender is "
            f"dominating but not locating and admits 4 completers, for example "
            f"A = {set(combo)} with completing vertices {set(completers)}"
        )
    assert report["structure_violations"] == []


def test_criterion_07_extremal_census():
    start = time.monotonic()
    found = census_c_l_equals_n()
    expected = [
        path(3),
        cycle(3),
        path(4),
        cycle(4),
        h_graph(),
        k4_minus_e(),
        cycle(5),
        c5_plus_e(),
    ]
    assert sorted(canonical_key(g) for g in found) == sorted(
        canonical_key(g) for g in expected
    )
    gamma2 = sum(
        1
        for g in enumerate_graphs(5, connected_only=True)
        if gamma_l_value(g) == 2
    )
    assert gamma2 == 10
    elapsed = time.monotonic() - start
    print(f"criterion 7: pass (8 extremal graphs, {elapsed:.1f}s)")
    assert elapsed < 300.0


def test_criterion_08_tree_census():
    start = time.monotonic()
    trees = census_trees_c_l_n_minus_1()
    expected = [star(4), path(5)]
    assert sorted(canonical_key(t) for t in trees) == sorted(
        canonical_key(t) for t in expected
    )
    assert gamma_l_value(path(8)) == 4

    spiders = [spider(*legs) for legs in partitions_of_int(7, 3)]
    gammas = [gamma_l_value(s) for s in spiders]
    assert sorted(gammas) == [3, 4, 4, 4]
    low = spiders[gammas.index(3)]
    assert c_l_numeric(c_l_exact(low).c_l) < 7
    elapsed = time.monotonic() - start
    print(f"criterion 8: pass ({elapsed:.1f}s)")
    assert elapsed < 600.0


def test_criterion_09_property_suite(solve_cache):
    start = time.monotonic()
    corpus = []
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=True):
            corpus.append((g, c_l_exact(g)))
    for n in range(3, 18):
        corpus.append((path(n), solve_cache("path", n)))
        corpus.append((cycle(n), solve_cache("cycle", n)))
    for n in range(3, 9):
        corpus.append((star(n), c_l_exact(star(n))))
        corpus.append((complete(n), c_l_exact(complete(n))))
    for order in range(4, 9):
        for legs in partitions_of_int(order - 1, 3):
            s = spider(*legs)
            corpus.append((s, c_l_exact(s)))

    for g, rep in corpus:
        if rep.c_l == "none":
            continue
        value = c_l_numeric(rep.c_l)
        gamma = gamma_l_value(g)
        assert value <= g.n - gamma + 2, (g.name, value, gamma)
        if value == g.n:
            assert gamma == 2 and g.n <= 5, g.name
        assert rep.certificate is not None
        cap = 2 * g.max_degree()
        partition = rep.certificate.partition
        for i in range(len(partition)):
            assert 1 <= partner_count(g, partition, i) <= cap, (g.name, i)

    builders = (
        build_diam3_partition,
        build_twin_partition,
        build_halves_partition,
        build_from_domatic,
    )
    built = 0
    for g, rep in corpus:
        for builder in builders:
            try:
                cert = builder(g)
            except ValueError:
                continue
            assert cert.verify(g), (g.name, builder.__name__)
            built += 1
            if rep.c_l != "none":
                assert len(cert) <= c_l_numeric(rep.c_l), (g.name, builder.__name__)
            if builder is build_from_domatic:
                assert len(cert) >= 2 * d_loc(g).k, g.name

    expected_plain_cycles = {3: 3, 4: 4, 5: 5, 6: 6, 7: 5, 8: 6, 9: 6, 10: 6}
    expected_plain_paths = {3: 3, 4: 4, 5: 4, 6: 5, 7: 5, 8: 5, 9: 5, 10: 6}
    for n in range(3, 11):
        cn = plain_coalition_number(cycle(n))
        pn = plain_coalition_number(path(n))
        assert cn == expected_plain_cycles[n] and cn <= 6
        assert pn == expected_plain_paths[n] and pn <= 6

    elapsed = time.monotonic() - start
    print(
        f"criterion 9: pass ({len(corpus)} corpus graphs, "
        f"{built} builder runs, {elapsed:.1f}s)"
    )
    assert elapsed < 1800.0


def test_criterion_10_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=True):
            assert c_l_numeric(c_l_exact(g).c_l) == c_l_numeric(c_l_oracle(g)), g
            assert plain_coalition_number(g) == c_l_oracle(g, is_dominating), g
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 143
    print(f"criterion 10: pass ({checked} graphs, {elapsed:.1f}s)")
    assert elapsed < 600.0


def test_criterion_11_cubic_sharpness():
    start = time.monotonic()
    witness = find_sharp_witness()
    assert witness is not None
    g, a, completers = witness
    assert is_cubic(g) and g.n <= 12
    verdict = is_ld_set(g, a)
    assert verdict.dominating and not verdict.locating
    assert len(completers) == 6 == 2 * g.max_degree()
    for w in completers:
        assert is_ld_set(g, set(a.to_sorted_list()) | {w}).ok
    cert = partition_realizing_cap(g, a, completers)
    assert cert is not None
    assert cert.verify(g)
    assert partner_count(g, cert.partition, 0) == 6
    elapsed = time.monotonic() - start
    print(f"criterion 11: pass (witness {g.name}, {elapsed:.1f}s)")
    assert elapsed < 600.0
