import pytest

from locdom.coalition import partner_count
from locdom.cubic import (
    cubic_candidates,
    find_sharp_witness,
    generalized_petersen,
    is_cubic,
    mobius_ladder,
    partition_realizing_cap,
    petersen,
    prism,
    six_completer_witnesses,
)
from locdom.families import path
from locdom.graph import is_connected
from locdom.ld import is_ld_set


def test_candidate_pool():
    cands = cubic_candidates()
    assert [g.name for g in cands] == [
        "K_4",
        "K_3,3",
        "prism_3",
        "cube",
        "mobius_8",
        "petersen",
        "prism_5",
        "mobius_10",
        "prism_6",
        "mobius_12",
        "GP(6,2)",
    ]
    for g in cands:
        assert is_cubic(g)
        assert is_connected(g)
        assert g.n <= 12


def test_witness_counts():
    counts = {g.name: len(six_completer_witnesses(g)) for g in cubic_candidates()}
    assert counts == {
        "K_4": 0,
        "K_3,3": 0,
        "prism_3": 0,
        "cube": 0,
        "mobius_8": 0,
        "petersen": 20,
        "prism_5": 10,
        "mobius_10": 0,
        "prism_6": 60,
        "mobius_12": 36,
        "GP(6,2)": 36,
    }


def test_sharp_witness():
    g, a, completers = find_sharp_witness()
    assert g.name == "petersen"
    assert a.to_sorted_list() == [0, 2, 6]
    assert completers == [3, 4, 5, 7, 8, 9]
    v = is_ld_set(g, a)
    assert v.dominating and not v.locating
    for w in completers:
        assert is_ld_set(g, set(a.to_sorted_list()) | {w}).ok


def test_partition_realizing_cap():
    g, a, completers = find_sharp_witness()
    cert = partition_realizing_cap(g, a, completers)
    assert cert is not None
    assert cert.verify(g)
    parts = [q.to_sorted_list() for q in cert.partition]
    assert parts == [[0, 2, 6], [1, 3], [4], [5], [7], [8], [9]]
    assert partner_count(g, cert.partition, 0) == 6


def test_constructors():
    assert prism(3).n == 6
    assert mobius_ladder(4).n == 8
    assert generalized_petersen(5, 2).name == "GP(5,2)"
    assert petersen().n == 10
    assert not is_cubic(path(4))
    with pytest.raises(ValueError):
        prism(2)
    with pytest.raises(ValueError):
        mobius_ladder(1)
    with pytest.raises(ValueError, match=r"1 <= k <= n - 1 and 2k != n; got n=4, k=2"):
        generalized_petersen(4, 2)
    assert generalized_petersen(5, 3).n == 10
