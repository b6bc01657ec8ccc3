import pytest

from locdom.cubic import is_cubic, petersen
from locdom.families import (
    c5_plus_e,
    complete,
    complete_bipartite,
    cycle,
    generalized_petersen,
    generate,
    h_graph,
    k4_minus_e,
    parse_family_spec,
    path,
    spider,
    star,
)


def test_path_and_cycle():
    p = path(5)
    assert p.n == 5 and p.edge_count() == 4
    assert p.degree(0) == 1 and p.degree(2) == 2
    c = cycle(5)
    assert c.edge_count() == 5
    assert all(c.degree(v) == 2 for v in range(5))


def test_complete_and_star():
    k = complete(5)
    assert k.edge_count() == 10
    s = star(6)
    assert s.n == 6 and s.degree(0) == 5
    assert all(s.degree(v) == 1 for v in range(1, 6))
    assert s.name == "K_1,5"


def test_complete_bipartite():
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.edge_count() == 6
    assert g.degree(0) == 3 and g.degree(2) == 2


def test_named_small_graphs():
    assert k4_minus_e().edge_count() == 5
    assert h_graph().edge_count() == 4
    g = c5_plus_e()
    assert g.n == 5 and g.edge_count() == 6


def test_spider_layout():
    g = spider(2, 2, 1)
    assert g.n == 6
    assert g.degree(0) == 3
    legs = sorted(g.degree(v) for v in range(1, 6))
    assert legs == [1, 1, 1, 2, 2]


def test_spider_rejects_short_legs():
    with pytest.raises(ValueError):
        spider(0, 1, 1)


def test_generate_dispatch():
    assert generate("cycle", 7).n == 7
    assert generate("k4_minus_e").n == 4
    with pytest.raises(ValueError):
        generate("frobnicate", 3)


def test_parse_family_spec():
    assert parse_family_spec("cycle:12").n == 12
    assert parse_family_spec("spider:3,2,2").n == 8
    assert parse_family_spec("star:5").degree(0) == 4
    assert parse_family_spec("h_graph").n == 4
    with pytest.raises(ValueError):
        parse_family_spec("cycle")
    with pytest.raises(ValueError):
        parse_family_spec("cycle:two")
    with pytest.raises(ValueError):
        parse_family_spec("path:0")


def test_parse_cubic_family_specs():
    # the cubic families keep the names the sharpness claim freezes
    assert parse_family_spec("gp:5,2") == petersen()
    assert parse_family_spec("gp:6,2") == generalized_petersen(6, 2)
    assert parse_family_spec("prism:3").name == "prism_3"
    assert parse_family_spec("mobius:4").name == "mobius_8"
    for spec, n in (("prism:15", 30), ("mobius:4", 8), ("gp:10,3", 20)):
        g = parse_family_spec(spec)
        assert g.n == n and is_cubic(g)
    with pytest.raises(ValueError):
        parse_family_spec("gp:5")
    with pytest.raises(ValueError):
        parse_family_spec("prism:2")
