import pytest

from locdom.families import complete, cycle, path, star
from locdom.graph import Graph, GraphFormatError
from locdom.graphio import (
    parse_any,
    parse_edge_list,
    parse_graph6,
    to_edge_list,
    to_graph6,
)

networkx = pytest.importorskip("networkx")


def test_graph6_known_encodings():
    # K_{1,4} in graph6 is "D?{": order char D=4+... then star bits
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_graph6_round_trip_families():
    # orders above 62 take the four-character order field
    for g in (path(7), cycle(9), complete(5), star(6), cycle(63), cycle(64), cycle(128)):
        s = to_graph6(g)
        h = parse_graph6(s)
        assert h.n == g.n and sorted(h.edges()) == sorted(g.edges())


def test_graph6_matches_networkx():
    for g in (path(6), cycle(8), complete(4), star(5), cycle(63), cycle(64), cycle(128)):
        ours = to_graph6(g)
        nxg = networkx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        theirs = networkx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert ours == theirs
        back = networkx.from_graph6_bytes(ours.encode())
        assert sorted(map(tuple, map(sorted, back.edges()))) == sorted(g.edges())


def test_graph6_header_tolerated():
    g = cycle(5)
    assert parse_graph6(">>graph6<<" + to_graph6(g)).n == 5


def test_graph6_errors():
    with pytest.raises(GraphFormatError):
        parse_graph6("")
    with pytest.raises(GraphFormatError):
        parse_graph6("D?")  # truncated payload
    with pytest.raises(GraphFormatError):
        parse_graph6("D?{extra")
    with pytest.raises(GraphFormatError):
        parse_graph6("~??")  # truncated long order field
    with pytest.raises(GraphFormatError):
        parse_graph6("~~??????")  # eight-character order field


def test_edge_list_round_trip():
    g = path(5)
    text = to_edge_list(g)
    h = parse_edge_list(text)
    assert h.n == 5 and sorted(h.edges()) == sorted(g.edges())


def test_edge_list_isolated_vertices_need_count():
    g = Graph(4, [(0, 1)])
    text = to_edge_list(g)
    h = parse_edge_list(text)
    assert h.n == 4 and h.edges() == [(0, 1)]


def test_edge_list_comments_and_errors():
    h = parse_edge_list("# a comment\n3\n0 1\n1 2\n")
    assert h.n == 3 and sorted(h.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(GraphFormatError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("0 x\n")


def test_parse_any_dispatches_both_formats():
    g = cycle(6)
    assert sorted(parse_any(to_graph6(g)).edges()) == sorted(g.edges())
    assert sorted(parse_any(to_edge_list(g)).edges()) == sorted(g.edges())
