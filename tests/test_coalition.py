import pytest

from locdom.coalition import (
    LdcCertificate,
    Partition,
    PartitionError,
    Refusal,
    build_diam3_partition,
    build_from_domatic,
    build_halves_partition,
    build_twin_partition,
    coalition_graph,
    find_twins,
    is_ld_coalition,
    max_singleton_completers,
    partner_count,
    verify_ldc_partition,
)
from locdom.families import (
    complete,
    complete_bipartite,
    cycle,
    path,
    star,
)
from locdom.graph import Graph, VertexSet
from locdom.ld import d_loc, is_ld_set


def test_partition_validation():
    p = Partition([[0, 1], [2]], 3)
    assert len(p) == 2
    with pytest.raises(PartitionError):
        Partition([[0, 1], [1, 2]], 3)
    with pytest.raises(PartitionError):
        Partition([[0, 1]], 3)
    with pytest.raises(PartitionError):
        Partition([[0, 1], []], 2)
    with pytest.raises(PartitionError):
        Partition([[0, 3]], 3)
    with pytest.raises(PartitionError, match="vertex -1"):
        Partition([[0, -1], [1, 2]], 3)


def test_is_ld_coalition():
    g = path(4)
    assert is_ld_coalition(g, [0, 1], [3])
    assert not is_ld_coalition(g, [0], [1])
    with pytest.raises(ValueError):
        is_ld_coalition(g, [0, 1], [1, 2])
    with pytest.raises(ValueError):
        is_ld_coalition(g, [], [1])


def test_verify_ldc_partition_valid_p6():
    g = path(6)
    p = Partition([[1, 3], [0, 2], [4], [5]], 6)
    cert = verify_ldc_partition(g, p)
    assert isinstance(cert, LdcCertificate)
    assert len(cert) == 4
    assert cert.verify(g)


def test_verify_refusals():
    g = cycle(3)
    ld_part = verify_ldc_partition(g, Partition([[0, 1], [2]], 3))
    assert isinstance(ld_part, Refusal)
    assert ld_part.part_index == 0
    assert ld_part.reason == "part 0 is an LD-set"

    g5 = path(5)
    orphan = verify_ldc_partition(
        g5, Partition([[0], [1], [2], [3], [4]], 5)
    )
    assert isinstance(orphan, Refusal)
    assert "no LD-coalition partner" in orphan.reason


def test_certificate_survives_tampering():
    g = path(6)
    p = Partition([[1, 3], [0, 2], [4], [5]], 6)
    cert = verify_ldc_partition(g, p)
    bad = LdcCertificate(cert.partition, (0,) * len(p))
    assert not bad.verify(g)


def test_coalition_graph_p6_shape():
    g = path(6)
    p = Partition([[1, 3], [0, 2], [4], [5]], 6)
    cg = coalition_graph(g, p)
    assert sorted(cg.graph.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    dot = cg.to_dot()
    assert dot.startswith("graph coalition {")
    assert 'p0 [label="{1,3}"]' in dot
    assert "p0 -- p2;" in dot


def test_coalition_graph_k3_triangle():
    g = cycle(3)
    p = Partition([[0], [1], [2]], 3)
    cg = coalition_graph(g, p)
    assert sorted(cg.graph.edges()) == [(0, 1), (0, 2), (1, 2)]
    assert cg.graph.min_degree() >= 1


def test_partner_count():
    g = cycle(3)
    p = Partition([[0], [1], [2]], 3)
    assert partner_count(g, p, 0) == 2
    with pytest.raises(IndexError):
        partner_count(g, p, 3)
    # edgeless: Delta = 0, yet a part that leaves x undominated may
    # partner one part, the one holding x
    assert partner_count(Graph(3, []), Partition([[0, 1], [2]], 3), 0) == 1


def test_max_singleton_completers():
    g = cycle(15)
    a = VertexSet.of([0, 2, 4, 7, 9, 12], 15)
    count, vertices = max_singleton_completers(g, a)
    assert count == 4
    assert vertices == [10, 11, 13, 14]
    with pytest.raises(ValueError):
        max_singleton_completers(cycle(7), VertexSet.of([0, 2, 4], 7))


def test_completer_edge_counts():
    assert max_singleton_completers(cycle(7), VertexSet.of([0, 1], 7)) == (0, [])
    a = VertexSet.of([3, 5, 8, 10, 13], 15)
    assert max_singleton_completers(cycle(15), a) == (1, [0])


def test_build_diam3():
    g = path(5)
    cert = build_diam3_partition(g)
    parts = [q.to_sorted_list() for q in cert.partition]
    assert parts == [[0, 1], [2, 3, 4]]
    with pytest.raises(ValueError):
        build_diam3_partition(complete(4))


def test_build_twin():
    g = cycle(4)
    assert find_twins(g) == (0, 2)
    cert = build_twin_partition(g)
    parts = [q.to_sorted_list() for q in cert.partition]
    assert [0, 2] in parts
    assert find_twins(path(5)) is None
    assert find_twins(star(5)) == (1, 2)
    assert find_twins(complete(4)) is None
    assert find_twins(complete_bipartite(2, 3)) == (0, 1)
    with pytest.raises(ValueError):
        build_twin_partition(path(5))


def test_build_halves():
    g = star(7)
    cert = build_halves_partition(g)
    assert len(cert) == 2
    assert cert.verify(g)
    assert len(build_halves_partition(cycle(3))) == 3
    with pytest.raises(ValueError):
        build_halves_partition(cycle(10))


def test_build_from_domatic():
    for g in (cycle(10), path(7)):
        cert = build_from_domatic(g)
        assert len(cert) >= 2 * d_loc(g).k
        assert cert.verify(g)
    with pytest.raises(ValueError):
        build_from_domatic(cycle(3))
    with pytest.raises(ValueError):
        build_from_domatic(path(2))


def test_builders_produce_nonld_parts():
    cert = build_diam3_partition(path(6))
    g = path(6)
    for part in cert.partition:
        assert not is_ld_set(g, part).ok
