import multiprocessing.pool
import time

import pytest

from locdom import solver
from locdom.families import complete, cycle, path
from locdom.ld import is_ld_mask
from locdom.solver import (
    Budget,
    BudgetExceeded,
    c_l_at_least,
    c_l_exact,
    c_l_numeric,
    c_l_oracle,
    partitions_of_int,
    plain_coalition_number,
    type_labels,
)


def test_tiny_graphs_have_no_partition():
    assert c_l_exact(complete(1)).c_l == "none"
    assert c_l_exact(complete(2)).c_l == "none"
    assert c_l_exact(path(2)).c_l == "none"


def test_small_exact_values():
    assert c_l_exact(complete(3)).c_l == 3
    assert c_l_exact(complete(4)).c_l == 3
    assert c_l_exact(cycle(4)).c_l == 4
    assert c_l_exact(path(5)).c_l == 4


def test_report_shape_and_certificate():
    rep = c_l_exact(complete(3))
    assert rep.status == "exact"
    doc = rep.to_json_dict()
    assert sorted(doc.keys()) == [
        "bounds_used",
        "c_l",
        "elapsed_ms",
        "nodes_explored",
        "partners",
        "parts",
        "schema_version",
        "status",
    ]
    assert doc["schema_version"] == 1
    assert doc["c_l"] == 3
    assert doc["parts"] == [[0], [1], [2]]
    assert rep.certificate is not None
    assert rep.certificate.verify(complete(3))


def test_oracle_matches_engine_spot():
    for g in (path(6), cycle(6), complete(4), path(4)):
        assert c_l_numeric(c_l_exact(g).c_l) == c_l_numeric(c_l_oracle(g))


def test_workers_and_rotation_flag():
    assert c_l_exact(path(8), workers=2).c_l == 5
    a = c_l_exact(cycle(10), assume_vertex_transitive=True)
    b = c_l_exact(cycle(10))
    assert a.c_l == b.c_l == 5


def test_pool_never_terminates_live_workers(monkeypatch):
    # a worker killed while holding the result queue's lock hangs
    # Pool.terminate(), so the solver must stop and join its workers
    terminate = multiprocessing.pool.Pool.terminate

    def checked_terminate(pool):
        alive = sum(p.is_alive() for p in pool._pool)
        if alive:
            raise AssertionError(f"terminate() called with {alive} live workers")
        terminate(pool)

    monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", checked_terminate)
    rep = c_l_exact(cycle(10), workers=2)
    assert (rep.c_l, rep.nodes_explored) == (5, 2347)
    assert c_l_exact(cycle(10)).nodes_explored == 2347


def test_pooled_tasks_keep_the_parent_deadline(monkeypatch):
    # a task that starts late must not get a fresh budget; the stub runs in
    # the forked workers and hands back the deadline it was given
    def stub(g, gamma, caps, good, deadline, node_cap, rotation):
        return ("sat", deadline, 0)

    monkeypatch.setattr(solver, "_search_one_type", stub)
    deadline = time.monotonic() + 60.0
    types = [(5, 1, 1, 1, 1, 1), (4, 2, 1, 1, 1, 1)]
    status, got, _ = solver._run_types(
        path(10), 4, types, is_ld_mask, deadline, None, 0, False, 2
    )
    assert (status, got) == ("sat", deadline)


def test_search_judges_each_mask_once(monkeypatch):
    # node counts pin the search; the memoized predicate and the completer
    # masks must not change it, only how often a mask is judged
    calls = 0

    def counted(g, m):
        nonlocal calls
        calls += 1
        return is_ld_mask(g, m)

    monkeypatch.setattr(solver, "is_ld_mask", counted)
    rep = c_l_exact(path(12))
    assert (rep.c_l, rep.nodes_explored) == (5, 18331)
    assert calls < 5000
    assert c_l_exact(cycle(12)).nodes_explored == 4364


def test_budget_exhaustion():
    rep = c_l_exact(cycle(14), budget=Budget(seconds=0.05))
    assert rep.status == "inconclusive"
    assert rep.c_l is None
    with pytest.raises(BudgetExceeded) as info:
        c_l_at_least(cycle(14), 6, budget=Budget(seconds=0.05))
    assert info.value.nodes_explored > 0


def test_at_least_decision():
    cert = c_l_at_least(cycle(6), 5)
    assert cert is not None and cert.verify(cycle(6))
    assert c_l_at_least(cycle(6), 6) is None


def test_only_types_restriction():
    with pytest.raises(ValueError):
        c_l_at_least(cycle(10), 6, only_types=[(3, 3, 1, 1)])
    assert c_l_at_least(cycle(10), 6, only_types=[(5, 1, 1, 1, 1, 1)]) is None


def test_partitions_of_int():
    assert list(partitions_of_int(7, 6)) == [(2, 1, 1, 1, 1, 1)]
    assert list(partitions_of_int(3, 3)) == [(1, 1, 1)]
    p13 = list(partitions_of_int(13, 6))
    assert len(p13) == 14
    assert p13[0] == (8, 1, 1, 1, 1, 1)
    assert p13[-1] == (3, 2, 2, 2, 2, 2)
    for t in p13:
        assert sum(t) == 13
        assert list(t) == sorted(t, reverse=True)


def test_type_labels():
    assert type_labels((3, 3, 1, 1, 1, 1), 3, 4) == frozenset()
    assert type_labels((6, 5, 1, 1, 1, 1), 6, 4) == frozenset()
    assert 1 in type_labels((2, 1, 1, 1, 1, 1), 3, 4)
    assert type_labels((4, 4, 2, 2, 2, 1), 6, 4) == frozenset({1})
    # with gamma <= 1 a singleton may stand alone, so it forces no partner
    assert type_labels((1, 1), 1, 0) == frozenset()
    assert type_labels((2, 2), 1, 0) == frozenset({1, 2})


def test_plain_coalition_number():
    assert plain_coalition_number(complete(1)) == 1
    assert plain_coalition_number(complete(2)) == 2
    assert plain_coalition_number(complete(3)) == 3
    assert plain_coalition_number(cycle(5)) == 5


def test_numeric_projection():
    assert c_l_numeric("none") == 0
    assert c_l_numeric(5) == 5
    with pytest.raises(ValueError):
        c_l_numeric(None)
