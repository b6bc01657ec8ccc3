from locdom import repro
from locdom.repro import _plain, claim_ids, run_claims, select_claims
from locdom.ld import gamma_l_value
from locdom.solver import Budget


def test_claim_registry():
    ids = claim_ids()
    assert len(ids) == 14
    assert len(set(ids)) == 14
    assert ids[0] == "gamma-closed-form-cycles"
    assert "c15-six-subset-scan" in ids
    assert "cubic-sharpness-witness" in ids


def test_select_by_substring():
    assert [c.id for c in select_claims("cycles")] == [
        "gamma-closed-form-cycles",
        "cycles-cl-values",
        "cycles-type-table",
    ]
    assert [c.id for c in select_claims("c15")] == [
        "c15-five-subset-scan",
        "c15-six-subset-scan",
    ]
    assert select_claims("nosuchclaim") == []


def test_run_scan_claims():
    rep = run_claims(only="c15")
    assert rep.overall_pass
    assert not rep.budget_hit
    assert [(r.id, r.status) for r in rep.results] == [
        ("c15-five-subset-scan", "pass"),
        ("c15-six-subset-scan", "pass"),
    ]
    tsv = rep.to_tsv()
    lines = tsv.splitlines()
    assert lines[0] == "claim\tstatus\telapsed_ms"
    assert lines[-1].startswith("overall\tpass\t")
    doc = rep.to_json_dict()
    assert doc["schema_version"] == 1
    assert doc["overall_pass"] is True
    assert sorted(doc["claims"][0].keys()) == [
        "computed",
        "elapsed_ms",
        "expected",
        "id",
        "statement",
        "status",
    ]


def test_run_cheap_census_claims():
    rep = run_claims(only="census-order5-gamma2")
    assert rep.overall_pass
    rep2 = run_claims(only="census-smallgraph-extremal")
    assert rep2.overall_pass


def test_every_claim_passes():
    rep = run_claims()
    assert [r.status for r in rep.results] == ["pass"] * 14
    assert rep.overall_pass


def test_budget_makes_heavy_claim_inconclusive():
    rep = run_claims(only="cycles-cl-values", budget=Budget(seconds=0.05))
    assert not rep.overall_pass
    assert rep.budget_hit
    assert rep.results[0].status == "inconclusive"


def test_reproduce_run_shares_its_seconds():
    # the seconds cover the whole run: the first claim spends them, so the
    # second starts out of time and runs nothing
    rep = run_claims(only="cl-values", budget=Budget(seconds=0.05))
    assert [(r.id, r.status) for r in rep.results] == [
        ("cycles-cl-values", "inconclusive"),
        ("paths-cl-values", "inconclusive"),
    ]
    assert rep.results[1].elapsed == 0


def test_plain_projection():
    assert _plain({1: (2, 3), "s": {5, 4}}) == {"1": [2, 3], "s": [4, 5]}
    assert _plain(((1, 2), (3,))) == [[1, 2], [3]]
    assert _plain("x") == "x"


def test_census_claims_keep_the_node_budget():
    for only in ("census-smallgraph-extremal", "census-trees-extremal"):
        rep = run_claims(only=only, budget=Budget(nodes=1))
        assert [(r.id, r.status) for r in rep.results] == [(only, "inconclusive")]
        assert rep.budget_hit


def test_plain_coalition_claim_keeps_the_node_budget():
    rep = run_claims(only="plain-coalition", budget=Budget(nodes=1))
    assert [(r.id, r.status) for r in rep.results] == [
        ("plain-coalition-small", "inconclusive")
    ]
    assert rep.budget_hit


def test_gamma_claims_pass_the_deadline(monkeypatch):
    # the claims that only compute gamma_l give every call the budget's
    # deadline, so one that runs out there ends inconclusive
    deadlines = []

    def spy(g, deadline=None):
        deadlines.append(deadline)
        return gamma_l_value(g, deadline)

    monkeypatch.setattr(repro, "gamma_l_value", spy)
    budget = Budget(seconds=600)
    for only in ("gamma-closed-form", "census-order5-gamma2", "census-slater-bounds"):
        deadlines.clear()
        rep = run_claims(only=only, budget=budget)
        assert rep.overall_pass
        assert deadlines and set(deadlines) == {budget.deadline}
