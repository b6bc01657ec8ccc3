"""Registry of the package's computational claims: closed forms, table
refutations, exhaustive scans, censuses, and the cubic sharpness
witness.  Each claim recomputes its value live and compares against the
frozen expected value; the reproduce CLI and the acceptance tests both
drive this registry."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .canon import canonical_key, tree_canonical_key
from .census import enumerate_graphs, enumerate_trees
from .coalition import partner_count
from .cubic import (
    cubic_candidates,
    find_sharp_witness,
    partition_realizing_cap,
    six_completer_witnesses,
)
from .cyclepath import (
    CYCLE_TABLE_ORDERS,
    PATH_TABLE_ORDERS,
    c_l_cycle_formula,
    c_l_path_formula,
    census_c_l_equals_n,
    census_trees_c_l_n_minus_1,
    refute_surviving_types,
    verify_lemma_ld5_1,
    verify_lemma_ld5_2,
)
from .families import (
    c5_plus_e,
    cycle,
    h_graph,
    k4_minus_e,
    path,
    star,
)
from .ld import gamma_l_value, is_complete, is_star, slater_log_lower_bound
from .solver import (
    SCHEMA_VERSION,
    Budget,
    BudgetExceeded,
    c_l_value,
    plain_coalition_number,
)


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    expected: object
    compute: Callable[[Optional[Budget]], object]


@dataclass
class ClaimResult:
    id: str
    statement: str
    expected: object
    computed: object
    status: str
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "statement": self.statement,
            "expected": _plain(self.expected),
            "computed": _plain(self.computed),
            "status": self.status,
            "elapsed_ms": round(self.elapsed * 1000, 1),
        }


@dataclass
class ReproReport:
    results: list
    elapsed: float

    @property
    def overall_pass(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    @property
    def budget_hit(self) -> bool:
        return any(r.status == "inconclusive" for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "overall_pass": self.overall_pass,
            "elapsed_ms": round(self.elapsed * 1000, 1),
            "claims": [r.to_json_dict() for r in self.results],
        }

    def to_tsv(self) -> str:
        lines = ["claim\tstatus\telapsed_ms"]
        for r in self.results:
            lines.append(f"{r.id}\t{r.status}\t{round(r.elapsed * 1000, 1)}")
        verdict = "pass" if self.overall_pass else "fail"
        lines.append(f"overall\t{verdict}\t{round(self.elapsed * 1000, 1)}")
        return "\n".join(lines) + "\n"


def _plain(obj):
    """JSON-stable form: tuples to lists, dict keys to strings."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_plain(x) for x in obj)
    return obj


# -- claim computations --------------------------------------------------


def _gamma_closed_form(fam) -> Callable[[Optional[Budget]], object]:
    def compute(budget: Optional[Budget]):
        return {n: gamma_l_value(fam(n)) for n in range(3, 31)}

    return compute


def _cl_values(fam) -> Callable[[Optional[Budget]], object]:
    def compute(budget: Optional[Budget]):
        return {n: c_l_value(fam(n), budget) for n in range(3, 20)}

    return compute


def _type_table(family: str, orders) -> Callable[[Optional[Budget]], object]:
    def compute(budget: Optional[Budget]):
        out = {}
        for n in orders:
            rep = refute_surviving_types(n, family, budget=budget)
            out[n] = {
                "survivors": [list(t) for t in rep["survivors"]],
                "all_refuted": rep["all_refuted"],
            }
        return out

    return compute


def _five_subset_scan(budget: Optional[Budget]):
    rep = verify_lemma_ld5_1()
    return {
        "subsets_scanned": rep["subsets_scanned"],
        "with_completer": rep["with_completer"],
        "ok": rep["ok"],
    }


def _six_subset_scan(budget: Optional[Budget]):
    rep = verify_lemma_ld5_2()
    return {
        "subsets_scanned": rep["subsets_scanned"],
        "ld_sets": rep["ld_sets"],
        "completer_histogram": rep["completer_histogram"],
        "max_completers": rep["max_completers"],
        "three_completer_bound_exceptions": rep["three_completer_bound_exceptions"],
        "structure_ok": rep["structure_ok"],
    }


def _census_extremal(budget: Optional[Budget]):
    found = census_c_l_equals_n(budget)
    known = [
        path(3), cycle(3), path(4), cycle(4),
        k4_minus_e(), h_graph(), cycle(5), c5_plus_e(),
    ]
    count_by_order = {}
    for g in found:
        count_by_order[g.n] = count_by_order.get(g.n, 0) + 1
    matches = sorted(canonical_key(g) for g in found) == sorted(
        canonical_key(g) for g in known
    )
    return {
        "count_by_order": count_by_order,
        "total": len(found),
        "matches_known_graphs": matches,
    }


def _census_order5_gamma2(budget: Optional[Budget]):
    gs = enumerate_graphs(5, connected_only=True)
    return {
        "order5_connected": len(gs),
        "gamma2_count": sum(1 for g in gs if gamma_l_value(g) == 2),
    }


def _census_slater(budget: Optional[Budget]):
    checked = {}
    ok = True
    for n in range(2, 7):
        gs = enumerate_graphs(n, connected_only=True)
        checked[n] = len(gs)
        lo = slater_log_lower_bound(n)
        for g in gs:
            gl = gamma_l_value(g)
            if not (lo <= gl <= n - 1):
                ok = False
            if (gl == n - 1) != (is_star(g) or is_complete(g)):
                ok = False
    return {"checked": checked, "ok": ok}


def _census_trees(budget: Optional[Budget]):
    found = census_trees_c_l_n_minus_1(budget)
    known = [path(5), star(4)]
    checked = {n: len(enumerate_trees(n)) for n in range(3, 9)}
    matches = sorted(tree_canonical_key(t) for t in found) == sorted(
        tree_canonical_key(t) for t in known
    )
    return {
        "trees_checked": checked,
        "extremal_count": len(found),
        "matches_known_trees": matches,
    }


def _cubic_sharpness(budget: Optional[Budget]):
    hit = find_sharp_witness()
    if hit is None:
        return {"found": False}
    g, a, cs = hit
    earlier = []
    for cand in cubic_candidates():
        if cand.name == g.name:
            break
        earlier.append(cand.name)
    blank_before = all(
        not six_completer_witnesses(cand)
        for cand in cubic_candidates()
        if cand.name in earlier
    )
    cert = partition_realizing_cap(g, a, cs)
    realized = (
        partner_count(g, cert.partition, 0) if cert is not None else 0
    )
    return {
        "found": True,
        "graph": g.name,
        "set": a.to_sorted_list(),
        "completers": cs,
        "searched_before": earlier,
        "no_smaller_witness": blank_before,
        "partition_partner_count": realized,
    }


def _plain_coalition_small(budget: Optional[Budget]):
    cyc = {n: plain_coalition_number(cycle(n), budget=budget) for n in range(3, 11)}
    pth = {n: plain_coalition_number(path(n), budget=budget) for n in range(3, 11)}
    capped = all(v <= 6 for v in cyc.values()) and all(
        v <= 6 for v in pth.values()
    )
    return {"cycle": cyc, "path": pth, "all_at_most_6": capped}


# -- the registry --------------------------------------------------------


def _cl_formula_dict(formula) -> dict:
    return {n: formula(n) for n in range(3, 20)}


CLAIMS: list[Claim] = [
    Claim(
        id="gamma-closed-form-cycles",
        statement="gamma_L(C_n) computed by search equals ceil(2n/5) for 3 <= n <= 30",
        expected={n: math.ceil(2 * n / 5) for n in range(3, 31)},
        compute=_gamma_closed_form(cycle),
    ),
    Claim(
        id="gamma-closed-form-paths",
        statement="gamma_L(P_n) computed by search equals ceil(2n/5) for 3 <= n <= 30",
        expected={n: math.ceil(2 * n / 5) for n in range(3, 31)},
        compute=_gamma_closed_form(path),
    ),
    Claim(
        id="cycles-cl-values",
        statement="C_L(C_n) solved exactly for 3 <= n <= 19 matches the closed form",
        expected=_cl_formula_dict(c_l_cycle_formula),
        compute=_cl_values(cycle),
    ),
    Claim(
        id="paths-cl-values",
        statement="C_L(P_n) solved exactly for 3 <= n <= 19 matches the closed form",
        expected=_cl_formula_dict(c_l_path_formula),
        compute=_cl_values(path),
    ),
    Claim(
        id="cycles-type-table",
        statement="six-part size types for table-order cycles: label survivors frozen, every survivor refuted by search",
        expected={
            7: {"survivors": [], "all_refuted": True},
            8: {"survivors": [], "all_refuted": True},
            9: {"survivors": [], "all_refuted": True},
            10: {
                "survivors": [[3, 3, 1, 1, 1, 1], [3, 2, 2, 1, 1, 1]],
                "all_refuted": True,
            },
            11: {"survivors": [], "all_refuted": True},
            13: {"survivors": [], "all_refuted": True},
            15: {
                "survivors": [
                    [6, 5, 1, 1, 1, 1],
                    [6, 4, 2, 1, 1, 1],
                    [6, 3, 3, 1, 1, 1],
                    [5, 5, 2, 1, 1, 1],
                    [5, 4, 3, 1, 1, 1],
                    [5, 4, 2, 2, 1, 1],
                    [5, 3, 3, 2, 1, 1],
                ],
                "all_refuted": True,
            },
        },
        compute=_type_table("cycle", CYCLE_TABLE_ORDERS),
    ),
    Claim(
        id="paths-type-table",
        statement="six-part size types for table-order paths: label survivors frozen, every survivor refuted by search",
        expected={
            12: {
                "survivors": [[4, 4, 1, 1, 1, 1], [4, 3, 2, 1, 1, 1]],
                "all_refuted": True,
            },
            14: {
                "survivors": [
                    [5, 5, 1, 1, 1, 1],
                    [5, 4, 2, 1, 1, 1],
                    [5, 3, 3, 1, 1, 1],
                ],
                "all_refuted": True,
            },
        },
        compute=_type_table("path", PATH_TABLE_ORDERS),
    ),
    Claim(
        id="c15-five-subset-scan",
        statement="all 3003 five-subsets of C_15: at most one completing vertex, completions have the unique gap shape, 30 subsets admit one",
        expected={"subsets_scanned": 3003, "with_completer": 30, "ok": True},
        compute=_five_subset_scan,
    ),
    Claim(
        id="c15-six-subset-scan",
        statement="all 5005 six-subsets of C_15 classified by completer count; non-dominating structure holds, 30 dominating subsets reach four",
        expected={
            "subsets_scanned": 5005,
            "ld_sets": 5,
            "completer_histogram": {0: 4025, 1: 360, 2: 495, 3: 90, 4: 30},
            "max_completers": 4,
            "three_completer_bound_exceptions": 30,
            "structure_ok": True,
        },
        compute=_six_subset_scan,
    ),
    Claim(
        id="census-smallgraph-extremal",
        statement="connected graphs of order 3..5 with C_L = n are exactly the eight known graphs",
        expected={
            "count_by_order": {3: 2, 4: 4, 5: 2},
            "total": 8,
            "matches_known_graphs": True,
        },
        compute=_census_extremal,
    ),
    Claim(
        id="census-order5-gamma2",
        statement="exactly 10 of the 21 connected order-5 graphs have gamma_L = 2",
        expected={"order5_connected": 21, "gamma2_count": 10},
        compute=_census_order5_gamma2,
    ),
    Claim(
        id="census-slater-bounds",
        statement="every connected graph with 2 <= n <= 6 has gamma_L between the log lower bound and n-1, hitting n-1 exactly for stars and completes",
        expected={"checked": {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}, "ok": True},
        compute=_census_slater,
    ),
    Claim(
        id="census-trees-extremal",
        statement="trees of order 3..8 with C_L = n-1 are exactly the order-5 path and the 3-leaf star",
        expected={
            "trees_checked": {3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23},
            "extremal_count": 2,
            "matches_known_trees": True,
        },
        compute=_census_trees,
    ),
    Claim(
        id="cubic-sharpness-witness",
        statement="search over known cubic graphs finds a dominating non-LD set with exactly six completing vertices and a partition realizing six partners",
        expected={
            "found": True,
            "graph": "petersen",
            "set": [0, 2, 6],
            "completers": [3, 4, 5, 7, 8, 9],
            "searched_before": ["K_4", "K_3,3", "prism_3", "cube", "mobius_8"],
            "no_smaller_witness": True,
            "partition_partner_count": 6,
        },
        compute=_cubic_sharpness,
    ),
    Claim(
        id="plain-coalition-small",
        statement="plain coalition numbers of cycles and paths of order 3..10 never exceed six",
        expected={
            "cycle": {3: 3, 4: 4, 5: 5, 6: 6, 7: 5, 8: 6, 9: 6, 10: 6},
            "path": {3: 3, 4: 4, 5: 4, 6: 5, 7: 5, 8: 5, 9: 5, 10: 6},
            "all_at_most_6": True,
        },
        compute=_plain_coalition_small,
    ),
]


def claim_ids() -> list[str]:
    return [c.id for c in CLAIMS]


def select_claims(only: Optional[str] = None) -> list[Claim]:
    """Claims whose id contains the given substring; all when none."""
    if only is None:
        return list(CLAIMS)
    return [c for c in CLAIMS if only in c.id]


def run_claims(
    only: Optional[str] = None, budget: Optional[Budget] = None
) -> ReproReport:
    """Run the selected claims in registry order, comparing live values
    against the frozen expectations; a claim that exhausts the budget is
    inconclusive rather than failed.  Every solve gets the same budget, so
    its seconds cover the whole run and its node cap each solve."""
    deadline = budget.deadline if budget else None
    t0 = time.monotonic()
    results = []
    for claim in select_claims(only):
        started = time.monotonic()
        if deadline is not None and started >= deadline:
            results.append(
                ClaimResult(
                    claim.id, claim.statement, claim.expected, None,
                    "inconclusive", 0.0,
                )
            )
            continue
        try:
            computed = claim.compute(budget)
            status = (
                "pass"
                if _plain(computed) == _plain(claim.expected)
                else "fail"
            )
        except BudgetExceeded:
            computed = None
            status = "inconclusive"
        results.append(
            ClaimResult(
                claim.id,
                claim.statement,
                claim.expected,
                computed,
                status,
                time.monotonic() - started,
            )
        )
    return ReproReport(results, time.monotonic() - t0)
