"""Cycles and paths: closed-form C_L values, the six-part type tables
with their elimination labels, exhaustive verification of the two C_15
completer lemmas against the five LD 6-sets of C_15, and the small-graph
and tree characterizations."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .census import enumerate_graphs, enumerate_trees
from .coalition import partner_cap
from .families import cycle, path, spider
from .graph import Graph, bits_of, closed_mask, mask_of, popcount, reachable_mask
from .ld import gamma_l_value, is_ld_mask, singleton_completers
from .solver import (
    BudgetExceeded,
    c_l_at_least,
    c_l_numeric,
    c_l_value,
    partitions_of_int,
    type_labels,
)

CYCLE_TABLE_ORDERS = (7, 8, 9, 10, 11, 13, 15)
PATH_TABLE_ORDERS = (12, 14)

# the LD 6-sets of C_15: the rotations of one shape, five masks since the
# shape has period 5
C15_LD_SIXES = frozenset(
    mask_of((v + r) % 15 for v in (0, 3, 5, 8, 10, 13)) for r in range(15)
)


# -- closed forms --------------------------------------------------------


def c_l_cycle_formula(n: int) -> int:
    """Closed-form C_L(C_n)."""
    if n < 3:
        raise ValueError("cycle order must be at least 3")
    if n in (3, 4, 5):
        return n
    if 6 <= n <= 11 or n in (13, 15):
        return 5
    return 6


def c_l_path_formula(n: int) -> int:
    """Closed-form C_L(P_n)."""
    if n < 3:
        raise ValueError("path order must be at least 3")
    if n == 3:
        return 3
    if 4 <= n <= 6:
        return 4
    if 7 <= n <= 15:
        return 5
    return 6


# -- the C_15 completer lemmas -------------------------------------------


def verify_lemma_ld5_1() -> dict:
    """Every 5-subset of C_15 has at most one vertex whose addition makes
    an LD-set, and each completed 6-set is a rotation of the unique LD
    shape.  Exhaustive over all 3003 subsets."""
    g = cycle(15)
    scanned = 0
    with_completer = 0
    violations = []
    for combo in combinations(range(15), 5):
        scanned += 1
        m = mask_of(combo)
        if is_ld_mask(g, m):
            violations.append(("five_set_already_ld", combo))
            continue
        cs = list(bits_of(singleton_completers(g, m)))
        if len(cs) > 1:
            violations.append(("more_than_one_completer", combo, cs))
        elif len(cs) == 1:
            with_completer += 1
            full = m | (1 << cs[0])
            if full not in C15_LD_SIXES:
                violations.append(("completion_not_unique_shape", combo, cs))
    return {
        "subsets_scanned": scanned,
        "with_completer": with_completer,
        "violations": violations,
        "ok": not violations,
    }


def verify_lemma_ld5_2() -> dict:
    """Classify all 5005 six-subsets of C_15 by completer count.

    Exhaustively checked structure: a non-LD six-subset whose closed
    neighborhood induces a disconnected subgraph, or that leaves four
    or more vertices undominated, has no completing vertex; a
    non-dominating one has at most three completers, and exactly three
    forces exactly one undominated vertex and a connected closed
    neighborhood.  Dominating non-LD six-subsets fall outside that
    three-completer structure: they run up to the general cap of twice
    the maximum degree, which is four on a cycle, and the report lists
    the sets attaining it separately."""
    g = cycle(15)
    full_mask = g.full_mask()
    cap = partner_cap(g)
    scanned = 0
    ld_sets = 0
    histogram: dict[int, int] = {}
    four_completer_sets = []
    structure_violations = []
    for combo in combinations(range(15), 6):
        scanned += 1
        m = mask_of(combo)
        ld = is_ld_mask(g, m)
        if ld != (m in C15_LD_SIXES):
            structure_violations.append(("ld_iff_unique_shape", combo, ld))
        if ld:
            ld_sets += 1
            continue
        cs = list(bits_of(singleton_completers(g, m)))
        k = len(cs)
        histogram[k] = histogram.get(k, 0) + 1
        closed = closed_mask(g, m)
        undominated = popcount(full_mask & ~closed)
        connected = reachable_mask(g, combo[0], closed) == closed
        if k > cap:
            structure_violations.append(("over_partner_cap", combo, cs))
        if k > 0 and not connected:
            structure_violations.append(("disconnected_with_completers", combo, cs))
        if k > 0 and undominated >= 4:
            structure_violations.append(("undominated_four_with_completers", combo, cs))
        if k > 3 and undominated >= 1:
            structure_violations.append(("nondominating_over_three", combo, cs))
        if k == 3 and not (undominated == 1 and connected):
            structure_violations.append(("three_completer_structure", combo, undominated, connected))
        if k == 4:
            four_completer_sets.append((combo, tuple(cs), undominated))
    return {
        "subsets_scanned": scanned,
        "ld_sets": ld_sets,
        "completer_histogram": dict(sorted(histogram.items())),
        "max_completers": max(histogram) if histogram else 0,
        "four_completer_sets": four_completer_sets,
        "three_completer_bound_exceptions": len(four_completer_sets),
        "structure_violations": structure_violations,
        "structure_ok": not structure_violations,
    }


# -- type tables and their refutation ------------------------------------


@dataclass(frozen=True)
class TypeVector:
    """A non-increasing part-size type with its elimination labels."""

    sizes: tuple[int, ...]
    labels: frozenset


def _table_graph(n: int, family: str) -> Graph:
    if family == "cycle":
        if n not in CYCLE_TABLE_ORDERS:
            raise ValueError(f"cycle table covers orders {CYCLE_TABLE_ORDERS}")
        return cycle(n)
    if family == "path":
        if n not in PATH_TABLE_ORDERS:
            raise ValueError(f"path table covers orders {PATH_TABLE_ORDERS}")
        return path(n)
    raise ValueError("family must be 'cycle' or 'path'")


def type_table(n: int, family: str) -> list[TypeVector]:
    """All six-part size types for the family member of order n, labeled
    by the two elimination criteria; unlabeled rows survive to search."""
    g = _table_graph(n, family)
    gamma = gamma_l_value(g)
    cap = partner_cap(g)
    return [
        TypeVector(t, type_labels(t, gamma, cap))
        for t in partitions_of_int(n, 6)
    ]


def surviving_types(n: int, family: str) -> list[tuple[int, ...]]:
    return [tv.sizes for tv in type_table(n, family) if not tv.labels]


def refute_surviving_types(
    n: int,
    family: str,
    budget=None,
) -> dict:
    """Exhaustively confirm that no surviving type of the k = 6 table is
    realizable, so this family member has C_L < 6.

    One c_l_at_least(g, 6) search covers the table: on paths and cycles
    gamma_l = ceil(2n/5), so 2n/gamma_l <= 5 and, by the merge lemma in
    c_l_at_least, that decision searches the level k = 6 alone.  It
    screens the same types with the same labels and searches exactly the
    survivors, and its "none" proves C_L < 6."""
    g = _table_graph(n, family)
    table = type_table(n, family)
    survivors = [tv.sizes for tv in table if not tv.labels]
    rep = c_l_at_least(g, 6, budget=budget)
    if rep.status == "inconclusive":
        raise BudgetExceeded("the k = 6 search ran out of budget", rep.nodes_explored)
    return {
        "n": n,
        "family": family,
        "k": 6,
        "types_total": len(table),
        "label_killed": len(table) - len(survivors),
        "survivors": survivors,
        "all_refuted": rep.status == "none",
        "nodes_explored": rep.nodes_explored,
    }


# -- small-graph and tree characterizations ------------------------------


def census_c_l_equals_n(budget=None) -> list[Graph]:
    """Connected graphs of order 3..5 with C_L = n; every solve gets the
    budget, and one that exhausts it raises BudgetExceeded."""
    out = []
    for n in (3, 4, 5):
        for g in enumerate_graphs(n, connected_only=True):
            if c_l_value(g, budget) == n:
                out.append(g)
    return out


def census_trees_c_l_n_minus_1(budget=None) -> list[Graph]:
    """Trees of order 3..8 with C_L = n - 1, with the side facts of the
    order-8 analysis checked along the way; the budget applies as in
    census_c_l_equals_n."""
    out = []
    for n in range(3, 9):
        for t in enumerate_trees(n):
            if c_l_value(t, budget) == n - 1:
                out.append(t)
    if gamma_l_value(path(8)) != 4:
        raise AssertionError("expected gamma_l(P_8) = 4")
    legs = list(partitions_of_int(7, 3))
    high = [l for l in legs if gamma_l_value(spider(*l)) == 4]
    low = [l for l in legs if gamma_l_value(spider(*l)) == 3]
    if len(high) != 3 or len(low) != 1:
        raise AssertionError("expected three order-8 spiders with gamma_l 4")
    if c_l_numeric(c_l_value(spider(*low[0]), budget)) >= 7:
        raise AssertionError("expected the fourth order-8 spider to have C_L < 7")
    return out
