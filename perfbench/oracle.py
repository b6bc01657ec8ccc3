"""Reference answers that do not use the package under test.

The benchmark checks every answer against values computed here or frozen
from here, never against the solver it measures:

- an LD-set predicate written from the definition, used to re-check every
  witness set, domatic class and certificate;
- the paper's closed forms for paths and cycles;
- brute-force gamma_l, d_loc and C_L over all subsets and all set
  partitions, used once to freeze the census histograms in
  ``census_reference.json``.

Run ``python3 perfbench/oracle.py`` from the repository root to recompute
that file (a few minutes; the order-10 trees dominate).  It also compares
the brute force against the package's own unpruned oracles
(``gamma_l_naive``, ``c_l_oracle``) on the graphs of order at most 7.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "census_reference.json"


# -- closed forms (the paper's values, written out independently) --------


def gamma_l_path_cycle(n: int) -> int:
    """gamma_l(P_n) = gamma_l(C_n) = ceil(2n/5) for n >= 3."""
    return -(-2 * n // 5)


def c_l_path(n: int) -> int:
    if n == 3:
        return 3
    if n <= 6:
        return 4
    if n <= 15:
        return 5
    return 6


def c_l_cycle(n: int) -> int:
    if n <= 5:
        return n
    if n <= 11 or n in (13, 15):
        return 5
    return 6


# -- predicate from the definition ---------------------------------------


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def is_ld(adj: list[int], s: int) -> bool:
    """Every vertex outside S has a non-empty trace, and traces differ."""
    traces = set()
    for v in range(len(adj)):
        if s >> v & 1:
            continue
        t = adj[v] & s
        if t == 0 or t in traces:
            return False
        traces.add(t)
    return True


def is_partition(n: int, masks) -> bool:
    union = 0
    for m in masks:
        if m == 0 or union & m:
            return False
        union |= m
    return union == (1 << n) - 1


def is_ldc_partition(adj: list[int], masks, partners) -> bool:
    """Parts cover V disjointly, none is LD, each unions with its partner
    into an LD-set."""
    if not is_partition(len(adj), masks) or len(partners) != len(masks):
        return False
    for i, m in enumerate(masks):
        j = partners[i]
        if j == i or not 0 <= j < len(masks):
            return False
        if is_ld(adj, m) or not is_ld(adj, m | masks[j]):
            return False
    return True


# -- brute force over all subsets and set partitions -----------------------


def brute_force(adj: list[int]) -> tuple[int, int, object]:
    """(gamma_l, d_loc, C_L) by exhaustion; C_L is "none" when no
    LDC-partition exists."""
    n = len(adj)
    ld = [is_ld(adj, s) for s in range(1 << n)]
    gamma = min(bin(s).count("1") for s in range(1 << n) if ld[s])
    best_dloc = 1
    best_cl = 0
    blocks: list[int] = []

    def visit():
        nonlocal best_dloc, best_cl
        k = len(blocks)
        if k > best_dloc and all(ld[b] for b in blocks):
            best_dloc = k
        if k > best_cl and not any(ld[b] for b in blocks):
            if all(
                any(j != i and ld[b | c] for j, c in enumerate(blocks))
                for i, b in enumerate(blocks)
            ):
                best_cl = k

    def grow(v: int):
        if v == n:
            visit()
            return
        bit = 1 << v
        for i in range(len(blocks)):
            blocks[i] |= bit
            grow(v + 1)
            blocks[i] &= ~bit
        blocks.append(bit)
        grow(v + 1)
        blocks.pop()

    grow(0)
    return gamma, best_dloc, best_cl if best_cl else "none"


def histogram(triples) -> list[list]:
    """Sorted [gamma_l, d_loc, C_L, count] rows; "none" sorts first."""
    counts = Counter(triples)
    key = lambda t: (t[0], t[1], -1 if t[2] == "none" else t[2])
    return [[*t, counts[t]] for t in sorted(counts, key=key)]


# Census sets: (graph order, tree order).  "full" is the census-small
# workload, "tiny" the self-test's.
CENSUS_ORDERS = {"full": (7, 10), "tiny": (5, 5)}
# Connected graphs and trees per order (OEIS A001349, A000055).
CONNECTED_GRAPHS = {5: 21, 7: 853}
TREES = {5: 3, 10: 106}


def _compute_reference() -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    from locdom.census import enumerate_graphs, enumerate_trees
    from locdom.ld import gamma_l_naive
    from locdom.solver import c_l_oracle

    out = {}
    for size, (graph_order, tree_order) in CENSUS_ORDERS.items():
        graphs = enumerate_graphs(graph_order)
        trees = enumerate_trees(tree_order)
        if (len(graphs), len(trees)) != (CONNECTED_GRAPHS[graph_order], TREES[tree_order]):
            raise SystemExit(f"{size} census enumerates the wrong class counts")
        triples = []
        for idx, g in enumerate(graphs + trees):
            triple = brute_force(list(g.adj))
            if g.n <= 7:
                expect = (gamma_l_naive(g)[0], triple[1], c_l_oracle(g))
                if expect != triple:
                    raise SystemExit(f"oracles disagree on {size} graph {idx}: {triple} vs {expect}")
            triples.append(triple)
        out[size] = {
            "graph_order": graph_order,
            "tree_order": tree_order,
            "graphs": CONNECTED_GRAPHS[graph_order],
            "trees": TREES[tree_order],
            "histogram": histogram(triples),
        }
    return out


if __name__ == "__main__":
    ref = _compute_reference()
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")
