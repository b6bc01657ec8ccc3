"""Exact C_L solver: type-first search with label pruning.

- Levels.  _solve, the one routine behind c_l_exact and c_l_at_least,
  finds gamma_l and tries part counts k downward: c_l_exact from
  min(n, n - gamma_l + 2), c_l_at_least over the levels its merge lemma
  leaves.  plain_coalition_number runs the same search under the
  domination predicate.
- Type screen.  The part-size multisets (types) of each k are generated
  only if they pass label {1} (partitions_of_int), and type_labels
  screens label {1, 2}; both are proved in type_labels.
- Slot search.  _Search, an ld.Meter, fills a surviving type's slots in
  order with incremental partner checks under the predicate and breaker
  kernel it is given; its docstring proves the twin rule.
- Capacity rule.  Parts partner at most C_max(size) singletons each,
  proved in the _Search docstring; _Search.capacity proves the walk that
  counts C_max and records the completer tables the search reads.
- Hub rule.  A part 0 that r parts must partner meets every hit set of
  fewer than r vertices (ld.small_hit_sets), proved in the _Search
  docstring.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Optional, Union

from .coalition import LdcCertificate, certify_masks, partner_cap
from .graph import (
    Graph,
    bits_of,
    lower_twins,
    mask_of,
    popcount,
)
from .ld import (
    BudgetExceeded,
    Meter,
    colex_walk,
    completers,
    dominating_breakers,
    gamma_l_value,
    is_dominating,
    is_ld_mask,
    ld_breakers,
    small_hit_sets,
)
from .oracles import _valid_coalition_partition, c_l_oracle  # c_l_oracle is re-exported

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Budget:
    """Caps on a search; None means unlimited.  The seconds run from when
    the budget is made, so every search given it shares one deadline,
    while each search counts its own nodes against the node cap.  Seconds
    must be finite and positive and nodes positive: a NaN deadline never
    passes, and a cap below one stops every search at its first node."""

    seconds: Optional[float] = None
    nodes: Optional[int] = None
    deadline: Optional[float] = field(init=False, compare=False)

    def __post_init__(self):
        if self.seconds is not None and not (math.isfinite(self.seconds) and self.seconds > 0):
            raise ValueError(f"budget seconds must be positive and finite, not {self.seconds!r}")
        if self.nodes is not None and self.nodes <= 0:
            raise ValueError(f"budget nodes must be positive, not {self.nodes!r}")
        deadline = None if self.seconds is None else time.monotonic() + self.seconds
        object.__setattr__(self, "deadline", deadline)


@dataclass
class SolveReport:
    """Solver answer with certificate, bound trace, and search statistics."""

    c_l: Union[int, str, None]
    certificate: Optional[LdcCertificate]
    bounds_used: list = field(default_factory=list)
    nodes_explored: int = 0
    elapsed: float = 0.0
    status: str = "exact"

    def to_json_dict(self) -> dict:
        parts = None
        partners = None
        if self.certificate is not None:
            parts = [p.to_sorted_list() for p in self.certificate.partition]
            partners = list(self.certificate.partners)
        return {
            "schema_version": SCHEMA_VERSION,
            "c_l": self.c_l,
            "parts": parts,
            "partners": partners,
            "bounds_used": [[name, value] for name, value in self.bounds_used],
            "nodes_explored": self.nodes_explored,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
            "status": self.status,
        }


def c_l_numeric(value: Union[int, str, None]) -> int:
    """Comparable form of a c_l value; "none" sorts below 1."""
    if value == "none":
        return 0
    if value is None:
        raise ValueError("inconclusive c_l has no numeric form")
    return int(value)


def partitions_of_int(n: int, k: int, pair_sum: int = 0) -> Iterator[tuple[int, ...]]:
    """Partitions of n into exactly k positive parts, each tuple
    descending, enumerated largest-first.

    With pair_sum, only those in which every part sums to at least
    pair_sum with some other part: the types that pass type_labels'
    label {1} for gamma = pair_sum, in the same order.  The smallest
    part's best partner is the largest, so after the largest part a the
    others are drawn from [max(1, pair_sum - a), a], and k = 1 has none.
    """
    if k <= 0 or k > n or (k == 1 and pair_sum > 0):
        return
    if k == 1:
        yield (n,)
        return

    def rec(remaining: int, slots: int, cap: int, floor: int):
        if slots == 1:
            if floor <= remaining <= cap:
                yield (remaining,)
            return
        lo = max(floor, -(-remaining // slots))  # ceil keeps parts descending
        for first in range(min(cap, remaining - (slots - 1) * floor), lo - 1, -1):
            for rest in rec(remaining - first, slots - 1, first, floor):
                yield (first,) + rest

    for largest in range(n - k + 1, -(-n // k) - 1, -1):
        for rest in rec(n - largest, k - 1, largest, max(1, pair_sum - largest)):
            yield (largest,) + rest


def type_labels(sizes: tuple[int, ...], gamma: int, max_partners: int) -> frozenset:
    """Why a part-size type admits no partition, decided from sizes alone.

    Two parts can only union to a feasible set when their sizes sum to at
    least gamma, so label {1} marks a type with some part size that has no
    possible partner at all.  Failing that, label {1, 2} marks a type with
    a part forced to partner more parts than any one part may carry
    (max_partners).  Empty set: the type survives to assignment search.

    With sizes descending, a single part has no partner, and with k >= 2
    parts the smallest part's best partner is the largest; so label {1}
    holds exactly when k = 1 or the largest and smallest sizes sum to
    less than gamma.  Failing that, part 0 may partner every other part,
    so only part 0 can be forced to carry more than one part: part j >= 1
    is forced onto it exactly when its best other partner, part 1 for
    j >= 2 and part 2 for j = 1, is too small.  With k = 2, parts 0 and
    1 are each forced onto the other.
    """
    k = len(sizes)
    if k == 1 or sizes[0] + sizes[-1] < gamma:
        return frozenset({1})
    return frozenset({1, 2}) if _forced(sizes, gamma) > max_partners else frozenset()


def _forced(sizes: tuple[int, ...], gamma: int) -> int:
    """How many parts type_labels finds forced onto part 0."""
    if len(sizes) < 3:
        return len(sizes) - 1
    return (sizes[1] + sizes[2] < gamma) + sum(sizes[1] + a < gamma for a in sizes[2:])


# -- assignment search ---------------------------------------------------


class _Completers(dict):
    """Completer masks of rejected parts, keyed by part.  A missing part
    is filled in by fill, ld.completers under the search's predicate, or
    without one has none."""

    def __init__(self, fill=None):
        super().__init__()
        self.fill = fill

    def __missing__(self, p: int) -> int:
        if self.fill is None:
            return 0
        c = self[p] = self.fill(p)
        return c


class _Search(Meter):
    """One solve: a slot-sequential assignment search over the part-size
    types that survive type_labels, with the caches all its types share.

    good is the predicate parts are judged by (is_ld_mask or
    is_dominating), breakers its breaker kernel (ld_breakers or
    dominating_breakers), and gamma the size of the least good set: every
    part needs a partner.  gamma = 1 only on K_1 and K_2, where every
    singleton is good alone and no part is placed.
    verdict(mask) is good(g, mask) memoized: a search asks about a few
    thousand masks a million times.  capacities holds C_max by part
    size, and tables[t], for each t whose C_max walk ran to the end, the
    completer mask (every w outside the part p with good(p | {w})) of
    each rejected t-set, read off that walk.  Other sizes judge each
    part's completers by ld.completers under good, memoized.  All fill
    lazily, as Graph allows n up to 128.  nodes counts search nodes and
    walk nodes alike, and the budget's node cap bounds that one count.

    Slots are filled in size-descending order with lexicographic
    combinations from the remaining pool; equal-size slots keep their
    least elements increasing, so a slot's floor is the least element of
    the slot before it when that one has the same size.  After each
    placement: the part must not already be good alone; every placed
    part must have an exact partner or an optimistic one through the
    untouched pool; and the capacity rule must hold.

    Capacity rule.  With gamma >= 3, a singleton part {w} needs a partner X
    with |X| >= gamma - 1 and w in completers(X).  A placed X puts w in
    pool & reach, reach being the completer_reach of the placed parts; an
    X still to come partners at most C_max(|X|) singletons.  So with s
    singletons left after slot i, the search goes on only while
    popcount(pool & reach) + fut[i + 1] >= s, fut[j] summing C_max over
    the slots from j on of size >= gamma - 1; fut[0] < s refutes the type
    before slot 0.  This holds for any predicate.  With gamma = 2,
    singletons may partner each other: fut is infinite.  Every slot
    the rule reads was walked for fut, so reach comes from the tables,
    except for a size whose walk stopped early.  A slot is short when
    popcount(pool & reach) is already below its need, s - fut[i + 1]: a
    part with no completers then fails the rule, so the slot tries only
    the parts its size's table lists, in the order combinations() gives
    them, and the others cost no node.  Only a size whose walk stopped
    early, whose table is the ld.completers memo, tries every
    combination.
    (The need before slot 0, s - fut[0], is at most 0; it rises only at
    a slot of size >= gamma - 1, and a placed part leaves the pool the
    need it passed, so only such a slot is ever short.  A smaller size's
    table is empty.)

    Twin rule.  A slot skips, before counting a node, every combination
    that holds v but not a lower twin u of v (see lower_twins) that the
    slot could also take: u in the pool and u above the slot's floor.
    The search returns the lexicographically least valid slot sequence
    of a type first, and that sequence obeys the rule at every slot.  If
    slot i broke it, the transposition (u v), an automorphism, would fix
    slots 0..i-1, since u and v are both still in the pool.  It would
    keep slot i legal, since u is above the floor, and make it
    lexicographically smaller.  It only raises later members (u to v),
    so every later same-size part's least element stays above slot i's,
    which did not rise.  So answers, certificates and the plain
    coalition number are unchanged; only the node count falls.

    Hub rule.  The r = _forced(sizes, gamma) parts that by size can
    partner only part 0 partner it in any partition of the type.  Let H
    be a hit set (ld.small_hit_sets): every good set meets it.  If part 0
    misses H, each of its r disjoint partners meets H, as its union with
    part 0 is good; so part 0 meets every H of fewer than r vertices.
    Slot 0 skips the parts that miss one before counting a node, and if
    a greedy packing finds more than sizes[0] disjoint such H, the type
    is refuted before any C_max walk.  Soundness needs only that each H
    is a hit set; one the builder missed would only weaken the prune.
    """

    def __init__(self, g: Graph, good, breakers, gamma: int, budget: Optional[Budget] = None):
        budget = budget or Budget()
        super().__init__(budget.deadline, budget.nodes)
        self.g = g
        self.gamma = gamma
        self.good = good
        self.verdict = functools.cache(lambda m: good(g, m))
        self.breakers = breakers
        self.capacities: dict[int, int] = {}
        self.tables: dict[int, _Completers] = {}
        self._listed: dict[int, tuple[list[int], list[int]]] = {}
        self._judged = _Completers(lambda p: completers(g, p, good))
        self._no_completers = _Completers()
        twins = lower_twins(g)
        # lower twins by vertex bit; twin-free: no check
        self.twins = {1 << v: t for v, t in enumerate(twins) if t} or None
        self.hit_sets = functools.cache(lambda: small_hit_sets(g, good, breakers, twins))

    def completer_table(self, size: int) -> _Completers:
        """Completer masks of the rejected parts of one size: the walk's
        table, none at all below gamma - 1, or else those judged by
        ld.completers."""
        if size + 1 < self.gamma:
            return self._no_completers
        return self.tables.get(size, self._judged)

    def parts_within(self, size: int, free: int) -> list[int]:
        """The parts completer_table(size) holds that lie inside free, in
        the order combinations() yields them: by their ascending vertex
        tuples.  The table is sorted once, and holders[v] marks the
        indices of the parts holding v, so the parts that meet the
        complement of free are found a vertex at a time."""
        if size not in self._listed:
            parts = sorted(self.completer_table(size), key=lambda m: tuple(bits_of(m)))
            holders = [0] * self.g.n
            for j, m in enumerate(parts):
                for v in bits_of(m):
                    holders[v] |= 1 << j
            self._listed[size] = (parts, holders)
        parts, holders = self._listed[size]
        clash = 0
        for v in bits_of(self.g.full_mask() & ~free):
            clash |= holders[v]
        return [parts[j] for j in bits_of(~clash & ((1 << len(parts)) - 1))]

    def completer_reach(self, cands) -> int:
        """Vertices that complete some rejected part in cands to a good set."""
        reach = 0
        for p in cands:
            reach |= self.completer_table(popcount(p))[p]
        return reach

    def capacity(self, t: int) -> int:
        """C_max(t), the most completers of any t-set good rejects.

        w completes a rejected t-set A exactly when A | {w} is a good
        (t+1)-set, so the first call for t walks the (t+1)-sets that may
        dominate (colex_walk, one node each) and, at each good one S,
        records v as a completer of every S - v that good rejects: the
        breakers of S, which one breaker-kernel call finds.  Every good
        set dominates, for is_ld_mask and is_dominating alike, so the
        walk misses none, and when it runs to the end its table, kept as
        tables[t], holds the completers of every rejected t-set (none if
        absent).

        No set has more than n - t completers, and a witness, a rejected
        A that every w outside completes, attains it: the walk stops at
        the first leaf that reveals one, and its table is dropped.  At a
        good leaf S, each breaker v below min(V - S) gives A = S - v,
        and A is a witness iff good(A | w) for every w outside S (A | v
        is S).  This finds every witness, and as early as any rule can:
        if A is one, every A | w is good, so A | min(V - A) is a good
        leaf, reached since good sets dominate, and there v = min(V - A)
        is a breaker below min(V - S).  Such a v makes S the colex-first
        superset of A.  So the walk stops iff a witness exists, at the
        colex-least A | min(V - A) of any witness, never later than at
        the last superset of one, where its count was first complete.
        C_max and every kept table are those of the full walk.  A low
        breaker is tested as a witness before it is recorded.
        """
        if t not in self.capacities:
            g, good, breakers = self.g, self.good, self.breakers
            full = g.full_mask()
            table = _Completers()
            admit = lambda chosen, limit: self._tick() or True

            def leaf(s: int) -> bool:
                rest = breakers(g, s)  # -1 if s is not good
                if rest <= 0:
                    return False
                out = full & ~s
                below = (out & -out) - 1  # the v below min(V - S), all if S = V
                while rest:
                    low = rest & -rest
                    a = s ^ low
                    if low & below:
                        ws = out
                        while ws and good(g, a | ws & -ws):
                            ws &= ws - 1
                        if not ws:
                            table[a] = full & ~a
                            return True
                    table[a] = table.get(a, 0) | low
                    rest ^= low
                return False

            if colex_walk(g, t + 1, admit, leaf) is None:
                self.tables[t] = table
            self.capacities[t] = max(map(popcount, table.values()), default=0)
        return self.capacities[t]

    def search_type(self, sizes: tuple[int, ...]) -> Optional[list[int]]:
        """Masks of a partition realizing the type, or None (exhausted)."""
        gamma = self.gamma
        verdict = self.verdict
        twins = self.twins
        tick = self._tick
        k = len(sizes)
        r = _forced(sizes, gamma)
        hubs = [h for h in self.hit_sets() if h.bit_count() < r] if r > 1 else []
        packed = spent = 0
        for h in hubs:
            if not h & spent:
                spent |= h
                packed += 1
        if packed > sizes[0]:
            return None
        singles_after = [0] * (k + 1)
        for i in range(k - 1, -1, -1):
            singles_after[i] = singles_after[i + 1] + (1 if sizes[i] == 1 else 0)
        # fut[i]: the most singletons the slots from i on can partner
        fut = [math.inf] * (k + 1)
        if gamma >= 3 and singles_after[0]:
            fut[k] = 0
            for i in range(k - 1, -1, -1):
                big = sizes[i] + 1 >= gamma
                fut[i] = fut[i + 1] + (self.capacity(sizes[i]) if big else 0)
            if fut[0] < singles_after[0]:
                return None
        every = (1 << k) - 1

        parts: list[int] = []  # placed masks

        # settled: bit j set once part j has an exact partner; reach:
        # completer_reach of the placed parts, None until the capacity
        # rule first can fail
        def place(i: int, pool: int, settled: int, reach: Optional[int]) -> Optional[list[int]]:
            if i == k:
                return parts[:] if settled == every else None
            size = sizes[i]
            tied = i > 0 and sizes[i - 1] == size  # floor: parts[-1]'s low bit
            above = (parts[-1] & -parts[-1]).bit_length() if tied else 0
            free = pool >> above << above  # what this slot may take
            avail = [1 << v for v in bits_of(free)]
            # the lower twins in free of each vertex of free that has one
            watch = twins and {b: u for b in avail if (u := twins.get(b, 0) & free)}
            bit = 1 << i
            # m | rest is the pool: the new part's optimistic partner
            pool_good = verdict(pool)
            # the capacity rule, with fut finite (so gamma >= 3), needs
            # this many completers in the pool after this slot
            need = singles_after[i + 1] - fut[i + 1]
            cands = None
            if need > 0:
                if reach is None:
                    reach = self.completer_reach(parts)
                table = self.completer_table(size)
                # short: only a part with completers can pass the capacity
                # test, and a table other than the judged one lists them all
                if (pool & reach).bit_count() < need and table is not self._judged:
                    cands = self.parts_within(size, free)
            if cands is None:
                cands = map(sum, combinations(avail, size))
            if hubs and not i:
                cands = (m for m in cands if all(h & m for h in hubs))
            for m in cands:
                if watch and any(u & ~m for b, u in watch.items() if b & m):
                    continue
                tick()
                if size >= gamma and verdict(m):
                    continue
                rest = pool ^ m
                now = settled
                for j, p in enumerate(parts):
                    both = 1 << j | bit
                    if now & both != both and verdict(p | m):
                        now |= both
                # every unsettled part needs an optimistic partner
                if not now & bit and not pool_good:
                    continue
                unsettled = ~now & (bit - 1)
                while unsettled:
                    low = unsettled & -unsettled
                    if not verdict(parts[low.bit_length() - 1] | rest):
                        break
                    unsettled ^= low
                if unsettled:
                    continue
                reach_i = None
                if need > 0:
                    reach_i = reach | table[m]
                    if (rest & reach_i).bit_count() < need:
                        continue
                parts.append(m)
                found = place(i + 1, rest, now, reach_i)
                if found is not None:
                    return found
                parts.pop()
            return None

        return place(0, self.g.full_mask(), 0, None)

    def run(
        self, counts: Iterable[int], max_partners: int
    ) -> tuple[str, Optional[tuple[int, ...]], Optional[list[int]]]:
        """Search, for each part count k in counts in turn, the k-part
        types that type_labels (with max_partners) does not refute; the
        first satisfiable type wins.  Only the types that pass label {1}
        are generated, so type_labels screens label {1, 2} alone.

        Returns (status, deciding type, masks or None), the status as a
        SolveReport gives it: "exact" with the satisfiable type and its
        masks, "inconclusive" with the type that ran out of budget before
        an answer, or "none", with no type, when every type is refuted.
        Either way self.nodes is the count the node cap bounds, so a cap
        equal to a conclusive count settles the same answer.
        """
        for k in counts:
            for sizes in partitions_of_int(self.g.n, k, self.gamma):
                if self.deadline is not None and time.monotonic() > self.deadline:
                    return ("inconclusive", sizes, None)
                if type_labels(sizes, self.gamma, max_partners):
                    continue
                try:
                    masks = self.search_type(sizes)
                except BudgetExceeded:
                    return ("inconclusive", sizes, None)
                if masks is not None:
                    return ("exact", sizes, masks)
        return ("none", None, None)


def _solve(g: Graph, budget: Optional[Budget], levels) -> SolveReport:
    """The C_L search over the part counts levels(gamma_l) gives, a
    descending range, with c_l_exact's report.  The budget's deadline
    covers the gamma_l search too; if it passes there, the report is
    "inconclusive" with no bounds and no nodes."""
    start = time.monotonic()
    try:
        gamma = gamma_l_value(g, budget and budget.deadline)
    except BudgetExceeded:
        return SolveReport(None, None, elapsed=time.monotonic() - start, status="inconclusive")
    counts = levels(gamma)
    bounds = [("gamma_l", gamma), ("upper_start", counts.start)]
    search = _Search(g, is_ld_mask, ld_breakers, gamma, budget)
    status, sizes, masks = search.run(counts, partner_cap(g))
    c_l, cert = ("none" if status == "none" else None), None
    if status == "exact":
        c_l = len(sizes)
        cert = certify_masks(g, masks, "the C_L search")
        bounds.append(("settled_at", c_l))
    elif status == "inconclusive":
        bounds.append(("refuted_down_to", len(sizes) + 1))
    return SolveReport(c_l, cert, bounds, search.nodes, time.monotonic() - start, status)


def c_l_exact(
    g: Graph,
    budget: Optional[Budget] = None,
    workers: int = 1,
) -> SolveReport:
    """Exact C_L with certificate; "none" when no LDC-partition exists.

    workers is kept only for existing callers and has no effect: the
    search is one serial pass.  The budget's deadline covers the gamma_l
    search too; if it passes there, the report is "inconclusive" with no
    bounds and no nodes.
    """
    return _solve(g, budget, lambda gamma: range(min(g.n, g.n - gamma + 2), 1, -1))


def c_l_value(g: Graph, budget: Optional[Budget] = None) -> Union[int, str]:
    """c_l_exact(g).c_l, raising BudgetExceeded where the budget runs out."""
    rep = c_l_exact(g, budget=budget)
    if rep.status == "inconclusive":
        raise BudgetExceeded("exact solve hit the budget", rep.nodes_explored)
    return rep.c_l


def c_l_at_least(
    g: Graph,
    k: int,
    budget: Optional[Budget] = None,
) -> SolveReport:
    """Decide whether C_L >= k.

    Status "exact" carries a certificate and c_l, its part count, which is
    at least k; "none" is exhaustive: C_L < k; "inconclusive" means the
    budget ran out first, in the gamma_l search or in the C_L search.
    Either way bounds_used is [("at_least", k)].

    Having a j-part partition is not monotone in j (P_3 and C_5 have none
    with 2 parts, yet C_L(P_3) = 3 and C_L(C_5) = 5), but it is above
    2n/gamma_l.  Merge lemma: let an LDC-partition have j > 2n/gamma_l
    parts, and A, B be its two smallest.  Then |A| + |B| <= 2n/j <
    gamma_l, so A | B is not an LD-set.  LD-sets are closed upward, so
    every part that partnered A or B partners A | B, and A's partner is
    not B; replacing A and B by A | B gives a (j - 1)-part partition.
    With t = floor(2n/gamma_l) + 1, repeating this takes a partition with
    j >= t - 1 parts through every count down to t - 1.  So C_L >= k holds
    exactly when some level from max(k, t - 1) down to k has a partition,
    and the search tries those levels in that order.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    # above n - gamma_l + 2 parts every type has a part with no possible
    # partner, so the screen alone refutes such a k
    rep = _solve(g, budget, lambda gamma: range(max(k, 2 * g.n // gamma), k - 1, -1))
    rep.bounds_used = [("at_least", k)]
    if rep.status != "exact":
        rep.c_l = None
    return rep


def _domination_number(g: Graph, deadline: Optional[float] = None) -> int:
    """Least size at which colex_walk reaches a leaf: every leaf it
    reaches dominates, and it prunes no dominating set.  Its nodes tick
    one Meter(deadline)."""
    tick = Meter(deadline)._tick
    admit = lambda chosen, limit: tick() or True
    yes = lambda *_: True
    for size in range(1, g.n + 1):
        if colex_walk(g, size, admit, yes) is not None:
            return size
    raise AssertionError("V itself always dominates")


def plain_coalition_number(
    g: Graph, budget: Optional[Budget] = None
) -> Union[int, str]:
    """Exact plain coalition number by the type-filtered search.

    Parts must be non-dominating with a partner (two non-dominating parts
    whose union dominates), except that a dominating set of size one may
    stand alone as its own part.  Running out of budget raises
    BudgetExceeded: the deadline covers the domination walk that finds
    gamma, and the node cap the search alone.

    Those singletons are the universal vertices U (N[v] = V), set aside
    before the search.  A part holding one dominates, so it is that vertex
    alone.  A non-empty S within V - U dominates g exactly when it
    dominates h = g - U, as U lies in N(S); and h has no universal vertex,
    which would be universal in g too.  So the answer is |U| plus the
    search on h, where every part needs a partner: g.n when h is empty,
    "none" when h has no partition.  h may be disconnected, like g.
    """
    if g.n == 0:
        raise ValueError("the coalition number of the empty graph is undefined")
    keep = [v for v in range(g.n) if g.adj[v] | 1 << v != g.full_mask()]
    if not keep:
        return g.n
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    h = Graph(len(keep), edges)
    gamma = _domination_number(h, budget and budget.deadline)
    kmax = h.n - gamma + 2  # at most h.n: no universal vertex, so gamma >= 2
    search = _Search(h, is_dominating, dominating_breakers, gamma, budget)
    status, sizes, masks = search.run(range(kmax, 1, -1), h.max_degree() + 1)
    if status == "inconclusive":
        raise BudgetExceeded(
            f"search at size {len(sizes) + g.n - h.n} ran out of budget", search.nodes
        )
    if status == "none":
        return "none"
    masks = [mask_of(keep[i] for i in bits_of(m)) for m in masks]
    masks += [1 << v for v in range(g.n) if v not in index]
    if not _valid_coalition_partition(g, masks, is_dominating, True):
        raise AssertionError("search returned an invalid coalition partition")
    return len(masks)
