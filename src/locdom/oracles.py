"""Naive all-partitions oracles the C_L solver is tested against.

solver re-exports c_l_oracle and judges its own answers with
_valid_coalition_partition.
"""

from __future__ import annotations

from typing import Iterator, Union

from .graph import Graph, popcount
from .ld import is_ld_mask


def _set_partitions(n: int) -> Iterator[list[int]]:
    """All set partitions of range(n) as restricted growth strings."""

    def rec(i: int, rgs: list[int], blocks: int):
        if i == n:
            yield rgs[:]
            return
        for b in range(blocks + 1):
            rgs.append(b)
            yield from rec(i + 1, rgs, max(blocks, b + 1))
            rgs.pop()

    yield from rec(0, [], 0)


def _rgs_masks(rgs: list[int]) -> list[int]:
    k = max(rgs) + 1
    masks = [0] * k
    for v, b in enumerate(rgs):
        masks[b] |= 1 << v
    return masks


def _valid_coalition_partition(
    g: Graph, masks: list[int], good, singletons_alone: bool
) -> bool:
    for idx, m in enumerate(masks):
        if good(g, m):
            if singletons_alone and popcount(m) == 1:
                continue
            return False
        if not any(
            j != idx and not good(g, other) and good(g, m | other)
            for j, other in enumerate(masks)
        ):
            return False
    return True


def c_l_oracle(g: Graph, good=None) -> Union[int, str]:
    """Unpruned all-partitions maximum; reference oracle for small n.

    With no predicate this is C_L by its definition: every part is non-LD
    and has a partner, so K_1 and K_2 get "none".  Given a predicate, it
    is the coalition number of that predicate in the plain sense, where a
    singleton satisfying the predicate may also stand alone as a part;
    good=is_dominating gives the plain coalition number.
    """
    if g.n == 0:
        raise ValueError("the coalition number of the empty graph is undefined")
    singletons_alone = good is not None
    if good is None:
        good = is_ld_mask
    best = 0
    for rgs in _set_partitions(g.n):
        masks = _rgs_masks(rgs)
        if len(masks) > best and _valid_coalition_partition(
            g, masks, good, singletons_alone
        ):
            best = len(masks)
    return best if best else "none"
