"""Refinement matching of two set partitions with comparable block sizes.

Given partitions S1 of I1 and S2 of I2 (index sets of sizes N1, N2 with
c <= N1/N2 <= 1/c), produces refinements of equal length at most m1 + m2 and
a size-comparable bijection: every matched pair has size ratio in
[c/4, 4/c].  The construction is combinatorial and deterministic:

1. sort blocks of each side ascending by (size, lowest index);
2. absorb the "small" blocks of the larger side (size <= 4/c) into exact
   sized carve-outs of the other side's largest block;
3. realize the remaining blocks as consecutive integer intervals, transport
   the interval boundaries through the almost-linear map g(x) = ceil(x*N2/N1)
   and its stretching inverse, and cut both sides along the merged boundary
   set.

The size preconditions c <= N1/N2 <= 1/c and N1, N2 >= 8 m1 m2 / c
guarantee the ratio bounds.  They are not checked up front: the
construction runs on any input, which also serves small instances outside
the preconditions, and raises SizePreconditionFailed when a step becomes
infeasible or the achieved ratios escape [c/4, 4/c].  The tests audit
whole matchings brute-force; the library does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import SizePreconditionFailed

__all__ = ["PartitionMatching", "match_partitions"]


@dataclass(frozen=True)
class PartitionMatching:
    """Matched refinements; pair k is refined_s1[k] <-> refined_s2[k]."""

    refined_s1: tuple[tuple[int, ...], ...]
    refined_s2: tuple[tuple[int, ...], ...]
    ratio_min: float
    ratio_max: float


def _normalize(partition) -> list[tuple[int, ...]]:
    blocks = [tuple(sorted(int(i) for i in block)) for block in partition]
    if any(len(b) == 0 for b in blocks):
        raise ValueError("empty blocks are not allowed")
    flat = [i for b in blocks for i in b]
    if len(flat) != len(set(flat)):
        raise ValueError("blocks overlap")
    return blocks


def match_partitions(s1, s2, c: float) -> PartitionMatching:
    """Match partitions s1 and s2 with size-comparability constant c.

    Parameters
    ----------
    s1, s2 : iterables of index blocks (iterables of ints); blocks must be
        disjoint within each side.
    c : comparability constant in (0, 1]; matched pairs satisfy
        c/4 <= |f(J)|/|J| <= 4/c.

    Raises
    ------
    SizePreconditionFailed
        naming the construction step that became infeasible, or the
        achieved ratios when they escape [c/4, 4/c].
    """
    if not (0 < c):
        raise ValueError("c must be positive")
    blocks1 = _normalize(s1)
    blocks2 = _normalize(s2)
    n1 = sum(len(b) for b in blocks1)
    n2 = sum(len(b) for b in blocks2)
    if n1 >= n2:
        matching = _match_ordered(blocks1, blocks2, c)
    else:
        swapped = _match_ordered(blocks2, blocks1, c)
        matching = PartitionMatching(
            refined_s1=swapped.refined_s2,
            refined_s2=swapped.refined_s1,
            ratio_min=1.0 / swapped.ratio_max,
            ratio_max=1.0 / swapped.ratio_min,
        )
    if not (c / 4.0 - 1e-12 <= matching.ratio_min and matching.ratio_max <= 4.0 / c + 1e-12):
        raise SizePreconditionFailed(
            f"achieved ratios [{matching.ratio_min:.4g}, {matching.ratio_max:.4g}] "
            f"escape [c/4, 4/c] = [{c / 4:.4g}, {4 / c:.4g}]"
        )
    return matching


def _sorted_blocks(blocks):
    return sorted(blocks, key=lambda b: (len(b), b[0]))


def _match_ordered(blocks1, blocks2, c):
    """Core construction assuming N1 >= N2 (side 1 is the larger)."""
    blocks1 = _sorted_blocks(blocks1)
    blocks2 = _sorted_blocks(blocks2)
    m1 = len(blocks1)
    cutoff = 4.0 / c

    # small blocks of side 1 to be absorbed by side 2's largest block
    k = 0
    while k < m1 and len(blocks1[k]) <= cutoff:
        k += 1
    if k == m1:
        raise SizePreconditionFailed(
            "all side-1 blocks fall below the 4/c cutoff; nothing left to stretch"
        )
    small1 = blocks1[:k]
    small_total = sum(len(b) for b in small1)
    host = blocks2[-1]
    if small_total >= len(host):
        raise SizePreconditionFailed(
            f"largest side-2 block (size {len(host)}) cannot absorb the "
            f"{small_total} small side-1 indices"
        )
    # carve exact-size chunks off the tail of the host block, remainder first
    carved = []
    pos = len(host) - small_total
    remainder = host[:pos]
    for b in small1:
        carved.append(host[pos : pos + len(b)])
        pos += len(b)

    rest1 = blocks1[k:]
    rest2 = blocks2[:-1] + [remainder]  # remainder stays in the last slot
    hat_n1 = sum(len(b) for b in rest1)
    hat_n2 = sum(len(b) for b in rest2)

    # interval realizations: cumulative boundaries of the packed blocks
    xs = []
    acc = 0
    for b in rest1:
        acc += len(b)
        xs.append(acc)
    ys = []
    acc = 0
    for b in rest2:
        acc += len(b)
        ys.append(acc)

    def g(x: int) -> int:
        return math.ceil(x * hat_n2 / hat_n1)

    def g_stretch(y: int) -> int:
        lo = (y - 1) * hat_n1 / hat_n2
        hi = y * hat_n1 / hat_n2
        for x in xs:
            if lo < x <= hi:
                return x
        return math.floor(hi)

    boundary = sorted(set(g(x) for x in xs) | set(ys))
    stretched = [g_stretch(y) for y in boundary]
    if len(set(stretched)) != len(stretched):
        raise SizePreconditionFailed(
            "stretching map is not injective on the boundary set; side-1 "
            "blocks are too small relative to N1/N2"
        )

    flat1 = [i for b in rest1 for i in b]
    flat2 = [i for b in rest2 for i in b]
    refined1, refined2 = [], []
    prev_x = 0
    prev_y = 0
    for y, x in zip(boundary, stretched):
        refined1.append(tuple(flat1[prev_x:x]))
        refined2.append(tuple(flat2[prev_y:y]))
        prev_x, prev_y = x, y

    out1 = list(small1) + refined1
    out2 = carved + refined2
    if any(len(b) == 0 for b in out1) or any(len(b) == 0 for b in out2):
        raise SizePreconditionFailed("construction produced an empty refined block")
    ratios = [len(b2) / len(b1) for b1, b2 in zip(out1, out2)]
    return PartitionMatching(
        refined_s1=tuple(out1),
        refined_s2=tuple(out2),
        ratio_min=min(ratios),
        ratio_max=max(ratios),
    )
