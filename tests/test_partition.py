"""Refinement matching of comparable partitions, audited brute-force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critedge.errors import SizePreconditionFailed
from critedge.flow import match_partitions, verify_matching


def interval_partition(n, m, rng, offset=0):
    """m consecutive integer blocks covering offset..offset+n-1."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=m - 1, replace=False)) if m > 1 else np.array([], dtype=int)
    edges = np.concatenate([[0], cuts, [n]])
    return [list(range(offset + int(a), offset + int(b))) for a, b in zip(edges[:-1], edges[1:])]


def shuffled_partition(n, m, rng):
    """m blocks of arbitrary (non-contiguous) index content."""
    perm = rng.permutation(n)
    sizes = np.diff(np.concatenate([[0], np.sort(rng.choice(np.arange(1, n), size=m - 1, replace=False)) if m > 1 else np.array([], dtype=int), [n]]))
    out, pos = [], 0
    for s in sizes:
        out.append(sorted(int(i) for i in perm[pos : pos + int(s)]))
        pos += int(s)
    return out


def test_identity_partitions():
    s = [list(range(100))]
    matching = match_partitions(s, s, c=0.2)
    assert verify_matching(matching, s, s, 0.2) == []
    assert matching.ratio_min == matching.ratio_max == 1.0


def test_small_handcrafted_non_strict():
    s1 = [list(range(0, 12)), list(range(12, 20))]
    s2 = [list(range(0, 9)), list(range(9, 20))]
    matching = match_partitions(s1, s2, c=0.5)
    assert verify_matching(matching, s1, s2, 0.5) == []


def test_non_strict_still_fails_when_all_blocks_small():
    # every side-1 block at or below the 4/c cutoff: nothing can absorb
    s1 = [[0, 1, 2], [3, 4, 5]]
    s2 = [[0, 1, 2, 3], [4, 5]]
    with pytest.raises(SizePreconditionFailed, match="cutoff"):
        match_partitions(s1, s2, c=0.5)


def test_refinement_length_bound():
    rng = np.random.default_rng(7)
    s1 = interval_partition(1500, 5, rng)
    s2 = interval_partition(1500, 6, rng)
    matching = match_partitions(s1, s2, c=0.2)
    assert len(matching.refined_s1) <= len(s1) + len(s2)
    assert verify_matching(matching, s1, s2, 0.2) == []


def test_asymmetric_sizes_swap_path():
    rng = np.random.default_rng(11)
    s1 = interval_partition(1500, 4, rng)
    s2 = interval_partition(2400, 5, rng)  # N1 < N2 exercises the swap
    matching = match_partitions(s1, s2, c=0.2)
    problems = verify_matching(matching, s1, s2, 0.2)
    assert problems == []


def test_non_contiguous_blocks():
    rng = np.random.default_rng(3)
    s1 = shuffled_partition(1500, 6, rng)
    s2 = shuffled_partition(1500, 6, rng)
    matching = match_partitions(s1, s2, c=0.2)
    assert verify_matching(matching, s1, s2, 0.2) == []


@settings(max_examples=40)
@given(
    seed=st.integers(0, 10**6),
    m1=st.integers(1, 6),
    m2=st.integers(1, 6),
    stretch=st.floats(1.0, 4.0),
)
def test_random_instances_pass_audit(seed, m1, m2, stretch):
    c = 0.2
    rng = np.random.default_rng(seed)
    n1 = int(np.ceil(8 * m1 * m2 / c)) + rng.integers(0, 200)
    n2 = int(n1 * stretch)  # stretch <= 4 < 1/c keeps the ratio admissible
    s1 = shuffled_partition(n1, m1, rng)
    s2 = shuffled_partition(n2, m2, rng)
    matching = match_partitions(s1, s2, c=c)
    assert verify_matching(matching, s1, s2, c) == []
    assert c / 4 - 1e-12 <= matching.ratio_min <= matching.ratio_max <= 4 / c + 1e-12


def test_overlapping_blocks_rejected():
    with pytest.raises(ValueError, match="overlap"):
        match_partitions([[0, 1], [1, 2]], [[0, 1, 2]], c=0.5)


def test_empty_block_rejected():
    with pytest.raises(ValueError, match="empty"):
        match_partitions([[0, 1], []], [[0, 1]], c=0.5)
