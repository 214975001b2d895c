"""Refinement matching of comparable partitions, audited brute-force.

The library trusts match_partitions; the audit lives here, run on
synthetic partitions and on every matching a finite-support flow uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critedge.errors import MeshTooCoarse, SizePreconditionFailed
from critedge.flow import FlowConfig, construct, finite_support_flow, match_partitions
from critedge.flow.partition import _normalize
from critedge.synthesis import random_inverse_critical


def verify_matching(matching, s1, s2, c: float) -> list[str]:
    """Brute-force audit of a matching; returns a list of violation messages.

    Checks, independently of the construction: both outputs are partitions
    of the same index sets as the inputs, each refined block lies inside
    exactly one input block, the two refinements have equal length at most
    m1 + m2, and every matched pair has size ratio within [c/4, 4/c].
    """
    problems = []
    blocks1 = _normalize(s1)
    blocks2 = _normalize(s2)
    for name, inp, out in (("s1", blocks1, matching.refined_s1), ("s2", blocks2, matching.refined_s2)):
        in_flat = sorted(i for b in inp for i in b)
        out_flat = sorted(i for b in out for i in b)
        if in_flat != out_flat:
            problems.append(f"{name}: refined blocks do not partition the input set")
        for rb in out:
            owners = [ib for ib in inp if set(rb) <= set(ib)]
            if len(owners) != 1:
                problems.append(f"{name}: block {rb} not inside exactly one input block")
    if len(matching.refined_s1) != len(matching.refined_s2):
        problems.append("refinements have different lengths")
    if len(matching.refined_s1) > len(blocks1) + len(blocks2):
        problems.append(
            f"refinement length {len(matching.refined_s1)} exceeds m1+m2 = "
            f"{len(blocks1) + len(blocks2)}"
        )
    for b1, b2 in zip(matching.refined_s1, matching.refined_s2):
        r = len(b2) / len(b1)
        if not (c / 4.0 - 1e-12 <= r <= 4.0 / c + 1e-12):
            problems.append(f"pair ratio {r:.4g} outside [c/4, 4/c]")
    return problems


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


@pytest.mark.parametrize(
    "seed, n, fallback", [(3, 80, ()), (1, 400, ("oi-/i+",))], ids=["n80-synth3", "n400-synth1"]
)
def test_finite_support_matchings_pass_audit(monkeypatch, seed, n, fallback):
    # every matching the leg uses passes the audit and becomes its jobs; an
    # inner pairing without one (n400 synth 1) donates one unit per job
    # until its whole inner class is paired
    matched, failed = [], []

    def audited(s1, s2, c):
        try:
            matching = match_partitions(s1, s2, c)
        except SizePreconditionFailed:
            failed.append(sum(len(block) for block in s2))
            raise
        assert verify_matching(matching, s1, s2, c) == []
        matched.append(matching)
        return matching

    monkeypatch.setattr(construct, "match_partitions", audited)
    b = random_inverse_critical(seed, n=n)
    certs = finite_support_flow(b, 6.0, FlowConfig(grid_points=17)).meta["pair_certificates"]
    assert len(failed) == len(fallback)
    assert matched
    assert sum(len(m.refined_s1) for m in matched) == sum(
        c["pairing"] not in fallback for c in certs
    )
    for name, inner_units in zip(fallback, failed):
        sizes = [c["sizes"] for c in certs if c["pairing"] == name]
        assert all(m1 == 1 for m1, _ in sizes)
        assert sum(m2 for _, m2 in sizes) == inner_units


def test_outer_pairing_without_matching_exhausts_the_ladder():
    # the outer pairing has no unit-level fallback: every mesh width fails
    b = random_inverse_critical(6, n=40)
    with pytest.raises(MeshTooCoarse, match="pairing oo-/oo\\+: no matching") as info:
        finite_support_flow(b, 6.0, FlowConfig(grid_points=17))
    assert str(info.value).count("PairingInfeasible") == len(FlowConfig().ladder)
