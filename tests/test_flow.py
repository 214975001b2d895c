"""End-to-end flow construction: shrinks, pipelines, lifts, audits."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from critedge.criticality import chi as chi_of
from critedge.errors import (
    ChainExhausted,
    ConditionViolated,
    NotReal,
    ResidualExceeded,
)
from critedge.flow import (
    FlowConfig,
    FlowPath,
    construct,
    derive_b0,
    finite_support_flow,
    fix_spectrum_flow,
    half_plane_mass_constant,
    hermitian_flow,
    independent_count_target,
    lift_to_deformation,
    shrink_clusters,
    validate_assumption,
)
from critedge.flow.construct import DELTA_TV, _count_target_sites
from critedge.flow.continuation import assemble_path, continue_anchored
from critedge.flow.ift import CONTRACTION_SLACK
from critedge.flow.maps import cluster_traces, realify
from critedge.spectrum import DeformationSpectrum
from critedge.synthesis import (
    random_deformation_critical,
    random_inverse_critical,
    random_real_critical,
)


# ---------------------------------------------------------------- shrink

# the grid of a 257-point flow
GRID = np.linspace(0.0, 1.0, 257)


def cluster_pair(h):
    rng = np.random.default_rng(42)
    z1, z2 = 1.0 + 0.2j, -1.1 + 0.15j
    v1 = z1 + h * (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / 3
    v2 = z2 + h * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 3
    return v1, v2, z1, z2


def pair_traces_of(u1, u2, chi):
    """The two mass-normalised traces of two clusters, every entry counting once."""
    u = np.concatenate([u1, u2])
    return cluster_traces(u, np.ones(u.size), chi, float(u.size))


def test_shrink_conserves_both_traces_along_the_whole_flow():
    v1, v2, z1, z2 = cluster_pair(0.05)
    chi = 0.3
    flow1, flow2, cont = shrink_clusters(v1, v2, z1, z2, chi, GRID)
    assert flow1.shape == (GRID.size, 3) and flow2.shape == (GRID.size, 2)
    assert cont.shifts.shape == (GRID.size, 2)
    f1_0, f2_0 = pair_traces_of(v1, v2, chi)
    for k in range(GRID.size):
        f1, f2 = pair_traces_of(flow1[k], flow2[k], chi)
        assert abs(f1 - f1_0) < 1e-12
        assert abs(f2 - f2_0) < 1e-12
    # entries start where given and end together at the corrected centers
    assert np.allclose(flow1[0], v1) and np.allclose(flow2[0], v2)
    np.testing.assert_array_equal(flow1[-1], z1 + cont.shifts[-1, 0])
    np.testing.assert_array_equal(flow2[-1], z2 + cont.shifts[-1, 1])
    # the certificates tile [0, 1]
    assert cont.certificates[0]["t0"] == 0.0 and cont.certificates[-1]["t1"] == 1.0


def test_shrink_center_correction_is_second_order_in_the_radius():
    # zero-mean offsets: with z the exact cluster mean the first-order
    # term cancels and the corrective shift is quadratic in the spread
    z1, z2 = 1.0 + 0.2j, -1.1 + 0.15j
    off1 = np.array([0.9 + 0.3j, -0.5 + 0.6j, 0.3 - 0.8j]) / 3
    off2 = np.array([0.7 - 0.4j, -0.6 + 0.5j]) / 3
    off1 -= off1.mean()
    off2 -= off2.mean()
    sizes = []
    for h in (0.08, 0.04):
        flow1, flow2, _ = shrink_clusters(z1 + h * off1, z2 + h * off2, z1, z2, 0.3, GRID)
        sizes.append(max(abs(flow1[-1, 0] - z1), abs(flow2[-1, 0] - z2)))
    assert sizes[1] < sizes[0] / 3.5


def test_shrink_final_centers_match_independent_root_solve():
    v1, v2, z1, z2 = cluster_pair(0.05)
    chi = 0.3
    flow1, flow2, _ = shrink_clusters(v1, v2, z1, z2, chi, GRID)
    target = realify(*pair_traces_of(v1, v2, chi))

    def equations(w):
        f1, f2 = cluster_traces(
            np.array([complex(w[0], w[1]), complex(w[2], w[3])]), np.array([3.0, 2.0]), chi, 5.0
        )
        return realify(f1, f2) - target

    sol = scipy.optimize.root(equations, realify(z1, z2), tol=1e-13)
    assert sol.success
    assert abs(complex(sol.x[0], sol.x[1]) - flow1[-1, 0]) < 1e-9
    assert abs(complex(sol.x[2], sol.x[3]) - flow2[-1, 0]) < 1e-9


def test_shrink_rejects_empty_cluster_and_bad_grid():
    with pytest.raises(ConditionViolated):
        shrink_clusters([], [1.0], 0.5, -0.5, 0.2, GRID)
    with pytest.raises(ConditionViolated):
        shrink_clusters([1.0], [-1.0], 1.0, -1.0, 0.2, [0.0, 0.4, 0.3, 1.0])


def test_shrink_of_clusters_on_their_centers_copies_the_rows():
    # d = 0: the residual does not depend on t, so w = 0 is exact and no
    # continuation runs
    flow1, flow2, cont = shrink_clusters([0.5 + 0.25j] * 3, [-0.75j] * 2, 0.5 + 0.25j, -0.75j,
                                         0.2, GRID)
    assert cont.certificates == () and cont.fallback_steps == 0
    assert np.all(flow1 == 0.5 + 0.25j) and np.all(flow2 == -0.75j)
    assert flow1.shape == (GRID.size, 3) and flow2.shape == (GRID.size, 2)


def test_assemble_path_keeps_its_temporaries_small():
    # the grid rows are evaluated in blocks of RUN_ROWS: the whole 257 x 1600
    # block at once would peak over 40 MB beyond the states it returns
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(257, 1600)) + 1j * rng.normal(size=(257, 1600))
    tracemalloc.start()
    try:
        path = assemble_path(np.linspace(0.0, 1.0, 257), rows, np.ones(1600), 1600,
                             np.full(257, 0.3), "shrink", {})
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(path.states) == 257
    assert peak - kept < 6e6


def test_exhausted_certificate_chain_raises_chain_exhausted():
    # D_w F swings by 2e9 |w|, so no box around the path contracts and the
    # chain bisects until it runs out of depth
    def residual(t, w):
        return w + 1e9 * w**2 - t * np.array([1e-3, 0.0, 0.0, 0.0])

    def jacobian(t, w):
        return np.eye(4) + np.diag(2e9 * w)

    def d_t(t, w):
        return -np.array([1e-3, 0.0, 0.0, 0.0])

    with pytest.raises(ChainExhausted, match="certificate chain exhausted"):
        continue_anchored(residual, jacobian, d_t, np.linspace(0.0, 1.0, 5))


def test_both_legs_pass_d_t_matching_central_differences(monkeypatch):
    # every continuation the legs run is captured with its residual and
    # d_t, which must agree with a central difference of the residual in t;
    # at this draw the fix leg moves a side site both along a line and
    # along a polar arc
    runs = []

    def capture(residual, jacobian, d_t, grid):
        cont = continue_anchored(residual, jacobian, d_t, grid)
        runs.append((residual, d_t, cont))
        return cont

    monkeypatch.setattr(construct, "continue_anchored", capture)
    cfg = FlowConfig(grid_points=65)
    leg1 = finite_support_flow(random_inverse_critical(9, n=80), 6.0, cfg)
    shrinks = len(runs)
    fix_spectrum_flow(leg1.final, cfg)
    # a pair already on its centers (d = 0) runs no continuation
    on_centers = sum(cert["legs"] == 0 for cert in leg1.meta["pair_certificates"])
    assert shrinks + on_centers == leg1.meta["pairs"] and len(runs) == shrinks + 1
    # five-point stencil, exact for the shrink residual (a quartic in t), so
    # a long step keeps the rounding of its small d_t down; the fix leg's
    # polar arcs need a short one
    for i, (residual, d_t, cont) in enumerate(runs):
        h = 1e-3 if i == shrinks else 0.1
        for k in (8, 23, 40, 57):
            t = k / (cfg.grid_points - 1)
            w = realify(*cont.shifts[k])
            central = (
                8.0 * (residual(t + h, w) - residual(t - h, w))
                - (residual(t + 2 * h, w) - residual(t - 2 * h, w))
            ) / (12.0 * h)
            exact = d_t(t, w)
            assert np.linalg.norm(exact - central) <= 1e-6 * np.linalg.norm(exact)


# ------------------------------------------------- finite support pipeline


@pytest.mark.parametrize("seed", [3, 17])
def test_finite_support_flow_conserves_and_bounds(seed):
    frak_c = 6.0
    b = random_inverse_critical(seed, n=400)
    path = finite_support_flow(b, frak_c)
    assert max(path.residual_crit) < 1e-8
    assert max(path.residual_chi) < 1e-8
    assert path.final.eigenvalues.size <= path.meta["m_bound"]
    assert path.initial.eigenvalues.size == b.eigenvalues.size
    # chi is conserved along this segment, not just drifting slowly
    chi0 = chi_of(b)[0]
    chi1 = chi_of(path.final)[0]
    assert abs(chi1 - chi0) < 1e-8


def test_finite_support_flow_keeps_split_atoms_together():
    # seed 3 splits the copies of one atom over two matched jobs; both
    # must stay on one value, not on two sites a rounding error apart
    b = random_inverse_critical(3, n=80)
    path = finite_support_flow(b, 6.0, FlowConfig(grid_points=65))
    for state in path.states:
        gaps = np.abs(state.eigenvalues[:, None] - state.eigenvalues[None, :])
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() > 1e-12


def test_half_plane_mass_constant_bounds():
    b = random_inverse_critical(5, n=400)
    frak_c = 6.0
    c = half_plane_mass_constant(b, frak_c)
    assert 0.0 < c < 1.0 / (2.0 * frak_c)
    re = b.expand().real
    # both half planes carry more than cN units beyond the strip
    assert (re < -c).sum() > c * b.n
    assert (re > c).sum() > c * b.n


def test_finite_support_flow_rejects_non_critical_input():
    # a rigid translation breaks tr B^2 B* = 0 (scaling would not: the
    # gated invariants chi and the skew direction are scale-covariant)
    b = random_inverse_critical(8, n=400)
    bad = b.with_eigenvalues(b.eigenvalues + 0.3)
    with pytest.raises(ConditionViolated):
        finite_support_flow(bad, 6.0)


# ----------------------------------------------------- count target + fix


def test_independent_count_target_snaps_and_stays_critical():
    denominator = 40
    b = random_inverse_critical(11, n=400)
    b0 = finite_support_flow(b, 6.0).final
    target = independent_count_target(b0)
    units = target.multiplicities * denominator
    assert np.all(units % target.n == 0)  # fractions are multiples of 1/40
    assert int(target.multiplicities.sum()) == target.n
    # exact skew conservation; the quadratic normalisation is deliberately
    # left to the deformation-side lift, which renormalises tr |A|^-2 = 1
    w = target.weights
    ev = target.eigenvalues
    assert abs(complex(np.sum(w * ev**2 * np.conj(ev)))) < 1e-12
    assert abs(chi_of(target)[1]) < 1e-10
    assert abs(chi_of(target)[0] - chi_of(b0)[0]) < 0.05


def assert_ends_on_count_target(path, b0):
    end = path.final.canonical()
    want = independent_count_target(b0).canonical()
    assert np.array_equal(end.eigenvalues, want.eigenvalues)
    assert np.array_equal(end.multiplicities, want.multiplicities)


def test_fix_spectrum_flow_hits_target_exactly_with_linear_chi():
    b = random_inverse_critical(11, n=400)
    b0 = finite_support_flow(b, 6.0).final
    path = fix_spectrum_flow(b0)
    assert_ends_on_count_target(path, b0)
    assert max(path.residual_crit) < 1e-8
    # chi(B_t) interpolates the endpoint values linearly in t
    c_start, c_end = chi_of(path.initial)[0], chi_of(path.final)[0]
    for t, s in zip(path.grid[:: len(path.grid) // 8], path.states[:: len(path.grid) // 8]):
        line = (1 - t) * c_start + t * c_end
        assert abs(chi_of(s)[0] - line) < 1e-8
    # the certificate segments tile [0, 1] and each one contracts
    certs = path.meta["certificates"]
    assert certs[0]["t0"] == 0.0 and certs[-1]["t1"] == 1.0
    assert all(a["t1"] == b["t0"] for a, b in zip(certs, certs[1:]))
    assert all(c["contraction"] <= 0.5 + CONTRACTION_SLACK for c in certs)


def test_fix_spectrum_flow_certificates_do_not_depend_on_the_grid():
    # the chain bisects in continuous t: a coarse output grid must neither
    # cap its depth nor change its segments
    b = random_inverse_critical(0, n=80)
    b0 = finite_support_flow(b, 6.0, FlowConfig(grid_points=65)).final
    coarse = fix_spectrum_flow(b0, FlowConfig(grid_points=9))
    fine = fix_spectrum_flow(b0, FlowConfig(grid_points=257))

    def segments(path):
        return [(c["t0"], c["t1"]) for c in path.meta["certificates"]]

    assert segments(coarse) == segments(fine)
    assert len(segments(coarse)) > 1


def test_fix_leg_keeps_a_repaired_site_paired_with_itself():
    # the repair moves a 73-unit anchor (snapped to 70) next to a 2-unit
    # site; pairing by value would send the anchor's mass there and move
    # 94 units as rank-one pieces
    cfg = FlowConfig(grid_points=65)
    b0 = finite_support_flow(random_inverse_critical(49, n=400), 6.0, cfg).final
    z0, z1, n0, n1 = _count_target_sites(b0)
    assert z0.size == b0.canonical().eigenvalues.size
    repaired = np.flatnonzero(z0 != z1)
    assert repaired.size == 2 and np.all(n1[repaired] > 0)
    assert (73, 70) in {(n0[k], n1[k]) for k in repaired}
    assert np.sum(n0 - np.minimum(n0, n1)) == 26
    assert_ends_on_count_target(fix_spectrum_flow(b0, cfg), b0)


def test_fix_leg_moves_a_far_repaired_site_as_a_new_site():
    # for B = 1/A at this draw the repair moves one anchor by 0.214 >
    # DELTA_TV: that site leaves with count 0 and the target site arrives
    # from count 0, so the leg still certifies
    a = random_deformation_critical(6, n=400)
    cfg = FlowConfig(grid_points=65)
    leg1 = finite_support_flow(a.with_eigenvalues(1 / a.eigenvalues), 6.0, cfg)
    z0, z1, n0, n1 = _count_target_sites(leg1.final)
    assert np.max(np.abs(z0 - z1)) <= DELTA_TV
    assert np.any((n0 == 0) & (n1 > 0))
    leg2 = fix_spectrum_flow(leg1.final, cfg)
    assert_ends_on_count_target(leg2, leg1.final)
    assert len(leg2.meta["certificates"]) == 18
    path_b = leg1.concat(leg2)
    report = validate_assumption(
        lift_to_deformation(path_b, 0.0),
        frak_c1=max(6.0, path_b.meta["frak_c1"]),
    )
    assert report.passed


# ------------------------------------------------------------- hermitian


def test_hermitian_flow_collapses_to_two_points():
    b = random_real_critical(7)
    path = hermitian_flow(b, 6.0)
    final = path.final.canonical()
    assert final.eigenvalues.size == 2
    x = np.sort(final.eigenvalues.real)
    n_pos = float(b.multiplicities[b.eigenvalues.real > 0].sum())
    n_neg = float(b.n - n_pos)
    assert abs(x[1] - 1.0) < 1e-10
    assert abs(x[0] + (n_pos / n_neg) ** (1.0 / 3.0)) < 1e-10
    assert max(path.residual_crit) < 1e-10
    assert np.max(np.abs(final.eigenvalues.imag)) == 0.0


def test_hermitian_flow_rejects_complex_input():
    b = random_inverse_critical(2, n=400)
    with pytest.raises(NotReal):
        hermitian_flow(b, 6.0)


# ------------------------------------------------------- lift and audits


def test_derive_b0_then_lift_recovers_the_deformation():
    a = random_deformation_critical(21, n=400)
    b, phi = derive_b0(a)
    # tr B^3 B* lands on the nonnegative real axis
    skew3 = complex(np.sum(b.weights * b.eigenvalues**3 * np.conj(b.eigenvalues)))
    assert abs(skew3.imag) < 1e-10 * max(1.0, abs(skew3))
    assert skew3.real > -1e-12
    path = finite_support_flow(b, 6.0)
    lifted = lift_to_deformation(path, phi)
    a0 = lifted.initial.canonical()
    aa = a.canonical()
    assert np.max(np.abs(a0.eigenvalues - aa.eigenvalues)) < 1e-10
    # every lifted state keeps tr |A_t|^-2 = 1
    for s in lifted.states[:: max(1, len(lifted.states) // 16)]:
        inv2 = float(np.sum(s.weights / np.abs(s.eigenvalues) ** 2))
        assert abs(inv2 - 1.0) < 1e-12
    assert lifted.meta["phi"] == phi


def test_validate_assumption_passes_on_a_built_path():
    a = random_deformation_critical(23, n=400)
    b, phi = derive_b0(a)
    lifted = lift_to_deformation(finite_support_flow(b, 6.0), phi)
    report = validate_assumption(lifted, frak_c1=lifted.meta["frak_c1"])
    assert report.passed
    assert report.criticality_failures == ()
    assert any("overall: pass" in ln for ln in report.lines())


def test_validate_assumption_locates_a_corrupted_state():
    a = random_deformation_critical(23, n=400)
    b, phi = derive_b0(a)
    lifted = lift_to_deformation(finite_support_flow(b, 6.0), phi)
    k = len(lifted.states) // 2
    bad_state = lifted.states[k].with_eigenvalues(lifted.states[k].eigenvalues * 1.05)
    states = lifted.states[:k] + (bad_state,) + lifted.states[k + 1 :]
    broken = FlowPath(
        grid=lifted.grid,
        states=states,
        derivatives=lifted.derivatives,
        residual_crit=lifted.residual_crit,
        residual_chi=lifted.residual_chi,
        segment_kind=lifted.segment_kind,
        meta=lifted.meta,
    )
    report = validate_assumption(broken, frak_c1=lifted.meta["frak_c1"])
    assert not report.passed
    t_bad = lifted.grid[k]
    assert any(f"t={t_bad:.4f}" in msg for msg in report.criticality_failures)


# ------------------------------------------------------ path plumbing


def test_path_jsonl_roundtrip_and_concat():
    b = random_inverse_critical(31, n=400)
    p1 = finite_support_flow(b, 6.0)
    target = independent_count_target(p1.final)
    p2 = fix_spectrum_flow(p1.final)
    joined = p1.concat(p2)
    assert joined.grid[0] == 0.0 and joined.grid[-1] == 1.0
    assert "concat-junction" in joined.segment_kind
    assert joined.final.canonical().eigenvalues.size == target.canonical().eigenvalues.size

    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        fn = os.path.join(d, "path.jsonl")
        joined.save_jsonl(fn)
        back = FlowPath.load_jsonl(fn)
    assert back.grid == joined.grid
    assert back.segment_kind == joined.segment_kind
    for s, t in zip(back.states, joined.states):
        assert np.array_equal(s.eigenvalues, t.eigenvalues)
        assert np.array_equal(s.multiplicities, t.multiplicities)
    assert back.residual_crit == joined.residual_crit


def test_path_jsonl_without_segment_kinds_is_refused(tmp_path):
    fn = tmp_path / "path.jsonl"
    path = hermitian_flow(random_real_critical(7, n=80), 6.0, FlowConfig(grid_points=5))
    path.save_jsonl(fn)
    rows = [json.loads(line) for line in fn.read_text().splitlines()]
    for row in rows:
        row.pop("segment_kind")
    fn.write_text("".join(json.dumps(row) + "\n" for row in rows))
    # an unlabelled path is not silently relabelled as a shrink
    with pytest.raises(ValueError, match="segment_kind"):
        FlowPath.load_jsonl(fn)


def shift_kinds(rows):
    # every kind one row early: the first row labelled, the last row unlabelled
    for row, nxt in zip(rows, rows[1:]):
        row["segment_kind"] = nxt["segment_kind"]
    rows[-1].pop("segment_kind")


def mixed_n(rows):
    rows[1]["multiplicities"][0] += 2


def no_eigenvalues(rows):
    rows[2]["eigenvalues"], rows[2]["multiplicities"] = [], []


def unknown_kind(rows):
    rows[3]["segment_kind"] = "stretch"


@pytest.mark.parametrize(
    "corrupt", [shift_kinds, mixed_n, no_eigenvalues, unknown_kind], ids=lambda f: f.__name__
)
def test_path_jsonl_is_read_strictly(tmp_path, corrupt):
    fn = tmp_path / "path.jsonl"
    path = hermitian_flow(random_real_critical(7, n=80), 6.0, FlowConfig(grid_points=5))
    path.save_jsonl(fn)
    rows = [json.loads(line) for line in fn.read_text().splitlines()]
    corrupt(rows)
    fn.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ValueError, match="path line"):
        FlowPath.load_jsonl(fn)


def test_concat_refuses_mismatched_junction():
    b = random_inverse_critical(31, n=400)
    p1 = finite_support_flow(b, 6.0)
    other = random_inverse_critical(32, n=400)
    p3 = finite_support_flow(other, 6.0)
    with pytest.raises(ResidualExceeded, match="junction"):
        p1.concat(p3)


def test_path_validation_rejects_malformed_grids():
    b = random_inverse_critical(1, n=400)
    s = (b, b)
    with pytest.raises(ValueError):
        FlowPath(
            grid=(0.0, 0.5),
            states=s,
            derivatives=(0.0, 0.0),
            residual_crit=(0.0, 0.0),
            residual_chi=(0.0, 0.0),
            segment_kind=("shrink",),
        )


def test_flow_config_h0_override_changes_the_mesh():
    b = random_inverse_critical(3, n=400)
    default = finite_support_flow(b, 6.0)
    finer = finite_support_flow(b, 6.0, FlowConfig(h0=0.05 / 6.0))
    assert finer.meta["h"] <= default.meta["h"] / 2 + 1e-15
    assert max(finer.residual_crit) < 1e-8
