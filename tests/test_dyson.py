"""Dyson equation solvers: scalar and full routes, scalings, cubic law."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critedge.criticality import verify_criticality
from critedge.dyson import (
    cubic_residual,
    flow_scalings,
    rescaled_cubic_residual,
    solve_batch,
    solve_mde_full,
    solve_v,
    solve_v_scalar,
)
from critedge.errors import InvalidEta, NoConvergence
from critedge.spectrum import DeformationSpectrum
from critedge.synthesis import quartet_deformation, random_deformation_critical


def test_pm_closed_form(pm_spectrum):
    # v = eta + v/(1+v^2) has the closed-form large-eta behavior v ~ eta + 1/eta
    sol = solve_v_scalar(pm_spectrum, eta=100.0)
    assert sol.converged
    assert sol.v == pytest.approx(100.0 + 1.0 / 100.0, rel=1e-3)


def test_v_positive_and_converged(pm_spectrum):
    for eta in (1e-9, 1e-6, 1e-2, 1.0):
        sol = solve_v_scalar(pm_spectrum, eta=eta)
        assert sol.converged
        assert sol.v > 0.0
        assert sol.residual <= 1e-10


def test_v_monotone_in_eta(pm_spectrum):
    etas = np.geomspace(1e-8, 1.0, 12)
    vs = [solve_v_scalar(pm_spectrum, eta=e).v for e in etas]
    assert all(b > a for a, b in zip(vs, vs[1:]))


def test_invalid_eta_rejected(pm_spectrum):
    with pytest.raises(InvalidEta):
        solve_mde_full(pm_spectrum, eta=-1.0)
    with pytest.raises(InvalidEta):
        solve_v(pm_spectrum, 0.0, [1e-3, -1.0])


@pytest.mark.parametrize("seed", [0, 1])
def test_v_matches_bisection_at_the_edge(seed, bisect_v):
    # near the critical origin h' ~ eta^(2/3) is small, so a small defect
    # alone does not pin v; compare v itself with the bisection root
    spec = random_deformation_critical(seed, n=80)
    rng = np.random.default_rng(seed)
    z = 0.02 * np.sqrt(rng.uniform(size=16)) * np.exp(2j * np.pi * rng.uniform(size=16))
    eta = 10.0 ** rng.uniform(-9.0, -5.0, size=16)
    rows = solve_batch(
        spec, [{"z_re": a.real, "z_im": a.imag, "eta": e} for a, e in zip(z, eta)]
    )
    for a, e, row in zip(z, eta, rows):
        ref = bisect_v(spec, a, [e])[0]
        assert abs(row["v"] - ref) <= 1e-9 * ref


def test_v_matches_bisection_at_an_atom(pm_spectrum, bisect_v):
    etas = np.geomspace(1e-9, 1e-3, 7)
    v, im_m, _ = solve_v(pm_spectrum, 1.0, etas)
    ref = bisect_v(pm_spectrum, 1.0, etas)
    assert np.all(np.abs(v - ref) <= 1e-9 * ref)
    assert np.all(np.abs(v - etas - im_m) <= 1e-15)


def test_solve_v_broadcasts_like_single_points(pm_spectrum):
    z = np.array([0.0, 0.3 + 0.1j, 3.0])[:, None]
    eta = np.array([1e-8, 1e-3, 1.0, 1e4])
    v, im_m, iterations = solve_v(pm_spectrum, z, eta)
    assert v.shape == im_m.shape == iterations.shape == (3, 4)
    for i, j in np.ndindex(v.shape):
        sol = solve_v_scalar(pm_spectrum, complex(z[i, 0]), eta[j])
        assert (sol.v, sol.m_trace.imag, sol.iterations) == (v[i, j], im_m[i, j], iterations[i, j])
    with pytest.raises(NoConvergence):
        solve_v(pm_spectrum, complex("nan"), 1e-3)


def test_scalar_matches_full_on_samples(pm_spectrum):
    rng = np.random.default_rng(2)
    for seed in range(8):
        spec = random_deformation_critical(seed, n=60)
        z = complex(*rng.normal(scale=0.2, size=2))
        eta = float(10.0 ** rng.uniform(-6, 0))
        s = solve_v_scalar(spec, z=z, eta=eta)
        f = solve_mde_full(spec, z=z, eta=eta)
        assert f.im_min > 0.0
        assert abs(s.v - (f.m_trace.imag + eta)) <= 1e-9 * max(1.0, s.v)


def test_full_solve_computes_no_eigenvectors(monkeypatch, pm_spectrum):
    # the iteration needs the Hermitization's eigenvalues only; M is never formed
    def eigh(*args, **kwargs):
        raise AssertionError("solve_mde_full asked for eigenvectors")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    f = solve_mde_full(pm_spectrum, z=0.1 + 0.05j, eta=1e-2)
    s = solve_v_scalar(pm_spectrum, z=0.1 + 0.05j, eta=1e-2)
    assert abs(s.v - (f.m_trace.imag + 1e-2)) <= 1e-9


def test_solve_batch_field_order(pm_spectrum):
    rows = solve_batch(
        pm_spectrum,
        [{"z_re": 0.0, "z_im": 0.0, "eta": 1e-4}, {"z_re": 0.1, "z_im": 0.0, "eta": 1e-3}],
    )
    assert tuple(rows[0]) == ("z_re", "z_im", "eta", "v", "residual", "iterations")
    assert rows[0]["v"] > 0


def test_determinism(pm_spectrum):
    a = solve_v_scalar(pm_spectrum, z=0.03 + 0.01j, eta=1e-7)
    b = solve_v_scalar(pm_spectrum, z=0.03 + 0.01j, eta=1e-7)
    assert a.v == b.v


def test_edge_exponent_at_criticality(pm_spectrum):
    # at the critical origin v ~ eta^(1/3)
    etas = np.geomspace(1e-9, 1e-6, 7)
    vs = np.array([solve_v_scalar(pm_spectrum, eta=e).v for e in etas])
    slope = np.polyfit(np.log(etas), np.log(vs), 1)[0]
    assert slope == pytest.approx(1.0 / 3.0, abs=0.02)


def test_edge_exponent_outside_support(pm_spectrum):
    # away from the spectrum v ~ eta
    etas = np.geomspace(1e-9, 1e-6, 7)
    vs = np.array([solve_v_scalar(pm_spectrum, z=3.0, eta=e).v for e in etas])
    slope = np.polyfit(np.log(etas), np.log(vs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.02)


def test_cubic_residual_scaling(pm_spectrum):
    etas = np.geomspace(1e-9, 1e-3, 9)
    res = np.array([cubic_residual(pm_spectrum, eta=e) for e in etas])
    slope = np.polyfit(np.log(etas), np.log(res), 1)[0]
    assert slope >= 1.3


def test_flow_scalings_identities():
    spec = quartet_deformation(0.5, 400)
    sc = flow_scalings(spec)
    assert sc.eta_t == pytest.approx(sc.eta_infinity * sc.i4**0.25, rel=1e-14)
    assert abs(abs(sc.gamma_t) - sc.i4**0.25) <= 1e-14
    # arg gamma_t is the angle theta of the large Hessian eigendirection
    assert np.angle(sc.gamma_t) == pytest.approx(verify_criticality(spec).theta, abs=1e-12)


def test_rescaled_cubic_law_small():
    spec = quartet_deformation(0.5, 400)
    for w in (0.0, 0.5 + 0.2j, -1.0 + 0.8j):
        assert rescaled_cubic_residual(spec, w) <= 50.0 / 400.0


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=10)
def test_scalar_full_property(seed):
    spec = random_deformation_critical(seed, n=40)
    s = solve_v_scalar(spec, eta=1e-5)
    f = solve_mde_full(spec, eta=1e-5)
    assert abs(s.v - (f.m_trace.imag + 1e-5)) <= 1e-9
