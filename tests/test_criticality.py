"""Criticality functionals: Hessian, shape parameter, reports."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critedge.criticality import (
    alpha_from_chi,
    chi,
    density_quadratic,
    hessian_at_origin,
    scaling_gamma,
    shape_alpha,
    verify_criticality,
)
from critedge.errors import ZeroEigenvalue
from critedge.spectrum import DeformationSpectrum
from critedge.synthesis import (
    quartet_deformation,
    random_deformation_critical,
    random_inverse_critical,
    random_real_critical,
)


def test_pm_spectrum_report(pm_spectrum):
    rep = verify_criticality(pm_spectrum)
    assert rep.is_critical
    assert rep.alpha == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert rep.beta == pytest.approx(0.0, abs=1e-12)


def test_quartet_alpha_formula():
    for c in (0.0, 0.25, 0.5, 1.0):
        spec = quartet_deformation(c, 400)
        rep = verify_criticality(spec)
        want = (-1.0 + 3.0 * c * c) / (3.0 - c * c)
        assert rep.is_critical
        assert rep.alpha == pytest.approx(want, abs=1e-10)
        assert shape_alpha(hessian_at_origin(spec)) == rep.alpha


def test_quartet_half_value():
    rep = verify_criticality(quartet_deformation(0.5, 8))
    assert rep.alpha == pytest.approx(-1.0 / 11.0, abs=1e-12)


def test_chi_alpha_closed_form():
    # inverse of the quartet family: chi = (1-c^2)/(1+c^2)
    for c in (0.1, 0.4, 0.9):
        d = quartet_deformation(c, 8)
        b = d.with_eigenvalues(1.0 / d.eigenvalues)
        chi_val, chi_imag = chi(b)
        assert chi_val == pytest.approx((1 - c * c) / (1 + c * c), abs=1e-12)
        assert abs(chi_imag) <= 1e-12
        want_alpha = (3 * c * c - 1) / (3 - c * c)
        assert alpha_from_chi(chi_val) == pytest.approx(want_alpha, abs=1e-12)


def test_alpha_from_chi_endpoints():
    assert alpha_from_chi(1.0) == pytest.approx(-1.0 / 3.0)
    assert alpha_from_chi(0.0) == pytest.approx(1.0)


def test_non_critical_when_rescaled(pm_spectrum):
    rep = verify_criticality(
        pm_spectrum.with_eigenvalues(pm_spectrum.eigenvalues * 2.0)
    )
    assert not rep.is_critical


def test_zero_eigenvalue_raises():
    s = DeformationSpectrum(np.array([0.0 + 0j, 1.0]), np.array([1, 9]), 10)
    with pytest.raises(ZeroEigenvalue):
        verify_criticality(s)


def test_report_json_fields(pm_spectrum):
    d = verify_criticality(pm_spectrum).to_json_dict()
    for key in ("alpha", "chi", "is_critical", "gamma_re", "norm_a"):
        assert key in d


def test_hessian_rotation_covariance(pm_spectrum):
    # rotating the spectrum rotates the Hessian eigenframe, not the spectrum
    # of the Hessian itself
    h0 = hessian_at_origin(pm_spectrum)
    h1 = hessian_at_origin(
        pm_spectrum.with_eigenvalues(pm_spectrum.eigenvalues * np.exp(0.3j))
    )
    e0 = np.sort(np.linalg.eigvalsh(h0))
    e1 = np.sort(np.linalg.eigvalsh(h1))
    assert np.allclose(e0, e1, atol=1e-12)


def test_scaling_gamma_finite_and_phase(pm_spectrum):
    g = scaling_gamma(pm_spectrum)
    assert np.isfinite(g.real) and np.isfinite(g.imag)
    assert abs(g) > 0


def test_density_quadratic_nonnegative(pm_spectrum):
    rep = verify_criticality(pm_spectrum)
    for z in (0.05 + 0.02j, -0.03 + 0.04j, 0.1j):
        assert density_quadratic(rep, pm_spectrum, z) >= 0.0


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30)
def test_random_hermitian_alpha_is_minus_third(seed):
    b = random_real_critical(seed, n=200)
    s = float(np.sqrt(np.sum(b.weights * np.abs(b.eigenvalues) ** 2)))
    a = b.with_eigenvalues(s / b.eigenvalues)
    rep = verify_criticality(a, tol=1e-9)
    assert rep.is_critical
    assert rep.alpha == pytest.approx(-1.0 / 3.0, abs=1e-9)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30)
def test_random_normal_alpha_range(seed):
    a = random_deformation_critical(seed, n=400)
    rep = verify_criticality(a, tol=1e-9)
    assert rep.is_critical
    assert -1.0 / 3.0 - 1e-9 <= rep.alpha <= 1.0 + 1e-12


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15)
def test_alpha_consistent_with_chi_route(seed):
    b = random_inverse_critical(seed, n=400)
    chi_val, _ = chi(b)
    a = b.with_eigenvalues(1.0 / b.eigenvalues)
    rep = verify_criticality(a, tol=1e-9)
    assert rep.alpha == pytest.approx(alpha_from_chi(chi_val), abs=1e-8)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.05, max_value=0.95),
)
@example(203, 0.5)  # the split moves h12 from -4.4e-16 to -5.0e-16
@settings(max_examples=15)
def test_splitting_a_multiplicity_changes_nothing(seed, frac):
    a = random_deformation_critical(seed, n=40)
    j = int(np.argmax(a.multiplicities))
    m = int(a.multiplicities[j])
    part = min(max(1, round(frac * m)), m - 1)
    mult = a.multiplicities.copy()
    mult[j] = part
    split = DeformationSpectrum(
        np.append(a.eigenvalues, a.eigenvalues[j]), np.append(mult, m - part), a.n
    )
    c, cs = a.canonical(), split.canonical()
    assert np.array_equal(c.eigenvalues.view(float), cs.eigenvalues.view(float))
    assert np.array_equal(c.multiplicities, cs.multiplicities)
    for k in range(-3, 4):
        for l in range(-3, 4):
            want = a.moment(k, l)
            assert abs(split.moment(k, l) - want) <= 1e-14 * max(1.0, abs(want))
    assert chi(split) == pytest.approx(chi(a), rel=0, abs=1e-14)
    rep, rep_split = verify_criticality(a), verify_criticality(split)
    got, want = rep_split.to_json_dict(), rep.to_json_dict()
    # h12 is zero in exact arithmetic here, so the sign of its rounding
    # must not pick theta near 0 or near pi
    assert rep_split.theta == rep.theta
    for key, value in want.items():
        if isinstance(value, float):
            assert abs(got[key] - value) <= 1e-14, key
        else:
            assert got[key] == value, key


@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-np.pi, max_value=np.pi),
)
@settings(max_examples=15)
def test_alpha_and_gamma_modulus_are_rotation_invariant(seed, phase):
    a = random_deformation_critical(seed, n=40)
    rot_spec = a.with_eigenvalues(a.eigenvalues * np.exp(1j * phase))
    rep, rot = verify_criticality(a), verify_criticality(rot_spec)
    assert rot.alpha == pytest.approx(rep.alpha, rel=0, abs=1e-12)
    assert abs(rot.gamma) == pytest.approx(abs(rep.gamma), rel=1e-12)
    # the large Hessian eigendirection turns with the spectrum
    turn = (rot.theta - rep.theta - phase) % np.pi
    assert min(turn, np.pi - turn) <= 1e-9
