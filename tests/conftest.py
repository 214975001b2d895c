"""Shared fixtures and hypothesis settings."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from critedge import spectra
from critedge.dyson import solve_v_scalar
from critedge.spectra import hermitize, sample_matrix
from critedge.spectrum import DeformationSpectrum

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def pm_spectrum():
    """Two-point +-1 spectrum, the simplest critical deformation."""
    return DeformationSpectrum(
        np.array([1.0 + 0j, -1.0 + 0j]), np.array([50, 50]), 100
    )


@pytest.fixture
def bisect_v():
    """Oracle for the scalar Dyson root: plain bisection, vectorised over eta.

    h(v) = 1 - eta/v - S(v) increases in v, h(eta) < 0 and h >= 0 at
    v+ = (eta + sqrt(eta^2 + 4))/2, so halving [eta, v+] on the sign of h
    converges to the root.
    """

    def solve(spec: DeformationSpectrum, z: complex, etas) -> np.ndarray:
        etas = np.asarray(etas, dtype=float)
        d = np.abs(spec.eigenvalues - z) ** 2
        lo = etas.copy()
        hi = 0.5 * (etas + np.sqrt(etas * etas + 4.0))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            h = 1.0 - etas / mid - np.sum(spec.weights / (d + mid[:, None] ** 2), axis=1)
            lo, hi = np.where(h < 0.0, mid, lo), np.where(h < 0.0, hi, mid)
        return 0.5 * (lo + hi)

    return solve


@pytest.fixture
def local_law_dispersion():
    """Sample standard deviation of <G^z(i eta) - M(i eta)> across trials.

    Both traces are purely imaginary on the imaginary axis, so the spread
    of the imaginary part is the full fluctuation.
    """

    def dispersion(spec: DeformationSpectrum, model, eta, trials, z=0.0, seed0=0):
        im_m = solve_v_scalar(spec, z=z, eta=eta).m_trace.imag
        gaps = np.empty(int(trials))
        for j in range(int(trials)):
            svs = hermitize(spec, sample_matrix(model, spec.n, seed0 + j), z).singular_values()
            gaps[j] = float(np.mean(2.0 * eta / (svs * svs + eta * eta))) / 2.0 - im_m
        return float(np.std(gaps, ddof=1))

    return dispersion


@pytest.fixture
def eta_log_identity():
    """Per singular value: the regularized eta-integral against -2 log(sv).

    Integrates 2 eta/(sv^2+eta^2) - 2 eta/(1+eta^2) numerically below
    ``split`` and in closed form above it; summed over singular values this
    reproduces -log|det H^z|, the per-sv form of the closed eta-integral in
    log_det_statistic.  Returns (numeric, analytic) arrays.
    """
    from scipy.integrate import quad

    def identity(singular_values, split: float = 1.0):
        svs = np.asarray(singular_values, dtype=float)
        numeric = np.empty_like(svs)
        for i, lam in enumerate(svs):
            def integrand(eta, lam=lam):
                return 2.0 * eta / (lam * lam + eta * eta) - 2.0 * eta / (1.0 + eta * eta)

            # the integrand turns over at eta ~ sv; hint the adaptive rule
            hint = [min(lam, split)] if 0.0 < lam < split else None
            low, _ = quad(integrand, 0.0, split, points=hint, epsabs=1e-12, limit=200)
            # closed-form tail of the same integrand on [split, infinity)
            tail = np.log((1.0 + split**2) / (lam * lam + split**2))
            numeric[i] = low + tail
        analytic = -2.0 * np.log(svs)
        return numeric, analytic

    return identity


@pytest.fixture
def girko_svd_oracle():
    """Oracle for the rhs of the Girko identity: one full SVD per node.

    Same tensor Gauss-Legendre rule and jitter policy as girko_check, with
    the smallest singular value as the jitter test.  Returns
    (rhs, jittered_nodes).
    """

    def rhs(spec: DeformationSpectrum, x, f, quad_points):
        nodes, weights = np.polynomial.legendre.leggauss(quad_points)
        half = f.half_width
        base = np.asarray(x, dtype=complex) + np.diag(spec.expand())
        total, jittered = 0.0, 0
        for i in range(quad_points):
            for j in range(quad_points):
                z = complex(f.center.real + half * nodes[i], f.center.imag + half * nodes[j])
                for attempt in range(spectra.GIRKO_RETRIES + 1):
                    svs = np.linalg.svd(base - z * np.eye(spec.n), compute_uv=False)
                    if svs[-1] > spectra.GIRKO_SV_FLOOR:
                        break
                    jittered += 1
                    z += spectra.GIRKO_JITTER * (attempt + 1) * (1.0 + 1.0j)
                logdet = 2.0 * float(np.sum(np.log(svs)))
                total += weights[i] * weights[j] * half * half * float(f.laplacian(z)) * logdet
        return total / (4.0 * np.pi * spec.n), jittered

    return rhs


def spectrum_close(a: DeformationSpectrum, b: DeformationSpectrum, tol: float) -> bool:
    av, bv = np.sort_complex(a.expand()), np.sort_complex(b.expand())
    return av.size == bv.size and float(np.max(np.abs(av - bv))) <= tol
