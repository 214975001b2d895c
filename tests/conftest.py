"""Shared fixtures and hypothesis settings."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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


def spectrum_close(a: DeformationSpectrum, b: DeformationSpectrum, tol: float) -> bool:
    av, bv = np.sort_complex(a.expand()), np.sort_complex(b.expand())
    return av.size == bv.size and float(np.max(np.abs(av - bv))) <= tol
