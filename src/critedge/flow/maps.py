"""Trace maps steering two-cluster flows.

The scalar model map sends a weighted pair of points (z1, z2) to the two
normalised traces that must vanish along every flow segment:

    F1 = p z1^2 conj(z1) + (1-p) z2^2 conj(z2)
    F2 = p z1^3 conj(z1) + (1-p) z2^3 conj(z2)
         - chi (p |z1|^4 + (1-p) |z2|^4)

Its realified 4x4 Jacobian is invertible on the admissible cone (separated
real parts, moduli bounded by c and 1/c, chi <= 1-c, p in [c, 1-c]), which
is what lets the implicit-function solver trade point positions for small
corrective shifts.  :func:`cluster_traces` gives the same two traces for
any weighted set of values, normalised by a mass, and
:func:`entry_jacobian` their realified Jacobian in each value.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..spectrum import weighted_moments

__all__ = [
    "PointMapValue",
    "check_z1z2",
    "f_chi_p",
    "pair_traces",
    "pair_jacobian",
    "cluster_traces",
    "entry_jacobian",
    "realify",
    "unrealify",
]

# slack of every inequality check_z1z2 tests
ADMISSIBLE_TOL = 1e-12


def realify(f1: complex, f2: complex) -> np.ndarray:
    return np.array([f1.real, f1.imag, f2.real, f2.imag], dtype=float)


def unrealify(v: np.ndarray) -> tuple[complex, complex]:
    return complex(v[0], v[1]), complex(v[2], v[3])


def _h_derivatives(z: np.ndarray, chi: float):
    """Column pair (d/dx, d/dy) of both trace kernels at z, as complex numbers.

    For a complex-valued kernel H the realified 2x2 block is
    [[Re fx, Re fy], [Im fx, Im fy]] with fx = H_z + H_zbar and
    fy = i(H_z - H_zbar).
    """
    zb = np.conj(z)
    f1z = 2.0 * z * zb
    f1zb = z * z
    f2z = 3.0 * z * z * zb - 2.0 * chi * z * zb * zb
    f2zb = z * z * z - 2.0 * chi * z * z * zb
    return (f1z + f1zb, 1j * (f1z - f1zb), f2z + f2zb, 1j * (f2z - f2zb))


def _block(fx: complex, fy: complex) -> np.ndarray:
    return np.array([[fx.real, fy.real], [fx.imag, fy.imag]], dtype=float)


def check_z1z2(z1: complex, z2: complex, chi: float, p: float, c: float) -> list:
    """Return the admissibility conditions violated beyond ADMISSIBLE_TOL."""
    tol = ADMISSIBLE_TOL
    failures = []
    for label, z in (("z1", z1), ("z2", z2)):
        m = abs(z)
        if not (c - tol <= m <= 1.0 / c + tol):
            failures.append(f"|{label}| = {m:.6g} outside [{c:.3g}, {1.0 / c:.3g}]")
    if z1.real * z2.real > tol:
        failures.append("Re z1 and Re z2 have the same sign")
    if abs(z1.real) + abs(z2.real) < c - tol:
        failures.append(f"|Re z1| + |Re z2| = {abs(z1.real) + abs(z2.real):.6g} < {c:.3g}")
    if not (-tol <= chi <= 1.0 - c + tol):
        failures.append(f"chi = {chi:.6g} outside [0, {1.0 - c:.3g}]")
    if not (c - tol <= p <= 1.0 - c + tol):
        failures.append(f"p = {p:.6g} outside [{c:.3g}, {1.0 - c:.3g}]")
    return failures


class PointMapValue(NamedTuple):
    f: tuple
    jacobian: np.ndarray
    inv_norm: float


def f_chi_p(z1: complex, z2: complex, chi: float, p: float) -> PointMapValue:
    """Two-point trace map, its realified Jacobian, and inverse norm.

    The map is evaluated unconditionally; :func:`check_z1z2` is the
    admissibility check.  A singular Jacobian reports inv_norm = inf, which
    is how degenerate corners (chi = 1 with both points real) are probed.
    """
    jac = pair_jacobian(z1, z2, chi, p)
    try:
        inv_norm = float(np.linalg.norm(np.linalg.inv(jac), 2))
    except np.linalg.LinAlgError:
        inv_norm = np.inf
    return PointMapValue(pair_traces(z1, z2, chi, p), jac, inv_norm)


def pair_traces(z1: complex, z2: complex, chi: float, p: float) -> tuple:
    """The two traces (F1, F2) of :func:`f_chi_p`, without its Jacobian."""
    z1, z2 = complex(z1), complex(z2)
    q = 1.0 - p
    f1 = p * z1 * z1 * np.conj(z1) + q * z2 * z2 * np.conj(z2)
    f2 = (
        p * z1**3 * np.conj(z1)
        + q * z2**3 * np.conj(z2)
        - chi * (p * abs(z1) ** 4 + q * abs(z2) ** 4)
    )
    return complex(f1), complex(f2)


def pair_jacobian(z1: complex, z2: complex, chi: float, p: float) -> np.ndarray:
    """The realified 4x4 Jacobian of :func:`f_chi_p`, without its inverse norm."""
    z1, z2 = complex(z1), complex(z2)
    a1x, a1y, a2x, a2y = _h_derivatives(np.asarray(z1), chi)
    b1x, b1y, b2x, b2y = _h_derivatives(np.asarray(z2), chi)
    q = 1.0 - p
    jac = np.zeros((4, 4))
    jac[0:2, 0:2] = p * _block(a1x, a1y)
    jac[0:2, 2:4] = q * _block(b1x, b1y)
    jac[2:4, 0:2] = p * _block(a2x, a2y)
    jac[2:4, 2:4] = q * _block(b2x, b2y)
    return jac


def cluster_traces(values, weights, chi: float, mass: float) -> tuple[complex, complex]:
    """Trace contributions of weighted sites, normalised by ``mass``:
    (sum w v^2 conj(v), sum w v^3 conj(v) - chi sum w |v|^4) / mass."""
    f1, m31, m22 = weighted_moments(values, weights, ((2, 1), (3, 1), (2, 2)))
    return f1 / mass, (m31 - chi * m22) / mass


def entry_jacobian(values, weights, chi: float, mass: float) -> np.ndarray:
    """Realified 4 x 2k Jacobian of :func:`cluster_traces` in each value.

    Column pair 2j, 2j+1 holds the derivatives in Re and Im of values[j];
    summing the column pairs of a group of values gives the Jacobian in a
    shift common to that group.
    """
    f1x, f1y, f2x, f2y = _h_derivatives(np.asarray(values, dtype=complex), chi)
    q = np.asarray(weights, dtype=float) / mass
    jac = np.empty((4, 2 * q.size))
    jac[0, 0::2] = q * f1x.real
    jac[0, 1::2] = q * f1y.real
    jac[1, 0::2] = q * f1x.imag
    jac[1, 1::2] = q * f1y.imag
    jac[2, 0::2] = q * f2x.real
    jac[2, 1::2] = q * f2y.real
    jac[3, 0::2] = q * f2x.imag
    jac[3, 1::2] = q * f2y.imag
    return jac
