"""Criticality functionals of a deformation at the origin.

A normal deformation A, given by its spectrum, is critical at the origin
when its norm and inverse norm are bounded, the normalised trace of |A|^-2
equals one, and the mixed trace of A^-2 (A*)^-1 vanishes.  The local
geometry of the pseudospectral landscape is then captured by the 2x2
Hessian of (x, y) -> tr |A - x - iy|^-2 at zero, whose eigenvalue ratio
(the shape parameter) and trace (through the scaling factor) control the
eigenvalue density of A + X near the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHessian
from .spectrum import DeformationSpectrum

__all__ = [
    "CriticalityReport",
    "verify_criticality",
    "hessian_at_origin",
    "shape_alpha",
    "scaling_gamma",
    "density_quadratic",
    "chi",
    "chi_from_traces",
    "hessian_from_traces",
    "alpha_from_chi",
]

#: Relative tolerance used when none is supplied.
DEFAULT_TOL = 1e-8

#: Bound on the operator norm and inverse norm used when none is supplied.
DEFAULT_FRAK_C = 6.0

#: Relative eigenvalue gap below which the Hessian counts as rotationally tied.
TIE_TOL = 1e-9

#: Im tr A^-3 (A*)^-1 at most PHASE_FLOOR * tr |A|^-4 is rounding: the phase
#: folds of derive_b0 and of the Hessian eigendirection then read its sign
#: from the real part alone.
PHASE_FLOOR = 1e-12


def hessian_at_origin(spec: DeformationSpectrum) -> np.ndarray:
    """Hessian of (x, y) -> tr |A - x - iy|^-2 at the origin."""
    return hessian_from_traces(*spec.moments(((-3, -1), (-2, -2))))


def hessian_from_traces(r: complex, t: float) -> np.ndarray:
    """``[[4 Re R + 2 T, -4 Im R], [-4 Im R, -4 Re R + 2 T]]`` with the
    normalised traces R = tr A^-3 (A*)^-1 and T = tr |A|^-4."""
    h11 = 4.0 * r.real + 2.0 * t
    h22 = -4.0 * r.real + 2.0 * t
    h12 = -4.0 * r.imag
    return np.array([[h11, h12], [h12, h22]])


def _eigs_of_hessian(h: np.ndarray) -> tuple[float, float, float]:
    """Closed-form (lambda1 >= lambda2, theta) of a symmetric 2x2 matrix.

    theta in [0, pi) is the angle of the lambda1 eigendirection; exact ties
    (relative gap below TIE_TOL) report theta = 0.  An off-diagonal entry
    at rounding level (h12 = -4 Im R within PHASE_FLOOR of h11 + h22 = 4 T)
    reads theta from the sign of h11 - h22 alone: 0 or pi/2.
    """
    h = np.asarray(h, dtype=float)
    mean = 0.5 * (h[0, 0] + h[1, 1])
    b = 0.5 * (h[0, 0] - h[1, 1])
    c = h[0, 1]
    dev = float(np.hypot(b, c))
    lam1 = mean + dev
    lam2 = mean - dev
    if lam1 - lam2 <= TIE_TOL * max(abs(lam1), 1e-300):
        theta = 0.0
    elif abs(c) <= PHASE_FLOOR * 2.0 * mean:
        theta = 0.0 if b > 0.0 else 0.5 * np.pi
    else:
        theta = 0.5 * np.arctan2(c, b)
        if theta < 0.0:
            theta += np.pi
        if theta >= np.pi:  # fold the half-open interval
            theta -= np.pi
    return lam1, lam2, theta + 0.0  # normalises -0.0


def shape_alpha(hessian: np.ndarray) -> float:
    """Shape parameter: ratio of the small to the large Hessian eigenvalue."""
    lam1, lam2, _ = _eigs_of_hessian(hessian)
    if lam1 <= 0.0:
        raise DegenerateHessian(f"largest Hessian eigenvalue {lam1:.3e} <= 0")
    return lam2 / lam1


def scaling_gamma(spec: DeformationSpectrum) -> complex:
    """Scaling factor: sqrt(trace of Hessian) / tr(|A|^-4)^(1/4) * exp(i theta).

    The phase aligns the large Hessian eigendirection with the real axis;
    rotational ties use phase zero.
    """
    r, t = spec.moments(((-3, -1), (-2, -2)))
    return _eigs_and_gamma(hessian_from_traces(r, t), t)[3]


def _eigs_and_gamma(h: np.ndarray, t: float) -> tuple[float, float, float, complex]:
    """(lambda1, lambda2, theta, gamma) of the Hessian h, with T = tr |A|^-4."""
    lam1, lam2, theta = _eigs_of_hessian(h)
    if lam1 <= 0.0:
        raise DegenerateHessian(f"largest Hessian eigenvalue {lam1:.3e} <= 0")
    tr_h = lam1 + lam2
    if tr_h <= 0.0:
        raise DegenerateHessian(f"Hessian trace {tr_h:.3e} <= 0")
    return lam1, lam2, theta, complex(np.sqrt(tr_h) / t ** 0.25 * np.exp(1j * theta))


def chi(spec: DeformationSpectrum) -> tuple[float, float]:
    """Normalised ratio tr(B^3 B*) / tr(|B^2|^2) for a normal matrix B.

    Returns ``(real part, imaginary residual)``.  For spectra produced by the
    inverse-and-rotate transform the imaginary part vanishes; it is exposed
    as a diagnostic rather than silently dropped.
    """
    return chi_from_traces(*spec.moments(((3, 1), (2, 2))))


def chi_from_traces(m31: complex, m22: float) -> tuple[float, float]:
    """:func:`chi` from the traces tr(B^3 B*) and tr(|B^2|^2)."""
    val = m31 / m22
    return float(val.real), float(val.imag)


def alpha_from_chi(chi_value: float) -> float:
    """Shape parameter from the cubic trace ratio: (1 - 2 chi) / (1 + 2 chi)."""
    return (1.0 - 2.0 * chi_value) / (1.0 + 2.0 * chi_value)


@dataclass(frozen=True)
class CriticalityReport:
    """Full diagnostic record of a criticality check."""

    n: int
    inv2: float
    skew: complex
    hessian: np.ndarray
    lambda1: float
    lambda2: float
    alpha: float
    theta: float
    gamma: complex
    beta: float
    chi: float
    norm_a: float
    norm_a_inv: float
    is_critical: bool
    frak_c: float
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "inv2": self.inv2,
            "skew_re": self.skew.real,
            "skew_im": self.skew.imag,
            "h11": float(self.hessian[0, 0]),
            "h12": float(self.hessian[0, 1]),
            "h22": float(self.hessian[1, 1]),
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "alpha": self.alpha,
            "theta": self.theta,
            "gamma_re": self.gamma.real,
            "gamma_im": self.gamma.imag,
            "beta": self.beta,
            "chi": self.chi,
            "norm_a": self.norm_a,
            "norm_a_inv": self.norm_a_inv,
            "is_critical": self.is_critical,
            "frak_c": self.frak_c,
            "tol": self.tol,
        }


def verify_criticality(
    spec: DeformationSpectrum,
    frak_c: float = DEFAULT_FRAK_C,
    tol: float = DEFAULT_TOL,
) -> CriticalityReport:
    """Check the three criticality conditions and assemble the report.

    Critical means: operator norm and inverse norm at most ``frak_c``,
    |tr |A|^-2 - 1| <= tol and |tr A^-2 (A*)^-1| <= tol.  The tolerance is
    interpreted relative to the unit normalisation, so it is applied as an
    absolute bound on both defects.
    """
    norm_a, norm_a_inv = spec.operator_norms()
    inv2, skew, r, t = spec.moments(((-1, -1), (-2, -1), (-3, -1), (-2, -2)))
    h = hessian_from_traces(r, t)
    lam1, lam2, theta, gamma = _eigs_and_gamma(h, t)
    beta = float(np.sqrt(spec.n) * (1.0 - inv2))

    critical = (
        norm_a <= frak_c
        and norm_a_inv <= frak_c
        and abs(inv2 - 1.0) <= tol
        and abs(skew) <= tol
    )
    return CriticalityReport(
        n=spec.n,
        inv2=inv2,
        skew=skew,
        hessian=h,
        lambda1=lam1,
        lambda2=lam2,
        alpha=lam2 / lam1,
        theta=theta,
        gamma=gamma,
        beta=beta,
        # chi of the inverse-side spectrum obtained by the inverse-and-rotate map
        chi=abs(r) / t,
        norm_a=norm_a,
        norm_a_inv=norm_a_inv,
        is_critical=bool(critical),
        frak_c=frak_c,
        tol=tol,
    )


def density_quadratic(report: CriticalityReport, spec: DeformationSpectrum, z: complex) -> float:
    """Leading rescaled eigenvalue density near a critical origin.

    Evaluates the quadratic profile
    ``[ (x^2 + alpha y^2)/(1+alpha) + 2 (x^2 + alpha^2 y^2)/(1+alpha)^2 ] / (8 pi)``
    at ``z = x + iy`` (rescaled coordinates), gated by the inside-support
    indicator ``tr |A - z/gamma|^-2 >= 1``.
    """
    alpha = report.alpha
    gamma = report.gamma
    x, y = z.real, z.imag
    inside = spec.moment(-1, -1, z / gamma) >= 1.0
    if not inside:
        return 0.0
    one = (x * x + alpha * y * y) / (1.0 + alpha)
    two = 2.0 * (x * x + alpha * alpha * y * y) / (1.0 + alpha) ** 2
    return (one + two) / (8.0 * np.pi)
