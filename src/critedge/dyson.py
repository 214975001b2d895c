"""Matrix Dyson equation solvers on the imaginary axis.

For a normal deformation A and spectral parameter i*eta the self-consistent
equation for the Hermitized resolvent surrogate M reads

    1/M = S_H - i eta - tr(M),      Im M > 0,

with S_H the Hermitization of A - z.  The self-energy is the scalar tr(M),
so the full 2n x 2n problem (:func:`solve_mde_full`) closes over one complex
number and reduces to a positive scalar v = Im tr(M) + eta with

    h(v) = 1 - eta/v - S(v) = 0,      S(v) = sum_i w_i / (|lambda_i - z|^2 + v^2).

h increases strictly, h(eta) = -S(eta) < 0, and as the weights sum to one,
S(v) <= 1/v^2 makes h >= 0 at v+ = (eta + sqrt(eta^2 + 4))/2.  So each
(z, eta) has one root in [eta, v+], and :func:`solve_v` keeps Newton's
method inside that bracket; it converges even where h' vanishes like
eta^(2/3) at a critical point (Ajanki, Erdős & Krüger, Mem. AMS 2019).
The tests cross-check the scalar and the full route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criticality import _eigs_of_hessian, hessian_at_origin, shape_alpha
from .errors import InvalidEta, NoConvergence, SingularIterate
from .spectrum import DeformationSpectrum

__all__ = [
    "MdeSolution",
    "FullMdeSolution",
    "FlowScalings",
    "solve_v",
    "solve_v_scalar",
    "solve_mde_full",
    "cubic_residual",
    "rescaled_cubic_residual",
    "flow_scalings",
    "solve_batch",
]

EPS = float(np.finfo(float).eps)
# steps per point of solve_v; from v+ it needs about 5-25
MAX_ITER = 100
# defect bound and damped-iteration cap of solve_mde_full
FULL_TOL = 1e-10
FULL_MAX_ITER = 5000
# the regularisation scale of flow_scalings is eta_inf = n^(-3/4-ETA_DELTA)
ETA_DELTA = 0.05


@dataclass(frozen=True)
class MdeSolution:
    """Scalar Dyson solution at one (z, eta) point."""

    z: complex
    eta: float
    v: float
    m_trace: complex
    residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class FullMdeSolution:
    """Full-matrix Dyson solution; `im_min` certifies Im M > 0."""

    z: complex
    eta: float
    m_trace: complex
    residual: float
    iterations: int
    im_min: float


@dataclass(frozen=True)
class FlowScalings:
    """Rescaling constants attached to one flow time."""

    i4: float
    gamma_t: complex
    eta_infinity: float
    eta_t: float


def solve_v(spec: DeformationSpectrum, z, eta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar Dyson roots v(z, eta) at every point of the broadcast of z and eta.

    Newton on h starts at v+, the top of the bracket [eta, v+] (module
    docstring).  Each evaluation of h moves one end of the bracket to the
    evaluated point, and a step that leaves the bracket is replaced by
    bisection.  A point stops once h(v) is zero to the rounding of its
    terms or the bracket is a few ulps wide, and takes its last Newton step.

    Returns arrays (v, im_m, iterations) shaped like the broadcast: im_m =
    v S(v) is Im<M> (v - eta would cancel at large eta), iterations counts
    the evaluations of h.  Raises InvalidEta for eta that is not positive
    and finite, NoConvergence for a point open after MAX_ITER steps or not
    finite.
    """
    z, eta = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(eta, dtype=float))
    shape = eta.shape
    z, eta = z.ravel(), eta.ravel()
    bad = ~(np.isfinite(eta) & (eta > 0.0))
    if np.any(bad):
        raise InvalidEta(f"eta must be positive and finite, got {eta[bad][0]}")
    d = np.abs(spec.eigenvalues[None, :] - z[:, None]) ** 2
    w = spec.weights
    lo = eta.copy()
    hi = 0.5 * eta + np.hypot(0.5 * eta, 1.0)
    v = hi.copy()
    iterations = np.zeros(eta.size, dtype=int)
    todo = np.arange(eta.size)
    for _ in range(MAX_ITER):
        if todo.size == 0:
            break
        vo, eo = v[todo], eta[todo]
        den = d[todo] + (vo * vo)[:, None]
        q = w / den
        s = q.sum(axis=1)
        h = 1.0 - eo / vo - s
        dh = eo / (vo * vo) + 2.0 * vo * np.sum(q / den, axis=1)
        below = h < 0.0
        lo_o = np.where(below, vo, lo[todo])
        hi_o = np.where(below, hi[todo], vo)
        step = vo - h / dh
        # h is zero to the rounding of its three terms, or the bracket closed
        done = np.abs(h) <= 4.0 * EPS * (1.0 + eo / vo + s)
        done |= hi_o - lo_o <= 4.0 * EPS * hi_o
        inside = (step > lo_o) & (step < hi_o)
        v[todo] = np.where(done | inside, step, 0.5 * (lo_o + hi_o))
        lo[todo], hi[todo] = lo_o, hi_o
        iterations[todo] += 1
        todo = todo[~done]
    im_m = v * np.sum(w / (d + (v * v)[:, None]), axis=1)
    failed = ~np.isfinite(im_m)
    failed[todo] = True
    if np.any(failed):
        k = np.argmax(failed)
        raise NoConvergence(f"scalar Dyson solve failed at z={z[k]}, eta={eta[k]:.3e}")
    return v.reshape(shape), im_m.reshape(shape), iterations.reshape(shape)


def solve_v_scalar(spec: DeformationSpectrum, z: complex = 0.0, eta: float = 1e-6) -> MdeSolution:
    """The scalar Dyson solution at one point, a per-point view of :func:`solve_v`.

    ``m_trace = i Im<M>``, ``residual`` is the defect |v - eta - v S(v)|,
    and ``converged`` is always true (solve_v raises instead).
    """
    v, im_m, iterations = (float(a) for a in solve_v(spec, z, eta))
    return MdeSolution(
        z=complex(z),
        eta=float(eta),
        v=v,
        m_trace=1j * im_m,
        residual=abs(v - eta - im_m),
        iterations=int(iterations),
        converged=True,
    )


def solve_mde_full(
    spec: DeformationSpectrum, z: complex = 0.0, eta: float = 1e-6
) -> FullMdeSolution:
    """Solve the full matrix Dyson equation for the Hermitization of A - z.

    The iteration runs on the complex scalar self-energy s = tr(M) through
    the eigenvalues of the 2n x 2n Hermitization (computed once; M itself
    is never formed), without assuming any symmetry of s.  A singular
    iterate (Im(i eta + s) <= 0) restarts the loop with stronger damping.  The fixed point is
    accepted when its trace-norm defect |tr((S_H - i eta - s)^-1) - s| is
    at most FULL_TOL; a larger defect raises NoConvergence.
    """
    if not (eta > 0.0) or not np.isfinite(eta):
        raise InvalidEta(f"eta must be positive and finite, got {eta}")
    n = spec.n
    y = spec.dense() - z * np.eye(n)
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, n:] = y
    h[n:, :n] = y.conj().T
    evals = np.linalg.eigvalsh(h)

    omega = 0.5
    for _ in range(6):
        s = 1j * eta
        ok = True
        iterations = 0
        for it in range(FULL_MAX_ITER):
            shift = evals - 1j * eta - s
            if np.any(np.abs(shift) < 1e-300):
                ok = False
                break
            s_map = complex(np.mean(1.0 / shift))
            if (eta + s_map.imag) <= 0.0:
                ok = False
                break
            s_new = (1.0 - omega) * s + omega * s_map
            iterations = it + 1
            if abs(s_new - s) <= 0.1 * FULL_TOL and abs(s_map - s_new) <= FULL_TOL:
                s = s_new
                break
            s = s_new
        if ok:
            break
        omega /= 2.0
    else:
        raise SingularIterate("full Dyson iteration kept leaving the upper half plane")

    # Newton polish: the damped map contracts like 1 - O(eta^(2/3)) near a
    # criticality, too slowly for tight tolerances
    for _ in range(60):
        shift = evals - 1j * eta - s
        g = complex(np.mean(1.0 / shift)) - s
        if abs(g) <= 1e-16:
            break
        gp = complex(np.mean(shift**-2.0)) - 1.0
        if gp == 0:
            break
        step = g / gp
        trial = s - step
        lam = 1.0
        while lam > 1e-4 and (eta + trial.imag) <= 0.0:
            lam /= 2.0
            trial = s - lam * step
        if (eta + trial.imag) <= 0.0:
            break
        new_g = complex(np.mean(1.0 / (evals - 1j * eta - trial))) - trial
        if abs(new_g) >= abs(g):
            break
        s = trial
        iterations += 1

    diag = 1.0 / (evals - 1j * eta - s)
    residual = abs(complex(np.mean(diag)) - s)
    if residual > FULL_TOL:
        raise NoConvergence(f"full Dyson solve defect {residual:.3e} exceeds tol {FULL_TOL}")
    return FullMdeSolution(
        z=complex(z),
        eta=float(eta),
        m_trace=complex(np.mean(diag)),
        residual=float(residual),
        iterations=iterations,
        im_min=float(np.min(diag.imag)),
    )


def solve_batch(spec: DeformationSpectrum, points) -> list[dict]:
    """Solve the scalar equation on a grid of (z, eta) points in one call.

    ``points`` is an iterable of mappings with keys z_re, z_im, eta (the
    JSON batch format); returns one dict per point with the keys z_re, z_im,
    eta, v, residual and iterations in that order, with the defect
    |v - eta - v S(v)| as residual and the solve_v steps as iterations.
    """
    pts = np.array([(p["z_re"], p["z_im"], p["eta"]) for p in points], dtype=float)
    pts = pts.reshape(-1, 3)
    v, im_m, iterations = solve_v(spec, pts[:, 0] + 1j * pts[:, 1], pts[:, 2])
    return [
        {"z_re": a, "z_im": b, "eta": e, "v": x, "residual": abs(x - e - m), "iterations": k}
        for (a, b, e), x, m, k in zip(
            pts.tolist(), v.tolist(), im_m.tolist(), iterations.tolist()
        )
    ]


def cubic_residual(spec: DeformationSpectrum, z: complex = 0.0, eta: float = 1e-6) -> float:
    """Defect of the approximate cubic law for v near a critical origin.

    Evaluates |I4 v^3 - (1/2) z^T Hess z * v - eta| where I4 = tr |A|^-4,
    v is the scalar Dyson solution at (z, eta) and the Hessian is taken at
    the origin.  The documented bound is O(|z|^4 + eta^(4/3)).
    """
    v = solve_v_scalar(spec, z, eta).v
    i4 = spec.moment(-2, -2)
    xy = np.array([complex(z).real, complex(z).imag])
    quad = 0.5 * float(xy @ hessian_at_origin(spec) @ xy)
    return abs(i4 * v**3 - quad * v - eta)


def flow_scalings(spec: DeformationSpectrum) -> FlowScalings:
    """Evaluate the flow rescaling constants for one deformation.

    With n = spec.n, ``eta_infinity = n^(-3/4-ETA_DELTA)`` and
    ``eta_t = eta_infinity I4^(1/4)`` with I4 = tr |A|^-4;
    ``gamma_t = I4^(1/4) e^(i theta)``, its phase theta aligning the large
    Hessian eigendirection, matching the scaling factor used for
    eigenvalue clouds.
    """
    return _scalings(spec, hessian_at_origin(spec))


def _scalings(spec: DeformationSpectrum, hessian: np.ndarray) -> FlowScalings:
    """flow_scalings with the Hessian at the origin already built."""
    i4 = spec.moment(-2, -2)
    _, _, theta = _eigs_of_hessian(hessian)
    eta_inf = float(spec.n) ** (-0.75 - ETA_DELTA)
    return FlowScalings(
        i4=float(i4),
        gamma_t=complex(i4**0.25 * np.exp(1j * theta)),
        eta_infinity=eta_inf,
        eta_t=float(eta_inf / i4 ** (-0.25)),
    )


def rescaled_cubic_residual(spec: DeformationSpectrum, w: complex) -> float:
    """Defect of the flow-normalised cubic law at a rescaled point w.

    With the constants of :func:`flow_scalings` and alpha the shape of the
    Hessian at the origin, evaluates
    ``|(I4^(1/4) v)^3 - n^(-1/2)/2 * ((Re w)^2 + alpha (Im w)^2)/(1+alpha)
    * (I4^(1/4) v) - eta_inf|``
    with ``v`` solved at the shifted point and at ``eta = eta_t``.

    The shift uses the density scaling factor (twice the flow factor in
    modulus); with the flow factor alone the quadratic coefficient would be
    off by four and the documented O(1/n) bound would fail.
    """
    hessian = hessian_at_origin(spec)
    sc = _scalings(spec, hessian)
    alpha = shape_alpha(hessian)
    gamma_density = 2.0 * sc.gamma_t
    z_w = complex(w / (gamma_density * spec.n**0.25))
    sol = solve_v_scalar(spec, z_w, sc.eta_t)
    u = sc.i4**0.25 * sol.v
    quad = 0.5 * ((w.real**2 + alpha * w.imag**2) / (1.0 + alpha))
    return abs(u**3 - quad * u / np.sqrt(spec.n) - sc.eta_infinity)
