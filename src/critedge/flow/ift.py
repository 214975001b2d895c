"""Quantitative implicit function solver with a numerical certificate.

Solves F(x, y) = 0 for y near a base point where F(0, 0) = 0, by the
frozen-Jacobian fixed point  f_x(y) = y - (D_yF(0,0))^-1 F(x, y).  Before
iterating, the contraction bound

    || I - (D_yF(0,0))^-1 D_yF(x, y) || <= 1/2

is verified on a sample of the control/unknown box (the origin, the axis
points and SAMPLES random points), and the certified input radius is
shrunk to  min(h_x, h_y / (2 C1 C2))  with C1 = 1 or the inverse Jacobian
norm (whichever is larger) and C2 the sampled control-derivative bound.  The iterate error then halves per step and the solution map is
Lipschitz with constant at most 2 C1 C2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ContractionFailed, NoConvergence, RadiusExceeded

__all__ = ["IftProblem", "IftCertificate", "IftSolution", "frozen_solve", "quantitative_ift"]

# tolerated excess over the 1/2 contraction bound before refusing to solve
CONTRACTION_SLACK = 0.05
# frozen-Jacobian steps of the solve
MAX_ITER = 200
# random points of the (x, y) box on which the contraction is sampled, on
# top of the origin and the points on the axes
SAMPLES = 8


@dataclass(frozen=True)
class IftProblem:
    """Implicit system F(x, y) = 0 around a root at the origin.

    ``residual`` maps (x, y) as 1-D float arrays to a float array of the
    unknown's dimension.  ``d_y`` is its analytic Jacobian in y; ``d_x``
    an optional analytic Jacobian in x, finite differences when absent.
    ``h_x``/``h_y`` are the box radii (Euclidean) within which the
    contraction property is claimed.
    """

    residual: Callable
    h_x: float
    h_y: float
    dim_x: int
    dim_y: int
    d_y: Callable
    d_x: Callable | None = None


@dataclass(frozen=True)
class IftCertificate:
    c1: float
    c2: float
    h_x: float
    h_y: float
    h_x_certified: float
    contraction_max: float
    lipschitz_bound: float
    samples: int


@dataclass(frozen=True)
class IftSolution:
    y: np.ndarray
    residual_norm: float
    iterations: int
    certificate: IftCertificate


def _fd_jacobian_x(f, x, y, step=1e-7):
    """Forward-difference Jacobian of f(x, y) in x."""
    base = np.asarray(f(x, y), dtype=float)
    cols = []
    for k in range(x.size):
        bumped = x.copy()
        h = step * max(1.0, abs(x[k]))
        bumped[k] += h
        cols.append((np.asarray(f(bumped, y), dtype=float) - base) / h)
    return np.stack(cols, axis=1)


def _sample_points(problem: IftProblem) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic low-discrepancy-ish sample of the (x, y) box."""
    nx, ny = problem.dim_x, problem.dim_y
    rng = np.random.default_rng(20240814)
    pts = [(np.zeros(nx), np.zeros(ny))]
    for scale in (1.0, 0.5):
        for k in range(nx):
            e = np.zeros(nx)
            e[k] = scale * problem.h_x
            pts.append((e, np.zeros(ny)))
            pts.append((-e, np.zeros(ny)))
        for k in range(ny):
            e = np.zeros(ny)
            e[k] = scale * problem.h_y
            pts.append((np.zeros(nx), e))
    for _ in range(SAMPLES):
        dx = rng.standard_normal(nx)
        dy = rng.standard_normal(ny)
        nx_norm = np.linalg.norm(dx) or 1.0
        ny_norm = np.linalg.norm(dy) or 1.0
        pts.append(
            (
                dx / nx_norm * problem.h_x * rng.uniform(0.2, 1.0),
                dy / ny_norm * problem.h_y * rng.uniform(0.2, 1.0),
            )
        )
    return pts


def frozen_solve(f, j_inv, y, tol: float, max_iter: int):
    """Fixed point y <- y - j_inv f(y) until ||f(y)|| <= tol.

    Returns (y, ||f(y)||, steps taken); the caller judges convergence.
    """
    y = np.asarray(y, dtype=float).copy()
    res = np.asarray(f(y), dtype=float)
    steps = 0
    for _ in range(max_iter):
        if float(np.linalg.norm(res)) <= tol:
            break
        y = y - j_inv @ res
        res = np.asarray(f(y), dtype=float)
        steps += 1
    return y, float(np.linalg.norm(res)), steps


def quantitative_ift(
    problem: IftProblem,
    x_target,
    y0=None,
    tol: float = 1e-12,
) -> IftSolution:
    """Solve F(x_target, y) = 0 with a contraction certificate.

    Parameters
    ----------
    x_target : control value, scalar or 1-D array of dimension dim_x.
    y0 : optional warm start for the unknown (defaults to 0, the proof's
        iteration start; a warm start changes nothing about the certificate).
    tol : target on ||F(x_target, y)||, reached within MAX_ITER steps.

    Raises
    ------
    ContractionFailed
        if the sampled contraction bound exceeds 1/2 plus slack.
    RadiusExceeded
        if ||x_target|| exceeds the certified radius min(h_x, h_y/(2 c1 c2)).
    """
    x_target = np.atleast_1d(np.asarray(x_target, dtype=float))
    if x_target.size != problem.dim_x:
        raise ValueError(f"x_target has size {x_target.size}, expected {problem.dim_x}")
    f = problem.residual

    def d_y(x, y):
        return np.asarray(problem.d_y(x, y), dtype=float)

    def d_x(x, y):
        if problem.d_x is not None:
            return np.asarray(problem.d_x(x, y), dtype=float)
        return _fd_jacobian_x(f, x, y)

    x0 = np.zeros(problem.dim_x)
    y_zero = np.zeros(problem.dim_y)
    j0 = d_y(x0, y_zero)
    j0_inv = np.linalg.inv(j0)
    c1 = max(1.0, float(np.linalg.norm(j0_inv, 2)))

    pts = _sample_points(problem)
    eye = np.eye(problem.dim_y)
    contraction_max = 0.0
    c2 = 0.0
    for x, y in pts:
        contraction_max = max(
            contraction_max, float(np.linalg.norm(eye - j0_inv @ d_y(x, y), 2))
        )
        c2 = max(c2, float(np.linalg.norm(d_x(x, y), 2)))
    if contraction_max > 0.5 + CONTRACTION_SLACK:
        raise ContractionFailed(
            f"sampled contraction bound {contraction_max:.4f} exceeds 1/2"
        )

    h_x_certified = min(problem.h_x, problem.h_y / (2.0 * c1 * c2)) if c2 > 0 else problem.h_x
    if float(np.linalg.norm(x_target)) > h_x_certified * (1.0 + 1e-12):
        raise RadiusExceeded(
            f"||x_target|| = {np.linalg.norm(x_target):.4g} exceeds certified "
            f"radius {h_x_certified:.4g}"
        )

    y, res_norm, iterations = frozen_solve(
        lambda y: f(x_target, y), j0_inv, y_zero if y0 is None else y0, tol, MAX_ITER
    )
    if res_norm > tol and res_norm > 1e-8:
        raise NoConvergence(
            f"implicit solve stalled at ||F|| = {res_norm:.3e} after {iterations} steps"
        )
    cert = IftCertificate(
        c1=c1,
        c2=c2,
        h_x=problem.h_x,
        h_y=problem.h_y,
        h_x_certified=float(h_x_certified),
        contraction_max=contraction_max,
        lipschitz_bound=2.0 * c1 * c2,
        samples=len(pts),
    )
    return IftSolution(y=y, residual_norm=res_norm, iterations=iterations, certificate=cert)
