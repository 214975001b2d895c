"""Quantitative implicit function solver with a numerical certificate.

Solves F(x, y) = 0 for the vector y near a base point where F(0, 0) = 0,
as a function of one scalar control x, by the frozen-Jacobian fixed point
f_x(y) = y - (D_yF(0,0))^-1 F(x, y).  Before iterating, the contraction
bound

    || I - (D_yF(0,0))^-1 D_yF(x, y) || <= 1/2

is verified on a sample of the control/unknown box (the origin, the axis
points and SAMPLES random points), and the certified input radius is
shrunk to  min(h_x, h_y / (2 C1 C2))  with C1 = 1 or the inverse Jacobian
norm (whichever is larger) and C2 the largest Euclidean norm of the
analytic control derivative d_x on the sample.  The iterate error then
halves per step and the solution map is Lipschitz with constant at most
2 C1 C2.
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

    The control x is a float and the unknown y a 1-D float array of size
    ``dim_y``.  ``residual(x, y)`` returns F as an array of that size,
    ``d_y(x, y)`` its Jacobian in y and ``d_x(x, y)`` its derivative in x,
    a vector.  ``h_x``/``h_y`` are the box radii (Euclidean in y) within
    which the contraction property is claimed.
    """

    residual: Callable
    d_y: Callable
    d_x: Callable
    h_x: float
    h_y: float
    dim_y: int


@dataclass(frozen=True)
class IftCertificate:
    c1: float
    c2: float
    h_y: float
    h_x_certified: float
    contraction_max: float


@dataclass(frozen=True)
class IftSolution:
    y: np.ndarray
    residual_norm: float
    iterations: int
    certificate: IftCertificate


def _sample_points(problem: IftProblem) -> list[tuple[float, np.ndarray]]:
    """Deterministic sample of the (x, y) box: the origin, the axis points
    at full and half radius, and SAMPLES random points."""
    ny = problem.dim_y
    rng = np.random.default_rng(20240814)
    pts = [(0.0, np.zeros(ny))]
    for scale in (1.0, 0.5):
        pts += [(scale * problem.h_x, np.zeros(ny)), (-scale * problem.h_x, np.zeros(ny))]
        pts += [(0.0, scale * problem.h_y * e) for e in np.eye(ny)]
    for _ in range(SAMPLES):
        # a normal draw gives the sign of x: the order of the draws fixes
        # the sampled points, which tests/data/certificate_golden.json pins
        sign = float(np.sign(rng.standard_normal()))
        dy = rng.standard_normal(ny)
        dy = dy / (np.linalg.norm(dy) or 1.0) * problem.h_y
        pts.append((sign * problem.h_x * rng.uniform(0.2, 1.0), dy * rng.uniform(0.2, 1.0)))
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


def quantitative_ift(problem: IftProblem, x_target: float, y0=None,
                     tol: float = 1e-12) -> IftSolution:
    """Solve F(x_target, y) = 0 with a contraction certificate.

    Parameters
    ----------
    x_target : control value.
    y0 : optional warm start for the unknown (defaults to 0, the proof's
        iteration start; a warm start changes nothing about the certificate).
    tol : target on ||F(x_target, y)||, reached within MAX_ITER steps.

    Raises
    ------
    ContractionFailed
        if the sampled contraction bound exceeds 1/2 plus slack.
    RadiusExceeded
        if |x_target| exceeds the certified radius min(h_x, h_y/(2 c1 c2)).
    NoConvergence
        if MAX_ITER steps leave ||F|| above tol.
    """
    y_zero = np.zeros(problem.dim_y)
    j0_inv = np.linalg.inv(np.asarray(problem.d_y(0.0, y_zero), dtype=float))
    c1 = max(1.0, float(np.linalg.norm(j0_inv, 2)))

    eye = np.eye(problem.dim_y)
    contraction_max = 0.0
    c2 = 0.0
    for x, y in _sample_points(problem):
        contraction_max = max(
            contraction_max, float(np.linalg.norm(eye - j0_inv @ problem.d_y(x, y), 2))
        )
        c2 = max(c2, float(np.linalg.norm(problem.d_x(x, y))))
    if contraction_max > 0.5 + CONTRACTION_SLACK:
        raise ContractionFailed(f"sampled contraction bound {contraction_max:.4f} exceeds 1/2")

    h_x_certified = min(problem.h_x, problem.h_y / (2.0 * c1 * c2)) if c2 > 0 else problem.h_x
    if abs(x_target) > h_x_certified * (1.0 + 1e-12):
        raise RadiusExceeded(
            f"|x_target| = {abs(x_target):.4g} exceeds certified radius {h_x_certified:.4g}"
        )

    y, res_norm, iterations = frozen_solve(
        lambda y: problem.residual(x_target, y), j0_inv, y_zero if y0 is None else y0, tol, MAX_ITER
    )
    if res_norm > tol:
        raise NoConvergence(
            f"implicit solve stalled at ||F|| = {res_norm:.3e} after {iterations} steps"
        )
    cert = IftCertificate(c1=c1, c2=c2, h_y=problem.h_y, h_x_certified=float(h_x_certified),
                          contraction_max=contraction_max)
    return IftSolution(y=y, residual_norm=res_norm, iterations=iterations, certificate=cert)
