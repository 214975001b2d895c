"""Quantitative implicit-function solver on closed-form toy systems."""

import numpy as np
import pytest
import scipy.optimize

from critedge.errors import ContractionFailed, NoConvergence, RadiusExceeded
from critedge.flow import IftProblem, quantitative_ift


def cubic_problem(eps, h_x=1.0, h_y=1.0):
    # F(x, y) = y + eps y^3 - x; F_y(0,0) = 1 so c1 = 1, the sampled
    # contraction bound is 3 eps h_y^2 and c2 = |F_x| = 1.
    def residual(x, y):
        return np.array([y[0] + eps * y[0] ** 3 - x])

    def d_y(x, y):
        return np.array([[1.0 + 3.0 * eps * y[0] ** 2]])

    def d_x(x, y):
        return np.array([-1.0])

    return IftProblem(residual=residual, d_y=d_y, d_x=d_x, h_x=h_x, h_y=h_y, dim_y=1)


def cubic_root(eps, x):
    """Independent oracle: the real root of eps y^3 + y - x via np.roots."""
    roots = np.roots([eps, 0.0, 1.0, -x])
    real = roots[np.abs(roots.imag) < 1e-9].real
    assert real.size == 1
    return float(real[0])


def test_scalar_cubic_matches_companion_matrix_root():
    eps, x = 0.1, 0.3
    sol = quantitative_ift(cubic_problem(eps), x, tol=1e-13)
    assert abs(sol.y[0] - cubic_root(eps, x)) < 1e-12
    assert sol.residual_norm <= 1e-13


def test_certificate_constants_scalar():
    sol = quantitative_ift(cubic_problem(0.1), 0.2)
    cert = sol.certificate
    assert cert.c1 == 1.0
    assert cert.c2 == 1.0
    # certified radius = min(h_x, h_y / (2 c1 c2))
    assert cert.h_x_certified == pytest.approx(0.5)
    assert cert.contraction_max == pytest.approx(0.3, rel=1e-5)
    assert cert.contraction_max <= 0.5


def test_radius_exceeded():
    with pytest.raises(RadiusExceeded):
        quantitative_ift(cubic_problem(0.1), 0.6)


def test_contraction_failed_for_strong_nonlinearity():
    with pytest.raises(ContractionFailed):
        quantitative_ift(cubic_problem(1.0), 0.1)


def test_stalled_solve_raises_no_convergence():
    # a residual with a 1e-10 jump at its root: the frozen iteration
    # alternates around it with ||F|| = 2e-10, below 1e-8 but above tol
    def residual(x, y):
        return np.array([y[0] - x + 1e-10 * np.sign(y[0] - x)])

    problem = IftProblem(
        residual=residual,
        d_y=lambda x, y: np.array([[1.0]]),
        d_x=lambda x, y: np.array([-1.0]),
        h_x=1.0, h_y=1.0, dim_y=1,
    )
    with pytest.raises(NoConvergence, match="stalled"):
        quantitative_ift(problem, 0.3, tol=1e-12)


def test_warm_start_changes_nothing_but_iterations():
    eps, x = 0.1, 0.3
    cold = quantitative_ift(cubic_problem(eps), x, tol=1e-13)
    warm = quantitative_ift(cubic_problem(eps), x, y0=cold.y, tol=1e-13)
    assert abs(cold.y[0] - warm.y[0]) < 1e-13
    assert warm.iterations <= 1


def test_geometric_decay_iteration_budget():
    # contraction 0.3 means ~ log(1e-13)/log(0.3) ~ 25 corrections suffice
    sol = quantitative_ift(cubic_problem(0.1), 0.3, tol=1e-13)
    assert sol.iterations < 40


def test_planar_system_against_minpack():
    # the scalar control x moves the forcing along the unit direction u
    m = np.array([[2.0, 0.3], [0.1, 1.5]])
    u = np.array([0.8, -0.6])

    def residual(x, y):
        return m @ y + 0.05 * y * (y @ y) - x * u

    def d_y(x, y):
        return m + 0.05 * ((y @ y) * np.eye(2) + 2.0 * np.outer(y, y))

    problem = IftProblem(
        residual=residual, d_y=d_y, d_x=lambda x, y: -u, h_x=0.5, h_y=1.0, dim_y=2
    )
    x = 0.25
    sol = quantitative_ift(problem, x, tol=1e-12)
    oracle = scipy.optimize.root(lambda y: residual(x, y), np.zeros(2), tol=1e-13)
    assert oracle.success
    assert np.linalg.norm(sol.y - oracle.x) < 1e-10
    assert np.linalg.norm(residual(x, sol.y)) <= 1e-12
    assert sol.certificate.c1 >= 1.0
    assert sol.certificate.c2 == pytest.approx(1.0)
    assert sol.certificate.contraction_max <= 0.5
