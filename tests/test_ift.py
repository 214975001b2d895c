"""Quantitative implicit-function solver on closed-form toy systems."""

import numpy as np
import pytest
import scipy.optimize

from critedge.errors import ContractionFailed, RadiusExceeded
from critedge.flow import IftProblem, quantitative_ift


def cubic_problem(eps, h_x=1.0, h_y=1.0, analytic_x=False):
    # F(x, y) = y + eps y^3 - x; F_y(0,0) = 1 so c1 = 1 and the sampled
    # contraction bound is 3 eps h_y^2.
    def residual(x, y):
        return np.array([y[0] + eps * y[0] ** 3 - x[0]])

    def d_y(x, y):
        return np.array([[1.0 + 3.0 * eps * y[0] ** 2]])

    d_x = (lambda x, y: np.array([[-1.0]])) if analytic_x else None
    return IftProblem(
        residual=residual, h_x=h_x, h_y=h_y, dim_x=1, dim_y=1, d_y=d_y, d_x=d_x
    )


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
    assert cert.c2 == pytest.approx(1.0)
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


def test_analytic_and_fd_jacobians_agree():
    eps, x = 0.08, 0.25
    # d_x enters through the control-derivative bound c2 = sup ||D_x F||
    a = quantitative_ift(cubic_problem(eps, analytic_x=True), x, tol=1e-13)
    b = quantitative_ift(cubic_problem(eps, analytic_x=False), x, tol=1e-13)
    assert abs(a.y[0] - b.y[0]) < 1e-11
    assert a.certificate.c2 == 1.0
    assert b.certificate.c2 == pytest.approx(1.0, rel=1e-6)
    assert a.certificate.h_x_certified == pytest.approx(
        b.certificate.h_x_certified, rel=1e-6
    )


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
    m = np.array([[2.0, 0.3], [0.1, 1.5]])

    def residual(x, y):
        return m @ y + 0.05 * y * (y @ y) - x

    def d_y(x, y):
        return m + 0.05 * ((y @ y) * np.eye(2) + 2.0 * np.outer(y, y))

    problem = IftProblem(residual=residual, h_x=0.5, h_y=1.0, dim_x=2, dim_y=2, d_y=d_y)
    x = np.array([0.2, -0.15])
    sol = quantitative_ift(problem, x, tol=1e-12)
    oracle = scipy.optimize.root(lambda y: residual(x, y), np.zeros(2), tol=1e-13)
    assert oracle.success
    assert np.linalg.norm(sol.y - oracle.x) < 1e-10
    assert np.linalg.norm(residual(x, sol.y)) <= 1e-12
    assert sol.certificate.c1 >= 1.0
    assert sol.certificate.contraction_max <= 0.5


def test_x_target_size_mismatch():
    with pytest.raises(ValueError):
        quantitative_ift(cubic_problem(0.1), np.array([0.1, 0.2]))
