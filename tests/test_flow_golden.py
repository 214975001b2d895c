"""Golden outputs of the flow builders and the critical-spectrum generator.

``data/flow_golden.npz`` was written at commit 550ae2b from these inputs:

* ``random_inverse_critical(seed, n=80)`` for seed 0 and 3, run through
  ``finite_support_flow(b, 6.0)`` -> ``independent_count_target`` ->
  ``fix_spectrum_flow``, all with ``FlowConfig(grid_points=65)``;
* ``hermitian_flow(random_real_critical(7, n=80), 6.0, FlowConfig(grid_points=65))``;
* ``random_inverse_critical(seed)`` for seed 0, 1, 3 and 6.

The ``finite_support3``, ``fix3`` and ``count_target3`` keys were
rewritten when the shrink leg stopped splitting the copies of one atom
into two sites a rounding error apart (sizes 44 -> 43 from state 33).

Grids, support sizes and multiplicities must match exactly; eigenvalues,
residuals and derivative estimates within 1e-13.  A change that moves any
of them changes what the builders compute, not just how.
"""

from pathlib import Path

import numpy as np
import pytest

from critedge.flow import (
    FlowConfig,
    finite_support_flow,
    fix_spectrum_flow,
    hermitian_flow,
    independent_count_target,
)
from critedge.synthesis import random_inverse_critical, random_real_critical

GOLDEN = Path(__file__).parent / "data" / "flow_golden.npz"
TOL = 1e-13


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


def assert_spectrum(golden, name, spec):
    np.testing.assert_array_equal(spec.multiplicities, golden[f"{name}.mult"])
    np.testing.assert_allclose(spec.eigenvalues, golden[f"{name}.eig"], rtol=0, atol=TOL)


def assert_path(golden, name, path):
    np.testing.assert_array_equal(np.array(path.grid), golden[f"{name}.grid"])
    sizes = [s.eigenvalues.size for s in path.states]
    np.testing.assert_array_equal(sizes, golden[f"{name}.sizes"])
    np.testing.assert_array_equal(
        np.concatenate([s.multiplicities for s in path.states]), golden[f"{name}.mult"]
    )
    np.testing.assert_allclose(
        np.concatenate([s.eigenvalues for s in path.states]),
        golden[f"{name}.eig"],
        rtol=0,
        atol=TOL,
    )
    for field in ("residual_crit", "residual_chi", "derivatives"):
        np.testing.assert_allclose(
            getattr(path, field), golden[f"{name}.{field}"], rtol=0, atol=TOL
        )


@pytest.mark.parametrize("seed", [0, 3])
def test_inverse_side_pipeline_matches_golden(golden, seed):
    cfg = FlowConfig(grid_points=65)
    leg1 = finite_support_flow(random_inverse_critical(seed, n=80), 6.0, cfg)
    assert_path(golden, f"finite_support{seed}", leg1)
    target = independent_count_target(leg1.final)
    assert_spectrum(golden, f"count_target{seed}", target)
    assert_path(golden, f"fix{seed}", fix_spectrum_flow(leg1.final, cfg))


def test_hermitian_flow_matches_golden(golden):
    path = hermitian_flow(random_real_critical(7, n=80), 6.0, FlowConfig(grid_points=65))
    assert_path(golden, "hermitian7", path)


@pytest.mark.parametrize("seed", [0, 1, 3, 6])
def test_inverse_critical_generator_matches_golden(golden, seed):
    assert_spectrum(golden, f"inverse_critical{seed}", random_inverse_critical(seed))
