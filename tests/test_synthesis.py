"""Generator post-conditions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critedge.criticality import chi
from critedge.synthesis import (
    random_deformation_critical,
    random_inverse_critical,
    random_real_critical,
)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25)
def test_inverse_generator_invariants(seed):
    b = random_inverse_critical(seed, n=400)
    w = b.weights
    ev = b.eigenvalues
    # second moment normalised, skew trace zero, chi real in window
    assert float(np.sum(w * np.abs(ev) ** 2)) == pytest.approx(1.0, abs=1e-12)
    assert abs(complex(np.sum(w * ev**2 * np.conj(ev)))) <= 1e-12
    chi_val, chi_imag = chi(b)
    assert abs(chi_imag) <= 1e-10
    assert 0.05 <= chi_val <= 0.75
    mods = np.abs(ev)
    assert mods.min() >= 1.0 / 6.0
    assert mods.max() <= 6.0
    assert int(b.multiplicities.sum()) == 400


def test_inverse_generator_pins_requested_chi():
    for seed in (1, 5, 9):
        b = random_inverse_critical(seed, chi=0.42)
        assert chi(b)[0] == pytest.approx(0.42, abs=1e-10)


def test_generators_deterministic():
    b1 = random_inverse_critical(123)
    b2 = random_inverse_critical(123)
    assert np.array_equal(b1.eigenvalues, b2.eigenvalues)
    assert np.array_equal(b1.multiplicities, b2.multiplicities)


def test_deformation_generator_is_inverse_side_reciprocal():
    b = random_inverse_critical(7)
    a = random_deformation_critical(7)
    assert np.allclose(a.eigenvalues, 1.0 / b.eigenvalues)
    # criticality on the deformation side
    w = a.weights
    assert float(np.sum(w / np.abs(a.eigenvalues) ** 2)) == pytest.approx(1.0, abs=1e-12)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25)
def test_real_generator_balance(seed):
    b = random_real_critical(seed, n=400)
    assert float(np.max(np.abs(b.eigenvalues.imag))) == 0.0
    # third moment balance is the real-case skew condition
    m3 = float(np.sum(b.weights * b.eigenvalues.real**3))
    assert abs(m3) <= 1e-12
    assert (b.eigenvalues.real > 0).any() and (b.eigenvalues.real < 0).any()
    assert int(b.multiplicities.sum()) == 400
