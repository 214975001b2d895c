"""DeformationSpectrum container semantics."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from critedge.errors import DimensionMismatch, ZeroEigenvalue
from critedge.spectrum import DeformationSpectrum, canonical_rows, weighted_moments

POWERS = st.integers(min_value=-3, max_value=3)


def test_count_sum_must_match_dimension():
    with pytest.raises(DimensionMismatch):
        DeformationSpectrum(np.array([1.0 + 0j]), np.array([3]), 5)


def test_length_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        DeformationSpectrum(np.array([1.0 + 0j, 2.0]), np.array([3]), 3)


def test_expand_and_dense_agree(pm_spectrum):
    ev = pm_spectrum.expand()
    assert ev.shape == (100,)
    assert np.array_equal(np.diag(pm_spectrum.dense()), ev)


def test_weights_normalised(pm_spectrum):
    assert pm_spectrum.weights.sum() == pytest.approx(1.0)


def test_operator_norms_raises_on_zero():
    s = DeformationSpectrum(np.array([0.0 + 0j, 1.0]), np.array([1, 4]), 5)
    with pytest.raises(ZeroEigenvalue, match="zero eigenvalue has no inverse norm"):
        s.operator_norms()


def test_json_roundtrip_is_exact(tmp_path, pm_spectrum):
    p = tmp_path / "s.json"
    pm_spectrum.save(p)
    back = DeformationSpectrum.load(p)
    assert np.array_equal(back.eigenvalues, pm_spectrum.eigenvalues)
    assert np.array_equal(back.multiplicities, pm_spectrum.multiplicities)
    assert back.n == pm_spectrum.n
    # identical serialisation again: byte-determinism of the file format
    p2 = tmp_path / "s2.json"
    back.save(p2)
    assert p.read_bytes() == p2.read_bytes()


def test_canonical_merges_exact_duplicates_bitwise():
    # repeated identical values must merge without perturbing the value
    v = 0.1 + 0.2j
    s = DeformationSpectrum(np.array([v, v, v]), np.array([2, 3, 5]), 10)
    c = s.canonical()
    assert c.eigenvalues.size == 1
    assert c.eigenvalues[0] == v
    assert c.multiplicities[0] == 10


def test_canonical_preserves_moments():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=6) + 1j * rng.normal(size=6)
    vals[3] = vals[0]  # force a duplicate out of sort order
    s = DeformationSpectrum(vals, np.array([1, 2, 3, 4, 5, 5]), 20)
    c = s.canonical()
    assert c.multiplicities.sum() == 20
    assert np.sum(s.expand()) == pytest.approx(np.sum(c.expand()))


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32))
def test_canonical_idempotent(k, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=k) + 1j * rng.normal(size=k)
    mult = rng.integers(1, 5, size=k)
    s = DeformationSpectrum(vals, mult, int(mult.sum()))
    c1 = s.canonical()
    c2 = c1.canonical()
    assert np.array_equal(c1.eigenvalues, c2.eigenvalues)
    assert np.array_equal(c1.multiplicities, c2.multiplicities)


def canonical_loop(s: DeformationSpectrum) -> DeformationSpectrum:
    """Entry-by-entry reference for DeformationSpectrum.canonical."""
    order = np.lexsort((s.eigenvalues.imag, s.eigenvalues.real))
    vals, mult = [], []
    for z, m in zip(s.eigenvalues[order], s.multiplicities[order]):
        if vals and z == vals[-1]:
            mult[-1] += int(m)
        else:
            vals.append(z)
            mult.append(int(m))
    return DeformationSpectrum(np.array(vals), np.array(mult), s.n)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32))
def test_canonical_matches_the_loop_reference(k, seed):
    # values from a small pool, some nudged, so runs of exact duplicates
    # sit next to near duplicates that must stay apart
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=4) + 1j * rng.normal(size=4)
    vals = pool[rng.integers(0, 4, size=k)]
    vals[rng.random(k) < 0.3] += 1e-12 * (1 + 1j)
    mult = rng.integers(1, 5, size=k)
    s = DeformationSpectrum(vals, mult, int(mult.sum()))
    # the spectrum alone and as the first row of a stacked block that shares
    # its counts: every row is the loop's canonical form of that row
    block = np.vstack([vals, pool[rng.integers(0, 4, size=(3, k))]])
    stacked = canonical_rows(block, mult, s.n)
    for got, row in zip([s.canonical(), *stacked], [vals, *block]):
        want = canonical_loop(DeformationSpectrum(row, mult, s.n))
        assert np.array_equal(got.multiplicities, want.multiplicities)
        # runs of exact duplicates keep their value bit for bit
        assert np.array_equal(got.eigenvalues.view(float), want.eigenvalues.view(float))


@given(
    POWERS,
    POWERS,
    st.integers(min_value=0, max_value=2**32),
)
def test_moment_is_the_dense_trace(k, l, seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 6))
    shift = complex(rng.normal(), rng.normal())
    offsets = rng.uniform(0.3, 2.0, size) * np.exp(2j * np.pi * rng.random(size))
    mult = rng.integers(1, 4, size=size)
    s = DeformationSpectrum(shift + offsets, mult, int(mult.sum()))
    d = s.dense() - shift * np.eye(s.n)
    want = np.trace(
        np.linalg.matrix_power(d, k) @ np.linalg.matrix_power(d.conj().T, l)
    ) / s.n
    got = s.moment(k, l, shift)
    # |moment| <= max |v - shift|^(k + l), as the weights sum to one
    assert abs(got - want) <= 1e-12 * max(1.0, float(np.max(np.abs(offsets) ** (k + l))))
    assert isinstance(got, float) == (k == l)


def one_pair_moment(values, weights, k, l, shift):
    """The one-pair moment expression the multi-pair primitive must keep."""
    d = np.asarray(values, dtype=complex) - shift
    if k == l:
        return float(np.sum(weights * np.abs(d) ** (2 * k)))
    return complex(np.sum(weights * (d**k * np.conj(d) ** l)))


@given(
    st.lists(st.tuples(POWERS, POWERS), min_size=1, max_size=5),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32),
)
def test_moments_equal_the_one_pair_expression_bitwise(pairs, zero_shift, seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 9))
    values = rng.normal(size=size) + 1j * rng.normal(size=size)
    weights = rng.integers(1, 5, size=size) / 10.0
    shift = 0.0 if zero_shift else complex(rng.normal(), rng.normal())
    got = weighted_moments(values, weights, pairs, shift)
    assert len(got) == len(pairs)
    for (k, l), value in zip(pairs, got):
        want = one_pair_moment(values, weights, k, l, shift)
        assert type(value) is type(want)
        assert np.array_equal(np.array([value]).view(float), np.array([want]).view(float))

    # a stacked (S, K) block: every row as its own call, with K crossing
    # numpy's pairwise-summation block, and a value at the shift in a row
    rows, size = int(rng.integers(1, 5)), int(rng.integers(1, 300))
    values = rng.normal(size=(rows, size)) + 1j * rng.normal(size=(rows, size))
    weights = rng.integers(1, 5, size=(rows, size)) / 10.0
    if rng.random() < 0.25:
        values[rng.integers(rows), rng.integers(size)] = shift
        if min(map(min, pairs)) < 0:
            with pytest.raises(ZeroEigenvalue):
                weighted_moments(values, weights, pairs, shift)
            return
    got = weighted_moments(values, weights, pairs, shift)
    for (k, l), block in zip(pairs, got):
        want = np.array([one_pair_moment(v, w, k, l, shift) for v, w in zip(values, weights)])
        assert block.shape == (rows,) and block.dtype == want.dtype
        assert np.array_equal(block.view(float), want.view(float))


@given(POWERS, POWERS)
def test_moment_raises_only_for_negative_powers_at_a_zero(k, l):
    shift = 0.25 - 0.5j
    s = DeformationSpectrum(np.array([shift, shift + 1.0, shift - 2.0j]), np.array([2, 1, 1]), 4)
    # the one-pair view and the multi-pair primitive, with (k, l) among others
    calls = (lambda: s.moment(k, l, shift), lambda: s.moments(((1, 1), (k, l), (2, 1)), shift))
    for call in calls:
        if min(k, l) < 0:
            with pytest.raises(ZeroEigenvalue):
                call()
        else:
            assert np.all(np.isfinite(call()))


def test_operator_norms(pm_spectrum):
    norm, inv_norm = pm_spectrum.operator_norms()
    assert norm == pytest.approx(1.0)
    assert inv_norm == pytest.approx(1.0)


def test_inverse_trace_functionals(pm_spectrum):
    assert pm_spectrum.moment(-1, -1) == pytest.approx(1.0)
    assert pm_spectrum.moment(-2, -1) == pytest.approx(0.0)
    # tr A^-3 A*^-1 = 1 for the +-1 spectrum
    assert pm_spectrum.moment(-3, -1) == pytest.approx(1.0)
