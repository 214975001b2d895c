"""Two-point trace maps, Jacobians, and the quartet determinant."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from critedge.flow import f_chi_p
from critedge.flow.maps import check_z1z2, cluster_traces, entry_jacobian, realify, unrealify


def fd_jacobian(z1, z2, chi, p, step=1e-6):
    """Central-difference realified Jacobian of the trace pair."""

    def value(v):
        w1, w2 = unrealify(v)
        q = 1.0 - p
        f1 = p * w1 * w1 * np.conj(w1) + q * w2 * w2 * np.conj(w2)
        f2 = (
            p * w1**3 * np.conj(w1)
            + q * w2**3 * np.conj(w2)
            - chi * (p * abs(w1) ** 4 + q * abs(w2) ** 4)
        )
        return realify(complex(f1), complex(f2))

    v0 = realify(z1, z2)
    jac = np.zeros((4, 4))
    for k in range(4):
        e = np.zeros(4)
        e[k] = step
        jac[:, k] = (value(v0 + e) - value(v0 - e)) / (2 * step)
    return jac


def test_value_at_unit_pair():
    # p = 1/2, z1 = 1, z2 = -1: cubic terms cancel in F1 and add in F2
    for chi in (0.0, 0.3, 0.9):
        out = f_chi_p(1.0, -1.0, chi, 0.5)
        f1, f2 = out.f
        assert abs(f1) < 1e-15
        assert abs(f2 - (1.0 - chi)) < 1e-15


def test_realify_roundtrip():
    v = realify(1.5 - 0.25j, -2.0 + 3.0j)
    assert unrealify(v) == (1.5 - 0.25j, -2.0 + 3.0j)


@settings(max_examples=60)
@given(
    x1=st.floats(0.3, 1.5),
    y1=st.floats(-1.0, 1.0),
    x2=st.floats(-1.5, -0.3),
    y2=st.floats(-1.0, 1.0),
    chi=st.floats(0.0, 0.9),
    p=st.floats(0.15, 0.85),
)
def test_jacobian_matches_finite_differences(x1, y1, x2, y2, chi, p):
    z1, z2 = complex(x1, y1), complex(x2, y2)
    out = f_chi_p(z1, z2, chi, p)
    fd = fd_jacobian(z1, z2, chi, p)
    scale = max(1.0, np.abs(out.jacobian).max())
    assert np.abs(out.jacobian - fd).max() < 5e-8 * scale


def test_real_degenerate_corner_at_chi_one():
    # both points real and chi = 1: the two trace kernels coincide on the
    # real axis, so the determinant vanishes identically
    for z1, z2 in ((1.0, -1.0), (0.7, -1.3), (2.0, -0.5)):
        out = f_chi_p(z1, z2, 1.0, 0.5)
        assert abs(np.linalg.det(out.jacobian)) <= 1e-12 * max(1.0, abs(z1), abs(z2)) ** 8
        assert out.inv_norm > 1e10


def test_admissibility_failures_are_listed():
    # same-sign real parts, modulus out of range, chi and p out of range:
    # one call, every violation named
    text = "; ".join(check_z1z2(0.05 + 0j, 0.04 + 0j, 0.95, 0.05, c=0.2))
    assert "same sign" in text
    assert "|z1|" in text and "|z2|" in text
    assert "chi" in text and "p = " in text


def test_admissible_point_passes_the_gate():
    assert check_z1z2(1.0 + 0.3j, -1.1 + 0.2j, 0.4, 0.5, c=0.2) == []
    assert np.isfinite(f_chi_p(1.0 + 0.3j, -1.1 + 0.2j, 0.4, 0.5).inv_norm)


def test_weighted_trace_reduces_to_point_map():
    z1, z2, chi, p = 0.9 + 0.4j, -1.2 + 0.1j, 0.35, 0.3
    f1, f2 = cluster_traces(np.array([z1, z2]), np.array([p, 1.0 - p]), chi, 1.0)
    ref = f_chi_p(z1, z2, chi, p).f
    assert abs(f1 - ref[0]) < 1e-14
    assert abs(f2 - ref[1]) < 1e-14
    jac = entry_jacobian([z1, z2], [p, 1.0 - p], chi, 1.0)
    assert np.abs(jac - f_chi_p(z1, z2, chi, p).jacobian).max() < 1e-14


def test_entry_jacobian_columns_sum_to_shift_blocks():
    # a shift common to a cluster moves each of its entries, so its
    # Jacobian is the sum of the cluster's column pairs
    rng = np.random.default_rng(5)
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    c = rng.uniform(0.5, 2.0, 5)
    chi, mass = 0.45, c.sum()
    entry = entry_jacobian(u, c, chi, mass)
    assert entry.shape == (4, 10)
    step = 1e-6
    for cluster in (slice(0, 3), slice(3, 5)):
        summed = entry.reshape(4, 5, 2)[:, cluster].sum(axis=1)
        for part, e in ((0, step), (1, 1j * step)):
            up, um = u.copy(), u.copy()
            up[cluster] += e
            um[cluster] -= e
            fp = realify(*cluster_traces(up, c, chi, mass))
            fm = realify(*cluster_traces(um, c, chi, mass))
            assert np.abs((fp - fm) / (2 * step) - summed[:, part]).max() < 5e-8


def test_entry_jacobian_matches_finite_differences():
    rng = np.random.default_rng(9)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c = rng.uniform(0.5, 2.0, 4)
    chi, mass = 0.3, c.sum()
    jac = entry_jacobian(u, c, chi, mass)

    step = 1e-6
    for j in range(4):
        for part, e in ((0, step), (1, 1j * step)):
            up = u.copy()
            up[j] += e
            um = u.copy()
            um[j] -= e
            fp = cluster_traces(up, c, chi, mass)
            fm = cluster_traces(um, c, chi, mass)
            col = (realify(*fp) - realify(*fm)) / (2 * step)
            assert np.abs(col - jac[:, 2 * j + part]).max() < 5e-8
