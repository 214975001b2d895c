"""Random generators of exactly critical spectra.

Instances are built backwards: cluster sites and counts are drawn freely,
then two heavy anchor atoms with separated real parts absorb a Newton
correction that zeroes tr B^2 B* and pins tr B^3 B* = chi tr |B|^4 for a
requested chi.  The result is critical to solver precision, not merely to
sampling accuracy, which the flow constructions rely on.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence
from .flow.continuation import anchor_jacobian, anchor_residual, newton
from .flow.maps import cluster_traces, realify, unrealify
from .spectrum import DeformationSpectrum, weighted_moment

__all__ = [
    "random_inverse_critical",
    "random_deformation_critical",
    "random_real_critical",
    "quartet_deformation",
]


# random_inverse_critical keeps every modulus in [1.25 / FRAK_C, 0.8 FRAK_C],
# jitters each unit by up to JITTER per component around its cluster
# center, and redraws at most ATTEMPTS times
FRAK_C = 6.0
JITTER = 0.003
ATTEMPTS = 25
# residual norm at which the anchor Newton solve stops
ANCHOR_TOL = 1e-14


def _anchor_solve(units, starts, mass_l, mass_r, chi):
    """Place two anchors so the combined configuration is critical.

    Damped Newton on the two complex trace equations, retried from each
    start pair; raises NoConvergence when every start stalls (caller
    redraws the clusters).
    """
    mass12 = mass_l + mass_r
    p = mass_l / mass12
    q = cluster_traces(units, 1.0, chi, mass12)
    for start_l, start_r in starts:
        y, _, ok = newton(
            lambda y: anchor_residual(y, 0j, 0j, chi, p, q),
            lambda y: anchor_jacobian(y, 0j, 0j, chi, p),
            realify(start_l, start_r),
            ANCHOR_TOL,
        )
        if ok:
            return unrealify(y)
    raise NoConvergence("anchor placement stalled from every start")


def random_inverse_critical(
    seed: int, n: int = 400, chi: float | None = None
) -> DeformationSpectrum:
    """Random inverse-side critical spectrum, normalised to tr |B|^2 = 1.

    The support consists of jittered clusters in both half planes (plus an
    occasional cluster hugging the imaginary axis) and two exact anchor
    atoms.  chi(B) equals the requested value exactly; drawn uniformly
    from [0.1, 0.7] when omitted.
    """
    for attempt in range(ATTEMPTS):
        rng = np.random.default_rng((seed, attempt))
        chi_val = float(rng.uniform(0.1, 0.7)) if chi is None else float(chi)

        def draw_centers(count, lo, hi):
            re = rng.uniform(lo, hi, count)
            im = rng.uniform(-0.8, 0.8, count)
            return re + 1j * im

        k_left = int(rng.integers(2, 5))
        k_right = int(rng.integers(2, 5))
        centers = [
            draw_centers(k_left, -1.2, -0.4),
            draw_centers(k_right, 0.4, 1.2),
        ]
        if rng.random() < 0.5:
            re = rng.uniform(-0.03, 0.03, 1)
            im = rng.choice([-1.0, 1.0]) * rng.uniform(0.55, 0.95, 1)
            centers.append(re + 1j * im)
        centers = np.concatenate(centers)
        if np.any(np.abs(centers) < 2.0 / FRAK_C) or np.any(
            np.abs(centers) > 0.6 * FRAK_C
        ):
            continue

        mass_l = int(round(n * rng.uniform(0.18, 0.28)))
        mass_r = int(round(n * rng.uniform(0.18, 0.28)))
        free = n - mass_l - mass_r
        if free < centers.size:
            continue
        weights = rng.dirichlet(np.ones(centers.size))
        alloc = np.maximum(1, np.floor(weights * free).astype(int))
        while alloc.sum() > free:
            alloc[int(np.argmax(alloc))] -= 1
        alloc[int(np.argmax(alloc))] += free - int(alloc.sum())

        units = np.concatenate(
            [
                c
                + JITTER
                * (rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k))
                for c, k in zip(centers, alloc)
            ]
        )
        starts = [
            (complex(-0.85, 0.05), complex(0.85, -0.05)),
            (complex(-0.7, -0.2), complex(0.95, 0.15)),
            (complex(-1.05, 0.25), complex(0.7, -0.2)),
        ]
        try:
            new_l, new_r = _anchor_solve(units, starts, mass_l, mass_r, chi_val)
        except NoConvergence:
            continue
        if new_l.real >= -0.3 or new_r.real <= 0.3:
            continue
        if not (0.35 <= abs(new_l) <= 1.6 and 0.35 <= abs(new_r) <= 1.6):
            continue
        values = np.concatenate([units, [new_l, new_r]])
        counts = np.concatenate([np.ones(units.size, dtype=np.int64), [mass_l, mass_r]])
        scale = float(np.sqrt(weighted_moment(values, counts, 1, 1) / n))
        values = values / scale
        moduli = np.abs(values)
        if moduli.min() < 1.25 / FRAK_C or moduli.max() > 0.8 * FRAK_C:
            continue
        return DeformationSpectrum(values, counts, n)
    raise NoConvergence(
        f"no admissible critical instance after {ATTEMPTS} draws (seed {seed})"
    )


def random_deformation_critical(
    seed: int, n: int = 400, chi: float | None = None
) -> DeformationSpectrum:
    """Random normal deformation, critical at the origin.

    Built as the eigenvalue-wise inverse of :func:`random_inverse_critical`,
    so tr |A|^-2 = 1 holds exactly and the inverse-side derivation recovers
    the generating spectrum with phase zero.
    """
    b = random_inverse_critical(seed, n=n, chi=chi)
    return b.with_eigenvalues(1.0 / b.eigenvalues)


def random_real_critical(seed: int, n: int = 400) -> DeformationSpectrum:
    """Random real critical spectrum (chi = 1 case).

    Positive sites are drawn freely; the negative sites share a common
    scale factor solving the third-moment balance exactly.
    """
    rng = np.random.default_rng(seed)
    k_pos = int(rng.integers(2, 6))
    k_neg = int(rng.integers(2, 6))
    xp = rng.uniform(0.5, 1.6, k_pos)
    xn = -rng.uniform(0.5, 1.6, k_neg)
    counts = np.maximum(1, rng.multinomial(n - k_pos - k_neg,
                                           rng.dirichlet(np.ones(k_pos + k_neg))) + 1)
    counts[-1] += n - int(counts.sum())
    cp, cn = counts[:k_pos].astype(float), counts[k_pos:].astype(float)
    lam = (-weighted_moment(xp, cp, 3, 0).real / weighted_moment(xn, cn, 3, 0).real) ** (1 / 3)
    xn = lam * xn
    values = np.concatenate([xp, xn]).astype(complex)
    return DeformationSpectrum(values, counts, n)


def quartet_deformation(c: float, n: int = 4) -> DeformationSpectrum:
    """Normal reference family with eigenvalues at +-1 +- ic, equal counts.

    Normalised so tr |A|^-2 = 1; the skew trace vanishes by the four-fold
    symmetry.  alpha runs over [-1/3, 1] as c runs over [0, 1].
    """
    if n % 4:
        raise ValueError(f"dimension must be a multiple of 4, got {n}")
    d = np.array([1 + 1j * c, 1 - 1j * c, -1 + 1j * c, -1 - 1j * c])
    scale = float(np.sqrt(weighted_moment(d, 0.25, -1, -1)))
    counts = np.full(4, n // 4, dtype=np.int64)
    return DeformationSpectrum(scale * d, counts, n)
