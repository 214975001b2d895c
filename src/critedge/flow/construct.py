"""Flow builders on the inverse side, as parametrisations of one kernel.

Each complex builder is a continuation F(t, w) = 0 of a corrective anchor
shift w, solved and certified by
:func:`~critedge.flow.continuation.continue_anchored`, and each passes the
analytic dF/dt of its residual; they differ only in what moves and which
two traces are held:

* :func:`shrink_clusters` contracts two clusters onto single points along
  straight lines, the two cluster shifts holding both pair traces; the
  residual, d_t and the shift Jacobian all come from one entry array
  through :func:`~critedge.flow.maps.cluster_traces` and
  :func:`~critedge.flow.maps.entry_jacobian`, and it returns the two
  flows with the continuation itself;
  :func:`finite_support_flow` runs it on every matched pair of a box mesh
  and collapses a critical diagonal matrix onto at most M support points;
* :func:`fix_spectrum_flow` moves one finite-support spectrum exactly onto
  its count target, two heavy anchors absorbing the repair
  f_{chi,p}(z1 + w1, z2 + w2) + q = 0 while chi interpolates linearly;
  its dF/dt is the entry Jacobian of q applied to the side sites'
  velocities, less the chi drift of every |.|^4 term;
  the target, :func:`independent_count_target`, is built from the
  spectrum's own sites (folded, snapped, the same repair solved once
  without t), so every site is paired with the one it came from by
  construction;
* :func:`hermitian_flow` handles the real (chi = 1) case in closed form.

Every builder passes the one precondition gate and returns its samples
through the one path assembly, which records tr B^2 B* and the chi
distance at every grid point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..criticality import chi as chi_of
from ..errors import (
    ChainExhausted,
    ConditionViolated,
    DeltaTvExceeded,
    MeshTooCoarse,
    NoConvergence,
    NotReal,
    NoValidConstant,
    PairingInfeasible,
    ResidualExceeded,
    SizePreconditionFailed,
)
from ..spectrum import DeformationSpectrum, weighted_moment
from .continuation import (
    Continuation,
    anchor_jacobian,
    anchor_residual,
    assemble_path,
    continue_anchored,
    gate_inverse_side,
    newton,
)
from .maps import (
    check_z1z2,
    cluster_traces,
    entry_jacobian,
    realify,
    unrealify,
)
from .partition import match_partitions
from .paths import FlowPath, stacked_runs

__all__ = [
    "FlowConfig",
    "half_plane_mass_constant",
    "shrink_clusters",
    "finite_support_flow",
    "fix_spectrum_flow",
    "independent_count_target",
    "hermitian_flow",
]

# largest move of a paired site in fix_spectrum_flow, and largest count
# change as a fraction of N
DELTA_TV = 0.2
# how far the stepped end shift of fix_spectrum_flow may miss the target
ENDPOINT_TOL = 1e-8
# independent_count_target snaps count fractions to multiples of
# 1/COUNT_DENOMINATOR
COUNT_DENOMINATOR = 40


@dataclass(frozen=True)
class FlowConfig:
    """Calibration shared by the flow builders: each samples ``grid_points``
    equal time steps.  The mesh width of :func:`finite_support_flow` is
    ``h0`` (by default 0.1 / frak_c) times each factor of the constant
    ``ladder`` in turn, until every matched pair certifies."""

    grid_points: int = 257
    h0: float | None = None
    ladder: ClassVar[tuple] = (1.0, 0.5, 0.25, 0.125, 0.0625)


# ---------------------------------------------------------------- half plane


def half_plane_mass_constant(b: DeformationSpectrum, frak_c: float) -> float:
    """Largest dyadic c with more than cN spectral mass beyond both lines
    Re = -c and Re = +c.

    The criticality conditions force such a constant below 1/(2 frak_c);
    NoValidConstant therefore signals a violated precondition.
    """
    gate_inverse_side(frak_c, b)
    re = b.eigenvalues.real
    mult = b.multiplicities
    for k in range(1, 60):
        c = 2.0**-k
        if c >= 1.0 / (2.0 * frak_c):
            continue
        if mult[re < -c].sum() > c * b.n and mult[re > c].sum() > c * b.n:
            return c
    raise NoValidConstant(
        "no dyadic constant carries the required half-plane mass; "
        "the input cannot be critical with Re tr B^3 B* >= 0"
    )


# ------------------------------------------------------------------- shrink


def shrink_clusters(v1, v2, z1: complex, z2: complex, chi: float, grid):
    """Contract two clusters onto single points without moving the pair traces.

    Entries travel along straight lines v + t (z - v) toward the centers
    while a common corrective shift per cluster (the implicit function)
    keeps the two mass-normalised traces of all entries, every entry
    counting once, exactly at their initial values, at every time of
    ``grid`` (increasing from 0 to 1).  The caller checks the
    admissibility of the centers.  Returns (flow1, flow2, continuation):
    the positions per (grid point, entry), whose last rows sit on the
    corrected centers, and the certified shift series (zero, with no
    certificate, when every entry already sits on its center).
    """
    v1 = np.asarray(v1, dtype=complex).reshape(-1)
    v2 = np.asarray(v2, dtype=complex).reshape(-1)
    if v1.size == 0 or v2.size == 0:
        raise ConditionViolated(["both clusters must be nonempty"])
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0 or grid[-1] != 1.0 or np.any(np.diff(grid) <= 0):
        raise ConditionViolated(["grid must increase from 0 to 1"])

    sizes = (v1.size, v2.size)
    v = np.concatenate([v1, v2])
    d = np.concatenate([z1 - v1, z2 - v2])
    weights = np.ones(v.size)
    mass = float(v.size)
    f_target = realify(*cluster_traces(v, weights, chi, mass))
    x_dir = np.column_stack([d.real, d.imag]).ravel()  # dt of the realified entries

    # v + t d depends on t alone and the solves revisit one t: keep the last
    @functools.lru_cache(maxsize=1)
    def base_at(t):
        return v + t * d

    def entries(t, w):
        return base_at(t) + np.repeat(unrealify(w), sizes)

    def residual(t, w):
        return realify(*cluster_traces(entries(t, w), weights, chi, mass)) - f_target

    # the certificate takes jacobian and d_t at one (t, w) in turn: keep the last
    @functools.lru_cache(maxsize=1)
    def entry_at(t, w_bytes):
        return entry_jacobian(entries(t, np.frombuffer(w_bytes)), weights, chi, mass)

    def jacobian(t, w):
        # a cluster's shift moves all its entries: sum its column pairs
        cols = entry_at(t, w.tobytes()).reshape(4, -1, 2)
        return np.hstack([cols[:, :v1.size].sum(axis=1), cols[:, v1.size:].sum(axis=1)])

    def d_t(t, w):
        return entry_at(t, w.tobytes()) @ x_dir

    # with every entry on its center F(t, 0) = F(0, 0) = 0 for all t
    cont = (continue_anchored(residual, jacobian, d_t, grid) if d.any()
            else Continuation(np.zeros((grid.size, 2), dtype=complex), (), 0))
    flows = v + grid[:, None] * d
    flows[:, :v1.size] += cont.shifts[:, :1]
    flows[:, v1.size:] += cont.shifts[:, 1:]
    # the end rows sit exactly on the corrected centers
    flows[-1] = np.repeat(np.array([z1, z2]) + cont.shifts[-1], sizes)
    return flows[:, :v1.size], flows[:, v1.size:], cont


# ------------------------------------------------------- finite support flow


def _mesh_blocks(units: np.ndarray, idx: np.ndarray, h: float):
    """Partition a class of unit indices into clusters of sup-radius <= h/2.

    Units are binned into half-width boxes keyed by right-closed intervals
    (sign-safe at Re = 0), then adjacent boxes merge greedily while the
    union's bounding box stays within the radius.  Returns sorted index
    tuples in deterministic order.
    """
    side = h / 2.0
    boxes: dict[tuple[int, int], list[int]] = {}
    for i in idx:
        u = units[i]
        key = (
            int(math.ceil(u.real / side)) - 1,
            int(math.ceil(u.imag / side)) - 1,
        )
        boxes.setdefault(key, []).append(int(i))
    blocks = []
    cur: list[int] = []
    bbox = None
    for key in sorted(boxes):
        members = boxes[key]
        vals = units[members]
        lo_re, hi_re = vals.real.min(), vals.real.max()
        lo_im, hi_im = vals.imag.min(), vals.imag.max()
        if cur:
            n_bbox = (
                min(bbox[0], lo_re), max(bbox[1], hi_re),
                min(bbox[2], lo_im), max(bbox[3], hi_im),
            )
            if max(n_bbox[1] - n_bbox[0], n_bbox[3] - n_bbox[2]) / 2.0 <= side:
                cur.extend(members)
                bbox = n_bbox
                continue
            blocks.append(tuple(sorted(cur)))
        cur = list(members)
        bbox = (lo_re, hi_re, lo_im, hi_im)
    if cur:
        blocks.append(tuple(sorted(cur)))
    return blocks


def finite_support_flow(
    b: DeformationSpectrum, frak_c: float, cfg: FlowConfig | None = None
) -> FlowPath:
    """Flow a critical diagonal matrix onto finitely many support points.

    Pipeline: half-plane mass constant, four sign classes, transfer of
    ceil(c0/2 * N_i^-+) outer units toward each inner class, clustering on a
    box mesh of side h/2, partition matching per pairing, one conservative
    cluster shrink per matched pair, all pairs evolved on a shared grid.
    The mesh half-width h starts at 0.1/frak_c and halves until every pair
    certifies; the final h and the bound M = 100 frak_c^2/h^2 are recorded
    in ``meta``.
    """
    cfg = cfg or FlowConfig()
    c0 = half_plane_mass_constant(b, frak_c)
    chi_re, chi_im = chi_of(b)
    units = b.expand()
    grid = np.linspace(0.0, 1.0, cfg.grid_points)
    h0 = cfg.h0 if cfg.h0 is not None else 0.1 / frak_c
    attempts = []
    for mult in cfg.ladder:
        h = h0 * mult
        try:
            return _finite_support_attempt(
                b, units, chi_re, complex(chi_re, chi_im), c0, h, frak_c, grid
            )
        except (
            ChainExhausted,
            MeshTooCoarse,
            NoConvergence,
            PairingInfeasible,
        ) as exc:
            attempts.append(f"h={h:.5g}: {type(exc).__name__}: {exc}")
    raise MeshTooCoarse("mesh ladder exhausted: " + " | ".join(attempts))


def _finite_support_attempt(b, units, chi_re, chi_full, c0, h, frak_c, grid):
    n = b.n
    re = units.real
    idx = np.arange(n)
    o_plus = idx[re > c0]
    o_minus = idx[re <= -c0]
    i_plus = idx[(re > 0.0) & (re <= c0)]
    i_minus = idx[(re > -c0) & (re <= 0.0)]

    blocks_i_minus = _mesh_blocks(units, i_minus, h)
    blocks_i_plus = _mesh_blocks(units, i_plus, h)
    # donate at least one outer unit per inner box so every box gets an
    # opposite-sign partner even when ceil((c0/2) N_i) is tiny
    k_plus = max(math.ceil(c0 / 2.0 * i_minus.size), len(blocks_i_minus))
    k_minus = max(math.ceil(c0 / 2.0 * i_plus.size), len(blocks_i_plus))
    if k_plus >= o_plus.size or k_minus >= o_minus.size:
        raise PairingInfeasible(
            "outer classes too small to donate units toward the inner strips"
        )
    oi_plus, oo_plus = o_plus[:k_plus], o_plus[k_plus:]
    oi_minus, oo_minus = o_minus[:k_minus], o_minus[k_minus:]

    c_geom = 0.98 * min(c0, 1.0 / frak_c - 0.75 * h, 1.0 / (frak_c + h))
    if c_geom <= 0:
        raise MeshTooCoarse(f"h = {h:.4g} leaves no modulus margin")

    def transfer_jobs(name, donors, inner_blocks):
        # one donor unit per tight sub-block, donors spread by block mass
        masses = np.array([len(blk) for blk in inner_blocks], dtype=float)
        alloc = np.ones(len(inner_blocks), dtype=int)
        for _ in range(donors.size - len(inner_blocks)):
            ratios = np.where(alloc < masses, masses / alloc, -1.0)
            j = int(np.argmax(ratios))
            if ratios[j] < 0:
                break
            alloc[j] += 1
        out = []
        pos = 0
        for j, blk in enumerate(inner_blocks):
            for chunk in np.array_split(np.asarray(blk), alloc[j]):
                out.append((name, np.array([donors[pos]]), chunk))
                pos += 1
        return out

    pairings = [
        ("oi+/i-", oi_plus, i_minus, blocks_i_minus),
        ("oi-/i+", oi_minus, i_plus, blocks_i_plus),
        ("oo-/oo+", oo_minus, oo_plus, None),
    ]
    jobs = []
    for name, side1, side2, inner_blocks in pairings:
        if side1.size == 0 and side2.size == 0:
            continue
        if side1.size == 0 or side2.size == 0:
            raise PairingInfeasible(f"pairing {name} has one empty side")
        blocks1 = _mesh_blocks(units, side1, h)
        blocks2 = _mesh_blocks(units, side2, h) if inner_blocks is None else inner_blocks
        ratio = side1.size / side2.size
        try:
            matching = match_partitions(blocks1, blocks2, 0.9 * min(ratio, 1.0 / ratio))
        except SizePreconditionFailed as exc:
            # the matcher's size floor is out of reach for the thin donor
            # sides at small N; fall back to unit-level donation
            if inner_blocks is None:
                raise PairingInfeasible(
                    f"pairing {name}: no matching (sizes {side1.size}/{side2.size}): {exc}"
                ) from exc
            jobs.extend(transfer_jobs(name, side1, inner_blocks))
            continue
        for ref1, ref2 in zip(matching.refined_s1, matching.refined_s2):
            jobs.append((name, np.array(ref1), np.array(ref2)))

    t_count = grid.size
    flows = np.tile(units, (t_count, 1))
    certs = []
    fallback = 0
    max_shift = 0.0
    for name, idx1, idx2 in jobs:
        v1 = units[idx1]
        v2 = units[idx2]
        # copies of one atom keep their value: np.mean of equal entries can
        # land an ulp away, and an atom split over two jobs would split
        z1, z2 = (complex(v[0] if np.all(v == v[0]) else np.mean(v)) for v in (v1, v2))
        m1, m2 = idx1.size, idx2.size
        p = m1 / (m1 + m2)
        ratio = m1 / m2
        c_z = 0.98 * min(c_geom, p, 1.0 - p, ratio / 2.0, 1.0 / (2.0 * ratio))
        bad = check_z1z2(z1, z2, chi_re, p, c_z)
        if bad:
            raise PairingInfeasible(f"pairing {name}: centers violate {bad}")
        flows[:, idx1], flows[:, idx2], cont = shrink_clusters(v1, v2, z1, z2, chi_re, grid)
        fallback += cont.fallback_steps
        max_shift = max(max_shift, float(np.max(np.abs(cont.shifts))))
        worst = max(cont.certificates, key=lambda cert: cert["contraction"],
                    default={"contraction": 0.0, "c1": 0.0, "c2": 0.0})
        certs.append(
            {
                "pairing": name,
                "sizes": (int(m1), int(m2)),
                "c_pair": c_z,
                "contraction": worst["contraction"],
                "lipschitz": 2.0 * worst["c1"] * worst["c2"],
                "legs": len(cont.certificates),
            }
        )

    m_bound = 100.0 * frak_c**2 / h**2
    meta = {
        "h": h,
        "c0": c0,
        "c_geom": c_geom,
        "m_bound": m_bound,
        "pairs": len(jobs),
        "max_shift": max_shift,
        "newton_fallback_steps": fallback,
        "pair_certificates": certs,
    }
    path = assemble_path(
        grid, flows, np.ones(n), n, np.full(t_count, chi_full), "shrink", meta
    )
    support_final = path.final.eigenvalues.size
    if support_final > m_bound:
        raise MeshTooCoarse(
            f"final support {support_final} exceeds M = {m_bound:.1f}"
        )
    path.meta.update(
        support_final=int(support_final),
        frak_c1=max(
            frak_c,
            max(max(m.max(), 1.0 / m.min())
                for m in (np.abs(vals) for _, vals, _ in stacked_runs(path.states))),
        ) * (1 + 1e-12),
    )
    return path


# ------------------------------------------------------------------ fix flow


def _anchor_pair(re: np.ndarray, counts: np.ndarray):
    """The two heavy anchors of a repair and the sites left over.

    i1 (i2) is the heaviest site whose real parts, one row of ``re`` per
    endpoint, are all negative (positive).  Returns (i1, i2, p, mass12,
    rest) with mass12 their joint count, p = counts[i1] / mass12 and rest
    the other sites of positive count.
    """
    counts = np.asarray(counts, dtype=float)
    live = counts > 0
    left = np.where(np.all(re < 0, axis=0) & live, counts, -1.0)
    right = np.where(np.all(re > 0, axis=0) & live, counts, -1.0)
    if left.max() < 0 or right.max() < 0:
        raise ConditionViolated(["need heavy blocks on both sides of the imaginary axis"])
    i1, i2 = int(np.argmax(left)), int(np.argmax(right))
    mass12 = counts[i1] + counts[i2]
    live[[i1, i2]] = False
    return i1, i2, counts[i1] / mass12, mass12, np.flatnonzero(live)


def _count_target_sites(b: DeformationSpectrum):
    """b's sites paired with those of its count target, by construction.

    Returns (z0, z1, n0, n1): site k sits at z0[k] with count n0[k] in b
    and at z1[k] with count n1[k] in the target.  The first entries are
    b's canonical sites.  Sites with fewer than half a quantum
    n/COUNT_DENOMINATOR of count fold into their nearest neighbour; the
    counts then snap to multiples of the quantum, and sites that snap to
    zero keep their value with target count 0.  The two heaviest
    surviving blocks with separated real parts absorb the value
    correction that restores tr B^2 B* = 0 and the chi of b exactly.  A
    site the correction moves by more than DELTA_TV leaves from its old
    value with target count 0 and arrives as a new site of count 0 in b.
    """
    n = b.n
    spec = b.canonical()
    z0 = spec.eigenvalues
    q = n / COUNT_DENOMINATOR
    sites = list(range(z0.size))
    cnts = [int(m) for m in spec.multiplicities]
    # fold sub-quantum sites into their nearest neighbour first, so the
    # snap moves mass locally and the critical repair stays small
    while len(sites) > 2:
        k = min(range(len(sites)), key=lambda i: (cnts[i], i))
        if cnts[k] >= 0.5 * q:
            break
        dist = [abs(z0[s] - z0[sites[k]]) if j != k else np.inf for j, s in enumerate(sites)]
        j = int(np.argmin(dist))
        cnts[j] += cnts[k]
        del sites[k], cnts[k]
    raw = np.array(cnts) / q
    snapped = np.round(raw)
    # largest-remainder rebalance to keep the total at COUNT_DENOMINATOR units
    excess = int(round(snapped.sum() - COUNT_DENOMINATOR))
    residue = raw - snapped
    while excess > 0:
        cand = np.where(snapped > 0, residue, np.inf)
        i = int(np.argmin(cand))
        snapped[i] -= 1
        residue[i] += 1
        excess -= 1
    while excess < 0:
        i = int(np.argmax(residue))
        snapped[i] += 1
        residue[i] -= 1
        excess += 1
    counts = np.rint(snapped * q).astype(np.int64)
    if int(counts.sum()) != n:
        # q non-integer: park the leftover on the largest block
        counts[int(np.argmax(counts))] += n - int(counts.sum())

    keep = counts > 0
    sites = np.array(sites)[keep]
    z = z0[sites]
    counts = counts[keep]

    chi_val = chi_of(b)[0]
    i1, i2, p, mass12, rest = _anchor_pair(z.real[None, :], counts)
    q = cluster_traces(z[rest], counts[rest], chi_val, mass12)
    y, nrm, ok = newton(
        lambda w: anchor_residual(w, z[i1], z[i2], chi_val, p, q),
        lambda w: anchor_jacobian(w, z[i1], z[i2], chi_val, p),
        np.zeros(4),
    )
    if not ok:
        raise NoConvergence(f"target repair stalled at ||F|| = {nrm:.3e}")
    w1, w2 = unrealify(y)
    z[i1] += w1
    z[i2] += w2

    z1 = z0.copy()
    n1 = np.zeros(z0.size)
    z1[sites] = z
    n1[sites] = counts
    far = np.abs(z1 - z0) > DELTA_TV
    return (
        np.concatenate([z0, z1[far]]),
        np.concatenate([np.where(far, z0, z1), z1[far]]),
        np.concatenate([spec.multiplicities, np.zeros(far.sum())]),
        np.concatenate([np.where(far, 0.0, n1), n1[far]]),
    )


def fix_spectrum_flow(b0: DeformationSpectrum, cfg: FlowConfig | None = None) -> FlowPath:
    """Deform one finite-support spectrum exactly onto its count target.

    The target is :func:`independent_count_target` of b0, and the sites of
    the two are paired where the target is built from b0's sites
    (:func:`_count_target_sites`).  Two heavy blocks with separated real
    parts absorb the correction solved by the implicit function theorem,
    the other blocks interpolate linearly, and the count imbalance travels
    as polar-interpolated rank-one pieces.  chi moves linearly from
    chi(B0) to chi(B1) by construction.  frak_c is the smallest bound,
    with 5 % room, that admits both endpoints.
    """
    cfg = cfg or FlowConfig()
    n = b0.n
    z0, z1, n0, n1 = _count_target_sites(b0)
    b1 = DeformationSpectrum(z1[n1 > 0], n1[n1 > 0], n)
    if float(np.max(np.abs(n0 - n1))) > DELTA_TV * n:
        raise DeltaTvExceeded(
            f"max |n0 - n1| = {np.max(np.abs(n0 - n1)):.0f} exceeds {DELTA_TV} * N"
        )
    chi0 = chi_of(b0)[0]
    chi1 = chi_of(b1)[0]
    norms = [*b0.operator_norms(), *b1.operator_norms()]
    chi_cap = min(max(chi0, chi1), 0.999)
    # wide enough for both the norm bound and the chi <= 1 - 1/c window
    frak_c = max(*norms, 1.0 / (1.0 - chi_cap) if chi_cap > 0 else 1.0) * 1.05
    gate_inverse_side(frak_c, b0, b1)

    n_hat = np.minimum(n0, n1)
    i1, i2, p, mass12, rest = _anchor_pair(np.vstack([z0.real, z1.real]), n_hat)

    mods = [abs(z0[i1]), abs(z0[i2]), abs(z1[i1]), abs(z1[i2])]
    res_parts = [abs(z0[i1].real), abs(z0[i2].real), abs(z1[i1].real), abs(z1[i2].real)]
    # positive: the gate bounds chi below 1 and both anchors keep mass
    c_pair = 0.9 * min(min(mods), 1.0 / max(mods), p, 1.0 - p, min(res_parts),
                       1.0 - max(chi0, chi1), n_hat[i1] / n, n_hat[i2] / n)
    for tag, za, zb, ch in (("start", z0[i1], z0[i2], chi0), ("end", z1[i1], z1[i2], chi1)):
        bad = check_z1z2(za, zb, ch, p, c_pair)
        if bad:
            raise ConditionViolated([f"{tag} anchors: {m}" for m in bad])

    rest_cnt = n_hat[rest]
    d0 = np.rint(n0 - n_hat).astype(int)
    d1 = np.rint(n1 - n_hat).astype(int)
    units0 = np.repeat(z0, d0)
    units1 = np.repeat(z1, d1)  # as many as units0: n0 and n1 both sum to n
    r_a, r_b = np.abs(units0), np.abs(units1)
    th_a = np.angle(units0)
    # shortest arc keeps the polar paths inside the modulus annulus
    dth = np.mod(np.angle(units1) - th_a + np.pi, 2.0 * np.pi) - np.pi
    side_counts = np.concatenate([rest_cnt, np.ones(units0.size)])

    def side_values(t):
        lin = (1.0 - t) * z0[rest] + t * z1[rest]
        if t == 0.0:
            pol = units0
        elif t == 1.0:
            pol = units1
        else:
            pol = ((1.0 - t) * r_a + t * r_b) * np.exp(1j * (th_a + t * dth))
        return np.concatenate([lin, pol])

    def chi_at(t):
        return (1.0 - t) * chi0 + t * chi1

    # q depends on t alone and Newton evaluates the residual at one t many
    # times in a row, so the last t's q is kept
    @functools.lru_cache(maxsize=1)
    def q_at(t):
        return cluster_traces(side_values(t), side_counts, chi_at(t), mass12)

    def residual(t, w):
        return anchor_residual(w, z0[i1], z0[i2], chi_at(t), p, q_at(t))

    def jacobian(t, w):
        return anchor_jacobian(w, z0[i1], z0[i2], chi_at(t), p)

    lin_velocity = z1[rest] - z0[rest]

    def d_t(t, w):
        # the side sites move along their paths; chi(t) moves every |.|^4 term
        r = (1.0 - t) * r_a + t * r_b
        pol_velocity = (r_b - r_a + 1j * r * dth) * np.exp(1j * (th_a + t * dth))
        values = side_values(t)
        out = entry_jacobian(values, side_counts, chi_at(t), mass12) @ np.concatenate(
            [lin_velocity, pol_velocity]).view(float)
        anchors4 = np.abs(z0[[i1, i2]] + unrealify(w)) ** 4
        out[2] -= (chi1 - chi0) * (p * anchors4[0] + (1.0 - p) * anchors4[1]
                                   + weighted_moment(values, side_counts, 2, 2) / mass12)
        return out

    grid = np.linspace(0.0, 1.0, cfg.grid_points)
    cont = continue_anchored(residual, jacobian, d_t, grid)
    anchors = z0[[i1, i2]] + cont.shifts
    miss = float(np.linalg.norm(anchors[-1] - z1[[i1, i2]]))
    if miss > ENDPOINT_TOL:
        raise ResidualExceeded(f"solved endpoint shift differs from target by {miss:.3e}")
    # the end state is the target itself, not the target plus roundoff
    anchors[-1] = z1[[i1, i2]]
    rows = np.column_stack([anchors, [side_values(float(t)) for t in grid]])
    counts = np.concatenate([n_hat[[i1, i2]], side_counts])
    return assemble_path(
        grid,
        rows,
        counts,
        n,
        chi_at(grid),
        "fix",
        {
            "anchors": (int(i1), int(i2)),
            "p": float(p),
            "c_pair": float(c_pair),
            "certificates": list(cont.certificates),
            "newton_fallback_steps": cont.fallback_steps,
            "chi_span": (float(chi0), float(chi1)),
        },
    )


def independent_count_target(b: DeformationSpectrum) -> DeformationSpectrum:
    """Nearest critical spectrum whose count fractions are multiples of
    1/COUNT_DENOMINATOR: the target sites of :func:`_count_target_sites`.
    """
    _, z1, _, n1 = _count_target_sites(b)
    return DeformationSpectrum(z1[n1 > 0], n1[n1 > 0], b.n)


# -------------------------------------------------------------- hermitian


def hermitian_flow(
    b: DeformationSpectrum, frak_c: float, cfg: FlowConfig | None = None
) -> FlowPath:
    """Collapse a real critical spectrum onto {1, -(n+/n-)^(1/3)}.

    Positive entries move along the closed form t + (1-t) B_ii; negative
    entries follow (1-t)(B_ii - g(t/(1-t))) where g transports the positive
    third-moment budget across the axis and is inverted by monotone
    bisection.  Of ``cfg`` only grid_points is read.  Criticality holds at
    every grid point by construction.
    """
    if not b.is_real():
        raise NotReal(
            f"spectrum has imaginary residual {np.max(np.abs(b.eigenvalues.imag)):.3e}"
        )
    cfg = cfg or FlowConfig()
    x = b.eigenvalues.real
    cnt = b.multiplicities.astype(float)
    n = b.n
    pos = x > 0
    negm = x < 0
    n_pos = float(cnt[pos].sum())
    n_neg = float(cnt[negm].sum())
    if not (n_pos and n_neg):
        raise ConditionViolated(["criticality requires entries of both signs"])
    gate_inverse_side(frak_c, b, chi_max=1.0)

    # tr (|B| + s)^3 over one sign class is a cubic in s whose
    # coefficients are the moments m[j] = tr |B|^j of that class
    m_pos = [weighted_moment(x[pos], cnt[pos] / n, j, 0).real for j in range(4)]
    m_neg = [weighted_moment(-x[negm], cnt[negm] / n, j, 0).real for j in range(4)]

    def cube_trace(m, s):
        return m[3] + s * (3.0 * m[2] + s * (3.0 * m[1] + s * m[0]))

    kappa = (n_pos / n_neg) ** (1.0 / 3.0)

    def g_of(s):
        target = cube_trace(m_pos, s)
        lo, hi = 0.0, kappa * s + frak_c + 1.0
        while cube_trace(m_neg, hi) < target:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo <= 1e-13:
                break
            if cube_trace(m_neg, mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    grid = np.linspace(0.0, 1.0, cfg.grid_points)
    aligned = np.empty((grid.size, x.size), dtype=complex)
    for k, t in enumerate(grid):
        if t == 0.0:
            aligned[k] = x
        elif t == 1.0:
            aligned[k, pos] = 1.0
            aligned[k, negm] = -kappa
        else:
            s = t / (1.0 - t)
            g = g_of(s)
            aligned[k, pos] = t + (1.0 - t) * x[pos]
            aligned[k, negm] = (1.0 - t) * (x[negm] - g)

    return assemble_path(
        grid,
        aligned,
        b.multiplicities,
        n,
        np.ones(grid.size),
        "hermitian",
        {"n_pos": int(n_pos), "n_neg": int(n_neg), "final_negative": -kappa},
    )
