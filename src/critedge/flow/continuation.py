"""Certified anchored continuation: the kernel shared by the flow builders.

Every complex flow moves a configuration along t in [0, 1] while a
corrective shift w = realify(w1, w2) of two anchors keeps two traces
fixed, F(t, w) = 0 with F(0, 0) = 0.  This module holds each piece of that
machinery once:

* :func:`gate_inverse_side` checks the flow preconditions;
* :func:`anchor_residual` / :func:`anchor_jacobian` give the two-anchor
  repair f_{chi,p}(z1 + w1, z2 + w2) + q, with q the cluster_traces of
  the other sites;
* :func:`newton` is the damped Newton solve on the realified 4-vector;
* :func:`continue_anchored` steps w over the output grid and certifies the
  whole of [0, 1] by a chain of quantitative-IFT certificates, each with
  the scalar control t and the caller's analytic dF/dt as its control
  derivative;
* :func:`assemble_path` turns sampled values into a :class:`FlowPath`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..criticality import chi_from_traces
from ..errors import (
    ChainExhausted,
    ConditionViolated,
    ContractionFailed,
    NoConvergence,
    RadiusExceeded,
)
from ..spectrum import canonical_rows, weighted_moments
from .ift import IftProblem, frozen_solve, quantitative_ift
from .maps import pair_jacobian, pair_traces, realify, unrealify
from .paths import RUN_ROWS, FlowPath, stacked_runs

__all__ = [
    "Continuation",
    "anchor_jacobian",
    "anchor_residual",
    "assemble_path",
    "continue_anchored",
    "gate_inverse_side",
    "newton",
]

# tolerance of the precondition gate on |tr B^2 B*| and the chi window
TOL_PRE = 1e-8
# residual target of every shift solve
TOL_SOLVE = 1e-13
# Newton steps per solve; the generator's anchor placement starts far out
NEWTON_MAX_ITER = 120
# frozen-Jacobian steps per grid point before the Newton fallback
FROZEN_MAX_ITER = 60
# bisection depth of the certificate chain: segments no shorter than 2^-10
CHAIN_DEPTH = 10
# h_y multipliers tried on one segment while the certified radius is short
H_Y_BUMPS = (1.0, 2.0, 4.0, 8.0)


def gate_inverse_side(frak_c: float, *specs, chi_max: float | None = None) -> None:
    """Raise ConditionViolated listing every failed flow precondition.

    Each spectrum needs operator and inverse norms at most frak_c,
    |tr B^2 B*| <= TOL_PRE and chi real in [0, chi_max], where chi_max
    defaults to 1 - 1/frak_c.  With several spectra each message names
    B0, B1, ...
    """
    chi_max = 1.0 - 1.0 / frak_c if chi_max is None else chi_max
    failures = []
    for k, b in enumerate(specs):
        tag = f"B{k}: " if len(specs) > 1 else ""
        norm, inv_norm = b.operator_norms()
        if norm > frak_c * (1 + 1e-9) or inv_norm > frak_c * (1 + 1e-9):
            failures.append(
                f"{tag}operator norms ({norm:.3g}, {inv_norm:.3g}) exceed {frak_c:.3g}"
            )
        m21, m31, m22 = b.moments(((2, 1), (3, 1), (2, 2)))
        skew = abs(m21)
        if skew > TOL_PRE:
            failures.append(f"{tag}|tr B^2 B*| = {skew:.3e} exceeds {TOL_PRE:.1e}")
        chi_re, chi_im = chi_from_traces(m31, m22)
        if abs(chi_im) > 1e-6 or not (-TOL_PRE <= chi_re <= chi_max + TOL_PRE):
            failures.append(
                f"{tag}chi = {chi_re:.4g} (+{chi_im:.1e}i) outside [0, {chi_max:.4g}]"
            )
    if failures:
        raise ConditionViolated(failures)


# ------------------------------------------------------------ anchor repair


def anchor_residual(w, z1: complex, z2: complex, chi: float, p: float, q) -> np.ndarray:
    """Realified f_{chi,p}(z1 + w1, z2 + w2) + q: zero when the whole
    spectrum has tr B^2 B* = 0 and tr B^3 B* = chi tr |B|^4."""
    w1, w2 = unrealify(w)
    f1, f2 = pair_traces(z1 + w1, z2 + w2, chi, p)
    return realify(f1 + q[0], f2 + q[1])


def anchor_jacobian(w, z1: complex, z2: complex, chi: float, p: float) -> np.ndarray:
    """Jacobian of :func:`anchor_residual` in w (q does not depend on w)."""
    w1, w2 = unrealify(w)
    return pair_jacobian(z1 + w1, z2 + w2, chi, p)


# ------------------------------------------------------------------ solvers


def newton(residual, jacobian, y0, tol: float = TOL_SOLVE):
    """Damped Newton for residual(y) = 0; returns (y, ||residual(y)||, converged).

    A step is halved, at most eleven times, until it lowers the residual
    norm.  A singular Jacobian or a step that no halving makes descend ends
    the iteration unconverged.
    """
    y = np.asarray(y0, dtype=float).copy()
    res = residual(y)
    nrm = math.sqrt(res @ res)
    for _ in range(NEWTON_MAX_ITER):
        if nrm <= tol:
            break
        try:
            step = np.linalg.solve(jacobian(y), res)
        except np.linalg.LinAlgError:
            break
        for k in range(12):
            trial = y - 0.5**k * step
            trial_res = residual(trial)
            trial_nrm = math.sqrt(trial_res @ trial_res)
            if trial_nrm < nrm:
                break
        else:
            break
        y, res, nrm = trial, trial_res, trial_nrm
    return y, nrm, nrm <= tol


@dataclass(frozen=True)
class Continuation:
    """Shift series of one anchored continuation.

    ``shifts`` holds (w1, w2) per grid point; ``certificates`` one record
    per chained segment, in t order, tiling [0, 1].
    """

    shifts: np.ndarray
    certificates: tuple
    fallback_steps: int


def continue_anchored(residual, jacobian, d_t, grid) -> Continuation:
    """Solve F(t, w) = 0 along the grid and certify it on all of [0, 1].

    ``residual(t, w)``, ``jacobian(t, w)`` and ``d_t(t, w)`` give F, D_w F
    and the analytic dF/dt in the realified w = realify(w1, w2), with
    F(0, 0) = 0.  Each grid point is solved by the fixed point with the
    Jacobian frozen at the origin, started from the previous point's shift;
    a damped Newton takes over when that stalls.

    The certificate chain works in continuous t, independent of the grid.
    On a segment [a, b] the problem is re-based at (a, w_a) and handed to
    quantitative_ift with the scalar control s = t - a.  RadiusExceeded
    bumps h_y through H_Y_BUMPS; ContractionFailed, an exhausted bump
    ladder or a failed Newton probe of w_b bisect the segment, re-freezing
    the Jacobian at each start.  Past CHAIN_DEPTH bisections ChainExhausted
    is raised.
    """
    grid = np.asarray(grid, dtype=float)
    chain: list[dict] = []

    def certify(a: float, b: float, w_a: np.ndarray, depth: int) -> np.ndarray:
        dt = b - a
        y_b, _, ok = newton(lambda y: residual(b, w_a + y), lambda y: jacobian(b, w_a + y),
                            np.zeros(4))
        last: Exception = NoConvergence("corrective-shift probe did not converge")
        if ok:
            c1 = max(1.0, float(np.linalg.norm(np.linalg.inv(jacobian(a, w_a)), 2)))
            c2 = float(np.linalg.norm(residual(b, w_a) - residual(a, w_a))) / dt
            # h_y / (2 c1 c2) must cover the segment length
            base = max(2.6 * c1 * c2 * dt, 3.0 * float(np.linalg.norm(y_b)), 1e-8)
            for bump in H_Y_BUMPS:
                problem = IftProblem(
                    residual=lambda s, y: residual(a + s, w_a + y),
                    d_y=lambda s, y: jacobian(a + s, w_a + y),
                    d_x=lambda s, y: d_t(a + s, w_a + y),
                    h_x=dt * (1 + 1e-9), h_y=base * bump, dim_y=4,
                )
                try:
                    sol = quantitative_ift(problem, dt, y0=y_b, tol=TOL_SOLVE)
                except RadiusExceeded as exc:
                    last = exc
                    continue
                except ContractionFailed as exc:
                    last = exc
                    break
                cert = sol.certificate
                chain.append({"t0": a, "t1": b, "h_y": cert.h_y,
                              "contraction": cert.contraction_max,
                              "c1": cert.c1, "c2": cert.c2})
                return w_a + sol.y
        if depth >= CHAIN_DEPTH:
            raise ChainExhausted(
                f"certificate chain exhausted on [{a:.4g}, {b:.4g}]: {last}"
            ) from last
        mid = 0.5 * (a + b)
        return certify(mid, b, certify(a, mid, w_a, depth + 1), depth + 1)

    certify(0.0, 1.0, np.zeros(4), 0)

    j0_inv = np.linalg.inv(jacobian(0.0, np.zeros(4)))
    w_series = np.zeros((grid.size, 4))
    w = np.zeros(4)
    fallback = 0
    for k, t in enumerate(grid):
        t = float(t)
        if t == 0.0:
            w = np.zeros(4)
        else:
            w, nrm, _ = frozen_solve(lambda y: residual(t, y), j0_inv, w, TOL_SOLVE,
                                     FROZEN_MAX_ITER)
            if nrm > TOL_SOLVE:
                w, nrm, ok = newton(lambda y: residual(t, y), lambda y: jacobian(t, y), w)
                fallback += 1
                if not ok:
                    raise NoConvergence(f"shift stalled at t={t:.4f} (||F|| = {nrm:.3e})")
        w_series[k] = w
    return Continuation(
        shifts=w_series[:, 0::2] + 1j * w_series[:, 1::2],
        certificates=tuple(chain),
        fallback_steps=fallback,
    )


# -------------------------------------------------------------- path rows


def assemble_path(
    grid, rows, counts, n: int, chi_target, kind: str, meta: dict
) -> FlowPath:
    """FlowPath of the spectra whose values are the rows of ``rows``.

    Row k holds the values at grid[k], one per entry of ``counts``.  Each
    state is the canonical form; residual_crit is |tr B^2 B*| and
    residual_chi the distance of chi(B) to chi_target[k].  The derivative
    estimate at a grid point is the largest entrywise difference quotient
    of the intervals that touch it.
    """
    grid = np.asarray(grid, dtype=float)
    rows = np.asarray(rows, dtype=complex)
    counts = np.asarray(counts, dtype=np.int64)
    states, per_interval, residual_crit, residual_chi = [], [], [], []
    for lo in range(0, grid.size, RUN_ROWS):
        states += canonical_rows(rows[lo:lo + RUN_ROWS], counts, n)
        ends = slice(lo, lo + RUN_ROWS + 1)
        per_interval.append(
            (np.abs(np.diff(rows[ends], axis=0)) / np.diff(grid[ends])[:, None]).max(axis=1))
    per_interval = np.concatenate(per_interval)
    for run, vals, weights in stacked_runs(states):
        moments = weighted_moments(vals, weights, ((2, 1), (3, 1), (2, 2)))
        for m21, m31, m22, chi_t in zip(*(m.tolist() for m in moments), chi_target[run]):
            residual_crit.append(abs(m21))
            c_re, c_im = chi_from_traces(m31, m22)
            residual_chi.append(float(abs(complex(c_re, c_im) - chi_t)))

    derivs = np.empty(grid.size)
    derivs[0] = per_interval[0]
    derivs[-1] = per_interval[-1]
    derivs[1:-1] = np.maximum(per_interval[:-1], per_interval[1:])
    return FlowPath(
        grid=tuple(float(t) for t in grid),
        states=tuple(states),
        derivatives=tuple(float(v) for v in derivs),
        residual_crit=tuple(residual_crit),
        residual_chi=tuple(residual_chi),
        segment_kind=(kind,) * (grid.size - 1),
        meta=meta,
    )
