"""Independent output checks, written in plain numpy.

Each check re-derives what the program claims from the files or values it
returned, without calling back into the layer being checked.  Tolerances
are stated with their reason; none of them is byte equality, so a correct
change that moves results at round-off level still passes.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

# criticality residuals |tr |A|^-2 - 1| and |tr A^-2 A*^-1| at every path
# state: the bound the paper's assumption and `flow --check` both use
CRIT_TOL = 1e-8
# a path starts at the input spectrum; the lift A_0 = e^{-i phi} s / b_0
# reproduces it up to a few rounding steps
START_TOL = 1e-9
# scalar Dyson defect g(v) = v - eta - v S(v); the solver's own target is
# 1e-12, recomputation adds at most a few ulps of the O(1) terms
DEFECT_TOL = 1e-10
# the scalar solver's stated target on |g(v)|; the log-det check allows it
# twice over, propagated through the eta integral (see log_det_reference)
SOLVER_DEFECT = 1e-12
# |lhs - rhs| of the Girko identity for one sample at n = 48 and a 64-point
# tensor Gauss-Legendre rule; observed gaps are below 1e-3
GIRKO_GAP_BOUND = 5e-3
# scalar against full Dyson solve: Im tr M + eta = v, as in the test suite
FULL_MDE_TOL = 1e-9
# the eta quadrature of the log-det reference: log-spaced Gauss-Legendre
# panels from eta_t to ETA_UPPER, the defaults of log_det_statistic
ETA_UPPER = 1e4
PANELS = 48
PANEL_NODES = 10


class CheckFailed(Exception):
    """An op's output disagrees with its independent check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- flow


def criticality_residuals(values: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """|tr |A|^-2 - 1| and |tr A^-2 A*^-1| of a normal matrix given by its spectrum."""
    w = counts / counts.sum()
    inv2 = float(np.sum(w / np.abs(values) ** 2))
    skew = complex(np.sum(w / (values**2 * np.conj(values))))
    return abs(inv2 - 1.0), abs(skew)


def check_flow_path(path_file, start_values: np.ndarray, start_counts: np.ndarray) -> int:
    """Re-read a path JSONL and check every state; returns the state count."""
    grid = []
    with open(path_file, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh):
            if not line.strip():
                continue
            row = json.loads(line)
            pairs = np.asarray(row["eigenvalues"], dtype=float).reshape(-1, 2)
            values = pairs[:, 0] + 1j * pairs[:, 1]
            counts = np.asarray(row["multiplicities"], dtype=float)
            inv2, skew = criticality_residuals(values, counts)
            _require(
                inv2 <= CRIT_TOL and skew <= CRIT_TOL,
                f"state {line_no} (t={row['t']}): criticality residuals "
                f"{inv2:.3e}, {skew:.3e} exceed {CRIT_TOL}",
            )
            if not grid:
                got = np.sort_complex(np.repeat(values, counts.astype(int)))
                want = np.sort_complex(np.repeat(start_values, start_counts))
                _require(
                    got.shape == want.shape
                    and float(np.max(np.abs(got - want))) <= START_TOL,
                    "first path state differs from the input spectrum",
                )
            grid.append(float(row["t"]))
    _require(len(grid) >= 2, "path holds fewer than two states")
    _require(grid[0] == 0.0 and grid[-1] == 1.0, "path grid does not run from 0 to 1")
    _require(all(b >= a for a, b in zip(grid, grid[1:])), "path grid is not monotone")
    return len(grid)


# --------------------------------------------------------------- dyson


def scalar_defect(values: np.ndarray, weights: np.ndarray, z: complex, eta: float, v: float) -> float:
    """g(v) = v - eta - v * sum_i w_i / (|lambda_i - z|^2 + v^2)."""
    d = np.abs(values - z) ** 2
    return v - eta - v * float(np.sum(weights / (d + v * v)))


def check_batch_rows(values, weights, points, rows) -> None:
    _require(len(rows) == len(points), f"{len(rows)} rows for {len(points)} points")
    for p, row in zip(points, rows):
        z = complex(p["z_re"], p["z_im"])
        eta, v = float(p["eta"]), float(row["v"])
        _require(
            row["z_re"] == z.real and row["z_im"] == z.imag and row["eta"] == eta,
            "batch row does not echo its point",
        )
        _require(math.isfinite(v) and v >= eta, f"v = {v!r} below eta = {eta!r}")
        g = scalar_defect(values, weights, z, eta, v)
        _require(
            abs(g) <= DEFECT_TOL,
            f"scalar defect {abs(g):.3e} at z={z}, eta={eta:.3e} exceeds {DEFECT_TOL}",
        )


def solve_v_reference(values, weights, z: complex, etas: np.ndarray) -> np.ndarray:
    """Root of h(v) = 1 - eta/v - S(v) by vectorised bisection.

    h increases strictly on v > 0, h(eta) < 0 and h > 0 at
    v+ = (eta + sqrt(eta^2 + 4))/2, so every eta has one root in [eta, v+].
    """
    etas = np.asarray(etas, dtype=float)
    d = (np.abs(values - z) ** 2)[None, :]
    w = weights[None, :]
    lo = etas.copy()
    hi = 0.5 * (etas + np.sqrt(etas * etas + 4.0))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        h = 1.0 - etas / mid - np.sum(w / (d + (mid * mid)[:, None]), axis=1)
        lo = np.where(h < 0.0, mid, lo)
        hi = np.where(h < 0.0, hi, mid)
        if np.all(hi - lo <= 4.0 * np.finfo(float).eps * hi):
            break
    return 0.5 * (lo + hi)


def log_det_reference(
    values, counts, x: np.ndarray, z: complex, eta_t: float
) -> tuple[float, float]:
    """The log-det statistic by the same eta quadrature, with the reference solver.

    Returns the value and the tolerance a solver meeting |g(v)| <=
    SOLVER_DEFECT is held to: twice sum |weight| * 2n * SOLVER_DEFECT / g'(v)
    over the nodes, since |dv| <= |g| / g'(v) and the statistic carries -2n v.
    """
    n = int(np.sum(counts))
    weights = np.asarray(counts) / n
    y = np.array(x, dtype=complex)
    y[np.diag_indices(n)] += np.repeat(values, counts) - z
    sv2 = np.linalg.svd(y, compute_uv=False) ** 2
    edges = np.geomspace(eta_t, ETA_UPPER, PANELS + 1)
    nodes, wts = leggauss(PANEL_NODES)
    mid, rad = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    etas = (mid[:, None] + rad[:, None] * nodes[None, :]).ravel()
    quad_w = (rad[:, None] * wts[None, :]).ravel()
    v = solve_v_reference(values, weights, z, etas)
    im_tr_g = np.sum(2.0 * etas[:, None] / (sv2[None, :] + etas[:, None] ** 2), axis=1)
    reference = float(np.sum(quad_w * (im_tr_g - 2.0 * n * (v - etas))))
    den = (np.abs(values - z) ** 2)[None, :] + (v * v)[:, None]
    slope = 1.0 - np.sum(weights[None, :] * (den - 2.0 * (v * v)[:, None]) / den**2, axis=1)
    tolerance = 2.0 * float(np.sum(np.abs(quad_w) * 2.0 * n * SOLVER_DEFECT / slope))
    return reference, tolerance


def check_log_det(value: float, reference: float, tolerance: float) -> None:
    _require(math.isfinite(value), f"log-det statistic is {value!r}")
    gap = abs(value - reference)
    _require(
        gap <= tolerance,
        f"log-det statistic {value!r} differs from reference {reference!r} "
        f"by {gap:.3e} > {tolerance:.3e}",
    )


def check_full_mde(v_scalar: float, m_trace: complex, eta: float) -> None:
    gap = abs(v_scalar - (m_trace.imag + eta))
    _require(
        gap <= FULL_MDE_TOL * max(1.0, v_scalar),
        f"scalar v {v_scalar!r} and full solve disagree by {gap:.3e}",
    )


# ---------------------------------------------------------- montecarlo


def _finite_fields(summary: dict) -> None:
    for key, value in summary.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            _require(math.isfinite(value), f"summary field {key} = {value!r}")


def check_simulate(statistic: str, trials: int, csv_file, summary_file) -> None:
    with open(summary_file, encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(csv_file, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(summary.get("statistic") == statistic, "summary names another statistic")
    _finite_fields(summary)
    value = float(summary["value"])
    if statistic in ("correlation", "radius"):
        per_trial = [float(r[1]) for r in rows[1:]]
        _require(len(per_trial) == trials, f"{len(per_trial)} trial rows, expected {trials}")
        mean = float(np.mean(per_trial))
        _require(
            abs(mean - value) <= 1e-12 * max(1.0, abs(mean)),
            f"summary value {value!r} is not the trial mean {mean!r}",
        )
        if statistic == "radius":
            _require(all(r > 0.0 for r in per_trial), "non-positive spectral radius")
    elif statistic == "sv-tail":
        _require(0.0 <= value <= 1.0, f"tail probability {value!r} outside [0, 1]")
        _require(
            abs(value * trials - round(value * trials)) <= 1e-9,
            f"tail probability {value!r} is not a count over {trials} trials",
        )
    else:
        lhs, rhs = float(summary["lhs"]), float(summary["rhs"])
        _require(abs(abs(lhs - rhs) - value) <= 1e-15, "gap is not |lhs - rhs|")
        _require(value <= GIRKO_GAP_BOUND, f"Girko gap {value:.3e} exceeds {GIRKO_GAP_BOUND}")
