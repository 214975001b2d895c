"""Flow path container, inverse-side derivation, lifting, and validation.

Flows act on the inverse side: for a critical deformation A the diagonal
matrix B = e^{-i phi} A^{-1} (phi halving the phase of tr A^-3 A*^-1) has
tr B^2 B* = 0 and chi(B) real nonnegative.  Paths B_t constructed on that
side lift back through A_t = e^{-i phi} (tr |B_t|^2)^{1/2} B_t^{-1}, which
keeps tr |A_t|^-2 = 1 identically and recovers A at t = 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..criticality import PHASE_FLOOR, hessian_from_traces, shape_alpha
from ..errors import DimensionMismatch, ResidualExceeded, ZeroEigenvalue
from ..spectrum import DeformationSpectrum, sites_from_json, weighted_moments

__all__ = [
    "FlowPath",
    "derive_b0",
    "lift_to_deformation",
    "validate_assumption",
    "AssumptionReport",
]

SEGMENT_KINDS = ("shrink", "fix", "hermitian", "concat-junction")
# largest distance between the canonical endpoint eigenvalues FlowPath.concat joins
MATCH_TOL = 1e-10
# criticality residuals |tr |A|^-2 - 1| and |tr A^-2 A*^-1| validate_assumption accepts
CRIT_TOL = 1e-8
# validate_assumption bounds the alpha drift per unit time by n^(-FRAK_C_SMALL)
FRAK_C_SMALL = 0.05
# states per stacked run: bounds the run's (RUN_ROWS, sites) temporaries
RUN_ROWS = 32


@dataclass(frozen=True)
class FlowPath:
    """Deformation path sampled on a time grid.

    ``segment_kind`` has one tag per grid interval; zero-length intervals
    tagged ``concat-junction`` join independently constructed pieces.
    ``derivatives`` holds per-point max entrywise |dB/dt| estimates,
    ``residual_crit`` the values |tr B_t^2 B_t*|, and ``residual_chi`` the
    distances to the segment's chi target.
    """

    grid: tuple
    states: tuple
    derivatives: tuple
    residual_crit: tuple
    residual_chi: tuple
    segment_kind: tuple
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        k = len(self.grid)
        if k < 2:
            raise ValueError("a path needs at least two grid points")
        if abs(self.grid[0]) > 1e-15 or abs(self.grid[-1] - 1.0) > 1e-15:
            raise ValueError("grid must start at 0 and end at 1")
        if any(b < a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be nondecreasing")
        for name in ("states", "derivatives", "residual_crit", "residual_chi"):
            if len(getattr(self, name)) != k:
                raise ValueError(f"{name} must match the grid length")
        if len(self.segment_kind) != k - 1:
            raise ValueError("segment_kind needs one tag per interval")
        bad = set(self.segment_kind) - set(SEGMENT_KINDS)
        if bad:
            raise ValueError(f"unknown segment kinds: {sorted(bad)}")

    @property
    def initial(self) -> DeformationSpectrum:
        return self.states[0]

    @property
    def final(self) -> DeformationSpectrum:
        return self.states[-1]

    def concat(self, other: "FlowPath") -> "FlowPath":
        """Join two paths, rescaling times to halves of [0, 1].

        Endpoint spectra must agree within MATCH_TOL on canonical form;
        the junction becomes a zero-length interval tagged concat-junction.
        """
        a = self.final.canonical()
        b = other.initial.canonical()
        if a.n != b.n or a.eigenvalues.size != b.eigenvalues.size or (
            np.max(np.abs(a.eigenvalues - b.eigenvalues)) > MATCH_TOL
            or np.any(a.multiplicities != b.multiplicities)
        ):
            raise ResidualExceeded("paths do not meet at the junction")
        grid = tuple(t / 2 for t in self.grid) + tuple(0.5 + t / 2 for t in other.grid)
        return FlowPath(
            grid=grid,
            states=self.states + other.states,
            derivatives=self.derivatives + other.derivatives,
            residual_crit=self.residual_crit + other.residual_crit,
            residual_chi=self.residual_chi + other.residual_chi,
            segment_kind=self.segment_kind + ("concat-junction",) + other.segment_kind,
            meta={**self.meta, **other.meta},
        )

    def save_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, t in enumerate(self.grid):
                s = self.states[idx]
                row = {
                    "t": t,
                    "eigenvalues": s.eigenvalues.view(float).reshape(-1, 2).tolist(),
                    "multiplicities": s.multiplicities.tolist(),
                    "residual_crit": self.residual_crit[idx],
                    "residual_chi": self.residual_chi[idx],
                    "deriv_max": self.derivatives[idx],
                    "segment_kind": self.segment_kind[idx - 1] if idx else None,
                }
                fh.write(json.dumps(row) + "\n")

    @classmethod
    def load_jsonl(cls, path) -> "FlowPath":
        """Read a path written by :meth:`save_jsonl`.

        Every row holds every field, all states share the n of the first,
        the first row's segment_kind is null and every later row's is one
        of SEGMENT_KINDS.  A malformed file raises ValueError, never a
        guessed field.
        """
        grid, states, derivs, rc, rx, kinds = [], [], [], [], [], []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                try:
                    kind = row["segment_kind"]
                    grid.append(float(row["t"]))
                    vals, mult = sites_from_json(row["eigenvalues"], row["multiplicities"])
                    n = states[0].n if states else int(mult.sum())
                    states.append(DeformationSpectrum(vals, mult, n))
                    derivs.append(float(row["deriv_max"]))
                    rc.append(float(row["residual_crit"]))
                    rx.append(float(row["residual_chi"]))
                except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
                    raise ValueError(f"path line {lineno}: {exc!r}") from exc
                allowed = SEGMENT_KINDS if len(states) > 1 else (None,)
                if kind not in allowed:
                    raise ValueError(
                        f"path line {lineno}: segment_kind {kind!r} is not one of {allowed}"
                    )
                kinds.append(kind)
        return cls(
            grid=tuple(grid),
            states=tuple(states),
            derivatives=tuple(derivs),
            residual_crit=tuple(rc),
            residual_chi=tuple(rx),
            segment_kind=tuple(kinds[1:]),
        )


def stacked_runs(states):
    """Runs of at most RUN_ROWS consecutive states with equal site counts:
    yields (slice, eigenvalues, weights), the last two stacked (S, K)."""
    sizes = [s.eigenvalues.size for s in states] + [0]
    start = 0
    for end in range(1, len(states) + 1):
        if end - start == RUN_ROWS or sizes[end] != sizes[start]:
            run = states[start:end]
            yield (slice(start, end), np.stack([s.eigenvalues for s in run]),
                   np.stack([s.weights for s in run]))
            start = end


def derive_b0(a: DeformationSpectrum) -> tuple[DeformationSpectrum, float]:
    """Inverse-side start matrix: B = e^{-i phi} A^{-1} eigenvalue-wise.

    phi halves the argument of tr A^-3 A*^-1, folded into [0, pi), so that
    tr B^3 B* lands on the nonnegative real axis; phi = 0 when the trace
    vanishes.  An imaginary part at rounding level (within PHASE_FLOOR of
    tr |A|^-4) takes the argument of the real part alone: phi = 0 or pi/2.
    """
    skew3 = a.moment(-3, -1)
    if abs(skew3) <= 1e-12:
        phi = 0.0
    elif abs(skew3.imag) <= PHASE_FLOOR * a.moment(-2, -2):
        phi = 0.0 if skew3.real > 0.0 else 0.5 * np.pi
    else:
        phi = float(np.angle(skew3)) / 2.0
        if phi < 0.0:
            phi += np.pi
    b_vals = np.exp(-1j * phi) / a.eigenvalues
    b = a.with_eigenvalues(b_vals)
    return b, phi


def lift_to_deformation(path_b: FlowPath, phi: float) -> FlowPath:
    """Lift an inverse-side path to deformation space.

    A_t = e^{-i phi} (tr |B_t|^2)^{1/2} B_t^{-1}; the prefactor makes
    tr |A_t|^-2 = 1 identically, and at t = 0 the construction inverts
    derive_b0 so A_0 is the original deformation up to roundoff.
    """
    rot = np.exp(-1j * phi)
    states = []
    for run, vals, weights in stacked_runs(path_b.states):
        if np.any(vals == 0):
            raise ZeroEigenvalue("inverse-side state has a zero eigenvalue")
        lifted = rot * np.sqrt(weighted_moments(vals, weights, ((1, 1),))[0])[:, None] / vals
        states.extend(s.with_eigenvalues(row) for s, row in zip(path_b.states[run], lifted))
    return FlowPath(
        grid=path_b.grid,
        states=tuple(states),
        derivatives=path_b.derivatives,
        residual_crit=path_b.residual_crit,
        residual_chi=path_b.residual_chi,
        segment_kind=path_b.segment_kind,
        meta={**path_b.meta, "side": "deformation", "phi": phi},
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Per-grid-point audit of a lifted deformation path."""

    n: int
    frak_c1: float
    criticality_failures: tuple
    max_alpha_step: float
    alpha_bound: float
    max_derivative: float
    derivative_bound: float
    passed: bool

    def lines(self) -> list[str]:
        ok = "pass" if self.passed else "FAIL"
        out = [
            f"criticality: {len(self.criticality_failures)} failing grid points",
            f"alpha drift: max |d alpha/dt| = {self.max_alpha_step:.3e} "
            f"(bound {self.alpha_bound:.3e})",
            f"derivative: max entrywise = {self.max_derivative:.3e} "
            f"(bound {self.derivative_bound:.3e})",
            f"overall: {ok}",
        ]
        out.extend(f"  offender: {msg}" for msg in self.criticality_failures[:5])
        return out


def validate_assumption(path_a: FlowPath, frak_c1: float) -> AssumptionReport:
    """Check a lifted path against the deformation-path conditions.

    With n the dimension of the path's states, per grid point: operator
    norms within frak_c1 and criticality residuals within CRIT_TOL; alpha
    drift per unit time at most n^(-FRAK_C_SMALL) by finite differences;
    entrywise time derivative at most frak_c1 * log(n).  Junction
    (zero-length) intervals are skipped in the difference quotients.
    A failed condition is reported, not raised; a state with a zero
    eigenvalue, which has no inverse norm, raises ZeroEigenvalue.
    """
    n = path_a.states[0].n
    failures = []
    alphas = []
    for run, vals, weights in stacked_runs(path_a.states):
        mods = np.abs(vals)
        if np.any(mods == 0.0):
            raise ZeroEigenvalue("zero eigenvalue has no inverse norm")
        norms = zip(mods.max(axis=1).tolist(), (1.0 / mods.min(axis=1)).tolist())
        moments = weighted_moments(vals, weights, ((-1, -1), (-2, -1), (-3, -1), (-2, -2)))
        for t_k, (norm_a, norm_inv), inv2, skew, r, t in zip(
                path_a.grid[run], norms, *(m.tolist() for m in moments)):
            if norm_a > frak_c1 or norm_inv > frak_c1:
                failures.append(f"t={t_k:.4f}: norms ({norm_a:.3g}, {norm_inv:.3g})")
            if abs(inv2 - 1.0) > CRIT_TOL or abs(skew) > CRIT_TOL:
                failures.append(
                    f"t={t_k:.4f}: criticality residuals "
                    f"({abs(inv2 - 1.0):.2e}, {abs(skew):.2e})"
                )
            alphas.append(shape_alpha(hessian_from_traces(r, t)))

    alpha_bound = float(n) ** (-FRAK_C_SMALL)
    deriv_bound = frak_c1 * np.log(n)
    dt = np.diff(path_a.grid)
    max_alpha_step = np.max(np.abs(np.diff(alphas))[dt > 0] / dt[dt > 0], initial=0.0)
    max_derivative = max(path_a.derivatives)
    passed = (
        not failures
        and max_alpha_step <= alpha_bound
        and max_derivative <= deriv_bound
    )
    return AssumptionReport(
        n=int(n),
        frak_c1=float(frak_c1),
        criticality_failures=tuple(failures),
        max_alpha_step=float(max_alpha_step),
        alpha_bound=alpha_bound,
        max_derivative=float(max_derivative),
        derivative_bound=float(deriv_bound),
        passed=bool(passed),
    )
