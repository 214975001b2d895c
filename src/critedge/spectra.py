"""Monte Carlo layer: random matrix sampling and spectral statistics.

Samples i.i.d. and Ginibre ensembles, computes eigenvalue clouds and
singular values of deformed matrices, checks the Girko identity, and
evaluates the regularized log-determinant statistic against its
deterministic counterpart from the Dyson module.

Statistics compute only what they read: a named test function takes the
eigenvalues in its support by shift-invert Arnoldi, and the smallest
singular value tail decides sigma_min < eta by Cholesky factorisations of
the Gram matrix that the log-det statistic also builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .criticality import scaling_gamma
from .dyson import FlowScalings, solve_v
from .errors import (
    DimensionMismatch,
    ConditionViolated,
    QuadratureUnstable,
    UnknownModel,
)
from .spectrum import DeformationSpectrum

__all__ = [
    "MODELS",
    "CorrelationEstimate",
    "HermitizedOperator",
    "GirkoReport",
    "TailEstimate",
    "sample_matrix",
    "deformed_eigenvalues",
    "rescale",
    "hermitize",
    "estimate_statistic",
    "mean_std_error",
    "radial_bump",
    "anisotropic_bump",
    "GaussianField",
    "girko_check",
    "log_det_statistic",
    "smallest_sv_tail",
]

MODELS = ("ginibre", "iid-bernoulli-like", "iid-custom")

# eta quadrature of log_det_statistic: PANELS log-spaced Gauss-Legendre
# panels of PANEL_NODES nodes each, from eta_t up to ETA_UPPER
ETA_UPPER = 1e4
PANELS = 48
PANEL_NODES = 10
# rows of the Gram matrix of log_det_statistic built per matrix product
_GRAM_BLOCK = 64
# the slogdet sign of a positive definite Gram matrix differs from +1 by
# the rounding of its pivots' phases (below 2e-13 at N = 400); a larger gap
# means the factorisation did not see a positive definite matrix
_SIGN_TOL = 1e-8


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class CorrelationEstimate:
    """Monte Carlo estimate of a k-point test-function integral."""

    k: int
    test_function_id: str
    value: float
    std_error: float
    trials: int
    n: int
    gamma: complex
    per_trial: np.ndarray = field(repr=False, default=None)
    fallbacks: int = 0  # trials whose Arnoldi guard failed: they took eigvals


@dataclass(frozen=True)
class HermitizedOperator:
    """2N x 2N Hermitization of A + X - z.

    Only the off-diagonal block A + X - z is stored: the 2N eigenvalues of
    the Hermitization are plus and minus its singular values.
    """

    block: np.ndarray

    def singular_values(self) -> np.ndarray:
        """The N singular values of the block, ascending."""
        return np.sort(np.linalg.svd(self.block, compute_uv=False))


@dataclass(frozen=True)
class GirkoReport:
    lhs: float
    rhs: float
    gap: float
    quad_points: int
    jittered_nodes: int


@dataclass(frozen=True)
class TailEstimate:
    probability: float
    std_error: float
    trials: int
    eta: float
    svds: int = 0  # trials decided within the Gram rounding band, by an SVD


# ---------------------------------------------------------------------------
# sampling


def sample_matrix(model: str, n: int, seed: int) -> np.ndarray:
    """Draw one N x N random matrix with E|X_ij|^2 = 1/N and EX_ij^2 = 0.

    ginibre: complex Gaussian entries.  iid-bernoulli-like: independent
    signs on both components.  iid-custom: independent uniform components,
    half-width sqrt(3/(2N)).  Bit-identical for identical (model, n, seed).
    """
    if model not in MODELS:
        raise UnknownModel(f"unknown ensemble model {model!r}; choose from {MODELS}")
    if n < 2:
        raise ConditionViolated([f"matrix dimension must be at least 2, got {n}"])
    rng = np.random.default_rng((int(seed), MODELS.index(model)))
    scale = 1.0 / np.sqrt(2.0 * n)
    if model == "ginibre":
        re = rng.standard_normal((n, n))
        im = rng.standard_normal((n, n))
    elif model == "iid-bernoulli-like":
        re = 2.0 * rng.integers(0, 2, size=(n, n)).astype(float) - 1.0
        im = 2.0 * rng.integers(0, 2, size=(n, n)).astype(float) - 1.0
    else:
        # uniform component variance a^2/3 must equal 1/(2N)
        a = np.sqrt(3.0)
        re = rng.uniform(-a, a, size=(n, n))
        im = rng.uniform(-a, a, size=(n, n))
    out = np.empty((n, n), dtype=complex)
    out.real = re
    out.imag = im
    out *= scale
    return out


def _as_sample(spec: DeformationSpectrum, x) -> np.ndarray:
    """X as a complex array, checked to be N x N for the deformation."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (spec.n, spec.n):
        raise DimensionMismatch(
            f"sample is {x.shape}, deformation dimension is {spec.n}"
        )
    return x


def deformed_eigenvalues(spec: DeformationSpectrum, x: np.ndarray) -> np.ndarray:
    """Eigenvalues of diag(spec) + X."""
    y = _as_sample(spec, x).copy()
    idx = np.arange(spec.n)
    y[idx, idx] += spec.expand()
    return np.linalg.eigvals(y)


def rescale(points, n: int, gamma: complex) -> np.ndarray:
    """Map eigenvalues into the local frame, z -> N^(1/4) gamma z."""
    return np.asarray(points, dtype=complex) * (float(n) ** 0.25 * gamma)


def hermitize(spec: DeformationSpectrum, x: np.ndarray, z: complex) -> HermitizedOperator:
    block = _as_sample(spec, x).copy()
    idx = np.arange(spec.n)
    block[idx, idx] += spec.expand() - complex(z)
    return HermitizedOperator(block)


# ---------------------------------------------------------------------------
# correlation statistics

# support radius of the named test functions in the rescaled frame: in the
# original frame |z| < R = BUMP_RADIUS / (N^(1/4) |gamma|), which holds 1-5
# eigenvalues of a critical A + X (see estimate_statistic)
BUMP_RADIUS = 2.5
# shift-invert Arnoldi steps (Saad, Numerical Methods for Large Eigenvalue
# Problems, 2nd ed., SIAM 2011, ch. 6-7), the residual bound of a converged
# Ritz value over ||Y||_F, and the guarded disc (1 + KRYLOV_MARGIN) R
KRYLOV_DIM = 80
KRYLOV_TOL = 1e-13
KRYLOV_MARGIN = 0.25


def radial_bump(w):
    """Smooth bump of |w| supported in the disc of radius BUMP_RADIUS.

    Its mean still moves with the shape parameter alpha at finite n: the
    k = 1 statistic at n = 400 (60 Ginibre trials per spectrum) read
    0.48-0.65 at alpha = 0.43 and 0.76-0.78 at alpha = -0.09.
    """
    w = np.asarray(w, dtype=complex)
    r2 = (np.abs(w) / BUMP_RADIUS) ** 2
    out = np.zeros(w.shape, dtype=float)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def anisotropic_bump(w):
    """Quadrupole-weighted bump; its mean responds to the cone opening of
    the limiting density, which makes it a shape-sensitive probe."""
    w = np.asarray(w, dtype=complex)
    quad_weight = (w.real**2 - w.imag**2) / BUMP_RADIUS**2
    return radial_bump(w) * quad_weight


_NAMED_TEST_FUNCTIONS = {
    "radial-bump": radial_bump,
    "anisotropic-bump": anisotropic_bump,
}


def _local_eigenvalues(spec, x, radius, seed) -> np.ndarray | None:
    """The eigenvalues of Y = A + X in |z| < (1 + KRYLOV_MARGIN) radius, or
    None where the guard of estimate_statistic fails.  Overwrites x with Y."""
    n, m = spec.n, KRYLOV_DIM
    x.flat[:: n + 1] += spec.expand()
    y_inv = np.linalg.inv(x)
    rng = np.random.default_rng((int(seed), len(MODELS)))
    basis = np.empty((m + 1, n), dtype=complex)
    h = np.zeros((m + 1, m), dtype=complex)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    basis[0] = v / np.linalg.norm(v)
    for j in range(m):
        v = y_inv @ basis[j]
        for _ in range(2):  # classical Gram-Schmidt, repeated once
            c = (basis[: j + 1] @ v.conj()).conj()
            v -= c @ basis[: j + 1]
            h[: j + 1, j] += c
        h[j + 1, j] = np.linalg.norm(v)
        basis[j + 1] = v / h[j + 1, j]
    theta, s = np.linalg.eig(h[:m])
    lam = 1.0 / theta
    inside = int(np.sum(np.abs(lam) < (1.0 + KRYLOV_MARGIN) * radius))
    keep = np.argsort(np.abs(lam))[: inside + 1]  # and the nearest one beyond
    lam, u = lam[keep], basis[:m].T @ s[:, keep]
    u /= np.linalg.norm(u, axis=0)
    tol = KRYLOV_TOL * float(np.linalg.norm(x))
    i, j = np.triu_indices(inside, 1)
    if (inside == m or np.max(np.linalg.norm(x @ u - u * lam, axis=0)) > tol
            or np.any(np.abs(lam[i] - lam[j]) <= tol)):
        return None
    return lam[:inside]


def mean_std_error(samples) -> tuple[float, float]:
    """Mean of per-trial values and its standard error std(ddof=1)/sqrt(count).

    ConditionViolated below two trials: one value has no spread to estimate.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ConditionViolated(
            [f"a standard error needs at least two trials, got {samples.size}"]
        )
    return float(np.mean(samples)), float(np.std(samples, ddof=1) / np.sqrt(samples.size))


def estimate_statistic(
    spec: DeformationSpectrum,
    model: str,
    k: int,
    test_function,
    trials: int,
    seed0: int = 0,
) -> CorrelationEstimate:
    """Monte Carlo estimate of E sum over distinct k-tuples of F(w_i1..wik).

    Eigenvalues are rescaled by N^(1/4) gamma(A) before evaluation.  Trial j
    uses seed0 + j, so the estimate is reproducible and extendable.

    A named test function at k = 1 and N > 2 KRYLOV_DIM reads only the
    eigenvalues in its support |z| < R (see BUMP_RADIUS), the Ritz values
    lam = 1/theta of KRYLOV_DIM Arnoldi steps on inv(Y) from a start drawn
    from the trial's seed.  Every lam in |z| < (1 + KRYLOV_MARGIN) R and the
    nearest one beyond need ||Y u - lam u|| <= KRYLOV_TOL ||Y||_F, and those
    in the disc must lie farther apart than that bound; otherwise the trial
    takes all eigenvalues with eigvals, and ``fallbacks`` counts it.  A
    custom callable declares no support: it, k > 1 and smaller N use eigvals.
    """
    named = isinstance(test_function, str)
    if named:
        fn_id = test_function
        test_function = _NAMED_TEST_FUNCTIONS[test_function]
    else:
        fn_id = getattr(test_function, "__name__", "custom")
    if k < 1:
        raise ConditionViolated([f"tuple order must be positive, got {k}"])
    gamma = scaling_gamma(spec)
    radius = None
    if named and k == 1 and spec.n > 2 * KRYLOV_DIM:
        radius = BUMP_RADIUS / (float(spec.n) ** 0.25 * abs(gamma))
    per_trial, fallbacks = [], 0
    for seed in range(int(seed0), int(seed0) + int(trials)):
        eigs = None
        if radius is not None:
            eigs = _local_eigenvalues(spec, sample_matrix(model, spec.n, seed), radius, seed)
            fallbacks += eigs is None
        if eigs is None:
            eigs = deformed_eigenvalues(spec, sample_matrix(model, spec.n, seed))
        w = rescale(eigs, spec.n, gamma)
        if k == 1:
            per_trial.append(float(np.sum(np.asarray(test_function(w), dtype=float))))
        else:  # distinct ordered k-tuples; only small k is practical here
            tuples = permutations(range(w.size), k)
            per_trial.append(sum((float(test_function(*(w[i] for i in t))) for t in tuples), 0.0))
    per_trial = np.array(per_trial)
    value, std_error = mean_std_error(per_trial)
    return CorrelationEstimate(
        k=int(k),
        test_function_id=fn_id,
        value=value,
        std_error=std_error,
        trials=int(trials),
        n=spec.n,
        gamma=complex(gamma),
        per_trial=per_trial,
        fallbacks=fallbacks,
    )


# ---------------------------------------------------------------------------
# Girko identity

# integration half-width of a GaussianField, in units of sigma
GIRKO_CUTOFF = 8.0
# a Girko node this close to an eigenvalue counts as pinned to the spectrum
GIRKO_SV_FLOOR = 1e-12
# a pinned node moves by GIRKO_JITTER * (attempt + 1) * (1 + i), at most
# GIRKO_RETRIES times
GIRKO_JITTER = 1e-8
GIRKO_RETRIES = 5
# entries of the Hyman vectors above this are rescaled away, per node
HYMAN_RESCALE = 1e100


@dataclass(frozen=True)
class GaussianField:
    """Gaussian bump test field with closed-form Laplacian."""

    center: complex
    sigma: float

    def value(self, z):
        z = np.asarray(z, dtype=complex)
        r2 = np.abs(z - self.center) ** 2
        return np.exp(-r2 / (2.0 * self.sigma**2))

    def laplacian(self, z):
        z = np.asarray(z, dtype=complex)
        r2 = np.abs(z - self.center) ** 2
        s2 = self.sigma**2
        return (r2 / s2**2 - 2.0 / s2) * np.exp(-r2 / (2.0 * s2))

    @property
    def half_width(self) -> float:
        return GIRKO_CUTOFF * self.sigma


def _hessenberg(a: np.ndarray) -> np.ndarray:
    """Upper Hessenberg form Q* A Q of a square matrix, Q unitary.

    Householder reflections; a column already zero below its subdiagonal is
    left alone, so a diagonal A stays diagonal, zero subdiagonal included.
    """
    h = np.array(a, dtype=complex)
    for k in range(h.shape[0] - 2):
        x = h[k + 1:, k]
        if not np.any(x[1:]):
            continue
        v = x.copy()
        v[0] += np.exp(1j * np.angle(x[0])) * np.linalg.norm(x)
        v /= np.linalg.norm(v)
        h[k + 1:, k:] -= 2.0 * np.outer(v, v.conj() @ h[k + 1:, k:])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v.conj())
        h[k + 2:, k] = 0.0
    return h


def _hyman_log_abs_det(h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """log|det(H - z)| of an upper Hessenberg H at each shift of z.

    Hyman's method: with x_m = 1, rows 2..m of (H - z) x = 0 fix x_(m-1),
    ..., x_1 by back-substitution through the subdiagonal, and then
    |det(H - z)| = |((H - z) x)_1| * prod |h_(i+1,i)|.  The vectors of all
    shifts are the columns of one (m, nodes) array; a column is rescaled
    when an entry passes HYMAN_RESCALE.  An exactly zero subdiagonal entry
    splits H into diagonal blocks, whose log-determinants add.  Shifts on
    the spectrum give -inf.
    """
    n = h.shape[0]
    cuts = [0, *(np.flatnonzero(np.diagonal(h, -1) == 0.0) + 1), n]
    out = np.zeros(z.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            b = h[lo:hi, lo:hi]
            m = hi - lo
            x = np.zeros((m, z.size), dtype=complex)
            x[-1] = 1.0
            log_scale = np.zeros(z.size)
            for i in range(m - 1, 0, -1):
                x[i - 1] = (z * x[i] - b[i, i:] @ x[i:]) / b[i, i - 1]
                big = np.flatnonzero(np.abs(x[i - 1]) > HYMAN_RESCALE)
                if big.size:
                    scale = np.abs(x[i - 1, big])
                    x[:, big] /= scale
                    log_scale[big] += np.log(scale)
            first = b[0] @ x - z * x[0]
            sub_log = np.sum(np.log(np.abs(np.diagonal(b, -1))))
            out += np.log(np.abs(first)) + log_scale + sub_log
    return out


def _near_spectrum(z: np.ndarray, eigs: np.ndarray, floor: float) -> np.ndarray:
    near = np.zeros(z.shape, dtype=bool)
    for e in eigs:
        near |= np.abs(z - e) <= floor
    return near


def girko_check(spec: DeformationSpectrum, x: np.ndarray, f, quad_points: int) -> GirkoReport:
    """Both sides of the spectral-average identity for one sample.

    lhs is the empirical average of f over the eigenvalues of A + X; rhs is
    (1/4piN) integral of Laplacian(f) * log|det H^z| over a tensor
    Gauss-Legendre grid centered on the field.  The sign follows from
    moving the Laplacian onto log|det| by two integrations by parts.

    log|det H^z| = 2 log|det(A + X - z)| comes from one Householder
    reduction of A + X to Hessenberg form and Hyman's O(N^2) recurrence at
    every node (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 14.6), split into blocks at exactly zero subdiagonal entries; it
    never uses the eigenvalues, so lhs and rhs stay independent routes.
    A node whose log|det| is not finite, or that lies within GIRKO_SV_FLOOR
    of an eigenvalue of the lhs, moves by GIRKO_JITTER * (attempt + 1) *
    (1 + i); a node still pinned after GIRKO_RETRIES moves raises
    QuadratureUnstable.  The grid spans GIRKO_CUTOFF field widths.
    """
    x = np.asarray(x, dtype=complex)
    eigs = deformed_eigenvalues(spec, x)
    lhs = float(np.mean(np.asarray(f.value(eigs), dtype=float)))

    half = f.half_width
    nodes, weights = leggauss(quad_points)
    gx = f.center.real + half * nodes
    gy = f.center.imag + half * nodes
    z = (gx[:, None] + 1j * gy[None, :]).ravel()
    w2 = (np.outer(weights, weights) * half * half).ravel()

    base = x.copy()
    idx = np.arange(spec.n)
    base[idx, idx] += spec.expand()
    h = _hessenberg(base)

    logdet = np.empty(z.size)
    todo = np.arange(z.size)
    jittered = 0
    for attempt in range(GIRKO_RETRIES + 1):
        logdet[todo] = _hyman_log_abs_det(h, z[todo])
        pinned = _near_spectrum(z[todo], eigs, GIRKO_SV_FLOOR)
        todo = todo[~np.isfinite(logdet[todo]) | pinned]
        if todo.size == 0:
            break
        jittered += todo.size
        z[todo] += GIRKO_JITTER * (attempt + 1) * (1.0 + 1.0j)
    else:
        raise QuadratureUnstable(
            f"quadrature node {z[todo[0]]} pinned to the spectrum after "
            f"{GIRKO_RETRIES} jitters"
        )
    total = np.sum(w2 * f.laplacian(z) * 2.0 * logdet)
    rhs = float(total / (4.0 * np.pi * spec.n))
    return GirkoReport(
        lhs=lhs,
        rhs=rhs,
        gap=abs(lhs - rhs),
        quad_points=quad_points,
        jittered_nodes=jittered,
    )


# ---------------------------------------------------------------------------
# log-determinant statistic


def _gram(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """G = Y*Y with Y = X + diag(d), built in row blocks straight from X and d,
    G[lo:hi] = (X[:, lo:hi]* + diag(conj d)[lo:hi]) (X + diag(d)), so no copy
    of Y is made; each block computes its columns from lo on, and the
    blocks below the diagonal are mirrored from those above it.
    """
    n = x.shape[0]
    gram = np.empty((n, n), dtype=complex)
    for lo in range(0, n, _GRAM_BLOCK):
        hi = min(lo + _GRAM_BLOCK, n)
        ybh = x[:, lo:hi].conj().T
        rows = np.arange(hi - lo)
        ybh[rows, lo + rows] += d[lo:hi].conj()
        np.matmul(ybh, x[:, lo:], out=gram[lo:hi, lo:])
        gram[lo:hi, lo:] += np.multiply(ybh[:, lo:], d[lo:], out=ybh[:, lo:])
        np.conjugate(gram[lo:hi, hi:].T, out=gram[hi:, lo:hi])
    return gram


def log_det_statistic(
    spec_t: DeformationSpectrum,
    x: np.ndarray,
    w: complex,
    scalings: FlowScalings,
) -> float:
    """Centered log-determinant of the Hermitization at a rescaled point.

    Tr log|H - i eta_t| minus its deterministic counterpart, as the
    eta-integral of Im Tr G - 2N Im<M> from eta_t up to E = ETA_UPPER at
    z = w / (gamma_t N^(1/4)).

    The random half has a closed form: with Y = A + X - z and its singular
    values s_j, the integral of sum_j 2 eta / (s_j^2 + eta^2) is
    log det(Y*Y + E^2) - log det(Y*Y + eta_t^2), two log-determinants of one
    Gram matrix G (see _gram), so no singular value is computed.  Each shift
    is written onto the saved diagonal of G, never added to the previous
    one, and slogdet factors a copy of G.  The deterministic half,
    2N times the integral of Im<M>, runs on log-spaced Gauss-Legendre
    panels with Im<M> from one solve_v call over all nodes.  Both halves
    stop at E and their 1/eta leading terms cancel, so the truncation costs
    O(1/E^2).

    Raises DimensionMismatch for an X that is not N x N, ConditionViolated
    for eta_t <= 0, for a shift at or below the rounding floor of G,
    N eps max G_ii, or for a factorisation whose sign is not +1.
    """
    x = _as_sample(spec_t, x)
    if scalings.eta_t <= 0.0:
        raise ConditionViolated(["regularization scale eta_t must be positive"])
    n = spec_t.n
    z_w = complex(w) / (scalings.gamma_t * float(n) ** 0.25)
    gram = _gram(x, spec_t.expand() - z_w)
    diag = gram.diagonal().real.copy()
    floor = n * np.finfo(float).eps * float(np.max(diag))
    log_dets = []
    for s in (scalings.eta_t**2, ETA_UPPER**2):
        if s <= floor:
            raise ConditionViolated([
                f"shift {s:.3e} is at or below the rounding floor {floor:.3e} "
                "of the Gram matrix"
            ])
        np.fill_diagonal(gram, diag + s)
        sign, log_det = np.linalg.slogdet(gram)
        if abs(sign - 1.0) > _SIGN_TOL:
            raise ConditionViolated([
                f"Gram matrix shifted by {s:.3e} factors with sign {sign:.6g}, not +1"
            ])
        log_dets.append(float(log_det))
    del gram  # before the Dyson solve allocates its own N-wide arrays
    log_det_lo, log_det_hi = log_dets
    edges = np.geomspace(scalings.eta_t, ETA_UPPER, PANELS + 1)
    nodes, weights = leggauss(PANEL_NODES)
    mid, rad = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    etas = (mid[:, None] + rad[:, None] * nodes).ravel()
    _, im_m, _ = solve_v(spec_t, z_w, etas)
    deterministic = 2.0 * n * float(np.sum((rad[:, None] * weights).ravel() * im_m))
    return log_det_hi - log_det_lo - deterministic


# ---------------------------------------------------------------------------
# smallest singular value and local-law gates


def _sv_below(gram: np.ndarray, eta: float) -> bool | None:
    """Whether sigma_min(Y) < eta, from G = Y*Y, or None within the band;
    the shifts of smallest_sv_tail are written onto the diagonal of gram."""
    diag = gram.diagonal().real.copy()
    band = gram.shape[0] * np.finfo(float).eps * float(np.linalg.norm(gram))
    for shift in (eta**2 + band, eta**2 - band):
        np.fill_diagonal(gram, diag - shift)
        try:
            np.linalg.cholesky(gram)
            return None if shift < eta**2 else False
        except np.linalg.LinAlgError:
            pass
    return True


def smallest_sv_tail(
    spec: DeformationSpectrum,
    model: str,
    z: complex,
    eta: float,
    trials: int,
    seed0: int = 0,
) -> TailEstimate:
    """Fraction of trials whose smallest singular value of A + X - z falls
    below eta, with binomial error bars.

    A trial builds G = Y*Y of Y = A + X - z, and with the band
    delta = N eps ||G||_F it is a miss if G - (eta^2 + delta) I has a
    Cholesky factor and a hit if G - (eta^2 - delta) I has none.  Otherwise
    it redraws its sample and takes the SVD of Y, and ``svds`` counts it.
    ConditionViolated below one trial: there is no fraction to take.
    """
    if trials < 1:
        raise ConditionViolated([f"the tail needs at least one trial, got {trials}"])
    d = spec.expand() - complex(z)
    hits = svds = 0
    for seed in range(int(seed0), int(seed0) + int(trials)):
        hit = _sv_below(_gram(sample_matrix(model, spec.n, seed), d), eta)
        if hit is None:
            svds += 1
            hit = hermitize(spec, sample_matrix(model, spec.n, seed), z).singular_values()[0] < eta
        hits += bool(hit)
    p = hits / trials
    err = float(np.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials))
    return TailEstimate(probability=p, std_error=err, trials=int(trials), eta=float(eta), svds=svds)
