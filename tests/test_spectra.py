"""Monte Carlo layer: ensembles, statistics, Girko checks, tails."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from critedge import cli, spectra
from critedge.criticality import scaling_gamma, verify_criticality
from critedge.dyson import flow_scalings
from critedge.errors import (
    ConditionViolated,
    DimensionMismatch,
    QuadratureUnstable,
    UnknownModel,
)
from critedge.spectra import (
    GaussianField,
    anisotropic_bump,
    deformed_eigenvalues,
    estimate_statistic,
    girko_check,
    hermitize,
    log_det_statistic,
    radial_bump,
    rescale,
    sample_matrix,
    smallest_sv_tail,
)
from critedge.synthesis import quartet_deformation, random_deformation_critical

MODELS = ("ginibre", "iid-bernoulli-like", "iid-custom")
# the rescaled points w of the log-det ops of the dyson-sweep benchmark
LOGDET_POINTS = (0.0, 0.5 + 0.5j, -1.0j, 1.0, -0.7 + 0.3j, 0.3 - 0.8j)


@pytest.mark.parametrize("model", MODELS)
def test_entry_moments(model):
    n = 2000
    x = sample_matrix(model, n, seed=0)
    second_abs = float(np.mean(np.abs(x) ** 2)) * n
    second_plain = complex(np.mean(x**2)) * n
    assert abs(second_abs - 1.0) < 0.05
    assert abs(second_plain) < 0.05


def test_models_are_deterministic_and_distinct():
    a = sample_matrix("ginibre", 64, seed=5)
    b = sample_matrix("ginibre", 64, seed=5)
    assert np.array_equal(a, b)
    c = sample_matrix("iid-custom", 64, seed=5)
    assert not np.allclose(a, c)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", [2, 40, 400, 401])
def test_sample_matrix_matches_the_scaled_sum_bit_for_bit(model, n):
    # the draws of sample_matrix, combined as scale * (re + 1j * im)
    rng = np.random.default_rng((3, MODELS.index(model)))
    if model == "ginibre":
        re, im = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    elif model == "iid-bernoulli-like":
        re = 2.0 * rng.integers(0, 2, size=(n, n)).astype(float) - 1.0
        im = 2.0 * rng.integers(0, 2, size=(n, n)).astype(float) - 1.0
    else:
        re = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(n, n))
        im = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(n, n))
    expected = 1.0 / np.sqrt(2.0 * n) * (re + 1j * im)
    assert sample_matrix(model, n, seed=3).tobytes() == expected.tobytes()


def test_unknown_model_and_small_n():
    with pytest.raises(UnknownModel):
        sample_matrix("wishart", 32, seed=0)
    with pytest.raises(ConditionViolated):
        sample_matrix("ginibre", 1, seed=0)


def test_deformed_eigenvalues_shift_only_the_diagonal():
    spec = quartet_deformation(0.5, n=64)
    x = sample_matrix("ginibre", 64, seed=1)
    ev = deformed_eigenvalues(spec, x)
    dense = x + np.diag(spec.expand())
    assert np.allclose(np.sort_complex(ev), np.sort_complex(np.linalg.eigvals(dense)))


def test_rescale_roundtrip():
    pts = np.array([0.3 + 0.1j, -1.2 + 2.0j, 0.05 - 0.4j])
    gamma = 0.8 * np.exp(0.3j)
    back = rescale(pts, 400, gamma) / (400**0.25 * gamma)
    assert np.max(np.abs(back - pts)) < 1e-12


def test_hermitization_spectrum_is_symmetric_pm_singular_values():
    spec = quartet_deformation(0.5, n=48)
    x = sample_matrix("ginibre", 48, seed=3)
    op = hermitize(spec, x, z=0.2 + 0.1j)
    zero = np.zeros_like(op.block)
    h = np.block([[zero, op.block], [op.block.conj().T, zero]])
    svs = op.singular_values()
    merged = np.sort(np.concatenate([svs, -svs]))
    assert np.max(np.abs(np.linalg.eigvalsh(h) - merged)) < 1e-10
    # |det H^z| = |det(A + X - z)|^2
    assert np.linalg.slogdet(h)[1] == pytest.approx(2.0 * np.sum(np.log(svs)))


# ---------------------------------------------------------------- bumps


def test_radial_bump_support_and_smoothness():
    assert radial_bump(np.array([3.0 + 0j]))[0] == 0.0
    assert radial_bump(np.array([0.0 + 0j]))[0] == pytest.approx(1.0)
    # value decays smoothly toward the rim
    r = radial_bump(np.array([0.5, 1.5, 2.4], dtype=complex))
    assert np.all(np.diff(r) < 0)


def test_anisotropic_bump_quadrupole_symmetry():
    w = np.array([1.0 + 0j, 1j, 0.7 + 0.7j])
    v = anisotropic_bump(w)
    assert v[0] > 0 and v[1] < 0
    assert abs(v[0] + v[1]) < 1e-15  # x and y axes have opposite sign
    assert abs(v[2]) < 1e-15  # the diagonal is a node


# ----------------------------------------------------------- statistics


def test_estimate_statistic_reproducible_and_error_scales():
    spec = quartet_deformation(0.3, n=64)
    a = estimate_statistic(spec, "ginibre", 1, "radial-bump", trials=40, seed0=7)
    b = estimate_statistic(spec, "ginibre", 1, "radial-bump", trials=40, seed0=7)
    assert a.value == b.value and a.std_error == b.std_error
    assert a.per_trial.shape == (40,)
    wide = estimate_statistic(spec, "ginibre", 1, "radial-bump", trials=160, seed0=7)
    # quadrupling the trials should halve the error, up to sampling noise
    assert wide.std_error < a.std_error * 0.75
    # the first 40 trials are shared: the estimator extends, never reshuffles
    assert np.array_equal(wide.per_trial[:40], a.per_trial)


def test_estimate_statistic_custom_callable_and_k2():
    spec = quartet_deformation(0.3, n=32)

    def ones(w):
        return np.ones_like(np.asarray(w, dtype=complex), dtype=float)

    est1 = estimate_statistic(spec, "ginibre", 1, ones, trials=3, seed0=0)
    assert est1.value == pytest.approx(32.0)  # sum over all eigenvalues of 1

    def pair_ones(w1, w2):
        return np.ones(np.shape(w1), dtype=float)

    est2 = estimate_statistic(spec, "ginibre", 2, pair_ones, trials=3, seed0=0)
    assert est2.value == pytest.approx(32.0 * 31.0)  # ordered distinct pairs


def bump_sums_by_eigvals(spec, model, seeds):
    """Per-trial sums of both named bumps over all eigenvalues of A + X."""
    gamma = scaling_gamma(spec)
    out = []
    for seed in seeds:
        w = rescale(deformed_eigenvalues(spec, sample_matrix(model, spec.n, seed)), spec.n, gamma)
        out.append([float(np.sum(f(w))) for f in (radial_bump, anisotropic_bump)])
    return np.array(out)


@pytest.mark.parametrize("model, synth", [("ginibre", 0), ("iid-bernoulli-like", 3)])
def test_arnoldi_bump_sums_match_the_eigvals_route(model, synth):
    # 25 draws per model at N = 200 > 2 KRYLOV_DIM; the named bumps vanish
    # beyond the support radius R, so the eigenvalues in the guarded disc
    # give the whole sum
    n, seeds = 200, range(25)
    spec = random_deformation_critical(synth, n=n)
    gamma = scaling_gamma(spec)
    radius = spectra.BUMP_RADIUS / (n**0.25 * abs(gamma))
    local = []
    for seed in seeds:
        eigs = spectra._local_eigenvalues(spec, sample_matrix(model, n, seed), radius, seed)
        assert eigs is not None and eigs.size < 20
        w = rescale(eigs, n, gamma)
        local.append([float(np.sum(f(w))) for f in (radial_bump, anisotropic_bump)])
    assert np.max(np.abs(np.array(local) - bump_sums_by_eigvals(spec, model, seeds))) <= 1e-12


def test_correlation_fallback_is_the_eigvals_route_bit_for_bit(monkeypatch):
    # two Arnoldi steps converge no Ritz value beyond the disc
    monkeypatch.setattr(spectra, "KRYLOV_DIM", 2)
    spec = random_deformation_critical(0, n=200)
    est = estimate_statistic(spec, "ginibre", 1, "anisotropic-bump", trials=2, seed0=5)
    assert est.fallbacks == 2
    assert est.per_trial.tobytes() == bump_sums_by_eigvals(spec, "ginibre", range(5, 7))[:, 1].tobytes()


def test_custom_callable_and_small_n_keep_eigvals(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Arnoldi kernel ran")

    monkeypatch.setattr(spectra, "_local_eigenvalues", refuse)
    spec = random_deformation_critical(0, n=200)
    assert estimate_statistic(spec, "ginibre", 1, radial_bump, trials=2).fallbacks == 0
    small = random_deformation_critical(0, n=2 * spectra.KRYLOV_DIM)
    assert estimate_statistic(small, "ginibre", 1, "radial-bump", trials=2).fallbacks == 0


def test_named_bump_correlation_computes_no_full_spectrum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("all eigenvalues computed")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    spec = random_deformation_critical(0, n=400)
    est = estimate_statistic(spec, "ginibre", 1, "radial-bump", trials=2, seed0=3)
    assert est.fallbacks == 0 and np.all(np.isfinite(est.per_trial))


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_kernels_memory_budget():
    # the sample, Y in its place and inv(Y), or the Gram matrix and its
    # Cholesky factor: under three N x N complex matrices per trial
    n = 400
    spec = random_deformation_critical(0, n=n)
    corr = traced_peak(lambda: estimate_statistic(spec, "ginibre", 1, "radial-bump", trials=2))
    tail = traced_peak(lambda: smallest_sv_tail(spec, "ginibre", 0.0, n**-0.8, trials=1))
    assert max(corr, tail) <= 3 * n * n * 16, (corr, tail)


def test_local_law_dispersion_shrinks_with_eta(local_law_dispersion):
    spec = quartet_deformation(0.5, n=64)
    rough = local_law_dispersion(spec, "ginibre", eta=0.05, trials=12, z=0.1)
    fine = local_law_dispersion(spec, "ginibre", eta=0.5, trials=12, z=0.1)
    assert fine < rough


def test_smallest_sv_tail_limits():
    spec = quartet_deformation(0.5, n=32)
    high = smallest_sv_tail(spec, "ginibre", z=0.1, eta=10.0, trials=8)
    low = smallest_sv_tail(spec, "ginibre", z=0.1, eta=1e-12, trials=8)
    assert high.probability == 1.0
    assert low.probability == 0.0
    assert high.std_error > 0
    with pytest.raises(ConditionViolated, match="at least one trial"):
        smallest_sv_tail(spec, "ginibre", z=0.1, eta=0.05, trials=0)


def test_sv_statistics_compute_no_eigenvalues(monkeypatch, local_law_dispersion):
    def refuse(*args, **kwargs):
        raise AssertionError("eigenvalues computed and thrown away")

    monkeypatch.setattr(spectra, "deformed_eigenvalues", refuse)
    spec = quartet_deformation(0.5, n=32)
    assert 0.0 <= smallest_sv_tail(spec, "ginibre", z=0.1, eta=0.05, trials=3).probability <= 1.0
    assert np.isfinite(local_law_dispersion(spec, "ginibre", eta=0.1, trials=3, z=0.1))


def test_sv_tail_cholesky_count_is_the_svd_count():
    n, trials = 40, 200
    spec = random_deformation_critical(0, n=n)
    smallest = np.array([
        hermitize(spec, sample_matrix("ginibre", n, j), 0.0).singular_values()[0]
        for j in range(trials)
    ])
    counts = []
    for scale in (0.5, 1.0, 2.0):
        eta = scale * n**-0.75
        est = smallest_sv_tail(spec, "ginibre", z=0.0, eta=eta, trials=trials)
        counts.append(round(est.probability * trials))
        assert counts[-1] == int(np.sum(smallest < eta)) and est.svds == 0
    assert 0 < counts[0] < counts[-1] < trials


def test_sv_tail_outside_the_band_takes_no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("singular values computed")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    spec = random_deformation_critical(0, n=400)
    est = smallest_sv_tail(spec, "ginibre", z=0.0, eta=400**-0.8, trials=3, seed0=17)
    assert est.svds == 0 and 0.0 <= est.probability <= 1.0


def test_sv_tail_cli_output_is_the_direct_svd_count(tmp_path):
    spec = quartet_deformation(0.5, n=40)
    spec.save(tmp_path / "q.json")
    out = tmp_path / "tail.csv"
    argv = ["simulate", str(tmp_path / "q.json"), "--statistic", "sv-tail",
            "--trials", "6", "--seed", "11", "--eta", "0.02", "--center", "0.1",
            "--out", str(out)]
    assert cli.main(argv) == 0
    smallest = [
        hermitize(spec, sample_matrix("ginibre", 40, 11 + j), 0.1).singular_values()[0]
        for j in range(6)
    ]
    p = int(np.sum(np.array(smallest) < 0.02)) / 6
    assert 0.0 < p < 1.0
    err = float(np.sqrt(max(p * (1.0 - p), 1.0 / 6) / 6))
    expected = f"probability,std_error,eta,trials\n{p!r},{err!r},{0.02!r},6\n"
    assert out.read_bytes() == expected.encode()


# --------------------------------------------------- Girko and eta integral


def test_gaussian_field_laplacian_matches_finite_differences():
    f = GaussianField(center=0.3 + 0.2j, sigma=0.6)
    w = 0.7 - 0.1j
    h = 1e-4
    num = (
        f.value(np.array([w + h]))[0]
        + f.value(np.array([w - h]))[0]
        + f.value(np.array([w + 1j * h]))[0]
        + f.value(np.array([w - 1j * h]))[0]
        - 4.0 * f.value(np.array([w]))[0]
    ) / h**2
    assert num == pytest.approx(f.laplacian(np.array([w]))[0], abs=1e-5)


def test_girko_identity_small_case():
    # quadrature error is not monotone in the node count at this size, so
    # only the magnitude is gated; the systematic refinement study lives in
    # the acceptance suite
    spec = quartet_deformation(0.5, n=24)
    x = sample_matrix("ginibre", 24, seed=4)
    f = GaussianField(center=0.2 + 0.1j, sigma=0.5)
    coarse = girko_check(spec, x, f, quad_points=64)
    fine = girko_check(spec, x, f, quad_points=128)
    assert coarse.gap < 1e-3
    assert fine.gap < 1e-3
    assert coarse.lhs == pytest.approx(fine.lhs)  # lhs has no quadrature


def test_girko_far_field_vanishes():
    spec = quartet_deformation(0.5, n=24)
    x = sample_matrix("ginibre", 24, seed=4)
    f = GaussianField(center=30.0 + 0j, sigma=0.5)
    rep = girko_check(spec, x, f, quad_points=64)
    assert abs(rep.lhs) < 1e-12 and abs(rep.rhs) < 1e-6


@pytest.mark.parametrize(
    "n, center", [(24, 0.2 + 0.1j), (48, 0.2 + 0.1j), (48, -0.4 + 0.3j), (24, 30.0 + 0j)]
)
def test_girko_rhs_matches_svd_oracle(n, center, girko_svd_oracle):
    spec = quartet_deformation(0.5, n=n) if n == 24 else random_deformation_critical(1, n=n)
    x = sample_matrix("ginibre", n, seed=4)
    f = GaussianField(center=center, sigma=0.5)
    rep = girko_check(spec, x, f, quad_points=32)
    rhs, jittered = girko_svd_oracle(spec, x, f, 32)
    assert abs(rep.rhs - rhs) <= 1e-10
    assert rep.jittered_nodes == jittered == 0


def test_girko_jitters_a_node_on_an_atom(girko_svd_oracle):
    # X = 0 leaves A + X diagonal: its Hessenberg form has a zero
    # subdiagonal, and the centre node of an odd rule sits on the atom
    spec = quartet_deformation(0.5, n=24)
    x = np.zeros((24, 24), dtype=complex)
    f = GaussianField(center=complex(spec.eigenvalues[0]), sigma=0.5)
    rep = girko_check(spec, x, f, quad_points=33)
    rhs, jittered = girko_svd_oracle(spec, x, f, 33)
    assert rep.jittered_nodes >= 1 and rep.jittered_nodes == jittered
    assert np.isfinite(rep.rhs)
    assert abs(rep.rhs - rhs) <= 1e-10


def test_girko_pinned_node_raises(monkeypatch):
    # a zero jitter leaves the centre node on the atom through every retry
    monkeypatch.setattr(spectra, "GIRKO_JITTER", 0.0)
    spec = quartet_deformation(0.5, n=24)
    f = GaussianField(center=complex(spec.eigenvalues[0]), sigma=0.5)
    with pytest.raises(QuadratureUnstable):
        girko_check(spec, np.zeros((24, 24)), f, quad_points=33)


def scipy_modules_after_cli(argv) -> str:
    """The scipy modules a fresh interpreter holds after ``cli.main(argv)``."""
    code = (
        "import sys\n"
        "from critedge.cli import main\n"
        f"rc = main({list(map(str, argv))!r})\n"
        "assert rc == 0, rc\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def test_girko_cli_leaves_scipy_unimported(tmp_path):
    spectrum = tmp_path / "q.json"
    quartet_deformation(0.5, n=24).save(spectrum)
    argv = ["simulate", spectrum, "--statistic", "girko", "--quad", "16",
            "--out", tmp_path / "g.csv"]
    assert scipy_modules_after_cli(argv) == "[]"


def test_flow_cli_leaves_scipy_unimported(tmp_path):
    # a complex spectrum: the fix leg aligns two supports by an assignment
    spectrum = tmp_path / "a.json"
    random_deformation_critical(0, n=400).save(spectrum)
    assert scipy_modules_after_cli(["flow", spectrum, "--out", tmp_path / "p.jsonl"]) == "[]"


def test_eta_log_identity_matches_closed_form(eta_log_identity):
    svs = np.array([0.03, 0.4, 1.0, 2.7])
    numeric, analytic = eta_log_identity(svs)
    assert np.max(np.abs(numeric - analytic)) < 1e-10
    assert np.max(np.abs(analytic + 2.0 * np.log(svs))) == 0.0


def test_log_det_statistic_finite_and_deterministic():
    spec = quartet_deformation(0.4, n=48)
    rep = verify_criticality(spec)
    sc = flow_scalings(spec)
    x = sample_matrix("ginibre", 48, seed=6)
    a = log_det_statistic(spec, x, w=0.3 + 0.2j, scalings=sc)
    b = log_det_statistic(spec, x, w=0.3 + 0.2j, scalings=sc)
    assert np.isfinite(a) and a == b
    assert rep.is_critical


def svd_panel_rule(spec, xs, w, sc, bisect_v) -> list[float]:
    """The log-det statistic of each sample in xs from singular values and
    bisected v.

    Both halves on the panel rule of log_det_statistic: 48 log-spaced
    panels of 10 Gauss-Legendre nodes from eta_t to 1e4.
    """
    n = spec.n
    z = complex(w) / (sc.gamma_t * n**0.25)
    edges = np.geomspace(sc.eta_t, 1e4, 49)
    nodes, wts = np.polynomial.legendre.leggauss(10)
    rad = 0.5 * (edges[1:] - edges[:-1])
    etas = (0.5 * (edges[1:] + edges[:-1])[:, None] + rad[:, None] * nodes).ravel()
    v = bisect_v(spec, z, etas)
    # Im<M> as v S(v): v - eta cancels where eta is large
    im_m = v * np.sum(spec.weights / (np.abs(spec.eigenvalues - z) ** 2 + v[:, None] ** 2), axis=1)
    out = []
    for x in xs:
        sv2 = np.linalg.svd(x + np.diag(spec.expand() - z), compute_uv=False) ** 2
        im_tr_g = np.sum(2.0 * etas[:, None] / (sv2 + etas[:, None] ** 2), axis=1)
        out.append(float(np.sum((rad[:, None] * wts).ravel() * (im_tr_g - 2.0 * n * im_m))))
    return out


@pytest.mark.parametrize("w", [0.0, 0.5 + 0.5j, -1.0j])
def test_log_det_statistic_matches_panel_rule_with_oracle_v(w, bisect_v):
    spec = quartet_deformation(0.4, n=48)
    sc = flow_scalings(spec)
    x = sample_matrix("ginibre", 48, seed=6)
    (expected,) = svd_panel_rule(spec, [x], w, sc, bisect_v)
    assert abs(log_det_statistic(spec, x, w, sc) - expected) <= 1e-10


@pytest.mark.parametrize("synth", [0, 1, 2, 3, "quartet"])
def test_log_det_statistic_matches_svd_panel_rule_at_n400(synth, bisect_v):
    # the random half is a closed form there and a quadrature of the
    # singular values here; at N = 400 the two differ by below 1e-10
    if synth == "quartet":
        spec = quartet_deformation(0.5, n=400)
    else:
        spec = random_deformation_critical(synth, n=400)
    sc = flow_scalings(spec)
    xs = (sample_matrix("ginibre", 400, seed=9), np.zeros((400, 400)))
    for w in LOGDET_POINTS:
        for x, expected in zip(xs, svd_panel_rule(spec, xs, w, sc, bisect_v)):
            assert abs(log_det_statistic(spec, x, w, sc) - expected) <= 1e-9, w


def test_log_det_statistic_takes_no_singular_values(monkeypatch):
    spec = quartet_deformation(0.4, n=48)
    sc = flow_scalings(spec)
    x = sample_matrix("ginibre", 48, seed=6)
    expected = log_det_statistic(spec, x, 0.5 + 0.5j, sc)

    def boom(*args, **kwargs):
        raise AssertionError("log_det_statistic took singular values")

    monkeypatch.setattr(np.linalg, "svd", boom)
    monkeypatch.setattr(spectra.HermitizedOperator, "singular_values", boom)
    assert log_det_statistic(spec, x, 0.5 + 0.5j, sc) == expected


def test_log_det_statistic_typed_errors(monkeypatch):
    spec = quartet_deformation(0.4, n=48)
    sc = flow_scalings(spec)
    x = sample_matrix("ginibre", 48, seed=6)
    with pytest.raises(DimensionMismatch):
        log_det_statistic(spec, x[:47, :47], 0.0, sc)
    # eta_t^2 = 1e-18 is below the Gram's rounding floor N eps max G_ii
    with pytest.raises(ConditionViolated, match="rounding floor"):
        log_det_statistic(spec, x, 0.0, dataclasses.replace(sc, eta_t=1e-9))
    with pytest.raises(ConditionViolated, match="regularization scale"):
        log_det_statistic(spec, x, 0.0, dataclasses.replace(sc, eta_t=0.0))
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: (-1.0 + 0.0j, 0.0))
    with pytest.raises(ConditionViolated, match="sign"):
        log_det_statistic(spec, x, 0.0, sc)


def test_log_det_statistic_memory_budget():
    # two N x N complex matrices: the Gram matrix and one working copy
    n = 400
    spec = random_deformation_critical(1, n=n)
    sc = flow_scalings(spec)
    x = sample_matrix("ginibre", n, seed=3)
    log_det_statistic(spec, x, 0.5 + 0.5j, sc)
    tracemalloc.start()
    try:
        log_det_statistic(spec, x, 0.5 + 0.5j, sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n * 16, peak
