"""The benchmark's workloads: closed-loop op sequences built from a seed.

A workload turns ``(seed, k)`` into the k-th op: its inputs are generated
before the op is timed, ``run`` is the timed call into the program, and
``check`` verifies the outputs independently afterwards.  The same seed
always yields the same op sequence.  ``synthesis`` only generates inputs
and is never timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Synthesis seeds of the flow inputs, the same in every run: the cost of a
# flow op depends on the draw (1.7-6.3 s at n = 400), and the 16 ops a run
# times are too few to average over draws, so inputs drawn from the
# benchmark seed would give each run its own cost mix.  The seed only
# orders each kind's inputs.  n400 seed 6 is a slow draw, about twice the
# others; the slowest of the first eight, seed 2, alone would take a third
# of a run.
FLOW_INPUTS = {"n400": (0, 1, 3, 6), "n1600": (0, 3), "real": (0, 1)}
FLOW_GRID = 257

# synthesis seeds of the montecarlo spectra (n = 400 and the girko n), the
# same in every run; the benchmark seed draws the simulation seeds
MC_SYNTH = (0, 0)
MC_TRIALS = 3
MC_GIRKO_N = 48
MC_GIRKO_QUAD = 64

# rescaled points w of the log-det ops, visited in turn
LOGDET_POINTS = (0.0, 0.5 + 0.5j, -1.0j, 1.0, -0.7 + 0.3j, 0.3 - 0.8j)
BATCH_POINTS = 100
# (|z| bound, log10 eta range) of the two solve_batch grids
BATCH_GRIDS = {"edge": (0.02, (-9.0, -5.0)), "bulk": (0.6, (-3.0, 0.0))}
# synthesis seeds of the random dyson-sweep spectra, the same in every run:
# the cost of a solve scales with the support size, which varies by draw,
# so every run cycles over the same four; the benchmark seed orders them
# and draws X, the batch grids and the start of the w rotation
DYSON_SYNTH = (0, 1, 2, 3)
# full-Dyson cross-check points: bulk, where the full iteration converges
FULL_MDE_POINTS = 3


class NonZeroExit(Exception):
    """A CLI command returned a non-zero exit code."""


@dataclass(frozen=True)
class Op:
    kind: str
    label: str  # names the op's inputs: equal labels mean equal inputs
    run: Callable[[], object]  # timed
    check: Callable[[object], None]  # untimed; raises on a wrong output


def _cli(argv: list[str]) -> str:
    """Run one CLI command in process; returns its standard output."""
    from critedge import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise NonZeroExit(f"{argv[0]} exited {rc}: {err.getvalue().strip()[:300]}")
    return out.getvalue()


def _seeds(*entropy: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(list(entropy)).generate_state(count)]


# ---------------------------------------------------------- flow-pipeline


def flow_input(kind: str, synth: int):
    """The spectrum file content of one flow-pipeline op."""
    from critedge.synthesis import random_deformation_critical, random_real_critical

    if kind == "real":
        # the inverse-side real family, lifted to a deformation the way the
        # CLI test of the Hermitian route does
        b = random_real_critical(synth)
        scale = np.sqrt(np.sum(b.weights * b.eigenvalues**2))
        return b.with_eigenvalues(scale / b.eigenvalues)
    return random_deformation_critical(synth, n=int(kind[1:]))


class FlowPipeline:
    """analyze -> flow -> flow --check on one spectrum file per op."""

    name = "flow-pipeline"
    rotation = ("n400", "n1600", "n400", "real")
    # two rotations visit each of FLOW_INPUTS once
    period = 8
    warmup_op = 3  # untimed, before the loop: the cheap Hermitian route

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 1])
        self.order = {kind: rng.permutation(pool) for kind, pool in FLOW_INPUTS.items()}

    def op_at(self, k: int, opdir: Path) -> Op:
        n = len(self.rotation)
        kind = self.rotation[k % n]
        # this op's index among the ops of its kind
        j = (k // n) * self.rotation.count(kind) + self.rotation[: k % n].count(kind)
        pool = self.order[kind]
        synth = int(pool[j % len(pool)])
        spec = flow_input(kind, synth)
        spec_file = opdir / "spectrum.json"
        spec.save(spec_file)
        analysis, path_file, report_file = (
            opdir / "analysis.json", opdir / "path.jsonl", opdir / "path.report.json"
        )

        def run() -> str:
            _cli(["analyze", str(spec_file), "--out", str(analysis)])
            _cli(["flow", str(spec_file), "--grid", str(FLOW_GRID),
                  "--out", str(path_file), "--report", str(report_file)])
            with open(report_file, encoding="utf-8") as fh:
                frak_c1 = json.load(fh)["frak_c1"]
            return _cli(["flow", "--check", str(path_file), "--frak-c1", repr(frak_c1)])

        def check(check_output: str) -> None:
            with open(analysis, encoding="utf-8") as fh:
                if json.load(fh)["is_critical"] is not True:
                    raise checks.CheckFailed("analyze did not report the input critical")
            with open(report_file, encoding="utf-8") as fh:
                if json.load(fh)["passed"] is not True:
                    raise checks.CheckFailed("flow report did not pass")
            if "overall: pass" not in check_output:
                raise checks.CheckFailed("flow --check did not pass")
            checks.check_flow_path(path_file, spec.eigenvalues, spec.multiplicities)

        return Op(kind, f"{kind} synth={synth}", run, check)

    def final_check(self) -> None:
        pass


# -------------------------------------------------------------- montecarlo


class MonteCarlo:
    """One `critedge simulate` command per op; simulation seeds advance.

    sv-tail runs twice per rotation: it is two fifths of the ops, between
    the cheaper correlation and radius ops and the dearer girko ones, so
    the median op falls inside one kind rather than on the boundary between
    two, where it would jump from run to run.
    """

    name = "montecarlo"
    rotation = ("correlation", "sv-tail", "radius", "sv-tail", "girko")
    period = len(rotation)
    warmup_op = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        from critedge.synthesis import random_deformation_critical

        (self.sim0,) = _seeds(seed, 2, count=1)
        self.spectrum = workdir / "mc400.json"
        self.girko_spectrum = workdir / "mc48.json"
        random_deformation_critical(MC_SYNTH[0], n=400).save(self.spectrum)
        random_deformation_critical(MC_SYNTH[1], n=MC_GIRKO_N).save(self.girko_spectrum)
        self.synth = MC_SYNTH

    def op_at(self, k: int, opdir: Path) -> Op:
        statistic = self.rotation[k % len(self.rotation)]
        sim_seed = (self.sim0 + k * MC_TRIALS) % 2**62
        out = opdir / "trials.csv"
        if statistic == "girko":
            argv = ["simulate", str(self.girko_spectrum), "--quad", str(MC_GIRKO_QUAD)]
            label = f"girko n={MC_GIRKO_N} synth={self.synth[1]} seed={sim_seed}"
        else:
            argv = ["simulate", str(self.spectrum), "--trials", str(MC_TRIALS)]
            label = f"{statistic} n=400 synth={self.synth[0]} seed={sim_seed}"
        argv += ["--statistic", statistic, "--seed", str(sim_seed), "--out", str(out)]

        def check(_) -> None:
            checks.check_simulate(statistic, MC_TRIALS, out, opdir / "trials.summary.json")

        return Op(statistic, label, lambda: _cli(argv), check)

    def final_check(self) -> None:
        pass


# ------------------------------------------------------------- dyson-sweep


def batch_points(kind: str, rng: np.random.Generator) -> list[dict]:
    radius, (lo, hi) = BATCH_GRIDS[kind]
    z = radius * np.sqrt(rng.uniform(0.0, 1.0, BATCH_POINTS)) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, BATCH_POINTS)
    )
    eta = 10.0 ** rng.uniform(lo, hi, BATCH_POINTS)
    return [{"z_re": float(a.real), "z_im": float(a.imag), "eta": float(e)}
            for a, e in zip(z, eta)]


class DysonSweep:
    """One log_det_statistic call, then solve_batch on an edge and a bulk grid.

    Each kind of op is a third of the rotation, so the median op falls in
    the middle of one kind (the edge batches) rather than on the boundary
    between two, where it would jump from run to run.
    """

    name = "dyson-sweep"
    rotation = ("logdet-random", "batch-edge", "batch-bulk",
                "logdet-quartet", "batch-edge", "batch-bulk")
    # the log-det and the batch ops visit every random spectrum once
    period = len(rotation) * len(DYSON_SYNTH)
    warmup_op = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        from critedge.dyson import flow_scalings
        from critedge.spectra import sample_matrix
        from critedge.synthesis import quartet_deformation, random_deformation_critical

        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        sx, self.w0 = int(rng.integers(2**62)), int(rng.integers(len(LOGDET_POINTS)))
        self.random = [(f"random synth={s}", random_deformation_critical(int(s), n=400))
                       for s in rng.permutation(DYSON_SYNTH)]
        self.quartet = ("quartet c=0.5", quartet_deformation(0.5, n=400))
        self.x = sample_matrix("ginibre", 400, sx)
        self.x_label = f"ginibre seed={sx}"
        self.scalings = {name: flow_scalings(spec) for name, spec in self.random + [self.quartet]}
        self.references: dict = {}

    def op_at(self, k: int, opdir: Path) -> Op:
        from critedge import dyson, spectra

        kind = self.rotation[k % len(self.rotation)]
        cycle = k // len(self.rotation)
        if kind == "logdet-quartet":
            name, spec = self.quartet
        elif kind == "logdet-random":
            name, spec = self.random[cycle % len(self.random)]
        else:  # each half of the rotation batches on the next random spectrum
            name, spec = self.random[(k // 3) % len(self.random)]
        if kind.startswith("logdet"):
            w = LOGDET_POINTS[(self.w0 + cycle) % len(LOGDET_POINTS)]
            sc = self.scalings[name]

            def check(value: float) -> None:
                key = (name, w)
                if key not in self.references:
                    z = complex(w) / (sc.gamma_t * float(spec.n) ** 0.25)
                    self.references[key] = checks.log_det_reference(
                        spec.eigenvalues, spec.multiplicities, self.x, z, sc.eta_t
                    )
                checks.check_log_det(value, *self.references[key])

            return Op(kind, f"{kind} {name} {self.x_label} w={w}",
                      lambda: spectra.log_det_statistic(spec, self.x, w, sc), check)

        grid = kind.split("-")[1]
        points = batch_points(grid, np.random.default_rng([self.seed, 3, k]))
        digest = hashlib.sha256(json.dumps(points).encode()).hexdigest()[:12]

        def check(rows: list) -> None:
            checks.check_batch_rows(spec.eigenvalues, spec.weights, points, rows)

        return Op(kind, f"{kind} {name} points={digest}",
                  lambda: dyson.solve_batch(spec, points), check)

    def final_check(self) -> None:
        """Scalar against full Dyson solve at a few bulk points, untimed."""
        from critedge import dyson

        spec = self.random[0][1]
        rng = np.random.default_rng([self.seed, 4])
        for p in batch_points("bulk", rng)[:FULL_MDE_POINTS]:
            v = dyson.solve_batch(spec, [p])[0]["v"]
            full = dyson.solve_mde_full(spec, z=complex(p["z_re"], p["z_im"]), eta=p["eta"])
            checks.check_full_mde(v, full.m_trace, p["eta"])


WORKLOADS = {w.name: w for w in (FlowPipeline, MonteCarlo, DysonSweep)}
