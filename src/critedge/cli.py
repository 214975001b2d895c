"""Command line front end.

Subcommands: analyze (criticality report), flow (build and validate a
deformation path), simulate (Monte Carlo statistics), compare (two-sample
verdict).  Configuration precedence is flags > config file > defaults; all
randomness flows through explicit seeds, so outputs are byte-identical
across runs with the same arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import spectra
from .criticality import DEFAULT_FRAK_C, DEFAULT_TOL, verify_criticality
from .dyson import ETA_DELTA
from .errors import ConditionViolated, ConfigError, CritEdgeError, DimensionMismatch, ZeroEigenvalue
from .flow import (
    FlowConfig,
    FlowPath,
    derive_b0,
    finite_support_flow,
    fix_spectrum_flow,
    hermitian_flow,
    lift_to_deformation,
    validate_assumption,
)
from .spectrum import DeformationSpectrum

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


# the value types a RunConfig field of each annotation takes
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "str | None": (str, type(None))}


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters of all subcommands.

    A subcommand has flags only for the fields it reads (SUBCOMMAND_FLAGS),
    and its config file may set only those fields.
    """

    seed: int = 0
    trials: int = 100
    frak_c: float = DEFAULT_FRAK_C
    tol: float = DEFAULT_TOL
    grid: int = FlowConfig.grid_points
    quad: int = 128
    model: str = "ginibre"
    out: str | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # a bool is an int to Python, but never a count, a seed or a scale
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        if not 0 <= self.seed < 2**63:
            raise ConfigError("seed must fit in a signed 64-bit integer")
        if self.trials < 1:
            raise ConfigError(f"trials must be positive, got {self.trials}")
        if self.frak_c <= 1.0:
            raise ConfigError(f"frak_c must exceed 1, got {self.frak_c}")
        if self.tol <= 0.0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.grid < 2:
            raise ConfigError(f"grid must be at least 2, got {self.grid}")
        if self.quad < 2:
            raise ConfigError(f"quad must be at least 2, got {self.quad}")
        if self.model not in spectra.MODELS:
            raise ConfigError(
                f"model must be one of {spectra.MODELS}, got {self.model!r}"
            )

    @classmethod
    def field_names(cls) -> tuple:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def parse(
        cls, config_path: str | None, flag_values: dict, command: str, keys: tuple
    ) -> "RunConfig":
        """Merge defaults, a JSON config file, and explicit flags.

        The file may set only the fields in ``keys``, the ones ``command``
        reads.
        """
        merged: dict = {}
        if config_path is not None:
            try:
                with open(config_path) as fh:
                    data = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
            if not isinstance(data, dict):
                raise ConfigError("config file must hold a JSON object")
            unknown = sorted(set(data) - set(cls.field_names()))
            if unknown:
                raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
            unread = sorted(set(data) - set(keys))
            if unread:
                raise ConfigError(f"{command} does not read config keys: {', '.join(unread)}")
            merged.update(data)
        for key, value in flag_values.items():
            if value is not None:
                merged[key] = value
        try:
            return cls(**merged)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def _dumps(obj) -> str:
    # fixed key order and layout so identical runs emit identical bytes
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


_READ_ERRORS = (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, DimensionMismatch)


def _load_spectrum(path: str) -> DeformationSpectrum:
    try:
        return DeformationSpectrum.load(path)
    except _READ_ERRORS as exc:
        raise ConfigError(f"cannot read spectrum {path}: {exc}") from exc


def _load_path(path: str) -> FlowPath:
    try:
        return FlowPath.load_jsonl(path)
    except _READ_ERRORS as exc:
        raise ConfigError(f"cannot read path {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args: argparse.Namespace, cfg: RunConfig) -> int:
    spec = _load_spectrum(args.spectrum)
    report = verify_criticality(spec, frak_c=cfg.frak_c, tol=cfg.tol)
    _emit(_dumps(report.to_json_dict()), cfg.out)
    return EXIT_OK if report.is_critical else EXIT_DOMAIN


def _report_path(args: argparse.Namespace, cfg: RunConfig) -> str | None:
    if args.report is not None:
        return args.report
    if cfg.out is not None:
        return cfg.out + ".report.json"
    return None


def cmd_flow(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.check is not None:
        frak_c1 = cfg.frak_c if args.frak_c1 is None else args.frak_c1
        if frak_c1 <= 1.0:
            raise ConfigError(f"frak_c1 must exceed 1, got {frak_c1}")
        rep = validate_assumption(_load_path(args.check), frak_c1=frak_c1)
        for line in rep.lines():
            print(line)
        return EXIT_OK if rep.passed else EXIT_DOMAIN

    spec = _load_spectrum(args.spectrum)
    crit = verify_criticality(spec, frak_c=cfg.frak_c, tol=cfg.tol)
    if not crit.is_critical:
        print("input spectrum is not critical; run analyze for details", file=sys.stderr)
        return EXIT_DOMAIN

    b0, phi = derive_b0(spec)
    flow_cfg = FlowConfig(grid_points=cfg.grid)
    if b0.is_real():
        path_b = hermitian_flow(b0, frak_c=cfg.frak_c, cfg=flow_cfg)
    else:
        leg1 = finite_support_flow(b0, frak_c=cfg.frak_c, cfg=flow_cfg)
        leg2 = fix_spectrum_flow(leg1.final, cfg=flow_cfg)
        path_b = leg1.concat(leg2)
    path_a = lift_to_deformation(path_b, phi)
    if cfg.out is not None:
        path_a.save_jsonl(cfg.out)

    frak_c1 = float(path_b.meta.get("frak_c1", cfg.frak_c))
    rep = validate_assumption(path_a, frak_c1=max(cfg.frak_c, frak_c1))
    report_file = _report_path(args, cfg)
    summary = {
        "grid_points": len(path_a.grid),
        "final_support": int(path_a.final.eigenvalues.size),
        "support_bound": path_b.meta.get("m_bound"),
        "phi": phi,
        "frak_c1": frak_c1,
        "passed": rep.passed,
        "criticality_failures": list(rep.criticality_failures),
        "max_alpha_step": rep.max_alpha_step,
        "alpha_bound": rep.alpha_bound,
        "max_derivative": rep.max_derivative,
        "derivative_bound": rep.derivative_bound,
    }
    if report_file is not None:
        _emit(_dumps(summary), report_file)
    for line in rep.lines():
        print(line)
    return EXIT_OK if rep.passed else EXIT_DOMAIN


def _simulate_input(args: argparse.Namespace) -> DeformationSpectrum:
    if args.spectrum.endswith(".jsonl"):
        path = _load_path(args.spectrum)
        return path.final if args.endpoint == "final" else path.initial
    return _load_spectrum(args.spectrum)


def _summary_path(out: str | None) -> str | None:
    if out is None:
        return None
    stem = out[:-4] if out.endswith(".csv") else out
    return stem + ".summary.json"


def cmd_simulate(args: argparse.Namespace, cfg: RunConfig) -> int:
    spec = _simulate_input(args)
    summary: dict = {
        "statistic": args.statistic,
        "model": cfg.model,
        "n": spec.n,
        "seed": cfg.seed,
        "trials": cfg.trials,
    }
    rows: list[list] = []

    if args.statistic == "correlation":
        est = spectra.estimate_statistic(
            spec,
            cfg.model,
            k=1,
            test_function=args.test_function,
            trials=cfg.trials,
            seed0=cfg.seed,
        )
        rows = [["trial", "value"]] + [
            [j, repr(float(v))] for j, v in enumerate(est.per_trial)
        ]
        summary.update(
            value=est.value,
            std_error=est.std_error,
            k=est.k,
            test_function=est.test_function_id,
            gamma_re=est.gamma.real,
            gamma_im=est.gamma.imag,
        )
    elif args.statistic == "girko":
        x = spectra.sample_matrix(cfg.model, spec.n, cfg.seed)
        field = spectra.GaussianField(center=args.center, sigma=args.sigma)
        rep = spectra.girko_check(spec, x, field, quad_points=cfg.quad)
        rows = [
            ["lhs", "rhs", "gap", "quad_points", "jittered_nodes"],
            [repr(rep.lhs), repr(rep.rhs), repr(rep.gap), rep.quad_points, rep.jittered_nodes],
        ]
        # one matrix, no spread: without std_error, compare refuses the summary
        summary.update(value=rep.gap, lhs=rep.lhs, rhs=rep.rhs)
    elif args.statistic == "sv-tail":
        eta = args.eta if args.eta is not None else float(spec.n) ** (-0.75 - ETA_DELTA)
        est = spectra.smallest_sv_tail(
            spec, cfg.model, z=args.center, eta=eta, trials=cfg.trials, seed0=cfg.seed
        )
        rows = [
            ["probability", "std_error", "eta", "trials"],
            [repr(est.probability), repr(est.std_error), repr(est.eta), est.trials],
        ]
        summary.update(value=est.probability, std_error=est.std_error, eta=est.eta)
    else:  # spectral radius gate
        radii = []
        for j in range(cfg.trials):
            x = spectra.sample_matrix(cfg.model, spec.n, cfg.seed + j)
            eigs = spectra.deformed_eigenvalues(spec, x)
            radii.append(float(np.max(np.abs(eigs))))
        rows = [["trial", "radius"]] + [[j, repr(r)] for j, r in enumerate(radii)]
        value, err = spectra.mean_std_error(radii)
        summary.update(value=value, std_error=err)

    csv_text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
    _emit(csv_text, cfg.out)
    summary_file = _summary_path(cfg.out)
    if summary_file is not None:
        _emit(_dumps(summary), summary_file)
    else:
        sys.stdout.write(_dumps(summary))
    return EXIT_OK


def _load_summary(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read statistics {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} lacks value/std_error fields: it holds no JSON object")
    for key in ("value", "std_error"):
        x = data.get(key)
        if type(x) not in (int, float) or not np.isfinite(x):
            raise ConfigError(f"{path} lacks value/std_error fields: {key} is {x!r}")
    return data


def cmd_compare(args: argparse.Namespace, cfg: RunConfig) -> int:
    a = _load_summary(args.stats_a)
    b = _load_summary(args.stats_b)
    gap = abs(float(a["value"]) - float(b["value"]))
    combined = float(np.hypot(float(a["std_error"]), float(b["std_error"])))
    if combined <= 0.0:
        raise ConditionViolated(["the combined standard error is 0, so no z-score exists"])
    z = gap / combined
    verdict = {
        "value_a": float(a["value"]),
        "value_b": float(b["value"]),
        "std_error_a": float(a["std_error"]),
        "std_error_b": float(b["std_error"]),
        "gap": gap,
        "combined_std_error": combined,
        "z_score": z,
        "agree_2sigma": bool(z <= 2.0),
        "distinct_3sigma": bool(z >= 3.0),
    }
    _emit(_dumps(verdict), cfg.out)
    return EXIT_OK if verdict["agree_2sigma"] else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# argument wiring


# argparse keywords of the flag of each RunConfig field
_FLAG_KWARGS = {
    **dict.fromkeys(("seed", "trials", "grid", "quad"), {"type": int}),
    **dict.fromkeys(("frak_c", "tol"), {"type": float}),
    "model": {"choices": spectra.MODELS},
    "out": {"metavar": "PATH"},
}

# the RunConfig fields each subcommand reads; any other flag exits with 2
SUBCOMMAND_FLAGS = {
    "analyze": ("frak_c", "tol", "out"),
    "flow": ("frak_c", "tol", "grid", "out"),
    "simulate": ("seed", "trials", "quad", "model", "out"),
    "compare": ("out",),
}


def _config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    for name in SUBCOMMAND_FLAGS[command]:
        parser.add_argument("--" + name.replace("_", "-"), dest=name, **_FLAG_KWARGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critedge",
        description="criticality analysis and deformation flows for i.i.d. "
        "random matrix deformations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="criticality report for a spectrum file")
    p.add_argument("spectrum", help="spectrum JSON file")
    _config_flags(p, "analyze")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("flow", help="build and validate a deformation path")
    p.add_argument("spectrum", nargs="?", help="spectrum JSON file")
    p.add_argument("--check", metavar="PATH", help="re-validate an existing path")
    p.add_argument("--report", metavar="PATH", help="validation report JSON")
    p.add_argument("--frak-c1", dest="frak_c1", type=float, help="path norm bound of --check")
    _config_flags(p, "flow")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("simulate", help="Monte Carlo statistics")
    p.add_argument("spectrum", help="spectrum JSON or path JSONL file")
    p.add_argument(
        "--statistic",
        choices=("correlation", "girko", "sv-tail", "radius"),
        default="correlation",
    )
    p.add_argument(
        "--test-function",
        dest="test_function",
        choices=sorted(spectra._NAMED_TEST_FUNCTIONS),
        default="radial-bump",
    )
    p.add_argument("--endpoint", choices=("initial", "final"), default="final")
    p.add_argument("--center", type=complex, default=0.0, help="field center / base point")
    p.add_argument("--sigma", type=float, default=0.5, help="field width")
    p.add_argument("--eta", type=float, help="singular value threshold")
    _config_flags(p, "simulate")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="two-sample verdict from summary files")
    p.add_argument("stats_a", help="first summary JSON")
    p.add_argument("stats_b", help="second summary JSON")
    _config_flags(p, "compare")
    p.set_defaults(func=cmd_compare)

    return parser


# what `flow` reads only when it builds a path: --check re-validates a path
# file and refuses these, as flags or config keys; the build refuses --frak-c1
_FLOW_BUILD_ONLY = ("spectrum", "grid", "tol", "out", "report")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    command, keys = args.command, SUBCOMMAND_FLAGS[args.command]
    if command == "flow" and args.check is not None:
        command, keys = "flow --check", tuple(k for k in keys if k not in _FLOW_BUILD_ONLY)
    flag_values = {
        name: getattr(args, name, None) for name in RunConfig.field_names()
    }
    return RunConfig.parse(args.config, flag_values, command, keys)


def _flow_mode_error(args: argparse.Namespace) -> str | None:
    if args.check is not None:
        unread = [
            name if name == "spectrum" else "--" + name
            for name in _FLOW_BUILD_ONLY
            if getattr(args, name) is not None
        ]
        return "flow --check does not read " + ", ".join(unread) if unread else None
    if args.spectrum is None:
        return "flow requires a spectrum file unless --check is given"
    if args.frak_c1 is not None:
        return "flow without --check does not read --frak-c1"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "flow" and (message := _flow_mode_error(args)):
        parser.error(message)
    try:
        cfg = _config_from_args(args)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZeroEigenvalue as exc:
        print(f"error: ZeroEigenvalue: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CritEdgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
