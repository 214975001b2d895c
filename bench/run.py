"""Benchmark of the critedge program.

    python3 bench/run.py --workload flow-pipeline --seed 1 --seconds 20 --trace 0

``--workload all`` runs flow-pipeline, montecarlo and dyson-sweep in turn,
each printing its own block of lines.

Run from the root of a checkout; the program is imported from its ``src``.
One client runs ops in a closed loop, in process, until the ops have taken
``--seconds``; every op's outputs are checked afterwards, untimed.  With
``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1`` the
same ops run once untraced and then again with every layer function wrapped
(see tracer.py); the per-layer metrics and the tracing overhead are reported.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A fuller
record, with provenance, goes to .bench_results/ in the checkout, and the
traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracer import PER_LAYER, Tracer, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"

# fresh-interpreter imports per run; set-up time is their median
SETUP_REPEATS = 5
# the tail is the highest percentile with this many ops beyond it, but never
# below the median: short runs report their median there
TAIL_BEYOND = 10
# Host speed.  The shared 2-vCPU host this benchmark was defined on drifts
# by 20-40 % over minutes, and the drift slows the program and any other
# code alike.  So the op times are wall times scaled to one reference host
# speed: a fixed pure-Python kernel is timed just before every op, and the
# op's wall time is multiplied by CALIBRATION_REF_S over that kernel time.
# CALIBRATION_REF_S is the kernel's median on that host, where scaled and
# raw times therefore agree.  The kernel does not touch the program, so a
# change to the program moves the scaled times as much as the raw ones; the
# raw times stay in the record.  Set-up time is not scaled: interpreter
# start-up does not follow the kernel's speed.
CALIBRATION_LOOPS = 300_000
CALIBRATION_REF_S = 0.0235

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class OpRecord:
    kind: str
    label: str
    wall_s: float
    error: str | None
    host_s: float  # the calibration kernel's time just before the op

    @property
    def scaled_s(self) -> float:
        """The op's wall time at the reference host speed."""
        return self.wall_s * CALIBRATION_REF_S / self.host_s


def use_checkout_source() -> None:
    """Import critedge from this checkout's src, or exit non-zero."""
    if not (SRC / "critedge" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import critedge

    if Path(critedge.__file__).resolve().parent != SRC / "critedge":
        sys.exit(f"bench: critedge imported from {critedge.__file__}, not {SRC}")


def calibration_sample() -> float:
    """Wall time of a fixed pure-Python kernel: the host's current speed."""
    start = perf_counter()
    total = 0
    for j in range(CALIBRATION_LOOPS):
        total += j * j
    return perf_counter() - start


def measure_setup() -> list[float]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import critedge, critedge.cli"],
                       env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return times


def run_ops(workload, workdir: Path, seconds: float = 0.0, indices=None,
            tracer=None) -> list[OpRecord]:
    """Closed loop over ops 0, 1, ...: whole periods until they took `seconds`.

    A workload's period is the op count after which its mix of op kinds and
    spectra repeats, so every run times the same mix.  With `indices`,
    exactly those ops run instead.
    """
    cycle = workload.period
    records: list[OpRecord] = []
    busy = 0.0
    for k in itertools.count() if indices is None else indices:
        if indices is None and k % cycle == 0 and k and busy >= seconds:
            break
        opdir = workdir / f"op{k}"
        opdir.mkdir()
        op = workload.op_at(k, opdir)
        error = None
        host = calibration_sample()
        if tracer is not None:
            tracer.op = len(records)
        start = perf_counter()
        try:
            out = op.run()
        except (Exception, SystemExit) as exc:  # a failing op is counted, the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        if tracer is not None:
            tracer.op = -1
        if error is None:
            try:
                op.check(out)
            except Exception as exc:  # any exception in a check fails the op
                error = f"check: {type(exc).__name__}: {exc}"
        shutil.rmtree(opdir)
        records.append(OpRecord(op.kind, op.label, wall, error, host))
        busy += wall
    return records


def ops_per_s(records: list[OpRecord]) -> float:
    """Successful ops per second of op time, at the reference host speed."""
    done = sum(1 for r in records if r.error is None)
    return done / sum(r.scaled_s for r in records)


def tail_percentile(count: int) -> float:
    return max(50.0, 100.0 * (count - TAIL_BEYOND) / count)


def end_to_end(records: list[OpRecord], setup_times: list[float]) -> tuple[dict, dict, float]:
    """The metrics, the same op times unscaled, and the tail percentile."""
    done = sum(1 for r in records if r.error is None)
    tail_p = tail_percentile(len(records))

    def op_times(walls: list[float]) -> dict:
        return {
            "ops_per_s": done / sum(walls),
            "op_p50_s": float(np.percentile(walls, 50.0)),
            "op_tail_s": float(np.percentile(walls, tail_p)),
        }

    metrics = {
        "setup_s": statistics.median(setup_times),
        **op_times([r.scaled_s for r in records]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, op_times([r.wall_s for r in records]), tail_p


def _openblas() -> tuple[str | None, int | None]:
    """OpenBLAS build string and thread count, read from numpy's bundled library."""
    import ctypes
    import glob

    libs_dir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype, config.argtypes = ctypes.c_char_p, []
                    threads.restype, threads.argtypes = ctypes.c_int, []
                    return config().decode(), int(threads())
    return None, None


def provenance() -> dict:
    import scipy

    blas, threads = _openblas()
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,  # None in a checkout without git metadata
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
    }


def _failures(records: list[OpRecord]) -> list[dict]:
    return [{"op": i, "label": r.label, "error": r.error}
            for i, r in enumerate(records) if r.error is not None]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    RESULTS.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        setup_times = [] if trace else measure_setup()
        workload = workloads.WORKLOADS[workload_name](seed, workdir)
        warmup = run_ops(workload, workdir, indices=[workload.warmup_op])
        records = run_ops(workload, workdir, seconds=seconds)
        # taken before the final check, whose untimed cross-checks would
        # otherwise set the peak memory
        metrics, raw, tail_p = ({}, {}, None) if trace else end_to_end(records, setup_times)
        final_error = None
        try:
            workload.final_check()
        except Exception as exc:  # reported, and the run is marked incorrect
            final_error = f"{type(exc).__name__}: {exc}"
        traced: list[OpRecord] = []
        spans_file = None
        if trace:
            tracer = Tracer()
            with tracer:
                traced = run_ops(workload, workdir, indices=range(len(records)), tracer=tracer)
            spans_file = RESULTS / f"{workload_name}-seed{seed}.spans.jsonl"
            tracer.write(spans_file)
            metrics = per_layer_metrics(tracer.spans, [r.wall_s for r in traced],
                                        ops_per_s(records), ops_per_s(traced))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = warmup + records + traced
    failed = sum(1 for r in every if r.error is not None)
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0 and final_error is None,
        "attempted": len(every),
        "failed": failed,
        "error_rate": failed / len(every),
        "final_check_error": final_error,
        "timed_ops": len(records),
        "op_kinds": {k: sum(1 for r in records if r.kind == k)
                     for k in dict.fromkeys(r.kind for r in records)},
        "op_kind_p50_s": {k: statistics.median(r.wall_s for r in records if r.kind == k)
                          for k in dict.fromkeys(r.kind for r in records)},
        "tail_percentile": tail_p,
        "setup_samples_s": setup_times,
        "host_kernel_p50_s": statistics.median(r.host_s for r in records),
        "raw_times": raw,
        "metrics": metrics,
        "failures": _failures(every),
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
        "provenance": provenance(),
    }


def report_lines(result: dict, units: dict) -> list[str]:
    lines = [
        f"workload {result['workload']} seed {result['seed']}: "
        f"{result['timed_ops']} timed ops {result['op_kinds']}, "
        f"{result['failed']} of {result['attempted']} ops failed",
        f"  {'error_rate':<44} {result['error_rate']:<14.6g} ratio",
    ]
    if result["raw_times"]:
        lines.append(f"  op times at the reference host speed; host kernel median "
                     f"{result['host_kernel_p50_s']:.4g} s against {CALIBRATION_REF_S} s")
    for name, value in result["metrics"].items():
        note = ""
        if name in result["raw_times"]:
            note = f"  (raw {result['raw_times'][name]:.6g})"
        if name == "op_tail_s":
            beyond = result["timed_ops"] * (1 - result["tail_percentile"] / 100)
            note += f"  (p{result['tail_percentile']:.1f}, {beyond:.1f} of {result['timed_ops']} ops beyond)"
        lines.append(f"  {name:<44} {value:<14.6g} {units[name]}{note}")
    for failure in result["failures"][:10]:
        lines.append(f"  FAILED op {failure['op']} ({failure['label']}): {failure['error']}")
    if result["final_check_error"]:
        lines.append(f"  FAILED final check: {result['final_check_error']}")
    lines.append("provenance " + json.dumps(result["provenance"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    units = {name: unit for name, unit, _ in PER_LAYER} if args.trace else END_TO_END_UNITS
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        out_file = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        for line in report_lines(result, units):
            print(line)
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {metric: {"value": value, "unit": units[metric]}
                        for metric, value in result["metrics"].items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
