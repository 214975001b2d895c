"""Span tracer for the benchmark's traced run.

The program has no tracing of its own, so the traced run wraps the public
functions of each layer from the outside: every module attribute (and class
attribute, for methods) that refers to a listed function is replaced by a
wrapper that records one span per call.  Spans are kept in memory as
``[name, start, end, parent, op, attrs, raised]`` lists and aggregated or
written out when the run ends.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

import numpy as np

# Edge calls of the scalar Dyson solver: small eta near the critical point,
# judged from the call's own arguments.
EDGE_ETA = 1e-5
EDGE_Z = 0.05


def _meta_counts(path) -> dict:
    meta = path.meta
    return {
        "fallback": int(meta.get("newton_fallback_steps", 0)),
        "certificates": len(meta.get("pair_certificates", ()))
        + len(meta.get("certificates", ())),
    }


def _finite_support_counts(result, arguments) -> dict:
    from critedge.flow import FlowConfig

    counts = _meta_counts(result)
    cfg = arguments["cfg"] or FlowConfig()
    h0 = cfg.h0 if cfg.h0 is not None else 0.1 / arguments["frak_c"]
    ratio = result.meta["h"] / h0
    # the mesh ladder is tried in order; the accepted rung counts the retries
    counts["retries"] = min(
        range(len(cfg.ladder)), key=lambda i: abs(cfg.ladder[i] - ratio)
    )
    return counts


def _builder_counts(result, arguments) -> dict:
    return _meta_counts(result)


def _scalar_attrs(result, arguments) -> dict:
    z, eta = complex(arguments["z"]), float(arguments["eta"])
    return {
        "iters": int(result.iterations),
        "converged": bool(result.converged),
        "residual": float(result.residual),
        "edge": eta <= EDGE_ETA and abs(z) <= EDGE_Z,
    }


def _ift_attrs(result, arguments) -> dict:
    return {"iters": int(result.iterations)}


def _saved_bytes(result, arguments) -> dict:
    return {"bytes": os.path.getsize(arguments["path"])}


def _girko_attrs(result, arguments) -> dict:
    return {
        "svds": int(result.quad_points) ** 2 + int(result.jittered_nodes),
        "jittered": int(result.jittered_nodes),
    }


# (span name, module, attribute path, hook reading attributes off the result)
TARGETS = (
    ("cli.main", "critedge.cli", "main", None),
    ("spectrum.canonical", "critedge.spectrum", "DeformationSpectrum.canonical", None),
    ("spectrum.load", "critedge.spectrum", "DeformationSpectrum.load", None),
    ("criticality.verify_criticality", "critedge.criticality", "verify_criticality", None),
    ("criticality.hessian_at_origin", "critedge.criticality", "hessian_at_origin", None),
    ("flow.finite_support_flow", "critedge.flow.construct", "finite_support_flow",
     _finite_support_counts),
    ("flow.fix_spectrum_flow", "critedge.flow.construct", "fix_spectrum_flow",
     _builder_counts),
    ("flow.independent_count_target", "critedge.flow.construct",
     "independent_count_target", None),
    ("flow.hermitian_flow", "critedge.flow.construct", "hermitian_flow", _builder_counts),
    ("flow.quantitative_ift", "critedge.flow.ift", "quantitative_ift", _ift_attrs),
    ("flow.f_chi_p", "critedge.flow.maps", "f_chi_p", None),
    ("flow.match_partitions", "critedge.flow.partition", "match_partitions", None),
    ("flow.derive_b0", "critedge.flow.paths", "derive_b0", None),
    ("flow.lift_to_deformation", "critedge.flow.paths", "lift_to_deformation", None),
    ("flow.save_jsonl", "critedge.flow.paths", "FlowPath.save_jsonl", _saved_bytes),
    ("flow.load_jsonl", "critedge.flow.paths", "FlowPath.load_jsonl", None),
    ("flow.validate_assumption", "critedge.flow.paths", "validate_assumption", None),
    ("dyson.solve_v_scalar", "critedge.dyson", "solve_v_scalar", _scalar_attrs),
    ("dyson.solve_batch", "critedge.dyson", "solve_batch", None),
    ("spectra.sample_matrix", "critedge.spectra", "sample_matrix", None),
    ("spectra.deformed_eigenvalues", "critedge.spectra", "deformed_eigenvalues", None),
    ("spectra.singular_values", "critedge.spectra", "HermitizedOperator.singular_values",
     None),
    ("spectra.estimate_statistic", "critedge.spectra", "estimate_statistic", None),
    ("spectra.smallest_sv_tail", "critedge.spectra", "smallest_sv_tail", None),
    ("spectra.girko_check", "critedge.spectra", "girko_check", _girko_attrs),
    ("spectra.log_det_statistic", "critedge.spectra", "log_det_statistic", None),
)

LAYERS = ("cli", "spectrum", "criticality", "dyson", "flow", "spectra")

# (metric, unit, better) beyond the calls, busy_s and self_s of each target
_DERIVED = (
    ("flow.quantitative_ift.iters", "iters/call", "lower"),
    ("flow.quantitative_ift.rejected", "calls/op", "lower"),
    ("flow.quantitative_ift.accept_ratio", "ratio", "higher"),
    ("flow.ladder_retries", "count/op", "lower"),
    ("flow.newton_fallback_steps", "count/op", "lower"),
    ("flow.certificates", "count/op", "lower"),
    ("flow.save_jsonl.bytes", "bytes/op", "lower"),
    ("dyson.solve_v_scalar.iters_p50", "iters", "lower"),
    ("dyson.solve_v_scalar.iters_p50.edge", "iters", "lower"),
    ("dyson.solve_v_scalar.iters_max", "iters", "lower"),
    ("dyson.solve_v_scalar.unconverged", "calls/op", "lower"),
    ("dyson.solve_v_scalar.residual_max", "defect", "lower"),
    ("spectra.eig_wasted", "calls/op", "lower"),
    ("spectra.girko_check.svd_count", "count/op", "lower"),
    ("spectra.girko_check.jittered_nodes", "count/op", "lower"),
    *((f"layer.{layer}.top_s", "s/op", "lower") for layer in LAYERS),
    ("trace.coverage_p50", "ratio", "higher"),
    ("trace.coverage_min", "ratio", "higher"),
    ("trace.unaccounted_s", "s/op", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.overhead_ops_per_s", "1/s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

PER_LAYER = tuple(
    entry
    for name, *_ in TARGETS
    for entry in (
        (f"{name}.calls", "calls/op", "lower"),
        (f"{name}.busy_s", "s/op", "lower"),
        (f"{name}.self_s", "s/op", "lower"),
    )
) + _DERIVED


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- patching -----------------------------------------------------

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None, False]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = hook(result, bound.arguments)
            return result

        return wrapper

    def install(self) -> "Tracer":
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "critedge" or k.startswith("critedge."))]
        for name, module_name, attr, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = vars(owner)[leaf]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    new = self._wrap(name, raw, hook)
                self._patches.append((owner, leaf, raw))
                setattr(owner, leaf, new)
                continue
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original, hook)
            # every module that imported the function holds its own reference
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs, raised in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if attrs:
                    row["attrs"] = attrs
                if raised:
                    row["raised"] = True
                fh.write(json.dumps(row) + "\n")


def per_layer_metrics(spans: list[list], op_walls: list[float],
                      untraced_ops_per_s: float, traced_ops_per_s: float) -> dict:
    """Aggregate spans into the per-layer metrics, normalised per op.

    ``op_walls`` are the traced ops' wall times, indexed by op id; spans
    recorded outside an op (input generation) are left out.  The two rates
    are those of the same ops untraced and traced, at one host speed.
    """
    ops = max(1, len(op_walls))
    names = [t[0] for t in TARGETS]
    calls = dict.fromkeys(names, 0)
    busy = dict.fromkeys(names, 0.0)
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = dict.fromkeys(names, 0.0)
    top = dict.fromkeys(LAYERS, 0.0)
    covered = [0.0] * len(op_walls)
    for idx, (name, start, end, parent, op, _, _) in enumerate(spans):
        if op < 0:
            continue
        dur = end - start
        calls[name] += 1
        busy[name] += dur
        self_s[name] += dur - child[idx]
        if parent < 0:
            covered[op] += dur
        if name == "cli.main":
            top["cli"] += dur - child[idx]
        elif parent < 0 or spans[parent][0] == "cli.main":
            top[name.split(".")[0]] += dur

    out: dict = {}
    for name in names:
        out[f"{name}.calls"] = calls[name] / ops
        out[f"{name}.busy_s"] = busy[name] / ops
        out[f"{name}.self_s"] = self_s[name] / ops

    def attrs_of(name):
        return [s[5] for s in spans if s[0] == name and s[4] >= 0 and s[5] is not None]

    def raised(name):
        return sum(1 for s in spans if s[0] == name and s[4] >= 0 and s[6])

    ift = attrs_of("flow.quantitative_ift")
    out["flow.quantitative_ift.iters"] = float(np.mean([a["iters"] for a in ift])) if ift else 0.0
    out["flow.quantitative_ift.rejected"] = raised("flow.quantitative_ift") / ops
    out["flow.quantitative_ift.accept_ratio"] = (
        len(ift) / calls["flow.quantitative_ift"] if calls["flow.quantitative_ift"] else 0.0
    )
    builders = attrs_of("flow.finite_support_flow") + attrs_of("flow.fix_spectrum_flow") \
        + attrs_of("flow.hermitian_flow")
    out["flow.ladder_retries"] = sum(a.get("retries", 0) for a in builders) / ops
    out["flow.newton_fallback_steps"] = sum(a["fallback"] for a in builders) / ops
    out["flow.certificates"] = sum(a["certificates"] for a in builders) / ops
    out["flow.save_jsonl.bytes"] = sum(a["bytes"] for a in attrs_of("flow.save_jsonl")) / ops

    scalar = attrs_of("dyson.solve_v_scalar")
    iters = [a["iters"] for a in scalar]
    edge = [a["iters"] for a in scalar if a["edge"]]
    out["dyson.solve_v_scalar.iters_p50"] = float(np.median(iters)) if iters else 0.0
    out["dyson.solve_v_scalar.iters_p50.edge"] = float(np.median(edge)) if edge else 0.0
    out["dyson.solve_v_scalar.iters_max"] = float(max(iters, default=0))
    out["dyson.solve_v_scalar.unconverged"] = sum(not a["converged"] for a in scalar) / ops
    out["dyson.solve_v_scalar.residual_max"] = max((a["residual"] for a in scalar), default=0.0)

    def has_ancestor(idx, target):
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0] == target:
                return True
            parent = spans[parent][3]
        return False

    out["spectra.eig_wasted"] = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "spectra.deformed_eigenvalues" and s[4] >= 0
        and has_ancestor(i, "spectra.smallest_sv_tail")
    ) / ops
    girko = attrs_of("spectra.girko_check")
    out["spectra.girko_check.svd_count"] = sum(a["svds"] for a in girko) / ops
    out["spectra.girko_check.jittered_nodes"] = sum(a["jittered"] for a in girko) / ops

    for layer in LAYERS:
        out[f"layer.{layer}.top_s"] = top[layer] / ops
    shares = [c / w for c, w in zip(covered, op_walls) if w > 0]
    out["trace.coverage_p50"] = float(np.median(shares)) if shares else 0.0
    out["trace.coverage_min"] = float(min(shares, default=0.0))
    out["trace.unaccounted_s"] = (sum(op_walls) - sum(covered)) / ops
    out["trace.ops_per_s"] = traced_ops_per_s
    out["trace.overhead_ops_per_s"] = untraced_ops_per_s - traced_ops_per_s
    out["trace.overhead_share"] = (
        1.0 - traced_ops_per_s / untraced_ops_per_s if untraced_ops_per_s else 0.0
    )
    return out
