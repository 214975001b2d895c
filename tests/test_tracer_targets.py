"""The benchmark's traced run wraps program functions by name.

``bench/tracer.py`` lists them in ``TARGETS`` as (span, module, attribute
path, hook).  A rename or deletion in the package would only surface when
a traced benchmark run fails to install, so every entry is resolved here,
the way ``Tracer.install`` resolves it.  The module is loaded from its file
and nothing in ``bench/`` is changed.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(target):
    _, module_name, attr, hook = target
    owner = importlib.import_module(module_name)
    *cls_path, leaf = attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    # methods are patched on the class that defines them
    found = vars(owner).get(leaf) if cls_path else getattr(owner, leaf, None)
    assert found is not None, f"{module_name}.{attr} no longer exists"
    assert hook is None or callable(hook)


# hooked spans of one small complex flow, one real flow, one girko check and
# one scalar Dyson solve: every target whose hook reads an argument or a
# result field of the program
HOOKED = tuple(t[0] for t in TARGETS if t[3] is not None)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    from critedge import cli, dyson
    from critedge.synthesis import random_deformation_critical, random_real_critical

    tmp = tmp_path_factory.mktemp("traced")
    complex_spec = random_deformation_critical(0, n=80)
    complex_spec.save(tmp / "complex.json")
    b = random_real_critical(7, n=80)
    scale = np.sqrt(np.sum(b.weights * b.eigenvalues**2))
    b.with_eigenvalues(scale / b.eigenvalues).save(tmp / "real.json")
    random_deformation_critical(0, n=12).save(tmp / "small.json")

    tracer = load_tracer().Tracer()
    tracer.op = 0
    with tracer:
        cli.main(["flow", str(tmp / "complex.json"), "--grid", "9",
                  "--out", str(tmp / "complex.jsonl")])
        cli.main(["flow", str(tmp / "real.json"), "--grid", "9"])
        cli.main(["simulate", str(tmp / "small.json"), "--statistic", "girko",
                  "--quad", "8", "--out", str(tmp / "girko.csv")])
        dyson.solve_v_scalar(complex_spec, 0.01, 1e-6)
    return tracer.spans


@pytest.mark.parametrize("name", HOOKED)
def test_every_hooked_span_gets_its_attributes(traced, name):
    spans = [s for s in traced if s[0] == name]
    assert spans, f"{name} was not called"
    # a call that raised returns nothing for its hook to read
    assert all(s[5] for s in spans if not s[6]), f"{name} lost its attributes"
    assert any(not s[6] for s in spans)


def test_traced_spans_aggregate_into_per_layer_metrics(traced):
    metrics = load_tracer().per_layer_metrics(traced, [1.0], 1.0, 1.0)
    assert metrics["flow.certificates"] > 0
    assert metrics["flow.save_jsonl.bytes"] > 0
    assert metrics["dyson.solve_v_scalar.iters_p50.edge"] > 0
