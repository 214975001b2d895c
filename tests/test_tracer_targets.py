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
