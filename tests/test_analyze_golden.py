"""Golden `analyze` reports of the flow-pipeline inputs.

``data/analyze_golden.json`` was written at commit ef45299: the
``verify_criticality(spec, frak_c=6.0, tol=1e-8).to_json_dict()`` output
(the `analyze` defaults) for

* ``random_deformation_critical(seed, n=400)``, seed 0, 1, 3 and 6;
* ``random_deformation_critical(seed, n=1600)``, seed 0 and 3;
* ``random_real_critical(seed)``, seed 0 and 1, lifted to a deformation
  A = s / B with s = (tr B^2)^(1/2), the way the CLI test of the
  Hermitian route builds its input;
* ``quartet_deformation(0.5, 400)``.

Every float field must agree within 1e-14 absolute, ``n`` and
``is_critical`` exactly: a change to the trace calculus may move the
report by rounding, never by more.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from critedge.criticality import verify_criticality
from critedge.synthesis import (
    quartet_deformation,
    random_deformation_critical,
    random_real_critical,
)

GOLDEN = Path(__file__).parent / "data" / "analyze_golden.json"
TOL = 1e-14


def lifted_real(seed: int):
    b = random_real_critical(seed)
    s = np.sqrt(np.sum(b.weights * b.eigenvalues**2))
    return b.with_eigenvalues(s / b.eigenvalues)


INPUTS = {
    **{f"n400-{s}": lambda s=s: random_deformation_critical(s, n=400) for s in (0, 1, 3, 6)},
    **{f"n1600-{s}": lambda s=s: random_deformation_critical(s, n=1600) for s in (0, 3)},
    **{f"real-{s}": lambda s=s: lifted_real(s) for s in (0, 1)},
    "quartet-0.5": lambda: quartet_deformation(0.5, 400),
}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_input(golden):
    assert sorted(golden) == sorted(INPUTS)


@pytest.mark.parametrize("label", sorted(INPUTS))
def test_analyze_report_matches_golden(golden, label):
    got = verify_criticality(INPUTS[label](), frak_c=6.0, tol=1e-8).to_json_dict()
    want = golden[label]
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        if isinstance(value, float):
            assert abs(got[key] - value) <= TOL, (key, got[key], value)
        else:
            assert got[key] == value, key
