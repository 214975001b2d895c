"""Golden certificate chains of both flow legs.

``data/certificate_golden.json`` was written at commit 988e65e by running
this module as a script, from ``random_inverse_critical(seed, n=80)`` for
seed 0 and 3 through ``finite_support_flow(b, 6.0)`` -> ``fix_spectrum_flow``,
both with ``FlowConfig(grid_points=65)``.

Certificates reach no output file, so this is what pins them.  The chain
layout and everything the contraction sample decides must match exactly:
for the shrink leg the pairing, sizes, c_pair, contraction and leg count
of every matched pair; for the fix leg the segment ends, h_y, contraction
and c1 of every segment.  The control-derivative bounds (the shrink's
Lipschitz constant 2 c1 c2, the fix leg's c2) match to rtol 1e-6, the size
of the finite-difference error they carried when the file was written.
"""

import json
import sys
from pathlib import Path

import pytest

from critedge.flow import FlowConfig, finite_support_flow, fix_spectrum_flow
from critedge.synthesis import random_inverse_critical

GOLDEN = Path(__file__).parent / "data" / "certificate_golden.json"
SEEDS = (0, 3)
RTOL = 1e-6
SHRINK_EXACT = ("pairing", "sizes", "c_pair", "contraction", "legs")
FIX_EXACT = ("t0", "t1", "h_y", "contraction", "c1")


def chains(seed: int) -> dict:
    cfg = FlowConfig(grid_points=65)
    leg1 = finite_support_flow(random_inverse_critical(seed, n=80), 6.0, cfg)
    leg2 = fix_spectrum_flow(leg1.final, cfg)
    # a JSON round trip turns the size tuples into lists, as in the file
    return json.loads(json.dumps({
        "shrink": leg1.meta["pair_certificates"],
        "fix": leg2.meta["certificates"],
    }))


@pytest.mark.parametrize("seed", SEEDS)
def test_certificate_chains_match_golden(seed):
    golden = json.loads(GOLDEN.read_text())[str(seed)]
    got = chains(seed)
    for leg, exact, loose in (("shrink", SHRINK_EXACT, "lipschitz"), ("fix", FIX_EXACT, "c2")):
        assert len(got[leg]) == len(golden[leg])
        for cert, want in zip(got[leg], golden[leg]):
            assert {k: cert[k] for k in exact} == {k: want[k] for k in exact}
            assert cert[loose] == pytest.approx(want[loose], rel=RTOL)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({str(s): chains(s) for s in SEEDS}, indent=1) + "\n")
    sys.exit(0)
