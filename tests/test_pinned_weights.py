"""Weight matrices against pinned digests.

data/pinned_weights.json holds the sha256 of repr(sorted(wm.w.items())) for
weight_matrix on the acceptance LTCF facility and a 15-room version of it,
at both HCP scopes and three interval lengths, and on LTCF scaled to 60
rooms (twice the staff, so more HCPs and longer fragment runs per room) at
scope "all" and 60-s intervals. repr prints every float
exactly, so any change to a fragment, a pair, or the order in which HCP
contributions are multiplied shows up here. Rewrite the file only for a
change that is meant to move them:

    PYTHONPATH=src python -m tests.test_pinned_weights
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from corn.synth import generate_facility, generate_mobility
from corn.weights import HCP_SCOPES, weight_matrix, z_from_rho

from .test_pinned_rewiring import FACILITIES

PINNED = Path(__file__).parent / "data" / "pinned_weights.json"
UNITS = (45, 60, 300)
RHO = 0.0048  # about what calibration to R0 2.86 gives on LTCF

LTCF = FACILITIES["ltcf"]
SPECS = {
    "ltcf": LTCF,
    "ltcf15": replace(LTCF, rooms=15, days=7, hallway_nodes=5, hcp_groups=(("n", 6),),
                      non_substitutable=3, corridor_length_m=29.0),
    "ltcf60": replace(LTCF, rooms=60, hallway_nodes=20, hcp_groups=(("n", 24),),
                      non_substitutable=12, corridor_length_m=116.0),
}


@functools.lru_cache(maxsize=None)
def _graph(name: str):
    spec = SPECS[name]
    return generate_mobility(generate_facility(spec), spec)


def _digest(name: str, scope: str, unit: int) -> str:
    wm = weight_matrix(_graph(name), z_from_rho(RHO, unit), unit, hcp_scope=scope)
    return hashlib.sha256(repr(sorted(wm.w.items())).encode()).hexdigest()


def _cases():
    return [(name, scope, unit) for name in ("ltcf", "ltcf15")
            for scope in HCP_SCOPES for unit in UNITS] + [("ltcf60", "all", 60)]


def _key(name: str, scope: str, unit: int) -> str:
    return f"{name}_{scope}_u{unit}"


@pytest.fixture(scope="module")
def recorded():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("name,scope,unit", _cases())
def test_weights_match_recording(recorded, name, scope, unit):
    assert _digest(name, scope, unit) == recorded[_key(name, scope, unit)]


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps({_key(*c): _digest(*c) for c in _cases()},
                                 indent=1, sort_keys=True) + "\n")
