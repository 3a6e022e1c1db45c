"""Cost reports against pinned digests.

data/pinned_costs.json holds, for compute_costs on the acceptance LTCF
facility, the sha256 of the repr of every CostReport field: zone and random
clusterings at K 1, 3 and 5, rewiring seeds 0-2, keep_same_bubble_hcp on
and off. repr prints every float exactly, so any change to a sum, to the
order it is added in, or to a normalisation shows up here. Rewrite the
file only for a change that is meant to move them:

    PYTHONPATH=src python -m tests.test_pinned_costs
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import pytest

from corn.rewiring import compute_costs, rewire
from corn.spatial import shortest_path_metric
from corn.synth import generate_facility

from .test_pinned_rewiring import FACILITIES, SEEDS, _clusterings, _facility

PINNED = Path(__file__).parent / "data" / "pinned_costs.json"


@functools.lru_cache(maxsize=None)
def _dist():
    g = _facility("ltcf")[1]
    return shortest_path_metric(generate_facility(FACILITIES["ltcf"])[0], g.locations.ids)


def _cases():
    """(key, clustering, seed, keep) for each pinned cost report."""
    return [(f"{label}_s{seed}_{'keep' if keep else 'free'}", c, seed, keep)
            for label, c in _clusterings("ltcf") for seed in SEEDS for keep in (False, True)]


def _digests(c, seed: int, keep: bool) -> dict[str, str]:
    rw = rewire(_facility("ltcf")[1], c, seed, keep_same_bubble_hcp=keep)
    report = compute_costs(rw, _dist())
    return {f.name: hashlib.sha256(repr(getattr(report, f.name)).encode()).hexdigest()
            for f in dataclasses.fields(report)}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("key,c,seed,keep", _cases(), ids=[c[0] for c in _cases()])
def test_costs_match_recording(recorded, key, c, seed, keep):
    assert _digests(c, seed, keep) == recorded[key]


def test_recording_covers_every_case(recorded):
    assert sorted(recorded) == sorted(key for key, *_ in _cases())
    assert len(recorded) == 36


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps({key: _digests(c, seed, keep) for key, c, seed, keep in _cases()},
                                 indent=1, sort_keys=True) + "\n")
