"""Rewiring and contact schedules against pinned outputs.

data/pinned_rewiring.json holds rewire(...).assigned, as HCP names, on two
synthetic facilities and the sha256 of every ContactSchedule array of a
base and a rewired graph. Any change to which HCP a visit goes to, to the random
draws rewiring makes, or to the order or content of schedule events shows
up here. Rewrite the file only for a change that is meant to move them:

    PYTHONPATH=src python -m tests.test_pinned_rewiring

The 6-room facility's assignments are stored verbatim; the 30-room LTCF
facility's, a few thousand visits each, as the sha256 of their JSON and
their dropped count.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from corn.episim import ContactSchedule
from corn.rewiring import random_clustering, rewire
from corn.synth import FacilitySpec, generate_facility, generate_mobility, zone_clustering

from .oracles import assigned_names, rewired_log

PINNED = Path(__file__).parent / "data" / "pinned_rewiring.json"
SEEDS = (0, 1, 2)
K_VALUES = (1, 3, 5)

# the 6-room facility of the CLI tests, and the acceptance LTCF facility
FACILITIES = {
    "cli6": FacilitySpec(
        rooms=6, hallway_nodes=3, hcp_groups=(("n", 4),), non_substitutable=1,
        corridor_length_m=20.0, shift_length_h=8.0, visits_per_hcp_per_day=6,
        visit_duration_min=15.0, locality=0.6, days=2, seed=3, zones=2,
    ),
    "ltcf": FacilitySpec(
        rooms=30, hallway_nodes=10, hcp_groups=(("n", 12),), non_substitutable=6,
        corridor_length_m=58.0, shift_length_h=8.0, visits_per_hcp_per_day=8,
        visit_duration_min=15.0, locality=0.3, days=30, seed=42, zones=5,
        break_visits_per_day=2, break_duration_min=60.0, ns_caseload=3,
        ns_room_visits=4, ns_visit_duration_min=15.0, ns_far_fraction=1 / 6,
    ),
}
VERBATIM = {"cli6"}


@functools.lru_cache(maxsize=None)
def _facility(name: str):
    spec = FACILITIES[name]
    facility = generate_facility(spec)
    return spec, generate_mobility(facility, spec), facility[1]


def _clusterings(name: str):
    """(label, clustering) at each K: home zones regrouped into K bubbles, and a
    random balanced clustering where the nurses allow K."""
    spec, g, hcps = _facility(name)
    out = []
    for k in K_VALUES:
        out.append((f"zone_k{k}", zone_clustering(replace(spec, zones=k), hcps)))
        if all(k <= len(hcps.members(lab)) for lab in hcps.group_labels):
            out.append((f"random_k{k}",
                        random_clustering(hcps, g.locations.substitutable, k, seed=k)))
    return out


def _rewiring_cases():
    """(facility, key, graph, clustering, seed, keep) for each pinned rewiring."""
    for name in FACILITIES:
        g = _facility(name)[1]
        for label, c in _clusterings(name):
            for seed in SEEDS:
                for keep in (False, True):
                    yield name, f"{label}_s{seed}_{'keep' if keep else 'free'}", g, c, seed, keep


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _schedule_digest(g) -> dict:
    s = ContactSchedule(g)
    out = {name: _sha(getattr(s, name).tobytes())
           for name in ("ev_day", "ev_t", "ev_dur", "ev_a", "ev_b", "ev_hh")}
    loc_ids = s.graph.locations.ids
    out["ev_loc"] = _sha("\n".join(loc_ids[i] for i in s.ev_l.tolist()).encode())
    out["n_events"] = s.n_events
    return out


def _record() -> dict:
    rewired: dict[str, dict] = {name: {} for name in FACILITIES}
    for name, key, g, c, seed, keep in _rewiring_cases():
        assigned = list(assigned_names(rewire(g, c, seed, keep_same_bubble_hcp=keep)))
        rewired[name][key] = assigned if name in VERBATIM else {
            "sha256": _sha(json.dumps(assigned).encode()),
            "dropped": assigned.count(None),
        }
    schedules = {}
    for name in FACILITIES:
        spec, g, hcps = _facility(name)
        schedules[f"{name}_base"] = _schedule_digest(g)
        schedules[f"{name}_zone_s0"] = _schedule_digest(
            rewired_log(rewire(g, zone_clustering(spec, hcps), 0)))
    return {"assigned": rewired, "schedules": schedules}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(PINNED.read_text())


@pytest.fixture(scope="module")
def replayed():
    return _record()


@pytest.mark.parametrize("name", list(FACILITIES))
def test_assignments_match_recording(recorded, replayed, name):
    assert replayed["assigned"][name] == recorded["assigned"][name]


def test_schedules_match_recording(recorded, replayed):
    assert replayed["schedules"] == recorded["schedules"]


def test_recording_covers_drops_and_pins(recorded):
    # the pinned runs drop visits, and pinning same-bubble visits changes the outcome
    cli = recorded["assigned"]["cli6"]
    assert any(None in a for a in cli.values())
    assert any(cli[key] != cli[key.replace("_free", "_keep")] for key in cli if "_free" in key)
    assert any(r["dropped"] > 0 for r in recorded["assigned"]["ltcf"].values())


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
