"""Exact solves against a pinned recording of their search.

data/pinned_search.json holds, for solve on five dense (hcp_scope="all")
instances, the node count, the number of LP bounds taken, the objective's
exact bits (float.hex) and the canonical clustering:

- rooms15_k3: the 15-room LTCF of the benchmark's dense_solve at K=3; with
  at most 15 locations the search also takes LP bounds;
- rooms20_k3: the 20-room LTCF of dense_solve at K=3;
- rooms12_k3 and rooms12_k4: a 12-room LTCF at K=3 and K=4;
- ltcf_k5_capped: the acceptance LTCF at K=5 with a 15 m diameter cap and
  a 0.17 h/day load-gap cap.

The node count fixes every prune the search made, so a faster search that
decides differently anywhere shows up here. Rewrite the file only for a
change that is meant to move the search:

    PYTHONPATH=src python -m tests.test_pinned_search
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
from pathlib import Path
from unittest import mock

import pytest

from corn.model import compute_loads_demands
from corn.optimizer import ClusterInstance, branch_bound, build_model, solve, verify_clustering
from corn.spatial import shortest_path_metric
from corn.synth import generate_facility, generate_mobility
from corn.weights import weight_matrix, z_from_rho

from .test_pinned_rewiring import FACILITIES, _facility

PINNED = Path(__file__).parent / "data" / "pinned_search.json"
RHO = 0.0048  # per minute, as in the benchmark's dense instances
UNIT_S = 60
LTCF = FACILITIES["ltcf"]


def _scaled(rooms: int, days: int):
    """The LTCF spec with staff, hallway and corridor scaled to `rooms`."""
    f = rooms / LTCF.rooms
    spec = dataclasses.replace(
        LTCF, rooms=rooms, days=days,
        hallway_nodes=round(LTCF.hallway_nodes * f),
        hcp_groups=(("n", round(LTCF.hcp_groups[0][1] * f)),),
        non_substitutable=round(LTCF.non_substitutable * f),
        corridor_length_m=LTCF.corridor_length_m * f,
    )
    facility = generate_facility(spec)
    return facility, generate_mobility(facility, spec)


def _dense(facility, g, k: int) -> ClusterInstance:
    w = weight_matrix(g, z_from_rho(RHO, UNIT_S), UNIT_S, hcp_scope="all")
    return ClusterInstance(weights=w, hcps=facility[1], k=k)


def _capped_ltcf() -> ClusterInstance:
    spatial = generate_facility(LTCF)[0]
    _, g, hcps = _facility("ltcf")
    w = weight_matrix(g, z_from_rho(RHO, UNIT_S), UNIT_S, hcp_scope="all")
    return ClusterInstance(
        weights=w, hcps=hcps, k=5, d_star_m=15.0, y_star_h=0.17,
        dist=shortest_path_metric(spatial, list(w.locations)),
        loads=compute_loads_demands(g),
    )


@functools.lru_cache(maxsize=None)
def _instance(label: str) -> ClusterInstance:
    if label == "ltcf_k5_capped":
        return _capped_ltcf()
    rooms, k = {"rooms15_k3": (15, 3), "rooms20_k3": (20, 3),
                "rooms12_k3": (12, 3), "rooms12_k4": (12, 4)}[label]
    return _dense(*_scaled(rooms, 7), k)


LABELS = ("rooms15_k3", "rooms20_k3", "rooms12_k3", "rooms12_k4", "ltcf_k5_capped")


def _record(label: str) -> dict:
    lp = mock.Mock(wraps=branch_bound.solve_lp)
    with mock.patch.object(branch_bound, "solve_lp", lp):
        res = solve(build_model(_instance(label)))
    c = res.clustering
    return {
        "status": res.status,
        "nodes": res.nodes,
        "lp_calls": lp.call_count,
        "objective": res.objective.hex(),
        "location_bubble": dict(sorted(c.location_bubble.items())),
        "hcp_bubble": dict(sorted(c.hcp_bubble.items())),
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("label", LABELS)
def test_search_matches_recording(recorded, label):
    assert _record(label) == recorded[label]


def test_recording_covers_every_instance(recorded):
    assert sorted(recorded) == sorted(LABELS)
    assert recorded["rooms15_k3"]["lp_calls"] > 0


def _counting_clock(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(branch_bound.time, "monotonic", lambda: float(next(ticks)))


def test_timeout_bound_is_never_negative(monkeypatch):
    # on the dense 20-room LTCF at K=3 the search's running sums drift below
    # zero; a cut of probabilities is not negative, so neither is its bound
    _counting_clock(monkeypatch)
    res = solve(build_model(_instance("rooms20_k3")), time_limit_s=7)
    assert res.status == "timeout"
    assert 0 <= res.bound <= res.objective


def test_timeout_returns_at_least_the_polished_greedy(monkeypatch):
    # seven nodes in, the search's own best leaf is still the greedy one, and
    # polishing it lowers the cut
    polished = []
    polish = branch_bound._Search._polish

    def kept(self):
        polish(self)
        polished.append((self.incumbent, self.polished))

    monkeypatch.setattr(branch_bound._Search, "_polish", kept)
    _counting_clock(monkeypatch)
    inst = _instance("rooms20_k3")
    res = solve(build_model(inst), time_limit_s=7)
    assert res.status == "timeout"
    assert verify_clustering(res.clustering, inst) == []
    greedy, polished_greedy = polished[0]
    assert res.objective <= polished_greedy + 1e-9 < greedy
    assert 0 <= res.bound <= res.objective


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps({label: _record(label) for label in LABELS},
                                 indent=1, sort_keys=True) + "\n")
