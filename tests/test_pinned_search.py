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
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from corn.model import compute_loads_demands
from corn.optimizer import ClusterInstance, branch_bound, build_model, solve, verify_clustering
from corn.spatial import shortest_path_metric
from corn.synth import generate_facility, generate_mobility
from corn.weights import weight_matrix, z_from_rho

from .oracles import cheapest_attachment_leaf
from .test_optimizer import two_group_instance
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


def test_timeout_bound_is_never_negative(monkeypatch, recorded):
    # a cut of probabilities is not negative and none is below the optimum, so
    # every timeout's bound lies between them; the clock is first read after the
    # first dive's n + 1 nodes, and the counting clock times the dense 20-room
    # LTCF at K=3 out after each of 1..399 ticks from then on
    optimum = float.fromhex(recorded["rooms20_k3"]["objective"])
    model = build_model(_instance("rooms20_k3"))
    for limit in range(1, 400):
        _counting_clock(monkeypatch)
        res = solve(model, time_limit_s=limit)
        assert res.status == "timeout"
        assert 0 <= res.bound <= optimum + 1e-9, (limit, res.bound.hex())


def _sequential(rows, n: int) -> np.ndarray:
    """The rows added one at a time onto zeros, as the search adds them."""
    total = np.zeros(n)
    for row in rows:
        total = total + row
    return total


def _check_state(s, pos: int) -> None:
    """sum_in, into and cut at depth pos against sums made from members and W."""
    W = s.W
    for b in range(s.K):
        want = _sequential(W[s.members[b]], s.n)
        assert s.sum_in[pos][b].tobytes() == want.tobytes(), (pos, b)
    assert s.into[pos].tobytes() == _sequential(W[:pos], s.n).tobytes(), pos
    bub = np.empty(pos, dtype=np.intp)
    for b, m in enumerate(s.members):
        bub[m] = b
    split = np.triu(bub[:, None] != bub, 1)
    exact = math.fsum(W[:pos, :pos][split].tolist())
    assert 0 <= s.cut[pos], pos
    assert math.isclose(s.cut[pos], exact, rel_tol=1e-12, abs_tol=0.0), (pos, s.cut[pos], exact)


def _capped_random(count: int) -> list[ClusterInstance]:
    rng = np.random.default_rng(24)
    out: list[ClusterInstance] = []
    while len(out) < count:
        inst = two_group_instance(rng)
        if math.isfinite(inst.d_star_m) or math.isfinite(inst.y_star_h):
            out.append(inst)
    return out


def test_search_state_is_the_sequential_sum(monkeypatch):
    # the search keeps its float state per depth, so no backtrack can leave
    # it off the sums that a fresh walk down the same path makes
    bound = branch_bound._Search._comb_bound
    calls = []

    def checked(self, pos):
        _check_state(self, pos)
        calls.append(pos)
        return bound(self, pos)

    monkeypatch.setattr(branch_bound._Search, "_comb_bound", checked)
    for inst in [_instance("rooms20_k3"), _instance("ltcf_k5_capped"), *_capped_random(5)]:
        calls.clear()
        solve(build_model(inst))
        assert calls


def test_timeout_returns_at_least_the_polished_first_dive(monkeypatch):
    # seven nodes after the first dive, the search's own best leaf is still the
    # first dive's, and polishing it lowers the cut
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


def test_zero_time_limit_returns_a_verified_clustering():
    # the first dive runs before the clock is read, so even no time at all
    # returns its polished leaf
    inst = _instance("rooms20_k3")
    res = solve(build_model(inst), time_limit_s=0)
    assert res.status == "timeout"
    assert verify_clustering(res.clustering, inst) == []


def test_first_leaf_is_the_cheapest_attachment_leaf(monkeypatch):
    # with no incumbent nothing is pruned and no LP runs, so the first leaf the
    # search closes is the greedy cheapest-attachment descent's, wherever that
    # descent finds one: on the pinned instances, TestPolishedIncumbents' and
    # seeded capped ones
    first = []
    close = branch_bound._Search._close_leaf

    def recorded(self):
        if not first:
            first.append([list(m) for m in self.members])
        close(self)

    monkeypatch.setattr(branch_bound._Search, "_close_leaf", recorded)
    rng = np.random.default_rng(20)
    polished_cases = [two_group_instance(rng) for _ in range(30)]
    checked = 0
    for inst in [*map(_instance, LABELS), *polished_cases, *_capped_random(40)]:
        s = branch_bound._Search(inst)
        want = cheapest_attachment_leaf(s.W, s.far, s.K, s.flr, s.cap)
        if want is None:
            continue
        first.clear()
        solve(build_model(inst))
        assert first == [want]
        checked += 1
    assert checked >= 60, checked


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps({label: _record(label) for label in LABELS},
                                 indent=1, sort_keys=True) + "\n")
