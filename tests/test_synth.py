from __future__ import annotations

import dataclasses
import math

import pytest

from corn.errors import SpecError
from corn.model import validate
from corn.rewiring import compute_costs, rewire
from corn.spatial import shortest_path_metric
from corn.synth import (
    FacilitySpec,
    generate_facility,
    generate_mobility,
    room_ids,
    station_id,
    zone_bounds,
    zone_clustering,
    zone_of_room,
)

from .oracles import rewired_log


def base_spec(**kw):
    # balanced shape: 2 HCPs per zone, 4 rooms per zone, rate factor 1
    defaults = dict(
        rooms=8, hallway_nodes=4, hcp_groups=(("n", 4),), non_substitutable=2,
        corridor_length_m=30.0, shift_length_h=8.0, visits_per_hcp_per_day=8,
        visit_duration_min=15.0, locality=0.5, days=3, seed=11, zones=2,
    )
    defaults.update(kw)
    return FacilitySpec(**defaults)


class TestFacility:
    def test_layout_shape(self):
        spec = base_spec()
        spatial, hcps, locations = generate_facility(spec)
        assert len(spatial.nodes) == 8 + 4
        assert set(locations.substitutable) == set(room_ids(spec))
        assert locations.non_substitutable == ()
        # every room reachable over the corridor
        dist = shortest_path_metric(spatial, list(room_ids(spec)))
        assert all(v > 0 for (a, b), v in dist.dist.items() if a != b)

    def test_roster_counts(self):
        spec = base_spec(hcp_groups=(("n", 4), ("aide", 3)), non_substitutable=2)
        _, hcps, _ = generate_facility(spec)
        assert hcps.group_labels == ("n", "aide")
        assert len(hcps.members("n")) == 4
        assert len(hcps.members("aide")) == 3
        assert hcps.non_substitutable == ("ns01", "ns02")

    def test_break_stations(self):
        spec = base_spec(break_visits_per_day=2)
        spatial, _, locations = generate_facility(spec)
        stations = locations.non_substitutable
        assert stations == (station_id(0), station_id(1))
        for s in stations:
            assert spatial.location_map[s].startswith("h")

    def test_room_id_padding(self):
        assert room_ids(base_spec())[:2] == ("r00", "r01")
        wide = base_spec(rooms=120, zones=3)
        assert room_ids(wide)[0] == "r000"

    def test_zone_bounds_partition(self):
        spec = base_spec(rooms=7, zones=3)
        bounds = zone_bounds(spec)
        assert bounds[0][0] == 0 and bounds[-1][1] == 7
        assert all(b1 == a2 for (_, b1), (a2, _) in zip(bounds, bounds[1:]))
        sizes = [b - a for a, b in bounds]
        assert max(sizes) - min(sizes) <= 1


class TestSpecValidation:
    @pytest.mark.parametrize("kw", [
        dict(rooms=0),
        dict(zones=9),  # more zones than rooms
        dict(locality=1.5),
        dict(hcp_groups=()),
        dict(hcp_groups=(("n", 0),)),
        dict(hcp_groups=(("n", 2), ("n", 3))),
        dict(hcp_groups=(("ns", 2),)),  # reserved label
        dict(non_substitutable=-1),
        dict(shift_length_h=8.0, shift_start_h=20.0),  # runs past midnight
        dict(visit_duration_min=0.0),
        dict(ns_far_fraction=2.0),
        dict(corridor_length_m=math.nan),
        dict(room_spur_m=math.nan),
        dict(shift_length_h=math.nan),
        dict(shift_start_h=math.nan),
        dict(visits_per_hcp_per_day=math.nan),
        dict(visit_duration_min=math.nan),
        dict(break_duration_min=math.nan),
        dict(ns_visit_duration_min=math.nan),
        dict(rooms=6.5),
        dict(days=True),
        dict(hcp_groups=(("n", 2.5),)),
        dict(staffing_scaled_rates="no"),
    ])
    def test_rejected(self, kw):
        with pytest.raises(SpecError):
            base_spec(**kw).check()

    def test_json_roundtrip(self, tmp_path):
        spec = base_spec(break_visits_per_day=1)
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert FacilitySpec.from_json(path) == spec

    def test_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{\"rooms\": 4}")
        with pytest.raises(SpecError):
            FacilitySpec.from_json(path)
        with pytest.raises(SpecError):
            FacilitySpec.from_json(tmp_path / "missing.json")


class TestMobility:
    def test_output_is_valid(self):
        spec = base_spec(break_visits_per_day=2)
        g = generate_mobility(generate_facility(spec), spec)
        assert validate(g) == []

    def test_deterministic(self):
        spec = base_spec()
        fac = generate_facility(spec)
        assert generate_mobility(fac, spec) == generate_mobility(fac, spec)

    def test_seed_changes_output(self):
        a = base_spec(seed=1)
        b = base_spec(seed=2)
        ga = generate_mobility(generate_facility(a), a)
        gb = generate_mobility(generate_facility(b), b)
        assert ga.visits != gb.visits

    def test_daily_repetition(self):
        spec = base_spec(days=2)
        g = generate_mobility(generate_facility(spec), spec)
        day0 = [v for v in g.visits if v.start_s < 86400]
        day1 = [v for v in g.visits if v.start_s >= 86400]
        shifted = sorted(
            (v.start_s + 86400, v.end_s + 86400, v.hcp, v.location) for v in day0)
        assert shifted == sorted(
            (v.start_s, v.end_s, v.hcp, v.location) for v in day1)

    def test_visit_rate_near_target(self):
        spec = base_spec(days=5)
        g = generate_mobility(generate_facility(spec), spec)
        nurse_visits = [v for v in g.visits if v.hcp.startswith("n")
                        and not v.hcp.startswith("ns")]
        per_hcp_day = len(nurse_visits) / (4 * spec.days)
        assert per_hcp_day == pytest.approx(8, rel=0.10)

    def test_visits_inside_shift(self):
        spec = base_spec()
        g = generate_mobility(generate_facility(spec), spec)
        start = int(spec.shift_start_h * 3600)
        end = start + int(spec.shift_length_h * 3600)
        for v in g.visits:
            assert start <= v.start_s % 86400
            assert (v.end_s - 1) % 86400 < end

    def test_locality_monotone(self):
        fracs = []
        for loc in (0.2, 0.8, 1.0):
            spec = base_spec(locality=loc, non_substitutable=0, days=1)
            g = generate_mobility(generate_facility(spec), spec)
            home = total = 0
            for v in g.visits:
                member = int(v.hcp[1:]) - 1
                total += 1
                if zone_of_room(spec, int(v.location[1:])) == member % spec.zones:
                    home += 1
            fracs.append(home / total)
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0

    def test_station_stagger(self):
        # zone mates take breaks back to back, never together
        spec = base_spec(break_visits_per_day=2, days=1)
        g = generate_mobility(generate_facility(spec), spec)
        at_station: dict[str, list] = {}
        for v in g.visits:
            if v.location.startswith("station"):
                at_station.setdefault(v.location, []).append(v)
        assert len(at_station) == 2
        for visits in at_station.values():
            for i, a in enumerate(visits):
                for b in visits[i + 1:]:
                    if a.hcp != b.hcp:
                        assert a.end_s <= b.start_s or b.end_s <= a.start_s

    def test_ns_caseload_size(self):
        spec = base_spec(ns_caseload=3, days=1)
        g = generate_mobility(generate_facility(spec), spec)
        for ns in ("ns01", "ns02"):
            rooms = {v.location for v in g.visits if v.hcp == ns}
            assert 1 <= len(rooms) <= 3


class TestZoneClustering:
    def test_mirrors_generator(self):
        spec = base_spec()
        _, hcps, _ = generate_facility(spec)
        c = zone_clustering(spec, hcps)
        assert c.k == spec.zones
        assert set(c.location_bubble) == set(room_ids(spec))
        sizes = [sum(1 for b in c.location_bubble.values() if b == k)
                 for k in range(1, spec.zones + 1)]
        assert sizes == [4, 4]

    def test_identity_when_fully_local(self):
        # all visits already in-bubble, so pinning them reproduces the input
        spec = base_spec(locality=1.0, break_visits_per_day=1, days=1)
        fac = generate_facility(spec)
        g = generate_mobility(fac, spec)
        c = zone_clustering(spec, fac[1])
        rw = rewire(g, c, seed=0, keep_same_bubble_hcp=True)
        assert rewired_log(rw) == g
        assert rw.dropped_count == 0
        dist = shortest_path_metric(fac[0])
        rep = compute_costs(rw, dist)
        assert all(v == 0.0 for v in rep.excess_load.values())
        assert all(v == 0.0 for v in rep.unmet_demand.values())

    def test_spec_override_helper(self):
        spec = dataclasses.replace(base_spec(), seed=99)
        assert spec.seed == 99
        spec.check()
