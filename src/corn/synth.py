"""Synthetic facility and mobility-log generation.

Layout is a single corridor of hallway nodes with rooms hanging off short
spurs. Zones are contiguous room runs along the corridor; each
substitutable HCP gets a home zone round-robin within its group, and the
locality knob sets the probability that any one visit stays in the home
zone. Visit counts, durations, and rates below are plausibility
choices, not measured values; everything is configurable through
FacilitySpec.

One day of visits is generated and repeated verbatim for the requested
number of days, so weekday structure is deliberately absent.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .clustering import BubbleClustering, canonicalize
from .errors import SpecError, check_field_types, is_integer
from .model import (
    KIND_NON_SUBSTITUTABLE,
    KIND_SUBSTITUTABLE,
    NS_TYPE,
    SECONDS_PER_DAY,
    HcpRoster,
    LocationRoster,
    Visit,
    VisitGraph,
)
from .spatial import SpatialGraph

STATION_PREFIX = "station_z"


def station_id(zone: int) -> str:
    return f"{STATION_PREFIX}{zone}"


@dataclass(frozen=True)
class FacilitySpec:
    rooms: int
    hallway_nodes: int
    hcp_groups: tuple[tuple[str, int], ...]
    non_substitutable: int
    corridor_length_m: float
    shift_length_h: float
    visits_per_hcp_per_day: float
    visit_duration_min: float
    locality: float
    days: int
    seed: int
    # generator knobs beyond the required shape
    zones: int = 3
    room_spur_m: float = 2.0
    shift_start_h: float = 8.0
    break_visits_per_day: int = 0  # > 0 adds a shared ns station location
    break_duration_min: float = 30.0
    ns_caseload: int = 2
    ns_room_visits: int = 6
    ns_visit_duration_min: float = 15.0
    ns_far_fraction: float = 0.5
    staffing_scaled_rates: bool = True

    def check(self) -> None:
        check_field_types(self, SpecError)
        if self.rooms < 1 or self.hallway_nodes < 1 or self.days < 1:
            raise SpecError("rooms, hallway_nodes, and days must be >= 1")
        if not self.hcp_groups or any(not is_integer(c) or c < 1 for _, c in self.hcp_groups):
            raise SpecError("hcp_groups must list at least one group with count >= 1")
        if len({lab for lab, _ in self.hcp_groups}) != len(self.hcp_groups):
            raise SpecError("duplicate group label")
        if any(lab == NS_TYPE for lab, _ in self.hcp_groups):
            raise SpecError(f"group label {NS_TYPE!r} is reserved")
        if self.non_substitutable < 0 or self.seed < 0:
            raise SpecError("non_substitutable and seed must be >= 0")
        if not (self.corridor_length_m > 0 and self.room_spur_m > 0):
            raise SpecError("lengths must be positive")
        if not 0 < self.shift_length_h <= 24 or not 0 <= self.shift_start_h < 24:
            raise SpecError("shift hours out of range")
        if self.shift_start_h * 3600 + self.shift_length_h * 3600 > SECONDS_PER_DAY:
            raise SpecError("shift must end within its day")
        if not (self.visits_per_hcp_per_day >= 0 and self.visit_duration_min > 0):
            raise SpecError("visit rate/duration out of range")
        if not 0.0 <= self.locality <= 1.0:
            raise SpecError("locality must lie in [0, 1]")
        if not 1 <= self.zones <= self.rooms:
            raise SpecError("zones must lie in 1..rooms")
        if self.break_visits_per_day < 0 or not self.break_duration_min > 0:
            raise SpecError("break parameters out of range")
        if self.ns_caseload < 1 or self.ns_room_visits < 1 or not self.ns_visit_duration_min > 0:
            raise SpecError("ns visit parameters out of range")
        if not 0.0 <= self.ns_far_fraction <= 1.0:
            raise SpecError("ns_far_fraction must lie in [0, 1]")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hcp_groups"] = [list(g) for g in self.hcp_groups]
        return d

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @staticmethod
    def from_dict(raw: dict) -> "FacilitySpec":
        try:
            raw = dict(raw)
            raw["hcp_groups"] = tuple((str(l), c) for l, c in raw["hcp_groups"])
            spec = FacilitySpec(**raw)
            spec.check()
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"bad facility spec: {exc}") from exc
        return spec

    @staticmethod
    def from_json(path: str | Path) -> "FacilitySpec":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise SpecError(f"{path}: {exc}") from exc
        return FacilitySpec.from_dict(raw)


def room_ids(spec: FacilitySpec) -> tuple[str, ...]:
    w = max(2, len(str(spec.rooms - 1)))
    return tuple(f"r{i:0{w}d}" for i in range(spec.rooms))


def zone_bounds(spec: FacilitySpec) -> tuple[tuple[int, int], ...]:
    """Half-open room index ranges of each contiguous zone."""
    cuts = [round(z * spec.rooms / spec.zones) for z in range(spec.zones + 1)]
    return tuple((cuts[z], cuts[z + 1]) for z in range(spec.zones))


def zone_of_room(spec: FacilitySpec, room_index: int) -> int:
    for z, (a, b) in enumerate(zone_bounds(spec)):
        if a <= room_index < b:
            return z
    raise SpecError(f"room index {room_index} out of range")


def home_zone(spec: FacilitySpec, member_index: int) -> int:
    return member_index % spec.zones


def generate_facility(spec: FacilitySpec) -> tuple[SpatialGraph, HcpRoster, LocationRoster]:
    spec.check()
    rooms = room_ids(spec)
    hall = tuple(f"h{i}" for i in range(spec.hallway_nodes))
    nodes = list(hall) + list(rooms)
    edges: list[tuple[str, str, float]] = []
    if spec.hallway_nodes > 1:
        seg = spec.corridor_length_m / (spec.hallway_nodes - 1)
        for i in range(spec.hallway_nodes - 1):
            edges.append((hall[i], hall[i + 1], seg))
    for i, room in enumerate(rooms):
        anchor = hall[(i * spec.hallway_nodes) // spec.rooms]
        edges.append((anchor, room, spec.room_spur_m))

    location_map = {room: room for room in rooms}
    kinds = {room: KIND_SUBSTITUTABLE for room in rooms}
    if spec.break_visits_per_day > 0:
        # one break station per zone, anchored at the zone's middle room
        for z, (a, b) in enumerate(zone_bounds(spec)):
            mid = (a + b - 1) // 2
            location_map[station_id(z)] = hall[(mid * spec.hallway_nodes) // spec.rooms]
            kinds[station_id(z)] = KIND_NON_SUBSTITUTABLE

    types: dict[str, str] = {}
    for lab, count in spec.hcp_groups:
        for m in range(count):
            types[f"{lab}{m + 1:02d}"] = lab
    for m in range(spec.non_substitutable):
        types[f"ns{m + 1:02d}"] = NS_TYPE

    graph = SpatialGraph(nodes=tuple(nodes), edges=tuple(edges), location_map=location_map)
    return graph, HcpRoster(types=types), LocationRoster(kinds=kinds)


def _caseloads(spec: FacilitySpec, rng: np.random.Generator) -> list[tuple[str, ...]]:
    """Room caseloads for the non-substitutable HCPs: near ones take rooms
    from one zone, far ones alternate between two distant zones."""
    rooms = room_ids(spec)
    bounds = zone_bounds(spec)
    cursors: list[list[str]] = []
    for a, b in bounds:
        pool = list(rooms[a:b])
        rng.shuffle(pool)
        cursors.append(pool)

    def take(zone: int) -> str:
        """The next room of zone, or of the next zone with one left."""
        for z in [zone] + [(zone + d) % spec.zones for d in range(1, spec.zones)]:
            if cursors[z]:
                return cursors[z].pop()
        raise SpecError("not enough rooms for the requested ns caseloads")

    n_far = round(spec.non_substitutable * spec.ns_far_fraction)
    out: list[tuple[str, ...]] = []
    for j in range(spec.non_substitutable):
        far = j < n_far
        if far:
            z1 = j % spec.zones
            z2 = (z1 + max(1, spec.zones // 2)) % spec.zones
            rooms_j = tuple(take(z1 if t % 2 == 0 else z2) for t in range(spec.ns_caseload))
        else:
            z = j % spec.zones
            rooms_j = tuple(take(z) for _ in range(spec.ns_caseload))
        out.append(rooms_j)
    return out


def _place_visits(
    rng: np.random.Generator,
    hcp: str,
    room_seq: list[str],
    dur_mean_s: float,
    shift_start: int,
    shift_end: int,
    breaks: list[tuple[int, int]],
) -> list[Visit]:
    n = len(room_seq)
    if n == 0:
        return []
    break_total = sum(e - s for s, e in breaks)
    mean_gap = max(60.0, (shift_end - shift_start - n * dur_mean_s - break_total) / (n + 1))
    out: list[Visit] = []
    t = shift_start
    for room in room_seq:
        t += int(round(rng.exponential(mean_gap)))
        dur = max(60, int(round(dur_mean_s * rng.uniform(0.85, 1.15))))
        moved = True
        while moved:
            moved = False
            for bs, be in breaks:
                if t < be and bs < t + dur:
                    t = be
                    moved = True
        if t + dur > shift_end:
            break
        out.append(Visit(t, t + dur, hcp, room))
        t += dur
    return out


def generate_mobility(
    facility: tuple[SpatialGraph, HcpRoster, LocationRoster],
    spec: FacilitySpec,
) -> VisitGraph:
    spec.check()
    _, hcps, locations = facility
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(1,)))
    rooms = room_ids(spec)
    bounds = zone_bounds(spec)
    zone_rooms = [list(rooms[a:b]) for a, b in bounds]
    shift_start = int(round(spec.shift_start_h * 3600))
    shift_end = shift_start + int(round(spec.shift_length_h * 3600))

    day: list[Visit] = []
    for lab, count in spec.hcp_groups:
        members = [f"{lab}{m + 1:02d}" for m in range(count)]
        zone_members = [0] * spec.zones
        for m in range(count):
            zone_members[home_zone(spec, m)] += 1

        # staffing-scaled rate: zones with fewer HCPs per room get busier HCPs
        def rate_factor(zone: int) -> float:
            if not spec.staffing_scaled_rates or zone_members[zone] == 0:
                return 1.0
            per_room = count / spec.rooms
            return (len(zone_rooms[zone]) / zone_members[zone]) * per_room

        n_breaks = spec.break_visits_per_day
        break_dur = int(round(spec.break_duration_min * 60))
        zone_rank = {}  # member index -> position among same-zone group mates
        for m in range(count):
            z = home_zone(spec, m)
            zone_rank[m] = sum(1 for q in range(m) if home_zone(spec, q) == z)
        for m, hcp in enumerate(members):
            zone = home_zone(spec, m)
            breaks: list[tuple[int, int]] = []
            if n_breaks > 0:
                # stagger within the zone's station; step >= duration means
                # zone mates never overlap there as long as slots fit the shift
                slots = zone_members[zone] * n_breaks
                step = (shift_end - shift_start - break_dur) / slots
                for b in range(n_breaks):
                    slot = b * zone_members[zone] + zone_rank[m]
                    bs = shift_start + int(round(slot * step))
                    breaks.append((bs, bs + break_dur))
                for bs, be in breaks:
                    day.append(Visit(bs, be, hcp, station_id(zone)))
            n_visits = max(1, int(round(spec.visits_per_hcp_per_day * rate_factor(zone))))
            seq = []
            for _ in range(n_visits):
                if rng.random() < spec.locality:
                    pool = zone_rooms[zone]
                else:
                    pool = rooms
                seq.append(pool[int(rng.integers(len(pool)))])
            day.extend(_place_visits(
                rng, hcp, seq, spec.visit_duration_min * 60.0,
                shift_start, shift_end, sorted(breaks)))

    if spec.non_substitutable > 0:
        caseloads = _caseloads(spec, rng)
        for j, rooms_j in enumerate(caseloads):
            hcp = f"ns{j + 1:02d}"
            seq = [rooms_j[t % len(rooms_j)] for t in range(spec.ns_caseload * spec.ns_room_visits)]
            day.extend(_place_visits(
                rng, hcp, seq, spec.ns_visit_duration_min * 60.0,
                shift_start, shift_end, []))

    visits = [
        Visit(v.start_s + d * SECONDS_PER_DAY, v.end_s + d * SECONDS_PER_DAY, v.hcp, v.location)
        for d in range(spec.days)
        for v in day
    ]
    return VisitGraph.build(hcps, locations, visits)


def zone_clustering(spec: FacilitySpec, hcps: HcpRoster) -> BubbleClustering:
    """The clustering that mirrors the generator's home-zone structure."""
    location_bubble = {
        room: zone_of_room(spec, i) + 1 for i, room in enumerate(room_ids(spec))
    }
    hcp_bubble: dict[str, int] = {}
    for lab in hcps.group_labels:
        for m, p in enumerate(hcps.members(lab)):
            hcp_bubble[p] = home_zone(spec, m) + 1
    return canonicalize(BubbleClustering(
        k=spec.zones, location_bubble=location_bubble, hcp_bubble=hcp_bubble))
