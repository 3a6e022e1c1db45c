"""Core data model: rosters, visit graphs, loads/demands, visit chopping.

Time is integer seconds from the start of the log. Derived load/demand figures
are reported in hours per day, where the day count is ceil(max end / 86400).
"""

from __future__ import annotations

import csv
import functools
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ParseError, ValidationError

NS_TYPE = "ns"
KIND_SUBSTITUTABLE = "s"
KIND_NON_SUBSTITUTABLE = "ns"
SECONDS_PER_DAY = 86400


@dataclass(frozen=True, order=True)
class Visit:
    """One HCP presence interval [start_s, end_s) at a location."""

    start_s: int
    end_s: int
    hcp: str
    location: str

    @property
    def duration_s(self) -> int:
        return self.end_s - self.start_s


# Visit's own order, compared as one tuple instead of through Visit.__lt__
_VISIT_ORDER = operator.attrgetter("start_s", "end_s", "hcp", "location")


@dataclass(frozen=True)
class HcpRoster:
    """HCP ids with their type tag: NS_TYPE or an arbitrary group label.

    Group labels are ordered by first appearance, which fixes the group
    indices 1..H used by the optimizer.
    """

    types: dict[str, str]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self.types)

    @property
    def group_labels(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for t in self.types.values():
            if t != NS_TYPE:
                seen.setdefault(t, None)
        return tuple(seen)

    def members(self, label: str) -> tuple[str, ...]:
        return tuple(h for h, t in self.types.items() if t == label)

    @property
    def substitutable(self) -> tuple[str, ...]:
        return tuple(h for h, t in self.types.items() if t != NS_TYPE)

    @property
    def non_substitutable(self) -> tuple[str, ...]:
        return tuple(h for h, t in self.types.items() if t == NS_TYPE)


@dataclass(frozen=True)
class LocationRoster:
    """Location ids with kind: substitutable room ('s') or not ('ns')."""

    kinds: dict[str, str]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self.kinds)

    @property
    def substitutable(self) -> tuple[str, ...]:
        return tuple(l for l, k in self.kinds.items() if k == KIND_SUBSTITUTABLE)

    @property
    def non_substitutable(self) -> tuple[str, ...]:
        return tuple(l for l, k in self.kinds.items() if k != KIND_SUBSTITUTABLE)


class VisitColumns(NamedTuple):
    """A log's visits as int64 arrays, in graph order."""

    start: np.ndarray
    end: np.ndarray
    hcp: np.ndarray  # index into hcps.ids
    location: np.ndarray  # index into locations.ids


@dataclass(frozen=True)
class VisitGraph:
    """Immutable bipartite visit multigraph over an HCP and a location roster."""

    hcps: HcpRoster
    locations: LocationRoster
    visits: tuple[Visit, ...]

    @staticmethod
    def build(hcps: HcpRoster, locations: LocationRoster, visits: Iterable[Visit]) -> "VisitGraph":
        return VisitGraph(hcps, locations, tuple(sorted(visits, key=_VISIT_ORDER)))

    @functools.cached_property
    def columns(self) -> VisitColumns:
        """The visits as columns, built on first read; every visit's ids must be on the rosters."""
        hi = {h: i for i, h in enumerate(self.hcps.ids)}
        li = {l: i for i, l in enumerate(self.locations.ids)}
        rows = np.array([(v.start_s, v.end_s, hi[v.hcp], li[v.location]) for v in self.visits],
                        dtype=np.int64).reshape(-1, 4)
        return VisitColumns(*(np.ascontiguousarray(c) for c in rows.T))

    @functools.cached_property
    def max_end_s(self) -> int:
        return max((v.end_s for v in self.visits), default=0)

    @property
    def day_count(self) -> int:
        """The days up to the end of the last visit: at least one."""
        return max(1, math.ceil(self.max_end_s / SECONDS_PER_DAY))


def name_ranks(names: tuple[str, ...]) -> np.ndarray:
    """Each name's position in sorted order, so sorting indices by rank sorts by name."""
    ranks = np.empty(len(names), dtype=np.int64)
    ranks[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return ranks


@dataclass(frozen=True)
class Violation:
    rule: str
    entity: str
    detail: str


@dataclass(frozen=True)
class LoadDemandTable:
    """Per-HCP load and per-location demand, hours/day over the log horizon."""

    loads: dict[str, float]
    demands: dict[str, float]
    day_count: int


def _read_rows(path: str | Path, expected_header: list[str]) -> list[list[str]]:
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != expected_header:
        raise ParseError(f"{path}: expected header {','.join(expected_header)}")
    body = [r for r in rows[1:] if r and any(c.strip() for c in r)]
    for r in body:
        if len(r) != len(expected_header):
            raise ParseError(f"{path}: row has {len(r)} fields, expected {len(expected_header)}: {r}")
    return body


def load_hcp_roster(path: str | Path) -> HcpRoster:
    types: dict[str, str] = {}
    for hcp, typ in _read_rows(path, ["hcp_id", "type"]):
        hcp, typ = hcp.strip(), typ.strip()
        if not hcp or not typ:
            raise ParseError(f"{path}: empty hcp_id or type")
        if hcp in types:
            raise ParseError(f"{path}: duplicate hcp_id {hcp!r}")
        types[hcp] = typ
    return HcpRoster(types)


def load_location_roster(path: str | Path) -> LocationRoster:
    kinds: dict[str, str] = {}
    for loc, kind in _read_rows(path, ["location_id", "kind"]):
        loc, kind = loc.strip(), kind.strip()
        if kind not in (KIND_SUBSTITUTABLE, KIND_NON_SUBSTITUTABLE):
            raise ParseError(f"{path}: kind must be 's' or 'ns', got {kind!r}")
        if loc in kinds:
            raise ParseError(f"{path}: duplicate location_id {loc!r}")
        kinds[loc] = kind
    return LocationRoster(kinds)


def _parse_seconds(raw: str, path: Path) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseError(f"{path}: bad timestamp {raw!r}") from exc


def load_mobility_log(
    visits_path: str | Path,
    hcps: HcpRoster,
    locations: LocationRoster,
) -> VisitGraph:
    """Read a visits CSV and return a validated VisitGraph.

    Raises ValidationError on unknown ids, inverted intervals, or per-HCP
    overlap; use read_mobility_log() + validate() to list problems instead
    of failing fast.
    """
    path = Path(visits_path)
    g = read_mobility_log(path, hcps, locations)
    problems = validate(g)
    if problems:
        first = problems[0]
        raise ValidationError(f"{path}: {first.rule} ({first.entity}): {first.detail} "
                              f"[{len(problems)} total]; run the validate command for the full list")
    return g


def read_mobility_log(
    visits_path: str | Path,
    hcps: HcpRoster,
    locations: LocationRoster,
) -> VisitGraph:
    """Read a visits CSV without semantic validation (parse errors still raise)."""
    path = Path(visits_path)
    visits = []
    for hcp, loc, start, end in _read_rows(path, ["hcp_id", "location_id", "start_s", "end_s"]):
        visits.append(Visit(_parse_seconds(start, path), _parse_seconds(end, path), hcp.strip(), loc.strip()))
    return VisitGraph.build(hcps, locations, visits)


def validate(g: VisitGraph) -> list[Violation]:
    """Check roster membership, interval sanity, and per-HCP disjointness."""
    out: list[Violation] = []
    for v in g.visits:
        if v.hcp not in g.hcps.types:
            out.append(Violation("unknown-hcp", v.hcp, f"visit at {v.location} [{v.start_s},{v.end_s})"))
        if v.location not in g.locations.kinds:
            out.append(Violation("unknown-location", v.location, f"visit by {v.hcp} [{v.start_s},{v.end_s})"))
        if v.start_s < 0:
            out.append(Violation("negative-start", v.hcp, f"[{v.start_s},{v.end_s}) at {v.location}"))
        if v.start_s >= v.end_s:
            out.append(Violation("empty-interval", v.hcp, f"[{v.start_s},{v.end_s}) at {v.location}"))
    by_hcp: dict[str, list[Visit]] = {}
    for v in g.visits:
        by_hcp.setdefault(v.hcp, []).append(v)
    for hcp, vs in by_hcp.items():
        vs.sort(key=_VISIT_ORDER)
        for a, b in zip(vs, vs[1:]):
            if b.start_s < a.end_s:
                out.append(
                    Violation(
                        "overlap",
                        hcp,
                        f"[{a.start_s},{a.end_s}) at {a.location} overlaps [{b.start_s},{b.end_s}) at {b.location}",
                    )
                )
    return out


def compute_loads_demands(g: VisitGraph) -> LoadDemandTable:
    """Sum visit durations per HCP (load) and per location (demand)."""
    days = g.day_count
    loads = {h: 0 for h in g.hcps.ids}
    demands = {l: 0 for l in g.locations.ids}
    for v in g.visits:
        loads[v.hcp] = loads.get(v.hcp, 0) + v.duration_s
        demands[v.location] = demands.get(v.location, 0) + v.duration_s
    to_hours = 1.0 / (3600.0 * days)
    return LoadDemandTable(
        loads={h: s * to_hours for h, s in loads.items()},
        demands={l: s * to_hours for l, s in demands.items()},
        day_count=days,
    )


def chop_points(start_s: int, end_s: int, unit_s: int) -> list[int]:
    """Bounds of the unit-length fragments of [start_s, end_s), both ends included.

    A final fragment shorter than unit/2 is merged into the previous one;
    a fragment of at least unit/2 stands alone. An interval no longer than
    the unit is kept whole.
    """
    d = end_s - start_s
    if d <= unit_s:
        return [start_s, end_s]
    q, r = divmod(d, unit_s)
    if r and 2 * r >= unit_s:
        q += 1  # remainder stands alone; otherwise the last full fragment absorbs it
    return [*range(start_s, start_s + q * unit_s, unit_s), end_s]


def chop_visit(v: Visit, unit_s: int) -> list[Visit]:
    """Split one visit into the fragments chop_points gives."""
    cuts = chop_points(v.start_s, v.end_s, unit_s)
    return [Visit(a, b, v.hcp, v.location) for a, b in zip(cuts, cuts[1:])]


def write_hcp_roster(roster: HcpRoster, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["hcp_id", "type"])
        for hcp, typ in roster.types.items():
            w.writerow([hcp, typ])


def write_location_roster(roster: LocationRoster, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["location_id", "kind"])
        for loc, kind in roster.kinds.items():
            w.writerow([loc, kind])


def write_mobility_log(g: VisitGraph, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["hcp_id", "location_id", "start_s", "end_s"])
        for v in g.visits:
            w.writerow([v.hcp, v.location, v.start_s, v.end_s])
