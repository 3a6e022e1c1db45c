from __future__ import annotations

from hypothesis import strategies as st

from corn.clustering import BubbleClustering
from corn.model import NS_TYPE, HcpRoster, LocationRoster, Visit, VisitGraph, chop_visit


def make_graph(
    visits: list[tuple[str, str, int, int]],
    hcp_types: dict[str, str],
    loc_kinds: dict[str, str],
) -> VisitGraph:
    """Build a VisitGraph from (hcp, location, start_s, end_s) rows."""
    return VisitGraph.build(
        HcpRoster(dict(hcp_types)),
        LocationRoster(dict(loc_kinds)),
        [Visit(s, e, h, l) for h, l, s, e in visits],
    )


def chop_graph(g: VisitGraph, unit_s: int) -> VisitGraph:
    """The log with every visit replaced by its unit_s fragments."""
    return VisitGraph.build(g.hcps, g.locations,
                            [f for v in g.visits for f in chop_visit(v, unit_s)])


def two_room_graph(rows: list[tuple[str, str, int, int]], n_hcps: int = 1) -> VisitGraph:
    """Minimal pair-of-rooms fixture for directed-weight examples."""
    hcps = {f"p{i + 1}": "g1" for i in range(n_hcps)}
    return make_graph(rows, hcps, {"la": "s", "lb": "s"})


HALF_HOUR = 1800


@st.composite
def small_logs(draw) -> tuple[VisitGraph, BubbleClustering, bool]:
    """A valid log, a clustering of its substitutable side, and a keep flag.

    Two substitutable HCP groups and one non-substitutable HCP visit three
    rooms and a non-substitutable hall on a half-hour grid, so visits share
    starts and ends, overlap at one location and cross midnight. Each
    HCP's visits are disjoint. Bubbles are drawn freely, so one may hold a
    room but no HCP of a group.
    """
    hcps = {f"a{i}": "ga" for i in range(draw(st.integers(1, 2)))}
    hcps.update({f"b{i}": "gb" for i in range(draw(st.integers(1, 3)))})
    hcps["x"] = NS_TYPE
    locs = {"r1": "s", "r2": "s", "r3": "s", "hall": "ns"}
    visits = []
    for h in hcps:
        end = 0
        for gap, length, loc in draw(st.lists(st.tuples(
                st.integers(0, 8), st.integers(1, 6), st.sampled_from(sorted(locs))), max_size=6)):
            start = end + gap * HALF_HOUR
            end = start + length * HALF_HOUR
            visits.append(Visit(start, end, h, loc))
    k = draw(st.integers(1, 2))
    clustering = BubbleClustering(
        k=k,
        location_bubble={l: draw(st.integers(1, k)) for l, kind in locs.items() if kind == "s"},
        hcp_bubble={h: draw(st.integers(1, k)) for h, t in hcps.items() if t != NS_TYPE},
    )
    return VisitGraph.build(HcpRoster(hcps), LocationRoster(locs), visits), clustering, draw(st.booleans())
