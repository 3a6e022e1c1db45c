from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corn.clustering import BubbleClustering
from corn.episim import DiseaseParams, SimConfig, simulate
from corn.errors import ClusteringMismatchError, InvalidKError
from corn.model import HcpRoster, compute_loads_demands
from corn.rewiring import ReplayedDraws, compute_costs, random_clustering, rewire, write_cost_csv
from corn.spatial import DistanceMatrix
from corn.synth import generate_facility, generate_mobility

from .conftest import make_graph, small_logs
from .oracles import assigned_names, rewired_log, scalar_rewire
from .test_pinned_rewiring import FACILITIES

HOUR = 3600


def golden_graph():
    """Two-bubble layout where one far visit is unservable.

    p3's 2 h visit to l4 at (1,3) finds both same-type HCPs of l4's bubble
    occupied (their base visits pair up over that window), so it drops;
    the two 1 h cross visits land one on each of them in every outcome.
    """
    rows = [
        ("p1", "l1", 0, 2 * HOUR), ("p1", "l2", 2 * HOUR, 4 * HOUR),
        ("p2", "l1", 0, 1 * HOUR), ("p2", "l3", 3 * HOUR, 4 * HOUR),
        ("p3", "l4", 1 * HOUR, 3 * HOUR), ("p3", "l4", 4 * HOUR, 5 * HOUR),
        ("p4", "l2", 1 * HOUR, 2 * HOUR),
        ("p5", "l3", 0, 3 * HOUR), ("p5", "l3", 3 * HOUR, 4 * HOUR),
        ("p6", "l4", 0, 3 * HOUR), ("p6", "l4", 4 * HOUR, 5 * HOUR),
    ]
    hcp_types = {"p1": "g1", "p2": "g1", "p3": "g1", "p5": "g1", "p6": "g1", "p4": "ns"}
    return make_graph(rows, hcp_types, {f"l{i}": "s" for i in range(1, 5)})


def golden_clustering() -> BubbleClustering:
    return BubbleClustering(
        k=2,
        location_bubble={"l1": 1, "l2": 1, "l3": 2, "l4": 2},
        hcp_bubble={"p1": 1, "p2": 1, "p3": 1, "p5": 2, "p6": 2},
    )


def flat_metric(locs, d=5.0) -> DistanceMatrix:
    dist = {(a, b): (0.0 if a == b else d) for a in locs for b in locs}
    return DistanceMatrix(locations=tuple(locs), dist=dist)


def pinned_visits(g, c: BubbleClustering, keep: bool) -> list[bool]:
    """Per visit of g, whether rewire must leave it with its own HCP."""
    ns_hcps, ns_locs = set(g.hcps.non_substitutable), set(g.locations.non_substitutable)
    return [v.hcp in ns_hcps or v.location in ns_locs
            or (keep and c.hcp_bubble[v.hcp] == c.location_bubble[v.location])
            for v in g.visits]


def assert_assigned_column(rw, keep: bool) -> None:
    """rw.assigned is a read-only int64 column, one HCP index or -1 per source visit,
    that leaves every pinned visit with its HCP."""
    g, a = rw.source, rw.assigned
    assert a.dtype == np.int64 and a.shape == (len(g.visits),)
    assert ((a >= -1) & (a < len(g.hcps.ids))).all()
    pinned = np.array(pinned_visits(g, rw.clustering, keep), dtype=bool)
    assert np.array_equal(a[pinned], g.columns.hcp[pinned])
    assert rw.dropped_count == assigned_names(rw).count(None)
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[:1] = -1


class TestGoldenInstance:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    def test_unmet_and_excess(self, seed):
        g = golden_graph()
        rw = rewire(g, golden_clustering(), seed=seed)
        rep = compute_costs(rw, flat_metric(["l1", "l2", "l3", "l4"]))
        assert rep.unmet_demand["l4"] == pytest.approx(2.0)
        assert rep.unmet_demand["l1"] == 0.0
        assert rep.unmet_demand["l2"] == 0.0
        assert rep.unmet_demand["l3"] == 0.0
        assert rep.excess_load["p5"] == pytest.approx(1.0)
        assert rep.excess_load["p6"] == pytest.approx(1.0)
        assert rw.dropped_count == 1
        (lost,) = [v for v, h in zip(rw.source.visits, assigned_names(rw)) if h is None]
        assert lost.hcp == "p3" and lost.location == "l4"

    def test_ns_visits_verbatim(self):
        g = golden_graph()
        rw = rewire(g, golden_clustering(), seed=5)
        base = [v for v in g.visits if v.hcp == "p4"]
        kept = [v for v in rewired_log(rw).visits if v.hcp == "p4"]
        assert base == kept


class TestRewireRules:
    def test_bubble_confinement(self):
        g = golden_graph()
        c = golden_clustering()
        for seed in range(10):
            rw = rewire(g, c, seed=seed)
            for v in rewired_log(rw).visits:
                if v.hcp == "p4":
                    continue
                assert c.hcp_bubble[v.hcp] == c.location_bubble[v.location]

    def test_labels_preserved(self):
        g = golden_graph()
        rw = rewire(g, golden_clustering(), seed=3)
        base_labels = sorted((v.start_s, v.end_s, v.location) for v in g.visits)
        out_labels = [(v.start_s, v.end_s, v.location) for v in rewired_log(rw).visits]
        dropped = [(v.start_s, v.end_s, v.location)
                   for v, h in zip(g.visits, assigned_names(rw)) if h is None]
        assert sorted(out_labels + dropped) == base_labels

    def test_determinism(self):
        g = golden_graph()
        a = rewire(g, golden_clustering(), seed=99)
        b = rewire(g, golden_clustering(), seed=99)
        assert rewired_log(a) == rewired_log(b)
        assert np.array_equal(a.assigned, b.assigned)

    def test_single_hcp_identity(self):
        g = make_graph([("p1", "l1", 0, 60), ("p1", "l2", 120, 180)],
                       {"p1": "g1"}, {"l1": "s", "l2": "s"})
        c = BubbleClustering(k=1, location_bubble={"l1": 1, "l2": 1},
                             hcp_bubble={"p1": 1})
        rw = rewire(g, c, seed=0)
        assert rewired_log(rw) == g
        assert rw.dropped_count == 0

    def test_demand_never_increases(self):
        g = golden_graph()
        for seed in range(10):
            rw = rewire(g, golden_clustering(), seed=seed)
            before = compute_loads_demands(g).demands
            after = compute_loads_demands(rewired_log(rw)).demands
            for l in before:
                assert after.get(l, 0.0) <= before[l] + 1e-12

    def test_mismatched_clustering(self):
        g = golden_graph()
        c = BubbleClustering(k=2, location_bubble={"l1": 1, "l2": 2},
                             hcp_bubble={"p1": 1, "p2": 2})
        with pytest.raises(ClusteringMismatchError):
            rewire(g, c, seed=0)

    def test_disjointness_preserved(self):
        from corn.model import validate
        g = golden_graph()
        for seed in range(10):
            rw = rewire(g, golden_clustering(), seed=seed)
            assert validate(rewired_log(rw)) == []

    def test_dropped_had_no_candidate(self):
        # recheck the greedy-order claim: at drop time every same-type
        # bubble member overlaps the dropped interval
        g = golden_graph()
        c = golden_clustering()
        rw = rewire(g, c, seed=11)
        log = rewired_log(rw)
        for v, h in zip(g.visits, assigned_names(rw)):
            if h is not None:
                continue
            bubble = c.location_bubble[v.location]
            members = [p for p in c.hcp_bubble
                       if c.hcp_bubble[p] == bubble
                       and g.hcps.types[p] == g.hcps.types[v.hcp]]
            for p in members:
                overlaps = [u for u in log.visits if u.hcp == p
                            and u.start_s < v.end_s and v.start_s < u.end_s]
                assert overlaps, f"{p} was free during a dropped visit"


class TestBruteForceReplay:
    @settings(max_examples=300, deadline=None)
    @given(small_logs(), st.integers(0, 2**16))
    def test_each_pick_is_free_and_drops_have_no_candidate(self, log, seed):
        # every pick is the scalar walk's; then replay in graph order: an HCP is busy
        # over its pinned intervals and the visits it has already been given, each
        # checked pair by pair
        g, c, keep = log
        rw = rewire(g, c, seed=seed, keep_same_bubble_hcp=keep)
        names = assigned_names(rw)
        assert names == scalar_rewire(g, c, seed, keep_same_bubble_hcp=keep)
        assert_assigned_column(rw, keep)
        pinned = pinned_visits(g, c, keep)
        busy = [(v.hcp, v) for v, pin in zip(g.visits, pinned) if pin]
        for v, pin, got in zip(g.visits, pinned, names):
            if pin:
                assert got == v.hcp
                continue
            free = {p for p in g.hcps.members(g.hcps.types[v.hcp])
                    if c.hcp_bubble[p] == c.location_bubble[v.location]
                    and not any(h == p and u.start_s < v.end_s and v.start_s < u.end_s
                                for h, u in busy)}
            assert (got is None) == (not free)
            if got is not None:
                assert got in free
                busy.append((got, v))


# the acceptance LTCF facility, and the same facility with a second nurse group
ORACLE_FACILITIES = {
    "ltcf": FACILITIES["ltcf"],
    "ltcf_two_groups": replace(FACILITIES["ltcf"], hcp_groups=(("n", 12), ("a", 6))),
}


@functools.lru_cache(maxsize=None)
def oracle_graph(name: str):
    spec = ORACLE_FACILITIES[name]
    return generate_mobility(generate_facility(spec), spec)


class TestAgainstScalarWalk:
    """rewire against scalar_rewire, the walk over Visits with one rng.integers call per pick."""

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("name", list(ORACLE_FACILITIES))
    def test_facility_random_clusterings(self, name, k, keep):
        g = oracle_graph(name)
        for seed in range(4):
            c = random_clustering(g.hcps, g.locations.substitutable, k, seed=seed)
            rw = rewire(g, c, seed, keep_same_bubble_hcp=keep)
            assert assigned_names(rw) == scalar_rewire(g, c, seed, keep_same_bubble_hcp=keep)
            assert_assigned_column(rw, keep)

    def test_unpinned_hcp_single_candidate_and_drop(self):
        # a2 has no pinned interval, and is r1's only free candidate at 0, as a1 is in
        # the hall; at 10 it is busy too, so a2's own visit drops; r2's visit draws
        # between a3 and a4, in name order, not roster order, with the seed's first
        # draw, since a single candidate draws none
        g = make_graph([("a1", "hall", 0, 100), ("a3", "r1", 0, 60), ("a2", "r1", 10, 50),
                        ("a3", "r2", 100, 160)],
                       {"a4": "g", "a3": "g", "a2": "g", "a1": "g"},
                       {"r1": "s", "r2": "s", "hall": "ns"})
        c = BubbleClustering(k=2, location_bubble={"r1": 1, "r2": 2},
                             hcp_bubble={"a1": 1, "a2": 1, "a3": 2, "a4": 2})
        last = set()
        for seed in range(20):
            rw = rewire(g, c, seed)
            assert_assigned_column(rw, keep=False)
            got = assigned_names(rw)
            assert got == scalar_rewire(g, c, seed)
            assert got[:3] == ("a2", "a1", None)
            assert got[3] == ("a3", "a4")[np.random.default_rng(seed).integers(2)]
            last.add(got[3])
        assert last == {"a3", "a4"}


class CountingGenerator:
    """A Generator that counts its integers calls."""

    def __init__(self, seed: int):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


class TestReplayedDraws:
    """ReplayedDraws(rng, block).integers(n) against numpy's rng.integers(n).

    This is what fails first if a numpy release changes how Generator.integers
    draws, and with it every rewiring.
    """

    @staticmethod
    def check(ns: list[int], seed: int, block: int) -> int:
        rng = CountingGenerator(seed)
        draws = ReplayedDraws(rng, block)
        want = np.random.default_rng(seed)
        assert [draws.integers(n) for n in ns] == [int(want.integers(n)) for n in ns]
        return rng.calls

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_bounds(self, seed):
        ns = [int(n) for n in np.random.default_rng(100 + seed).integers(1, 13, size=500)]
        assert ns.count(1) > 0
        assert self.check(ns, seed, block=len(ns)) == 1

    def test_single_choice_draws_nothing(self):
        assert self.check([1] * 50 + [3], seed=4, block=8) == 1

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rejections_extend_the_block(self, seed):
        # n = 2**31 + 1 rejects about half of the raw draws, so one block of
        # one raw draw per pick runs out
        ns = [2**31 + 1] * 200 + [2, 5, 1, 7]
        assert self.check(ns, seed, block=len(ns)) > 1

    def test_small_blocks(self):
        ns = [int(n) for n in np.random.default_rng(7).integers(1, 40, size=300)]
        assert self.check(ns, seed=9, block=1) > 200
        assert self.check(ns, seed=9, block=7) > 20

    def test_largest_bound(self):
        self.check([2**32, 2**32 - 1, 2**32, 3], seed=5, block=2)


class TestConservation:
    def test_met_plus_unmet_equals_demand(self):
        g = golden_graph()
        dist = flat_metric(["l1", "l2", "l3", "l4"])
        for seed in range(5):
            rw = rewire(g, golden_clustering(), seed=seed)
            rep = compute_costs(rw, dist)
            base = compute_loads_demands(g).demands
            met = compute_loads_demands(rewired_log(rw)).demands
            for l in ("l1", "l2", "l3", "l4"):
                assert met.get(l, 0.0) + rep.unmet_demand[l] == pytest.approx(base[l])


def brute_costs(rw, dist: DistanceMatrix) -> dict[str, dict]:
    """compute_costs recomputed from the two logs: each HCP's visits sorted by
    start, durations and distances summed, per day of the source log."""
    days = rw.source.day_count

    def tallies(g):
        hours = {h: 0.0 for h in g.hcps.ids}
        demand = {l: 0.0 for l in g.locations.ids}
        metres = {h: 0.0 for h in g.hcps.ids}
        for h in g.hcps.ids:
            mine = sorted((v for v in g.visits if v.hcp == h), key=lambda v: v.start_s)
            hours[h] = sum(v.duration_s for v in mine) / 3600 / days
            metres[h] = sum(dist.get(u.location, v.location)
                            for u, v in zip(mine, mine[1:])) / days
        for v in g.visits:
            demand[v.location] += v.duration_s / 3600 / days
        return hours, demand, metres

    (load_b, dem_b, fs_b), (load_r, dem_r, fs_r) = tallies(rw.source), tallies(rewired_log(rw))
    return {
        "excess_load": {h: max(0.0, load_r[h] - load_b[h]) for h in load_b},
        "unmet_demand": {l: max(0.0, dem_b[l] - dem_r[l]) for l in dem_b},
        "footsteps": fs_r,
        "excess_footsteps": {h: max(0.0, fs_r[h] - fs_b[h]) for h in fs_b},
    }


@st.composite
def small_metrics(draw) -> DistanceMatrix:
    locs = ("hall", "r1", "r2", "r3")
    d = {(a, a): 0.0 for a in locs}
    for i, a in enumerate(locs):
        for b in locs[i + 1:]:
            d[(a, b)] = d[(b, a)] = float(draw(st.integers(0, 60)))
    return DistanceMatrix(locations=locs, dist=d)


class TestCosts:
    def test_identity_rewiring_zero_cost(self):
        # one bubble with same-bubble visits kept: every visit stays with its HCP
        g = golden_graph()
        one = BubbleClustering(k=1, location_bubble=dict.fromkeys(g.locations.substitutable, 1),
                               hcp_bubble=dict.fromkeys(g.hcps.substitutable, 1))
        rw = rewire(g, one, seed=0, keep_same_bubble_hcp=True)
        assert assigned_names(rw) == tuple(v.hcp for v in g.visits)
        rep = compute_costs(rw, flat_metric(["l1", "l2", "l3", "l4"]))
        assert all(v == 0.0 for v in rep.excess_load.values())
        assert all(v == 0.0 for v in rep.unmet_demand.values())
        assert all(v == 0.0 for v in rep.excess_footsteps.values())

    def test_footsteps_from_transitions(self):
        # p1 stays in la at the base; rewiring hands it p2's later visit to lb, 12 m away
        dist = DistanceMatrix(locations=("la", "lb"),
                              dist={("la", "la"): 0.0, ("lb", "lb"): 0.0,
                                    ("la", "lb"): 12.0, ("lb", "la"): 12.0})
        base = make_graph([("p1", "la", 0, 60), ("p2", "lb", 120, 180)],
                          {"p1": "g1", "p2": "g1"}, {"la": "s", "lb": "s", "lc": "s"})
        c = BubbleClustering(k=2, location_bubble={"la": 1, "lb": 1, "lc": 2},
                             hcp_bubble={"p1": 1, "p2": 2})
        rw = rewire(base, c, seed=0)
        assert assigned_names(rw) == ("p1", "p1")
        rep = compute_costs(rw, dist)
        assert rep.footsteps["p1"] == pytest.approx(12.0)
        assert rep.excess_footsteps["p1"] == pytest.approx(12.0)

    @settings(max_examples=200, deadline=None)
    @given(small_logs(), small_metrics(), st.integers(0, 2**16))
    def test_matches_brute_force(self, log, dist, seed):
        g, c, keep = log
        rw = rewire(g, c, seed=seed, keep_same_bubble_hcp=keep)
        rep = compute_costs(rw, dist)
        want = brute_costs(rw, dist)
        for name, values in want.items():
            got = getattr(rep, name)
            assert list(got) == list(values)
            assert got == pytest.approx(values, rel=1e-12, abs=1e-12)

    def test_last_day_dropped_uses_source_days(self):
        # q1's only day-2 visit has no gb HCP in bubble 2, so the rewiring
        # spans one day; every figure is still per day of the two-day source
        rows = [("p1", "l1", 0, 3600), ("p1", "l2", 7200, 9000),
                ("q1", "l1", 3600, 7200), ("q1", "l2", 86400, 90000),
                ("p2", "l2", 0, 1800), ("p2", "hall", 3600, 5400)]
        g = make_graph(rows, {"p1": "ga", "q1": "gb", "p2": "ga"},
                       {"l1": "s", "l2": "s", "hall": "ns"})
        c = BubbleClustering(k=2, location_bubble={"l1": 1, "l2": 2},
                             hcp_bubble={"p1": 1, "q1": 1, "p2": 2})
        rw = rewire(g, c, seed=0)
        assert assigned_names(rw) == ("p2", "p1", "p2", "q1", "p2", None)
        assert (rw.source.day_count, rewired_log(rw).day_count) == (2, 1)
        # simulating the rewiring spans the source's two days, as the experiment arms do
        cfg = SimConfig(disease=DiseaseParams(rho=0.0), replicates=1)
        assert rw.day_count == cfg.horizon(rw.source) == 2
        assert simulate(rw, None, cfg).config["horizon_days"] == 2
        d = {("l1", "l2"): 10.0, ("l1", "hall"): 4.0, ("l2", "hall"): 6.0}
        d.update({(b, a): x for (a, b), x in list(d.items())})
        d.update({(l, l): 0.0 for l in ("l1", "l2", "hall")})
        rep = compute_costs(rw, DistanceMatrix(locations=("hall", "l1", "l2"), dist=d))
        # hours: base p1 1.5, q1 2, p2 1; rewired p1 1, q1 1, p2 1.5
        assert rep.excess_load == {"p1": 0.0, "q1": 0.0, "p2": 0.25}
        # l2 loses q1's hour on day 2
        assert rep.unmet_demand == {"l1": 0.0, "l2": 0.5, "hall": 0.0}
        # rewired p2 walks l2 -> hall -> l2 (12 m); at the base it walked l2 -> hall (6 m)
        assert rep.footsteps == {"p1": 0.0, "q1": 0.0, "p2": 6.0}
        assert rep.excess_footsteps == {"p1": 0.0, "q1": 0.0, "p2": 3.0}

    def test_bubble_diameters_reported(self):
        g = golden_graph()
        rw = rewire(g, golden_clustering(), seed=0)
        rep = compute_costs(rw, flat_metric(["l1", "l2", "l3", "l4"], d=7.5))
        assert rep.bubble_diameters == {1: 7.5, 2: 7.5}

    def test_csv_export(self, tmp_path):
        g = golden_graph()
        rw = rewire(g, golden_clustering(), seed=0)
        rep = compute_costs(rw, flat_metric(["l1", "l2", "l3", "l4"]))
        write_cost_csv(rep, tmp_path / "hcp.csv", tmp_path / "loc.csv")
        hcp_lines = (tmp_path / "hcp.csv").read_text().splitlines()
        assert hcp_lines[0].startswith("hcp_id,")
        assert len(hcp_lines) == 1 + len(g.hcps.ids)


class TestRandomClustering:
    def test_balanced_sizes(self):
        hcps = HcpRoster({f"p{i}": "g1" for i in range(7)})
        locs = tuple(f"l{i}" for i in range(6))
        c = random_clustering(hcps, locs, 3, seed=1)
        sizes = [sum(1 for b in c.location_bubble.values() if b == k)
                 for k in (1, 2, 3)]
        assert sizes == [2, 2, 2]
        hcp_sizes = [sum(1 for b in c.hcp_bubble.values() if b == k)
                     for k in (1, 2, 3)]
        assert sorted(hcp_sizes) == [2, 2, 3]

    def test_k_equals_n(self):
        hcps = HcpRoster({f"p{i}": "g1" for i in range(4)})
        locs = tuple(f"l{i}" for i in range(4))
        c = random_clustering(hcps, locs, 4, seed=0)
        assert sorted(c.location_bubble.values()) == [1, 2, 3, 4]

    def test_deterministic(self):
        hcps = HcpRoster({f"p{i}": "g1" for i in range(6)})
        locs = tuple(f"l{i}" for i in range(6))
        assert random_clustering(hcps, locs, 2, seed=9) == \
            random_clustering(hcps, locs, 2, seed=9)

    def test_invalid_k(self):
        hcps = HcpRoster({"p1": "g1"})
        with pytest.raises(InvalidKError):
            random_clustering(hcps, ("l1", "l2"), 2, seed=0)

    def test_uniformity_over_seeds(self):
        # every balanced bipartition of 4 locations should appear
        hcps = HcpRoster({f"p{i}": "g1" for i in range(2)})
        locs = ("l1", "l2", "l3", "l4")
        seen = set()
        for seed in range(60):
            c = random_clustering(hcps, locs, 2, seed=seed)
            partner = next(l for l in locs[1:]
                           if c.location_bubble[l] == c.location_bubble["l1"])
            seen.add(partner)
        assert seen == {"l2", "l3", "l4"}
