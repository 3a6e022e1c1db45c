from __future__ import annotations

import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corn.errors import ConfigError, TooLargeError
from corn.model import NS_TYPE
from corn.weights import (
    HCP_SCOPES,
    enumerate_directed_weight,
    weight_matrix,
    write_weight_csv,
    z_from_rho,
)

from .conftest import chop_graph, make_graph, two_room_graph
from .oracles import mc_directed_weight, scalar_weights


def random_pair_graph(rng: np.random.Generator, max_hcps: int = 4, max_intervals: int = 6):
    """A chopped two-location instance with random visit sequences."""
    n_hcps = int(rng.integers(1, max_hcps + 1))
    rows = []
    t = 0
    for i in range(n_hcps):
        for _ in range(int(rng.integers(1, max_intervals + 1))):
            loc = "la" if rng.random() < 0.5 else "lb"
            rows.append((f"p{i + 1}", loc, t, t + 60))
            t += 60
    return two_room_graph(rows, n_hcps=n_hcps)


def both_ways(oracle, g, *args) -> float:
    """An oracle's mean over the two directions, the quantity weight_matrix gives."""
    return (oracle(g, "la", "lb", *args) + oracle(g, "lb", "la", *args)) / 2.0


def pair_weight(g, z: float) -> float:
    return weight_matrix(g, z, 60).get("la", "lb")


class TestDirectedWeight:
    def test_one_then_two(self):
        g = two_room_graph([("p1", "la", 0, 60), ("p1", "lb", 60, 120),
                            ("p1", "lb", 120, 180)])
        assert enumerate_directed_weight(g, "la", "lb", 0.5) == pytest.approx(0.375, abs=1e-12)
        assert enumerate_directed_weight(g, "lb", "la", 0.5) == 0.0
        assert pair_weight(g, 0.5) == pytest.approx(
            both_ways(enumerate_directed_weight, g, 0.5), abs=1e-12)

    def test_two_independent_hcps(self):
        # each contributes Pr = 0.25 from la to lb, so 1 - 0.75^2
        rows = [("p1", "la", 0, 60), ("p1", "lb", 60, 120),
                ("p2", "la", 120, 180), ("p2", "lb", 180, 240)]
        g = two_room_graph(rows, n_hcps=2)
        assert enumerate_directed_weight(g, "la", "lb", 0.5) == pytest.approx(0.4375, abs=1e-12)
        assert pair_weight(g, 0.5) == pytest.approx(
            both_ways(enumerate_directed_weight, g, 0.5), abs=1e-12)

    def test_z_zero(self):
        g = two_room_graph([("p1", "la", 0, 60), ("p1", "lb", 60, 120)])
        assert pair_weight(g, 0.0) == 0.0

    def test_matches_enumeration_on_randoms(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            g = random_pair_graph(rng)
            z = float(rng.uniform(0.05, 0.95))
            want = both_ways(enumerate_directed_weight, g, z)
            assert pair_weight(g, z) == pytest.approx(want, abs=1e-12)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(7)
        samples = 200_000
        for i in range(10):
            g = random_pair_graph(rng)
            z = float(rng.uniform(0.1, 0.9))
            exact = pair_weight(g, z)
            ab = mc_directed_weight(g, "la", "lb", z, samples, seed=i)
            ba = mc_directed_weight(g, "lb", "la", z, samples, seed=i)
            # both directions share the seed, so their errors may correlate:
            # the se of the mean is at most the mean of the two se
            se = max((math.sqrt(ab * (1 - ab) / samples)
                      + math.sqrt(ba * (1 - ba) / samples)) / 2, 1e-9)
            assert abs((ab + ba) / 2 - exact) <= 4 * se + 1e-12

    @given(st.integers(0, 2 ** 31), st.floats(0.01, 0.5), st.floats(0.0, 0.49))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_z(self, seed, z, dz):
        g = random_pair_graph(np.random.default_rng(seed))
        assert pair_weight(g, z + dz) >= pair_weight(g, z) - 1e-12


class TestMonteCarloOracle:
    def test_z_zero_exact(self):
        g = two_room_graph([("p1", "la", 0, 60), ("p1", "lb", 60, 120)])
        assert mc_directed_weight(g, "la", "lb", 0.0, 1000, seed=1) == 0.0

    def test_z_one_deterministic(self):
        g = two_room_graph([("p1", "la", 0, 60), ("p1", "lb", 60, 120)])
        assert mc_directed_weight(g, "la", "lb", 1.0, 1000, seed=1) == 1.0

    def test_enumeration_guard(self):
        rows = [("p1", "la" if i % 2 == 0 else "lb", i * 60, (i + 1) * 60)
                for i in range(21)]
        g = two_room_graph(rows)
        with pytest.raises(TooLargeError):
            enumerate_directed_weight(g, "la", "lb", 0.5)


class TestWeightMatrix:
    def test_single_direction_average(self):
        g = two_room_graph([("p1", "la", 0, 60), ("p1", "lb", 60, 120)])
        wm = weight_matrix(g, 0.5, 60)
        assert wm.get("la", "lb") == pytest.approx(0.125, abs=1e-12)
        assert wm.get("lb", "la") == pytest.approx(0.125, abs=1e-12)

    def test_no_common_hcp(self):
        g = make_graph([("p1", "la", 0, 60), ("p2", "lb", 60, 120)],
                       {"p1": "g1", "p2": "g1"}, {"la": "s", "lb": "s"})
        wm = weight_matrix(g, 0.5, 60)
        assert wm.get("la", "lb") == 0.0
        assert wm.nonzero_pairs() == []

    def test_restricted_to_substitutable(self):
        g = make_graph([("p1", "la", 0, 60), ("p1", "lx", 60, 120)],
                       {"p1": "g1"}, {"la": "s", "lx": "ns"})
        wm = weight_matrix(g, 0.5, 60)
        assert wm.locations == ("la",)

    def test_chops_internally(self):
        # long visits count once per unit interval, as the chopped log does
        g = two_room_graph([("p1", "la", 0, 600), ("p1", "lb", 600, 1200)])
        want = both_ways(enumerate_directed_weight, chop_graph(g, 60), 0.1)
        assert pair_weight(g, 0.1) == pytest.approx(want, abs=1e-12)

    def test_hcps_combine_in_order_of_first_fragment(self):
        # h1's and h2's first fragments tie at [60, 120); taking h2 first, as the
        # unchopped log lists it, moves the last bits of the product over HCPs
        rows = [("h0", "lb", 0, 60), ("h0", "la", 60, 180), ("h1", "lb", 60, 240),
                ("h1", "la", 300, 420), ("h2", "lb", 60, 120), ("h2", "la", 120, 300)]
        g = make_graph(rows, {"h0": "g1", "h1": "g1", "h2": "g1"}, {"la": "s", "lb": "s"})
        assert weight_matrix(g, 0.1, 60).w == weight_matrix(chop_graph(g, 60), 0.1, 60).w

    def test_checks_in_order(self):
        g = two_room_graph([("p1", "la", 0, 60), ("p1", "lb", 60, 120)])
        for z, unit, scope, message in ((2.0, 0, "bad", "z must"), (0.5, 0, "bad", "unit_s"),
                                        (0.5, -60, "all", "unit_s"), (0.5, 60, "bad", "hcp_scope")):
            with pytest.raises(ConfigError, match=message):
                weight_matrix(g, z, unit, hcp_scope=scope)

    def test_ns_only_scope(self):
        rows = [("p1", "la", 0, 60), ("p1", "lb", 60, 120),
                ("q1", "la", 120, 180), ("q1", "lb", 180, 240)]
        g = make_graph(rows, {"p1": "g1", "q1": "ns"}, {"la": "s", "lb": "s"})
        all_w = weight_matrix(g, 0.5, 60, hcp_scope="all")
        ns_w = weight_matrix(g, 0.5, 60, hcp_scope="ns_only")
        assert ns_w.get("la", "lb") < all_w.get("la", "lb")
        assert ns_w.get("la", "lb") == pytest.approx(0.125, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_pair_graph(rng)
            wm = weight_matrix(g, float(rng.uniform(0, 1)), 60)
            for (a, b), w in wm.w.items():
                assert a < b
                assert 0.0 <= w <= 1.0
                assert wm.get(a, b) == wm.get(b, a)

    def test_csv_roundtrip(self, tmp_path):
        g = two_room_graph([("p1", "la", 0, 60), ("p1", "lb", 60, 120)])
        wm = weight_matrix(g, 0.5, 60)
        write_weight_csv(wm, tmp_path / "w.csv")
        with (tmp_path / "w.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["loc_a", "loc_b", "weight"]
        assert {(a, b): float(w) for a, b, w in rows[1:]} == wm.w

    @pytest.mark.parametrize("z", [2.0, -0.1, z_from_rho(math.nan, 60), "0.5", None, True])
    def test_z_out_of_range_rejected(self, z):
        g = two_room_graph([("p1", "la", 0, 60), ("p1", "lb", 60, 120)])
        with pytest.raises(ConfigError, match="z must"):
            weight_matrix(g, z, 60)

    @pytest.mark.parametrize("unit", [60.0, True, "60"])
    def test_unit_not_an_integer_rejected(self, unit):
        g = two_room_graph([("p1", "la", 0, 60), ("p1", "lb", 60, 120)])
        with pytest.raises(ConfigError, match="unit_s"):
            weight_matrix(g, 0.5, unit)


def random_log(rng: np.random.Generator, unit: int):
    """A log whose weights exercise every branch of weight_matrix's per-HCP pass.

    Zero to five rooms and two non-substitutable locations; substitutable
    and non-substitutable HCPs (possibly none of the latter, so that scope
    ns_only is empty) whose visits interleave across rooms and HCPs. Visit
    lengths leave chop remainders below, at and above half a unit, and one
    HCP often has more than eight intervals in a room, past which np.sum
    would add them pairwise. Some visits repeat an earlier visit's interval
    in another room, as no validated log would, so one HCP has equal
    intervals in two rooms.
    """
    rooms = [f"r{i}" for i in range(int(rng.integers(0, 6)))]
    locs = {r: "s" for r in rooms} | {"hall": "ns", "desk": "ns"}
    hcps = {f"n{i}": "g" for i in range(int(rng.integers(1, 5)))}
    hcps |= {f"x{i}": NS_TYPE for i in range(int(rng.integers(0, 3)))}
    lengths = [1, unit // 2 - 1, unit // 2, unit - 1, unit, unit + 1, unit + unit // 2 - 1,
               unit + unit // 2, 2 * unit + unit // 2 + 1, 3 * unit, 6 * unit + unit // 3]
    rows = []
    for h in hcps:
        t = int(rng.integers(0, 3 * unit))
        for _ in range(int(rng.integers(0, 13))):
            loc = str(rng.choice(sorted(locs)))
            length = max(1, lengths[int(rng.integers(len(lengths)))])
            rows.append((h, loc, t, t + length))
            if rng.random() < 0.15:
                rows.append((h, str(rng.choice(sorted(locs))), t, t + length))
            t += length + int(rng.choice([0, 0, unit // 3, unit]))
    return make_graph(rows, hcps, locs)


def same_bits(g, z, unit, scope) -> bool:
    """weight_matrix equals the scalar oracle: keys, key order and every float's bits."""
    got = weight_matrix(g, z, unit, hcp_scope=scope).w
    want = scalar_weights(g, z, unit, scope)
    return [(k, float(v).hex()) for k, v in got.items()] == \
        [(k, float(v).hex()) for k, v in want.items()]


class TestAgainstScalarOracle:
    """weight_matrix against scalar_weights, the per-pair, per-HCP loop it replaced."""

    def test_random_logs(self):
        rng = np.random.default_rng(2024)
        for case in range(300):
            unit = int(rng.choice([7, 45, 60, 100]))
            g = random_log(rng, unit)
            z = (0.0, 1.0, float(rng.random()), float(rng.uniform(0, 0.01)))[case % 4]
            for scope in HCP_SCOPES:
                assert same_bits(g, z, unit, scope), (case, unit, z, scope, g.visits)

    def test_unit_longer_than_every_visit(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_log(rng, 60)
            assert same_bits(g, float(rng.random()), 10**6, "all")

    def test_equal_intervals_in_two_rooms(self):
        # not a valid log: h1 is in la and lb over the same two intervals, so
        # the tie in (start, end) goes to the room that sorts first
        rows = [("h1", "la", 0, 60), ("h1", "lb", 0, 60), ("h1", "lb", 60, 150),
                ("h1", "la", 60, 150), ("h2", "lb", 30, 90), ("h2", "la", 90, 150),
                ("h3", "la", 0, 60), ("h3", "lb", 0, 60), ("h3", "lc", 0, 60)]
        g = make_graph(rows, {"h1": "g", "h2": "g", "h3": "g"},
                       {"la": "s", "lb": "s", "lc": "s"})
        for z in (0.0, 0.3, 1.0):
            assert same_bits(g, z, 60, "all")
        assert weight_matrix(g, 0.3, 60).get("la", "lb") > 0.0

    @pytest.mark.parametrize("rooms", [0, 1])
    def test_fewer_than_two_rooms(self, rooms):
        locs = {f"r{i}": "s" for i in range(rooms)} | {"hall": "ns"}
        rows = [("h1", loc, 60 * i, 60 * i + 90) for i, loc in enumerate(sorted(locs))]
        g = make_graph(rows, {"h1": "g"}, locs)
        assert weight_matrix(g, 0.5, 60).w == {}
        assert same_bits(g, 0.5, 60, "all")

    def test_empty_scope(self):
        g = two_room_graph([("p1", "la", 0, 60), ("p1", "lb", 60, 120)])
        assert weight_matrix(g, 0.5, 60, hcp_scope="ns_only").w == {("la", "lb"): 0.0}
        assert same_bits(g, 0.5, 60, "ns_only")


class TestZFromRho:
    def test_unit_minute(self):
        assert z_from_rho(0.001, 60) == pytest.approx(0.001)

    def test_scales_with_unit(self):
        assert z_from_rho(0.001, 120) == pytest.approx(0.002)
        assert z_from_rho(0.001, 30) == pytest.approx(0.0005)
