from __future__ import annotations

import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corn.errors import ConfigError, TooLargeError
from corn.weights import (
    enumerate_directed_weight,
    weight_matrix,
    write_weight_csv,
    z_from_rho,
)

from .conftest import chop_graph, make_graph, two_room_graph
from .oracles import mc_directed_weight


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

    @pytest.mark.parametrize("z", [2.0, -0.1, z_from_rho(math.nan, 60)])
    def test_z_out_of_range_rejected(self, z):
        g = two_room_graph([("p1", "la", 0, 60), ("p1", "lb", 60, 120)])
        with pytest.raises(ConfigError):
            weight_matrix(g, z, 60)


class TestZFromRho:
    def test_unit_minute(self):
        assert z_from_rho(0.001, 60) == pytest.approx(0.001)

    def test_scales_with_unit(self):
        assert z_from_rho(0.001, 120) == pytest.approx(0.002)
        assert z_from_rho(0.001, 30) == pytest.approx(0.0005)
