from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corn.errors import DisconnectedError, ParseError
from corn.spatial import (
    SpatialGraph,
    load_spatial_graph,
    save_spatial_graph,
    shortest_path_metric,
)


def write_graph(tmp_path, nodes, edges, location_map):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"nodes": nodes, "edges": edges, "location_map": location_map}))
    return p


class TestLoading:
    def test_minimal_graph(self, tmp_path):
        p = write_graph(tmp_path, ["a", "b"], [["a", "b", 5.0]], {"la": "a", "lb": "b"})
        g = load_spatial_graph(p)
        assert g.location_map == {"la": "a", "lb": "b"}

    def test_unreachable_location(self, tmp_path):
        p = write_graph(tmp_path, ["a", "b", "c"], [["a", "b", 5.0]],
                        {"la": "a", "lc": "c"})
        with pytest.raises(DisconnectedError, match="lc"):
            load_spatial_graph(p)

    def test_zero_length_edge(self, tmp_path):
        p = write_graph(tmp_path, ["a", "b"], [["a", "b", 0.0]], {"la": "a"})
        with pytest.raises(ParseError):
            load_spatial_graph(p)

    @pytest.mark.parametrize("length", [True, "3.5", " 2 "])
    def test_length_must_be_a_number(self, tmp_path, length):
        p = write_graph(tmp_path, ["a", "b"], [["a", "b", length]], {"la": "a"})
        with pytest.raises(ParseError, match="edge length must be a number"):
            load_spatial_graph(p)

    def test_unknown_endpoint(self, tmp_path):
        p = write_graph(tmp_path, ["a"], [["a", "zz", 1.0]], {"la": "a"})
        with pytest.raises(ParseError):
            load_spatial_graph(p)

    def test_roundtrip(self, tmp_path):
        g = SpatialGraph(("a", "b", "c"), (("a", "b", 5.0), ("b", "c", 7.0)),
                         {"la": "a", "lc": "c"})
        save_spatial_graph(g, tmp_path / "out.json")
        g2 = load_spatial_graph(tmp_path / "out.json")
        assert g2 == g


class TestMetric:
    def test_path_sum(self):
        g = SpatialGraph(("a", "b", "c"), (("a", "b", 5.0), ("b", "c", 7.0)),
                         {"la": "a", "lb": "b", "lc": "c"})
        d = shortest_path_metric(g, ["la", "lb", "lc"])
        assert d.get("la", "lc") == pytest.approx(12.0)

    def test_triangle_shortcut(self):
        g = SpatialGraph(
            ("a", "b", "c"),
            (("a", "b", 3.0), ("b", "c", 4.0), ("a", "c", 10.0)),
            {"la": "a", "lc": "c"},
        )
        d = shortest_path_metric(g, ["la", "lc"])
        assert d.get("la", "lc") == pytest.approx(7.0)

    def test_same_node_locations(self):
        g = SpatialGraph(("a", "b"), (("a", "b", 2.0),), {"la": "a", "lb": "a"})
        d = shortest_path_metric(g, ["la", "lb"])
        assert d.get("la", "lb") == 0.0

    @given(st.integers(0, 2 ** 31), st.integers(3, 8))
    def test_relabeling_invariance(self, seed, n):
        import numpy as np

        rng = np.random.default_rng(seed)
        nodes = [f"n{i}" for i in range(n)]
        # random connected graph: a path plus a few extra edges
        edges = [(nodes[i], nodes[i + 1], float(rng.integers(1, 20))) for i in range(n - 1)]
        for _ in range(n // 2):
            i, j = rng.integers(0, n, 2)
            if i != j:
                edges.append((nodes[i], nodes[j], float(rng.integers(1, 20))))
        locmap = {f"l{i}": nodes[i] for i in range(n)}
        d1 = shortest_path_metric(SpatialGraph(tuple(nodes), tuple(edges), locmap),
                                  sorted(locmap))
        perm = list(rng.permutation(nodes))
        ren = dict(zip(nodes, perm))
        edges2 = tuple((ren[u], ren[v], w) for u, v, w in edges)
        locmap2 = {l: ren[v] for l, v in locmap.items()}
        d2 = shortest_path_metric(SpatialGraph(tuple(perm), edges2, locmap2),
                                  sorted(locmap2))
        for a in locmap:
            for b in locmap:
                assert d1.get(a, b) == pytest.approx(d2.get(a, b))

    def test_metric_axioms(self):
        g = SpatialGraph(
            ("a", "b", "c", "d"),
            (("a", "b", 1.0), ("b", "c", 2.5), ("c", "d", 1.5), ("a", "d", 9.0)),
            {f"l{n}": n for n in "abcd"},
        )
        locs = sorted(g.location_map)
        d = shortest_path_metric(g, locs)
        for x in locs:
            assert d.get(x, x) == 0.0
            for y in locs:
                assert d.get(x, y) == d.get(y, x)
                for z in locs:
                    assert d.get(x, z) <= d.get(x, y) + d.get(y, z) + 1e-9
