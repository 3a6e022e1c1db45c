"""Spatial layer: walking graph, location mapping, shortest-path metric."""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import DisconnectedError, ParseError, is_number


@dataclass(frozen=True)
class SpatialGraph:
    """Undirected weighted walking graph with a location -> node mapping."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    location_map: dict[str, str]

    def adjacency(self) -> dict[str, list[tuple[str, float]]]:
        adj: dict[str, list[tuple[str, float]]] = {n: [] for n in self.nodes}
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric location-to-location walking distances in meters."""

    locations: tuple[str, ...]
    dist: dict[tuple[str, str], float]

    def get(self, a: str, b: str) -> float:
        return self.dist[(a, b)]


def load_spatial_graph(path: str | Path) -> SpatialGraph:
    """Parse the spatial JSON: {nodes, edges: [[u,v,length_m]], location_map}."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected a JSON object")
    for key in ("nodes", "edges", "location_map"):
        if key not in raw:
            raise ParseError(f"{path}: missing key {key!r}")
    try:
        nodes = tuple(str(n) for n in raw["nodes"])
        if len(set(nodes)) != len(nodes):
            raise ParseError(f"{path}: duplicate nodes")
        node_set = set(nodes)
        edges = []
        for e in raw["edges"]:
            if len(e) != 3:
                raise ParseError(f"{path}: edge must be [u, v, length_m]: {e}")
            if not is_number(e[2]):
                raise ParseError(f"{path}: edge length must be a number: {e}")
            u, v, w = str(e[0]), str(e[1]), float(e[2])
            if u not in node_set or v not in node_set:
                raise ParseError(f"{path}: edge references unknown node: {e}")
            if not math.isfinite(w) or w <= 0:
                raise ParseError(f"{path}: edge length must be finite and positive: {e}")
            edges.append((u, v, w))
        location_map = {str(k): str(v) for k, v in raw["location_map"].items()}
        for loc, node in location_map.items():
            if node not in node_set:
                raise ParseError(f"{path}: location {loc!r} mapped to unknown node {node!r}")
    except (TypeError, ValueError, KeyError, AttributeError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    g = SpatialGraph(nodes, tuple(edges), location_map)
    _check_connected(g)
    return g


def _check_connected(g: SpatialGraph) -> None:
    """All mapped locations must be mutually reachable."""
    if not g.location_map:
        return
    adj = g.adjacency()
    first = next(iter(sorted(g.location_map)))
    seen = _dijkstra(adj, g.location_map[first])
    for loc in sorted(g.location_map):
        if g.location_map[loc] not in seen:
            raise DisconnectedError(f"location {loc!r} is unreachable from {first!r}")


def save_spatial_graph(g: SpatialGraph, path: str | Path) -> None:
    payload = {
        "nodes": list(g.nodes),
        "edges": [[u, v, w] for u, v, w in g.edges],
        "location_map": dict(g.location_map),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _dijkstra(adj: dict[str, list[tuple[str, float]]], source: str) -> dict[str, float]:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def shortest_path_metric(g: SpatialGraph, locations: Iterable[str] | None = None) -> DistanceMatrix:
    """Walking distance between every pair of mapped locations.

    Locations sharing a node get distance 0. Raises DisconnectedError when a
    pair is unreachable, ParseError when a location is unmapped.
    """
    locs = tuple(locations) if locations is not None else tuple(g.location_map)
    for loc in locs:
        if loc not in g.location_map:
            raise ParseError(f"location {loc!r} missing from location_map")
    adj = g.adjacency()
    by_node: dict[str, list[str]] = {}
    for loc in locs:
        by_node.setdefault(g.location_map[loc], []).append(loc)
    dist: dict[tuple[str, str], float] = {}
    for node, node_locs in by_node.items():
        reach = _dijkstra(adj, node)
        for other_node, other_locs in by_node.items():
            if other_node not in reach:
                raise DisconnectedError(
                    f"no path between mapped nodes {node!r} and {other_node!r}"
                )
            for a in node_locs:
                for b in other_locs:
                    dist[(a, b)] = reach[other_node]
    for a in locs:
        dist[(a, a)] = 0.0
    return DistanceMatrix(locations=locs, dist=dist)
