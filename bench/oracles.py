"""Independent checks for the benchmark's outputs.

Nothing here calls the code under test. The partition MILP is solved by
HiGHS (Huangfu & Hall 2018) through scipy.optimize.milp; the feasibility
and cut checks, the chopping rule and the Monte Carlo transmission
process are written from the model's definitions, apart from
corn.optimizer.verify_clustering, corn.model.chop_intervals and
corn.weights. test_oracles.py checks each of them against the program's
brute-force and enumeration references on tiny inputs.

Inputs are plain Python values so that a fault in corn's data types
cannot leak into the oracle:

  rooms       tuple of substitutable location ids
  weights     {(a, b): w} over unordered pairs, a < b
  groups      {label: tuple of member HCP ids}
  dist        {(a, b): meters} for every ordered pair, or None
  demands     {room: hours/day}; loads {hcp: hours/day}
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

_TOL = 1e-9


def cut(location_bubble: dict[str, int], weights: dict) -> float:
    """Total weight of pairs whose rooms sit in different bubbles."""
    return math.fsum(
        w for (a, b), w in weights.items()
        if location_bubble[a] != location_bubble[b]
    )


def partition_problems(
    location_bubble: dict[str, int],
    hcp_bubble: dict[str, int],
    k: int,
    rooms: tuple[str, ...],
    groups: dict[str, tuple[str, ...]],
    dist: dict | None = None,
    d_star: float = math.inf,
    demands: dict | None = None,
    loads: dict | None = None,
    y_star: float = math.inf,
) -> list[str]:
    """Every rule of the partition model that the given assignment breaks."""
    out: list[str] = []
    if set(location_bubble) != set(rooms):
        out.append("rooms covered differ from the substitutable rooms")
        return out
    members = {b: [r for r in rooms if location_bubble[r] == b] for b in range(1, k + 1)}
    if any(not 1 <= b <= k for b in location_bubble.values()):
        out.append("a room is assigned outside bubbles 1..k")
    lo, hi = len(rooms) // k, -(-len(rooms) // k)
    for b, rs in members.items():
        if not rs or not lo <= len(rs) <= hi:
            out.append(f"bubble {b} holds {len(rs)} rooms, outside [{max(lo, 1)}, {hi}]")
    staff = {p for ps in groups.values() for p in ps}
    if set(hcp_bubble) != staff:
        out.append("HCPs covered differ from the substitutable HCPs")
        return out
    for label, ps in groups.items():
        glo, ghi = len(ps) // k, -(-len(ps) // k)
        for b in range(1, k + 1):
            n = sum(1 for p in ps if hcp_bubble[p] == b)
            if not glo <= n <= ghi:
                out.append(f"group {label} has {n} HCPs in bubble {b}, outside [{glo}, {ghi}]")
    if math.isfinite(d_star):
        for b, rs in members.items():
            for i, r in enumerate(rs):
                for s in rs[i + 1:]:
                    if dist[(r, s)] > d_star + _TOL:
                        out.append(f"bubble {b}: {r}-{s} is {dist[(r, s)]} m > {d_star} m")
    if math.isfinite(y_star):
        for b, rs in members.items():
            need = math.fsum(demands[r] for r in rs)
            for label, ps in groups.items():
                have = math.fsum(loads[p] for p in ps if hcp_bubble[p] == b)
                if need - have > y_star + _TOL:
                    out.append(f"bubble {b} group {label}: load gap {need - have} h > {y_star} h")
    return out


def partition_milp(
    rooms: tuple[str, ...],
    weights: dict,
    k: int,
    groups: dict[str, tuple[str, ...]],
    dist: dict | None = None,
    d_star: float = math.inf,
    demands: dict | None = None,
    loads: dict | None = None,
    y_star: float = math.inf,
) -> float | None:
    """Optimal cut of the balanced partition problem by HiGHS, or None if
    infeasible.

    Variables: e_ab (pair split, positive weight only), x_rk (room in
    bubble k), z_pk (HCP in bubble k). Bubble sizes have both the floor
    and the ceiling row, which is what makes every bubble non-empty.
    Rooms are ordered by incident weight and room i may only use bubbles
    1..i+1; every partition has exactly one such labelling, so the
    optimum is unchanged and the order does not depend on room names.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    incident = {r: 0.0 for r in rooms}
    for (a, b), w in weights.items():
        incident[a] += w
        incident[b] += w
    order = sorted(rooms, key=lambda r: (-incident[r], r))
    pos = {r: i for i, r in enumerate(order)}
    n = len(order)
    pairs = sorted(
        ((pos[a], pos[b], w) if pos[a] < pos[b] else (pos[b], pos[a], w))
        for (a, b), w in weights.items() if w > 0.0
    )
    staff = [p for ps in groups.values() for p in ps]
    zpos = {p: i for i, p in enumerate(staff)}
    ne, nx = len(pairs), n * k
    nv = ne + nx + len(staff) * k

    def x(i: int, b: int) -> int:
        return ne + i * k + b

    def z(p: str, b: int) -> int:
        return ne + nx + zpos[p] * k + b

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lo: list[float] = []
    hi: list[float] = []

    def row(coeffs: list[tuple[int, float]], low: float, high: float) -> None:
        r = len(lo)
        for c, v in coeffs:
            rows.append(r)
            cols.append(c)
            vals.append(v)
        lo.append(low)
        hi.append(high)

    for t, (i, j, _) in enumerate(pairs):
        for b in range(k):
            row([(t, 1.0), (x(i, b), -1.0), (x(j, b), 1.0)], 0.0, np.inf)
            row([(t, 1.0), (x(i, b), 1.0), (x(j, b), -1.0)], 0.0, np.inf)
    for i in range(n):
        row([(x(i, b), 1.0) for b in range(k)], 1.0, 1.0)
    for b in range(k):
        row([(x(i, b), 1.0) for i in range(n)], n // k, -(-n // k))
    if math.isfinite(d_star):
        for i in range(n):
            for j in range(i + 1, n):
                if dist[(order[i], order[j])] > d_star + _TOL:
                    for b in range(k):
                        row([(x(i, b), 1.0), (x(j, b), 1.0)], -np.inf, 1.0)
    for label, ps in groups.items():
        for p in ps:
            row([(z(p, b), 1.0) for b in range(k)], 1.0, 1.0)
        for b in range(k):
            row([(z(p, b), 1.0) for p in ps], len(ps) // k, -(-len(ps) // k))
        if math.isfinite(y_star):
            for b in range(k):
                row([(x(i, b), demands[order[i]]) for i in range(n)]
                    + [(z(p, b), -loads[p]) for p in ps], -np.inf, y_star)

    c = np.zeros(nv)
    c[:ne] = [w for _, _, w in pairs]
    upper = np.ones(nv)
    for i in range(n):
        for b in range(i + 1, k):
            upper[x(i, b)] = 0.0
    a = coo_matrix((vals, (rows, cols)), shape=(len(lo), nv)).tocsr()
    res = milp(c, constraints=LinearConstraint(a, lo, hi), integrality=np.ones(nv),
               bounds=Bounds(np.zeros(nv), upper))
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return float(res.fun)


def random_balanced_partition(rooms: tuple[str, ...], k: int,
                              rng: np.random.Generator) -> dict[str, int]:
    """A uniformly shuffled split of the rooms into k sizes that differ by at most one."""
    order = [rooms[i] for i in rng.permutation(len(rooms))]
    return {r: i % k + 1 for i, r in enumerate(order)}


def chop(visits: list[tuple[str, str, int, int]], unit_s: int) -> list[tuple[str, str, int, int]]:
    """Cut (hcp, location, start, end) visits into unit-length pieces.

    A visit no longer than the unit stays whole. Otherwise a trailing piece
    shorter than half a unit joins the piece before it, and one of at least
    half a unit stands alone.
    """
    out = []
    for h, loc, s, e in visits:
        full, rest = divmod(e - s, unit_s)
        if e - s <= unit_s:
            out.append((h, loc, s, e))
            continue
        pieces = full + (1 if 2 * rest >= unit_s else 0)
        starts = [s + i * unit_s for i in range(pieces)]
        out.extend((h, loc, a, b) for a, b in zip(starts, starts[1:] + [e]))
    return out


def _reach_prob(events: list[tuple[int, int]], n_hcps: int, z: float, samples: int,
                rng: np.random.Generator) -> float:
    """Share of samples in which dst ends up infected.

    events are (side, hcp index) unit intervals in time order; side 0 is
    the infected source room, side 1 the destination. Each interval at the
    source infects the HCP with probability z, each interval of an
    infected HCP at the destination infects it with probability z.
    """
    carrier = np.zeros((n_hcps, samples), dtype=bool)
    hit = np.zeros(samples, dtype=bool)
    for side, h in events:
        coin = rng.random(samples) < z
        if side == 0:
            carrier[h] |= coin
        else:
            hit |= carrier[h] & coin
    return float(hit.mean())


def mc_pair_weight(
    visits: list[tuple[str, str, int, int]],
    a: str,
    b: str,
    z: float,
    samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of the symmetrised pair weight and its standard
    error, from already chopped and scope-filtered visits."""
    staff = sorted({h for h, loc, _, _ in visits if loc in (a, b)})
    idx = {h: i for i, h in enumerate(staff)}
    estimates = []
    for src, dst in ((a, b), (b, a)):
        events = [
            (0 if loc == src else 1, idx[h])
            for h, loc, s, _ in sorted(visits, key=lambda v: (v[2], v[0]))
            if loc in (src, dst)
        ]
        estimates.append(_reach_prob(events, len(staff), z, samples, rng))
    var = sum(max(p * (1.0 - p), 1e-12) / samples for p in estimates)
    return sum(estimates) / 2.0, math.sqrt(var) / 2.0


def read_weights(path: str | Path) -> dict[tuple[str, str], float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["loc_a", "loc_b", "weight"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return {(a, b) if a < b else (b, a): float(w) for a, b, w in rows[1:]}
