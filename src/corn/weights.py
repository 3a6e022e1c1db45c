"""Pairwise transmission weights between locations carried by shared HCPs.

The directed weight from src to dst is the probability that an infection
sitting at src reaches dst through at least one HCP, where every unit
interval an HCP spends at an infected location picks the infection up with
probability z and every unit interval an infected HCP spends at dst deposits
it with probability z. Pickup and deposit rounds are independent, so for one
HCP whose merged src/dst visit sequence is e_1..e_m,

    Pr[event] = sum over k with e_k at src of
                (1-z)^pre(k) * z * (1 - (1-z)^suf(k))

with pre(k) the number of earlier src intervals and suf(k) the number of
later dst intervals. HCP contributions combine as 1 - prod(1 - Pr).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, TooLargeError
from .model import VisitGraph, chop_points

HCP_SCOPES = ("all", "ns_only")


def z_from_rho(rho_per_min: float, unit_s: int) -> float:
    """Per-interval transmission probability at peak shedding."""
    return rho_per_min * (unit_s / 60.0)


def check_z(z: float) -> None:
    if not 0.0 <= z <= 1.0:
        raise ConfigError(f"z must be in [0, 1], got {z}")


def check_hcp_scope(hcp_scope: str) -> None:
    if hcp_scope not in HCP_SCOPES:
        raise ConfigError(f"hcp_scope must be one of {HCP_SCOPES}, got {hcp_scope!r}")


def _scope_hcps(g: VisitGraph, hcp_scope: str) -> set[str]:
    check_hcp_scope(hcp_scope)
    if hcp_scope == "ns_only":
        return set(g.hcps.non_substitutable)
    return set(g.hcps.ids)


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetrized weights over unordered location pairs (lexicographic keys)."""

    locations: tuple[str, ...]
    w: dict[tuple[str, str], float]

    def get(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        key = (a, b) if a < b else (b, a)
        return self.w.get(key, 0.0)

    def pairs(self):
        return sorted(self.w)

    def nonzero_pairs(self):
        return [p for p in sorted(self.w) if self.w[p] > 0.0]


def weight_matrix(
    g: VisitGraph,
    z: float,
    unit_s: int,
    hcp_scope: str = "all",
) -> WeightMatrix:
    """Average the two directed weights per pair over unit_s fragments of in-scope visits.

    Each pair's fragments are sorted before use, so they may be collected
    in any order; HCPs are multiplied in order of their first fragment.
    """
    check_z(z)
    if unit_s <= 0:
        raise ConfigError(f"unit_s must be positive, got {unit_s}")
    scope = _scope_hcps(g, hcp_scope)
    # index once: hcp -> location -> fragment intervals
    idx: dict[str, dict[str, list[tuple[int, int]]]] = {}
    for v in g.visits:
        if v.hcp in scope:
            cuts = chop_points(v.start_s, v.end_s, unit_s)
            idx.setdefault(v.hcp, {}).setdefault(v.location, []).extend(zip(cuts, cuts[1:]))
    locmaps = [idx[h] for h in sorted(idx, key=lambda h: (min(map(min, idx[h].values())), h))]
    out: dict[tuple[str, str], float] = {}
    order = sorted(g.locations.substitutable)
    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            miss_ab = 1.0
            miss_ba = 1.0
            for locmap in locmaps:
                if a not in locmap or b not in locmap:
                    continue
                seq = sorted(
                    [(s, e, 0) for s, e in locmap[a]] + [(s, e, 1) for s, e in locmap[b]]
                )
                total = [len(locmap[a]), len(locmap[b])]
                seen = [0, 0]
                pr = [0.0, 0.0]
                for _, _, side in seq:
                    other = 1 - side
                    suf = total[other] - seen[other]
                    pr[side] += (1.0 - z) ** seen[side] * z * (1.0 - (1.0 - z) ** suf)
                    seen[side] += 1
                miss_ab *= 1.0 - pr[0]
                miss_ba *= 1.0 - pr[1]
            out[(a, b)] = ((1.0 - miss_ab) + (1.0 - miss_ba)) / 2.0
    return WeightMatrix(locations=tuple(order), w=out)


def _event_sequence(g: VisitGraph, src: str, dst: str) -> list[tuple[int, str]]:
    """Global chronological (side, hcp) order of all src/dst intervals."""
    events = []
    for v in sorted(g.visits):
        if v.location == src:
            events.append((0, v.hcp))
        elif v.location == dst:
            events.append((1, v.hcp))
    return events


def enumerate_directed_weight(g: VisitGraph, src: str, dst: str, z: float) -> float:
    """Exact directed weight by enumerating every per-interval coin outcome.

    Simulates the physical process (src infected from the start, pickup and
    deposit both happen with probability z per interval) over all 2^m coin
    vectors; independent of the closed-form computation.
    """
    if src == dst:
        raise ConfigError("src and dst must differ")
    events = _event_sequence(g, src, dst)
    m = len(events)
    if m > 20:
        raise TooLargeError(f"{m} intervals exceeds the enumeration guard of 20")
    if m == 0:
        return 0.0
    n_out = 1 << m
    outcome = np.arange(n_out, dtype=np.uint32)
    hcps = sorted({h for _, h in events})
    hidx = {h: i for i, h in enumerate(hcps)}
    infected = np.zeros((n_out, len(hcps)), dtype=bool)
    dst_infected = np.zeros(n_out, dtype=bool)
    for k, (side, h) in enumerate(events):
        coin = (outcome >> k) & 1 == 1
        hi = hidx[h]
        if side == 0:
            infected[:, hi] |= coin
        else:
            pre_h = infected[:, hi].copy()
            pre_dst = dst_infected.copy()
            dst_infected |= pre_h & coin
            infected[:, hi] |= pre_dst & coin
    bits = np.zeros(n_out, dtype=np.int64)
    for k in range(m):
        bits += (outcome >> k) & 1
    probs = (z**bits) * ((1.0 - z) ** (m - bits))
    return float(probs[dst_infected].sum())


def write_weight_csv(wm: WeightMatrix, path: str | Path) -> None:
    """One row per unordered pair, lexicographic, including zeros."""
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["loc_a", "loc_b", "weight"])
        for a, b in wm.pairs():
            w.writerow([a, b, repr(wm.w[(a, b)])])

