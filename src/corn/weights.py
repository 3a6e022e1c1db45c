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

weight_matrix makes one numpy pass per HCP. It chops the HCP's visits in
substitutable rooms into unit intervals (chop_points' rule) and sorts them
by (room, start, end), so pre(k) is an interval's rank in its room. suf(k)
for each other room comes from one searchsorted on that room's intervals.
The merged sequence of a pair puts the room that sorts first on side 0 and
orders ties in (start, end) by side, so an interval in the first room counts
the other room's intervals at or after it and one in the second room those
strictly after it. Three rules keep the result bit for bit that of the
scalar sum (tests/oracles.py scalar_weights):

- (1-z)^k comes from a table of Python's float pow, not numpy's power,
  whose vectorised code may round differently;
- each term is ((1-z)^pre * z) * (1 - (1-z)^suf), and a room's terms are
  added in interval order by a sequential cumsum, never by np.sum, whose
  pairwise summation groups them otherwise;
- 1 - Pr multiplies into each pair's miss product in HCP order: by first
  interval at any location, then name.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, TooLargeError, is_integer
from .model import VisitGraph, name_ranks

HCP_SCOPES = ("all", "ns_only")


def z_from_rho(rho_per_min: float, unit_s: int) -> float:
    """Per-interval transmission probability at peak shedding."""
    return rho_per_min * (unit_s / 60.0)


def check_z(z: float) -> None:
    if not isinstance(z, numbers.Real) or isinstance(z, bool) or not 0.0 <= z <= 1.0:
        raise ConfigError(f"z must be a number in [0, 1], got {z!r}")


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

    One pass per HCP, over its fragments in substitutable rooms sorted by
    (room, start, end), gives its Pr for every ordered pair of rooms it
    visits; see the module docstring for the order of the arithmetic. The
    log's ids must be on its rosters, as VisitGraph.columns requires.
    """
    check_z(z)
    if not is_integer(unit_s) or unit_s <= 0:
        raise ConfigError(f"unit_s must be a positive integer, got {unit_s!r}")
    scope = _scope_hcps(g, hcp_scope)
    order = sorted(g.locations.substitutable)
    rank = {loc: i for i, loc in enumerate(order)}
    room_of = np.array([rank.get(loc, -1) for loc in g.locations.ids], dtype=np.int64)
    cols = g.columns
    keep = np.isin(cols.hcp, [i for i, h in enumerate(g.hcps.ids) if h in scope])
    start, end, hcp, room = (cols.start[keep], cols.end[keep], cols.hcp[keep],
                             room_of[cols.location[keep]])

    # chop_points' rule: n fragments of unit_s from start, the last one ending at end
    d = end - start
    n = np.where(d <= unit_s, 1, d // unit_s + ((d % unit_s > 0) & (2 * (d % unit_s) >= unit_s)))
    # rank HCPs by their first fragment at any location, then by name
    by_first = np.lexsort((name_ranks(g.hcps.ids)[hcp], np.where(n == 1, end, start + unit_s),
                           start))
    firsts, at = np.unique(hcp[by_first], return_index=True)
    hcp_rank = np.zeros(len(g.hcps.ids), dtype=np.int64)
    hcp_rank[firsts[np.argsort(at)]] = np.arange(len(firsts))

    sub = room >= 0
    n, hcp, room = n[sub], np.repeat(hcp_rank[hcp[sub]], n[sub]), np.repeat(room[sub], n[sub])
    k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    fs = np.repeat(start[sub], n) + k * unit_s
    fe = np.where(k == np.repeat(n - 1, n), np.repeat(end[sub], n), fs + unit_s)
    # (start, end) as one integer key that keeps their order and ties
    by_key = np.lexsort((fe, fs))
    new = np.ones(len(fs), dtype=bool)
    new[1:] = (np.diff(fs[by_key]) != 0) | (np.diff(fe[by_key]) != 0)
    key = np.empty(len(fs), dtype=np.int64)
    key[by_key] = np.cumsum(new)
    frag = np.lexsort((key, room, hcp))
    key, room, hcp = key[frag], room[frag], hcp[frag]

    most = int(np.bincount(hcp * len(order) + room).max(initial=0))
    qpow = np.array([(1.0 - z) ** i for i in range(most + 1)])  # Python's pow, not numpy's
    miss = np.ones((len(order), len(order)))
    blocks = np.searchsorted(hcp, np.arange(len(firsts) + 1)).tolist()
    for a, b in zip(blocks[:-1], blocks[1:]):
        if a == b:
            continue
        r, hkey, rows = room[a:b], key[a:b], np.arange(b - a)
        lo = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        hi = np.r_[lo[1:], b - a]
        runs = list(zip(lo.tolist(), hi.tolist()))
        # suf[j, f]: room j's intervals at or after f when f's room sorts first
        # (side 0 of the pair), strictly after f otherwise
        suf = np.empty((len(runs), b - a), dtype=np.int64)
        for j, (r0, r1) in enumerate(runs):
            suf[j] = r1 - r0 - np.searchsorted(hkey[r0:r1], hkey + (rows >= r0))
        seen = rows - np.repeat(lo, hi - lo)
        terms = (qpow[seen] * z) * (1.0 - qpow[suf])
        pr = np.array([terms[:, r0:r1].cumsum(axis=1)[:, -1] for r0, r1 in runs])
        rooms = r[lo]
        miss[np.ix_(rooms, rooms)] *= 1.0 - pr
    i, j = np.triu_indices(len(order), 1)
    w = ((1.0 - miss[i, j]) + (1.0 - miss[j, i])) / 2.0
    pairs = ((order[x], order[y]) for x, y in zip(i.tolist(), j.tolist()))
    return WeightMatrix(locations=tuple(order), w=dict(zip(pairs, w.tolist())))


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

