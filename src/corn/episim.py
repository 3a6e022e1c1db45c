"""Stochastic epidemic replay over visit graphs.

Dynamics are day-granular: the infectious set is fixed at the start of
each day, shedding starts the day after infection, and recovery removes
an agent after incubation + recovery days. An agent infected today cannot
transmit today, so a day's new infections are the agents susceptible at
its start with at least one transmitting contact from an infectious agent.
The kernel therefore handles a day as one batch of array operations: it
takes the day's scheduled contacts and then its casual ones, keeps those
with one infectious and one susceptible end, and compares each contact's
infection probability with its coin.

The kernel runs a block of replicates through each day together. Their
states are the rows of one (replicates, agents) array: a day gathers its
scheduled contacts for all rows at once, takes the casual contacts of
all rows from one list in (day, row) order, and writes every row's new
infections with one scatter. Each row draws its scheduled coins a day at
a time, so a block holds one day's coins: it takes as many replicates as
keep the busiest day's coins within COIN_BLOCK, and no more than a
worker's share of the replicates. Rows share no random numbers, so
results do not depend on the block size; a single replicate is a block
of one.

Transmission log rule: each newly infected agent gets one entry, from its
first transmitting contact, counting contacts in day order and, within a
day, scheduled contacts by start time before casual ones. Entries are in
that same order.

Each replicate derives three RNG streams from (master seed, replicate):
seed choice, contact structure (casual contacts), and transmission coins.
The coin stream holds one coin per scheduled contact event, in schedule
order, then one per casual contact. The kernel reads the scheduled coins
day by day and the casual ones from a copy of the stream advanced past
the scheduled ones (PCG64.advance), which gives the same bits as drawing
the whole stream at once. The draws of a replicate do not depend on rho:
they are common random numbers across infectivity values.

R0 estimation lets the seed alone transmit, so a replicate's count is the
number of agents with a transmitting contact from the seed. A contact with
duration dur, shedding shed and coin u transmits when
u < min(1, rho * dur * shed); IEEE multiplication by a non-negative number
rounds monotonically, so that test is monotone in rho and the contact has
a least float64 rho at which it transmits. A target is infected at rho
exactly when the least of these over its contacts from the seed is <= rho.
estimate_r0 therefore replays each replicate's draws once, keeps that
least rho per (replicate, target), and counts the targets at or below
rho, as the kernel would; calibration takes the least rho whose summed
count reaches its target, which is an order statistic of the thresholds.

A replicate replays a ContactSchedule, built with numpy from the log's
columns. A RewiredGraph's schedule is built from its source's columns with
its assigned HCPs, so simulating a rewiring never builds the rewired log.

Agents are the roster's HCPs plus one static resident per substitutable
room, named by the room. Every outbreak is seeded in a member of the
roster's first substitutable group. Casual HCP-HCP contacts model mixing
that the visit log does not record: each HCP makes a Poisson number of
them a day, each with a uniformly drawn other HCP. When a clustering is
supplied, contacts between HCPs placed in different bubbles are damped by
cross_bubble_scale; contacts involving unclustered HCPs are kept at full
strength.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .clustering import BubbleClustering
from .errors import ConfigError, NotBracketedError, check_nonnegative
from .model import SECONDS_PER_DAY, VisitGraph, name_ranks
from .rewiring import RewiredGraph, check_coverage

CASUAL_LOCATION = "casual"
RHO_MAX = 10.0  # calibration gives up when R0 stays below target at this rho
BOOTSTRAP_DRAWS = 2000  # resamples behind each comparison interval
COIN_BLOCK = 2**18  # a block's coins: one day's scheduled ones per row, or a quarter in seed spans


@dataclass(frozen=True)
class DiseaseParams:
    rho: float  # infection probability per minute of contact at peak shedding
    incubation_days: int = 6
    recovery_days: int = 10
    cross_bubble_scale: float = 0.75

    def check(self) -> None:
        check_nonnegative(rho=self.rho)
        if self.incubation_days < 1 or self.recovery_days < 1:
            raise ConfigError("incubation_days and recovery_days must be >= 1")
        if not 0.0 <= self.cross_bubble_scale <= 1.0:
            raise ConfigError("cross_bubble_scale must lie in [0, 1]")

    @property
    def infectious_span(self) -> int:
        return self.incubation_days + self.recovery_days

    def rates(self) -> tuple[float, float]:
        """Ramp rates that put the curve at 0.05 one day after infection and at recovery."""
        return (math.log(20.0) / max(1, self.incubation_days - 1),
                math.log(20.0) / self.recovery_days)


def shedding(day_since_infection: int, p: DiseaseParams) -> float:
    if day_since_infection < 0:
        raise ConfigError("day_since_infection must be >= 0")
    w = p.incubation_days
    up, down = p.rates()
    if day_since_infection <= w:
        return math.exp(-up * (w - day_since_infection))
    if day_since_infection <= p.infectious_span:
        return math.exp(-down * (day_since_infection - w))
    return 0.0


@dataclass(frozen=True)
class CasualContactModel:
    contacts_per_day: float = 0.1  # Poisson mean per HCP per day
    duration_min: float = 15.0

    def check(self) -> None:
        check_nonnegative(contacts_per_day=self.contacts_per_day,
                          duration_min=self.duration_min)


@dataclass(frozen=True)
class SimConfig:
    disease: DiseaseParams
    replicates: int = 500
    seed: int = 0
    horizon_days: int | None = None
    casual: CasualContactModel = CasualContactModel()
    keep_transmission_log: bool = False

    def check(self) -> None:
        self.disease.check()
        self.casual.check()
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        check_nonnegative(seed=self.seed)
        if self.horizon_days is not None and self.horizon_days < 1:
            raise ConfigError("horizon_days must be >= 1")

    def horizon(self, g: VisitGraph | RewiredGraph) -> int:
        """horizon_days, or the log's own day count when it is unset."""
        return self.horizon_days if self.horizon_days is not None else g.day_count

    def echo(self, label: str, g: VisitGraph | RewiredGraph, k: int | None) -> dict:
        """The settings a summary of replicates on g records next to its aggregates."""
        d, c = self.disease, self.casual
        return {
            "label": label, "rho": d.rho, "incubation_days": d.incubation_days,
            "recovery_days": d.recovery_days, "cross_bubble_scale": d.cross_bubble_scale,
            "casual_contacts_per_day": c.contacts_per_day, "casual_duration_min": c.duration_min,
            "horizon_days": self.horizon(g), "seed": self.seed, "replicates": self.replicates,
            "k": k,
        }


class TransmissionEvent(NamedTuple):
    day: int
    t_s: int
    source: str
    target: str
    location: str


@dataclass(frozen=True)
class ReplicateResult:
    replicate: int
    seed_agent: str
    infections: int  # including the seed
    infections_excl_seed: int
    leave: bool | None
    reach: bool | None
    log: tuple[TransmissionEvent, ...] = ()


@dataclass(frozen=True)
class SimSummary:
    label: str
    results: tuple[ReplicateResult, ...]
    aggregates: dict
    config: dict

    def infection_counts(self) -> list[int]:
        return [r.infections for r in self.results]


class ContactSchedule:
    """Precomputed contact events of one visit log, in (t, a, b, location) order.

    Each visit to a substitutable room is a contact between its HCP (a) and
    the room's resident (b). Each pair of overlapping visits by different
    HCPs at one location is a contact between the earlier visit's HCP (a)
    and the later one's (b), at the start of the later visit (t); earlier
    means earlier in graph order, so two visits with equal start and end
    are ordered by HCP name. Events that tie on the whole key keep their
    build order: resident events in graph order, then pairs by later visit,
    then by earlier visit.

    A RewiredGraph gives the events of the rewired log without building it:
    they come from its source's columns, with assigned as the HCP column and
    dropped visits left out. The source's order is the rewired log's but
    among visits with equal start and end, which are ordered by their new
    HCP's name; full-key ties, which only an invalid log has, keep source
    order. graph is the log the schedule was built from, of either type.
    """

    def __init__(self, g: VisitGraph | RewiredGraph):
        self.graph = g
        self.hcp_ids = g.hcps.ids
        self.hcp_index = {h: i for i, h in enumerate(self.hcp_ids)}
        self.rooms = g.locations.substitutable
        nh = len(self.hcp_ids)
        self.n_agents = nh + len(self.rooms)
        self.agent_ids = tuple(self.hcp_ids) + tuple(self.rooms)
        # outbreaks start in the first substitutable group
        labels = g.hcps.group_labels
        if not labels:
            raise ConfigError("no substitutable HCP group to seed from")
        self.seed_members = tuple(self.hcp_index[h] for h in g.hcps.members(labels[0]))

        loc_ids = g.locations.ids
        n_loc, loc_rank = len(loc_ids), name_ranks(loc_ids)
        start, end, hcp, loc = (g.source.columns._replace(hcp=g.assigned)
                                if isinstance(g, RewiredGraph) else g.columns)
        n = len(start)
        resident = np.full(len(loc_ids), -1, dtype=np.int64)
        resident[[loc_ids.index(r) for r in self.rooms]] = np.arange(nh, self.n_agents)

        # overlapping pairs: by location, later visits in graph order (the starts are
        # sorted) from each visit to the last one that starts before it ends
        by_loc = np.argsort(loc * n + np.arange(n))
        t0 = int(start.min(initial=0))
        span = max(int(end.max(initial=0)), int(start.max(initial=0))) - t0 + 1
        key = loc[by_loc] * span + (start[by_loc] - t0)
        last = np.searchsorted(key, loc[by_loc] * span + (end[by_loc] - t0))
        count = np.maximum(last - np.arange(n) - 1, 0)
        first = np.repeat(np.arange(n), count)
        offset = np.arange(len(first)) - np.repeat(np.cumsum(count) - count, count)
        o, v = by_loc[first], by_loc[first + 1 + offset]
        overlap_s = np.minimum(end[o], end[v]) - start[v]
        ok = (overlap_s > 0) & (hcp[o] != hcp[v]) & (np.minimum(hcp[o], hcp[v]) >= 0)
        o, v, overlap_s = o[ok], v[ok], overlap_s[ok]
        # o precedes v in graph order, which ranks visits with equal start and end by
        # HCP name: a rewiring's new HCPs may reverse its source's order there
        hcp_rank = name_ranks(self.hcp_ids)
        swap = (start[o] == start[v]) & (end[o] == end[v]) & (hcp_rank[hcp[v]] < hcp_rank[hcp[o]])
        o, v = np.where(swap, v, o), np.where(swap, o, v)

        room = ((resident[loc] >= 0) & (hcp >= 0)).nonzero()[0]
        n_res = len(room)
        ev_v = np.concatenate((room, v))  # the later visit; resident events have one
        ev_o = np.concatenate((room, o))
        ev_l = loc[ev_v]
        t = start[ev_v]
        a = np.concatenate((hcp[room], hcp[o]))
        b = np.concatenate((resident[loc[room]], hcp[v]))
        # sort on (t, a, b, location), then on the build order: resident and pair
        # events never tie, since b is a resident in the one and an HCP in the other
        order = np.lexsort((ev_v * n + ev_o, (a * self.n_agents + b) * n_loc + loc_rank[ev_l], t))
        dur = np.concatenate(((end[room] - start[room]) / 60.0, overlap_s / 60.0))
        hh = np.arange(len(order)) >= n_res  # only HCP-HCP contacts are bubble-damped
        self.ev_t, self.ev_a, self.ev_b, self.ev_l, self.ev_dur, self.ev_hh = (
            x[order] for x in (t, a, b, ev_l, dur, hh))  # ev_l: index into locations.ids
        self.ev_day = self.ev_t // SECONDS_PER_DAY
        self.n_events = len(order)

    def seed_thresholds(self, cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
        """(replicate, least transmitting rho) per agent the seed of each replicate can infect.

        The seed-only replicates of cfg run over at most one infectious span,
        in blocks whose coins up to the span's end stay within a quarter of
        COIN_BLOCK. The pairs do not depend on cfg's rho.
        """
        horizon = min(cfg.horizon(self.graph), cfg.disease.infectious_span + 1)
        span_events = int(np.searchsorted(self.ev_day, horizon))
        # a row's seed contacts and their _least_rho arrays take about as much memory as its
        # span's coins; blocks of the whole budget raised a 30-room study's peak RSS
        blocks = _blocks(cfg.replicates, COIN_BLOCK // max(1, 4 * span_events))
        per_block = run_replicates(lambda i: _seed_thresholds(self, cfg, horizon, blocks[i])[1:],
                                   len(blocks))
        reps, least = zip(*per_block)
        return np.concatenate(reps), np.concatenate(least)


def build_contact_schedule(g: VisitGraph | RewiredGraph) -> ContactSchedule:
    return ContactSchedule(g)


@functools.lru_cache(maxsize=8)
def _shedding_curve(incubation_days: int, recovery_days: int) -> np.ndarray:
    """shedding() on each day from infection to the end of the infectious span."""
    p = DiseaseParams(rho=0.0, incubation_days=incubation_days, recovery_days=recovery_days)
    curve = np.array([shedding(d, p) for d in range(p.infectious_span + 1)])
    curve.flags.writeable = False
    return curve


def _draws(sched: ContactSchedule, cfg: SimConfig, horizon: int, rep: int) -> tuple:
    """Replicate rep's random numbers, none of which depends on rho.

    From its three streams: the seed agent; the day and the two HCPs of each
    casual contact, in (day, HCP) order; the coin generator, whose next
    n_events draws are the scheduled contacts' coins, in schedule order; and
    the casual contacts' coins, which follow those in the same stream.
    """
    ss = np.random.SeedSequence(cfg.seed, spawn_key=(rep,))
    k_pick, k_struct, k_coin = ss.spawn(3)
    rng_pick = np.random.default_rng(k_pick)
    members = sched.seed_members
    seed_agent = int(members[int(rng_pick.integers(len(members)))])

    # casual contacts: a Poisson count per HCP and day, every one with a uniform other HCP
    nh = len(sched.hcp_ids)
    rng_struct = np.random.default_rng(k_struct)
    cas_day = cas_a = cas_b = np.empty(0, dtype=np.int64)
    if cfg.casual.contacts_per_day > 0 and nh >= 2:
        counts = rng_struct.poisson(cfg.casual.contacts_per_day, size=(horizon, nh))
        cas_day, cas_a = np.divmod(np.repeat(np.arange(counts.size), counts.ravel()), nh)
        j = rng_struct.integers(nh - 1, size=len(cas_a))
        cas_b = j + (j >= cas_a)
    rng_coin = np.random.default_rng(k_coin)
    after_sched = np.random.PCG64(k_coin).advance(sched.n_events)  # a copy past their coins
    u_casual = np.random.Generator(after_sched).random(len(cas_a))
    return seed_agent, cas_day, cas_a, cas_b, rng_coin, u_casual


def _block_size(sched: ContactSchedule) -> int:
    """Replicates per block: as many as keep the busiest day's coins within COIN_BLOCK."""
    busiest = np.bincount(sched.ev_day).max(initial=0)
    return max(1, COIN_BLOCK // max(1, int(busiest)))


def _blocks(n: int, size: int) -> list[range]:
    """range(n) in near-equal blocks, larger first: one per worker, more if one would pass size."""
    count = max(min(n, thread_count()), -(-n // max(1, size)))
    q, r = divmod(n, count)
    return [range(b * q + min(b, r), (b + 1) * q + min(b + 1, r)) for b in range(count)]


def _run_block(
    sched: ContactSchedule,
    clustering: BubbleClustering | None,
    cfg: SimConfig,
    horizon: int,
    reps: range,
) -> list[ReplicateResult]:
    """Replicates reps of cfg on sched, one row of each state array per replicate.

    Arrays indexed by a flat position row * n_agents + agent hold the block's
    agents; the casual contacts of all rows form one list in (day, row) order.
    Each day draws every row's coins for that day's scheduled contacts.
    """
    rows, n = len(reps), sched.n_agents
    seeds = np.empty(rows, dtype=np.int64)
    coins = []
    cas_day, cas_a, cas_b, u_casual = [], [], [], []
    for row, rep in enumerate(reps):
        seed, day, a, b, rng_coin, u = _draws(sched, cfg, horizon, rep)
        seeds[row] = seed
        coins.append(rng_coin)
        cas_day.append(day)
        cas_a.append(a + row * n)
        cas_b.append(b + row * n)
        u_casual.append(u)
    # a stable sort by day keeps each day's contacts by row, and a row's in its own order
    cas_day = np.concatenate(cas_day)
    order = np.argsort(cas_day, kind="stable")
    cas_day, cas_a, cas_b, u_casual = (
        x[order] for x in (cas_day, np.concatenate(cas_a), np.concatenate(cas_b),
                           np.concatenate(u_casual)))

    disease = cfg.disease
    span = disease.infectious_span
    shed = _shedding_curve(disease.incubation_days, disease.recovery_days)
    rho = disease.rho
    scale = disease.cross_bubble_scale
    days = np.arange(horizon + 1)
    ev_off = np.searchsorted(sched.ev_day, days)
    cas_off = np.searchsorted(cas_day, days)
    for rng_coin in coins:  # the day loop starts on day 1
        rng_coin.bit_generator.advance(int(ev_off[1]))
    u_buf = np.empty(rows * int(np.diff(ev_off[1:]).max(initial=0)))

    # each agent's bubble; 0 when unclustered, and for everyone without a clustering
    bub = np.zeros(n, dtype=np.int64)
    if clustering is not None:
        bub[:] = ([clustering.hcp_bubble.get(h, 0) for h in sched.hcp_ids]
                  + [clustering.location_bubble.get(r, 0) for r in sched.rooms])
    # per contact, rho * duration and, for a damped clustering, the factor of its bubbles
    ev_rho = rho * sched.ev_dur
    cas_rho = np.full(len(cas_a), rho * cfg.casual.duration_min)
    ev_damp = cas_damp = None
    if clustering is not None and scale != 1.0:
        def damping(a, b, hh):  # only HCP-HCP contacts across two bubbles are damped
            ba, bb = bub[a], bub[b]
            return np.where(hh & (ba != bb) & (ba * bb > 0), scale, 1.0)
        ev_damp = damping(sched.ev_a, sched.ev_b, sched.ev_hh)
        cas_damp = damping(cas_a % n, cas_b % n, True)
    seed_at = np.arange(rows) * n + seeds
    day_of = np.full((rows, n), -1, dtype=np.int64)
    state = np.ones((rows, n), dtype=np.int8)  # 1 susceptible, 2 infectious, 0 neither
    day_flat, state_flat = day_of.reshape(-1), state.reshape(-1)
    day_flat[seed_at] = 0
    state_flat[seed_at] = 0
    empty = np.empty(0, dtype=np.int64)
    logs: list[list[TransmissionEvent]] = [[] for _ in range(rows)]

    def transmitting(day, src, i, rho_dur, damp, u) -> np.ndarray:
        """Which of the contacts i, from flat positions src, transmit on day with coins u."""
        p = rho_dur[i] * shed[day - day_flat[src]]
        if damp is not None:
            p = np.minimum(1.0, p) * damp[i]
        return (u < p).nonzero()[0]  # u < 1, so u < p exactly when u < min(1, p)

    def spread(day: int) -> np.ndarray:
        """Infect each target of a transmitting contact on day at its first one.

        A day's scheduled contacts count before its casual ones, in each row.
        Returns the flat positions of the newly infected, scheduled ones first.
        """
        src = dst = idx = empty
        # scheduled contacts, gathered for all rows: k indexes the (rows, hi - lo) gather
        # and the day's coins, which every row draws in its stream's order
        lo, hi = ev_off[day], ev_off[day + 1]
        u = u_buf[:rows * (hi - lo)]
        for rng_coin, u_row in zip(coins, u.reshape(rows, hi - lo)):
            rng_coin.random(out=u_row)
        a, b = sched.ev_a[lo:hi], sched.ev_b[lo:hi]
        sa = state.take(a, axis=1).ravel()
        k = (sa * state.take(b, axis=1).ravel() == 2).nonzero()[0]
        if len(k):
            j = k
            if rows > 1:
                row, j = np.divmod(k, hi - lo)
            aj, bj, idx = a[j], b[j], j + lo
            src = np.where(sa[k] == 2, aj, bj)
            dst = aj + bj - src
            if rows > 1:  # flat positions of the agents
                src, dst = src + row * n, dst + row * n
            ok = transmitting(day, src, idx, ev_rho, ev_damp, u[k])
            src, dst, idx = src[ok], dst[ok], idx[ok]
        # casual contacts of all rows, at flat positions
        clo, chi = cas_off[day], cas_off[day + 1]
        if clo < chi:
            ca, cb = cas_a[clo:chi], cas_b[clo:chi]
            sa = state_flat[ca]
            live = (sa * state_flat[cb] == 2).nonzero()[0]
            if len(live):
                ca, cb, i = ca[live], cb[live], live + clo
                c_src = np.where(sa[live] == 2, ca, cb)
                c_dst = ca + cb - c_src
                ok = transmitting(day, c_src, i, cas_rho, cas_damp, u_casual[i])
                if len(ok):
                    src = np.concatenate((src, c_src[ok]))
                    dst = np.concatenate((dst, c_dst[ok]))
                    idx = np.concatenate((idx, np.full(len(ok), -1)))  # -1: casual
        if not len(dst):
            return empty
        if len(dst) > 1:
            # a target's first transmitting contact: a row's scheduled ones precede its casual ones
            _, first = np.unique(dst, return_index=True)
            first.sort()
            src, dst, idx = src[first], dst[first], idx[first]
        day_flat[dst] = day
        state_flat[dst] = 0
        if cfg.keep_transmission_log:
            for i in range(len(dst)):
                e = int(idx[i])
                if e >= 0:
                    t_s, loc = int(sched.ev_t[e]), sched.graph.locations.ids[sched.ev_l[e]]
                else:
                    t_s, loc = day * SECONDS_PER_DAY, CASUAL_LOCATION
                r, s, d = int(dst[i]) // n, int(src[i]) % n, int(dst[i]) % n
                logs[r].append(TransmissionEvent(
                    day, t_s, sched.agent_ids[s], sched.agent_ids[d], loc))
        return dst

    # the infectious set is fixed for a day, so each day is one batch over all rows
    waves = [seed_at]  # the flat positions infected on each day
    last = 0  # the latest day with an infection in any row
    for day in range(1, horizon):
        if day > last + span:
            break  # no one is infectious now or later
        state_flat[waves[day - 1]] = 2  # yesterday's infections shed from today
        if day > span:
            state_flat[waves[day - span - 1]] = 0  # and the earliest ones have recovered
        waves.append(spread(day))
        if len(waves[-1]):
            last = day

    infected = day_of >= 0
    totals = infected.sum(axis=1).tolist()
    infected.reshape(-1)[seed_at] = False
    left = infected & (bub != bub[seeds][:, None])
    leave = left.any(axis=1).tolist()
    reach = (left & (bub > 0)).any(axis=1).tolist()
    clustered = clustering is not None
    return [ReplicateResult(
        replicate=rep,
        seed_agent=sched.agent_ids[seeds[row]],
        infections=totals[row],
        infections_excl_seed=totals[row] - 1,
        leave=leave[row] if clustered else None,
        reach=reach[row] if clustered else None,
        log=tuple(logs[row]),
    ) for row, rep in enumerate(reps)]


def _run_replicate(
    sched: ContactSchedule,
    clustering: BubbleClustering | None,
    cfg: SimConfig,
    horizon: int,
    rep: int,
) -> ReplicateResult:
    """Replicate rep of cfg on sched: a block of one."""
    return _run_block(sched, clustering, cfg, horizon, range(rep, rep + 1))[0]


_INF_BITS = np.float64(np.inf).view(np.int64)


def _least_rho(dur: np.ndarray, shed: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per contact, the least rho at which u < min(1, rho * dur * shed); nan if none.

    The test is monotone in rho, and a non-negative float64 orders like its
    bits read as an int64, so bisection on the bits finds the least rho
    exactly. It starts a few ulps around u / (dur * shed).
    """
    def transmits(bits: np.ndarray, i: np.ndarray) -> np.ndarray:
        return u[i] < np.minimum(1.0, bits.view(np.float64) * dur[i] * shed[i])

    with np.errstate(divide="ignore", invalid="ignore"):
        guess = u / (dur * shed)
    bits = np.where(np.isnan(guess), np.inf, guess).view(np.int64)
    lo, hi = np.maximum(bits - 4, 0), np.minimum(bits + 4, _INF_BITS)
    every = np.arange(len(u))
    wide = transmits(lo, every) | ~transmits(hi, every)
    lo[wide], hi[wide] = 0, _INF_BITS  # no contact transmits at rho 0
    never = ~transmits(hi, every)  # not even at rho = inf
    i = ((hi - lo > 1) & ~never).nonzero()[0]
    while len(i):
        mid = lo[i] + (hi[i] - lo[i]) // 2
        ok = transmits(mid, i)
        hi[i[ok]], lo[i[~ok]] = mid[ok], mid[~ok]
        i = i[hi[i] - lo[i] > 1]
    return np.where(never, np.nan, hi.view(np.float64))


def _seed_thresholds(sched: ContactSchedule, cfg: SimConfig, horizon: int,
                     reps: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The seeds of replicates reps, and the least rho at which each infects each agent it can.

    The seed alone transmits, from day 1 to the end of its infectious span
    or of the horizon, with its replicate's draws: at rho, a replicate
    infects the agents whose least rho is <= rho. Returns the seed of each
    replicate and the (replicate, least rho) pairs, by replicate and then
    by agent. A replicate draws its scheduled coins only up to the span's
    end and reads those of its seed's contacts.
    """
    n = sched.n_agents
    d1 = min(cfg.disease.infectious_span + 1, horizon)
    s0, s1 = (int(x) for x in np.searchsorted(sched.ev_day, (1, d1)))
    a, b, ev_day, ev_dur = (x[s0:s1] for x in (sched.ev_a, sched.ev_b, sched.ev_day,
                                                sched.ev_dur))
    mine: dict[int, np.ndarray] = {}  # per seed, its scheduled contacts in the span
    u_span = np.empty(s1 - s0)
    seeds = np.empty(len(reps), dtype=np.int64)
    target, day, dur, u = [], [], [], []
    for row, rep in enumerate(reps):
        seed, cas_day, cas_a, cas_b, rng_coin, u_casual = _draws(sched, cfg, horizon, rep)
        seeds[row] = seed
        if seed not in mine:
            mine[seed] = ((a == seed) | (b == seed)).nonzero()[0]
        i = mine[seed]
        rng_coin.bit_generator.advance(s0)
        rng_coin.random(out=u_span)
        c0, c1 = np.searchsorted(cas_day, (1, d1))
        c = ((cas_a[c0:c1] == seed) | (cas_b[c0:c1] == seed)).nonzero()[0] + c0
        target += [a[i] + b[i] - seed + row * n, cas_a[c] + cas_b[c] - seed + row * n]
        day += [ev_day[i], cas_day[c]]
        dur += [ev_dur[i], np.full(len(c), cfg.casual.duration_min)]
        u += [u_span[i], u_casual[c]]
    target, day, dur, u = (np.concatenate(x) for x in (target, day, dur, u))
    shed = _shedding_curve(cfg.disease.incubation_days, cfg.disease.recovery_days)
    least = np.full(len(reps) * n, np.nan)
    np.fmin.at(least, target, _least_rho(dur, shed[day], u))  # fmin skips the nan of "never"
    at = (~np.isnan(least)).nonzero()[0]
    return seeds, reps.start + at // n, least[at]


def thread_count() -> int:
    """Worker cap from the CORN_THREADS environment variable (default 1).

    Clamped to the machine's core count, so a large value never forks more
    workers than there are cores.
    """
    raw = os.environ.get("CORN_THREADS", "1")
    try:
        return max(1, min(int(raw), os.cpu_count() or 1))
    except ValueError:
        raise ConfigError(f"CORN_THREADS={raw!r} is not an integer") from None


_worker_job: Callable[[int], Any] | None = None  # set in each worker by _init_worker


def _init_worker(job: Callable[[int], Any]) -> None:
    global _worker_job
    _worker_job = job


def _call_worker_job(rep: int) -> Any:
    return _worker_job(rep)


def run_replicates(job: Callable[[int], Any], n: int) -> list:
    """[job(i) for i in range(n)], on up to thread_count() forked workers.

    i is a replicate, or a block of them. The job reaches the workers
    through fork, so it may be a closure over large read-only state; only
    the indices and the results are pickled.
    """
    workers = min(thread_count(), n)
    if workers <= 1:
        return [job(rep) for rep in range(n)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_init_worker, initargs=(job,)) as pool:
        return pool.map(_call_worker_job, range(n), chunksize=max(1, n // (workers * 8)))


def _resolve(g: VisitGraph | RewiredGraph,
             clustering: BubbleClustering | None) -> BubbleClustering | None:
    """The clustering to simulate g under: a rewiring's own, or the one given."""
    if isinstance(g, RewiredGraph):
        if clustering is not None and clustering != g.clustering:
            raise ConfigError("clustering argument conflicts with the rewired graph's own")
        return g.clustering
    return clustering


def _aggregate(label: str, results: list[ReplicateResult], cfg_echo: dict) -> SimSummary:
    counts = np.array(sorted(r.infections for r in results), dtype=float)
    agg: dict = {
        "replicates": len(results),
        "infections_mean": float(counts.mean()),
        "infections_median": float(np.median(counts)),
        "infections_q25": float(np.quantile(counts, 0.25)),
        "infections_q75": float(np.quantile(counts, 0.75)),
        "infections_excl_seed_mean": float(counts.mean() - 1.0),
    }
    if results and results[0].leave is not None:
        agg["leave_pct"] = 100.0 * sum(1 for r in results if r.leave) / len(results)
        agg["reach_pct"] = 100.0 * sum(1 for r in results if r.reach) / len(results)
    else:
        agg["leave_pct"] = None
        agg["reach_pct"] = None
    return SimSummary(label=label, results=tuple(results), aggregates=agg, config=cfg_echo)


def _schedule(g: VisitGraph | RewiredGraph | ContactSchedule) -> ContactSchedule:
    """g if it is a contact schedule already, else the one built from the log g."""
    return g if isinstance(g, ContactSchedule) else build_contact_schedule(g)


def simulate(
    g: VisitGraph | RewiredGraph | ContactSchedule,
    clustering: BubbleClustering | None,
    cfg: SimConfig,
    label: str = "sim",
) -> SimSummary:
    """Outbreak replicates on the log g, or on a schedule already built from it."""
    cfg.check()
    graph = g.graph if isinstance(g, ContactSchedule) else g
    clustering = _resolve(graph, clustering)
    if clustering is not None:
        check_coverage(graph, clustering)
    sched = _schedule(g)
    horizon = cfg.horizon(graph)
    blocks = _blocks(cfg.replicates, _block_size(sched))
    per_block = run_replicates(lambda i: _run_block(sched, clustering, cfg, horizon, blocks[i]),
                               len(blocks))
    results = [r for block in per_block for r in block]
    k = clustering.k if clustering is not None else None
    return _aggregate(label, results, cfg.echo(label, graph, k))


@dataclass(frozen=True)
class R0Estimate:
    rho: float
    mean: float
    se: float
    replicates: int

    @property
    def ci95(self) -> tuple[float, float]:
        return (self.mean - 1.96 * self.se, self.mean + 1.96 * self.se)


def _r0_estimate(reps: np.ndarray, least: np.ndarray, rho: float,
                 replicates: int) -> R0Estimate:
    """The R0 estimate at rho from seed_thresholds' (replicate, least rho) pairs."""
    counts = np.bincount(reps[least <= rho], minlength=replicates).astype(float)
    se = float(counts.std(ddof=1) / math.sqrt(len(counts))) if len(counts) > 1 else 0.0
    return R0Estimate(rho=rho, mean=float(counts.mean()), se=se, replicates=replicates)


def estimate_r0(sched: ContactSchedule, rho: float, cfg: SimConfig) -> R0Estimate:
    """Mean secondary infections of the seed with all others non-transmitting.

    Each replicate's count is its number of targets whose least transmitting
    rho is <= rho.
    """
    cfg = replace(cfg, disease=replace(cfg.disease, rho=rho))
    cfg.check()
    return _r0_estimate(*sched.seed_thresholds(cfg), rho, cfg.replicates)


@dataclass(frozen=True)
class CalibrationResult:
    rho: float
    estimate: R0Estimate


def calibrate_rho(g: VisitGraph | ContactSchedule, target_r0: float,
                  cfg: SimConfig) -> CalibrationResult:
    """The least rho whose R0 estimate reaches m / R, where m = round(target_r0 * R).

    R is cfg.replicates, and R times the estimate counts the seed thresholds
    <= rho, so rho is the m-th smallest threshold (0 when m is 0). Ties: if
    others equal the m-th, the estimate at rho lies above m / R. Raises
    NotBracketedError when fewer than m thresholds exist or the m-th exceeds
    RHO_MAX. g is the log, or a schedule already built from it.
    """
    check_nonnegative(target_r0=target_r0)
    replace(cfg, disease=replace(cfg.disease, rho=0.0)).check()  # cfg's rho is not read
    reps, least = _schedule(g).seed_thresholds(cfg)
    # clamp before rounding (round(inf) raises); past the last threshold is the inf appended
    m = round(min(target_r0 * cfg.replicates, len(least) + 1))
    rho = float(np.partition(np.append(least, np.inf), m - 1)[m - 1]) if m else 0.0
    if rho > RHO_MAX:
        top = _r0_estimate(reps, least, RHO_MAX, cfg.replicates)
        raise NotBracketedError(f"target R0 {target_r0:g} unreachable; at rho={RHO_MAX:g} "
                                f"the estimate is {top.mean:g}")
    return CalibrationResult(rho, _r0_estimate(reps, least, rho, cfg.replicates))


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[dict, ...]
    diffs: tuple[dict, ...]  # vs the first summary


def compare_runs(summaries: list[SimSummary], seed: int = 0) -> ComparisonReport:
    if not summaries:
        raise ConfigError("compare_runs needs at least one summary")
    rows = tuple(dict(label=s.label, **s.aggregates) for s in summaries)
    ref = np.array(summaries[0].infection_counts(), dtype=float)
    rng = np.random.default_rng(seed)
    diffs = []
    for s in summaries[1:]:
        other = np.array(s.infection_counts(), dtype=float)
        point = float(other.mean() - ref.mean())
        if len(other) == len(ref):
            idx = rng.integers(len(ref), size=(BOOTSTRAP_DRAWS, len(ref)))
            samples = other[idx].mean(axis=1) - ref[idx].mean(axis=1)
        else:
            ia = rng.integers(len(other), size=(BOOTSTRAP_DRAWS, len(other)))
            ib = rng.integers(len(ref), size=(BOOTSTRAP_DRAWS, len(ref)))
            samples = other[ia].mean(axis=1) - ref[ib].mean(axis=1)
        diffs.append({
            "label": s.label,
            "vs": summaries[0].label,
            "mean_diff": point,
            "ci95_low": float(np.quantile(samples, 0.025)),
            "ci95_high": float(np.quantile(samples, 0.975)),
            "paired": len(other) == len(ref),
        })
    return ComparisonReport(rows=rows, diffs=tuple(diffs))


def summary_to_json(s: SimSummary, path: str | Path) -> None:
    payload = {"label": s.label, "config": s.config, "aggregates": s.aggregates}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def replicates_to_csv(s: SimSummary, path: str | Path) -> None:
    def flag(v: bool | None) -> str:
        return "" if v is None else ("true" if v else "false")

    with open(path, "w") as f:
        f.write("replicate,infections,leave,reach\n")
        for r in s.results:
            f.write(f"{r.replicate},{r.infections},{flag(r.leave)},{flag(r.reach)}\n")
