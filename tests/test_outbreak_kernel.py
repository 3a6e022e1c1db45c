"""The outbreak kernel against pinned outputs and exact oracles.

The pinned outputs in data/pinned_replicates.json were recorded from the
scalar (one event at a time) kernel that the array kernel replaced. Any
change to the random draws a replicate makes, or to the order of its
transmission log, shows up here. Rewrite the file, from that reference
kernel, only for a change that is meant to move every replicate:

    PYTHONPATH=src python -m tests.test_outbreak_kernel

scalar_replicate keeps that scalar kernel as the reference: it reproduces
the recording, and the array kernel must equal it on other instances. Its
seed-only runs, where the seed alone transmits, are the reference for
estimate_r0's counts from each replicate's least transmitting rho per
target, at those thresholds and at the floats just below them.

The oracles need no random numbers: one walks every infection-day vector
of a graph of five agents and compares the final-size distribution with
simulated replicates, the other sums the seed's per-target infection
probabilities into the expected R0.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corn import episim
from corn.clustering import BubbleClustering
from corn.episim import (
    CASUAL_LOCATION,
    RHO_MAX,
    CasualContactModel,
    ContactSchedule,
    DiseaseParams,
    ReplicateResult,
    SimConfig,
    TransmissionEvent,
    _run_replicate,
    _seed_thresholds,
    calibrate_rho,
    estimate_r0,
    shedding,
    simulate,
)
from corn.errors import NotBracketedError
from corn.model import SECONDS_PER_DAY
from corn.rewiring import random_clustering
from corn.synth import FacilitySpec, generate_facility, generate_mobility, zone_clustering

from .conftest import make_graph, small_logs
from .oracles import contact_infection_prob

PINNED = Path(__file__).parent / "data" / "pinned_replicates.json"
PINNED_REPLICATES = 30


# -- pinned outputs -------------------------------------------------------------

def _pinned_instance(days: int = 8, seed: int = 3):
    """The 6-room facility of the CLI tests (seed 3), here over eight days, and its zones."""
    spec = FacilitySpec(
        rooms=6, hallway_nodes=3, hcp_groups=(("n", 4),), non_substitutable=1,
        corridor_length_m=20.0, shift_length_h=8.0, visits_per_hcp_per_day=6,
        visit_duration_min=15.0, locality=0.6, days=days, seed=seed, zones=2,
    )
    facility = generate_facility(spec)
    return ContactSchedule(generate_mobility(facility, spec)), zone_clustering(spec, facility[1])


def scalar_replicate(sched, clustering, cfg: SimConfig, horizon: int, rep: int,
                     only_seed: bool = False) -> ReplicateResult:
    """The kernel the array kernel replaced: one contact at a time, in order."""
    k_pick, k_struct, k_coin = np.random.SeedSequence(cfg.seed, spawn_key=(rep,)).spawn(3)
    members = sched.seed_members
    seed = int(members[int(np.random.default_rng(k_pick).integers(len(members)))])
    d, casual = cfg.disease, cfg.casual
    nh = len(sched.hcp_ids)
    rng_struct = np.random.default_rng(k_struct)
    contacts: list[list[tuple[int, int]]] = [[] for _ in range(horizon)]
    if casual.contacts_per_day > 0 and nh >= 2:
        counts = rng_struct.poisson(casual.contacts_per_day, size=(horizon, nh))
        for day in range(horizon):
            for i in range(nh):
                for _ in range(int(counts[day, i])):
                    j = int(rng_struct.integers(nh - 1))
                    contacts[day].append((i, j + (j >= i)))
    rng_coin = np.random.default_rng(k_coin)
    u_sched = rng_coin.random(sched.n_events)
    u_casual = iter(rng_coin.random(sum(map(len, contacts))))
    bubble = [None] * sched.n_agents
    if clustering is not None:
        bubble = ([clustering.hcp_bubble.get(h) for h in sched.hcp_ids]
                  + [clustering.location_bubble.get(r) for r in sched.rooms])
    day_of = [-1] * sched.n_agents
    day_of[seed] = 0
    log = []

    def infectious(x: int, day: int) -> bool:
        return 1 <= day - day_of[x] <= d.infectious_span and day_of[x] >= 0 \
            and (not only_seed or x == seed)

    def attempt(day, a, b, minutes, u, t_s, loc, hh) -> None:
        if infectious(a, day) and day_of[b] < 0:
            src, dst = a, b
        elif infectious(b, day) and day_of[a] < 0:
            src, dst = b, a
        else:
            return
        p = contact_infection_prob(minutes, shedding(day - day_of[src], d), d.rho)
        if hh and None not in (bubble[a], bubble[b]) and bubble[a] != bubble[b]:
            p *= d.cross_bubble_scale
        if u < p:
            day_of[dst] = day
            log.append(TransmissionEvent(day, t_s, sched.agent_ids[src],
                                         sched.agent_ids[dst], loc))

    for day in range(horizon):
        for i in np.flatnonzero(sched.ev_day == day):
            attempt(day, int(sched.ev_a[i]), int(sched.ev_b[i]), float(sched.ev_dur[i]),
                    float(u_sched[i]), int(sched.ev_t[i]), sched.graph.locations.ids[sched.ev_l[i]],
                    bool(sched.ev_hh[i]))
        for a, b in contacts[day]:
            attempt(day, a, b, casual.duration_min, float(next(u_casual)),
                    day * SECONDS_PER_DAY, CASUAL_LOCATION, True)
    others = [x for x in range(sched.n_agents) if day_of[x] >= 0 and x != seed]
    out = [bubble[x] for x in others if bubble[x] != bubble[seed]]
    return ReplicateResult(
        replicate=rep, seed_agent=sched.agent_ids[seed], infections=len(others) + 1,
        infections_excl_seed=len(others),
        leave=bool(out) if clustering is not None else None,
        reach=any(b is not None for b in out) if clustering is not None else None,
        log=tuple(log) if cfg.keep_transmission_log else (),
    )


def _pinned_cases():
    """(name, clustering, config, horizon, only_seed) for each pinned run."""
    sched, bubbles = _pinned_instance()
    cfg = SimConfig(disease=DiseaseParams(rho=0.01), replicates=PINNED_REPLICATES, seed=7,
                    horizon_days=12, casual=CasualContactModel(contacts_per_day=1.0),
                    keep_transmission_log=True)
    sealed = replace(cfg, disease=replace(cfg.disease, cross_bubble_scale=0.0))
    seed_days = cfg.disease.infectious_span + 1  # the horizon estimate_r0 uses
    return sched, [
        ("unclustered", None, cfg, 12, False),
        ("bubbles_0.75", bubbles, cfg, 12, False),
        ("bubbles_0", bubbles, sealed, 12, False),
        ("only_seed", None, cfg, seed_days, True),
        ("only_seed_bubbles", bubbles, cfg, seed_days, True),
        ("only_seed_short", bubbles, cfg, 4, True),
    ]


def _as_json(r) -> dict:
    return {
        "replicate": r.replicate, "seed_agent": r.seed_agent, "infections": r.infections,
        "infections_excl_seed": r.infections_excl_seed, "leave": r.leave, "reach": r.reach,
        "log": [list(e) for e in r.log],
    }


def _record(kernel=scalar_replicate) -> dict:
    sched, cases = _pinned_cases()
    return {
        name: [_as_json(kernel(sched, c, cfg, horizon, rep, only_seed=only))
               for rep in range(PINNED_REPLICATES)]
        for name, c, cfg, horizon, only in cases
    }


def seed_only(sched, cfg: SimConfig, horizon: int, rep: int) -> dict:
    """Seed agent and secondary infections of a seed-only replicate, from its thresholds."""
    (seed,), _, least = _seed_thresholds(sched, cfg, horizon, range(rep, rep + 1))
    return {"seed_agent": sched.agent_ids[seed],
            "infections_excl_seed": int((least <= cfg.disease.rho).sum())}


def scalar_seed_only(sched, cfg: SimConfig, horizon: int, rep: int) -> dict:
    r = scalar_replicate(sched, None, cfg, horizon, rep, only_seed=True)
    return {"seed_agent": r.seed_agent, "infections_excl_seed": r.infections_excl_seed}


class TestPinned:
    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads(PINNED.read_text())

    @pytest.fixture(scope="class")
    def replayed(self):
        """Each case from the code that runs it now.

        Simulation runs the array kernel. estimate_r0 runs unclustered
        seed-only replicates from thresholds, which give the seed and the
        count; nothing runs clustered seed-only replicates any more, so those
        cases are replayed by the reference kernel.
        """
        sched, cases = _pinned_cases()
        reps = range(PINNED_REPLICATES)
        out = {}
        for name, c, cfg, horizon, only in cases:
            if not only:
                out[name] = [_as_json(_run_replicate(sched, c, cfg, horizon, r)) for r in reps]
            elif c is None:
                out[name] = [seed_only(sched, cfg, horizon, r) for r in reps]
            else:
                out[name] = [_as_json(scalar_replicate(sched, c, cfg, horizon, r, only_seed=True))
                             for r in reps]
        return out

    @pytest.mark.parametrize("name", [case[0] for case in _pinned_cases()[1]])
    def test_replicates_match_recording(self, recorded, replayed, name):
        fields = replayed[name][0].keys()
        assert replayed[name] == [{f: r[f] for f in fields} for r in recorded[name]]

    def test_estimate_r0_matches_recording(self, recorded):
        # the pinned seed-only case runs over one infectious span, which estimate_r0
        # reaches with horizon_days at that span
        sched, cases = _pinned_cases()
        [(cfg, horizon)] = [(cfg, horizon) for name, _, cfg, horizon, _ in cases
                            if name == "only_seed"]
        est = estimate_r0(sched, cfg.disease.rho, replace(cfg, horizon_days=horizon))
        counts = [r["infections_excl_seed"] for r in recorded["only_seed"]]
        assert est.mean == np.mean(np.array(counts, dtype=float))
        assert est.se > 0.0

    def test_scalar_reference_matches_recording(self, recorded):
        assert _record(scalar_replicate) == recorded

    def test_recording_transmits(self, recorded):
        # the pinned runs exercise transmission, casual contacts and bubble damping
        logs = [e for runs in recorded.values() for r in runs for e in r["log"]]
        assert sum(e[4] == "casual" for e in logs) > 0
        assert sum(e[4] != "casual" for e in logs) > 0
        assert any(r["leave"] for r in recorded["bubbles_0.75"])
        total = lambda name: sum(r["infections"] for r in recorded[name])  # noqa: E731
        assert total("bubbles_0") < total("bubbles_0.75") < total("unclustered")


class TestScalarReference:
    @pytest.mark.parametrize("seed,rho,per_day,scale,horizon,only_seed,bubbles,days", [
        (4, 0.003, 0.0, 0.75, None, False, "random", (6, 10)),
        (4, 0.03, 3.0, 0.0, None, False, "zones", (6, 10)),
        (5, 0.03, 0.5, 1.0, 9, False, "zones", (6, 10)),
        (5, 0.01, 2.0, 0.5, 3, False, None, (6, 10)),
        (6, 1.0, 1.0, 0.25, None, False, "random", (6, 10)),
        (6, 0.0, 1.0, 0.75, None, False, "zones", (6, 10)),
        # recovery inside the horizon
        (4, 1.0, 0.5, 0.5, 12, False, "zones", (1, 1)),
        (4, 0.005, 1.0, 0.5, 20, False, None, (1, 1)),
        (5, 0.02, 0.0, 0.75, 20, False, "zones", (1, 1)),
        (5, 0.1, 1.0, 0.0, 9, False, "random", (2, 2)),
        (4, 0.03, 3.0, 0.5, 17, True, "random", (6, 10)),
        (5, 0.5, 0.5, 0.0, 2, True, "zones", (6, 10)),
        (6, 1.0, 1.0, 0.5, 5, True, None, (1, 2)),
    ])
    def test_array_kernel_equals_scalar(self, seed, rho, per_day, scale, horizon,
                                        only_seed, bubbles, days):
        sched, zones = _pinned_instance(days=6, seed=seed)
        g = sched.graph
        clustering = {"zones": zones, None: None, "random": random_clustering(
            g.hcps, g.locations.substitutable, 3, seed=seed)}[bubbles]
        disease = DiseaseParams(rho=rho, incubation_days=days[0], recovery_days=days[1],
                                cross_bubble_scale=scale)
        cfg = SimConfig(disease=disease, seed=seed, horizon_days=horizon,
                        keep_transmission_log=True,
                        casual=CasualContactModel(contacts_per_day=per_day))
        for rep in range(40):
            if only_seed:  # estimate_r0's path, which takes no clustering
                args = (sched, cfg, cfg.horizon(g), rep)
                assert seed_only(*args) == scalar_seed_only(*args)
            else:
                args = (sched, clustering, cfg, cfg.horizon(g), rep)
                assert _run_replicate(*args) == scalar_replicate(*args)



class TestBlocks:
    """simulate runs replicates in blocks; each replicate equals the scalar kernel's.

    A block draws each row's scheduled coins a day at a time, so these cases
    also check that the day-sized draws read each row's coin stream in order.
    """

    @staticmethod
    def block_of(monkeypatch, sched, size: int) -> None:
        """Make the coin budget hold size replicates of sched's busiest day."""
        monkeypatch.setattr(episim, "COIN_BLOCK", size * int(np.bincount(sched.ev_day).max()))
        assert episim._block_size(sched) == size

    @staticmethod
    def blocks_run(monkeypatch) -> list[range]:
        """The blocks that simulate runs from now on, in one process."""
        monkeypatch.delenv("CORN_THREADS", raising=False)
        ran = []
        run_block = episim._run_block

        def recorded(sched, clustering, cfg, horizon, reps):
            ran.append(reps)
            return run_block(sched, clustering, cfg, horizon, reps)

        monkeypatch.setattr(episim, "_run_block", recorded)
        return ran

    def test_blocks_are_near_equal_and_within_budget(self, monkeypatch):
        # a block per worker, or more where one would pass the budget; lengths differ by
        # at most one, larger first
        monkeypatch.setenv("CORN_THREADS", "4")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for n, size, lengths in ((5, 100, [2, 1, 1, 1]), (10, 100, [3, 3, 2, 2]),
                                 (3, 100, [1, 1, 1]), (11, 2, [2, 2, 2, 2, 2, 1]),
                                 (13, 3, [3, 3, 3, 2, 2])):
            assert [len(b) for b in episim._blocks(n, size)] == lengths
        for n, size in itertools.product(range(1, 40), range(1, 12)):
            blocks = episim._blocks(n, size)
            got = [len(b) for b in blocks]
            assert [r for b in blocks for r in b] == list(range(n))
            assert len(blocks) == max(min(n, 4), -(-n // size))
            assert max(got) <= size and max(got) - min(got) <= 1 and got == sorted(got)[::-1]

    @pytest.mark.parametrize("replicates,size,per_day,scale,horizon,days,log,bubbles", [
        (7, 3, 1.0, 0.5, None, (6, 10), True, "zones"),  # 3 + 2 + 2
        (5, 1, 2.0, 0.0, 12, (1, 1), True, "zones"),  # blocks of one; recovery inside
        (10, 4, 0.0, 1.0, None, (6, 10), False, "random"),  # no casual contacts
        (9, 4, 3.0, 0.5, 3, (6, 10), True, None),  # the horizon cuts outbreaks short
        (12, 5, 1.0, 0.5, 20, (2, 2), True, "random"),  # recovery inside the horizon
        (8, 8, 2.0, 0.0, None, (1, 2), False, "random"),  # one whole block
    ])
    def test_simulate_equals_scalar(self, monkeypatch, replicates, size, per_day, scale,
                                    horizon, days, log, bubbles):
        sched, zones = _pinned_instance(days=6, seed=4)
        g = sched.graph
        clustering = {"zones": zones, None: None, "random": random_clustering(
            g.hcps, g.locations.substitutable, 3, seed=4)}[bubbles]
        cfg = SimConfig(disease=DiseaseParams(rho=0.03, incubation_days=days[0],
                                              recovery_days=days[1], cross_bubble_scale=scale),
                        replicates=replicates, seed=9, horizon_days=horizon,
                        keep_transmission_log=log,
                        casual=CasualContactModel(contacts_per_day=per_day))
        self.block_of(monkeypatch, sched, size)
        got = simulate(sched, clustering, cfg).results
        want = tuple(scalar_replicate(sched, clustering, cfg, cfg.horizon(g), rep)
                     for rep in range(replicates))
        assert got == want
        assert max(r.infections for r in got) > 2  # the rows spread, so their coins matter
        if horizon is not None and horizon < days[0] + days[1]:
            # an outbreak still infects on the last day, so the horizon cut it short
            assert any(e.day == horizon - 1 for r in got for e in r.log)

    @pytest.mark.parametrize("size", [3, None])  # None: the default budget, one block
    def test_day_zero_contacts_and_empty_days(self, monkeypatch, size):
        # contacts on days 0, 1, 4 and 8 of an 11-day horizon: each row skips day 0's
        # coins, and a day without contacts draws none
        rooms = ("la", "lb", "lc")
        rows = [(h, room, d * DAY + i * HOUR // 2, d * DAY + (i + 2) * HOUR // 2)
                for d in (0, 1, 4, 8) for r, room in enumerate(rooms)
                for i, h in enumerate((f"p{r + 1}", f"p{(r + 1) % 4 + 1}"))]
        g = make_graph(rows, {f"p{i}": "a" for i in range(1, 5)}, {r: "s" for r in rooms})
        sched = ContactSchedule(g)
        cfg = SimConfig(disease=DiseaseParams(rho=0.02, incubation_days=2, recovery_days=2),
                        replicates=10, seed=3, horizon_days=11, keep_transmission_log=True,
                        casual=CasualContactModel(contacts_per_day=1.0))
        assert sched.ev_day.min() == 0 and set(range(11)) - set(sched.ev_day.tolist())
        if size is not None:
            self.block_of(monkeypatch, sched, size)
        ran = self.blocks_run(monkeypatch)
        got = simulate(sched, None, cfg).results
        assert got == tuple(scalar_replicate(sched, None, cfg, 11, rep) for rep in range(10))
        assert len(ran) == (4 if size else 1)
        # scheduled contacts transmit on day 1 and after empty days, so those coins matter
        assert {1, 4, 8} <= {e.day for r in got for e in r.log if e.location != CASUAL_LOCATION}

    def test_rows_end_on_different_days(self, monkeypatch):
        # one block in which some outbreaks die out days before others infect again
        sched, zones = _pinned_instance(days=6, seed=4)
        cfg = SimConfig(disease=DiseaseParams(rho=0.01, incubation_days=1, recovery_days=1),
                        replicates=30, seed=2, horizon_days=20, keep_transmission_log=True,
                        casual=CasualContactModel(contacts_per_day=1.0))
        ran = self.blocks_run(monkeypatch)
        got = simulate(sched, zones, cfg).results
        assert ran == [range(30)]
        assert got == tuple(scalar_replicate(sched, zones, cfg, 20, rep) for rep in range(30))
        ends = [max((e.day for e in r.log), default=0) for r in got]
        assert min(ends) + cfg.disease.infectious_span < max(ends)

    def test_default_budget_is_one_block(self, monkeypatch):
        sched, zones = _pinned_instance()
        cfg = SimConfig(disease=DiseaseParams(rho=0.03), replicates=80, seed=6,
                        keep_transmission_log=True,
                        casual=CasualContactModel(contacts_per_day=1.0))
        assert episim._block_size(sched) >= cfg.replicates
        ran = self.blocks_run(monkeypatch)
        got = simulate(sched, zones, cfg).results
        assert ran == [range(80)]
        assert got == tuple(scalar_replicate(sched, zones, cfg, cfg.horizon(sched.graph), rep)
                            for rep in range(80))
        assert len({r.infections for r in got}) > 1

    def test_blocks_span_two_workers(self, monkeypatch):
        # two workers get a block each, even when one block could hold every replicate
        sched, zones = _pinned_instance()
        cfg = SimConfig(disease=DiseaseParams(rho=0.03), replicates=11, seed=5,
                        keep_transmission_log=True,
                        casual=CasualContactModel(contacts_per_day=1.0))
        jobs = []
        run_replicates = episim.run_replicates

        def counted(job, n):
            jobs.append(n)
            return run_replicates(job, n)

        monkeypatch.setattr(episim, "run_replicates", counted)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for size, blocks in ((None, (1, 2)), (2, (6, 6))):  # None: the default budget
            if size is not None:
                self.block_of(monkeypatch, sched, size)
            jobs.clear()
            monkeypatch.delenv("CORN_THREADS", raising=False)
            one = simulate(sched, zones, cfg)
            monkeypatch.setenv("CORN_THREADS", "2")
            assert simulate(sched, zones, cfg) == one
            assert tuple(jobs) == blocks
            assert [r.replicate for r in one.results] == list(range(11))
            assert len({r.infections for r in one.results}) > 1


# -- exact final-size oracle ------------------------------------------------------

DAY = 86400
HOUR = 3600
ORACLE_REPLICATES = 20_000


def _oracle_graph():
    """Two group-a HCPs, one ns HCP and two rooms: five agents over six days."""
    rows = [
        ("p1", "la", 0, HOUR),
        ("p1", "la", DAY, DAY + HOUR), ("p2", "la", DAY + HOUR // 2, DAY + 2 * HOUR),
        ("p3", "hall", DAY + 2 * HOUR, DAY + 3 * HOUR),
        ("p1", "hall", DAY + 2 * HOUR + HOUR // 2, DAY + 4 * HOUR),
        ("p2", "lb", 2 * DAY, 2 * DAY + HOUR), ("p3", "lb", 2 * DAY, 2 * DAY + HOUR // 2),
        ("p1", "hall", 2 * DAY + 2 * HOUR, 2 * DAY + 3 * HOUR),
        ("p2", "hall", 2 * DAY + 2 * HOUR, 2 * DAY + 3 * HOUR),
        ("p3", "la", 3 * DAY, 3 * DAY + HOUR), ("p2", "la", 3 * DAY + HOUR, 3 * DAY + 2 * HOUR),
        ("p1", "lb", 4 * DAY, 4 * DAY + HOUR // 3),
        ("p3", "hall", 4 * DAY, 4 * DAY + HOUR), ("p2", "hall", 4 * DAY, 4 * DAY + HOUR),
        ("p2", "la", 5 * DAY, 5 * DAY + HOUR),
    ]
    g = make_graph(rows, {"p1": "a", "p2": "a", "p3": "ns"},
                   {"la": "s", "lb": "s", "hall": "ns"})
    bubbles = BubbleClustering(k=2, location_bubble={"la": 1, "lb": 2},
                               hcp_bubble={"p1": 1, "p2": 2})
    return g, bubbles


def _oracle_events(g) -> list[tuple[int, str, str, float, bool]]:
    """(day, agent, agent, minutes, hcp-hcp) for every contact the log implies.

    A visit to a room meets its resident, named by the room; two HCPs meet
    where their visits to one location overlap, on the day the later one starts.
    """
    rooms = set(g.locations.substitutable)
    events = [(v.start_s // DAY, v.hcp, v.location, (v.end_s - v.start_s) / 60.0, False)
              for v in g.visits if v.location in rooms]
    for v, w in itertools.combinations(g.visits, 2):
        overlap = min(v.end_s, w.end_s) - max(v.start_s, w.start_s)
        if v.location == w.location and v.hcp != w.hcp and overlap > 0:
            events.append((max(v.start_s, w.start_s) // DAY, v.hcp, w.hcp, overlap / 60.0, True))
    return events


def exact_final_sizes(g, clustering, cfg: SimConfig) -> dict[int, float]:
    """P(final size = n) by recursion over the infection day of every agent.

    The infectious set is fixed for a day, so each susceptible agent escapes
    independently: with probability prod(1 - p_e) over that day's events with
    an infectious partner, times exp(-2 lam p_c / (n_h - 1)) per infectious
    HCP for casual contacts (each HCP of a pair draws Poisson(lam) contacts
    with a uniform other HCP).
    """
    d = cfg.disease
    hcps = g.hcps.ids
    agents = hcps + g.locations.substitutable
    bubble = {}
    if clustering is not None:
        bubble = {**clustering.hcp_bubble, **clustering.location_bubble}
    events = _oracle_events(g)
    lam, nh = cfg.casual.contacts_per_day, len(hcps)
    horizon = cfg.horizon(g)

    def prob(minutes: float, since: int, x: str, y: str, hh: bool) -> float:
        p = contact_infection_prob(minutes, shedding(since, d), d.rho)
        bx, by = bubble.get(x), bubble.get(y)
        if hh and bx is not None and by is not None and bx != by:
            p *= d.cross_bubble_scale
        return p

    @functools.lru_cache(maxsize=None)
    def spread(day: int, day_of: tuple[int, ...]) -> dict[int, float]:
        infected = {a: s for a, s in zip(agents, day_of) if s >= 0}
        if day == horizon:
            return {len(infected): 1.0}
        infectious = {a for a, s in infected.items() if 1 <= day - s <= d.infectious_span}
        susceptible = [a for a in agents if a not in infected]
        risk = []
        for x in susceptible:
            escape = 1.0
            for ev_day, a, b, minutes, hh in events:
                if ev_day == day and x in (a, b):
                    y = b if x == a else a
                    if y in infectious:
                        escape *= 1.0 - prob(minutes, day - infected[y], x, y, hh)
            if lam > 0 and nh >= 2 and x in hcps:
                for y in infectious & set(hcps):
                    p_c = prob(cfg.casual.duration_min, day - infected[y], x, y, True)
                    escape *= math.exp(-2.0 * lam * p_c / (nh - 1))
            risk.append(1.0 - escape)
        out: dict[int, float] = {}
        for hits in itertools.product((False, True), repeat=len(susceptible)):
            w = math.prod(q if hit else 1.0 - q for q, hit in zip(risk, hits))
            if w == 0.0:
                continue
            new = {x for x, hit in zip(susceptible, hits) if hit}
            nxt = tuple(day if a in new else s for a, s in zip(agents, day_of))
            for size, p in spread(day + 1, nxt).items():
                out[size] = out.get(size, 0.0) + w * p
        return out

    seeds = g.hcps.members(g.hcps.group_labels[0])
    total: dict[int, float] = {}
    for seed in seeds:
        start = tuple(0 if a == seed else -1 for a in agents)
        for size, p in spread(0, start).items():
            total[size] = total.get(size, 0.0) + p / len(seeds)
    return total


class TestExactFinalSize:
    @pytest.mark.parametrize("clustered,casual", [
        (False, False), (True, False), (False, True), (True, True),
    ])
    def test_simulation_matches_exact_distribution(self, clustered, casual):
        g, bubbles = _oracle_graph()
        clustering = bubbles if clustered else None
        cfg = SimConfig(
            disease=DiseaseParams(rho=0.01, incubation_days=2, recovery_days=1,
                                  cross_bubble_scale=0.5),
            replicates=ORACLE_REPLICATES, seed=11, horizon_days=7,
            casual=CasualContactModel(contacts_per_day=2.0 if casual else 0.0),
        )
        exact = exact_final_sizes(g, clustering, cfg)
        assert sum(exact.values()) == pytest.approx(1.0)
        counts = simulate(g, clustering, cfg).infection_counts()
        n = len(counts)
        for size in range(1, 6):
            p = exact.get(size, 0.0)
            freq = counts.count(size) / n
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(freq - p) <= 4.0 * se, (size, freq, p)

    def test_oracle_sees_damping(self):
        # the clustered and unclustered distributions differ, so the comparisons have teeth
        g, bubbles = _oracle_graph()
        cfg = SimConfig(disease=DiseaseParams(rho=0.01, incubation_days=2, recovery_days=1,
                                              cross_bubble_scale=0.5),
                        horizon_days=7, casual=CasualContactModel(contacts_per_day=0.0))
        free, damped = exact_final_sizes(g, None, cfg), exact_final_sizes(g, bubbles, cfg)
        mean = lambda dist: sum(s * p for s, p in dist.items())  # noqa: E731
        assert mean(damped) < mean(free) - 0.05



# -- seed-only replicates from thresholds -------------------------------------------

def exact_r0(g, cfg: SimConfig) -> float:
    """Expected secondary infections of a seed that alone transmits.

    The seed is a uniform member of the first group. It infects each other
    agent unless every contact between them misses, so a target counts
    1 - prod(1 - p_e) over their scheduled contacts on days 1 to the end of
    the infectious span or the horizon, times, for an HCP target, a
    Poisson(2 lam / (n_h - 1)) number of casual contacts a day, thinned by
    their infection probability: exp(-2 lam p_c / (n_h - 1)).
    """
    d = cfg.disease
    hcps = g.hcps.ids
    lam, nh = cfg.casual.contacts_per_day, len(hcps)
    days = range(1, min(cfg.horizon(g), d.infectious_span + 1))
    events = _oracle_events(g)
    seeds = g.hcps.members(g.hcps.group_labels[0])
    total = 0.0
    for seed in seeds:
        for x in hcps + g.locations.substitutable:
            if x == seed:
                continue
            escape = 1.0
            for day, a, b, minutes, _ in events:
                if day in days and {a, b} == {seed, x}:
                    escape *= 1.0 - contact_infection_prob(minutes, shedding(day, d), d.rho)
            if lam > 0 and nh >= 2 and x in hcps:
                for day in days:
                    p_c = contact_infection_prob(cfg.casual.duration_min, shedding(day, d), d.rho)
                    escape *= math.exp(-2.0 * lam * p_c / (nh - 1))
            total += 1.0 - escape
    return total / len(seeds)


class TestSeedThresholds:
    @settings(max_examples=40, deadline=None)
    @given(small_logs(), st.integers(1, 3), st.integers(1, 3), st.sampled_from([0.0, 2.0]),
           st.one_of(st.none(), st.integers(1, 4)), st.integers(0, 2**32 - 1))
    def test_counts_equal_scalar_at_each_threshold(self, drawn, incubation, recovery,
                                                    per_day, horizon_days, seed):
        g = drawn[0]
        cfg = SimConfig(disease=DiseaseParams(rho=0.0, incubation_days=incubation,
                                              recovery_days=recovery),
                        replicates=3, seed=seed, horizon_days=horizon_days,
                        casual=CasualContactModel(contacts_per_day=per_day))
        sched = ContactSchedule(g)
        horizon = min(cfg.horizon(g), cfg.disease.infectious_span + 1)  # as estimate_r0 runs
        reps, least = sched.seed_thresholds(cfg)
        for t in np.unique(least[np.isfinite(least)]):
            for rho in (t, np.nextafter(t, 0.0)):  # a threshold and the float below it
                at = replace(cfg, disease=replace(cfg.disease, rho=float(rho)))
                want = [scalar_seed_only(sched, at, horizon, rep) for rep in range(cfg.replicates)]
                assert [seed_only(sched, at, horizon, rep)
                        for rep in range(cfg.replicates)] == want
                counts = [w["infections_excl_seed"] for w in want]
                assert np.bincount(reps[least <= rho], minlength=cfg.replicates).tolist() == counts
                assert estimate_r0(sched, float(rho), cfg).mean == \
                    np.mean(np.array(counts, dtype=float))
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("CORN_THREADS", "2")
            mp.setattr(os, "cpu_count", lambda: 2)
            two = ContactSchedule(g).seed_thresholds(cfg)
        assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(two, (reps, least)))

    def test_blocks_smaller_than_replicates(self, monkeypatch):
        # a budget of two replicates' spans (a quarter of COIN_BLOCK): blocks 0-1, 2-3 and 4
        sched, _ = _pinned_instance()
        cfg = SimConfig(disease=DiseaseParams(rho=0.0, incubation_days=2, recovery_days=3),
                        replicates=5, seed=8, casual=CasualContactModel(contacts_per_day=2.0))
        horizon = min(cfg.horizon(sched.graph), cfg.disease.infectious_span + 1)
        whole = sched.seed_thresholds(cfg)
        monkeypatch.delenv("CORN_THREADS", raising=False)
        monkeypatch.setattr(episim, "COIN_BLOCK",
                            4 * 2 * int(np.searchsorted(sched.ev_day, horizon)))
        ran = []
        seed_thresholds = episim._seed_thresholds

        def recorded(sched, cfg, horizon, reps):
            ran.append(reps)
            return seed_thresholds(sched, cfg, horizon, reps)

        monkeypatch.setattr(episim, "_seed_thresholds", recorded)
        reps, least = sched.seed_thresholds(cfg)
        assert ran == [range(0, 2), range(2, 4), range(4, 5)]
        assert all(np.array_equal(x, y) for x, y in zip((reps, least), whole))
        for t in np.unique(least):
            at = replace(cfg, disease=replace(cfg.disease, rho=float(t)))
            counts = [scalar_seed_only(sched, at, horizon, rep)["infections_excl_seed"]
                      for rep in range(cfg.replicates)]
            assert np.bincount(reps[least <= t], minlength=cfg.replicates).tolist() == counts
        assert len(least) > cfg.replicates  # some seeds can infect several agents

    @pytest.mark.parametrize("per_day", [0.0, 2.0])
    def test_estimate_r0_matches_exact_mean(self, per_day):
        g, _ = _oracle_graph()
        cfg = SimConfig(disease=DiseaseParams(rho=0.01, incubation_days=2, recovery_days=2),
                        replicates=4000, seed=13, horizon_days=7,
                        casual=CasualContactModel(contacts_per_day=per_day))
        exact = exact_r0(g, cfg)
        est = estimate_r0(ContactSchedule(g), cfg.disease.rho, cfg)
        assert 0.0 < est.se
        assert abs(est.mean - exact) <= 4.0 * est.se, (est.mean, exact, est.se)

    def test_oracle_sees_casual_contacts(self):
        # casual contacts move the exact mean, so the casual comparison has teeth
        g, _ = _oracle_graph()
        cfg = SimConfig(disease=DiseaseParams(rho=0.01, incubation_days=2, recovery_days=2),
                        horizon_days=7, casual=CasualContactModel(contacts_per_day=2.0))
        quiet = replace(cfg, casual=CasualContactModel(contacts_per_day=0.0))
        assert exact_r0(g, cfg) > exact_r0(g, quiet) + 0.05


class TestCalibrationOracle:
    @settings(max_examples=40, deadline=None)
    @given(small_logs(), st.sampled_from([0.0, 2.0]), st.integers(0, 2**32 - 1),
           st.lists(st.one_of(st.floats(0.0, 3.0), st.integers(0, 12).map(lambda m: m / 4)),
                    min_size=1, max_size=4))
    def test_rho_is_least_reaching_target(self, drawn, per_day, seed, targets):
        # the scalar kernel's seed-only counts, summed over replicates, reach
        # m = round(T * R) at the calibrated rho and not at the float below it
        g = drawn[0]
        cfg = SimConfig(disease=DiseaseParams(rho=0.0, incubation_days=2, recovery_days=2),
                        replicates=4, seed=seed,
                        casual=CasualContactModel(contacts_per_day=per_day))
        sched = ContactSchedule(g)
        horizon = min(cfg.horizon(g), cfg.disease.infectious_span + 1)

        def total(rho: float) -> int:
            at = replace(cfg, disease=replace(cfg.disease, rho=rho))
            return sum(scalar_seed_only(sched, at, horizon, rep)["infections_excl_seed"]
                       for rep in range(cfg.replicates))

        for target in targets:
            m = round(target * cfg.replicates)
            try:
                cal = calibrate_rho(sched, target, cfg)
            except NotBracketedError:
                assert total(RHO_MAX) < m
                continue
            if m == 0:
                assert cal.rho == 0.0
            else:
                assert total(cal.rho) >= m
                assert total(float(np.nextafter(cal.rho, 0.0))) < m
            assert cal.estimate.mean == total(cal.rho) / cfg.replicates

if __name__ == "__main__":
    runs = [f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(r) for r in reps) + "\n]"
            for name, reps in _record().items()]
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text("{\n" + ",\n".join(runs) + "\n}\n")
