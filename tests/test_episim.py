from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corn.episim
from corn.clustering import BubbleClustering
from corn.episim import (
    RHO_MAX,
    CasualContactModel,
    CalibrationResult,
    ContactSchedule,
    DiseaseParams,
    ReplicateResult,
    SimConfig,
    SimSummary,
    calibrate_rho,
    compare_runs,
    estimate_r0,
    replicates_to_csv,
    run_replicates,
    shedding,
    simulate,
    summary_to_json,
    thread_count,
)
from corn.errors import ConfigError, NotBracketedError
from corn.rewiring import RewiredGraph, rewire

from .conftest import make_graph, small_logs
from .oracles import contact_infection_prob, rewired_log

DAY = 86400
NO_CASUAL = CasualContactModel(contacts_per_day=0.0)


def disease(rho, **kw):
    return DiseaseParams(rho=rho, **kw)


class TestShedding:
    # defaults: ramp chosen so the curve sits at 0.05 one day in and at recovery
    def test_peak_at_incubation_end(self):
        assert shedding(6, disease(1.0)) == 1.0

    def test_day_one_level(self):
        assert shedding(1, disease(1.0)) == pytest.approx(0.05)

    def test_recovery_level(self):
        assert shedding(16, disease(1.0)) == pytest.approx(0.05)

    def test_zero_after_span(self):
        assert shedding(17, disease(1.0)) == 0.0
        assert shedding(100, disease(1.0)) == 0.0

    def test_day_zero(self):
        assert shedding(0, disease(1.0)) == pytest.approx(20.0 ** -1.2)

    def test_geometric_decay(self):
        p = disease(1.0)
        ratio = math.exp(-math.log(20.0) / 10)
        for d in range(7, 16):
            assert shedding(d + 1, p) / shedding(d, p) == pytest.approx(ratio)

    def test_unimodal(self):
        p = disease(1.0)
        ys = [shedding(d, p) for d in range(17)]
        assert ys[:7] == sorted(ys[:7])
        assert ys[6:] == sorted(ys[6:], reverse=True)

    def test_negative_day_rejected(self):
        with pytest.raises(ConfigError):
            shedding(-1, disease(1.0))

    @given(st.integers(min_value=0, max_value=40),
           st.integers(min_value=1, max_value=10),
           st.integers(min_value=1, max_value=12))
    def test_range(self, day, w, t):
        v = shedding(day, disease(1.0, incubation_days=w, recovery_days=t))
        assert 0.0 <= v <= 1.0
        if day > w + t:
            assert v == 0.0


class TestContactProb:
    def test_reference_value(self):
        # 10 minutes at peak shedding with rho of 1e-3 per minute
        assert contact_infection_prob(10.0, 1.0, 0.001) == pytest.approx(0.01)

    def test_clamped(self):
        assert contact_infection_prob(1e6, 1.0, 1.0) == 1.0

    def test_zero_shedding(self):
        assert contact_infection_prob(30.0, 0.0, 0.5) == 0.0

    def test_negative_duration(self):
        with pytest.raises(ConfigError):
            contact_infection_prob(-1.0, 1.0, 0.1)


class TestParamChecks:
    @pytest.mark.parametrize("kw", [
        dict(rho=-0.1),
        dict(rho=0.1, incubation_days=0),
        dict(rho=0.1, recovery_days=0),
        dict(rho=0.1, cross_bubble_scale=1.5),
        dict(rho=math.nan),
    ])
    def test_bad_disease(self, kw):
        with pytest.raises(ConfigError):
            DiseaseParams(**kw).check()

    def test_bad_casual(self):
        for kw in (dict(contacts_per_day=-1.0), dict(contacts_per_day=math.nan),
                   dict(duration_min=-1.0), dict(duration_min=math.nan)):
            with pytest.raises(ConfigError):
                CasualContactModel(**kw).check()

    def test_bad_sim_config(self):
        with pytest.raises(ConfigError):
            SimConfig(disease=disease(0.1), replicates=0).check()
        with pytest.raises(ConfigError):
            SimConfig(disease=disease(0.1), horizon_days=0).check()


def solo_graph():
    """One HCP visiting one room on two consecutive days."""
    rows = [("p1", "la", 0, 3600), ("p1", "la", DAY, DAY + 3600)]
    return make_graph(rows, {"p1": "g1"}, {"la": "s"})


def two_bubble_graph():
    """Seeded HCP meets a second-bubble HCP one day after infection."""
    rows = [
        ("p1", "la", 0, 3600),
        ("p1", "la", DAY, DAY + 3600), ("p2", "la", DAY, DAY + 3600),
        ("p2", "lb", 2 * DAY, 2 * DAY + 3600),
    ]
    g = make_graph(rows, {"p1": "a", "p2": "b"}, {"la": "s", "lb": "s"})
    c = BubbleClustering(k=2, location_bubble={"la": 1, "lb": 2},
                         hcp_bubble={"p1": 1, "p2": 2})
    return g, c


class TestContactSchedule:
    @settings(max_examples=300, deadline=None)
    @given(small_logs())
    def test_events_equal_brute_force(self, log):
        # every resident visit, and every overlapping pair of visits by different
        # HCPs at one location (earlier visit in graph order first), by (t, a, b, loc)
        g = log[0]
        hcp = {h: i for i, h in enumerate(g.hcps.ids)}
        resident = {r: len(hcp) + i for i, r in enumerate(g.locations.substitutable)}
        want = [(v.start_s, hcp[v.hcp], resident[v.location], v.location,
                 v.duration_s / 60.0, False)
                for v in g.visits if v.location in resident]
        for i, u in enumerate(g.visits):
            for v in g.visits[i + 1:]:
                overlap_s = min(u.end_s, v.end_s) - max(u.start_s, v.start_s)
                if u.location == v.location and u.hcp != v.hcp and overlap_s > 0:
                    want.append((v.start_s, hcp[u.hcp], hcp[v.hcp], v.location,
                                 overlap_s / 60.0, True))
        want.sort(key=lambda e: e[:4])
        s = ContactSchedule(g)
        loc = [g.locations.ids[i] for i in s.ev_l.tolist()]
        got = list(zip(s.ev_t.tolist(), s.ev_a.tolist(), s.ev_b.tolist(), loc,
                       s.ev_dur.tolist(), s.ev_hh.tolist()))
        assert got == want
        assert s.n_events == len(want)
        assert s.ev_day.tolist() == [e[0] // DAY for e in want]
        assert [a.dtype for a in (s.ev_t, s.ev_day, s.ev_a, s.ev_b, s.ev_l, s.ev_dur, s.ev_hh)] \
            == [np.int64, np.int64, np.int64, np.int64, np.int64, np.float64, np.bool_]


SCHEDULE_FIELDS = ("ev_t", "ev_day", "ev_a", "ev_b", "ev_l", "ev_dur", "ev_hh")


def assert_same_schedule(got: ContactSchedule, want: ContactSchedule) -> None:
    for name in SCHEDULE_FIELDS:
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert got.n_events == want.n_events
    assert (got.agent_ids, got.seed_members) == (want.agent_ids, want.seed_members)


class TestRewiredSchedule:
    """ContactSchedule(rw) reads rw.source.columns and rw.assigned.

    rewired_log(rw), the rewired log built as a VisitGraph, is the reference.
    """

    @settings(max_examples=300, deadline=None)
    @given(small_logs(), st.integers(0, 3))
    def test_equals_schedule_of_rewired_log(self, log, seed):
        g, c, keep = log
        rw = rewire(g, c, seed, keep_same_bubble_hcp=keep)
        assert_same_schedule(ContactSchedule(rw), ContactSchedule(rewired_log(rw)))
        assert rw.day_count == rw.source.day_count

    def test_equal_start_and_end_oriented_by_rewired_names(self):
        # p1's and p2's visits to la share start and end; the rewiring gives p1's to x,
        # which sorts after p2, so the pair's earlier visit becomes p2's
        rows = [("p1", "la", 0, 3600), ("p2", "la", 0, 3600)]
        g = make_graph(rows, {"p1": "g", "p2": "g", "x": "g"}, {"la": "s"})
        c = BubbleClustering(k=1, location_bubble={"la": 1},
                             hcp_bubble={"p1": 1, "p2": 1, "x": 1})
        rw = RewiredGraph(source=g, clustering=c, assigned=np.array([2, 1]))  # x, p2
        s = ContactSchedule(rw)
        assert_same_schedule(s, ContactSchedule(rewired_log(rw)))
        hh = s.ev_hh.nonzero()[0]
        assert [(s.ev_a[i], s.ev_b[i]) for i in hh] == [(1, 2)]  # p2 then x

    def test_full_key_ties_keep_build_order(self):
        # each HCP's two visits overlap (an invalid log), so four pairs tie on
        # (t, a, b, location): they keep the order (later visit, earlier visit)
        rows = [("a", "r", 0, 600), ("a", "r", 0, 1200),
                ("b", "r", 0, 1800), ("b", "r", 0, 2400)]
        g = make_graph(rows, {"a": "g", "b": "g"}, {"r": "s"})
        s = ContactSchedule(g)
        assert s.ev_dur.tolist() == [10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 30.0, 40.0]
        assert s.ev_a.tolist() == [0, 0, 0, 0, 0, 0, 1, 1]
        assert s.ev_b.tolist() == [1, 1, 1, 1, 2, 2, 2, 2]
        assert s.ev_hh.tolist() == [True] * 4 + [False] * 4
        c = BubbleClustering(k=1, location_bubble={"r": 1}, hcp_bubble={"a": 1, "b": 1})
        rw = RewiredGraph(source=g, clustering=c, assigned=np.array([0, 0, 1, 1]))  # a a b b
        assert_same_schedule(ContactSchedule(rw), s)


class TestSimulate:
    def test_rho_zero_only_seed(self):
        cfg = SimConfig(disease=disease(0.0), replicates=20, casual=NO_CASUAL)
        s = simulate(solo_graph(), None, cfg)
        assert all(r.infections == 1 for r in s.results)
        assert all(r.leave is None and r.reach is None for r in s.results)

    def test_saturated_rho_infects_resident(self):
        # p = rho*60*shed(1) clamps to 1, so day-1 contact always transmits
        cfg = SimConfig(disease=disease(1000.0), replicates=20, casual=NO_CASUAL)
        s = simulate(solo_graph(), None, cfg)
        assert all(r.infections == 2 for r in s.results)

    def test_no_same_day_transmission(self):
        rows = [("p1", "la", 0, 3600)]
        g = make_graph(rows, {"p1": "g1"}, {"la": "s"})
        cfg = SimConfig(disease=disease(1000.0), replicates=10, casual=NO_CASUAL)
        s = simulate(g, None, cfg)
        assert all(r.infections == 1 for r in s.results)

    def test_horizon_cuts_run(self):
        cfg = SimConfig(disease=disease(1000.0), replicates=10, casual=NO_CASUAL,
                        horizon_days=1)
        s = simulate(solo_graph(), None, cfg)
        assert all(r.infections == 1 for r in s.results)

    def test_cross_bubble_full_scale(self):
        g, c = two_bubble_graph()
        cfg = SimConfig(disease=disease(1000.0, cross_bubble_scale=1.0),
                        replicates=20, casual=NO_CASUAL)
        s = simulate(g, c, cfg)
        assert all(r.infections == 4 for r in s.results)
        assert all(r.leave and r.reach for r in s.results)
        assert s.aggregates["leave_pct"] == 100.0
        assert s.aggregates["reach_pct"] == 100.0

    def test_cross_bubble_blocked(self):
        g, c = two_bubble_graph()
        cfg = SimConfig(disease=disease(1000.0, cross_bubble_scale=0.0),
                        replicates=20, casual=NO_CASUAL)
        s = simulate(g, c, cfg)
        assert all(r.infections == 2 for r in s.results)
        assert all(not r.leave and not r.reach for r in s.results)

    def test_transmission_log(self):
        g, c = two_bubble_graph()
        cfg = SimConfig(disease=disease(1000.0, cross_bubble_scale=1.0),
                        replicates=2, casual=NO_CASUAL, keep_transmission_log=True)
        s = simulate(g, c, cfg)
        ev = s.results[0].log
        assert len(ev) == 3
        assert {(e.source, e.target) for e in ev} == \
            {("p1", "la"), ("p1", "p2"), ("p2", "lb")}
        assert all(e.day in (1, 2) for e in ev)

    def test_deterministic(self):
        g, c = two_bubble_graph()
        cfg = SimConfig(disease=disease(0.02), replicates=30, seed=5)
        assert simulate(g, c, cfg) == simulate(g, c, cfg)

    def test_schedule_in_place_of_its_log(self, monkeypatch):
        g, c = two_bubble_graph()
        rw = rewire(g, c, seed=1)
        cfg = SimConfig(disease=disease(0.02), replicates=30, seed=5)
        want = [simulate(g, c, cfg), simulate(rw, None, cfg)]
        scheds = [ContactSchedule(g), ContactSchedule(rw)]
        monkeypatch.setattr(corn.episim, "build_contact_schedule", None)  # nothing is rebuilt
        assert [simulate(scheds[0], c, cfg), simulate(scheds[1], None, cfg)] == want

    def test_seed_group_selection(self):
        # two members in the first group "a", one in "b": seeds come from "a" only
        rows = [("p1", "la", 0, 3600), ("p3", "la", DAY, DAY + 3600),
                ("p2", "lb", 0, 3600)]
        g = make_graph(rows, {"p1": "a", "p2": "b", "p3": "a"}, {"la": "s", "lb": "s"})
        cfg = SimConfig(disease=disease(0.0), replicates=40, casual=NO_CASUAL)
        s = simulate(g, None, cfg)
        assert {r.seed_agent for r in s.results} == {"p1", "p3"}

    def test_unknown_seed_group(self):
        # a roster without substitutable HCPs has no group to seed from
        g = make_graph([("p1", "la", 0, 3600)], {"p1": "ns"}, {"la": "s"})
        cfg = SimConfig(disease=disease(0.0), replicates=1)
        with pytest.raises(ConfigError, match="no substitutable HCP group"):
            simulate(g, None, cfg)

    def test_rewired_accepts_an_equal_clustering(self):
        g, c = two_bubble_graph()
        rw = rewire(g, c, seed=0)
        cfg = SimConfig(disease=disease(0.05), replicates=10)
        assert simulate(rw, dataclasses.replace(rw.clustering), cfg) == simulate(rw, None, cfg)

    def test_rewired_rejects_a_different_clustering(self):
        g, c = two_bubble_graph()
        rw = rewire(g, c, seed=0)
        other = dataclasses.replace(c, location_bubble={"la": 2, "lb": 1},
                                    hcp_bubble={"p1": 2, "p2": 1})
        cfg = SimConfig(disease=disease(0.05), replicates=10)
        with pytest.raises(ConfigError, match="conflicts"):
            simulate(rw, other, cfg)

    def test_clustering_coverage_checked(self):
        g, _ = two_bubble_graph()
        partial = BubbleClustering(k=1, location_bubble={"la": 1},
                                   hcp_bubble={"p1": 1})
        cfg = SimConfig(disease=disease(0.1), replicates=1)
        with pytest.raises(ConfigError):
            simulate(g, partial, cfg)

    def test_reach_implies_leave(self):
        g, c = two_bubble_graph()
        cfg = SimConfig(disease=disease(0.05), replicates=60)
        s = simulate(g, c, cfg)
        assert all(r.infections >= 1 for r in s.results)
        assert all(r.leave or not r.reach for r in s.results)

    def test_aggregates_match_counts(self):
        cfg = SimConfig(disease=disease(1000.0), replicates=8, casual=NO_CASUAL)
        s = simulate(solo_graph(), None, cfg)
        counts = np.array(s.infection_counts(), dtype=float)
        agg = s.aggregates
        assert agg["replicates"] == 8
        assert agg["infections_mean"] == pytest.approx(counts.mean())
        assert agg["infections_median"] == pytest.approx(np.median(counts))
        assert agg["infections_q25"] == pytest.approx(np.quantile(counts, 0.25))
        assert agg["infections_q75"] == pytest.approx(np.quantile(counts, 0.75))
        assert agg["infections_excl_seed_mean"] == pytest.approx(counts.mean() - 1)


class TestR0:
    def test_zero_rho(self):
        cfg = SimConfig(disease=disease(0.0), replicates=20, casual=NO_CASUAL)
        est = estimate_r0(ContactSchedule(solo_graph()), 0.0, cfg)
        assert est.mean == 0.0 and est.se == 0.0
        assert est.ci95 == (0.0, 0.0)

    def test_saturated(self):
        cfg = SimConfig(disease=disease(0.0), replicates=20, casual=NO_CASUAL)
        est = estimate_r0(ContactSchedule(solo_graph()), 1000.0, cfg)
        assert est.mean == 1.0

    def test_monotone_in_rho(self):
        # common random numbers couple the runs, so means cannot cross
        cfg = SimConfig(disease=disease(0.0), replicates=50)
        g = solo_graph()
        means = [estimate_r0(ContactSchedule(g), r, cfg).mean for r in (0.01, 0.1, 1.0)]
        assert means == sorted(means)

    @pytest.mark.parametrize("casual", [CasualContactModel(duration_min=math.nan),
                                        CasualContactModel(contacts_per_day=-1.0)])
    def test_bad_casual_rejected(self, casual):
        cfg = SimConfig(disease=disease(0.0), replicates=20, casual=casual)
        with pytest.raises(ConfigError):
            estimate_r0(ContactSchedule(solo_graph()), 0.1, cfg)

    def test_ci_brackets_mean(self):
        cfg = SimConfig(disease=disease(0.0), replicates=80)
        est = estimate_r0(ContactSchedule(solo_graph()), 0.2, cfg)
        lo, hi = est.ci95
        assert lo <= est.mean <= hi


class TestCalibration:
    def test_target_zero(self):
        cfg = SimConfig(disease=disease(0.0), replicates=10, casual=NO_CASUAL)
        cal = calibrate_rho(solo_graph(), 0.0, cfg)
        assert cal.rho == 0.0
        assert cal.estimate.mean == 0.0

    def test_hits_saturated_target(self):
        # the only contact saturates, so target 1 is met exactly
        cfg = SimConfig(disease=disease(0.0), replicates=40, casual=NO_CASUAL)
        cal = calibrate_rho(solo_graph(), 1.0, cfg)
        assert isinstance(cal, CalibrationResult)
        assert cal.estimate.mean == 1.0
        assert cal.rho > 0.0

    def test_unreachable_target(self):
        # one resident contact caps secondary infections at 1
        cfg = SimConfig(disease=disease(0.0), replicates=40, casual=NO_CASUAL)
        with pytest.raises(NotBracketedError):
            calibrate_rho(solo_graph(), 3.0, cfg)

    @pytest.mark.parametrize("target", [math.inf, 1e308])
    def test_unbounded_target(self, target):
        # target * replicates has no integer round
        cfg = SimConfig(disease=disease(0.0), replicates=40, casual=NO_CASUAL)
        with pytest.raises(NotBracketedError, match="unreachable"):
            calibrate_rho(solo_graph(), target, cfg)

    def test_threshold_above_rho_max(self):
        # one-second visits: every replicate can infect the resident, but only at rho > RHO_MAX
        rows = [("p1", "la", d * DAY, d * DAY + 1) for d in range(3)]
        g = make_graph(rows, {"p1": "g1"}, {"la": "s"})
        cfg = SimConfig(disease=disease(0.0), replicates=40, casual=NO_CASUAL)
        _, least = ContactSchedule(g).seed_thresholds(cfg)
        assert len(least) == cfg.replicates and least.max() > RHO_MAX
        with pytest.raises(NotBracketedError, match="unreachable"):
            calibrate_rho(g, 1.0, cfg)

    def test_negative_target(self):
        cfg = SimConfig(disease=disease(0.0), replicates=10)
        with pytest.raises(ConfigError):
            calibrate_rho(solo_graph(), -1.0, cfg)

    def test_nan_target(self, monkeypatch):
        monkeypatch.setattr(corn.episim, "_seed_thresholds", None)  # rejected before any run
        cfg = SimConfig(disease=disease(0.0), replicates=10)
        with pytest.raises(ConfigError):
            calibrate_rho(solo_graph(), math.nan, cfg)

    def test_schedule_in_place_of_its_log(self, monkeypatch):
        cfg = SimConfig(disease=disease(0.0), replicates=200, casual=NO_CASUAL)
        want = calibrate_rho(solo_graph(), 0.5, cfg)
        sched = ContactSchedule(solo_graph())
        monkeypatch.setattr(corn.episim, "build_contact_schedule", None)  # nothing is rebuilt
        assert calibrate_rho(sched, 0.5, cfg) == want

    def test_one_threshold_pass(self, monkeypatch):
        calls = []
        seed_thresholds = corn.episim._seed_thresholds

        def counted(sched, cfg, horizon, rep):
            calls.append((sched, rep))
            return seed_thresholds(sched, cfg, horizon, rep)

        monkeypatch.setattr(corn.episim, "_seed_thresholds", counted)
        cfg = SimConfig(disease=disease(0.0), replicates=200, casual=NO_CASUAL)
        mine = ContactSchedule(solo_graph())
        cal = calibrate_rho(mine, 0.5, cfg)
        # each replicate once, on the schedule calibrate_rho was given
        assert sorted(rep for _, rep in calls) == list(range(cfg.replicates))
        assert all(sched is mine for sched, _ in calls)
        assert cal.estimate == estimate_r0(ContactSchedule(solo_graph()), cal.rho, cfg)


def fake_summary(label, counts):
    results = tuple(
        ReplicateResult(replicate=i, seed_agent="p1", infections=c,
                        infections_excl_seed=c - 1, leave=None, reach=None)
        for i, c in enumerate(counts)
    )
    return SimSummary(label=label, results=results,
                      aggregates={"infections_mean": float(np.mean(counts))},
                      config={})


class TestCompare:
    def test_identical_runs(self):
        a = fake_summary("a", [2, 3, 4, 5])
        b = fake_summary("b", [2, 3, 4, 5])
        rep = compare_runs([a, b])
        d = rep.diffs[0]
        assert d["mean_diff"] == 0.0
        assert d["ci95_low"] == 0.0 and d["ci95_high"] == 0.0
        assert d["paired"] is True

    def test_constant_shift(self):
        a = fake_summary("a", [1, 2, 3, 4])
        b = fake_summary("b", [2, 3, 4, 5])
        d = compare_runs([a, b]).diffs[0]
        assert d["mean_diff"] == pytest.approx(1.0)
        assert d["ci95_low"] == pytest.approx(1.0)
        assert d["ci95_high"] == pytest.approx(1.0)

    def test_unpaired_lengths(self):
        a = fake_summary("a", [1, 2, 3, 4])
        b = fake_summary("b", [3, 3, 3])
        d = compare_runs([a, b], seed=1).diffs[0]
        assert d["paired"] is False
        assert d["mean_diff"] == pytest.approx(0.5)
        assert d["ci95_low"] <= d["mean_diff"] <= d["ci95_high"]

    def test_rows_echo_labels(self):
        rep = compare_runs([fake_summary("x", [1, 1])])
        assert rep.rows[0]["label"] == "x"
        assert rep.diffs == ()

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            compare_runs([])


class TestExports:
    def test_replicates_csv(self, tmp_path):
        g, c = two_bubble_graph()
        cfg = SimConfig(disease=disease(1000.0, cross_bubble_scale=1.0),
                        replicates=3, casual=NO_CASUAL)
        s = simulate(g, c, cfg)
        path = tmp_path / "r.csv"
        replicates_to_csv(s, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "replicate,infections,leave,reach"
        assert lines[1] == "0,4,true,true"
        assert len(lines) == 4

    def test_replicates_csv_blank_flags(self, tmp_path):
        cfg = SimConfig(disease=disease(0.0), replicates=2, casual=NO_CASUAL)
        s = simulate(solo_graph(), None, cfg)
        path = tmp_path / "r.csv"
        replicates_to_csv(s, path)
        assert path.read_text().splitlines()[1] == "0,1,,"

    def test_summary_json(self, tmp_path):
        cfg = SimConfig(disease=disease(0.0), replicates=2, casual=NO_CASUAL)
        s = simulate(solo_graph(), None, cfg, label="base")
        path = tmp_path / "s.json"
        summary_to_json(s, path)
        payload = json.loads(path.read_text())
        assert payload["label"] == "base"
        assert payload["aggregates"]["infections_mean"] == 1.0
        assert payload["config"]["replicates"] == 2


class TestWorkers:
    def test_thread_count_clamped_to_cores(self, monkeypatch):
        monkeypatch.setenv("CORN_THREADS", "100000")
        assert thread_count() == (os.cpu_count() or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert thread_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert thread_count() == 1

    def test_thread_count_floor_and_default(self, monkeypatch):
        monkeypatch.setenv("CORN_THREADS", "0")
        assert thread_count() == 1
        monkeypatch.delenv("CORN_THREADS")
        assert thread_count() == 1

    def test_thread_count_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("CORN_THREADS", "two")
        with pytest.raises(ConfigError):
            thread_count()

    def test_run_replicates_serial(self, monkeypatch):
        monkeypatch.setenv("CORN_THREADS", "1")
        assert run_replicates(lambda rep: (rep, os.getpid()), 3) == \
            [(rep, os.getpid()) for rep in range(3)]

    def test_run_replicates_in_order_on_two_workers(self, monkeypatch):
        monkeypatch.setenv("CORN_THREADS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        scale = 10  # a closure reaches the workers through fork
        out = run_replicates(lambda rep: (rep * scale, os.getpid()), 7)
        assert [r for r, _ in out] == [rep * scale for rep in range(7)]
        assert os.getpid() not in {pid for _, pid in out}
