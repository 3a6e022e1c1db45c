from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corn.errors import ParseError, ValidationError
from corn.model import (
    HcpRoster,
    LocationRoster,
    Visit,
    VisitGraph,
    Violation,
    chop_visit,
    compute_loads_demands,
    load_hcp_roster,
    load_location_roster,
    load_mobility_log,
    read_mobility_log,
    validate,
    write_hcp_roster,
    write_location_roster,
    write_mobility_log,
)

from .conftest import chop_graph, make_graph
from .test_pinned_rewiring import _facility


def write_inputs(tmp_path, visit_rows, hcp_types, loc_kinds):
    hcps = tmp_path / "hcps.csv"
    locs = tmp_path / "locations.csv"
    visits = tmp_path / "visits.csv"
    hcps.write_text("hcp_id,type\n" + "".join(f"{h},{t}\n" for h, t in hcp_types.items()))
    locs.write_text("location_id,kind\n" + "".join(f"{l},{k}\n" for l, k in loc_kinds.items()))
    visits.write_text("hcp_id,location_id,start_s,end_s\n"
                      + "".join(f"{h},{l},{s},{e}\n" for h, l, s, e in visit_rows))
    return hcps, locs, visits


class TestLoading:
    def test_empty_visits_file(self, tmp_path):
        hcps, locs, visits = write_inputs(tmp_path, [], {"p1": "g1"}, {"l1": "s"})
        g = load_mobility_log(visits, load_hcp_roster(hcps), load_location_roster(locs))
        assert g.visits == ()

    def test_single_row(self, tmp_path):
        hcps, locs, visits = write_inputs(tmp_path, [("p1", "l1", 0, 60)],
                                          {"p1": "g1"}, {"l1": "s"})
        g = load_mobility_log(visits, load_hcp_roster(hcps), load_location_roster(locs))
        assert g.visits == (Visit(0, 60, "p1", "l1"),)

    def test_overlap_rejected(self, tmp_path):
        rows = [("p1", "l1", 0, 60), ("p1", "l2", 30, 90)]
        hcps, locs, visits = write_inputs(tmp_path, rows, {"p1": "g1"},
                                          {"l1": "s", "l2": "s"})
        with pytest.raises(ValidationError, match="overlap"):
            load_mobility_log(visits, load_hcp_roster(hcps), load_location_roster(locs))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_hcp_roster(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("wrong,header\n")
        with pytest.raises(ParseError, match="header"):
            load_hcp_roster(p)

    def test_bad_timestamp(self, tmp_path):
        hcps, locs, visits = write_inputs(tmp_path, [("p1", "l1", "x", 60)],
                                          {"p1": "g1"}, {"l1": "s"})
        with pytest.raises(ParseError, match="timestamp"):
            load_mobility_log(visits, load_hcp_roster(hcps), load_location_roster(locs))

    def test_roundtrip(self, tmp_path):
        g = make_graph([("p1", "l1", 0, 3600), ("p2", "l2", 100, 200)],
                       {"p1": "g1", "p2": "ns"}, {"l1": "s", "l2": "ns"})
        write_hcp_roster(g.hcps, tmp_path / "h.csv")
        write_location_roster(g.locations, tmp_path / "l.csv")
        write_mobility_log(g, tmp_path / "v.csv")
        h2 = load_hcp_roster(tmp_path / "h.csv")
        l2 = load_location_roster(tmp_path / "l.csv")
        g2 = load_mobility_log(tmp_path / "v.csv", h2, l2)
        assert g2 == g


class TestValidate:
    def test_clean(self):
        g = make_graph([("p1", "l1", 0, 60), ("p1", "l2", 60, 120)],
                       {"p1": "g1"}, {"l1": "s", "l2": "s"})
        assert validate(g) == []

    def test_overlap_listed(self):
        g = make_graph([("p1", "l1", 0, 60), ("p1", "l2", 30, 90)],
                       {"p1": "g1"}, {"l1": "s", "l2": "s"})
        rules = [v.rule for v in validate(g)]
        assert rules == ["overlap"]

    def test_unknown_ids(self):
        g = make_graph([("p9", "l9", 0, 60)], {"p1": "g1"}, {"l1": "s"})
        rules = {v.rule for v in validate(g)}
        assert rules == {"unknown-hcp", "unknown-location"}

    def test_empty_interval(self):
        g = make_graph([("p1", "l1", 60, 60)], {"p1": "g1"}, {"l1": "s"})
        assert [v.rule for v in validate(g)] == ["empty-interval"]

    def test_read_does_not_raise(self, tmp_path):
        rows = [("p1", "l1", 0, 60), ("p1", "l2", 30, 90)]
        hcps, locs, visits = write_inputs(tmp_path, rows, {"p1": "g1"},
                                          {"l1": "s", "l2": "s"})
        g = read_mobility_log(visits, load_hcp_roster(hcps), load_location_roster(locs))
        assert len(validate(g)) == 1

    def test_ltcf_overlap_without_visit_lt(self, monkeypatch):
        """The per-HCP sort compares a key, so Visit.__lt__ is never called."""
        _, g, _ = _facility("ltcf")
        assert validate(g) == []
        v = next(v for v in g.visits if v.duration_s >= 2)
        other = next(l for l in g.locations.ids if l != v.location)
        inside = Visit(v.start_s + 1, v.end_s - 1, v.hcp, other)
        g2 = VisitGraph.build(g.hcps, g.locations, [*g.visits, inside])

        def refuse(*_):
            raise AssertionError("Visit.__lt__ called")

        monkeypatch.setattr(Visit, "__lt__", refuse)
        assert validate(g2) == [Violation(
            "overlap", v.hcp,
            f"[{v.start_s},{v.end_s}) at {v.location} overlaps "
            f"[{inside.start_s},{inside.end_s}) at {other}")]


class TestLoadsDemands:
    def test_single_two_hour_visit(self):
        g = make_graph([("p1", "l1", 0, 7200)], {"p1": "g1"}, {"l1": "s"})
        t = compute_loads_demands(g)
        assert t.loads["p1"] == pytest.approx(2.0)
        assert t.demands["l1"] == pytest.approx(2.0)

    def test_empty_graph(self):
        g = make_graph([], {"p1": "g1"}, {"l1": "s"})
        t = compute_loads_demands(g)
        assert t.loads == {"p1": 0.0}
        assert t.demands == {"l1": 0.0}

    def test_normalized_by_days(self):
        # same 2h visit, but the log spans 2 days
        g = make_graph([("p1", "l1", 0, 7200), ("p1", "l1", 90000, 90060)],
                       {"p1": "g1"}, {"l1": "s"})
        t = compute_loads_demands(g)
        assert g.day_count == 2
        assert t.loads["p1"] == pytest.approx((7200 + 60) / 3600 / 2)

    @given(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 10000), st.integers(1, 500)),
        max_size=20))
    def test_total_load_equals_total_demand(self, raw):
        # overlaps don't matter for the conservation identity
        rows = [(f"p{h}", f"l{l}", s, s + d) for h, l, s, d in raw]
        g = make_graph(rows, {f"p{i}": "g1" for i in range(4)},
                       {f"l{i}": "s" for i in range(4)})
        t = compute_loads_demands(g)
        assert sum(t.loads.values()) == pytest.approx(sum(t.demands.values()))


class TestChop:
    def test_exact_division(self):
        assert [(v.start_s, v.end_s) for v in chop_visit(Visit(0, 180, "p", "l"), 60)] \
            == [(0, 60), (60, 120), (120, 180)]

    def test_boundary_fragment_stands_alone(self):
        # remainder exactly unit/2 is its own fragment
        assert [(v.start_s, v.end_s) for v in chop_visit(Visit(0, 90, "p", "l"), 60)] \
            == [(0, 60), (60, 90)]

    def test_short_fragment_merges_backward(self):
        assert [(v.start_s, v.end_s) for v in chop_visit(Visit(0, 80, "p", "l"), 60)] \
            == [(0, 80)]

    def test_lone_short_visit_kept(self):
        assert chop_visit(Visit(0, 30, "p", "l"), 60) == [Visit(0, 30, "p", "l")]

    def test_idempotent_when_short(self):
        g = make_graph([("p1", "l1", 0, 50), ("p1", "l2", 50, 110)],
                       {"p1": "g1"}, {"l1": "s", "l2": "s"})
        once = chop_graph(g, 60)
        assert chop_graph(once, 60) == once

    @given(st.lists(st.tuples(st.integers(0, 5000), st.integers(1, 700)), max_size=8),
           st.integers(30, 120))
    def test_chop_preserves_duration_and_disjointness(self, raw, unit):
        # build disjoint visits by stacking them end to end
        rows, t = [], 0
        for gap, dur in raw:
            t += gap
            rows.append(("p1", "l1", t, t + dur))
            t += dur
        g = make_graph(rows, {"p1": "g1"}, {"l1": "s"})
        chopped = chop_graph(g, unit)
        assert validate(chopped) == []
        assert sum(v.duration_s for v in chopped.visits) == sum(v.duration_s for v in g.visits)
        before = compute_loads_demands(g)
        after = compute_loads_demands(chopped)
        assert before.loads == after.loads
        assert before.demands == after.demands

    def test_fragment_union_covers_original(self):
        v = Visit(37, 401, "p", "l")
        frags = chop_visit(v, 60)
        assert frags[0].start_s == v.start_s and frags[-1].end_s == v.end_s
        for a, b in zip(frags, frags[1:]):
            assert a.end_s == b.start_s


class TestRosters:
    def test_group_labels_first_appearance_order(self):
        r = HcpRoster({"a": "g2", "b": "g1", "c": "g2", "d": "ns"})
        assert r.group_labels == ("g2", "g1")
        assert r.members("g2") == ("a", "c")
        assert r.non_substitutable == ("d",)

    def test_location_kinds(self):
        r = LocationRoster({"l1": "s", "l2": "ns"})
        assert r.substitutable == ("l1",)
        assert r.non_substitutable == ("l2",)

    def test_day_count(self):
        g = make_graph([("p1", "l1", 0, 86400)], {"p1": "g1"}, {"l1": "s"})
        assert g.day_count == 1
        g2 = make_graph([("p1", "l1", 0, 86401)], {"p1": "g1"}, {"l1": "s"})
        assert g2.day_count == 2
