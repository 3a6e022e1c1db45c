"""Exact depth-first branch-and-bound over location-to-bubble assignments.

Locations are branched in descending incident-weight order. Bubble-index
symmetry is broken by only ever offering the open bubbles plus the first
empty one, cheapest attachment first, so the first dive is a greedy
cheapest-attachment descent; it runs before the clock is read. Nodes are
pruned by a combinatorial lower bound (committed cut + cheapest attachment
per unassigned location + a capacity argument over still-unassigned pairs)
and, on small instances, by an LP relaxation in the top three levels: at
most 4 nodes, once an incumbent exists.

Three invariants of the search let that bound read plain slices:
- Unassigned locations are a suffix. Locations are assigned in order, so at
  depth pos the unassigned ones are pos..n-1, and the unassigned pairs are
  those whose lower index is >= pos. Their ascending weights are tabled per
  depth once, for the capacity term.
- Open bubbles are a prefix. A new bubble is always the first empty one and
  bubbles empty in LIFO order, so the open ones are 0..opened-1 and the
  attachment costs of the unassigned locations are into[pos, pos:] -
  sum_in[pos][:opened, pos:].
- Float state is per depth. into[pos, v], v's weight from the prefix, is a
  row of cumsum(W); an assignment writes depth pos + 1's sum_in and cut
  from depth pos's, and backtracking subtracts nothing, so nothing drifts.
  sum_in[pos][b, v] adds a subsequence of into[pos, v]'s non-negative terms
  in order, and rounding is monotone, so no cut delta, attachment cost or
  bound is negative.

HCP-to-bubble assignment never affects the objective, so it is resolved
per leaf: a feasibility search per group over balanced counts and, when
the load-gap cap is finite, per-bubble load coverage.

Polished incumbents. Every accepted leaf is handed to a balance-preserving
local search (`_local_search`: best-improvement single moves and pairwise
swaps, after Kernighan & Lin 1970 and Fiduccia & Mattheyses 1982). It keeps
sizes in [flr, cap] and never joins a too-far pair; under a load-gap cap
its result is kept only if its HCPs can be assigned. Its cut, recomputed
from W, only lowers the cutoff that prunes nodes and admits leaves, to
min(incumbent, polished + 3*TOL), and the search still returns its own best
leaf. Without polishing, the last leaf the search accepts lies within TOL
of the optimum, so below polished + 2*TOL: it is still reached and
accepted, and from then on both searches hold the same incumbent. So the
same leaf, with the same objective bits, comes back from no more nodes,
unless two feasible cuts lie between TOL and 3*TOL apart. A timeout returns
the better of that leaf and the best polished partition.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..clustering import BubbleClustering, canonicalize, cut_value
from ..errors import CornError, check_nonnegative
from .model import TOL, ClusterInstance, IlpModel, balanced
from .simplex import STATUS_INFEASIBLE as LP_INFEASIBLE
from .simplex import STATUS_OPTIMAL as LP_OPTIMAL
from .simplex import solve_lp

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIMEOUT = "timeout"

# LP bounds run only on instances this small, and only in the top levels of the search
_LP_MAX_LOCATIONS = 15
_LP_DEPTH = 3


@dataclass(frozen=True)
class SolveResult:
    status: str
    clustering: BubbleClustering | None
    objective: float | None
    bound: float
    nodes: int
    runtime_s: float


def _assign_one_group(
    members: list[str],
    loads: dict[str, float],
    k: int,
    need: list[float],
) -> dict[str, int] | None:
    """Balanced assignment of one group covering per-bubble load needs."""
    flr, cl = balanced(len(members), k)
    order = sorted(members, key=lambda p: (-loads.get(p, 0.0), p))
    lvals = [loads.get(p, 0.0) for p in order]
    suffix = [0.0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + lvals[i]

    cnt = [0] * k
    load = [0.0] * k
    out: dict[str, int] = {}

    def feasible(i: int) -> bool:
        rest = len(order) - i
        if sum(max(0, flr - c) for c in cnt) > rest:
            return False
        if sum(max(0.0, need[b] - load[b]) for b in range(k)) > suffix[i] + TOL:
            return False
        return True

    def rec(i: int) -> bool:
        if i == len(order):
            return all(cnt[b] >= flr and load[b] >= need[b] - TOL for b in range(k))
        tried: set[tuple[int, float, float]] = set()
        for b in range(k):
            if cnt[b] >= cl:
                continue
            state = (cnt[b], load[b], need[b])
            if state in tried:  # symmetric bubble, same subtree
                continue
            tried.add(state)
            cnt[b] += 1
            load[b] += lvals[i]
            out[order[i]] = b + 1
            if feasible(i + 1) and rec(i + 1):
                return True
            del out[order[i]]
            cnt[b] -= 1
            load[b] -= lvals[i]
        return False

    if not feasible(0) or not rec(0):
        return None
    return out


def _assign_groups(inst: ClusterInstance, bubble_locs: list[list[str]]) -> dict[str, int] | None:
    need = [inst.load_need(locs) for locs in bubble_locs]
    loads = inst.loads.loads if inst.loads is not None else {}
    combined: dict[str, int] = {}
    for lab in inst.groups:
        members = list(inst.hcps.members(lab))
        got = _assign_one_group(members, loads, inst.k, need)
        if got is None:
            return None
        combined.update(got)
    return combined


def _local_search(
    W: np.ndarray, far: np.ndarray, bub: np.ndarray, k: int, flr: int, cap: int
) -> np.ndarray:
    """Bubble index per location after best-improvement moves and swaps.

    Each step takes the feasible single move or pairwise swap that lowers
    the cut most, while that is by more than TOL. A move keeps every size
    in [flr, cap]; neither kind puts a too-far pair in one bubble.
    """
    n = bub.size
    bub = bub.copy()
    ar = np.arange(n)
    far = far.astype(np.int64)
    s = np.zeros((k, n))  # s[b, u]: u's weight into bubble b
    np.add.at(s, bub, W)
    f = np.zeros((k, n), dtype=np.int64)  # f[b, u]: locations of b too far from u
    np.add.at(f, bub, far)
    size = np.bincount(bub, minlength=k)

    def move(u: int, b: int) -> None:
        a = bub[u]
        s[a] -= W[u]
        s[b] += W[u]
        f[a] -= far[u]
        f[b] += far[u]
        size[a] -= 1
        size[b] += 1
        bub[u] = b

    while True:
        gain = s - s[bub, ar]  # gain[b, u]: cut saved by moving u into b
        ok = (f == 0) & (size < cap)[:, None] & (size > flr)[bub]
        moves = np.where(ok, gain, -np.inf)
        m = int(moves.argmax())
        # swap u and v: each moves into the other's bubble, and their own edge stays cut
        g = gain[bub]  # g[v, u]: gain of moving u into v's bubble
        fv = f[bub] - far  # fv[v, u]: locations of v's bubble other than v too far from u
        ok = (fv == 0) & (fv.T == 0) & (bub[:, None] != bub)
        swaps = np.where(ok, g + g.T - 2.0 * W, -np.inf)
        p = int(swaps.argmax())
        best = max(moves.flat[m], swaps.flat[p])
        if best <= TOL:
            return bub
        if moves.flat[m] == best:
            b, u = divmod(m, n)
            move(u, b)
        else:
            v, u = divmod(p, n)
            a = bub[u]
            move(u, bub[v])
            move(v, a)


class _Search:
    def __init__(self, inst: ClusterInstance):
        self.inst = inst
        self.K = inst.k
        locs = inst.locations
        incident = {l: 0.0 for l in locs}
        for a, b in inst.weights.pairs():
            w = inst.weights.get(a, b)
            incident[a] += w
            incident[b] += w
        self.order = sorted(locs, key=lambda l: (-incident[l], l))
        self.n = len(self.order)
        self.idx = {l: i for i, l in enumerate(self.order)}
        self.W = np.zeros((self.n, self.n))
        for a, b in inst.weights.pairs():
            i, j = self.idx[a], self.idx[b]
            self.W[i, j] = self.W[j, i] = inst.weights.get(a, b)
        self.far = np.zeros((self.n, self.n), dtype=bool)
        for a, b in inst.far_pairs():
            i, j = self.idx[a], self.idx[b]
            self.far[i, j] = self.far[j, i] = True
        self.conflicts = [(int(i), int(j)) for i, j in np.argwhere(np.triu(self.far))]
        self.flr, self.cap = balanced(self.n, self.K)
        ii, jj = np.triu_indices(self.n, 1)
        pos = self.W[ii, jj] > 0.0
        ws = self.W[ii, jj][pos]
        asc = np.argsort(ws, kind="stable")
        self.pair_w = ws[asc]
        self.pair_i = ii[pos][asc]
        self.pair_j = jj[pos][asc]
        # free_w[pos]: weights of the pairs with both ends unassigned at depth pos
        self.free_w = [self.pair_w[self.pair_i >= p] for p in range(self.n + 1)]

        self.size = [0] * self.K
        self.members: list[list[int]] = [[] for _ in range(self.K)]
        # per depth pos: v's weight from 0..pos-1, and from bubble b; the committed cut
        self.into = np.vstack([np.zeros(self.n), np.cumsum(self.W, axis=0)])
        self.sum_in = np.zeros((self.n + 1, self.K, self.n))
        self.cut = [0.0] * (self.n + 1)
        self.opened = 0
        self.deficit = self.K * self.flr  # locations the floors still need

        self.incumbent = math.inf
        self.best: BubbleClustering | None = None
        self.polished = math.inf  # the best polished cut, from W
        self.polished_best: BubbleClustering | None = None
        self.cutoff = math.inf  # nodes and leaves at or above cutoff - TOL are dropped
        self.nodes = 0
        self.timed_out = False
        self.frontier_bound = math.inf
        self.deadline: float | None = None
        self.use_lp = self.n <= _LP_MAX_LOCATIONS
        self.hcp_needed = math.isfinite(inst.y_star_h) and bool(inst.groups)

    # -- assignment bookkeeping: u is always the depth pos, so slot pos + 1 is u's

    def _assign(self, u: int, b: int) -> None:
        if self.size[b] == 0:
            self.opened += 1
        if self.size[b] < self.flr:
            self.deficit -= 1
        self.size[b] += 1
        self.members[b].append(u)
        nxt = self.sum_in[u + 1]
        nxt[:] = self.sum_in[u]
        nxt[b] += self.W[u]
        self.cut[u + 1] = self.cut[u] + (self.into.item(u, u) - self.sum_in.item(u, b, u))

    def _unassign(self, b: int) -> None:
        self.members[b].pop()
        self.size[b] -= 1
        if self.size[b] < self.flr:
            self.deficit += 1
        if self.size[b] == 0:
            self.opened -= 1

    def _diameter_ok(self, u: int, b: int) -> bool:
        return not self.conflicts or not self.far[u, self.members[b]].any()

    def _floors_ok(self, remaining: int) -> bool:
        return self.deficit <= remaining

    # -- bounds

    def _comb_bound(self, pos: int) -> float:
        if pos == self.n:
            return self.cut[pos]
        attach = 0.0
        if self.opened:
            t = self.into[pos, pos:]
            roomy = [b for b in range(self.opened) if self.size[b] < self.cap]
            if roomy:
                # rounding is monotone, so t - max(s) is the min over bubbles of t - s
                rows = slice(0, self.opened) if len(roomy) == self.opened else roomy
                best = t - self.sum_in[pos][rows, pos:].max(axis=0)
                if self.opened < self.K:
                    np.minimum(best, t, out=best)
            else:  # every open bubble is full, so an empty one remains
                best = t
            attach = float(best.sum())

        left = self.n - pos
        slots = 0
        for s in sorted(self.size):
            take = min(self.cap - s, left)
            slots += take * (take - 1) // 2
            left -= take
        ws = self.free_w[pos]
        spill = ws.size - slots
        pairs = float(ws[: spill].sum()) if spill > 0 else 0.0
        return self.cut[pos] + attach + pairs

    def _lp_bound(self, pos: int) -> float | None:
        """LP relaxation over e and x; returns a bound or None if infeasible."""
        ne = self.pair_w.size
        nx = self.n * self.K
        nv = ne + nx

        def xv(i: int, k: int) -> int:
            return ne + i * self.K + k

        c = np.concatenate([self.pair_w, np.zeros(nx)])
        ub_rows: list[np.ndarray] = []
        ub_rhs: list[float] = []
        eq_rows: list[np.ndarray] = []
        eq_rhs: list[float] = []

        for t, (i, j) in enumerate(zip(self.pair_i, self.pair_j)):
            for k in range(self.K):
                row = np.zeros(nv)
                row[t] = -1.0
                row[xv(i, k)] = 1.0
                row[xv(j, k)] = -1.0
                ub_rows.append(row)
                ub_rhs.append(0.0)
                row2 = np.zeros(nv)
                row2[t] = -1.0
                row2[xv(i, k)] = -1.0
                row2[xv(j, k)] = 1.0
                ub_rows.append(row2)
                ub_rhs.append(0.0)
        for i, j in self.conflicts:
            for k in range(self.K):
                row = np.zeros(nv)
                row[xv(i, k)] = 1.0
                row[xv(j, k)] = 1.0
                ub_rows.append(row)
                ub_rhs.append(1.0)
        for i in range(self.n):
            row = np.zeros(nv)
            for k in range(self.K):
                row[xv(i, k)] = 1.0
            eq_rows.append(row)
            eq_rhs.append(1.0)
        for k in range(self.K):
            row = np.zeros(nv)
            for i in range(self.n):
                row[xv(i, k)] = 1.0
            ub_rows.append(row)
            ub_rhs.append(float(self.cap))
            ub_rows.append(-row)
            ub_rhs.append(-float(self.flr))
        bubble = {u: b for b in range(self.K) for u in self.members[b]}
        for i in range(pos):
            row = np.zeros(nv)
            row[xv(i, bubble[i])] = 1.0
            eq_rows.append(row)
            eq_rhs.append(1.0)

        res = solve_lp(
            c,
            a_ub=np.array(ub_rows),
            b_ub=np.array(ub_rhs),
            a_eq=np.array(eq_rows),
            b_eq=np.array(eq_rhs),
        )
        if res.status == LP_INFEASIBLE:
            return None
        if res.status != LP_OPTIMAL:
            return self.cut[pos]
        return res.value

    # -- leaf handling

    def _clustering(self, members: list[list[int]]) -> BubbleClustering | None:
        """The partition with an HCP assignment, or None if no assignment exists."""
        bubble_locs = [[self.order[u] for u in m] for m in members]
        if any(not locs for locs in bubble_locs):
            return None
        if self.hcp_needed:
            hcp = _assign_groups(self.inst, bubble_locs)
            if hcp is None:
                return None
        else:
            hcp = {}
            for lab in self.inst.groups:
                for i, p in enumerate(sorted(self.inst.hcps.members(lab))):
                    hcp[p] = (i % self.K) + 1
        return BubbleClustering(
            k=self.K,
            location_bubble={
                loc: b + 1 for b, locs in enumerate(bubble_locs) for loc in locs
            },
            hcp_bubble=hcp,
        )

    def _close_leaf(self) -> None:
        if self.cut[self.n] >= self.cutoff - TOL:
            return
        best = self._clustering(self.members)
        if best is None:
            return
        self.incumbent, self.best = self.cut[self.n], best
        self._polish()
        self.cutoff = min(self.incumbent, self.polished + 3 * TOL)

    def _polish(self) -> None:
        """Local search from the current leaf; keeps the best polished partition."""
        bub = np.empty(self.n, dtype=np.intp)
        for b, m in enumerate(self.members):
            bub[m] = b
        bub = _local_search(self.W, self.far, bub, self.K, self.flr, self.cap)
        cut = float(self.W[bub[:, None] != bub].sum()) / 2
        if cut >= self.polished:
            return
        found = self._clustering([np.flatnonzero(bub == b).tolist() for b in range(self.K)])
        if found is not None:
            self.polished, self.polished_best = cut, found

    def _dfs(self, pos: int) -> None:
        if self.timed_out:
            return
        # the clock is read only after the first dive's n + 1 nodes, so a timeout
        # returns a clustering whenever that dive finds one
        if self.deadline is not None and self.nodes > self.n and time.monotonic() > self.deadline:
            self.timed_out = True
            self.frontier_bound = min(self.frontier_bound, self._comb_bound(pos))
            return
        self.nodes += 1
        if pos == self.n:
            self._close_leaf()
            return
        bound = self._comb_bound(pos)
        if bound >= self.cutoff - TOL:
            return
        if self.use_lp and pos < _LP_DEPTH and math.isfinite(self.incumbent):
            lp = self._lp_bound(pos)
            if lp is None:
                return
            if lp >= self.cutoff - TOL:
                return

        u = pos
        t = self.into.item(pos, u)
        s_in = self.sum_in[pos][: self.opened, u].tolist()
        cands = [(t - s_in[b], self.size[b], b) for b in range(self.opened)
                 if self.size[b] < self.cap]
        if self.opened < self.K:
            cands.append((t, 0, self.opened))  # the first empty bubble
        # an empty bubble ties with the open ones u has no weight into, and wins,
        # so ties spread over bubbles instead of packing the first one
        cands.sort()
        for _, _, b in cands:
            if not self._diameter_ok(u, b):
                continue
            self._assign(u, b)
            if self._floors_ok(self.n - pos - 1):
                self._dfs(pos + 1)
            self._unassign(b)
            if self.timed_out:
                # unexplored siblings cannot be claimed solved
                self.frontier_bound = min(self.frontier_bound, self._comb_bound(pos))
                return


def _finished(c: BubbleClustering, inst: ClusterInstance) -> BubbleClustering:
    """Canonical numbering, with the cut recomputed from the instance's weights."""
    c = canonicalize(c)
    return BubbleClustering(c.k, c.location_bubble, c.hcp_bubble, cut_value(c, inst.weights))


def solve(model: IlpModel, time_limit_s: float | None = None) -> SolveResult:
    """Exact, deterministic solve; a timeout reports the best bound reached.

    A clustering that fails verify_clustering raises CornError, never returns.
    """
    check_nonnegative(time_limit_s=time_limit_s)
    inst = model.instance
    inst.check()
    t0 = time.monotonic()
    s = _Search(inst)
    if time_limit_s is not None:
        s.deadline = t0 + time_limit_s
    s._dfs(0)
    runtime = time.monotonic() - t0

    best = _finished(s.best, inst) if s.best is not None else None
    if s.timed_out and s.polished_best is not None:
        polished = _finished(s.polished_best, inst)
        if polished.objective_value < best.objective_value:
            best = polished
    bad = verify_clustering(best, inst) if best is not None else []
    if bad:
        raise CornError(f"solver output failed verification at k={inst.k}: {bad}")
    obj = best.objective_value if best is not None else None

    if s.timed_out:
        bound = min(s.frontier_bound, obj if obj is not None else math.inf)
        return SolveResult(STATUS_TIMEOUT, best, obj, bound, s.nodes, runtime)
    if best is None:
        return SolveResult(STATUS_INFEASIBLE, None, None, math.inf, s.nodes, runtime)
    return SolveResult(STATUS_OPTIMAL, best, obj, obj, s.nodes, runtime)


def verify_clustering(c: BubbleClustering, inst: ClusterInstance) -> list[str]:
    """Re-check every feasibility rule directly against the raw inputs."""
    inst.check()
    problems: list[str] = []
    locs = set(inst.locations)
    if set(c.location_bubble) != locs:
        problems.append("location coverage differs from the substitutable set")
    K = c.k
    if K != inst.k:
        problems.append(f"clustering k={c.k} differs from instance k={inst.k}")
    flr, cl = balanced(len(inst.locations), K)
    for b in range(1, K + 1):
        group = c.locations_in(b)
        if not flr <= len(group) <= cl:
            problems.append(f"bubble {b} holds {len(group)} locations, outside [{flr},{cl}]")
        if not group:
            problems.append(f"bubble {b} is empty")
        for i, a in enumerate(group):
            for bb in group[i + 1:]:
                if inst.too_far(a, bb):
                    problems.append(
                        f"bubble {b}: dist({a},{bb})={inst.distance(a, bb):g} "
                        f"exceeds cap {inst.d_star_m:g}")
    subs = set(inst.hcps.substitutable)
    if set(c.hcp_bubble) != subs:
        problems.append("HCP coverage differs from the substitutable set")
    for lab in inst.groups:
        members = inst.hcps.members(lab)
        gf, gc = balanced(len(members), K)
        for b in range(1, K + 1):
            size = sum(1 for p in members if c.hcp_bubble.get(p) == b)
            if not gf <= size <= gc:
                problems.append(f"group {lab} bubble {b}: {size} members outside [{gf},{gc}]")
    if math.isfinite(inst.y_star_h):
        for b in range(1, K + 1):
            need = inst.load_need(c.locations_in(b))
            for lab in inst.groups:
                load = sum(
                    inst.loads.loads.get(p, 0.0)
                    for p in inst.hcps.members(lab)
                    if c.hcp_bubble.get(p) == b
                )
                if load < need - TOL:
                    problems.append(
                        f"bubble {b} group {lab}: load {load:g} is below the {need:g} "
                        f"that cap {inst.y_star_h:g} requires")
    if c.objective_value is not None:
        recomputed = cut_value(c, inst.weights)
        if abs(recomputed - c.objective_value) > TOL:
            problems.append(
                f"objective {c.objective_value!r} != recomputed {recomputed!r}")
    return problems
