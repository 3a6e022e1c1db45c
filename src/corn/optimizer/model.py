"""Binary-program formulation of the bubble partition problem.

Variables, all binary:
  e_{a}_{b}   pair (a, b) of substitutable locations ends up in different
              bubbles; created only for pairs that can affect the problem
              (positive weight, or distance above the diameter cap)
  x_{l}_{k}   location l belongs to bubble k
  z_{p}_{k}   substitutable HCP p is assigned to bubble k

Objective: minimize the total weight of separated pairs.

The feasibility rules live here once: `check_k` bounds the bubble count,
`balanced` gives the size floor and ceiling, `ClusterInstance.too_far`
the diameter cap and `ClusterInstance.load_need` the load-gap cap, the
caps with the tolerance TOL.
The search, brute force, verification and the exported rows read them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from ..errors import ConfigError, InvalidKError, check_nonnegative
from ..model import HcpRoster, LoadDemandTable
from ..spatial import DistanceMatrix
from ..weights import WeightMatrix

# absolute tolerance of every cap and objective comparison in the optimizer
TOL = 1e-9


def check_k(k: int, rooms: int, groups: Iterable[tuple[str, int]]) -> None:
    """k bubbles need k >= 1, and no more than the rooms or any (label, size) HCP group."""
    if k < 1:
        raise InvalidKError(f"k={k} must be at least 1")
    if k > rooms:
        raise InvalidKError(f"k={k} exceeds the {rooms} substitutable locations")
    for lab, size in groups:
        if k > size:
            raise InvalidKError(f"k={k} exceeds group {lab!r} of size {size}")


def balanced(count: int, k: int) -> tuple[int, int]:
    """Floor and ceiling of each bubble's share of count items over k bubbles."""
    return count // k, math.ceil(count / k)


@dataclass(frozen=True)
class ClusterInstance:
    """Everything needed to build or solve one partition problem."""

    weights: WeightMatrix
    hcps: HcpRoster
    k: int
    d_star_m: float = math.inf
    y_star_h: float = math.inf
    dist: DistanceMatrix | None = None
    loads: LoadDemandTable | None = None

    @property
    def locations(self) -> tuple[str, ...]:
        return self.weights.locations

    @property
    def groups(self) -> tuple[str, ...]:
        return self.hcps.group_labels

    def check(self) -> None:
        check_nonnegative(d_star_m=self.d_star_m, y_star_h=self.y_star_h)
        check_k(self.k, len(self.locations),
                [(lab, len(self.hcps.members(lab))) for lab in self.groups])
        if math.isfinite(self.d_star_m) and self.dist is None:
            raise ConfigError("finite diameter cap requires a distance matrix")
        if math.isfinite(self.y_star_h):
            if self.loads is None:
                raise ConfigError("finite load-gap cap requires loads and demands")
            missing = [l for l in self.locations if l not in self.loads.demands]
            if missing:
                raise ConfigError(f"no demand recorded for locations: {missing[:5]}")

    def distance(self, a: str, b: str) -> float:
        if self.dist is None:
            return 0.0
        return self.dist.get(a, b)

    def too_far(self, a: str, b: str) -> bool:
        """a and b may not share a bubble under the diameter cap."""
        return self.distance(a, b) > self.d_star_m + TOL

    def load_need(self, locs: Iterable[str]) -> float:
        """Load each HCP group must bring to a bubble holding locs."""
        if not math.isfinite(self.y_star_h):
            return 0.0
        return max(0.0, sum(self.loads.demands[l] for l in locs) - self.y_star_h)

    def far_pairs(self) -> tuple[tuple[str, str], ...]:
        """Location pairs farther apart than the diameter cap."""
        return tuple(
            (a, b) for a, b in itertools.combinations(self.locations, 2)
            if self.too_far(a, b)
        )

    def e_pairs(self) -> tuple[tuple[str, str], ...]:
        """Pairs that get an e variable: positive weight or over the cap."""
        return tuple(
            (a, b) for a, b in self.weights.pairs()
            if self.weights.get(a, b) > 0.0 or self.too_far(a, b)
        )


@dataclass(frozen=True)
class LinearConstraint:
    name: str
    coeffs: dict[str, float]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class IlpModel:
    instance: ClusterInstance
    variables: tuple[str, ...]
    objective: dict[str, float]
    constraints: tuple[LinearConstraint, ...]


def _evar(a: str, b: str) -> str:
    return f"e_{a}_{b}"


def _xvar(l: str, k: int) -> str:
    return f"x_{l}_{k}"


def _zvar(p: str, k: int) -> str:
    return f"z_{p}_{k}"


def build_model(inst: ClusterInstance) -> IlpModel:
    inst.check()
    pairs = inst.e_pairs()
    locs = inst.locations
    subs = inst.hcps.substitutable
    K = inst.k

    variables: list[str] = [_evar(a, b) for a, b in pairs]
    variables += [_xvar(l, k) for l in locs for k in range(1, K + 1)]
    variables += [_zvar(p, k) for p in subs for k in range(1, K + 1)]

    objective = {
        _evar(a, b): inst.weights.get(a, b)
        for a, b in pairs
        if inst.weights.get(a, b) > 0.0
    }

    rows: list[LinearConstraint] = []
    for a, b in pairs:
        e = _evar(a, b)
        for k in range(1, K + 1):
            xa, xb = _xvar(a, k), _xvar(b, k)
            rows.append(LinearConstraint(
                f"connect1_{a}_{b}_{k}",
                {e: 1.0, xa: -1.0, xb: 1.0}, ">=", 0.0))
            rows.append(LinearConstraint(
                f"connect2_{a}_{b}_{k}",
                {e: 1.0, xa: 1.0, xb: -1.0}, ">=", 0.0))

    for l in locs:
        rows.append(LinearConstraint(
            f"oneBubble_{l}",
            {_xvar(l, k): 1.0 for k in range(1, K + 1)}, "=", 1.0))

    flr, cap = balanced(len(locs), K)
    for k in range(1, K + 1):
        size = {_xvar(l, k): 1.0 for l in locs}
        rows.append(LinearConstraint(
            f"equalSizes_{k}", size, "<=", float(cap)))
        rows.append(LinearConstraint(
            f"equalSizes_{k}_floor", size, ">=", float(flr)))

    # the cap rows carry TOL, so they admit exactly what too_far and load_need do
    if math.isfinite(inst.d_star_m):
        for a, b in pairs:
            d = inst.distance(a, b)
            rows.append(LinearConstraint(
                f"diameter_{a}_{b}",
                {_evar(a, b): -d}, "<=", inst.d_star_m + TOL - d))
        # e = 1 alone does not split a pair, and pairs without weight have no
        # e: no bubble may hold two locations farther apart than the cap
        for a, b in inst.far_pairs():
            for k in range(1, K + 1):
                rows.append(LinearConstraint(
                    f"diameter_{a}_{b}_{k}",
                    {_xvar(a, k): 1.0, _xvar(b, k): 1.0}, "<=", 1.0))

    for lab in inst.groups:
        members = inst.hcps.members(lab)
        gflr, gcap = balanced(len(members), K)
        for k in range(1, K + 1):
            size = {_zvar(p, k): 1.0 for p in members}
            rows.append(LinearConstraint(
                f"hcpEqual_{lab}_{k}", size, "<=", float(gcap)))
            rows.append(LinearConstraint(
                f"hcpEqual_{lab}_{k}_floor", size, ">=", float(gflr)))

    for p in subs:
        rows.append(LinearConstraint(
            f"hcpExactlyOne_{p}",
            {_zvar(p, k): 1.0 for k in range(1, K + 1)}, "=", 1.0))

    if math.isfinite(inst.y_star_h):
        for lab in inst.groups:
            members = inst.hcps.members(lab)
            for k in range(1, K + 1):
                coeffs = {_xvar(l, k): inst.loads.demands[l] for l in locs}
                for p in members:
                    coeffs[_zvar(p, k)] = -inst.loads.loads.get(p, 0.0)
                rows.append(LinearConstraint(
                    f"boundLoad_{lab}_{k}", coeffs, "<=", inst.y_star_h + TOL))

    return IlpModel(
        instance=inst,
        variables=tuple(variables),
        objective=objective,
        constraints=tuple(rows),
    )
