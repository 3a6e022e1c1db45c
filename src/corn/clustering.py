"""Bubble clustering result type shared by the optimizer, rewiring, and sims."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, is_integer, is_number
from .weights import WeightMatrix


@dataclass(frozen=True)
class BubbleClustering:
    """Assignment of substitutable locations and HCPs to bubbles 1..k."""

    k: int
    location_bubble: dict[str, int]
    hcp_bubble: dict[str, int]
    objective_value: float | None = None

    def locations_in(self, bubble: int) -> tuple[str, ...]:
        return tuple(sorted(l for l, b in self.location_bubble.items() if b == bubble))

    def check(self) -> None:
        for name, mapping in (("location", self.location_bubble), ("hcp", self.hcp_bubble)):
            for entity, b in mapping.items():
                if not 1 <= b <= self.k:
                    raise ParseError(f"{name} {entity!r} assigned to bubble {b}, k={self.k}")


def canonicalize(c: BubbleClustering) -> BubbleClustering:
    """Renumber bubbles so bubble 1 holds the lexicographically smallest location."""
    reps = {}
    for b in range(1, c.k + 1):
        locs = c.locations_in(b)
        reps[b] = locs[0] if locs else "￿"
    order = sorted(range(1, c.k + 1), key=lambda b: reps[b])
    remap = {old: new + 1 for new, old in enumerate(order)}
    return BubbleClustering(
        k=c.k,
        location_bubble={l: remap[b] for l, b in c.location_bubble.items()},
        hcp_bubble={h: remap[b] for h, b in c.hcp_bubble.items()},
        objective_value=c.objective_value,
    )


def cut_value(c: BubbleClustering, weights: WeightMatrix) -> float:
    """Sum of weights over separated pairs, iterated in lexicographic order.

    Both the solver and the brute-force oracle report this recomputed value,
    never their internal accumulators.
    """
    total = 0.0
    lb = c.location_bubble
    for a, b in weights.pairs():
        if a in lb and b in lb and lb[a] != lb[b]:
            total += weights.w[(a, b)]
    return total


def save_clustering(c: BubbleClustering, path: str | Path) -> None:
    payload = {
        "k": c.k,
        "location_bubble": dict(sorted(c.location_bubble.items())),
        "hcp_bubble": dict(sorted(c.hcp_bubble.items())),
        "objective_value": c.objective_value,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_clustering(path: str | Path) -> BubbleClustering:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        k, loc_b, hcp_b = raw["k"], raw["location_bubble"], raw["hcp_bubble"]
        bad = [v for v in (k, *loc_b.values(), *hcp_b.values()) if not is_integer(v)]
        obj = raw.get("objective_value")
        if obj is not None and not is_number(obj):
            raise ParseError(f"{path}: objective_value {obj!r} is not a number")
        c = BubbleClustering(
            k=k,
            location_bubble={str(l): b for l, b in loc_b.items()},
            hcp_bubble={str(h): b for h, b in hcp_b.items()},
            objective_value=None if obj is None else float(obj),
        )
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if bad:
        raise ParseError(f"{path}: k or bubble index {bad[0]!r} is not an integer")
    c.check()
    if c.objective_value is not None and not math.isfinite(c.objective_value):
        raise ParseError(f"{path}: non-finite objective_value")
    return c
