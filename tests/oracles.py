"""Independent reference computations that only the tests use.

mc_directed_weight samples the pickup/deposit process that weight_matrix
computes in closed form; contact_infection_prob is the per-contact
infection rule that the outbreak kernel applies to whole days at once.
"""

from __future__ import annotations

import numpy as np

from corn.errors import ConfigError
from corn.model import VisitGraph
from corn.weights import _event_sequence


def mc_directed_weight(
    g: VisitGraph, src: str, dst: str, z: float, samples: int, seed: int
) -> float:
    """Monte Carlo estimate of the directed weight (standard error <= 0.5/sqrt(n))."""
    if src == dst:
        raise ConfigError("src and dst must differ")
    events = _event_sequence(g, src, dst)
    if not events:
        return 0.0
    rng = np.random.default_rng(seed)
    hcps = sorted({h for _, h in events})
    hidx = {h: i for i, h in enumerate(hcps)}
    infected = np.zeros((samples, len(hcps)), dtype=bool)
    dst_infected = np.zeros(samples, dtype=bool)
    for side, h in events:
        coin = rng.random(samples) < z
        hi = hidx[h]
        if side == 0:
            infected[:, hi] |= coin
        else:
            pre_h = infected[:, hi].copy()
            pre_dst = dst_infected.copy()
            dst_infected |= pre_h & coin
            infected[:, hi] |= pre_dst & coin
    return float(dst_infected.mean())


def contact_infection_prob(d_minutes: float, beta: float, rho: float) -> float:
    if d_minutes < 0:
        raise ConfigError("contact duration must be >= 0")
    return min(1.0, rho * d_minutes * beta)
