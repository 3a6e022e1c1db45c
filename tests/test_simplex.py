"""solve_lp against HiGHS (scipy.optimize.linprog) on small LPs over x >= 0."""

from __future__ import annotations

import numpy as np
import pytest

from corn.optimizer import simplex
from corn.optimizer.simplex import solve_lp

linprog = pytest.importorskip("scipy.optimize").linprog

# linprog's status codes
_HIGHS_STATUS = {0: simplex.STATUS_OPTIMAL, 2: simplex.STATUS_INFEASIBLE,
                 3: simplex.STATUS_UNBOUNDED}


def assert_matches_highs(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> str:
    got = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    want = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
    assert got.status == _HIGHS_STATUS[want.status]
    if got.status == simplex.STATUS_OPTIMAL:
        assert got.value == pytest.approx(want.fun, abs=1e-7)
        assert got.value == pytest.approx(float(c @ got.x), abs=1e-12)
        assert (got.x >= -1e-9).all()
        if a_ub is not None:
            assert (a_ub @ got.x <= b_ub + 1e-7).all()
        if a_eq is not None:
            assert a_eq @ got.x == pytest.approx(b_eq, abs=1e-7)
    return got.status


def random_lp(rng: np.random.Generator, n_ge: int, n_eq: int):
    """A feasible LP, bounded by its last row sum(x) <= sum(x0) + 1, where x0 > 0
    satisfies every row. Its first n_ge rows are >= rows with a positive
    right-hand side, written as <= rows with a negative one."""
    n = int(rng.integers(2, 9))
    m = n_ge + int(rng.integers(1, 6))
    x0 = rng.uniform(0.1, 2.0, n)
    a = rng.uniform(-1.0, 1.0, (m, n))
    a[:n_ge] = -rng.uniform(0.1, 1.0, (n_ge, n))
    ax0 = a @ x0
    slack = rng.uniform(0.0, 1.0, m)
    slack[:n_ge] *= -0.5 * ax0[:n_ge]  # less than |a x0|, so the right-hand side stays < 0
    a_ub = np.vstack([a, np.ones(n)])
    b_ub = np.append(ax0 + slack, x0.sum() + 1.0)
    a_eq = rng.uniform(-1.0, 1.0, (n_eq, n)) if n_eq else None
    b_eq = a_eq @ x0 if n_eq else None
    return rng.uniform(-1.0, 1.0, n), a_ub, b_ub, a_eq, b_eq


class TestAgainstHighs:
    @pytest.mark.parametrize("seed", range(20))
    def test_le_rows(self, seed):
        c, a_ub, b_ub, _, _ = random_lp(np.random.default_rng([seed, 0]), n_ge=0, n_eq=0)
        assert assert_matches_highs(c, a_ub, b_ub) == simplex.STATUS_OPTIMAL

    @pytest.mark.parametrize("seed", range(20))
    def test_negative_rhs_rows(self, seed):
        c, a_ub, b_ub, _, _ = random_lp(np.random.default_rng([seed, 1]), n_ge=2, n_eq=0)
        assert (b_ub[:2] < 0).all()
        assert assert_matches_highs(c, a_ub, b_ub) == simplex.STATUS_OPTIMAL

    @pytest.mark.parametrize("seed", range(20))
    def test_eq_rows(self, seed):
        c, a_ub, b_ub, a_eq, b_eq = random_lp(np.random.default_rng([seed, 2]), n_ge=1, n_eq=2)
        assert assert_matches_highs(c, a_ub, b_ub, a_eq, b_eq) == simplex.STATUS_OPTIMAL

    def test_redundant_eq_rows(self):
        # the second copy of the row keeps an artificial basic at zero after phase 1
        a_eq = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
        b_eq = np.array([1.0, 1.0, 0.0])
        c = np.array([1.0, 2.0, 3.0])
        assert assert_matches_highs(c, a_eq=a_eq, b_eq=b_eq) == simplex.STATUS_OPTIMAL

    def test_infeasible(self):
        a_ub = np.array([[1.0, 1.0], [-1.0, -1.0]])
        b_ub = np.array([1.0, -3.0])  # x1 + x2 <= 1 and x1 + x2 >= 3
        assert assert_matches_highs(np.array([1.0, 1.0]), a_ub, b_ub) == simplex.STATUS_INFEASIBLE

    def test_infeasible_eq(self):
        a_eq = np.array([[1.0, 1.0], [1.0, 1.0]])
        b_eq = np.array([1.0, 2.0])
        assert assert_matches_highs(np.array([1.0, 0.0]), a_eq=a_eq, b_eq=b_eq) \
            == simplex.STATUS_INFEASIBLE

    def test_unbounded(self):
        a_ub = np.array([[1.0, -1.0]])
        b_ub = np.array([1.0])  # x1 - x2 <= 1, so x1 = x2 + 1 grows without end
        assert assert_matches_highs(np.array([-1.0, 0.0]), a_ub, b_ub) == simplex.STATUS_UNBOUNDED

    def test_degenerate_cycle_ends_through_bland(self, monkeypatch):
        """Beale's example cycles under largest-coefficient pricing: every pivot
        of the cycle is degenerate, so only the switch to Bland's rule ends it."""
        c = np.array([-0.75, 20.0, -0.5, 6.0])
        a_ub = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
        b_ub = np.array([0.0, 0.0, 1.0])
        objective_after = []
        pivot = simplex._pivot

        def traced(t, basis, row, col):
            pivot(t, basis, row, col)
            objective_after.append(t[-1, -1])

        monkeypatch.setattr(simplex, "_pivot", traced)
        assert assert_matches_highs(c, a_ub, b_ub) == simplex.STATUS_OPTIMAL
        # the tableau has 4 rows and 8 columns; more than 2 * (4 + 8) degenerate
        # pivots in a row is the stall that switches to Bland's rule
        stalled = next(i for i, v in enumerate(objective_after) if v != 0.0)
        assert stalled > 2 * (4 + 8)
