"""Dense two-phase simplex for the relaxation bounds used while branching.

Solves  min c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.
Upper bounds on variables must be supplied as explicit rows. Dantzig
pricing with a switch to Bland's rule after a stall, which guarantees
termination on degenerate bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TOL = 1e-9

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: str
    x: np.ndarray | None
    value: float | None


def _pivot(t: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    t[row] = t[row] / t[row, col]
    factors = t[:, col].copy()
    factors[row] = 0.0
    # a column where the pivot row is zero would only lose factors * 0
    nz = np.flatnonzero(t[row])
    t[:, nz] -= np.outer(factors, t[row, nz])
    basis[row] = col


def _iterate(t: np.ndarray, basis: np.ndarray, allowed: np.ndarray, max_iter: int) -> str:
    """Run simplex iterations on tableau t (last row objective, last col rhs)."""
    m = t.shape[0] - 1
    stall_limit = 2 * (t.shape[0] + t.shape[1])
    stall = 0
    last_obj = t[m, -1]
    for _ in range(max_iter):
        reduced = t[m, :-1]
        candidates = np.where(allowed & (reduced < -_TOL))[0]
        if candidates.size == 0:
            return STATUS_OPTIMAL
        if stall > stall_limit:
            col = int(candidates[0])  # Bland: smallest index
        else:
            col = int(candidates[np.argmin(reduced[candidates])])
        pos = t[:m, col] > _TOL
        if not pos.any():
            return STATUS_UNBOUNDED
        ratios = np.full(m, np.inf)
        ratios[pos] = t[:m, -1][pos] / t[:m, col][pos]
        best = ratios.min()
        ties = np.where(ratios <= best + _TOL)[0]
        row = int(ties[np.argmin(basis[ties])])
        _pivot(t, basis, row, col)
        if t[m, -1] < last_obj - _TOL:
            last_obj = t[m, -1]
            stall = 0
        else:
            stall += 1
    raise RuntimeError("simplex iteration limit hit")


def solve_lp(
    c: np.ndarray,
    a_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    a_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    max_iter: int = 20000,
) -> LpResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    senses: list[str] = []
    if a_ub is not None:
        for coeffs, b in zip(np.atleast_2d(np.asarray(a_ub, dtype=float)), np.asarray(b_ub, dtype=float)):
            if b < 0.0:
                rows.append(-coeffs)
                rhs.append(-b)
                senses.append(">=")
            else:
                rows.append(coeffs)
                rhs.append(float(b))
                senses.append("<=")
    if a_eq is not None:
        for coeffs, b in zip(np.atleast_2d(np.asarray(a_eq, dtype=float)), np.asarray(b_eq, dtype=float)):
            if b < 0.0:
                rows.append(-coeffs)
                rhs.append(-b)
            else:
                rows.append(coeffs)
                rhs.append(float(b))
            senses.append("=")
    m = len(rows)
    if m == 0:
        # unconstrained over x >= 0
        if (c < -_TOL).any():
            return LpResult(STATUS_UNBOUNDED, None, None)
        return LpResult(STATUS_OPTIMAL, np.zeros(n), 0.0)

    n_slack = sum(1 for s in senses if s == "<=")
    n_surplus = sum(1 for s in senses if s == ">=")
    n_art = sum(1 for s in senses if s in ("=", ">="))
    total = n + n_slack + n_surplus + n_art

    # column-major: a pivot updates whole columns, those where the pivot row is nonzero
    t = np.zeros((m + 1, total + 1), order="F")
    basis = np.zeros(m, dtype=int)
    i_slack = n
    i_surplus = n + n_slack
    i_art = n + n_slack + n_surplus
    art_cols = []
    for i, (coeffs, s) in enumerate(zip(rows, senses)):
        t[i, :n] = coeffs
        t[i, -1] = rhs[i]
        if s == "<=":
            t[i, i_slack] = 1.0
            basis[i] = i_slack
            i_slack += 1
        else:
            if s == ">=":
                t[i, i_surplus] = -1.0
                i_surplus += 1
            t[i, i_art] = 1.0
            basis[i] = i_art
            art_cols.append(i_art)
            i_art += 1

    art_cols = np.array(art_cols, dtype=int)
    allowed = np.ones(total, dtype=bool)

    if art_cols.size:
        # phase 1: minimize the sum of artificials
        t[m, :] = 0.0
        t[m, art_cols] = 1.0
        for i in range(m):
            if t[m, basis[i]] != 0.0:
                t[m] -= t[m, basis[i]] * t[i]
        status = _iterate(t, basis, allowed, max_iter)
        if status != STATUS_OPTIMAL or -t[m, -1] > 1e-7:
            return LpResult(STATUS_INFEASIBLE, None, None)
        art_set = set(art_cols.tolist())
        drop_rows = []
        for i in range(m):
            if basis[i] in art_set:
                pivots = np.where(np.abs(t[i, :total]) > _TOL)[0]
                pivots = [j for j in pivots if j not in art_set]
                if pivots:
                    _pivot(t, basis, i, int(pivots[0]))
                else:
                    drop_rows.append(i)
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            t = np.asfortranarray(np.vstack([t[keep], t[m:]]))
            basis = basis[keep]
            m = len(keep)
        allowed[art_cols] = False

    # phase 2: the real objective
    t[m, :] = 0.0
    t[m, :n] = c
    for i in range(m):
        if t[m, basis[i]] != 0.0:
            t[m] -= t[m, basis[i]] * t[i]
    status = _iterate(t, basis, allowed, max_iter)
    if status == STATUS_UNBOUNDED:
        return LpResult(STATUS_UNBOUNDED, None, None)
    x = np.zeros(total)
    x[basis] = t[:m, -1]
    xr = x[:n]
    return LpResult(STATUS_OPTIMAL, xr, float(c @ xr))
