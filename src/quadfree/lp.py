"""A small dense simplex for the cutting loop, with Bland's rule.

Solves  min cᵀs  subject to  A s ≤ b  with free variables (split into
positive parts, s = u − v).  ``optimal_tableau`` runs the two-phase
primal simplex from scratch; every pivot is one rank-1 update of the
dense tableau, and Bland's rule (first improving column, smallest basic
index among tied rows) rules out cycling.  The tableau it returns stays
dual feasible when a row is added, so ``Tableau.add_cut`` re-optimises
after a cut by dual simplex pivots (Lemke 1954) instead of solving again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleLPError, UnboundedLPError

_EPS = 1e-9


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    pivot_row = T[row].copy()
    T -= np.outer(T[:, col], pivot_row)
    T[row] = pivot_row
    basis[row] = col


def _reduced_costs(T, basis, cost):
    return cost[:-1] - cost[basis] @ T[:, :-1]


def _bland_loop(T, basis, cost):
    """Optimize the canonical tableau in place; Bland's rule throughout."""
    while True:
        improving = np.flatnonzero(_reduced_costs(T, basis, cost) < -_EPS)
        if improving.size == 0:
            return
        entering = improving[0]
        rows = np.flatnonzero(T[:, entering] > _EPS)
        if rows.size == 0:
            raise UnboundedLPError("no blocking row for the entering column")
        ratios = T[rows, -1] / T[rows, entering]
        # Bland tie-break: smallest basic variable index among the ties.
        ties = rows[ratios <= ratios.min() + _EPS]
        _pivot(T, basis, ties[np.argmin(basis[ties])], entering)


def _dual_loop(T, basis, cost):
    """Restore primal feasibility of a dual-feasible tableau in place.

    The leaving row is the infeasible one with the smallest basic index;
    the entering column has the least ratio of reduced cost to |T[row, j]|
    over T[row, j] < 0, ties going to the smallest j.
    """
    while True:
        infeasible = np.flatnonzero(T[:, -1] < -_EPS)
        if infeasible.size == 0:
            return
        row = infeasible[np.argmin(basis[infeasible])]
        cols = np.flatnonzero(T[row, :-1] < -_EPS)
        if cols.size == 0:
            raise InfeasibleLPError("a cut left the LP without a feasible point")
        ratios = _reduced_costs(T, basis, cost)[cols] / -T[row, cols]
        _pivot(T, basis, row, cols[np.argmin(ratios)])


@dataclass
class Tableau:
    """An optimal phase-2 tableau: rows B⁻¹[A_std | b] over the columns
    (u, v, slacks), the basic column of each row and each column's cost
    (with a trailing 0 for the right-hand side)."""

    T: np.ndarray
    basis: np.ndarray
    cost: np.ndarray
    p: int

    def vertex(self):
        """The basic solution (s*, cᵀs*)."""
        x_std = np.zeros(self.T.shape[1] - 1)
        x_std[self.basis] = self.T[:, -1]
        s = x_std[: self.p] - x_std[self.p : 2 * self.p]
        return s, float(self.cost[: self.p] @ s)

    def add_cut(self, coef, rhs):
        """Add the row coefᵀs ≤ rhs and re-optimise by dual simplex.

        The row gets a new slack column and enters reduced against the
        current basis, with its slack basic at rhs − coefᵀs*.  Raises
        ``InfeasibleLPError`` when no point satisfies the rows any more.
        """
        coef = np.asarray(coef, dtype=float).reshape(-1)
        k, width = self.T.shape
        T = np.zeros((k + 1, width + 1))
        T[:k, :-2], T[:k, -1] = self.T[:, :-1], self.T[:, -1]
        row = np.concatenate([coef, -coef, np.zeros(width - 1 - 2 * self.p), [1.0, rhs]])
        T[k] = row - row[self.basis] @ T[:k]
        self.T = T
        self.basis = np.append(self.basis, width - 1)
        self.cost = np.append(self.cost, 0.0)
        _dual_loop(self.T, self.basis, self.cost)


def optimal_tableau(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> Tableau:
    """Minimize cᵀs over {A s ≤ b} with s free by the two-phase simplex."""
    c = np.asarray(c, dtype=float).reshape(-1)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    n_rows, p = A.shape
    if c.shape != (p,):
        raise ValueError("objective/constraint dimensions disagree")

    # Standard form: [A, -A, I][u; v; slack] = b, all variables ≥ 0.
    A_std = np.hstack([A, -A, np.eye(n_rows)])
    b_std = b.copy()
    flip = b_std < 0.0
    A_std[flip] *= -1.0
    b_std[flip] *= -1.0
    n_std = A_std.shape[1]

    # Phase 1 with an all-artificial basis.
    T = np.hstack([A_std, np.eye(n_rows), b_std[:, None]])
    basis = np.arange(n_std, n_std + n_rows)
    cost1 = np.concatenate([np.zeros(n_std), np.ones(n_rows), [0.0]])
    _bland_loop(T, basis, cost1)
    if cost1[basis] @ T[:, -1] > 1e-7:
        raise InfeasibleLPError("phase 1 ended with positive artificial mass")

    # Drive residual artificials out of the basis (or drop dead rows).
    keep_rows = []
    for i in range(n_rows):
        if basis[i] >= n_std:
            pivot_cols = np.flatnonzero(np.abs(T[i, :n_std]) > _EPS)
            if pivot_cols.size == 0:
                continue  # redundant row
            _pivot(T, basis, i, pivot_cols[0])
        keep_rows.append(i)
    T = T[keep_rows][:, list(range(n_std)) + [-1]]
    basis = basis[keep_rows]

    cost2 = np.concatenate([c, -c, np.zeros(n_rows), [0.0]])
    _bland_loop(T, basis, cost2)
    return Tableau(T=T, basis=basis, cost=cost2, p=p)


def solve_lp(c: np.ndarray, A: np.ndarray, b: np.ndarray):
    """Minimize cᵀs over {A s ≤ b} with s free; returns (s*, value)."""
    return optimal_tableau(c, A, b).vertex()
