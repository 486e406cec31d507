"""A small dense simplex for the cutting loop, with Bland's rule.

Solves  min cᵀs  subject to  A s ≤ b  with free variables (split into
positive parts, s = u − v) on the tableau [A, −A, I | b]; every pivot is
one rank-1 update of it.  At zero cost its slack basis is dual feasible,
so ``optimal_tableau`` reaches a feasible basis by dual simplex pivots
(Lemke 1954), then writes the reduced costs of c once and optimises by
the primal simplex under Bland's rule (first improving column, smallest
basic index among tied rows); the dual pivots also choose by smallest
index, so neither loop cycles.  The optimal tableau stays dual feasible
when a row is added, so ``Tableau.add_cut`` re-optimises after a cut by
the same dual simplex instead of solving again.
``Tableau.cone_rays`` reads the cone of the vertex from the basis: its
tight rows are the p rows whose slacks are nonbasic, so an ``=`` row, or
any row tight at the vertex but basic at zero, needs no tolerance and no
count; a cone the basis cannot give is a ``DegenerateVertexError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVertexError, InfeasibleLPError, UnboundedLPError

_EPS = 1e-9


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    pivot_row = T[row].copy()
    T -= np.outer(T[:, col], pivot_row)
    T[row] = pivot_row
    basis[row] = col


def _bland_loop(T, basis):
    """Optimize the canonical tableau in place; Bland's rule throughout."""
    while True:
        improving = np.flatnonzero(T[-1, :-1] < -_EPS)
        if improving.size == 0:
            return
        entering = improving[0]
        rows = np.flatnonzero(T[:-1, entering] > _EPS)
        if rows.size == 0:
            raise UnboundedLPError("no blocking row for the entering column")
        ratios = T[rows, -1] / T[rows, entering]
        # Bland tie-break: smallest basic variable index among the ties.
        ties = rows[ratios <= ratios.min() + _EPS]
        _pivot(T, basis, ties[np.argmin(basis[ties])], entering)


def _dual_loop(T, basis):
    """Restore primal feasibility of a dual-feasible tableau in place.

    The leaving row is the infeasible one with the smallest basic index;
    the entering column has the least ratio of reduced cost to |T[row, j]|
    over T[row, j] < 0, ties going to the smallest j.
    """
    while True:
        infeasible = np.flatnonzero(T[:-1, -1] < -_EPS)
        if infeasible.size == 0:
            return
        row = infeasible[np.argmin(basis[infeasible])]
        cols = np.flatnonzero(T[row, :-1] < -_EPS)
        if cols.size == 0:
            raise InfeasibleLPError("no point satisfies the rows of the LP")
        ratios = T[-1, cols] / -T[row, cols]
        _pivot(T, basis, row, cols[np.argmin(ratios)])


@dataclass
class Tableau:
    """An optimal tableau: rows B⁻¹[A, −A, I | b] over the columns
    (u, v, slacks), one per row of A, then the reduced costs (ending in
    −cᵀs*), the basic column of each row but the last, and the objective c."""

    T: np.ndarray
    basis: np.ndarray
    c: np.ndarray
    p: int

    def vertex(self):
        """The basic solution (s*, cᵀs*)."""
        x_std = np.zeros(self.T.shape[1] - 1)
        x_std[self.basis] = self.T[:-1, -1]
        s = x_std[: self.p] - x_std[self.p : 2 * self.p]
        return s, float(self.c @ s)

    def cone_rays(self):
        """The ray columns of the vertex cone {s : A_N s ≤ b_N}, where the
        rows N are those whose slack is nonbasic, in row order: ray j is the
        s-part u − v of slack column j, negated, which is −A_N⁻¹.

        When s*_i = 0 leaves u_i and v_i both nonbasic, one degenerate pivot
        first brings one of them into the basis on a row whose basic slack
        is 0, so the vertex stays; with no such row s*_i is not fixed by
        the tight rows, a ``DegenerateVertexError``.
        """
        p, T, basis = self.p, self.T[:-1], self.basis
        nonbasic = np.ones(T.shape[1] - 1, dtype=bool)
        nonbasic[basis] = False
        for i in np.flatnonzero(nonbasic[:p] & nonbasic[p : 2 * p]):
            rows = np.flatnonzero((basis >= 2 * p) & (np.abs(T[:, -1]) <= _EPS))
            row = rows[np.argmax(np.abs(T[rows, i]))] if rows.size else None
            if row is None or abs(T[row, i]) <= _EPS:
                raise DegenerateVertexError(
                    f"s_{i} is not fixed by the tight rows: the vertex cone is singular"
                )
            col = i if T[row, i] > 0.0 else p + i
            nonbasic[basis[row]], nonbasic[col] = True, False
            _pivot(self.T, basis, row, col)  # the view T follows
        slacks = 2 * p + np.flatnonzero(nonbasic[2 * p :])
        R = np.zeros((p, slacks.size))
        u, v = basis < p, (basis >= p) & (basis < 2 * p)
        R[basis[u]] = -T[u][:, slacks]
        R[basis[v] - p] = T[v][:, slacks]
        return R

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
        T[k] = T[k - 1]  # the reduced-cost row stays last
        row = np.concatenate([coef, -coef, np.zeros(width - 1 - 2 * self.p), [1.0, rhs]])
        T[k - 1] = row - row[self.basis] @ T[: k - 1]
        self.T = T
        self.basis = np.append(self.basis, width - 1)
        _dual_loop(self.T, self.basis)


def optimal_tableau(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> Tableau:
    """Minimize cᵀs over {A s ≤ b} with s free: dual simplex pivots at zero
    cost from the slack basis to a feasible one, then the primal simplex.
    Raises ``InfeasibleLPError`` when no point satisfies the rows."""
    c = np.asarray(c, dtype=float).reshape(-1)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    n_rows, p = A.shape
    if c.shape != (p,):
        raise ValueError("objective/constraint dimensions disagree")

    # [A, −A, I][u; v; slack] = b, all variables ≥ 0, with the slacks basic.
    T = np.zeros((n_rows + 1, 2 * p + n_rows + 1))
    T[:-1] = np.hstack([A, -A, np.eye(n_rows), b[:, None]])
    basis = np.arange(2 * p, 2 * p + n_rows)
    _dual_loop(T, basis)
    cost = np.concatenate([c, -c, np.zeros(n_rows + 1)])
    T[-1] = cost - cost[basis] @ T[:-1]
    _bland_loop(T, basis)
    return Tableau(T=T, basis=basis, c=c, p=p)


def solve_lp(c: np.ndarray, A: np.ndarray, b: np.ndarray):
    """Minimize cᵀs over {A s ≤ b} with s free; returns (s*, value)."""
    return optimal_tableau(c, A, b).vertex()
