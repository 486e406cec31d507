"""A small dense simplex for the cutting loop, with Bland's rule.

Solves  min cᵀs  subject to  A s ≤ b  with s free on the tableau
[A, I | b] over the columns (s, slacks); every pivot is one rank-1 update
of it.  Each s_i is pivoted into the slack basis once and never leaves
it: only rows with a basic slack take part in a ratio test (Maros 2003).
At zero cost that basis is dual feasible, so ``optimal_tableau`` reaches
a feasible basis by dual simplex pivots (Lemke 1954), then writes the
reduced costs of c once and optimises by the primal simplex under Bland's
rule (first improving column, smallest basic index among tied rows); the
dual pivots also choose by smallest index, so neither loop cycles.  The
optimal tableau stays dual feasible when a row is added, so
``Tableau.add_cut`` re-optimises after a cut by the same dual simplex.
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


def _pivot_in_free(T, basis, p):
    """Pivot each nonbasic s_i in on the slack-basic row with the largest
    |T[r, i]|; an s_i with no entry above _EPS there stays nonbasic."""
    for i in np.flatnonzero(np.bincount(basis, minlength=p)[:p] == 0):
        rows = np.flatnonzero(basis >= p)
        if rows.size and np.abs(T[rows, i]).max() > _EPS:
            _pivot(T, basis, rows[np.argmax(np.abs(T[rows, i]))], i)


def _bland_loop(T, basis, p):
    """Optimize the canonical tableau in place; Bland's rule throughout."""
    # a basic s_i has a reduced cost of 0; a nonbasic one has a zero column
    # in every slack row, so no row bounds it
    if np.any(np.abs(T[-1, :p]) > _EPS):
        raise UnboundedLPError("the objective moves a coordinate that no row bounds")
    while True:
        improving = np.flatnonzero(T[-1, :-1] < -_EPS)
        if improving.size == 0:
            return
        entering = improving[0]
        rows = np.flatnonzero((basis >= p) & (T[:-1, entering] > _EPS))
        if rows.size == 0:
            raise UnboundedLPError("no blocking row for the entering column")
        ratios = T[rows, -1] / T[rows, entering]
        # Bland tie-break: smallest basic variable index among the ties.
        ties = rows[ratios <= ratios.min() + _EPS]
        _pivot(T, basis, ties[np.argmin(basis[ties])], entering)


def _dual_loop(T, basis, p):
    """Restore primal feasibility of a dual-feasible tableau in place.

    The leaving row is the infeasible slack row with the smallest basic
    index; the entering column has the least ratio of reduced cost to
    |T[row, j]| over T[row, j] < 0, ties going to the smallest j."""
    while True:
        infeasible = np.flatnonzero((basis >= p) & (T[:-1, -1] < -_EPS))
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
    """An optimal tableau: rows B⁻¹[A, I | b] over the columns (s, slacks),
    one per row of A, then the reduced costs (ending in −cᵀs*), the basic
    column of each row but the last, and the objective c."""

    T: np.ndarray
    basis: np.ndarray
    c: np.ndarray
    p: int

    def vertex(self):
        """The basic solution (s*, cᵀs*)."""
        s, rows = np.zeros(self.p), self.basis < self.p
        s[self.basis[rows]] = self.T[:-1, -1][rows]
        return s, float(self.c @ s)

    def cone_rays(self):
        """The ray columns of the vertex cone {s : A_N s ≤ b_N}, N the rows
        whose slack is nonbasic, in row order: −T[s rows, those slacks],
        which is −A_N⁻¹.  A nonbasic s_i is fixed by no tight row."""
        p, T, basis = self.p, self.T[:-1], self.basis
        nonbasic = np.bincount(basis, minlength=T.shape[1] - 1) == 0
        if nonbasic[:p].any():
            raise DegenerateVertexError(
                f"s_{np.argmax(nonbasic)} is not fixed by the tight rows: the vertex cone is singular")
        R = np.empty((p, p))
        R[basis[basis < p]] = -T[basis < p][:, np.flatnonzero(nonbasic)]
        return R

    def add_cut(self, coef, rhs):
        """Add the row coefᵀs ≤ rhs and re-optimise by dual simplex.

        The row enters reduced against the current basis with a new slack,
        basic at rhs − coefᵀs* unless an s_i no row bounded enters on it.
        Raises ``InfeasibleLPError`` when no point satisfies the rows."""
        coef = np.asarray(coef, dtype=float).reshape(-1)
        k, width = self.T.shape
        T = np.zeros((k + 1, width + 1))
        T[:k, :-2], T[:k, -1] = self.T[:, :-1], self.T[:, -1]
        T[k] = T[k - 1]  # the reduced-cost row stays last
        row = np.concatenate([coef, np.zeros(width - 1 - self.p), [1.0, rhs]])
        T[k - 1] = row - row[self.basis] @ T[: k - 1]
        self.T = T
        self.basis = np.append(self.basis, width - 1)
        _pivot_in_free(self.T, self.basis, self.p)
        _dual_loop(self.T, self.basis, self.p)


def optimal_tableau(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> Tableau:
    """Minimize cᵀs over {A s ≤ b} with s free: each s_i pivoted into the
    slack basis, dual simplex pivots at zero cost to a feasible basis,
    then the primal simplex.  Raises ``InfeasibleLPError`` when no point
    satisfies the rows, ``UnboundedLPError`` when cᵀs has no minimum."""
    c = np.asarray(c, dtype=float).reshape(-1)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    n_rows, p = A.shape
    if c.shape != (p,):
        raise ValueError("objective/constraint dimensions disagree")
    # [A, I][s; slack] = b, slacks ≥ 0, with the slacks basic.
    T = np.zeros((n_rows + 1, p + n_rows + 1))
    T[:-1] = np.hstack([A, np.eye(n_rows), b[:, None]])
    basis = np.arange(p, p + n_rows)
    _pivot_in_free(T, basis, p)
    _dual_loop(T, basis, p)
    cost = np.concatenate([c, np.zeros(n_rows + 1)])
    T[-1] = cost - cost[basis] @ T[:-1]
    _bland_loop(T, basis, p)
    return Tableau(T=T, basis=basis, c=c, p=p)
