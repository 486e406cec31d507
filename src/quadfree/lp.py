"""A small simplex for the cutting loop, kept as the cone of its vertex.

Solves  min cᵀs  subject to  A s ≤ b  with s free (the revised simplex,
Maros 2003) on the rows, the p tight rows N, the rays R = −A_N⁻¹ and the
vertex s.  Rows 0..p−1 are −s_i ≤ 0, tight at the start for the s_i no
row fixes yet, and never re-enter N.  A pivot swaps a tight row for an
open one by a rank-1 update of R and moves s along one ray; after each
solve s is solved from A_N s = b_N, and R recomputed once ‖A_N R + I‖
passes ``_REFACTOR``.  The pivot rules are the tableau's, whose entry
for open row a and ray r_j is a·r_j and reduced cost c·r_j: each s_i is
made basic on the open row with the largest |a·r_j| > 1e-9, dual simplex
pivots at zero cost reach a feasible vertex (Lemke 1954), then the primal
simplex under Bland's rule.  A dual pivot takes out the infeasible row of
least index, in the ray with the least c·r_j / −(a·r_j) over
a·r_j < −1e-9, ties to the least row index; ``Basis.add_cut`` re-optimises
by the same dual simplex, as a cut keeps the vertex dual feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import DegenerateVertexError, InfeasibleLPError, UnboundedLPError

_EPS = 1e-9
_REFACTOR = 1e-11


def ray_residual(rows, R) -> float:
    """max |A_N R + I|: how far the rays R are from −A_N⁻¹."""
    E = rows @ R
    E.flat[:: len(E) + 1] += 1.0
    return float(np.abs(E).max())


@dataclass
class Basis:
    """A vertex s of {A s ≤ b} (A after the rows −s ≤ 0), its tight rows
    N, the rays R = −A_N⁻¹, the objective c and the mask of open rows."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    N: np.ndarray
    R: np.ndarray
    s: np.ndarray
    open: np.ndarray

    @property
    def p(self) -> int:
        return len(self.c)

    def _pivot(self, j, k, w, slack):
        """Make row k (a·R = w, b_k − a·s = slack) tight in place of N_j."""
        u = self.R[:, j] / w[j]
        self.s += slack * u
        self.R -= u[:, None] * w
        self.R[:, j] = -u
        if self.N[j] >= self.p:
            self.open[self.N[j]] = True
        self.N[j], self.open[k] = k, False

    def _settle(self):
        A_N = self.A[self.N]
        self.s = np.linalg.solve(A_N, self.b[self.N])
        if ray_residual(A_N, self.R) > _REFACTOR:
            self.R = -np.linalg.inv(A_N)

    def _pivot_in_free(self):
        if self.N.min() < self.p:
            for j in np.flatnonzero(self.N < self.p):
                col = np.where(self.open, np.abs(self.A @ self.R[:, j]), 0.0)
                k = np.argmax(col)
                if col[k] > _EPS:
                    self._pivot(j, k, self.A[k] @ self.R, self.b[k] - self.A[k] @ self.s)

    def _dual_loop(self, cost):
        while True:
            slack = self.b - self.A @ self.s
            infeasible = (slack < -_EPS) & self.open
            k = infeasible.argmax()
            if not infeasible[k]:
                return
            w = self.A[k] @ self.R
            ratio = min(
                ((d / -a, n, j) for j, (d, a, n) in enumerate(zip(
                    (cost @ self.R).tolist(), w.tolist(), self.N.tolist())) if a < -_EPS),
                default=None,
            )
            if ratio is None:
                raise InfeasibleLPError("no point satisfies the rows of the LP")
            self._pivot(ratio[2], k, w, slack[k])

    def _bland_loop(self):
        reduced = self.c @ self.R
        if np.any(np.abs(reduced[self.N < self.p]) > _EPS):
            raise UnboundedLPError("the objective moves a coordinate that no row bounds")
        while (improving := np.flatnonzero(reduced < -_EPS)).size:
            j = improving[np.argmin(self.N[improving])]
            col = self.A @ self.R[:, j]
            rows = np.flatnonzero((col > _EPS) & self.open)
            if rows.size == 0:
                raise UnboundedLPError("no blocking row for the entering ray")
            slack = self.b[rows] - self.A[rows] @ self.s
            ratios = slack / col[rows]
            i = np.argmax(ratios <= ratios.min() + _EPS)
            self._pivot(j, rows[i], self.A[rows[i]] @ self.R, slack[i])
            reduced = self.c @ self.R

    def vertex(self):
        """The vertex (s*, cᵀs*)."""
        return self.s.copy(), float(self.c @ self.s)

    def cone_rays(self):
        """The rays R = −A_N⁻¹ of the vertex cone {s : A_N s ≤ b_N}, one
        column per tight row in ``N``; its rows are ``A[N]``."""
        if self.N.min() < self.p:
            raise DegenerateVertexError(
                f"s_{self.N.min()} is not fixed by the tight rows: the vertex cone is singular")
        return self.R.copy()

    def add_cut(self, coef, rhs):
        """Add the row coefᵀs ≤ rhs, on which an s_i no row fixed becomes
        basic if it can, and re-optimise by dual simplex.  The row is
        stored scaled by ``spectral._unit_exponents`` of coef, so its
        length does not enter the pivot tests.  Raises
        ``InfeasibleLPError`` when no point satisfies the rows."""
        coef = np.asarray(coef, dtype=float).reshape(1, -1)
        e = spectral._unit_exponents(coef)
        self.A = np.concatenate((self.A, np.ldexp(coef, e)))
        self.b = np.concatenate((self.b, np.ldexp(rhs, e[0])))
        self.open = np.concatenate((self.open, [True]))
        self._pivot_in_free()
        self._dual_loop(self.c)
        self._settle()


def optimal_basis(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> Basis:
    """Minimize cᵀs over {A s ≤ b} with s free.  Raises
    ``InfeasibleLPError`` when no point satisfies the rows,
    ``UnboundedLPError`` when cᵀs has no minimum."""
    c = np.asarray(c, dtype=float).reshape(-1)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    n_rows, p = A.shape
    if c.shape != (p,):
        raise ValueError("objective/constraint dimensions disagree")
    basis = Basis(
        A=np.vstack([-np.eye(p), A]), b=np.concatenate([np.zeros(p), b]), c=c,
        N=np.arange(p), R=np.eye(p), s=np.zeros(p), open=np.arange(p + n_rows) >= p,
    )
    basis._pivot_in_free()
    basis._dual_loop(np.zeros(p))
    basis._bland_loop()
    basis._settle()
    return basis
