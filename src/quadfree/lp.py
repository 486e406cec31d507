"""A tiny dense two-phase simplex with Bland's rule.

Solves  min cᵀs  subject to  A s ≤ b  with free variables (split into
positive parts internally).  Demo-quality on purpose: the cutting-loop
driver only needs an exact LP vertex at desk scale.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleLPError, UnboundedLPError

_EPS = 1e-9


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _bland_loop(T, basis, cost):
    """Optimize the canonical tableau in place; Bland's rule throughout."""
    n_cols = T.shape[1] - 1
    while True:
        cb = cost[basis]
        reduced = cost[:n_cols] - cb @ T[:, :n_cols]
        entering = -1
        for j in range(n_cols):
            if reduced[j] < -_EPS:
                entering = j
                break
        if entering < 0:
            return
        rows = [i for i in range(T.shape[0]) if T[i, entering] > _EPS]
        if not rows:
            raise UnboundedLPError("no blocking row for the entering column")
        ratios = [T[i, -1] / T[i, entering] for i in rows]
        best = min(ratios)
        # Bland tie-break: smallest basic variable index among the ties.
        leaving = min(
            (basis[i], i) for i, r in zip(rows, ratios) if r <= best + _EPS
        )[1]
        _pivot(T, basis, leaving, entering)


def solve_lp(c: np.ndarray, A: np.ndarray, b: np.ndarray):
    """Minimize cᵀs over {A s ≤ b} with s free; returns (s*, value)."""
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
    basis = list(range(n_std, n_std + n_rows))
    cost1 = np.concatenate([np.zeros(n_std), np.ones(n_rows), [0.0]])
    _bland_loop(T, basis, cost1)
    if cost1[basis] @ T[:, -1] > 1e-7:
        raise InfeasibleLPError("phase 1 ended with positive artificial mass")

    # Drive residual artificials out of the basis (or drop dead rows).
    keep_rows = []
    for i in range(n_rows):
        if basis[i] >= n_std:
            pivot_col = next(
                (j for j in range(n_std) if abs(T[i, j]) > _EPS), None
            )
            if pivot_col is None:
                continue  # redundant row
            _pivot(T, basis, i, pivot_col)
        keep_rows.append(i)
    T = T[keep_rows][:, list(range(n_std)) + [-1]]
    basis = [basis[i] for i in keep_rows]

    cost2 = np.concatenate([c, -c, np.zeros(n_rows), [0.0]])
    _bland_loop(T, basis, cost2)

    x_std = np.zeros(n_std)
    for i, j in enumerate(basis):
        x_std[j] = T[i, -1]
    s = x_std[:p] - x_std[p : 2 * p]
    return s, float(c @ s)
