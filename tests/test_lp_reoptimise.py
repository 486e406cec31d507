"""The rank-1 pivot and the dual-simplex re-optimisation after a cut."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfree.lp import InfeasibleLPError, _pivot, optimal_tableau, solve_lp


def _pivot_by_rows(T, basis, row, col):
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def test_rank1_pivot_matches_the_row_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(300):
        k, w = rng.integers(1, 12), rng.integers(2, 30)
        T = rng.standard_normal((k, w))
        T[rng.random((k, w)) < 0.3] = 0.0  # rows the loop skips
        row, col = rng.integers(k), rng.integers(w - 1)
        T[row, col] = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 10.0)
        basis = rng.integers(w - 1, size=k)
        T_ref, basis_ref = T.copy(), basis.copy()
        _pivot(T, basis, row, col)
        _pivot_by_rows(T_ref, basis_ref, row, col)
        assert T.tobytes() == T_ref.tobytes()
        assert np.array_equal(basis, basis_ref)


def _close(warm, cold):
    s_w, v_w = warm
    s_c, v_c = cold
    scale = max(1.0, float(np.max(np.abs(s_c))))
    assert np.max(np.abs(s_w - s_c)) <= 1e-9 * scale
    assert abs(v_w - v_c) <= 1e-9 * max(1.0, abs(v_c))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_cuts_reoptimised_by_dual_simplex_match_a_cold_solve(p, seed, n_cuts):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-5.0, 0.0, p)
    hi = lo + rng.uniform(1.0, 6.0, p)
    A = np.vstack([np.eye(p), -np.eye(p)])
    b = np.concatenate([hi, -lo])
    c = rng.standard_normal(p)
    tableau = optimal_tableau(c, A, b)
    _close(tableau.vertex(), solve_lp(c, A, b))
    for _ in range(n_cuts):
        s, _ = tableau.vertex()
        coef = rng.standard_normal(p)
        # cut s off by a fraction u of the room below coefᵀs on the rows so
        # far; past that room (u > 1) no point is left
        room = coef @ s - solve_lp(coef, A, b)[1]
        u = rng.uniform(0.02, 0.9) if rng.random() < 0.85 else rng.uniform(1.1, 1.3)
        rhs = coef @ s - u * room
        A, b = np.vstack([A, coef]), np.append(b, rhs)
        try:
            cold = solve_lp(c, A, b)
        except InfeasibleLPError:
            with pytest.raises(InfeasibleLPError):
                tableau.add_cut(coef, rhs)
            return
        tableau.add_cut(coef, rhs)
        _close(tableau.vertex(), cold)
        assert np.max(A @ tableau.vertex()[0] - b) <= 1e-9 * max(1.0, np.max(np.abs(b)))
