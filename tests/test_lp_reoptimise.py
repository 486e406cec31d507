"""The rank-1 pivot, the dual-simplex re-optimisation after a cut and the
vertex cone read from the basis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfree.lp import InfeasibleLPError, _pivot, optimal_tableau


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


def _box_lp(rng, p):
    """min cᵀs over a random box, as rows A s ≤ b."""
    lo = rng.uniform(-5.0, 0.0, p)
    hi = lo + rng.uniform(1.0, 6.0, p)
    A = np.vstack([np.eye(p), -np.eye(p)])
    return rng.standard_normal(p), A, np.concatenate([hi, -lo])


def _next_cut(rng, tableau, A, b):
    """A cut off the current vertex by a fraction u of the room below
    coefᵀs on the rows so far; past that room (u > 1), about 15 % of the
    time, no point is left."""
    s, _ = tableau.vertex()
    coef = rng.standard_normal(len(s))
    room = coef @ s - optimal_tableau(coef, A, b).vertex()[1]
    u = rng.uniform(0.02, 0.9) if rng.random() < 0.85 else rng.uniform(1.1, 1.3)
    return coef, coef @ s - u * room


def _carried_costs_match(tableau):
    """The reduced-cost row the tableau carries against cost − cost_B·T
    recomputed from the rows above it."""
    T, p = tableau.T, tableau.p
    cost = np.concatenate([tableau.c, np.zeros(T.shape[1] - 1 - p), [0.0]])
    ref = cost - cost[tableau.basis] @ T[:-1]
    assert np.max(np.abs(T[-1] - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


def _with_dependent_rows(rng, A, b):
    """The box rows, a duplicate of the first and an "=" pair aᵀs = aᵀx0
    through an interior point x0 of the box."""
    p = A.shape[1]
    lo, hi = -b[p:], b[:p]
    x0, a = lo + rng.uniform(0.1, 0.9, p) * (hi - lo), rng.standard_normal(p)
    return np.vstack([A, A[:1], a, -a]), np.concatenate([b, b[:1], [a @ x0, -(a @ x0)]])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.integers(1, 10), st.booleans())
def test_cuts_reoptimised_by_dual_simplex_match_a_cold_solve(p, seed, n_cuts, dependent):
    rng = np.random.default_rng(seed)
    c, A, b = _box_lp(rng, p)
    if dependent:  # phase 0 and the dual loop meet dependent rows
        A, b = _with_dependent_rows(rng, A, b)
    tableau = optimal_tableau(c, A, b)
    _close(tableau.vertex(), optimal_tableau(c, A, b).vertex())
    _carried_costs_match(tableau)
    for _ in range(n_cuts):
        coef, rhs = _next_cut(rng, tableau, A, b)
        A, b = np.vstack([A, coef]), np.append(b, rhs)
        try:
            cold = optimal_tableau(c, A, b).vertex()
        except InfeasibleLPError:
            with pytest.raises(InfeasibleLPError):
                tableau.add_cut(coef, rhs)
            return
        tableau.add_cut(coef, rhs)
        _carried_costs_match(tableau)
        _close(tableau.vertex(), cold)
        assert np.max(A @ tableau.vertex()[0] - b) <= 1e-9 * max(1.0, np.max(np.abs(b)))


def _rays_invert_the_nonbasic_rows(tableau, A):
    """cone_rays() against −inv(A_N), N the rows with a nonbasic slack."""
    R = tableau.cone_rays()
    rows = np.setdiff1d(np.arange(len(A)), tableau.basis - tableau.p)
    assert len(rows) == tableau.p
    ref = -np.linalg.inv(A[rows])
    assert np.max(np.abs(R - ref)) <= 1e-9 * np.max(np.abs(ref))
    return rows


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.integers(0, 10))
def test_basis_rays_are_minus_the_inverse_of_the_nonbasic_rows(p, seed, n_cuts):
    rng = np.random.default_rng(seed)
    c, A, b = _box_lp(rng, p)
    tableau = optimal_tableau(c, A, b)
    _rays_invert_the_nonbasic_rows(tableau, A)
    for _ in range(n_cuts):
        coef, rhs = _next_cut(rng, tableau, A, b)
        try:
            tableau.add_cut(coef, rhs)
        except InfeasibleLPError:
            return
        A, b = np.vstack([A, coef]), np.append(b, rhs)
        _rays_invert_the_nonbasic_rows(tableau, A)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.data())
def test_a_zero_coordinate_stays_basic(p, seed, data):
    rng = np.random.default_rng(seed)
    c, A, b = _box_lp(rng, p)
    k = data.draw(st.integers(1, p), label="zero coordinates")
    vertex = np.where(c > 0.0, -b[p:], b[:p])  # the minimising corner
    shift = np.where(np.arange(p) < k, vertex, 0.0)
    b = b - A @ shift  # s*_i = 0 for i < k
    tableau = optimal_tableau(c, A, b)
    s_star, value = tableau.vertex()
    assert np.all(s_star[:k] == 0.0)
    assert np.isin(np.arange(p), tableau.basis).all()

    rows = _rays_invert_the_nonbasic_rows(tableau, A)
    assert np.array_equal(rows, np.flatnonzero(np.abs(A @ s_star - b) <= 1e-9))
    assert np.array_equal(tableau.vertex()[0], s_star) and tableau.vertex()[1] == value


def test_a_cut_brings_a_coordinate_no_row_bounded_into_the_basis():
    # −3 ≤ s1 ≤ 10 leaves s2 nonbasic at 0; a dual pivot on a slack alone
    # would meet the cut s2 − s1 ≤ −5 at s1 = 5, the optimum moves s2 to −8
    A = np.array([[-1.0, 0.0], [1.0, 0.0]])
    tableau = optimal_tableau(np.array([1.0, 0.0]), A, np.array([3.0, 10.0]))
    tableau.add_cut([-1.0, 1.0], -5.0)
    s, value = tableau.vertex()
    assert s.tolist() == [-3.0, -8.0] and value == -3.0
    R = tableau.cone_rays()
    assert np.allclose(R, -np.linalg.inv(np.array([[-1.0, 0.0], [-1.0, 1.0]])), atol=1e-12)
