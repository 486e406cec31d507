"""The rank-1 ray update, the dual-simplex re-optimisation after a cut and
the vertex cone the basis hands out."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfree import lp, spectral
from quadfree.lp import Basis, InfeasibleLPError, optimal_basis


def test_rank1_ray_update_matches_a_fresh_inverse():
    # a pivot swaps tight row N_j for row k by one rank-1 update of
    # R = −A_N⁻¹ and moves s along r_j to where the new tight rows meet
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = rng.integers(1, 9)
        m = p + rng.integers(1, 12)
        A = np.vstack([-np.eye(p), rng.standard_normal((m, p))])
        b = np.concatenate([np.zeros(p), rng.standard_normal(m)])
        N = p + rng.permutation(m)[:p]
        rows = np.arange(p + m)
        basis = Basis(A=A, b=b, c=np.zeros(p), N=N.copy(), R=-np.linalg.inv(A[N]),
                      s=np.linalg.solve(A[N], b[N]), open=(rows >= p) & ~np.isin(rows, N))
        j, k = rng.integers(p), rng.choice(np.setdiff1d(np.arange(p, p + m), N))
        w = A[k] @ basis.R
        N[j] = k
        if np.linalg.cond(A[N]) > 1e6:
            continue
        basis._pivot(j, k, w, b[k] - A[k] @ basis.s)
        ref = -np.linalg.inv(A[N])
        assert np.array_equal(basis.N, N)
        assert np.array_equal(basis.open, (rows >= p) & ~np.isin(rows, N))
        assert np.max(np.abs(basis.R - ref)) <= 1e-12 * np.linalg.cond(A[N]) * np.max(np.abs(ref))
        assert lp.ray_residual(A[N], basis.R) <= 1e-12 * np.linalg.cond(A[N])
        assert np.allclose(basis.s, np.linalg.solve(A[N], b[N]), rtol=1e-9, atol=1e-9)


def test_a_solve_ends_on_the_vertex_of_its_tight_rows(monkeypatch):
    # after a solve s is solved from A_N s = b_N, and rays off −A_N⁻¹ by
    # more than _REFACTOR are recomputed
    rng = np.random.default_rng(3)
    c, A, b = _box_lp(rng, 3)
    basis = optimal_basis(c, A, b)
    A_N, b_N = basis.A[basis.N], basis.b[basis.N]
    basis.R *= 1.0 + 1e-6
    basis.s += 1e-6
    basis._settle()
    assert np.array_equal(basis.R, -np.linalg.inv(A_N))
    assert np.array_equal(basis.s, np.linalg.solve(A_N, b_N))
    monkeypatch.setattr(lp, "_REFACTOR", np.inf)
    basis.R *= 1.0 + 1e-6
    basis._settle()
    assert not np.array_equal(basis.R, -np.linalg.inv(A_N))


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


def _next_cut(rng, basis, A, b):
    """A cut off the current vertex by a fraction u of the room below
    coefᵀs on the rows so far; past that room (u > 1), about 15 % of the
    time, no point is left."""
    s, _ = basis.vertex()
    coef = rng.standard_normal(len(s))
    room = coef @ s - optimal_basis(coef, A, b).vertex()[1]
    u = rng.uniform(0.02, 0.9) if rng.random() < 0.85 else rng.uniform(1.1, 1.3)
    return coef, coef @ s - u * room


def _certifies_optimality(basis):
    """The vertex is optimal: every row holds within 1e-9, no ray lowers
    cᵀs (c·r_j ≥ −1e-9) and the rays invert the tight rows within the
    refactorisation bound."""
    A, b = basis.A[basis.p :], basis.b[basis.p :]
    assert np.max(A @ basis.s - b) <= 1e-9 * max(1.0, np.max(np.abs(b)))
    assert np.min(basis.c @ basis.R) >= -1e-9
    assert lp.ray_residual(basis.A[basis.N], basis.R) <= lp._REFACTOR


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
    basis = optimal_basis(c, A, b)
    _close(basis.vertex(), optimal_basis(c, A, b).vertex())
    _certifies_optimality(basis)
    for _ in range(n_cuts):
        coef, rhs = _next_cut(rng, basis, A, b)
        A, b = np.vstack([A, coef]), np.append(b, rhs)
        try:
            cold = optimal_basis(c, A, b).vertex()
        except InfeasibleLPError:
            with pytest.raises(InfeasibleLPError):
                basis.add_cut(coef, rhs)
            return
        basis.add_cut(coef, rhs)
        _certifies_optimality(basis)
        _close(basis.vertex(), cold)
        assert np.max(A @ basis.vertex()[0] - b) <= 1e-9 * max(1.0, np.max(np.abs(b)))


def _rays_invert_the_nonbasic_rows(basis, A):
    """cone_rays() against −inv(A_N), N the tight rows as indices of A,
    which the basis holds scaled by their unit exponents."""
    R = basis.cone_rays()
    rows = basis.N - basis.p
    assert len(np.unique(rows)) == basis.p and rows.min() >= 0
    A_N = np.ldexp(A[rows], spectral._unit_exponents(A[rows]))
    assert np.array_equal(basis.A[basis.N], A_N)
    ref = -np.linalg.inv(A_N)
    assert np.max(np.abs(R - ref)) <= 1e-9 * np.max(np.abs(ref))
    return np.sort(rows)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.integers(0, 10))
def test_basis_rays_are_minus_the_inverse_of_the_nonbasic_rows(p, seed, n_cuts):
    rng = np.random.default_rng(seed)
    c, A, b = _box_lp(rng, p)
    basis = optimal_basis(c, A, b)
    _rays_invert_the_nonbasic_rows(basis, A)
    for _ in range(n_cuts):
        coef, rhs = _next_cut(rng, basis, A, b)
        try:
            basis.add_cut(coef, rhs)
        except InfeasibleLPError:
            return
        A, b = np.vstack([A, coef]), np.append(b, rhs)
        _rays_invert_the_nonbasic_rows(basis, A)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(-30, 30))
def test_a_cut_scaled_by_a_power_of_two_changes_no_pivot_and_no_vertex_bit(p, seed, n_cuts, k):
    rng = np.random.default_rng(seed)
    c, A, b = _box_lp(rng, p)
    basis, scaled = optimal_basis(c, A, b), optimal_basis(c, A, b)
    for _ in range(n_cuts):
        coef, rhs = _next_cut(rng, basis, A, b)
        try:
            basis.add_cut(coef, rhs)
        except InfeasibleLPError:
            with pytest.raises(InfeasibleLPError):
                scaled.add_cut(np.ldexp(coef, k), np.ldexp(rhs, k))
            return
        scaled.add_cut(np.ldexp(coef, k), np.ldexp(rhs, k))
        A, b = np.vstack([A, coef]), np.append(b, rhs)
        assert np.array_equal(scaled.N, basis.N)
        s, value = basis.vertex()
        s_scaled, value_scaled = scaled.vertex()
        assert s_scaled.tobytes() == s.tobytes() and value_scaled == value


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.data())
def test_a_zero_coordinate_stays_basic(p, seed, data):
    rng = np.random.default_rng(seed)
    c, A, b = _box_lp(rng, p)
    k = data.draw(st.integers(1, p), label="zero coordinates")
    vertex = np.where(c > 0.0, -b[p:], b[:p])  # the minimising corner
    shift = np.where(np.arange(p) < k, vertex, 0.0)
    b = b - A @ shift  # s*_i = 0 for i < k
    basis = optimal_basis(c, A, b)
    s_star, value = basis.vertex()
    assert np.all(s_star[:k] == 0.0)
    assert (basis.N >= p).all()

    rows = _rays_invert_the_nonbasic_rows(basis, A)
    assert np.array_equal(rows, np.flatnonzero(np.abs(A @ s_star - b) <= 1e-9))
    assert np.array_equal(basis.vertex()[0], s_star) and basis.vertex()[1] == value


def test_a_cut_brings_a_coordinate_no_row_bounded_into_the_basis():
    # −3 ≤ s1 ≤ 10 leaves s2 nonbasic at 0; a dual pivot on a slack alone
    # would meet the cut s2 − s1 ≤ −5 at s1 = 5, the optimum moves s2 to −8
    A = np.array([[-1.0, 0.0], [1.0, 0.0]])
    basis = optimal_basis(np.array([1.0, 0.0]), A, np.array([3.0, 10.0]))
    basis.add_cut([-1.0, 1.0], -5.0)
    s, value = basis.vertex()
    assert s.tolist() == [-3.0, -8.0] and value == -3.0
    assert np.allclose(basis.A[basis.N], [[-1.0, 0.0], [-1.0, 1.0]])
    assert np.allclose(basis.cone_rays(), -np.linalg.inv(basis.A[basis.N]), atol=1e-12)
