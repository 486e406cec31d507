import itertools

import numpy as np
import pytest

from quadfree.errors import DegenerateVertexError, UnboundedLPError
from quadfree.lp import InfeasibleLPError, optimal_basis


def test_simple_box_minimum():
    # min s1 + s2  s.t.  −s1 ≤ 3, −s2 ≤ 1, s1 ≤ 10, s2 ≤ 10
    c = np.array([1.0, 1.0])
    A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    b = np.array([3.0, 1.0, 10.0, 10.0])
    s, value = optimal_basis(c, A, b).vertex()
    assert np.allclose(s, [-3.0, -1.0], atol=1e-9)
    assert value == pytest.approx(-4.0, abs=1e-9)


def test_maximization_via_negation():
    c = np.array([-2.0, -3.0])
    A = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    b = np.array([4.0, 3.0, 3.0])
    s, value = optimal_basis(c, A, b).vertex()
    # max 2s1+3s2 over the triangle: optimum at (1, 3)
    assert np.allclose(s, [1.0, 3.0], atol=1e-9)
    assert value == pytest.approx(-11.0, abs=1e-9)


def test_negative_rhs_handled():
    # feasible region s1 ≥ 2 (written −s1 ≤ −2), s1 ≤ 5
    c = np.array([1.0])
    A = np.array([[-1.0], [1.0]])
    b = np.array([-2.0, 5.0])
    s, value = optimal_basis(c, A, b).vertex()
    assert s[0] == pytest.approx(2.0, abs=1e-9)


def test_unbounded_detected():
    c = np.array([-1.0, 0.0])
    A = np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([0.0, 1.0, 1.0])
    with pytest.raises(UnboundedLPError):
        optimal_basis(c, A, b).vertex()


def test_infeasible_detected():
    c = np.array([1.0])
    A = np.array([[1.0], [-1.0]])
    b = np.array([1.0, -2.0])  # s ≤ 1 and s ≥ 2
    with pytest.raises(InfeasibleLPError):
        optimal_basis(c, A, b).vertex()
    # 0ᵀs ≤ −1 holds nowhere, whatever the other rows
    A = np.vstack([np.zeros(2), np.eye(2), -np.eye(2)])
    b = np.array([-1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(InfeasibleLPError):
        optimal_basis(np.array([1.0, 1.0]), A, b).vertex()


def test_a_coordinate_no_row_bounds():
    # −3 ≤ s1 ≤ 10 and nothing on s2: an objective that moves s2 is
    # unbounded either way; one that does not leaves s2 nonbasic at 0,
    # fixed by no tight row
    A = np.array([[-1.0, 0.0], [1.0, 0.0]])
    b = np.array([3.0, 10.0])
    for c in ([1.0, 1.0], [1.0, -1.0]):
        with pytest.raises(UnboundedLPError):
            optimal_basis(np.array(c), A, b)
    basis = optimal_basis(np.array([1.0, 0.0]), A, b)
    s, value = basis.vertex()
    assert s.tolist() == [-3.0, 0.0] and value == -3.0
    with pytest.raises(DegenerateVertexError):
        basis.cone_rays()


def _matches_enumeration(c, A, b):
    """The vertex is feasible and its value is the least cᵀv over the
    vertices of {A s ≤ b}: the points where p of the rows meet in one point
    and no row is violated.  When A has rank p every s_i is basic: every
    tight row is a row of A."""
    basis = optimal_basis(c, A, b)
    s, value = basis.vertex()
    if np.linalg.matrix_rank(A) == A.shape[1]:
        assert (basis.N >= basis.p).all()
    assert np.max(A @ s - b) <= 1e-8
    best = np.inf
    for rows in itertools.combinations(range(A.shape[0]), A.shape[1]):
        M = A[list(rows)]
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        v = np.linalg.solve(M, b[list(rows)])
        if np.max(A @ v - b) <= 1e-8:
            best = min(best, float(c @ v))
    assert value == pytest.approx(best, abs=1e-7)


def test_matches_bruteforce_vertex_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = 2
        A = np.vstack([rng.standard_normal((4, p)), np.eye(p), -np.eye(p)])
        b = np.concatenate([rng.uniform(0.5, 2.0, 4), np.full(2 * p, 5.0)])
        _matches_enumeration(rng.standard_normal(p), A, b)
    # rows about a point x0 away from the origin, with a duplicated row, an
    # "=" pair through x0 and the row 0ᵀs ≤ 1: the rhs take both signs, so
    # the slack basis is infeasible and phase 1 has to pivot
    for p in (2, 3):
        for _ in range(40):
            x0 = rng.uniform(1.0, 4.0, p) * rng.choice((-1.0, 1.0), p)
            G, a = rng.standard_normal((4, p)), rng.standard_normal(p)
            A = np.vstack([G, G[:1], a, -a, np.zeros(p), np.eye(p), -np.eye(p)])
            g = G @ x0 + rng.uniform(0.2, 2.0, 4)
            b = np.concatenate([g, g[:1], [a @ x0, -(a @ x0), 1.0], np.full(2 * p, 6.0)])
            assert b.min() < 0.0 < b.max()
            _matches_enumeration(rng.standard_normal(p), A, b)
