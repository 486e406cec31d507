import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_instance,
    random_orthogonal,
    wedge_canonical,
    wedge_constraint,
)
from quadfree import spectral
from quadfree.errors import (
    DegenerateQuadraticError,
    NonSymmetricError,
    NotSeparableError,
    ParseError,
)
from quadfree.spectral import (
    CASE_CASE1_CGLAMBDA,
    CASE_CASE2_CR,
    CASE_CASE2_CR_LAMBDA_NEG_A,
    CASE_CONVEX_M1,
    CASE_EMPTY_S,
    CASE_HOMOG_H_NONZERO,
    QuadraticConstraint,
    canonicalize,
    decompose,
    eigen,
    lift,
)

S2 = math.sqrt(2.0)


# --- _unit_exponents ---------------------------------------------------------


def _spread_entries(rng, shape, spread):
    """Entries ±(1 + u)·2^(k − j), u in [0, 1), j in [0, spread] per entry
    and k uniform over [−1074, 1023] per row: subnormals, zeros by
    underflow and entries up to 1.8e308."""
    k = rng.integers(-1074, 1024, (shape[0], 1))
    j = rng.integers(0, spread + 1, shape)
    return rng.choice([-1.0, 1.0], shape) * np.ldexp(1.0 + rng.random(shape), k - j)


def _largest_in_one_to_two(Y, axis):
    top = np.abs(Y).max(axis=axis)
    return np.all((top >= 1.0) & (top < 2.0))


@pytest.mark.parametrize("spread", [0, 60, 2100])
def test_unit_exponents_bring_each_slice_largest_entry_into_one_to_two(spread):
    rng = np.random.default_rng(spread)
    X = np.vstack([_spread_entries(rng, (400, 6), spread),
                   [1.7e308, -1.7e308, 1.0, 0.0, -5e-324, 1e-320],
                   [5e-324, -1e-320, 2.2e-308, 0.0, -0.0, 1e-310]])
    X = X[np.abs(X).max(axis=1) > 0.0]
    for axis, Z in ((-1, X), (0, X.T)):
        e = spectral._unit_exponents(Z, axis=axis)
        assert e.shape == (len(X), 1) if axis == -1 else e.shape == (1, len(X))
        assert _largest_in_one_to_two(np.ldexp(Z, e), axis)


def test_unit_exponents_are_undone_exactly():
    # exact whenever no entry falls out of the normal range once scaled:
    # here every entry is within 2⁻⁶⁰ of its slice's largest
    rng = np.random.default_rng(5)
    X = _spread_entries(rng, (2000, 5), 60)
    for axis, Z in ((-1, X), (0, X.T)):
        e = spectral._unit_exponents(Z, axis=axis)
        assert np.array_equal(np.ldexp(np.ldexp(Z, e), -e), Z)


def test_a_zero_slice_gets_exponent_one_and_stays_zero():
    X = np.array([[0.0, -0.0, 0.0], [3.0, 0.0, -0.5]])
    e = spectral._unit_exponents(X)
    assert e.tolist() == [[1], [-1]]
    Y = np.ldexp(X, e)
    assert Y[0].tobytes() == X[0].tobytes() and Y[1].tolist() == [1.5, 0.0, -0.25]
    assert spectral._unit_exponents(X, axis=0).tolist() == [[-1, 1, 1]]
    assert spectral._unit_exponents(np.zeros(4)).tolist() == [1]


def test_unit_exponents_of_a_vector_keep_its_axis():
    x = np.array([3.0, -6.5, 1e-3])
    e = spectral._unit_exponents(x)
    assert e.shape == (1,) and np.ldexp(x, e).tolist() == [0.75, -1.625, 0.00025]
    assert spectral._unit_exponents(x, axis=0).tolist() == e.tolist()


# --- eigen ------------------------------------------------------------------


def test_eigen_diagonal_input():
    eig, V = eigen(np.diag([2.0, -3.0]))
    assert np.allclose(eig, [2.0, -3.0])
    assert np.allclose(np.abs(V), np.eye(2))


def test_eigen_known_decomposition():
    rng = np.random.default_rng(0)
    V0 = random_orthogonal(rng, 3)
    A = V0 @ np.diag([5.0, 1.0, -2.0]) @ V0.T
    eig, _ = eigen(0.5 * (A + A.T))
    assert np.allclose(eig, [5.0, 1.0, -2.0], atol=1e-9)


def test_eigen_eigenvalues_sorted_descending():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 6))
    eig, _ = eigen(A + A.T)
    assert np.all(np.diff(eig) <= 1e-12)


def test_eigen_reconstruction_random():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        k = int(rng.integers(1, 101))
        A = rng.standard_normal((k, k))
        A = A + A.T
        eig, V = eigen(A)
        rec = V @ np.diag(eig) @ V.T
        scale = max(np.max(np.abs(A)), 1.0)
        assert np.max(np.abs(rec - A)) <= 1e-9 * scale
        assert np.max(np.abs(V @ V.T - np.eye(k))) <= 1e-10
        # sign convention: each column's largest-magnitude entry is positive
        assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(k)] > 0.0)


def test_eigen_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricError):
        eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_quadratic_constraint_rejects_non_finite():
    good = dict(Q=np.eye(2), b=np.zeros(2), c=-1.0, point=np.array([3.0, 0.0]))
    for key, bad in (
        ("Q", np.array([[np.nan, 0.0], [0.0, 1.0]])),
        ("b", np.array([np.inf, 0.0])),
        ("c", -np.inf),
        ("point", np.array([3.0, np.nan])),
    ):
        with pytest.raises(ValueError):
            QuadraticConstraint(**dict(good, **{key: bad}))


# --- lift -------------------------------------------------------------------


def test_lift_wedge_coefficients():
    qc = wedge_constraint()
    Qt = lift(qc.Q, qc.b, qc.c)
    expected = np.array([[0.0, 1.0, S2], [1.0, 0.0, -S2], [S2, -S2, -2.0]])
    assert np.allclose(Qt, expected, atol=1e-15)


def test_lift_homogeneous_identity_block():
    Qt = lift(np.eye(2), np.zeros(2), 0.0)
    assert np.allclose(Qt, np.diag([1.0, 1.0, 0.0]))


def test_lift_evaluates_quadratic():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = int(rng.integers(1, 6))
        Q = rng.standard_normal((p, p))
        Q = Q + Q.T
        b = rng.standard_normal(p)
        c = float(rng.standard_normal())
        Qt = lift(Q, b, c)
        for _ in range(10):
            s = rng.standard_normal(p)
            v = np.concatenate([s, [1.0]])
            lhs = float(v @ Qt @ v)
            rhs = float(s @ Q @ s + b @ s + c)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_lift_is_the_block_matrix_bit_for_bit():
    rng = np.random.default_rng(4)
    for p in (1, 2, 6, 17):
        Q = rng.standard_normal((p, p))
        Q = Q + Q.T
        b = rng.standard_normal(p) * 10.0 ** rng.integers(-8, 8, p)
        c = float(rng.standard_normal())
        col = b.reshape(-1, 1)
        block = np.block([[Q, col / 2.0], [col.T / 2.0, c]])
        assert np.array_equal(lift(Q, b, c), block)


# --- decompose --------------------------------------------------------------


def _decompose_by_eigen(qc, zero_tol=1e-9):
    """The point-free part of the canonical form by the route ``decompose``
    replaced: ``eigen`` (with its symmetry check) on lift(Q, b, c), index
    lists per sign and ``np.linalg.norm``; the reference for ``decompose``.
    M0 is M before the case-2 rescaling, and the case is the one before the
    λ = −a test."""
    eig, V = eigen(lift(qc.Q, qc.b, qc.c))
    thresh = zero_tol * float(np.max(np.abs(eig)))
    pos, neg = np.flatnonzero(eig > thresh), np.flatnonzero(eig < -thresh)
    zer = np.flatnonzero(np.abs(eig) <= thresh)
    n, m = len(pos), len(neg)
    sigma = np.where(np.abs(eig) <= thresh, 1.0, np.sqrt(np.abs(eig)))
    perm = np.concatenate([pos, neg, zer])
    M0 = M = (sigma[:, None] * V.T)[perm]
    g = -(V[-1] / sigma)[perm]
    a, d, h = g[:n], g[n : n + m], g[n + m :]
    mu = None
    if m == 0:
        case = CASE_EMPTY_S
    elif np.linalg.norm(h) > zero_tol * (1.0 + float(np.linalg.norm(g))):
        case = CASE_HOMOG_H_NONZERO
    elif np.linalg.norm(a) <= np.linalg.norm(d):
        case = CASE_CASE1_CGLAMBDA if m > 1 else CASE_CONVEX_M1
    else:
        mu = np.linalg.norm(a)
        M, a, d, h = mu * M, a / mu, d / mu, h / mu
        case = CASE_CASE2_CR
    return (n, m, len(zer)), eig, M0, M, (a, d, h), case, mu


@pytest.mark.parametrize("k", range(2, 10))
def test_decompose_matches_eigen_of_the_lift_bit_for_bit(k):
    # every signature (n ≥ 1, m, l) of the lifted matrix at p = k − 1 ≤ 8
    rng = np.random.default_rng(k)
    cases = set()
    for n in range(1, k + 1):
        for m in range(k + 1 - n):
            for _ in range(3):
                qc = random_instance(rng, n, m, k - n - m)
                cf = decompose(qc)(qc.point)
                sig, eig, M0, M, adh, case, mu = _decompose_by_eigen(qc)
                assert (cf.n, cf.m, cf.l) == sig == (n, m, k - n - m)
                assert cf.eigenvalues.tobytes() == eig.tobytes()
                assert cf.M.tobytes() == M.tobytes()
                for got, ref in zip((cf.a, cf.d, cf.h), adh):
                    assert got.tobytes() == ref.tobytes()
                assert cf.case2_rescale == mu
                x = (M0 @ np.append(qc.point, 1.0))[:n]
                lam = x / np.linalg.norm(x)
                assert cf.lam.tobytes() == lam.tobytes()
                if mu is not None and np.linalg.norm(lam + adh[0]) <= 1e-9:
                    case = CASE_CASE2_CR_LAMBDA_NEG_A
                assert cf.case == case
                cases.add(case)
    if k >= 4:  # room for a zero eigenvalue beside both signs
        assert {CASE_EMPTY_S, CASE_HOMOG_H_NONZERO, CASE_CASE2_CR} <= cases


# --- canonicalize -----------------------------------------------------------


def test_canonicalize_wedge_structure():
    cf = wedge_canonical()
    assert (cf.n, cf.m, cf.l) == (2, 1, 0)
    assert cf.case == CASE_CASE2_CR
    assert cf.h.size == 0
    assert abs(np.linalg.norm(cf.a) - 1.0) <= 1e-12
    assert np.linalg.norm(cf.d) < 1.0


def test_canonicalize_homogeneous_h_nonzero():
    qc = QuadraticConstraint(
        Q=np.diag([1.0, -1.0]), b=np.zeros(2), c=0.0, point=np.array([3.0, 0.0])
    )
    cf = canonicalize(qc)
    assert (cf.n, cf.m, cf.l) == (1, 1, 1)
    assert cf.case == CASE_HOMOG_H_NONZERO
    assert np.allclose(cf.h, [-1.0])
    assert np.allclose(cf.a, [0.0]) and np.allclose(cf.d, [0.0])


def test_canonicalize_empty_feasible_region():
    qc = QuadraticConstraint(
        Q=np.eye(2), b=np.zeros(2), c=1.0, point=np.array([3.0, 0.0])
    )
    cf = canonicalize(qc)
    assert cf.case == CASE_EMPTY_S
    assert cf.m == 0


def test_canonicalize_convex_m1_case():
    qc = QuadraticConstraint(
        Q=np.eye(2), b=np.zeros(2), c=-1.0, point=np.array([3.0, 0.0])
    )
    cf = canonicalize(qc)
    assert cf.case == CASE_CONVEX_M1
    assert cf.m == 1
    assert np.linalg.norm(cf.a) <= np.linalg.norm(cf.d)


def test_canonicalize_not_separable_feasible_point():
    qc = QuadraticConstraint(
        Q=np.eye(2), b=np.zeros(2), c=-100.0, point=np.array([1.0, 1.0])
    )
    with pytest.raises(NotSeparableError):
        canonicalize(qc)


def test_canonicalize_degenerate_quadratic():
    qc = QuadraticConstraint(
        Q=np.array([[1e-12]]), b=np.zeros(1), c=0.0, point=np.array([1e4])
    )
    with pytest.raises(DegenerateQuadraticError):
        canonicalize(qc)


def test_canonicalize_case_dispatch_total():
    rng = np.random.default_rng(4)
    tags = {
        CASE_EMPTY_S,
        CASE_HOMOG_H_NONZERO,
        CASE_CASE1_CGLAMBDA,
        CASE_CONVEX_M1,
        CASE_CASE2_CR,
        CASE_CASE2_CR_LAMBDA_NEG_A,
    }
    seen = set()
    for _ in range(60):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(0, 4))
        l = int(rng.integers(0, 3))
        if n + m + l < 2:
            continue
        qc = random_instance(rng, n, m, l)
        cf = canonicalize(qc)
        assert cf.case in tags
        seen.add(cf.case)
    assert CASE_CASE2_CR in seen  # the generic case must appear


def _check_identities(qc, cf, rng):
    p = qc.dim
    for _ in range(100):
        s = rng.uniform(-5.0, 5.0, p)
        w = cf.map_point(s)
        x, y, z = w[: cf.n], w[cf.n : cf.n + cf.m], w[cf.n + cf.m :]
        lhs = float(x @ x - y @ y)
        rhs = cf.quad_scale * qc(s)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))
        hv = float(x @ cf.a + y @ cf.d + z @ cf.h)
        assert abs(hv + 1.0) <= 1e-9


def test_canonical_and_hyperplane_identities_random():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        l = int(rng.integers(0, 3))
        qc = random_instance(rng, n, m, l)
        cf = canonicalize(qc)
        _check_identities(qc, cf, rng)


def test_canonicalize_mapped_point_consistent():
    cf = wedge_canonical()
    assert np.allclose(cf.mapped_point, cf.map_point([-2.0, -2.0]), atol=1e-12)
    x = cf.mapped_point[: cf.n]
    assert np.allclose(cf.lam, x / np.linalg.norm(x), atol=1e-12)


def test_signature_stable_under_tiny_perturbation():
    rng = np.random.default_rng(8)
    qc = random_instance(rng, 2, 1, 0)
    cf = canonicalize(qc)
    pert = 1e-13 * rng.standard_normal(qc.Q.shape)
    qc2 = QuadraticConstraint(
        Q=qc.Q + (pert + pert.T) / 2, b=qc.b, c=qc.c, point=qc.point
    )
    cf2 = canonicalize(qc2)
    assert (cf.n, cf.m, cf.l) == (cf2.n, cf2.m, cf2.l)


def _bits(cf):
    return [
        v.tobytes() if isinstance(v, np.ndarray) else v
        for v in (getattr(cf, f.name) for f in dataclasses.fields(cf))
    ]


# every lifted signature (n, m, l) with n ≥ 1 at p = 1…8
_SIGNATURES = [
    (n, m, k - n - m) for k in range(2, 10) for n in range(1, k + 1) for m in range(k + 1 - n)
]


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_reused_decomposition_matches_canonicalize_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for n, m, l in _SIGNATURES:
        qc = random_instance(rng, n, m, l)
        p = qc.dim
        at = decompose(qc)
        cf = at(qc.point)
        points = [qc.point] + [
            qc.point * rng.uniform(0.5, 2.0) + rng.normal(0.0, 0.1, p) for _ in range(4)
        ]
        if cf.case2_rescale is not None:  # w = (−a, 0, 0) is on the slice, with λ = −a
            w = np.concatenate([-cf.a, np.zeros(m + l)])
            points.append(np.linalg.solve(cf.M, w)[:-1])
            assert at(points[-1]).case == CASE_CASE2_CR_LAMBDA_NEG_A
        for point in points:
            if qc(point) <= 1e-9:
                with pytest.raises(NotSeparableError):
                    at(point)
                continue
            fresh = canonicalize(dataclasses.replace(qc, point=point))
            assert _bits(at(point)) == _bits(fresh)


@pytest.mark.parametrize("point", [[np.nan, 0.0], [np.inf, 1.0], [1.0, 2.0, 3.0]])
def test_decomposition_rejects_a_bad_point(point):
    with pytest.raises(ValueError):
        decompose(wedge_constraint())(point)


def test_a_point_whose_w_bar_overflows_is_a_parse_error_and_no_warning(monkeypatch):
    # q is made finite here, so that the product w̄ = M0 (point, 1) is the
    # only overflow: it raises ParseError, not a RuntimeWarning (an error
    # under this suite's warnings filter).  q's own overflow at such a
    # point is the problem-scale item of ROADMAP.md.
    monkeypatch.setattr(QuadraticConstraint, "__call__", lambda self, s: 1.0)
    qc = QuadraticConstraint(
        Q=np.array([[1.0, 1.0], [1.0, -1.0]]), b=np.zeros(2), c=-1.0,
        point=np.array([1.5e308, 1.5e308]),
    )
    with pytest.raises(ParseError, match="not finite"):
        canonicalize(qc)
