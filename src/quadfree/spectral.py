"""Canonical coordinates for a quadratic inequality.

A quadratic constraint q(s) = sᵀQs + bᵀs + c ≤ 0 is homogenized to the
lifted matrix Q̃ = [[Q, b/2], [bᵀ/2, c]], diagonalized, and rewritten in
coordinates w = M(s, 1) where it reads ‖x‖² ≤ ‖y‖² together with the
affine slice aᵀx + dᵀy + hᵀz = -1.  The case tag records which free-set
construction applies downstream.  Only w̄ = M(s̄, 1), λ and the λ = −a
test depend on the point s̄: ``decompose`` does the rest once per
constraint and returns the map from a point to its canonical form, and
``canonicalize`` is that map at ``qc.point``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQuadraticError, NonSymmetricError, NotSeparableError, ParseError

# Case tags, one per downstream free-set construction.
CASE_EMPTY_S = "EMPTY_S"
CASE_HOMOG_H_NONZERO = "HOMOG_H_NONZERO"
CASE_CASE1_CGLAMBDA = "CASE1_CGLAMBDA"
CASE_CONVEX_M1 = "CONVEX_M1"
CASE_CASE2_CR = "CASE2_CR"
CASE_CASE2_CR_LAMBDA_NEG_A = "CASE2_CR_LAMBDA_NEG_A"


def _as_symmetric(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSymmetricError(f"expected a square matrix, got shape {A.shape}")
    scale = 1.0 + (np.max(np.abs(A)) if A.size else 0.0)
    # an overflow gives inf, which fails the symmetry test or the caller's finiteness check
    with np.errstate(over="ignore"):
        if np.max(np.abs(A - A.T), initial=0.0) > 1e-12 * scale:
            raise NonSymmetricError("matrix is not symmetric within tolerance")
        return 0.5 * (A + A.T)


@dataclass(frozen=True)
class QuadraticConstraint:
    """A constraint q(s) = sᵀQs + bᵀs + c ≤ 0 plus the point to separate."""

    Q: np.ndarray
    b: np.ndarray
    c: float
    point: np.ndarray

    def __post_init__(self):
        Q = _as_symmetric(self.Q)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        point = np.asarray(self.point, dtype=float).reshape(-1)
        p = Q.shape[0]
        if p < 1:
            raise ValueError("dimension must be positive")
        if b.shape != (p,) or point.shape != (p,):
            raise ValueError("Q, b and point have inconsistent dimensions")
        c = float(self.c)
        if not all(np.isfinite(v).all() for v in (Q, b, c, point)):
            raise ValueError("Q, b, c and point must be finite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "point", point)

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    def __call__(self, s: np.ndarray):
        """q at a point (a float) or at each row of s (an array).  A row's q
        may differ in its last bits alone and in a batch: (s @ Q)·s is a gemv
        for one point and a gemm, which blocks rows together, for a batch."""
        s = np.asarray(s, dtype=float)
        vals = np.add.reduce((s @ self.Q) * s, -1) + s @ self.b + self.c
        return float(vals) if s.ndim == 1 else vals


def _unit_exponents(X: np.ndarray, axis: int = -1) -> np.ndarray:
    """The exponent e of each slice of X along ``axis``, with that axis
    kept, for which ``np.ldexp(X, e)`` has its largest |entry| in [1, 2);
    a zero slice gets e = 1.  Only the direction of a row or ray then
    matters, never its length.  A power of two changes no mantissa bit,
    so the scaling is exact and ``np.ldexp(·, −e)`` undoes it, unless an
    entry far below its slice's largest leaves the normal range."""
    return 1 - np.frexp(np.abs(X).max(axis=axis, keepdims=True))[1]


def _signed(V: np.ndarray) -> np.ndarray:
    """V with each column signed so that its largest-magnitude entry is positive."""
    return V * np.sign(V[np.abs(V).argmax(0), np.arange(V.shape[1])])


def eigen(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric matrix in descending order and the
    matching orthonormal eigenvector columns, each signed so that its
    largest-magnitude entry is positive."""
    eig, V = np.linalg.eigh(_as_symmetric(A))
    return eig[::-1], _signed(V[:, ::-1])


def lift(Q: np.ndarray, b: np.ndarray, c: float) -> np.ndarray:
    """Homogenize (Q, b, c) so (s,1)ᵀ Q̃ (s,1) = q(s)."""
    Q = np.asarray(Q, dtype=float)
    half_b = np.asarray(b, dtype=float).reshape(-1, 1) / 2.0
    if half_b.shape[0] != Q.shape[0]:
        raise ValueError("Q and b have inconsistent dimensions")
    p = Q.shape[0]
    Qt = np.empty((p + 1, p + 1))
    Qt[:p, :p] = Q
    Qt[:p, p:], Qt[p:, :p] = half_b, half_b.T
    Qt[p, p] = float(c)
    return Qt


@dataclass(frozen=True)
class CanonicalForm:
    """Result of canonicalize: coordinates w = M(s,1), a case tag and
    the hyperplane data (a, d, h) with right-hand side -1, the lifted
    eigenvalues (descending), and μ = ‖a‖ when case 2 rescaled M by it
    (else None).  The signature (n, m, l) is read off the lengths of a, d
    and h."""

    M: np.ndarray
    a: np.ndarray
    d: np.ndarray
    h: np.ndarray
    mapped_point: np.ndarray
    lam: np.ndarray
    case: str
    eigenvalues: np.ndarray | None = None
    case2_rescale: float | None = None

    @property
    def n(self) -> int:
        """The number of positive lifted eigenvalues, the length of x."""
        return self.a.size

    @property
    def m(self) -> int:
        """The number of negative lifted eigenvalues, the length of y."""
        return self.d.size

    @property
    def l(self) -> int:
        """The number of zero lifted eigenvalues, the length of z."""
        return self.h.size

    @property
    def quad_scale(self) -> float:
        """The factor with ‖x‖² − ‖y‖² = quad_scale·q(s): μ², or 1 unrescaled."""
        mu = self.case2_rescale
        return 1.0 if mu is None else mu * mu

    def map_point(self, s: np.ndarray) -> np.ndarray:
        """w = M(s, 1) for a point or for each row of s."""
        s = np.asarray(s, dtype=float)
        return s @ self.M[:, :-1].T + self.M[:, -1]

    def map_direction(self, r: np.ndarray) -> np.ndarray:
        """Image of an s-space direction, or of each row of r, under the
        linear part of M."""
        return np.asarray(r, dtype=float) @ self.M[:, :-1].T


def _norm(v: np.ndarray) -> float:
    """‖v‖ as ``np.linalg.norm`` computes it, without its dispatch."""
    return np.sqrt(v.dot(v))


def decompose(qc: QuadraticConstraint, zero_tol: float = 1e-9) -> Callable[[np.ndarray], CanonicalForm]:
    """Diagonalize the lifted quadratic of ``qc`` and dispatch the case up
    to the λ = −a test; ``qc.point`` is not read.  Returns ``at``, which
    maps a point to its canonical form, so many points are separated from
    one constraint with one eigendecomposition.

    Raises DegenerateQuadraticError when every lifted eigenvalue vanishes,
    NotSeparableError when none is positive and ParseError when ``eigh``
    does not converge; ``at`` raises ParseError where w̄ is not finite.
    """
    # Q̃ is symmetric as built: qc.Q is symmetrised by QuadraticConstraint.
    try:
        eig, V = np.linalg.eigh(lift(qc.Q, qc.b, qc.c))
    except np.linalg.LinAlgError as exc:
        raise ParseError(f"the lifted matrix has no eigendecomposition: {exc}") from exc
    max_abs = float(max(eig[-1], -eig[0]))
    if max_abs <= zero_tol:
        raise DegenerateQuadraticError("all lifted eigenvalues vanish")

    # eig ascends: m negative values lead, n positive trail, l zero between
    k, thresh = eig.size, zero_tol * max_abs
    n, m = k - int(eig.searchsorted(thresh, "right")), int(eig.searchsorted(-thresh))
    if n == 0:
        raise NotSeparableError("quadratic has no positive directions; q ≤ 0 cannot be violated")

    # Rows of M: scaled eigenvector rows in (x, y, z) order, each part descending.
    xyz = np.array([*range(k - 1, k - n - 1, -1), *range(m - 1, -1, -1), *range(k - n - 1, m - 1, -1)])
    V = _signed(V[:, xyz])
    sigma = np.sqrt(np.abs(eig[xyz]))
    sigma[n + m :] = 1.0
    M0 = M = sigma[:, None] * V.T

    # The lifted slice e_{p+1}ᵀ(s,1) = 1 becomes gᵀw = 1; negate for rhs -1.
    g = -(V[-1] / sigma)
    a, d, h = g[:n], g[n : n + m], g[n + m :]

    mu = None  # the case-2 rescaling factor
    if m == 0:
        case = CASE_EMPTY_S
    elif h.size and _norm(h) > zero_tol * (1.0 + _norm(g)):  # an empty h has norm 0
        case = CASE_HOMOG_H_NONZERO
    elif (norm_a := _norm(a)) <= _norm(d):
        case = CASE_CASE1_CGLAMBDA if m > 1 else CASE_CONVEX_M1
    else:
        # ‖a‖ > ‖d‖: rescale variables so ‖a‖ = 1 (then ‖d‖ < 1).
        mu = norm_a
        M, a, d, h = mu * M, a / mu, d / mu, h / mu
        case = CASE_CASE2_CR

    def at(point: np.ndarray) -> CanonicalForm:
        """The canonical form at ``point``: q(point) > zero_tol, w̄ = M(point, 1),
        λ = x̄/‖x̄‖ and, in case 2, the λ = −a test."""
        if point is not qc.point:  # QuadraticConstraint checked its own point
            point = np.asarray(point, dtype=float)
            if point.shape != (qc.dim,) or not np.isfinite(point).all():
                raise ValueError(f"point must be {qc.dim} finite numbers")
        q_bar = qc(point)
        if q_bar <= zero_tol:
            raise NotSeparableError(f"q(point) = {q_bar} is not positive")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite w̄ raises below
            wbar = M0 @ np.concatenate([point, [1.0]])
            mapped = wbar if mu is None else mu * wbar
        if np.count_nonzero(np.isfinite(mapped)) < k:  # the cheapest all()
            raise ParseError("w̄ = M(point, 1) is not finite")
        # x̄ at unit exponents: ‖x̄‖² neither overflows nor underflows
        x = np.ldexp(wbar[:n], _unit_exponents(wbar[:n]))
        lam = x / _norm(x)
        case_at = case
        if mu is not None and _norm(lam + a) <= zero_tol:
            case_at = CASE_CASE2_CR_LAMBDA_NEG_A
        return CanonicalForm(
            M=M, a=a, d=d, h=h, mapped_point=mapped, lam=lam, case=case_at,
            eigenvalues=eig[::-1], case2_rescale=mu,
        )

    return at


def canonicalize(qc: QuadraticConstraint, zero_tol: float = 1e-9) -> CanonicalForm:
    """The canonical form at ``qc.point``, ``decompose(qc, zero_tol)(qc.point)``:
    the eigenvalue checks of ``decompose`` come before q(point) > zero_tol
    is checked, so a vanishing quadratic raises DegenerateQuadraticError."""
    return decompose(qc, zero_tol)(qc.point)
