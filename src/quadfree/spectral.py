"""Canonical coordinates for a quadratic inequality.

A quadratic constraint q(s) = sᵀQs + bᵀs + c ≤ 0 is homogenized to the
lifted matrix Q̃ = [[Q, b/2], [bᵀ/2, c]], diagonalized, and rewritten in
coordinates w = M(s, 1) where it reads ‖x‖² ≤ ‖y‖² together with the
affine slice aᵀx + dᵀy + hᵀz = -1.  The case tag records which free-set
construction applies downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQuadraticError, NonSymmetricError, NotSeparableError

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
        """q at a point (a float) or at each row of s (an array)."""
        s = np.asarray(s, dtype=float)
        vals = np.sum((s @ self.Q) * s, axis=-1) + s @ self.b + self.c
        return float(vals) if s.ndim == 1 else vals


def eigen(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric matrix in descending order and the
    matching orthonormal eigenvector columns, each signed so that its
    largest-magnitude entry is positive."""
    eig, V = np.linalg.eigh(_as_symmetric(A))
    eig, V = eig[::-1], V[:, ::-1]
    cols = np.arange(V.shape[1])
    V = V * np.sign(V[np.argmax(np.abs(V), axis=0), cols])
    return eig, V


def lift(Q: np.ndarray, b: np.ndarray, c: float) -> np.ndarray:
    """Homogenize (Q, b, c) so (s,1)ᵀ Q̃ (s,1) = q(s)."""
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    if b.shape[0] != Q.shape[0]:
        raise ValueError("Q and b have inconsistent dimensions")
    return np.block([[Q, b / 2.0], [b.T / 2.0, float(c)]])


@dataclass(frozen=True)
class CanonicalForm:
    """Result of canonicalize: coordinates w = M(s,1), a case tag and
    the hyperplane data (a, d, h) with right-hand side -1, the lifted
    eigenvalues (descending), the factor with ‖x‖² − ‖y‖² = quad_scale·q(s),
    and μ = ‖a‖ when case 2 rescaled M by it (else None)."""

    n: int
    m: int
    l: int
    M: np.ndarray
    a: np.ndarray
    d: np.ndarray
    h: np.ndarray
    mapped_point: np.ndarray
    lam: np.ndarray
    case: str
    eigenvalues: np.ndarray | None = None
    quad_scale: float = 1.0
    case2_rescale: float | None = None

    def map_point(self, s: np.ndarray) -> np.ndarray:
        """w = M(s, 1) for a point or for each row of s."""
        s = np.asarray(s, dtype=float)
        return s @ self.M[:, :-1].T + self.M[:, -1]

    def map_direction(self, r: np.ndarray) -> np.ndarray:
        """Image of an s-space direction, or of each row of r, under the
        linear part of M."""
        return np.asarray(r, dtype=float) @ self.M[:, :-1].T


def canonicalize(qc: QuadraticConstraint, zero_tol: float = 1e-9) -> CanonicalForm:
    """Diagonalize the lifted quadratic and dispatch the case tag.

    Raises NotSeparable when q(point) is not strictly positive (nothing
    to separate) or when the lifted form has no positive directions.
    """
    q_bar = qc(qc.point)
    if q_bar <= zero_tol:
        raise NotSeparableError(f"q(point) = {q_bar} is not positive")

    Qt = lift(qc.Q, qc.b, qc.c)
    eig, V = eigen(Qt)
    max_abs = float(np.max(np.abs(eig)))
    if max_abs <= zero_tol:
        raise DegenerateQuadraticError("all lifted eigenvalues vanish")

    thresh = zero_tol * max_abs
    pos = np.flatnonzero(eig > thresh)
    neg = np.flatnonzero(eig < -thresh)
    zer = np.flatnonzero(np.abs(eig) <= thresh)
    n, m, l = len(pos), len(neg), len(zer)
    if n == 0:
        raise NotSeparableError("quadratic has no positive directions; q ≤ 0 cannot be violated")

    # Rows of M: scaled eigenvector rows permuted to (x, y, z) order.
    sigma = np.where(np.abs(eig) <= thresh, 1.0, np.sqrt(np.abs(eig)))
    perm = np.concatenate([pos, neg, zer])
    M = (sigma[:, None] * V.T)[perm]

    # The lifted slice e_{p+1}ᵀ(s,1) = 1 becomes gᵀw = 1; negate for rhs -1.
    g = -(V[-1] / sigma)[perm]

    wbar = M @ np.concatenate([qc.point, [1.0]])
    a, d, h = g[:n], g[n : n + m], g[n + m :]

    xbar = wbar[:n]
    lam = xbar / np.linalg.norm(xbar)

    mu = None  # the case-2 rescaling factor
    if m == 0:
        case = CASE_EMPTY_S
    elif np.linalg.norm(h) > zero_tol * (1.0 + float(np.linalg.norm(g))):
        case = CASE_HOMOG_H_NONZERO
    elif np.linalg.norm(a) <= np.linalg.norm(d):
        case = CASE_CASE1_CGLAMBDA if m > 1 else CASE_CONVEX_M1
    else:
        # ‖a‖ > ‖d‖: rescale variables so ‖a‖ = 1 (then ‖d‖ < 1).
        mu = np.linalg.norm(a)
        M, wbar, a, d, h = mu * M, mu * wbar, a / mu, d / mu, h / mu
        lam_neg_a = np.linalg.norm(lam + a) <= zero_tol
        case = CASE_CASE2_CR_LAMBDA_NEG_A if lam_neg_a else CASE_CASE2_CR
    return CanonicalForm(
        n=n, m=m, l=l, M=M, a=a, d=d, h=h, mapped_point=wbar, lam=lam, case=case,
        eigenvalues=eig, quad_scale=1.0 if mu is None else mu * mu, case2_rescale=mu,
    )
