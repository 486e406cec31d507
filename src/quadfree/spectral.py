"""Canonical coordinates for a quadratic inequality.

A quadratic constraint q(s) = sᵀQs + bᵀs + c ≤ 0 is homogenized to the
lifted matrix Q̃ = [[Q, b/2], [bᵀ/2, c]], diagonalized, and rewritten in
coordinates w = M(s, 1) where it reads ‖x‖² ≤ ‖y‖² together with the
affine slice aᵀx + dᵀy + hᵀz = -1.  The case tag records which free-set
construction applies downstream.  Only w̄ = M(s̄, 1), λ and the λ = −a
test depend on the point s̄: ``decompose`` does the rest once per
constraint, and ``canonicalize`` is ``decompose(qc).at(qc.point)``.
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
        vals = ((s @ self.Q) * s).sum(axis=-1) + s @ self.b + self.c
        return float(vals) if s.ndim == 1 else vals


def _descending(eig: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh``'s pairs descending, each vector signed so its largest-magnitude entry is positive."""
    eig, V = eig[::-1], V[:, ::-1]
    return eig, V * np.sign(V[np.abs(V).argmax(0), np.arange(V.shape[1])])


def eigen(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric matrix in descending order and the
    matching orthonormal eigenvector columns, each signed so that its
    largest-magnitude entry is positive."""
    return _descending(*np.linalg.eigh(_as_symmetric(A)))


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


def _norm(v: np.ndarray) -> float:
    """‖v‖ as ``np.linalg.norm`` computes it, without its dispatch."""
    return np.sqrt(v.dot(v))


def _require_violated(q_bar: float, zero_tol: float) -> None:
    if q_bar <= zero_tol:
        raise NotSeparableError(f"q(point) = {q_bar} is not positive")


@dataclass(frozen=True)
class Decomposition:
    """The point-free part of canonicalize for one constraint: the lifted
    eigenvalues and signature, the rows M₀ of M before the case-2
    rescaling, M and (a, d, h) after it, the case before the λ = −a test
    and μ (None outside case 2).  ``at`` adds the per-point part, so many
    points are separated from one constraint with one eigendecomposition."""

    qc: QuadraticConstraint  # its Q, b and c; the point is not read
    zero_tol: float
    n: int
    m: int
    l: int
    M0: np.ndarray
    M: np.ndarray
    a: np.ndarray
    d: np.ndarray
    h: np.ndarray
    eigenvalues: np.ndarray
    case: str
    mu: float | None

    def at(self, point: np.ndarray) -> CanonicalForm:
        """The canonical form at ``point``: q(point) > zero_tol, w̄ = M(point, 1),
        λ = x̄/‖x̄‖ and, in case 2, the λ = −a test."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.qc.dim,) or not np.isfinite(point).all():
            raise ValueError(f"point must be {self.qc.dim} finite numbers")
        _require_violated(self.qc(point), self.zero_tol)
        return self._form(point)

    def _form(self, point: np.ndarray) -> CanonicalForm:
        wbar = self.M0 @ np.concatenate([point, [1.0]])
        xbar = wbar[: self.n]
        lam = xbar / _norm(xbar)
        case, mu = self.case, self.mu
        if mu is not None:
            wbar = mu * wbar
            if _norm(lam + self.a) <= self.zero_tol:
                case = CASE_CASE2_CR_LAMBDA_NEG_A
        return CanonicalForm(
            n=self.n, m=self.m, l=self.l, M=self.M, a=self.a, d=self.d, h=self.h,
            mapped_point=wbar, lam=lam, case=case, eigenvalues=self.eigenvalues,
            quad_scale=1.0 if mu is None else mu * mu, case2_rescale=mu,
        )


def decompose(qc: QuadraticConstraint, zero_tol: float = 1e-9) -> Decomposition:
    """Diagonalize the lifted quadratic of ``qc`` and dispatch the case up
    to the λ = −a test; ``qc.point`` is not read.

    Raises DegenerateQuadraticError when every lifted eigenvalue vanishes
    and NotSeparableError when none is positive.
    """
    # Q̃ is symmetric as built: qc.Q is symmetrised by QuadraticConstraint.
    eig, V = _descending(*np.linalg.eigh(lift(qc.Q, qc.b, qc.c)))
    max_abs = float(max(eig[0], -eig[-1]))
    if max_abs <= zero_tol:
        raise DegenerateQuadraticError("all lifted eigenvalues vanish")

    # eig descends: n positive values lead, m negative trail, l zero between
    k, thresh = eig.size, zero_tol * max_abs
    n, m = int(np.count_nonzero(eig > thresh)), int(np.count_nonzero(eig < -thresh))
    if n == 0:
        raise NotSeparableError("quadratic has no positive directions; q ≤ 0 cannot be violated")

    # Rows of M: scaled eigenvector rows permuted to (x, y, z) order.
    sigma = np.sqrt(np.abs(eig))
    sigma[n : k - m] = 1.0
    perm = np.array([*range(n), *range(k - m, k), *range(n, k - m)])
    M0 = M = (sigma[:, None] * V.T)[perm]

    # The lifted slice e_{p+1}ᵀ(s,1) = 1 becomes gᵀw = 1; negate for rhs -1.
    g = -(V[-1] / sigma)[perm]
    a, d, h = g[:n], g[n : n + m], g[n + m :]

    mu = None  # the case-2 rescaling factor
    if m == 0:
        case = CASE_EMPTY_S
    elif _norm(h) > zero_tol * (1.0 + _norm(g)):
        case = CASE_HOMOG_H_NONZERO
    elif _norm(a) <= _norm(d):
        case = CASE_CASE1_CGLAMBDA if m > 1 else CASE_CONVEX_M1
    else:
        # ‖a‖ > ‖d‖: rescale variables so ‖a‖ = 1 (then ‖d‖ < 1).
        mu = _norm(a)
        M, a, d, h = mu * M, a / mu, d / mu, h / mu
        case = CASE_CASE2_CR
    return Decomposition(
        qc=qc, zero_tol=zero_tol, n=n, m=m, l=k - n - m, M0=M0, M=M, a=a, d=d, h=h,
        eigenvalues=eig, case=case, mu=mu,
    )


def canonicalize(qc: QuadraticConstraint, zero_tol: float = 1e-9) -> CanonicalForm:
    """Diagonalize the lifted quadratic and dispatch the case tag at
    ``qc.point``: ``decompose(qc, zero_tol).at(qc.point)``.

    Raises NotSeparable when q(point) is not strictly positive (nothing
    to separate; checked first) or when the lifted form has no positive
    directions.
    """
    _require_violated(qc(qc.point), zero_tol)
    return decompose(qc, zero_tol)._form(qc.point)
