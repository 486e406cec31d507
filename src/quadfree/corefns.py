"""Scalar machinery behind the nonconvex free sets.

Everything here lives in canonical coordinates: a unit direction λ in
x-space, the hyperplane data (a, d), and the sublinear gauge

    φ(y) = max { λᵀx : ‖x‖ ≤ ‖y‖, aᵀx + dᵀy ≤ 0 },

together with its gradient, the dual multiplier θ and the asymptotic
relaxation amount r(β), which vanishes on the index set
G(λ) = {β : ‖β‖ = 1, aᵀλ + dᵀβ ≤ 0}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotUnitError, UndefinedGradientError

_UNIT_TOL = 1e-10


@dataclass(frozen=True)
class CaseData:
    """Parameters (λ, a, d) of one canonical instance.

    ``unit_a`` marks instances on the ‖a‖ = 1 branch of the pipeline,
    where the φ machinery applies; it is enforced at construction.
    """

    lam: np.ndarray
    a: np.ndarray
    d: np.ndarray
    unit_a: bool = False
    lam_a: float = field(init=False)
    d_norm: float = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float).reshape(-1)
        a = np.asarray(self.a, dtype=float).reshape(-1)
        d = np.asarray(self.d, dtype=float).reshape(-1)
        if lam.shape != a.shape:
            raise ValueError("λ and a must have the same dimension")
        if abs(np.linalg.norm(lam) - 1.0) > 1e-12:
            raise NotUnitError("λ must be a unit vector")
        if self.unit_a:
            if abs(np.linalg.norm(a) - 1.0) > _UNIT_TOL:
                raise NotUnitError("‖a‖ = 1 required on this branch")
            if np.linalg.norm(d) > 1.0 + 1e-12:
                raise ValueError("‖d‖ ≤ 1 required on this branch")
            if np.linalg.norm(lam - a) <= 1e-12:
                raise ValueError("λ = a is excluded on this branch")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "lam_a", float(lam @ a))
        object.__setattr__(self, "d_norm", float(np.linalg.norm(d)))


def _check_unit(beta: np.ndarray) -> np.ndarray:
    beta = np.asarray(beta, dtype=float).reshape(-1)
    if abs(np.linalg.norm(beta) - 1.0) > _UNIT_TOL:
        raise NotUnitError("β must be a unit vector")
    return beta


def phi_value(cd: CaseData, y: np.ndarray):
    """Evaluate the gauge φ at a vector (a float) or at each row of y;
    positively homogeneous and total on Rᵐ."""
    y = np.asarray(y, dtype=float)
    ny = np.sqrt((y * y).sum(axis=-1))
    dy = (y * cd.d).sum(axis=-1)
    rad = np.maximum(ny * ny - dy * dy, 0.0) * max(1.0 - cd.lam_a**2, 0.0)
    vals = np.where(cd.lam_a * ny + dy <= 0.0, ny, np.sqrt(rad) - dy * cd.lam_a)
    return float(vals) if y.ndim == 1 else vals


def phi_gradient(cd: CaseData, y: np.ndarray) -> np.ndarray:
    """Gradient of φ where defined; raises at 0 and on the excluded ray."""
    y = np.asarray(y, dtype=float).reshape(-1)
    ny = float(np.linalg.norm(y))
    if ny == 0.0:
        raise UndefinedGradientError("φ is not differentiable at y = 0")
    dy = float(cd.d @ y)
    if cd.lam_a * ny + dy <= 0.0:
        return y / ny
    wsq = ny * ny - dy * dy
    if wsq <= 0.0:
        raise UndefinedGradientError("φ is not differentiable along the ray through d")
    coef = np.sqrt(max(1.0 - cd.lam_a**2, 0.0)) / np.sqrt(wsq)
    return coef * (y - cd.d * dy) - cd.lam_a * cd.d


def theta_dual(cd: CaseData, y: np.ndarray) -> float:
    """Optimal dual multiplier for φ(y); +inf on the degenerate ray."""
    y = np.asarray(y, dtype=float).reshape(-1)
    ny = float(np.linalg.norm(y))
    dy = float(cd.d @ y)
    if cd.lam_a * ny + dy <= 0.0:
        return 0.0
    wsq = ny * ny - dy * dy
    if wsq <= 0.0:
        return np.inf
    return cd.lam_a + dy * np.sqrt(max(1.0 - cd.lam_a**2, 0.0)) / np.sqrt(wsq)


def r_coefficient(cd: CaseData, beta: np.ndarray) -> float:
    """Asymptotic relaxation amount r(β) for a unit index β."""
    beta = _check_unit(beta)
    db = float(cd.d @ beta)
    if cd.lam_a + db <= 0.0:
        return 0.0
    phi = phi_value(cd, beta)
    denom = phi + db * cd.lam_a
    # denom = √((1−(dᵀβ)²)(1−(λᵀa)²)) > 0 under ‖d‖ < 1 = ‖a‖.
    return (db + cd.lam_a * phi) / denom


def x_beta(cd: CaseData, y: np.ndarray) -> np.ndarray:
    """Maximizer of λᵀx over {‖x‖ ≤ ‖y‖, aᵀx + dᵀy ≤ 0}."""
    y = np.asarray(y, dtype=float).reshape(-1)
    ny = float(np.linalg.norm(y))
    dy = float(cd.d @ y)
    if cd.lam_a * ny + dy <= 0.0:
        return cd.lam * ny
    s = np.sqrt(max(ny * ny - dy * dy, 0.0) / max(1.0 - cd.lam_a**2, 0.0))
    return s * cd.lam - (dy + cd.lam_a * s) * cd.a
