"""The gauge behind the nonconvex free sets, and what it derives.

Everything here lives in canonical coordinates: a unit direction λ in
x-space, the hyperplane data (a, d), and the sublinear gauge

    φ(y) = max { λᵀx : ‖x‖ ≤ ‖y‖, aᵀx + dᵀy ≤ 0 },

together with its gradient, the dual multiplier θ, the maximizer x(β)
and the asymptotic relaxation amount r(β), which is θ(β) on the unit
sphere and vanishes on the index set G(λ) = {β : ‖β‖ = 1, aᵀλ + dᵀβ ≤ 0}.
All of them read one decomposition of y (``_gauge_parts``), whose ‖y‖
and dᵀy are each one ``np.vecdot``: one BLAS dot per row, where ``@``
(gemv) may block rows together.  Each function takes a batch of rows, a
1-D input being one row, and returns a value or a vector per row; rows are
read C-contiguous, so a row gives the same bits alone or in a batch of any
memory layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotUnitError
from .spectral import _norm

_UNIT_TOL = 1e-10


@dataclass(frozen=True)
class CaseData:
    """Parameters (λ, a, d) of one canonical instance.

    ``unit_a`` is derived, ‖a‖ = 1 to within 1e-10: the branch where the φ
    machinery applies, whose hypotheses ``CRPhiLambda`` and
    ``oracle.asymptote_sequence`` check where they use them.
    """

    lam: np.ndarray
    a: np.ndarray
    d: np.ndarray
    unit_a: bool = field(init=False)
    lam_a: float = field(init=False)
    d_norm: float = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float).reshape(-1)
        a = np.asarray(self.a, dtype=float).reshape(-1)
        d = np.asarray(self.d, dtype=float).reshape(-1)
        if lam.shape != a.shape:
            raise ValueError("λ and a must have the same dimension")
        if abs(_norm(lam) - 1.0) > 1e-12:
            raise NotUnitError("λ must be a unit vector")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "unit_a", bool(abs(_norm(a) - 1.0) <= _UNIT_TOL))
        object.__setattr__(self, "lam_a", float(lam @ a))
        object.__setattr__(self, "d_norm", float(_norm(d)))


def _check_unit(beta: np.ndarray) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if np.any(np.abs(np.sqrt(np.vecdot(beta, beta)) - 1.0) > _UNIT_TOL):
        raise NotUnitError("β must be a unit vector")
    return beta


def _gauge_parts(cd: CaseData, y: np.ndarray):
    """‖y‖, dᵀy, the flat-branch mask λᵀa‖y‖ + dᵀy ≤ 0 (where φ(y) = ‖y‖)
    and the clamped radicands (‖y‖² − (dᵀy)²)₊ and (1 − (λᵀa)²)₊, for
    each row of y."""
    ny = np.sqrt(np.vecdot(y, y))
    dy = np.vecdot(y, cd.d)
    flat = cd.lam_a * ny + dy <= 0.0
    return ny, dy, flat, np.maximum(ny * ny - dy * dy, 0.0), max(1.0 - cd.lam_a**2, 0.0)


def _rows(y: np.ndarray) -> np.ndarray:
    """y as C-contiguous float rows, a 1-D y being one row."""
    return np.atleast_2d(np.ascontiguousarray(y, dtype=float))


def _phi(cd: CaseData, parts):
    """φ from the ``_gauge_parts`` of y."""
    ny, dy, flat, wsq, lam_sq = parts
    return np.where(flat, ny, np.sqrt(wsq * lam_sq) - dy * cd.lam_a)


def phi_value(cd: CaseData, y: np.ndarray) -> np.ndarray:
    """The gauge φ at each row of y; positively homogeneous and total on Rᵐ."""
    return _phi(cd, _gauge_parts(cd, _rows(y)))


def phi_gradient(cd: CaseData, y: np.ndarray) -> np.ndarray:
    """∇φ at each row of y, as rows; NaN where it is undefined: at 0 and
    on the excluded ray through d."""
    rows = _rows(y)
    ny, dy, flat, wsq, lam_sq = _gauge_parts(cd, rows)
    unit, curved = flat & (ny > 0.0), ~flat & (wsq > 0.0)
    grad = np.full(rows.shape, np.nan)
    grad[unit] = rows[unit] / ny[unit, None]
    grad[curved] = (np.sqrt(lam_sq) / np.sqrt(wsq[curved]))[:, None] * (
        rows[curved] - cd.d * dy[curved, None]
    ) - cd.lam_a * cd.d
    return grad


def theta_dual(cd: CaseData, y: np.ndarray) -> np.ndarray:
    """Optimal dual multiplier for φ at each row of y; 0 on the flat
    branch, +inf on the degenerate ray."""
    _, dy, flat, wsq, lam_sq = _gauge_parts(cd, _rows(y))
    curved = ~flat & (wsq > 0.0)
    theta = np.where(flat, 0.0, np.inf)
    theta[curved] = cd.lam_a + dy[curved] * np.sqrt(lam_sq) / np.sqrt(wsq[curved])
    return theta


def r_coefficient(cd: CaseData, beta: np.ndarray) -> np.ndarray:
    """Asymptotic relaxation amount r(β) for each unit row β of beta; on
    the unit sphere it is the dual multiplier θ(β), and 0 on G(λ)."""
    return theta_dual(cd, _check_unit(beta))


def x_beta(cd: CaseData, y: np.ndarray) -> np.ndarray:
    """Maximizer of λᵀx over {‖x‖ ≤ ‖y‖, aᵀx + dᵀy ≤ 0} for each row of
    y, as rows."""
    ny, dy, flat, wsq, lam_sq = _gauge_parts(cd, _rows(y))
    X = ny[:, None] * cd.lam
    s = np.sqrt(wsq[~flat] / lam_sq)
    X[~flat] = s[:, None] * cd.lam - (dy[~flat] + cd.lam_a * s)[:, None] * cd.a
    return X
