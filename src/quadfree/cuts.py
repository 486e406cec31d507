"""Intersection cuts: from a simplicial cone and a free set to a linear
inequality in the original variables.

With cone multipliers u = R⁻¹(s − apex) and per-ray boundary steps t*_j
(computed in canonical coordinates, where the quadratic's free set
lives), the cut is Σ_j u_j / t*_j ≥ 1; infinite steps contribute 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import freesets, lp, spectral
from .errors import AllRaysRecessionError, UncertifiedStepError

_COND_CAP = 1e10
_RESIDUAL_CAP = 1e-6


@dataclass(frozen=True)
class SimplicialCone:
    """Apex plus p linearly independent ray columns, all finite.  Rays
    alone must have cond ≤ 1e10 once each is scaled by
    ``spectral._unit_exponents``; a cone read off an LP vertex carries its
    tight rows A_N instead, and then R must be −A_N⁻¹."""

    apex: np.ndarray
    R: np.ndarray
    tight_rows: np.ndarray | None = None

    def __post_init__(self):
        apex = np.asarray(self.apex, dtype=float).reshape(-1)
        R = np.asarray(self.R, dtype=float)
        p = apex.shape[0]
        if R.shape != (p, p):
            raise ValueError("ray matrix must be p×p")
        if not (np.isfinite(apex).all() and np.isfinite(R).all()):
            raise ValueError("the apex and every ray must be finite")
        if self.tight_rows is None:
            if np.linalg.cond(np.ldexp(R, spectral._unit_exponents(R, axis=0))) > _COND_CAP:
                raise ValueError("cone is not simplicial (ray matrix ill-conditioned)")
        elif not lp.ray_residual(self.tight_rows, R) <= _RESIDUAL_CAP:
            # an LP cone keeps this gate: about 3× cheaper per cut than a
            # cond, and it checks that R inverts the tight rows
            raise ValueError("cone is not simplicial (rays ill-conditioned: ‖A_N R + I‖ > 1e-6)")
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "R", R)


@dataclass(frozen=True)
class CutCertificate:
    """A cut coefᵀs ≤ rhs violated by the cone apex, with bookkeeping:
    per ray j, the boundary step steps[j] (+inf for a recession ray) and
    its margin residuals[j]."""

    steps: np.ndarray
    residuals: np.ndarray
    coef: np.ndarray
    rhs: float
    cone: SimplicialCone
    canonical_form: spectral.CanonicalForm
    free_set: freesets.FreeSetDescriptor

    @property
    def weights(self) -> np.ndarray:
        """The weight 1 / steps[j] of each ray, 0 for a recession ray."""
        return 1.0 / self.steps

    @property
    def apex_violation(self) -> float:
        """coefᵀapex − rhs, how far the cone apex violates the cut."""
        return float(self.coef @ self.cone.apex - self.rhs)


def intersection_cut(
    cone: SimplicialCone, cf: spectral.CanonicalForm, fs: freesets.FreeSetDescriptor
) -> CutCertificate:
    """Assemble the intersection cut for one cone and free set."""
    apex, rays = cf.map_point(cone.apex), cf.map_direction(cone.R.T)
    # step each ray scaled to unit exponents, so no step depends on its length
    e = spectral._unit_exponents(rays)
    unit_steps, residuals = freesets.boundary_steps(fs, apex, np.ldexp(rays, e))
    e = e[:, 0]
    # a finite step m·2ᵏ (m in [1/2, 1)) scaled back by 2ᵉ overflows iff
    # k + e > 1024; an infinite one has k = 0 and stays infinite
    over = np.frexp(unit_steps)[1] + e > 1024
    if np.count_nonzero(over) and (lost := over & (unit_steps < np.inf)).any():
        raise UncertifiedStepError(f"the steps of rays {lost.nonzero()[0]} do not fit a float")
    steps = np.ldexp(unit_steps, e)
    if np.count_nonzero(inf := np.isinf(steps)) and inf.all():
        raise AllRaysRecessionError("free set contains the whole cone")

    weights = 1.0 / steps
    # Σ_j weights_j · (R⁻¹(s − apex))_j ≥ 1, rewritten as coefᵀs ≤ rhs.
    gamma = np.linalg.solve(cone.R.T, weights)
    coef = -gamma
    rhs = -(1.0 + gamma @ cone.apex)
    return CutCertificate(
        steps=steps, residuals=residuals, coef=coef, rhs=float(rhs), cone=cone,
        canonical_form=cf, free_set=fs,
    )


def separate(
    qc: spectral.QuadraticConstraint, cone: SimplicialCone, zero_tol: float = 1e-9
) -> CutCertificate:
    """End to end: the canonical form at the cone's apex, the free set, the
    cut.  The apex is the point cut off, whatever ``qc.point`` is."""
    cf = spectral.decompose(qc, zero_tol)(cone.apex)
    return intersection_cut(cone, cf, freesets.build_free_set(cf))
