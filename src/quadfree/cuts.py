"""Intersection cuts: from a simplicial cone and a free set to a linear
inequality in the original variables.

With cone multipliers u = R⁻¹(s − apex) and per-ray boundary steps t*_j
(computed in canonical coordinates, where the quadratic's free set
lives), the cut is Σ_j u_j / t*_j ≥ 1; infinite steps contribute 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import freesets, spectral
from .errors import AllRaysRecessionError

_COND_CAP = 1e10


@dataclass(frozen=True)
class SimplicialCone:
    """Apex plus p linearly independent ray columns."""

    apex: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        apex = np.asarray(self.apex, dtype=float).reshape(-1)
        R = np.asarray(self.R, dtype=float)
        p = apex.shape[0]
        if R.shape != (p, p):
            raise ValueError("ray matrix must be p×p")
        if np.linalg.cond(R) > _COND_CAP:
            raise ValueError("cone is not simplicial (ray matrix ill-conditioned)")
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "R", R)


@dataclass(frozen=True)
class CutCertificate:
    """A cut coefᵀs ≤ rhs violated by the cone apex, with bookkeeping:
    per ray j, the boundary step steps[j] (+inf for a recession ray), its
    margin residuals[j] and the weight 1 / steps[j]."""

    steps: np.ndarray
    residuals: np.ndarray
    coef: np.ndarray
    rhs: float
    apex_violation: float
    weights: np.ndarray
    cone: SimplicialCone
    canonical_form: spectral.CanonicalForm
    free_set: freesets.FreeSetDescriptor


def intersection_cut(
    cone: SimplicialCone, cf: spectral.CanonicalForm, fs: freesets.FreeSetDescriptor
) -> CutCertificate:
    """Assemble the intersection cut for one cone and free set."""
    apex, rays = cf.map_point(cone.apex), cf.map_direction(cone.R.T)
    steps, residuals = freesets.boundary_steps(fs, apex, rays)
    if np.isinf(steps).all():
        raise AllRaysRecessionError("free set contains the whole cone")

    weights = 1.0 / steps
    # Σ_j weights_j · (R⁻¹(s − apex))_j ≥ 1, rewritten as coefᵀs ≤ rhs.
    gamma = np.linalg.solve(cone.R.T, weights)
    coef = -gamma
    rhs = -(1.0 + gamma @ cone.apex)
    violation = float(coef @ cone.apex - rhs)
    return CutCertificate(
        steps=steps, residuals=residuals, coef=coef, rhs=float(rhs), apex_violation=violation,
        weights=weights, cone=cone, canonical_form=cf, free_set=fs,
    )


def separate(
    qc: spectral.QuadraticConstraint, cone: SimplicialCone, zero_tol: float = 1e-9
) -> CutCertificate:
    """End to end: canonicalize, build the free set, cut."""
    cf = spectral.canonicalize(qc, zero_tol=zero_tol)
    return intersection_cut(cone, cf, freesets.build_free_set(cf))
