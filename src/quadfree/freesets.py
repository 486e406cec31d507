"""Free-set families as margin functions, plus boundary steps along rays.

Each descriptor exposes ``margin(w)`` with the convention

    margin < 0  ⇔  w interior,   = 0 boundary,   > 0 exterior.

Margins accept a single point or a batch of row points.  The families:

* ``CLambda``      — the cone λᵀx ≥ ‖y‖.
* ``CGLambda``     — support-function relaxation over the index set G(λ).
* ``CPhiLambda``   — epigraph-style set φ(y) ≤ λᵀx.
* ``CRPhiLambda``  — the hyperplane-relative enlargement of CPhiLambda.
* ``Halfspace``    — a single linear inequality (convex cases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .corefns import CaseData, phi_value
from .errors import ApexNotInteriorError

_T_CAP = 1e12


@dataclass(frozen=True)
class FreeSetDescriptor:
    """Base for all free-set variants; concrete classes implement
    ``_margin_rows`` over a batch of row points."""

    n: int
    m: int
    l: int

    @property
    def dim(self) -> int:
        return self.n + self.m + self.l

    def margin(self, w):
        """Margin at a point (a float) or at each row of w (an array)."""
        w = np.asarray(w, dtype=float)
        if w.ndim == 1:
            return float(self._margin_rows(w[None, :])[0])
        return self._margin_rows(w)

    def _margin_rows(self, W):
        raise NotImplementedError

    def _split(self, w):
        return w[:, : self.n], w[:, self.n : self.n + self.m]


@dataclass(frozen=True)
class CLambda(FreeSetDescriptor):
    lam: np.ndarray = None

    def _margin_rows(self, W):
        x, y = self._split(W)
        return np.linalg.norm(y, axis=1) - x @ self.lam


@dataclass(frozen=True)
class CGLambda(FreeSetDescriptor):
    cd: CaseData = None
    forced: bool = False

    def __post_init__(self):
        if not self.forced:
            norm_a = np.linalg.norm(self.cd.a)
            if norm_a > self.cd.d_norm + 1e-12 or self.m <= 1:
                raise ValueError(
                    "CGLambda needs ‖a‖ ≤ ‖d‖ and m > 1 (pass forced=True to bypass)"
                )

    def _margin_rows(self, W):
        """Support of G(λ) = {‖β‖ = 1, dᵀβ ≤ −λᵀa} at y, minus λᵀx."""
        x, y = self._split(W)
        cd = self.cd
        return _cap_support(cd, y, -cd.lam_a, relaxed=False) - x @ cd.lam


def _cap_support(cd: CaseData, t: np.ndarray, c: float, relaxed: bool) -> np.ndarray:
    """Support value over a spherical cap of unit directions, per row of t.

    With ``relaxed=False`` the cap is {‖β‖ = 1, dᵀβ ≤ c} and the support of
    ⟨β, t⟩ is taken; with ``relaxed=True`` the cap is {‖β‖ = 1, dᵀβ ≥ c} and
    the direction is the curved gauge gradient, whose support over the cap
    equals φ(t) when the gauge's own maximizer lies inside the cap.  In
    either case, when the maximizer falls outside the cap the optimum sits
    on the boundary circle {dᵀβ = c}, where both direction fields coincide
    with β itself, giving the circle support ``_circle_support``.  An empty
    cap yields −inf.
    """
    nd = cd.d_norm
    nt = np.linalg.norm(t, axis=1)
    dt = t @ cd.d
    if cd.d.shape[0] == 1:
        d1 = float(cd.d[0])
        out = np.full(t.shape[0], -np.inf)
        for beta in (-1.0, 1.0):
            inside = d1 * beta >= c if relaxed else d1 * beta <= c
            if not inside:
                continue
            if relaxed:
                slope = beta * math.sqrt(
                    max((1.0 - cd.lam_a**2) * (1.0 - d1 * d1), 0.0)
                ) - cd.lam_a * d1
            else:
                slope = beta
            out = np.maximum(out, slope * t[:, 0])
        return out
    if nd == 0.0:
        if relaxed:
            return phi_value(cd, t) if c <= 0.0 else np.full(t.shape[0], -np.inf)
        return nt if c >= 0.0 else np.full(t.shape[0], -np.inf)
    if relaxed:
        if c > nd:
            return np.full(t.shape[0], -np.inf)
        if c < -nd:
            return phi_value(cd, t)
        interior = cd.lam_a * nt + dt >= 0.0
        return np.where(interior, phi_value(cd, t), _circle_support(cd, nt, dt, c))
    if c >= nd:
        return nt
    if c < -nd:
        return np.full(t.shape[0], -np.inf)
    interior = cd.lam_a * nt + dt <= 0.0
    return np.where(interior, nt, _circle_support(cd, nt, dt, c))


def _circle_support(
    cd: CaseData, nt: np.ndarray, dt: np.ndarray, c: float
) -> np.ndarray:
    """Support of ⟨β, t⟩ over the circle {‖β‖ = 1, dᵀβ = c}, per row of t,
    from the row norms nt = ‖t‖ and the products dt = dᵀt."""
    nd = cd.d_norm
    height = math.sqrt(max(1.0 - (c / nd) ** 2, 0.0))
    tang = np.sqrt(np.clip(nt * nt - (dt / nd) ** 2, 0.0, None))
    return (c / nd**2) * dt + height * tang


@dataclass(frozen=True)
class CPhiLambda(FreeSetDescriptor):
    cd: CaseData = None

    def _margin_rows(self, W):
        x, y = self._split(W)
        return phi_value(self.cd, y) - x @ self.cd.lam


@dataclass(frozen=True)
class CRPhiLambda(FreeSetDescriptor):
    """Hyperplane-relative set: relaxed by r(β) on indices outside G(λ)."""

    cd: CaseData = None

    def __post_init__(self):
        if not (self.cd.unit_a and self.cd.d_norm < 1.0):
            raise ValueError("CRPhiLambda needs ‖a‖ = 1 > ‖d‖")

    def _margin_rows(self, W):
        """max over β of −λᵀx + ∇φ(β)ᵀy − r(β), evaluated in closed form.

        The unit directions break into the unrelaxed cap {dᵀβ ≤ −λᵀa}
        (gradient β, offset 0) and the relaxed cap (curved gradient,
        offset r(β)).  After translating the relaxed family by
        y₀ = d/(1−‖d‖²) both suprema reduce to gauges of spherical caps,
        and the margin is the larger of the two support values.
        """
        cd = self.cd
        x, y = self._split(W)
        lam_x = x @ cd.lam
        shift = 1.0 / (1.0 - cd.d_norm**2)
        y0 = cd.d * shift
        c = -cd.lam_a
        unrelaxed = _cap_support(cd, y, c, relaxed=False)
        relaxed = _cap_support(cd, y - y0, c, relaxed=True)
        return np.maximum(unrelaxed - lam_x, relaxed - lam_x - cd.lam_a * shift)


@dataclass(frozen=True)
class Halfspace(FreeSetDescriptor):
    coef: np.ndarray = None
    rhs: float = 0.0

    def _margin_rows(self, W):
        return W @ self.coef - self.rhs


def build_free_set(cf: spectral.CanonicalForm) -> FreeSetDescriptor:
    """Pick the maximal free set matching the canonical case tag."""
    n, m, l = cf.n, cf.m, cf.l
    case = cf.case
    if case == spectral.CASE_EMPTY_S:
        # Feasible region is empty: the whole space is trivially free.
        return Halfspace(n, m, l, coef=np.zeros(n + m + l), rhs=1.0)
    if case == spectral.CASE_HOMOG_H_NONZERO:
        # CLambda reads only x and y, so it is a cylinder over z already.
        return CLambda(n, m, l, lam=cf.lam)
    if case == spectral.CASE_CASE1_CGLAMBDA:
        return CGLambda(n, m, l, cd=CaseData(cf.lam, cf.a, cf.d))
    if case == spectral.CASE_CONVEX_M1:
        return _convex_m1_halfspace(cf)
    cd = CaseData(cf.lam, cf.a, cf.d, unit_a=True)
    if case == spectral.CASE_CASE2_CR_LAMBDA_NEG_A:
        return CPhiLambda(n, m, l, cd=cd)
    if case == spectral.CASE_CASE2_CR:
        return CRPhiLambda(n, m, l, cd=cd)
    raise ValueError(f"unknown case tag {case!r}")


def _convex_m1_halfspace(cf: spectral.CanonicalForm) -> Halfspace:
    """Supporting halfspace of the convex slice for the m = 1 case.

    On the hyperplane, y = (−1 − aᵀx)/d₁ and the feasible region is the
    convex set {g(x) ≤ 0} with g(x) = ‖x‖² − y(x)².  g(0) < 0 and
    g(x̄) > 0 at the mapped point, so on the segment t·x̄ the set's
    boundary is the first root t* = 1/(|d₁|‖x̄‖ − aᵀx̄) of
    t|d₁|‖x̄‖ = 1 + t·aᵀx̄; g(x̄) > 0 makes the denominator exceed 1.
    The supporting hyperplane at t*·x̄ is the free halfspace.
    """
    a, d1 = cf.a, float(cf.d[0])
    xbar = cf.mapped_point[: cf.n]
    x_b = xbar / (abs(d1) * np.linalg.norm(xbar) - a @ xbar)
    y_b = (-1.0 - a @ x_b) / d1
    grad = 2.0 * x_b + (2.0 * y_b / d1) * a
    coef = np.concatenate([-grad, np.zeros(cf.m + cf.l)])
    return Halfspace(cf.n, cf.m, cf.l, coef=coef, rhs=float(-grad @ x_b))


def boundary_steps(
    fs, apex, rays, tol: float = 1e-9
) -> tuple[np.ndarray, np.ndarray]:
    """sup{t ≥ 0 : apex + t·r inside fs} for each row r of rays, by
    bracketing and bisection over all rays together; returns the arrays
    (steps, residuals).

    Each ray doubles t = 1, 2, …, 2³⁹ until its margin turns positive; an
    exact 0 returns that t with residual 0, and a ray still ≤ 0 at
    t = 1e12 is a recession direction, step +inf with residual 0.  The
    brackets are then bisected together.  Each finite step comes from the
    interior side: its margin (the residual) lies in [−tol, 0], or the
    bracket has closed on it.  Every margin call evaluates one row per
    ray still open.  Requires the apex strictly interior.
    """
    apex = np.asarray(apex, dtype=float).reshape(-1)
    rays = np.asarray(rays, dtype=float)
    if not np.all(np.linalg.norm(rays, axis=1) > 0.0):
        raise ValueError("every ray must be nonzero")
    m0 = fs.margin(apex)
    if not m0 < -tol:
        raise ApexNotInteriorError(f"apex margin {m0} is not strictly negative")

    k = rays.shape[0]
    steps, residuals = np.full(k, np.inf), np.zeros(k)
    lo, v_lo, hi = np.zeros(k), np.full(k, float(m0)), np.full(k, np.inf)
    doubling, t = np.arange(k), 1.0
    while t <= _T_CAP and doubling.size:
        v = fs.margin(apex + t * rays[doubling])
        hi[doubling[v > 0.0]] = t
        steps[doubling[v == 0.0]] = t
        inside = ~(v >= 0.0)
        doubling, v = doubling[inside], v[inside]
        lo[doubling], v_lo[doubling] = t, v
        t *= 2.0
    if doubling.size:
        v = fs.margin(apex + _T_CAP * rays[doubling])
        hi[doubling[~(v <= 0.0)]] = _T_CAP  # the others recede

    def wide(idx):
        return idx[hi[idx] - lo[idx] > 1e-12 * np.maximum(hi[idx], 1.0)]

    bracketed = np.flatnonzero(hi < np.inf)
    active = wide(bracketed)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        v = fs.margin(apex + mid[:, None] * rays[active])
        out = v > 0.0
        hi[active[out]] = mid[out]
        lo[active[~out]], v_lo[active[~out]] = mid[~out], v[~out]
        active = wide(active[out | ~(v >= -tol)])
    steps[bracketed], residuals[bracketed] = lo[bracketed], v_lo[bracketed]
    return steps, residuals
