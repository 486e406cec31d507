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
from .corefns import CaseData
from .errors import ApexNotInteriorError

_T_CAP = 1e12


def _as_batch(w):
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        return w[None, :], True
    return w, False


def _unbatch(values, single):
    return float(values[0]) if single else values


@dataclass(frozen=True)
class FreeSetDescriptor:
    """Base for all free-set variants; concrete classes implement margin."""

    n: int
    m: int
    l: int

    @property
    def dim(self) -> int:
        return self.n + self.m + self.l

    def margin(self, w):
        raise NotImplementedError

    def _split(self, w):
        return w[:, : self.n], w[:, self.n : self.n + self.m]


@dataclass(frozen=True)
class CLambda(FreeSetDescriptor):
    lam: np.ndarray = None

    def margin(self, w):
        W, single = _as_batch(w)
        x, y = self._split(W)
        vals = np.linalg.norm(y, axis=1) - x @ self.lam
        return _unbatch(vals, single)


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

    def _psi(self, y):
        """Support function of G(λ) evaluated at rows of y."""
        cd = self.cd
        ny = np.linalg.norm(y, axis=1)
        if cd.d_norm == 0.0:
            return ny
        a_lam = float(cd.a @ cd.lam)
        if self.m == 1:
            members = [s for s in (-1.0, 1.0) if a_lam + cd.d[0] * s <= 0.0]
            if not members:
                return np.full(len(y), -np.inf)
            return np.max(np.outer(y[:, 0], members), axis=1)
        dy = y @ cd.d
        nd = cd.d_norm
        t = np.clip(a_lam / nd, -1.0, 1.0)
        rad = np.clip(ny * ny - (dy / nd) ** 2, 0.0, None) * (1.0 - t * t)
        relaxed = np.sqrt(rad) - a_lam * dy / nd**2
        return np.where(a_lam * ny + dy <= 0.0, ny, relaxed)

    def margin(self, w):
        W, single = _as_batch(w)
        x, y = self._split(W)
        vals = self._psi(y) - x @ self.cd.lam
        return _unbatch(vals, single)


def _phi_rows(cd: CaseData, y: np.ndarray) -> np.ndarray:
    """Vectorized φ over rows of y."""
    ny = np.linalg.norm(y, axis=1)
    dy = y @ cd.d
    rad = np.clip(ny * ny - dy * dy, 0.0, None) * max(1.0 - cd.lam_a**2, 0.0)
    return np.where(cd.lam_a * ny + dy <= 0.0, ny, np.sqrt(rad) - dy * cd.lam_a)


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
            return _phi_rows(cd, t) if c <= 0.0 else np.full(t.shape[0], -np.inf)
        return nt if c >= 0.0 else np.full(t.shape[0], -np.inf)
    if relaxed:
        if c > nd:
            return np.full(t.shape[0], -np.inf)
        if c < -nd:
            return _phi_rows(cd, t)
        interior = cd.lam_a * nt + dt >= 0.0
        return np.where(interior, _phi_rows(cd, t), _circle_support(cd, t, c))
    if c >= nd:
        return nt
    if c < -nd:
        return np.full(t.shape[0], -np.inf)
    interior = cd.lam_a * nt + dt <= 0.0
    return np.where(interior, nt, _circle_support(cd, t, c))


def _circle_support(cd: CaseData, t: np.ndarray, c: float) -> np.ndarray:
    """Support of ⟨β, t⟩ over the circle {‖β‖ = 1, dᵀβ = c}, per row of t."""
    nd = cd.d_norm
    nt = np.linalg.norm(t, axis=1)
    dt = t @ cd.d
    height = math.sqrt(max(1.0 - (c / nd) ** 2, 0.0))
    tang = np.sqrt(np.clip(nt * nt - (dt / nd) ** 2, 0.0, None))
    return (c / nd**2) * dt + height * tang


@dataclass(frozen=True)
class CPhiLambda(FreeSetDescriptor):
    cd: CaseData = None

    def margin(self, w):
        W, single = _as_batch(w)
        x, y = self._split(W)
        vals = _phi_rows(self.cd, y) - x @ self.cd.lam
        return _unbatch(vals, single)


@dataclass(frozen=True)
class CRPhiLambda(FreeSetDescriptor):
    """Hyperplane-relative set: relaxed by r(β) on indices outside G(λ)."""

    cd: CaseData = None

    def __post_init__(self):
        if not (self.cd.unit_a and self.cd.d_norm < 1.0):
            raise ValueError("CRPhiLambda needs ‖a‖ = 1 > ‖d‖")

    def margin(self, w):
        """max over β of −λᵀx + ∇φ(β)ᵀy − r(β), evaluated in closed form.

        The unit directions break into the unrelaxed cap {dᵀβ ≤ −λᵀa}
        (gradient β, offset 0) and the relaxed cap (curved gradient,
        offset r(β)).  After translating the relaxed family by
        y₀ = d/(1−‖d‖²) both suprema reduce to gauges of spherical caps,
        and the margin is the larger of the two support values.
        """
        cd = self.cd
        W, single = _as_batch(w)
        x, y = self._split(W)
        lam_x = x @ cd.lam
        shift = 1.0 / (1.0 - cd.d_norm**2)
        y0 = cd.d * shift
        c = -cd.lam_a
        unrelaxed = _cap_support(cd, y, c, relaxed=False)
        relaxed = _cap_support(cd, y - y0, c, relaxed=True)
        vals = np.maximum(unrelaxed - lam_x, relaxed - lam_x - cd.lam_a * shift)
        return _unbatch(vals, single)


@dataclass(frozen=True)
class Halfspace(FreeSetDescriptor):
    coef: np.ndarray = None
    rhs: float = 0.0

    def margin(self, w):
        W, single = _as_batch(w)
        vals = W @ self.coef - self.rhs
        return _unbatch(vals, single)


@dataclass(frozen=True)
class StepLength:
    """Largest step along a ray staying inside the set (may be +inf)."""

    value: float
    residual: float


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
    convex set {g(x) ≤ 0} with g(x) = ‖x‖² − y(x)².  x = 0 is always
    interior, so bisecting from the mapped point toward 0 locates a
    boundary point; its supporting hyperplane is the free halfspace.
    """
    a, d1 = cf.a, float(cf.d[0])
    xbar = cf.mapped_point[: cf.n]

    def g(x):
        y = (-1.0 - a @ x) / d1
        return float(x @ x - y * y)

    hi = 1.0  # g(xbar) > 0 since the mapped point violates the quadratic
    lo = 0.0  # g(0) = -1/d₁² < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid * xbar) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15:
            break
    x_b = 0.5 * (lo + hi) * xbar
    y_b = (-1.0 - a @ x_b) / d1
    grad = 2.0 * x_b + (2.0 * y_b / d1) * a
    coef = np.concatenate([-grad, np.zeros(cf.m + cf.l)])
    return Halfspace(cf.n, cf.m, cf.l, coef=coef, rhs=float(-grad @ x_b))


def boundary_step(fs, apex, ray, tol: float = 1e-9) -> StepLength:
    """sup{t ≥ 0 : apex + t·ray inside fs}, by bracketing and bisection.

    Returns +inf when the ray is a recession direction (still interior
    at t = 1e12).  Requires the apex strictly interior.
    """
    apex = np.asarray(apex, dtype=float).reshape(-1)
    ray = np.asarray(ray, dtype=float).reshape(-1)
    if not np.linalg.norm(ray) > 0.0:
        raise ValueError("ray must be nonzero")
    m0 = fs.margin(apex)
    if not m0 < -tol:
        raise ApexNotInteriorError(f"apex margin {m0} is not strictly negative")

    def f(t):
        return fs.margin(apex + t * ray)

    lo, hi = 0.0, None
    t = 1.0
    while t <= _T_CAP:
        v = f(t)
        if v > 0.0:
            hi = t
            break
        if v == 0.0:
            return StepLength(value=t, residual=0.0)
        lo = t
        t *= 2.0
    if hi is None:
        if f(_T_CAP) <= 0.0:
            return StepLength(value=np.inf, residual=0.0)
        hi = _T_CAP

    v_mid = f(hi)
    mid = hi
    while hi - lo > 1e-12 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        v_mid = f(mid)
        if abs(v_mid) <= tol:
            return StepLength(value=mid, residual=float(v_mid))
        if v_mid > 0.0:
            hi = mid
        else:
            lo = mid
    return StepLength(value=mid, residual=float(v_mid))
