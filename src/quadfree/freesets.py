"""Free-set families as margin functions, plus boundary steps along rays.

Each descriptor exposes ``margin(w)`` with the convention

    margin < 0  ⇔  w interior,   = 0 boundary,   > 0 exterior.

Margins accept a single point or a batch of row points.  The families:

* ``CLambda``      — the cone λᵀx ≥ ‖y‖.
* ``CGLambda``     — support-function relaxation over the index set G(λ).
* ``CPhiLambda``   — epigraph-style set φ(y) ≤ λᵀx.
* ``CRPhiLambda``  — the hyperplane-relative enlargement of CPhiLambda.
* ``Halfspace``    — a single linear inequality (convex cases).

Each descriptor also splits its margin along rays w₀ + t·r, with the apex
w₀ passed as one row, into pieces √(q₂t² + q₁t + q₀) − (ℓ₁t + ℓ₀): ‖y‖, a
circle support or a branch of φ, minus λᵀx (``_pieces``), read into one
coefficient table over pieces and rays.  A piece's zeros are roots of a
quadratic (``_piece_roots``), so ``boundary_steps`` takes each ray's step
in closed form and certifies it (margin in [−tol, 0]) in at most two margin
calls; a ray with no root recedes iff its ``recession()`` margin is ≤ 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .corefns import CaseData, _gauge_parts, _phi, phi_value
from .errors import ApexNotInteriorError, EmptySError, UncertifiedStepError

_EPS = float(np.finfo(float).eps)
# Each ray's root t is tried as t·_TOWARD_APEX, descending, then t·_SECOND: a root
# whose margin is > 0 by rounding is certified from a point just inside it.
_TOWARD_APEX = 1.0 - np.array([0.0, 4.0 * _EPS, 2.0**-44])
_SECOND = 1.0 - np.array([2.0**-38, 2.0**-32])


@dataclass(frozen=True)
class FreeSetDescriptor:
    """Base for all free-set variants; concrete classes implement
    ``_margin_rows`` over a batch of row points and ``_pieces`` along rays."""

    n: int
    m: int
    l: int

    def margin(self, w):
        """Margin at a point (a float) or at each row of w (an array)."""
        w = np.asarray(w, dtype=float)
        if w.ndim == 1:
            return float(self._margin_rows(w[None, :])[0])
        return self._margin_rows(w)

    def _margin_rows(self, W):
        raise NotImplementedError

    def recession(self) -> FreeSetDescriptor:
        """The set with its apex-free terms dropped, whose margin at r is the
        slope far out along r; a positively homogeneous margin is its own."""
        return self

    def _pieces(self, w0, R):
        """The margin along the rays w0 + t·R (a ray per row of R, w0 the
        apex as one row) as a list of pieces (coefficients, branch).  A piece
        is √(q₂t² + q₁t + q₀) − (ℓ₁t + ℓ₀), coefficients (q₂, q₁, q₀, ℓ₁, ℓ₀)
        over the rays, q₀ and ℓ₀ one value.  It is the margin everywhere
        when branch is None, else where the test λᵀa‖y‖ + dᵀy ≤ 0 of
        ``_gauge_parts`` equals flat, for branch = (λᵀa, ‖y‖² and dᵀy as
        (q₂, q₁, q₀, ℓ₁, ℓ₀), flat) along the ray.  Every zero of the margin
        is a zero of a piece where it holds, and no piece exceeds the margin
        where it holds."""
        raise NotImplementedError

    def _split(self, w):
        return w[:, : self.n], w[:, self.n : self.n + self.m]


def _rows(X):
    """Sum along each row; a row's sum never depends on the other rows."""
    return np.add.reduce(X, 1)


def _dot(u, v0, V1):
    """uᵀ(v0 + t·V1) as (ℓ₁, ℓ₀), for v0 one row (the apex): ℓ₀ is one value."""
    return _rows(V1 * u), _rows(v0 * u)[0]


def _sq_norm(v0, V1):
    """‖v0 + t·V1‖² as (q₂, q₁, q₀), for v0 one row (the apex): q₀ is one value."""
    return _rows(V1 * V1), 2.0 * _rows(V1 * v0), _rows(v0 * v0)[0]


def _sub(lin, D, scale):
    """ℓ − scale·D for linear coefficients ℓ and D."""
    return lin[0] - scale * D[0], lin[1] - scale * D[1]


def _phi_pieces(cd, N, D, lin):
    """The flat branch ‖y‖ and the curved branch √((1 − (λᵀa)²)(‖y‖² − (dᵀy)²))
    − λᵀa·dᵀy of φ(y), minus ℓ₁t + ℓ₀, from ‖y‖² = N and dᵀy = D along the
    ray.  The flat piece is ``CLambda``'s, so the two agree at λ = −a."""
    (n2, n1, n0), (d1, d0) = N, D
    lam_sq = max(1.0 - cd.lam_a**2, 0.0)
    curved = (lam_sq * (n2 - d1 * d1), lam_sq * (n1 - 2.0 * d1 * d0), lam_sq * (n0 - d0 * d0))
    return [
        (N + lin, (cd.lam_a, N + D, True)),
        (curved + _sub(lin, D, -cd.lam_a), (cd.lam_a, N + D, False)),
    ]


def _piece_roots(q2, q1, q0, l1, l0):
    """(T, valid): the roots t of √(q₂t² + q₁t + q₀) = ℓ₁t + ℓ₀ for
    coefficients of shape (pieces, rays), each piece's two as T[0] and T[1]
    (NaN or ±inf where there is none), and where ℓ₁t + ℓ₀ ≥ 0 at them.
    q ≡ 0 gives a linear piece ℓ₁t + ℓ₀ = 0.

    Squared, the equation is At² + 2Bt + C = 0 with A = ℓ₁² − q₂,
    B = ℓ₁ℓ₀ − q₁/2 and C = ℓ₀² − q₀.  Its roots are C/S and S/A with
    S = −(B + sgn(B)·√(B² − AC)), in which nothing nearly equal is
    subtracted.  B² − AC is expanded so that its ℓ₁²ℓ₀² terms cancel
    exactly (a linear piece has a double root), and a value below 0 by
    rounding counts as 0.  ℓ₁t + ℓ₀ ≥ 0 is tested to within 8 ulps of its
    terms, as a linear piece's root needs.
    """
    h1 = 0.5 * q1
    A = l1 * l1 - q2
    B = l1 * l0 - h1
    C = l0 * l0 - q0
    disc = l1 * (l1 * q0 - 2.0 * l0 * h1) + l0 * l0 * q2 + h1 * h1 - q2 * q0
    S = -(B + np.copysign(np.sqrt(np.maximum(disc, 0.0)), B))
    T = np.empty((2,) + S.shape)
    np.divide(C, S, out=T[0])
    np.divide(S, A, out=T[1])
    slope_t = l1 * T
    return T, slope_t + l0 >= -8.0 * _EPS * (np.abs(slope_t) + np.abs(l0))


@dataclass(frozen=True)
class CLambda(FreeSetDescriptor):
    lam: np.ndarray = None

    def _margin_rows(self, W):
        x, y = self._split(W)
        return np.sqrt(_rows(y * y)) - _rows(x * self.lam)

    def _pieces(self, w0, R):
        (x0, y0), (x1, y1) = self._split(w0), self._split(R)
        return [(_sq_norm(y0, y1) + _dot(self.lam, x0, x1), None)]


@dataclass(frozen=True)
class CGLambda(FreeSetDescriptor):
    cd: CaseData = None
    forced: bool = False

    def __post_init__(self):
        if not self.forced and (np.linalg.norm(self.cd.a) > self.cd.d_norm + 1e-12 or self.m <= 1):
            raise ValueError("CGLambda needs ‖a‖ ≤ ‖d‖ and m > 1 (pass forced=True to bypass)")

    def _margin_rows(self, W):
        """Support of G(λ) = {‖β‖ = 1, dᵀβ ≤ −λᵀa} at y, minus λᵀx."""
        x, y = self._split(W)
        cd = self.cd
        return _cap_support(cd, y, relaxed=False) - _rows(x * cd.lam)

    def _pieces(self, w0, R):
        (x0, y0), (x1, y1) = self._split(w0), self._split(R)
        return _cap_pieces(self.cd, y0, y1, False, _dot(self.cd.lam, x0, x1))


def _cap_slopes(cd: CaseData, relaxed: bool) -> list[float]:
    """For m = 1, the slope of ``_cap_support`` along t for each unit
    direction β = ±1 inside the cap."""
    c, d1 = -cd.lam_a, float(cd.d[0])
    if relaxed:
        curved = math.sqrt(max((1.0 - cd.lam_a**2) * (1.0 - d1 * d1), 0.0))
        return [beta * curved - cd.lam_a * d1 for beta in (-1.0, 1.0) if d1 * beta >= c]
    return [beta for beta in (-1.0, 1.0) if d1 * beta <= c]


def _cap_support(cd: CaseData, t: np.ndarray, relaxed: bool) -> np.ndarray:
    """Support value over a spherical cap of unit directions, per row of t.

    With c = −λᵀa and ``relaxed=False`` the cap is {‖β‖ = 1, dᵀβ ≤ c} and
    the support of ⟨β, t⟩ is taken; with ``relaxed=True`` the cap is
    {‖β‖ = 1, dᵀβ ≥ c} and the direction is the curved gauge gradient,
    whose support over the cap equals φ(t) when the gauge's own maximizer
    lies inside the cap.  In either case, when the maximizer falls outside
    the cap the optimum sits on the boundary circle {dᵀβ = c}, where both
    direction fields coincide with β itself, giving the circle support
    ``_circle_support``.  An empty cap yields −inf.  ``_cap_pieces``
    follows the same branches.
    """
    c, nd = -cd.lam_a, cd.d_norm
    if cd.d.shape[0] == 1:
        out = np.full(t.shape[0], -np.inf)
        for slope in _cap_slopes(cd, relaxed):
            out = np.maximum(out, slope * t[:, 0])
        return out
    if (c > nd) if relaxed else (c < -nd):
        return np.full(t.shape[0], -np.inf)  # an empty cap
    if relaxed and (c < -nd or nd == 0.0):
        return phi_value(cd, t)
    parts = _gauge_parts(cd, t)
    nt, dt, flat = parts[:3]
    if relaxed:
        return np.where(flat, _circle_support(cd, nt, dt, c), _phi(cd, parts))
    if c >= nd:
        return nt
    return np.where(flat, nt, _circle_support(cd, nt, dt, c))


def _cap_pieces(cd: CaseData, t0, T1, relaxed: bool, lin) -> list:
    """``_cap_support(cd, t0 + t·T1, relaxed)`` − (ℓ₁t + ℓ₀) as pieces, branch
    by branch as ``_cap_support`` takes them, for t0 the apex part as one row."""
    c = -cd.lam_a
    if cd.d.shape[0] == 1:
        line = (T1[:, 0], t0[0, 0])
        return [((0.0,) * 3 + _sub(lin, line, s), None) for s in _cap_slopes(cd, relaxed)]
    nd = cd.d_norm
    if (c > nd) if relaxed else (c < -nd):
        return []  # an empty cap: the support is −inf and has no zero
    N = _sq_norm(t0, T1)
    if not relaxed and c >= nd:
        return [(N + lin, None)]
    D = _dot(cd.d, t0, T1)
    if relaxed and (c < -nd or nd == 0.0):
        return _phi_pieces(cd, N, D, lin)
    # the circle support (c/‖d‖²)·dᵀt + h·√(‖t‖² − (dᵀt/‖d‖)²), h² = 1 − (c/‖d‖)²
    (n2, n1, n0), (e1, e0) = N, (D[0] / nd, D[1] / nd)
    h_sq = max(1.0 - (c / nd) ** 2, 0.0)
    circle = (h_sq * (n2 - e1 * e1), h_sq * (n1 - 2.0 * e1 * e0), h_sq * (n0 - e0 * e0))
    circle = (circle + _sub(lin, D, c / nd**2), (cd.lam_a, N + D, relaxed))
    if relaxed:
        return [circle, _phi_pieces(cd, N, D, lin)[1]]
    return [(N + lin, (cd.lam_a, N + D, True)), circle]


def _circle_support(cd: CaseData, nt: np.ndarray, dt: np.ndarray, c: float) -> np.ndarray:
    """Support of ⟨β, t⟩ over the circle {‖β‖ = 1, dᵀβ = c}, per row of t,
    from the row norms nt = ‖t‖ and the products dt = dᵀt."""
    nd = cd.d_norm
    height = math.sqrt(max(1.0 - (c / nd) ** 2, 0.0))
    tang = np.sqrt(np.maximum(nt * nt - (dt / nd) ** 2, 0.0))
    return (c / nd**2) * dt + height * tang


@dataclass(frozen=True)
class CPhiLambda(FreeSetDescriptor):
    cd: CaseData = None

    def _margin_rows(self, W):
        x, y = self._split(W)
        return phi_value(self.cd, y) - _rows(x * self.cd.lam)

    def _pieces(self, w0, R):
        (x0, y0), (x1, y1) = self._split(w0), self._split(R)
        cd = self.cd
        return _phi_pieces(cd, _sq_norm(y0, y1), _dot(cd.d, y0, y1), _dot(cd.lam, x0, x1))


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
        lam_x = _rows(x * cd.lam)
        shift = 1.0 / (1.0 - cd.d_norm**2)
        unrelaxed = _cap_support(cd, y, relaxed=False)
        relaxed = _cap_support(cd, y - cd.d * shift, relaxed=True)
        return np.maximum(unrelaxed - lam_x, relaxed - lam_x - cd.lam_a * shift)

    def recession(self):
        return CPhiLambda(self.n, self.m, self.l, cd=self.cd)  # without r(β), the caps' supports have max φ(y)

    def _pieces(self, w0, R):
        """The unrelaxed cap's pieces in y and the relaxed cap's in y − y₀."""
        cd = self.cd
        (x0, y0), (x1, y1) = self._split(w0), self._split(R)
        lin, shift = _dot(cd.lam, x0, x1), 1.0 / (1.0 - cd.d_norm**2)
        return _cap_pieces(cd, y0, y1, False, lin) + _cap_pieces(
            cd, y0 - cd.d * shift, y1, True, (lin[0], lin[1] + cd.lam_a * shift)
        )


@dataclass(frozen=True)
class Halfspace(FreeSetDescriptor):
    coef: np.ndarray = None
    rhs: float = 0.0

    def _margin_rows(self, W):
        return _rows(W * self.coef) - self.rhs

    def recession(self):
        return Halfspace(self.n, self.m, self.l, coef=self.coef, rhs=0.0)

    def _pieces(self, w0, R):
        l1, l0 = _dot(self.coef, w0, R)
        return [((0.0,) * 3 + (-l1, self.rhs - l0), None)]


def build_free_set(cf: spectral.CanonicalForm) -> FreeSetDescriptor:
    """Pick the maximal free set matching the canonical case tag; an empty
    feasible region raises ``EmptySError``."""
    n, m, l, case = cf.n, cf.m, cf.l, cf.case
    if case == spectral.CASE_EMPTY_S:
        raise EmptySError("the feasible region is empty; there is nothing to cut")
    if case == spectral.CASE_HOMOG_H_NONZERO:
        # CLambda reads only x and y, so it is a cylinder over z already.
        return CLambda(n, m, l, lam=cf.lam)
    if case == spectral.CASE_CASE1_CGLAMBDA:
        return CGLambda(n, m, l, cd=CaseData(cf.lam, cf.a, cf.d))
    if case == spectral.CASE_CONVEX_M1:
        return _convex_m1_halfspace(cf)
    if case == spectral.CASE_CASE2_CR_LAMBDA_NEG_A:
        # λ = −a makes φ(y) = ‖y‖, so C_φ(λ) is the norm cone C_λ.
        return CLambda(n, m, l, lam=cf.lam)
    if case == spectral.CASE_CASE2_CR:
        return CRPhiLambda(n, m, l, cd=CaseData(cf.lam, cf.a, cf.d, unit_a=True))
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


def _table(k, rows):
    """Rows of coefficients over k rays (arrays, or one value) as one array."""
    out = np.empty((len(rows[0]), len(rows), k))
    for j, row in enumerate(rows):
        for i, value in enumerate(row):
            out[i, j] = value
    return out


def _roots(fs, apex, rays):
    """(t, below): per ray, the least zero t > 0 of the margin's pieces
    where that piece holds, NaN where none; below(i, tol) is
    t − tol/(2f′) for the rays i, NaN where f′ ≤ 0, with f′ the slope at t
    of t's piece: (q₂t + q₁/2)/(ℓ₁t + ℓ₀) − ℓ₁, or −ℓ₁ for a linear one."""
    k = len(rays)
    pieces = fs._pieces(apex[None, :], rays)
    if not pieces:
        return np.full(k, np.nan), lambda i, tol: np.full(len(i), np.nan)
    coefs, branches = zip(*pieces)
    Q = _table(k, coefs)
    with np.errstate(divide="ignore", invalid="ignore"):
        T, valid = _piece_roots(*Q)
        if any(branches):
            # an unbranched piece's test holds at every finite root
            lam_a, nd, flat = zip(*[b or (0.0, (0.0,) * 5, True) for b in branches])
            n2, n1, n0, d1, d0 = _table(k, nd)
            ny = np.sqrt(np.maximum((n2 * T + n1) * T + n0, 0.0))
            lam_a, flat = np.array(lam_a)[:, None], np.array(flat)[:, None]
            valid &= (lam_a * ny + (d1 * T + d0) <= 0.0) == flat
        valid &= (T > 0.0) & (T < np.inf)
        t = np.fmin.reduce(T, axis=(0, 1), where=valid, initial=np.nan)

    def below(i, tol):
        ti = t[i]
        piece = (valid[:, :, i] & (T[:, :, i] == ti)).any(axis=0).argmax(axis=0)
        q2, q1, _, l1, l0 = Q[:, piece, i]
        num = q2 * ti + 0.5 * q1
        with np.errstate(divide="ignore"):
            f1 = np.divide(num, l1 * ti + l0, out=np.zeros_like(ti), where=num != 0.0) - l1
            return np.where(f1 > 0.0, ti - 0.5 * tol / f1, np.nan)

    return t, below


def _points(apex, rays, T):
    """apex + t·r for each candidate t in row r of T, as rows."""
    return (apex + T[:, :, None] * rays[:, None, :]).reshape(-1, apex.size)


def _first_certified(T, V, tol):
    """Per row, the first t > 0 of T with margin V in [−tol, 0]: (t, V, found)."""
    ok = (V >= -tol) & (V <= 0.0) & (T > 0.0)  # T is NaN with no root
    r, best = np.arange(len(T)), ok.argmax(axis=1)
    return T[r, best], V[r, best], ok[r, best]


def boundary_steps(fs, apex, rays, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """sup{t ≥ 0 : apex + t·r inside fs} for each row r of rays, for all
    rays together; returns the arrays (steps, residuals).

    Along a ray, f(t) = margin(apex + t·r) is convex (a support function
    minus a linear term) with f(0) < 0, so {f ≤ 0} is [0, t*], and t* is
    the least zero of a piece of f where it holds (``_pieces``), as no
    piece exceeds f.  A step is a t ≤ t* with residual f(t) in [−tol, 0].

    One margin call takes the apex and, per ray, t* and t* moved 4 ulps
    and 2⁻⁴⁴ relative toward the apex, as rounding can put t* outside; the
    step is the largest of the three certified.  A ray none certifies gets
    a second call over t* moved 2⁻³⁸ and 2⁻³² relative and t* − tol/(2f′),
    f′ the slope at t* of t*'s piece, and takes the first certified: that
    piece lies below f, so by convexity f ∈ [−tol/2, 0] at the last point
    up to rounding, and f(0) < −tol puts it in (t*/2, t*).  A rootless ray
    recedes (step +inf, residual 0) iff f's slope far out, its margin on
    ``fs.recession()``, is ≤ 0.  Any other ray uncertified raises
    ``UncertifiedStepError``.

    No step depends on the other rays, since every coefficient and margin
    is summed along its own row.  The apex must be interior.
    """
    apex, rays = np.asarray(apex, dtype=float).reshape(-1), np.asarray(rays, dtype=float)
    if not (np.abs(rays).max(1) > 0.0).all():
        raise ValueError("every ray must be nonzero")
    t, below = _roots(fs, apex, rays)
    T, rootless, rec = t[:, None] * _TOWARD_APEX, np.isnan(t), fs.recession()
    v = fs.margin(np.concatenate((apex[None, :], _points(apex, rays, T), rays[rootless & (rec is fs)])))
    m0, V = v[0], v[1 : 1 + T.size].reshape(T.shape)
    if not m0 < -tol:
        raise ApexNotInteriorError(f"apex margin {m0} is not strictly negative")
    v_rec = rec.margin(rays[rootless]) if rec is not fs and rootless.any() else v[1 + T.size :]
    if not (v_rec <= 0.0).all():
        raise UncertifiedStepError(f"rays {rootless.nonzero()[0][~(v_rec <= 0.0)]} have no root but leave the set")
    steps, residuals, ok = _first_certified(T, V, tol)
    steps[rootless], residuals[rootless] = np.inf, 0.0
    i = (~(ok | rootless)).nonzero()[0]
    if i.size:
        T = np.column_stack((t[i, None] * _SECOND, below(i, tol)))
        V = fs.margin(_points(apex, rays[i], T)).reshape(T.shape)
        steps[i], residuals[i], ok = _first_certified(T, V, tol)
        if not ok.all():
            raise UncertifiedStepError(f"no step of rays {i[~ok]} (roots {t[i[~ok]]}) has margin in [{-tol}, 0]")
    return steps, residuals
