"""Free-set families as margin functions, plus boundary steps along rays.

Each descriptor exposes ``margin(w)`` with the convention

    margin < 0  ⇔  w interior,   = 0 boundary,   > 0 exterior.

Margins accept a single point or a batch of row points.  The families:

* ``CLambda``      — the cone λᵀx ≥ ‖y‖.
* ``CGLambda``     — support-function relaxation over the index set G(λ).
* ``CPhiLambda``   — epigraph-style set φ(y) ≤ λᵀx.
* ``CRPhiLambda``  — the hyperplane-relative enlargement of CPhiLambda.
* ``Halfspace``    — a single linear inequality (convex cases).

Each descriptor also splits its margin along rays w₀ + t·r into pieces
√(q₂t² + q₁t + q₀) − (ℓ₁t + ℓ₀) (‖y‖, a circle support or a branch of φ,
minus λᵀx), and ``_piece_table`` writes all their coefficients and branch
rows from one moment pass: ‖y‖², yᵀy₀, dᵀy and λᵀx are each one
``np.vecdot`` over the rays stacked above copies of the apex.  A
``np.vecdot`` is one BLAS dot per row, so a row's sum never depends on the
other rows; ``@`` (gemv) is not used for row sums, as it may block rows
together and give a row other bits in another batch.  ``margin`` reads its
points C-contiguous, since a strided row is summed in another order.

A piece's zeros are roots of a quadratic (``_piece_roots``), so
``boundary_steps`` takes each ray's step in closed form and certifies it
(margin in [−tol, 0]) in at most two margin calls; a ray with no root
recedes iff its ``recession()`` margin is ≤ 0.
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
_TOL = 1e-9  # a certified step's margin lies in [−_TOL, 0]


class FreeSetDescriptor:
    """Base for all free-set variants, each a frozen dataclass of only the
    parameters its margin reads.  A point is w = (x, y, z) with x as long
    as λ and y as long as d (or ``m`` for ``CLambda``); z is never read.
    Concrete classes implement ``_margin_rows`` over a batch of row points
    and ``_piece_table`` along rays."""

    def margin(self, w):
        """Margin at a point (a float) or at each row of w (an array); a
        row's margin has the same bits in any batch and memory layout."""
        w = np.ascontiguousarray(w, dtype=float)
        if w.ndim == 1:
            return float(self._margin_rows(w[None, :])[0])
        return self._margin_rows(w)

    def _margin_rows(self, W):
        raise NotImplementedError

    def recession(self) -> FreeSetDescriptor:
        """The set with its apex-free terms dropped, whose margin at r is the
        slope far out along r; a positively homogeneous margin is its own."""
        return self

    def _piece_table(self, W):
        """The margin along the rays w₀ + t·W[i], i < k, W the k rays over k
        copies of the apex w₀, as (pieces, branches).  A piece √(q₂t² + q₁t
        + q₀) − (ℓ₁t + ℓ₀) is three columns over the rows of W, (q₂; q₀),
        (q₁; ·) and (ℓ₁; ℓ₀), from moments that are each one ``np.vecdot``
        along the rows of W: row i < k holds its terms along ray i, row
        k + i the apex's.  A branch (j, λᵀa, (‖y‖², 2yᵀy₀, dᵀy) over the same
        rows) puts piece j in force where λᵀa‖y‖ + dᵀy ≤ 0 (``_gauge_parts``)
        and piece j + 1 elsewhere; a piece in no branch is the margin
        everywhere.  Every zero of the margin is a zero of a piece where it
        holds, and no piece exceeds the margin where it holds."""
        raise NotImplementedError

    def _split(self, W):
        n = self.cd.lam.size
        return W[:, :n], W[:, n : n + self.cd.d.size]


def _moments(y, d):
    """(‖y‖², 2yᵀy₀, dᵀy) over the rows of y, y₀ = y[-1] the apex's, each
    one ``np.vecdot``: the columns (q₂; q₀) and (q₁; ·) of ‖y₀ + t·y_i‖²,
    and (ℓ₁; ℓ₀) of dᵀ(y₀ + t·y_i), for the rays y_i above the apex rows."""
    return np.vecdot(y, y), 2.0 * np.vecdot(y, y[-1]), np.vecdot(y, d)


def _phi_pieces(cd, M, lin):
    """The flat branch ‖y‖ and the curved branch √((1 − (λᵀa)²)(‖y‖² − (dᵀy)²))
    − λᵀa·dᵀy of φ(y), minus ℓ, from the moments M of y.  The flat piece
    is ``CLambda``'s, so the two agree at λ = −a."""
    nn, n1, dy = M
    lam_sq = max(1.0 - cd.lam_a**2, 0.0)
    return [(nn, n1, lin), (lam_sq * (nn - dy * dy), lam_sq * (n1 - 2.0 * dy * dy[-1:]), lin + cd.lam_a * dy)]


def _piece_roots(Q):
    """(T, valid): the roots t of √(q₂t² + q₁t + q₀) = ℓ₁t + ℓ₀ per piece
    and ray of the table Q, the pieces' columns (``_piece_table``) stacked,
    each piece's two as T[0] and T[1] (NaN or ±inf where there is none),
    and where ℓ₁t + ℓ₀ ≥ 0 at them.  q ≡ 0 gives a linear piece ℓ₁t + ℓ₀ = 0.

    Squared, the equation is At² + 2Bt + C = 0 with A = ℓ₁² − q₂,
    B = ℓ₁ℓ₀ − q₁/2 and C = ℓ₀² − q₀.  Its roots are C/S and S/A with
    S = −(B + sgn(B)·√(B² − AC)), in which nothing nearly equal is
    subtracted.  B² − AC is expanded so that its ℓ₁²ℓ₀² terms cancel
    exactly (a linear piece has a double root), and a value below 0 by
    rounding counts as 0.  ℓ₁t + ℓ₀ ≥ 0 is tested to within 8 ulps of its
    terms, as a linear piece's root needs.
    """
    k, q, lin = Q.shape[2] // 2, Q[:, 0], Q[:, 2]
    q2, q0, l1, l0, h1 = q[:, :k], q[:, k:], lin[:, :k], lin[:, k:], 0.5 * Q[:, 1, :k]
    AC = (sq_lin := lin * lin) - q  # A = ℓ₁² − q₂ per ray, beside C = ℓ₀² − q₀
    B = l1 * l0 - h1
    disc = l1 * (l1 * q0 - 2.0 * l0 * h1) + sq_lin[:, k:] * q2 + h1 * h1 - q2 * q0
    S = -(B + np.copysign(np.sqrt(np.maximum(disc, 0.0)), B))
    T = np.empty((2,) + S.shape)
    np.divide(AC[:, k:], S, out=T[0])
    np.divide(S, AC[:, :k], out=T[1])
    slope_t = l1 * T
    return T, slope_t + l0 >= -8.0 * _EPS * (np.abs(slope_t) + np.abs(l0))


@dataclass(frozen=True)
class CLambda(FreeSetDescriptor):
    lam: np.ndarray
    m: int

    def _split(self, W):
        n = self.lam.size
        return W[:, :n], W[:, n : n + self.m]

    def _margin_rows(self, W):
        x, y = self._split(W)
        return np.sqrt(np.vecdot(y, y)) - np.vecdot(x, self.lam)

    def _piece_table(self, W):
        x, y = self._split(W)
        return [(np.vecdot(y, y), 2.0 * np.vecdot(y, y[-1]), np.vecdot(x, self.lam))], []


@dataclass(frozen=True)
class CGLambda(FreeSetDescriptor):
    """Free for ‖a‖ ≤ ‖d‖ and m > 1, ``decompose``'s case 1; not checked."""

    cd: CaseData

    def _margin_rows(self, W):
        """Support of G(λ) = {‖β‖ = 1, dᵀβ ≤ −λᵀa} at y, minus λᵀx."""
        x, y = self._split(W)
        cd = self.cd
        return _cap_support(cd, y, relaxed=False) - np.vecdot(x, cd.lam)

    def _piece_table(self, W):
        x, y = self._split(W)
        return _cap_pieces(self.cd, y, False, np.vecdot(x, self.cd.lam))


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


def _cap_pieces(cd: CaseData, y, relaxed: bool, lin):
    """``_cap_support(cd, y₀ + t·y_i, relaxed)`` − (ℓ₁t + ℓ₀) as (pieces,
    branches) over the rows of y and lin (``_piece_table``), branch by branch
    as ``_cap_support`` takes them."""
    c = -cd.lam_a
    if cd.d.shape[0] == 1:
        zero = np.zeros(len(lin))
        return [(zero, zero, lin - s * y[:, 0]) for s in _cap_slopes(cd, relaxed)], []
    nd = cd.d_norm
    if (c > nd) if relaxed else (c < -nd):
        return [], []  # an empty cap: the support is −inf and has no zero
    M = nn, n1, dy = _moments(y, cd.d)
    if not relaxed and c >= nd:
        return [(nn, n1, lin)], []
    branches = [(0, cd.lam_a, M)]
    if relaxed and (c < -nd or nd == 0.0):
        return _phi_pieces(cd, M, lin), branches
    # the circle support (c/‖d‖²)·dᵀt + h·√(‖t‖² − (dᵀt/‖d‖)²), h² = 1 − (c/‖d‖)²
    e, h_sq = dy / nd, max(1.0 - (c / nd) ** 2, 0.0)
    circle = (h_sq * (nn - e * e), h_sq * (n1 - 2.0 * e * e[-1:]), lin - c / nd**2 * dy)
    if relaxed:
        return [circle, _phi_pieces(cd, M, lin)[1]], branches
    return [(nn, n1, lin), circle], branches


def _circle_support(cd: CaseData, nt: np.ndarray, dt: np.ndarray, c: float) -> np.ndarray:
    """Support of ⟨β, t⟩ over the circle {‖β‖ = 1, dᵀβ = c}, per row of t,
    from the row norms nt = ‖t‖ and the products dt = dᵀt."""
    nd = cd.d_norm
    height = math.sqrt(max(1.0 - (c / nd) ** 2, 0.0))
    tang = np.sqrt(np.maximum(nt * nt - (dt / nd) ** 2, 0.0))
    return (c / nd**2) * dt + height * tang


@dataclass(frozen=True)
class CPhiLambda(FreeSetDescriptor):
    cd: CaseData

    def _margin_rows(self, W):
        x, y = self._split(W)
        return _phi(self.cd, _gauge_parts(self.cd, y)) - np.vecdot(x, self.cd.lam)

    def _piece_table(self, W):
        x, y = self._split(W)
        M = _moments(y, self.cd.d)
        return _phi_pieces(self.cd, M, np.vecdot(x, self.cd.lam)), [(0, self.cd.lam_a, M)]


@dataclass(frozen=True)
class CRPhiLambda(FreeSetDescriptor):
    """Hyperplane-relative set: relaxed by r(β) on indices outside G(λ).
    Needs ‖a‖ = 1 > ‖d‖, else ``ValueError``: its cap moves by d/(1 − ‖d‖²)."""

    cd: CaseData

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
        lam_x = np.vecdot(x, cd.lam)
        shift = 1.0 / (1.0 - cd.d_norm**2)
        unrelaxed = _cap_support(cd, y, relaxed=False)
        relaxed = _cap_support(cd, y - cd.d * shift, relaxed=True)
        return np.maximum(unrelaxed - lam_x, relaxed - lam_x - cd.lam_a * shift)

    def recession(self):
        return CPhiLambda(self.cd)  # without r(β), the caps' supports have max φ(y)

    def _piece_table(self, W):
        """The unrelaxed cap's pieces in y and the relaxed cap's in y − y₀,
        which moves only the apex rows."""
        cd, k = self.cd, len(W) // 2
        x, y = self._split(W)
        lin, shift = np.vecdot(x, cd.lam), 1.0 / (1.0 - cd.d_norm**2)
        pieces, branches = _cap_pieces(cd, y, False, lin)
        y, lin = y.copy(), lin.copy()
        y[k:] -= cd.d * shift
        lin[k:] += cd.lam_a * shift
        more, relaxed = _cap_pieces(cd, y, True, lin)
        return pieces + more, branches + [(j + len(pieces), lam_a, N) for j, lam_a, N in relaxed]


@dataclass(frozen=True)
class Halfspace(FreeSetDescriptor):
    coef: np.ndarray
    rhs: float

    def _margin_rows(self, W):
        return np.vecdot(W, self.coef) - self.rhs

    def recession(self):
        return Halfspace(self.coef, 0.0)

    def _piece_table(self, W):
        lin = -np.vecdot(W, self.coef)
        lin[len(W) // 2 :] += self.rhs
        return [(np.zeros(len(W)),) * 2 + (lin,)], []


def build_free_set(cf: spectral.CanonicalForm) -> FreeSetDescriptor:
    """Pick the maximal free set matching the canonical case tag; an empty
    feasible region raises ``EmptySError``."""
    case = cf.case
    if case == spectral.CASE_EMPTY_S:
        raise EmptySError("the feasible region is empty; there is nothing to cut")
    if case == spectral.CASE_HOMOG_H_NONZERO:
        # CLambda reads only x and y, so it is a cylinder over z already.
        return CLambda(cf.lam, cf.m)
    if case == spectral.CASE_CASE1_CGLAMBDA:
        return CGLambda(CaseData(cf.lam, cf.a, cf.d))
    if case == spectral.CASE_CONVEX_M1:
        return _convex_m1_halfspace(cf)
    if case == spectral.CASE_CASE2_CR_LAMBDA_NEG_A:
        # λ = −a makes φ(y) = ‖y‖, so C_φ(λ) is the norm cone C_λ.
        return CLambda(cf.lam, cf.m)
    if case == spectral.CASE_CASE2_CR:
        return CRPhiLambda(CaseData(cf.lam, cf.a, cf.d))
    raise ValueError(f"unknown case tag {case!r}")


def _convex_m1_halfspace(cf: spectral.CanonicalForm) -> Halfspace:
    """Supporting halfspace of the convex slice for the m = 1 case.

    On the hyperplane, y = (−1 − aᵀx)/d₁ and the feasible region is the
    convex set {g(x) ≤ 0} with g(x) = ‖x‖² − y(x)².  g(0) < 0 and
    g(x̄) > 0 at the mapped point, so on the ray t·λ, λ = x̄/‖x̄‖, the
    set's boundary is the first root t* = 1/(|d₁| − aᵀλ) of
    t|d₁| = 1 + t·aᵀλ; g(x̄) > 0 makes t* less than ‖x̄‖.
    The supporting hyperplane at t*·λ is the free halfspace.
    """
    a, d1 = cf.a, float(cf.d[0])
    x_b = cf.lam / (abs(d1) - a @ cf.lam)
    y_b = (-1.0 - a @ x_b) / d1
    grad = 2.0 * x_b + (2.0 * y_b / d1) * a
    coef = np.concatenate([-grad, np.zeros(cf.m + cf.l)])
    return Halfspace(coef, float(-grad @ x_b))


_IN_FORCE = np.array([[True], [False]])  # a branch's two pieces: where its test holds, and fails


def _roots(fs, apex, rays):
    """(t, below): per ray, the least zero t > 0 of the margin's pieces
    where that piece holds, NaN where none; below(i, tol) is
    t − tol/(2f′) for the rays i, NaN where f′ ≤ 0, with f′ the slope at t
    of t's piece: (q₂t + q₁/2)/(ℓ₁t + ℓ₀) − ℓ₁, or −ℓ₁ for a linear one."""
    # the apex repeated below the rays puts its terms on every ray: a ufunc
    # on rows of one shape is about twice as fast as one that broadcasts
    k = len(rays)
    W = np.empty((2 * k, apex.size))
    W[:k], W[k:] = rays, apex
    pieces, branches = fs._piece_table(W)
    Q = np.array(pieces).reshape(len(pieces), 3, 2 * k)
    # a root that overflows, divides by 0 or is NaN is invalid below or fails its margin
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        T, valid = _piece_roots(Q)
        for j, lam_a, (nn, n1, dy) in branches:
            Tj = T[:, j : j + 2]
            ny = np.sqrt(np.maximum((nn[:k] * Tj + n1[:k]) * Tj + nn[k:], 0.0))
            valid[:, j : j + 2] &= (lam_a * ny + (dy[:k] * Tj + dy[k:]) <= 0.0) == _IN_FORCE
        valid &= (T > 0.0) & (T < np.inf)
        t = np.fmin.reduce(T, axis=(0, 1), where=valid, initial=np.nan)

    def below(i, tol):
        ti = t[i]
        piece = (valid[:, :, i] & (T[:, :, i] == ti)).any(axis=0).argmax(axis=0)
        (q2, q1, l1), l0 = Q[piece, :, i].T, Q[piece, 2, k + i]
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
    first = ok.argmax(axis=1) + np.arange(0, T.size, T.shape[1])  # as flat indices
    return T.take(first), V.take(first), ok.take(first)


def boundary_steps(fs, apex, rays) -> tuple[np.ndarray, np.ndarray]:
    """sup{t ≥ 0 : apex + t·r inside fs} for each row r of rays, for all
    rays together; returns the arrays (steps, residuals).

    Along a ray, f(t) = margin(apex + t·r) is convex (a support function
    minus a linear term) with f(0) < 0, so {f ≤ 0} is [0, t*], and t* is
    the least zero of a piece of f where it holds (``_piece_table``), as no
    piece exceeds f.  A step is a t ≤ t* with residual f(t) in [−tol, 0],
    tol = 1e-9.

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
    is summed along its own row.  The apex must be interior; a non-finite
    apex, or a zero or non-finite ray, raises ``ValueError``.
    """
    apex, rays = np.asarray(apex, dtype=float).reshape(-1), np.asarray(rays, dtype=float)
    finite = np.count_nonzero(np.isfinite(apex)) + np.count_nonzero(np.isfinite(rays)) == apex.size + rays.size
    if not (finite and np.count_nonzero(np.logical_or.reduce(rays, 1)) == len(rays)):  # the cheapest all()
        raise ValueError("the apex and every ray must be finite, and every ray nonzero")
    t, below = _roots(fs, apex, rays)
    T, rootless = t[:, None] * _TOWARD_APEX, np.isnan(t)
    rec = fs.recession() if np.count_nonzero(rootless) else None
    points = [apex[None, :], _points(apex, rays, T)] + ([rays[rootless]] if rec is fs else [])
    v = fs.margin(np.concatenate(points))
    m0, V = v[0], v[1 : 1 + T.size].reshape(T.shape)
    if not m0 < -_TOL:
        raise ApexNotInteriorError(f"apex margin {m0} is not strictly negative")
    steps, residuals, ok = _first_certified(T, V, _TOL)
    if rec is not None:
        v_rec = v[1 + T.size :] if rec is fs else rec.margin(rays[rootless])
        if not (v_rec <= 0.0).all():
            raise UncertifiedStepError(f"rays {rootless.nonzero()[0][~(v_rec <= 0.0)]} have no root but leave the set")
        steps[rootless], residuals[rootless] = np.inf, 0.0
        ok |= rootless
    i = (~ok).nonzero()[0]
    if i.size:  # lazy: folding this call into the first costs about 22 % per cut
        T = np.column_stack((t[i, None] * _SECOND, below(i, _TOL)))
        V = fs.margin(_points(apex, rays[i], T)).reshape(T.shape)
        steps[i], residuals[i], ok = _first_certified(T, V, _TOL)
        if not ok.all():
            raise UncertifiedStepError(f"no step of rays {i[~ok]} (roots {t[i[~ok]]}) has margin in [{-_TOL}, 0]")
    return steps, residuals
