"""Independent verifiers: sampling, brute-force optima, and certificate
checks for freeness, maximality witnesses, duality, convexity and cuts.

Everything here deliberately avoids the closed forms under test — the
samplers parametrize the sets directly, the brute-force gauge evaluates
the defining maximum, witnesses are checked against their defining
identities, and a cut is checked by evaluating q on the region it
removes, rebuilt from the cut and its cone alone.

The per-point checks (duality, gradient, exposing witness) take rows, a
1-D input being one row, and return a list with one report per row;
``case2_battery`` runs each of them once over its rows.  A row gets the
same report, bit for bit, in any batch and memory layout.  ``sample_S`` draws each batch
into one array and scales the kept rows in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import freesets, spectral
from .corefns import CaseData, phi_gradient, phi_value, r_coefficient, theta_dual, x_beta
from .errors import (
    NotInStrictRegionError,
    PreconditionViolatedError,
    SamplingExhaustedError,
)

_MAX_ATTEMPTS = 10**6
_FREENESS_TOL = 1e-7  # least margin a sample may have
_FD_STEP = 1e-6  # central-difference step of the gradient check
_BOX = 10.0  # half-width of the box sample_quadratic_region draws from
_CUT_SAMPLES = 10**4  # points check_cut_validity draws beyond the vertices


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verifier run."""

    name: str
    samples: int
    worst_residual: float
    passed: bool
    tolerance: float
    witness: np.ndarray | None = None
    seed: int | None = None
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "samples": self.samples,
            "worst_residual": self.worst_residual,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "seed": self.seed,
        }
        if self.witness is not None:
            out["witness"] = list(map(float, np.atleast_1d(self.witness)))
        out.update(self.extra)
        return out


def _least_report(name, values, points, tol, seed) -> VerificationReport:
    """One report over rows: the least of ``values``, passing iff it is
    ≥ −tol, with that value's row of ``points`` as the witness when it
    fails; worst 0, samples 0 and no witness on zero rows."""
    worst = float(np.min(values)) if values.size else 0.0
    passed = worst >= -tol
    witness = None if passed else points[int(np.argmin(values))]
    return VerificationReport(name, len(points), worst, passed, tol, witness, seed)


def _row_reports(name, worst, passed, tol, extras, witnesses=None, defined=None) -> list:
    """One report per row from the arrays ``worst`` and ``passed`` and the
    dicts ``extras``, with the row of ``witnesses`` when a row fails;
    None for a row where ``defined`` is False."""
    defined = [True] * len(extras) if defined is None else defined.tolist()
    return [
        VerificationReport(
            name, 1, w, p, tol, None if p or witnesses is None else witnesses[i], extra=e
        ) if ok else None
        for i, (w, p, e, ok) in enumerate(zip(worst.tolist(), passed.tolist(), extras, defined))
    ]


def _unit_rows(rng, count, dim, out=None):
    """``count`` uniformly distributed unit rows of R^dim, written into
    ``out`` if given."""
    if dim == 0:
        return np.zeros((count, 0)) if out is None else out
    g = rng.standard_normal((count, dim))
    # the sum np.linalg.norm takes, bit for bit, without its dispatch
    norms = np.sqrt(np.add.reduce(g * g, axis=1))
    norms[norms == 0.0] = 1.0
    return np.divide(g, norms[:, None], out=out)


def _rejection_sample(
    draw, count: int, seed: int, attempts_per_row: int = 4
) -> np.ndarray:
    """``count`` rows from ``draw(rng, batch, need)``, which returns the
    first ``need`` accepted rows among ``batch`` attempts (fewer if fewer
    are accepted).  A batch is ``attempts_per_row`` attempts for each row
    still missing, the inverse of the acceptance rate the sampler expects,
    plus 64; raises after max(``_MAX_ATTEMPTS``, 2·attempts_per_row·count)."""
    budget = max(_MAX_ATTEMPTS, 2 * attempts_per_row * count)
    rng = np.random.default_rng(seed)
    rows, have, attempts = [], 0, 0
    while have < count and attempts < budget:
        batch = min(attempts_per_row * (count - have) + 64, budget - attempts)
        attempts += batch
        rows.append(draw(rng, batch, count - have))
        have += rows[-1].shape[0]
    if have < count:
        raise SamplingExhaustedError(f"only {have} of {count} points found")
    return rows[0] if len(rows) == 1 else np.vstack(rows)


def sample_S(cf: spectral.CanonicalForm, count: int, seed: int) -> np.ndarray:
    """Points of {‖x‖ ≤ ‖y‖} on the slice aᵀx + dᵀy + hᵀz = −1.

    Draws w = (ρu, v, ẑ) with unit u, v and keeps it, scaled by −1/form,
    when the linear form is safely away from 0 on either side,
    |form| > 1e-6.  Keeping both signs does not change the law of the
    samples: w and −w have the same law, ‖x‖ ≤ ‖y‖ holds for both, and
    a draw with form > 0 scaled by −1/form is exactly the point its
    negation −w (form < 0) gives.  So almost every draw is kept;
    rejection continues until ``count`` points are found or the attempt
    budget runs out.  A batch is drawn into one (batch, n + m + l) array,
    whose kept rows are moved to its front (only if a draw before them was
    dropped) and scaled in place.
    """
    if cf.m < 1:
        raise SamplingExhaustedError("no y block: the feasible slice is degenerate")
    n, m = cf.n, cf.m

    def draw(rng, batch, need):
        W = np.empty((batch, n + m + cf.l))
        x, y, z = W[:, :n], W[:, n : n + m], W[:, n + m :]
        radius = rng.uniform(0.0, 1.0, batch)
        _unit_rows(rng, batch, n, out=x)
        x *= radius[:, None]
        _unit_rows(rng, batch, m, out=y)
        z[...] = rng.uniform(-10.0, 10.0, (batch, cf.l))
        form = x @ cf.a + y @ cf.d + z @ cf.h
        keep = np.flatnonzero(np.abs(form) > 1e-6)[:need]
        k = len(keep)
        if k and keep[-1] != k - 1:
            W[:k] = W[keep]
        W = W[:k]
        W *= (-1.0 / form[keep])[:, None]
        return W

    return _rejection_sample(draw, count, seed, attempts_per_row=1)


def sample_S_homogeneous(
    a: np.ndarray, d: np.ndarray, count: int, seed: int, l: int = 0
) -> np.ndarray:
    """Points of {‖x‖ ≤ ‖y‖, aᵀx + dᵀy ≤ 0} (no slice, no scaling)."""
    a = np.asarray(a, dtype=float).reshape(-1)
    d = np.asarray(d, dtype=float).reshape(-1)

    def draw(rng, batch, need):
        x = rng.uniform(0.0, 1.0, batch)[:, None] * _unit_rows(rng, batch, len(a))
        y = _unit_rows(rng, batch, len(d))
        keep = np.flatnonzero((x @ a + y @ d) <= 0.0)[:need]
        return np.hstack([x[keep], y[keep], np.zeros((len(keep), l))])

    return _rejection_sample(draw, count, seed)


def structured_slice_points(
    lam: np.ndarray, a: np.ndarray, d: np.ndarray, l: int = 0, seed: int = 0
) -> np.ndarray:
    """Deterministic points of the homogeneous S that maximize λᵀx on
    unit-sphere slices y = β.

    These are the sharpest membership tests available: a set that is
    free for the homogeneous S has nonnegative margin at every one of
    them, while the known non-free configurations fail exactly here.
    """
    lam = np.asarray(lam, dtype=float).reshape(-1)
    a = np.asarray(a, dtype=float).reshape(-1)
    d = np.asarray(d, dtype=float).reshape(-1)
    m = len(d)
    if m == 1:
        betas = np.array([[-1.0], [1.0]])
    elif m == 2:
        t = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        betas = np.column_stack([np.cos(t), np.sin(t)])
    else:
        rng = np.random.default_rng(seed)
        betas = np.vstack([_unit_rows(rng, 256, m), np.eye(m), -np.eye(m)])
    # Per β, the argmax of λᵀx over {‖x‖ ≤ 1, aᵀx ≤ c = −dᵀβ}: λ if it is
    # feasible and better, else the best point of the ball on aᵀx = c.
    c = -(betas @ d)
    na2 = float(a @ a)
    X = np.tile(lam, (len(c), 1))
    keep = lam_in = float(a @ lam) <= c
    if na2 > 0.0:
        x0 = (c / na2)[:, None] * a
        x0_sq = np.vecdot(x0, x0)
        on_ball = np.sqrt(x0_sq) <= 1.0
        lam_perp = lam - (float(a @ lam) / na2) * a
        npp = np.linalg.norm(lam_perp)
        room = np.sqrt(np.maximum(1.0 - x0_sq, 0.0))
        x = x0 + room[:, None] * lam_perp / npp if npp > 1e-14 else x0
        better = on_ball & ~(lam_in & (float(lam @ lam) >= x @ lam))
        X[better] = x[better]
        keep = lam_in | on_ball
    return np.hstack([X[keep], betas[keep], np.zeros((int(keep.sum()), l))])


def check_freeness(
    fs: freesets.FreeSetDescriptor, samples: np.ndarray, seed: int | None = None
) -> VerificationReport:
    """Pass iff no sample lies strictly inside the set (margin ≥ −1e-7)."""
    samples = np.asarray(samples, dtype=float)
    return _least_report("freeness", np.atleast_1d(fs.margin(samples)), samples, _FREENESS_TOL, seed)


def freeness_samples(
    cf: spectral.CanonicalForm,
    fs: freesets.FreeSetDescriptor,
    count: int,
    seed: int,
) -> np.ndarray:
    """Assemble the sample set for a freeness run on a built set.

    Slice samples always apply.  For sets that are free with respect to
    the full homogeneous region (everything except the slice-relative
    CRPhiLambda and Halfspace), the deterministic sphere-slice
    maximizers are added as well.
    """
    samples = sample_S(cf, count, seed)
    if not isinstance(fs, (freesets.CRPhiLambda, freesets.Halfspace)):
        extra = structured_slice_points(cf.lam, cf.a, cf.d, l=cf.l, seed=seed)
        if extra.size:
            samples = np.vstack([samples, extra])
    return samples


def exposing_witness(
    cd: CaseData, beta: np.ndarray, fs: freesets.FreeSetDescriptor
) -> tuple[np.ndarray, list[VerificationReport]]:
    """Boundary points −(λ, β)/(aᵀλ + dᵀβ) exposing the inequality at each
    row β of beta: the points as rows and a report for each, with
    ``fs.margin`` taken once over all of them."""
    B = np.atleast_2d(np.ascontiguousarray(beta, dtype=float))
    n = len(cd.lam)
    denom = float(cd.a @ cd.lam) + np.vecdot(B, cd.d)
    if not np.all(denom < -1e-9):
        raise NotInStrictRegionError("aᵀλ + dᵀβ must be strictly negative")
    Z = np.empty((len(B), n + B.shape[1]))
    X, Y = Z[:, :n], Z[:, n:]
    X[...] = cd.lam
    Y[...] = B
    Z /= -denom[:, None]
    columns = {
        "membership_cone": np.maximum(np.sqrt(np.vecdot(X, X)) - np.sqrt(np.vecdot(Y, Y)), 0.0),
        "membership_slice": np.abs(np.vecdot(X, cd.a) + np.vecdot(Y, cd.d) + 1.0),
        "tightness": np.abs(np.vecdot(X, -cd.lam) + np.vecdot(Y, B) - r_coefficient(cd, B)),
        "margin": np.abs(fs.margin(Z)),
    }
    cols = list(columns.values())
    # NaN fails, as in an `and` of the four
    passed = (np.maximum.reduce(cols[:3]) <= 1e-9) & (cols[3] <= 1e-7)
    extras = [{"residuals": dict(zip(columns, row))} for row in zip(*(col.tolist() for col in cols))]
    return Z, _row_reports("exposing_witness", np.maximum.reduce(cols), passed, 1e-7, extras, Z)


def asymptote_sequence(
    cd: CaseData, beta: np.ndarray, N: int
) -> tuple[np.ndarray, np.ndarray, VerificationReport]:
    """Divergent points certifying the relaxed inequality at β.

    Rotates the slice maximizer x(β) within span{λ, a} by angles 1/k
    toward decreasing aᵀx, scales onto the slice, and checks that the
    inequality violation converges to r(β) at an O(1/N) rate.
    """
    beta = np.asarray(beta, dtype=float).reshape(-1)
    if not cd.unit_a or not cd.d_norm < 1.0:
        raise PreconditionViolatedError("needs ‖a‖ = 1 > ‖d‖")
    if cd.lam_a + float(cd.d @ beta) < 0.0:
        raise PreconditionViolatedError("β must satisfy λᵀa + dᵀβ ≥ 0")
    if min(np.linalg.norm(cd.lam - cd.a), np.linalg.norm(cd.lam + cd.a)) <= 1e-12:
        raise PreconditionViolatedError("λ = ±a excluded")

    xb = x_beta(cd, beta)
    nb = np.linalg.norm(xb)
    if nb == 0.0:
        raise PreconditionViolatedError("slice maximizer vanishes")
    e1 = xb / nb
    perp = cd.a - float(cd.a @ e1) * e1
    if np.linalg.norm(perp) <= 1e-12:
        perp = cd.lam - float(cd.lam @ e1) * e1
    if np.linalg.norm(perp) <= 1e-12:
        raise PreconditionViolatedError("span{λ, a} degenerates at x(β)")
    e2 = perp / np.linalg.norm(perp)
    if float(cd.a @ e2) > 0.0:
        e2 = -e2

    ks = np.arange(1, N + 1)
    eps = 1.0 / ks
    xk = np.cos(eps)[:, None] * e1 + np.sin(eps)[:, None] * e2
    form = xk @ cd.a + float(cd.d @ beta)
    ok = form < 0.0
    ks, xk, form = ks[ok], xk[ok], form[ok]
    if len(ks) == 0:
        raise PreconditionViolatedError("no admissible rotation angles")
    scale = -1.0 / form
    zs = scale[:, None] * np.hstack([xk, np.tile(beta, (len(ks), 1))])

    grad = phi_gradient(cd, beta)
    violations = scale * (-(xk @ cd.lam) + float(grad @ beta))
    r = r_coefficient(cd, beta)
    residual = abs(float(violations[-1]) - r)
    bound = 10.0 / N
    report = VerificationReport(
        name="asymptote_sequence",
        samples=len(ks),
        worst_residual=residual,
        passed=residual <= bound,
        tolerance=bound,
        extra={"r": r, "final_violation": float(violations[-1])},
    )
    return zs, violations, report


def phi_bruteforce(cd: CaseData, y: np.ndarray, grid: int = 10**6) -> float:
    """Brute-force max of λᵀx over {‖x‖ ≤ ‖y‖, aᵀx + dᵀy ≤ 0}.

    The optimum lies in span{λ, a}, so an angle grid over that plane
    plus the exact constraint-boundary angles and the interior candidate
    −(dᵀy)a/‖a‖² nail it to roundoff.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    ny = float(np.linalg.norm(y))
    if ny == 0.0:
        return 0.0
    dy = float(cd.d @ y)
    gap_minus = np.linalg.norm(cd.lam + cd.a)
    gap_plus = np.linalg.norm(cd.lam - cd.a)
    if gap_minus <= 1e-12:  # λ = −a: the constraint never binds the max
        return ny
    if gap_plus <= 1e-12:  # λ = a: objective equals the constrained form
        return min(ny, -dy)

    u2 = cd.a - cd.lam_a * cd.lam
    u2 = u2 / np.linalg.norm(u2)
    s2 = float(cd.a @ u2)

    best = -np.inf
    t = np.linspace(0.0, 2.0 * np.pi, int(grid), endpoint=False)
    obj = ny * np.cos(t)
    form = ny * (np.cos(t) * cd.lam_a + np.sin(t) * s2) + dy
    feas = form <= 0.0
    if np.any(feas):
        best = float(np.max(obj[feas]))

    # Exact candidates: interior point, free optimum, constraint boundary.
    na2 = float(cd.a @ cd.a)
    if na2 > 0.0:
        x_int = -(dy / na2) * cd.a
        if np.linalg.norm(x_int) <= ny:
            best = max(best, float(cd.lam @ x_int))
    if cd.lam_a * ny + dy <= 0.0:
        best = max(best, ny)
    radius = ny * np.hypot(cd.lam_a, s2)
    if radius > 0.0 and abs(dy) <= radius:
        t0 = np.arctan2(s2, cd.lam_a)
        delta = np.arccos(np.clip(-dy / radius, -1.0, 1.0))
        for tc in (t0 + delta, t0 - delta):
            best = max(best, ny * np.cos(tc))
    return best


def check_duality(cd: CaseData, y: np.ndarray) -> list[VerificationReport]:
    """Strong duality at each row of y: the dual objective at θ(y) equals
    φ(y).  A report per row."""
    Y = np.atleast_2d(np.ascontiguousarray(y, dtype=float))
    theta = theta_dual(cd, Y)
    ray = np.isinf(theta)  # the degenerate ray has no dual: it passes with worst 0
    th = np.where(ray, 0.0, theta)
    V = cd.lam - th[:, None] * cd.a
    dual = np.sqrt(np.vecdot(V, V)) * np.sqrt(np.vecdot(Y, Y)) - th * np.vecdot(Y, cd.d)
    residual = np.abs(dual - phi_value(cd, Y))
    extras = [{"theta": "inf" if r else t} for r, t in zip(ray.tolist(), theta.tolist())]
    return _row_reports("duality", np.where(ray, 0.0, residual), ray | (residual <= 1e-9), 1e-9, extras)


def check_convexity(cd: CaseData, pairs) -> VerificationReport:
    """Midpoint convexity of φ on the given (y₁, y₂) pairs, with φ
    evaluated once on the stacked midpoints and ends."""
    Y = np.asarray(pairs, dtype=float).reshape(len(pairs), 2, len(cd.d))
    Y1, Y2 = Y[:, 0], Y[:, 1]
    mid, v1, v2 = np.split(phi_value(cd, np.vstack([0.5 * (Y1 + Y2), Y1, Y2])), 3)
    gaps = mid - 0.5 * (v1 + v2)
    worst = float(np.max(gaps, initial=0.0))
    passed = worst <= 1e-10
    return VerificationReport(
        name="convexity", samples=len(pairs), worst_residual=worst, passed=passed,
        tolerance=1e-10, witness=None if passed else Y[int(np.argmax(gaps))].reshape(-1),
    )


def check_gradient(cd: CaseData, y: np.ndarray) -> list[VerificationReport | None]:
    """Central finite differences (step 1e-6) and the Euler identity for ∇φ,
    with φ evaluated once on y ± step·I and y for every row.  A report per
    row of y, None where ∇φ is undefined."""
    Y = np.atleast_2d(np.ascontiguousarray(y, dtype=float))
    grad = phi_gradient(cd, Y)
    k, m = Y.shape
    E, Y1 = _FD_STEP * np.eye(m), Y[:, None]
    P = np.concatenate([Y1 + E, Y1 - E, Y1], axis=1)
    vals = phi_value(cd, P.reshape(-1, m)).reshape(k, 2 * m + 1)
    fd = (vals[:, :m] - vals[:, m : 2 * m]) / (2.0 * _FD_STEP)
    fd_res = np.max(np.abs(fd - grad), axis=1)
    euler_res = np.abs(np.vecdot(grad, Y) - vals[:, -1])
    extras = [{"euler_residual": e} for e in euler_res.tolist()]
    passed = (fd_res <= 1e-5) & (euler_res <= 1e-10)
    return _row_reports("gradient", fd_res, passed, 1e-5, extras, defined=~np.isnan(grad[:, 0]))


def case2_battery(
    cf: spectral.CanonicalForm, fs: freesets.FreeSetDescriptor, seed: int
) -> list[VerificationReport]:
    """The φ identities and maximality witnesses of a case-2 set, each
    check run once over its rows; none outside case 2.

    From ``seed + 1``: 50 normal y (a duality report and, where ∇φ is
    defined, a gradient report for each, in turn; y with ‖y‖ < 1e-9 is
    skipped), one convexity report on 100 normal pairs, then 200 unit β.
    The first 25 with λᵀa + dᵀβ < −1e-6 get an exposing witness and,
    unless λ = −a, the first 10 with λᵀa + dᵀβ ≥ 0 an asymptote sequence.
    """
    if cf.case not in (spectral.CASE_CASE2_CR, spectral.CASE_CASE2_CR_LAMBDA_NEG_A):
        return []
    cd = CaseData(cf.lam, cf.a, cf.d, unit_a=True)
    rng = np.random.default_rng(seed + 1)
    Y = rng.standard_normal((50, cf.m))
    Y = Y[~(np.sqrt(np.vecdot(Y, Y)) < 1e-9)]
    reports = []
    for duality, gradient in zip(check_duality(cd, Y), check_gradient(cd, Y)):
        reports.append(duality)
        if gradient is not None:
            reports.append(gradient)
    reports.append(check_convexity(cd, rng.standard_normal((100, 2, cf.m))))

    betas = _unit_rows(rng, 200, cf.m)
    val = cd.lam_a + betas @ cd.d
    strict, loose = betas[val < -1e-6][:25], betas[val >= 0.0][:10]
    if len(strict):
        reports.extend(exposing_witness(cd, strict, fs)[1])
    if cf.case != spectral.CASE_CASE2_CR_LAMBDA_NEG_A:
        for beta in loose:
            reports.append(asymptote_sequence(cd, beta, 1000)[2])
    return reports


def sample_quadratic_region(qc: spectral.QuadraticConstraint, count: int, seed: int) -> np.ndarray:
    """Rejection samples of {q ≤ 0} in the box [−10, 10]ᵖ."""

    def draw(rng, batch, need):
        s = rng.uniform(-_BOX, _BOX, (batch, qc.dim))
        return s[np.flatnonzero(qc(s) <= 0.0)[:need]]

    return _rejection_sample(draw, count, seed)


def check_cut_validity(qc: spectral.QuadraticConstraint, cert, seed: int = 0) -> VerificationReport:
    """No point of S = {q ≤ 0} may lie in the region the cut removes.

    That region is conv{apex, apex + t_j r_j}, where ray r_j meets the
    cut at t_j = −(coefᵀapex − rhs)/(coefᵀr_j) if coefᵀr_j < −16ε‖coef‖‖r_j‖,
    with ‖r_j‖ from ``np.hypot``, which cannot overflow; a ray it never
    meets, a weight-0 ray whose slope is rounding noise of either sign
    included, gets a multiplier drawn from [0, 10·max(1, t_j)] over the
    rays that meet it, short rays included, capped at the largest float.
    It comes from the cut and the cone alone, not from ``cert.steps``, and
    lies in the S-free set, so q(s)/(‖Q̃‖₂(1 + ‖s‖²)) ≥ −1e-9 must hold at
    each finite vertex, at 5,000 seeded points of the far face and at
    5,000 inside; the worst residual is the least such value.  Where that
    quotient overflows it is taken as ŵᵀQ̃ŵ/‖Q̃‖₂ on the lifted unit point
    ŵ = (s, 1)/‖(s, 1)‖, with (s, 1) first scaled by
    ``spectral._unit_exponents``.  A cut that keeps its apex fails with no
    samples.
    """
    apex, R = cert.cone.apex, cert.cone.R
    excess = float(cert.coef @ apex - cert.rhs)
    if not excess > 0.0:
        return VerificationReport("cut_validity", 0, -np.inf, False, 1e-9, apex, seed)
    slope = cert.coef @ R
    noise = 16.0 * np.finfo(float).eps * np.linalg.norm(cert.coef) * np.hypot.reduce(R, axis=0)
    meets = slope < -noise
    k, count = int(meets.sum()), _CUT_SAMPLES
    rng = np.random.default_rng(seed)
    face = rng.dirichlet(np.ones(k), count // 2)
    inner = rng.dirichlet(np.ones(k + 1), count - count // 2)[:, :k]
    t = -excess / slope[meets]
    V = np.concatenate([np.eye(k), face, inner])
    V *= t
    if k == len(apex):
        U = V
    else:
        U = np.zeros((k + count, len(apex)))
        U[:, meets] = V
        far = 10.0 * max(1.0, float(t.max(initial=0.0)))  # a Python float: inf, not a warning
        U[k:, ~meets] = rng.uniform(0.0, min(far, np.finfo(float).max), (count, len(apex) - k))
    samples = U @ R.T
    samples += apex
    Qt = spectral.lift(qc.Q, qc.b, qc.c)
    scale = np.linalg.norm(Qt, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # the rows that overflow are redone below
        rel = qc(samples) / (scale * (1.0 + np.vecdot(samples, samples)))
        if not (done := np.isfinite(rel)).all():
            W = np.column_stack([samples[~done], np.ones(len(done) - int(done.sum()))])
            W = np.ldexp(W, spectral._unit_exponents(W))
            W /= np.sqrt(np.vecdot(W, W))[:, None]
            rel[~done] = np.vecdot(W @ (Qt / scale), W)
    return _least_report("cut_validity", rel, samples, 1e-9, seed)
