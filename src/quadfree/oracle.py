"""Independent verifiers: sampling, brute-force optima, and certificate
checks for freeness, maximality witnesses, duality, convexity and cuts.

Everything here deliberately avoids the closed forms under test — the
samplers parametrize the sets directly, the brute-force gauge evaluates
the defining maximum, witnesses are checked against their defining
identities, and a cut is checked by evaluating q on the region it
removes, rebuilt from the cut and its cone alone.
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


def _unit_rows(rng, count, dim):
    if dim == 0:
        return np.zeros((count, 0))
    g = rng.standard_normal((count, dim))
    # the sum np.linalg.norm takes, bit for bit, without its dispatch
    norms = np.sqrt(np.add.reduce(g * g, axis=1))
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]


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
    return np.vstack(rows)


def sample_S(cf: spectral.CanonicalForm, count: int, seed: int) -> np.ndarray:
    """Points of {‖x‖ ≤ ‖y‖} on the slice aᵀx + dᵀy + hᵀz = −1.

    Draws w = (ρu, v, ẑ) with unit u, v and keeps it, scaled by −1/form,
    when the linear form is safely away from 0 on either side,
    |form| > 1e-6.  Keeping both signs does not change the law of the
    samples: w and −w have the same law, ‖x‖ ≤ ‖y‖ holds for both, and
    a draw with form > 0 scaled by −1/form is exactly the point its
    negation −w (form < 0) gives.  So almost every draw is kept;
    rejection continues until ``count`` points are found or the attempt
    budget runs out.
    """
    if cf.m < 1:
        raise SamplingExhaustedError("no y block: the feasible slice is degenerate")

    def draw(rng, batch, need):
        x = rng.uniform(0.0, 1.0, batch)[:, None] * _unit_rows(rng, batch, cf.n)
        y = _unit_rows(rng, batch, cf.m)
        z = rng.uniform(-10.0, 10.0, (batch, cf.l))
        form = x @ cf.a + y @ cf.d + z @ cf.h
        keep = np.flatnonzero(np.abs(form) > 1e-6)[:need]
        return np.hstack([x[keep], y[keep], z[keep]]) * (-1.0 / form[keep])[:, None]

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
        on_ball = np.linalg.norm(x0, axis=1) <= 1.0
        lam_perp = lam - (float(a @ lam) / na2) * a
        npp = np.linalg.norm(lam_perp)
        room = np.sqrt(np.maximum(1.0 - np.sum(x0 * x0, axis=1), 0.0))
        x = x0 + room[:, None] * lam_perp / npp if npp > 1e-14 else x0
        better = on_ball & ~(lam_in & (float(lam @ lam) >= x @ lam))
        X[better] = x[better]
        keep = lam_in | on_ball
    return np.hstack([X[keep], betas[keep], np.zeros((int(keep.sum()), l))])


def check_freeness(
    fs: freesets.FreeSetDescriptor,
    samples: np.ndarray,
    tol: float = 1e-7,
    seed: int | None = None,
) -> VerificationReport:
    """Pass iff no sample lies strictly inside the set (margin ≥ −tol)."""
    samples = np.asarray(samples, dtype=float)
    margins = np.atleast_1d(fs.margin(samples))
    worst = float(np.min(margins)) if margins.size else 0.0
    passed = worst >= -tol
    witness = None if passed else samples[int(np.argmin(margins))]
    return VerificationReport(
        name="freeness",
        samples=int(samples.shape[0]),
        worst_residual=worst,
        passed=passed,
        tolerance=tol,
        witness=witness,
        seed=seed,
    )


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
    cd: CaseData,
    beta: np.ndarray,
    fs: freesets.FreeSetDescriptor | None = None,
) -> tuple[np.ndarray, VerificationReport]:
    """Boundary point −(λ, β)/(aᵀλ + dᵀβ) exposing the inequality at β."""
    beta = np.asarray(beta, dtype=float).reshape(-1)
    denom = float(cd.a @ cd.lam + cd.d @ beta)
    if not denom < -1e-9:
        raise NotInStrictRegionError("aᵀλ + dᵀβ must be strictly negative")
    z = -np.concatenate([cd.lam, beta]) / denom
    x, y = z[: len(cd.lam)], z[len(cd.lam) :]
    residuals = {
        "membership_cone": max(np.linalg.norm(x) - np.linalg.norm(y), 0.0),
        "membership_slice": abs(float(cd.a @ x + cd.d @ y) + 1.0),
        "tightness": abs(float(-cd.lam @ x + beta @ y) - r_coefficient(cd, beta)),
    }
    if fs is not None:
        residuals["margin"] = abs(fs.margin(z))
    worst = max(residuals.values())
    tol = 1e-7 if fs is not None else 1e-9
    passed = (
        residuals["membership_cone"] <= 1e-9
        and residuals["membership_slice"] <= 1e-9
        and residuals["tightness"] <= 1e-9
        and residuals.get("margin", 0.0) <= 1e-7
    )
    report = VerificationReport(
        name="exposing_witness",
        samples=1,
        worst_residual=float(worst),
        passed=passed,
        tolerance=tol,
        witness=None if passed else z,
        extra={"residuals": residuals},
    )
    return z, report


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

    u1 = cd.lam
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


def check_duality(cd: CaseData, y: np.ndarray) -> VerificationReport:
    """Strong duality: the dual objective at θ(y) equals φ(y)."""
    y = np.asarray(y, dtype=float).reshape(-1)
    th = theta_dual(cd, y)
    if np.isinf(th):
        return VerificationReport(
            name="duality", samples=1, worst_residual=0.0, passed=True,
            tolerance=1e-9, extra={"theta": "inf"},
        )
    dual = np.linalg.norm(cd.lam - th * cd.a) * np.linalg.norm(y) - th * float(cd.d @ y)
    residual = abs(float(dual) - phi_value(cd, y))
    return VerificationReport(
        name="duality", samples=1, worst_residual=residual,
        passed=residual <= 1e-9, tolerance=1e-9, extra={"theta": th},
    )


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


def check_gradient(cd: CaseData, y: np.ndarray, step: float = 1e-6) -> VerificationReport:
    """Central finite differences and the Euler identity for ∇φ, with φ
    evaluated once on y ± step·I and y."""
    y = np.asarray(y, dtype=float).reshape(-1)
    grad = phi_gradient(cd, y)
    E = step * np.eye(len(y))
    vals = phi_value(cd, np.vstack([y + E, y - E, y]))
    fd = (vals[: len(y)] - vals[len(y) : -1]) / (2.0 * step)
    fd_res = float(np.max(np.abs(fd - grad)))
    euler_res = abs(float(grad @ y) - float(vals[-1]))
    return VerificationReport(
        name="gradient", samples=1, worst_residual=fd_res,
        passed=fd_res <= 1e-5 and euler_res <= 1e-10, tolerance=1e-5,
        extra={"euler_residual": euler_res},
    )


def sample_quadratic_region(
    qc: spectral.QuadraticConstraint, count: int, seed: int, box: float = 10.0
) -> np.ndarray:
    """Rejection samples of {q ≤ 0} in the box [−box, box]ᵖ."""

    def draw(rng, batch, need):
        s = rng.uniform(-box, box, (batch, qc.dim))
        return s[np.flatnonzero(qc(s) <= 0.0)[:need]]

    return _rejection_sample(draw, count, seed)


def check_cut_validity(
    qc: spectral.QuadraticConstraint,
    cert,
    count: int = 10**4,
    seed: int = 0,
) -> VerificationReport:
    """No point of S = {q ≤ 0} may lie in the region the cut removes.

    That region is conv{apex, apex + t_j r_j}, where ray r_j meets the
    cut at t_j = −(coefᵀapex − rhs)/(coefᵀr_j) if coefᵀr_j < −16ε‖coef‖‖r_j‖;
    a ray it never meets, a weight-0 ray whose slope is rounding noise of
    either sign included, gets a multiplier drawn from [0, 10].  It comes from the
    cut and the cone alone, not from ``cert.steps``, and lies in the
    S-free set, so q(s)/(‖Q̃‖₂(1 + ‖s‖²)) ≥ −1e-9 must hold at each finite
    vertex, at ``count // 2`` seeded points of the far face and at the
    rest inside; the worst residual is the least such value.  A cut that
    keeps its apex fails with no samples.
    """
    apex, R = cert.cone.apex, cert.cone.R
    excess = float(cert.coef @ apex - cert.rhs)
    if not excess > 0.0:
        return VerificationReport("cut_validity", 0, -np.inf, False, 1e-9, apex, seed)
    slope = cert.coef @ R
    noise = 16.0 * np.finfo(float).eps * np.linalg.norm(cert.coef) * np.linalg.norm(R, axis=0)
    meets = slope < -noise
    k = int(meets.sum())
    rng = np.random.default_rng(seed)
    face = rng.dirichlet(np.ones(k), count // 2)
    inner = rng.dirichlet(np.ones(k + 1), count - count // 2)[:, :k]
    U = np.zeros((k + count, len(apex)))
    U[:, meets] = np.vstack([np.eye(k), face, inner]) * (-excess / slope[meets])
    U[k:, ~meets] = rng.uniform(0.0, 10.0, (count, len(apex) - k))
    samples = apex + U @ R.T
    scale = np.linalg.norm(spectral.lift(qc.Q, qc.b, qc.c), 2)
    rel = qc(samples) / (scale * (1.0 + np.sum(samples * samples, axis=1)))
    worst = float(np.min(rel))
    passed = worst >= -1e-9
    witness = None if passed else samples[int(np.argmin(rel))]
    return VerificationReport(
        name="cut_validity", samples=k + count, worst_residual=worst,
        passed=passed, tolerance=1e-9, witness=witness, seed=seed,
    )
