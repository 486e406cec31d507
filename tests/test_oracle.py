import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    random_casedata,
    random_instance,
    random_orthogonal,
    random_unit,
    wedge_canonical,
    wedge_constraint,
)
from quadfree import oracle, spectral
from quadfree.corefns import (
    CaseData,
    _gauge_parts,
    phi_gradient,
    phi_value,
    r_coefficient,
    theta_dual,
    x_beta,
)
from quadfree.cuts import SimplicialCone, separate
from quadfree.errors import (
    AllRaysRecessionError,
    NotInStrictRegionError,
    PreconditionViolatedError,
    SamplingExhaustedError,
)
from quadfree.freesets import CGLambda, CLambda, CPhiLambda, CRPhiLambda, Halfspace, build_free_set

S2 = math.sqrt(2.0)


# --- sampling ----------------------------------------------------------------


def test_sample_S_satisfies_defining_relations():
    cf = wedge_canonical()
    W = oracle.sample_S(cf, 1000, seed=0)
    x, y, z = W[:, : cf.n], W[:, cf.n : cf.n + cf.m], W[:, cf.n + cf.m :]
    cone_resid = np.linalg.norm(x, axis=1) - np.linalg.norm(y, axis=1)
    assert np.max(cone_resid) <= 1e-10
    slice_resid = np.abs(x @ cf.a + y @ cf.d + (z @ cf.h if cf.l else 0.0) + 1.0)
    assert np.max(slice_resid) <= 1e-10


def test_sample_S_exhausts_on_empty_region():
    qc = spectral.QuadraticConstraint(
        Q=np.eye(2), b=np.zeros(2), c=1.0, point=np.array([3.0, 0.0])
    )
    cf = spectral.canonicalize(qc)
    with pytest.raises(SamplingExhaustedError):
        oracle.sample_S(cf, 10, seed=0)


def _unit_rows_loop(rng, count, dim):
    """The one-sign sampler's unit rows, with norms from ``np.linalg.norm``."""
    if dim == 0:
        return np.zeros((count, 0))
    g = rng.standard_normal((count, dim))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]


def _rejection_loop(draw, count, seed):
    """Reference rejection loop: batches of 4·(missing) + 64 attempts, every
    accepted row stacked, the first ``count`` returned."""
    rng = np.random.default_rng(seed)
    rows, have, attempts = [], 0, 0
    while have < count and attempts < oracle._MAX_ATTEMPTS:
        batch = min(4 * (count - have) + 64, oracle._MAX_ATTEMPTS - attempts)
        attempts += batch
        rows.append(draw(rng, batch))
        have += rows[-1].shape[0]
    if have < count:
        raise SamplingExhaustedError(f"only {have} of {count} points found")
    return np.vstack(rows)[:count]


def _one_sign_sample_S(cf, count, seed):
    """Reference slice sampler that keeps a draw only when its form is < −1e-6."""

    def draw(rng, batch):
        x = rng.uniform(0.0, 1.0, batch)[:, None] * _unit_rows_loop(rng, batch, cf.n)
        y = _unit_rows_loop(rng, batch, cf.m)
        z = rng.uniform(-10.0, 10.0, (batch, cf.l))
        form = x @ cf.a + y @ cf.d + z @ cf.h
        keep = form < -1e-6
        return np.hstack([x[keep], y[keep], z[keep]]) * (-1.0 / form[keep])[:, None]

    return _rejection_loop(draw, count, seed)


def _ks_distance(u, v):
    """Two-sample Kolmogorov–Smirnov statistic sup_t |F_u(t) − F_v(t)|."""
    u, v = np.sort(u), np.sort(v)
    t = np.concatenate([u, v])
    Fu = np.searchsorted(u, t, side="right") / len(u)
    Fv = np.searchsorted(v, t, side="right") / len(v)
    return float(np.max(np.abs(Fu - Fv)))


# (n, m, l, seed) of ``random_instance`` for one canonical form of each case
_LAW_FORMS = {
    "CASE1_CGLAMBDA": (2, 2, 0, 0),
    "HOMOG_H_NONZERO": (2, 2, 1, 0),
    "CASE2_CR": (2, 2, 0, 2),
}


def _law_form(case):
    n, m, l, seed = _LAW_FORMS[case]
    cf = spectral.canonicalize(random_instance(np.random.default_rng(seed), n, m, l))
    assert cf.case == case and cf.l == l
    return cf


@pytest.mark.parametrize("case", sorted(_LAW_FORMS))
def test_sample_S_keeps_the_law_of_the_one_sign_sampler(case):
    # 1.95·√(2/N) is the two-sample KS critical value at level ~0.001; the
    # seeds differ so that the two sample sets are independent.
    cf = _law_form(case)
    fs = build_free_set(cf)
    count = 20_000
    bound = 1.95 * math.sqrt(2.0 / count)
    new = oracle.sample_S(cf, count, seed=7)
    ref = _one_sign_sample_S(cf, count, seed=8)
    assert new.shape == ref.shape == (count, cf.n + cf.m + cf.l)
    for stat in (
        lambda W: np.linalg.norm(W, axis=1),
        lambda W: W[:, 0],
        lambda W: np.atleast_1d(fs.margin(W)),
    ):
        assert _ks_distance(stat(new), stat(ref)) < bound


@pytest.mark.parametrize("case", sorted(_LAW_FORMS))
def test_sample_S_draws_count_plus_64_rows_in_one_batch(case, monkeypatch):
    batches = []
    rejection_sample = oracle._rejection_sample

    def counting(draw, *args, **kwargs):
        def counted(rng, batch, need):
            batches.append(batch)
            return draw(rng, batch, need)

        return rejection_sample(counted, *args, **kwargs)

    monkeypatch.setattr(oracle, "_rejection_sample", counting)
    W = oracle.sample_S(_law_form(case), 10_000, seed=0)
    assert batches == [10_064] and W.shape[0] == 10_000


def _hstack_sample_S(cf, count, seed):
    """Reference slice sampler: x, y and z drawn as separate arrays, the kept
    rows of each copied out and stacked, then scaled."""

    def draw(rng, batch, need):
        x = rng.uniform(0.0, 1.0, batch)[:, None] * _unit_rows_loop(rng, batch, cf.n)
        y = _unit_rows_loop(rng, batch, cf.m)
        z = rng.uniform(-10.0, 10.0, (batch, cf.l))
        form = x @ cf.a + y @ cf.d + z @ cf.h
        keep = np.flatnonzero(np.abs(form) > 1e-6)[:need]
        return np.hstack([x[keep], y[keep], z[keep]]) * (-1.0 / form[keep])[:, None]

    return oracle._rejection_sample(draw, count, seed, attempts_per_row=1)


def _half_kept_form():
    """n = m = 1, l = 0 with |form| = 1e-6·|x + y|: about half the draws
    have |form| ≤ 1e-6, so kept rows move forward and a second batch runs."""
    return SimpleNamespace(
        n=1, m=1, l=0, a=np.array([1e-6]), d=np.array([1e-6]), h=np.zeros(0)
    )


@pytest.mark.parametrize("case", sorted(_LAW_FORMS) + ["n1_l0", "half_kept"])
def test_sample_S_matches_the_hstack_sampler_bit_for_bit(case):
    if case == "n1_l0":
        cf = spectral.canonicalize(random_instance(np.random.default_rng(3), 1, 2, 0))
        assert (cf.n, cf.l) == (1, 0)
    else:
        cf = _half_kept_form() if case == "half_kept" else _law_form(case)
    for count, seed in ((1, 0), (700, 1), (10_000, 2)):
        new = oracle.sample_S(cf, count, seed)
        ref = _hstack_sample_S(cf, count, seed)
        assert new.shape == ref.shape == (count, cf.n + cf.m + cf.l)
        assert new.tobytes() == ref.tobytes()


def test_homogeneous_and_box_samplers_match_the_rejection_loop(cd_wedge, cd_scaled):
    def homogeneous(a, d, l):
        def draw(rng, batch):
            x = rng.uniform(0.0, 1.0, batch)[:, None] * _unit_rows_loop(rng, batch, len(a))
            y = _unit_rows_loop(rng, batch, len(d))
            keep = (x @ a + y @ d) <= 0.0
            return np.hstack([x[keep], y[keep], np.zeros((int(keep.sum()), l))])

        return draw

    def box(qc):
        def draw(rng, batch):
            s = rng.uniform(-10.0, 10.0, (batch, qc.dim))
            return s[qc(s) <= 0.0]

        return draw

    # about half of each homogeneous batch is kept, more rows than are
    # needed; the hyperbola's box keeps about half too, and the unit disk's
    # about 1/127, so that sampler runs many batches
    for cd, l, count, seed in ((cd_wedge, 0, 3000, 6), (cd_scaled, 2, 2000, 5)):
        got = oracle.sample_S_homogeneous(cd.a, cd.d, count, seed=seed, l=l)
        ref = _rejection_loop(homogeneous(cd.a, cd.d, l), count, seed)
        assert got.shape == ref.shape and np.array_equal(got, ref)
    disk = spectral.QuadraticConstraint(
        Q=np.eye(2), b=np.zeros(2), c=-1.0, point=np.array([3.0, 0.0])
    )
    hyperbola = spectral.QuadraticConstraint(
        Q=np.diag([1.0, -1.0]), b=np.zeros(2), c=0.0, point=np.array([3.0, 0.0])
    )
    for qc, count, seed in ((disk, 700, 1), (hyperbola, 2000, 3)):
        got = oracle.sample_quadratic_region(qc, count, seed=seed)
        ref = _rejection_loop(box(qc), count, seed)
        assert got.shape == ref.shape and np.array_equal(got, ref)


def test_sample_S_fills_a_count_near_the_attempt_budget():
    # 600,000 points need one batch of 600,064 draws, inside the 10⁶ budget;
    # a sampler that keeps one sign of the form finds about half of them
    cf = wedge_canonical()
    assert cf.case == "CASE2_CR"
    W = oracle.sample_S(cf, 600_000, seed=0)
    assert W.shape == (600_000, cf.n + cf.m + cf.l)
    with pytest.raises(SamplingExhaustedError):
        _one_sign_sample_S(cf, 600_000, seed=0)


def test_sample_S_fills_a_count_past_the_attempt_floor():
    # 1,100,000 points take one batch of 1,100,064 draws: more than 10⁶,
    # within the budget of twice the expected draws
    cf = wedge_canonical()
    W = oracle.sample_S(cf, 1_100_000, seed=0)
    assert W.shape == (1_100_000, cf.n + cf.m + cf.l)


def test_sample_S_homogeneous_inequality():
    rng = np.random.default_rng(1)
    a = random_unit(rng, 2)
    d = np.array([0.3])
    W = oracle.sample_S_homogeneous(a, d, 500, seed=2)
    x, y = W[:, :2], W[:, 2:]
    assert np.max(np.linalg.norm(x, axis=1) - np.linalg.norm(y, axis=1)) <= 1e-10
    assert np.max(x @ a + y @ d) <= 1e-12


def test_sample_quadratic_region_feasible():
    qc = spectral.QuadraticConstraint(
        Q=np.diag([1.0, -1.0]), b=np.zeros(2), c=0.0, point=np.array([3.0, 0.0])
    )
    S = oracle.sample_quadratic_region(qc, 2000, seed=3)
    vals = np.einsum("ij,jk,ik->i", S, qc.Q, S) + S @ qc.b + qc.c
    assert np.max(vals) <= 0.0


# --- cut validity --------------------------------------------------------------


def _cut(apex, R, steps):
    """The cut Σ_j u_j / steps_j ≥ 1 on the cone (apex, R), as coefᵀs ≤ rhs."""
    coef = -np.linalg.solve(R.T, 1.0 / np.asarray(steps, dtype=float))
    cone = SimplicialCone(apex=apex, R=R)
    return SimpleNamespace(coef=coef, rhs=float(coef @ cone.apex) - 1.0, cone=cone)


def _step_into_S(qc, apex, R):
    """A ray j and a step τ on it with q(apex + τ r_j) < 0, the most
    negative relative to ‖Q̃‖₂(1 + ‖s‖²) among the rays; None if no ray
    clearly enters S.  Along a ray q is ατ² + βτ + q(apex): past the root
    when α < 0, between the roots when α > 0."""
    alpha = np.sum((R.T @ qc.Q) * R.T, axis=1)
    beta = R.T @ (2.0 * qc.Q @ apex + qc.b)
    gamma = qc(apex)
    disc = beta * beta - 4.0 * alpha * gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        far = (-beta - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * alpha)
        tau = np.where(alpha < 0.0, 2.0 * far, -beta / (2.0 * alpha))
    enters = (alpha < 0.0) | ((alpha > 0.0) & (beta < 0.0) & (disc > 0.0))
    if not np.any(enters):
        return None
    tau = np.where(enters, tau, 1.0)
    S = apex + tau[:, None] * R.T
    scale = np.linalg.norm(spectral.lift(qc.Q, qc.b, qc.c), 2)
    rel = np.where(enters, qc(S) / (scale * (1.0 + np.sum(S * S, axis=1))), np.inf)
    j = int(np.argmin(rel))
    return (j, float(tau[j])) if rel[j] < -1e-6 else None


@settings(
    derandomize=True, max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(st.data())
def test_cut_validity_catches_a_step_moved_into_S(data):
    p = data.draw(st.integers(10, 16), label="p")
    n = data.draw(st.integers(1, p), label="n")
    m = data.draw(st.integers(1, p + 1 - n), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    qc = random_instance(rng, n, m, p + 1 - n - m)
    R = random_orthogonal(rng, p)
    try:
        cert = separate(qc, SimplicialCone(apex=qc.point, R=R))
    except AllRaysRecessionError:
        assume(False)
    rep = oracle.check_cut_validity(qc, cert)
    assert rep.passed, rep.worst_residual

    moved = _step_into_S(qc, qc.point, R)
    assume(moved is not None)
    j, tau = moved
    steps = cert.steps.copy()
    assert tau > steps[j]  # the real step stops short of S
    steps[j] = tau
    rep = oracle.check_cut_validity(qc, _cut(qc.point, R, steps))
    assert not rep.passed, rep.worst_residual
    assert qc(rep.witness) < 0.0


def test_cut_validity_follows_rays_the_cut_never_meets():
    # the cut s₁ ≤ 2.9 on the cone at (3, 0) with rays (−1, 0) and (0, 1)
    # removes {2.9 < s₁ ≤ 3, s₂ ≥ 0}; ray 2 never meets it
    apex, R = np.array([3.0, 0.0]), np.array([[-1.0, 0.0], [0.0, 1.0]])
    cut = _cut(apex, R, [0.1, np.inf])
    disc = spectral.QuadraticConstraint(
        Q=np.eye(2), b=np.zeros(2), c=-1.0, point=apex
    )
    assert oracle.check_cut_validity(disc, cut).passed
    # s₁² ≤ s₂² holds at (3, s₂) once s₂ ≥ 3, which is inside [0, 10]
    cone_S = spectral.QuadraticConstraint(
        Q=np.diag([1.0, -1.0]), b=np.zeros(2), c=0.0, point=apex
    )
    rep = oracle.check_cut_validity(cone_S, cut)
    assert not rep.passed
    assert rep.witness[1] >= 3.0


def test_cut_validity_reaches_as_far_along_short_rays_as_the_cut_does():
    # on the wedge with rays 1e-12·I, ray 1 weighted 0 as if it receded
    # gives the cut −1.151 s₂ ≤ 1.302, which removes s = (8, −2) where
    # q = −5.7; a cut the rays meet 1e12 lengths out needs samples as far
    qc = wedge_constraint()
    R = 1e-12 * np.eye(2)
    right = separate(qc, SimplicialCone(apex=qc.point, R=R))
    wrong = _cut(qc.point, R, [np.inf, right.steps[1]])
    assert np.allclose(wrong.coef, [0.0, -1.151], atol=1e-3) and abs(wrong.rhs - 1.302) < 1e-3
    assert qc(np.array([8.0, -2.0])) < -5.0 and wrong.coef @ [8.0, -2.0] > wrong.rhs
    rep = oracle.check_cut_validity(qc, wrong)
    assert not rep.passed and qc(rep.witness) < 0.0
    assert oracle.check_cut_validity(qc, right).passed


def test_cut_validity_ignores_the_sign_of_a_recession_slope():
    # (s₁ + 3)² − s₂² + 8 > 0 for every s₁ ≥ 0, so ray e₁ from the origin
    # never leaves the free set: weight 0, and coefᵀe₁ = coef₁ = −0.0
    qc = spectral.QuadraticConstraint(
        Q=np.diag([1.0, -1.0]), b=np.array([6.0, 0.0]), c=8.0, point=np.zeros(2)
    )
    cert = separate(qc, SimplicialCone(apex=qc.point, R=np.eye(2)))
    assert np.isinf(cert.steps[0]) and cert.coef[0] == 0.0
    report = oracle.check_cut_validity(qc, cert).as_dict()
    ulp = np.spacing(np.linalg.norm(cert.coef))
    for slope in (ulp, -ulp):  # either side of 0, one ulp of ‖coef‖ away
        coef = cert.coef.copy()
        coef[0] = slope
        nudged = SimpleNamespace(coef=coef, rhs=cert.rhs, cone=cert.cone)
        assert oracle.check_cut_validity(qc, nudged).as_dict() == report


def test_cut_validity_takes_an_overflowing_quotient_on_the_lifted_unit_point():
    # s₁² − s₂² ≤ 1 cut at (1e154, 0) by s₂ ≥ 1e154: the samples along the
    # receding ray reach 1e155, where q(s) and 1 + ‖s‖² overflow; those rows
    # are taken as ŵᵀQ̃ŵ/‖Q̃‖₂, with no warning, so the valid cut passes and
    # a step moved into S still fails
    qc = spectral.QuadraticConstraint(
        Q=np.diag([1.0, -1.0]), b=np.zeros(2), c=-1.0, point=np.array([1e154, 0.0])
    )
    cert = separate(qc, SimplicialCone(apex=qc.point, R=np.eye(2)))
    assert np.isinf(cert.steps[0]) and cert.steps[1] == 1e154
    rep = oracle.check_cut_validity(qc, cert)
    assert rep.passed and rep.worst_residual == 0.0 and rep.samples == 10**4 + 1
    rep = oracle.check_cut_validity(qc, _cut(qc.point, np.eye(2), [np.inf, 2e154]))
    assert not rep.passed and -1.0 < rep.worst_residual < -0.1


def test_cut_validity_fails_a_cut_that_keeps_its_apex():
    qc = spectral.QuadraticConstraint(
        Q=np.eye(2), b=np.zeros(2), c=-1.0, point=np.array([3.0, 0.0])
    )
    cut = _cut(qc.point, -np.eye(2), [1.0, 1.0])
    kept = SimpleNamespace(coef=cut.coef, rhs=cut.rhs + 2.0, cone=cut.cone)
    rep = oracle.check_cut_validity(qc, kept)
    assert not rep.passed and rep.samples == 0


# --- freeness ----------------------------------------------------------------


def test_built_sets_pass_freeness():
    rng = np.random.default_rng(4)
    done = 0
    while done < 15:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        l = int(rng.integers(0, 2))
        qc = random_instance(rng, n, m, l)
        cf = spectral.canonicalize(qc)
        fs = build_free_set(cf)
        try:
            samples = oracle.freeness_samples(cf, fs, 2000, seed=done)
        except SamplingExhaustedError:
            continue
        rep = oracle.check_freeness(fs, samples, seed=done)
        assert rep.passed, (cf.case, rep.worst_residual)
        done += 1


def _slice_points_loop(lam, a, d, l=0, seed=0):
    """β-by-β reference for ``oracle.structured_slice_points``."""
    m = len(d)
    if m == 1:
        betas = np.array([[-1.0], [1.0]])
    elif m == 2:
        t = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        betas = np.column_stack([np.cos(t), np.sin(t)])
    else:
        rng = np.random.default_rng(seed)
        betas = np.vstack([oracle._unit_rows(rng, 256, m), np.eye(m), -np.eye(m)])
    points = []
    for beta in betas:
        c, na2 = float(-(d @ beta)), float(a @ a)
        candidates = [lam] if float(a @ lam) <= c else []
        x0 = (c / na2) * a if na2 > 0.0 else None
        if x0 is not None and np.linalg.norm(x0) <= 1.0:
            lam_perp = lam - (float(a @ lam) / na2) * a
            npp = np.linalg.norm(lam_perp)
            room = np.sqrt(max(1.0 - float(x0 @ x0), 0.0))
            candidates.append(x0 + room * lam_perp / npp if npp > 1e-14 else x0)
        if candidates:
            x = max(candidates, key=lambda x: float(lam @ x))
            points.append(np.concatenate([x, beta, np.zeros(l)]))
    return np.array(points).reshape(-1, len(lam) + m + l)


def test_structured_slice_points_match_beta_loop(cd_wedge, cd_scaled, cd_polars):
    rng = np.random.default_rng(16)
    cases = [(cd.lam, cd.a, cd.d) for cd in (cd_wedge, cd_scaled, cd_polars)]
    cases += [(np.array([1.0, 0.0]), np.zeros(2), np.array([0.5, -0.2]))]  # a = 0
    cases += [(np.array([0.6, 0.8]), s * np.array([0.6, 0.8]), np.array([0.3, 0.1, 0.2]))
              for s in (1.0, -1.0)]  # λ = ±a
    for _ in range(60):
        n, m = (int(k) for k in rng.integers(1, 5, 2))
        a = rng.standard_normal(n) * rng.uniform(0.2, 3.0)
        cases.append((random_unit(rng, n), a, rng.standard_normal(m) * rng.uniform(0.05, 2.0)))
    for lam, a, d in cases:
        for l, seed in ((0, 0), (2, 3)):
            got = oracle.structured_slice_points(lam, a, d, l=l, seed=seed)
            ref = _slice_points_loop(lam, a, d, l=l, seed=seed)
            assert got.shape == ref.shape
            assert np.array_equal(got[:, len(lam):], ref[:, len(lam):])  # same β kept
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12


def test_forced_cglambda_fails_on_scaled_witness(cd_scaled):
    # locally-described set with the exact interior point (3, −4, 5)/5
    fs = CGLambda(2, 1, 0, cd=cd_scaled, forced=True)
    hom = oracle.sample_S_homogeneous(cd_scaled.a, cd_scaled.d, 2000, seed=5)
    extra = oracle.structured_slice_points(cd_scaled.lam, cd_scaled.a, cd_scaled.d)
    rep = oracle.check_freeness(fs, np.vstack([hom, extra]))
    assert not rep.passed
    w = rep.witness
    target = np.array([3.0, -4.0, 5.0])
    scaling = float(w @ target) / float(target @ target)
    assert scaling > 0.0
    assert np.linalg.norm(w - scaling * target) <= 1e-6


def test_forced_cglambda_fails_on_wedge_but_cphilambda_passes(cd_wedge):
    hom = oracle.sample_S_homogeneous(cd_wedge.a, cd_wedge.d, 4000, seed=6)
    extra = oracle.structured_slice_points(cd_wedge.lam, cd_wedge.a, cd_wedge.d)
    samples = np.vstack([hom, extra])
    bad = CGLambda(2, 1, 0, cd=cd_wedge, forced=True)
    rep_bad = oracle.check_freeness(bad, samples)
    assert not rep_bad.passed and rep_bad.witness is not None
    good = CPhiLambda(2, 1, 0, cd=cd_wedge)
    rep_good = oracle.check_freeness(good, samples)
    assert rep_good.passed, rep_good.worst_residual


# --- exposing witnesses --------------------------------------------------------


def test_exposing_witness_wedge_unrelaxed(cd_wedge):
    (z,), (rep,) = oracle.exposing_witness(cd_wedge, np.array([-1.0]), CRPhiLambda(2, 1, 0, cd=cd_wedge))
    assert rep.passed, rep.extra
    # −(λ, β)/(aᵀλ + dᵀβ) with denominator −1/√2: a negative multiple of
    # (1/√2, 1/√2, √2)
    assert np.allclose(z, [-1.0, -1.0, -S2], atol=1e-12)
    x, y = z[:2], z[2]
    assert abs((x[0] + x[1]) / S2 - y) <= 1e-9  # the exposed inequality is tight


def test_exposing_witness_requires_strict_region(cd_wedge):
    with pytest.raises(NotInStrictRegionError):
        oracle.exposing_witness(cd_wedge, np.array([1.0]), CRPhiLambda(2, 1, 0, cd=cd_wedge))


def test_exposing_witness_d_zero_scaling():
    rng = np.random.default_rng(7)
    lam = random_unit(rng, 3)
    a = random_unit(rng, 3)
    while float(a @ lam) > -0.2:
        a = random_unit(rng, 3)
    cd = CaseData(lam=lam, a=a, d=np.zeros(2), unit_a=True)
    beta = random_unit(rng, 2)
    (z,), (rep,) = oracle.exposing_witness(cd, beta, CRPhiLambda(3, 2, 0, cd=cd))
    assert rep.passed
    assert np.allclose(z, -np.concatenate([lam, beta]) / float(a @ lam), atol=1e-12)


def test_exposing_witness_random_strict_region():
    rng = np.random.default_rng(8)
    done = 0
    while done < 200:
        cd = random_casedata(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
        beta = random_unit(rng, len(cd.d))
        if float(cd.a @ cd.lam + cd.d @ beta) >= -1e-3:
            continue
        _, (rep,) = oracle.exposing_witness(cd, beta, CRPhiLambda(len(cd.lam), len(beta), 0, cd=cd))
        assert rep.passed, rep.extra
        done += 1


# --- asymptote sequences --------------------------------------------------------


def test_displayed_divergent_sequence_structure(cd_wedge):
    # the classical divergent certificate: x_k = (1, −k)/√(k²+1), y = 1
    ks = np.arange(1.0, 200.0)
    xk = np.stack([1.0 / np.sqrt(ks**2 + 1), -ks / np.sqrt(ks**2 + 1)], axis=1)
    form = xk @ cd_wedge.a + float(cd_wedge.d @ np.array([1.0]))
    assert np.all(form < 0.0)
    assert np.allclose(xk[-1], [0.0, -1.0], atol=1e-2)
    # and the limit direction is exactly the slice maximizer x(β)
    assert np.allclose(x_beta(cd_wedge, np.array([1.0])), [0.0, -1.0], atol=1e-12)


def test_asymptote_sequence_converges_to_r(cd_wedge):
    beta = np.array([1.0])
    for N in (100, 1000, 10000):
        zs, viol, rep = oracle.asymptote_sequence(cd_wedge, beta, N)
        assert rep.passed, rep.worst_residual
        assert abs(float(viol[-1]) - 1.0) <= 10.0 / N  # r(1) = 1
    # membership of the sequence points in S ∩ H
    x, y = zs[:, :2], zs[:, 2:]
    assert np.max(np.linalg.norm(x, axis=1) - np.linalg.norm(y, axis=1)) <= 1e-9
    assert np.max(np.abs(x @ cd_wedge.a + y @ cd_wedge.d + 1.0)) <= 1e-9


def test_asymptote_sequence_polars(cd_polars):
    rng = np.random.default_rng(9)
    done = 0
    while done < 20:
        beta = random_unit(rng, 2)
        if cd_polars.lam_a + float(cd_polars.d @ beta) < 0.0:
            continue
        _, viol, rep = oracle.asymptote_sequence(cd_polars, beta, 10**4)
        assert rep.passed
        assert abs(float(viol[-1]) - r_coefficient(cd_polars, beta)) <= 1e-3
        done += 1


def test_asymptote_sequence_rejects_strict_region(cd_wedge):
    with pytest.raises(PreconditionViolatedError):
        oracle.asymptote_sequence(cd_wedge, np.array([-1.0]), 100)


# --- phi_bruteforce -------------------------------------------------------------


def test_bruteforce_lambda_minus_a():
    rng = np.random.default_rng(10)
    a = random_unit(rng, 2)
    cd = CaseData(lam=-a, a=a, d=np.zeros(1), unit_a=True)
    y = np.array([1.7])
    assert abs(oracle.phi_bruteforce(cd, y, grid=10**4) - 1.7) <= 1e-6


def test_bruteforce_wedge_values(cd_wedge):
    assert abs(oracle.phi_bruteforce(cd_wedge, np.array([1.0]), 10**6) - 1.0 / S2) <= 1e-6
    assert abs(oracle.phi_bruteforce(cd_wedge, np.array([-1.0]), 10**6) - 1.0) <= 1e-6


def test_bruteforce_matches_phi_value_random(cd_polars):
    rng = np.random.default_rng(11)
    y = np.array([0.0, 1.0])
    assert abs(oracle.phi_bruteforce(cd_polars, y, 10**6) - phi_value(cd_polars, y)) <= 1e-6
    for _ in range(20):
        cd = random_casedata(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
        y = rng.standard_normal(len(cd.d))
        bf = oracle.phi_bruteforce(cd, y, grid=10**5)
        assert abs(bf - phi_value(cd, y)) <= 1e-4 * (1.0 + np.linalg.norm(y))


# --- packaged identity checks -----------------------------------------------------


def test_check_duality_reports():
    rng = np.random.default_rng(12)
    for _ in range(100):
        cd = random_casedata(rng, 2, 2)
        y = rng.standard_normal(2)
        (rep,) = oracle.check_duality(cd, y)
        assert rep.passed, rep.worst_residual


def test_check_convexity_reports():
    rng = np.random.default_rng(13)
    cd = random_casedata(rng, 2, 3)
    pairs = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(10**4)]
    rep = oracle.check_convexity(cd, pairs)
    assert rep.passed and rep.worst_residual <= 1e-10


def test_check_gradient_reports():
    rng = np.random.default_rng(14)
    done = 0
    while done < 100:
        cd = random_casedata(rng, 2, 2)
        y = rng.standard_normal(2)
        ny = np.linalg.norm(y)
        if ny < 0.3 or abs(cd.lam_a * ny + float(cd.d @ y)) < 1e-3:
            continue
        (rep,) = oracle.check_gradient(cd, y)
        assert rep.passed, rep.worst_residual
        assert rep.extra["euler_residual"] <= 1e-10
        done += 1


def _convexity_loop(cd, pairs):
    """Pair-by-pair reference for ``oracle.check_convexity``."""
    worst, witness = 0.0, None
    for y1, y2 in pairs:
        lhs = oracle.phi_value(cd, 0.5 * (y1 + y2))
        gap = lhs - 0.5 * (oracle.phi_value(cd, y1) + oracle.phi_value(cd, y2))
        if gap > worst:
            worst, witness = gap, np.concatenate([y1, y2])
    passed = worst <= 1e-10
    return oracle.VerificationReport(
        name="convexity", samples=len(pairs), worst_residual=float(worst),
        passed=passed, tolerance=1e-10, witness=None if passed else witness,
    )


def _theta_one(cd, y):
    """One-vector reference for θ(y): 0 on the flat branch, inf on the ray."""
    _, dy, flat, wsq, lam_sq = _gauge_parts(cd, y)
    if flat:
        return 0.0
    if wsq == 0.0:
        return math.inf
    return float(cd.lam_a + dy * np.sqrt(lam_sq) / np.sqrt(wsq))


def _duality_one(cd, y):
    """One-vector reference for ``oracle.check_duality``."""
    th = _theta_one(cd, y)
    if math.isinf(th):
        return oracle.VerificationReport(
            name="duality", samples=1, worst_residual=0.0, passed=True,
            tolerance=1e-9, extra={"theta": "inf"},
        )
    dual = np.linalg.norm(cd.lam - th * cd.a) * np.linalg.norm(y) - th * float(cd.d @ y)
    residual = abs(float(dual) - phi_value(cd, y))
    return oracle.VerificationReport(
        name="duality", samples=1, worst_residual=residual,
        passed=residual <= 1e-9, tolerance=1e-9, extra={"theta": th},
    )


def _gradient_loop(cd, y, step=1e-6):
    """Coordinate-by-coordinate reference for ``oracle.check_gradient``: None
    where ∇φ is undefined, else ∇φ from its formula against the differences
    and the Euler identity of ``oracle.phi_value``."""
    ny, dy, flat, wsq, lam_sq = _gauge_parts(cd, y)
    if ny == 0.0 or not (flat or wsq > 0.0):
        return None
    if flat:
        grad = y / ny
    else:
        grad = np.sqrt(lam_sq) / np.sqrt(wsq) * (y - cd.d * dy) - cd.lam_a * cd.d
    fd = np.empty_like(grad)
    for i in range(len(y)):
        e = np.zeros_like(y)
        e[i] = step
        fd[i] = (oracle.phi_value(cd, y + e) - oracle.phi_value(cd, y - e)) / (2.0 * step)
    fd_res = float(np.max(np.abs(fd - grad)))
    euler_res = abs(float(grad @ y) - float(oracle.phi_value(cd, y)))
    return oracle.VerificationReport(
        name="gradient", samples=1, worst_residual=fd_res,
        passed=fd_res <= 1e-5 and euler_res <= 1e-10, tolerance=1e-5,
        extra={"euler_residual": euler_res},
    )


def _witness_one(cd, beta, fs):
    """One-β reference for ``oracle.exposing_witness``."""
    denom = float(cd.a @ cd.lam + cd.d @ beta)
    assert denom < -1e-9
    z = -np.concatenate([cd.lam, beta]) / denom
    x, y = z[: len(cd.lam)], z[len(cd.lam) :]
    residuals = {
        "membership_cone": max(np.linalg.norm(x) - np.linalg.norm(y), 0.0),
        "membership_slice": abs(float(cd.a @ x + cd.d @ y) + 1.0),
        "tightness": abs(float(-cd.lam @ x + beta @ y) - _theta_one(cd, beta)),
        "margin": abs(fs.margin(z)),
    }
    passed = (
        residuals["membership_cone"] <= 1e-9
        and residuals["membership_slice"] <= 1e-9
        and residuals["tightness"] <= 1e-9
        and residuals["margin"] <= 1e-7
    )
    return oracle.VerificationReport(
        name="exposing_witness", samples=1, worst_residual=float(max(residuals.values())),
        passed=passed, tolerance=1e-7, witness=None if passed else z,
        extra={"residuals": residuals},
    )


def _case2_loop(cf, fs, seed):
    """One-y-at-a-time reference for ``oracle.case2_battery``."""
    cd = CaseData(cf.lam, cf.a, cf.d, unit_a=True)
    rng = np.random.default_rng(seed + 1)
    reports = []
    for _ in range(50):
        y = rng.standard_normal(cf.m)
        if np.linalg.norm(y) < 1e-9:
            continue
        reports.append(_duality_one(cd, y))
        gradient = _gradient_loop(cd, y)
        if gradient is not None:
            reports.append(gradient)
    pairs = [(rng.standard_normal(cf.m), rng.standard_normal(cf.m)) for _ in range(100)]
    reports.append(_convexity_loop(cd, pairs))
    betas = _unit_rows_loop(rng, 200, cf.m)
    val = cd.lam_a + betas @ cd.d
    strict, loose = betas[val < -1e-6][:25], betas[val >= 0.0][:10]
    for beta in strict:
        reports.append(_witness_one(cd, beta, fs))
    if cf.case != spectral.CASE_CASE2_CR_LAMBDA_NEG_A:
        for beta in loose:
            reports.append(oracle.asymptote_sequence(cd, beta, 1000)[2])
    return reports


def _bits(obj):
    """A report's dict with each float as its hex string, so that == compares
    floats bit for bit."""
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    return float.hex(obj) if isinstance(obj, float) else obj


def _case2_form(cd, neg_a):
    """A case-2 canonical form (λ, a, d, its case and free set) for cd."""
    n, m = len(cd.lam), len(cd.d)
    if neg_a:
        cd = CaseData(-cd.a, cd.a, cd.d, unit_a=True)
        fs = CLambda(n, m, 0, lam=cd.lam)
        case = spectral.CASE_CASE2_CR_LAMBDA_NEG_A
    else:
        fs, case = CRPhiLambda(n, m, 0, cd=cd), spectral.CASE_CASE2_CR
    return SimpleNamespace(n=n, m=m, lam=cd.lam, a=cd.a, d=cd.d, case=case), fs


@pytest.mark.parametrize("convex", [True, False])
def test_batched_phi_checks_match_loops(convex, monkeypatch):
    # the checks evaluate φ once on stacked rows; a row gives the same bits
    # alone or in a batch, so each report equals its loop's, field by field
    if not convex:
        monkeypatch.setattr(oracle, "phi_value", lambda cd, y: np.cos(3.0 * (y * y).sum(axis=-1)))
    rng = np.random.default_rng(16)
    failed = {"convexity": 0, "gradient": 0}
    for trial in range(80):
        m = 1 + trial % 4
        cd = random_casedata(rng, int(rng.integers(1, 4)), m)
        pairs = [(rng.standard_normal(m), rng.standard_normal(m)) for _ in range(25)]
        y = rng.standard_normal(m)
        for rep, ref in (
            (oracle.check_convexity(cd, pairs), _convexity_loop(cd, pairs)),
            (*oracle.check_gradient(cd, y), _gradient_loop(cd, y)),
        ):
            assert rep.as_dict() == ref.as_dict()
            failed[rep.name] += not rep.passed
    if convex:
        assert failed["convexity"] == 0
    else:  # the failing-witness path is compared too
        assert min(failed.values()) > 0


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 6),
    neg_a=st.booleans(),
    d_scale=st.sampled_from([0.0, 0.5, 0.95]),
    seed=st.integers(0, 2**16),
)
def test_case2_battery_matches_the_one_y_loop(n, m, neg_a, d_scale, seed):
    # n = 1 has only λ = −a; every report, floats bit for bit, and in order
    cd = random_casedata(np.random.default_rng(seed), n, m, d_scale=d_scale)
    cf, fs = _case2_form(cd, neg_a or n == 1)
    rows = [_bits(r.as_dict()) for r in oracle.case2_battery(cf, fs, seed)]
    assert rows == [_bits(r.as_dict()) for r in _case2_loop(cf, fs, seed)]


@pytest.mark.parametrize("point", [(-2.0, -2.0), (1.6 * S2, -1.6 * S2)])
def test_case2_battery_on_the_wedges(point):
    # the wedge is CASE2_CR and gets 10 asymptote sequences; its point moved
    # to (1.6√2, −1.6√2) gives λ = −a and the 126 reports without them
    qc = spectral.QuadraticConstraint(
        Q=np.array([[0.0, 1.0], [1.0, 0.0]]), b=np.array([2.0 * S2, -2.0 * S2]),
        c=-2.0, point=np.array(point),
    )
    cf = spectral.canonicalize(qc)
    fs = build_free_set(cf)
    reports = oracle.case2_battery(cf, fs, 0)
    tail = [] if cf.case == spectral.CASE_CASE2_CR_LAMBDA_NEG_A else ["asymptote_sequence"] * 10
    names = ["duality", "gradient"] * 50 + ["convexity"] + ["exposing_witness"] * 25 + tail
    assert [r.name for r in reports] == names
    assert all(r.passed for r in reports)
    assert [_bits(r.as_dict()) for r in reports] == [
        _bits(r.as_dict()) for r in _case2_loop(cf, fs, 0)
    ]


def test_row_checks_skip_where_the_gradient_is_undefined():
    # ∇φ is undefined at 0 and, for ‖d‖ = 1 off the flat branch, on the ray
    # through d: a row there gets no gradient report
    cd = CaseData(lam=np.array([1.0, 0.0]), a=np.array([0.0, 1.0]), d=np.array([1.0, 0.0]))
    Y = np.array([[0.0, 0.0], [2.0, 0.0], [-1.0, 0.5]])
    assert [r is None for r in oracle.check_gradient(cd, Y)] == [True, True, False]
    assert [r.extra["theta"] for r in oracle.check_duality(cd, Y)] == [0.0, "inf", 0.0]


def _layouts(X):
    """X in C order, in Fortran order and as a view with a column stride."""
    wide = np.zeros((len(X), 2 * X.shape[1]))
    wide[:, ::2] = X
    return X, np.asfortranarray(X), wide[:, ::2]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    unit_d=st.booleans(),
    seed=st.integers(0, 2**16),
    subset=st.lists(st.integers(0, 15), min_size=1, max_size=16, unique=True),
)
def test_a_row_gets_the_same_report_in_any_batch(n, m, unit_d, seed, subset):
    # the reports for any rows of a batch, in any order and memory layout,
    # are the batch's reports for those rows, floats bit for bit; with d a unit coordinate
    # vector, the rows t·d (t > 0) have θ = ∞ and no gradient, and the zero
    # row has no gradient in any case
    rng = np.random.default_rng(seed)
    cd = random_casedata(rng, n, m)
    Y = rng.standard_normal((16, m))
    if unit_d:
        d = np.zeros(m)
        d[seed % m] = 1.0
        cd_ray = CaseData(cd.lam, cd.a, d, unit_a=True)
        Y[:3] = np.array([[2.0], [0.5], [-1.0]]) * d
        Y[3] = 0.0
        assert n == 1 or np.isinf(theta_dual(cd_ray, Y[0]))  # n = 1 has λ = −a: flat, θ = 0
    else:
        cd_ray = cd
    for check in (oracle.check_duality, oracle.check_gradient):
        whole = [None if r is None else _bits(r.as_dict()) for r in check(cd_ray, Y)]
        for part in _layouts(Y[subset]):
            alone = [None if r is None else _bits(r.as_dict()) for r in check(cd_ray, part)]
            assert alone == [whole[i] for i in subset]

    fs = CRPhiLambda(n, m, 0, cd=cd)
    B = _unit_rows_loop(rng, 40, m)
    B = B[cd.lam_a + B @ cd.d < -1e-6][:16]
    rows = [i for i in subset if i < len(B)]
    if rows:
        Z, whole = oracle.exposing_witness(cd, B, fs)
        for part in _layouts(B[rows]):
            Z_part, alone = oracle.exposing_witness(cd, part, fs)
            assert Z_part.tobytes() == Z[rows].tobytes()
            assert [_bits(r.as_dict()) for r in alone] == [_bits(whole[i].as_dict()) for i in rows]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 30),
    l=st.integers(0, 3),
    seed=st.integers(0, 2**16),
    subset=st.lists(st.integers(0, 11), min_size=1, max_size=12, unique=True),
)
def test_a_margin_row_has_the_same_bits_in_any_batch_and_layout(n, m, l, seed, subset):
    # every family's margin, and φ, ∇φ and θ, at any rows of a batch, in any
    # order and memory layout, and at each row as a vector, are the batch's
    # values for those rows, bit for bit; the batch of y rows is itself a
    # column slice of the points
    rng = np.random.default_rng(seed)
    cd = random_casedata(rng, n, m)
    W = rng.standard_normal((12, n + m + l)) * rng.uniform(0.1, 10.0)
    families = [
        CLambda(n, m, l, lam=cd.lam),
        CGLambda(n, m, l, cd=cd, forced=True),
        CPhiLambda(n, m, l, cd=cd),
        CRPhiLambda(n, m, l, cd=cd),
        Halfspace(n, m, l, coef=rng.standard_normal(n + m + l), rhs=float(rng.standard_normal())),
    ]
    gauge = [lambda Y, f=f: f(cd, Y) for f in (phi_value, phi_gradient, theta_dual)]
    for f, X in [(fs.margin, W) for fs in families] + [(g, W[:, n : n + m]) for g in gauge]:
        whole = f(X)
        for part in _layouts(X[subset]):
            assert f(part).tobytes() == whole[subset].tobytes()
        for i in subset:
            assert np.asarray(f(X[i])).tobytes() == whole[i].tobytes()


def test_report_serialization():
    rng = np.random.default_rng(15)
    cd = random_casedata(rng, 2, 2)
    (rep,) = oracle.check_duality(cd, np.array([1.0, 0.5]))
    payload = rep.as_dict()
    assert payload["name"] == "duality"
    assert payload["passed"] is True
    assert "worst_residual" in payload and "tolerance" in payload
