import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_casedata,
    random_instance,
    random_orthogonal,
    random_unit,
    wedge_canonical,
)
from quadfree import cuts, freesets, spectral
from quadfree.corefns import CaseData, phi_gradient, phi_value, r_coefficient
from quadfree.errors import (
    AllRaysRecessionError,
    ApexNotInteriorError,
    EmptySError,
    UncertifiedStepError,
)
from quadfree.freesets import (
    CGLambda,
    CLambda,
    CPhiLambda,
    CRPhiLambda,
    FreeSetDescriptor,
    Halfspace,
    boundary_steps,
    build_free_set,
)

S2 = math.sqrt(2.0)


def wedge_crphi(cd_wedge) -> CRPhiLambda:
    return CRPhiLambda(2, 1, 0, cd=cd_wedge)


# --- margins of the individual families ---------------------------------------


def test_clambda_margin():
    fs = CLambda(1, 1, 0, lam=np.array([1.0]))
    assert fs.margin(np.array([3.0, 2.0])) == pytest.approx(-1.0)
    assert fs.margin(np.array([1.0, 2.0])) == pytest.approx(1.0)


def test_cglambda_interior_witness_margin(cd_scaled):
    fs = CGLambda(2, 1, 0, cd=cd_scaled, forced=True)
    assert fs.margin(np.array([3.0, -4.0, 5.0])) == pytest.approx(-5.0, abs=1e-12)


def test_cglambda_requires_case1_shape(cd_wedge):
    # ‖a‖ = 1 > ‖d‖ violates the CASE1 precondition unless forced
    with pytest.raises(ValueError):
        CGLambda(2, 1, 0, cd=cd_wedge)
    CGLambda(2, 1, 0, cd=cd_wedge, forced=True)


def test_cglambda_zero_d_reduces_to_norm():
    cd = CaseData(
        lam=np.array([0.0, 1.0]),
        a=np.array([0.0, 0.0]),
        d=np.zeros(2),
    )
    fs = CGLambda(2, 2, 0, cd=cd, forced=True)
    w = np.array([0.5, 2.0, 3.0, 4.0])
    assert fs.margin(w) == pytest.approx(5.0 - 2.0)


def test_cphilambda_margin_matches_phi(cd_polars):
    fs = CPhiLambda(2, 2, 0, cd=cd_polars)
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = rng.standard_normal(4)
        expect = phi_value(cd_polars, w[2:]) - float(cd_polars.lam @ w[:2])
        assert fs.margin(w) == pytest.approx(expect, abs=1e-12)


def test_crphilambda_matches_two_inequality_form(cd_wedge):
    fs = wedge_crphi(cd_wedge)
    rng = np.random.default_rng(1)
    W = rng.uniform(-5.0, 5.0, size=(1000, 3))
    got = fs.margin(W)
    x1, x2, y = W[:, 0], W[:, 1], W[:, 2]
    expect = np.maximum((x1 + x2) / S2 - y, (x1 + x2) / S2 + y / S2 - 1.0)
    assert np.max(np.abs(got - expect)) <= 1e-9


def test_crphilambda_dominates_every_inequality():
    # The margin must equal the sup over the semi-infinite family
    # −λᵀx + ∇φ(β)ᵀy ≤ r(β): never below any sampled member, and attained
    # up to sampling density.
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        cd = random_casedata(rng, n, m)
        fs = CRPhiLambda(n, m, 0, cd=cd)
        if m == 1:
            betas = [np.array([-1.0]), np.array([1.0])]
        else:
            betas = [random_unit(rng, m) for _ in range(3000)]
        rows = []
        for b in betas:
            if float(cd.a @ cd.lam + cd.d @ b) <= 1e-9:  # β ∈ G(λ)
                rows.append((b.astype(float), 0.0))
            else:
                rows.append((phi_gradient(cd, b), r_coefficient(cd, b)))
        W = np.hstack(
            [rng.standard_normal((40, n)) * 2, rng.standard_normal((40, m)) * 2]
        )
        margins = fs.margin(W)
        for i in range(W.shape[0]):
            x, y = W[i, :n], W[i, n:]
            sampled = max(
                -float(cd.lam @ x) + float(g @ y) - r for g, r in rows
            )
            assert margins[i] >= sampled - 1e-9
            if m == 1:
                assert margins[i] <= sampled + 1e-9  # enumeration is exact


def _case1_casedata(rng, n, m):
    """Random (λ, a, d) with ‖a‖ < ‖d‖, the CGLambda precondition."""
    lam = random_unit(rng, n)
    a = rng.standard_normal(n) * 0.3
    d = random_unit(rng, m) * (np.linalg.norm(a) + rng.uniform(0.1, 1.0))
    return CaseData(lam=lam, a=a, d=d)


def test_cglambda_margin_is_support_of_G():
    # margin + λᵀx = max{βᵀy : β ∈ G(λ)}: never below any sampled member,
    # and on a fine angle grid (m = 2) attained to the grid spacing.
    rng = np.random.default_rng(12)
    for m in (2, 3):
        for _ in range(5):
            n = int(rng.integers(1, 4))
            cd = _case1_casedata(rng, n, m)
            fs = CGLambda(n, m, 0, cd=cd)
            if m == 2:
                angles = np.linspace(0.0, 2.0 * np.pi, 8000, endpoint=False)
                betas = np.column_stack([np.cos(angles), np.sin(angles)])
            else:
                betas = np.array([random_unit(rng, m) for _ in range(8000)])
            betas = betas[cd.lam_a + betas @ cd.d <= 0.0]
            assert len(betas) > 1000
            x = rng.standard_normal((40, n))
            y = np.array([random_unit(rng, m) for _ in range(40)])
            support = fs.margin(np.hstack([x, y])) + x @ cd.lam
            sampled = np.max(y @ betas.T, axis=1)
            assert np.all(support >= sampled - 1e-12)
            if m == 2:
                assert np.all(support <= sampled + 1e-3)


def test_crphilambda_requires_unit_a(cd_scaled):
    with pytest.raises(ValueError):
        CRPhiLambda(2, 1, 0, cd=cd_scaled)


def _crphi_two_pass(fs, W):
    """CRPhiLambda's margin with the relaxed cap's curved branch from a
    second ``_gauge_parts`` pass inside ``phi_value``."""
    cd, n, m = fs.cd, fs.n, fs.m
    x, y = W[:, :n], W[:, n : n + m]
    lam_x = np.vecdot(x, cd.lam)
    shift = 1.0 / (1.0 - cd.d_norm**2)
    t, c = y - cd.d * shift, -cd.lam_a
    if abs(c) > cd.d_norm or cd.d_norm == 0.0:  # the branches with one pass
        relaxed = freesets._cap_support(cd, t, relaxed=True)
    else:
        nt, dt, flat = freesets._gauge_parts(cd, t)[:3]
        relaxed = np.where(flat, freesets._circle_support(cd, nt, dt, c), phi_value(cd, t))
    unrelaxed = freesets._cap_support(cd, y, relaxed=False)
    return np.maximum(unrelaxed - lam_x, relaxed - lam_x - cd.lam_a * shift)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(2, 4), m=st.integers(2, 5), seed=st.integers(0, 2**16))
def test_crphilambda_margin_matches_the_two_pass_composition(n, m, seed):
    # with m ≥ 2 and |λᵀa| ≤ ‖d‖ the relaxed cap takes its circle-or-φ
    # branch, which reads one decomposition of y − y₀ for both
    rng = np.random.default_rng(seed)
    cd = random_casedata(rng, n, m)
    fs = CRPhiLambda(n, m, 0, cd=cd)
    W = rng.standard_normal((200, n + m)) * rng.uniform(0.1, 10.0)
    expected = _crphi_two_pass(fs, W)
    assert fs.margin(W).tobytes() == expected.tobytes()
    assert [fs.margin(w) for w in W] == expected.tolist()


def test_relaxation_consistency_unrelaxed_directions():
    # On rays y = μβ with λᵀa + dᵀβ ≤ 0 (r(β) = 0) and the x kept in the
    # unrelaxed regime, the relaxed and unrelaxed sets agree.
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, m = 2, int(rng.integers(1, 4))
        cd = random_casedata(rng, n, m)
        fs_r = CRPhiLambda(n, m, 0, cd=cd)
        fs_p = CPhiLambda(n, m, 0, cd=cd)
        beta = random_unit(rng, m)
        if cd.lam_a * 1.0 + float(cd.d @ beta) > 0.0:
            continue
        for mu in (0.5, 1.0, 3.0):
            x = rng.standard_normal(n)
            w = np.concatenate([x, mu * beta])
            mp = fs_p.margin(w)
            mr = fs_r.margin(w)
            # relaxed set is larger: margin can only be ≤, and the
            # unrelaxed inequality itself isattained in both
            assert mr <= mp + 1e-10


def test_halfspace_margin():
    fs = Halfspace(1, 1, 0, coef=np.array([1.0, -2.0]), rhs=3.0)
    assert fs.margin(np.array([1.0, 1.0])) == pytest.approx(-4.0)


def test_cylinder_lift_ignores_free_coordinates():
    fs = CLambda(1, 1, 2, lam=np.array([1.0]))
    assert fs.margin(np.array([3.0, 2.0, 9.0, -9.0])) == pytest.approx(-1.0)


# --- build_free_set -----------------------------------------------------------


def _synthetic_cf(n, m, l, a, d, h, case, lam=None):
    k = n + m + l
    if lam is None:
        lam = np.zeros(n)
        lam[0] = 1.0
    wbar = np.zeros(k)
    wbar[:n] = lam
    return spectral.CanonicalForm(
        n=n,
        m=m,
        l=l,
        M=np.eye(k),
        a=np.asarray(a, float),
        d=np.asarray(d, float),
        h=np.asarray(h, float),
        mapped_point=wbar,
        lam=np.asarray(lam, float),
        case=case,
    )


def test_build_case1_gives_cglambda():
    cf = _synthetic_cf(
        1, 2, 0, a=[1.0], d=[1.0, -1.0], h=[], case=spectral.CASE_CASE1_CGLAMBDA,
        lam=[-1.0],
    )
    fs = build_free_set(cf)
    assert isinstance(fs, CGLambda)


def test_build_case2_variants(cd_wedge):
    cf = _synthetic_cf(
        2, 1, 0, a=cd_wedge.a, d=cd_wedge.d, h=[], case=spectral.CASE_CASE2_CR,
        lam=cd_wedge.lam,
    )
    assert isinstance(build_free_set(cf), CRPhiLambda)
    a = np.array([0.0, 1.0])
    cf2 = _synthetic_cf(
        2, 1, 0, a=a, d=[0.5], h=[],
        case=spectral.CASE_CASE2_CR_LAMBDA_NEG_A, lam=-a,
    )
    assert isinstance(build_free_set(cf2), CLambda)


def test_build_homogeneous_gives_cylinder():
    cf = _synthetic_cf(
        1, 1, 1, a=[0.0], d=[0.0], h=[-1.0], case=spectral.CASE_HOMOG_H_NONZERO
    )
    fs = build_free_set(cf)
    assert isinstance(fs, CLambda)


def test_build_empty_s_raises():
    # an empty S needs no cut: build_free_set decides that for every caller
    cf = _synthetic_cf(2, 0, 0, a=[0.0, 0.0], d=[], h=[], case=spectral.CASE_EMPTY_S)
    with pytest.raises(EmptySError):
        build_free_set(cf)


def test_build_convex_m1_supporting_halfspace():
    qc = spectral.QuadraticConstraint(
        Q=np.eye(2), b=np.zeros(2), c=-1.0, point=np.array([3.0, 0.0])
    )
    cf = spectral.canonicalize(qc)
    fs = build_free_set(cf)
    assert isinstance(fs, Halfspace)
    # mapped point strictly inside the free halfspace
    assert fs.margin(cf.mapped_point) < -1e-6
    # feasible points of S∩H (the unit disk on the slice) are outside
    rng = np.random.default_rng(4)
    for _ in range(200):
        s = rng.uniform(-1.0, 1.0, 2)
        if float(s @ s) <= 1.0:
            assert fs.margin(cf.map_point(s)) >= -1e-9
    # the halfspace touches the unit disk where the segment to the point exits it
    assert abs(fs.margin(cf.map_point([1.0, 0.0]))) <= 1e-12


def test_built_set_contains_mapped_point():
    cf = wedge_canonical()
    fs = build_free_set(cf)
    assert fs.margin(cf.mapped_point) < -1e-6


# --- convexity along segments ---------------------------------------------------


def test_margin_convexity_along_segments():
    rng = np.random.default_rng(5)
    cd = random_casedata(rng, 3, 2)
    sets = [
        CLambda(3, 2, 0, lam=cd.lam),
        CPhiLambda(3, 2, 0, cd=cd),
        CRPhiLambda(3, 2, 0, cd=cd),
    ]
    for fs in sets:
        hits = 0
        while hits < 1000:
            w1 = rng.standard_normal(5) * 2
            w2 = rng.standard_normal(5) * 2
            if fs.margin(w1) <= 0.0 and fs.margin(w2) <= 0.0:
                assert fs.margin((w1 + w2) / 2.0) <= 1e-9
                hits += 1


# --- containment chains ---------------------------------------------------------


def test_containment_clambda_in_cphilambda():
    rng = np.random.default_rng(6)
    for _ in range(10):
        cd = random_casedata(rng, 2, 2)
        small = CLambda(2, 2, 0, lam=cd.lam)
        big = CPhiLambda(2, 2, 0, cd=cd)
        W = rng.standard_normal((10**4, 4))
        assert np.all(small.margin(W) >= big.margin(W) - 1e-10)


def test_containment_clambda_in_cglambda():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n, m = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        lam = random_unit(rng, n)
        a = rng.standard_normal(n) * 0.3
        d = random_unit(rng, m) * (np.linalg.norm(a) + rng.uniform(0.1, 1.0))
        cd = CaseData(lam=lam, a=a, d=d)
        small = CLambda(n, m, 0, lam=lam)
        big = CGLambda(n, m, 0, cd=cd)
        W = rng.standard_normal((10**4, n + m))
        assert np.all(small.margin(W) >= big.margin(W) - 1e-10)


def test_containment_cphilambda_in_crphilambda():
    rng = np.random.default_rng(8)
    for _ in range(10):
        cd = random_casedata(rng, 2, 2)
        small = CPhiLambda(2, 2, 0, cd=cd)
        big = CRPhiLambda(2, 2, 0, cd=cd)
        W = rng.standard_normal((10**4, 4))
        assert np.all(small.margin(W) >= big.margin(W) - 1e-10)


# --- boundary_steps --------------------------------------------------------------


def test_boundary_step_clambda_finite():
    fs = CLambda(1, 1, 0, lam=np.array([1.0]))
    steps, residuals = boundary_steps(fs, np.array([3.0, 0.0]), np.array([[0.0, 1.0]]))
    assert steps[0] == pytest.approx(3.0, abs=1e-8)
    assert abs(residuals[0]) <= 1e-9


def test_boundary_step_recession_direction():
    fs = CLambda(1, 1, 0, lam=np.array([1.0]))
    steps, _ = boundary_steps(fs, np.array([3.0, 0.0]), np.array([[1.0, 0.0]]))
    assert steps[0] == math.inf


def test_boundary_step_requires_interior_apex():
    fs = CLambda(1, 1, 0, lam=np.array([1.0]))
    with pytest.raises(ApexNotInteriorError):
        boundary_steps(fs, np.array([1.0, 1.0]), np.array([[0.0, 1.0]]))


@pytest.mark.parametrize(
    "apex, ray",
    [((3.0, 0.0), (np.nan, 1.0)), ((3.0, 0.0), (0.0, np.inf)), ((3.0, 0.0), (0.0, 0.0)),
     ((np.inf, 0.0), (0.0, 1.0)), ((3.0, np.nan), (0.0, 1.0))],
)
def test_boundary_steps_rejects_a_bad_ray_or_apex(apex, ray):
    # a NaN entry once read "every ray must be nonzero", and (0, inf) died
    # on a RuntimeWarning; each is one ValueError, with no warning
    fs = CLambda(1, 1, 0, lam=np.array([1.0]))
    with pytest.raises(ValueError, match="finite, and every ray nonzero"):
        boundary_steps(fs, np.array(apex), np.array([[0.0, 1.0], ray]))


def test_boundary_step_ray_scaling():
    fs = CLambda(1, 1, 0, lam=np.array([1.0]))
    apex = np.array([3.0, 0.5])
    ray = np.array([0.1, 1.0])
    t1, t2 = boundary_steps(fs, apex, np.array([ray, 4.0 * ray]))[0]
    assert t2 == pytest.approx(t1 / 4.0, rel=1e-9)


def test_boundary_steps_mixed_cone():
    # From (3, 0) inside |y| ≤ x: rays with a positive x part recede, the
    # others meet |y| = x at a closed-form step; (−1, 2) lands on it
    # exactly at t = 1, the first doubling point.
    fs = CLambda(1, 1, 0, lam=np.array([1.0]))
    rays = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 2.0], [2.0, 1.0], [0.0, -0.5], [1.0, -1.0]])
    steps, residuals = boundary_steps(fs, np.array([3.0, 0.0]), rays)
    assert np.allclose(steps, [3.0, math.inf, 1.0, math.inf, 6.0, math.inf], rtol=1e-9)
    assert np.all(residuals <= 0.0) and np.all(residuals >= -1e-9)
    assert np.all(residuals[np.isinf(steps)] == 0.0)


def test_boundary_steps_root_near_the_cap():
    # Halfspace 1e-11·x ≤ 8 or ≤ 20 from the origin along (1, 0): the
    # roots 8e11 and 2e12 are far out, and each is the ray's step.
    rays = np.array([[1e-11, 0.0]])
    near = Halfspace(1, 1, 0, coef=np.array([1.0, 0.0]), rhs=8.0)
    steps, residuals = boundary_steps(near, np.zeros(2), rays)
    assert math.isfinite(steps[0]) and steps[0] == pytest.approx(8e11, rel=1e-9)
    assert near.margin(steps[0] * rays[0]) <= 0.0 and residuals[0] <= 0.0
    far = Halfspace(1, 1, 0, coef=np.array([1.0, 0.0]), rhs=20.0)
    steps, residuals = boundary_steps(far, np.zeros(2), rays)
    assert math.isfinite(steps[0]) and steps[0] == pytest.approx(2e12, rel=1e-9)
    assert -1e-9 <= residuals[0] <= 0.0 and far.margin(steps[0] * rays[0]) == residuals[0]


@pytest.mark.parametrize("eps", [1e-10, 1e-13, 1e-14])
def test_a_far_exit_gets_a_finite_step(eps):
    # ‖y‖ ≤ x from (1, 0) along (1, 1 + ε): the margin is ε't − 1, with ε'
    # the rounded ε, so the ray leaves at t = 1/ε' however far out that is.
    # There the point's coordinates round by about 2⁻⁵²·t, and the margin,
    # of slope ε', with them: the step may move by 2⁻⁵²/ε' relative, and
    # the bound allows 8 times that.
    fs = CLambda(1, 1, 0, lam=np.array([1.0]))
    apex, rays = np.array([1.0, 0.0]), np.array([[1.0, 1.0 + eps]])
    exit_at = 1.0 / (rays[0, 1] - 1.0)
    assert fs.recession().margin(rays[0]) > 0.0
    try:
        steps, residuals = boundary_steps(fs, apex, rays)
    except UncertifiedStepError:
        return
    assert steps[0] == pytest.approx(exit_at, rel=8.0 * np.finfo(float).eps * exit_at)
    assert -1e-9 <= residuals[0] <= 0.0


def _subset_steps_match_the_batch(data, p_min, p_max):
    p = data.draw(st.integers(p_min, p_max), label="p")
    n = data.draw(st.integers(1, p), label="n")
    m = data.draw(st.integers(1, p + 1 - n), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    qc = random_instance(rng, n, m, p + 1 - n - m)
    cf = spectral.canonicalize(qc)
    fs = build_free_set(cf)
    apex, rays = cf.map_point(qc.point), cf.map_direction(random_orthogonal(rng, p))
    steps, residuals = boundary_steps(fs, apex, rays)
    subset = data.draw(
        st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True),
        label="subset",
    )
    sub_steps, sub_residuals = boundary_steps(fs, apex, rays[subset])
    assert np.array_equal(sub_steps, steps[subset])
    assert np.array_equal(sub_residuals, residuals[subset])
    for step, residual, ray in zip(steps, residuals, rays):
        if math.isfinite(step):  # the residual is the margin at the step
            assert fs.margin(apex + step * ray) == residual <= 0.0


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_boundary_steps_of_any_subset_match_the_batch(data):
    _subset_steps_match_the_batch(data, 4, 16)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.data())
def test_boundary_steps_of_any_subset_match_the_batch_on_long_rows(data):
    # rows of 32 or more are where a BLAS dot may switch to a vector kernel
    _subset_steps_match_the_batch(data, 32, 80)


def _bracket(fs, apex, rays, m0, lo, v_lo, hi, v_hi, tol):
    """Shrink each bracket lo < t* < hi (margin v_lo ≤ 0 at lo, v_hi > 0 at
    hi) until the margin at lo is in [−tol, 0] or the bracket has closed to
    1e-12 relative; returns (lo, margin at lo).

    Each round takes three points per bracket: the chord root, interior by
    convexity; the root of the line through the last two interior points
    (the apex, with margin m0, and lo at the start), exterior if its slope
    is positive; and the midpoint (geometric when hi > 4·lo > 0), which
    bounds the rounds as bisection does.  Each point is classified by its
    own margin, so lo is interior even where rounding breaks convexity.
    """
    prev = np.where(lo > 0.0, 0.0, np.nan)
    v_prev = np.full_like(lo, m0)

    def still_open(idx):
        wide = hi[idx] - lo[idx] > 1e-12 * np.maximum(hi[idx], 1.0)
        return idx[wide & ~(v_lo[idx] >= -tol)]

    active = still_open(np.arange(lo.size))
    while active.size:
        a, lo_a, hi_a = active, lo[active], hi[active]
        chord = lo_a + (hi_a - lo_a) * (v_lo[a] / (v_lo[a] - v_hi[a]))
        slope = (v_lo[a] - v_prev[a]) / (lo_a - prev[a])
        line = lo_a - np.divide(v_lo[a], slope, out=np.full(a.size, np.nan), where=slope > 0.0)
        geometric = (hi_a > 4.0 * lo_a) & (lo_a > 0.0)
        mid = np.where(geometric, np.sqrt(lo_a * hi_a), 0.5 * (lo_a + hi_a))
        T = np.sort(np.column_stack([chord, line, mid]), axis=1)
        ok = (T > lo_a[:, None]) & (T < hi_a[:, None])
        V = np.full(T.shape, np.nan)
        V[ok] = fs.margin(apex + T[ok][:, None] * rays[a[np.nonzero(ok)[0]]])
        # ascending, so lo and prev end as the top two interior points below hi
        for t, v in zip(T.T, V.T):
            new = (lo[a] < t) & (t < hi[a])
            out, inn = new & (v > 0.0), new & ~(v > 0.0)
            hi[a[out]], v_hi[a[out]] = t[out], v[out]
            prev[a[inn]], v_prev[a[inn]] = lo[a[inn]], v_lo[a[inn]]
            lo[a[inn]], v_lo[a[inn]] = t[inn], v[inn]
        active = still_open(a)
    return lo, v_lo


def _bracketing_only(fs, apex, rays, tol):
    """The steps by bracketing alone: the oracle for the closed-form steps.
    A ray whose recession margin is ≤ 0 recedes; any other is bracketed in
    [0, hi], hi doubled from 1/max|r| until the margin there is > 0."""
    m0 = fs.margin(apex)
    steps, residuals = np.full(len(rays), np.inf), np.zeros(len(rays))
    f = fs.recession().margin(rays) > 0.0
    hi = 1.0 / np.abs(rays[f]).max(axis=1)
    v_hi = fs.margin(apex + hi[:, None] * rays[f])
    while not (v_hi > 0.0).all():
        j = ~(v_hi > 0.0)
        hi[j] *= 2.0
        v_hi[j] = fs.margin(apex + hi[j, None] * rays[f][j])
    steps[f], residuals[f] = _bracket(
        fs, apex, rays[f], m0, np.zeros(f.sum()), np.full(f.sum(), m0), hi, v_hi, tol,
    )
    return steps, residuals


def _families(cf, apex):
    """The pipeline's free set for cf and, on case-2 data, every family
    that can be built on it (CGLambda forced, so m = 1 takes its linear
    branch); only those with the apex inside."""
    sets = [build_free_set(cf)]
    if cf.case in (spectral.CASE_CASE2_CR, spectral.CASE_CASE2_CR_LAMBDA_NEG_A):
        cd = CaseData(cf.lam, cf.a, cf.d, unit_a=True)
        sets += [CPhiLambda(cf.n, cf.m, cf.l, cd=cd), CGLambda(cf.n, cf.m, cf.l, cd=cd, forced=True)]
        if cd.d_norm < 1.0:
            sets.append(CRPhiLambda(cf.n, cf.m, cf.l, cd=cd))
    return [fs for fs in sets if fs.margin(apex) < -1e-9]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_closed_form_steps_match_bracketing(data):
    p = data.draw(st.integers(1, 8), label="p")
    n = data.draw(st.integers(1, p), label="n")
    m = data.draw(st.integers(1, p + 1 - n), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    qc = random_instance(rng, n, m, p + 1 - n - m)
    cf = spectral.canonicalize(qc)
    if cf.case == spectral.CASE_EMPTY_S:
        return
    # 10⁻¹¹ and 10⁻¹² put steps near 1e12, on either side of it
    scale = data.draw(st.lists(st.sampled_from([1.0, 1e-3, 1e-11, 1e-12]), min_size=p, max_size=p))
    apex = cf.map_point(qc.point)
    rays = cf.map_direction(random_orthogonal(rng, p) * np.array(scale)[:, None])
    for fs in _families(cf, apex):
        steps, residuals = boundary_steps(fs, apex, rays)
        # At tol = 1e-9 bracketing may stop anywhere in the band f ≥ −1e-9
        # below t*, which can exceed 1e-9 relative of t* when f' is small;
        # 1e-12 pins t* itself.
        ref, _ = _bracketing_only(fs, apex, rays, tol=1e-12)
        assert np.array_equal(np.isinf(steps), np.isinf(ref)), type(fs).__name__
        finite = np.isfinite(steps)
        assert np.all(np.abs(steps[finite] - ref[finite]) <= 1e-9 * ref[finite]), type(fs).__name__
        assert np.all((residuals >= -1e-9) & (residuals <= 0.0))
        for step, residual, ray in zip(steps[finite], residuals[finite], rays[finite]):
            assert fs.margin(apex + step * ray) == residual


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_recession_margin_is_the_slope_far_out(data):
    p = data.draw(st.integers(1, 8), label="p")
    n = data.draw(st.integers(1, p), label="n")
    m = data.draw(st.integers(1, p + 1 - n), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    qc = random_instance(rng, n, m, p + 1 - n - m)
    cf = spectral.canonicalize(qc)
    if cf.case == spectral.CASE_EMPTY_S:
        return
    apex = cf.map_point(qc.point)
    rays = cf.map_direction(random_orthogonal(rng, p))
    # The margin is Lipschitz, so its slope out to T along a unit ray is
    # within (|f(apex)| + L‖apex‖ + c)/T of the recession margin.  Over
    # 400 seeded instances of every family, |slope − recession| reached
    # 2.33·(1 + ‖apex‖)/T at T = 1e6, 1e8 and 1e10 alike; the bound is 4.
    far = 1e8
    tol = 4.0 * (1.0 + np.linalg.norm(apex)) / far
    for fs in _families(cf, apex):
        name = type(fs).__name__
        rec = fs.recession().margin(rays)
        slope = (fs.margin(apex + far * rays) - fs.margin(apex)) / far
        assert np.all(np.abs(rec - slope) <= tol), name
        t, _ = freesets._roots(fs, apex, rays)
        assert np.array_equal(rec <= 0.0, np.isnan(t)), name


def _count_calls(monkeypatch):
    """Count the margin calls of every family."""
    counts = {"margin": 0}
    margin = FreeSetDescriptor.margin

    def counted_margin(self, w):
        counts["margin"] += 1
        return margin(self, w)

    monkeypatch.setattr(FreeSetDescriptor, "margin", counted_margin)
    return counts


def _candidates(fs, apex, rays, tol=1e-9):
    """Every candidate step of every ray as one row per ray: its root t*,
    t* moved toward the apex by the relative amounts of both calls, and
    the point its slope places."""
    t, below = freesets._roots(fs, apex, rays)
    towards = np.concatenate((freesets._TOWARD_APEX, freesets._SECOND))
    return np.column_stack((t[:, None] * towards, below(np.arange(len(rays)), tol)))


def _budget_cases():
    """(free set, apex, rays) in every family and every branch of the
    spherical-cap support (λᵀa across [−1, 1] against ‖d‖, and m = 1),
    with the apex at margin −3 or below."""
    rng = np.random.default_rng(41)
    cases = []
    for n, m in [(1, 1), (2, 1), (2, 2), (3, 3), (1, 4)]:
        for _ in range(4):
            cd, cd1 = random_casedata(rng, n, m), _case1_casedata(rng, n, m)
            k = n + m + 1
            for fs in [
                CLambda(n, m, 1, lam=cd.lam),
                CPhiLambda(n, m, 1, cd=cd),
                CRPhiLambda(n, m, 1, cd=cd),
                CGLambda(n, m, 1, cd=cd1, forced=m == 1),
                Halfspace(n, m, 1, coef=np.concatenate([-cd.lam, rng.standard_normal(m + 1)]), rhs=0.0),
            ]:
                # the margin falls by s along (λ, 0, 0) in every family
                lam = np.concatenate([getattr(fs, "cd", cd).lam, np.zeros(m + 1)])
                apex = np.concatenate([np.zeros(n), rng.standard_normal(m + 1)])
                apex += max(fs.margin(apex) + 3.0, 3.0) * lam
                cases.append((fs, apex, rng.standard_normal((k, k))))
    return cases


def test_certified_cuts_take_one_margin_call(monkeypatch):
    callers = []
    margin = FreeSetDescriptor.margin

    def counted_margin(self, w):
        callers.append(self)
        return margin(self, w)

    monkeypatch.setattr(FreeSetDescriptor, "margin", counted_margin)
    families, receding = set(), set()
    for fs, apex, rays in _budget_cases():
        callers.clear()
        steps, _ = boundary_steps(fs, apex, rays)
        name = type(fs).__name__
        # the apex, the candidates and, where fs is its own recession set,
        # the rays with no root
        assert sum(c is fs for c in callers) == 1, name
        # any other recession set takes one call, and only for such rays
        others = [c for c in callers if c is not fs]
        shared = fs.recession() is fs or not np.isinf(steps).any()
        assert len(others) == (0 if shared else 1), name
        assert all(type(c) is type(fs.recession()) for c in others), name
        if np.isfinite(steps).any():
            families.add(name)
        if others:
            receding.add(name)
    assert families == {"CLambda", "CGLambda", "CPhiLambda", "CRPhiLambda", "Halfspace"}
    assert receding == {"CRPhiLambda", "Halfspace"}


def test_rounding_past_the_boundary_is_certified_by_the_slope(monkeypatch):
    # Apex 1e-7 relative inside ‖y‖ ≤ x and a ray almost along the cone's
    # surface: the closed-form root t* = 0.5999999 and the four points
    # tried toward the apex by relative amounts have margin 4.4e-16 > 0.
    # The slope there is 5e-7, so t* − tol/(2f′) lies 1e-3 below t*, where
    # the margin is about −tol/2.
    fs = CLambda(1, 2, 0, lam=np.array([1.0]))
    apex = np.array([3.0, 3.0 * (1.0 - 1e-7), 0.0])
    rays = np.array([[-5e-7, 0.0, 1e-6]])
    T = _candidates(fs, apex, rays)[0]
    assert T[0] == pytest.approx(0.5999999, rel=1e-7)
    assert np.all(fs.margin(apex + T[:-1, None] * rays[0]) > 0.0)
    counts = _count_calls(monkeypatch)
    steps, residuals = boundary_steps(fs, apex, rays)
    assert counts["margin"] == 2
    assert steps[0] == T[-1] and steps[0] == pytest.approx(0.5989999, rel=1e-7)
    assert residuals[0] == pytest.approx(-5e-10, rel=1e-3)
    assert fs.margin(apex + steps[0] * rays[0]) == residuals[0]


class _NoRoots(CLambda):
    """‖y‖ ≤ λᵀx whose pieces miss every root."""

    def _piece_table(self, W):
        return [], []


class _FarRoots(CLambda):
    """‖y‖ ≤ λᵀx whose pieces are those of ‖y‖ ≤ 2λᵀx, with later roots."""

    def _piece_table(self, W):
        return CLambda(self.n, self.m, self.l, lam=2.0 * self.lam)._piece_table(W)


def test_a_ray_with_no_certified_step_raises(monkeypatch):
    # from (1, 0) the ray (0, 1) leaves ‖y‖ ≤ x at t = 1, and (1, 0) recedes
    apex, rays = np.array([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    counts = _count_calls(monkeypatch)
    for fs in [_NoRoots(1, 1, 0, lam=np.array([1.0])), _FarRoots(1, 1, 0, lam=np.array([1.0]))]:
        counts.update(margin=0)
        with pytest.raises(UncertifiedStepError, match=r"rays \[0\]"):
            boundary_steps(fs, apex, rays)
        assert counts["margin"] <= 2
        steps, residuals = boundary_steps(fs, apex, rays[1:])
        assert steps.tolist() == [math.inf] and residuals.tolist() == [0.0]


def _all_candidates(fs, apex, rays, tol=1e-9):
    """The steps from one margin call over every candidate of every ray:
    the first certified, in the order of ``_candidates``.  The reference
    for the certificate that tries the first three alone first."""
    T = _candidates(fs, apex, rays, tol)
    W = (apex + T[:, :, None] * rays[:, None, :]).reshape(-1, apex.size)
    V = fs.margin(W).reshape(T.shape)
    ok = (V >= -tol) & (V <= 0.0)
    recedes = fs.recession().margin(rays) <= 0.0
    assert np.all(ok.any(axis=1) | recedes)  # every ray gets a step
    r, best = np.arange(len(rays)), ok.argmax(axis=1)
    steps, residuals = T[r, best], V[r, best]
    steps[recedes], residuals[recedes] = np.inf, 0.0
    return steps, residuals


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_first_candidates_certify_as_all_candidates_do(data):
    p = data.draw(st.integers(1, 8), label="p")
    n = data.draw(st.integers(1, p), label="n")
    m = data.draw(st.integers(1, p + 1 - n), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    qc = random_instance(rng, n, m, p + 1 - n - m)
    cf = spectral.canonicalize(qc)
    if cf.case == spectral.CASE_EMPTY_S:
        return
    scale = data.draw(st.lists(st.sampled_from([1.0, 1e-3, 1e-11, 1e-12]), min_size=p, max_size=p))
    apex = cf.map_point(qc.point)
    rays = cf.map_direction(random_orthogonal(rng, p) * np.array(scale)[:, None])
    for fs in _families(cf, apex):
        steps, residuals = boundary_steps(fs, apex, rays)
        ref_steps, ref_residuals = _all_candidates(fs, apex, rays)
        assert steps.tobytes() == ref_steps.tobytes(), type(fs).__name__
        assert residuals.tobytes() == ref_residuals.tobytes(), type(fs).__name__


def test_rays_certified_late_take_a_second_margin_call(monkeypatch):
    # Apexes just inside ‖y‖ ≤ x and rays almost along the cone's surface,
    # where the first three candidates have margin 4.4e-16 > 0 by rounding:
    # one ray is certified 2⁻³⁸ toward the apex and one 2⁻³², each found by
    # a search over such rays.  A third ray is certified at its root.
    fs = CLambda(1, 2, 0, lam=np.array([1.0]))
    cases = [
        (5.01731372068164e-06, [-1.2313579663636926e-06, 7.798711114410413e-08, 4.413139492972284e-06], 3),
        (4.856772790399065e-07, [-5.011242852588721e-06, 8.514291544288374e-08, 3.136873509025925e-06], 4),
        (0.5, [-1.0, 0.0, 1.0], 0),
    ]
    for delta, ray, index in cases:
        apex, rays = np.array([3.0, 3.0 * (1.0 - delta), 0.0]), np.array([ray])
        T = _candidates(fs, apex, rays)[0]
        V = fs.margin(apex + T[:, None] * rays[0])
        assert np.argmax((V >= -1e-9) & (V <= 0.0)) == index and np.all(V[:index] > 0.0)
        counts = _count_calls(monkeypatch)
        steps, residuals = boundary_steps(fs, apex, rays)
        assert counts == {"margin": 1 if index < 3 else 2}
        assert steps[0] == T[index] and residuals[0] == V[index]
        monkeypatch.undo()


def test_boundary_step_wedge_matches_closed_form(cd_wedge):
    # On each branch the margin is linear in t up to a square root of a
    # quadratic, so the step can be verified by evaluating the margin
    # at the returned step.
    cf = wedge_canonical()
    fs = build_free_set(cf)
    apex = cf.mapped_point
    rng = np.random.default_rng(9)
    rays = rng.standard_normal((50, 3))
    for ray, step in zip(rays, boundary_steps(fs, apex, rays)[0]):
        if math.isfinite(step):
            assert abs(fs.margin(apex + step * ray)) <= 1e-8
            # just inside / just outside consistency
            assert fs.margin(apex + (step * (1 - 1e-6)) * ray) <= 1e-8
        else:
            assert fs.recession().margin(ray) <= 0.0


def test_boundary_steps_come_from_interior_side():
    rng = np.random.default_rng(13)
    finite = 0
    for n, m, l in [(1, 1, 0), (2, 1, 0), (1, 2, 0), (2, 2, 0), (3, 2, 0), (2, 3, 1), (3, 3, 0)]:
        for _ in range(6):
            qc = random_instance(rng, n, m, l)
            R = np.eye(qc.dim)
            try:
                cert = cuts.separate(qc, cuts.SimplicialCone(apex=qc.point, R=R))
            except AllRaysRecessionError:
                continue
            cf, fs = cert.canonical_form, cert.free_set
            apex_w = cf.map_point(qc.point)
            for j, (step, residual) in enumerate(zip(cert.steps, cert.residuals)):
                if math.isfinite(step):
                    ray_w = cf.map_direction(R[:, j])
                    assert fs.margin(apex_w + step * ray_w) <= 0.0
                    assert residual <= 0.0
                    finite += 1
    assert finite >= 50


def _rows_cases():
    rng = np.random.default_rng(14)
    cd = random_casedata(rng, 3, 2)
    cd1 = _case1_casedata(rng, 2, 3)
    qc = random_instance(rng, 2, 2, 1)
    cf = spectral.canonicalize(qc)
    fs = build_free_set(cf)
    W = rng.standard_normal((50, 5)) * 3.0

    def steps(rays):
        # (step, residual) per ray; one ray is passed as a single row
        out = np.column_stack(boundary_steps(fs, cf.mapped_point, np.atleast_2d(rays)))
        return out if np.ndim(rays) == 2 else out[0]

    return {
        "phi_value": (lambda Y: phi_value(cd, Y), W[:, :2]),
        "q": (qc, W[:, :4]),
        "map_point": (cf.map_point, W[:, :4]),
        "map_direction": (cf.map_direction, W[:, :4]),
        "boundary_steps": (steps, W),
        "CLambda": (CLambda(3, 2, 0, lam=cd.lam).margin, W),
        "CGLambda": (CGLambda(2, 3, 0, cd=cd1).margin, W),
        "CPhiLambda": (CPhiLambda(3, 2, 0, cd=cd).margin, W),
        "CRPhiLambda": (CRPhiLambda(3, 2, 0, cd=cd).margin, W),
        "Halfspace": (
            Halfspace(3, 2, 0, coef=rng.standard_normal(5), rhs=0.7).margin,
            W,
        ),
    }


# Each row of a free-set margin (and so each ray's step) is a sum along
# that row alone, so it does not depend on the other rows of the batch.
_EXACT_ROWS = {"phi_value", "boundary_steps", "CLambda", "CGLambda", "CPhiLambda",
               "CRPhiLambda", "Halfspace"}


@pytest.mark.parametrize("name", list(_rows_cases()))
def test_rows_match_points(name):
    f, rows = _rows_cases()[name]
    got = f(rows)
    assert got.shape[0] == rows.shape[0]
    expect = np.array([f(row) for row in rows])
    if name in _EXACT_ROWS:
        assert np.array_equal(got, expect)
    else:
        assert np.allclose(got, expect, rtol=1e-14, atol=1e-14)


# --- the one-pass coefficient table against the per-piece construction ---------
#
# The per-piece construction the table replaced, kept as the reference: each
# piece's coefficients from ‖v0 + t·V1‖² and uᵀ(v0 + t·V1) with the apex v0
# as one row, read into the table piece by piece.


def _ref_dot(u, v0, V1):
    return np.vecdot(V1, u), np.vecdot(v0, u)[0]


def _ref_sq_norm(v0, V1):
    return np.vecdot(V1, V1), 2.0 * np.vecdot(V1, v0), np.vecdot(v0, v0)[0]


def _ref_sub(lin, D, scale):
    return lin[0] - scale * D[0], lin[1] - scale * D[1]


def _ref_phi_pieces(cd, N, D, lin):
    (n2, n1, n0), (d1, d0) = N, D
    lam_sq = max(1.0 - cd.lam_a**2, 0.0)
    curved = (lam_sq * (n2 - d1 * d1), lam_sq * (n1 - 2.0 * d1 * d0), lam_sq * (n0 - d0 * d0))
    return [
        (N + lin, (cd.lam_a, N + D, True)),
        (curved + _ref_sub(lin, D, -cd.lam_a), (cd.lam_a, N + D, False)),
    ]


def _ref_cap_pieces(cd, t0, T1, relaxed, lin):
    c = -cd.lam_a
    if cd.d.shape[0] == 1:
        line = (T1[:, 0], t0[0, 0])
        return [((0.0,) * 3 + _ref_sub(lin, line, s), None) for s in freesets._cap_slopes(cd, relaxed)]
    nd = cd.d_norm
    if (c > nd) if relaxed else (c < -nd):
        return []
    N = _ref_sq_norm(t0, T1)
    if not relaxed and c >= nd:
        return [(N + lin, None)]
    D = _ref_dot(cd.d, t0, T1)
    if relaxed and (c < -nd or nd == 0.0):
        return _ref_phi_pieces(cd, N, D, lin)
    (n2, n1, n0), (e1, e0) = N, (D[0] / nd, D[1] / nd)
    h_sq = max(1.0 - (c / nd) ** 2, 0.0)
    circle = (h_sq * (n2 - e1 * e1), h_sq * (n1 - 2.0 * e1 * e0), h_sq * (n0 - e0 * e0))
    circle = (circle + _ref_sub(lin, D, c / nd**2), (cd.lam_a, N + D, relaxed))
    if relaxed:
        return [circle, _ref_phi_pieces(cd, N, D, lin)[1]]
    return [(N + lin, (cd.lam_a, N + D, True)), circle]


def _ref_pieces(fs, w0, R):
    (x0, y0), (x1, y1) = fs._split(w0), fs._split(R)
    if isinstance(fs, Halfspace):
        l1, l0 = _ref_dot(fs.coef, w0, R)
        return [((0.0,) * 3 + (-l1, fs.rhs - l0), None)]
    if isinstance(fs, CLambda):
        return [(_ref_sq_norm(y0, y1) + _ref_dot(fs.lam, x0, x1), None)]
    cd, lin = fs.cd, _ref_dot(fs.cd.lam, x0, x1)
    if isinstance(fs, CGLambda):
        return _ref_cap_pieces(cd, y0, y1, False, lin)
    if isinstance(fs, CRPhiLambda):
        shift = 1.0 / (1.0 - cd.d_norm**2)
        return _ref_cap_pieces(cd, y0, y1, False, lin) + _ref_cap_pieces(
            cd, y0 - cd.d * shift, y1, True, (lin[0], lin[1] + cd.lam_a * shift)
        )
    return _ref_phi_pieces(cd, _ref_sq_norm(y0, y1), _ref_dot(cd.d, y0, y1), lin)


def _ref_table(k, rows):
    out = np.empty((len(rows[0]), len(rows), k))
    for j, row in enumerate(rows):
        for i, value in enumerate(row):
            out[i, j] = value
    return out


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _cap_casedata(rng, n, m, branch):
    """Unit λ and a with c = −λᵀa placed for the cap branch: the unrelaxed
    cap full and the relaxed one empty (c > ‖d‖), both caps cut by the
    circle (|c| < ‖d‖), or the unrelaxed cap empty and the relaxed one φ's
    (c < −‖d‖, or d = 0)."""
    if m == 1:
        nd, c = rng.uniform(0.1, 0.9), rng.uniform(-0.99, 0.99)
    else:
        nd = 0.0 if branch == "zero_d" else rng.uniform(0.1, 0.9)
        c = {"full": rng.uniform(nd + 0.02, 0.99), "circle": rng.uniform(-0.98, 0.98) * nd,
             "phi": rng.uniform(-0.99, -nd - 0.02), "zero_d": rng.uniform(-0.99, 0.99)}[branch]
    lam = random_unit(rng, n)
    u = rng.standard_normal(n)
    u = (u - (u @ lam) * lam) / np.linalg.norm(u - (u @ lam) * lam)
    return CaseData(lam, -c * lam + math.sqrt(1.0 - c * c) * u, nd * random_unit(rng, m), unit_a=True)


_TABLE_CASES = [("CLambda", None), ("Halfspace", None), ("CPhiLambda", "circle"), ("CPhiLambda", "zero_d")] + [
    (family, branch)
    for family in ("CGLambda", "CRPhiLambda")
    for branch in ("lines", "full", "circle", "phi", "zero_d")
]


# pieces per case: the full cap 1; the circle 2 per cap; the unrelaxed cap
# empty, so CGLambda has none and CRPhiLambda only the relaxed φ's 2
_TABLE_PIECES = {("CGLambda", "full"): 1, ("CGLambda", "circle"): 2, ("CGLambda", "phi"): 0,
                 ("CRPhiLambda", "full"): 1, ("CRPhiLambda", "circle"): 4, ("CRPhiLambda", "phi"): 2}


@pytest.mark.parametrize("family, branch", _TABLE_CASES)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_one_pass_table_matches_the_per_piece_construction(family, branch, data):
    # every coefficient and branch row of the one-pass table has the bits
    # of the per-piece construction, in every family and cap branch: m = 1
    # lines, the full cap, the circle, the relaxed φ branch, the empty cap
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n, m, l, k = 2 + int(rng.integers(3)), 1 if branch == "lines" else 2 + int(rng.integers(3)), 1, 1 + int(rng.integers(6))
    cd = _cap_casedata(rng, n, m, branch or "circle")
    fs = {
        "CLambda": lambda: CLambda(n, m, l, lam=cd.lam),
        "Halfspace": lambda: Halfspace(n, m, l, coef=rng.standard_normal(n + m + l), rhs=float(rng.standard_normal())),
        "CPhiLambda": lambda: CPhiLambda(n, m, l, cd=cd),
        "CGLambda": lambda: CGLambda(n, m, l, cd=cd, forced=True),
        "CRPhiLambda": lambda: CRPhiLambda(n, m, l, cd=cd),
    }[family]()
    size = 10.0 ** rng.uniform(-3.0, 3.0, (k + 1, 1))
    apex, rays = (rng.standard_normal((k + 1, n + m + l)) * size)[0], (rng.standard_normal((k + 1, n + m + l)) * size)[1:]

    W = np.empty((2 * k, apex.size))
    W[:k], W[k:] = rays, apex
    pieces, branches = fs._piece_table(W)
    ref = _ref_pieces(fs, apex[None, :], rays)
    assert len(pieces) == len(ref) == _TABLE_PIECES.get((family, branch), len(ref))
    if not ref:
        return
    coefs, ref_branches = zip(*ref)
    table = np.array([(sq[:k], q1[:k], sq[k:], lin[:k], lin[k:]) for sq, q1, lin in pieces])
    assert np.array_equal(_bits(table.transpose(1, 0, 2)), _bits(_ref_table(k, coefs)))
    in_force = [None] * len(pieces)
    for j, lam_a, (nn, n1, dy) in branches:
        rows = np.array((nn[:k], n1[:k], nn[k:], dy[:k], dy[k:]))
        in_force[j], in_force[j + 1] = (lam_a, rows, True), (lam_a, rows, False)
    for got, want in zip(in_force, ref_branches):
        assert (got is None) == (want is None)
        if want is not None:
            assert got[0] == want[0] and got[2] == want[2]
            assert np.array_equal(_bits(got[1]), _bits(_ref_table(k, [want[1]])[:, 0]))
