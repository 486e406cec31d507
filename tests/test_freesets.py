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
from quadfree.errors import AllRaysRecessionError, ApexNotInteriorError, EmptySError
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
    # root 8e11 lies between 2³⁹ and the 1e12 cap, the root 2e12 beyond it.
    rays = np.array([[1e-11, 0.0]])
    near = Halfspace(1, 1, 0, coef=np.array([1.0, 0.0]), rhs=8.0)
    steps, residuals = boundary_steps(near, np.zeros(2), rays)
    assert math.isfinite(steps[0]) and steps[0] == pytest.approx(8e11, rel=1e-9)
    assert near.margin(steps[0] * rays[0]) <= 0.0 and residuals[0] <= 0.0
    far = Halfspace(1, 1, 0, coef=np.array([1.0, 0.0]), rhs=20.0)
    steps, residuals = boundary_steps(far, np.zeros(2), rays)
    assert steps[0] == math.inf and residuals[0] == 0.0


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_boundary_steps_of_any_subset_match_the_batch(data):
    p = data.draw(st.integers(4, 16), label="p")
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


def _bracketing_only(fs, apex, rays, tol):
    """The steps by bracketing alone, each from [0, 1e12]: the oracle for
    the closed-form steps."""
    m0, v_cap = fs.margin(apex), fs.margin(apex + freesets._T_CAP * rays)
    steps, residuals = np.full(len(rays), np.inf), np.zeros(len(rays))
    f = v_cap > 0.0
    steps[f], residuals[f] = freesets._bracket(
        fs, apex, rays[f], m0, np.zeros(f.sum()), np.full(f.sum(), m0),
        np.full(f.sum(), freesets._T_CAP), v_cap[f], tol,
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
    # 10⁻¹¹ and 10⁻¹² put steps near the 1e12 cap, on either side of it
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


def _count_calls(monkeypatch):
    """Count the margin calls of every family and the rays' entries into
    the bracketing."""
    counts = {"margin": 0, "bracket": 0}
    margin, bracket = FreeSetDescriptor.margin, freesets._bracket

    def counted_margin(self, w):
        counts["margin"] += 1
        return margin(self, w)

    def counted_bracket(*args):
        counts["bracket"] += 1
        return bracket(*args)

    monkeypatch.setattr(FreeSetDescriptor, "margin", counted_margin)
    monkeypatch.setattr(freesets, "_bracket", counted_bracket)
    return counts


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
    counts = _count_calls(monkeypatch)
    families = set()
    for fs, apex, rays in _budget_cases():
        counts.update(margin=0, bracket=0)
        steps, _ = boundary_steps(fs, apex, rays)
        assert counts["bracket"] == 0, type(fs).__name__  # every ray certified
        assert counts["margin"] == 1  # the apex, the candidates and t = 1e12
        if np.isfinite(steps).any():
            families.add(type(fs).__name__)
    assert families == {"CLambda", "CGLambda", "CPhiLambda", "CRPhiLambda", "Halfspace"}


def test_rounding_past_the_boundary_falls_back_to_bracketing(monkeypatch):
    # Apex 1e-7 relative inside ‖y‖ ≤ x and a ray almost along the cone's
    # surface: the closed-form root and every point tried toward the apex
    # have margin 4.4e-16 > 0, so the ray is bracketed from below them.
    fs = CLambda(1, 2, 0, lam=np.array([1.0]))
    apex = np.array([3.0, 3.0 * (1.0 - 1e-7), 0.0])
    rays = np.array([[-5e-7, 0.0, 1e-6]])
    T = freesets._step_candidates(fs, apex, rays)[0]
    assert np.all(fs.margin(apex + T[:, None] * rays[0]) > 0.0)
    counts = _count_calls(monkeypatch)
    steps, residuals = boundary_steps(fs, apex, rays)
    assert counts["bracket"] == 1 and counts["margin"] > 1
    assert steps[0] < T[-1] and steps[0] == pytest.approx(0.6, rel=1e-6)
    assert -1e-9 <= residuals[0] <= 0.0
    assert fs.margin(apex + steps[0] * rays[0]) == residuals[0]


def _all_candidates(fs, apex, rays, tol=1e-9):
    """The steps from one margin call over every candidate of every ray:
    the largest certified candidate, else bracketing from the tightest
    interior and exterior candidates.  The reference for the certificate
    that tries the first candidates alone first."""
    T = freesets._step_candidates(fs, apex, rays)
    V = np.full(T.shape, np.nan)
    has = ~np.isnan(T[:, 0])
    W = (apex + T[has, :, None] * rays[has, None, :]).reshape(-1, apex.size)
    v = fs.margin(np.vstack([apex, W, apex + freesets._T_CAP * rays]))
    m0, v_cap = v[0], v[1 + len(W) :]
    V[has] = v[1 : 1 + len(W)].reshape(-1, T.shape[1])
    r = np.arange(len(rays))
    certified = np.where((V >= -tol) & (V <= 0.0), T, -np.inf)
    best = np.argmax(certified, axis=1)
    steps, residuals = certified[r, best], V[r, best]
    recedes = v_cap <= 0.0
    steps[recedes], residuals[recedes] = np.inf, 0.0
    for j in np.flatnonzero(steps == -np.inf):
        outside, inside = V[j] > 0.0, V[j] <= 0.0
        hi = T[j][outside].min() if outside.any() else freesets._T_CAP
        v_hi = V[j][T[j] == hi][0] if outside.any() else v_cap[j]
        inside &= T[j] < hi
        lo = T[j][inside].max() if inside.any() else 0.0
        v_lo = V[j][T[j] == lo][0] if inside.any() else m0
        (steps[j],), (residuals[j],) = freesets._bracket(
            fs, apex, rays[j : j + 1], m0, np.array([lo]), np.array([v_lo]),
            np.array([hi]), np.array([v_hi]), tol,
        )
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
        T = freesets._step_candidates(fs, apex, rays)[0]
        V = fs.margin(apex + T[:, None] * rays[0])
        assert np.argmax((V >= -1e-9) & (V <= 0.0)) == index and np.all(V[:index] > 0.0)
        counts = _count_calls(monkeypatch)
        steps, residuals = boundary_steps(fs, apex, rays)
        assert counts == {"margin": 1 if index < 3 else 2, "bracket": 0}
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
            far = apex + 1e12 * ray
            assert fs.margin(far) <= 0.0


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
