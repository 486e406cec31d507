import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance, random_orthogonal, wedge_canonical, wedge_constraint
from quadfree import freesets, oracle, spectral
from quadfree.corefns import CaseData
from quadfree.cuts import CutCertificate, SimplicialCone, intersection_cut, separate
from quadfree.errors import AllRaysRecessionError, EmptySError
from quadfree.freesets import (
    CLambda,
    CPhiLambda,
    FreeSetDescriptor,
    build_free_set,
)

S2 = math.sqrt(2.0)


@dataclass(frozen=True)
class _BoxSet(FreeSetDescriptor):
    """Unit box on the first two coordinates; free coordinates ignored."""

    def margin(self, w):
        w = np.asarray(w, dtype=float)
        return np.max(np.abs(w[..., :2]), axis=-1) - 1.0


def _identity_cf(p):
    k = p + 1
    return spectral.CanonicalForm(
        n=k,
        m=0,
        l=0,
        M=np.eye(k),
        a=np.zeros(k),
        d=np.zeros(0),
        h=np.zeros(0),
        mapped_point=np.zeros(k),
        lam=np.eye(k)[0],
        case=spectral.CASE_EMPTY_S,
    )


def test_simplicial_cone_rejects_degenerate_rays():
    with pytest.raises(ValueError):
        SimplicialCone(apex=np.zeros(2), R=np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_unit_steps_give_unit_sum_cut():
    cf = _identity_cf(2)
    fs = _BoxSet(3, 0, 0)
    cone = SimplicialCone(apex=np.zeros(2), R=np.eye(2))
    cert = intersection_cut(cone, cf, fs)
    assert np.allclose(cert.steps, 1.0, rtol=0.0, atol=1e-8)
    # Σ s_j ≥ 1 under the ≤ convention: coef = −1, rhs = −1
    assert np.allclose(cert.coef, [-1.0, -1.0], atol=1e-8)
    assert cert.rhs == pytest.approx(-1.0, abs=1e-8)
    assert cert.apex_violation == pytest.approx(1.0, abs=1e-9)


def test_infinite_step_zeroes_coefficient():
    cf = _identity_cf(2)
    fs = _BoxSet(3, 0, 0)

    # rotate one ray into the third (ignored) coordinate: such a ray
    # never reaches the box boundary, so its weight is zero
    cone = SimplicialCone(apex=np.zeros(2), R=np.array([[1.0, 0.0], [0.0, 1.0]]))
    cert = intersection_cut(cone, cf, fs)

    @dataclass(frozen=True)
    class _Slab(FreeSetDescriptor):
        def margin(self, w):
            w = np.asarray(w, dtype=float)
            return np.abs(w[..., 0]) - 1.0

    slab = _Slab(3, 0, 0)
    cert = intersection_cut(cone, cf, slab)
    assert cert.steps[0] == pytest.approx(1.0, abs=1e-8)
    assert cert.steps[1] == math.inf
    assert cert.coef[1] == pytest.approx(0.0, abs=1e-12)


def test_all_rays_recession_raises():
    cf = _identity_cf(2)

    @dataclass(frozen=True)
    class _Everything(FreeSetDescriptor):
        def margin(self, w):
            w = np.asarray(w, dtype=float)
            return np.full(w.shape[:-1], -1.0)

    with pytest.raises(AllRaysRecessionError):
        intersection_cut(
            SimplicialCone(apex=np.zeros(2), R=np.eye(2)), cf, _Everything(3, 0, 0)
        )


def test_homogeneous_two_variable_instance():
    # S = {s₁² ≤ s₂²}, apex (3, 0), rays (−1, 1) and (−1, −1)
    qc = spectral.QuadraticConstraint(
        Q=np.diag([1.0, -1.0]), b=np.zeros(2), c=0.0, point=np.array([3.0, 0.0])
    )
    cone = SimplicialCone(apex=np.array([3.0, 0.0]), R=np.array([[-1.0, -1.0], [1.0, -1.0]]))
    cert = separate(qc, cone)
    assert isinstance(cert.free_set, CLambda)
    assert float(cert.coef @ qc.point) - cert.rhs >= 1e-9
    rep = oracle.check_cut_validity(qc, cert, count=10**4, seed=0)
    assert rep.passed, rep.worst_residual


def test_separate_at_p80():
    # p = 80: the lifted matrix is 81 × 81
    rng = np.random.default_rng(0)
    qc = random_instance(rng, 40, 30, 11)
    R = np.eye(qc.dim)
    cert = separate(qc, SimplicialCone(apex=qc.point, R=R))
    assert cert.apex_violation > 0.0
    # each finite step ends on the free-set boundary, where q ≥ 0
    for step, ray in zip(cert.steps, R.T):
        if math.isfinite(step):
            assert qc(qc.point + step * ray) >= 0.0


def _lambda_neg_a_instances(rng, count):
    """The wedge with its point where λ = −a, then random case-2 quadratics
    with (s̄, 1) ∝ Q̃₊⁺e_last, whose canonical image has λ = −a."""
    wedge = wedge_constraint()
    found = [spectral.QuadraticConstraint(
        Q=wedge.Q, b=wedge.b, c=wedge.c, point=np.array([1.6 * S2, -1.6 * S2])
    )]
    while len(found) < count:
        qc = random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 0)
        eig, V = np.linalg.eigh(spectral.lift(qc.Q, qc.b, qc.c))
        pos = eig > 0.0
        w = V[:, pos] @ (V[-1, pos] / eig[pos])
        qc = spectral.QuadraticConstraint(Q=qc.Q, b=qc.b, c=qc.c, point=w[:-1] / w[-1])
        if spectral.canonicalize(qc).case == spectral.CASE_CASE2_CR_LAMBDA_NEG_A:
            found.append(qc)
    return found


def test_lambda_neg_a_cuts_with_the_norm_cone():
    # λ = −a makes φ(y) = ‖y‖, so C_λ is C_φ(λ): the same margins bit for
    # bit, hence the same steps, residuals and cut.
    rng = np.random.default_rng(31)
    for qc in _lambda_neg_a_instances(rng, 12):
        cf = spectral.canonicalize(qc)
        fs = build_free_set(cf)
        assert isinstance(fs, CLambda)
        phi_set = CPhiLambda(cf.n, cf.m, cf.l, cd=CaseData(cf.lam, cf.a, cf.d, unit_a=True))
        W = 3.0 * rng.standard_normal((200, cf.n + cf.m + cf.l))
        assert np.array_equal(fs.margin(W), phi_set.margin(W))
        cone = SimplicialCone(apex=qc.point, R=random_orthogonal(rng, qc.dim))
        cert, ref = separate(qc, cone), intersection_cut(cone, cf, phi_set)
        for field in ("steps", "residuals", "coef", "rhs"):
            assert np.array_equal(getattr(cert, field), getattr(ref, field)), field


def test_wedge_end_to_end_cut():
    qc = wedge_constraint()
    cone = SimplicialCone(apex=qc.point, R=np.eye(2))
    cert = separate(qc, cone)
    assert cert.canonical_form.case == spectral.CASE_CASE2_CR
    assert cert.apex_violation == pytest.approx(1.0, abs=1e-9)
    assert float(cert.coef @ qc.point) - cert.rhs >= 1e-9
    rep = oracle.check_cut_validity(qc, cert, count=10**4, seed=1)
    assert rep.passed, rep.worst_residual


def test_convex_instance_matches_gradient_cut():
    # S = unit disk, apex (3, 0): the supporting-hyperplane cut is s₁ ≤ 1
    qc = spectral.QuadraticConstraint(
        Q=np.eye(2), b=np.zeros(2), c=-1.0, point=np.array([3.0, 0.0])
    )
    cone = SimplicialCone(
        apex=np.array([3.0, 0.0]), R=np.array([[-1.0, -1.0], [0.0, 1.0]])
    )
    cert = separate(qc, cone)
    scale = cert.coef[0]
    assert scale > 0.0
    assert cert.coef[1] / scale == pytest.approx(0.0, abs=1e-8)
    assert cert.rhs / scale == pytest.approx(1.0, abs=1e-8)


def test_empty_s_signalled():
    qc = spectral.QuadraticConstraint(
        Q=np.eye(2), b=np.zeros(2), c=1.0, point=np.array([3.0, 0.0])
    )
    with pytest.raises(EmptySError):
        separate(qc, SimplicialCone(apex=qc.point, R=np.eye(2)))


def test_scale_equivariance_of_cut():
    qc = wedge_constraint()
    base = separate(qc, SimplicialCone(apex=qc.point, R=np.eye(2)))
    mu = 3.0
    scaled = separate(qc, SimplicialCone(apex=qc.point, R=mu * np.eye(2)))
    for st_b, st_s in zip(base.steps, scaled.steps):
        assert st_s == pytest.approx(st_b / mu, rel=1e-8)
    # the s-space cut is the same inequality
    assert np.allclose(scaled.coef, base.coef, atol=1e-10)
    assert scaled.rhs == pytest.approx(base.rhs, abs=1e-10)


def _draw_cut(data):
    """A random instance, an orthogonal cone at its point and the cut, or
    None when there is no cut."""
    p = data.draw(st.integers(1, 8), label="p")
    n = data.draw(st.integers(1, p), label="n")
    m = data.draw(st.integers(1, p + 1 - n), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    qc = random_instance(rng, n, m, p + 1 - n - m)
    R = random_orthogonal(rng, p)
    try:
        return qc, R, separate(qc, SimplicialCone(apex=qc.point, R=R))
    except (EmptySError, AllRaysRecessionError):
        return None


def _normalised(cert):
    cut = np.append(cert.coef, cert.rhs)
    return cut / np.linalg.norm(cut)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_permuting_rays_permutes_the_steps(data):
    drawn = _draw_cut(data)
    if drawn is None:
        return
    qc, R, base = drawn
    perm = data.draw(st.permutations(range(R.shape[1])), label="perm")
    cert = separate(qc, SimplicialCone(apex=qc.point, R=R[:, perm]))
    assert cert.steps.tobytes() == base.steps[perm].tobytes()
    assert cert.residuals.tobytes() == base.residuals[perm].tobytes()
    assert np.max(np.abs(_normalised(cert) - _normalised(base))) <= 1e-12


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_scaling_a_ray_by_a_power_of_two_divides_its_step(data):
    drawn = _draw_cut(data)
    if drawn is None:
        return
    qc, R, base = drawn
    k = np.array(data.draw(st.lists(st.integers(-8, 8), min_size=R.shape[1], max_size=R.shape[1])))
    cert = separate(qc, SimplicialCone(apex=qc.point, R=R * 2.0**k))
    # Steps from 2⁻⁸·1e12 up may move across the 1e12 recession test.
    near_cap = np.fmin(base.steps, cert.steps * 2.0**k) >= freesets._T_CAP / 2.0**8
    assert np.array_equal(cert.steps[~near_cap], base.steps[~near_cap] / 2.0 ** k[~near_cap])
    assert np.array_equal(cert.residuals[~near_cap], base.residuals[~near_cap])
    assert np.max(np.abs(_normalised(cert) - _normalised(base))) <= 1e-12


def test_step_monotonicity_under_set_enlargement():
    # CLambda ⊆ CPhiLambda on the same canonical data: every step can
    # only grow when the set is enlarged.
    rng = np.random.default_rng(2)
    cf = wedge_canonical()
    cd = CaseData(cf.lam, cf.a, cf.d, unit_a=True)
    small = CLambda(cf.n, cf.m, cf.l, lam=cf.lam)
    big = CPhiLambda(cf.n, cf.m, cf.l, cd=cd)
    apex = cf.mapped_point
    assert small.margin(apex) < 0.0 and big.margin(apex) < 0.0
    cone = SimplicialCone(apex=np.array([-2.0, -2.0]), R=np.eye(2))
    cert_small = intersection_cut(cone, cf, small)
    cert_big = intersection_cut(cone, cf, big)
    assert np.all(cert_big.steps >= cert_small.steps - 1e-8)


def test_certificate_records_context():
    qc = wedge_constraint()
    cone = SimplicialCone(apex=qc.point, R=np.eye(2))
    cert = separate(qc, cone)
    assert isinstance(cert, CutCertificate)
    assert cert.cone is cone
    assert cert.canonical_form.case == spectral.CASE_CASE2_CR
    assert len(cert.steps) == 2
    assert np.allclose(
        cert.weights,
        [1.0 / st if math.isfinite(st) else 0.0 for st in cert.steps],
    )
