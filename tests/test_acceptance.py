"""Acceptance gate: end-to-end checks, one test per guarantee.

Each test prints a single PASS line on success so the suite log shows
each guarantee at a glance.
"""

import json
import math

import numpy as np
import pytest

from conftest import random_casedata, random_instance, random_unit
from quadfree import oracle, spectral
from quadfree.cli import emit_json, main
from quadfree.corefns import (
    CaseData,
    phi_gradient,
    phi_value,
    r_coefficient,
    theta_dual,
)
from quadfree.cuts import SimplicialCone, intersection_cut, separate
from quadfree.errors import SamplingExhaustedError
from quadfree.freesets import CGLambda, CLambda, CPhiLambda, build_free_set

S2 = math.sqrt(2.0)


def _wedge_cd():
    return CaseData(
        lam=np.array([-1.0, -1.0]) / S2,
        a=np.array([-1.0, 1.0]) / S2,
        d=np.array([1.0 / S2]),
        unit_a=True,
    )


def _scaled_cd():
    return CaseData(
        lam=np.array([-4.0, -3.0]) / 5.0,
        a=np.array([-3.0, 4.0]),
        d=np.array([5.0]),
    )


def _wedge_qc():
    return spectral.QuadraticConstraint(
        Q=np.array([[0.0, 1.0], [1.0, 0.0]]),
        b=np.array([2.0 * S2, -2.0 * S2]),
        c=-2.0,
        point=np.array([-2.0, -2.0]),
    )


def test_closed_form_reference_values():
    cd = _wedge_cd()
    assert abs(phi_value(cd, np.array([-2.0])) - 2.0) <= 1e-12
    assert abs(phi_value(cd, np.array([2.0])) - S2) <= 1e-12
    assert abs(r_coefficient(cd, np.array([1.0])) - 1.0) <= 1e-12
    assert r_coefficient(cd, np.array([-1.0])) == 0.0
    for data in (cd, _scaled_cd()):  # β ∈ G(λ) iff aᵀλ + dᵀβ ≤ 0
        assert float(data.a @ data.lam + data.d @ np.array([-1.0])) <= 1e-9
        assert float(data.a @ data.lam + data.d @ np.array([1.0])) > 1e-9
    rng = np.random.default_rng(100)
    lam = random_unit(rng, 3)
    a = random_unit(rng, 3)
    while float(a @ lam) >= -0.1:
        a = random_unit(rng, 3)
    cd0 = CaseData(lam=lam, a=a, d=np.zeros(2), unit_a=True)
    for _ in range(1000):
        assert float(cd0.a @ cd0.lam + cd0.d @ random_unit(rng, 2)) <= 1e-9
    print("ACCEPT closed-form reference values: PASS")


def test_duality_and_r_theta_identities():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        cd = random_casedata(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        m = len(cd.d)
        y = rng.standard_normal(m)
        th = theta_dual(cd, y)
        if math.isfinite(th):
            dual = np.linalg.norm(cd.lam - th * cd.a) * np.linalg.norm(y) - th * float(
                cd.d @ y
            )
            assert abs(dual - phi_value(cd, y)) <= 1e-9
        beta = random_unit(rng, m)
        tb = theta_dual(cd, beta)
        if math.isfinite(tb):
            assert abs(r_coefficient(cd, beta) - tb) <= 1e-10
    print("ACCEPT duality and r = θ identities: PASS")


def test_phi_matches_bruteforce_oracle():
    rng = np.random.default_rng(102)
    polars = CaseData(
        lam=np.array([63.0, 16.0]) / 65.0,
        a=np.array([3.0 / 5.0, -4.0 / 5.0]),
        d=np.array([3.0 / 10.0, 2.0 / 5.0]),
        unit_a=True,
    )
    cases = [(polars, np.array([0.0, 1.0]))]
    while len(cases) < 100:
        cd = random_casedata(rng, int(rng.integers(2, 5)), int(rng.integers(1, 5)))
        cases.append((cd, rng.standard_normal(len(cd.d))))
    for cd, y in cases:
        bf = oracle.phi_bruteforce(cd, y, grid=10**6)
        assert abs(bf - phi_value(cd, y)) <= 1e-6 * (1.0 + np.linalg.norm(y))
    print("ACCEPT φ vs brute-force oracle: PASS")


def test_gradient_and_euler_identity():
    rng = np.random.default_rng(103)
    done = 0
    while done < 500:
        cd = random_casedata(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        m = len(cd.d)
        y = rng.standard_normal(m)
        ny = np.linalg.norm(y)
        # differentiable and numerically FD-stable points only
        if ny < 0.3 or abs(cd.lam_a * ny + float(cd.d @ y)) < 1e-3:
            continue
        grad = phi_gradient(cd, y)
        step = 1e-6
        for j in range(m):
            e = np.zeros(m)
            e[j] = step
            fd = (phi_value(cd, y + e) - phi_value(cd, y - e)) / (2 * step)
            assert abs(fd - grad[j]) <= 1e-5
        assert abs(float(grad @ y) - phi_value(cd, y)) <= 1e-10
        done += 1
    print("ACCEPT gradient and Euler identity: PASS")


def test_freeness_of_built_sets_and_counterexamples():
    rng = np.random.default_rng(104)
    done = 0
    while done < 200:
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        l = int(rng.integers(0, 3))
        qc = random_instance(rng, n, m, l)
        cf = spectral.canonicalize(qc)
        fs = build_free_set(cf)
        try:
            samples = oracle.freeness_samples(cf, fs, 10**4, seed=done)
        except SamplingExhaustedError:
            continue
        rep = oracle.check_freeness(fs, samples, seed=done)
        assert rep.passed, (cf.case, rep.worst_residual)
        done += 1

    # counterexample 1: wedge data, locally-described set is not free
    cd3 = _wedge_cd()
    hom = oracle.sample_S_homogeneous(cd3.a, cd3.d, 4000, seed=1)
    extra = oracle.structured_slice_points(cd3.lam, cd3.a, cd3.d)
    rep = oracle.check_freeness(
        CGLambda(2, 1, 0, cd=cd3, forced=True), np.vstack([hom, extra])
    )
    assert not rep.passed and rep.witness is not None

    # counterexample 2: scaled data, with the witness pinned to (3,−4,5)
    cd4 = _scaled_cd()
    hom = oracle.sample_S_homogeneous(cd4.a, cd4.d, 4000, seed=2)
    extra = oracle.structured_slice_points(cd4.lam, cd4.a, cd4.d)
    rep = oracle.check_freeness(
        CGLambda(2, 1, 0, cd=cd4, forced=True), np.vstack([hom, extra])
    )
    assert not rep.passed and rep.witness is not None
    target = np.array([3.0, -4.0, 5.0])
    w = rep.witness
    scaling = float(w @ target) / float(target @ target)
    assert scaling > 0.0 and np.linalg.norm(w - scaling * target) <= 1e-6
    print("ACCEPT freeness incl. counterexamples: PASS")


def test_maximality_certificates():
    rng = np.random.default_rng(105)

    done = 0
    while done < 500:
        cd = random_casedata(rng, int(rng.integers(2, 5)), int(rng.integers(1, 5)))
        beta = random_unit(rng, len(cd.d))
        if float(cd.a @ cd.lam + cd.d @ beta) >= -1e-3:
            continue
        _, rep = oracle.exposing_witness(cd, beta)
        assert rep.passed, rep.extra
        done += 1

    done = 0
    while done < 100:
        cd = random_casedata(rng, int(rng.integers(2, 5)), int(rng.integers(1, 5)),
                             d_scale=0.9)
        if abs(cd.lam_a) > 0.9:
            continue
        beta = random_unit(rng, len(cd.d))
        if cd.lam_a + float(cd.d @ beta) < 0.0:
            continue
        r = r_coefficient(cd, beta)
        for N in (100, 1000, 10000):
            _, viol, rep = oracle.asymptote_sequence(cd, beta, N)
            assert rep.passed
            assert abs(float(viol[-1]) - r) <= 10.0 / N
        done += 1
    print("ACCEPT exposing witnesses and asymptote sequences: PASS")


def test_containment_and_step_monotonicity():
    rng = np.random.default_rng(106)

    # margin dominance C_λ ⊆ C_{φλ}
    for _ in range(10):
        cd = random_casedata(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        n, m = len(cd.lam), len(cd.d)
        small = CLambda(n, m, 0, lam=cd.lam)
        big = CPhiLambda(n, m, 0, cd=cd)
        W = rng.standard_normal((10**4, n + m))
        assert np.all(small.margin(W) >= big.margin(W) - 1e-10)

    # margin dominance C_λ ⊆ C_{G(λ)} (‖a‖ ≤ ‖d‖, m > 1)
    for _ in range(10):
        n, m = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        lam = random_unit(rng, n)
        a = rng.standard_normal(n) * 0.4
        d = random_unit(rng, m) * (np.linalg.norm(a) + rng.uniform(0.05, 0.5))
        cd = CaseData(lam=lam, a=a, d=d)
        small = CLambda(n, m, 0, lam=lam)
        big = CGLambda(n, m, 0, cd=cd)
        W = rng.standard_normal((10**4, n + m))
        assert np.all(small.margin(W) >= big.margin(W) - 1e-10)

    # intersection-cut steps never shrink when the free set is enlarged
    done = 0
    while done < 50:
        qc = random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 0)
        cf = spectral.canonicalize(qc)
        if cf.case not in (
            spectral.CASE_CASE2_CR,
            spectral.CASE_CASE2_CR_LAMBDA_NEG_A,
        ):
            continue
        cd = CaseData(cf.lam, cf.a, cf.d, unit_a=True)
        small = CLambda(cf.n, cf.m, cf.l, lam=cf.lam)
        big = CPhiLambda(cf.n, cf.m, cf.l, cd=cd)
        p = qc.dim
        cone = SimplicialCone(
            apex=qc.point, R=np.linalg.qr(rng.standard_normal((p, p)))[0]
        )
        cert_small = intersection_cut(cone, cf, small)
        cert_big = intersection_cut(cone, cf, big)
        assert np.all(cert_big.steps >= cert_small.steps - 1e-8)
        done += 1
    print("ACCEPT containments and step monotonicity: PASS")


def test_end_to_end_separation_regression():
    qc = _wedge_qc()
    cf = spectral.canonicalize(qc)
    assert (cf.n, cf.m, cf.l) == (2, 1, 0)
    fs = build_free_set(cf)
    assert fs.margin(cf.mapped_point) <= -1e-6

    cone = SimplicialCone(apex=qc.point, R=np.eye(2))
    cert = separate(qc, cone)
    assert float(cert.coef @ qc.point) - cert.rhs >= 1e-9
    rep = oracle.check_cut_validity(qc, cert, count=10**4, seed=0)
    assert rep.passed, rep.worst_residual

    # the independently displayed two-inequality set is confirmed free
    S = oracle.sample_quadratic_region(qc, 10**4, seed=1)
    m1 = (1.0 / S2 - 1.0) * S[:, 0] + (1.0 / S2 + 1.0) * S[:, 1] + S2
    m2 = S2 * S[:, 0] - 2.0
    assert float(np.min(np.maximum(m1, m2))) >= -1e-7
    print("ACCEPT end-to-end separation regression: PASS")


def test_demo_loop_converges(tmp_path, capsys):
    instance = {
        "dim": 2,
        "Q": [[1.0, 0.0], [0.0, -1.0]],
        "b": [0.0, 0.0],
        "c": 0.0,
        "point": [0.0, 0.0],
        "objective": [1.0, 1.0],
        "linear_constraints": [
            {"coef": [-1.0, 0.0], "rhs": 3.0, "sense": "<="},
            {"coef": [0.0, -1.0], "rhs": 1.0, "sense": "<="},
            {"coef": [1.0, 0.0], "rhs": 10.0, "sense": "<="},
            {"coef": [0.0, 1.0], "rhs": 10.0, "sense": "<="},
        ],
    }
    path = tmp_path / "loop.json"
    path.write_text(emit_json(instance), encoding="utf-8")
    assert main(["loop", str(path), "--max-iters", "50"]) == 0
    lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    records = lines[1:]
    assert records[-1].get("converged") is True
    assert records[-1]["violation"] <= 1e-6
    assert len(records) - 1 <= 50
    objs = [r["objective"] for r in records]
    assert all(later >= earlier - 1e-9 for earlier, later in zip(objs, objs[1:]))
    print("ACCEPT demo cutting loop: PASS")
