import math

import numpy as np
import pytest

from conftest import random_casedata, random_unit
from quadfree.corefns import (
    CaseData,
    phi_gradient,
    phi_value,
    r_coefficient,
    theta_dual,
    x_beta,
)
from quadfree.errors import NotUnitError, UndefinedGradientError

S2 = math.sqrt(2.0)


# --- phi_value --------------------------------------------------------------


def test_phi_piecewise_values(cd_wedge):
    assert abs(phi_value(cd_wedge, np.array([-2.0])) - 2.0) <= 1e-12
    assert abs(phi_value(cd_wedge, np.array([2.0])) - S2) <= 1e-12


def test_phi_negative_y_is_norm(cd_wedge):
    for y in (-0.5, -1.0, -7.25):
        assert abs(phi_value(cd_wedge, np.array([y])) - abs(y)) <= 1e-12


def test_phi_lambda_equals_minus_a_gives_norm():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = random_unit(rng, n)
        d = 0.3 * random_unit(rng, m) * rng.uniform(0.0, 1.0)
        cd = CaseData(lam=-a, a=a, d=d, unit_a=True)
        y = rng.standard_normal(m)
        assert abs(phi_value(cd, y) - np.linalg.norm(y)) <= 1e-12


def test_phi_zero_at_origin(cd_polars):
    assert phi_value(cd_polars, np.zeros(2)) == 0.0


def test_phi_positive_homogeneity():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        cd = random_casedata(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        y = rng.standard_normal(len(cd.d))
        base = phi_value(cd, y)
        for mu in (0.5, 2.0, 10.0):
            val = phi_value(cd, mu * y)
            assert abs(val - mu * base) <= 1e-10 * (1.0 + abs(mu * base))


def test_phi_midpoint_convexity():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        cd = random_casedata(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        m = len(cd.d)
        y1, y2 = rng.standard_normal(m), rng.standard_normal(m)
        mid = phi_value(cd, (y1 + y2) / 2.0)
        assert mid <= (phi_value(cd, y1) + phi_value(cd, y2)) / 2.0 + 1e-10


def test_phi_bounded_by_norm():
    rng = np.random.default_rng(3)
    for _ in range(500):
        cd = random_casedata(rng, 2, 2)
        y = rng.standard_normal(2)
        assert phi_value(cd, y) <= np.linalg.norm(y) + 1e-12


# --- phi_gradient -----------------------------------------------------------


def test_gradient_piecewise_slopes(cd_wedge):
    assert abs(phi_gradient(cd_wedge, np.array([-1.0]))[0] + 1.0) <= 1e-12
    assert abs(phi_gradient(cd_wedge, np.array([1.0]))[0] - 1.0 / S2) <= 1e-12


def test_gradient_lambda_minus_a_is_direction():
    rng = np.random.default_rng(4)
    a = random_unit(rng, 3)
    cd = CaseData(lam=-a, a=a, d=np.array([0.2, -0.1]), unit_a=True)
    y = rng.standard_normal(2)
    assert np.allclose(phi_gradient(cd, y), y / np.linalg.norm(y), atol=1e-12)


def test_gradient_finite_differences():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 200:
        cd = random_casedata(rng, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        y = rng.standard_normal(len(cd.d))
        ny = np.linalg.norm(y)
        if ny < 0.3:
            continue
        # skip points too close to the branch boundary for stable FD
        if abs(cd.lam_a * ny + float(cd.d @ y)) < 1e-3:
            continue
        grad = phi_gradient(cd, y)
        step = 1e-6
        for j in range(len(y)):
            e = np.zeros(len(y))
            e[j] = step
            fd = (phi_value(cd, y + e) - phi_value(cd, y - e)) / (2 * step)
            assert abs(fd - grad[j]) <= 1e-5
        checked += 1


def test_gradient_euler_identity():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        cd = random_casedata(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        y = rng.standard_normal(len(cd.d))
        if np.linalg.norm(y) < 1e-6:
            continue
        grad = phi_gradient(cd, y)
        assert abs(float(grad @ y) - phi_value(cd, y)) <= 1e-10


def test_gradient_undefined_at_origin(cd_wedge):
    with pytest.raises(UndefinedGradientError):
        phi_gradient(cd_wedge, np.array([0.0]))


def test_gradient_undefined_on_excluded_ray():
    rng = np.random.default_rng(7)
    lam = random_unit(rng, 2)
    a = random_unit(rng, 2)
    while np.linalg.norm(lam - a) < 1e-3 or np.linalg.norm(lam + a) < 1e-3:
        a = random_unit(rng, 2)
    d = random_unit(rng, 2)  # ‖d‖ = 1 makes φ nondifferentiable along d
    cd = CaseData(lam=lam, a=a, d=d, unit_a=True)
    if cd.lam_a * 1.0 + float(cd.d @ d) <= 0.0:
        cd = CaseData(lam=-lam, a=a, d=d, unit_a=True)
    with pytest.raises(UndefinedGradientError):
        phi_gradient(cd, 2.0 * d)


# --- theta_dual -------------------------------------------------------------


def test_theta_zero_on_first_branch(cd_wedge):
    assert theta_dual(cd_wedge, np.array([-1.0])) == 0.0


def test_theta_infinite_on_unit_d_ray():
    rng = np.random.default_rng(8)
    lam = random_unit(rng, 2)
    a = np.array([0.0, 1.0])
    if np.linalg.norm(lam - a) < 1e-3 or np.linalg.norm(lam + a) < 1e-3:
        lam = np.array([1.0, 0.0])
    d = np.array([1.0, 0.0])
    cd = CaseData(lam=lam, a=a, d=d, unit_a=True)
    if cd.lam_a <= 0.0:
        cd = CaseData(lam=-lam, a=a, d=d, unit_a=True)
    assert theta_dual(cd, d) == math.inf


def test_theta_nonnegative_and_strong_duality():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        cd = random_casedata(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        y = rng.standard_normal(len(cd.d))
        th = theta_dual(cd, y)
        assert th >= 0.0
        if math.isfinite(th):
            dual = np.linalg.norm(cd.lam - th * cd.a) * np.linalg.norm(y) - th * float(
                cd.d @ y
            )
            assert abs(dual - phi_value(cd, y)) <= 1e-9


def test_theta_matches_golden_section(cd_polars):
    y = np.array([0.0, 1.0])

    def dual_obj(th):
        return float(
            np.linalg.norm(cd_polars.lam - th * cd_polars.a) * np.linalg.norm(y)
            - th * (cd_polars.d @ y)
        )

    lo, hi = 0.0, 50.0
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        m1 = hi - gr * (hi - lo)
        m2 = lo + gr * (hi - lo)
        if dual_obj(m1) <= dual_obj(m2):
            hi = m2
        else:
            lo = m1
    th_num = (lo + hi) / 2.0
    assert abs(theta_dual(cd_polars, y) - th_num) <= 1e-7


# --- r_coefficient ----------------------------------------------------------


def test_r_values_on_wedge(cd_wedge):
    assert abs(r_coefficient(cd_wedge, np.array([1.0])) - 1.0) <= 1e-12
    assert r_coefficient(cd_wedge, np.array([-1.0])) == 0.0


def test_r_equals_theta_on_unit_directions():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        cd = random_casedata(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        beta = random_unit(rng, len(cd.d))
        th = theta_dual(cd, beta)
        if math.isfinite(th):
            assert abs(r_coefficient(cd, beta) - th) <= 1e-10


def test_r_zero_outside_relaxed_region():
    rng = np.random.default_rng(11)
    for _ in range(200):
        cd = random_casedata(rng, 2, 2)
        beta = random_unit(rng, 2)
        if cd.lam_a + float(cd.d @ beta) <= 0.0:
            assert r_coefficient(cd, beta) == 0.0


def test_r_rejects_non_unit_input(cd_wedge):
    with pytest.raises(NotUnitError):
        r_coefficient(cd_wedge, np.array([2.0]))


def test_r_polars_consistency(cd_polars):
    beta = np.array([0.0, 1.0])
    assert abs(r_coefficient(cd_polars, beta) - theta_dual(cd_polars, beta)) <= 1e-10


# --- x_beta -----------------------------------------------------------------


def test_x_beta_branch1_scaled_lambda(cd_wedge):
    y = np.array([-3.0])
    assert np.allclose(x_beta(cd_wedge, y), 3.0 * cd_wedge.lam, atol=1e-12)


def test_x_beta_wedge_relaxed_direction(cd_wedge):
    xb = x_beta(cd_wedge, np.array([1.0]))
    assert abs(float(cd_wedge.lam @ xb) - 1.0 / S2) <= 1e-9
    assert abs(float(cd_wedge.a @ xb) + 1.0 / S2) <= 1e-9


def test_x_beta_attains_phi():
    rng = np.random.default_rng(12)
    for _ in range(300):
        cd = random_casedata(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        y = rng.standard_normal(len(cd.d))
        xb = x_beta(cd, y)
        ny = np.linalg.norm(y)
        assert abs(float(cd.lam @ xb) - phi_value(cd, y)) <= 1e-9 * (1.0 + ny)
        assert np.linalg.norm(xb) <= ny + 1e-9
        if cd.lam_a * ny + float(cd.d @ y) > 0.0:  # constrained branch
            assert abs(np.linalg.norm(xb) - ny) <= 1e-9 * (1.0 + ny)
            assert abs(float(cd.a @ xb) + float(cd.d @ y)) <= 1e-9 * (1.0 + ny)
