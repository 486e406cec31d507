"""Shared builders for the test suite.

The recurring geometric configurations get names here so individual
tests stay short:

- ``cd_wedge``: n = 2, m = 1 data with λᵀa = 0, d = 1/√2 (the wedge/cone
  picture where φ is piecewise −y / y·√2⁻¹ and r(±1) ∈ {0, 1}).
- ``cd_scaled``: n = 2, m = 1 data with ‖a‖ = ‖d‖ = 5 (the non-unit
  configuration whose locally-described set has the (3, −4, 5) interior
  witness).
- ``cd_polars``: n = 2, m = 2 data with non-orthogonal λ, a and a short
  d, exercising both φ branches generically.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from quadfree.corefns import CaseData
from quadfree.spectral import QuadraticConstraint, canonicalize

S2 = math.sqrt(2.0)


@pytest.fixture
def cd_wedge() -> CaseData:
    return CaseData(
        lam=np.array([-1.0, -1.0]) / S2,
        a=np.array([-1.0, 1.0]) / S2,
        d=np.array([1.0 / S2]),
    )


@pytest.fixture
def cd_scaled() -> CaseData:
    return CaseData(
        lam=np.array([-4.0, -3.0]) / 5.0,
        a=np.array([-3.0, 4.0]),
        d=np.array([5.0]),
    )


@pytest.fixture
def cd_polars() -> CaseData:
    return CaseData(
        lam=np.array([63.0, 16.0]) / 65.0,
        a=np.array([3.0 / 5.0, -4.0 / 5.0]),
        d=np.array([3.0 / 10.0, 2.0 / 5.0]),
    )


# (λ, a, d) just off the branch ‖a‖ = 1 > ‖d‖, by name: CRPhiLambda and
# oracle.asymptote_sequence must refuse each
OFF_UNIT_BRANCH = {
    name: CaseData(lam=np.array([1.0, 0.0]), a=np.array([0.0, a2]), d=np.array([d1, 0.0]))
    for name, a2, d1 in (("a_norm_1+1e-9", 1.0 + 1e-9, 0.3), ("d_norm_1", 1.0, 1.0), ("d_norm_1.1", 1.0, 1.1))
}


def unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_unit(rng: np.random.Generator, k: int) -> np.ndarray:
    return unit(rng.standard_normal(k))


def random_casedata(
    rng: np.random.Generator,
    n: int,
    m: int,
    d_scale: float = 0.95,
) -> CaseData:
    """Random valid (λ, a, d) with ‖a‖ = 1 and ‖d‖ ≤ d_scale."""
    if n == 1:
        lam, a = np.array([1.0]), np.array([-1.0])  # only distinct unit pair
    else:
        while True:
            lam = random_unit(rng, n)
            a = random_unit(rng, n)
            if min(np.linalg.norm(lam - a), np.linalg.norm(lam + a)) > 1e-3:
                break
    d = rng.standard_normal(m)
    nd = np.linalg.norm(d)
    if nd > 0:
        d *= rng.uniform(0.0, d_scale) / nd
    return CaseData(lam=lam, a=a, d=d)


def random_orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def random_instance(
    rng: np.random.Generator, n: int, m: int, l: int
) -> QuadraticConstraint:
    """Quadratic whose lifted matrix has eigenvalue signature (n, m, l),
    with a point where the constraint is strictly violated."""
    k = n + m + l  # lifted dimension; original dimension is k - 1
    assert k >= 2
    vals = np.concatenate(
        [
            rng.uniform(0.5, 3.0, n),
            -rng.uniform(0.5, 3.0, m),
            np.zeros(l),
        ]
    )
    V0 = random_orthogonal(rng, k)
    Qt = V0 @ np.diag(vals) @ V0.T
    Qt = 0.5 * (Qt + Qt.T)
    p = k - 1
    Q, b, c = Qt[:p, :p], 2.0 * Qt[:p, p], float(Qt[p, p])
    for box in (5.0, 50.0, 500.0):
        for _ in range(200):
            s = rng.uniform(-box, box, p)
            if float(s @ Q @ s + b @ s + c) > 1e-3:
                return QuadraticConstraint(Q=Q, b=b, c=c, point=s)
    # No luck in the boxes: take (s̄, 1) ∝ V₊α in the positive eigenspace,
    # where q̃ = αᵀ diag(vals₊) α > 0, with α tilted toward u = V₊ᵀe_last so
    # that the last coordinate is nonzero.
    u = V0[-1, :n]
    u_hat = u / np.linalg.norm(u)
    g = rng.standard_normal(n)
    tau = rng.uniform(0.3, 1.0) * rng.choice((-1.0, 1.0))
    alpha = g - (u_hat @ g) * u_hat + tau * np.linalg.norm(g) * u_hat
    w = V0[:, :n] @ alpha
    return QuadraticConstraint(Q=Q, b=b, c=c, point=w[:p] / w[p])


def wedge_constraint() -> QuadraticConstraint:
    """2-variable indefinite quadratic with a violating point at (−2, −2)."""
    return QuadraticConstraint(
        Q=np.array([[0.0, 1.0], [1.0, 0.0]]),
        b=np.array([2.0 * S2, -2.0 * S2]),
        c=-2.0,
        point=np.array([-2.0, -2.0]),
    )


def wedge_canonical(**kw):
    return canonicalize(wedge_constraint(), **kw)
