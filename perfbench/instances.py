"""Seeded instance pools for the four benchmark workloads.

Every pool is drawn from ``POOL_SEED``, so the reference outcomes in
``reference/`` stay valid; the run's ``--seed`` only shuffles the order
in which a pass visits the pool.

A constraint is built from its lifted eigen-signature (n, m, l): the
lifted matrix Q̃ = V diag(vals) Vᵀ has n positive, m negative and l zero
eigenvalues.  The violating point is constructed, never searched for:
(s̄, 1) is taken proportional to a vector of the positive eigenspace of
Q̃, so q(s̄) = αᵀΛ₊α / w_last² > 0 for every signature with n ≥ 1.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

POOL_SEED = 20191127


@dataclass
class Instance:
    """One generated input: the quadratic, its point and (optionally) a
    cone or box LP, plus the generator's own view of its geometry."""

    key: str
    signature: tuple
    Q: np.ndarray
    b: np.ndarray
    c: float
    point: np.ndarray
    rays: np.ndarray | None = None  # p×p, rays as columns
    objective: np.ndarray | None = None
    box: list = field(default_factory=list)  # [(coef, rhs)] rows of A s ≤ rhs
    point_kind: str = "generic"

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    def as_cli_fields(self) -> dict:
        fields = {
            "dim": self.dim,
            "Q": self.Q.tolist(),
            "b": self.b.tolist(),
            "c": self.c,
            "point": self.point.tolist(),
        }
        if self.rays is not None:
            fields["cone"] = {"rays": self.rays.T.tolist()}
        if self.objective is not None:
            fields["objective"] = self.objective.tolist()
            fields["linear_constraints"] = [
                {"coef": coef.tolist(), "rhs": rhs, "sense": "<="}
                for coef, rhs in self.box
            ]
        return fields


def random_orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def make_constraint(rng, n: int, m: int, l: int, toward_neg_a: bool = False):
    """(Q, b, c, point, kind) with lifted signature (n, m, l).

    With ``toward_neg_a`` and a case-2 geometry (l = 0, ‖a‖ > ‖d‖), the
    point is (s̄, 1) ∝ Q̃₊⁺e, whose canonical image has λ = −a.
    """
    k = n + m + l
    if n < 1 or k < 2:
        raise ValueError(f"signature {(n, m, l)} has no violating point")
    vals = np.concatenate(
        [rng.uniform(0.5, 3.0, n), -rng.uniform(0.5, 3.0, m), np.zeros(l)]
    )
    while True:
        V = random_orthogonal(rng, k)
        u = V[-1, :n]  # e_lastᵀ V₊: the last unit vector in the positive basis
        if np.linalg.norm(u) > 1e-3:
            break
    Qt = V @ np.diag(vals) @ V.T
    Qt = 0.5 * (Qt + Qt.T)
    p = k - 1
    Q, b, c = Qt[:p, :p], 2.0 * Qt[:p, p], float(Qt[p, p])

    norm_a = math.sqrt(float(np.sum(u**2 / vals[:n])))
    v = V[-1, n : n + m]
    norm_d = math.sqrt(float(np.sum(v**2 / -vals[n : n + m])))
    kind = "generic"
    if toward_neg_a and l == 0 and norm_a > norm_d:
        alpha = u / vals[:n]
        kind = "lambda_neg_a"
    else:
        g = rng.standard_normal(n)
        u_hat = u / np.linalg.norm(u)
        g_perp = g - (u_hat @ g) * u_hat
        tau = rng.uniform(0.3, 1.0) * rng.choice((-1.0, 1.0))
        alpha = g_perp + tau * np.linalg.norm(g) * u_hat
    w = V[:, :n] @ alpha
    point = w[:p] / w[p]
    return Q, b, c, point, kind


def _signatures_small():
    """Every (n, m, l) with n, m ≥ 1 at p = 1…8 (lifted k = 2…9)."""
    out = []
    for k in range(2, 10):
        for n in range(1, k):
            for m in range(1, k - n + 1):
                out.append((n, m, k - n - m))
    return out


def _signatures_grid(p_values, per_p):
    """``per_p`` signatures per dimension p, alternating l = 0 and l > 0 and
    cycling the positive share n/(n+m) over 1/4, 1/2 and 3/4."""
    out = []
    for p in p_values:
        k = p + 1
        for _ in range(per_p):
            i = len(out)
            l = 0 if i % 2 == 0 else min(1 + (i // 2) % 3, k - 2)
            n = min(max(1, round((k - l) * (0.25, 0.5, 0.75)[i % 3])), k - l - 1)
            out.append((n, k - l - n, l))
    return out


def _with_points(rng, signatures, workload):
    """Constraints for each signature.  Instances i with i mod 4 in {1, 2}
    that have a case-2 geometry get the λ = −a point, so that case is in
    the mix."""
    instances = []
    for i, sig in enumerate(signatures):
        Q, b, c, point, kind = make_constraint(rng, *sig, toward_neg_a=i % 4 in (1, 2))
        instances.append(
            Instance(f"{workload}/{i:03d}", sig, Q, b, c, point, point_kind=kind)
        )
    return instances


def _add_cones(rng, instances):
    for inst in instances:
        inst.rays = random_orthogonal(rng, inst.dim)


def _add_boxes(rng, instances):
    """Box LP whose optimal vertex is the violating point.

    With objective signs σ, the minimising corner of the box is the
    point itself, so the loop starts from a point that needs a cut.
    """
    for inst in instances:
        p = inst.dim
        sign = rng.choice((-1.0, 1.0), p)
        obj = sign * rng.uniform(0.5, 2.0, p)
        width = rng.uniform(1.0, 6.0, p)
        box = []
        for i in range(p):
            e = np.zeros(p)
            e[i] = 1.0
            # σ_i > 0: s_i ≥ s̄_i is tight at s̄; σ_i < 0: s_i ≤ s̄_i is tight.
            lo, hi = (inst.point[i], inst.point[i] + width[i]) if sign[i] > 0 else (
                inst.point[i] - width[i], inst.point[i])
            box.append((-e, float(-lo)))
            box.append((e, float(hi)))
        inst.objective = obj
        inst.box = box


# workload -> (random stream, signatures, what each instance gets besides its point)
_POOLS = {
    "sep-small": (0, _signatures_small, _add_cones),
    "sep-large": (1, lambda: _signatures_grid(range(24, 81, 2), 1), _add_cones),
    "loop": (2, lambda: _signatures_grid(range(2, 9), 4), _add_boxes),
    "verify": (3, lambda: _signatures_grid(range(3, 13), 2), _add_cones),
}


def build_pool(workload: str) -> list[Instance]:
    """The fixed, ordered instance pool of one workload."""
    stream, signatures, complete = _POOLS[workload]
    rng = np.random.default_rng([POOL_SEED, stream])
    pool = _with_points(rng, signatures(), workload)
    complete(rng, pool)
    return pool


def fingerprint(inst: Instance) -> str:
    """Digest of the instance arrays, to confirm a pool matches its reference."""
    h = hashlib.sha256()
    arrays = [inst.Q, inst.b, np.array([inst.c]), inst.point, inst.rays, inst.objective]
    arrays += [np.append(coef, rhs) for coef, rhs in inst.box]
    for arr in arrays:
        if arr is not None:
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()[:16]
