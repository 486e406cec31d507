"""Output checks that do not use ``quadfree.oracle``, and the outcome of
each op as the benchmark scores it.

Every quadratic value here is computed in NumPy straight from (Q, b, c).
A cut coefᵀs ≤ rhs taken at a cone (apex, R) must

* cut off its apex: coefᵀapex − rhs > 0;
* leave no feasible point in the part of the cone it removes.  That part
  is the simplex conv{apex, apex + t_j r_j}, where t_j is the step at
  which ray j meets the cut hyperplane (rays the cut never meets are
  followed ten times as far as the longest finite step).  The simplex
  lies in the quadratic-free set, so q ≥ −tol at seeded points of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SOLVED, UNSOLVED, FAILED = "solved", "unsolved", "failed"

_CHECK_SEED = 7
_Q_RTOL = 1e-7  # q ≥ −_Q_RTOL · ‖Q̃‖₂ · (1 + ‖s‖²) inside the removed simplex
_LOOP_VIOLATION = 1e-6  # the loop's own convergence threshold
_LP_TOL = 1e-7


@dataclass
class Evaluation:
    """How one op ended and whether its output survived the checks."""

    outcome: str  # "cut", "raise:<Type>", "exit:<code>[:<detail>]"
    status: str  # SOLVED, UNSOLVED or FAILED
    cuts: list = field(default_factory=list)  # normalised (coef, rhs) vectors
    iterations: int = 0
    error: str | None = None  # first failed output check


def quad_values(Q, b, c, S) -> np.ndarray:
    S = np.atleast_2d(S)
    return np.einsum("ij,jk,ik->i", S, Q, S) + S @ b + c


def normalise(coef, rhs) -> np.ndarray:
    v = np.append(np.asarray(coef, dtype=float), float(rhs))
    return v / np.linalg.norm(v)


def lifted_norm(Q, b, c) -> float:
    Qt = np.block([[Q, b[:, None] / 2.0], [b[None, :] / 2.0, np.array([[c]])]])
    return float(np.linalg.norm(Qt, 2))


def cut_error(Q, b, c, apex, R, coef, rhs, seed, qt_norm=None) -> str | None:
    """None when the cut passes both checks, else what went wrong.

    ``seed`` is a list of integers that fixes the sampled points."""
    coef = np.asarray(coef, dtype=float)
    if coef.shape != apex.shape or not np.all(np.isfinite(coef)) or not np.isfinite(rhs):
        return "cut is malformed"
    excess = float(coef @ apex - rhs)
    if not excess > 0.0:
        return f"cut does not cut off its apex (coef·apex − rhs = {excess:.3g})"
    slope = R.T @ coef
    finite = slope < 0.0
    if not np.any(finite):
        return "cut meets no cone ray"
    t = np.full(len(slope), 0.0)
    t[finite] = -excess / slope[finite]
    t[~finite] = 10.0 * float(np.max(t[finite]))
    V = apex[None, :] + (R * t[None, :]).T  # simplex vertices besides the apex

    rng = np.random.default_rng([_CHECK_SEED, *seed])
    p = len(apex)
    inner = rng.dirichlet(np.ones(p + 1), 32)
    face = rng.dirichlet(np.ones(p), 16)
    points = np.vstack([
        V,
        face @ V,
        inner[:, :1] * apex[None, :] + inner[:, 1:] @ V,
    ])
    if qt_norm is None:
        qt_norm = lifted_norm(Q, b, c)
    tol = _Q_RTOL * qt_norm * (1.0 + np.sum(points * points, axis=1))
    q = quad_values(Q, b, c, points)
    bad = q < -tol
    if np.any(bad):
        worst = int(np.argmin(q + tol))
        return f"feasible point cut off: q = {q[worst]:.3g} inside the removed simplex"
    return None


def _raised(exc, documented) -> Evaluation:
    name = type(exc).__name__
    status = UNSOLVED if isinstance(exc, documented) else FAILED
    return Evaluation(f"raise:{name}", status)


def evaluate_separate(inst, result, documented, seed, qt_norm=None) -> Evaluation:
    if result[0] == "raise":
        return _raised(result[1], documented)
    _, coef, rhs = result
    error = cut_error(inst.Q, inst.b, inst.c, inst.point, inst.rays, coef, rhs, [seed], qt_norm)
    return Evaluation(
        "cut", FAILED if error else SOLVED, [normalise(coef, rhs)], error=error
    )


def evaluate_loop(inst, result, documented, codes, seed, qt_norm=None) -> Evaluation:
    """Parse the loop's JSONL and check every cut, the LP vertices and the
    convergence claim."""
    if result[0] == "raise":
        return _raised(result[1], documented)
    _, code, text = result
    try:
        lines = text.splitlines()
        json.loads(lines[0])
        records = [json.loads(line) for line in lines[1:]]
    except (IndexError, ValueError) as exc:
        return Evaluation(f"exit:{code}", FAILED, error=f"unreadable loop output: {exc}")
    ev = Evaluation(f"exit:{code}", UNSOLVED, iterations=len(records))
    if code not in codes and code != 0:
        ev.status = FAILED
    rows = [(np.asarray(coef, dtype=float), float(rhs)) for coef, rhs in inst.box]
    objectives = []
    for rec in records:
        s = np.asarray(rec["vertex"], dtype=float)
        A = np.array([r[0] for r in rows])
        h = np.array([r[1] for r in rows])
        objectives.append(float(rec["objective"]))
        if np.any(A @ s - h > _LP_TOL * (1.0 + np.abs(h))):
            ev.error = f"iteration {rec['iter']}: LP vertex violates a row"
            break
        if abs(float(inst.objective @ s) - objectives[-1]) > 1e-9 * (1.0 + abs(objectives[-1])):
            ev.error = f"iteration {rec['iter']}: objective does not match the vertex"
            break
        if "cut" not in rec:
            continue
        tight = np.abs(A @ s - h) <= _LP_TOL
        if int(tight.sum()) != len(s):
            ev.error = f"iteration {rec['iter']}: cut taken at a degenerate vertex"
            break
        try:
            R = -np.linalg.inv(A[tight])
        except np.linalg.LinAlgError:
            ev.error = f"iteration {rec['iter']}: cut taken where the tight rows are singular"
            break
        coef, rhs = np.asarray(rec["cut"]["coef"], dtype=float), float(rec["cut"]["rhs"])
        err = cut_error(inst.Q, inst.b, inst.c, s, R, coef, rhs, [seed, rec["iter"]], qt_norm)
        if err:
            ev.error = f"iteration {rec['iter']}: {err}"
            break
        ev.cuts.append(normalise(coef, rhs))
        rows.append((coef, rhs))
    if ev.error is None and any(
        later < earlier - 1e-9 * (1.0 + abs(earlier))
        for earlier, later in zip(objectives, objectives[1:])
    ):
        ev.error = "objective decreased between iterations"
    if ev.error is None and code == 0 and records and records[-1].get("converged"):
        last = np.asarray(records[-1]["vertex"], dtype=float)
        violation = float(quad_values(inst.Q, inst.b, inst.c, last)[0])
        if violation > _LOOP_VIOLATION:
            ev.error = f"converged loop ends with violation {violation:.3g}"
        else:
            ev.outcome, ev.status = "exit:0:converged", SOLVED
    elif code == 0:
        ev.outcome = "exit:0:max_iters"
    if ev.error:
        ev.status = FAILED
    return ev


def evaluate_verify(inst, result, documented, codes) -> Evaluation:
    """Exit 0 must mean every report passed; exit 1 (a failed report) and
    undocumented exceptions count as failures."""
    if result[0] == "raise":
        return _raised(result[1], documented)
    _, code, text = result
    if code in codes:
        return Evaluation(f"exit:{code}", UNSOLVED)
    try:
        payload = json.loads(text)
        passed = bool(payload["passed"])
        reports_ok = all(bool(r["passed"]) for r in payload["reports"])
        has_reports = len(payload["reports"]) > 0
    except (KeyError, TypeError, ValueError) as exc:
        return Evaluation(f"exit:{code}", FAILED, error=f"unreadable verify output: {exc}")
    if passed != reports_ok or not has_reports or (code == 0) != passed:
        return Evaluation(
            f"exit:{code}", FAILED, error="verify verdict disagrees with its reports"
        )
    return Evaluation(f"exit:{code}", SOLVED if code == 0 else FAILED)


def evaluate(workload, inst, result, documented, codes, seed, qt_norm=None) -> Evaluation:
    if workload.startswith("sep"):
        return evaluate_separate(inst, result, documented, seed, qt_norm)
    if workload == "loop":
        return evaluate_loop(inst, result, documented, codes, seed, qt_norm)
    return evaluate_verify(inst, result, documented, codes)


def cut_deviation(cuts, ref_cuts) -> float | None:
    """Largest ‖v − v_ref‖ over the cuts both runs made, in order (both
    vectors have norm 1, so this is relative); None if there are none."""
    pairs = list(zip(cuts, ref_cuts))
    if not pairs:
        return None
    return max(float(np.linalg.norm(v - np.asarray(ref, dtype=float))) for v, ref in pairs)
