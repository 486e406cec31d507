"""Command-line surface: instance I/O, canonicalization/cut/verify
commands, figure-data emission, and a demo cutting loop.

Exit codes are ``_EXIT_CODES``, tabulated in the README; 1 is kept for
a failed verification report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import cuts, freesets, lp, oracle, spectral
from .corefns import CaseData
from .errors import (
    AllRaysRecessionError,
    ApexNotInteriorError,
    DegenerateQuadraticError,
    DegenerateVertexError,
    EmptySError,
    InfeasibleLPError,
    NonSymmetricError,
    NotSeparableError,
    ParseError,
    PreconditionViolatedError,
    QuadfreeError,
    SamplingExhaustedError,
    UnboundedLPError,
)

_TOP_KEYS = {"dim", "Q", "b", "c", "point", "cone", "objective", "linear_constraints"}
_REQUIRED = {"dim", "Q", "b", "c", "point"}
_SENSES = {"<=", "=", ">="}
_PLOT_LAYERS = ("S", "freeset")


def parse_instance(path: str) -> dict:
    """Strictly parse an instance file; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read instance: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("instance must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    missing = _REQUIRED - set(raw)
    if missing:
        raise ParseError(f"missing keys: {sorted(missing)}")

    try:
        p = int(raw["dim"])
        Q = np.array(raw["Q"], dtype=float)
        b = np.array(raw["b"], dtype=float)
        c = float(raw["c"])
        point = np.array(raw["point"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed numeric field: {exc}") from exc
    if Q.shape != (p, p) or b.shape != (p,) or point.shape != (p,):
        raise ParseError("Q/b/point shapes do not match dim")
    try:
        Q = spectral._as_symmetric(Q)
    except NonSymmetricError as exc:
        raise ParseError(f"Q: {exc}") from exc

    inst = {"raw": raw, "dim": p, "Q": Q, "b": b, "c": c, "point": point}

    if "cone" in raw:
        cone = raw["cone"]
        if not isinstance(cone, dict) or set(cone) != {"rays"}:
            raise ParseError('cone must be {"rays": [...]}')
        try:
            rays = np.array(cone["rays"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed rays: {exc}") from exc
        if rays.shape != (p, p):
            raise ParseError("cone needs exactly p rays of dimension p")
        inst["rays"] = rays.T  # ray list rows → ray columns

    if "objective" in raw:
        obj = np.array(raw["objective"], dtype=float)
        if obj.shape != (p,):
            raise ParseError("objective dimension mismatch")
        inst["objective"] = obj

    if "linear_constraints" in raw:
        rows = raw["linear_constraints"]
        if not isinstance(rows, list):
            raise ParseError("linear_constraints must be a list")
        parsed = []
        for row in rows:
            if not isinstance(row, dict) or set(row) != {"coef", "rhs", "sense"}:
                raise ParseError("each constraint needs exactly coef/rhs/sense")
            if row["sense"] not in _SENSES:
                raise ParseError(f"bad sense {row['sense']!r}")
            coef = np.array(row["coef"], dtype=float)
            if coef.shape != (p,):
                raise ParseError("constraint coef dimension mismatch")
            parsed.append((coef, float(row["rhs"]), row["sense"]))
        inst["linear_constraints"] = parsed

    numbers = [Q, b, c, point, inst.get("rays", 0.0), inst.get("objective", 0.0)]
    numbers += [v for coef, rhs, _ in inst.get("linear_constraints", ()) for v in (coef, rhs)]
    if not all(np.isfinite(v).all() for v in numbers):
        raise ParseError("numeric fields must be finite (no NaN or Infinity)")
    return inst


def emit_json(obj) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline.

    Floats use Python's shortest round-trip representation, which is
    bit-faithful (up to 17 significant digits when needed).
    """
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _to_qc(inst) -> spectral.QuadraticConstraint:
    return spectral.QuadraticConstraint(
        Q=inst["Q"], b=inst["b"], c=inst["c"], point=inst["point"]
    )


def _cone(inst) -> cuts.SimplicialCone:
    """The instance's cone; a missing or singular one is a parse error."""
    if "rays" not in inst:
        raise ParseError("this command needs a cone in the instance")
    try:
        return cuts.SimplicialCone(apex=inst["point"], R=inst["rays"])
    except ValueError as exc:
        raise ParseError(f"unusable cone: {exc}") from exc


def _cf_payload(cf: spectral.CanonicalForm) -> dict:
    return {
        "n": cf.n,
        "m": cf.m,
        "l": cf.l,
        "a": cf.a,
        "d": cf.d,
        "h": cf.h,
        "lambda": cf.lam,
        "case": cf.case,
        "M": cf.M,
        "mapped_point": cf.mapped_point,
        "scale": {
            "eigenvalues": cf.eigenvalues,
            "signature": [cf.n, cf.m, cf.l],
            "quad_scale": cf.quad_scale,
            "case2_rescale": cf.case2_rescale,
        },
    }


def cmd_canon(inst, args) -> int:
    cf = spectral.canonicalize(_to_qc(inst), zero_tol=args.tol)
    sys.stdout.write(emit_json(_cf_payload(cf)))
    return 0


def cmd_cut(inst, args) -> int:
    cert = cuts.separate(_to_qc(inst), _cone(inst), zero_tol=args.tol)
    payload = {
        "case": cert.canonical_form.case,
        "steps": [
            {"value": t, "residual": r} for t, r in zip(cert.steps, cert.residuals)
        ],
        "weights": cert.weights,
        "coef": cert.coef,
        "rhs": cert.rhs,
        "apex_violation": cert.apex_violation,
    }
    sys.stdout.write(emit_json(payload))
    return 0


def _case2_reports(cf, fs, seed):
    cd = CaseData(cf.lam, cf.a, cf.d, unit_a=True)
    rng = np.random.default_rng(seed + 1)
    reports = []
    for _ in range(50):
        y = rng.standard_normal(cf.m)
        if np.linalg.norm(y) < 1e-9:
            continue
        reports.append(oracle.check_duality(cd, y))
        try:
            reports.append(oracle.check_gradient(cd, y))
        except QuadfreeError:
            pass
    pairs = [
        (rng.standard_normal(cf.m), rng.standard_normal(cf.m)) for _ in range(100)
    ]
    reports.append(oracle.check_convexity(cd, pairs))

    strict, loose = [], []
    for beta in oracle._unit_rows(rng, 200, cf.m):
        val = float(cd.a @ cd.lam + cd.d @ beta)
        if val < -1e-6 and len(strict) < 25:
            strict.append(beta)
        elif cd.lam_a + float(cd.d @ beta) >= 0.0 and len(loose) < 10:
            loose.append(beta)
    for beta in strict:
        reports.append(oracle.exposing_witness(cd, beta, fs)[1])
    if cf.case != spectral.CASE_CASE2_CR_LAMBDA_NEG_A:
        for beta in loose:
            reports.append(oracle.asymptote_sequence(cd, beta, 1000)[2])
    return reports


def cmd_verify(inst, args) -> int:
    cf = spectral.canonicalize(_to_qc(inst), zero_tol=args.tol)
    if cf.case == spectral.CASE_EMPTY_S:
        raise EmptySError("constraint is infeasible; nothing to verify")
    if args.force_free_set:
        name = args.force_free_set.upper()
        if name != "CGLAMBDA":
            raise ParseError(f"cannot force free set {name!r}")
        fs = freesets.CGLambda(
            cf.n, cf.m, cf.l, cd=CaseData(cf.lam, cf.a, cf.d), forced=True
        )
    else:
        fs = freesets.build_free_set(cf)
    samples = oracle.freeness_samples(cf, fs, args.samples, args.seed)
    reports = [oracle.check_freeness(fs, samples, seed=args.seed)]
    if cf.case in (spectral.CASE_CASE2_CR, spectral.CASE_CASE2_CR_LAMBDA_NEG_A):
        reports.extend(_case2_reports(cf, fs, args.seed))
    if "rays" in inst:
        cert = cuts.intersection_cut(_cone(inst), cf, fs)
        reports.append(
            oracle.check_cut_validity(_to_qc(inst), cert, seed=args.seed)
        )
    passed = all(r.passed for r in reports)
    sys.stdout.write(
        emit_json({"passed": passed, "reports": [r.as_dict() for r in reports]})
    )
    return 0 if passed else 1


# --- plotting ---------------------------------------------------------------


def _newton_project(f, v, target=1e-8, iters=30, fd=1e-5):
    v = np.asarray(v, dtype=float).copy()
    for _ in range(iters):
        val = f(v)
        if abs(val) <= target:
            return v
        grad = np.array(
            [
                (f(v + fd * e) - f(v - fd * e)) / (2 * fd)
                for e in np.eye(len(v))
            ]
        )
        g2 = float(grad @ grad)
        if g2 <= 1e-18:
            return None
        v -= val * grad / g2
    return v if abs(f(v)) <= 1e-6 else None


def _marching_squares(F, xs, ys):
    """Zero-level segments (an array of shape (k, 2, 2)) of a grid sampling,
    by edge interpolation: cells in i-major order, each cell's crossings
    in edge order from corner (i, j) counter-clockwise, paired in turn."""
    ni, nj = len(xs) - 1, len(ys) - 1
    corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
    hits, points = [], []
    for k in range(4):
        (i0, j0), (i1, j1) = corners[k], corners[(k + 1) % 4]
        f0, f1 = F[i0 : i0 + ni, j0 : j0 + nj], F[i1 : i1 + ni, j1 : j1 + nj]
        hit = (f0 < 0) != (f1 < 0)
        t = np.divide(f0, f0 - f1, out=np.zeros_like(f0), where=hit)
        x0, x1 = xs[i0 : i0 + ni, None], xs[i1 : i1 + ni, None]
        y0, y1 = ys[None, j0 : j0 + nj], ys[None, j1 : j1 + nj]
        hits.append(hit)
        points.append(np.stack([x0 + t * (x1 - x0), y0 + t * (y1 - y0)], axis=-1))
    hits = np.stack(hits, axis=-1).reshape(-1)
    return np.stack(points, axis=2).reshape(-1, 2)[hits].reshape(-1, 2, 2)


def _plot_layer_2d(f, box, grid=200):
    """Zero-level polylines of f, which maps a point or rows of points."""
    xs = np.linspace(-box, box, grid)
    ys = np.linspace(-box, box, grid)
    F = f(np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2))
    F = F.reshape(grid, grid)
    polylines = []
    for seg in _marching_squares(F, xs, ys):
        proj = [_newton_project(f, v) for v in seg]
        if all(v is not None for v in proj):
            polylines.append([list(map(float, v)) for v in proj])
    return {"kind": "polylines", "polylines": polylines}


def cmd_plot(inst, args) -> int:
    wanted = [s for s in (args.layers or "S,freeset").split(",") if s]
    unknown = sorted(set(wanted) - set(_PLOT_LAYERS))
    if unknown:
        raise ParseError(f"unknown plot layers {unknown}; choose from {list(_PLOT_LAYERS)}")
    p = inst["dim"]
    if p != 2:
        raise ParseError("plotting supports 2 variables only")
    qc = _to_qc(inst)
    cf = spectral.canonicalize(qc, zero_tol=args.tol)
    fs = freesets.build_free_set(cf)
    box = max(5.0, 1.5 * float(np.max(np.abs(inst["point"]))) + 3.0)
    layers = {}
    if "S" in wanted:
        layers["S"] = _plot_layer_2d(qc, box)
    if "freeset" in wanted:
        layers["freeset"] = _plot_layer_2d(lambda s: fs.margin(cf.map_point(s)), box)
    digest = hashlib.sha256(emit_json(inst["raw"]).encode()).hexdigest()
    payload = {
        "layers": layers,
        "metadata": {"instance_sha256": digest, "box": box},
    }
    sys.stdout.write(emit_json(payload))
    return 0


# --- cutting loop -----------------------------------------------------------


def _as_leq(constraints):
    """(A, rhs) with the constraints as rows of A s ≤ rhs."""
    rows = []
    for coef, rhs, sense in constraints:
        if sense in ("<=", "="):
            rows.append((np.asarray(coef, dtype=float), float(rhs)))
        if sense in (">=", "="):
            rows.append((-np.asarray(coef, dtype=float), -float(rhs)))
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


def cmd_loop(inst, args) -> int:
    if "objective" not in inst or "linear_constraints" not in inst:
        raise ParseError("loop command needs objective and linear_constraints")
    p = inst["dim"]
    obj = inst["objective"]
    A, rhs = _as_leq(inst["linear_constraints"])
    Q, b, c = inst["Q"], inst["b"], inst["c"]
    sys.stdout.write(
        json.dumps({"objective_direction": "nondecreasing", "max_iters": args.max_iters})
        + "\n"
    )
    tableau = lp.optimal_tableau(obj, A, rhs)
    for it in range(args.max_iters + 1):
        if it:  # re-optimise after the last cut; never solve from scratch
            try:
                tableau.add_cut(cert.coef, cert.rhs)
            except InfeasibleLPError as exc:
                raise EmptySError(f"LP infeasible after cuts: {exc}") from exc
            A = np.vstack([A, cert.coef])
            rhs = np.append(rhs, cert.rhs)
        s_star, value = tableau.vertex()
        qc = spectral.QuadraticConstraint(Q=Q, b=b, c=c, point=s_star)
        viol = qc(s_star)
        record = {
            "iter": it,
            "objective": value,
            "violation": viol,
            "vertex": [float(v) for v in s_star],
        }
        if viol <= 1e-6:
            record["converged"] = True
            sys.stdout.write(json.dumps(record) + "\n")
            return 0
        tight = [i for i in range(len(A)) if abs(A[i] @ s_star - rhs[i]) <= 1e-7]
        if len(tight) != p:
            raise DegenerateVertexError(
                f"{len(tight)} tight constraints at the vertex, need {p}"
            )
        A_t = A[tight]
        if np.linalg.cond(A_t) > 1e10:
            raise DegenerateVertexError("tight constraints are rank deficient")
        R = -np.linalg.inv(A_t)
        cone = cuts.SimplicialCone(apex=s_star, R=R)
        cert = cuts.separate(qc, cone, zero_tol=args.tol)
        record["cut"] = {"coef": [float(v) for v in cert.coef], "rhs": cert.rhs}
        sys.stdout.write(json.dumps(record) + "\n")
    return 0


# --- entry point ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (parse error); argparse's own 2 means "not
    separable" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _at_least(kind, low):
    """An argparse ``type``: a finite ``kind`` value ≥ ``low``; any other
    text is a usage error."""

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not low <= value < np.inf:
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind.__name__} in [{low}, inf)")
        return value

    return parse


def _build_parser():
    parser = _Parser(
        prog="quadfree",
        description="Maximal quadratic-free sets and intersection cuts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {}
    for name, fn in (
        ("canon", cmd_canon),
        ("cut", cmd_cut),
        ("verify", cmd_verify),
        ("plot", cmd_plot),
        ("loop", cmd_loop),
    ):
        cmd[name] = sub.add_parser(name)
        cmd[name].add_argument("instance")
        cmd[name].add_argument("--tol", type=_at_least(float, 0.0), default=1e-9)
        cmd[name].set_defaults(fn=fn)
    cmd["verify"].add_argument("--samples", type=_at_least(int, 1), default=10_000)
    cmd["verify"].add_argument("--seed", type=_at_least(int, 0), default=0)
    cmd["verify"].add_argument("--force-free-set", type=str, default=None)
    cmd["plot"].add_argument("--layers", type=str, default="S,freeset")
    cmd["loop"].add_argument("--max-iters", type=_at_least(int, 0), default=50)
    return parser


_EXIT_CODES = (
    (NotSeparableError, 2),
    (ParseError, 3),
    (AllRaysRecessionError, 4),
    (EmptySError, 5),
    (UnboundedLPError, 6),
    (DegenerateVertexError, 7),
    (SamplingExhaustedError, 8),
    (InfeasibleLPError, 9),
    (DegenerateQuadraticError, 10),
    (ApexNotInteriorError, 11),
    (PreconditionViolatedError, 12),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        inst = parse_instance(args.instance)
        return args.fn(inst, args)
    except tuple(exc for exc, _ in _EXIT_CODES) as exc:
        for exc_type, code in _EXIT_CODES:
            if isinstance(exc, exc_type):
                print(f"{exc_type.__name__}: {exc}", file=sys.stderr)
                return code
        raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
