"""Command-line surface: instance I/O, canonicalization/cut/verify
commands, figure-data emission, and a demo cutting loop.

Exit codes are ``_EXIT_CODES``, tabulated in the README; 1 is kept for
a failed verification report.
"""

from __future__ import annotations

import argparse
import contextvars
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

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
    SamplingExhaustedError,
    UnboundedLPError,
    UncertifiedStepError,
)

_TOP_KEYS = {"dim", "Q", "b", "c", "point", "cone", "objective", "linear_constraints"}
_REQUIRED = {"dim", "Q", "b", "c", "point"}
_SENSES = {"<=": (1.0,), "=": (1.0, -1.0), ">=": (-1.0,)}  # signs of the ≤ rows
_PLOT_LAYERS = ("S", "freeset")
_PLOT_GRID = 200  # grid points per axis of a plot layer
_PROJECT_TOL = 1e-8  # |f| at which a Newton projection stops
_PROJECT_ITERS = 30  # Newton steps a projection takes at most
_PROJECT_FD = 1e-5  # central-difference step of its gradient


def _numbers(value) -> bool:
    """Whether ``value`` is a JSON number, or a list of them at any depth;
    true and false are not numbers, nor is a string of digits."""
    if isinstance(value, list):
        return all(_numbers(v) for v in value)
    return type(value) in (int, float)


def _read(value, shape, what) -> np.ndarray:
    """``value`` as a finite float array of ``shape``, else a ParseError."""
    if not _numbers(value):
        raise ParseError(f"malformed {what}: only JSON numbers are accepted")
    try:
        arr = np.array(value, dtype=float)
    except (OverflowError, ValueError) as exc:
        raise ParseError(f"malformed {what}: {exc}") from exc
    if arr.shape != shape:
        raise ParseError(f"{what} has shape {arr.shape}, need {shape}")
    if not np.isfinite(arr).all():
        raise ParseError(f"{what} must be finite (no NaN or Infinity)")
    return arr


def parse_instance(path: str) -> dict:
    """Strictly parse an instance file into library objects: ``qc`` (a
    QuadraticConstraint), ``cone`` (a SimplicialCone, if given),
    ``objective`` (if given) and ``A``, ``rhs``, every constraint as rows
    of A s ≤ rhs. Unknown keys and malformed fields are ParseErrors."""
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
    p = raw["dim"]
    if type(p) is not int or p < 1:
        raise ParseError(f"dim must be an integer >= 1, got {p!r}")

    try:
        qc = spectral.QuadraticConstraint(
            Q=_read(raw["Q"], (p, p), "Q"),
            b=_read(raw["b"], (p,), "b"),
            c=float(_read(raw["c"], (), "c")),
            point=_read(raw["point"], (p,), "point"),
        )
    except NonSymmetricError as exc:
        raise ParseError(f"Q: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"unusable constraint: {exc}") from exc
    inst = {"raw": raw, "qc": qc}

    if "cone" in raw:
        cone = raw["cone"]
        if not isinstance(cone, dict) or set(cone) != {"rays"}:
            raise ParseError('cone must be {"rays": [...]}')
        rays = _read(cone["rays"], (p, p), "cone rays")
        try:  # ray list rows → ray columns
            inst["cone"] = cuts.SimplicialCone(apex=qc.point, R=rays.T)
        except ValueError as exc:
            raise ParseError(f"unusable cone: {exc}") from exc

    if "objective" in raw:
        inst["objective"] = _read(raw["objective"], (p,), "objective")

    rows = raw.get("linear_constraints", [])
    if not isinstance(rows, list):
        raise ParseError("linear_constraints must be a list")
    A, rhs = [], []
    for row in rows:
        if not isinstance(row, dict) or set(row) != {"coef", "rhs", "sense"}:
            raise ParseError("each constraint needs exactly coef/rhs/sense")
        if not isinstance(row["sense"], str) or row["sense"] not in _SENSES:
            raise ParseError(f"bad sense {row['sense']!r}")
        coef = _read(row["coef"], (p,), "constraint coef")
        bound = float(_read(row["rhs"], (), "constraint rhs"))
        for sign in _SENSES[row["sense"]]:
            A.append(sign * coef)
            rhs.append(sign * bound)
    inst["A"], inst["rhs"] = np.array(A).reshape(-1, p), np.array(rhs)
    return inst


def emit_json(obj) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline.

    Floats use Python's shortest round-trip representation, which is
    bit-faithful (up to 17 significant digits when needed).
    """
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


def _plain(obj):
    if type(obj) is float:  # the most common leaf, tested first
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _cone(inst) -> cuts.SimplicialCone:
    """The instance's cone; a missing one is a parse error."""
    if "cone" not in inst:
        raise ParseError("this command needs a cone in the instance")
    return inst["cone"]


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
    cf = spectral.canonicalize(inst["qc"], zero_tol=args.tol)
    sys.stdout.write(emit_json(_cf_payload(cf)))
    return 0


def cmd_cut(inst, args) -> int:
    cert = cuts.separate(inst["qc"], _cone(inst), zero_tol=args.tol)
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


def _cut_report(inst, cf, fs, seed):
    """``verify``'s cut check: the ``cut_validity`` report of the cut."""
    cert = cuts.intersection_cut(inst["cone"], cf, fs)
    return oracle.check_cut_validity(inst["qc"], cert, seed=seed)


def cmd_verify(inst, args) -> int:
    """The freeness check, then the cut check when there is a cone.

    The two share no state and draw from their own generators, so the
    cut check runs as a future on a one-worker pool, in a copy of this
    thread's context (NumPy's errstate), while this thread runs the
    freeness check; their NumPy work releases the GIL.  Leaving the pool
    joins the worker.  Stdout and the exit code are those of running the
    two in turn: an exception of the freeness check wins, else
    ``result()`` raises the cut check's own.
    """
    cf = spectral.canonicalize(inst["qc"], zero_tol=args.tol)
    fs = freesets.build_free_set(cf)
    if args.force_free_set:  # the parser admits CGLAMBDA only
        fs = freesets.CGLambda(CaseData(cf.lam, cf.a, cf.d))
    cut = None
    with ThreadPoolExecutor(max_workers=1) as pool:
        if "cone" in inst:
            run = contextvars.copy_context().run
            cut = pool.submit(run, _cut_report, inst, cf, fs, args.seed)
        samples = oracle.freeness_samples(cf, fs, args.samples, args.seed)
        reports = [oracle.check_freeness(fs, samples, seed=args.seed)]
        reports.extend(oracle.case2_battery(cf, fs, args.seed))
    if cut is not None:
        reports.append(cut.result())
    passed = all(r.passed for r in reports)
    sys.stdout.write(
        emit_json({"passed": passed, "reports": [r.as_dict() for r in reports]})
    )
    return 0 if passed else 1


# --- plotting ---------------------------------------------------------------


def _newton_project(f, v):
    v = np.asarray(v, dtype=float).copy()
    for _ in range(_PROJECT_ITERS):
        val = f(v)
        if abs(val) <= _PROJECT_TOL:
            return v
        grad = np.array(
            [
                (f(v + _PROJECT_FD * e) - f(v - _PROJECT_FD * e)) / (2 * _PROJECT_FD)
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


def _plot_layer_2d(f, box):
    """Zero-level polylines of f, which maps a point or rows of points."""
    xs = np.linspace(-box, box, _PLOT_GRID)
    F = f(np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2))
    F = F.reshape(_PLOT_GRID, _PLOT_GRID)
    polylines = []
    for seg in _marching_squares(F, xs, xs):
        proj = [_newton_project(f, v) for v in seg]
        if all(v is not None for v in proj):
            polylines.append([list(map(float, v)) for v in proj])
    return {"kind": "polylines", "polylines": polylines}


def cmd_plot(inst, args) -> int:
    wanted = [s for s in args.layers.split(",") if s]
    unknown = sorted(set(wanted) - set(_PLOT_LAYERS))
    if unknown:
        raise ParseError(f"unknown plot layers {unknown}; choose from {list(_PLOT_LAYERS)}")
    qc = inst["qc"]
    if qc.dim != 2:
        raise ParseError("plotting supports 2 variables only")
    cf = spectral.canonicalize(qc, zero_tol=args.tol)
    fs = freesets.build_free_set(cf)
    box = max(5.0, 1.5 * float(np.max(np.abs(qc.point))) + 3.0)
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


def cmd_loop(inst, args) -> int:
    if "objective" not in inst or "linear_constraints" not in inst["raw"]:
        raise ParseError("loop command needs objective and linear_constraints")
    qc, at = inst["qc"], None  # the constraint is decomposed at the first cut
    sys.stdout.write(
        json.dumps({"objective_direction": "nondecreasing", "max_iters": args.max_iters})
        + "\n"
    )
    basis = lp.optimal_basis(inst["objective"], inst["A"], inst["rhs"])
    for it in range(args.max_iters + 1):
        if it:  # re-optimise after the last cut; never solve from scratch
            try:
                basis.add_cut(cert.coef, cert.rhs)
            except InfeasibleLPError as exc:
                raise EmptySError(f"LP infeasible after cuts: {exc}") from exc
        s_star, value = basis.vertex()
        viol = qc(s_star)
        record = {
            "iter": it,
            "objective": value,
            "violation": viol,
            "vertex": [float(v) for v in s_star],
        }
        if viol <= max(1e-6, args.tol):  # at q ≤ tol there is nothing to separate
            record["converged"] = True
            sys.stdout.write(json.dumps(record) + "\n")
            return 0
        try:
            cone = cuts.SimplicialCone(apex=s_star, R=basis.cone_rays(), tight_rows=basis.A[basis.N])
        except ValueError as exc:
            raise DegenerateVertexError(f"the vertex cone is unusable: {exc}") from exc
        if at is None:
            at = spectral.decompose(qc, zero_tol=args.tol)
        cf = at(s_star)
        cert = cuts.intersection_cut(cone, cf, freesets.build_free_set(cf))
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
    cmd["verify"].add_argument("--force-free-set", type=str.upper, choices=("CGLAMBDA",))
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
    (UncertifiedStepError, 13),
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
