import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from quadfree import lp, oracle, spectral
from quadfree.cli import _EXIT_CODES, _marching_squares, emit_json, main, parse_instance
from quadfree.errors import (
    NonSymmetricError,
    NotInStrictRegionError,
    NotUnitError,
    ParseError,
    PreconditionViolatedError,
    QuadfreeError,
    SamplingExhaustedError,
    UndefinedGradientError,
)

S2 = math.sqrt(2.0)


def write_instance(tmp_path, name="inst.json", **fields):
    path = tmp_path / name
    path.write_text(emit_json(fields), encoding="utf-8")
    return str(path)


def wedge_fields(point=(-2.0, -2.0), **extra):
    fields = {
        "dim": 2,
        "Q": [[0.0, 1.0], [1.0, 0.0]],
        "b": [2.0 * S2, -2.0 * S2],
        "c": -2.0,
        "point": list(point),
    }
    fields.update(extra)
    return fields


def loop_fields():
    # min s1 + s2 over a box, cutting against s1² − s2² ≤ 0
    return {
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


# --- usage -------------------------------------------------------------------


def _usage_exit(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_usage_errors_exit_3(tmp_path):
    path = write_instance(tmp_path, **wedge_fields())
    assert _usage_exit([]) == 3
    assert _usage_exit(["cut"]) == 3
    assert _usage_exit(["nonsense", path]) == 3
    assert _usage_exit(["loop", path, "--max-iters", "many"]) == 3
    for argv in (
        ["verify", path, "--samples", "0"],
        ["verify", path, "--samples", "-3"],
        ["verify", path, "--seed", "-1"],
        ["loop", path, "--max-iters", "-1"],
        ["canon", path, "--tol", "-1"],
        ["canon", path, "--tol", "nan"],
        ["cut", path, "--tol", "inf"],
    ):
        assert _usage_exit(argv) == 3, argv
    assert _usage_exit(["--help"]) == 0
    assert _usage_exit(["verify", "--help"]) == 0


def test_each_command_takes_only_its_flags(tmp_path):
    path = write_instance(tmp_path, **wedge_fields())
    flags = {
        "--tol": "1e-9",
        "--samples": "5",
        "--seed": "1",
        "--force-free-set": "CGLAMBDA",
        "--layers": "S",
        "--max-iters": "2",
    }
    takes = {
        "canon": {"--tol"},
        "cut": {"--tol"},
        "verify": {"--samples", "--seed", "--tol", "--force-free-set"},
        "plot": {"--layers", "--tol"},
        "loop": {"--max-iters", "--tol"},
    }
    for command, own in takes.items():
        for flag in set(flags) - own:
            assert _usage_exit([command, path, flag, flags[flag]]) == 3, (command, flag)


# --- parsing -----------------------------------------------------------------


def test_parse_emit_round_trip(tmp_path):
    path = write_instance(tmp_path, **wedge_fields(cone={"rays": [[1.0, 0.0], [0.0, 1.0]]}))
    inst = parse_instance(path)
    original = open(path, encoding="utf-8").read()
    assert emit_json(inst["raw"]) == original


def test_parse_rejects_unknown_keys(tmp_path):
    path = write_instance(tmp_path, **wedge_fields(), extra_key=1)
    with pytest.raises(ParseError):
        parse_instance(path)


def test_parse_rejects_missing_keys(tmp_path):
    fields = wedge_fields()
    del fields["Q"]
    path = write_instance(tmp_path, **fields)
    with pytest.raises(ParseError):
        parse_instance(path)


def test_parse_rejects_asymmetric_q(tmp_path):
    fields = wedge_fields()
    fields["Q"] = [[0.0, 1.0], [0.5, 0.0]]
    path = write_instance(tmp_path, **fields)
    with pytest.raises(ParseError):
        parse_instance(path)


def test_parse_rays_transposed_to_columns(tmp_path):
    path = write_instance(
        tmp_path, **wedge_fields(cone={"rays": [[1.0, 2.0], [3.0, 4.0]]})
    )
    inst = parse_instance(path)
    assert np.allclose(inst["rays"][:, 0], [1.0, 2.0])
    assert np.allclose(inst["rays"][:, 1], [3.0, 4.0])


# --- canon -------------------------------------------------------------------


def test_canon_wedge(tmp_path, capsys):
    path = write_instance(tmp_path, **wedge_fields())
    assert main(["canon", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["case"] == "CASE2_CR"
    assert [out["n"], out["m"], out["l"]] == [2, 1, 0]
    assert abs(np.linalg.norm(out["a"]) - 1.0) <= 1e-12


def test_canon_scale_object(tmp_path, capsys):
    # outside case 2 nothing is rescaled
    path = write_instance(
        tmp_path, dim=2, Q=[[1.0, 0.0], [0.0, -1.0]], b=[0.0, 0.0], c=-1.0, point=[3.0, 0.5]
    )
    assert main(["canon", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["case"] == "CASE1_CGLAMBDA"
    assert out["scale"] == {
        "eigenvalues": [1.0, -1.0, -1.0],
        "signature": [1, 2, 0],
        "quad_scale": 1.0,
        "case2_rescale": None,
    }
    # case 2 rescales M by μ = ‖a‖ of the unscaled form, which is
    # √(Σ V[-1, i]² / eig_i) over the positive lifted eigenpairs
    path = write_instance(tmp_path, **wedge_fields())
    assert main(["canon", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["case"] == "CASE2_CR"
    fields = wedge_fields()
    eig, V = np.linalg.eigh(spectral.lift(fields["Q"], fields["b"], fields["c"]))
    mu = math.sqrt(float(np.sum(V[-1, eig > 0] ** 2 / eig[eig > 0])))
    assert out["scale"]["case2_rescale"] == pytest.approx(mu, rel=1e-12)
    assert out["scale"]["quad_scale"] == out["scale"]["case2_rescale"] ** 2
    assert out["scale"]["signature"] == [2, 1, 0]
    assert np.allclose(out["scale"]["eigenvalues"], eig[::-1], rtol=0.0, atol=1e-12)


def test_canon_homogeneous(tmp_path, capsys):
    path = write_instance(
        tmp_path,
        dim=2,
        Q=[[1.0, 0.0], [0.0, -1.0]],
        b=[0.0, 0.0],
        c=0.0,
        point=[3.0, 0.0],
    )
    assert main(["canon", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["case"] == "HOMOG_H_NONZERO"
    assert out["h"] == [-1.0]


def test_canon_not_separable_exit_2(tmp_path):
    path = write_instance(tmp_path, **wedge_fields(point=(0.0, 0.0)))
    assert main(["canon", path]) == 2


def test_parse_error_exit_3(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["canon", str(path)]) == 3


def test_canon_non_finite_exit_3(tmp_path):
    fields = wedge_fields()
    fields["Q"] = [[math.nan, 1.0], [1.0, 0.0]]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(fields), encoding="utf-8")  # a bare NaN literal
    assert main(["canon", str(path)]) == 3


# --- cut ---------------------------------------------------------------------


def test_cut_wedge(tmp_path, capsys):
    path = write_instance(
        tmp_path, **wedge_fields(cone={"rays": [[1.0, 0.0], [0.0, 1.0]]})
    )
    assert main(["cut", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["apex_violation"] == pytest.approx(1.0, abs=1e-9)
    viol = float(np.array(out["coef"]) @ [-2.0, -2.0]) - out["rhs"]
    assert viol >= 1e-9
    assert len(out["steps"]) == 2


def test_cut_all_rays_recession_exit_4(tmp_path):
    # convex unit-disk instance with rays pointing away from the disk
    path = write_instance(
        tmp_path,
        dim=2,
        Q=[[1.0, 0.0], [0.0, 1.0]],
        b=[0.0, 0.0],
        c=-1.0,
        point=[3.0, 0.0],
        cone={"rays": [[1.0, 0.0], [0.0, 1.0]]},
    )
    assert main(["cut", path]) == 4


def test_cut_empty_s_exit_5(tmp_path):
    path = write_instance(
        tmp_path,
        dim=2,
        Q=[[1.0, 0.0], [0.0, 1.0]],
        b=[0.0, 0.0],
        c=1.0,
        point=[3.0, 0.0],
        cone={"rays": [[1.0, 0.0], [0.0, 1.0]]},
    )
    assert main(["cut", path]) == 5


def test_verify_empty_s_exit_5(tmp_path, capsys):
    # S = {‖s‖² + 1 ≤ 0} is empty: verify exits as cut does, before sampling
    path = write_instance(
        tmp_path,
        dim=2,
        Q=[[1.0, 0.0], [0.0, 1.0]],
        b=[0.0, 0.0],
        c=1.0,
        point=[3.0, 0.0],
        cone={"rays": [[-1.0, 0.0], [0.0, 1.0]]},
    )
    assert main(["cut", path]) == 5
    assert main(["verify", path]) == 5
    assert "EmptySError" in capsys.readouterr().err


def test_degenerate_quadratic_exit_10(tmp_path, capsys):
    # every lifted eigenvalue of 1e-10·s² is below the zero tolerance
    path = write_instance(
        tmp_path, dim=1, Q=[[1e-10]], b=[0.0], c=0.0, point=[1000.0],
        cone={"rays": [[-1.0]]},
    )
    for command in ("canon", "cut", "verify"):
        assert main([command, path]) == 10
        assert "DegenerateQuadraticError" in capsys.readouterr().err


def test_apex_not_interior_exit_11(tmp_path, capsys):
    # q = s₁² − s₂² − 1 at (1 + 6e-10, 0) is 1.2e-9 > --tol, but the apex
    # margin, about −6e-10, is not below −1e-9
    path = write_instance(
        tmp_path, dim=2, Q=[[1.0, 0.0], [0.0, -1.0]], b=[0.0, 0.0], c=-1.0,
        point=[1.0 + 6e-10, 0.0], cone={"rays": [[1.0, 0.0], [0.0, 1.0]]},
    )
    for command in ("cut", "verify"):
        assert main([command, path]) == 11
        assert "ApexNotInteriorError" in capsys.readouterr().err


def test_verify_maximality_precondition_exit_12(tmp_path, capsys, monkeypatch):
    def outside(*args, **kwargs):
        raise PreconditionViolatedError("no admissible rotation angles")

    monkeypatch.setattr(oracle, "asymptote_sequence", outside)
    path = write_instance(tmp_path, **wedge_fields())
    assert main(["verify", path, "--samples", "500"]) == 12
    assert "PreconditionViolatedError" in capsys.readouterr().err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# Errors that cannot reach cli.main, so they need no exit code.
_CANNOT_REACH_MAIN = {
    # parse_instance turns it into ParseError and symmetrizes Q before use
    NonSymmetricError,
    # λ, a and β are normalized before CaseData or a unit check sees them
    NotUnitError,
    # _case2_reports catches it around check_gradient; asymptote_sequence
    # takes φ's gradient only off the excluded ray, where ‖d‖ < 1 holds
    UndefinedGradientError,
    # _case2_reports passes exposing_witness only β with aᵀλ + dᵀβ < −1e-6
    NotInStrictRegionError,
}


def test_exit_codes_match_the_readme():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\d+) \| (.+) \|$", readme.split("Exit codes:")[1], re.M)
    listed = [int(code) for code, _ in rows]
    codes = [code for _, code in _EXIT_CODES]
    assert len(set(listed)) == len(listed)
    assert len(set(codes)) == len(codes)
    assert set(listed) == {0, 1} | set(codes)
    # 1 is the verdict of a failed report, never an error's code
    assert ("1", "a verification report failed") in rows
    assert 0 not in codes and 1 not in codes
    # every error either has a code or is listed as unable to reach main
    mapped = {exc for exc, _ in _EXIT_CODES}
    assert not mapped & _CANNOT_REACH_MAIN
    assert set(_subclasses(QuadfreeError)) == mapped | _CANNOT_REACH_MAIN


def test_singular_cone_exit_3(tmp_path):
    path = write_instance(
        tmp_path, **wedge_fields(cone={"rays": [[1.0, 0.0], [2.0, 0.0]]})
    )
    assert main(["cut", path]) == 3
    assert main(["verify", path, "--samples", "500"]) == 3


# --- verify ------------------------------------------------------------------


def test_verify_wedge_passes(tmp_path, capsys):
    path = write_instance(
        tmp_path, **wedge_fields(cone={"rays": [[1.0, 0.0], [0.0, 1.0]]})
    )
    assert main(["verify", path, "--samples", "2000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    names = {r["name"] for r in out["reports"]}
    assert {"freeness", "duality", "convexity", "cut_validity"} <= names


def test_verify_forced_cglambda_fails(tmp_path, capsys):
    path = write_instance(tmp_path, **wedge_fields())
    code = main(["verify", path, "--samples", "2000", "--force-free-set", "CGLAMBDA"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is False
    freeness = [r for r in out["reports"] if r["name"] == "freeness"][0]
    assert freeness["passed"] is False


def test_verify_sampling_exhausted_exit_8(tmp_path, monkeypatch):
    def exhausted(*args, **kwargs):
        raise SamplingExhaustedError("only 0 of 10000 points found")

    monkeypatch.setattr(oracle, "sample_S", exhausted)
    path = write_instance(
        tmp_path, **wedge_fields(cone={"rays": [[1.0, 0.0], [0.0, 1.0]]})
    )
    assert main(["verify", path, "--samples", "500"]) == 8


def test_verify_lambda_neg_a_instance_passes(tmp_path, capsys):
    # the wedge quadratic with the point moved onto the ray where the
    # mapped direction is exactly −a, exercising the r ≡ 0 family
    path = write_instance(tmp_path, **wedge_fields(point=(1.6 * S2, -1.6 * S2)))
    assert main(["canon", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["case"] == "CASE2_CR_LAMBDA_NEG_A"
    code = main(["verify", path, "--samples", "2000"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["passed"] is True


def test_seed_comes_from_the_flag_only(tmp_path, capsys, monkeypatch):
    path = write_instance(tmp_path, **wedge_fields())
    monkeypatch.setenv("QUADFREE_SEED", "123")
    assert main(["verify", path, "--samples", "500", "--seed", "7"]) == 0
    out = json.loads(capsys.readouterr().out)
    freeness = [r for r in out["reports"] if r["name"] == "freeness"][0]
    assert freeness["seed"] == 7
    assert main(["plot", path]) == 0


# --- plot --------------------------------------------------------------------


def test_plot_wedge_layers(tmp_path, capsys):
    path = write_instance(tmp_path, **wedge_fields())
    assert main(["plot", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["layers"]) == {"S", "freeset"}
    assert out["metadata"]["instance_sha256"]
    polys = out["layers"]["S"]["polylines"]
    assert polys, "expected S-boundary segments"
    Q = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([2.0 * S2, -2.0 * S2])
    for seg in polys[:200]:
        for v in seg:
            s = np.array(v)
            assert abs(float(s @ Q @ s + b @ s - 2.0)) <= 1e-6


def test_plot_refuses_high_dimension(tmp_path):
    for dim in (3, 4):
        path = write_instance(
            tmp_path,
            dim=dim,
            Q=np.diag([1.0, 1.0, -1.0, -1.0][:dim]).tolist(),
            b=[0.0] * dim,
            c=0.0,
            point=[3.0] + [0.0] * (dim - 1),
        )
        assert main(["plot", path]) == 3


def test_plot_rejects_unknown_layer(tmp_path):
    path = write_instance(tmp_path, **wedge_fields())
    assert main(["plot", path, "--layers", "S,cut"]) == 3


def _marching_squares_loop(F, xs, ys):
    """Cell-by-cell reference for ``cli._marching_squares``."""
    segments = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            corners = [
                (F[i, j], xs[i], ys[j]),
                (F[i + 1, j], xs[i + 1], ys[j]),
                (F[i + 1, j + 1], xs[i + 1], ys[j + 1]),
                (F[i, j + 1], xs[i], ys[j + 1]),
            ]
            pts = []
            for k in range(4):
                f0, x0, y0 = corners[k]
                f1, x1, y1 = corners[(k + 1) % 4]
                if (f0 < 0) != (f1 < 0):
                    t = f0 / (f0 - f1)
                    pts.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
            segments += [[pts[k], pts[k + 1]] for k in range(0, len(pts), 2)]
    return np.array(segments).reshape(-1, 2, 2)


def test_marching_squares_matches_cell_loop():
    rng = np.random.default_rng(0)
    F = rng.standard_normal((25, 30))
    F[rng.random(F.shape) < 0.1] = 0.0
    xs, ys = np.linspace(-2.0, 2.0, 25), np.linspace(-1.0, 3.0, 30)
    neg = F < 0
    saddles = (neg[:-1, :-1] == neg[1:, 1:]) & (neg[1:, :-1] == neg[:-1, 1:])
    assert np.any(saddles & (neg[:-1, :-1] != neg[1:, :-1]))
    assert np.array_equal(_marching_squares(F, xs, ys), _marching_squares_loop(F, xs, ys))


# --- loop --------------------------------------------------------------------


def test_loop_converges(tmp_path, capsys):
    path = write_instance(tmp_path, **loop_fields())
    assert main(["loop", path]) == 0
    lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    header, records = lines[0], lines[1:]
    assert header["objective_direction"] == "nondecreasing"
    assert records[-1].get("converged") is True
    assert records[-1]["violation"] <= 1e-6
    objs = [r["objective"] for r in records]
    assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
    assert len(records) <= 51


def test_loop_vertices_match_a_cold_solve_over_the_cuts(tmp_path, capsys):
    # min s1 + 2·s2 over the box [−3, 3]² against the unit disk: each
    # vertex after the first is re-optimised over the box and every cut
    fields = loop_fields()
    fields.update(Q=[[1.0, 0.0], [0.0, 1.0]], c=-1.0, objective=[1.0, 2.0])
    fields["linear_constraints"] = [
        {"coef": coef, "rhs": 3.0, "sense": "<="}
        for coef in ([-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0])
    ]
    path = write_instance(tmp_path, **fields)
    assert main(["loop", path, "--max-iters", "8"]) == 0
    records = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()[1:]]
    assert len(records) == 9
    A = [row["coef"] for row in fields["linear_constraints"]]
    rhs = [3.0] * 4
    for record in records:
        s, value = lp.solve_lp(np.array(fields["objective"]), np.array(A), np.array(rhs))
        assert np.allclose(record["vertex"], s, rtol=0.0, atol=1e-9)
        assert record["objective"] == pytest.approx(value, abs=1e-9)
        A.append(record["cut"]["coef"])
        rhs.append(record["cut"]["rhs"])
    # an outer approximation: below the disk's minimum −√5, and close to it
    assert -math.sqrt(5.0) - 1e-3 < records[-1]["objective"] < -math.sqrt(5.0)


def test_loop_zero_iterations_when_feasible(tmp_path, capsys):
    fields = loop_fields()
    # flip the quadratic so the first LP vertex (−3, −1) already satisfies it
    fields["Q"] = [[-1.0, 0.0], [0.0, 1.0]]
    path = write_instance(tmp_path, **fields)
    assert main(["loop", path]) == 0
    lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    records = lines[1:]
    assert len(records) == 1 and records[0]["converged"] is True


def test_loop_degenerate_vertex_exit_7(tmp_path):
    fields = loop_fields()
    fields["linear_constraints"].append(
        {"coef": [-1.0, -1.0], "rhs": 4.0, "sense": "<="}
    )
    path = write_instance(tmp_path, **fields)
    assert main(["loop", path]) == 7


def test_loop_unbounded_exit_6(tmp_path):
    fields = loop_fields()
    fields["linear_constraints"] = [
        {"coef": [1.0, 0.0], "rhs": 10.0, "sense": "<="},
        {"coef": [0.0, 1.0], "rhs": 10.0, "sense": "<="},
    ]
    path = write_instance(tmp_path, **fields)
    assert main(["loop", path]) == 6


def test_loop_infeasible_start_exit_9(tmp_path, capsys):
    # x ≤ −3 and x ≥ 3: the LP is empty before any cut
    path = write_instance(
        tmp_path,
        dim=1,
        Q=[[-1.0]],
        b=[0.0],
        c=1.0,
        point=[0.0],
        objective=[1.0],
        linear_constraints=[
            {"coef": [1.0], "rhs": -3.0, "sense": "<="},
            {"coef": [1.0], "rhs": 3.0, "sense": ">="},
        ],
    )
    assert main(["loop", path]) == 9
    assert "InfeasibleLPError" in capsys.readouterr().err


def test_loop_emptied_by_cuts_exit_5(tmp_path, capsys):
    # −s² + 1 ≤ 0 on −0.5 ≤ s ≤ 0.5: the first vertex s = −0.5 is cut by
    # s ≥ 1, which leaves no point, so the dual simplex finds no column
    path = write_instance(
        tmp_path,
        dim=1,
        Q=[[-1.0]],
        b=[0.0],
        c=1.0,
        point=[0.0],
        objective=[1.0],
        linear_constraints=[
            {"coef": [-1.0], "rhs": 0.5, "sense": "<="},
            {"coef": [1.0], "rhs": 0.5, "sense": "<="},
        ],
    )
    assert main(["loop", path]) == 5
    captured = capsys.readouterr()
    records = [json.loads(ln) for ln in captured.out.splitlines()[1:]]
    assert [r["iter"] for r in records if "cut" in r] == [0]
    assert len(records) == 1
    assert "EmptySError" in captured.err


def test_loop_requires_objective_exit_3(tmp_path):
    fields = loop_fields()
    del fields["objective"]
    path = write_instance(tmp_path, **fields)
    assert main(["loop", path]) == 3
