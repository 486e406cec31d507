import dataclasses
import json
import math
import re
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import console_cases
from quadfree import cuts, freesets, lp, oracle, spectral
from quadfree.cli import _EXIT_CODES, _marching_squares, emit_json, main, parse_instance
from quadfree.errors import (
    NonSymmetricError,
    NotUnitError,
    ParseError,
    PreconditionViolatedError,
    QuadfreeError,
    SamplingExhaustedError,
    UncertifiedStepError,
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
        ["verify", path, "--force-free-set", "CPHI"],
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


# --- console cases -----------------------------------------------------------

_CONSOLE_ROWS = console_cases.load()

# Exit codes that no row of tests/data/console.json reaches, each with the
# reason no plain instance does.
_NO_ROW = {
    12: "case2_battery draws its β inside each witness's preconditions",
}


@pytest.mark.parametrize("row", _CONSOLE_ROWS, ids=[row["name"] for row in _CONSOLE_ROWS])
def test_console_row(tmp_path, row):
    assert main(console_cases.argv(row, tmp_path)) == row["exit"], row["why"]


def test_every_exit_code_is_a_console_row():
    reached = {row["exit"] for row in _CONSOLE_ROWS}
    assert not reached & set(_NO_ROW)
    assert reached | set(_NO_ROW) == {0, 1} | {code for _, code in _EXIT_CODES}
    assert len({row["name"] for row in _CONSOLE_ROWS}) == len(_CONSOLE_ROWS)


def _printed(row, tmp_path, capsys) -> dict:
    assert main(console_cases.argv(row, tmp_path)) == 0
    return json.loads(capsys.readouterr().out)


_PRINTING_ROWS = {
    command: [row for row in _CONSOLE_ROWS if row["command"] == command and row["exit"] == 0]
    for command in ("cut", "canon")
}


@pytest.mark.parametrize(
    "row", _PRINTING_ROWS["cut"], ids=[row["name"] for row in _PRINTING_ROWS["cut"]]
)
def test_cut_prints_weights_and_apex_violation_of_its_own_cut(tmp_path, capsys, row):
    # bit for bit from the printed floats; an infinite step prints "inf"
    out = _printed(row, tmp_path, capsys)
    steps = [float(step["value"]) for step in out["steps"]]
    assert out["weights"] == [1.0 / t if t < math.inf else 0.0 for t in steps]
    fields = row["fields"] or json.loads((console_cases.DATA / row["instance"]).read_text())
    point = np.array(fields["point"], dtype=float)
    assert out["apex_violation"] == float(np.array(out["coef"]) @ point - out["rhs"])


@pytest.mark.parametrize(
    "row", _PRINTING_ROWS["canon"], ids=[row["name"] for row in _PRINTING_ROWS["canon"]]
)
def test_canon_prints_the_signature_of_a_d_h(tmp_path, capsys, row):
    out = _printed(row, tmp_path, capsys)
    signature = [len(out["a"]), len(out["d"]), len(out["h"])]
    assert [out["n"], out["m"], out["l"]] == out["scale"]["signature"] == signature


def test_canon_scale307_reads_signature_1_1_1(tmp_path, capsys):
    # pins a scale defect of ROADMAP item 1: c = −1 is a lifted eigenvalue
    (row,) = [row for row in _PRINTING_ROWS["canon"] if row["name"] == "canon-scale307"]
    out = _printed(row, tmp_path, capsys)
    assert out["scale"]["signature"] == [1, 1, 1]
    assert out["case"] == spectral.CASE_HOMOG_H_NONZERO


# --- parsing -----------------------------------------------------------------


def test_parse_emit_round_trip(tmp_path):
    path = write_instance(tmp_path, **wedge_fields(cone={"rays": [[1.0, 0.0], [0.0, 1.0]]}))
    inst = parse_instance(path)
    original = Path(path).read_text(encoding="utf-8")
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
    assert np.allclose(inst["cone"].R[:, 0], [1.0, 2.0])
    assert np.allclose(inst["cone"].R[:, 1], [3.0, 4.0])


@pytest.mark.parametrize(
    "field, value",
    [
        ("objective", ["x"]),
        ("coef", ["x"]),
        ("rhs", "x"),
        ("sense", [1]),
        ("dim", 2.7),
        ("dim", "2"),
    ],
)
def test_malformed_field_exit_3(tmp_path, capsys, field, value):
    fields = loop_fields()
    if field in ("coef", "rhs", "sense"):
        fields["linear_constraints"][0][field] = value
    else:
        fields[field] = value
    path = write_instance(tmp_path, **fields)
    assert main(["loop", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ParseError: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("c", "-1"),
        ("b", [0, True]),
        ("Q", [[1, 0], [0, "-1"]]),
        ("point", [False, 0]),
        ("c", None),
        ("b", [0, 10**400]),  # an integer no float can hold
    ],
)
def test_non_numbers_exit_3(tmp_path, capsys, field, value):
    path = write_instance(tmp_path, **wedge_fields(**{field: value}))
    assert main(["canon", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ParseError: malformed {field}: ")


def _without_sense(fields):
    del fields["linear_constraints"][0]["sense"]
    return fields


@pytest.mark.parametrize(
    "command, fields, message",
    [
        ("canon", [wedge_fields()], "instance must be a JSON object"),
        ("canon", wedge_fields(b=[0.0, 0.0, 0.0]), "b has shape (3,), need (2,)"),
        ("cut", wedge_fields(cone={"rays": [[1, 0], [0, 1]], "apex": [0, 0]}), "cone must be"),
        ("loop", {**loop_fields(), "linear_constraints": {}}, "linear_constraints must be a list"),
        ("loop", _without_sense(loop_fields()), "each constraint needs exactly coef/rhs/sense"),
        ("cut", wedge_fields(), "this command needs a cone"),
    ],
)
def test_malformed_instance_exit_3(tmp_path, capsys, command, fields, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(fields), encoding="utf-8")
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ParseError: {message}") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize(
    "Q, message",
    [
        ([[1e308, 0.0], [0.0, -1e308]], "unusable constraint: Q, b, c and point must be finite"),
        ([[0.0, 1e308], [-1e308, 0.0]], "Q: matrix is not symmetric"),
    ],
)
def test_canon_q_whose_symmetrisation_overflows_exit_3(tmp_path, capsys, Q, message):
    # every entry is finite, but Q + Qᵀ or Q − Qᵀ is not: no warning, no traceback
    path = write_instance(tmp_path, dim=2, Q=Q, b=[0.0, 0.0], c=-1.0, point=[3.0, 0.5])
    assert main(["canon", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"ParseError: {message}")


@pytest.mark.parametrize(
    "fields, message",
    [
        # the 39th draw of p ≤ 5, Q, b, c and the point, each scaled by
        # 10^U(−300, 300): finite, with Q ~1e-96, b ~1e182 and the point
        # ~1e94; the LAPACK bundled with numpy does not converge on its
        # lifted matrix (one that converges fails this case, not the code:
        # the next test holds the mapping to ParseError on any LAPACK)
        (json.loads((Path(__file__).parent / "data" / "eigh_039.json").read_text(encoding="utf-8")),
         "the lifted matrix has no eigendecomposition"),
        # q(point) overflows here too (the problem-scale item of ROADMAP.md):
        # that warning, and w̄'s own, are the only ones let through
        pytest.param(
            {"dim": 2, "Q": [[1.0, 1.0], [1.0, -1.0]], "b": [0.0, 0.0], "c": -1.0,
             "point": [1.5e308, 1.5e308], "cone": {"rays": [[1.0, 0.0], [0.0, 1.0]]}},
            "w̄ = M(point, 1) is not finite",
            marks=pytest.mark.filterwarnings(
                "ignore:overflow encountered in (multiply|matmul):RuntimeWarning:quadfree.spectral"
            ),
        ),
    ],
)
def test_an_instance_floats_cannot_represent_exits_3(tmp_path, capsys, fields, message):
    # every entry is finite, but the lifted matrix has no eigendecomposition
    # or the mapped point overflows: a ParseError, never a traceback
    path = write_instance(tmp_path, **fields)
    for command in ("canon", "cut", "verify"):
        assert main([command, path]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"ParseError: {message}")


def test_an_eigh_that_does_not_converge_exits_3(tmp_path, capsys, monkeypatch):
    # LinAlgError from eigh becomes a ParseError whatever LAPACK numpy uses
    def no_convergence(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    path = write_instance(tmp_path, **wedge_fields(cone={"rays": [[1.0, 0.0], [0.0, 1.0]]}))
    for command in ("canon", "cut", "verify"):
        assert main([command, path]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == (
            "ParseError: the lifted matrix has no eigendecomposition: Eigenvalues did not converge\n"
        )


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
    # S = {‖s‖² + 1 ≤ 0} is empty: verify and plot exit as cut does, before
    # sampling or drawing anything
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
    assert main(["plot", path]) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("EmptySError") == 3


def test_degenerate_quadratic_exit_10(tmp_path, capsys):
    # every lifted eigenvalue of 1e-10·s² is below the zero tolerance
    path = write_instance(
        tmp_path, dim=1, Q=[[1e-10]], b=[0.0], c=0.0, point=[1000.0],
        cone={"rays": [[-1.0]]},
    )
    for command in ("canon", "cut", "verify"):
        assert main([command, path]) == 10
        assert "DegenerateQuadraticError" in capsys.readouterr().err


def test_zero_quadratic_exit_10_before_the_point_is_read(tmp_path, capsys):
    # q = 0: every lifted eigenvalue vanishes, which decides before q(point) = 0 does
    path = write_instance(
        tmp_path, dim=1, Q=[[0.0]], b=[0.0], c=0.0, point=[1.0], cone={"rays": [[1.0]]}
    )
    for command in ("canon", "cut"):
        assert main([command, path]) == 10
        assert capsys.readouterr().err.startswith("DegenerateQuadraticError: ")


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
    # parse_instance turns it into ParseError; QuadraticConstraint
    # symmetrizes Q before use
    NonSymmetricError,
    # λ, a and β are normalized before CaseData or a unit check sees them
    NotUnitError,
}


def test_readme_library_example_runs():
    # every ```python block, so that no API change leaves one broken
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert examples
    for i, example in enumerate(examples):
        exec(compile(example, f"README.md, block {i}", "exec"), {})


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
    # the cone is built with the instance, so even canon refuses it
    for argv in (["canon", path], ["cut", path], ["verify", path, "--samples", "500"]):
        assert main(argv) == 3, argv


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "mu",
    [1e-307, 1e-300, 1e-150, 1e-13, 1e-12, 1e12, 1e155, 1e300]
    + [pytest.param((1.0, m), id=f"1,{m:g}") for m in (1e-300, 1e-11, 1e11, 1e155)],
)
def test_verify_passes_whatever_the_rays_length(tmp_path, capsys, mu):
    # the wedge's rays scaled by mu, or each by its entry of mu: the cut is
    # the same, and so is the cut-validity check, whose ray norms once
    # overflowed at 1e155; cond of the raw rays rejected (1, 1e11)
    reports = []
    for scale in (1.0, mu):
        s1, s2 = np.broadcast_to(scale, 2)
        path = write_instance(tmp_path, **wedge_fields(cone={"rays": [[s1, 0.0], [0.0, s2]]}))
        assert main(["verify", path]) == 0
        out = json.loads(capsys.readouterr().out)
        reports.append([r for r in out["reports"] if r["name"] == "cut_validity"][0])
    base, scaled = reports
    assert scaled["passed"] and scaled["samples"] == base["samples"]
    assert scaled["worst_residual"] == pytest.approx(base["worst_residual"], rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rays", [[[1e-308, 0.0], [0.0, 1e-308]], [[1e-320, 0.0], [0.0, 1e-320]], [[1e-308, 0.0], [0.0, 1.0]]])
def test_a_step_too_long_for_a_float_exits_13(tmp_path, capsys, rays):
    # the wedge's steps along these rays exceed the largest float: each
    # such ray is named and refused, never given a weight of 0
    path = write_instance(tmp_path, **wedge_fields(cone={"rays": rays}))
    assert main(["cut", path]) == 13
    err = capsys.readouterr().err
    assert "UncertifiedStepError" in err and "do not fit a float" in err and "Traceback" not in err


# q(point) itself overflows on both instances, a fault of large points
# still open (the problem-scale item of ROADMAP.md); that warning is the
# only one let through
@pytest.mark.filterwarnings("ignore:overflow encountered in (multiply|matmul):RuntimeWarning:quadfree.spectral")
@pytest.mark.parametrize(
    "fields",
    [
        {"Q": [[1.0, 0.0], [0.0, -1.0]], "c": -1.0, "point": [1e155, 0.0]},
        {"Q": [[1e300, 0.0], [0.0, -1e300]], "c": -1e300, "point": [1e100, 0.0]},
    ],
)
def test_lambda_is_a_unit_vector_where_x_bar_squared_overflows(tmp_path, capsys, fields):
    # ‖x̄‖² overflows at these points, which once gave λ = 0 and a NotUnitError
    # traceback from cut and verify; x̄ is scaled by a power of two first
    cone = {"rays": [[1.0, 0.0], [0.0, 1.0]]}
    path = write_instance(tmp_path, dim=2, b=[0.0, 0.0], cone=cone, **fields)
    assert main(["canon", path]) == 0
    assert json.loads(capsys.readouterr().out)["lambda"] == [1.0]
    assert main(["cut", path]) == 13
    assert main(["verify", path]) in (8, 13)
    err = capsys.readouterr().err
    assert "NotUnitError" not in err and "Traceback" not in err


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


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_verify_crphi_asymptote_reports_match_one_row_calls(seed, capsys, monkeypatch):
    # tests/data/crphi.json (CASE2_CR, m = 2) is the console instance whose
    # battery runs asymptote_sequence over two-coordinate β: verify's 10
    # reports are, bit for bit, those of one-row calls on the same β
    real, calls = oracle.asymptote_sequence, []
    monkeypatch.setattr(
        oracle, "asymptote_sequence", lambda *args: calls.append(args) or real(*args)
    )
    path = str(Path(__file__).parent / "data" / "crphi.json")
    assert main(["verify", path, "--seed", str(seed)]) == 0
    out = json.loads(capsys.readouterr().out)
    ((cd, B, N),) = calls
    one_row = [emit_json(real(cd, beta, N)[2][0].as_dict()) for beta in B]
    assert len(one_row) == 10
    assert [
        emit_json(r) for r in out["reports"] if r["name"] == "asymptote_sequence"
    ] == one_row


def test_seed_comes_from_the_flag_only(tmp_path, capsys, monkeypatch):
    path = write_instance(tmp_path, **wedge_fields())
    monkeypatch.setenv("QUADFREE_SEED", "123")
    assert main(["verify", path, "--samples", "500", "--seed", "7"]) == 0
    out = json.loads(capsys.readouterr().out)
    freeness = [r for r in out["reports"] if r["name"] == "freeness"][0]
    assert freeness["seed"] == 7
    assert main(["plot", path]) == 0


# --- verify's cut check on its own thread ------------------------------------

_VERIFY_ROWS = [row for row in _CONSOLE_ROWS if row["command"] == "verify"]


def _verify_wedge(tmp_path):
    """``verify`` on the wedge with the unit rays, 500 freeness samples."""
    path = write_instance(tmp_path, **wedge_fields(cone={"rays": [[1.0, 0.0], [0.0, 1.0]]}))
    return main(["verify", path, "--samples", "500"])


@pytest.mark.parametrize(
    "freeness_raises, cut_raises, code",
    [(False, False, 0), (True, False, 8), (False, True, 13), (True, True, 8)],
)
def test_verify_exits_as_if_its_checks_ran_in_turn(tmp_path, monkeypatch, freeness_raises, cut_raises, code):
    # the freeness check's exception wins, the cut check's is raised when
    # the freeness check ends normally, and the cut check's thread, slowed
    # so that it outlives the freeness check, is joined on every path
    real_check = oracle.check_cut_validity

    def slow_check(*args, **kwargs):
        time.sleep(0.05)
        if cut_raises:
            raise UncertifiedStepError("no step certified")
        return real_check(*args, **kwargs)

    def exhausted(*args, **kwargs):
        raise SamplingExhaustedError("only 0 points")

    monkeypatch.setattr(oracle, "check_cut_validity", slow_check)
    if freeness_raises:
        monkeypatch.setattr(oracle, "freeness_samples", exhausted)
    threads = threading.active_count()
    assert _verify_wedge(tmp_path) == code
    assert threading.active_count() == threads


def test_verify_runs_its_cut_check_beside_its_freeness_check(tmp_path, monkeypatch):
    # the freeness check waits until the cut check has started: run in
    # turn, the cut check would start only after the wait timed out
    cut_started, threads = threading.Event(), {}
    real_cut, real_samples = cuts.intersection_cut, oracle.freeness_samples

    def cut(*args):
        threads["cut"] = threading.get_ident()
        cut_started.set()
        return real_cut(*args)

    def samples(*args):
        threads["freeness"] = threading.get_ident()
        assert cut_started.wait(timeout=30)
        return real_samples(*args)

    monkeypatch.setattr(cuts, "intersection_cut", cut)
    monkeypatch.setattr(oracle, "freeness_samples", samples)
    assert _verify_wedge(tmp_path) == 0
    assert threads["freeness"] == threading.get_ident() != threads["cut"]


def test_verify_without_a_cone_starts_no_thread(tmp_path, monkeypatch, capsys):
    def start(self):
        raise AssertionError(f"verify without a cone started {self.name}")

    monkeypatch.setattr(threading.Thread, "start", start)
    path = write_instance(tmp_path, **wedge_fields())
    assert main(["verify", path, "--samples", "500"]) == 0
    assert [r["name"] for r in json.loads(capsys.readouterr().out)["reports"]][-1] != "cut_validity"


@pytest.mark.filterwarnings("error")
def test_a_warning_the_cut_check_turns_into_an_error_reaches_the_caller(tmp_path, monkeypatch):
    raised = []

    def warn(*args, **kwargs):
        try:
            warnings.warn("overflow encountered in the cut check", RuntimeWarning)
        except RuntimeWarning as exc:
            raised.append((exc, threading.get_ident()))
            raise

    monkeypatch.setattr(oracle, "check_cut_validity", warn)
    with pytest.raises(RuntimeWarning) as caught:
        _verify_wedge(tmp_path)
    ((exc, ident),) = raised
    assert caught.value is exc and ident != threading.get_ident()


def test_the_cut_check_runs_under_the_callers_errstate(tmp_path, monkeypatch):
    # NumPy's errstate is a context variable; a thread started without a
    # copy of the caller's context would warn here instead of raising
    def overflow(*args, **kwargs):
        return np.float64(1e308) * 10.0

    monkeypatch.setattr(oracle, "check_cut_validity", overflow)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _verify_wedge(tmp_path)


@pytest.mark.parametrize("row", _VERIFY_ROWS, ids=[row["name"] for row in _VERIFY_ROWS])
def test_verify_row_prints_the_same_twice(tmp_path, capsys, row):
    # the second run switches threads about 500 times as often
    runs, interval = [], sys.getswitchinterval()
    for switch in (interval, 1e-5):
        sys.setswitchinterval(switch)
        try:
            code = main(console_cases.argv(row, tmp_path))
        finally:
            sys.setswitchinterval(interval)
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] == row["exit"]


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


@pytest.mark.parametrize("layers", ["", ","])
def test_plot_with_no_layer_named_prints_none(tmp_path, capsys, layers):
    path = write_instance(tmp_path, **wedge_fields())
    assert main(["plot", path, "--layers", layers]) == 0
    assert json.loads(capsys.readouterr().out)["layers"] == {}


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
        s, value = lp.optimal_basis(np.array(fields["objective"]), np.array(A), np.array(rhs)).vertex()
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


def _loop_records(capsys):
    return [json.loads(ln) for ln in capsys.readouterr().out.splitlines()[1:]]


def test_loop_cuts_from_the_basis_at_a_vertex_with_three_tight_rows(tmp_path, capsys):
    # −s1 − s2 ≤ 4 is a third row tight at the first vertex (−3, −1): the
    # basis holds two of the three slacks nonbasic, and their cone cuts
    fields = loop_fields()
    fields["linear_constraints"].append(
        {"coef": [-1.0, -1.0], "rhs": 4.0, "sense": "<="}
    )
    path = write_instance(tmp_path, **fields)
    assert main(["loop", path]) == 0
    first = _loop_records(capsys)[0]
    inst = parse_instance(path)
    A, rhs = inst["A"], inst["rhs"]
    basis = lp.optimal_basis(inst["objective"], A, rhs)
    s_star, _ = basis.vertex()
    assert first["vertex"] == s_star.tolist()
    tight = np.flatnonzero(A @ s_star == rhs)
    assert len(tight) == 3 and np.isin(basis.N - basis.p, tight).all()
    cone = cuts.SimplicialCone(apex=s_star, R=basis.cone_rays(), tight_rows=basis.A[basis.N])
    cert = cuts.separate(dataclasses.replace(inst["qc"], point=s_star), cone)
    assert first["cut"] == {"coef": cert.coef.tolist(), "rhs": cert.rhs}
    assert oracle.check_cut_validity(inst["qc"], cert).passed


def test_loop_with_an_equality_row(tmp_path, capsys):
    # s2 = −1 as one "=" row: both of its ≤ halves are tight at every
    # vertex, and the cone takes the one whose slack is nonbasic
    fields = loop_fields()
    fields["linear_constraints"] = [
        {"coef": [-1.0, 0.0], "rhs": 3.0, "sense": "<="},
        {"coef": [0.0, 1.0], "rhs": -1.0, "sense": "="},
        {"coef": [1.0, 0.0], "rhs": 10.0, "sense": "<="},
    ]
    path = write_instance(tmp_path, **fields)
    assert main(["loop", path]) == 0
    records = _loop_records(capsys)
    assert "cut" in records[0] and records[-1]["converged"] is True
    assert all(r["vertex"][1] == -1.0 for r in records)
    assert records[-1]["vertex"] == pytest.approx([-1.0, -1.0], abs=1e-9)


def test_loop_free_coordinate_exit_7(tmp_path, capsys):
    # no row bounds s2, so s2 = 0 is fixed by no tight row: a singular cone
    fields = loop_fields()
    fields["objective"] = [1.0, 0.0]
    fields["linear_constraints"] = [
        {"coef": [-1.0, 0.0], "rhs": 3.0, "sense": "<="},
        {"coef": [1.0, 0.0], "rhs": 10.0, "sense": "<="},
    ]
    path = write_instance(tmp_path, **fields)
    assert main(["loop", path]) == 7
    err = capsys.readouterr().err
    assert err.startswith("DegenerateVertexError: ") and "singular" in err


def test_loop_022_runs_past_the_row_a_tight_scan_missed(capsys):
    # the benchmark's loop/022 (p = 7): a 1e-7 tight-row scan lost a row after
    # iteration 158 of 400; read from the basis, with each cut row stored
    # scaled by its unit exponents, its nearly parallel cuts keep the cone
    # usable up to the optimum a 400-start SLSQP run finds, 0.087457834
    path = str(Path(__file__).parent / "data" / "loop_022.json")
    code = main(["loop", path, "--max-iters", "400"])
    captured = capsys.readouterr()
    records = [json.loads(ln) for ln in captured.out.splitlines()[1:]]
    assert [r["iter"] for r in records] == list(range(len(records)))
    assert records[-1]["iter"] >= 159
    assert code == 0, captured.err
    assert records[-1]["converged"]
    assert abs(records[-1]["objective"] - 0.087457834) <= 1e-6


def test_loop_025_certifies_a_step_by_its_slope_in_two_margin_calls(capsys, monkeypatch):
    # a cut of the benchmark's loop/025 (p = 7), kept as its boundary_steps
    # input because the loop's four cuts certify in one margin call each at
    # the vertices the LP rounds today: a CLambda ray whose root t* = 1.88e-4
    # and the four points 4 ulps to 2⁻³² relative below it have margin
    # 4.4e-16 > 0 by rounding; the point its slope places is certified
    with open(Path(__file__).parent / "data" / "loop_025_slope_ray.json", encoding="utf-8") as fh:
        rec = json.load(fh)
    fs = freesets.CLambda(np.array(rec["lam"]), rec["m"])
    apex, rays = np.array(rec["apex"]), np.array(rec["rays"])
    calls, margin = [], freesets.FreeSetDescriptor.margin

    def counted_margin(self, w):
        calls.append(1)
        return margin(self, w)

    monkeypatch.setattr(freesets.FreeSetDescriptor, "margin", counted_margin)
    steps, residuals = freesets.boundary_steps(fs, apex, rays)
    assert len(calls) == 2
    t, below = freesets._roots(fs, apex, rays)
    assert t[-1] == pytest.approx(1.8829e-4, rel=1e-4)
    assert steps[-1] == below(np.array([len(rays) - 1]), 1e-9)[0] < t[-1] * (1.0 - 2.0**-32)
    assert -1e-9 <= residuals[-1] <= 0.0

    path = str(Path(__file__).parent / "data" / "loop_025.json")
    assert main(["loop", path]) == 0
    records = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()[1:]]
    assert [r["iter"] for r in records] == list(range(5)) and records[-1]["converged"]
    assert records[-1]["objective"] == pytest.approx(6.446126051979341, rel=1e-8)


def test_loop_converges_at_a_tolerance_above_its_floor(capsys):
    # with --tol 1e-5 the vertex at q = 2.68e-6 is converged: there is
    # nothing to separate at q ≤ tol, so the loop stops at q ≤ max(1e-6, tol)
    path = str(Path(__file__).parent / "data" / "loop_025.json")
    assert main(["loop", path, "--tol", "1e-5"]) == 0
    records = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()[1:]]
    assert records[-1]["converged"] and records[-1]["violation"] <= 1e-5


def test_uncertified_step_exit_13(tmp_path, capsys, monkeypatch):
    # a norm cone whose pieces miss the root leaves its rays uncertified
    class _NoRoots(freesets.CLambda):
        def _piece_table(self, W):
            return [], []

    monkeypatch.setattr(freesets, "CLambda", _NoRoots)
    path = write_instance(
        tmp_path, dim=2, Q=[[1.0, 0.0], [0.0, -1.0]], b=[0.0, 0.0], c=0.0,
        point=[3.0, 0.0], cone={"rays": [[-1.0, 1.0], [-1.0, -1.0]]},
    )
    assert main(["cut", path]) == 13
    err = capsys.readouterr().err
    assert "UncertifiedStepError" in err and "Traceback" not in err


def test_loop_ill_conditioned_cone_exit_7(tmp_path, capsys, monkeypatch):
    # rays that miss −A_N⁻¹ by more than the cone's bound fail its check
    # on ‖A_N R + I‖: exit 7
    cone_rays = lp.Basis.cone_rays
    monkeypatch.setattr(lp.Basis, "cone_rays", lambda self: cone_rays(self) * (1.0 + 1e-5))
    path = write_instance(tmp_path, **loop_fields())
    assert main(["loop", path]) == 7
    err = capsys.readouterr().err
    assert "DegenerateVertexError" in err and "ill-conditioned" in err and "Traceback" not in err


def test_loop_unbounded_exit_6(tmp_path):
    fields = loop_fields()
    fields["linear_constraints"] = [
        {"coef": [1.0, 0.0], "rhs": 10.0, "sense": "<="},
        {"coef": [0.0, 1.0], "rhs": 10.0, "sense": "<="},
    ]
    path = write_instance(tmp_path, **fields)
    assert main(["loop", path]) == 6


def test_loop_without_rows_exit_6(tmp_path, capsys):
    fields = loop_fields()
    fields["linear_constraints"] = []
    path = write_instance(tmp_path, **fields)
    assert main(["loop", path]) == 6
    err = capsys.readouterr().err
    assert err.startswith("UnboundedLPError: ") and "Traceback" not in err


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
    # the single row 0ᵀs ≤ −1: phase 1 finds no column to pivot on
    fields = {**loop_fields(), "linear_constraints": [{"coef": [0.0, 0.0], "rhs": -1.0, "sense": "<="}]}
    assert main(["loop", write_instance(tmp_path, "zero_row.json", **fields)]) == 9
    err = capsys.readouterr().err
    assert err == "InfeasibleLPError: no point satisfies the rows of the LP\n"


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
