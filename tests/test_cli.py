import json
import math

import numpy as np
import pytest

from quadfree import lp, oracle
from quadfree.cli import emit_json, main, parse_instance
from quadfree.errors import InfeasibleLPError, ParseError, SamplingExhaustedError

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
        "plot": {"--layers", "--seed", "--tol"},
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

    monkeypatch.setattr(oracle, "check_cut_validity", exhausted)
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
    assert json.loads(capsys.readouterr().out)["metadata"]["seed"] == 0


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


def test_loop_emptied_by_cuts_exit_5(tmp_path, monkeypatch):
    solve = lp.solve_lp
    calls = []

    def empty_after_first(*args):
        calls.append(args)
        if len(calls) > 1:
            raise InfeasibleLPError("phase 1 ended with positive artificial mass")
        return solve(*args)

    monkeypatch.setattr(lp, "solve_lp", empty_after_first)
    path = write_instance(tmp_path, **loop_fields())
    assert main(["loop", path]) == 5
    assert len(calls) == 2


def test_loop_requires_objective_exit_3(tmp_path):
    fields = loop_fields()
    del fields["objective"]
    path = write_instance(tmp_path, **fields)
    assert main(["loop", path]) == 3
