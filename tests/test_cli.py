import copy
import json
import logging
import math
import warnings

import numpy as np
import pytest

from svikit import vopt
from svikit.cli import main
from svikit.geometry import PolyCone, orthant
from svikit.problems import (boxed_rotation_problem, load_problem_file,
                             rotation_inclusion_problem, sine_deviation_spec,
                             triangle_vop_spec, write_problem_file)
from svikit.setmaps import Ball, Box, MatrixTable, Parametric
from svikit.vopt import AffineFamily, VopSpec


# a ball whose knot radii are vectors: rejected at load, not mid-solve
RADIUS_KNOT_VECTORS = {"variant": "ball", "knots": [
    {"p": 0.0, "center": [0.0, 0.0], "radius": [1.0, 2.0]},
    {"p": 7.0, "center": [0.0, 0.0], "radius": [1.0, 2.0]}]}


@pytest.fixture(scope="module")
def problem_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("problems")
    paths = {}
    for name, prob in (("rotation", rotation_inclusion_problem()),
                       ("boxed", boxed_rotation_problem()),
                       ("triangle", triangle_vop_spec()),
                       ("deviation", sine_deviation_spec(65))):
        path = d / f"{name}.json"
        write_problem_file(path, prob)
        paths[name] = str(path)
    return paths


def test_problem_file_round_trip(problem_files):
    for name in ("rotation", "boxed", "triangle", "deviation"):
        loaded = load_problem_file(problem_files[name])
        with open(problem_files[name]) as fh:
            raw = json.load(fh)
        assert loaded.to_dict() == raw


def test_solve_verb(problem_files, capsys):
    rc = main(["solve", "--problem", problem_files["rotation"],
               "--p", "1.0", "--x0", "0,0", "--alpha", "1.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "bound_holds = true" in out
    assert "alpha_source = given\ncaristi_certified = true" in out
    merit_line = [l for l in out.splitlines() if l.startswith("merit_final")][0]
    assert float(merit_line.split("=")[1]) <= 1e-8


def test_solve_verb_on_a_sampled_alpha_tilde_is_not_certified(problem_files, tmp_path, capsys):
    # the boxed file without its declared bound samples alpha_tilde, which
    # bounds nothing: the run descends on the same constants, uncertified
    data = json.loads(open(problem_files["boxed"]).read())
    del data["declared_alpha"]
    path = tmp_path / "bare_boxed.json"
    path.write_text(json.dumps(data))
    argv = ["solve", "--problem", str(path), "--p", "0.3", "--x0", "3,3"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "alpha = 1.883125  kappa = 0.794375" in lines
    assert lines[-2:] == ["alpha_source = sampled", "caristi_certified = false"]
    assert main([*argv[:2], problem_files["boxed"], *argv[3:]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["alpha_source = declared", "caristi_certified = true"]


# a start point per bundled file for svi solve, or svi vopt --p on a vector-optimization file
CATALOG_RUNS = {"rotation": ("solve", "0.3", "1,1"), "boxed": ("solve", "0.3", "1,1"),
                "triangle": ("vopt", "0.0", "0.3,0.3"), "deviation": ("vopt", "1.0", "0.84")}


@pytest.mark.parametrize("name, declared", [
    ("rotation", True), ("rotation", False), ("boxed", True), ("boxed", False),
    ("triangle", False), ("deviation", False)])  # the vector-optimization files declare none
def test_solve_and_verify_props_agree_on_alpha_tilde(problem_files, tmp_path, capsys, name,
                                                     declared):
    # each bundled file, and the same file with its declared_alpha removed:
    # a declared alpha_tilde is the one the run uses, certified, and the one
    # verify-props prints; without it the run is uncertified on a sampled or
    # floor constant, and verify-props reads UNKNOWN
    data = json.loads(open(problem_files[name]).read())
    alpha = data.pop("declared_alpha", None)
    if declared:
        data["declared_alpha"] = alpha
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    verb, p, x0 = CATALOG_RUNS[name]
    argv = [verb, "--problem", str(path), "--p", p, "--x0", x0]
    assert main(argv) == 0
    run = capsys.readouterr().out.splitlines()
    assert main(["verify-props", "--problem", str(path)]) == 0
    props = capsys.readouterr().out.splitlines()
    if declared:
        assert run[-2:] == ["alpha_source = declared", "caristi_certified = true"]
        assert f"alpha_tilde = {alpha:.6g} (declared)" in props
        # the run's constants are those of the declared value given as a flag
        assert main([*argv, "--alpha-tilde", repr(alpha)]) == 0
        constants = [l for l in run if l.startswith("alpha = ")]
        assert constants == [l for l in capsys.readouterr().out.splitlines()
                             if l.startswith("alpha = ")]
    else:
        source = [l for l in run if l.startswith("alpha_source = ")]
        assert source in (["alpha_source = sampled"], ["alpha_source = floor"])
        assert "caristi_certified = false" in run
        assert ("UNKNOWN  alpha_tilde: none declared (svi estimate-inc brackets a sampled one)"
                in props)
        assert not any(l.startswith("alpha_tilde = ") for l in props)


def test_solve_verb_exits_2_when_no_step_is_found(problem_files, capsys):
    # alpha = 15 asks for k = 14, and k = 7 after the retry: both above the
    # merit's Lipschitz bound ||M|| + ell = 3.5, so no step can pass the rule
    rc = main(["solve", "--problem", problem_files["rotation"], "--p", "0.3",
               "--x0=0,0", "--alpha", "15"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("solver failure")


def test_sweep_verb_writes_csv(problem_files, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    rc = main(["sweep", "--problem", problem_files["rotation"],
               "--grid", "0:6.2832:65", "--x0", "0,0", "--alpha", "1.5",
               "--out", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "p,x_1,x_2,merit,bound_rhs,bound_holds,solved"
    assert len(lines) == 66
    assert all(line.split(",")[6] == "true" for line in lines[1:])


def test_sweep_verb_exits_2_on_unsolved_rows(tmp_path, capsys):
    # a narrow box leaves R(p) and S(p) apart at every row (half width 0.2),
    # or from p = 0.5 on (0.5): a trailing unsolved run
    for half_width, solved, runs in ((0.2, 0, "[(0.0, 1.0)]"), (0.5, 1, "[(0.5, 1.0)]")):
        path = tmp_path / f"boxed_{half_width}.json"
        write_problem_file(path, boxed_rotation_problem(half_width=half_width))
        rc = main(["sweep", "--problem", str(path), "--grid", "0:1:3", "--x0", "0,0"])
        out = capsys.readouterr().out
        assert rc == 2
        assert f"rows = 3  solved = {solved}" in out
        assert f"unsolved_runs = {runs}" in out


def test_a_back_off_with_no_room_left_is_a_solver_failure(tmp_path, capsys):
    # alpha one float above 1: the back-off's halfway alpha rounds onto 1,
    # so the run stops no_step rather than divide by k = 0
    problem = rotation_inclusion_problem().to_dict()
    problem["matrix"] = {"variant": "constant", "matrix": [[0.0, 0.0], [0.0, 0.0]]}
    path = tmp_path / "zero_matrix.json"
    path.write_text(json.dumps(problem))
    alpha = ["--x0", "0.1,0.1", "--alpha", "1.0000000000000002"]
    assert main(["solve", "--problem", str(path), "--p", "0.3", *alpha]) == 2
    assert "solver failure: no_step" in capsys.readouterr().err
    assert main(["sweep", "--problem", str(path), "--grid", "0:1:2", *alpha]) == 2
    assert "rows = 2  solved = 0" in capsys.readouterr().out


@pytest.mark.parametrize("verb, pair", [("estimate-inc", ("--p", "--p-grid")),
                                        ("vopt", ("--p", "--grid"))])
def test_a_flag_pair_takes_one_of_its_flags(problem_files, capsys, verb, pair):
    # neither flag, or both, is a usage error that names the two
    name, x0 = ("rotation", []) if verb == "estimate-inc" else ("triangle", ["--x0", "0.3,0.3"])
    argv = [verb, "--problem", problem_files[name], *x0]
    for given in ([], [pair[0], "0", pair[1], "0:1:3"]):
        capsys.readouterr()
        assert main([*argv, *given]) == 1
        err = capsys.readouterr().err
        assert all(flag in err for flag in pair), err


def test_unexpected_exception_is_an_internal_error(problem_files, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("svikit.cli.solve", broken)
    rc = main(["solve", "--problem", problem_files["rotation"], "--p", "0", "--x0", "0,0"])
    assert rc == 3
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


@pytest.mark.parametrize("name, level", [("basic_format", logging.WARNING),
                                         ("_styles", logging.WARNING),
                                         ("verbose", logging.WARNING), ("info", logging.INFO)])
def test_svi_log_takes_level_names_only(problem_files, monkeypatch, capsys, name, level):
    # logging.BASIC_FORMAT, a format string, made basicConfig raise outside
    # main's try; a name that is no level falls back to warning.  The root
    # logger gets no handler from the test runner here, so basicConfig acts
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])
    monkeypatch.setenv("SVI_LOG", name)
    old = root.level
    try:
        assert main(["verify-props", "--problem", problem_files["rotation"]]) == 0
        assert root.level == level
    finally:
        root.setLevel(old)


def test_missing_problem_file_exit_code(capsys):
    rc = main(["solve", "--problem", "/nonexistent/missing.json",
               "--p", "0", "--x0", "0,0"])
    assert rc == 1
    assert "missing.json" in capsys.readouterr().err


def test_usage_errors(problem_files, tmp_path, capsys):
    assert main(["solve", "--problem", problem_files["rotation"],
                 "--p", "0"]) == 1  # missing --x0
    assert main(["sweep", "--problem", problem_files["rotation"],
                 "--grid", "nonsense", "--x0", "0,0"]) == 1
    assert main(["solve", "--problem", problem_files["triangle"],
                 "--p", "0", "--x0", "0,0"]) == 1  # wrong problem kind
    assert main(["solve", "--problem", str(tmp_path),
                 "--p", "0", "--x0", "0,0"]) == 1  # a directory, not a problem file
    assert main(["vopt", "--problem", problem_files["rotation"],
                 "--p", "0", "--x0", "0,0"]) == 1
    # malformed grids, points and counts are usage errors, not internal ones
    rot, tri, boxed = (problem_files[k] for k in ("rotation", "triangle", "boxed"))
    bad_args = [
        ["sweep", "--problem", rot, "--grid", "1:0:3", "--x0", "0,0"],
        ["sweep", "--problem", rot, "--grid", "0:nan:3", "--x0", "0,0"],
        ["sweep", "--problem", rot, "--grid=-inf:0:3", "--x0", "0,0"],
        ["solve", "--problem", rot, "--p", "nan", "--x0", "0,0"],
        ["vopt", "--problem", tri, "--p", "inf", "--x0", "0.3,0.3"],
        ["solve", "--problem", rot, "--p", "0", "--x0", "nan,0"],
        ["solve", "--problem", rot, "--p", "0", "--x0", "0"],
        ["sweep", "--problem", rot, "--grid", "0:1:3", "--x0", "0,0,0"],
        ["vopt", "--problem", tri, "--p", "0", "--x0", "0.3"],
        ["estimate-inc", "--problem", rot, "--p", "0.4", "--x-samples", "0"],
        ["estimate-inc", "--problem", rot, "--p", "0.4", "--x-samples", "-2"],
        ["verify-props", "--problem", rot, "--trials", "-3"],  # no such flag
        ["verify-props", "--problem", rot, "--seed", "1"],
        ["vopt", "--problem", tri, "--p", "0", "--x0", "0.3,0.3",
         "--image-sampling", "33"],
        ["solve", "--problem", rot, "--p", "0.3", "--x0", "1,1", "--alpha", "-1"],
        ["solve", "--problem", rot, "--p", "0.3", "--x0", "1,1", "--tol", "nan"],
        ["solve", "--problem", rot, "--p", "0.3", "--x0", "1,1", "--tol", "-1"],
        ["solve", "--problem", rot, "--p", "0.3", "--x0", "1,1", "--alpha", "nan"],
        ["solve", "--problem", rot, "--p", "0.3", "--x0", "1,1", "--alpha-tilde", "nan"],
        # in range for the flag, but outside the boxed problem's interval
        ["solve", "--problem", boxed, "--p", "0.3", "--x0", "1,1", "--alpha", "100"],
        ["solve", "--problem", boxed, "--p", "0.3", "--x0", "1,1", "--alpha-tilde", "1.0001"],
        # each verb takes only the flags it reads
        ["estimate-inc", "--problem", rot, "--p", "0.4", "--mode", "decrease"],
        ["estimate-inc", "--problem", rot, "--p", "0.4", "--alpha", "7"],
        ["estimate-inc", "--problem", rot, "--p", "0.4", "--alpha-tilde", "7"],
        ["estimate-inc", "--problem", rot, "--p", "0.4", "--tol", "3"],
        ["verify-props", "--problem", rot, "--out", str(tmp_path / "f.csv")],
        ["verify-props", "--problem", rot, "--alpha", "2"],
        ["solve", "--problem", rot, "--p", "0.3", "--x0", "1,1", "--out", str(tmp_path / "f.csv")],
        ["vopt", "--problem", tri, "--p", "0", "--x0", "0.3,0.3", "--out", str(tmp_path / "f.csv")],
        ["vopt", "--problem", tri, "--p", "0", "--grid", "0:1:3", "--x0", "0.3,0.3"],
        ["vopt", "--problem", problem_files["deviation"], "--p", "0", "--x0", "0",
         "--orientation", "cw"],
        ["estimate-inc", "--problem", rot, "--p", "0.4", "--p-grid", "0:1:3"],
    ]
    # parameters outside a knot table's range: the problem data does not
    # cover them
    knotted = rotation_inclusion_problem().to_dict()
    knotted["matrix"] = {"variant": "interpolated", "knots": [
        {"p": 0.0, "matrix": [[3.0, 0.0], [0.0, 3.0]]},
        {"p": 7.0, "matrix": [[0.0, -3.0], [3.0, 0.0]]}]}
    knotted_ball = triangle_vop_spec().to_dict()
    knotted_ball["constraint"] = {"variant": "ball", "knots": [
        {"p": 0.0, "center": [0.0, 0.0], "radius": 1.0},
        {"p": 7.0, "center": [1.0, 0.0], "radius": 0.5}]}
    knotted_path, ball_path = tmp_path / "knotted.json", tmp_path / "knotted_ball.json"
    knotted_path.write_text(json.dumps(knotted))
    ball_path.write_text(json.dumps(knotted_ball))
    bad_args += [
        ["solve", "--problem", str(knotted_path), "--p", "8", "--x0", "0,0"],
        ["sweep", "--problem", str(knotted_path), "--grid", "6:8:3", "--x0", "0,0"],
        ["estimate-inc", "--problem", str(knotted_path), "--p", "8"],
        ["vopt", "--problem", str(ball_path), "--p", "8", "--x0", "0.3,0.3"],
    ]
    # finite data whose images overflow: the error names the parameter
    huge_scale, huge_fan = (rotation_inclusion_problem().to_dict() for _ in range(2))
    huge_scale["matrix"]["scale"] = 1e308
    huge_fan["fan"]["matrices"] = [[[1e308, 0.0], [0.0, 1e308]], [[-1e308, 0.0], [0.0, -1e308]]]
    scale_path, fan_path = tmp_path / "huge_scale.json", tmp_path / "huge_fan.json"
    scale_path.write_text(json.dumps(huge_scale))
    fan_path.write_text(json.dumps(huge_fan))
    # finite images whose merit overflows (vertices about -1.3e200)
    huge_merit = rotation_inclusion_problem().to_dict()
    huge_merit["matrix"]["scale"] = 1e200
    merit_path = tmp_path / "huge_merit.json"
    merit_path.write_text(json.dumps(huge_merit))
    # a cone generator whose norm overflows is rejected at load
    huge_cone = rotation_inclusion_problem().to_dict()
    huge_cone["cone"]["generators"] = [[1e308, 0.0], [0.0, 1.0]]
    cone_path = tmp_path / "huge_cone.json"
    cone_path.write_text(json.dumps(huge_cone))
    bad_args += [
        ["verify-props", "--problem", str(cone_path)],
        ["solve", "--problem", str(cone_path), "--p", "2", "--x0", "1,1"],
    ]
    overflows = [
        ["solve", "--problem", str(merit_path), "--p", "2", "--x0", "1,1", "--alpha", "1.5"],
        ["sweep", "--problem", str(merit_path), "--grid", "0:2:3", "--x0", "1,1",
         "--alpha", "1.5"],
        ["sweep", "--problem", str(scale_path), "--grid", "0:1:3", "--x0", "0,0"],
        ["estimate-inc", "--problem", str(scale_path), "--p", "0.4"],
        ["estimate-inc", "--problem", str(fan_path), "--p", "0.4"],
    ]
    # no numpy warning escapes the CLI, with or without a caller's errstate
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for argv in bad_args + overflows:
            capsys.readouterr()
            assert main(argv) == 1, argv
            if argv in overflows:
                assert "error: the image at p = " in capsys.readouterr().err, argv
        # verify-props images nothing: it reads the data's constants, which are finite
        assert main(["verify-props", "--problem", str(scale_path)]) == 0
        assert main(["verify-props", "--problem", str(fan_path)]) == 0
    # an empty interval names what the constrained theorem needs
    capsys.readouterr()
    assert main(["solve", "--problem", boxed, "--p", "0.3", "--x0", "1,1",
                 "--alpha-tilde", "1.0001"]) == 1
    err = capsys.readouterr().err
    assert "needs alpha_tilde > 1 + ell = 1.5, got alpha_tilde = 1.0001" in err
    assert "allow_uncertified" not in err
    # malformed problem data is rejected at load, not mid-solve
    nan = math.nan
    edits = {
        "ball_radius": ("constraint", {"variant": "ball", "center": [0.0, 0.0], "radius": -1}),
        "box_1d": ("constraint", {"variant": "box", "lower": [0.0], "upper": [1.0]}),
        "box_ragged": ("constraint", {"variant": "box", "lower": [0.0], "upper": [1.0, 1.0]}),
        "ball_3d": ("constraint", {"variant": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}),
        "polytope_1d": ("constraint", {"variant": "polytope", "vertices": [[0.0], [1.0]]}),
        "matrix_nan": ("matrix", {"variant": "interpolated", "knots": [
            {"p": 0.0, "matrix": [[nan, 0.0], [0.0, 1.0]]},
            {"p": 7.0, "matrix": [[1.0, 0.0], [0.0, 1.0]]}]}),
        "knot_p_nan": ("matrix", {"variant": "interpolated", "knots": [
            {"p": nan, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
            {"p": 7.0, "matrix": [[1.0, 0.0], [0.0, 1.0]]}]}),
        "center_nan": ("constraint", {"variant": "ball", "knots": [
            {"p": 0.0, "center": [nan, 0.0], "radius": 1.0},
            {"p": 7.0, "center": [0.0, 0.0], "radius": 1.0}]}),
        "radius_knot_vector": ("constraint", RADIUS_KNOT_VECTORS),
        "coord_5": ("h", 5),
        "coord_negative": ("h", -1),
        "scale_nan": ("matrix", {"variant": "rotation_scaled", "scale": nan}),
        "scale_inf": ("matrix", {"variant": "rotation_scaled", "scale": math.inf}),
        "declared_alpha_nan": ("declared_alpha", nan),
        "declared_lipschitz_nan": ("h", {"declared_lipschitz": nan}),
    }
    edits.update({f"abs_{k}_nan": ("h", {k: nan}) for k in "abcd"})
    for name, (key, value) in edits.items():
        data = rotation_inclusion_problem().to_dict()
        if key == "h" and isinstance(value, int):
            data["h"]["components"][1]["coord"] = value
        elif key == "h" and "declared_lipschitz" in value:
            data["h"].update(value)
        elif key == "h":
            data["h"]["components"][1].update(value)
        else:
            data[key] = value
        bad = tmp_path / f"bad_{name}.json"
        bad.write_text(json.dumps(data))
        assert main(["solve", "--problem", str(bad), "--p", "0", "--x0", "0,0"]) == 1, name
    rotation_objective = triangle_vop_spec().to_dict()["objective"]
    vop_edits = {
        "objective_scale_nan": ("objective", {"variant": "linear_rotation", "scale": nan}),
        "objective_lipschitz_negative": ("objective_lipschitz", -1.0),
        "objective_lipschitz_nan": ("objective_lipschitz", nan),
        "objective_offset_nan": ("objective", {
            "variant": "affine", "offset": [nan, 0.0],
            "matrix": {"variant": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]}}),
        "radius_knot_vector": ("constraint", RADIUS_KNOT_VECTORS),
        # an affine objective over the whole space has no bounded image
        "affine_over_all_space": ("constraint", {"variant": "all_space"}),
        # an offset has one entry per objective output (two here)
        "offset_length": ("objective", {**rotation_objective, "offset": [1.0, 2.0, 3.0]}),
        "offset_scalar": ("objective", {**rotation_objective, "offset": 1.0}),
        "offset_knot_length": ("objective", {**rotation_objective, "offset_knots": [
            {"p": 0.0, "offset": [1.0, 2.0, 3.0]}, {"p": 7.0, "offset": [3.0, 2.0, 1.0]}]}),
    }
    # the deviation target is one scalar per knot
    dev_edits = {"phi_vector": ("objective", {"variant": "abs_deviation", "components": 2,
                                              "knots": [{"p": 0, "phi": [0, 1]}]})}
    for base, edits in ((triangle_vop_spec(), vop_edits), (sine_deviation_spec(65), dev_edits)):
        x0 = ",".join(["0.3"] * base.objective.dim_in)
        for name, (key, value) in edits.items():
            data = base.to_dict()
            data[key] = value
            bad = tmp_path / f"bad_{name}.json"
            bad.write_text(json.dumps(data))
            assert main(["vopt", "--problem", str(bad), "--p", "0", "--x0", x0]) == 1, name
            assert main(["estimate-inc", "--problem", str(bad), "--p", "0"]) == 1, name


def test_nearly_non_pointed_cone_is_not_an_internal_error(tmp_path):
    # two almost opposite rays, e + 1e-7 noise and -e + 1e-7 noise + 1e-6 e_2
    # (trial 111 of that family drawn from default_rng(0)); building the cone
    # once raised RuntimeError, an internal error (exit 3)
    data = rotation_inclusion_problem().to_dict()
    data["cone"] = {"generators": [[-0.12398597845069126, 0.9922840157696188],
                                   [0.12398586238863216, -0.9922829685981287]]}
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--problem", str(path), "--p", "0.3", "--x0", "1,1"]) in (0, 1, 2)


def test_vopt_verb_single_point(problem_files, capsys):
    rc = main(["vopt", "--problem", problem_files["triangle"],
               "--p", "0.0", "--x0", "0.3,0.3", "--oracle"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status = found" in out
    assert "oracle = ideal" in out
    # the sampled alpha_tilde leaves the interval empty: floor constants
    assert "alpha_source = floor" in out
    # an empty row is a certified answer, not a solver failure, and carries
    # the oracle's verdict without --oracle
    rc = main(["vopt", "--problem", problem_files["triangle"],
               "--p", "3.141592653589793", "--x0", "0.3,0.3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status = certified_empty" in out
    assert "oracle = empty" in out
    rc = main(["vopt", "--problem", problem_files["triangle"], "--p", "0.0",
               "--x0", "0.3,0.3", "--alpha-tilde", "3"])
    assert rc == 0 and "alpha_source = given" in capsys.readouterr().out


def test_vopt_verb_sweep_with_oracle(problem_files, tmp_path):
    out_csv = tmp_path / "vopt.csv"
    rc = main(["vopt", "--problem", problem_files["deviation"],
               "--grid", "0:6.28:9", "--x0", "0", "--out", str(out_csv),
               "--alpha-tilde", "2.0"])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "p,x_1,merit,bound_rhs,bound_holds,solved,val_1,val_2"
    assert len(lines) == 10


def test_vopt_oracle_on_a_ball_decides_the_scalarizations(tmp_path, capsys):
    # f = L x on the unit disc, ordered by a thin turned wedge (instance 6 of
    # the wedge draw in test_vopt): the argmins of the two scalarizations
    # lie close but differ, so no point is ideal
    spec = VopSpec(AffineFamily(MatrixTable(np.array(
        [[0.16746474422274113, 0.10901408782154753],
         [-1.2273520542445742, -0.6832266617805622]]))),
        Ball(center=[0.0, 0.0], radius=1.0),
        PolyCone(np.array([[-1.0088054111760114, 0.0947394107299976],
                           [0.9262686002953396, -0.4107193612071154]])),
        objective_lipschitz=1.4187789181937827)
    path = tmp_path / "wedge.json"
    write_problem_file(path, spec)
    rc = main(["vopt", "--problem", str(path), "--p", "0", "--x0", "0,0", "--oracle"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "oracle = empty" in out


@pytest.mark.parametrize("argv", [["--p", "1.0", "--x0", "0.84"],
                                  ["--p", "0.4", "--x0", "0", "--seed", "2"]])
def test_vopt_estimates_alpha_tilde_off_the_start_point(problem_files, capsys, argv):
    # phi(1.0) = 0.8408 on the deviation file: the decrease property is
    # absent at the start point, whose bracket alpha_tilde once was (exit 2).
    # At p = 0.4 seed 2 draws a point near phi(p), where the probe finds no
    # witnesses; the sampled estimate skips it
    rc = main(["vopt", "--problem", problem_files["deviation"], *argv])
    assert rc == 0
    assert "status = found" in capsys.readouterr().out


def test_no_sampled_non_solution_is_a_solver_failure(tmp_path, capsys):
    # a constant objective makes every point ideal, so no sample is left to
    # estimate the decrease bound on: exit 2, not an internal error; vopt,
    # started at an ideal point, needs no estimate and reports it found
    spec = VopSpec(AffineFamily(MatrixTable(np.zeros((2, 2)))),
                   Box(lower=[0.0, 0.0], upper=[1.0, 1.0]), orthant(2), 1.0)
    path = tmp_path / "constant.json"
    write_problem_file(path, spec)
    assert main(["estimate-inc", "--problem", str(path), "--p", "0"]) == 2
    assert "0 sampled non-solutions" in capsys.readouterr().err
    assert main(["vopt", "--problem", str(path), "--p", "0", "--x0", "0.5,0.5"]) == 0
    assert "status = found" in capsys.readouterr().out


def test_vopt_orientation_override(problem_files, capsys):
    rc = main(["vopt", "--problem", problem_files["triangle"],
               "--p", "1.65", "--x0", "0.3,0.3", "--orientation", "cw",
               "--oracle"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status = found" in out


def test_estimate_inc_verb(problem_files, capsys):
    rc = main(["estimate-inc", "--problem", problem_files["rotation"],
               "--p", "0.4", "--x-samples", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "global_infimum" in out


def _verify(capsys, path):
    rc = main(["verify-props", "--problem", str(path)])
    return rc, capsys.readouterr().out.splitlines()


def _solve_constants(capsys, path):
    assert main(["solve", "--problem", path, "--p", "0.3", "--x0", "1,1"]) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("alpha =")][0]
    return float(line.split()[2]), float(line.split()[5])  # alpha, kappa


def test_verify_props_verb(problem_files, tmp_path, monkeypatch, capsys):
    # one line per constant, and per hypothesis with its verdict, each read
    # off the file: ell, the declared alpha_tilde, the theorem's condition on
    # it, M(p)'s modulus in p and the solution map's, 3/(alpha_tilde - 1)
    rc, lines = _verify(capsys, problem_files["rotation"])
    assert rc == 0
    assert lines == [
        "ell = 0.5", "alpha_tilde = 1.56066 (declared)",
        "PASS     alpha_tilde > 1: the unconstrained theorem",
        "p_modulus = 3: sup over p of ||dM/dp||_2",
        "solution_map_modulus = 5.35083 per unit |x|: p_modulus/(alpha_tilde - 1)"]
    alpha_tilde = float(lines[1].split()[2])
    assert 3.0 / (alpha_tilde - 1.0) == pytest.approx(5.35083, abs=1e-4)
    # the alpha_tilde that solve uses: alpha = min(1.5, 0.9 alpha_tilde)
    # unconstrained, alpha + kappa = alpha_tilde constrained
    assert _solve_constants(capsys, problem_files["rotation"])[0] == pytest.approx(
        min(1.5, 0.9 * alpha_tilde), abs=1e-5)
    rc, lines = _verify(capsys, problem_files["boxed"])
    assert rc == 0
    assert lines == [
        "ell = 0.5", "alpha_tilde = 1.56066 (declared)",
        "PASS     alpha_tilde > 1.5: the constrained theorem, else floor constants",
        "p_modulus = 3: sup over p of ||dM/dp||_2"]
    assert sum(_solve_constants(capsys, problem_files["boxed"])) == pytest.approx(
        float(lines[1].split()[2]), abs=1e-5)
    # a knot table's modulus is its steepest interval's slope
    knotted = rotation_inclusion_problem().to_dict()
    M0, M7 = [[3.0, 0.0], [0.0, 3.0]], [[0.0, -3.0], [3.0, 0.0]]
    knotted["matrix"] = {"variant": "interpolated", "knots": [{"p": 0.0, "matrix": M0},
                                                              {"p": 7.0, "matrix": M7}]}
    path = tmp_path / "knotted.json"
    path.write_text(json.dumps(knotted))
    rc, lines = _verify(capsys, path)
    slope = np.linalg.norm(np.subtract(M7, M0), 2) / 7.0
    assert rc == 0
    assert f"p_modulus = {slope:.6g}: sup over p of ||dM/dp||_2" in lines
    assert f"{slope:.6g}" == "0.606092"
    # a vector-optimization file: ell against the objective's catalog bound,
    # and no declared alpha_tilde
    for name, ell in (("triangle", "1"), ("deviation", "1.41421")):
        rc, lines = _verify(capsys, problem_files[name])
        assert rc == 0, name
        assert lines[:3] == [
            f"ell = {ell}", f"PASS     ell >= {ell}, the objective's Lipschitz bound",
            "UNKNOWN  alpha_tilde: none declared (svi estimate-inc brackets a sampled one)"]
        assert lines[3].startswith("UNKNOWN  alpha_tilde > ")
    # a failed hypothesis exits 2: ell below the objective's bound, and a
    # declared alpha_tilde at most 1 + ell on a constrained problem
    triangle = triangle_vop_spec().to_dict()
    triangle["objective_lipschitz"] = 0.5
    boxed = boxed_rotation_problem().to_dict()
    boxed["declared_alpha"] = 1.4
    for name, data, line in (
            ("triangle", triangle, "FAIL     ell >= 1, the objective's Lipschitz bound"),
            ("boxed", boxed, "FAIL     alpha_tilde > 1.5: the constrained theorem, "
                             "else floor constants")):
        path = tmp_path / f"failing_{name}.json"
        path.write_text(json.dumps(data))
        rc, lines = _verify(capsys, path)
        assert rc == 2, name
        assert line in lines, name
    # the verb reads no parameter's view: no image, merit or draw
    def no_view(*args):
        raise AssertionError("verify-props must not read a view at(p)")

    with monkeypatch.context() as patch:
        patch.setattr(Parametric, "at", no_view)
        for name in ("rotation", "boxed", "triangle", "deviation"):
            assert main(["verify-props", "--problem", problem_files[name]]) == 0, name
    capsys.readouterr()


def test_malformed_fields_and_vectors_are_usage_errors(problem_files, tmp_path, capsys):
    # a JSON string is no boolean, and a float or string no integer
    rotation = rotation_inclusion_problem().to_dict()
    deviation = sine_deviation_spec(9).to_dict()
    triangle = triangle_vop_spec().to_dict()
    linear = {**triangle, "objective": {"variant": "linear_rotation", "scale": 1.0}}
    cases = []
    for value in ("false", 0, None):
        cases.append((rotation, ("matrix", "clockwise"), value))
        cases.append((triangle, ("objective", "matrix", "clockwise"), value))
        cases.append((linear, ("objective", "clockwise"), value))
    for value in (1.9, "1", 1.0, True):
        cases.append((rotation, ("h", "components", 1, "coord"), value))
    for value in (2.5, "2", 2.0, True):
        cases.append((deviation, ("objective", "components"), value))
    for i, (base, where, value) in enumerate(cases):
        data = copy.deepcopy(base)
        node = data
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        path = tmp_path / f"malformed_{i}.json"
        path.write_text(json.dumps(data))
        assert main(["verify-props", "--problem", str(path)]) == 1, (where, value)
        assert f"'{where[-1]}' must be a JSON" in capsys.readouterr().err, (where, value)
    # an empty entry of a point is no entry to drop
    for x0 in ("1,,2", "1,", ",1"):
        assert main(["solve", "--problem", problem_files["rotation"], "--p", "0",
                     "--x0", x0]) == 1, x0
    capsys.readouterr()


def test_seeded_runs_are_byte_identical(problem_files, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        rc = main(["sweep", "--problem", problem_files["rotation"],
                   "--grid", "0:6.2832:17", "--x0", "0,0", "--alpha", "1.5",
                   "--seed", "3", "--out", str(path)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def _printed_alpha(capsys, argv):
    assert main(argv) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("alpha =")][0]
    return line.split()[2]


def test_alpha_tilde_flag_sets_the_unconstrained_alpha(problem_files, capsys):
    # without --alpha, alpha = min(1.5, 0.9 alpha_tilde); unset, alpha_tilde
    # is the file's declared_alpha (0.5 (3/sqrt(2) + 1))
    argv = ["solve", "--problem", problem_files["rotation"], "--p", "0.3", "--x0", "1,1"]
    assert _printed_alpha(capsys, argv) == "1.404594"
    assert _printed_alpha(capsys, argv + ["--alpha-tilde", "1.3"]) == "1.170000"
    assert _printed_alpha(capsys, argv + ["--alpha-tilde", "50"]) == "1.500000"


def test_vopt_sweep_runs_every_row_at_the_alpha_tilde_flag(problem_files, monkeypatch):
    seen = []
    solve_ideal = vopt.solve_ideal

    def recording(spec, p, x0, cfg=None, **kw):
        seen.append(cfg.alpha_tilde)
        return solve_ideal(spec, p, x0, cfg, **kw)

    def no_estimate(*args, **kwargs):
        raise AssertionError("the flag's alpha_tilde must not be estimated")

    monkeypatch.setattr(vopt, "solve_ideal", recording)
    monkeypatch.setattr(vopt, "global_infimum", no_estimate)
    rc = main(["vopt", "--problem", problem_files["triangle"], "--grid", "0:1:2",
               "--x0", "0.3,0.3", "--alpha-tilde", "9"])
    assert rc == 0
    assert seen == [9.0, 9.0]


def test_vopt_orientation_turns_an_affine_rotation_objective(tmp_path, monkeypatch):
    # any affine objective on a rotation_scaled matrix takes the flag, and
    # keeps its offset
    data = triangle_vop_spec().to_dict()
    data["objective"]["offset"] = [0.5, -0.25]
    path = tmp_path / "offset.json"
    path.write_text(json.dumps(data))
    specs = []
    not_found = vopt.IdealResult("not_found", oracle=vopt.OracleResult("ideal"))
    monkeypatch.setattr("svikit.cli.solve_ideal",
                        lambda spec, *a, **kw: specs.append(spec) or not_found)
    for flag in ("ccw", "cw"):
        main(["vopt", "--problem", str(path), "--p", "1", "--x0", "0.3,0.3",
              "--orientation", flag])
    assert [s.objective.matrix.clockwise for s in specs] == [False, True]
    for spec in specs:
        assert spec.objective.matrix.scale == 1.0
        assert np.array_equal(spec.objective.offset.values, [0.5, -0.25])


def test_estimate_inc_over_a_grid_writes_one_row_per_estimate(problem_files, tmp_path,
                                                              capsys):
    # a vector-optimization file brackets the objective's decrease bound
    out_csv = tmp_path / "estimates.csv"
    rc = main(["estimate-inc", "--problem", problem_files["triangle"],
               "--p-grid", "0.3:2:2", "--x-samples", "2", "--out", str(out_csv)])
    assert rc == 0
    printed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("p = ")]
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "p,alpha_lo,alpha_hi"
    assert len(lines) - 1 == len(printed) >= 2
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert {p for p, _, _ in rows} == {0.3, 2.0}
    for _, lo, hi in rows:  # about 1 + 1/sqrt(2), the triangle's decrease bound
        assert 1.0 < lo <= hi and abs(lo - (1.0 + 1.0 / math.sqrt(2.0))) <= 0.05


# malformed or out-of-range values of each flag kind: non-numeric, nan/inf,
# past the float range, wrong lengths, empty, unsorted or unsplit grids,
# negative or oversized counts
BAD_FLAGS = {
    "float": ["", "abc", "nan", "-inf", "inf", "1e999", "1,2"],
    "--tol": ["0", "-1e-9"], "--alpha": ["1", "0.5", "-2"], "--alpha-tilde": ["1", "-3"],
    "--seed": ["", "abc", "1.5", "nan", "inf", "1e3", "-1", "-12"],
    "--x-samples": ["", "abc", "2.5", "nan", "inf", "0", "-3", str(10**30), str(2**62),
                    str(2**56)],  # its draw of 2**56 x 2 coordinates cannot be allocated
    "--x0": ["", "a,b", "nan,1", "1,inf", "1e999,0", "1", "1,2,3", "1,,2", "1;2"],
    "grid": ["", "0:1", "0:1:2:3", "a:b:c", "0:nan:3", "-inf:0:3", "0:1e999:3", "1:0:3",
             "0:1:0", "0:1:-2", "0:1:2.5", "0:1:" + "9" * 30,
             "0:1:" + str(2**56)],  # 512 PiB of grid points, which cannot be allocated
    "--orientation": ["", "up"],
}


def _flag_cases(problem_files, tmp_path):
    """(verb argv that exits 0, {flag: bad values}) per verb."""
    rot, tri = problem_files["rotation"], problem_files["triangle"]
    floats = {f: BAD_FLAGS["float"] + BAD_FLAGS.get(f, []) for f in ("--tol", "--alpha",
                                                                       "--alpha-tilde")}
    outs = {"--out": [str(tmp_path), str(tmp_path / "missing" / "out.csv")]}
    solver = {"--seed": BAD_FLAGS["--seed"], "--x0": BAD_FLAGS["--x0"], **floats}
    return {
        "solve": (["--problem", rot, "--p", "0.3", "--x0", "1,1"],
                  {"--p": BAD_FLAGS["float"], **solver}),
        "sweep": (["--problem", rot, "--grid", "0:0.1:2", "--x0", "1,1", "--out",
                   str(tmp_path / "sweep.csv")], {"--grid": BAD_FLAGS["grid"], **solver, **outs}),
        "estimate-inc": (["--problem", rot, "--p-grid", "0.2:0.3:2", "--x-samples", "2", "--out",
                          str(tmp_path / "inc.csv")],
                         {"--p-grid": BAD_FLAGS["grid"], "--seed": BAD_FLAGS["--seed"],
                          "--x-samples": BAD_FLAGS["--x-samples"], **outs}),
        "vopt": (["--problem", tri, "--grid", "0:0.1:2", "--x0", "0.2,0.2", "--out",
                  str(tmp_path / "vopt.csv")],
                 {"--grid": BAD_FLAGS["grid"], "--orientation": BAD_FLAGS["--orientation"],
                  **solver, **outs}),
        "verify-props": (["--problem", rot], {"--problem": [str(tmp_path), "missing.json"],
                                              "--seed": ["1"], "--p": ["0.3"]}),
    }


def _with(argv, flag, value):
    """argv with ``flag`` set to value as ``flag=value`` (so that argparse
    reads "-inf" as a value), in place of the flag's own."""
    argv = list(argv)
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    return argv + [f"{flag}={value}"]


def test_malformed_or_out_of_range_flags_exit_1_never_3(problem_files, tmp_path, capsys):
    # every bad value of every flag of every verb, alone, and then seeded
    # draws of two bad flags at once; each valid argv exits 0 first
    rng = np.random.default_rng(0)
    for verb, (argv, bad) in _flag_cases(problem_files, tmp_path).items():
        assert main([verb, *argv]) == 0, verb
        runs = [[(flag, value)] for flag, values in bad.items() for value in values]
        flags = list(bad)
        for _ in range(12 if len(flags) > 1 else 0):
            pair = rng.choice(len(flags), 2, replace=False)
            runs.append([(flags[i], str(rng.choice(bad[flags[i]]))) for i in pair])
        for run in runs:
            args = [verb, *argv]
            for flag, value in run:
                args = _with(args, flag, value)
            assert main(args) == 1, args
            assert "error:" in capsys.readouterr().err, args
