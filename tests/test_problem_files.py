"""The problem-file format, pinned across commits: every file form of a
p-dependent datum, constant and on knots, parses and writes back to the
same JSON, and the bundled instances keep their file hashes."""
import copy
import json

import pytest

from svikit.parametric import _problem_hash
from svikit.problems import (boxed_rotation_problem, rotation_inclusion_problem,
                             sine_deviation_spec, triangle_vop_spec)
from svikit.setmaps import constraint_from_dict, matrix_family_from_dict
from svikit.vopt import objective_from_dict

EYE = {"variant": "constant", "matrix": [[1.0, 0.0], [0.0, 2.0]]}
FILE_FORMS = {
    "constant matrix": (matrix_family_from_dict, EYE),
    "interpolated matrix": (matrix_family_from_dict, {"variant": "interpolated", "knots": [
        {"p": 0.0, "matrix": [[3.0, 0.0], [0.0, 3.0]]},
        {"p": 7.0, "matrix": [[0.0, -3.0], [3.0, 0.0]]}]}),
    "box": (constraint_from_dict, {"variant": "box", "lower": [0.0, -1.0],
                                   "upper": [1.0, 1.0]}),
    "box knots": (constraint_from_dict, {"variant": "box", "knots": [
        {"p": 0.0, "lower": [0.0, -1.0], "upper": [1.0, 1.0]},
        {"p": 2.0, "lower": [1.0, -3.0], "upper": [3.0, 5.0]}]}),
    "ball": (constraint_from_dict, {"variant": "ball", "center": [0.5, 0.25], "radius": 2.0}),
    "ball knots": (constraint_from_dict, {"variant": "ball", "knots": [
        {"p": 0.0, "center": [0.0, 0.0], "radius": 1.0},
        {"p": 2.0, "center": [2.0, -4.0], "radius": 3.0}]}),
    "affine": (objective_from_dict, {"variant": "affine", "matrix": EYE}),
    "affine offset": (objective_from_dict, {"variant": "affine", "matrix": EYE,
                                            "offset": [0.5, -0.25]}),
    "affine offset knots": (objective_from_dict, {"variant": "affine", "matrix": EYE,
                                                  "offset_knots": [
        {"p": 0.0, "offset": [0.0, 1.0]}, {"p": 2.0, "offset": [2.0, -1.0]}]}),
    "abs_deviation": (objective_from_dict, {"variant": "abs_deviation", "components": 3,
                                            "knots": [{"p": 0.0, "phi": 1.0},
                                                      {"p": 1.5, "phi": -0.5}]}),
}


@pytest.mark.parametrize("name", FILE_FORMS)
def test_every_file_form_writes_back_to_the_same_json(name):
    parse, d = FILE_FORMS[name]
    back = parse(copy.deepcopy(d)).to_dict()
    assert json.dumps(back, sort_keys=True) == json.dumps(d, sort_keys=True)


def test_scalar_bounds_and_centres_of_a_1d_set_load_as_vectors():
    box = constraint_from_dict({"variant": "box", "lower": 0.0, "upper": 2.0})
    ball = constraint_from_dict({"variant": "ball", "center": 0.5, "radius": 2.0})
    assert box.to_dict() == {"variant": "box", "lower": [0.0], "upper": [2.0]}
    assert ball.to_dict() == {"variant": "ball", "center": [0.5], "radius": 2.0}


@pytest.mark.parametrize("make, digest", [
    (rotation_inclusion_problem, "ef30ed2eecb42a15"),
    (boxed_rotation_problem, "ae49501a0ef50110"),
    (triangle_vop_spec, "bb5d77d6d2d55ed1"),
    (lambda: sine_deviation_spec(65), "90e9268fcbe7619e"),
])
def test_bundled_instances_keep_their_file_hash(make, digest):
    assert _problem_hash(make()) == digest
