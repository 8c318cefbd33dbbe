"""The problem-file format, pinned across commits: every file form of a
p-dependent datum, constant and on knots, parses and writes back to the
same JSON, the bundled instances keep their file hashes, and a mutated file
is a usage error or a problem that writes back to itself, never an
internal error."""
import copy
import json
import math

import pytest

from svikit.cli import main
from svikit.parametric import _problem_hash
from svikit.problems import (boxed_rotation_problem, deviation_vop_spec, load_problem_file,
                             rotation_inclusion_problem, sine_deviation_spec, triangle_vop_spec,
                             write_problem_file)
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


# a mutated leaf becomes one of these; integers stay small, so that no
# mutant asks for a huge cone or objective
FUZZ_LEAVES = [math.nan, math.inf, -math.inf, 1e308, -1e308, -1, 0, 1.5, "x", "false", None,
               True, [], {}, [[1]]]


def _knotted_rotation():
    # the rotation problem with its matrix on two knots, as in test_cli's usage errors
    data = rotation_inclusion_problem().to_dict()
    data["matrix"] = {"variant": "interpolated", "knots": [
        {"p": 0.0, "matrix": [[3.0, 0.0], [0.0, 3.0]]},
        {"p": 7.0, "matrix": [[0.0, -3.0], [3.0, 0.0]]}]}
    return data


def _mutants(data, path=()):
    """(path, mutant) for every node below ``data``: the node deleted, wrapped
    in a list, and, for a leaf, replaced by each of FUZZ_LEAVES.  A long list
    is entered at its first two entries and its last (knot rows repeat)."""
    node = data
    for key in path:
        node = node[key]
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = sorted({0, 1, len(node) - 1} & set(range(len(node))))
    else:
        return
    for key in keys:
        here, value = path + (key,), node[key]
        leaf = not isinstance(value, (dict, list))
        for mutation in ["delete", [value]] + (FUZZ_LEAVES if leaf else []):
            mutant = copy.deepcopy(data)
            parent = mutant
            for k in path:
                parent = parent[k]
            if mutation == "delete":
                del parent[key]
            else:
                parent[key] = copy.deepcopy(mutation)
            yield here, mutant
        yield from _mutants(data, here)


def test_mutated_problem_files_exit_0_1_or_2_and_round_trip(tmp_path, capsys):
    # the boxed and knotted files differ from the rotation file in one
    # section each, so only that section of theirs is mutated
    bases = [("rotation", rotation_inclusion_problem().to_dict(), None),
             ("boxed", boxed_rotation_problem().to_dict(), "constraint"),
             ("knotted", _knotted_rotation(), "matrix"),
             ("triangle", triangle_vop_spec().to_dict(), None),
             ("deviation", sine_deviation_spec(65).to_dict(), None)]
    path, back = tmp_path / "mutant.json", tmp_path / "back.json"
    for name, base, section in bases:
        # the unmutated file writes back byte for byte
        path.write_text(json.dumps(base, indent=2, sort_keys=True) + "\n")
        write_problem_file(back, load_problem_file(path))
        assert back.read_bytes() == path.read_bytes(), name
        for where, mutant in _mutants(base):
            if section is not None and where[0] != section:
                continue
            path.write_text(json.dumps(mutant))
            rc = main(["verify-props", "--problem", str(path)])
            capsys.readouterr()
            try:
                problem = load_problem_file(path)
            except (ValueError, KeyError, TypeError):  # what the CLI reads as a usage error
                assert rc == 1, (name, where, mutant)
                continue
            assert rc in (0, 2), (name, where, mutant)
            write_problem_file(back, problem)
            assert load_problem_file(back).to_dict() == problem.to_dict(), (name, where)


def _strict_bases():
    # the four bundled file kinds: rotation, boxed, triangle and a three-knot deviation spec
    return {"rotation": rotation_inclusion_problem().to_dict(),
            "boxed": boxed_rotation_problem().to_dict(),
            "triangle": triangle_vop_spec().to_dict(),
            "deviation": deviation_vop_spec([0.5, -1.0, 2.0], [0.0, 1.0, 3.0]).to_dict()}


def _nodes(node, path=()):
    """(path, node) for ``node`` and everything below it."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _replaced(data, path, value=None, rename=None):
    """A copy of data with the node at ``path`` set to ``value``, or with the
    key ``rename`` of the section at ``path`` renamed."""
    mutant = copy.deepcopy(data)
    node = mutant
    for key in path[:-1] if rename is None else path:
        node = node[key]
    if rename is None:
        node[path[-1]] = value
    else:
        node[rename + "_x"] = node.pop(rename)
    return mutant


def _assert_usage_error(path, mutant, tmp_path, capsys, what):
    path.write_text(json.dumps(mutant))
    with pytest.raises((ValueError, KeyError, TypeError)):
        load_problem_file(path)
    assert main(["verify-props", "--problem", str(path)]) == 1, what
    capsys.readouterr()


def test_every_numeric_leaf_as_true_or_as_a_string_is_a_usage_error(tmp_path, capsys):
    # 78 numeric leaves in the four files, each written as JSON true, as the
    # number in a string and as an integer past the float range (which
    # float() cannot read): 234 files, none of which loads
    path, count = tmp_path / "mutant.json", 0
    for name, base in _strict_bases().items():
        for where, node in _nodes(base):
            if type(node) not in (int, float):
                continue
            count += 1
            for value in (True, json.dumps(node), -10 ** 400):
                _assert_usage_error(path, _replaced(base, where, value), tmp_path, capsys,
                                    (name, where, value))
    assert count == 78


def test_a_renamed_key_in_every_section_is_a_usage_error(tmp_path, capsys):
    # every key of every section (knot rows and h components included),
    # misspelled; an optional key's new name is as unknown as a required one's
    path, sections = tmp_path / "mutant.json", set()
    for name, base in _strict_bases().items():
        for where, node in _nodes(base):
            if isinstance(node, dict):
                sections.add(next((k for k in where[::-1] if isinstance(k, str)), name))
                for key in node:
                    _assert_usage_error(path, _replaced(base, where, rename=key), tmp_path,
                                        capsys, (name, where, key))
    assert sections == {"rotation", "boxed", "triangle", "deviation", "matrix", "cone", "h",
                        "components", "fan", "constraint", "objective", "knots"}


def test_an_extra_key_in_every_section_is_a_usage_error():
    # each variant names its keys: a key of another variant is unknown
    for parse, d in FILE_FORMS.values():
        extra = "offset" if "offset_knots" in d else "lower" if "knots" in d else "knots"
        with pytest.raises(ValueError, match="unknown key"):
            parse({**d, extra: []})
