import math

import numpy as np
import pytest

from svikit.geometry import orthant
from svikit.setmaps import (AbsComponent, AllSpace, Ball, Box, ConcaveTerm,
                            FanSpec, KnotRangeError, MatrixTable, PolytopeSet,
                            RotationScaled, SviProblem, _Knots,
                            constraint_from_dict, evaluate, is_all_space,
                            problem_from_dict)
from svikit.geometry import VPolytope
from svikit.vopt import AbsDeviation, AffineFamily, VopSpec

SQRT2 = math.sqrt(2.0)


def test_evaluate_vanishing_linear_parts(rotation_problem):
    vp = evaluate(rotation_problem, 0.0, [0.0, 0.0])
    # rotation and fan vanish at the origin; only the concave offset remains
    assert np.allclose(vp.vertices, [[-1.0, -1.0], [-1.0, -1.0]])


def test_evaluate_fan_only():
    prob = SviProblem(matrix=MatrixTable(np.zeros((2, 2))), cone=orthant(2),
                      fan=FanSpec(np.array([0.25 * np.eye(2), -0.25 * np.eye(2)])))
    vp = evaluate(prob, 0.0, [4.0, 0.0])
    assert sorted(map(tuple, vp.vertices.tolist())) == [(-1.0, 0.0), (1.0, 0.0)]


def test_evaluate_rotation_instance_at_quarter_turn(rotation_problem):
    # direct arithmetic: 3 O_{pi/4} (1,0) = (3/sqrt2, 3/sqrt2),
    # h((1,0)) = (-1.25, -1), fan contributes +-(0.25, 0)
    lin = 3.0 / SQRT2
    expected = {(lin - 1.25 + 0.25, lin - 1.0), (lin - 1.25 - 0.25, lin - 1.0)}
    vp = evaluate(rotation_problem, math.pi / 4.0, [1.0, 0.0])
    got = {tuple(np.round(v, 12)) for v in vp.vertices}
    assert got == {tuple(np.round(e, 12)) for e in expected}
    assert np.allclose(sorted(vp.vertices[:, 0]), [0.62132034, 1.12132034], atol=1e-7)
    assert np.allclose(vp.vertices[:, 1], 1.12132034, atol=1e-7)
    assert np.all(vp.vertices >= 0)  # both vertices inside the orthant


def test_merit_examples(rotation_problem):
    assert rotation_problem.at(math.pi / 4.0).merit([1.0, 0.0]) == 0.0
    for p in (0.0, 1.3, 4.0):
        assert rotation_problem.at(p).merit([0.0, 0.0]) == pytest.approx(SQRT2)
    identity = SviProblem(matrix=MatrixTable(np.eye(2)), cone=orthant(2))
    assert identity.at(0.0).merit([1.0, 1.0]) == 0.0


def test_constrained_merit_examples(rotation_problem, boxed_problem):
    p = 0.7
    x_in = np.array([0.5, 0.5])
    assert boxed_problem.at(p).merit(x_in, kappa=0.5) == pytest.approx(
        boxed_problem.at(p).merit(x_in))
    # arithmetic composition: merit + kappa * distance
    prob = SviProblem(matrix=boxed_problem.matrix, cone=boxed_problem.cone,
                      h=boxed_problem.h, fan=boxed_problem.fan,
                      constraint=Box(lower=[0.0, 0.0], upper=[1.0, 1.0]))
    x_out = np.array([2.0, 0.5])
    base = prob.at(p).merit(x_out)
    assert prob.at(p).merit(x_out, kappa=1.0) == pytest.approx(base + 1.0)
    assert prob.at(p).merit(x_out, kappa=0.5) == pytest.approx(base + 0.5)
    with pytest.raises(ValueError):
        prob.at(p).merit(x_out, kappa=-1.0)


def test_lipschitz_budget(rotation_problem):
    assert rotation_problem.h.declared_lipschitz == pytest.approx(0.25)
    assert rotation_problem.fan.lipschitz_constant == pytest.approx(0.25)
    assert rotation_problem.ell == pytest.approx(0.5)  # the solver's ell

    bare = SviProblem(matrix=MatrixTable(np.eye(2)), cone=orthant(2))
    assert bare.ell == 0.0

    diag = SviProblem(matrix=MatrixTable(np.zeros((2, 2))), cone=orthant(2),
                      fan=FanSpec(np.array([np.diag([1.0, 2.0])])))
    assert diag.fan.lipschitz_constant == pytest.approx(2.0)
    assert diag.ell == pytest.approx(2.0)


def test_norm_bound_and_p_modulus_bound_the_matrix_on_a_dense_grid():
    # sup ||M(p)||_2 and sup ||dM/dp||_2, read off the data: checked against
    # M(p) and central differences of it on a dense grid, the norm attained
    # at a knot and the modulus inside the steepest interval
    table = MatrixTable(_Knots([0.0, 1.0, 3.0, 7.0], [
        [[3.0, 0.0], [0.0, 3.0]], [[0.0, -3.0], [3.0, 1.0]],
        [[-2.0, 0.5], [1.0, -4.0]], [[0.0, -3.0], [3.0, 0.0]]]))
    for family, (lo, hi) in ((table, (0.0, 7.0)), (RotationScaled(-2.5, True), (-4.0, 4.0)),
                             (AffineFamily(table).matrix, (0.0, 7.0))):
        h = 1e-6
        ps = np.linspace(lo + h, hi - h, 7001)
        norms = [np.linalg.norm(family.matrix_at(p), 2) for p in ps]
        slopes = [np.linalg.norm(family.matrix_at(p + h) - family.matrix_at(p - h), 2) / (2 * h)
                  for p in ps]
        assert max(norms) <= family.norm_bound * (1 + 1e-12)
        assert max(slopes) <= family.p_modulus * (1 + 1e-6)
        assert max(slopes) >= family.p_modulus * (1 - 1e-6)
    assert max(np.linalg.norm(M, 2) for M in table.matrix.values) == table.norm_bound
    assert table.norm_bound == np.linalg.norm([[-2.0, 0.5], [1.0, -4.0]], 2)
    assert RotationScaled(-2.5).norm_bound == RotationScaled(-2.5).p_modulus == 2.5
    assert AffineFamily(table).lipschitz_bound == table.norm_bound
    assert AbsDeviation(_Knots([0.0, 1.0], [0.0, 1.0]), 3).lipschitz_bound == math.sqrt(3.0)
    # a constant or a single knot does not move with p
    assert MatrixTable(np.eye(2)).p_modulus == 0.0
    assert MatrixTable(_Knots([2.0], [np.eye(2)])).p_modulus == 0.0
    # data near the float range read inf where a norm or slope overflows, never nan
    big = np.full((2, 2), 1e308)
    assert MatrixTable(big).norm_bound == math.inf
    assert MatrixTable(_Knots([0.0, 1.0], [big, -big])).p_modulus == math.inf
    far = MatrixTable(_Knots([-1e308, 1e308], [np.eye(2), -np.eye(2)]))
    assert 0.0 < far.p_modulus <= 2.0 / 1e308


def test_merit_lipschitz_bound(rotation_problem):
    rng = np.random.default_rng(0)
    ell = rotation_problem.ell
    for p in (0.0, 1.1, 2.5, 5.0):
        lip = np.linalg.norm(rotation_problem.matrix.matrix_at(p), 2) + ell
        for _ in range(100):
            x1, x2 = rng.uniform(-3, 3, size=(2, 2))
            at = rotation_problem.at(p)
            gap = abs(at.merit(x1) - at.merit(x2))
            assert gap <= lip * np.linalg.norm(x1 - x2) + 1e-9


def test_merit_convexity(rotation_problem):
    rng = np.random.default_rng(1)
    for p in (0.0, 0.9, 3.3):
        for _ in range(100):
            x1, x2 = rng.uniform(-3, 3, size=(2, 2))
            t = rng.uniform()
            at = rotation_problem.at(p)
            lhs = at.merit(t * x1 + (1 - t) * x2)
            rhs = t * at.merit(x1) + (1 - t) * at.merit(x2)
            assert lhs <= rhs + 1e-9


def test_zero_merit_iff_all_vertices_in_cone(rotation_problem):
    rng = np.random.default_rng(2)
    cone = rotation_problem.cone
    for _ in range(200):
        p = rng.uniform(0, 2 * math.pi)
        x = rng.uniform(-2, 2, size=2)
        vp = evaluate(rotation_problem, p, x)
        zero = rotation_problem.at(p).merit(x) <= 1e-9
        assert zero == bool(np.all(cone.distances(vp.vertices) <= 1e-9))


def test_concave_term_validation():
    with pytest.raises(ValueError):
        AbsComponent(0.0, 0.0, 0.5)  # positive abs coefficient not concave
    with pytest.raises(ValueError):
        ConcaveTerm((AbsComponent(0.0, 1.0, -1.0),), declared_lipschitz=1.0)
    term = ConcaveTerm((AbsComponent(0.0, 1.0, -1.0),))
    assert term.declared_lipschitz == pytest.approx(2.0)
    # two components on the same coordinate aggregate in the Euclidean sense
    term2 = ConcaveTerm((AbsComponent(0.0, 1.0, 0.0, 0.0, 0),
                         AbsComponent(0.0, 1.0, 0.0, 0.0, 0)))
    assert term2.declared_lipschitz == pytest.approx(math.sqrt(2.0))


def test_interpolated_table_range_error():
    tab = MatrixTable(_Knots(np.array([0.0, 1.0]), np.array([np.eye(2), 2 * np.eye(2)])))
    assert np.allclose(tab.matrix_at(0.5), 1.5 * np.eye(2))
    prob = SviProblem(matrix=tab, cone=orthant(2))
    with pytest.raises(KnotRangeError):
        evaluate(prob, 2.0, [0.0, 0.0])


def test_constraint_projections():
    box = Box(lower=[0.0, 0.0], upper=[1.0, 1.0])
    proj, d = box.project([2.0, 0.5])
    assert np.allclose(proj, [1.0, 0.5]) and d == pytest.approx(1.0)

    ball = Ball(center=[0.0, 0.0], radius=1.0)
    proj, d = ball.project([0.0, 2.0])
    assert np.allclose(proj, [0.0, 1.0]) and d == pytest.approx(1.0)

    tri = PolytopeSet(VPolytope([[0, 0], [1, 0], [0, 1]]))
    proj, d = tri.project([1.0, 1.0])
    assert np.allclose(proj, [0.5, 0.5]) and d == pytest.approx(SQRT2 / 2)

    assert is_all_space(AllSpace())
    assert not is_all_space(box)


def test_constraint_data_validation():
    for radius in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            Ball(center=[0.0, 0.0], radius=radius)
    with pytest.raises(ValueError):
        constraint_from_dict({"variant": "ball", "knots": [
            {"p": 0.0, "center": [0.0, 0.0], "radius": 1.0},
            {"p": 1.0, "center": [1.0, 1.0], "radius": -0.5}]})
    with pytest.raises(ValueError):  # lower 0 > upper -1 at the second knot
        Box(_Knots([0.0, 1.0], [[0.0], [0.0]]), _Knots([0.0, 1.0], [[1.0], [-1.0]]))
    box = Box(_Knots([0.0, 1.0], [[0.0], [0.0]]), _Knots([0.0, 1.0], [[1.0], [2.0]]))
    assert np.allclose(box.at(0.5).upper.value, [1.5])
    # bounds of unequal length, directly and on knots
    with pytest.raises(ValueError):
        Box(lower=[0.0], upper=[1.0, 1.0])
    with pytest.raises(ValueError):
        Box(_Knots([0.0], [[0.0]]), _Knots([0.0], [[1.0, 1.0]]))
    # non-finite knot parameters or values
    for ps, values in (([0.0, math.nan], [1.0, 2.0]), ([0.0, 1.0], [1.0, math.inf])):
        with pytest.raises(ValueError):
            _Knots(ps, values)
    with pytest.raises(ValueError):
        MatrixTable(_Knots(np.array([0.0, 1.0]),
                           np.array([np.eye(2), np.full((2, 2), math.nan)])))
    with pytest.raises(ValueError):
        Ball(_Knots([0.0], [[math.nan, 0.0]]), _Knots([0.0], [1.0]))
    # one scalar radius per knot, as a box has one bound vector per knot
    for radii in ([[1.0, 2.0], [1.0, 2.0]], [[1.0], [2.0]]):
        with pytest.raises(ValueError, match="radius knots"):
            Ball(_Knots([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]]), _Knots([0.0, 1.0], radii))
    with pytest.raises(ValueError, match="share their parameters"):  # table and constant
        Ball(_Knots([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]]), 1.0)
    with pytest.raises(ValueError):
        AbsComponent(a=0.0, coord=-1)
    # every constraint family must live in the problem's input space
    assert AllSpace().dim is None
    assert box.dim == 1 and Ball(center=[0.0, 0.0, 0.0], radius=1.0).dim == 3
    wrong = (Box(lower=[0.0], upper=[1.0]), Ball(center=[0.0, 0.0, 0.0], radius=1.0),
             PolytopeSet(VPolytope([[0.0], [1.0]])),
             Box(_Knots([0.0], [[0.0, 0.0, 0.0]]), _Knots([0.0], [[1.0, 1.0, 1.0]])))
    for constraint in wrong:
        with pytest.raises(ValueError):
            SviProblem(matrix=RotationScaled(1.0), cone=orthant(2), constraint=constraint)
        with pytest.raises(ValueError):
            VopSpec(objective=AffineFamily(RotationScaled(1.0)), constraint=constraint,
                    cone=orthant(2), objective_lipschitz=1.0)
    with pytest.raises(ValueError):  # reads x[2] of a 2-D input
        SviProblem(matrix=RotationScaled(1.0), cone=orthant(2),
                   h=ConcaveTerm((AbsComponent(a=0.0), AbsComponent(a=0.0, coord=2))))
    # every family's public project and distances reject rows of another
    # dimension and non-finite rows, which numpy would broadcast or carry as
    # nan (a 1-D row against a 2-D box read as (5, 5): distance 5.657)
    plane = (Box(np.zeros(2), np.ones(2)), Ball(np.zeros(2), 1.0),
             PolytopeSet(VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])))
    for constraint in plane:
        for rows in ([[5.0]], [[5.0, 0.0, 0.0]], [[math.nan, 0.0]], [[0.0, math.inf]]):
            with pytest.raises(ValueError):
                constraint.distances(rows)
            with pytest.raises(ValueError):
                constraint.project(rows[0])
        assert constraint.distances([[2.0, 0.5]])[0] == constraint.project([2.0, 0.5])[1] > 0.0


def test_ball_knot_tables_share_their_parameters():
    # centre and radius tables on different parameters would serialise as
    # one zipped table that is neither
    with pytest.raises(ValueError, match="share their parameters"):
        Ball(_Knots([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]]),
             _Knots([0.0, 2.0, 3.0], [1.0, 1.0, 2.0]))


def test_problem_dict_round_trip(rotation_problem, boxed_problem):
    for prob in (rotation_problem, boxed_problem):
        d = prob.to_dict()
        back = problem_from_dict(d)
        assert back.to_dict() == d
        # behavioral equality at a few probe points
        for p in (0.0, 1.0):
            for x in ([0.0, 0.0], [0.7, -0.4]):
                assert back.at(p).merit(x) == pytest.approx(prob.at(p).merit(x), abs=1e-12)


def test_rotation_orientation_flag():
    ccw = RotationScaled(1.0, clockwise=False)
    cw = RotationScaled(1.0, clockwise=True)
    p = 0.7
    assert np.allclose(ccw.matrix_at(p), cw.matrix_at(p).T)
    assert np.allclose(ccw.matrix_at(p) @ cw.matrix_at(p), np.eye(2))


def test_knotted_constraints_round_trip_and_interpolate():
    box = Box(_Knots([0.0, 2.0], [[0.0, -1.0], [1.0, -3.0]]),
              _Knots([0.0, 2.0], [[1.0, 1.0], [3.0, 5.0]]))
    ball = Ball(_Knots([0.0, 2.0], [[0.0, 0.0], [2.0, -4.0]]),
                _Knots([0.0, 2.0], [1.0, 3.0]))
    for constraint in (box, ball):
        d = constraint.to_dict()
        back = constraint_from_dict(d)
        assert back.to_dict() == d and back.dim == 2
        for p in (0.0, 0.5, 2.0):
            for x in ([0.0, 0.0], [4.0, -6.0], [-2.0, 2.5]):
                assert back.at(p).project(x)[1] == constraint.at(p).project(x)[1]
    # half way between the knots the data is the knots' mean
    lo, hi = box.at(1.0).lower.value, box.at(1.0).upper.value
    assert np.array_equal(lo, [0.5, -2.0]) and np.array_equal(hi, [2.0, 3.0])
    proj, d = box.at(1.0).project([3.0, 0.0])
    assert np.array_equal(proj, [2.0, 0.0]) and d == 1.0
    c, r = ball.at(1.0).center.value, float(ball.at(1.0).radius.value)
    assert np.array_equal(c, [1.0, -2.0]) and r == 2.0
    assert ball.at(1.0).project([1.0, 1.0])[1] == pytest.approx(1.0)
    with pytest.raises(KnotRangeError):
        ball.at(2.5)


def test_one_knot_table_holds_only_at_its_parameter():
    knots = _Knots([1.5], [[2.0, -1.0]])
    value = knots.at(1.5 + 1e-13)
    assert np.array_equal(value, [2.0, -1.0])
    value[0] = 7.0  # a copy: the table is unchanged
    assert np.array_equal(knots.at(1.5), [2.0, -1.0])
    with pytest.raises(KnotRangeError):
        knots.at(1.5 + 1e-9)
    ball = constraint_from_dict({"variant": "ball", "knots": [
        {"p": 1.5, "center": [2.0, -1.0], "radius": 0.5}]})
    assert ball.to_dict()["knots"] == [{"p": 1.5, "center": [2.0, -1.0], "radius": 0.5}]
    assert ball.at(1.5).project([2.0, 1.0])[1] == pytest.approx(1.5)
