import math
import warnings

import numpy as np
import pytest

from svikit.geometry import SumSet, VPolytope, orthant, project_dist

from svikit.problems import (deviation_vop_spec, sine_deviation_spec,
                             triangle_vop_spec)
from svikit import vopt
from svikit.setmaps import AllSpace, Box, ConstantMatrix, PolytopeSet, merit
from svikit.solver import SolverConfig
from svikit.vopt import (CERTIFIED_EMPTY, FOUND, AffineFamily,
                         GridCoarseWarning, UnsupportedCombination, VopSpec,
                         brute_force_ideal, build_vop_problem,
                         decrease_infimum, ideal_value_sweep, sample_constraint,
                         solve_ideal)

SQRT2 = math.sqrt(2.0)
DEC_TRIANGLE = 1.0 / SQRT2 + 1.0

# the published ideal-point schedule for the rotated-triangle instance
SCHEDULE_BREAKS = (0.0, math.pi / 2, 3 * math.pi / 4, 5 * math.pi / 4,
                   3 * math.pi / 2, 2 * math.pi)


def schedule_ideal(p):
    if math.isclose(p, 0.0, abs_tol=1e-12) or math.isclose(p, 2 * math.pi, abs_tol=1e-12):
        return (0.0, 0.0)
    if math.pi / 2 <= p <= 3 * math.pi / 4:
        return (1.0, 0.0)
    if 5 * math.pi / 4 <= p <= 3 * math.pi / 2:
        return (0.0, 1.0)
    return None


def interior_points(grid):
    step = grid[1] - grid[0]
    for p in grid:
        if all(abs(p - b) > step for b in SCHEDULE_BREAKS):
            yield float(p)


def test_orientation_resolution_against_the_schedule():
    """Both rotation orientations run against the published schedule; the
    matching convention is recorded here and adopted by the bundled spec."""
    grid = np.linspace(0.0, 2.0 * math.pi, 41)
    scores = {}
    for clockwise in (True, False):
        spec = triangle_vop_spec(clockwise=clockwise)
        agree = total = 0
        for p in interior_points(grid):
            expected = schedule_ideal(p)
            res = brute_force_ideal(spec, p, 16)
            total += 1
            if expected is None:
                agree += not res.is_ideal
            else:
                agree += res.is_ideal and np.allclose(res.x, expected, atol=1e-9)
        scores[clockwise] = (agree, total)
    cw_agree, cw_total = scores[True]
    ccw_agree, _ = scores[False]
    assert cw_agree == cw_total, "clockwise action must reproduce the schedule"
    assert ccw_agree < cw_total, "the printed counterclockwise matrix does not"
    print(f"\norientation adopted: clockwise (agreement {cw_agree}/{cw_total} "
          f"vs counterclockwise {ccw_agree}/{cw_total})")
    assert triangle_vop_spec().objective.clockwise is True


def test_build_vop_problem_triangle_vertex_images(triangle_spec):
    prob = build_vop_problem(triangle_spec, 0.0)
    vp = prob.evaluate(0.0, [0.0, 0.0])
    got = sorted(map(tuple, np.round(vp.vertices, 12).tolist()))
    # at p = 0 the objective is the identity: images of the three vertices
    assert got == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    assert merit(prob, 0.0, [0.0, 0.0]) == 0.0


def test_build_vop_problem_deviation_contains_minimizer():
    spec = deviation_vop_spec([0.0, 0.0], [0.0, 1.0])
    prob = build_vop_problem(spec, 0.0, image_sampling=9, bounds=([-1.0], [1.0]))
    vp = prob.evaluate(0.0, [0.0])
    assert np.all(vp.vertices >= -1e-12)  # x = phi(p) is ideal
    assert merit(prob, 0.0, [0.0]) <= 1e-12
    assert merit(prob, 0.0, [0.3]) > 0.1


def test_build_vop_problem_affine_box_identity():
    spec = VopSpec(objective=AffineFamily(ConstantMatrix(np.eye(2))),
                   constraint=Box(lower=[0.0, 0.0], upper=[1.0, 1.0]),
                   cone=orthant(2), objective_lipschitz=1.0)
    prob = build_vop_problem(spec, 0.0)
    vp = prob.evaluate(0.0, [0.0, 0.0])
    assert sorted(map(tuple, vp.vertices.tolist())) == [
        (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    assert merit(prob, 0.0, [0.0, 0.0]) == 0.0


def test_build_vop_problem_rejects_unbounded_affine_image():
    spec = VopSpec(objective=AffineFamily(ConstantMatrix(np.eye(2))),
                   constraint=AllSpace(), cone=orthant(2),
                   objective_lipschitz=1.0)
    with pytest.raises(UnsupportedCombination):
        build_vop_problem(spec, 0.0)


def test_solve_ideal_deviation_tracks_phi():
    spec = sine_deviation_spec(129)
    for p in (0.4, 1.0, 2.5):
        res = solve_ideal(spec, p, [0.0], SolverConfig(rng_seed=0, tol=1e-10),
                          alpha_under=2.0)
        assert res.status == FOUND
        assert res.x[0] == pytest.approx(spec.objective.phi(p), abs=1e-6)
        assert np.allclose(res.value, 0.0, atol=1e-9)
    # at knot-aligned parameters phi equals the sine exactly
    knot_p = 2.0 * math.pi * 64 / 128
    res = solve_ideal(spec, knot_p, [0.0], SolverConfig(rng_seed=0, tol=1e-10),
                      alpha_under=2.0)
    assert res.x[0] == pytest.approx(math.sin(knot_p), abs=1e-6)


def test_solve_ideal_triangle_found_and_empty(triangle_spec):
    res0 = solve_ideal(triangle_spec, 0.0, [0.3, 0.3],
                       SolverConfig(rng_seed=0), alpha_under=DEC_TRIANGLE)
    assert res0.status == FOUND
    assert np.allclose(res0.x, [0.0, 0.0], atol=1e-7)

    respi = solve_ideal(triangle_spec, math.pi, [0.3, 0.3],
                        SolverConfig(rng_seed=0), alpha_under=DEC_TRIANGLE,
                        certify_empty=True)
    assert respi.status == CERTIFIED_EMPTY
    assert respi.oracle is not None and not respi.oracle.is_ideal


def test_brute_force_ideal_examples(triangle_spec):
    res = brute_force_ideal(triangle_spec, 0.0, 16)
    assert res.is_ideal and np.allclose(res.x, [0.0, 0.0], atol=1e-12)
    res = brute_force_ideal(triangle_spec, math.pi, 16)
    assert not res.is_ideal

    # deviation objective: the oracle's grid argmin approximates phi = 0.3
    spec = deviation_vop_spec([0.3, 0.3], [0.0, 1.0])
    grid_density = 101
    res = brute_force_ideal(spec, 0.5, grid_density, bounds=([-1.0], [1.0]))
    # independent argmin over the same candidate grid
    xs = np.linspace(-1.0, 1.0, 2 * grid_density)  # oracle doubles the density
    oracle_x = xs[np.argmin(np.abs(xs - 0.3))]
    assert res.is_ideal
    assert res.x[0] == pytest.approx(0.3, abs=2.0 / grid_density)
    assert abs(res.x[0] - 0.3) <= abs(oracle_x - 0.3) + 1e-12


def test_triangle_oracle_decision_does_not_depend_on_density(triangle_spec):
    # an ideal value of a linear map over a polytope is a vertex image, and
    # the vertices are in every sample: density 3 decides as density 32 does
    boundary = math.pi / 2
    for p in np.linspace(boundary - 0.02, boundary + 0.02, 41):
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridCoarseWarning)
            coarse = brute_force_ideal(triangle_spec, float(p), 3)
        assert not coarse.coarse_flip
        assert coarse.status == brute_force_ideal(triangle_spec, float(p), 32).status


def test_brute_force_grid_coarse_warning(triangle_spec, monkeypatch):
    # the flip bookkeeping: ideal at density d, empty at 2d
    fine = vopt.OracleResult(status="empty")

    def fake_once(spec, p, density, bounds, tol):
        if density == 3:
            return vopt.OracleResult(status="ideal", x=np.zeros(2), value=np.zeros(2))
        return fine

    monkeypatch.setattr(vopt, "_oracle_once", fake_once)
    with pytest.warns(GridCoarseWarning):
        res = brute_force_ideal(triangle_spec, 1.0, 3)
    assert res is fine
    assert res.coarse_flip and not res.is_ideal


def _composition_sample(verts, density):
    """The composition loop that the stacked polytope sample replaced."""
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, parts - 1):
                yield (head, *tail)

    k = len(verts)
    d = max(1, density)
    if (d + 1) ** (k - 1) > 20000:
        d = max(1, int(20000 ** (1.0 / (k - 1))) - 1)
    pts = [np.asarray(c, float) @ verts / d for c in compositions(d, k)]
    return np.unique(np.asarray(pts), axis=0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_polytope_sample_matches_composition_loop(k, n):
    rng = np.random.default_rng(10 * k + n)
    verts = rng.normal(size=(k, n))
    constraint = PolytopeSet(VPolytope(verts))
    for density in (1, 7, 33, 64):  # k = 4 at 33 and 64 hits the point cap
        got = sample_constraint(constraint, 0.0, density)
        ref = _composition_sample(verts, density)
        assert np.array_equal(got, ref)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert not got.flags.writeable
        assert sample_constraint(constraint, 0.0, density) is got
        assert sample_constraint(constraint, 2.5, density) is got


def test_oracle_point_is_a_writable_copy(triangle_spec):
    res = brute_force_ideal(triangle_spec, 0.0, 16)
    assert res.is_ideal and res.x.flags.writeable
    sample = sample_constraint(triangle_spec.constraint, 0.0, 32)
    assert not np.shares_memory(res.x, sample)


def test_ideal_value_sweep_deviation():
    grid = np.linspace(0.0, 2.0 * math.pi, 65)
    spec = sine_deviation_spec(65)
    table = ideal_value_sweep(spec, grid, [0.0],
                              SolverConfig(rng_seed=0, tol=1e-10), alpha_under=2.0)
    assert all(r.solved for r in table.rows)
    for r in table.rows:
        assert r.x[0] == pytest.approx(math.sin(r.p), abs=1e-6)
        assert np.allclose(r.value, 0.0, atol=1e-9)


def test_ideal_value_sweep_triangle_plateau(triangle_spec):
    sub = np.linspace(math.pi / 2, 3 * math.pi / 4, 17)
    table = ideal_value_sweep(triangle_spec, sub, [0.3, 0.3],
                              SolverConfig(rng_seed=0), alpha_under=DEC_TRIANGLE)
    assert all(r.solved for r in table.rows)
    for r in table.rows:
        assert np.allclose(r.x, [1.0, 0.0], atol=1e-6)
    # the value column is continuous across the plateau
    vals = np.array([r.value for r in table.rows])
    assert np.max(np.linalg.norm(np.diff(vals, axis=0), axis=1)) <= 0.1


def test_decrease_infimum_triangle(triangle_spec):
    res = decrease_infimum(triangle_spec, [0.3, 2.0], 4)
    assert abs(res.alpha - DEC_TRIANGLE) <= 0.05


def test_ideal_value_single_valuedness():
    # degenerate objective constant along x2: several ideal points, one value
    spec = VopSpec(objective=AffineFamily(ConstantMatrix(np.array([[1.0, 0.0],
                                                                   [1.0, 0.0]]))),
                   constraint=Box(lower=[0.0, 0.0], upper=[1.0, 1.0]),
                   cone=orthant(2), objective_lipschitz=1.0)
    prob = build_vop_problem(spec, 0.0)
    ideal_xs = [x for x in prob.feasible_samples(0.0) if merit(prob, 0.0, x) <= 1e-9]
    assert len(ideal_xs) > 1
    vals = np.asarray([spec.objective.value(0.0, x) for x in ideal_xs])
    assert np.max(np.linalg.norm(vals - vals[0], axis=1)) <= 1e-9


def test_vop_map_concavity_inclusion(triangle_spec):
    # the built set map satisfies the cone-concavity inclusion on random triples
    prob = build_vop_problem(triangle_spec, 1.0)
    cone = triangle_spec.cone
    rng = np.random.default_rng(4)
    for _ in range(40):
        x1, x2 = rng.uniform(-2, 2, size=(2, 2))
        t = rng.uniform()
        mid = prob.evaluate(1.0, t * x1 + (1 - t) * x2)
        v1 = t * prob.evaluate(1.0, x1).vertices
        v2 = (1 - t) * prob.evaluate(1.0, x2).vertices
        hull = VPolytope(np.array([a + b for a in v1 for b in v2]))
        target = SumSet(hull, cone)
        for w in mid.vertices:
            assert project_dist(w, target)[1] <= 1e-9


def test_deviation_rows_satisfy_unconstrained_error_bound():
    # with the whole space feasible the constrained bound degenerates to the
    # plain merit / (alpha - 1) certificate, which every solved row carries
    grid = np.linspace(0.0, 2.0 * math.pi, 33)
    spec = sine_deviation_spec(33)
    table = ideal_value_sweep(spec, grid, [0.0],
                              SolverConfig(rng_seed=0, tol=1e-10), alpha_under=2.0)
    for r in table.rows:
        assert r.solved
        assert np.linalg.norm(r.x - r.warm_start) <= r.bound_rhs + 1e-9


def test_oracle_agreement_on_a_midsize_grid(triangle_spec):
    grid = np.linspace(0.0, 2.0 * math.pi, 65)
    table = ideal_value_sweep(triangle_spec, grid, [0.3, 0.3],
                              SolverConfig(rng_seed=0),
                              alpha_under=DEC_TRIANGLE,
                              with_oracle=True, oracle_density=16)
    statuses = table.meta["statuses"]
    for r, s in zip(table.rows, statuses):
        assert r.solved == (s == "ideal"), f"disagreement at p={r.p}"
    # empty stretches are charted, not fatal: some unsolved run covers p = pi
    from svikit.parametric import continuity_report
    rep = continuity_report(table)
    assert any(a <= math.pi <= b for a, b in rep.unsolved_runs)
