import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pointed_cone
from svikit.geometry import (PolyCone, SumSet, VPolytope, hints_for_matrix, matvec_rows,
                             orthant, project_dist)

from svikit.increase import (PropertyAbsent, SamplingConfig, estimate_bound,
                             global_infimum, nonsolution_pairs)
from svikit.problems import (deviation_vop_spec, sine_deviation_spec,
                             triangle_vop_spec)
from svikit import vopt
from svikit.setmaps import (AllSpace, Ball, Box, KnotRangeError, MatrixTable,
                            PolytopeSet, ProblemAt, RotationScaled, _Knots,
                            rotation_matrix)
from svikit.solver import SolverConfig, solve
from svikit.vopt import (CERTIFIED_EMPTY, FOUND, NOT_FOUND, AbsDeviation, AffineFamily,
                         UnsupportedCombination, VopSpec, brute_force_ideal,
                         ideal_value_sweep, solve_ideal)

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
            res = brute_force_ideal(spec, p)
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
    assert triangle_vop_spec().objective.matrix.clockwise is True


def test_build_vop_problem_triangle_vertex_images(triangle_spec):
    vp = triangle_spec.evaluate(0.0, [0.0, 0.0])
    got = sorted(map(tuple, np.round(vp.vertices, 12).tolist()))
    # at p = 0 the objective is the identity: images of the three vertices
    assert got == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    assert triangle_spec.at(0.0).merit([0.0, 0.0]) == 0.0


def test_build_vop_problem_deviation_contains_minimizer():
    spec = deviation_vop_spec([0.0, 0.0], [0.0, 1.0])
    vp = spec.evaluate(0.0, [0.0])  # spanned over [-1, 1], phi's range widened by one
    assert np.all(vp.vertices >= -1e-12)  # x = phi(p) is ideal
    assert spec.at(0.0).merit([0.0]) <= 1e-12
    assert spec.at(0.0).merit([0.3]) > 0.1


def test_build_vop_problem_affine_box_identity():
    spec = VopSpec(objective=AffineFamily(MatrixTable(np.eye(2))),
                   constraint=Box(lower=[0.0, 0.0], upper=[1.0, 1.0]),
                   cone=orthant(2), objective_lipschitz=1.0)
    vp = spec.evaluate(0.0, [0.0, 0.0])
    assert sorted(map(tuple, vp.vertices.tolist())) == [
        (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    assert spec.at(0.0).merit([0.0, 0.0]) == 0.0


def test_build_vop_problem_rejects_unbounded_affine_image():
    # the pairing is rejected when the spec is built, before any problem
    with pytest.raises(UnsupportedCombination):
        VopSpec(objective=AffineFamily(MatrixTable(np.eye(2))),
                constraint=AllSpace(), cone=orthant(2), objective_lipschitz=1.0)


def test_solve_ideal_deviation_tracks_phi():
    spec = sine_deviation_spec(129)
    for p in (0.4, 1.0, 2.5):
        res = solve_ideal(spec, p, [0.0],
                          SolverConfig(rng_seed=0, tol=1e-10, alpha_tilde=2.0))
        assert res.status == FOUND
        assert res.x[0] == pytest.approx(spec.at(p).b, abs=1e-6)
        assert np.allclose(res.value, 0.0, atol=1e-9)
    # at knot-aligned parameters phi equals the sine exactly
    knot_p = 2.0 * math.pi * 64 / 128
    res = solve_ideal(spec, knot_p, [0.0],
                      SolverConfig(rng_seed=0, tol=1e-10, alpha_tilde=2.0))
    assert res.x[0] == pytest.approx(math.sin(knot_p), abs=1e-6)


def test_solve_ideal_starts_at_the_ideal_point():
    # the decrease property is absent at the ideal point phi(1) = 0.8408, so
    # alpha_tilde must not come from a bracket at the start point
    spec = sine_deviation_spec(65)
    phi = spec.at(1.0).b
    for x0 in (phi, 0.84):
        res = solve_ideal(spec, 1.0, [x0])
        assert res.status == FOUND
        assert res.x[0] == pytest.approx(phi, abs=1e-6)


def test_solve_ideal_triangle_found_and_empty(triangle_spec):
    res0 = solve_ideal(triangle_spec, 0.0, [0.3, 0.3],
                       SolverConfig(rng_seed=0, alpha_tilde=DEC_TRIANGLE))
    assert res0.status == FOUND
    assert np.allclose(res0.x, [0.0, 0.0], atol=1e-7)

    respi = solve_ideal(triangle_spec, math.pi, [0.3, 0.3],
                        SolverConfig(rng_seed=0, alpha_tilde=DEC_TRIANGLE))
    assert respi.status == CERTIFIED_EMPTY
    assert respi.oracle is not None and not respi.oracle.is_ideal


def test_solve_ideal_reads_ell_from_the_objective(triangle_spec):
    # alpha_tilde - 1 = 1/sqrt(2): a Lipschitz constant of 0.5 leaves the
    # mandated interval ((alpha_tilde - ell + 1)/2, alpha_tilde - ell)
    # nonempty, one of 1.0 empties it and the run falls back on floor constants
    runs = {}
    for ell in (0.5, 1.0):
        spec = VopSpec(triangle_spec.objective, triangle_spec.constraint,
                       triangle_spec.cone, objective_lipschitz=ell)
        assert spec.ell == ell
        res = solve_ideal(spec, 0.0, [0.3, 0.3],
                          SolverConfig(rng_seed=0, alpha_tilde=DEC_TRIANGLE))
        assert res.status == FOUND
        runs[ell] = res.solve_result
    below = runs[0.5]
    assert below.caristi_certified
    assert (DEC_TRIANGLE + 0.5) / 2 < below.alpha_used < DEC_TRIANGLE - 0.5
    assert below.kappa == DEC_TRIANGLE - below.alpha_used
    assert not runs[1.0].caristi_certified


def test_brute_force_ideal_examples(triangle_spec):
    res = brute_force_ideal(triangle_spec, 0.0)
    assert res.is_ideal and np.allclose(res.x, [0.0, 0.0], atol=1e-12)
    res = brute_force_ideal(triangle_spec, math.pi)
    assert not res.is_ideal

    # deviation objective: the ideal point phi = 0.3 is a spanning point, so
    # the oracle returns it exactly
    spec = deviation_vop_spec([0.3, 0.3], [0.0, 1.0])
    res = brute_force_ideal(spec, 0.5)
    assert res.is_ideal
    assert res.x[0] == pytest.approx(0.3, abs=1e-15)


_COMPOSITIONS = {}


def _composition_sample(verts, density):
    """The dense polytope sample of the grid oracle: every composition of the
    density into one weight per vertex, capped at about 20,000 points;
    memoized per vertex list and density."""
    key = (verts.shape, verts.tobytes(), density)
    if key not in _COMPOSITIONS:
        _COMPOSITIONS[key] = _compositions_of(verts, density)
    return _COMPOSITIONS[key]


def _compositions_of(verts, density):
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


def _box_grid(lo, hi, density):
    axes = [np.linspace(l, h, max(2, density)) for l, h in zip(lo, hi)]
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def _grid_worst(spec, p, density, points=None):
    """The dense-grid oracle that the exact one replaced, as a reference:
    candidates on a grid of R(p) at twice ``density`` plus the component
    minimizers, and for each (or for each of ``points``) the largest
    distance to the cone of f(p, s) - f(p, x) over the vertex images s
    (affine objective on a polytope or box) or over every candidate."""
    at, obj, d = spec.at(p), spec.objective, 2 * density
    constraint = at.constraint
    if isinstance(constraint, PolytopeSet):
        verts = constraint.polytope.vertices
        cands = verts.copy() if len(verts) == 1 else _composition_sample(verts, d)
    elif isinstance(constraint, Box):
        cands = _box_grid(constraint.lower.value, constraint.upper.value, d)
    elif isinstance(constraint, Ball) and constraint.dim == 1:
        c, r = constraint.center.value, float(constraint.radius.value)
        cands = np.linspace(c[0] - r, c[0] + r, max(3, d)).reshape(-1, 1)
    else:  # the whole space, spanned over phi's range widened by one
        span = float(np.max(np.abs(obj.phi_knots.values))) + 1.0
        cands = _box_grid([-span], [span], d)
    if isinstance(obj, AbsDeviation):
        cands = np.vstack([cands, constraint.project(np.array([at.b]))[0]])
    ref = cands
    affine = not isinstance(obj, AbsDeviation)
    if affine and isinstance(constraint, PolytopeSet):
        ref = constraint.polytope.vertices
    elif affine and isinstance(constraint, Box):
        corners = zip(constraint.lower.value, constraint.upper.value)
        ref = np.array(list(itertools.product(*corners)), float)
    if points is not None:
        cands = points
    cand_vals, ref_vals = at.f(cands), at.f(ref)
    gaps = (ref_vals[None, :, :] - cand_vals[:, None, :]).reshape(-1, spec.cone.dim)
    return cands, spec.cone.distances(gaps).reshape(len(cands), len(ref)).max(axis=1)


def _grid_oracle(spec, p, density, tol=1e-9):
    """The reference's status and its first ideal candidate (or None)."""
    cands, worst = _grid_worst(spec, p, density)
    hits = np.flatnonzero(worst <= tol)
    return ("ideal", cands[hits[0]]) if hits.size else ("empty", None)


def test_oracle_point_is_a_writable_copy(triangle_spec):
    res = brute_force_ideal(triangle_spec, 0.0)
    assert res.is_ideal and res.x.flags.writeable
    assert not np.shares_memory(res.x, triangle_spec.constraint.polytope.vertices)
    assert not np.shares_memory(res.value, triangle_spec.at(0.0).values)


def test_span_images_are_kept_per_exact_parameter():
    # the kept span points and values belong to the exact p asked, not to a
    # p within rounding of it: the answer after a nearby p equals a fresh
    # spec's, and both arrays of the view are read-only
    X = np.random.default_rng(5).uniform(-1.0, 2.0, (64, 2))
    spec, p = triangle_vop_spec(), 0.7 + 4e-13
    spec.at(0.7).evaluate_many(X)
    assert np.array_equal(spec.at(p).evaluate_many(X), triangle_vop_spec().at(p).evaluate_many(X))
    at = spec.at(p)
    assert at.p == p and at is not spec.at(0.7)
    assert np.array_equal(at.values, triangle_vop_spec().at(p).values)
    assert not any(a.flags.writeable for a in (at.span, at.values))


def test_each_ideal_run_computes_its_span_images_once(monkeypatch):
    # the oracle and the descent share the span points at p, which the view
    # ``spec.at(p)`` keeps: a fresh spec, so that none is kept from an
    # earlier test
    spec, calls = triangle_vop_spec(clockwise=True), []
    span_points = vopt.span_points

    def counting(at):
        calls.append(at.p)
        return span_points(at)

    monkeypatch.setattr(vopt, "span_points", counting)
    res = solve_ideal(spec, 0.0, [0.3, 0.3], SolverConfig(rng_seed=0, alpha_tilde=DEC_TRIANGLE))
    assert res.status == FOUND and calls == [0.0]
    ideal_value_sweep(spec, [0.5, 1.0, 1.5], [0.3, 0.3], alpha_under=DEC_TRIANGLE)
    assert calls == [0.0, 0.5, 1.0, 1.5]


def test_empty_triangle_row_is_certified_on_the_vertices(triangle_spec, monkeypatch):
    # the oracle's merit runs over the three vertices only, in one pass
    rows, oracle_rows = [], []
    merit_many, oracle = ProblemAt.merit_many, vopt.brute_force_ideal

    def counting_merit_many(at, X, kappa=0.0):
        rows.append(len(X))
        return merit_many(at, X, kappa)

    def counting_oracle(spec, p):  # the rows of the merit calls the oracle makes
        start = len(rows)
        out = oracle(spec, p)
        oracle_rows.extend(rows[start:])
        return out

    monkeypatch.setattr(ProblemAt, "merit_many", counting_merit_many)
    monkeypatch.setattr(vopt, "brute_force_ideal", counting_oracle)
    res = solve_ideal(triangle_spec, math.pi, [0.3, 0.3],
                      SolverConfig(rng_seed=0, alpha_tilde=DEC_TRIANGLE))
    assert res.status == CERTIFIED_EMPTY
    assert oracle_rows == [3]


def test_triangle_oracle_matches_the_grid_oracle_on_257_rows(triangle_spec):
    for p in np.linspace(0.0, 2.0 * math.pi, 257):
        res = brute_force_ideal(triangle_spec, float(p))
        status, x = _grid_oracle(triangle_spec, float(p), 32)
        assert res.status == status, f"p={p}"
        assert (x is None and res.x is None) or np.array_equal(res.x, x), f"p={p}"


def _sphere(n, count=4000):
    """A dense, even sample of the unit sphere in R^2 or R^3 (Fibonacci)."""
    if n == 2:
        t = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        return np.column_stack([np.cos(t), np.sin(t)])
    z = 1.0 - (2.0 * np.arange(count) + 1.0) / count
    t = math.pi * (3.0 - math.sqrt(5.0)) * np.arange(count)
    rho = np.sqrt(1.0 - z * z)
    return np.column_stack([rho * np.cos(t), rho * np.sin(t), z])


def _check_against_the_closed_form(spec, p, tol=1e-9):
    """On a ball B(c, rho) with f = L x + b, min of w . f over the ball is
    w . f(c) - rho |L^T w|.  x is ideal iff its scalarization margin, the
    least of w . f(c) - rho |L^T w| - w . f(x) over the facet rows w, is
    nonnegative, and the ideal set is one argmin c - rho L^T w / |L^T w| (or
    the whole ball).  An ideal answer is also checked against a dense sample
    of the sphere, with cone distances alone."""
    res = brute_force_ideal(spec, p)
    at, W = spec.at(p), spec.cone.facets
    c, rho = at.constraint.center.value, float(at.constraint.radius.value)
    LW = W @ at.M
    norms = np.linalg.norm(LW, axis=1)
    low = W @ at.f(c[None])[0] - rho * norms

    def margin(X):
        return np.min(low[None] - at.f(X) @ W.T, axis=1)

    argmins = np.vstack([c, c - rho * LW[norms > 0] / norms[norms > 0, None]])
    sphere = c + rho * _sphere(len(c))
    assert res.status == ("ideal" if margin(argmins).max() >= -tol else "empty")
    if res.is_ideal:
        assert margin(res.x[None])[0] >= -tol
        assert np.linalg.norm(res.x - c) <= rho * (1.0 + 1e-12)
        gaps = at.f(sphere) - at.f(res.x[None])[0]
        assert spec.cone.distances(gaps).max() <= tol
    else:
        assert margin(np.vstack([c, sphere])).max() < -tol


def _check_against_the_grid_oracle(spec, p, density):
    if isinstance(spec.constraint, Ball) and spec.constraint.dim >= 2:
        _check_against_the_closed_form(spec, p)
        return
    res = brute_force_ideal(spec, p)
    assert res.status == _grid_oracle(spec, p, density)[0]
    if res.is_ideal:  # the exact point is feasible and ideal against the grid
        assert _grid_worst(spec, p, density, res.x[None])[1][0] <= 1e-9
        assert spec.at(p).constraint.project(res.x)[1] <= 1e-12


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exact_oracle_matches_the_grid_oracle_on_affine_instances(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    cone = orthant(m) if m == 1 or rng.random() < 0.5 else random_pointed_cone(rng, m)
    kind = rng.integers(4)
    if kind == 0:  # generic
        M = rng.standard_normal((m, n))
    elif kind == 1:  # rank deficient: the ideal set can be a face
        r = int(rng.integers(0, min(m, n) + 1))
        M = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    else:  # one direction inside the cone (or its negative): often ideal
        u = rng.uniform(0.0, 1.0, len(cone.generators)) @ cone.generators
        if kind == 3:
            u = -u
        M = np.outer(u, rng.standard_normal(n))
    obj = AffineFamily(MatrixTable(M), offset=rng.standard_normal(m))
    shape = rng.random()
    if n >= 2 and shape < 1 / 3:
        constraint = Ball(center=rng.standard_normal(n), radius=float(rng.uniform(0.1, 2.0)))
    elif shape < 2 / 3:
        constraint = PolytopeSet(VPolytope(rng.standard_normal((int(rng.integers(1, 6)), n))))
    else:
        lo = rng.standard_normal(n)
        constraint = Box(lower=lo, upper=lo + rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.8))
    spec = VopSpec(obj, constraint, cone, objective_lipschitz=float(np.linalg.norm(M, 2)))
    _check_against_the_grid_oracle(spec, 0.0, 5)


def _wedge_instances():
    """300 affine objectives on the unit disc, ordered by thin wedges
    cone((1, eps), (-1, eps)) turned by theta (rng seed 1: eps ~ U(0.01, 0.3),
    theta ~ U(0, 2 pi), Gaussian 2 x 2 L), with the wedge's unit facet
    normals."""
    rng = np.random.default_rng(1)
    for _ in range(300):
        eps, theta = rng.uniform(0.01, 0.3), rng.uniform(0.0, 2.0 * math.pi)
        L = rng.standard_normal((2, 2))
        R = rotation_matrix(theta)
        gens = np.array([[1.0, eps], [-1.0, eps]]) @ R.T
        normals = np.array([[-eps, 1.0], [eps, 1.0]]) @ R.T / math.hypot(1.0, eps)
        yield VopSpec(AffineFamily(MatrixTable(L)), Ball(center=[0.0, 0.0], radius=1.0),
                      PolyCone(gens), objective_lipschitz=float(np.linalg.norm(L, 2))), normals


def test_ball_oracle_decides_the_scalarizations_on_thin_wedges():
    # the ideal set is the common argmin of both scalarizations n . L x; on
    # a thin wedge the two argmins lie close, so a sample of the disc can
    # read a point near both as ideal
    verdicts = []
    for spec, normals in _wedge_instances():
        L = spec.at(0.0).M
        argmins = [-(n @ L) / np.linalg.norm(n @ L) for n in normals]
        margin = max(min(n @ L @ (a - x) for n, a in zip(normals, argmins)) for x in argmins)
        verdicts.append("ideal" if margin >= -1e-9 else "empty")
        assert brute_force_ideal(spec, 0.0).status == verdicts[-1]
    assert verdicts.count("empty") == 300


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exact_oracle_matches_the_grid_oracle_on_deviation_instances(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    if m == 1 or rng.random() < 0.5:
        cone = orthant(m)
    else:
        cone = random_pointed_cone(rng, m)
    if rng.random() < 0.25:  # the ray -1 inside the cone: the far end is ideal
        cone = PolyCone(-cone.generators)
    ps = np.sort(rng.uniform(0.0, 3.0, 3))
    obj = AbsDeviation(_Knots(ps, rng.uniform(-2.0, 2.0, 3)), components=m)
    lo = float(rng.uniform(-2.0, 1.0))
    hi = lo + float(rng.uniform(0.0, 2.0))
    kind = rng.integers(4)
    if kind == 0:
        constraint = AllSpace()
    elif kind == 1:
        constraint = Box(lower=[lo], upper=[hi])
    elif kind == 2:
        constraint = Ball(center=[lo], radius=hi - lo)
    else:
        constraint = PolytopeSet(VPolytope(rng.uniform(lo, hi, (int(rng.integers(1, 4)), 1))))
    spec = VopSpec(obj, constraint, cone, objective_lipschitz=math.sqrt(m))
    _check_against_the_grid_oracle(spec, float(rng.uniform(ps[0], ps[-1])), 8)


def test_ideal_value_sweep_deviation():
    grid = np.linspace(0.0, 2.0 * math.pi, 65)
    spec = sine_deviation_spec(65)
    table = ideal_value_sweep(spec, grid, [0.0],
                              SolverConfig(rng_seed=0, tol=1e-10), alpha_under=2.0)
    assert all(r.solved for r in table.rows)
    for r in table.rows:
        assert r.x[0] == pytest.approx(math.sin(r.p), abs=1e-6)
        assert np.allclose(r.value, 0.0, atol=1e-9)


def test_ideal_value_sweep_rejects_an_empty_grid(triangle_spec):
    for alpha_under in (None, DEC_TRIANGLE):  # with and without the estimate
        with pytest.raises(ValueError, match="nonempty"):
            ideal_value_sweep(triangle_spec, [], [0.3, 0.3], alpha_under=alpha_under)


def test_ideal_value_sweep_rejects_a_bound_that_is_not_finite(triangle_spec):
    # checked under its own name before any row runs: nan would have read as
    # "given" while every row resolved its own bound
    for alpha_under in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha_under must be None or finite"):
            ideal_value_sweep(triangle_spec, [0.0, 0.5], [0.3, 0.3], alpha_under=alpha_under)


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
    res = global_infimum(triangle_spec, [0.3, 2.0], 4)
    assert abs(res.alpha - DEC_TRIANGLE) <= 0.05


@pytest.mark.parametrize("make_spec", [triangle_vop_spec, lambda: sine_deviation_spec(65)],
                         ids=["triangle", "deviation"])
def test_global_infimum_of_the_built_problem_brackets_the_decrease_bound(make_spec):
    # the built problem's bound map is -f: its increase brackets are the
    # decrease brackets of f, bit for bit and with the same witnesses, on the
    # pairs where the probe finds witnesses (the others are skipped)
    spec = make_spec()
    obj = spec.objective
    cfg = SamplingConfig(bracket_rtol=0.05, seed=3)
    res = global_infimum(spec, [0.3, 2.0], 4, cfg)
    refs = []
    for p, x in nonsolution_pairs(spec, [0.3, 2.0], 4, cfg):
        hints = (hints_for_matrix(-spec.at(p).M, spec.cone)
                 if isinstance(obj, AffineFamily) else None)
        try:
            refs.append((p, x, estimate_bound(
                lambda xx: -VPolytope(spec.at(p).f(xx[None])), spec.cone, x, cfg,
                hints=hints, p_for_seed=p)))
        except PropertyAbsent:
            pass
    assert len(res.estimates) == len(refs) > 0
    for (p, x, est), (p_ref, x_ref, ref) in zip(res.estimates, refs):
        assert p == p_ref and np.array_equal(x, x_ref)
        assert (est.alpha_lo, est.alpha_hi) == (ref.alpha_lo, ref.alpha_hi)
        assert len(est.witnesses) == len(ref.witnesses)
        for (r, u), (r_ref, u_ref) in zip(est.witnesses, ref.witnesses):
            assert r == r_ref and np.array_equal(u, u_ref)
    assert res.alpha == min(est.alpha_lo for _, _, est in res.estimates)


def test_global_infimum_raises_only_when_every_sample_lacks_witnesses():
    spec = sine_deviation_spec(65)
    phi = spec.at(1.0).b
    near, far = [phi + 1e-3], [phi + 1.0]  # the probe misses the witnesses near phi
    res = global_infimum(spec, [1.0], [near, far])
    assert len(res.estimates) == 1 and res.estimates[0][1][0] == far[0]
    with pytest.raises(PropertyAbsent, match="any of the 1 sampled non-solutions"):
        global_infimum(spec, [1.0], [near])


def test_capped_ideal_rows_keep_the_last_iterate(triangle_spec, monkeypatch):
    # a row stopped by the iteration cap records its last iterate and that
    # iterate's merit; an unsolved row does not move the next row's start
    monkeypatch.setattr(SolverConfig, "max_iters", 1)
    cfg = SolverConfig(tol=1e-16)
    table = ideal_value_sweep(triangle_spec, [0.0, 0.1], [0.3, 0.3], cfg,
                              alpha_under=DEC_TRIANGLE)
    run_cfg = replace(cfg, alpha_tilde=DEC_TRIANGLE)
    for row in table.rows:
        run = solve(triangle_spec, row.p, [0.3, 0.3], run_cfg)
        assert run.stop == "max_iters"
        assert not row.solved and np.array_equal(row.warm_start, [0.3, 0.3])
        assert np.array_equal(row.x, run.x_final) and not np.array_equal(row.x, [0.3, 0.3])
        assert row.merit == run.merit_final and math.isfinite(row.merit)
    res = solve_ideal(triangle_spec, 0.0, [0.3, 0.3], replace(cfg, alpha_tilde=DEC_TRIANGLE))
    assert res.status == NOT_FOUND and res.solve_result.stop == "max_iters"
    assert np.array_equal(res.x, table.rows[0].x) and res.merit_final == table.rows[0].merit


def test_ideal_value_single_valuedness():
    # degenerate objective constant along x2: several ideal points, one value
    spec = VopSpec(objective=AffineFamily(MatrixTable(np.array([[1.0, 0.0],
                                                                   [1.0, 0.0]]))),
                   constraint=Box(lower=[0.0, 0.0], upper=[1.0, 1.0]),
                   cone=orthant(2), objective_lipschitz=1.0)
    ideal_xs = [x for x in spec.at(0.0).span if spec.at(0.0).merit(x) <= 1e-9]
    assert len(ideal_xs) > 1
    vals = np.asarray([spec.at(0.0).f(x[None])[0] for x in ideal_xs])
    assert np.max(np.linalg.norm(vals - vals[0], axis=1)) <= 1e-9


def test_vop_map_concavity_inclusion(triangle_spec):
    # the built set map satisfies the cone-concavity inclusion on random triples
    cone = triangle_spec.cone
    rng = np.random.default_rng(4)
    for _ in range(40):
        x1, x2 = rng.uniform(-2, 2, size=(2, 2))
        t = rng.uniform()
        mid = triangle_spec.evaluate(1.0, t * x1 + (1 - t) * x2)
        v1 = t * triangle_spec.evaluate(1.0, x1).vertices
        v2 = (1 - t) * triangle_spec.evaluate(1.0, x2).vertices
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
                              with_oracle=True)
    statuses = table.meta["statuses"]
    for r, s in zip(table.rows, statuses):
        assert r.solved == (s == "ideal"), f"disagreement at p={r.p}"
    # empty stretches are charted, not fatal: some unsolved run covers p = pi
    from svikit.parametric import continuity_report
    rep = continuity_report(table)
    assert any(a <= math.pi <= b for a, b in rep.unsolved_runs)


def test_linear_rotation_files_load_as_affine_rotations():
    # the older file form of the rotation objective: clockwise unless stated
    for d, clockwise in (({"variant": "linear_rotation", "scale": 2.0}, True),
                         ({"variant": "linear_rotation", "scale": 2.0, "clockwise": False},
                          False)):
        obj = vopt.objective_from_dict(d)
        assert isinstance(obj, AffineFamily) and isinstance(obj.matrix, RotationScaled)
        assert obj.to_dict() == {"variant": "affine", "matrix": {
            "variant": "rotation_scaled", "scale": 2.0, "clockwise": clockwise}}
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-0.3, 0.7]])
        for p in (0.0, 1.0, 2.5, math.pi):
            # the product alone, as the rotation objective computed it: no
            # offset is added, so its signed zeros stay
            ref = matvec_rows(2.0 * rotation_matrix(-p if clockwise else p), pts)
            assert obj.values_at(*obj.data_at(p), pts).tobytes() == ref.tobytes()
    assert vopt.objective_from_dict({"variant": "linear_rotation"}).matrix.scale == 1.0


def test_affine_offset_knots_round_trip_and_interpolate():
    obj = AffineFamily(MatrixTable(np.eye(2)),
                       offset=_Knots([0.0, 2.0], [[0.0, 1.0], [2.0, -1.0]]))
    d = obj.to_dict()
    assert d["offset_knots"] == [{"p": 0.0, "offset": [0.0, 1.0]},
                                 {"p": 2.0, "offset": [2.0, -1.0]}]
    back = vopt.objective_from_dict(d)
    assert back.to_dict() == d
    x = np.array([0.5, 0.25])
    assert np.array_equal(back.values_at(*back.data_at(1.0), x[None])[0],
                          [1.5, 0.25])  # the knots' mean offset
    assert np.array_equal(back.values_at(*back.data_at(2.0), x[None]),
                          obj.values_at(*obj.data_at(2.0), x[None]))
    with pytest.raises(KnotRangeError):
        back.data_at(2.5)
    # over a box the corners decide ideality at every p: the lower corner
    spec = VopSpec(back, Box(lower=[0.0, 0.0], upper=[1.0, 1.0]), orthant(2), 1.0)
    res = brute_force_ideal(spec, 1.0)
    assert res.is_ideal and np.array_equal(res.x, [0.0, 0.0])
    assert np.array_equal(res.value, [1.0, 0.0])


def test_ideal_value_sweep_alpha_order(triangle_spec, monkeypatch):
    # every row runs at alpha_under, else cfg.alpha_tilde, else the sampled
    # decrease infimum
    seen, sampled = [], []
    solve_ideal_ = vopt.solve_ideal
    global_infimum_ = vopt.global_infimum

    def recording_solve(spec, p, x0, cfg=None, **kw):
        seen.append(cfg.alpha_tilde)
        return solve_ideal_(spec, p, x0, cfg, **kw)

    def recording_estimate(*args, **kwargs):
        res = global_infimum_(*args, **kwargs)
        sampled.append(res.alpha)
        return res

    monkeypatch.setattr(vopt, "solve_ideal", recording_solve)
    monkeypatch.setattr(vopt, "global_infimum", recording_estimate)
    runs = {}
    for name, cfg, alpha_under in (("keyword", SolverConfig(alpha_tilde=9.0), DEC_TRIANGLE),
                                   ("cfg", SolverConfig(alpha_tilde=9.0), None),
                                   ("sampled", SolverConfig(), None)):
        seen.clear()
        table = ideal_value_sweep(triangle_spec, [0.0, 0.5], [0.3, 0.3], cfg,
                                  alpha_under=alpha_under)
        assert len(set(seen)) == 1 and len(seen) == 2
        assert table.meta["alpha_under"] == seen[0]
        runs[name] = seen[0]
    assert len(sampled) == 1  # only the last sweep estimates
    assert runs == {"keyword": DEC_TRIANGLE, "cfg": 9.0, "sampled": sampled[0]}


def test_ideal_value_sweep_rows_keep_where_their_bound_came_from(monkeypatch):
    # a sampled alpha_under bounds nothing: every row's run reads sampled and
    # uncertified, and the table's meta names the source; a given one stays
    # given and certified, at the same constants
    runs = []
    solve_ = vopt.solve
    monkeypatch.setattr(vopt, "solve", lambda *a: runs.append(solve_(*a)) or runs[-1])
    spec, grid = sine_deviation_spec(65), np.linspace(0.0, 1.0, 3)
    sampled = ideal_value_sweep(spec, grid, [0.0])
    assert sampled.meta["alpha_source"] == "sampled" and len(runs) == 3
    assert [(r.alpha_source, r.caristi_certified) for r in runs] == [("sampled", False)] * 3
    alpha_under, sampled_runs = sampled.meta["alpha_under"], runs[:]
    runs.clear()
    given = ideal_value_sweep(spec, grid, [0.0], alpha_under=alpha_under)
    assert given.meta["alpha_source"] == "given"
    assert [(r.alpha_source, r.caristi_certified) for r in runs] == [("given", True)] * 3
    for a, b in zip(sampled_runs, runs):
        assert np.array_equal(a.x_final, b.x_final) and a.alpha_used == b.alpha_used
    assert [r.x.tolist() for r in sampled.rows] == [r.x.tolist() for r in given.rows]
