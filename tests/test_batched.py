"""The batched paths against one-point references: ``merit_many`` and
``evaluate_many`` against row-by-row evaluation, the batched Caristi step
against a step that tries one candidate at a time, and the speculative
bisection against the step-by-step loop.  All comparisons are bit for bit
except on face-table cones, whose batched matrix product may move a distance
by an ulp with the batch size."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svikit.geometry import PolyCone, orthant, seeded_rotation, unit_directions
from svikit.parametric import _speculative_bisect
from svikit.problems import (boxed_rotation_problem, deviation_vop_spec,
                             rotation_inclusion_problem, triangle_vop_spec)
from svikit.setmaps import (Ball, ImageOverflow, KnotRangeError, MatrixTable, SviProblem, _Knots,
                            evaluate)
from svikit import solver
from svikit.solver import SolverConfig, caristi_step, segment_step
from svikit.vopt import VopSpec

P = 0.7


def _problems():
    probs = {f"rotation h={h} fan={f}": rotation_inclusion_problem(with_h=h, with_fan=f)
             for h in (True, False) for f in (True, False)}
    probs["boxed"] = boxed_rotation_problem()
    ps = [0.0, 1.0, 7.0]
    probs["knotted ball"] = rotation_inclusion_problem(constraint=Ball(
        _Knots(ps, [[0.0, 0.0], [0.5, -1.0], [1.0, 1.0]]), _Knots(ps, [1.0, 0.25, 2.0])))
    probs["triangle"] = triangle_vop_spec(clockwise=True)
    probs["deviation"] = deviation_vop_spec([0.0, 1.0, -0.5], [0.0, 1.0, 2.0])
    return probs


PROBLEMS = _problems()


def _scalar_merit(prob, p, x, kappa):
    """The merit computed one point at a time, as the library did before it
    had a batched path."""
    if isinstance(prob, VopSpec):
        obj = prob.objective
        fx = (obj.matrix.matrix_at(p) @ x if hasattr(obj, "matrix")
              else np.full(obj.dim_out, abs(float(x[0]) - float(obj.phi_knots.at(p)))))
        verts = prob.at(p).values - fx
    else:
        verts = prob.matrix.matrix_at(p) @ x
        if prob.h is not None:
            verts = verts + np.array([c.a + c.b * x[c.coord] + c.c * abs(x[c.coord] - c.d)
                                      for c in prob.h.components])
        verts = verts[None, :] if prob.fan is None else verts + prob.fan.matrices @ x
    m = float(np.max(prob.cone.distances(verts)))
    if kappa > 0:
        m += kappa * prob.at(p).constraint.project(x)[1]
    return m


def _points(prob, size, seed):
    n = prob.dim_in
    return np.random.default_rng(seed).uniform(-3.0, 3.0, size=(size, n))


@pytest.mark.parametrize("size", [1, 3, 64, 257])
@pytest.mark.parametrize("kappa", [0.0, 0.8])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_merit_many_equals_one_row_merits(name, kappa, size):
    prob = PROBLEMS[name]
    X = _points(prob, size, size)
    got = prob.at(P).merit_many(X, kappa)
    assert got.shape == (size,)
    assert np.array_equal(got, [prob.at(P).merit(x, kappa) for x in X])
    assert np.array_equal(got, [_scalar_merit(prob, P, x, kappa) for x in X])
    assert np.array_equal(prob.at(P).evaluate_many(X),
                          [prob.evaluate(P, x).vertices for x in X])


def test_merit_many_on_face_table_cones():
    """Non-orthant cones go through the face table, whose batched matrix
    product may change a distance by an ulp with the batch size."""
    rng = np.random.default_rng(3)
    wedge = SviProblem(matrix=MatrixTable([[2.0, -1.0], [0.5, 1.5]]),
                       cone=PolyCone(np.array([[1.0, 0.2], [0.3, 1.0]])))
    cone3 = SviProblem(matrix=MatrixTable(rng.standard_normal((3, 3))),
                       cone=PolyCone(np.eye(3) + 0.3 * rng.random((3, 3))))
    for prob in (wedge, cone3):
        for size in (1, 3, 64, 257):
            X = _points(prob, size, size)
            got = prob.at(P).merit_many(X)
            ref = np.array([prob.at(P).merit(x) for x in X])
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-14


def test_merit_many_validates_at_the_boundary(rotation_problem, triangle_spec, monkeypatch):
    with pytest.raises(ValueError):
        rotation_problem.at(0.0).merit_many(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        rotation_problem.at(0.0).merit_many([[0.0, math.nan]])
    with pytest.raises(ValueError):
        rotation_problem.at(0.0).merit_many(np.zeros((2, 2)), kappa=-1.0)
    with pytest.raises(ValueError):
        evaluate(rotation_problem, 0.0, [0.0, 0.0, 0.0])
    # finite points whose image overflows (numpy's overflow warning silenced):
    # the computed vertices are checked once, by the merit and by the
    # polytope of ``evaluate``
    # the one-row image is row 0 of the batch, byte for byte, and checks x
    for prob in (rotation_problem, triangle_spec):
        for x in np.random.default_rng(4).uniform(-3.0, 3.0, (8, 2)):
            assert (prob.evaluate(P, x).vertices.tobytes()
                    == prob.at(P).evaluate_many(x[None])[0].tobytes())
        for x in ([0.0, math.nan], [math.inf, 0.0]):
            with pytest.raises(ValueError):
                prob.evaluate(P, x)
    with np.errstate(over="ignore", invalid="ignore"):
        for prob, x in ((rotation_problem, [1e308, 1e308]),
                        (triangle_spec, [1.5e308, 1.5e308])):
            assert not np.isfinite(prob.at(P).evaluate_many([x])).all()
            for kappa in (0.0, 0.8):
                with pytest.raises(ValueError):
                    prob.at(P).merit_many([[0.0, 0.0], x], kappa)
                with pytest.raises(ValueError):
                    prob.at(P).merit(x, kappa)
            with pytest.raises(ValueError):
                prob.evaluate(P, x)
        # a finite image whose merit overflows: its vertices are about
        # -1.3e200, so the squared norm reads inf
        huge = rotation_inclusion_problem(scale=1e200)
        with pytest.raises(ImageOverflow, match="the image at p = 2.0 has a merit"):
            huge.at(2.0).merit_many([[1.0, 1.0]])
        # a descent stops there, where inf + k*d <= inf would accept every step
        monkeypatch.setattr(SolverConfig, "max_iters", 200)
        with pytest.raises(ImageOverflow, match="the image at p = 2.0 has a merit"):
            solver.solve(huge, 2.0, [1.0, 1.0], SolverConfig(alpha=1.5))


def _knot_table_problem():
    ps, rng = [0.0, 0.15, 0.3], np.random.default_rng(7)
    return SviProblem(matrix=MatrixTable(_Knots(ps, rng.uniform(-2.0, 2.0, (3, 2, 2)))),
                      cone=orthant(2))


MATRIX_OWNERS = {
    "rotation": (lambda: rotation_inclusion_problem(clockwise=True), lambda prob: prob.matrix),
    "knot table": (_knot_table_problem, lambda prob: prob.matrix),
    "triangle": (triangle_vop_spec, lambda prob: prob.objective.matrix),
}


@pytest.mark.parametrize("name", sorted(MATRIX_OWNERS))
def test_the_matrix_of_the_last_parameter_is_kept(name):
    # each problem builds M(p) once per parameter, in the view ``at(p)`` it
    # keeps for the last p asked, keyed by the exact float: alternating
    # parameters (signed zeros included) give a fresh object's vertices bit
    # for bit, and the kept matrix is read-only
    make, family = MATRIX_OWNERS[name]
    prob = make()
    X = _points(prob, 16, 1)
    for p in (0.1, 0.2, 0.1, 0.0, -0.0, 0.0):
        assert prob.at(p).evaluate_many(X).tobytes() == make().at(p).evaluate_many(X).tobytes()
        at = prob.at(p)
        assert prob.at(p) is at and at.M is prob.at(p).M
        assert at.M.tobytes() == family(make()).matrix_at(p).tobytes()
        with pytest.raises(ValueError):
            at.M[0, 0] = 1.0


def test_a_parameter_outside_the_knots_raises_on_every_call():
    prob = _knot_table_problem()
    X = _points(prob, 4, 2)
    for _ in range(2):
        for p in (0.5, -0.1):
            with pytest.raises(KnotRangeError):
                prob.at(p).evaluate_many(X)
            with pytest.raises(KnotRangeError):
                prob.at(p).merit_many(X)
        prob.at(0.2).evaluate_many(X)


# ---------------------------------------------------------------------------
# the Caristi step
# ---------------------------------------------------------------------------

def _sequential_step(merit_fn, x, k, cfg, step_seed, extras=()):
    """One candidate at a time, in the order the batched step must keep."""
    fx = merit_fn(x)
    if fx <= cfg.tol:
        return "converged", None, []

    def accept(u):
        d = float(np.linalg.norm(u - x))
        return d > 1e-15 and merit_fn(u) + k * d <= fx

    for u in extras:
        if accept(u):
            return "accepted", u, []
    h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    grad = np.array([(merit_fn(x + h * e) - merit_fn(x - h * e)) / (2.0 * h)
                     for e in np.eye(len(x))])
    gn = float(np.linalg.norm(grad))
    gd = grad / gn if gn > 1e-14 else None
    if gd is not None:
        for c in (1.0, 1.7, 3.0):
            u = x - min(c * fx / gn, fx / k) * gd
            if accept(u):
                return "accepted", u, []
    rng = np.random.default_rng([cfg.rng_seed, step_seed])
    dirs = unit_directions(len(x), solver.DIRECTION_SAMPLES) @ seeded_rotation(len(x), rng).T
    r, prev, stable, radii = min(solver.RADIUS0, fx / k), None, 0, []
    while r > solver.MIN_RADIUS:
        radii.append(r)
        if gd is not None and accept(x - r * gd):
            return "accepted", x - r * gd, radii
        best = math.inf
        for d in dirs:
            fu = merit_fn(x + r * d)
            best = min(best, (fu - fx) / r)
            if fu + k * r <= fx:
                return "accepted", x + r * d, radii
        if prev is not None and best > -k:
            if abs(best - prev) <= 1e-3 * max(1.0, abs(best)):
                stable += 1
                if stable >= 2:
                    break
            else:
                stable = 0
        prev = best
        r *= solver.RADIUS_DECAY
    return "no_step", None, radii


def _assert_same_step(prob, p, x, k, kappa, step_seed, extras=()):
    cfg = SolverConfig(rng_seed=5)
    status, u, radii = _sequential_step(lambda y: prob.at(p).merit(y, kappa), x, k, cfg,
                                        step_seed, extras)
    out = caristi_step(lambda X: prob.at(p).merit_many(X, kappa), x,
                       prob.at(p).merit(x, kappa), k, cfg, step_seed=step_seed,
                       extra_candidates=extras)
    assert out.status == status
    if status == "no_step":
        assert out.radii_tried == tuple(radii)
    if u is not None:
        assert np.array_equal(out.u, u)
        assert out.merit == prob.at(p).merit(u, kappa)
    return status


@pytest.mark.parametrize("step_seed", range(4))
def test_caristi_step_matches_sequential_rotation(rotation_problem, step_seed):
    statuses = set()
    for x in np.random.default_rng(step_seed).uniform(-2.0, 2.0, size=(6, 2)):
        for k in (0.5, 3.0):
            statuses.add(_assert_same_step(rotation_problem, 1.1, x, k, 0.0, step_seed))
        # an extra candidate at x itself is a zero step, never accepted
        _assert_same_step(rotation_problem, 1.1, x, 0.5, 0.0, step_seed, [x.copy()])
    assert {"accepted", "no_step"} <= statuses


@pytest.mark.parametrize("step_seed", range(4))
def test_caristi_step_matches_sequential_triangle(step_seed):
    prob = PROBLEMS["triangle"]
    rng = np.random.default_rng(10 + step_seed)
    for p in (0.3, 2.0, 5.0):
        for x in rng.uniform(-0.5, 1.5, size=(3, 2)):
            _, dx = prob.at(p).constraint.project(x)
            extras = [segment_step(x, prob.at(p).constraint, dx)] if dx > 1e-8 else []
            for k in (0.05, 3.0):
                _assert_same_step(prob, p, x, k, 1.3, step_seed, extras)


def test_caristi_step_matches_sequential_without_descent():
    flat = SviProblem(matrix=MatrixTable(np.zeros((2, 2))), cone=orthant(2),
                      constraint=Ball(center=[0.0, 0.0], radius=1.0))
    assert _assert_same_step(flat, 0.0, np.array([0.2, 0.1]), 0.5, 0.0, 0) == "converged"
    const = rotation_inclusion_problem(scale=0.0, with_fan=False)
    assert _assert_same_step(const, 0.0, np.array([0.0, 0.0]), 0.5, 0.0, 1) == "no_step"


# ---------------------------------------------------------------------------
# the speculative bisection
# ---------------------------------------------------------------------------

TOL = 1e-9


def _sequential_bisect(holds, lo, hi, iters):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _counted(merit):
    """A ``merit_many`` over a scalar merit of t, and the list of its calls."""
    calls = []

    def merit_many(ts):
        calls.append(len(ts))
        return np.array([merit(t) for t in ts], dtype=float)
    return merit_many, calls


_PRIOR = st.tuples(st.floats(-2e3, 2e3), st.floats(-1e3, 1e3) | st.sampled_from([math.inf, math.nan]))


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(-1e3, 1e3), width=st.floats(0.0, 1e3), iters=st.integers(0, 50),
       seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["random", "oscillating", "threshold"]),
       priors=st.lists(_PRIOR, max_size=5))
def test_speculative_bisection_equals_sequential(lo, width, iters, seed, kind, priors):
    # prior samples unrelated to the merit steer the guesses wrong: they may
    # cost calls, never a step
    hi = lo + width
    threshold = lo + width * (seed % 1000) / 1000.0
    merit = {
        # a fixed pseudo-random merit per point, neither monotone nor smooth
        "random": lambda t: TOL + hash((seed, float(t))) % 3,
        "oscillating": lambda t: TOL - math.sin((seed % 97 + 1) * float(t)),
        "threshold": lambda t: TOL + (threshold - t),
    }[kind]
    merit_many, calls = _counted(merit)
    got = _speculative_bisect(merit_many, TOL, lo, hi, iters, priors)
    assert got == _sequential_bisect(lambda t: merit(t) <= TOL, lo, hi, iters)
    assert len(calls) <= iters  # every call decides at least one step


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3), frac=st.floats(0.0, 1.0),
       slope=st.floats(1e-3, 1e3), iters=st.integers(0, 50))
def test_speculative_bisection_on_a_linear_merit_beats_depth_5_trees(lo, width, frac, slope,
                                                                     iters):
    # a merit linear in t, seeded with two of its own samples left of [lo, hi]:
    # the secant guesses its root to rounding, so the walk needs no more calls
    # than the 31-point midpoint trees it replaced, ceil(iters / 5), unless the
    # path passes within rounding of the root, where the guess may take the
    # wrong side; such runs are held to one step per call
    hi, threshold = lo + width, lo + width * frac
    merit = lambda t: TOL + slope * (threshold - t)
    visited, a, b = [], lo, hi
    for _ in range(iters):
        visited.append(0.5 * (a + b))
        a, b = (a, visited[-1]) if merit(visited[-1]) <= TOL else (visited[-1], b)
    merit_many, calls = _counted(merit)
    priors = [(t, merit(t)) for t in (lo - 2.0 * width, lo - width)]
    got = _speculative_bisect(merit_many, TOL, lo, hi, iters, priors)
    assert got == _sequential_bisect(lambda t: merit(t) <= TOL, lo, hi, iters)
    if all(abs(t - threshold) > 1e-12 * (abs(lo) + 3.0 * width) for t in visited):
        assert len(calls) <= -(-iters // 5)
    assert len(calls) <= iters
