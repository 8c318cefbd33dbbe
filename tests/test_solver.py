import math

import numpy as np
import pytest

from svikit.geometry import orthant
from svikit.increase import SamplingConfig, global_infimum
from svikit.problems import rotation_inclusion_problem, rotation_solution_path
from svikit.setmaps import (Ball, Box, ConcaveTerm, AbsComponent, MatrixTable,
                            RotationScaled, SviProblem, merit, merit_many,
                            rotation_matrix)
from svikit.solver import (AlreadyFeasible, SolverConfig, StepOutcome, caristi_step,
                           segment_step, solve)
from svikit.vopt import VopProblem

SQRT2 = math.sqrt(2.0)


def merit_fn_for(problem, p):
    return lambda X: merit_many(problem, p, X)


def test_caristi_step_accepts_descent(rotation_problem):
    fn = merit_fn_for(rotation_problem, 0.0)
    out = caristi_step(fn, [0.0, 0.0], 0.5, SolverConfig(tol=1e-8))
    assert out.accepted
    d = float(np.linalg.norm(out.u))
    fu = merit(rotation_problem, 0.0, out.u)
    assert out.merit == fu  # the step reports the accepted point's merit
    assert fu + 0.5 * d <= SQRT2 + 1e-12


def test_caristi_step_converged_at_solution(rotation_problem):
    fn = merit_fn_for(rotation_problem, 0.9)
    out = caristi_step(fn, rotation_solution_path(0.9), 0.5, SolverConfig(tol=1e-8))
    assert out.converged


def test_caristi_step_stalls_on_constant_infeasible_map():
    fn = lambda X: np.full(len(X), SQRT2)
    out = caristi_step(fn, np.zeros(2), 0.5, SolverConfig(tol=1e-8))
    assert out.status == "no_step"
    assert out.radii_tried


def test_solve_rotation_instance(rotation_problem):
    cfg = SolverConfig(alpha=1.5, tol=1e-8, rng_seed=0)
    res = solve(rotation_problem, 1.0, [0.0, 0.0], cfg)
    assert res.stop == "converged" and res.merit_final <= 1e-8
    assert np.linalg.norm(res.x_final) <= SQRT2 / 0.5 + 1e-6
    assert res.bound_rhs == pytest.approx(SQRT2 / 0.5)
    assert res.bound_holds
    assert res.caristi_certified


def test_solve_zero_iterations_at_closed_form_solution(rotation_problem):
    cfg = SolverConfig(alpha=1.5, tol=1e-8)
    res = solve(rotation_problem, 1.3, rotation_solution_path(1.3), cfg)
    assert res.iterations == 0
    assert res.path_length == 0.0
    assert res.merit_final <= 1e-12


def test_solve_stops_without_a_step_on_constant_infeasible_map():
    bad = SviProblem(matrix=MatrixTable(np.zeros((2, 2))), cone=orthant(2),
                     h=ConcaveTerm((AbsComponent(-1.0), AbsComponent(-1.0))),
                     declared_alpha=1.5)
    res = solve(bad, 0.0, [0.0, 0.0], SolverConfig(alpha=1.3))
    assert res.stop == "no_step" and res.iterations == 0
    assert np.array_equal(res.x_final, [0.0, 0.0])
    assert res.merit_final == pytest.approx(SQRT2)


def test_segment_step_examples():
    box = Box(lower=[0.0, 0.0], upper=[1.0, 1.0])
    u = segment_step([2.0, 0.0], box, 0.0, 0.5)
    assert np.allclose(u, [1.5, 0.0])
    assert box.project(u, 0.0)[1] == pytest.approx(0.5, abs=1e-9)

    ball = Ball(center=[0.0, 0.0], radius=1.0)
    u = segment_step([0.0, 2.0], ball, 0.0, 1.0)
    assert np.allclose(u, [0.0, 1.0], atol=1e-12)

    with pytest.raises(AlreadyFeasible):
        segment_step([0.5, 0.5], box, 0.0, 0.1)
    with pytest.raises(ValueError):
        segment_step([2.0, 0.0], box, 0.0, 5.0)  # beyond the distance


def test_segment_step_identity_random():
    rng = np.random.default_rng(0)
    box = Box(lower=[-1.0, -1.0], upper=[1.0, 1.0])
    for _ in range(50):
        x = rng.uniform(-4, 4, size=2)
        _, d = box.project(x, 0.0)
        if d <= 1e-9:
            continue
        t = rng.uniform(0.1, 1.0) * d
        u = segment_step(x, box, 0.0, t)
        _, du = box.project(u, 0.0)
        assert du == pytest.approx(d - t, abs=1e-9)


def test_monotone_merit_and_telescoping(rotation_problem):
    cfg = SolverConfig(alpha=1.5, tol=1e-8, rng_seed=3)
    res = solve(rotation_problem, 2.2, [1.5, -1.8], cfg)
    hist = res.merit_history
    assert all(hist[i + 1] < hist[i] for i in range(len(hist) - 1))
    # telescoping: total path bounded through the merit drop
    assert res.path_length <= (hist[0] - res.merit_final) / res.descent_k + 1e-9
    assert np.linalg.norm(res.x_final - np.array([1.5, -1.8])) <= res.bound_rhs + 1e-9


def test_constrained_solve_certificates(boxed_problem):
    cfg = SolverConfig(tol=1e-8, rng_seed=0)
    for x0 in ([0.0, 0.0], [4.0, 4.0], [-3.0, 2.0]):
        res = solve(boxed_problem, 1.0, x0, cfg)
        assert res.merit_final <= 1e-8
        assert res.kappa > 0
        # feasibility at exit: the penalized merit controls both parts
        assert merit(boxed_problem, 1.0, res.x_final) <= 1e-8
        _, d = boxed_problem.constraint.project(res.x_final, 1.0)
        assert d <= 1e-8 / res.kappa + 1e-12
        assert res.bound_holds


def test_constrained_alpha_interval_validation(boxed_problem):
    with pytest.raises(ValueError):
        solve(boxed_problem, 0.0, [0.0, 0.0],
              SolverConfig(alpha=1.5, alpha_tilde=1.56))
    with pytest.raises(ValueError):
        # empty interval without the escape hatch (the problem's ell is 0.5)
        solve(boxed_problem, 0.0, [0.0, 0.0], SolverConfig(alpha_tilde=1.2))


def test_determinism(rotation_problem):
    cfg = SolverConfig(alpha=1.5, tol=1e-8, rng_seed=7)
    a = solve(rotation_problem, 2.0, [0.3, 0.4], cfg)
    b = solve(rotation_problem, 2.0, [0.3, 0.4], cfg)
    assert np.array_equal(a.x_final, b.x_final)
    assert a.iterations == b.iterations
    assert a.path_length == b.path_length
    assert a.merit_history == b.merit_history


def test_max_iters_exceeded(rotation_problem):
    # one step from (-5, 2) leaves merit 0.51 (from (50, 50) it reaches 0)
    res = solve(rotation_problem, 1.0, [-5.0, 2.0],
                SolverConfig(alpha=1.5, tol=1e-16, max_iters=1))
    # the result carries the last iterate and its merit, as a no-step run does
    assert res.stop == "max_iters" and res.iterations == 1
    assert not np.array_equal(res.x_final, [-5.0, 2.0])
    assert res.merit_final == merit(rotation_problem, 1.0, res.x_final)
    assert res.merit_final == res.merit_history[-1]
    assert res.merit_final > 0.1


def _recorded_infimum(monkeypatch):
    """The results of every ``global_infimum`` call that solve makes."""
    seen = []

    def recording(*args, **kwargs):
        seen.append(global_infimum(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr("svikit.solver.global_infimum", recording)
    return seen


def test_sampled_alpha_tilde_projects_into_the_constraint(monkeypatch):
    # a constrained problem that declares no bound samples its alpha_tilde
    # at points of R(p): the seeded draws are projected into the box first
    box = Box(lower=[-0.5, -0.5], upper=[1.0, 1.0])
    problem = SviProblem(matrix=RotationScaled(3.0), cone=orthant(2), constraint=box)
    seen = _recorded_infimum(monkeypatch)
    run = solve(problem, 0.3, [-0.4, -0.4], SolverConfig(rng_seed=4))
    scfg = SamplingConfig(bracket_rtol=0.05, directions=64, seed=4)
    res = global_infimum(problem, [0.3], 6, scfg)
    assert len(seen) == 1 and seen[0].alpha == res.alpha
    # the run's constants are built on it: ell = 0, alpha the midpoint
    assert run.alpha_used == 0.5 * (0.5 * (res.alpha + 1.0) + res.alpha)
    assert run.kappa == res.alpha - run.alpha_used == run.descent_k
    draws = np.random.default_rng(4).uniform(-2.0, 2.0, size=(6, 2))
    assert np.any(box.distances(draws, 0.3) > 0.5)
    xs = np.array([x for _, x, _ in res.estimates])
    assert len(xs) and np.all(box.distances(xs, 0.3) == 0.0)


def test_a_solved_start_returns_before_alpha_tilde_is_sampled(monkeypatch):
    # the bare rotation declares no bound; x0 solves it at p = 0.3 (3 O_p x0
    # lies in the orthant), and lies in the box but 3 x0 does not
    def no_estimate(*args, **kwargs):
        raise AssertionError("alpha_tilde was sampled")

    monkeypatch.setattr("svikit.solver.global_infimum", no_estimate)
    x0 = rotation_matrix(-0.3) @ np.array([1.0, 0.5])
    box = Box(lower=[-2.0, -2.0], upper=[2.0, 2.0])
    for kwargs in ({}, {"constraint": box}):
        problem = SviProblem(matrix=RotationScaled(3.0), cone=orthant(2), **kwargs)
        res = solve(problem, 0.3, x0)
        assert res.iterations == 0 and res.path_length == 0.0
        assert np.array_equal(res.x_final, x0) and res.x_final is not x0
        assert math.isnan(res.alpha_used) and math.isnan(res.descent_k)
        assert res.kappa == 0.0 and res.bound_rhs == 0.0 and res.bound_holds
        assert res.merit_final == merit(problem, 0.3, x0) <= 1e-8
        with pytest.raises(AssertionError, match="sampled"):  # not a solution
            solve(problem, 0.3, -x0)
    with pytest.raises(AssertionError, match="sampled"):  # outside R(p)
        solve(problem, 0.3, 3.0 * x0)


def test_alpha_tilde_comes_from_cfg_then_declared_then_sampled(
        rotation_problem, boxed_problem, monkeypatch):
    seen = _recorded_infimum(monkeypatch)
    declared = rotation_problem.declared_alpha
    # the unconstrained alpha is min(1.5, 0.9 alpha_tilde)
    cfg = SolverConfig(alpha_tilde=1.3)
    assert solve(rotation_problem, 0.3, [1.0, 1.0], cfg).alpha_used == 0.9 * 1.3
    assert solve(rotation_problem, 0.3, [1.0, 1.0]).alpha_used == min(1.5, 0.9 * declared)
    # a bound with 0.9 alpha_tilde <= 1 runs at (1 + alpha_tilde)/2 instead
    low = rotation_inclusion_problem(declared_alpha=1.05)
    assert solve(low, 0.3, [-1.0, -1.0]).alpha_used == 0.5 * (1.0 + 1.05)
    # the constrained interval is built on it too
    res = solve(boxed_problem, 0.3, [1.0, 1.0], SolverConfig(alpha_tilde=8.0))
    assert res.alpha_used == 0.5 * (0.5 * (8.0 - 0.5 + 1.0) + 8.0 - 0.5)
    assert res.kappa == 8.0 - res.alpha_used
    res = solve(boxed_problem, 0.3, [1.0, 1.0])
    assert res.kappa == boxed_problem.declared_alpha - res.alpha_used
    assert not seen  # a set or declared bound is never sampled
    bare = SviProblem(matrix=RotationScaled(3.0), cone=orthant(2))  # declares no bound
    assert solve(bare, 0.3, [-1.0, -1.0], SolverConfig(rng_seed=2)).alpha_used == 1.5
    scfg = SamplingConfig(bracket_rtol=0.05, directions=64, seed=2)
    assert len(seen) == 1 and seen[0].alpha == global_infimum(bare, [0.3], 6, scfg).alpha
    assert abs(seen[0].alpha - (3.0 / SQRT2 + 1.0)) <= 0.1
    # with alpha set, the unconstrained run needs no alpha_tilde at all
    assert solve(bare, 0.3, [-1.0, -1.0], SolverConfig(alpha=1.2)).alpha_used == 1.2
    assert len(seen) == 1


def _first_step_fails(monkeypatch):
    """The k of every Caristi step; the first step finds nothing."""
    ks = []

    def step(merit_fn, x, descent_k, *args, **kwargs):
        ks.append(descent_k)
        if len(ks) == 1:
            return StepOutcome("no_step")
        return caristi_step(merit_fn, x, descent_k, *args, **kwargs)

    monkeypatch.setattr("svikit.solver.caristi_step", step)
    return ks


def _assert_one_back_off(res, ks, k0):
    # one retry at half of k, which the certificate then uses
    assert ks[0] == pytest.approx(k0, rel=1e-12) and set(ks[1:]) == {ks[1]}
    assert ks[1] == pytest.approx(0.5 * ks[0], rel=1e-12)
    assert res.descent_k == ks[1]
    assert res.bound_rhs == res.merit_history[0] / ks[1]
    assert res.bound_holds and res.merit_final <= 1e-8


def test_back_off_halves_k_unconstrained(rotation_problem, monkeypatch):
    ks = _first_step_fails(monkeypatch)
    res = solve(rotation_problem, 0.3, [-1.0, -1.0], SolverConfig(alpha=1.5))
    _assert_one_back_off(res, ks, 0.5)
    assert res.alpha_used == 1.25 and res.kappa == 0.0 and res.caristi_certified


def test_back_off_halves_k_constrained(boxed_problem, monkeypatch):
    # the default alpha is the interval's midpoint, k = alpha_tilde - alpha - ell
    ks = _first_step_fails(monkeypatch)
    res = solve(boxed_problem, 0.3, [-1.0, -1.0])
    k0 = 0.25 * (boxed_problem.declared_alpha - 1.0 - 0.5)
    assert k0 == pytest.approx(0.015165, abs=1e-6)
    _assert_one_back_off(res, ks, k0)
    assert res.kappa == pytest.approx(res.descent_k + 0.5, rel=1e-12)
    assert res.alpha_used == pytest.approx(boxed_problem.declared_alpha - 0.5 - res.descent_k)
    assert res.caristi_certified


def test_back_off_halves_k_on_floor_constants(triangle_spec, monkeypatch):
    # alpha_tilde = 1 + 1/sqrt2 leaves the constrained interval empty for
    # ell = 1: a best-effort run descends uncertified at k = MIN_DESCENT
    ks = _first_step_fails(monkeypatch)
    cfg = SolverConfig(alpha_tilde=1.0 + 1.0 / SQRT2, allow_uncertified=True)
    res = solve(VopProblem(triangle_spec), 0.0, [0.3, 0.3], cfg)
    _assert_one_back_off(res, ks, 0.05)
    assert res.kappa == 1.0 and math.isnan(res.alpha_used) and not res.caristi_certified
