import dataclasses
import math

import numpy as np
import pytest

from conftest import random_pointed_cone
from svikit import solver
from svikit.geometry import orthant
from svikit.increase import SamplingConfig, global_infimum
from svikit.problems import rotation_inclusion_problem, rotation_solution_path
from svikit.setmaps import (Ball, Box, ConcaveTerm, AbsComponent, MatrixTable, PolytopeSet,
                            RotationScaled, SviProblem, is_all_space, rotation_matrix)
from svikit.solver import (RADIUS0, AlreadyFeasible, SolverConfig, StepOutcome, caristi_step,
                           segment_step, solve)

SQRT2 = math.sqrt(2.0)


def merit_fn_for(problem, p):
    return lambda X: problem.at(p).merit_many(X)


def test_caristi_step_accepts_descent(rotation_problem):
    fn = merit_fn_for(rotation_problem, 0.0)
    out = caristi_step(fn, [0.0, 0.0], SQRT2, 0.5, SolverConfig(tol=1e-8))
    assert out.accepted
    d = float(np.linalg.norm(out.u))
    fu = rotation_problem.at(0.0).merit(out.u)
    assert out.merit == fu  # the step reports the accepted point's merit
    assert fu + 0.5 * d <= SQRT2 + 1e-12


def test_caristi_step_converged_at_solution(rotation_problem):
    fn = merit_fn_for(rotation_problem, 0.9)
    x = rotation_solution_path(0.9)
    out = caristi_step(fn, x, rotation_problem.at(0.9).merit(x), 0.5, SolverConfig(tol=1e-8))
    assert out.converged


def test_caristi_step_stalls_on_constant_infeasible_map():
    fn = lambda X: np.full(len(X), SQRT2)
    out = caristi_step(fn, np.zeros(2), SQRT2, 0.5, SolverConfig(tol=1e-8))
    assert out.status == "no_step"
    assert out.radii_tried
    assert out.merit == SQRT2  # the merit at x it was handed


def test_caristi_step_measures_no_merit_at_its_start(rotation_problem):
    # the caller holds merit(x): a step below tol measures nothing, and no
    # other step measures x on its own
    batches = []

    def recording(X):
        batches.append(np.array(X))
        return rotation_problem.at(0.4).merit_many(X)

    x = np.array([-0.7, 1.2])
    fx = rotation_problem.at(0.4).merit(x)
    assert caristi_step(recording, x, 1e-9, 0.5, SolverConfig(tol=1e-8)).converged
    assert not batches
    for k, extras in ((0.5, ()), (0.5, [x + 0.1]), (40.0, ())):
        out = caristi_step(recording, x, fx, k, SolverConfig(tol=1e-8), extra_candidates=extras)
        assert out.status == ("no_step" if k == 40.0 else "accepted")
        assert batches and not any(len(B) == 1 and np.array_equal(B[0], x) for B in batches)
        batches.clear()


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
    u = segment_step([2.0, 0.0], box, 0.5)
    assert np.allclose(u, [1.5, 0.0])
    assert box.project(u)[1] == pytest.approx(0.5, abs=1e-9)

    ball = Ball(center=[0.0, 0.0], radius=1.0)
    u = segment_step([0.0, 2.0], ball, 1.0)
    assert np.allclose(u, [0.0, 1.0], atol=1e-12)

    with pytest.raises(AlreadyFeasible):
        segment_step([0.5, 0.5], box, 0.1)
    with pytest.raises(ValueError):
        segment_step([2.0, 0.0], box, 5.0)  # beyond the distance


def test_segment_step_identity_random():
    rng = np.random.default_rng(0)
    box = Box(lower=[-1.0, -1.0], upper=[1.0, 1.0])
    for _ in range(50):
        x = rng.uniform(-4, 4, size=2)
        _, d = box.project(x)
        if d <= 1e-9:
            continue
        t = rng.uniform(0.1, 1.0) * d
        u = segment_step(x, box, t)
        _, du = box.project(u)
        assert du == pytest.approx(d - t, abs=1e-9)


def _step_spy(monkeypatch, fail_first=False):
    """(merit handed in, k, outcome) of every Caristi step that solve takes;
    with ``fail_first`` the first step finds nothing."""
    steps = []

    def step(merit_fn, x, fx, descent_k, *args, **kwargs):
        out = (StepOutcome("no_step", merit=fx) if fail_first and not steps
               else caristi_step(merit_fn, x, fx, descent_k, *args, **kwargs))
        steps.append((fx, descent_k, out))
        return out

    monkeypatch.setattr("svikit.solver.caristi_step", step)
    return steps


def _assert_certificate(res, x0, steps):
    # the certificate reads only the initial merit: bound_rhs is it over the
    # last k, bit for bit, and the accepted steps telescope under it
    assert res.bound_rhs == res.merit_initial / res.descent_k
    assert res.path_length <= (res.merit_initial - res.merit_final) / res.descent_k + 1e-9
    assert np.linalg.norm(res.x_final - x0) <= res.bound_rhs + 1e-9
    # each step starts from the merit the run holds: the initial one, then the
    # last accepted; accepted merits strictly decrease
    assert steps[0][0] == res.merit_initial
    accepted = [out.merit for _, _, out in steps if out.accepted]
    assert all(b < a for a, b in zip([res.merit_initial] + accepted, accepted))
    for (_, _, out), (fx_next, _, _) in zip(steps, steps[1:]):
        if out.accepted:
            assert fx_next == out.merit
    assert res.merit_final == steps[-1][2].merit


def test_monotone_merit_and_telescoping(rotation_problem, monkeypatch):
    steps = _step_spy(monkeypatch)
    x0 = np.array([1.5, -1.8])
    res = solve(rotation_problem, 2.2, x0, SolverConfig(alpha=1.5, tol=1e-8, rng_seed=3))
    assert res.stop == "converged" and res.iterations >= 1
    assert res.merit_initial == rotation_problem.at(2.2).merit(x0)
    _assert_certificate(res, x0, steps)


def test_every_descent_kind_keeps_the_certificate(rotation_problem, boxed_problem,
                                                  triangle_spec, monkeypatch):
    # converged, no_step and max_iters runs, unconstrained, constrained and
    # on floor constants, with and without a back-off; each run's last
    # entry is its iteration cap
    stuck = SviProblem(matrix=MatrixTable(np.zeros((2, 2))), cone=orthant(2),
                       h=ConcaveTerm((AbsComponent(-1.0), AbsComponent(-1.0))),
                       declared_alpha=1.5)
    cap = SolverConfig.max_iters
    runs = [(rotation_problem, 1.0, [-5.0, 2.0], SolverConfig(alpha=1.5), cap),
            (rotation_problem, 1.0, [-5.0, 2.0], SolverConfig(alpha=1.5, tol=1e-16), 1),
            (rotation_problem, 0.3, [-1.0, -1.0], SolverConfig(alpha=1.9), cap),
            (stuck, 0.0, [0.0, 0.0], SolverConfig(alpha=1.3), cap),
            (boxed_problem, 1.0, [4.0, 4.0], SolverConfig(), cap),
            (boxed_problem, 0.3, [-3.0, 2.0], SolverConfig(rng_seed=2), cap),
            (triangle_spec, 0.0, [0.3, 0.3], SolverConfig(alpha_tilde=1.0 + 1.0 / SQRT2), cap),
            (triangle_spec, 2.0, [1.2, -0.4], SolverConfig(alpha_tilde=3.0), 300)]
    stops = set()
    for problem, p, x0, cfg, max_iters in runs:
        monkeypatch.setattr(SolverConfig, "max_iters", max_iters)
        steps = _step_spy(monkeypatch)
        res = solve(problem, p, x0, cfg)
        stops.add(res.stop)
        _assert_certificate(res, np.asarray(x0, float), steps)
    assert stops == {"converged", "no_step", "max_iters"}


def _remeasuring_solve(problem, p, x0, cfg):
    """The descent loop as it was when each Caristi step measured the merit
    at its own start point, on given or declared constants: the reference
    for the loop that hands the step the merit it holds.  Returns the
    fields the two must share."""
    at = problem.at(p)
    constraint = at.constraint
    constrained = not is_all_space(constraint)
    ell = float(problem.ell)
    alpha_tilde = (cfg.alpha_tilde if cfg.alpha_tilde is not None
                   else getattr(problem, "declared_alpha", None))
    alpha, kappa, k_run, mandated = solver._descent_constants(
        alpha_tilde, cfg.alpha, ell, constrained, problem.best_effort)

    def psit(X):
        return at.merit_many(X, kappa)

    def step(x, k, extras, seed):  # measures merit(x) on its one row first
        return caristi_step(psit, x, float(psit(x[None, :])[0]), k, cfg, step_seed=seed,
                            extra_candidates=extras)

    psit0 = float(psit(x0[None, :])[0])
    bound_rhs = psit0 / k_run
    x, fx, path, retried, iterations = x0.copy(), psit0, 0.0, False, 0
    while iterations < cfg.max_iters:
        extras = []
        if constrained:
            _, dx = constraint.project(x)
            if dx > cfg.tol:
                extras.append(segment_step(x, constraint, dx))
                if min(dx, RADIUS0) < dx:
                    extras.append(segment_step(x, constraint, RADIUS0))
        out = step(x, k_run, extras, iterations)
        fx = out.merit
        if out.accepted:
            path += float(np.linalg.norm(out.u - x))
            x = out.u
            iterations += 1
            continue
        if out.converged or retried:
            stop = out.status
            break
        retried = True
        if not mandated:
            k_run *= 0.5
        elif not constrained:
            alpha = 0.5 * (alpha + 1.0)
            k_run = alpha - 1.0
        else:
            alpha = 0.5 * (alpha + (alpha_tilde - ell))
            kappa = alpha_tilde - alpha
            k_run = kappa - ell
        bound_rhs = psit0 / k_run
    else:
        stop = "converged" if fx <= cfg.tol else "max_iters"
    return x.tobytes(), fx, iterations, path, bound_rhs, stop


def _differential_runs(rotation_problem, boxed_problem, triangle_spec):
    """(kind, problem, p, x0, cfg, max_iters) of seeded runs: rotation, boxed
    rotation, the triangle spec (certified and floor constants), inclusions
    on a ``random_pointed_cone``, whose merit reads a face table, and
    rotation runs that reach the iteration cap."""
    rng = np.random.default_rng(32)
    cap = SolverConfig.max_iters
    for _ in range(40):
        yield ("rotation", rotation_problem, float(rng.uniform(0.0, 2.0 * math.pi)),
               rng.uniform(-3.0, 3.0, 2), SolverConfig(alpha=1.5, rng_seed=int(rng.integers(100))),
               cap)
    for _ in range(20):
        yield ("boxed", boxed_problem, float(rng.uniform(0.0, 2.0 * math.pi)),
               rng.uniform(-3.0, 3.0, 2), SolverConfig(rng_seed=int(rng.integers(100))), cap)
    for _ in range(20):
        cfg = SolverConfig(alpha_tilde=float(rng.choice([1.0 + 1.0 / SQRT2, 3.0])),
                           rng_seed=int(rng.integers(100)))
        yield ("triangle", triangle_spec, float(rng.uniform(0.0, 6.0)),
               rng.uniform(-0.5, 1.5, 2), cfg, 300)
    for _ in range(40):
        m = int(rng.integers(2, 4))
        cone = random_pointed_cone(rng, m)
        problem = SviProblem(matrix=MatrixTable(rng.standard_normal((m, m))), cone=cone)
        cfg = SolverConfig(alpha=float(rng.uniform(1.05, 1.5)), rng_seed=int(rng.integers(100)))
        yield "cone", problem, 0.0, rng.uniform(-2.0, 2.0, m), cfg, 200
    for _ in range(10):  # cut short by the iteration cap
        yield ("rotation", rotation_problem, float(rng.uniform(0.0, 2.0 * math.pi)),
               rng.uniform(-6.0, 6.0, 2), SolverConfig(alpha=1.5, tol=1e-16), 1)


def test_solve_matches_the_remeasuring_loop(rotation_problem, boxed_problem, triangle_spec,
                                            monkeypatch):
    # handing each step the merit the run holds changes no field of any run:
    # a held merit that came from a batch row equals its one-row value bit
    # for bit, on face-table cones too (a row never depends on its batch)
    original = caristi_step
    held = []

    def step(merit_fn, x, fx, *args, **kwargs):
        held.append(fx == float(merit_fn(np.asarray(x)[None, :])[0]))
        return original(merit_fn, x, fx, *args, **kwargs)

    stops = set()
    for kind, problem, p, x0, cfg, max_iters in _differential_runs(rotation_problem,
                                                                   boxed_problem, triangle_spec):
        monkeypatch.setattr(SolverConfig, "max_iters", max_iters)
        monkeypatch.setattr("svikit.solver.caristi_step", step)
        held.clear()
        res = solve(problem, p, x0, cfg)
        monkeypatch.setattr("svikit.solver.caristi_step", original)
        stops.add(res.stop)
        ours = (res.x_final.tobytes(), res.merit_final, res.iterations, res.path_length,
                res.bound_rhs, res.stop)
        assert all(held), (kind, p, x0)
        assert ours == _remeasuring_solve(problem, p, x0, cfg), (kind, p, x0)
    assert stops == {"converged", "no_step", "max_iters"}


def test_constrained_solve_certificates(boxed_problem):
    cfg = SolverConfig(tol=1e-8, rng_seed=0)
    for x0 in ([0.0, 0.0], [4.0, 4.0], [-3.0, 2.0]):
        res = solve(boxed_problem, 1.0, x0, cfg)
        assert res.merit_final <= 1e-8
        assert res.kappa > 0
        # feasibility at exit: the penalized merit controls both parts
        assert boxed_problem.at(1.0).merit(res.x_final) <= 1e-8
        _, d = boxed_problem.at(1.0).constraint.project(res.x_final)
        assert d <= 1e-8 / res.kappa + 1e-12
        assert res.bound_holds


def test_a_constrained_solve_projects_each_iterate_once(boxed_problem, triangle_spec,
                                                         monkeypatch):
    # the loop projects each iterate once and builds both segment candidates
    # from that projection; their identity check reads distances only.  The
    # back-off retry steps from the same iterate and projects it no more
    projected, starts = [], []
    step = solver.caristi_step
    monkeypatch.setattr(solver, "caristi_step", lambda fn, x, *a, **kw: starts.append(x.copy())
                        or step(fn, x, *a, **kw))
    for cls in (Box, PolytopeSet):
        project = cls.project
        monkeypatch.setattr(cls, "project", lambda self, x, project=project:
                            projected.append(np.array(x, float)) or project(self, x))
    runs = ((boxed_problem, 1.0, [4.0, 4.0], SolverConfig()),
            (boxed_problem, 0.3, [-3.0, 2.0], SolverConfig(alpha_tilde=3.0, rng_seed=2)),
            (triangle_spec, 0.4, [2.0, 1.5], SolverConfig(alpha_tilde=1.0 / SQRT2 + 1.0)),
            (triangle_spec, 2.0, [-1.0, -3.0], SolverConfig(alpha_tilde=1.0 / SQRT2 + 1.0)))
    restored = 0
    for problem, p, x0, cfg in runs:
        projected.clear(), starts.clear()
        res = solve(problem, p, x0, cfg)
        iterates = [x for i, x in enumerate(starts)
                    if i == 0 or not np.array_equal(x, starts[i - 1])]
        assert res.iterations > 0 and len(projected) == len(iterates) == res.iterations + 1
        assert all(np.array_equal(a, b) for a, b in zip(projected, iterates))
        restored += sum(problem.at(p).constraint.distances(starts) > cfg.tol)
    assert restored >= 4  # iterates outside R(p) took the segment candidates


def test_the_back_off_retry_reuses_the_iterates_projection(triangle_spec, monkeypatch):
    # a constrained run that finds no step backs off once from the same
    # iterate: one projection per iterate, and the retry's segment
    # candidates are the first try's, the same arrays
    projected, extras = [], []
    step, project = solver.caristi_step, PolytopeSet.project
    monkeypatch.setattr(solver, "caristi_step", lambda *a, extra_candidates=(), **kw:
                        extras.append(extra_candidates)
                        or step(*a, extra_candidates=extra_candidates, **kw))
    monkeypatch.setattr(PolytopeSet, "project", lambda self, x: projected.append(x.copy())
                        or project(self, x))
    res = solve(triangle_spec, 0.4, [2.0, 1.5], SolverConfig(alpha_tilde=1.0 / SQRT2 + 1.0))
    assert res.stop == "no_step" and len(extras) == res.iterations + 2  # it backed off
    assert len(projected) == res.iterations + 1
    assert extras[-1] is extras[-2]
    assert np.array_equal(projected[-1], res.x_final)


def test_the_loop_checks_the_segment_identity(boxed_problem):
    # a constraint whose distance is not the projection's breaks the
    # identity of the loop's segment candidates, as it does segment_step's
    class Offset(Box):
        def _distances(self, X):
            return super()._distances(X) + 0.25

    box = boxed_problem.constraint
    problem = rotation_inclusion_problem(constraint=Offset(box.lower, box.upper))
    with pytest.raises(RuntimeError, match="segment identity"):
        solve(problem, 1.0, [4.0, 4.0], SolverConfig())
    with pytest.raises(RuntimeError, match="segment identity"):
        segment_step([4.0, 4.0], problem.constraint, 1.0)
    x = np.array([4.0, 4.0])  # the public step is the loop's, from x's projection
    assert segment_step(x, box, 1.0).tobytes() == solver._segment(
        x, *box.project(x), box, 1.0).tobytes()


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
    assert a.merit_initial == b.merit_initial and a.merit_final == b.merit_final


def test_configs_hold_only_the_options_callers_set():
    # a new option is a deliberate edit here; the iteration cap, the witness
    # tolerance and the unread refinement rounds are class constants
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "alpha", "alpha_tilde", "tol", "rng_seed"]
    assert [f.name for f in dataclasses.fields(SamplingConfig)] == [
        "directions", "bracket_rtol", "seed"]
    assert (SolverConfig.max_iters, SamplingConfig.tolerance,
            SamplingConfig.refinement_rounds) == (10_000, 1e-7, 3)


@pytest.mark.parametrize("config, bad", [
    # on the rotation instance at p = 1 from the origin, alpha = nan stopped at
    # no_step with bound_rhs nan yet certified, tol = nan reached merit 0 and
    # reported no_step, and alpha = inf overflowed in caristi_step
    (SolverConfig, {"alpha": math.nan}), (SolverConfig, {"alpha": math.inf}),
    (SolverConfig, {"alpha_tilde": math.nan}), (SolverConfig, {"alpha_tilde": -math.inf}),
    (SolverConfig, {"tol": math.nan}), (SolverConfig, {"tol": math.inf}),
    (SolverConfig, {"tol": 0.0}), (SolverConfig, {"tol": -1e-8}),
    (SolverConfig, {"rng_seed": -1}), (SolverConfig, {"rng_seed": 1.0}),
    (SolverConfig, {"rng_seed": True}), (SolverConfig, {"rng_seed": np.bool_(False)}),
    # directions = 0 divided by zero in unit_directions, -3 drew no direction
    # and bracket_rtol = nan returned the unrefined bracket
    (SamplingConfig, {"directions": 0}), (SamplingConfig, {"directions": -3}),
    (SamplingConfig, {"directions": 64.0}), (SamplingConfig, {"directions": True}),
    (SamplingConfig, {"bracket_rtol": math.nan}), (SamplingConfig, {"bracket_rtol": math.inf}),
    (SamplingConfig, {"bracket_rtol": 0.0}), (SamplingConfig, {"seed": -1}),
    (SamplingConfig, {"seed": 0.5}), (SamplingConfig, {"seed": False})])
def test_configs_reject_values_that_cannot_certify(config, bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        config(**bad)
    with pytest.raises(ValueError, match=next(iter(bad))):
        dataclasses.replace(config(), **bad)


def test_configs_take_numpy_integers_and_sampled_bounds():
    # range checks against the problem stay in solve; a sampled alpha_tilde
    # keeps its type through replace
    cfg = SolverConfig(alpha=0.5, alpha_tilde=solver._Sampled(2.5), rng_seed=np.int64(3))
    cfg = dataclasses.replace(cfg, rng_seed=cfg.rng_seed + 1)
    assert isinstance(cfg.alpha_tilde, solver._Sampled) and cfg.rng_seed == 4
    scfg = SamplingConfig(directions=np.int32(8), seed=np.uint64(2), bracket_rtol=np.float64(0.5))
    assert dataclasses.replace(scfg, seed=0).directions == 8


def test_max_iters_exceeded(rotation_problem, monkeypatch):
    # one step from (-5, 2) leaves merit 0.51 (from (50, 50) it reaches 0)
    monkeypatch.setattr(SolverConfig, "max_iters", 1)
    res = solve(rotation_problem, 1.0, [-5.0, 2.0], SolverConfig(alpha=1.5, tol=1e-16))
    # the result carries the last iterate and its merit, as a no-step run does
    assert res.stop == "max_iters" and res.iterations == 1
    assert not np.array_equal(res.x_final, [-5.0, 2.0])
    assert res.merit_final == rotation_problem.at(1.0).merit(res.x_final)
    assert res.merit_initial == rotation_problem.at(1.0).merit([-5.0, 2.0])
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
    # a sampled bound certifies nothing
    assert run.alpha_source == "sampled" and not run.caristi_certified
    draws = np.random.default_rng(4).uniform(-2.0, 2.0, size=(6, 2))
    assert np.any(box.distances(draws) > 0.5)
    xs = np.array([x for _, x, _ in res.estimates])
    assert len(xs) and np.all(box.distances(xs) == 0.0)


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
        assert res.merit_final == problem.at(0.3).merit(x0) <= 1e-8
        # on the sampled route, and no constant was shown
        assert res.alpha_source == "sampled" and not res.caristi_certified
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
    res = solve(rotation_problem, 0.3, [1.0, 1.0], cfg)
    assert res.alpha_used == 0.9 * 1.3 and res.alpha_source == "given"
    res = solve(rotation_problem, 0.3, [1.0, 1.0])
    assert res.alpha_used == min(1.5, 0.9 * declared) and res.alpha_source == "declared"
    assert res.caristi_certified
    # a bound with 0.9 alpha_tilde <= 1 runs at (1 + alpha_tilde)/2 instead
    low = rotation_inclusion_problem(declared_alpha=1.05)
    assert solve(low, 0.3, [-1.0, -1.0]).alpha_used == 0.5 * (1.0 + 1.05)
    # the constrained interval is built on it too
    res = solve(boxed_problem, 0.3, [1.0, 1.0], SolverConfig(alpha_tilde=8.0))
    assert res.alpha_used == 0.5 * (0.5 * (8.0 - 0.5 + 1.0) + 8.0 - 0.5)
    assert res.kappa == 8.0 - res.alpha_used
    res = solve(boxed_problem, 0.3, [1.0, 1.0])
    assert res.kappa == boxed_problem.declared_alpha - res.alpha_used
    assert res.alpha_source == "declared"
    # a given alpha next to a declared bound is still the declared bound's run
    res = solve(boxed_problem, 0.3, [1.0, 1.0], SolverConfig(alpha=1.04))
    assert res.alpha_used == 1.04 and res.alpha_source == "declared"
    assert not seen  # a set or declared bound is never sampled
    bare = SviProblem(matrix=RotationScaled(3.0), cone=orthant(2))  # declares no bound
    res = solve(bare, 0.3, [-1.0, -1.0], SolverConfig(rng_seed=2))
    assert res.alpha_used == 1.5 and res.alpha_source == "sampled"
    assert not res.caristi_certified
    scfg = SamplingConfig(bracket_rtol=0.05, directions=64, seed=2)
    assert len(seen) == 1 and seen[0].alpha == global_infimum(bare, [0.3], 6, scfg).alpha
    assert abs(seen[0].alpha - (3.0 / SQRT2 + 1.0)) <= 0.1
    # with alpha set, the unconstrained run needs no alpha_tilde at all
    res = solve(bare, 0.3, [-1.0, -1.0], SolverConfig(alpha=1.2))
    assert res.alpha_used == 1.2 and res.alpha_source == "given" and res.caristi_certified
    assert len(seen) == 1


def _assert_one_back_off(res, x0, steps, k0):
    # one retry at half of k, which the certificate then uses
    ks = [k for _, k, _ in steps]
    assert ks[0] == pytest.approx(k0, rel=1e-12) and set(ks[1:]) == {ks[1]}
    assert ks[1] == pytest.approx(0.5 * ks[0], rel=1e-12)
    assert res.descent_k == ks[1]
    assert res.bound_holds and res.merit_final <= 1e-8
    _assert_certificate(res, x0, steps)


def test_back_off_halves_k_unconstrained(rotation_problem, monkeypatch):
    # only k moves, so the retry reuses the merit the run holds
    steps = _step_spy(monkeypatch, fail_first=True)
    x0 = np.array([-1.0, -1.0])
    res = solve(rotation_problem, 0.3, x0, SolverConfig(alpha=1.5))
    _assert_one_back_off(res, x0, steps, 0.5)
    assert steps[1][0] == steps[0][0]
    assert res.alpha_used == 1.25 and res.kappa == 0.0 and res.caristi_certified
    assert res.alpha_source == "given"


def test_back_off_halves_k_constrained(boxed_problem, monkeypatch):
    # the default alpha is the interval's midpoint, k = alpha_tilde - alpha - ell
    k0 = 0.25 * (boxed_problem.declared_alpha - 1.0 - 0.5)
    assert k0 == pytest.approx(0.015165, abs=1e-6)
    for x0 in (np.array([-1.0, -1.0]), np.array([4.0, 4.0])):  # in R(p), then outside
        steps = _step_spy(monkeypatch, fail_first=True)
        res = solve(boxed_problem, 0.3, x0)
        _assert_one_back_off(res, x0, steps, k0)
        assert res.kappa == pytest.approx(res.descent_k + 0.5, rel=1e-12)
        assert res.alpha_used == pytest.approx(boxed_problem.declared_alpha - 0.5 - res.descent_k)
        assert res.caristi_certified and res.alpha_source == "declared"
        # kappa moved, so the retry measures the penalized merit at x0 once
        # more; it fell with kappa where x0 lies outside R(p)
        assert steps[1][0] == boxed_problem.at(0.3).merit(x0, res.kappa)
        outside = boxed_problem.at(0.3).constraint.project(x0)[1] > 0.0
        assert (steps[1][0] < steps[0][0]) == outside


def test_back_off_halves_k_on_floor_constants(triangle_spec, monkeypatch):
    # alpha_tilde = 1 + 1/sqrt2 leaves the constrained interval empty for
    # ell = 1: a best-effort run descends uncertified at k = MIN_DESCENT,
    # and its retry keeps kappa and the merit it holds
    steps = _step_spy(monkeypatch, fail_first=True)
    x0 = np.array([0.3, 0.3])
    cfg = SolverConfig(alpha_tilde=1.0 + 1.0 / SQRT2)
    res = solve(triangle_spec, 0.0, x0, cfg)
    _assert_one_back_off(res, x0, steps, 0.05)
    assert steps[1][0] == steps[0][0]
    assert res.kappa == 1.0 and math.isnan(res.alpha_used) and not res.caristi_certified
    assert res.alpha_source == "floor"
