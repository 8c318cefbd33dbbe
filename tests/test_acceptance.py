"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances and runtime budgets are pinned here and nowhere
else.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import math
import time

import numpy as np
import pytest

from svikit.geometry import (Verdict, VPolytope, ball_sup_dist,
                             enlargement_inclusion, excess, orthant)
from svikit.increase import (Mode, PropertyAbsent, estimate_bound,
                             hints_for_matrix, hints_for_problem)
from svikit.parametric import continuity_report, sweep, write_csv
from svikit.problems import (boxed_rotation_problem,
                             rotation_inclusion_problem,
                             rotation_solution_path, sine_deviation_spec,
                             triangle_vop_spec)
from svikit.setmaps import evaluate, merit
from svikit.solver import SolverConfig, segment_step, solve
from svikit.vopt import ideal_value_sweep
from conftest import random_pointed_cone

SQRT2 = math.sqrt(2.0)
ROT_BOUND = 3.0 / SQRT2 + 1.0
TRIANGLE_BREAKS = (0.0, math.pi / 2, 3 * math.pi / 4, 5 * math.pi / 4,
                   3 * math.pi / 2, 2 * math.pi)


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num}: {detail}"
    print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_1_excess_calculus():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    for i in range(200):
        m = 2 if i < 100 else 3
        k = int(rng.integers(1, 9))
        A = VPolytope(rng.standard_normal((k, m)) * rng.uniform(0.5, 2.0))
        cone = random_pointed_cone(rng, m)
        exact = excess(A, cone)

        # vertex attainment vs 1e4 random convex combinations
        w = rng.dirichlet(0.3 * np.ones(k), size=10_000)
        combos = np.vstack([w @ A.vertices, A.vertices])
        sampled = float(np.max(cone.distances(combos)))
        worst_gap = max(worst_gap, abs(sampled - exact))
        assert abs(sampled - exact) <= 1e-6

        # cone-displacement invariance of the excess
        mus = rng.uniform(0.0, 2.0, size=(30, len(cone.generators)))
        shifted = np.vstack([A.vertices + mu @ cone.generators for mu in mus]
                            + [A.vertices])
        shifted_exc = float(np.max(cone.distances(shifted)))
        assert abs(shifted_exc - exact) <= 1e-6

        # enlargement additivity, bracketed by the inclusion certificate
        if exact > 1e-6:
            s = rng.uniform(0.1, 1.0)
            sup, _ = ball_sup_dist(A, s, cone)
            assert abs(sup - (exact + s)) <= 1e-6
            assert enlargement_inclusion(A, s, cone, sup * (1 + 1e-6)).holds
            assert (enlargement_inclusion(A, s, cone, sup * (1 - 1e-6)).verdict
                    is Verdict.FAILS)
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 5.0,
           f"excess calculus on 200 pairs, worst attainment gap "
           f"{worst_gap:.2e}, {elapsed:.2f}s (< 5 s)")


def test_criterion_2_rescaled_rotation_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    C = orthant(2)
    widths = []
    for _ in range(10):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        x = rng.uniform(-2.0, 2.0, size=2)
        Q = 3.0 * np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
        est = estimate_bound(lambda xx: VPolytope((Q @ xx)[None, :]), C, x,
                             hints=hints_for_matrix(Q, C))
        assert est.alpha_lo <= 3.12132 <= est.alpha_hi
        assert est.width <= 0.06
        widths.append(est.width)
    Q5 = 5.0 * np.eye(2)
    est5 = estimate_bound(lambda xx: VPolytope((Q5 @ xx)[None, :]), C,
                          np.zeros(2), hints=hints_for_matrix(Q5, C))
    assert est5.alpha_lo <= 4.53553 <= est5.alpha_hi
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 30.0,
           f"rotation brackets contain 3.12132 (max width {max(widths):.3f}) "
           f"and 4.53553, {elapsed:.2f}s (< 30 s)")


def test_criterion_3_perturbation_calculus():
    t0 = time.perf_counter()
    prob = rotation_inclusion_problem()  # 3 O_p plus the h and fan budget 1/2
    C = prob.cone
    p = 0.0
    hints = hints_for_problem(prob, p)
    rng = np.random.default_rng(303)
    floor = 0.5 * ROT_BOUND  # (1 - ell) * inc of the matrix part
    lows = []
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=2)
        est = estimate_bound(lambda xx: evaluate(prob, p, xx), C, x,
                             hints=hints, p_for_seed=p)
        lows.append(est.alpha_lo)
        assert est.alpha_lo >= floor - 0.1
    elapsed = time.perf_counter() - t0
    report(3, True,
           f"perturbed increase bound >= {floor:.4f} - 0.1 at 20 points "
           f"(min {min(lows):.4f}), {elapsed:.2f}s")


def test_criterion_4_global_solvability_error_bound():
    t0 = time.perf_counter()
    prob = rotation_inclusion_problem()
    cfg = SolverConfig(alpha=1.5, tol=1e-8, rng_seed=0)
    grid = np.linspace(0.0, 2.0 * math.pi, 65)
    bound = SQRT2 / 0.5
    for p in grid:
        res = solve(prob, float(p), [0.0, 0.0], cfg)
        assert res.merit_final <= 1e-8
        assert np.linalg.norm(res.x_final) <= bound + 1e-6
        assert merit(prob, float(p), rotation_solution_path(float(p))) <= 1e-12
    elapsed = time.perf_counter() - t0
    report(4, elapsed < 60.0,
           f"65 cold solves reach 1e-8 within the bound {bound:.4f}; the "
           f"closed-form branch is exact, {elapsed:.2f}s (< 60 s)")


def test_criterion_5_numerical_implicit_function():
    prob = rotation_inclusion_problem()
    cfg = SolverConfig(alpha=1.5, tol=1e-8, rng_seed=0)
    ratios = {}
    for n in (65, 129, 257):
        table = sweep(prob, np.linspace(0.0, 2.0 * math.pi, n), [0.0, 0.0], cfg)
        assert all(r.solved for r in table.rows)
        ratios[n] = continuity_report(table).max_step_ratio
    limit = ratios[257]  # 4x the base resolution stands in for the limit
    ok = (ratios[65] <= 2.0
          and abs(ratios[129] - limit) <= abs(ratios[65] - limit) + 1e-9)
    report(5, ok,
           f"warm sweep step ratios {ratios[65]:.4f} (<= 2) -> {ratios[129]:.4f} "
           f"-> {ratios[257]:.4f}; deviation from the limit shrinks under doubling")


def test_criterion_6_constrained_solvability():
    prob = boxed_rotation_problem(half_width=2.0)
    cfg = SolverConfig(tol=1e-8, rng_seed=0)
    starts = ([0.0, 0.0], [4.0, 4.0], [-3.0, 2.5], [1.5, -1.5])
    for p in (0.0, 1.0, 2.5, 4.7):
        for x0 in starts:
            res = solve(prob, p, x0, cfg)
            assert res.merit_final <= 1e-8
            # the constrained certificate: |x - x0| against the penalized
            # initial merit over the acceptance constant
            assert np.linalg.norm(res.x_final - np.asarray(x0, float)) \
                <= res.bound_rhs + 1e-6
    # segment steps satisfy the exact distance identity
    rng = np.random.default_rng(606)
    box = prob.constraint
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-6.0, 6.0, size=2)
        _, d = box.project(x, 0.0)
        if d <= 1e-9:
            continue
        t = rng.uniform(0.05, 1.0) * d
        u = segment_step(x, box, 0.0, t)
        _, du = box.project(u, 0.0)
        worst = max(worst, abs(du - (d - t)))
        assert abs(du - (d - t)) <= 1e-9
    report(6, True,
           f"constrained certificates hold within 1e-6 at 16 runs; segment "
           f"identity within 1e-9 (worst {worst:.2e})")


def _triangle_schedule(p):
    if math.isclose(p, 0.0, abs_tol=1e-12) or math.isclose(p, 2 * math.pi,
                                                           abs_tol=1e-12):
        return (0.0, 0.0)
    if math.pi / 2 <= p <= 3 * math.pi / 4:
        return (1.0, 0.0)
    if 5 * math.pi / 4 <= p <= 3 * math.pi / 2:
        return (0.0, 1.0)
    return None


def test_criterion_7_ideal_efficiency_counterexample():
    t0 = time.perf_counter()
    spec = triangle_vop_spec(clockwise=True)  # orientation per the recorded test log
    grid = np.linspace(0.0, 2.0 * math.pi, 257)
    step = grid[1] - grid[0]
    table = ideal_value_sweep(spec, grid, [0.3, 0.3], SolverConfig(rng_seed=0),
                              alpha_under=1.0 / SQRT2 + 1.0,
                              with_oracle=True)
    statuses = table.meta["statuses"]
    interior = 0
    for row, status in zip(table.rows, statuses):
        p = row.p
        near_break = any(abs(p - b) <= step + 1e-12 for b in TRIANGLE_BREAKS)
        oracle_ideal = status == "ideal"
        if not near_break:
            interior += 1
            expected = _triangle_schedule(p)
            assert oracle_ideal == (expected is not None), f"oracle vs table at p={p}"
            if expected is not None:
                assert row.solved
                assert np.allclose(row.x, expected, atol=1e-6)
            # the solver classification matches the oracle on interior points
            assert row.solved == oracle_ideal, f"solver vs oracle at p={p}"
    elapsed = time.perf_counter() - t0
    report(7, elapsed < 60.0,
           f"257-point schedule reproduced ({interior} interior points, "
           f"boundary slack one step), solver/oracle agree, "
           f"{elapsed:.2f}s (< 60 s)")


def test_criterion_8_deviation_ideal_problem():
    grid = np.linspace(0.0, 2.0 * math.pi, 65)
    spec = sine_deviation_spec(65)
    table = ideal_value_sweep(spec, grid, [0.0],
                              SolverConfig(rng_seed=0, tol=1e-10),
                              alpha_under=2.0)
    for row in table.rows:
        assert row.solved
        assert abs(row.x[0] - math.sin(row.p)) <= 1e-6
        assert np.max(np.abs(row.value)) <= 1e-9
    # decrease bound at points away from the minimizer
    rng = np.random.default_rng(808)
    C = orthant(2)
    lows = []
    for _ in range(10):
        p = rng.uniform(0.0, 2.0 * math.pi)
        phi = spec.objective.phi(p)
        x = phi + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        g = lambda xx: VPolytope(spec.objective.value(p, xx)[None, :])
        est = estimate_bound(g, C, [x], mode=Mode.DECREASE, p_for_seed=p)
        lows.append(est.alpha_lo)
        assert est.alpha_lo >= 1.95
    # at the minimizer the property is absent (exact bound collapses to 1)
    p = 1.1
    g = lambda xx: VPolytope(spec.objective.value(p, xx)[None, :])
    with pytest.raises(PropertyAbsent):
        estimate_bound(g, C, [spec.objective.phi(p)], mode=Mode.DECREASE,
                       p_for_seed=p)
    report(8, True,
           f"deviation sweep tracks sin within 1e-6, values within 1e-9; "
           f"decrease bounds >= 1.95 (min {min(lows):.4f}), absent at phi(p)")


def test_criterion_9_determinism(tmp_path):
    prob = rotation_inclusion_problem()
    cfg = SolverConfig(alpha=1.5, tol=1e-8, rng_seed=0)
    grid4 = np.linspace(0.0, 2.0 * math.pi, 65)
    blobs4 = []
    for name in ("a", "b"):
        path = tmp_path / f"c4_{name}.csv"
        write_csv(sweep(prob, grid4, [0.0, 0.0], cfg, warm_start=False), path)
        blobs4.append(path.read_bytes())
    assert blobs4[0] == blobs4[1]

    spec = triangle_vop_spec(clockwise=True)
    grid7 = np.linspace(0.0, 2.0 * math.pi, 65)
    blobs7 = []
    for name in ("a", "b"):
        table = ideal_value_sweep(spec, grid7, [0.3, 0.3],
                                  SolverConfig(rng_seed=0),
                                  alpha_under=1.0 / SQRT2 + 1.0,
                                  with_oracle=True)
        path = tmp_path / f"c7_{name}.csv"
        write_csv(table, path, oracle_statuses=table.meta["statuses"])
        blobs7.append(path.read_bytes())
    assert blobs7[0] == blobs7[1]
    report(9, True, "repeated seeded runs emit byte-identical CSV outputs")
