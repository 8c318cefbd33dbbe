import math
import os

import numpy as np
import pytest

from svikit.geometry import orthant
from svikit.parametric import (SweepRow, SweepTable, TooFewRows,
                               continuity_report, csv_header, sweep,
                               write_csv)
from svikit import setmaps
from svikit.problems import rotation_inclusion_problem, rotation_solution_path
from svikit.setmaps import AbsComponent, ConcaveTerm, MatrixTable, SviProblem
from svikit.solver import SolverConfig, solve

SQRT2 = math.sqrt(2.0)


def _table_from_path(ps, xs, solved=None):
    rows = []
    for i, (p, x) in enumerate(zip(ps, xs)):
        ok = True if solved is None else solved[i]
        rows.append(SweepRow(p=float(p), x=np.asarray(x, float), merit=0.0,
                             bound_rhs=1.0, bound_holds=True, solved=ok))
    return SweepTable(rows=rows)


def test_sweep_rotation_instance_all_solved(rotation_problem):
    grid = np.linspace(0.0, 2.0 * math.pi, 65)
    cfg = SolverConfig(alpha=1.5, tol=1e-8, rng_seed=0)
    table = sweep(rotation_problem, grid, [0.0, 0.0], cfg)
    assert len(table.rows) == 65
    assert all(r.solved for r in table.rows)
    assert all(r.merit <= 1e-8 for r in table.rows)
    assert table.meta["warm_start"]


def test_single_point_grid_equivalent_to_solve(rotation_problem):
    cfg = SolverConfig(alpha=1.5, tol=1e-8, rng_seed=0)
    table = sweep(rotation_problem, [1.0], [0.0, 0.0], cfg)
    res = solve(rotation_problem, 1.0, [0.0, 0.0], cfg)
    row = table.rows[0]
    assert row.solved and res.merit_final <= cfg.tol
    assert row.bound_rhs == pytest.approx(res.bound_rhs)
    assert np.linalg.norm(row.x - np.array([0.0, 0.0])) <= res.bound_rhs + 1e-9


def test_continuity_constant_path():
    ps = np.linspace(0, 1, 20)
    table = _table_from_path(ps, [np.array([0.3, 0.7])] * 20)
    rep = continuity_report(table)
    assert rep.max_step_ratio == 0.0
    assert not rep.discontinuity_flags
    assert not rep.unsolved_runs


def test_continuity_unit_speed_closed_form_path():
    # the closed-form branch is a unit-speed curve; fine grids approach ratio 1
    ps = np.linspace(0.0, 2.0 * math.pi, 1001)
    table = _table_from_path(ps, [rotation_solution_path(p) for p in ps])
    rep = continuity_report(table)
    assert rep.max_step_ratio == pytest.approx(1.0, abs=1e-3)


def test_continuity_flags_injected_jump():
    ps = np.arange(0.0, 2.0, 0.1)
    xs = [np.array([0.0, 0.0]) for _ in ps]
    for i in range(10, len(xs)):
        xs[i] = xs[i] + np.array([1.0, 0.0])  # jump of size 1 at row 10
    table = _table_from_path(ps, xs)
    rep = continuity_report(table)
    assert rep.max_step_ratio == pytest.approx(10.0)
    assert 10 in rep.discontinuity_flags


def test_continuity_unsolved_runs():
    ps = np.linspace(0, 1, 11)
    solved = [True] * 11
    for i in (3, 4, 8):
        solved[i] = False
    table = _table_from_path(ps, [np.zeros(2)] * 11, solved)
    rep = continuity_report(table)
    assert rep.unsolved_runs == [(ps[3], ps[4]), (ps[8], ps[8])]


def test_continuity_too_few_rows():
    table = _table_from_path([0.0], [np.zeros(2)])
    with pytest.raises(TooFewRows):
        continuity_report(table)


def test_warm_start_dominates_cold(rotation_problem):
    grid = np.linspace(0.0, 2.0 * math.pi, 33)
    cfg = SolverConfig(alpha=1.5, tol=1e-8, rng_seed=0)
    warm = sweep(rotation_problem, grid, [0.0, 0.0], cfg)
    cold = sweep(rotation_problem, grid, [0.0, 0.0], cfg, warm_start=False)
    assert sum(r.iterations for r in warm.rows) <= sum(r.iterations for r in cold.rows)
    assert all(r.solved for r in cold.rows)


def test_row_error_bounds_vs_warm_start(rotation_problem):
    grid = np.linspace(0.0, 2.0 * math.pi, 65)
    cfg = SolverConfig(alpha=1.5, tol=1e-8, rng_seed=0)
    table = sweep(rotation_problem, grid, [0.0, 0.0], cfg)
    for r in table.rows:
        assert np.linalg.norm(r.x - r.warm_start) <= r.bound_rhs + 1e-8
        assert r.bound_holds


def test_grid_refinement_stability(rotation_problem):
    cfg = SolverConfig(alpha=1.5, tol=1e-8, rng_seed=0)
    tables = {n: sweep(rotation_problem, np.linspace(0, 2 * math.pi, n),
                       [0.0, 0.0], cfg) for n in (33, 65, 129)}
    # classifications identical under halving the spacing
    assert all(r.solved for t in tables.values() for r in t.rows)
    ratios = {n: continuity_report(t).max_step_ratio for n, t in tables.items()}
    limit = ratios[129]
    assert abs(ratios[65] - limit) <= abs(ratios[33] - limit) + 1e-9


def test_csv_schema_and_golden_header(tmp_path, rotation_problem):
    grid = np.linspace(0.0, 1.0, 5)
    cfg = SolverConfig(alpha=1.5, tol=1e-8, rng_seed=0)
    table = sweep(rotation_problem, grid, [0.0, 0.0], cfg)
    out = tmp_path / "sweep.csv"
    write_csv(table, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "p,x_1,x_2,merit,bound_rhs,bound_holds,solved"
    assert len(lines) == 6
    cells = lines[1].split(",")
    assert len(cells) == 7
    assert cells[5] in ("true", "false") and cells[6] in ("true", "false")
    assert csv_header(2) == ["p", "x_1", "x_2", "merit", "bound_rhs",
                             "bound_holds", "solved"]
    assert csv_header(1, 2, True) == ["p", "x_1", "merit", "bound_rhs",
                                      "bound_holds", "solved", "val_1", "val_2",
                                      "oracle_status"]


def test_sweep_determinism_byte_identical(tmp_path, rotation_problem):
    grid = np.linspace(0.0, 2.0 * math.pi, 17)
    cfg = SolverConfig(alpha=1.5, tol=1e-8, rng_seed=5)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(sweep(rotation_problem, grid, [0.0, 0.0], cfg), a)
    write_csv(sweep(rotation_problem, grid, [0.0, 0.0], cfg), b)
    assert a.read_bytes() == b.read_bytes()


def test_sweep_input_validation(rotation_problem):
    cfg = SolverConfig(alpha=1.5)
    with pytest.raises(ValueError):
        sweep(rotation_problem, [], [0.0, 0.0], cfg)
    with pytest.raises(ValueError):
        sweep(rotation_problem, [1.0, 0.5], [0.0, 0.0], cfg)


def test_iteration_capped_rows_keep_the_last_iterate(rotation_problem, monkeypatch):
    # a row that hits the cap above tol records where the run stopped and
    # its merit, and the next row starts there (and is solved from there)
    monkeypatch.setattr(SolverConfig, "max_iters", 2)
    cfg = SolverConfig(alpha=1.5, tol=1e-16)
    start = np.array([-2.0, -1.0])
    table = sweep(rotation_problem, [0.0, 0.1], start, cfg)
    res = solve(rotation_problem, 0.0, start, cfg)
    assert res.stop == "max_iters"
    first, second = table.rows
    assert np.array_equal(first.x, res.x_final)
    assert first.merit == res.merit_final == rotation_problem.at(0.0).merit(first.x)
    assert first.merit < rotation_problem.at(0.0).merit(start)
    assert not first.solved and not first.bound_holds and math.isnan(first.bound_rhs)
    assert np.array_equal(second.warm_start, first.x)
    assert second.solved


def test_a_last_allowed_step_that_converges_is_converged(rotation_problem, monkeypatch):
    # the one allowed step from (50, 50) lands at merit 0: the run converged
    # and its sweep row is solved with a finite bound
    monkeypatch.setattr(SolverConfig, "max_iters", 1)
    cfg = SolverConfig(alpha=1.5, tol=1e-16)
    res = solve(rotation_problem, 1.0, [50.0, 50.0], cfg)
    assert res.iterations == 1 and res.merit_final == 0.0
    assert res.stop == "converged"
    row = sweep(rotation_problem, [1.0], [50.0, 50.0], cfg).rows[0]
    assert row.solved and row.bound_holds and math.isfinite(row.bound_rhs)


def test_no_step_rows_keep_the_stuck_iterate():
    # a constant map off the cone admits no descent step: each row records
    # its start and the merit there
    stuck = SviProblem(matrix=MatrixTable(np.zeros((2, 2))), cone=orthant(2),
                       h=ConcaveTerm((AbsComponent(-1.0), AbsComponent(-1.0))),
                       declared_alpha=1.5)
    table = sweep(stuck, [0.0, 0.5], [0.3, -0.2], SolverConfig(alpha=1.3))
    for row in table.rows:
        assert not row.solved and math.isnan(row.bound_rhs)
        assert np.array_equal(row.x, [0.3, -0.2]) and row.merit == pytest.approx(SQRT2)


def test_the_warm_golden_sweep_makes_a_fixed_number_of_merit_calls(monkeypatch):
    # the rotation_warm golden's 9-row sweep, counted on the view's
    # ``merit_many`` (the one merit, which every merit call runs): a change
    # to the row selection's ray search or to the descent's merit calls
    # shows here as a count, not as a timing
    original, calls = setmaps.ProblemAt.merit_many, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(setmaps.ProblemAt, "merit_many", counted)
    table = sweep(rotation_inclusion_problem(), 2.0 * math.pi / 64 * np.arange(9), [0.0, 0.0],
                  SolverConfig(alpha=1.5))
    assert all(r.solved for r in table.rows)
    assert calls[0] == 1250
