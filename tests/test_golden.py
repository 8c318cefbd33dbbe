"""Golden-output regression: small fixed runs must reproduce the CSV files in
``tests/data`` — numbers within 1e-12, text columns exactly.

The fixtures pin outputs across commits, so a refactor that must not change
results is checked against the code that wrote them.  Rewrite them (only
when a change of results is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""
import csv
import math
import os
import sys

import numpy as np
import pytest

from svikit import parametric
from svikit.geometry import orthant
from svikit.increase import SamplingConfig, estimate_bound, global_infimum, hints_for_problem
from svikit.parametric import sweep, write_csv
from svikit.problems import (boxed_rotation_problem, rotation_inclusion_problem,
                             triangle_vop_spec)
from svikit.setmaps import (AbsComponent, ConcaveTerm, FanSpec, MatrixTable,
                            SviProblem, _Knots, evaluate)
from svikit.solver import SolverConfig, solve
from svikit.vopt import ideal_value_sweep
from test_batched import _sequential_bisect

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
TEXT_COLUMNS = {"bound_holds", "solved", "oracle_status"}
STEP = 2.0 * math.pi / 64  # the criterion-5 grid step


def _rotation_warm_table():
    return sweep(rotation_inclusion_problem(), STEP * np.arange(9), [0.0, 0.0],
                 SolverConfig(alpha=1.5))


def rotation_warm(path):
    """Warm sweep anchored at the origin (unconstrained, anchored projection)."""
    write_csv(_rotation_warm_table(), path)


def boxed_cold(path):
    """Cold sweep from an infeasible start (constrained path, kappa > 0)."""
    table = sweep(boxed_rotation_problem(), np.linspace(0.0, 2.0 * math.pi, 9),
                  [3.0, 0.5], SolverConfig(), warm_start=False)
    write_csv(table, path)


def _axis_rotation(angle, axis):
    k = np.asarray(axis, float) / np.linalg.norm(axis)
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * K @ K


def _spatial_warm_table():
    ps = np.linspace(0.0, 1.2, 5)
    mats = np.array([2.0 * _axis_rotation(p, [1.0, 2.0, 3.0]) for p in ps])
    h = ConcaveTerm(tuple(AbsComponent(-1.0, 0.0, -0.25, 0.0, i) for i in range(3)))
    fan = FanSpec(np.array([0.2 * np.eye(3), -0.2 * np.eye(3)]))
    prob = SviProblem(matrix=MatrixTable(_Knots(ps, mats)), cone=orthant(3), h=h, fan=fan)
    return sweep(prob, np.linspace(0.0, 1.2, 9), [0.0, 0.0, 0.0], SolverConfig(alpha=1.5))


def spatial_warm(path):
    """Warm sweep of a 3-D problem anchored at the origin: twice a rotation
    about (1, 2, 3) on knots, the concave offset and a +-I/5 fan over the
    orthant.  Every row takes steps, so each goes through the segment
    pullback toward the anchor (the n != 2 path)."""
    write_csv(_spatial_warm_table(), path)


def triangle_ideal(path):
    """Ideal-value sweep of the clockwise triangle with the oracle."""
    table = ideal_value_sweep(triangle_vop_spec(clockwise=True),
                              np.linspace(0.0, 2.0 * math.pi, 9), [0.3, 0.3],
                              SolverConfig(), with_oracle=True)
    write_csv(table, path, oracle_statuses=table.meta["statuses"])


def _write_solves(path, prob, cfg, x0s):
    lines = ["p,x0_1,x0_2,x_1,x_2,merit_final,bound_holds"]
    for p, x0 in zip(np.linspace(0.0, 2.0 * math.pi, len(x0s)), x0s):
        res = solve(prob, float(p), x0, cfg)
        cells = [float(v) for v in (p, *x0, *res.x_final, res.merit_final)]
        lines.append(",".join([*map(repr, cells), str(res.bound_holds).lower()]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cold_solves(path):
    """Cold solves of the rotation instance from seeded start points."""
    x0s = np.random.default_rng(7).uniform(-2.0, 2.0, size=(33, 2))
    _write_solves(path, rotation_inclusion_problem(), SolverConfig(), x0s)


def boxed_retries(path):
    """Constrained solves with an overstated alpha_tilde and alpha near the
    bottom of its interval: most runs back alpha off mid-run, which changes
    the penalty weight of the merit."""
    x0s = np.random.default_rng(11).uniform(-3.0, 3.0, size=(9, 2))
    cfg = SolverConfig(alpha_tilde=8.0, alpha=4.3)
    _write_solves(path, boxed_rotation_problem(), cfg, x0s)


def rotation_increase(path):
    """Increase-bound brackets of the rotation instance at seeded (p, x)
    pairs, with the stored witnesses (r, u) of alpha_lo, under the rotation
    bench's sampling budget: every witness passed the enlargement-inclusion
    test, so the columns pin its verdicts."""
    prob = rotation_inclusion_problem()
    cfg = SamplingConfig(bracket_rtol=0.05, directions=64)
    rng = np.random.default_rng(23)
    lines = ["p,x_1,x_2,alpha_lo,alpha_hi,r_1,u1_1,u1_2,r_2,u2_1,u2_2"]
    for _ in range(5):
        p, x = float(rng.uniform(0.0, 2.0 * math.pi)), rng.uniform(-2.0, 2.0, 2)
        est = estimate_bound(lambda xx, p=p: evaluate(prob, p, xx), prob.cone, x, cfg,
                             hints=hints_for_problem(prob, p), p_for_seed=p)
        cells = [p, *x, est.alpha_lo, est.alpha_hi,
                 *[v for r, u in est.witnesses for v in (r, *u)]]
        lines.append(",".join(repr(float(v)) for v in cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def sampled_infimum(path):
    """The estimates behind ``global_infimum`` on its own route (each map the
    bound map of the view ``problem.at(p)``, with the view's hint) for an
    inclusion, a constrained inclusion and an ideal-efficiency spec, at three
    parameters and six seeded samples each."""
    cfg = SamplingConfig(bracket_rtol=0.05, directions=64)
    lines = ["p,x_1,x_2,alpha_lo,alpha_hi"]
    for prob in (rotation_inclusion_problem(), boxed_rotation_problem(), triangle_vop_spec()):
        for p, x, est in global_infimum(prob, [0.3, 2.1, 4.4], 6, cfg).estimates:
            lines.append(",".join(repr(float(v)) for v in (p, *x, est.alpha_lo, est.alpha_hi)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


CASES = {"rotation_warm": rotation_warm, "boxed_cold": boxed_cold,
         "triangle_ideal": triangle_ideal, "cold_solves": cold_solves,
         "boxed_retries": boxed_retries, "spatial_warm": spatial_warm,
         "rotation_increase": rotation_increase, "sampled_infimum": sampled_infimum}


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    CASES[name](out)
    got, want = _read(out), _read(os.path.join(DATA, f"{name}.csv"))
    assert len(got) == len(want)
    assert list(got[0]) == list(want[0])
    for i, (g, w) in enumerate(zip(got, want)):
        for col in w:
            if col in TEXT_COLUMNS:
                assert g[col] == w[col], (i, col)
            else:
                a, b = float(g[col]), float(w[col])
                assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12, (i, col, a, b)


def test_warm_goldens_match_the_step_by_step_bisection_bytes(monkeypatch):
    # the goldens compare to 1e-12; the rows' bisections must give the
    # step-by-step loop's bytes, here run with one merit call per midpoint
    shipped = [_rotation_warm_table(), _spatial_warm_table()]
    steps = [0]

    def step_by_step(merit_many, tol, lo, hi, iters, samples):
        steps[0] += iters
        return _sequential_bisect(lambda t: merit_many(np.array([t]))[0] <= tol, lo, hi, iters)

    monkeypatch.setattr(parametric, "_speculative_bisect", step_by_step)
    reference = [_rotation_warm_table(), _spatial_warm_table()]
    assert steps[0] > 0
    for got, want in zip(shipped, reference):
        assert len(got.rows) == len(want.rows) == 9
        for i, (g, w) in enumerate(zip(got.rows, want.rows)):
            assert g.x.tobytes() == w.x.tobytes(), (i, g.x, w.x)


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    for name in sys.argv[1:] or sorted(CASES):
        CASES[name](os.path.join(DATA, f"{name}.csv"))
        print(f"wrote {name}.csv")
