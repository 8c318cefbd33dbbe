"""Differential checks: a library answer against an independent one on
seeded random instances.  Mismatches that the contract allows are counted
and printed (run with ``-s``), never asserted away."""

import math

import numpy as np
import pytest

import sphere_reference
from conftest import random_pointed_cone
from svikit import geometry, solver
from svikit.cli import main
from svikit.geometry import PolyCone, SumSet, VPolytope, dist_many, orthant, project_dist
from svikit.increase import PropertyAbsent
from svikit.problems import write_problem_file
from svikit.setmaps import (AbsComponent, AllSpace, Ball, Box, ConcaveTerm, MatrixTable,
                            PolytopeSet, SviProblem, _Knots)
from svikit.solver import MIN_DESCENT, SolverConfig, solve
from svikit.vopt import (CERTIFIED_EMPTY, FOUND, NOT_FOUND, AbsDeviation, AffineFamily,
                         VopSpec, brute_force_ideal, ideal_value_sweep, solve_ideal)

KNOTS = (0.0, 0.5, 1.0)


def _random_vop_spec(rng: np.random.Generator) -> VopSpec:
    """An m <= 3 spec with data on KNOTS: an affine objective over a
    polytope, a box or a ball (n <= 3), or the deviation objective over a
    1-D set or the whole line."""
    m = int(rng.integers(1, 4))
    cone = orthant(m) if m == 1 or rng.random() < 0.5 else random_pointed_cone(rng, m)
    if rng.random() < 0.25:
        cone = PolyCone(-cone.generators)
    kind = int(rng.integers(4))
    if kind == 3:
        obj = AbsDeviation(_Knots(KNOTS, rng.uniform(-1.5, 1.5, 3)), components=m)
        lo = float(rng.uniform(-1.5, 0.5))
        hi = lo + float(rng.uniform(0.0, 1.5))
        constraint = [AllSpace(), Box(lower=[lo], upper=[hi]),
                      Ball(center=[lo], radius=hi - lo),
                      PolytopeSet(VPolytope(rng.uniform(lo, hi, (2, 1))))][rng.integers(4)]
        return VopSpec(obj, constraint, cone, objective_lipschitz=math.sqrt(m))
    n = int(rng.integers(1, 4))
    mats = rng.standard_normal((3, m, n))
    if rng.random() < 0.5:  # rank one along a cone direction: often ideal
        u = rng.uniform(0.0, 1.0, len(cone.generators)) @ cone.generators
        mats = np.einsum("i,kj->kij", u, rng.standard_normal((3, n)))
    obj = AffineFamily(MatrixTable(_Knots(KNOTS, mats)), offset=rng.standard_normal(m))
    if kind == 0 and n >= 2:
        constraint = Ball(center=rng.standard_normal(n), radius=float(rng.uniform(0.2, 1.5)))
    elif kind <= 1:
        constraint = PolytopeSet(VPolytope(rng.standard_normal((int(rng.integers(1, 5)), n))))
    else:
        lo = rng.standard_normal(n)
        constraint = Box(lower=lo, upper=lo + rng.uniform(0.0, 1.5, n))
    lip = max(float(np.linalg.norm(M, 2)) for M in mats)
    return VopSpec(obj, constraint, cone, objective_lipschitz=lip)


def _ideal_runs(rng: np.random.Generator, specs: int):
    """(index, spec, p, oracle, x0) for ``specs`` seeded specs: at both ends
    of KNOTS and one p between, two start points each, with the oracle's
    verdict at p."""
    for i in range(specs):
        spec = _random_vop_spec(rng)
        for p in KNOTS[0], float(rng.uniform(0.0, 1.0)), KNOTS[-1]:
            oracle = brute_force_ideal(spec, p)
            for x0 in rng.uniform(-1.5, 1.5, (2, spec.objective.dim_in)):
                yield i, spec, p, oracle, x0


def test_unsolved_ideal_runs_take_the_exact_oracles_verdict(monkeypatch):
    # every run that ends unsolved is CERTIFIED_EMPTY exactly when the oracle
    # finds no ideal point; every run carries that oracle result and its
    # solve result, and a found point is feasible with merit at most tol.
    # NOT_FOUND rows (the descent missed an ideal point) all stop for want of
    # a step; they and found rows the oracle calls empty are reported
    monkeypatch.setattr(SolverConfig, "max_iters", 200)
    cfg = SolverConfig(alpha_tilde=2.0)
    counts = {}
    found_oracle_empty = 0
    for _, spec, p, oracle, x0 in _ideal_runs(np.random.default_rng(1606), 32):
        res = solve_ideal(spec, p, x0, cfg)
        key = (res.status, res.solve_result.stop)
        counts[key] = counts.get(key, 0) + 1
        assert res.oracle.status == oracle.status
        if res.status == FOUND:
            assert res.solve_result.stop == "converged"
            assert spec.at(p).merit(res.x) <= cfg.tol
            assert spec.at(p).constraint.project(res.x)[1] <= 1e-7
            found_oracle_empty += not oracle.is_ideal
            continue
        assert (res.status == CERTIFIED_EMPTY) == (not oracle.is_ideal)
        if res.status == NOT_FOUND:
            assert res.solve_result.stop == "no_step"
    print(f"ideal runs by (status, stop): {counts}; found, oracle empty: {found_oracle_empty}")
    assert counts.get((FOUND, "converged")) and counts.get((CERTIFIED_EMPTY, "no_step"))


def test_sampled_alpha_tilde_without_witnesses_leaves_the_verdict_to_the_oracle(
        tmp_path, capsys, monkeypatch):
    # with alpha_tilde sampled, no sampled point of specs 4 and 8 of this
    # draw has witnesses (PropertyAbsent), nor of spec 5 at p = 0 and at its
    # middle p: such a run descends best-effort on floor constants (alpha
    # nan, kappa 1).  Spec 5 has an ideal point there, and the descent finds
    # it; specs 4 and 8 have none, and the oracle calls every run empty.  A
    # sweep over specs 4 and 8, whose one shared estimate finds no witnesses
    # either, gives every row its own bound, and the oracle calls each row
    # empty
    monkeypatch.setattr(SolverConfig, "max_iters", 200)  # undone before the CLI run below
    cfg = SolverConfig()
    specs = {}
    for i, spec, p, oracle, x0 in _ideal_runs(np.random.default_rng(1606), 9):
        specs[i] = spec
        res = solve_ideal(spec, p, x0, cfg)
        assert res.oracle.status == oracle.status
        if res.status != FOUND:
            assert (res.status == CERTIFIED_EMPTY) == (not oracle.is_ideal)
        if i in (4, 8):
            assert res.status == CERTIFIED_EMPTY and not np.array_equal(res.x, x0)
            assert res.merit_final < spec.at(p).merit(x0, kappa=1.0)
        if i == 5 and p < KNOTS[-1]:
            run = res.solve_result
            assert res.status == FOUND and not run.caristi_certified
            assert math.isnan(run.alpha_used) and run.kappa == 1.0
    for i in 4, 8:
        dim = specs[i].objective.dim_in
        table = ideal_value_sweep(specs[i], list(KNOTS), np.zeros(dim), cfg)
        assert table.meta["statuses"] == [CERTIFIED_EMPTY] * 3
        assert math.isnan(table.meta["alpha_under"]) and table.meta["alpha_source"] == "floor"
    monkeypatch.undo()
    # svi vopt --p reports such a row as an answer, not a solver failure
    path = tmp_path / "spec4.json"
    write_problem_file(path, specs[4])
    x0 = ",".join(["0"] * specs[4].objective.dim_in)
    assert main(["vopt", "--problem", str(path), "--p", "0", "--x0", x0]) == 0
    assert "status = certified_empty" in capsys.readouterr().out


def test_an_inclusion_without_witnesses_runs_on_floor_constants_only_when_best_effort(
        tmp_path):
    # a constant map outside the cone, F(p, x) = {(-1, -1)}: no point has
    # witnesses, so the sampled alpha_tilde raises PropertyAbsent, and svi
    # solve reports a solver failure
    problem = SviProblem(matrix=MatrixTable(np.zeros((2, 2))), cone=orthant(2),
                         h=ConcaveTerm((AbsComponent(-1.0), AbsComponent(-1.0))))
    assert not problem.best_effort  # an inclusion is never best-effort
    with pytest.raises(PropertyAbsent):
        solve(problem, 0.0, [0.0, 0.0])
    path = tmp_path / "outside.json"
    write_problem_file(path, problem)
    assert main(["solve", "--problem", str(path), "--p", "0", "--x0", "0,0"]) == 2
    # a best-effort unconstrained run without alpha_tilde takes floor
    # constants: alpha nan, kappa 0 and k = MIN_DESCENT
    alpha, *rest = solver._descent_constants(None, None, problem.ell, False, True)
    assert math.isnan(alpha) and rest == [0.0, MIN_DESCENT, False]


def _sphere_sets(rng: np.random.Generator):
    """conv(base) + C for m = 1..4 and C the orthant, a random pointed cone,
    a nearly non-pointed cone (two almost opposite rays, m >= 2) or none (a
    compact base, of lower dimension when it has at most m vertices); in R^3
    also a ray and a wedge of two rays, both of lower dimension."""
    def base(m):
        return VPolytope(rng.standard_normal((int(rng.integers(1, 4)), m)) * rng.uniform(0.5, 2.0))

    for m in range(1, 5):
        for _ in range(3):
            yield SumSet(base(m), orthant(m))
            yield SumSet(base(m), random_pointed_cone(rng, m))
            yield SumSet(base(m), None)
            if m >= 2:
                e = rng.standard_normal(m)
                e /= np.linalg.norm(e)
                yield SumSet(base(m), PolyCone(np.array(
                    [e + 1e-7 * rng.standard_normal(m),
                     -e + 1e-7 * rng.standard_normal(m) + 1e-6 * np.eye(m)[-1]])))
    for _ in range(3):
        yield SumSet(base(3), PolyCone(rng.standard_normal((1, 3))))
        yield SumSet(base(3), PolyCone(rng.uniform(0.2, 1.0, (2, 3)) * [[1, 1, 0], [0, 1, 1]]))


def _sphere_centres(rng: np.random.Generator, D: SumSet):
    """Centres inside D (a base combination plus cone steps), on its boundary
    (its base vertices and the projections of far points) and outside (the
    projections moved 1e-14 to 1e-7, or 0.1 to 1, along their normals)."""
    b, m = D.base.vertices, D.dim
    inside = rng.dirichlet(np.ones(len(b)), 4) @ b
    if D.cone is not None:
        inside = inside + rng.uniform(0.0, 1.5, (4, len(D.cone.generators))) @ D.cone.generators
    far = b[0] + 5.0 * rng.standard_normal((6, m))
    proj = np.array([project_dist(y, D)[0] for y in far])
    d = dist_many(far, D)[:, None]
    normal = np.where(d > 0.0, far - proj, 0.0) / np.where(d > 0.0, d, 1.0)
    steps = np.concatenate([10.0 ** rng.uniform(-14, -7, 3), rng.uniform(0.1, 1.0, 3)])
    return np.vstack([inside, b, proj, proj + steps[:, None] * normal])


def test_closed_form_sphere_max_matches_the_lagrange_point_reference():
    # geometry._sphere_max's sup in closed form against the Lagrange-point
    # search it replaced (tests/sphere_reference.py), to 1e-12, with each
    # point on its sphere and attaining its sup; mismatches are counted by
    # kind and printed
    rng = np.random.default_rng(2020)
    counts = {"sup": 0, "point": 0, "reference point": 0}
    centres = 0
    for D in _sphere_sets(rng):
        C, s = _sphere_centres(rng, D), float(rng.uniform(0.05, 2.0))
        sups, points = geometry._sphere_max(C, s, D)
        ref_sups, ref_points = sphere_reference.sphere_max(C, s, D)
        centres += len(C)
        counts["sup"] += int(np.sum(np.abs(sups - ref_sups) > 1e-12))
        for key, pts, sup in (("point", points, sups), ("reference point", ref_points, ref_sups)):
            off = np.abs(np.linalg.norm(pts - C, axis=1) - s) > 1e-12
            counts[key] += int(np.sum(off | (np.abs(dist_many(pts, D) - sup) > 1e-12)))
    print(f"sphere maxima at {centres} centres, mismatches by kind: {counts}")
    assert counts["sup"] == counts["point"] == 0
