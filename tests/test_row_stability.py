"""A row's answer never depends on its batch.

Every batched entry point of the distance layer, and the merit that reads
it, is fed the same rows whole, one at a time, and in random permutations
split into random chunks; each row must come back bit for bit.  The face
table evaluates a one-row chunk as two copies of its row, so every chunk
takes the same matrix-matrix product; since the answers rest on the BLAS
kernel, CI runs this file a second time with one BLAS thread.
"""
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from svikit import geometry, parametric
from svikit.geometry import PolyCone, SumSet, VPolytope, dist_many, project_dist
from svikit.problems import rotation_inclusion_problem
from svikit.setmaps import Ball, Box, MatrixTable, PolytopeSet, RotationScaled, SviProblem
from svikit.solver import SolverConfig

from conftest import random_pointed_cone
from test_batched import _sequential_bisect

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def _probe_shapes() -> dict:
    """The distance-kernel probe shapes of the benchmark, loaded as they are."""
    spec = importlib.util.spec_from_file_location("_probe_shapes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.shapes()


def _nearly_non_pointed(rng, m):
    """Two almost opposite rays."""
    e = rng.standard_normal(m)
    e /= np.linalg.norm(e)
    return PolyCone(np.array([e + 1e-7 * rng.standard_normal(m),
                              -e + 1e-7 * rng.standard_normal(m) + 1e-6 * np.eye(m)[-1]]))


def _seeded_sets(rng):
    """Per m = 1..4: a pointed cone, a nearly non-pointed one (m >= 2), a
    polytope, a polytope plus a cone with a repeated vertex, and a set of
    lower dimension (a segment plus a ray)."""
    for m in range(1, 5):
        cones = [random_pointed_cone(rng, m)] + ([_nearly_non_pointed(rng, m)] if m > 1 else [])
        base = rng.standard_normal((3, m)) * rng.uniform(0.5, 2.0)
        yield f"seeded_cone{m}", cones[0]
        if m > 1:
            yield f"seeded_nearly_non_pointed{m}", cones[1]
        yield f"seeded_polytope{m}", VPolytope(base)
        yield f"seeded_polycone{m}", SumSet(VPolytope(np.vstack([base, base[:1]])), cones[-1])
        yield f"seeded_segment_ray{m}", SumSet(VPolytope(base[:2]), PolyCone(base[1:2] - base[:1]))


SETS = [*_probe_shapes().items(), *_seeded_sets(np.random.default_rng(606))]


def _batches(rng, n):
    """Row orders and chunks of range(n): every row alone, then three random
    permutations split into chunks of 1 to 79 rows (a third of them one row)."""
    yield [np.array([i]) for i in range(n)]
    for _ in range(3):
        cuts = np.cumsum(np.where(rng.random(n) < 1 / 3, 1, rng.integers(2, 80, n)))
        yield np.split(rng.permutation(n), cuts[cuts < n])


def assert_row_stable(fn, X, rng):
    """fn maps a batch of rows to one array, or a tuple of arrays, with one
    leading entry per row; every chunk of every batching gives each row the
    whole batch's bytes."""
    def arrays(out):
        return [np.asarray(a) for a in (out if isinstance(out, tuple) else (out,))]

    want = arrays(fn(X))
    for chunks in _batches(rng, len(X)):
        for rows in chunks:
            for got, ref in zip(arrays(fn(X[rows])), want, strict=True):
                assert got.tobytes() == ref[rows].tobytes(), rows


@pytest.mark.parametrize("name,S", SETS, ids=[name for name, _ in SETS])
def test_distance_rows_never_depend_on_their_batch(name, S):
    rng = np.random.default_rng(list(name.encode()))
    ss = geometry._as_sumset(S)
    X = 3.0 * rng.standard_normal((96, S.dim))
    X[:8] = ss.base.vertices[rng.integers(len(ss.base.vertices), size=8)]  # on the set
    assert_row_stable(lambda Y: dist_many(Y, S), X, rng)
    assert_row_stable(lambda Y: geometry._nearest_rows(ss, Y), X, rng)
    assert_row_stable(lambda Y: geometry._sphere_max(Y, 0.6, ss), X, rng)
    assert_row_stable(lambda Y: geometry._least_slack(Y, ss), X, rng)
    proj, d = geometry._nearest_rows(ss, X)
    for i, y in enumerate(X):
        got = project_dist(y, S)
        assert got[0].tobytes() == proj[i].tobytes() and got[1] == d[i]
    if isinstance(S, PolyCone):
        assert_row_stable(S.distances, X, rng)
        for i, y in enumerate(X):
            got = S.project(y)
            assert got[0].tobytes() == proj[i].tobytes() and got[1] == d[i]


def test_constraint_distances_never_depend_on_their_batch():
    rng = np.random.default_rng(61)
    for m in (1, 2, 3, 4):
        X = 3.0 * rng.standard_normal((96, m))
        poly = PolytopeSet(VPolytope(rng.standard_normal((4, m))))
        for constraint in (poly, Box(-np.ones(m), np.ones(m)), Ball(np.zeros(m), 1.5)):
            assert_row_stable(constraint.distances, X, rng)
        proj, d = geometry._nearest_rows(SumSet(poly.polytope), X)
        for i, x in enumerate(X):
            got = poly.project(x)
            assert got[0].tobytes() == proj[i].tobytes() and got[1] == d[i]


@pytest.mark.parametrize("cone", ["wedge2", "seeded_nearly_non_pointed2", "cone3", "cone4",
                                  "seeded_nearly_non_pointed4"])
def test_merit_rows_never_depend_on_their_batch(cone):
    # merit_many's rows against their one-row merit, and across batchings,
    # on face-table cones, with a polytope constraint's penalty
    rng = np.random.default_rng(62)
    C = dict(SETS)[cone]
    m = C.dim
    matrix = RotationScaled(1.3) if m == 2 else MatrixTable(rng.standard_normal((m, m)))
    problem = SviProblem(matrix=matrix, cone=C,
                         constraint=PolytopeSet(VPolytope(rng.standard_normal((3, m)))))
    at = problem.at(0.4)
    X = 2.0 * rng.standard_normal((64, m))
    for kappa in (0.0, 1.7):
        merits = at.merit_many(X, kappa)
        assert_row_stable(lambda Y: at.merit_many(Y, kappa), X, rng)
        assert [at.merit(x, kappa) for x in X] == merits.tolist()
    assert_row_stable(at.evaluate_many, X, rng)


def test_a_warm_sweep_on_a_face_table_cone_makes_the_step_by_step_bisections(monkeypatch):
    # the warm sweep's ray bisection tests a predicted path of midpoints in
    # one merit call; on a cone measured by its face table, its rows are
    # the step-by-step loop's bytes, one merit call per midpoint
    problem = replace(rotation_inclusion_problem(), cone=PolyCone([[1.0, -0.25], [-0.25, 1.0]]))

    def rows():
        table = parametric.sweep(problem, np.linspace(0.0, 2.0 * np.pi, 9), [0.0, 0.0],
                                 SolverConfig(alpha=1.5))
        return [row.x.tobytes() for row in table.rows]

    shipped, steps = rows(), [0]

    def step_by_step(merit_many, tol, lo, hi, iters, samples):
        steps[0] += iters
        return _sequential_bisect(lambda t: merit_many(np.array([t]))[0] <= tol, lo, hi, iters)

    monkeypatch.setattr(parametric, "_speculative_bisect", step_by_step)
    assert rows() == shipped and steps[0] > 0
