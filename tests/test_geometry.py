import math
import os
import subprocess
import sys
import textwrap
from itertools import combinations, islice
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import nnls

from svikit import geometry
from svikit.geometry import (PolyCone, SumSet, Verdict, VPolytope, _ldp_project,
                             ball_sup_dist, dist_many, enlargement_inclusion,
                             excess, hausdorff, orthant, project_dist)
from conftest import random_pointed_cone

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def brute_cone_distance(y, generators, grid=250, reach=5.0):
    """Minimum distance over a fine grid of nonnegative generator weights."""
    gens = np.asarray(generators, float)
    axes = [np.linspace(0.0, reach, grid)] * len(gens)
    mesh = np.meshgrid(*axes, indexing="ij")
    mus = np.column_stack([g.ravel() for g in mesh])
    pts = mus @ gens
    return float(np.min(np.linalg.norm(pts - np.asarray(y, float), axis=1)))


def mp_face_distance(y, base, gens, digits=50):
    """Distance from y to conv(base) + cone(gens) by face enumeration in
    ``digits``-digit arithmetic: least squares over every subset of one base
    vertex b0 plus further vertices and generators with independent
    directions, kept when its weights are feasible."""
    def vec(v):
        return mpmath.matrix([mpmath.mpf(float(c)) for c in v])

    with mpmath.workdps(digits):
        B = [vec(b) for b in base]
        G = [] if gens is None else [vec(g) for g in gens]
        k, m, best = len(B), len(vec(y)), mpmath.inf
        for i in range(k):
            rel = vec(y) - B[i]
            for nb in range(min(k - 1 - i, m) + 1):
                for J in combinations(range(i + 1, k), nb):
                    for ng in range(min(len(G), m - nb) + 1):
                        for L in combinations(range(len(G)), ng):
                            cols = [B[j] - B[i] for j in J] + [G[j] for j in L]
                            if not cols:
                                best = min(best, mpmath.norm(rel))
                                continue
                            D = mpmath.matrix(m, len(cols))
                            for c, col in enumerate(cols):
                                for row in range(m):
                                    D[row, c] = col[row]
                            gram = D.T * D
                            if abs(mpmath.det(gram)) < mpmath.mpf(10) ** (-digits):
                                continue  # dependent directions
                            z = mpmath.lu_solve(gram, D.T * rel)
                            if min(z) < 0 or sum(z[:nb]) > 1:
                                continue
                            best = min(best, mpmath.norm(rel - D * z))
        return float(best)


def test_project_dist_orthant_examples(plane_orthant):
    proj, d = project_dist([-1.0, -1.0], plane_orthant)
    assert np.allclose(proj, [0.0, 0.0])
    assert d == pytest.approx(SQRT2, abs=1e-12)

    proj, d = project_dist([2.0, 3.0], plane_orthant)
    assert np.allclose(proj, [2.0, 3.0])
    assert d == 0.0


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_one_vertex_distances_agree_bit_for_bit_on_every_entry_point(m):
    # each set shape has one distance path, which every entry point reads:
    # dist_many, project_dist, the cone's project and distances (shifted by a
    # single base vertex), and the sphere max, whose sup at a centre outside
    # the set is s plus its distance.  Row norms for a point, the closed form
    # for a point plus the orthant, the face table for a point plus a wedge
    # and for a polytope with and without a cone (one-row entry points on the
    # first 250 rows only: a table's one-row calls are the slow ones)
    rng = np.random.default_rng(0)
    Y = 3.0 * rng.standard_normal((4000, m))
    b = rng.standard_normal(m)
    wedge = PolyCone(-np.abs(rng.standard_normal((2, m))))
    base = VPolytope(rng.standard_normal((3, m)))
    cases = [(orthant(m), orthant(m), np.zeros(m)),
             (SumSet(VPolytope(b[None, :]), orthant(m)), orthant(m), b),
             (VPolytope(b[None, :]), None, b),
             (SumSet(VPolytope(b[None, :]), wedge), wedge, b),
             (base, None, None), (SumSet(base, wedge), None, None)]
    for i, (S, cone, shift) in enumerate(cases):
        many = dist_many(Y, S)
        one = many if i < 3 else many[:250]
        rows = Y[:len(one)]
        assert np.array_equal(one, [project_dist(y, S)[1] for y in rows])
        if cone is not None:
            assert np.array_equal(many, cone.distances(Y - shift))
            assert np.array_equal(one, [cone.project(y)[1] for y in rows - shift])
        ss = geometry._as_sumset(S)
        out = geometry._least_slack(Y, ss) <= 0.0
        sups = geometry._sphere_max(Y, 0.5, ss)[0]
        assert out.sum() > 100 and np.array_equal(sups[out], 0.5 + dist_many(Y[out], S))


def test_distance_only_path_agrees_bit_for_bit_with_the_nearest_points(monkeypatch):
    # the distance-only path (_nearest without points, _distance_rows) reads
    # the same face table, chunks and LDP as the nearest points: every entry point
    # that reads distances only (dist_many, a polytope constraint's
    # distances and the merit's penalty) gives _nearest_rows' distances bit
    # for bit on the same batch, and the constraint's project is project_dist
    # to the byte, signed zeros included; in chunks at a small _FACE_CHUNK,
    # and point by point by the LDP above _FACE_BUDGET
    from svikit.setmaps import PolytopeSet, RotationScaled, SviProblem
    rng = np.random.default_rng(7)
    calls = []  # (rows, points) of each _nearest call: the batch, then its chunks
    nearest = geometry._nearest
    monkeypatch.setattr(geometry, "_nearest", lambda owner, base, gens, pts, points=True:
                        calls.append((len(pts), points)) or nearest(owner, base, gens, pts, points))
    CHUNK, BUDGET = geometry._FACE_CHUNK, geometry._FACE_BUDGET
    for m, chunk, budget in ((2, CHUNK, BUDGET), (2, 24, BUDGET), (3, 100, BUDGET),
                             (4, CHUNK, 3)):
        monkeypatch.setattr(geometry, "_FACE_CHUNK", chunk)
        monkeypatch.setattr(geometry, "_FACE_BUDGET", budget)
        Y = np.vstack([3.0 * rng.standard_normal((60, m)), np.zeros((1, m)), -np.zeros((1, m))])
        poly = VPolytope(rng.standard_normal((3, m)))
        wedge = PolyCone(-np.abs(rng.standard_normal((2, m))))
        for S in (poly, SumSet(poly, wedge), SumSet(VPolytope(poly.vertices[:1]), wedge), wedge):
            ss = geometry._as_sumset(S)
            calls.clear()
            want = geometry._nearest_rows(ss, Y)[1]
            nearest_chunks = [rows for rows, _ in calls]
            assert all(points for _, points in calls)
            assert geometry._distance_rows(ss, Y).tobytes() == want.tobytes()
            # the same chunks, read again without points
            assert calls[len(nearest_chunks):] == [(rows, False) for rows in nearest_chunks]
            assert dist_many(Y, S).tobytes() == want.tobytes()
            owner, base, gens, shift = geometry._table_for(ss)
            assert (geometry._nearest(owner, base, gens, Y - shift, points=False).tobytes()
                    == geometry._nearest(owner, base, gens, Y - shift)[1].tobytes())
            if chunk < CHUNK:
                assert len(nearest_chunks) > 2  # the batch, split into chunks
            if budget < BUDGET:  # the LDP, on the whole batch
                assert vars(owner)["_faces"] is None and nearest_chunks == [len(Y)]
        constraint = PolytopeSet(VPolytope(poly.vertices))
        assert constraint.distances(Y).tobytes() == dist_many(Y, poly).tobytes()
        for y in Y[:20]:
            got, want = constraint.project(y), project_dist(y, poly)
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
        if m == 2:
            at = SviProblem(matrix=RotationScaled(1.0), cone=orthant(2),
                            constraint=constraint).at(0.3)
            assert (at.merit_many(Y, 1.7).tobytes()
                    == (at.merit_many(Y) + 1.7 * dist_many(Y, poly)).tobytes())


def test_project_dist_wedge_matches_brute_force():
    wedge = PolyCone([[1.0, 1.0], [1.0, -1.0]])
    proj, d = project_dist([-1.0, 0.0], wedge)
    # oracle: fine grid over nonnegative coefficients
    oracle = brute_cone_distance([-1.0, 0.0], wedge.generators, grid=400, reach=3.0)
    assert oracle == pytest.approx(1.0, abs=2e-2)
    assert d == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(proj, [0.0, 0.0], atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_project_dist_idempotent(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    base = rng.standard_normal((int(rng.integers(1, 5)), m))
    cone = None
    if rng.random() < 0.7:
        try:
            cone = PolyCone(rng.standard_normal((int(rng.integers(1, 4)), m))
                            + rng.uniform(1.0, 2.0))
        except ValueError:
            cone = None  # degenerate draw (zero rays or the whole space)
    S = SumSet(VPolytope(base), cone)
    y = rng.standard_normal(m) * 3.0
    proj, _ = project_dist(y, S)
    _, d2 = project_dist(proj, S)
    assert d2 <= 1e-9


def test_excess_examples(plane_orthant):
    assert excess(VPolytope([[1, 1], [-1, 0]]), plane_orthant) == pytest.approx(1.0)
    assert excess(VPolytope([[1, 2], [3, 1]]), plane_orthant) == 0.0


def test_excess_enlargement_identity(plane_orthant):
    # exc(B(A, 0.5), C) = exc(A, C) + 0.5 via bisection on the target radius
    A = VPolytope([[1, 1], [-1, 0]])
    lo, hi = 0.0, 10.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if enlargement_inclusion(A, 0.5, plane_orthant, mid).holds:
            hi = mid
        else:
            lo = mid
    assert hi == pytest.approx(1.5, abs=1e-6)


def test_hausdorff_examples():
    A = VPolytope([[0.4, -0.3], [1.2, 2.0], [-0.5, 0.1]])
    assert hausdorff(A, A) == pytest.approx(0.0, abs=1e-12)
    assert hausdorff(VPolytope([[0, 0]]), VPolytope([[3, 4]])) == pytest.approx(5.0)


def test_hausdorff_segment_vs_point_dense_sampling():
    seg = VPolytope([[0.0, 0.0], [1.0, 0.0]])
    pt = VPolytope([[0.0, 1.0]])
    # oracle: dense sampling of the segment
    ts = np.linspace(0.0, 1.0, 20_001)
    samples = np.column_stack([ts, np.zeros_like(ts)])
    exc_ab = float(np.max(np.linalg.norm(samples - np.array([0.0, 1.0]), axis=1)))
    exc_ba = float(np.min(np.linalg.norm(samples - np.array([0.0, 1.0]), axis=1)))
    assert exc_ab == pytest.approx(SQRT2, abs=1e-8)
    assert exc_ba == pytest.approx(1.0, abs=1e-8)
    assert hausdorff(seg, pt) == pytest.approx(SQRT2, abs=1e-12)


def test_enlargement_inclusion_tight_rotation_case(plane_orthant):
    # single image point at (3/sqrt2, 3/sqrt2); enlargement by 3/sqrt2 + 1
    # fits exactly inside the unit enlargement of the orthant
    v = 3.0 / SQRT2
    s = 3.0 / SQRT2 + 1.0
    res = enlargement_inclusion(VPolytope([[v, v]]), s, plane_orthant, 1.0)
    assert res.verdict is Verdict.HOLDS
    assert res.sup_estimate == pytest.approx(1.0, abs=1e-9)

    res_over = enlargement_inclusion(VPolytope([[v, v]]), s + 1e-3, plane_orthant, 1.0)
    assert res_over.verdict is Verdict.FAILS


def test_enlargement_inclusion_deep_interior(plane_orthant):
    res = enlargement_inclusion(VPolytope([[5.0, 5.0]]), 0.1, plane_orthant, 1.0)
    assert res.verdict is Verdict.HOLDS


def test_enlargement_inclusion_fails_with_witness(plane_orthant):
    res = enlargement_inclusion(VPolytope([[-2.0, 0.0]]), 0.5, plane_orthant, 1.0)
    assert res.verdict is Verdict.FAILS
    assert np.allclose(res.witness, [-2.5, 0.0], atol=1e-9)
    assert dist_many(res.witness[None, :], orthant(2))[0] > 1.0


def test_enlargement_inclusion_refutes_a_narrow_4d_peak():
    # the sphere's farthest point from D sits in a narrow peak that a
    # direction cloud missed (it found 0.34742 and called the inclusion true);
    # a 2,000,000-point sphere sample reaches 0.35263
    b = [1.956346730654278, 1.0391325469050323, 0.8286913701837005, -0.7347941076711485]
    G = [[-0.11525796277922806, 1.4935260751237454, 0.17340419775097526, 1.0666600406114077],
         [2.8843841536775843, 1.782093332109346, 0.44051334977901413, -0.26169558658986847],
         [0.40206965591695565, 2.180795317574323, -0.9529406467525732, 0.31764144306831654],
         [2.0488222029668437, 0.8861965736805808, 1.4470443038738825, 0.36432397825202156]]
    c = np.array([5.157718054116364, 3.3956140213469466, 1.7443487386850614,
                  -0.5295191880912998])
    s = 0.36094974697843757
    D = SumSet(VPolytope([b]), PolyCone(G))
    res = enlargement_inclusion(VPolytope([c]), s, D, 0.35)
    assert res.verdict is Verdict.FAILS
    assert np.linalg.norm(res.witness - c) <= s + 1e-12
    assert dist_many(res.witness[None, :], D)[0] > 0.35


def test_enlargement_inclusion_refutes_just_outside_an_obtuse_apex():
    # c lies 1e-10 outside the apex, so no edge of the cone is feasible at
    # c; the sup 1 + 1e-10 is reached along the apex's residual -e2
    D = PolyCone([[1.0, 0.1], [-1.0, 0.1]])
    c = np.array([0.0, -1e-10])
    sup, pt = ball_sup_dist(VPolytope([c]), 1.0, D)
    assert sup == pytest.approx(1.0 + 1e-10, abs=1e-15)
    assert np.allclose(pt, [0.0, -1.0 - 1e-10], atol=1e-15)
    res = enlargement_inclusion(VPolytope([c]), 1.0, D, 0.5)
    assert res.verdict is Verdict.FAILS
    assert dist_many(res.witness[None, :], D)[0] > 0.5


def test_enlargement_inclusion_refutes_just_outside_a_4d_cone():
    # c lies 2.8e-11 outside a lower face of D; the rounding of that face's
    # residual tilts its direction, which alone fell 3.5e-9 short of the sup
    b = [0.7587969441123137, 0.6758642730311216, -0.649541816746972, -0.969801259834367]
    G = [[0.7931544693638513, 0.598072232835058, 0.7171066435957928, -0.1751565111976798],
         [0.7011427581324657, 0.892513507398845, 1.4254396003192702, 0.337449436566753],
         [1.269053471701523, -0.21866950318665, 1.1215599904571496, -0.3058114614232021],
         [-0.3650131190704223, -0.40172143803072463, 1.458614331056341, -0.19350957901275836],
         [0.27962320157444537, 0.30238433647221036, 0.6870640315857637, -0.49275372899489445]]
    c = np.array([2.4714822842554818, 2.525982708431621, 4.224738321677751, -4.224498775757038])
    s = 1.8794219403697512
    D = SumSet(VPolytope([b]), PolyCone(G))
    d = dist_many(c[None, :], D)[0]
    assert 0.0 < d < geometry.GEOM_TOL
    sup, _ = ball_sup_dist(VPolytope([c]), s, D)
    assert sup == pytest.approx(s + d, abs=1e-12)
    assert enlargement_inclusion(VPolytope([c]), s, D, s + d - 2.5e-9).verdict is Verdict.FAILS


def dense_sphere(m, count):
    """Unit directions: both of them for m = 1, uniform angles for m = 2, a
    fixed-seed Gaussian cloud otherwise."""
    if m == 1:
        return np.array([[1.0], [-1.0]])
    if m == 2:
        t = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        return np.column_stack([np.cos(t), np.sin(t)])
    dirs = np.random.default_rng(1).standard_normal((count, m))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def assert_sphere_max(c, s, D, sup, pt, reference_set=None, count=20_000):
    """ball_sup_dist's (sup, pt) about the single point c against a dense
    sphere sample (distances to ``reference_set``, the same set, when
    given): the sup is at least the sample's largest distance and at most
    s + dist(c, D), and is attained on the sphere."""
    dense = dist_many(c + s * dense_sphere(len(c), count), reference_set or D)
    assert sup >= float(np.max(dense)) - 1e-12
    assert sup <= s + dist_many(c[None, :], D)[0] + 1e-12
    assert abs(np.linalg.norm(pt - c) - s) <= 1e-12
    assert dist_many(pt[None, :], D)[0] == pytest.approx(sup, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(462)  # c 1.05e-12 outside D, once measured 2.8e-16 away by a marginal face
@example(196)
def test_ball_sup_dist_matches_a_dense_sphere(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    base = rng.standard_normal((int(rng.integers(1, 4)), m)) * rng.uniform(0.5, 2.0)
    if m == 3 and rng.random() < 0.3:
        cone = PolyCone(rng.standard_normal((1, 3)))  # D of lower dimension
    else:
        cone = None if rng.random() < 0.2 else random_pointed_cone(rng, m)
    D = SumSet(VPolytope(base), cone)
    roll, outside = rng.random(), False
    if roll < 0.35:
        c = base[int(rng.integers(len(base)))]  # on the boundary
    elif roll < 0.6:
        # just outside, 1e-14 to 1e-7 off the projection of a far point
        # (often a vertex) along its normal
        y = base[0] + 5.0 * rng.standard_normal(m)
        proj, d = project_dist(y, D)
        outside = d > 0.0
        c = proj + 10.0 ** rng.uniform(-14, -7) * (y - proj) / d if outside else proj
    else:
        c = rng.dirichlet(np.ones(len(base))) @ base
        if cone is not None:
            c = c + rng.uniform(0.0, 1.5, len(cone.generators)) @ cone.generators
    s = float(rng.uniform(0.05, 2.0))
    sup, pt = ball_sup_dist(VPolytope([c]), s, D)
    assert_sphere_max(c, s, D, sup, pt)
    if outside:  # attained exactly along the outward normal
        assert sup >= s + dist_many(c[None, :], D)[0] - 1e-12


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

def random_polytope(rng, m, max_vertices=8):
    k = int(rng.integers(1, max_vertices + 1))
    return VPolytope(rng.standard_normal((k, m)) * rng.uniform(0.5, 2.0))


def test_vertex_attainment_matches_sampling():
    rng = np.random.default_rng(42)
    for _ in range(60):
        m = int(rng.integers(2, 4))
        A = random_polytope(rng, m)
        cone = random_pointed_cone(rng, m)
        exact = excess(A, cone)
        w = rng.dirichlet(0.3 * np.ones(len(A.vertices)), size=10_000)
        combos = np.vstack([w @ A.vertices, A.vertices])  # unit weights included
        sampled = float(np.max(cone.distances(combos)))
        assert sampled <= exact + 1e-6
        assert sampled >= exact - 1e-6


def test_cone_displacement_never_raises_excess():
    # adding cone elements to the vertices cannot increase the excess, and
    # including the zero displacement preserves it
    rng = np.random.default_rng(7)
    for _ in range(60):
        m = int(rng.integers(2, 4))
        A = random_polytope(rng, m)
        cone = random_pointed_cone(rng, m)
        exact = excess(A, cone)
        mus = rng.uniform(0.0, 2.0, size=(40, len(cone.generators)))
        shifted = np.vstack([A.vertices + mu @ cone.generators for mu in mus])
        shifted = np.vstack([shifted, A.vertices])
        assert float(np.max(cone.distances(shifted))) <= exact + 1e-9
        assert float(np.max(cone.distances(shifted))) >= exact - 1e-9


def test_enlargement_additivity_of_excess():
    # when exc(A, C) > 0 the s-enlargement adds exactly s, confirmed by the
    # inclusion test bracketing the computed supremum
    rng = np.random.default_rng(11)
    done = 0
    while done < 25:
        m = int(rng.integers(2, 4))
        A = random_polytope(rng, m)
        cone = random_pointed_cone(rng, m)
        exact = excess(A, cone)
        if exact <= 1e-6:
            continue
        s = rng.uniform(0.1, 1.5)
        sup, _ = ball_sup_dist(A, s, cone)
        assert sup == pytest.approx(exact + s, abs=1e-6)
        assert enlargement_inclusion(A, s, cone, sup * (1 + 1e-6)).holds
        assert enlargement_inclusion(A, s, cone, sup * (1 - 1e-6)).verdict is Verdict.FAILS
        done += 1


def test_analytic_holds_path_is_sound():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = int(rng.integers(2, 4))
        A = random_polytope(rng, m)
        cone = random_pointed_cone(rng, m)
        s = rng.uniform(0.05, 0.5)
        r = float(np.max(dist_many(A.vertices, cone))) + s + rng.uniform(0.0, 0.5)
        res = enlargement_inclusion(A, s, cone, r)
        assert res.holds  # analytic sufficient test fires by construction
        w = rng.dirichlet(np.ones(len(A.vertices)), size=10_000)
        dirs = rng.standard_normal((10_000, m))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = w @ A.vertices + s * rng.uniform(0, 1, size=(10_000, 1)) * dirs
        assert float(np.max(cone.distances(pts))) <= r + 1e-7


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_pointedness_detection():
    assert orthant(3).pointed
    assert PolyCone([[1.0, 0.2], [1.0, -0.2]]).pointed
    halfplane = PolyCone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert not halfplane.pointed


def test_whole_space_cone_rejected():
    with pytest.raises(ValueError):
        PolyCone([[1, 0], [-1, 0], [0, 1], [0, -1]])
    with pytest.raises(ValueError):
        PolyCone([[0.0, 0.0]])


def test_a_generator_whose_norm_overflows_is_rejected():
    # its unit row would read 0: the facets would describe {0}.  Rejected
    # without numpy's overflow warning (an error under the test settings)
    for gens in ([[1e308, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1e200, 1e200]]):
        with pytest.raises(ValueError, match="norms within the float range"):
            PolyCone(gens)
    big = PolyCone([[1e150, 0.0], [0.0, 1.0]])  # a valid cone keeps its bits
    assert big.generators.tobytes() == np.array([[1e150, 0.0], [0.0, 1.0]]).tobytes()
    assert big.pointed


def test_both_finiteness_paths_agree_with_numpy():
    # all_finite reads up to _SMALL_FINITE entries as Python numbers and
    # counts numpy's hits above: both give np.isfinite(a).all() on either
    # side of the limit
    limit = geometry._SMALL_FINITE
    arrays = [np.empty(0), np.empty((0, 3)), np.zeros((2, 0), dtype=int)]
    for size in (1, 2, limit - 1, limit, limit + 1, 2 * limit + 2):
        base = np.linspace(-1.0, 1.0, size)
        arrays += [np.arange(size), np.arange(size, dtype=np.uint8), base > 0.0,
                   np.full(size, np.iinfo(np.int64).max), base.reshape(-1, 1),
                   np.resize(base, (2, size))[:, ::-1]]  # a view that is not contiguous
        for value in (math.nan, math.inf, -math.inf, -0.0, 1e308):
            for i in {0, size // 2, size - 1}:
                a = base.copy()
                a[i] = value
                arrays += [a, a.reshape(1, -1)]
    for a in arrays:
        assert geometry.all_finite(a) == bool(np.isfinite(a).all()), (a.dtype, a)
    assert {a.size <= limit for a in arrays} == {True, False}


def test_facets_describe_the_cone():
    # C = {y : W y >= 0} with unit rows: the identity for the orthant; for
    # random pointed cones (k < m generators among them), a half-plane and a
    # ray in R^3, W is the dual cone's extreme rays and membership by W
    # matches the exact distance
    for m in range(1, 5):
        assert np.array_equal(orthant(m).facets, np.eye(m))
    rng = np.random.default_rng(11)
    cones = [random_pointed_cone(rng, m) for m in (1, 2, 3, 4) for _ in range(25)]
    assert any(len(c.generators) < c.dim for c in cones)
    halfplane = PolyCone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(halfplane.facets, [[0.0, 1.0]])
    for cone in cones + [halfplane, PolyCone([[1.0, 2.0, 2.0]])]:
        W = cone.facets
        assert cone.facets is W
        assert np.allclose(np.linalg.norm(W, axis=1), 1.0)
        # the extreme rays of the dual cone: pairwise distinct, and none a
        # nonnegative combination of the others (by an independent NNLS)
        for i in range(len(W)):
            assert all(np.linalg.norm(W[i] - W[j]) > 1e-9 for j in range(i))
            assert len(W) == 1 or nnls(np.delete(W, i, axis=0).T, W[i])[1] > 1e-9
        assert np.min(W @ cone.generators.T) >= -1e-12
        inner = rng.uniform(0.0, 2.0, (50, len(cone.generators))) @ cone.generators
        for y in (rng.standard_normal((400, cone.dim)), inner):
            inside = np.min(y @ W.T, axis=1) >= -1e-9
            assert np.array_equal(inside, cone.distances(y) <= 1e-9)
        assert np.all(inside)


def test_dimension_mismatch_errors(plane_orthant):
    with pytest.raises(ValueError):
        project_dist([1.0, 2.0, 3.0], plane_orthant)
    with pytest.raises(ValueError):
        excess(VPolytope([[1.0, 2.0, 3.0]]), plane_orthant)
    with pytest.raises(ValueError):
        hausdorff(VPolytope([[1.0, 2.0]]), VPolytope([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError):
        SumSet(VPolytope([[1.0, 2.0, 3.0]]), plane_orthant)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
def test_enlargement_radii_must_be_finite_and_nonnegative(plane_orthant, bad):
    # a nan radius read FAILS with witness [nan, nan], a nan target radius
    # FAILS with sup 0.0, and an infinite one gave the witness [-inf, nan]
    A = VPolytope([[0.5, 0.5]])
    with pytest.raises(ValueError, match="radius must be finite and nonnegative"):
        ball_sup_dist(A, bad, plane_orthant)
    with pytest.raises(ValueError, match="radius must be finite and nonnegative"):
        enlargement_inclusion(A, bad, plane_orthant, 0.1)
    with pytest.raises(ValueError, match="radii must be finite and nonnegative"):
        enlargement_inclusion(A, 0.1, plane_orthant, bad)
    assert enlargement_inclusion(A, 0.0, plane_orthant, 0.0).holds  # zero is a radius


def test_sumset_distance_against_variational_inequality():
    # the projection onto a convex set is characterized by
    # <y - proj, z - proj> <= 0 for all z in the set
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = int(rng.integers(1, 5))
        kb, kg = int(rng.integers(1, 6)), int(rng.integers(0, 5))
        base = VPolytope(rng.standard_normal((kb, m)) * 2.0)
        cone = None
        if kg and rng.random() < 0.8:
            try:
                cone = PolyCone(rng.standard_normal((kg, m)) + 1.5)
            except ValueError:
                cone = None
        S = SumSet(base, cone)
        y = rng.standard_normal(m) * 3.0
        proj, d = project_dist(y, S)
        assert d == pytest.approx(float(np.linalg.norm(y - proj)), abs=1e-12)
        w = rng.dirichlet(np.ones(kb), size=4000)
        pts = w @ base.vertices
        if cone is not None:
            pts = pts + rng.uniform(0, 4, size=(4000, len(cone.generators))) @ cone.generators
        assert float(np.max((pts - proj) @ (y - proj))) <= 1e-9


# ---------------------------------------------------------------------------
# differential tests of the distance layer
# ---------------------------------------------------------------------------

def degenerate_generators(rng, m):
    """Random generators with duplicate rays and lines (non-pointed) mixed in."""
    gens = rng.standard_normal((int(rng.integers(1, 6)), m)) + rng.uniform(0.0, 1.5)
    if rng.random() < 0.3:
        gens = np.vstack([gens, gens[0] * rng.uniform(0.5, 2.0)])  # duplicate ray
    if rng.random() < 0.3:
        gens = np.vstack([gens, -gens[0]])  # a line through the cone
    return gens


def degenerate_sumset(rng):
    """conv(base) + cone in R^1..R^4 with repeated and collinear vertices,
    duplicate rays and non-pointed cones."""
    m = int(rng.integers(1, 5))
    base = rng.standard_normal((int(rng.integers(1, 6)), m)) * 2.0
    if len(base) > 1 and rng.random() < 0.3:
        base[-1] = base[0]  # repeated vertex
    if len(base) > 2 and rng.random() < 0.3:
        base[-1] = base[0] + rng.uniform(-1.0, 2.0) * (base[1] - base[0])  # collinear
    cone = None
    if rng.random() < 0.8:
        try:
            cone = PolyCone(degenerate_generators(rng, m))
        except ValueError:
            cone = None  # the whole space
    return SumSet(VPolytope(base), cone)


def assert_projection(y, proj, d, base, gens):
    """proj is the nearest point of conv(base) + cone(gens) to y: y - proj
    satisfies the variational inequality against every vertex and ray."""
    assert d == pytest.approx(float(np.linalg.norm(y - proj)), abs=1e-12)
    assert float(np.max((base - proj) @ (y - proj))) <= 1e-9
    if gens is not None:
        assert float(np.max(gens @ (y - proj))) <= 1e-9


def assert_kernel_matches(y, dist, base, gens):
    """The least-distance kernel agrees with the distance ``dist`` of the
    face table, and its point passes the variational inequality."""
    proj, d, kkt = _ldp_project(y, base, gens)
    assert abs(d - dist) <= 1e-9 * max(1.0, d)
    assert kkt <= 1e-9
    assert_projection(y, proj, d, base, gens)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(3338)  # a repeated ray: m + 1 free NNLS columns of rank m
@example(4238)
def test_distance_paths_match_the_ldp_kernel(seed):
    # the face table and the least-distance kernel are two exact paths to
    # the same distance; both points pass the variational inequality and the
    # kernel's NNLS its KKT conditions
    rng = np.random.default_rng(seed)
    S = degenerate_sumset(rng)
    base = S.base.vertices
    gens = None if S.cone is None else S.cone.generators
    pts = 3.0 * rng.standard_normal((10, S.dim))
    got = dist_many(pts, S)
    for y, dist in zip(pts, got):
        proj, d = project_dist(y, S)
        assert d == pytest.approx(dist, abs=1e-12)
        assert_projection(y, proj, d, base, gens)
        assert_kernel_matches(y, dist, base, gens)
    if S.cone is not None:
        origin = np.zeros((1, S.dim))
        got = S.cone.distances(pts)
        for y, dist in zip(pts, got):
            proj, d = S.cone.project(y)
            assert d == pytest.approx(dist, abs=1e-12)
            assert_projection(y, proj, d, origin, gens)
            assert_kernel_matches(y, dist, origin, gens)


def _checked_sets(rng):
    """(kind, set) for m = 1..4: polytopes with a repeated vertex, pointed
    cones, a polytope plus a cone, nearly parallel generators (alone and
    with a polytope) and sets of lower dimension (a segment, and a segment
    plus a ray along it)."""
    for m in range(1, 5):
        for _ in range(3):
            base = rng.standard_normal((int(rng.integers(2, 5)), m)) * rng.uniform(0.5, 3.0)
            repeated = VPolytope(np.vstack([base, base[:1]]))
            yield "polytope", SumSet(repeated)
            yield "cone", SumSet(VPolytope(np.zeros((1, m))), random_pointed_cone(rng, m))
            yield "polytope plus cone", SumSet(repeated, random_pointed_cone(rng, m))
            yield "segment", SumSet(VPolytope(base[:2]))
            yield "segment plus ray", SumSet(VPolytope(base[:2]), PolyCone(base[1:2] - base[:1]))
            if m > 1:
                g = rng.standard_normal(m)
                g /= np.linalg.norm(g)
                parallel = PolyCone(np.vstack([g, g + 1e-7 * rng.standard_normal(m),
                                               rng.standard_normal((m - 2, m))]))
                yield "parallel", SumSet(VPolytope(np.zeros((1, m))), parallel)
                yield "parallel", SumSet(VPolytope(base), parallel)


def test_every_nearest_point_passes_an_independent_check():
    # each nearest point P of the face table (_nearest_rows), checked without
    # it: P lies in the set (the least-distance kernel puts it within
    # 1e-12 scale), and y - P makes no acute angle with any vertex z - P or
    # unit generator g, so no point of the set is nearer to y.  With nearly
    # parallel generators the kernel itself errs by up to 7e-8; there
    # membership is decided by the 50-digit face enumeration instead
    rng = np.random.default_rng(35)
    kinds = set()
    for kind, S in _checked_sets(rng):
        b, m = S.base.vertices, S.dim
        gens = None if S.cone is None else S.cone.generators
        unit = np.zeros((0, m)) if gens is None else gens / np.linalg.norm(gens, axis=1)[:, None]
        Y = np.vstack([b[0] + 3.0 * rng.standard_normal((12, m)),  # far
                       b + 1e-9 * rng.standard_normal(b.shape),  # near the vertices
                       rng.dirichlet(np.ones(len(b)), 3) @ b])  # in the polytope
        P = geometry._nearest_rows(S, Y)[0]
        scale = max(1.0, float(np.max(np.abs(b))), float(np.max(np.abs(Y))))
        for y, p in zip(Y, P):
            out = _ldp_project(p, b, gens)[1]
            if out > 1e-12 * scale and kind == "parallel":
                out = mp_face_distance(p, b, gens)
            assert out <= 1e-12 * scale, (kind, y)
            assert np.max((b - p) @ (y - p)) <= 1e-12 * scale**2, (kind, y)
            assert np.max(unit @ (y - p), initial=0.0) <= 1e-12 * scale, (kind, y)
        kinds.add(kind)
    assert len(kinds) == 6


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cone_distances_match_scipy_nnls(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    try:
        cone = PolyCone(degenerate_generators(rng, m))
    except ValueError:
        return  # the whole space
    pts = 3.0 * rng.standard_normal((10, m))
    ref = np.array([nnls(cone.generators.T, y)[1] for y in pts])
    assert np.max(np.abs(cone.distances(pts) - ref)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nearly_non_pointed_cones_match_scipy_nnls(seed):
    # two almost opposite rays.  Construction runs the kernel; the cone is
    # pointed unless the hull of its unit rays passes within GEOM_TOL of the
    # origin (about 1 draw in 1,000).  The face table and the kernel carry
    # rounding error of the ill-conditioned faces; against nnls, and against
    # a 50-digit oracle alone and with a two-vertex base, they stay within
    # 1e-6.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    e = rng.standard_normal(m)
    e /= np.linalg.norm(e)
    cone = PolyCone(np.array([e + 1e-7 * rng.standard_normal(m),
                              -e + 1e-7 * rng.standard_normal(m) + 1e-6 * np.eye(m)[-1]]))
    gens = cone.generators
    unit = gens / np.linalg.norm(gens, axis=1, keepdims=True)
    assert cone.pointed == (mp_face_distance(np.zeros(m), unit, None) > geometry.GEOM_TOL)
    pts = 2.0 * rng.standard_normal((10, m))
    got = cone.distances(pts)
    ref = np.array([nnls(gens.T, y)[1] for y in pts])
    assert np.max(np.abs(got - ref)) <= 1e-6
    origin = np.zeros((1, m))
    base = rng.standard_normal((2, m))
    got_sum = dist_many(pts[:3], SumSet(VPolytope(base), cone))
    for y, face, face_sum in zip(pts[:3], got, got_sum):
        for b, dist in ((origin, face), (base, face_sum)):
            exact = mp_face_distance(y, b, gens)
            assert abs(dist - exact) <= 1e-6
            assert abs(_ldp_project(y, b, gens)[1] - exact) <= 1e-6


def test_cone_above_the_face_budget_uses_the_kernel(monkeypatch):
    rng = np.random.default_rng(3)
    gens = rng.standard_normal((12, 4)) + 1.5  # 794 candidate faces
    cone = PolyCone(gens)
    S = SumSet(VPolytope(rng.standard_normal((3, 4))), cone)  # 3,358 faces
    pts = 3.0 * rng.standard_normal((6, 4))
    got, got_sum = cone.distances(pts), dist_many(pts, S)
    assert cone._faces is None and S._faces is None
    assert np.allclose(got, [nnls(cone.generators.T, y)[1] for y in pts], atol=1e-9, rtol=0)
    for y, dist in zip(pts, got_sum):
        proj, d = project_dist(y, S)
        assert d == dist
        assert_projection(y, proj, d, S.base.vertices, cone.generators)
    # the reference: face tables built with the budget raised
    monkeypatch.setattr(geometry, "_FACE_BUDGET", 4096)
    wide_cone = PolyCone(gens)
    ref, ref_sum = wide_cone.distances(pts), dist_many(pts, SumSet(S.base, wide_cone))
    assert wide_cone._faces is not None
    assert np.allclose(got, ref, atol=1e-12, rtol=0)
    assert np.allclose(got_sum, ref_sum, atol=1e-12, rtol=0)


def reference_face_table(base, gens, subsets):
    """``geometry._face_table`` with each subset's direction matrix filled
    column block by column block, one subset at a time."""
    k, m = base.shape
    gens = np.zeros((0, m)) if gens is None else gens
    first, dirs, shape = [], [], []
    for i, B, J in subsets:
        D = np.zeros((m, m))
        D[:, :len(B)] = (base[list(B)] - base[i]).T
        D[:, len(B):len(B) + len(J)] = gens[list(J)].T
        first.append(i)
        dirs.append(D)
        shape.append((len(B), len(B) + len(J)))
    D = np.array(dirs)
    nbase, ncols = np.array(shape).T
    U, sv, Vt = np.linalg.svd(D)
    keep = np.sum(sv > sv[:, :1] * m * np.finfo(float).eps, axis=1) == ncols
    D, first, nbase, ncols, U, sv, Vt = (
        a[keep] for a in (D, np.array(first), nbase, ncols, U, sv, Vt))
    cols = np.arange(m)[None, :] < ncols[:, None]
    inv_sv = np.where(cols, 1.0 / np.where(cols, sv, 1.0), 0.0)
    P = (Vt.transpose(0, 2, 1) * inv_sv[:, None, :]) @ U.transpose(0, 2, 1)
    M = (U * cols[:, None, :]) @ U.transpose(0, 2, 1)
    well = sv[:, 0] <= geometry._NORMAL_COND * sv[np.arange(len(D)), np.maximum(ncols - 1, 0)]
    DT = D.transpose(0, 2, 1)
    gram = DT @ D + np.eye(m) * ~cols[:, :, None]
    P[well] = np.linalg.solve(gram[well], DT[well])
    M[well] = D[well] @ P[well]
    M[ncols == m] = np.eye(m)
    base_sum = np.sum(P * (np.arange(m)[None, :] < nbase[:, None])[:, :, None], axis=1)
    T, t = [], []
    for f in range(len(D)):  # each face's affine map y -> T_f y + t_f, t_f = -T_f b0
        T.append(np.vstack([P[f], -base_sum[f], np.eye(m) - M[f]]))
        t.append(-(T[-1] @ base[first[f]]))
    T, t = np.array(T).reshape(-1, m), np.array(t).reshape(-1, 1)
    lower = np.append(np.zeros(m), -1.0)[:, None]
    normal = U[np.arange(len(D)), :, np.minimum(ncols, m - 1)] * (ncols < m)[:, None]
    return base[first], T, t, lower, normal


def assert_same_table(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # bit for bit, signed zeros included


@pytest.mark.parametrize("budget", [512, 3])
def test_face_tables_match_a_per_subset_assembly(monkeypatch, budget):
    # every table a set builds (its face table, and the span-coordinate runs
    # of its facet rows when it is not full-dimensional or above the budget)
    # against the per-subset assembly of the same run of _subsets, in order
    monkeypatch.setattr(geometry, "_FACE_BUDGET", budget)
    built = []

    def face_table(base, gens, subsets):
        table = face_table_of(base, gens, subsets)
        built.append((base, gens, table))
        return table

    face_table_of = geometry._face_table
    monkeypatch.setattr(geometry, "_face_table", face_table)
    rng = np.random.default_rng(17)
    sets = [SumSet(VPolytope(rng.standard_normal((4, 3))))]  # a lone polytope
    for _ in range(40):
        m = int(rng.integers(1, 5))
        base = rng.standard_normal((int(rng.integers(1, 5)), m))
        try:
            cone = PolyCone(rng.standard_normal((int(rng.integers(1, 4)), m)))
        except ValueError:
            cone = None  # the whole space
        sets += [SumSet(VPolytope(base), None if rng.random() < 0.25 else cone),
                 SumSet(VPolytope(base), PolyCone(-np.eye(m))),  # signed zeros
                 degenerate_sumset(rng)]
    spans = 0
    for S in sets:
        owner, base, gens, _ = geometry._table_for(S)
        k, g, m = len(base), 0 if gens is None else len(gens), S.dim
        built.clear()
        geometry._faces(owner, base, gens)
        geometry._facets(owner, base, gens)
        full = list(geometry._subsets(k, g, m))
        calls = built
        if len(full) <= budget:  # the face table, which the facets reuse at d = m
            assert built[0][0] is base
            assert_same_table(built[0][2], reference_face_table(base, gens, full))
            calls = built[1:]
        dim = calls[0][0].shape[1] if calls else m
        spans += dim < m
        faces = geometry._subsets(k, g, dim)
        runs = list(iter(lambda: list(islice(faces, budget)), []))
        assert len(calls) == (0 if dim == m and len(full) <= budget else len(runs))
        for (B, G, table), run in zip(calls, runs):
            assert_same_table(table, reference_face_table(B, G, run))
            # from the run's own gather too
            assert_same_table(face_table_of(B, G, geometry._gather(run, len(B), len(G), dim)),
                              table)
    assert spans >= 10


def test_sphere_max_above_the_face_budget(monkeypatch):
    rng = np.random.default_rng(3)
    S = SumSet(VPolytope(rng.standard_normal((3, 4))),
               PolyCone(rng.standard_normal((12, 4)) + 1.5))  # 3,358 faces
    centers = [S.base.vertices[0], S.base.vertices[1:].mean(axis=0)
               + S.cone.generators[:3].sum(axis=0)]
    built, solves = [], []

    def face_table(base, gens, subsets):
        table = face_table_of(base, gens, subsets)
        built.append(len(table[0]))
        return table

    def ldp_project(*args):
        solves.append(args[0])
        return ldp_project_of(*args)

    face_table_of, ldp_project_of = geometry._face_table, geometry._ldp_project
    monkeypatch.setattr(geometry, "_face_table", face_table)
    monkeypatch.setattr(geometry, "_ldp_project", ldp_project)
    sups = [ball_sup_dist(VPolytope([c]), 0.7, S) for c in centers]
    assert S._faces is None  # no table cached for the set
    # the facet rows are read off runs no longer than the budget, and each
    # centre takes at most one least-distance solve
    assert len(built) > 2 and max(built) <= geometry._FACE_BUDGET
    assert len(solves) <= len(centers)
    monkeypatch.setattr(geometry, "_face_table", face_table_of)
    monkeypatch.setattr(geometry, "_ldp_project", ldp_project_of)
    # the sample's distances come from a face table built with the budget raised
    monkeypatch.setattr(geometry, "_FACE_BUDGET", 4096)
    wide = SumSet(S.base, PolyCone(S.cone.generators))
    for c, (sup, pt) in zip(centers, sups):
        assert_sphere_max(c, 0.7, S, sup, pt, reference_set=wide, count=4_000)
        assert sup == pytest.approx(ball_sup_dist(VPolytope([c]), 0.7, wide)[0], abs=1e-12)


def assert_per_centre_sups(centers, s, D):
    """One ``_sphere_max`` call over all the centres against one
    ``ball_sup_dist`` call per centre, to 1e-12, with each point on its
    sphere and attaining its sup."""
    sups, points = geometry._sphere_max(centers, s, D)
    assert sups.shape == (len(centers),) and points.shape == centers.shape
    for c, sup, pt in zip(centers, sups, points):
        assert sup == pytest.approx(ball_sup_dist(VPolytope([c]), s, D)[0], abs=1e-12)
        assert abs(np.linalg.norm(pt - c) - s) <= 1e-12
        assert dist_many(pt[None, :], D)[0] == pytest.approx(sup, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sphere_max_per_centre_matches_single_centres(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    base = rng.standard_normal((int(rng.integers(1, 4)), m)) * rng.uniform(0.5, 2.0)
    D = SumSet(VPolytope(base), None if rng.random() < 0.2 else random_pointed_cone(rng, m))
    k = int(rng.integers(2, 9))
    centers = np.vstack([base[rng.integers(len(base), size=k)],  # on the boundary
                         base[0] + 2.0 * rng.standard_normal((k, m))])
    assert_per_centre_sups(centers, float(rng.uniform(0.05, 2.0)), D)


def test_sphere_max_per_centre_in_chunks_and_above_the_face_budget():
    rng = np.random.default_rng(4)
    D = SumSet(VPolytope(rng.standard_normal((3, 3))), random_pointed_cone(rng, 3))
    centers = D.base.vertices[0] + 2.0 * rng.standard_normal((300, 3))
    assert len(centers) > geometry._FACE_CHUNK // geometry._FACE_BUDGET  # two chunks
    assert_per_centre_sups(centers, 0.6, D)
    rng = np.random.default_rng(3)
    S = SumSet(VPolytope(rng.standard_normal((3, 4))),
               PolyCone(rng.standard_normal((12, 4)) + 1.5))  # 3,358 faces
    centers = np.vstack([S.base.vertices[0], S.base.vertices[1:].mean(axis=0)
                         + S.cone.generators[:3].sum(axis=0), S.base.vertices[2] - 1.0])
    assert_per_centre_sups(centers, 0.7, S)
    assert S._faces is None


def test_runtime_does_not_import_scipy():
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from svikit import geometry, increase
        from svikit.problems import TRIANGLE_VERTICES, rotation_inclusion_problem
        cone = geometry.PolyCone([[1.0, 0.0, 0.4], [0.0, 1.0, 0.4], [-0.6, 0.1, 1.0]])
        geometry.project_dist([0.3, -2.0, 0.5], cone)
        geometry.project_dist([1.2, 0.4], geometry.VPolytope(TRIANGLE_VERTICES))
        prob = rotation_inclusion_problem()
        increase.estimate_bound(lambda u: prob.evaluate(0.4, u), prob.cone, [0.3, -0.2],
                                increase.SamplingConfig(bracket_rtol=0.05, directions=64))
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
        assert not loaded, loaded
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
