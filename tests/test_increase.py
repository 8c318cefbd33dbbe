import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svikit import increase
from svikit.geometry import (SumSet, VPolytope, dist_many, enlargement_inclusion, numgrad,
                             orthant, unit_directions)
from svikit.increase import (HypothesisViolated, PropertyAbsent,
                             SamplingConfig, check_increase, estimate_bound,
                             global_infimum, hints_for_matrix, perturbed_bound)
from svikit.problems import rotation_inclusion_problem
from conftest import ROT_BOUND, PERTURBED_BOUND, random_pointed_cone
from sphere_reference import ball_sup

SQRT2 = math.sqrt(2.0)


def scaled_rotation(lam, theta):
    Q = lam * np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
    return Q, (lambda x: VPolytope((Q @ x)[None, :]))


def deviation_map(center, components=2):
    def f(x):
        dev = abs(float(x[0]) - center)
        return VPolytope(np.full((1, components), dev))
    return f


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------

def test_witness_found_just_below_the_exact_bound(plane_orthant):
    theta = 0.7
    Q, g = scaled_rotation(3.0, theta)
    hints = hints_for_matrix(Q, plane_orthant)
    u = check_increase(g, plane_orthant, [0.0, 0.0], ROT_BOUND - 1e-3, 1.0,
                       hints=hints)
    assert u is not None
    analytic = np.array([math.cos(math.pi / 4 - theta), math.sin(math.pi / 4 - theta)])
    assert np.allclose(u, analytic, atol=1e-9)


def test_no_witness_above_the_exact_bound(plane_orthant):
    Q, g = scaled_rotation(3.0, 0.7)
    u = check_increase(g, plane_orthant, [0.0, 0.0], 5.0, 1.0,
                       hints=hints_for_matrix(Q, plane_orthant))
    assert u is None


def test_constant_infeasible_map_has_no_witness(plane_orthant):
    g = lambda x: VPolytope(np.array([[-1.0, -1.0]]))
    assert check_increase(g, plane_orthant, [0.0, 0.0], 1.3, 1.0) is None


def reference_check(map_at, cone, x, alpha, r, cfg, hints):
    """check_increase's candidates in its order, each decided on its own by
    the reference sphere search (``sphere_reference``) after a vertex gate: a
    vertex farther than the tolerance puts a ball point beyond r + tolerance."""
    x = np.asarray(x, dtype=float)
    target = SumSet(map_at(x), cone)
    rng = increase._stable_seed(cfg.seed, None, x)
    grads = increase._gradients(map_at, target, cone, x)
    U, _ = increase._candidates(x, r, grads, hints, unit_directions(len(x), cfg.directions),
                                rng)
    for u in U:
        if np.linalg.norm(u - x) <= 1e-15:
            continue
        image = map_at(u)
        if float(np.max(dist_many(image.vertices, target))) > cfg.tolerance:
            continue
        if ball_sup(image.vertices, alpha * r, target) <= r + cfg.tolerance:
            return u
    return None


def random_fan_instance(rng):
    """A cone (the orthant or a random pointed one, m = 2..3), a fan map
    u -> conv(M_i u) of 2-4 matrices near a scaled rotation, its matrices
    and a point."""
    m = int(rng.integers(2, 4))
    cone = orthant(m) if rng.random() < 0.5 else random_pointed_cone(rng, m)
    Q = np.linalg.qr(rng.standard_normal((m, m)))[0] * rng.uniform(1.5, 4.0)
    mats = Q + 0.2 * rng.standard_normal((int(rng.integers(2, 5)), m, m))
    return cone, mats, (lambda u: VPolytope(mats @ u)), rng.uniform(-2.0, 2.0, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_check_increase_matches_a_candidate_by_candidate_scan(seed):
    rng = np.random.default_rng(seed)
    cone, mats, map_at, x = random_fan_instance(rng)
    alpha, r = float(rng.uniform(1.02, 4.0)), float(rng.choice([1.0, 0.5, 0.125]))
    cfg = SamplingConfig(directions=16, seed=int(rng.integers(100)))
    hints = hints_for_matrix(mats[0], cone) if rng.random() < 0.5 else None
    if rng.random() < 0.3:  # a tolerance above (alpha - 1) r: vertices off G(x) + C may pass
        cfg.tolerance = (alpha - 1.0) * r * rng.uniform(1.0, 3.0)
    got = check_increase(map_at, cone, x, alpha, r, cfg, hints)
    want = reference_check(map_at, cone, x, alpha, r, cfg, hints)
    assert (got is None) == (want is None)
    if got is not None:
        assert np.array_equal(got, want)


def test_a_vertex_outside_within_the_tolerance_is_measured(plane_orthant):
    # alpha r + dist(v) <= r + tolerance decides a vertex off the target: at
    # (-0.1, -0.1) off the orthant, dist 0.1414 exceeds the facet violation 0.1
    g = lambda u: VPolytope(np.asarray(u, dtype=float)[None, :])
    for tol, holds in ((0.22, False), (0.25, True)):
        s = increase._Search(g, plane_orthant, np.zeros(2), SamplingConfig(tolerance=tol), None)
        assert (s.scan(np.array([[-0.1, -0.1]]), [], 1.1, 1.0) is not None) == holds
        assert (ball_sup([[-0.1, -0.1]], 1.1, s.target) <= 1.0 + tol) == holds


def test_gradient_heuristics_match_one_stencil_per_heuristic():
    for seed in range(20):
        cone, _, map_at, x = random_fan_instance(np.random.default_rng(seed))
        target, r = SumSet(map_at(x), cone), 0.5
        want = []
        for fn in (lambda u: float(np.max(dist_many(map_at(u).vertices, target))),
                   lambda u: float(np.max(cone.distances(map_at(u).vertices)))):
            g = numgrad(lambda U: np.array([fn(u) for u in U]), x)
            n = float(np.linalg.norm(g))
            if n > 1e-14:
                want.append(x - (r / n) * g)
        cfg = SamplingConfig()
        U, head = increase._candidates(
            x, r, increase._gradients(map_at, target, cone, x), None,
            unit_directions(len(x), cfg.directions), np.random.default_rng(0))
        assert head == len(want), seed  # without a hint the head is the gradient steps
        assert np.allclose(U[:head], want, rtol=0, atol=1e-9), seed


def reference_bracket(map_at, cone, x, cfg, hints, p):
    """estimate_bound's bracket, doubling then bisecting, with a fresh public
    check_increase for every (alpha, r) on the same rng stream; None where
    the probe alpha has no witnesses."""
    x = np.asarray(x, dtype=float)
    rng = increase._stable_seed(cfg.seed, p, x)

    def qualify(alpha):
        wits = []
        for r in increase.QUALIFYING_RADII:
            u = check_increase(map_at, cone, x, alpha, r, cfg, hints, rng)
            if u is None:
                return None
            wits.append((r, u))
        return wits

    lo = a = increase.ALPHA_PROBE
    lo_wits, hi = qualify(lo), None
    if lo_wits is None:
        return None
    while hi is None:
        a = min(2.0 * a, increase.ALPHA_MAX)
        w = qualify(a)
        if w is None:
            hi = a
        else:
            lo, lo_wits = a, w
            if a >= increase.ALPHA_MAX:
                hi = increase.ALPHA_MAX
    for _ in range(60):
        if hi - lo <= cfg.bracket_rtol * lo:
            break
        mid = 0.5 * (lo + hi)
        w = qualify(mid)
        if w is None:
            hi = mid
        else:
            lo, lo_wits = mid, w
    return lo, hi, lo_wits


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_estimate_bound_matches_fresh_checks_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    cone, mats, map_at, x = random_fan_instance(rng)
    cfg = SamplingConfig(directions=16, bracket_rtol=0.05, seed=int(rng.integers(100)))
    # a decrease bound is the increase bound of the negated map
    bound_map = (lambda u: -map_at(u)) if rng.random() < 0.3 else map_at
    hints = hints_for_matrix(mats[0], cone) if rng.random() < 0.5 else None
    p = float(rng.uniform(-1.0, 1.0))
    want = reference_bracket(bound_map, cone, x, cfg, hints, p)
    if want is None:
        with pytest.raises(PropertyAbsent):
            estimate_bound(bound_map, cone, x, cfg, hints=hints, p_for_seed=p)
        return
    est = estimate_bound(bound_map, cone, x, cfg, hints=hints, p_for_seed=p)
    lo, hi, wits = want
    assert (est.alpha_lo, est.alpha_hi) == (lo, hi)
    assert [r for r, _ in est.witnesses] == [r for r, _ in wits]
    assert all(u.tobytes() == w.tobytes() for (_, u), (_, w) in zip(est.witnesses, wits))


def test_estimate_bound_evaluates_the_shared_points_once(plane_orthant):
    # x, the 2n stencil points and each radius's hint and gradient candidates
    # are evaluated once per estimate, not once per witness check
    Q, g = scaled_rotation(3.0, 0.7)
    hints = hints_for_matrix(Q, plane_orthant)
    x, cfg = np.array([0.3, -1.2]), SamplingConfig()
    calls = collections.Counter()

    def counted(u):
        calls[np.asarray(u, dtype=float).tobytes()] += 1
        return g(u)

    estimate_bound(counted, plane_orthant, x, cfg, hints=hints)
    E = 1e-6 * max(1.0, float(np.linalg.norm(x))) * np.eye(2)
    assert [calls[u.tobytes()] for u in (x, *(x + E), *(x - E))] == [1] * 5
    grads = increase._gradients(g, SumSet(g(x), plane_orthant), plane_orthant, x)
    assert len(grads) == 2
    want = collections.Counter(
        u.tobytes() for r in increase.QUALIFYING_RADII
        for u in [x + r * hints, x + 0.5 * r * hints, *(x - (r / n) * v for v, n in grads)])
    assert {u: calls[u] for u in want} == want


def test_check_increase_images_no_candidate_past_the_witness_block(rotation_problem):
    # the witness is candidate 11 (first ring), so the blocks of 8 and 16
    # are imaged and none of the later ~170 candidates
    p, x, alpha, r = 3.0, np.array([0.0, 1.0]), 3.0, 0.25
    cfg = SamplingConfig(directions=64)
    g = lambda u: rotation_problem.evaluate(p, u)
    hints = increase.hints_for_problem(rotation_problem, p)
    seen = set()

    def counted(u):
        seen.add(np.asarray(u, dtype=float).tobytes())
        return g(u)

    u = check_increase(counted, rotation_problem.cone, x, alpha, r, cfg, hints=hints)
    grads = increase._gradients(g, SumSet(g(x), rotation_problem.cone), rotation_problem.cone, x)
    U, _ = increase._candidates(x, r, grads, hints, unit_directions(2, cfg.directions),
                                increase._stable_seed(cfg.seed, None, x))
    assert len(U) > 150
    imaged = [i for i, c in enumerate(U) if c.tobytes() in seen]
    assert [i for i, c in enumerate(U) if np.array_equal(c, u)] == [11]
    assert imaged == list(range(24))


def test_check_increase_validates_arguments(plane_orthant):
    _, g = scaled_rotation(3.0, 0.0)
    with pytest.raises(ValueError):
        check_increase(g, plane_orthant, [0.0, 0.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        check_increase(g, plane_orthant, [0.0, 0.0], 2.0, 0.0)


# ---------------------------------------------------------------------------
# bound bracketing
# ---------------------------------------------------------------------------

def test_estimate_bracket_rotation_off_origin(plane_orthant):
    Q, g = scaled_rotation(3.0, 0.7)
    est = estimate_bound(g, plane_orthant, [0.3, -1.2],
                         hints=hints_for_matrix(Q, plane_orthant))
    assert 3.07 <= est.alpha_lo <= 3.13
    assert est.alpha_lo <= ROT_BOUND <= est.alpha_hi


def test_estimate_bracket_five_times_identity_rotation(plane_orthant):
    Q, g = scaled_rotation(5.0, 0.0)
    est = estimate_bound(g, plane_orthant, [0.0, 0.0],
                         hints=hints_for_matrix(Q, plane_orthant))
    target = 5.0 / SQRT2 + 1.0
    assert est.alpha_lo <= target <= est.alpha_hi
    assert est.width <= 0.06 * target


def test_estimate_bracket_in_four_dimensions():
    # m = 4 takes the signed axes plus a seeded cloud as directions; the
    # bound of u -> 3Qu over the orthant is 1 + 3/sqrt(4)
    Q = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))[0]
    M, cone = 3.0 * Q, orthant(4)
    cfg = SamplingConfig(directions=64, bracket_rtol=0.05)
    for x in (np.zeros(4), np.array([0.3, -1.2, 0.5, 0.1]), np.ones(4)):
        est = estimate_bound(lambda u: VPolytope((M @ u)[None, :]), cone, x, cfg,
                             hints=hints_for_matrix(M, cone))
        assert est.alpha_lo <= 2.5 <= est.alpha_hi


def test_estimate_bracket_stops_at_the_cap(plane_orthant):
    # the exact bound of u -> 40u is 1 + 40/sqrt(2), above ALPHA_MAX
    g = lambda u: VPolytope(40.0 * np.asarray(u)[None, :])
    est = estimate_bound(g, plane_orthant, [0.0, 0.0],
                         hints=hints_for_matrix(40.0 * np.eye(2), plane_orthant))
    assert est.alpha_lo == est.alpha_hi == increase.ALPHA_MAX
    assert [r for r, _ in est.witnesses] == list(increase.QUALIFYING_RADII)


def test_estimate_decrease_mode_deviation(plane_orthant):
    g = deviation_map(0.4)
    est = estimate_bound(lambda u: -g(u), plane_orthant, [1.3])
    assert est.alpha_lo >= 2.0 - 0.05
    assert est.alpha_hi >= 2.0 - 1e-9


def test_estimate_decrease_absent_at_the_minimizer(plane_orthant):
    g = deviation_map(0.4)
    with pytest.raises(PropertyAbsent):
        estimate_bound(lambda u: -g(u), plane_orthant, [0.4])


def test_witness_records_are_sound_and_non_self(plane_orthant):
    Q, g = scaled_rotation(3.0, 1.1)
    x = np.array([0.5, 0.2])
    est = estimate_bound(g, plane_orthant, x, hints=hints_for_matrix(Q, plane_orthant))
    assert est.witnesses
    target = SumSet(g(x), plane_orthant)
    for r, u in est.witnesses:
        assert np.linalg.norm(u - x) > 0.0
        res = enlargement_inclusion(g(np.asarray(u)), est.alpha_lo * r, target, r)
        assert res.holds


def test_bracket_refutation_survives_denser_sampling(plane_orthant):
    Q, g = scaled_rotation(3.0, 0.3)
    cfg = SamplingConfig()
    est = estimate_bound(g, plane_orthant, [0.0, 0.0], cfg,
                         hints=hints_for_matrix(Q, plane_orthant))
    assert est.alpha_hi < increase.ALPHA_MAX
    dense = SamplingConfig(directions=4 * cfg.directions)
    found = all(
        check_increase(g, plane_orthant, [0.0, 0.0], est.alpha_hi, r, dense,
                       hints=hints_for_matrix(Q, plane_orthant)) is not None
        for r in increase.QUALIFYING_RADII)
    assert not found  # the refutation at alpha_hi is genuine


# ---------------------------------------------------------------------------
# global constants and the perturbation calculus
# ---------------------------------------------------------------------------

def test_global_infimum_matrix_part_only():
    prob = rotation_inclusion_problem(with_h=False, with_fan=False,
                                      declared_alpha=None)
    res = global_infimum(prob, [0.0, 2.1], 4, SamplingConfig(seed=1))
    assert len(res.estimates) >= 4
    assert abs(res.alpha - ROT_BOUND) <= 0.06


def test_global_infimum_full_problem(rotation_problem):
    res = global_infimum(rotation_problem, [0.0, 2.1], 4, SamplingConfig(seed=1))
    assert res.alpha >= PERTURBED_BOUND - 0.1


def test_perturbed_bound_examples():
    assert perturbed_bound(3.12132, 0.5) == pytest.approx(1.56066)
    assert perturbed_bound(2.5, 0.0) == pytest.approx(2.5)
    with pytest.raises(HypothesisViolated):
        perturbed_bound(2.0, 0.6)  # 0.6 >= 1 - 1/2
    with pytest.raises(ValueError):
        perturbed_bound(0.9, 0.1)


def test_perturbation_consistency_on_the_full_instance(rotation_problem, plane_orthant):
    # the perturbed increase bound stays above (1 - ell) * base on samples
    from svikit.setmaps import evaluate
    from svikit.increase import hints_for_problem
    rng = np.random.default_rng(3)
    floor = perturbed_bound(ROT_BOUND, 0.5)
    p = 0.0
    hints = hints_for_problem(rotation_problem, p)
    for _ in range(5):
        x = rng.uniform(-2, 2, size=2)
        est = estimate_bound(lambda xx: evaluate(rotation_problem, p, xx),
                             plane_orthant, x, hints=hints, p_for_seed=p)
        assert est.alpha_lo >= floor - 0.1
