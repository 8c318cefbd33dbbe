"""The view of one parameter, ``problem.at(p)``: whatever order the
parameters are asked in, the kept view answers as a fresh problem's does,
bit for bit, and it cannot be changed.  It is the one reader of the data at
p: a knot-table constraint answers only through it, and a non-finite p is
rejected at every entry point."""
import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_pointed_cone
from svikit.geometry import orthant
from svikit.increase import global_infimum
from svikit.parametric import sweep
from svikit.problems import deviation_vop_spec, rotation_inclusion_problem, triangle_vop_spec
from svikit.setmaps import (AbsComponent, Ball, Box, ConcaveTerm, FanSpec, MatrixTable,
                            SviProblem, _Knots)
from svikit.solver import SolverConfig, solve
from svikit.vopt import AffineFamily, VopSpec, brute_force_ideal, ideal_value_sweep, solve_ideal

KNOTS = [-0.5, 0.15, 0.6]
#: the parameters asked, among them both zeros and a p within 4e-13 of 0.1
PS = (0.1, 0.2, 0.0, -0.0, 0.1 + 4e-13, 0.6)


def _random_fan(seed):
    rng = np.random.default_rng(seed)
    m, n, v = (int(k) for k in rng.integers(1, 5, size=3))
    cone = orthant(m) if m == 1 or seed % 2 else random_pointed_cone(rng, m)
    h = ConcaveTerm(tuple(AbsComponent(*rng.uniform(-1.0, 1.0, 2), -rng.random(),
                                       rng.uniform(-1.0, 1.0), int(rng.integers(n)))
                          for _ in range(m)))
    return SviProblem(matrix=MatrixTable(_Knots(KNOTS, rng.uniform(-2.0, 2.0, (3, m, n)))),
                      cone=cone, h=h, fan=FanSpec(rng.uniform(-0.5, 0.5, (v, m, n))))


def _knotted(constraint):
    return lambda: rotation_inclusion_problem(constraint=constraint(), declared_alpha=1.5)


def _affine_spec(constraint):
    rng = np.random.default_rng(11)
    obj = AffineFamily(MatrixTable(_Knots(KNOTS, rng.uniform(-2.0, 2.0, (3, 2, 2)))),
                       offset=_Knots(KNOTS, rng.uniform(-1.0, 1.0, (3, 2))))
    return lambda: VopSpec(obj, constraint(), orthant(2), 1.0)


MAKERS = {
    "rotation ccw": lambda: rotation_inclusion_problem(),
    "rotation cw": lambda: rotation_inclusion_problem(clockwise=True),
    "knot-table M": lambda: SviProblem(matrix=MatrixTable(_Knots(KNOTS, np.random.default_rng(
        7).uniform(-2.0, 2.0, (3, 2, 2)))), cone=orthant(2)),
    "box on knots": _knotted(lambda: Box(_Knots(KNOTS, [[-1.0, -2.0], [-0.5, -1.0], [0.0, -1.5]]),
                                         _Knots(KNOTS, [[1.0, 0.5], [0.5, 1.0], [2.0, 0.0]]))),
    "ball on knots": _knotted(lambda: Ball(_Knots(KNOTS, [[0.0, 0.0], [0.5, -1.0], [1.0, 1.0]]),
                                           _Knots(KNOTS, [1.0, 0.25, 2.0]))),
    **{f"random fan {seed}": (lambda seed=seed: _random_fan(seed)) for seed in range(6)},
    "polytope spec": lambda: triangle_vop_spec(clockwise=True),
    "box spec": _affine_spec(lambda: Box([0.0, -1.0], [1.0, 0.5])),
    "ball spec": _affine_spec(lambda: Ball(_Knots(KNOTS, [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]]),
                                           _Knots(KNOTS, [1.0, 0.5, 2.0]))),
    "polytope affine spec": _affine_spec(lambda: triangle_vop_spec().constraint),
    "deviation spec": lambda: deviation_vop_spec([0.0, 1.0, -0.5], KNOTS),
}


def _answers(view, X, kappa):
    """Everything a view answers at its p, as bytes."""
    bound, M = view.bound_map
    hint = view.hint
    return (view.evaluate_many(X).tobytes(), view.merit_many(X).tobytes(),
            view.merit_many(X, kappa).tobytes(), bound(X[0]).vertices.tobytes(),
            None if M is None else M.tobytes(), None if hint is None else hint.tobytes())


def _each_maker(test):
    """One explicit example per maker, so that every one is drawn."""
    for name in sorted(MAKERS):
        test = example(name=name, order=PS, repeats=[], kappa=0.5,
                       exponents=[-3.0, 3.0, 1.5, -0.5])(test)
    return test


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MAKERS)), order=st.permutations(PS),
       repeats=st.lists(st.sampled_from(PS), max_size=4), kappa=st.sampled_from([0.5, 2.0]),
       exponents=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
@_each_maker
def test_the_kept_view_answers_as_a_fresh_problems(name, order, repeats, kappa, exponents):
    make = MAKERS[name]
    prob = make()
    X = np.random.default_rng(len(name)).uniform(-2.0, 2.0, (9, prob.dim_in))
    # rows whose coordinates range over magnitudes 1e-3 to 1e3
    scaled = X[:3] * 10.0 ** np.array(exponents[:prob.dim_in])
    for p in list(order) + repeats:
        view = prob.at(p)
        assert prob.at(p) is view and view.p == p
        assert math.copysign(1.0, view.p) == math.copysign(1.0, p)
        assert _answers(view, X, kappa) == _answers(make().at(p), X, kappa)
        # the constraint at p answers as a fresh problem's constraint at p
        fresh = make().at(p).constraint
        assert view.constraint.distances(X).tobytes() == fresh.distances(X).tobytes()
        for x in X[:3]:
            (u, d), (u_ref, d_ref) = view.constraint.project(x), fresh.project(x)
            assert u.tobytes() == u_ref.tobytes() and d == d_ref
        if prob.constraint.at(p) is not prob.constraint:  # knot tables: read at a p only
            with pytest.raises(ValueError, match="only at a parameter"):
                prob.constraint.project(X[0])
            with pytest.raises(ValueError, match="only at a parameter"):
                prob.constraint.distances(X)
        assert prob.evaluate(p, X[0]).vertices.tobytes() == view.evaluate_many(X[:1])[0].tobytes()
        # a one-row image is the batch kernel's row, bit for bit
        for x in scaled:
            assert view.evaluate(x).vertices.tobytes() == view.evaluate_many(x[None])[0].tobytes()
            if isinstance(prob, VopSpec):  # the bound map images -f on its row
                assert view.bound_map[0](x).vertices.tobytes() == (-view.f(x[None])).tobytes()


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_the_view_is_immutable(name):
    prob = MAKERS[name]()
    view = prob.at(0.15)
    view.hint  # computed on first use, then kept
    arrays = [v for v in vars(view).values() if isinstance(v, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    for attr in ("p", "M", "constraint", "something_new"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(view, attr, None)
    assert prob.at(0.15) is view and prob.at(0.3) is not view


def test_threads_at_different_parameters_get_their_own_answers():
    # one problem, eight threads, each at its own p: every call replaces the
    # memo the others read, and every answer is still its own p's
    prob = rotation_inclusion_problem()
    X = np.random.default_rng(9).uniform(-2.0, 2.0, (5, 2))
    ps = [0.25 * i for i in range(8)]
    want = {p: rotation_inclusion_problem().at(p).merit_many(X, 0.5).tobytes() for p in ps}
    wrong, done = [], []

    def work(p):
        for _ in range(2000):
            if prob.at(p).merit_many(X, 0.5).tobytes() != want[p]:
                wrong.append(p)
        done.append(p)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(p,)) for p in ps]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == ps and not wrong


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -1.0])
def test_the_penalty_weight_must_be_finite_and_nonnegative(kappa):
    # a nan weight would read the unpenalized merit, an infinite one overflow
    for view in (rotation_inclusion_problem().at(0.3),
                 rotation_inclusion_problem(constraint=Box([-2.0, -2.0], [2.0, 2.0])).at(0.3)):
        with pytest.raises(ValueError, match="penalty weight must be"):
            view.merit_many([[3.0, 3.0]], kappa)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_parameter_is_rejected_at_every_entry_point(bad):
    # one ValueError, raised by ``at`` when it would build the view, names p
    rotation, triangle = rotation_inclusion_problem(), triangle_vop_spec()
    deviation = deviation_vop_spec([0.0, 1.0, -0.5], KNOTS)
    cfg = SolverConfig(alpha_tilde=2.0)
    calls = [lambda: rotation.at(bad),
             lambda: solve(rotation, bad, [0.0, 0.0]),
             lambda: global_infimum(rotation, [bad], 3),
             lambda: sweep(rotation, sorted([0.0, bad]), [0.0, 0.0]),
             lambda: solve_ideal(triangle, bad, [0.3, 0.3], cfg),
             lambda: brute_force_ideal(deviation, bad),
             lambda: ideal_value_sweep(triangle, [bad], [0.3, 0.3], cfg)]
    for call in calls:
        with pytest.raises(ValueError, match=f"parameter p = {bad} is not finite"):
            call()
    # the kept view of a finite p is untouched
    assert rotation.at(0.5).p == 0.5 and rotation.at(0.5) is rotation.at(0.5)
