"""Estimation and certification of the metric cone-increase property and its
exact bound (the decrease bound of a map is the increase bound of its
negative), the additive perturbation calculus, and sampled global infimum
constants.

The exact bound at a point x is bracketed by bisection on alpha: a witness u
with  B(G(u), alpha*r) subset B(G(x) + C, r)  certifies alpha from below at
radius r; exhausting the radius's one candidate list, drawn once per estimate
with each of its candidates imaged at most once, refutes it from above.  The
inclusion holds iff every vertex of G(u) lies (alpha - 1) r deep in G(x) + C
(Radstrom's cancellation law).  The property is a small-radius one (it
quantifies over all r in (0, delta] for some delta), so qualification requires
witnesses at a few small radii (``QUALIFYING_RADII``) only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .geometry import (PolyCone, SumSet, VPolytope, _distance_rows, _least_slack, as_vector,
                       numgrad, row_norms, seeded_rotation, unit_directions)
from .setmaps import is_all_space

MapAt = Callable[[np.ndarray], VPolytope]

#: radii that must all carry witnesses, largest first (the first is delta)
QUALIFYING_RADII = (0.25, 0.125)
#: step lengths of the sampled candidates, as fractions of the radius
MAGNITUDES = (1.0, 0.5, 0.25)
#: the bracket's first alpha (feasibility probe) and its cap
ALPHA_PROBE = 1.02
ALPHA_MAX = 16.0


class PropertyAbsent(Exception):
    """No alpha above 1 + tolerance admits witnesses at the qualifying radii."""


class HypothesisViolated(ValueError):
    """A calculus hypothesis (e.g. the perturbation budget) fails."""


def _check_int(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer (Python's or numpy's, not
    a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_positive(name: str, value) -> None:
    """Raise ValueError unless value is finite and above 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass
class SamplingConfig:
    """Witness-search budgets ``directions`` (at least 1), ``bracket_rtol``
    (finite, above 0) and ``seed`` (at least 0), checked at construction; the
    ``tolerance`` and the unread ``refinement_rounds`` are class constants."""

    directions: int = 128
    bracket_rtol: float = 0.01  # stop when alpha_hi - alpha_lo <= rtol * alpha_lo
    seed: int = 0
    tolerance: ClassVar[float] = 1e-7
    refinement_rounds: ClassVar[int] = 3

    def __post_init__(self):
        _check_int("directions", self.directions, 1)
        _check_positive("bracket_rtol", self.bracket_rtol)
        _check_int("seed", self.seed, 0)


@dataclass
class IncreaseEstimate:
    """Bracket for the exact bound at one point, with stored witnesses."""

    x: np.ndarray
    alpha_lo: float
    alpha_hi: float
    witnesses: list  # (radius, u) pairs certifying alpha_lo

    @property
    def width(self) -> float:
        return self.alpha_hi - self.alpha_lo


# ---------------------------------------------------------------------------
# deterministic candidate machinery
# ---------------------------------------------------------------------------

def _stable_seed(base: int, p: Optional[float], x: np.ndarray) -> np.random.Generator:
    payload = np.asarray([0.0 if p is None else p, *np.asarray(x, float)], dtype="<f8")
    words = np.frombuffer(payload.tobytes(), dtype=np.uint32)
    return np.random.default_rng([base, *words.tolist()])


def hints_for_problem(problem, p: float) -> Optional[np.ndarray]:
    """The hint direction of the bound map of ``problem.at(p)``
    (``hints_for_matrix`` of its linear part), for both problem kinds; None
    when it has none.  The view keeps it."""
    return problem.at(p).hint


def _gradients(map_at: MapAt, target: SumSet, cone: PolyCone, x: np.ndarray) -> list:
    """(g, |g|) for the steepest-descent heuristics that push the image toward
    the target set and toward the cone (worst-vertex distances), both
    differenced on one stencil; vanishing gradients are dropped."""
    def worst(U):  # checked images: their vertices are measured as they are
        images = [map_at(u).vertices for u in U]
        starts = np.cumsum([0] + [len(v) for v in images[:-1]])
        verts = np.concatenate(images)
        return np.column_stack([np.maximum.reduceat(_distance_rows(target, verts), starts),
                                np.maximum.reduceat(cone._distances(verts), starts)])

    return [(g, n) for g in numgrad(worst, x).T if (n := float(np.linalg.norm(g))) > 1e-14]


def _candidates(x: np.ndarray, r: float, grads: list, hint: Optional[np.ndarray],
                units: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Candidate witnesses in B(x, r), most promising first: the hint steps
    x + r d and x + r d / 2, a step of length r against each of ``grads``,
    then the ``units`` rotated by one draw from ``rng``, at each of
    MAGNITUDES."""
    head = [] if hint is None else [x + r * hint, x + 0.5 * r * hint]
    head += [x - (r / n) * g for g, n in grads]
    dirs = units @ seeded_rotation(len(x), rng).T
    return np.vstack([np.reshape(head, (-1, len(x))),
                      *(x + (mag * r) * dirs for mag in MAGNITUDES)])


# ---------------------------------------------------------------------------
# witness check and bound bracketing
# ---------------------------------------------------------------------------

class _Search:
    """What every witness check at one point x shares: the target G(x) + C
    (its face table and facet rows are cached on it), the heuristic
    gradients of one stencil, the unit directions, the checked hint
    direction, and per radius one candidate list, drawn from ``rng`` at that
    radius's first check, with the worst signed depth of each candidate
    imaged so far (inf at x): the max over its image vertices of minus the least slack
    or, where ``witness`` measures it, the distance; a lower bound once it fails.
    A list's candidates are imaged straight from it, each at most once; a
    point on both lists (x + r d / 2 at 0.25 is x + r d at 0.125) is imaged
    once per list."""

    def __init__(self, map_at: MapAt, cone: PolyCone, x: np.ndarray, cfg: SamplingConfig,
                 hint, rng: np.random.Generator):
        self.map_at, self.x, self.cfg, self.rng = map_at, x, cfg, rng
        self.hint = None if hint is None else as_vector(hint, len(x))
        self.target = SumSet(map_at(x), cone)
        self.grads = _gradients(map_at, self.target, cone, x)
        self.units = unit_directions(len(x), cfg.directions)
        self.lists = {}  # radius -> (candidates, worst depths of the imaged prefix)

    def witness(self, alpha: float, r: float) -> Optional[np.ndarray]:
        """The first candidate at radius r with alpha*r + worst <= r + tolerance,
        or None: the candidates are imaged in blocks of 8, 16, 32, ... until
        one passes, and every later check at r reuses their depths, so the
        verdict is monotone in alpha.  An outside vertex is measured only if its
        violation sd passes at alpha = 1, r + sd <= r + tolerance: as alpha*r >= r
        in floats and its distance is at least sd, one failing there fails at every alpha."""
        if not (math.isfinite(alpha) and alpha > 1):
            raise ValueError(f"alpha must be finite and exceed 1, got {alpha}")
        if not (math.isfinite(r) and r > 0):
            raise ValueError(f"radius must be finite and positive, got {r}")
        if r not in self.lists:
            U = _candidates(self.x, r, self.grads, self.hint, self.units, self.rng)
            self.lists[r] = U, np.empty(0)
        U, worst = self.lists[r]
        while not len(hits := np.flatnonzero(alpha * r + worst <= r + self.cfg.tolerance)):
            if len(worst) == len(U):
                return None
            block = U[len(worst):2 * len(worst) + 8]
            keep = row_norms(block - self.x) > 1e-15
            images = [self.map_at(u).vertices for u in block[keep]]
            depth = np.full(len(block), np.inf)
            if images:  # checked images: their vertices are measured as they are
                verts = np.concatenate(images)
                sd = -_least_slack(verts, self.target)
                out = (sd >= 0.0) & (r + sd <= r + self.cfg.tolerance)
                if out.any():  # the max: no rounding puts a distance below the violation
                    sd[out] = np.maximum(sd[out], _distance_rows(self.target, verts[out]))
                starts = np.cumsum([0] + [len(v) for v in images[:-1]])
                depth[keep] = np.maximum.reduceat(sd, starts)
            worst = np.concatenate([worst, depth])
            self.lists[r] = U, worst
        return U[hits[0]].copy()


def check_increase(map_at: MapAt, cone: PolyCone, x, alpha: float, r: float,
                   cfg: Optional[SamplingConfig] = None, hints=None,
                   rng: Optional[np.random.Generator] = None) -> Optional[np.ndarray]:
    """Search for u in B(x, r) with B(G(u), alpha*r) inside B(G(x) + C, r),
    trying the steps along the hint direction ``hints`` (or None) first.

    Returns the first passing candidate, or None when the candidate list
    is exhausted (absence of a witness is a value, not an error).
    """
    cfg = cfg or SamplingConfig()
    x = as_vector(x)
    if rng is None:
        rng = _stable_seed(cfg.seed, None, x)
    return _Search(map_at, cone, x, cfg, hints, rng).witness(alpha, r)


def estimate_bound(map_at: MapAt, cone: PolyCone, x,
                   cfg: Optional[SamplingConfig] = None, hints=None,
                   p_for_seed: Optional[float] = None) -> IncreaseEstimate:
    """Bracket the exact bound of cone-increase of ``map_at`` at x; the
    decrease bound of a map f is this bound of ``lambda u: -f(u)``.

    alpha_lo is certified by stored witnesses at every qualifying radius;
    alpha_hi is the smallest tested alpha with a refuted qualifying radius
    (or the cap).  Raises PropertyAbsent when not even the probe value
    just above 1 admits witnesses.  Every check shares one ``_Search``,
    the hint direction ``hints`` (or None) and each radius's candidate list
    included, so the bracket is that of the best alpha the lists certify.
    """
    cfg = cfg or SamplingConfig()
    x = as_vector(x)
    search = _Search(map_at, cone, x, cfg, hints, _stable_seed(cfg.seed, p_for_seed, x))

    def qualify(alpha: float) -> Optional[list]:
        wits = []
        for r in QUALIFYING_RADII:
            u = search.witness(alpha, r)
            if u is None:
                return None
            wits.append((r, u))
        return wits

    wits = qualify(ALPHA_PROBE)
    if wits is None:
        raise PropertyAbsent(f"no witnesses at alpha = {ALPHA_PROBE} for the "
                             f"qualifying radii {list(QUALIFYING_RADII)}")
    # double alpha until a refutation (or the cap), then bisect at most 60 times
    lo, lo_wits, hi, halvings = ALPHA_PROBE, wits, None, 0
    while hi is None or (halvings < 60 and hi - lo > cfg.bracket_rtol * lo):
        a = min(2.0 * lo, ALPHA_MAX) if hi is None else 0.5 * (lo + hi)
        halvings += hi is not None
        w = qualify(a)
        if w is None:
            hi = a
        else:
            lo, lo_wits = a, w
            if a >= ALPHA_MAX:
                hi = ALPHA_MAX
    return IncreaseEstimate(x=x, alpha_lo=lo, alpha_hi=hi, witnesses=lo_wits)


# ---------------------------------------------------------------------------
# sampled global constants and the perturbation calculus
# ---------------------------------------------------------------------------

@dataclass
class InfimumResult:
    alpha: float
    estimates: list  # (p, x, IncreaseEstimate)


def nonsolution_pairs(problem, p_grid: Sequence[float], x_samples,
                      cfg: SamplingConfig) -> list:
    """Non-solution (p, x) pairs, of merit above the tolerance by one batched
    merit per p: x from the given points or ``x_samples`` seeded draws in
    [-2, 2]^n, projected into R(p) first when the problem is constrained."""
    dim = problem.dim_in
    if isinstance(x_samples, int):
        xs = np.random.default_rng(cfg.seed).uniform(-2.0, 2.0, size=(x_samples, dim))
    else:
        xs = np.asarray(x_samples, dtype=float).reshape(-1, dim)
    pairs = []
    for p in p_grid:
        at = problem.at(p)
        X = xs if is_all_space(at.constraint) else np.array(
            [at.constraint.project(x)[0] for x in xs]).reshape(-1, dim)
        pairs += [(float(p), x) for x in X[at.merit_many(X) > cfg.tolerance]]
    return pairs


def global_infimum(problem, p_grid: Sequence[float], x_samples,
                   cfg: Optional[SamplingConfig] = None) -> InfimumResult:
    """Sampled lower estimate of the problem's global bound constant: the
    least alpha_lo of ``estimate_bound`` over the ``nonsolution_pairs``, on
    the bound map of the view ``problem.at(p)``, with the view's hint:
    F(p, .) for an inclusion, -f(p, .) for ideal efficiency (the decrease
    bound of f).  A pair with no witnesses at the probe is skipped, as near
    the solution set the candidates can miss them at the qualifying radii;
    PropertyAbsent means no pair was left, which includes samples that are
    all solutions."""
    cfg = cfg or SamplingConfig()
    if not len(p_grid):
        raise ValueError("parameter grid must be nonempty")
    pairs = nonsolution_pairs(problem, p_grid, x_samples, cfg)
    estimates = []
    for p, x in pairs:
        at = problem.at(p)
        try:
            estimates.append((p, x, estimate_bound(at.bound_map[0], at.cone, x, cfg,
                                                   hints=at.hint, p_for_seed=p)))
        except PropertyAbsent:
            continue
    if not estimates:
        raise PropertyAbsent(f"no witnesses at alpha = {ALPHA_PROBE} at any of the "
                             f"{len(pairs)} sampled non-solutions")
    return InfimumResult(alpha=min(est.alpha_lo for _, _, est in estimates), estimates=estimates)


def perturbed_bound(base_inc: float, ell: float) -> float:
    """Lower bound (1 - ell) * base_inc for the increase bound of an
    additively perturbed map with perturbation Lipschitz constant ell.

    Raises HypothesisViolated unless ell < 1 - 1/base_inc.
    """
    if base_inc <= 1:
        raise ValueError("base increase bound must exceed 1")
    if ell < 0:
        raise ValueError("Lipschitz constant must be nonnegative")
    limit = 1.0 - 1.0 / base_inc
    if ell >= limit:
        raise HypothesisViolated(
            f"perturbation budget {ell} >= 1 - 1/inc = {limit}")
    return (1.0 - ell) * base_inc
