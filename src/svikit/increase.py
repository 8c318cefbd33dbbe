"""Estimation and certification of the metric cone-increase property and its
exact bound (the decrease bound of a map is the increase bound of its
negative), the additive perturbation calculus, and sampled global infimum
constants.

The exact bound at a point x is bracketed by bisection on alpha: a witness u
with  B(G(u), alpha*r) subset B(G(x) + C, r)  certifies alpha from below at
radius r; exhausting the candidate budget at some qualifying radius refutes
it from above.  The inclusion holds iff every vertex of G(u) lies (alpha - 1) r
deep in G(x) + C (Radstrom's cancellation law).  The property is a small-radius
one (it quantifies over all r in (0, delta] for some delta), so qualification
requires witnesses at a few small radii (``QUALIFYING_RADII``) only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (PolyCone, SumSet, VPolytope, _least_slack, as_vector, dist_many,
                       numgrad, row_norms, seeded_rotation, unit_directions)
from .setmaps import is_all_space, merit_many

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


@dataclass
class SamplingConfig:
    """Budgets for witness search and alpha bracketing."""

    directions: int = 128
    refinement_rounds: int = 3  # unread; perfbench's witness recheck still passes it
    tolerance: float = 1e-7
    bracket_rtol: float = 0.01  # stop when alpha_hi - alpha_lo <= rtol * alpha_lo
    seed: int = 0


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
    """The hint direction of the map that ``problem.bound_map(p)`` gives, from
    its linear part, for both problem kinds; None when it has none."""
    M = problem.bound_map(p)[1]
    return None if M is None else hints_for_matrix(M, problem.cone)


def hints_for_matrix(M: np.ndarray, cone: PolyCone) -> Optional[np.ndarray]:
    """The unit direction d that the linear map M sends along the cone's deep
    direction, or None when M is not square, is singular or d vanishes; the
    hint candidates at radius r are x + r d and x + r d / 2."""
    try:  # a matrix that is not square raises too
        d = np.linalg.solve(M, cone.deep_direction())
    except np.linalg.LinAlgError:
        return None
    n = np.linalg.norm(d)
    return d / n if n > 1e-12 else None


def _gradients(map_at: MapAt, target: SumSet, cone: PolyCone, x: np.ndarray) -> list:
    """(g, |g|) for the steepest-descent heuristics that push the image toward
    the target set and toward the cone (worst-vertex distances), both
    differenced on one stencil; vanishing gradients are dropped."""
    def worst(U):
        images = [map_at(u).vertices for u in U]
        starts = np.cumsum([0] + [len(v) for v in images[:-1]])
        verts = np.vstack(images)
        return np.column_stack([np.maximum.reduceat(dist_many(verts, target), starts),
                                np.maximum.reduceat(cone.distances(verts), starts)])

    return [(g, n) for g in numgrad(worst, x).T if (n := float(np.linalg.norm(g))) > 1e-14]


def _candidates(x: np.ndarray, r: float, grads: list, hint: Optional[np.ndarray],
                units: np.ndarray, rng: np.random.Generator):
    """Candidate witnesses in B(x, r), most promising first, and the length of
    their head: the hint steps x + r d and x + r d / 2, a step of length r
    against each of ``grads``, then the ``units`` rotated by one draw from
    ``rng``, at each of MAGNITUDES."""
    head = [] if hint is None else [x + r * hint, x + 0.5 * r * hint]
    head += [x - (r / n) * g for g, n in grads]
    dirs = units @ seeded_rotation(len(x), rng).T
    return np.vstack([np.reshape(head, (-1, len(x))),
                      *(x + (mag * r) * dirs for mag in MAGNITUDES)]), len(head)


# ---------------------------------------------------------------------------
# witness check and bound bracketing
# ---------------------------------------------------------------------------

class _Search:
    """What every witness check at one point x shares: the target G(x) + C
    (its face table and facet rows are cached on it), the heuristic
    gradients of one stencil, the unit directions, the checked hint
    direction, and per radius the images of the candidates' head."""

    def __init__(self, map_at: MapAt, cone: PolyCone, x: np.ndarray, cfg: SamplingConfig, hint):
        self.map_at, self.x, self.cfg = map_at, x, cfg
        self.hint = None if hint is None else as_vector(hint, len(x))
        self.target = SumSet(map_at(x), cone)
        self.grads = _gradients(map_at, self.target, cone, x)
        self.units = unit_directions(len(x), cfg.directions)
        self.head = {}  # radius -> images of the hint and gradient candidates

    def images(self, U: np.ndarray) -> list:
        """Image vertices of the rows of U; None at x (no witness)."""
        keep = row_norms(U - self.x) > 1e-15
        return [self.map_at(u).vertices if k else None for u, k in zip(U, keep)]

    def scan(self, U: np.ndarray, images: list, alpha: float, r: float):
        """The first row of U whose image passes, or None; ``images`` holds
        those of a prefix of the rows.  Vertex v passes when alpha*r + sd(v) <=
        r + tolerance, sd as in ``geometry._sphere_max``: minus v's least slack
        is sd inside and a lower bound outside, so only a vertex not inside that
        may still pass is measured (none unless (alpha - 1) r <= tolerance)."""
        images = images + self.images(U[len(images):])
        rows = [i for i, v in enumerate(images) if v is not None]
        if not rows:
            return None
        verts = np.vstack([images[i] for i in rows])
        starts = np.cumsum([0] + [len(images[i]) for i in rows[:-1]])
        s, bound = alpha * r, r + self.cfg.tolerance
        sd = -_least_slack(verts, self.target)
        measure = (sd >= 0.0) & (s + sd <= bound)
        if measure.any():
            sd[measure] = dist_many(verts[measure], self.target)
        hits = np.flatnonzero(s + np.maximum.reduceat(sd, starts) <= bound)
        return U[rows[hits[0]]].copy() if len(hits) else None


def _witness(s: _Search, alpha: float, r: float, rng: np.random.Generator):
    """One witness check at s.x: the candidates are decided in blocks of 8, 16,
    32, ..., and the first witness of the first block that holds one returns."""
    if alpha <= 1 or r <= 0:
        raise ValueError("alpha must exceed 1" if alpha <= 1 else "radius must be positive")
    U, k = _candidates(s.x, r, s.grads, s.hint, s.units, rng)
    if r not in s.head:
        s.head[r] = s.images(U[:k])
    start, found = 0, None
    while found is None and start < len(U):
        found = s.scan(U[start:2 * start + 8], s.head[r][start:2 * start + 8], alpha, r)
        start = 2 * start + 8
    return found


def check_increase(map_at: MapAt, cone: PolyCone, x, alpha: float, r: float,
                   cfg: Optional[SamplingConfig] = None, hints=None,
                   rng: Optional[np.random.Generator] = None) -> Optional[np.ndarray]:
    """Search for u in B(x, r) with B(G(u), alpha*r) inside B(G(x) + C, r),
    trying the steps along the hint direction ``hints`` (or None) first.

    Returns the first passing candidate, or None when the budget is
    exhausted (absence of a witness is a value, not an error).
    """
    cfg = cfg or SamplingConfig()
    x = as_vector(x)
    if rng is None:
        rng = _stable_seed(cfg.seed, None, x)
    return _witness(_Search(map_at, cone, x, cfg, hints), alpha, r, rng)


def estimate_bound(map_at: MapAt, cone: PolyCone, x,
                   cfg: Optional[SamplingConfig] = None, hints=None,
                   p_for_seed: Optional[float] = None) -> IncreaseEstimate:
    """Bracket the exact bound of cone-increase of ``map_at`` at x; the
    decrease bound of a map f is this bound of ``lambda u: -f(u)``.

    alpha_lo is certified by stored witnesses at every qualifying radius;
    alpha_hi is the smallest tested alpha with a refuted qualifying radius
    (or the cap).  Raises PropertyAbsent when not even the probe value
    just above 1 admits witnesses.  Every check shares one ``_Search``,
    the hint direction ``hints`` (or None) included.
    """
    cfg = cfg or SamplingConfig()
    x = as_vector(x)
    rng = _stable_seed(cfg.seed, p_for_seed, x)
    search = _Search(map_at, cone, x, cfg, hints)

    def qualify(alpha: float) -> Optional[list]:
        wits = []
        for r in QUALIFYING_RADII:
            u = _witness(search, alpha, r, rng)
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
        X = xs if is_all_space(problem.constraint) else np.array(
            [problem.constraint.project(x, p)[0] for x in xs]).reshape(-1, dim)
        pairs += [(float(p), x) for x in X[merit_many(problem, p, X) > cfg.tolerance]]
    return pairs


def global_infimum(problem, p_grid: Sequence[float], x_samples,
                   cfg: Optional[SamplingConfig] = None) -> InfimumResult:
    """Sampled lower estimate of the problem's global bound constant: the
    least alpha_lo of ``estimate_bound`` over the ``nonsolution_pairs``, on
    the map that ``problem.bound_map(p)`` gives, with the hint of
    ``hints_for_problem``: F(p, .) for an inclusion, -f(p, .) for ideal
    efficiency (the decrease bound of f).  A pair with no witnesses at the
    probe is skipped, as near the solution set the candidates can miss them
    at the qualifying radii; PropertyAbsent means no pair was left, which
    includes samples that are all solutions."""
    cfg = cfg or SamplingConfig()
    if not len(p_grid):
        raise ValueError("parameter grid must be nonempty")
    pairs = nonsolution_pairs(problem, p_grid, x_samples, cfg)
    estimates = []
    for p, x in pairs:
        try:
            estimates.append((p, x, estimate_bound(problem.bound_map(p)[0], problem.cone, x,
                                                   cfg, hints=hints_for_problem(problem, p),
                                                   p_for_seed=p)))
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
