"""Estimation and certification of the metric cone-increase property and its
exact bound, the decrease variant for objective maps, the additive
perturbation calculus, and sampled global infimum constants.

The exact bound at a point x is bracketed by bisection on alpha: a witness u
with  B(G(u), alpha*r) subset B(G(x) + C, r)  certifies alpha from below at
radius r; exhausting the candidate budget at some qualifying radius refutes
it from above.  The defining property is a small-radius one (it quantifies
over all r in (0, delta] for some delta), so qualification requires
witnesses at the smallest tail of the radius schedule rather than at every
listed radius.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (PolyCone, SumSet, VPolytope, _sphere_max, as_vector,
                       dist_many, numgrad, seeded_rotation, unit_directions)
from .setmaps import SviProblem, evaluate, is_all_space, merit

MapAt = Callable[[np.ndarray], VPolytope]
HintFn = Callable[[np.ndarray, float], list]


class Mode(Enum):
    INCREASE = "increase"
    DECREASE = "decrease"


class PropertyAbsent(Exception):
    """No alpha above 1 + tolerance admits witnesses at the qualifying radii."""


class HypothesisViolated(ValueError):
    """A calculus hypothesis (e.g. the perturbation budget) fails."""


@dataclass
class SamplingConfig:
    """Budgets for witness search and alpha bracketing."""

    radii: tuple = (1.0, 0.5, 0.25, 0.125)
    directions: int = 128
    refinement_rounds: int = 3
    tolerance: float = 1e-7
    alpha_max: float = 16.0
    bracket_rtol: float = 0.01  # stop when alpha_hi - alpha_lo <= rtol * alpha_lo
    bracket_atol: float = 0.02  # feasibility probe at alpha = 1 + atol
    magnitudes: tuple = (1.0, 0.5, 0.25)
    qualifying_radii: int = 2  # smallest radii that must all carry witnesses
    seed: int = 0

    def __post_init__(self):
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii must be positive")
        if list(self.radii) != sorted(self.radii, reverse=True):
            raise ValueError("radii must be decreasing")


@dataclass
class IncreaseEstimate:
    """Bracket for the exact bound at one point, with stored witnesses."""

    x: np.ndarray
    alpha_lo: float
    alpha_hi: float
    delta_used: float
    witnesses: list  # (radius, u) pairs certifying alpha_lo
    mode: Mode

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


def hints_for_problem(problem: SviProblem, p: float) -> HintFn:
    """Witness-direction hints derived from the problem's matrix family."""
    M = problem.matrix.matrix_at(p)
    return hints_for_matrix(M, problem.cone)


def hints_for_matrix(M: np.ndarray, cone: PolyCone) -> HintFn:
    d = None
    if M.shape[0] == M.shape[1]:
        try:
            cand = np.linalg.solve(M, cone.deep_direction())
            n = np.linalg.norm(cand)
            d = cand / n if n > 1e-12 else None
        except np.linalg.LinAlgError:
            pass

    def hints(x: np.ndarray, r: float) -> list:
        if d is None:
            return []
        return [x + r * d, x + 0.5 * r * d]

    return hints


def _candidates(map_at: MapAt, target: SumSet, cone: PolyCone,
                x: np.ndarray, r: float, cfg: SamplingConfig,
                hints: Optional[HintFn], rng: np.random.Generator):
    """Candidate witnesses u in B(x, r), most promising first."""
    if hints is not None:
        for u in hints(x, r):
            yield np.asarray(u, dtype=float)

    # steepest-descent style heuristics: push the image toward the target
    # set and toward the cone (worst-vertex distance reduction), both
    # differenced on one stencil
    def worst(U):
        images = [map_at(u).vertices for u in U]
        starts = np.cumsum([0] + [len(v) for v in images[:-1]])
        verts = np.vstack(images)
        return np.column_stack([np.maximum.reduceat(dist_many(verts, target), starts),
                                np.maximum.reduceat(cone.distances(verts), starts)])

    for g in numgrad(worst, x).T:
        n = float(np.linalg.norm(g))
        if n > 1e-14:
            yield x - (r / n) * g

    n_dim = len(x)
    dirs = unit_directions(n_dim, cfg.directions) @ seeded_rotation(n_dim, rng).T
    for mag in cfg.magnitudes:
        for d in dirs:
            yield x + (mag * r) * d


# ---------------------------------------------------------------------------
# witness check and bound bracketing
# ---------------------------------------------------------------------------

def check_increase(map_at: MapAt, cone: PolyCone, x, alpha: float, r: float,
                   cfg: Optional[SamplingConfig] = None,
                   hints: Optional[HintFn] = None,
                   rng: Optional[np.random.Generator] = None) -> Optional[np.ndarray]:
    """Search for u in B(x, r) with B(G(u), alpha*r) inside B(G(x) + C, r).

    Returns the first passing candidate, or None when the budget is
    exhausted (absence of a witness is a value, not an error).  Since
    alpha > 1, a witness's whole image must lie inside G(x) + C (a vertex at
    distance d > 0 puts a ball point at d + alpha*r > r); that necessary
    condition rejects candidates cheaply.  The rest are decided together by
    one exact sphere max (``_sphere_max``) over all their image vertices: a
    candidate passes when its largest sup is at most r + tolerance.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if r <= 0:
        raise ValueError("radius must be positive")
    cfg = cfg or SamplingConfig()
    x = as_vector(x)
    if rng is None:
        rng = _stable_seed(cfg.seed, None, x)
    target = SumSet(map_at(x), cone)

    def scan(chunk):
        # the witness must differ from the center
        cands = [u for u in chunk if np.linalg.norm(u - x) > 1e-15]
        if not cands:
            return None
        images = [map_at(u).vertices for u in cands]
        owner = np.repeat(np.arange(len(cands)), [len(v) for v in images])
        verts = np.vstack(images)
        far = owner[dist_many(verts, target) > cfg.tolerance]
        inside = np.bincount(far, minlength=len(cands)) == 0
        if not inside.any():
            return None
        rows = inside[owner]
        worst = np.zeros(len(cands))
        np.maximum.at(worst, owner[rows], _sphere_max(verts[rows], alpha * r, target)[0])
        hits = np.flatnonzero(inside & (worst <= r + cfg.tolerance))
        return cands[hits[0]] if len(hits) else None

    gen = _candidates(map_at, target, cone, x, r, cfg, hints, rng)
    head = list(itertools.islice(gen, 8))  # hints and heuristics first
    found = scan(head)
    if found is not None:
        return found
    return scan(list(gen))


def _negated(map_at: MapAt) -> MapAt:
    return lambda x: -map_at(x)


def estimate_bound(map_at: MapAt, cone: PolyCone, x,
                   cfg: Optional[SamplingConfig] = None,
                   mode: Mode = Mode.INCREASE,
                   hints: Optional[HintFn] = None,
                   p_for_seed: Optional[float] = None) -> IncreaseEstimate:
    """Bracket the exact bound of cone-increase (or decrease) at x.

    alpha_lo is certified by stored witnesses at every qualifying radius;
    alpha_hi is the smallest tested alpha with a refuted qualifying radius
    (or the cap).  Raises PropertyAbsent when not even the probe value
    just above 1 admits witnesses.
    """
    cfg = cfg or SamplingConfig()
    x = as_vector(x)
    rng = _stable_seed(cfg.seed, p_for_seed, x)
    fn = map_at if mode is Mode.INCREASE else _negated(map_at)
    k = max(1, min(cfg.qualifying_radii, len(cfg.radii)))
    qualifying = list(cfg.radii)[-k:]

    def qualify(alpha: float) -> Optional[list]:
        wits = []
        for r in qualifying:
            u = check_increase(fn, cone, x, alpha, r, cfg, hints, rng)
            if u is None:
                return None
            wits.append((r, u))
        return wits

    probe = 1.0 + cfg.bracket_atol
    wits = qualify(probe)
    if wits is None:
        raise PropertyAbsent(
            f"no witnesses at alpha = {probe} for the qualifying radii {qualifying}")
    lo, lo_wits = probe, wits
    hi = None
    a = probe
    while hi is None:
        a = min(2.0 * a, cfg.alpha_max)
        w = qualify(a)
        if w is None:
            hi = a
        else:
            lo, lo_wits = a, w
            if a >= cfg.alpha_max:
                hi = cfg.alpha_max
                break
    for _ in range(60):
        if hi - lo <= cfg.bracket_rtol * lo:
            break
        mid = 0.5 * (lo + hi)
        w = qualify(mid)
        if w is None:
            hi = mid
        else:
            lo, lo_wits = mid, w
    return IncreaseEstimate(x=x, alpha_lo=lo, alpha_hi=hi,
                            delta_used=max(qualifying), witnesses=lo_wits,
                            mode=mode)


# ---------------------------------------------------------------------------
# sampled global constants and the perturbation calculus
# ---------------------------------------------------------------------------

@dataclass
class InfimumResult:
    alpha: float
    samples_used: int
    estimates: list  # (p, x, IncreaseEstimate)


def infimum_over_samples(map_at_of_p: Callable[[float], MapAt], cone: PolyCone,
                         pairs: Sequence[tuple], cfg: Optional[SamplingConfig] = None,
                         mode: Mode = Mode.INCREASE,
                         hints_of_p: Optional[Callable[[float], HintFn]] = None
                         ) -> InfimumResult:
    """Minimum alpha_lo of estimate_bound over sampled (p, x) pairs."""
    cfg = cfg or SamplingConfig()
    best, used, estimates = math.inf, 0, []
    for p, x in pairs:
        hints = hints_of_p(p) if hints_of_p is not None else None
        est = estimate_bound(map_at_of_p(p), cone, x, cfg, mode=mode,
                             hints=hints, p_for_seed=p)
        estimates.append((p, x, est))
        used += 1
        best = min(best, est.alpha_lo)
    if not used:
        raise ValueError("no admissible samples for the infimum estimate")
    return InfimumResult(alpha=best, samples_used=used, estimates=estimates)


def nonsolution_pairs(problem, p_grid: Sequence[float], x_samples, dim: int,
                      cfg: SamplingConfig, project: bool) -> list:
    """(p, x) pairs with positive merit over the grid, x taken from the
    given points or ``x_samples`` seeded draws in [-2, 2]^dim, and projected
    into R(p) first when ``project``."""
    if isinstance(x_samples, int):
        rng = np.random.default_rng(cfg.seed)
        xs = rng.uniform(-2.0, 2.0, size=(x_samples, dim))
    else:
        xs = np.asarray(x_samples, dtype=float).reshape(-1, dim)
    pairs = []
    for p in p_grid:
        for x in xs:
            if project and not is_all_space(problem.constraint):
                x = problem.constraint.project(x, p)[0]
            if merit(problem, p, x) <= cfg.tolerance:
                continue  # the constants only quantify over non-solutions
            pairs.append((float(p), x))
    return pairs


def global_infimum(problem: SviProblem, p_grid: Sequence[float],
                   x_samples, cfg: Optional[SamplingConfig] = None,
                   constrained: bool = False) -> InfimumResult:
    """Sampled lower estimate of the global increase-bound constant of the
    problem: the infimum of per-point bounds over (p, x) with positive merit
    (and x projected into R(p) for the constrained variant)."""
    cfg = cfg or SamplingConfig()
    if not len(p_grid):
        raise ValueError("parameter grid must be nonempty")
    pairs = nonsolution_pairs(problem, p_grid, x_samples, problem.dim_in, cfg,
                              project=constrained)
    return infimum_over_samples(
        lambda p: (lambda xx: evaluate(problem, p, xx)),
        problem.cone, pairs, cfg,
        hints_of_p=lambda p: hints_for_problem(problem, p))


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
