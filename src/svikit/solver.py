"""Descent solver for inclusion problems, driven by the Caristi-type
acceptance rule

    merit(u) + k * ||u - x|| <= merit(x)

which makes every run self-certifying: accepted steps telescope into the
error bound  ||x_final - x0|| <= merit(x0) / k.

Unconstrained runs descend the plain merit with k = alpha - 1.  Constrained
runs descend the penalized merit  psi + kappa * dist(., R(p))  and dispatch
by feasibility: infeasible iterates first try exact segment steps toward the
projection (which trade distance for merit at a controlled rate), feasible
ones take merit-descent steps.  A best-effort problem kind (ideal
efficiency) descends on floor constants where the theorem's are missing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .geometry import as_vector, numgrad, row_norms, seeded_rotation, unit_directions
from .increase import (PropertyAbsent, SamplingConfig, _check_int, _check_positive,
                       global_infimum)
from .setmaps import is_all_space

#: the sampled descent's first radius and its shrink factor per round
RADIUS0 = 1.0
RADIUS_DECAY = 0.5
#: sampled directions per radius, and the radius at which the search stops
DIRECTION_SAMPLES = 64
MIN_RADIUS = 1e-13
#: acceptance constant of best-effort runs on floor constants
MIN_DESCENT = 0.05


class _Sampled(float):
    """A sampled alpha_tilde (``global_infimum``, which bounds nothing) handed
    on as ``cfg.alpha_tilde``: ``solve`` reports it as sampled, uncertified."""


class DescentConstantsError(ValueError):
    """alpha or alpha_tilde does not fit the problem: out of range, or
    leaving no room above its Lipschitz budget."""


class AlreadyFeasible(ValueError):
    """Segment steps require an infeasible start point."""


@dataclass
class SolverConfig:
    """Descent-loop configuration; the iteration cap ``max_iters`` is a class constant.

    ``alpha_tilde`` is the increase (for vector optimization, decrease)
    bound; unset, it is the problem's ``declared_alpha``, else sampled (see
    ``solve``).  ``alpha`` is the descent constant: above 1 without
    constraints, inside ((alpha_tilde - ell + 1)/2, alpha_tilde - ell) with
    them, ell being the problem's ``ell``; unset, ``solve`` picks one.
    ``tol`` is the merit at which a run converges; ``rng_seed`` seeds its steps.
    Construction checks that alpha and alpha_tilde are None or finite (their
    ranges are checked against the problem by ``solve``), tol finite and
    above 0 and rng_seed an integer of at least 0."""

    alpha: Optional[float] = None
    alpha_tilde: Optional[float] = None
    tol: float = 1e-8
    rng_seed: int = 0
    max_iters: ClassVar[int] = 10_000

    def __post_init__(self):
        for name in ("alpha", "alpha_tilde"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be None or finite, got {value!r}")
        _check_positive("tol", self.tol)
        _check_int("rng_seed", self.rng_seed, 0)


@dataclass(slots=True)
class SolveResult:
    """End point of a run, why it stopped, and its certificate.

    ``stop`` is "converged" (merit at most tol), "no_step" (the back-off
    retry found no step either) or "max_iters"; an unsolved run's
    ``x_final`` and ``merit_final`` are its last iterate and that iterate's
    (penalized) merit.  ``bound_rhs`` is the initial (penalized) merit
    divided by the run's smallest acceptance constant; the telescoped path
    length always satisfies it when every accepted step passed the
    acceptance rule, whether or not the run converged.
    ``merit_initial`` is that initial merit, from which the accepted steps
    telescope: ``path_length <= (merit_initial - merit_final) / descent_k``.
    ``alpha_source`` is where the constants came from: "given" (the config),
    "declared", "sampled" (``global_infimum``, which bounds nothing) or
    "floor"; ``caristi_certified`` is True only for given and declared.
    """

    x_final: np.ndarray
    merit_final: float
    iterations: int
    path_length: float
    caristi_certified: bool
    bound_rhs: float
    bound_holds: bool
    stop: str
    merit_initial: float
    alpha_source: str
    alpha_used: float = math.nan
    kappa: float = 0.0
    descent_k: float = math.nan


@dataclass
class StepOutcome:
    status: str  # 'accepted' | 'converged' | 'no_step'
    u: Optional[np.ndarray] = None
    radii_tried: tuple = ()
    merit: float = math.nan  # at u when accepted, at x otherwise

    @property
    def accepted(self) -> bool:
        return self.status == "accepted"

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def caristi_step(merit_many: Callable[[np.ndarray], np.ndarray], x, fx: float,
                 descent_k: float, cfg: Optional[SolverConfig] = None, step_seed: int = 0,
                 extra_candidates=()) -> StepOutcome:
    """One accepted-descent step: the first candidate u with
    merit(u) + descent_k * ||u - x|| <= fx, where fx is merit(x).

    ``merit_many`` maps a (k, n) batch of points to their k merits; the
    caller holds merit(x) already, so the step measures only candidates.
    Candidates are ordered: caller-supplied extras, Newton-length steps
    along the numerical steepest-descent direction, then per radius of a
    shrinking schedule that direction and seeded sampled directions; each
    group is one batch, of which the first passing row is taken.  Radius
    shrinking stops early once the best sampled slope stabilizes above
    -descent_k (no acceptance possible along the sampled rays).
    """
    if descent_k <= 0:
        raise ValueError("descent constant must be positive")
    cfg = cfg or SolverConfig()
    x = as_vector(x)
    if fx <= cfg.tol:
        return StepOutcome("converged", merit=fx)

    def first_accepted(U, rays=0, r=0.0):
        """The first row of U that passes the rule, and every merit.  The
        last ``rays`` rows lie at distance r, the others at their measured
        distance, where a step of (near) zero length is no candidate."""
        fu = merit_many(U)
        k = len(U) - rays
        d = row_norms(U[:k] - x)
        ok = np.append((d > 1e-15) & (fu[:k] + descent_k * d <= fx),
                       fu[k:] + descent_k * r <= fx)
        hit = np.flatnonzero(ok)
        return (StepOutcome("accepted", U[hit[0]].copy(), merit=float(fu[hit[0]]))
                if hit.size else None), fu

    extras = np.array(list(extra_candidates), dtype=float).reshape(-1, len(x))
    out = first_accepted(extras)[0] if len(extras) else None
    if out is not None:
        return out

    grad = numgrad(merit_many, x)
    grad_norm = float(np.linalg.norm(grad))
    grad_dir = grad / grad_norm if 1e-14 < grad_norm < math.inf else None  # flat, or overflowed
    if grad_dir is not None:
        # Newton-style lengths fx/|grad| land near the zero level without
        # overshooting deep into it; the Caristi test still gates acceptance
        cap = fx / descent_k
        lengths = np.array([min(c * fx / grad_norm, cap) for c in (1.0, 1.7, 3.0)])
        out = first_accepted(x - lengths[:, None] * grad_dir)[0]
        if out is not None:
            return out
    n = len(x)
    rng = np.random.default_rng([cfg.rng_seed, step_seed])
    dirs = unit_directions(n, DIRECTION_SAMPLES) @ seeded_rotation(n, rng).T

    # acceptance needs descent_k * ||u - x|| <= fx, so larger radii are futile
    r = min(RADIUS0, fx / descent_k)
    radii_tried = []
    prev_best_slope, stable = None, 0
    while r > MIN_RADIUS:
        radii_tried.append(r)
        U = x + r * dirs
        if grad_dir is not None:
            U = np.vstack([x - r * grad_dir, U])
        out, fu = first_accepted(U, len(dirs), r)
        if out is not None:
            return out
        best_slope = float(np.min((fu[-len(dirs):] - fx) / r))
        # difference quotients of a convex merit only decrease as r shrinks;
        # once they stall above -descent_k the sampled rays are hopeless
        if prev_best_slope is not None and best_slope > -descent_k:
            if abs(best_slope - prev_best_slope) <= 1e-3 * max(1.0, abs(best_slope)):
                stable += 1
                if stable >= 2:
                    break
            else:
                stable = 0
        prev_best_slope = best_slope
        r *= RADIUS_DECAY
    return StepOutcome("no_step", radii_tried=tuple(radii_tried), merit=fx)


def segment_step(x, constraint, t: float) -> np.ndarray:
    """Move x a length t along the segment toward its projection onto the
    constraint set at one parameter (a view's ``constraint``); the distance
    to the set drops exactly by t.  ``solve`` shares ``_segment`` from the
    one projection it makes per iterate."""
    x = as_vector(x)
    return _segment(x, *constraint.project(x), constraint, t)


def _segment(x: np.ndarray, proj: np.ndarray, dist: float, constraint, t: float) -> np.ndarray:
    """``segment_step`` from x's projection proj at distance dist; the end
    point's distance is read on the distance-only path (``_distances``)."""
    if dist <= 1e-12:
        raise AlreadyFeasible("the point already lies in the constraint set")
    if not (0 < t <= dist + 1e-12):
        raise ValueError(f"step length {t} outside (0, dist={dist}]")
    u = x + (t / dist) * (proj - x)
    if abs(constraint._distances(u[None, :])[0] - (dist - t)) > 1e-9 * max(1.0, dist):
        raise RuntimeError("segment identity violated; constraint set not convex?")
    return u


def _descent_constants(alpha_tilde, alpha, ell, constrained, best_effort):
    """(alpha, kappa, k, certified) of a run.  Unconstrained: alpha > 1, by
    default min(1.5, 0.9 alpha_tilde), or (1 + alpha_tilde)/2 when that is
    not above 1, and k = alpha - 1.  Constrained: alpha in the interval, by
    default its midpoint, kappa = alpha_tilde - alpha and k = kappa - ell.
    Without these (an empty interval, or alpha_tilde None), a best-effort
    run takes floor constants: alpha nan, kappa max(1, ell/2) when
    constrained and 0 when not, and k = MIN_DESCENT."""
    if not constrained and (alpha is not None or alpha_tilde is not None):
        if alpha is None:
            alpha = min(1.5, 0.9 * alpha_tilde)
            if alpha <= 1.0:
                alpha = 0.5 * (1.0 + alpha_tilde)
        if alpha <= 1.0:
            raise DescentConstantsError("unconstrained descent needs alpha > 1")
        return alpha, 0.0, alpha - 1.0, True
    if alpha_tilde is not None:
        lo_a, hi_a = 0.5 * (alpha_tilde - ell + 1.0), alpha_tilde - ell
        if lo_a < hi_a:
            alpha = 0.5 * (lo_a + hi_a) if alpha is None else alpha
            if not lo_a < alpha < hi_a:
                raise DescentConstantsError(
                    f"alpha={alpha} outside the mandated interval ({lo_a}, {hi_a})")
            kappa = alpha_tilde - alpha
            return alpha, kappa, kappa - ell, True
        if not best_effort:
            raise DescentConstantsError(
                f"empty alpha interval: the constrained theorem needs alpha_tilde > "
                f"1 + ell = {1.0 + ell}, got alpha_tilde = {alpha_tilde}")
    return math.nan, max(1.0, 0.5 * ell) if constrained else 0.0, MIN_DESCENT, False


def solve(problem, p: float, x0, cfg: Optional[SolverConfig] = None) -> SolveResult:
    """Run the descent to merit <= tol and certify the error bound.

    ``problem`` needs ``at(p)`` (the view at p: the run reads p's data only
    through its merit and constraint), ``ell`` (the Lipschitz budget of its
    perturbation terms) and ``best_effort``; constrained mode engages
    whenever the constraint is not the whole space (a non-finite p raises).
    alpha_tilde is ``cfg.alpha_tilde``, else the problem's
    ``declared_alpha``, else, when the constants need it, ``global_infimum``
    over six seeded non-solutions at p (in R(p) when constrained); a
    sampled one without witnesses raises ``PropertyAbsent`` unless the run
    is best-effort.  A start that solves the problem (merit and distance to
    R(p) at most tol) needs no sampled alpha_tilde: it returns with no step,
    nan constants, kappa and ``bound_rhs`` 0, uncertified.  Each step gets
    the merit the run holds; when none is found the run retries once at half
    its k, measuring the merit at x again only if kappa moved.  Every run
    that starts returns a result, converged or not (``SolveResult.stop``).
    The certificate compares ||x_final - x0|| against the initial penalized
    merit divided by the last k.
    """
    cfg = cfg or SolverConfig()
    x0 = as_vector(x0)
    at = problem.at(p)
    constraint = at.constraint
    constrained = not is_all_space(constraint)
    ell = float(problem.ell)
    given = cfg.alpha_tilde is not None or (cfg.alpha is not None and not constrained)
    alpha_tilde = (cfg.alpha_tilde if cfg.alpha_tilde is not None
                   else getattr(problem, "declared_alpha", None))
    # alpha alone decides an unconstrained run's constants
    sampled = isinstance(cfg.alpha_tilde, _Sampled) and (cfg.alpha is None or constrained)
    source = "sampled" if sampled else "given" if given else "declared"
    if alpha_tilde is None and not given:  # sample it
        source = "sampled"
        merit0 = at.merit(x0)
        if merit0 <= cfg.tol and constraint._distances(x0[None, :])[0] <= cfg.tol:
            return SolveResult(x0.copy(), merit0, iterations=0, path_length=0.0,
                               caristi_certified=False, bound_rhs=0.0, bound_holds=True,
                               stop="converged", merit_initial=merit0, alpha_source=source)
        scfg = SamplingConfig(bracket_rtol=0.05, directions=64, seed=cfg.rng_seed)
        try:
            alpha_tilde = global_infimum(problem, [p], 6, scfg).alpha
        except PropertyAbsent:
            if not problem.best_effort:
                raise
    alpha, kappa, k_run, mandated = _descent_constants(
        alpha_tilde, cfg.alpha, ell, constrained, problem.best_effort)
    source = source if mandated else "floor"

    def psit(X):
        # reads kappa at call time: the back-off retry below reassigns it
        return at.merit_many(X, kappa)

    psit0 = float(psit(x0[None, :])[0])
    bound_rhs = psit0 / k_run

    x, fx = x0.copy(), psit0
    path = 0.0
    retried = False
    iterations = 0
    extras = None  # x's segment candidates: the back-off retry reuses them
    while iterations < cfg.max_iters:
        if extras is None:
            extras = []
            if constrained:  # one projection per iterate
                proj, dx = constraint.project(x)
                if dx > cfg.tol:
                    # exact feasibility restoration candidates (segment steps)
                    extras = [_segment(x, proj, dx, constraint, dx)]
                    if RADIUS0 < dx:
                        extras.append(_segment(x, proj, dx, constraint, RADIUS0))
        out = caristi_step(psit, x, fx, k_run, cfg, step_seed=iterations,
                           extra_candidates=extras)
        fx = out.merit
        if out.accepted:
            path += float(np.linalg.norm(out.u - x))
            x, extras = out.u, None
            iterations += 1
            continue
        if out.converged or retried:
            stop = out.status
            break
        retried = True
        # alpha near its bound can starve the sampler: back off once,
        # moving alpha halfway to its bound, which halves k
        if not mandated:
            k_run *= 0.5
        elif not constrained:
            alpha = 0.5 * (alpha + 1.0)
            k_run = alpha - 1.0
        else:
            alpha = 0.5 * (alpha + (alpha_tilde - ell))
            kappa = alpha_tilde - alpha
            k_run = kappa - ell
            fx = float(psit(x[None, :])[0])  # the penalty moved with kappa
        bound_rhs = psit0 / k_run
    else:  # out of iterations, though the last accepted step may have converged
        stop = "converged" if fx <= cfg.tol else "max_iters"

    dist_back = float(np.linalg.norm(x - x0))
    return SolveResult(
        x_final=x,
        merit_final=fx,
        iterations=iterations,
        path_length=path,
        caristi_certified=source in ("given", "declared"),
        bound_rhs=bound_rhs,
        bound_holds=dist_back <= bound_rhs + cfg.tol,
        stop=stop,
        merit_initial=psit0,
        alpha_source=source,
        alpha_used=alpha,
        kappa=kappa,
        descent_k=k_run,
    )
