"""Descent solver for inclusion problems, driven by the Caristi-type
acceptance rule

    merit(u) + k * ||u - x|| <= merit(x)

which makes every run self-certifying: accepted steps telescope into the
error bound  ||x_final - x0|| <= merit(x0) / k.

Unconstrained runs descend the plain merit with k = alpha - 1.  Constrained
runs descend the penalized merit  psi + kappa * dist(., R(p))  and dispatch
by feasibility: infeasible iterates first try exact segment steps toward the
projection (which trade distance for merit at a controlled rate), feasible
ones take merit-descent steps.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geometry import as_vector, numgrad, row_norms, seeded_rotation, unit_directions
from .setmaps import SviProblem, is_all_space, lipschitz_budget, merit_many


class NoDescentStep(Exception):
    """The candidate budget produced no accepted step (the local increase
    hypothesis fails or alpha is too aggressive)."""

    def __init__(self, x, merit_value, radii_tried):
        self.x = np.asarray(x, dtype=float)
        self.merit_value = float(merit_value)
        self.radii_tried = list(radii_tried)
        super().__init__(
            f"no descent step at x={self.x.tolist()} (merit {merit_value:.3e}, "
            f"{len(self.radii_tried)} radii tried)")


class MaxItersExceeded(Exception):
    pass


class DescentConstantsError(ValueError):
    """alpha or alpha_tilde does not fit the problem: out of range, or
    leaving no room above its Lipschitz budget."""


class AlreadyFeasible(ValueError):
    """Segment steps require an infeasible start point."""


@dataclass
class SolverConfig:
    """Descent-loop configuration.

    ``alpha`` is the descent constant of the unconstrained rule (must exceed
    1); constrained runs use the pair (alpha_tilde, alpha) with alpha inside
    ((alpha_tilde - ell + 1)/2, alpha_tilde - ell).  ``ell`` is the declared
    Lipschitz budget of the perturbation terms (taken from the problem when
    absent).  ``allow_uncertified`` lets runs proceed with floor constants
    when the constrained interval is empty; their certificates then use the
    actual acceptance constant.
    """

    alpha: Optional[float] = None
    alpha_tilde: Optional[float] = None
    ell: Optional[float] = None
    tol: float = 1e-8
    max_iters: int = 10_000
    radius0: float = 1.0
    radius_decay: float = 0.5
    direction_samples: int = 64
    rng_seed: int = 0
    min_radius: float = 1e-13
    allow_uncertified: bool = False
    min_descent: float = 0.05


@dataclass(slots=True)
class SolveResult:
    """Solution point with its run certificate.

    ``bound_rhs`` is the initial (penalized) merit divided by the run's
    smallest acceptance constant; the telescoped path length always
    satisfies it when every accepted step passed the acceptance rule.
    ``caristi_certified`` records that the run used the mandated descent
    constants (False for best-effort runs on floor constants).
    ``merit_history`` holds the initial and the accepted-step merit values
    in a float array, strictly decreasing until below tolerance.
    """

    x_final: np.ndarray
    merit_final: float
    iterations: int
    path_length: float
    caristi_certified: bool
    bound_rhs: float
    bound_holds: bool
    alpha_used: float = math.nan
    kappa: float = 0.0
    descent_k: float = math.nan
    merit_history: array = field(default_factory=lambda: array("d"))


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


def caristi_step(merit_many: Callable[[np.ndarray], np.ndarray], x, descent_k: float,
                 cfg: Optional[SolverConfig] = None, step_seed: int = 0,
                 extra_candidates=()) -> StepOutcome:
    """One accepted-descent step: the first candidate u with
    merit(u) + descent_k * ||u - x|| <= merit(x).

    ``merit_many`` maps a (k, n) batch of points to their k merits.
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
    fx = float(merit_many(x[None, :])[0])
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
    grad_dir = grad / grad_norm if grad_norm > 1e-14 else None  # flat point
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
    dirs = unit_directions(n, cfg.direction_samples) @ seeded_rotation(n, rng).T

    # acceptance needs descent_k * ||u - x|| <= fx, so larger radii are futile
    r = min(cfg.radius0, fx / descent_k)
    radii_tried = []
    prev_best_slope, stable = None, 0
    while r > cfg.min_radius:
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
        r *= cfg.radius_decay
    return StepOutcome("no_step", radii_tried=tuple(radii_tried), merit=fx)


def segment_step(x, constraint, p: float, t: float) -> np.ndarray:
    """Move x a length t along the segment toward its projection onto the
    constraint set; the distance to the set drops exactly by t."""
    x = as_vector(x)
    proj, dist = constraint.project(x, p)
    if dist <= 1e-12:
        raise AlreadyFeasible("the point already lies in the constraint set")
    if not (0 < t <= dist + 1e-12):
        raise ValueError(f"step length {t} outside (0, dist={dist}]")
    u = x + (t / dist) * (proj - x)
    _, du = constraint.project(u, p)
    if abs(du - (dist - t)) > 1e-9 * max(1.0, dist):
        raise RuntimeError("segment identity violated; constraint set not convex?")
    return u


def _resolve_alpha_estimate(problem, p: float, cfg: SolverConfig) -> float:
    declared = getattr(problem, "declared_alpha", None)
    if declared is not None:
        return float(declared)
    from .increase import SamplingConfig, global_infimum
    scfg = SamplingConfig(bracket_rtol=0.05, directions=64, seed=cfg.rng_seed)
    res = global_infimum(problem, [p], 6, scfg)
    return res.alpha


def solve(problem, p: float, x0, cfg: Optional[SolverConfig] = None) -> SolveResult:
    """Run the descent to merit <= tol and certify the error bound.

    ``problem`` needs .cone, .constraint, and .evaluate(p, x); constrained
    mode engages whenever the constraint is not the whole space.  The
    returned certificate compares ||x_final - x0|| against the initial
    penalized merit divided by the run's acceptance constant.
    """
    cfg = cfg or SolverConfig()
    x0 = as_vector(x0)
    constraint = problem.constraint
    constrained = not is_all_space(constraint)

    if cfg.ell is not None:
        ell = float(cfg.ell)
    elif isinstance(problem, SviProblem):
        ell = lipschitz_budget(problem).ell_total
    else:
        ell = 0.0

    certified_constants = True
    if not constrained:
        alpha = cfg.alpha
        if alpha is None:
            est = _resolve_alpha_estimate(problem, p, cfg)
            alpha = min(1.5, 0.9 * est)
            if alpha <= 1.0:
                alpha = 0.5 * (1.0 + est)
        if alpha <= 1.0:
            raise DescentConstantsError("unconstrained descent needs alpha > 1")
        kappa = 0.0
        k_run = alpha - 1.0
        alpha_hi_limit = None
    else:
        alpha_tilde = cfg.alpha_tilde
        if alpha_tilde is None:
            alpha_tilde = _resolve_alpha_estimate(problem, p, cfg)
        lo_a = 0.5 * (alpha_tilde - ell + 1.0)
        hi_a = alpha_tilde - ell
        if lo_a < hi_a:
            alpha = cfg.alpha if cfg.alpha is not None else 0.5 * (lo_a + hi_a)
            if not (lo_a < alpha < hi_a):
                raise DescentConstantsError(
                    f"alpha={alpha} outside the mandated interval ({lo_a}, {hi_a})")
            kappa = alpha_tilde - alpha
            k_run = alpha_tilde - alpha - ell
            alpha_hi_limit = hi_a
        else:
            if not cfg.allow_uncertified:
                raise DescentConstantsError(
                    f"empty alpha interval: ell={ell} >= alpha_tilde-1={alpha_tilde - 1}; "
                    "set allow_uncertified to run with floor constants")
            alpha = alpha_tilde  # placeholder; the rule below runs on floors
            kappa = max(1.0, ell * 0.5)
            k_run = cfg.min_descent
            alpha_hi_limit = None
            certified_constants = False

    def psit(X):
        # reads kappa at call time: the back-off retry below reassigns it
        return merit_many(problem, p, X, kappa)

    psit0 = float(psit(x0[None, :])[0])
    bound_rhs = psit0 / k_run
    k_min = k_run

    x = x0.copy()
    path = 0.0
    merits = [psit0]
    retried = False
    iterations = 0
    while iterations < cfg.max_iters:
        extras = []
        if constrained:
            _, dx = constraint.project(x, p)
            if dx > cfg.tol:
                # exact feasibility restoration candidates (segment steps)
                extras.append(segment_step(x, constraint, p, dx))
                r_seg = min(dx, cfg.radius0)
                if r_seg < dx:
                    extras.append(segment_step(x, constraint, p, r_seg))
        out = caristi_step(psit, x, k_run, cfg, step_seed=iterations,
                           extra_candidates=extras)
        if out.converged:
            break
        if out.accepted:
            step = float(np.linalg.norm(out.u - x))
            path += step
            x = out.u
            merits.append(out.merit)
            iterations += 1
            continue
        if not retried:
            retried = True
            # alpha near the bound can starve the sampler; back off once
            if not constrained:
                alpha = 0.5 * (alpha + 1.0)
                k_run = alpha - 1.0
            elif alpha_hi_limit is not None:
                alpha = 0.5 * (alpha + alpha_hi_limit)
                new_kappa = alpha_tilde - alpha
                k_run = max(alpha_tilde - alpha - ell, cfg.min_descent)
                kappa = new_kappa
            else:
                k_run = max(0.5 * k_run, 1e-6)
            k_min = min(k_min, k_run)
            bound_rhs = psit0 / k_min
            continue
        raise NoDescentStep(x, out.merit, out.radii_tried)
    else:
        raise MaxItersExceeded(
            f"merit {merits[-1]:.3e} after {cfg.max_iters} iterations")

    merit_final = out.merit
    dist_back = float(np.linalg.norm(x - x0))
    return SolveResult(
        x_final=x,
        merit_final=merit_final,
        iterations=iterations,
        path_length=path,
        caristi_certified=certified_constants,
        bound_rhs=bound_rhs,
        bound_holds=dist_back <= bound_rhs + cfg.tol,
        alpha_used=alpha,
        kappa=kappa,
        descent_k=k_min,
        merit_history=array("d", merits),
    )
