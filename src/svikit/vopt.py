"""Ideal efficiency for parametric vector optimization.

A feasible point is ideal when its objective value is dominated by every
feasible value: f(p, R(p)) - f(p, x) lies in the ordering cone.  That set
difference is itself a parameterized inclusion problem, so existence is
decided by the same descent machinery, with the objective's cone-decrease
bound playing the role of the increase constant.  The feasible image
f(p, R(p)) is represented by a finite sample hull: exact (vertex images)
for affine objectives on polytopal feasible sets, grid-sampled otherwise
with the per-component minimizers always included so the hull is exact near
the ideal value.
"""
from __future__ import annotations

import itertools
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .geometry import (PolyCone, VPolytope, _as_points, as_vector, matvec_rows,
                       unit_directions)
from .increase import (InfimumResult, Mode, SamplingConfig, estimate_bound,
                       hints_for_matrix, infimum_over_samples,
                       nonsolution_pairs)
from .parametric import SweepRow, SweepTable, _problem_hash
from .setmaps import (AllSpace, Ball, Box, ConstraintFamily, PolytopeSet,
                      _Knots, constraint_from_dict, is_all_space,
                      matrix_family_from_dict, rotation_matrix)
from .solver import (MaxItersExceeded, NoDescentStep, SolveResult,
                     SolverConfig, solve)


class UnsupportedCombination(ValueError):
    """Objective/constraint pairing outside the supported catalog."""


class GridCoarseWarning(UserWarning):
    """The oracle's decision flipped between grid densities d and 2d."""


# ---------------------------------------------------------------------------
# objective catalog
# ---------------------------------------------------------------------------

class _Objective:
    def value(self, p: float, x) -> np.ndarray:
        """f(p, x): the one-row view of ``values_many``."""
        return self.values_many(p, as_vector(x)[None, :])[0]


@dataclass(frozen=True)
class LinearRotation(_Objective):
    """f(p, x) = scale * (rotation by p) x on R^2; clockwise flips the
    orientation (the transposed matrix)."""

    scale: float = 1.0
    clockwise: bool = True

    @property
    def dim_in(self) -> int:
        return 2

    @property
    def dim_out(self) -> int:
        return 2

    def matrix_at(self, p: float) -> np.ndarray:
        return self.scale * rotation_matrix(-p if self.clockwise else p)

    def values_many(self, p: float, pts: np.ndarray) -> np.ndarray:
        return matvec_rows(self.matrix_at(p), pts)

    @property
    def is_affine(self) -> bool:
        return True

    def to_dict(self) -> dict:
        return {"variant": "linear_rotation", "scale": self.scale,
                "clockwise": self.clockwise}


@dataclass(frozen=True, eq=False)
class AbsDeviation(_Objective):
    """f(p, x) = (|x - phi(p)|, ..., |x - phi(p)|) with scalar x and
    piecewise-linear phi on knots."""

    phi_knots: _Knots
    components: int = 2

    @property
    def dim_in(self) -> int:
        return 1

    @property
    def dim_out(self) -> int:
        return self.components

    def phi(self, p: float) -> float:
        return float(self.phi_knots.at(p))

    def values_many(self, p: float, pts: np.ndarray) -> np.ndarray:
        return np.repeat(np.abs(pts[:, :1] - self.phi(p)), self.components, axis=1)

    @property
    def is_affine(self) -> bool:
        return False

    def to_dict(self) -> dict:
        return {"variant": "abs_deviation", "components": self.components,
                "knots": [{"p": float(p), "phi": float(v)}
                          for p, v in zip(self.phi_knots.ps, self.phi_knots.values)]}


@dataclass(frozen=True, eq=False)
class AffineFamily(_Objective):
    """f(p, x) = M(p) x + b(p) with b on knots (or constant)."""

    matrix: object  # ParamMatrixFamily
    offset: Optional[np.ndarray] = None
    offset_knots: Optional[_Knots] = None

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim_out(self) -> int:
        return self.matrix.shape[0]

    def matrix_at(self, p: float) -> np.ndarray:
        return self.matrix.matrix_at(p)

    def offset_at(self, p: float) -> np.ndarray:
        if self.offset_knots is not None:
            return self.offset_knots.at(p)
        if self.offset is not None:
            return np.asarray(self.offset, dtype=float)
        return np.zeros(self.dim_out)

    def values_many(self, p: float, pts: np.ndarray) -> np.ndarray:
        return matvec_rows(self.matrix_at(p), pts) + self.offset_at(p)

    @property
    def is_affine(self) -> bool:
        return True

    def to_dict(self) -> dict:
        d = {"variant": "affine", "matrix": self.matrix.to_dict()}
        if self.offset_knots is not None:
            d["offset_knots"] = [{"p": float(p), "offset": np.asarray(v).tolist()}
                                 for p, v in zip(self.offset_knots.ps,
                                                 self.offset_knots.values)]
        elif self.offset is not None:
            d["offset"] = np.asarray(self.offset).tolist()
        return d


Objective = Union[LinearRotation, AbsDeviation, AffineFamily]


def objective_from_dict(d: dict) -> Objective:
    variant = d["variant"]
    if variant == "linear_rotation":
        return LinearRotation(float(d.get("scale", 1.0)), bool(d.get("clockwise", True)))
    if variant == "abs_deviation":
        ps = [k["p"] for k in d["knots"]]
        vs = [k["phi"] for k in d["knots"]]
        return AbsDeviation(_Knots(ps, vs), int(d.get("components", 2)))
    if variant == "affine":
        mat = matrix_family_from_dict(d["matrix"])
        if "offset_knots" in d:
            ps = [k["p"] for k in d["offset_knots"]]
            vs = [k["offset"] for k in d["offset_knots"]]
            return AffineFamily(mat, offset_knots=_Knots(ps, vs))
        off = np.asarray(d["offset"], float) if "offset" in d else None
        return AffineFamily(mat, offset=off)
    raise ValueError(f"unknown objective variant {variant!r}")


@dataclass(frozen=True, eq=False)
class VopSpec:
    """Datum of the parametric vector optimization problem: minimize
    f(p, x) over R(p) in the order induced by a pointed cone."""

    objective: Objective
    constraint: ConstraintFamily
    cone: PolyCone
    objective_lipschitz: float

    def __post_init__(self):
        if not self.cone.pointed:
            raise ValueError("the ordering cone must be pointed")
        if self.cone.dim != self.objective.dim_out:
            raise ValueError("cone dimension does not match the objective output")
        if self.constraint.dim not in (None, self.objective.dim_in):
            raise ValueError("constraint dimension does not match the objective input")

    def to_dict(self) -> dict:
        return {"objective": self.objective.to_dict(),
                "objective_lipschitz": float(self.objective_lipschitz),
                "constraint": self.constraint.to_dict(),
                "cone": {"generators": self.cone.generators.tolist()}}


def vop_spec_from_dict(d: dict) -> VopSpec:
    return VopSpec(
        objective=objective_from_dict(d["objective"]),
        constraint=constraint_from_dict(d["constraint"]),
        cone=PolyCone(np.asarray(d["cone"]["generators"], float)),
        objective_lipschitz=float(d["objective_lipschitz"]),
    )


# ---------------------------------------------------------------------------
# feasible-set sampling
# ---------------------------------------------------------------------------

def _grid(lo, hi, density: int) -> np.ndarray:
    axes = [np.linspace(l, h, max(2, density)) for l, h in zip(lo, hi)]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grid])


def sample_constraint(constraint: ConstraintFamily, p: float, density: int,
                      bounds=None) -> np.ndarray:
    """Deterministic sample of the feasible set (always includes its
    vertices/extremes where they exist).  A polytope's sample is built once
    per density, cached on the set and returned read-only."""
    if isinstance(constraint, PolytopeSet):
        verts = constraint.polytope.vertices
        k = len(verts)
        if k == 1:
            return verts.copy()
        d = max(1, density)
        if (d + 1) ** (k - 1) > 20000:
            d = max(1, int(20000 ** (1.0 / (k - 1))) - 1)
        # the set is constant in p: one sample per density, cached on it
        cache = vars(constraint).setdefault("_samples", {})
        if d not in cache:
            # compositions of d into k parts by stars and bars; the stacked
            # products equal ``c @ verts / d`` bit for bit (a gemm does not)
            bars = np.fromiter(itertools.chain.from_iterable(
                itertools.combinations(range(d + k - 1), k - 1)), np.intp).reshape(-1, k - 1)
            counts = np.diff(bars, axis=1, prepend=-1, append=d + k - 1) - 1
            pts = np.unique(matvec_rows(verts.T, counts) / d, axis=0)
            pts.flags.writeable = False
            cache.setdefault(d, pts)  # concurrent first builds keep one array
        return cache[d]
    if isinstance(constraint, Box):
        return _grid(*constraint.bounds_at(p), density)
    if isinstance(constraint, Ball):
        c, r = constraint.data_at(p)
        n = len(c)
        if n == 1:
            return np.linspace(c[0] - r, c[0] + r, max(3, density)).reshape(-1, 1)
        dirs = unit_directions(n, max(8, density))
        radii = np.linspace(0.0, r, max(2, density // 8))
        pts = [c] + [c + rr * d for rr in radii[1:] for d in dirs]
        return np.asarray(pts)
    if isinstance(constraint, AllSpace):
        if bounds is None:
            raise UnsupportedCombination(
                "sampling an unconstrained feasible set needs explicit bounds")
        return _grid(as_vector(bounds[0]), as_vector(bounds[1]), density)
    raise UnsupportedCombination(f"cannot sample {type(constraint).__name__}")


def _affine_vertex_points(spec: VopSpec, p: float) -> Optional[np.ndarray]:
    """Vertices of a polytope or box feasible set under an affine objective,
    whose images span the exact image polytope; None otherwise."""
    constraint = spec.constraint
    if not (spec.objective.is_affine and isinstance(constraint, (PolytopeSet, Box))):
        return None
    if isinstance(constraint, PolytopeSet):
        return constraint.polytope.vertices
    lo, hi = constraint.bounds_at(p)
    return np.asarray(list(itertools.product(*zip(lo, hi))), float)


def _component_minimizers(spec: VopSpec, p: float, bounds) -> list:
    """Per-component argmin candidates over R(p); including them makes the
    sampled image hull exact at the ideal value."""
    obj, constraint = spec.objective, spec.constraint
    out = []
    if isinstance(obj, AbsDeviation):
        s = np.array([obj.phi(p)])
        if not is_all_space(constraint):
            s = constraint.project(s, p)[0]
        out.append(s)
    elif obj.is_affine and isinstance(constraint, Ball):
        M = obj.matrix_at(p)
        c, r = constraint.data_at(p)
        for row in M:
            nrm = np.linalg.norm(row)
            if nrm > 0:
                out.append(c - (r / nrm) * row)
    return out


def _default_bounds(spec: VopSpec):
    if isinstance(spec.objective, AbsDeviation) and is_all_space(spec.constraint):
        vals = spec.objective.phi_knots.values
        span = float(np.max(np.abs(vals))) + 1.0
        return (np.array([-span]), np.array([span]))
    return None


# ---------------------------------------------------------------------------
# the built inclusion problem
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class VopProblem:
    """Inclusion-problem view of ideal efficiency: the map
    x -> {f(p, s) - f(p, x) : s in sample(R(p))} must land in the cone."""

    spec: VopSpec
    image_sampling: int = 33
    bounds: object = None
    declared_alpha: Optional[float] = None
    _image_cache: dict = field(default_factory=dict)

    def __post_init__(self):
        obj, constraint = self.spec.objective, self.spec.constraint
        if is_all_space(constraint) and obj.is_affine:
            raise UnsupportedCombination(
                "affine objectives over the whole space have no bounded image")
        if is_all_space(constraint) and self.bounds is None:
            self.bounds = _default_bounds(self.spec)
            if self.bounds is None:
                raise UnsupportedCombination(
                    "unconstrained feasible set needs sampling bounds")

    @property
    def cone(self) -> PolyCone:
        return self.spec.cone

    @property
    def constraint(self) -> ConstraintFamily:
        return self.spec.constraint

    def feasible_samples(self, p: float) -> np.ndarray:
        return self._cached(p)[0]

    def image_values(self, p: float) -> np.ndarray:
        return self._cached(p)[1]

    def _cached(self, p: float):
        key = round(float(p), 12)
        if key not in self._image_cache:
            pts = _affine_vertex_points(self.spec, p)
            if pts is None:
                pts = sample_constraint(self.spec.constraint, p, self.image_sampling,
                                        self.bounds)
            extra = _component_minimizers(self.spec, p, self.bounds)
            if extra:
                pts = np.vstack([pts, np.asarray(extra)])
            self._image_cache[key] = (pts, self.spec.objective.values_many(p, pts))
        return self._image_cache[key]

    def evaluate(self, p: float, x) -> VPolytope:
        return VPolytope(self.evaluate_many(p, np.asarray(x, dtype=float)[None])[0])

    def evaluate_many(self, p: float, X) -> np.ndarray:
        """Vertices {f(p, s) - f(p, x)} for every row x of X, shape (k, v, m)."""
        X = _as_points(X, self.spec.objective.dim_in)
        return self.image_values(p)[None] - self.spec.objective.values_many(p, X)[:, None]

    def to_dict(self) -> dict:
        return self.spec.to_dict()


def build_vop_problem(spec: VopSpec, p: float, image_sampling: int = 33,
                      bounds=None) -> VopProblem:
    """Validate the objective/constraint pairing and return the evaluator
    x -> {f(p, s) - f(p, x)}; usable at other p values as well."""
    prob = VopProblem(spec, image_sampling=image_sampling, bounds=bounds)
    prob.feasible_samples(p)  # force validation at the requested parameter
    return prob


# ---------------------------------------------------------------------------
# decrease-bound estimation
# ---------------------------------------------------------------------------

def decrease_hints(spec: VopSpec, p: float):
    obj = spec.objective
    if isinstance(obj, (LinearRotation, AffineFamily)) and obj.dim_in == obj.dim_out:
        return hints_for_matrix(-obj.matrix_at(p), spec.cone)
    return None


def decrease_infimum(spec: VopSpec, p_grid: Sequence[float], x_samples,
                     cfg: Optional[SamplingConfig] = None,
                     image_sampling: int = 33, bounds=None) -> InfimumResult:
    """Sampled estimate of the global cone-decrease constant of the
    objective over feasible non-ideal points."""
    cfg = cfg or SamplingConfig()
    prob = VopProblem(spec, image_sampling=image_sampling, bounds=bounds)
    pairs = nonsolution_pairs(prob, p_grid, x_samples, spec.objective.dim_in, cfg,
                              project=True)
    obj = spec.objective
    return infimum_over_samples(
        lambda p: (lambda xx: VPolytope(obj.value(p, xx)[None, :])),
        spec.cone, pairs, cfg, mode=Mode.DECREASE,
        hints_of_p=lambda p: decrease_hints(spec, p))


# ---------------------------------------------------------------------------
# solving and the brute-force oracle
# ---------------------------------------------------------------------------

FOUND = "found"
NOT_FOUND = "not_found"
CERTIFIED_EMPTY = "certified_empty"


@dataclass
class OracleResult:
    status: str  # 'ideal' | 'empty'
    x: Optional[np.ndarray] = None
    value: Optional[np.ndarray] = None
    coarse_flip: bool = False

    @property
    def is_ideal(self) -> bool:
        return self.status == "ideal"


@dataclass
class IdealResult:
    status: str  # FOUND | NOT_FOUND | CERTIFIED_EMPTY
    x: Optional[np.ndarray] = None
    value: Optional[np.ndarray] = None
    merit_final: float = math.nan
    solve_result: Optional[SolveResult] = None
    oracle: Optional[OracleResult] = None


def solve_ideal(spec: VopSpec, p: float, x0, cfg: Optional[SolverConfig] = None,
                alpha_under: Optional[float] = None, image_sampling: int = 33,
                bounds=None, certify_empty: bool = False,
                oracle_density: int = 64) -> IdealResult:
    """Run the constrained descent on the built inclusion problem.

    ``alpha_under`` is the (estimated) global decrease bound of the
    objective; when the mandated alpha interval is empty (the Lipschitz
    budget is too large, which legitimately happens), the run proceeds
    best-effort with floor constants and an uncertified certificate.
    Emptiness is only ever certified by the brute-force oracle.
    """
    cfg = cfg or SolverConfig()
    prob = build_vop_problem(spec, p, image_sampling, bounds)
    if alpha_under is None:
        if cfg.alpha_tilde is not None:
            alpha_under = cfg.alpha_tilde
        else:
            est = estimate_bound(
                lambda xx: VPolytope(spec.objective.value(p, xx)[None, :]),
                spec.cone, as_vector(x0), SamplingConfig(bracket_rtol=0.05),
                mode=Mode.DECREASE, hints=decrease_hints(spec, p), p_for_seed=p)
            alpha_under = est.alpha_lo
    prob.declared_alpha = float(alpha_under)
    run_cfg = replace(cfg, alpha_tilde=float(alpha_under),
                      ell=spec.objective_lipschitz if cfg.ell is None else cfg.ell,
                      allow_uncertified=True)
    try:
        res = solve(prob, p, x0, run_cfg)
    except (NoDescentStep, MaxItersExceeded):
        out = IdealResult(status=NOT_FOUND)
    else:
        x = res.x_final
        _, dx = spec.constraint.project(x, p)
        if res.merit_final <= run_cfg.tol and dx <= max(run_cfg.tol, 1e-7):
            return IdealResult(status=FOUND, x=x,
                               value=spec.objective.value(p, x),
                               merit_final=res.merit_final, solve_result=res)
        out = IdealResult(status=NOT_FOUND, merit_final=res.merit_final,
                          solve_result=res)
    if certify_empty:
        oracle = brute_force_ideal(spec, p, oracle_density, bounds)
        out.oracle = oracle
        if not oracle.is_ideal:
            out.status = CERTIFIED_EMPTY
    return out


def _oracle_once(spec: VopSpec, p: float, density: int, bounds,
                 tol: float) -> OracleResult:
    candidates = sample_constraint(spec.constraint, p, density, bounds)
    extras = _component_minimizers(spec, p, bounds)
    if extras:
        candidates = np.vstack([candidates, np.asarray(extras)])
    obj = spec.objective
    # linearity: dominance against the vertices decides dominance on the hull
    ref_pts = _affine_vertex_points(spec, p)
    if ref_pts is None:
        ref_pts = candidates
    cand_vals = obj.values_many(p, candidates)
    ref_vals = obj.values_many(p, ref_pts)
    nc, nr, m = len(cand_vals), len(ref_vals), spec.cone.dim
    gaps = (ref_vals[None, :, :] - cand_vals[:, None, :]).reshape(-1, m)
    worst = spec.cone.distances(gaps).reshape(nc, nr).max(axis=1)
    hits = np.flatnonzero(worst <= tol)
    if hits.size:
        i = int(hits[0])
        return OracleResult(status="ideal", x=np.array(candidates[i], float),
                            value=cand_vals[i])
    return OracleResult(status="empty")


def brute_force_ideal(spec: VopSpec, p: float, grid_density: int = 64,
                      bounds=None, tol: float = 1e-9) -> OracleResult:
    """Independent oracle for ideal efficiency: candidate enumeration over
    the feasible sample, with dominance checked against vertex images
    (affine case, exact) or the full sample grid.  Doubles the density and
    warns when the decision flips (GridCoarseWarning); the finer decision
    is returned."""
    if bounds is None and is_all_space(spec.constraint):
        bounds = _default_bounds(spec)
    coarse = _oracle_once(spec, p, grid_density, bounds, tol)
    fine = _oracle_once(spec, p, 2 * grid_density, bounds, tol)
    if coarse.is_ideal != fine.is_ideal:
        warnings.warn(
            f"ideal-efficiency decision at p={p} flipped between grid densities "
            f"{grid_density} and {2 * grid_density}", GridCoarseWarning)
        fine.coarse_flip = True
    return fine


def ideal_value_sweep(spec: VopSpec, grid: Sequence[float], x_init,
                      cfg: Optional[SolverConfig] = None,
                      alpha_under: Optional[float] = None,
                      image_sampling: int = 33, bounds=None,
                      with_oracle: bool = False,
                      oracle_density: int = 64) -> SweepTable:
    """Warm-started ideal-efficiency sweep; rows carry the ideal point and
    the ideal value f(p, x(p)).  Unsolved rows chart empty (or unreached)
    solution sets."""
    cfg = cfg or SolverConfig()
    grid = [float(p) for p in grid]
    if sorted(grid) != grid:
        raise ValueError("parameter grid must be sorted")
    if alpha_under is None:
        mid = grid[len(grid) // 2]
        est = decrease_infimum(spec, [grid[0], mid], 4,
                               SamplingConfig(bracket_rtol=0.05, seed=cfg.rng_seed),
                               image_sampling, bounds)
        alpha_under = est.alpha
    t0 = time.perf_counter()
    rows, statuses = [], []
    x_start = as_vector(x_init)
    for p in grid:
        res = solve_ideal(spec, p, x_start, cfg, alpha_under=alpha_under,
                          image_sampling=image_sampling, bounds=bounds,
                          certify_empty=with_oracle, oracle_density=oracle_density)
        if res.status == FOUND:
            sr = res.solve_result
            rows.append(SweepRow(p=p, x=res.x, merit=res.merit_final,
                                 bound_rhs=sr.bound_rhs, bound_holds=sr.bound_holds,
                                 solved=True, iterations=sr.iterations,
                                 warm_start=x_start.copy(), value=res.value))
            x_start = res.x
        else:
            x_last = (res.solve_result.x_final if res.solve_result is not None
                      else x_start)
            rows.append(SweepRow(p=p, x=np.asarray(x_last, float),
                                 merit=res.merit_final, bound_rhs=math.nan,
                                 bound_holds=False, solved=False,
                                 warm_start=x_start.copy(),
                                 value=np.full(spec.objective.dim_out, math.nan)))
        if with_oracle:
            oracle = (res.oracle if res.oracle is not None
                      else brute_force_ideal(spec, p, oracle_density, bounds))
            statuses.append(oracle.status)
        else:
            statuses.append(res.status)
    meta = {"problem_hash": _problem_hash(spec), "cfg": dict(cfg.__dict__),
            "alpha_under": float(alpha_under), "warm_start": True,
            "wall_time": time.perf_counter() - t0,
            "statuses": statuses}
    return SweepTable(rows=rows, meta=meta)
