"""Ideal efficiency for parametric vector optimization.

A feasible point is ideal when its objective value is dominated by every
feasible value: f(p, R(p)) - f(p, x) lies in the ordering cone.  That set
difference is itself a parameterized inclusion problem, and a ``VopSpec``
is that problem: the solver, the sampled bounds and the oracle run on it
as on an ``SviProblem``, with the objective's cone-decrease bound playing
the role of the increase constant, and its runs are best-effort.  The
inclusion is checked at a few points of R(p) whose images decide it
exactly: a polytope's vertices, the corners of a box, or the ends of a 1-D
interval, with proj phi(p) for the deviation objective.  On a ball in
n >= 2 (where the objective is affine) they are its centre and the argmins
of the scalarizations w . f, one per facet row w of the cone: a point is
ideal iff it minimizes every one of them.

Everything here reads the data at p through ``spec.at(p)`` (``VopAt``):
M(p), b(p), the values f, R(p), the deciding points and the merit.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import ClassVar, Optional, Sequence, Union

import numpy as np

from .geometry import PolyCone, VPolytope, as_vector, matvec_rows, row_norms
from .increase import PropertyAbsent, SamplingConfig, global_infimum
from .parametric import SweepRow, SweepTable, _sorted_grid, _sweep_meta
from .setmaps import (Ball, Box, ConstraintFamily, Parametric, PolytopeSet, ProblemAt,
                      RotationScaled, _Knots, as_data, constraint_from_dict, is_all_space,
                      matrix_family_from_dict, read, read_data, write_data)
from .solver import SolveResult, SolverConfig, _Sampled, solve


class UnsupportedCombination(ValueError):
    """Objective/constraint pairing outside the supported catalog."""


# ---------------------------------------------------------------------------
# objective catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AbsDeviation:
    """f(p, x) = (|x - phi(p)|, ..., |x - phi(p)|) with scalar x and
    piecewise-linear phi: a knot table of one scalar per knot."""

    phi_knots: _Knots
    components: int = 2

    def __post_init__(self):
        (phi,) = as_data(self.phi_knots)
        if phi.ps is None or phi.shape != ():
            raise ValueError("the deviation target phi must be a table of one scalar per knot")
        object.__setattr__(self, "phi_knots", phi)

    @property
    def dim_in(self) -> int:
        return 1

    @property
    def dim_out(self) -> int:
        return self.components

    def data_at(self, p: float) -> tuple:  # (None, phi(p)), as values_at reads them
        return None, float(self.phi_knots.at(p))

    def values_at(self, M, phi: float, pts: np.ndarray) -> np.ndarray:
        return np.repeat(np.abs(pts[:, :1] - phi), self.components, axis=1)

    @property
    def lipschitz_bound(self) -> float:  # of f(p, .) for every p, in the 2-norm
        return math.sqrt(self.components)

    def to_dict(self) -> dict:
        return {"variant": "abs_deviation", "components": self.components,
                **write_data(phi=self.phi_knots)}


@dataclass(frozen=True, eq=False)
class AffineFamily:
    """f(p, x) = M(p) x + b(p); the offset b, when given, is a vector with
    one entry per output or a knot table of such vectors."""

    matrix: object  # ParamMatrixFamily
    offset: object = None  # a vector, or a _Knots table of vectors

    def __post_init__(self):
        if self.offset is not None:
            (b,) = as_data(self.offset)
            if b.shape != (self.dim_out,):
                raise ValueError(f"objective offset must have {self.dim_out} entries "
                                 "at every knot")
            object.__setattr__(self, "offset", b)

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim_out(self) -> int:
        return self.matrix.shape[0]

    def data_at(self, p: float) -> tuple:  # (M(p), b(p)), b None without an offset
        return self.matrix.matrix_at(p), None if self.offset is None else self.offset.at(p)

    def values_at(self, M: np.ndarray, b, pts: np.ndarray) -> np.ndarray:
        values = matvec_rows(M, pts)  # no b: adding zeros would turn -0.0 into 0.0
        return values if b is None else values + b

    @property
    def lipschitz_bound(self) -> float:  # of f(p, .) for every p, in the 2-norm
        return self.matrix.norm_bound

    def to_dict(self) -> dict:
        d = {"variant": "affine", "matrix": self.matrix.to_dict()}
        if self.offset is not None:
            d.update(write_data("offset_knots", offset=self.offset))
        return d


Objective = Union[AbsDeviation, AffineFamily]


def objective_from_dict(d: dict) -> Objective:
    variant = d["variant"]
    if variant == "linear_rotation":  # the rotation objective's older file form
        read(d, "scale", variant=str, clockwise=bool)
        return AffineFamily(RotationScaled(float(d.get("scale", 1.0)), d.get("clockwise", True)))
    if variant == "abs_deviation":
        (phi,) = read_data(d, "phi", variant=str, components=int)
        return AbsDeviation(phi, d.get("components", 2))
    if variant == "affine":
        return AffineFamily(matrix_family_from_dict(d["matrix"]), *read_data(
            d, "offset", key="offset_knots", variant=str, matrix=dict))
    raise ValueError(f"unknown objective variant {variant!r}")


@dataclass(frozen=True, eq=False)
class VopAt(ProblemAt):
    """A ``VopSpec`` at p: the objective's data at p, M and b (``data_at``),
    and the points of R(p) that decide ideality (``span_points``) with their
    objective values."""

    def __post_init__(self, spec):
        super().__post_init__(spec)
        M, b = spec.objective.data_at(self.p)
        self._set(objective=spec.objective, M=M, b=b)
        span = span_points(self)
        self._set(span=span, values=self.f(span))

    def f(self, X: np.ndarray) -> np.ndarray:
        """f(p, x) for every row x of a 2-D X."""
        return self.objective.values_at(self.M, self.b, X)

    def _images(self, X: np.ndarray) -> np.ndarray:
        # the vertices {f(p, s) - f(p, x)} over the span points s: a row x
        # gives (s, m), a batch (k, s, m)
        return self.values - (self.f(X[None]) if X.ndim == 1 else self.f(X)[:, None])

    @property
    def bound_map(self):
        """x -> -f(p, x), whose increase bound is f's decrease bound, and its
        linear part -M(p) for a square affine objective, else None."""
        square = self.M is not None and self.M.shape[0] == self.M.shape[1]
        return (lambda x: self._polytope(-self.f(as_vector(x, self.dim)[None])),
                -self.M if square else None)


@dataclass(frozen=True, eq=False)
class VopSpec(Parametric):
    """Datum of the parametric vector optimization problem: minimize
    f(p, x) over R(p) in the order induced by a pointed cone.  It is also
    the inclusion problem of ideal efficiency: the map
    x -> {f(p, s) - f(p, x) : s spanning R(p)} must land in the cone."""

    #: a run descends on floor constants where the mandated ones are missing
    best_effort: ClassVar[bool] = True
    #: a spec declares no decrease bound: ``solve`` samples one
    declared_alpha: ClassVar[None] = None
    view: ClassVar[type] = VopAt

    objective: Objective
    constraint: ConstraintFamily
    cone: PolyCone
    objective_lipschitz: float

    def __post_init__(self):
        if not (math.isfinite(self.objective_lipschitz) and self.objective_lipschitz >= 0):
            raise ValueError("objective Lipschitz constant must be finite and nonnegative")
        if not self.cone.pointed:
            raise ValueError("the ordering cone must be pointed")
        if self.cone.dim != self.objective.dim_out:
            raise ValueError("cone dimension does not match the objective output")
        if self.constraint.dim not in (None, self.objective.dim_in):
            raise ValueError("constraint dimension does not match the objective input")
        if is_all_space(self.constraint) and not isinstance(self.objective, AbsDeviation):
            raise UnsupportedCombination(
                "affine objectives over the whole space have no bounded image")

    def to_dict(self) -> dict:
        return {"objective": self.objective.to_dict(),
                "objective_lipschitz": float(self.objective_lipschitz),
                "constraint": self.constraint.to_dict(),
                "cone": {"generators": self.cone.generators.tolist()}}

    @property
    def ell(self) -> float:
        """The objective's Lipschitz constant, the solver's ell."""
        return self.objective_lipschitz

    @property
    def dim_in(self) -> int:
        return self.objective.dim_in

    def evaluate(self, p: float, x) -> VPolytope:
        return self.at(p).evaluate(x)


#: the benchmark still traces ``vopt.VopProblem.evaluate``
VopProblem = VopSpec


def vop_spec_from_dict(d: dict) -> VopSpec:
    read(d, "objective constraint cone objective_lipschitz")
    return VopSpec(
        objective=objective_from_dict(d["objective"]),
        constraint=constraint_from_dict(d["constraint"]),
        cone=PolyCone(np.asarray(read(d["cone"], "generators")["generators"], float)),
        objective_lipschitz=float(d["objective_lipschitz"]),
    )


# ---------------------------------------------------------------------------
# points that decide ideality
# ---------------------------------------------------------------------------

def span_points(at: VopAt) -> np.ndarray:
    """Points s of R(p) such that x is ideal iff every f(p, s) - f(p, x) lies
    in the cone, from the spec's data at p (``VopAt``, which keeps them): a
    polytope's vertices, the corners of a box or the ends of a 1-D ball,
    with proj phi(p) for the deviation objective (over the whole space, with
    the ends of phi's range widened by one).  On a ball B(c, rho) in n >= 2,
    where f is affine, they are c and the argmin c - rho L^T w / |L^T w| of
    each scalarization w . f, w a facet row of the cone with L^T w != 0."""
    constraint, obj = at.constraint, at.objective
    if isinstance(constraint, Ball) and constraint.dim >= 2:
        c, r = constraint.center.value, float(constraint.radius.value)
        G = at.cone.facets @ at.M
        G = G[row_norms(G) > 0]
        return np.vstack([c, c - (r / row_norms(G))[:, None] * G])
    if isinstance(constraint, PolytopeSet):
        pts = constraint.polytope.vertices
    elif isinstance(constraint, Ball):
        c, r = constraint.center.value, float(constraint.radius.value)
        pts = np.array([c - r, c + r])
    elif isinstance(constraint, Box):
        corners = itertools.product(*zip(constraint.lower.value, constraint.upper.value))
        pts = np.array(list(corners), float)
    else:  # the whole space, which VopSpec pairs with the deviation objective only
        span = float(np.max(np.abs(obj.phi_knots.values))) + 1.0
        pts = np.array([[-span], [span]])
    if isinstance(obj, AbsDeviation):
        pts = np.vstack([pts, constraint.project(np.array([at.b]))[0]])
    return pts


# ---------------------------------------------------------------------------
# solving and the brute-force oracle
# ---------------------------------------------------------------------------

#: merit below which the oracle reads a spanning point as ideal
ORACLE_TOL = 1e-9

FOUND = "found"
NOT_FOUND = "not_found"
CERTIFIED_EMPTY = "certified_empty"


@dataclass
class OracleResult:
    status: str  # 'ideal' | 'empty'
    x: Optional[np.ndarray] = None
    value: Optional[np.ndarray] = None

    @property
    def is_ideal(self) -> bool:
        return self.status == "ideal"


@dataclass
class IdealResult:
    status: str  # FOUND | NOT_FOUND | CERTIFIED_EMPTY
    x: Optional[np.ndarray] = None  # the ideal point, else the last iterate
    value: Optional[np.ndarray] = None
    merit_final: float = math.nan
    solve_result: Optional[SolveResult] = None
    oracle: Optional[OracleResult] = None  # set on every run


def solve_ideal(spec: VopSpec, p: float, x0, cfg: Optional[SolverConfig] = None) -> IdealResult:
    """Run the exact oracle (``brute_force_ideal``) once, then the
    constrained descent on the spec; every result keeps the oracle's, which
    decides every run that ends unsolved.

    The status is FOUND when the descent converges (merit at most
    ``cfg.tol``) at a feasible point.  Otherwise it is the oracle's:
    CERTIFIED_EMPTY when no point is ideal, NOT_FOUND when an ideal point
    exists and the descent missed it (a solver failure).  Every result keeps
    its ``SolveResult``; an unsolved run's point and merit are its last
    iterate and that iterate's merit.

    alpha_tilde, the objective's global decrease bound, is resolved by the
    solver as for an inclusion: ``cfg.alpha_tilde`` when set, else the
    least sampled bound of -f over non-ideal points at p
    (``global_infimum``).  The run is best-effort (``VopSpec.best_effort``):
    when the mandated alpha interval is empty (the Lipschitz budget is too
    large, which legitimately happens) or no sampled point has witnesses,
    it descends on floor constants with an uncertified certificate.
    """
    cfg = cfg or SolverConfig()
    oracle = brute_force_ideal(spec, p)  # rejects data that does not cover p before any estimate
    res = solve(spec, p, x0, cfg)
    x, at = res.x_final, spec.at(p)
    if res.stop == "converged" and at.constraint._distances(x[None, :])[0] <= max(cfg.tol, 1e-7):
        return IdealResult(status=FOUND, x=x, value=at.f(x[None])[0],
                           merit_final=res.merit_final, solve_result=res, oracle=oracle)
    return IdealResult(status=NOT_FOUND if oracle.is_ideal else CERTIFIED_EMPTY, x=x,
                       merit_final=res.merit_final, solve_result=res, oracle=oracle)


def brute_force_ideal(spec: VopSpec, p: float) -> OracleResult:
    """Exact oracle for ideal efficiency: one batched merit over the points
    that decide ideality (``VopAt.span``); the first within ORACLE_TOL is
    returned.
    An affine objective's ideal set is the intersection of the argmin sets of
    the scalarizations w . f, so it holds a polytope or box vertex, or one
    ball argmin (the whole ball when f is constant), when nonempty; the
    deviation objective's images lie on a segment spanned by the points."""
    at = spec.at(p)
    hits = np.flatnonzero(at.merit_many(at.span) <= ORACLE_TOL)
    if hits.size:
        i = int(hits[0])
        return OracleResult(status="ideal", x=np.array(at.span[i], float),
                            value=at.values[i].copy())
    return OracleResult(status="empty")


def ideal_value_sweep(spec: VopSpec, grid: Sequence[float], x_init,
                      cfg: Optional[SolverConfig] = None,
                      alpha_under: Optional[float] = None,
                      with_oracle: bool = False,
                      oracle_density: Optional[int] = None) -> SweepTable:
    """Warm-started ideal-efficiency sweep; rows carry the ideal point and
    the ideal value f(p, x(p)).  Unsolved rows chart empty (or unreached)
    solution sets; they record the last iterate and its merit, and the next
    row starts where the last solved one ended.  Every row runs at one
    decrease bound: ``alpha_under``, else ``cfg.alpha_tilde``, else
    ``global_infimum`` of the spec over the grid's first and middle
    values; a given ``alpha_under`` must be finite (``solve`` checks its
    range against the problem).  When no sampled point has witnesses the
    rows share no bound: each resolves its own, descending on floor
    constants where it finds none, and ``meta["alpha_under"]`` is nan.  ``meta["alpha_source"]`` says
    which: "given", "sampled" (every row's run then reads sampled,
    uncertified) or "floor" (no shared bound).  ``meta["statuses"]`` holds one
    status per row: the exact oracle's verdict ('ideal' or 'empty') with
    ``with_oracle``, else ``solve_ideal``'s (which the oracle decides on
    unsolved rows).
    ``oracle_density`` is ignored: the oracle is exact, and the keyword
    stays only for callers that still pass it."""
    cfg = cfg or SolverConfig()
    grid = _sorted_grid(grid)
    if alpha_under is not None and not math.isfinite(alpha_under):
        raise ValueError(f"alpha_under must be None or finite, got {alpha_under!r}")
    alpha_under = cfg.alpha_tilde if alpha_under is None else alpha_under
    source = "sampled" if alpha_under is None else "given"
    if alpha_under is None:
        mid = grid[len(grid) // 2]
        scfg = SamplingConfig(bracket_rtol=0.05, seed=cfg.rng_seed)
        try:
            alpha_under = global_infimum(spec, [grid[0], mid], 4, scfg).alpha
        except PropertyAbsent:  # the rows share no bound
            alpha_under, source = math.nan, "floor"
    bound = (_Sampled if source == "sampled" else float)(alpha_under)  # a sampled one stays so
    row_cfg = replace(cfg, alpha_tilde=None if math.isnan(bound) else bound)
    t0 = time.perf_counter()
    rows, statuses = [], []
    x_start = as_vector(x_init)
    for p in grid:
        res = solve_ideal(spec, p, x_start, row_cfg)
        if res.status == FOUND:
            sr = res.solve_result
            rows.append(SweepRow(p=p, x=res.x, merit=res.merit_final,
                                 bound_rhs=sr.bound_rhs, bound_holds=sr.bound_holds,
                                 solved=True, iterations=sr.iterations,
                                 warm_start=x_start.copy(), value=res.value))
            x_start = res.x
        else:
            rows.append(SweepRow(p=p, x=res.x, merit=res.merit_final, bound_rhs=math.nan,
                                 bound_holds=False, solved=False, warm_start=x_start.copy(),
                                 value=np.full(spec.objective.dim_out, math.nan)))
        statuses.append(res.oracle.status if with_oracle else res.status)
    meta = _sweep_meta(spec, cfg, True, t0, alpha_under=float(alpha_under), alpha_source=source,
                       statuses=statuses)
    return SweepTable(rows=rows, meta=meta)
