"""Problem data model: parametric matrix families, concave terms, fans,
constraint families, and the merit of the inclusion problem
F(p, x) = M(p) x + h(x) + H(x)  subset-of  C.

``merit_many`` is the one merit of the package: the excess of F(p, x)
beyond C, optionally penalized by kappa * dist(x, R(p)), for every row of a
batch (``merit`` is its one-row view).  It serves every problem object with
``evaluate_many``, ``cone`` and ``constraint`` (SviProblem here, VopProblem
in vopt); the solver also reads their ``ell``.

The catalog is deliberately narrow so that concavity and Lipschitz constants
are declared and machine-checkable instead of inferred from arbitrary code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .geometry import (PolyCone, VPolytope, _as_points, as_vector, dist_many,
                       matvec_rows, project_dist, row_norms)


# ---------------------------------------------------------------------------
# 1-D linear interpolation on knot tables
# ---------------------------------------------------------------------------

class KnotRangeError(ValueError):
    """A parameter outside a knot table's range: the problem data does not
    cover it."""


class _Knots:
    """Linear interpolation of vector/matrix values on strictly increasing
    parameter knots; evaluation outside the knot range is a KnotRangeError."""

    def __init__(self, ps, values):
        self.ps = np.asarray(ps, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.ps.ndim != 1 or len(self.ps) < 1:
            raise ValueError("knot table needs at least one parameter value")
        if not (np.all(np.isfinite(self.ps)) and np.all(np.isfinite(self.values))):
            raise ValueError("knot tables must be finite")
        if np.any(np.diff(self.ps) <= 0):
            raise ValueError("knot parameters must be strictly increasing")
        if self.values.shape[0] != len(self.ps):
            raise ValueError("one value per knot required")

    def at(self, p: float) -> np.ndarray:
        if len(self.ps) == 1:
            if not math.isclose(p, self.ps[0], rel_tol=0, abs_tol=1e-12):
                raise KnotRangeError(f"parameter {p} outside knot range")
            return self.values[0].copy()
        if p < self.ps[0] - 1e-12 or p > self.ps[-1] + 1e-12:
            raise KnotRangeError(
                f"parameter {p} outside knot range [{self.ps[0]}, {self.ps[-1]}]")
        p = min(max(p, self.ps[0]), self.ps[-1])
        j = int(np.searchsorted(self.ps, p, side="right")) - 1
        j = min(j, len(self.ps) - 2)
        t = (p - self.ps[j]) / (self.ps[j + 1] - self.ps[j])
        return (1.0 - t) * self.values[j] + t * self.values[j + 1]


def rotation_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# parametric matrix families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationScaled:
    """M(p) = scale * (rotation by p), clockwise flips the orientation."""

    scale: float
    clockwise: bool = False

    def __post_init__(self):
        if not math.isfinite(self.scale):
            raise ValueError("rotation scale must be finite")

    def matrix_at(self, p: float) -> np.ndarray:
        return self.scale * rotation_matrix(-p if self.clockwise else p)

    @property
    def shape(self) -> tuple[int, int]:
        return (2, 2)

    def to_dict(self) -> dict:
        return {"variant": "rotation_scaled", "scale": self.scale,
                "clockwise": self.clockwise}


@dataclass(frozen=True, eq=False)
class ConstantMatrix:
    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2 or not np.all(np.isfinite(M)):
            raise ValueError("constant matrix must be a finite 2-D array")
        object.__setattr__(self, "matrix", M)

    def matrix_at(self, p: float) -> np.ndarray:
        return self.matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def to_dict(self) -> dict:
        return {"variant": "constant", "matrix": self.matrix.tolist()}


@dataclass(frozen=True, eq=False)
class InterpolatedTable:
    knots_p: np.ndarray
    knots_matrix: np.ndarray

    def __post_init__(self):
        interp = _Knots(self.knots_p, self.knots_matrix)
        object.__setattr__(self, "knots_p", interp.ps)
        object.__setattr__(self, "knots_matrix", interp.values)
        object.__setattr__(self, "_interp", interp)
        if interp.values.ndim != 3:
            raise ValueError("matrix knots must be a list of 2-D matrices")

    def matrix_at(self, p: float) -> np.ndarray:
        return getattr(self, "_interp").at(p)

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(self.knots_matrix.shape[1:])

    def to_dict(self) -> dict:
        return {"variant": "interpolated",
                "knots": [{"p": float(p), "matrix": m.tolist()}
                          for p, m in zip(self.knots_p, self.knots_matrix)]}


ParamMatrixFamily = Union[RotationScaled, ConstantMatrix, InterpolatedTable]


def matrix_family_from_dict(d: dict) -> ParamMatrixFamily:
    variant = d["variant"]
    if variant == "rotation_scaled":
        return RotationScaled(float(d["scale"]), bool(d.get("clockwise", False)))
    if variant == "constant":
        return ConstantMatrix(np.asarray(d["matrix"], dtype=float))
    if variant == "interpolated":
        ps = [k["p"] for k in d["knots"]]
        ms = [k["matrix"] for k in d["knots"]]
        return InterpolatedTable(np.asarray(ps), np.asarray(ms, dtype=float))
    raise ValueError(f"unknown matrix family variant {variant!r}")


# ---------------------------------------------------------------------------
# concave single-valued term
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbsComponent:
    """One output component a + b*x[coord] + c*|x[coord] - d| with c <= 0,
    concave by construction."""

    a: float
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0
    coord: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.c, self.d))):
            raise ValueError("abs component coefficients must be finite")
        if self.c > 0:
            raise ValueError("abs coefficient must be <= 0 to keep the component concave")
        if self.coord < 0:
            raise ValueError("component coordinate must be nonnegative")

    @property
    def slope_bound(self) -> float:
        return abs(self.b) + abs(self.c)


@dataclass(frozen=True, eq=False)
class ConcaveTerm:
    """Concave single-valued map assembled from AbsComponent entries (one per
    output coordinate)."""

    components: tuple
    declared_lipschitz: Optional[float] = None

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("concave term needs at least one component")
        object.__setattr__(self, "components", comps)
        bound = self.lipschitz_bound()
        if self.declared_lipschitz is None:
            object.__setattr__(self, "declared_lipschitz", bound)
        elif not math.isfinite(self.declared_lipschitz):
            raise ValueError("declared Lipschitz constant must be finite")
        elif self.declared_lipschitz < bound - 1e-12:
            raise ValueError(
                f"declared Lipschitz constant {self.declared_lipschitz} is below "
                f"the catalog bound {bound}")
        # one row per coefficient: (1, k) operands broadcast fastest
        object.__setattr__(self, "_coef", (np.array([c.coord for c in comps]), *np.array(
            [(c.a, c.b, c.c, c.d) for c in comps]).T.copy()[:, None, :]))

    def lipschitz_bound(self) -> float:
        # rows touch a single coordinate each; the operator-norm bound is the
        # worst column root-sum-square of per-row slopes
        by_coord: dict[int, float] = {}
        for comp in self.components:
            by_coord[comp.coord] = by_coord.get(comp.coord, 0.0) + comp.slope_bound ** 2
        return math.sqrt(max(by_coord.values()))

    def values_many(self, X: np.ndarray) -> np.ndarray:
        """Values at the rows of X, shape (k, out_dim)."""
        coord, a, b, c, d = getattr(self, "_coef")
        xi = X.take(coord, axis=1)
        return a + b * xi + c * np.abs(xi - d)

    @property
    def out_dim(self) -> int:
        return len(self.components)

    def to_dict(self) -> dict:
        return {
            "components": [
                {"a": c.a, "b": c.b, "c": c.c, "d": c.d, "coord": c.coord}
                for c in self.components
            ],
            "declared_lipschitz": self.declared_lipschitz,
        }

    @staticmethod
    def from_dict(d: dict) -> "ConcaveTerm":
        comps = tuple(
            AbsComponent(float(c["a"]), float(c.get("b", 0.0)), float(c.get("c", 0.0)),
                         float(c.get("d", 0.0)), int(c.get("coord", 0)))
            for c in d["components"]
        )
        return ConcaveTerm(comps, d.get("declared_lipschitz"))


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FanSpec:
    """Fan x -> {L x : L in conv(extreme matrices)}; values are polytopes with
    vertex candidates {L_i x}."""

    matrices: np.ndarray  # (k, m, n)

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim == 2:
            mats = mats[None, :, :]
        if mats.ndim != 3 or not np.all(np.isfinite(mats)):
            raise ValueError("fan needs a nonempty list of finite matrices")
        object.__setattr__(self, "matrices", mats)

    @property
    def lipschitz_constant(self) -> float:
        return float(max(np.linalg.norm(m, 2) for m in self.matrices))

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(self.matrices.shape[1:])

    def to_dict(self) -> dict:
        return {"matrices": self.matrices.tolist()}


# ---------------------------------------------------------------------------
# constraint families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AllSpace:
    dim = None  # fits every input dimension

    def project(self, x: np.ndarray, p: float) -> tuple[np.ndarray, float]:
        return np.asarray(x, dtype=float).copy(), 0.0

    def distances(self, X: np.ndarray, p: float) -> np.ndarray:
        return np.zeros(len(X))

    def to_dict(self) -> dict:
        return {"variant": "all_space"}


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box, optionally with p-dependent bounds on knots."""

    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    knots: Optional[tuple] = None  # ((ps, lowers), (ps, uppers))

    def __post_init__(self):
        if self.knots is not None:
            (ps, lo), (ps2, hi) = self.knots
            lo, hi = _Knots(ps, lo), _Knots(ps2, hi)
            if not np.array_equal(lo.ps, hi.ps):
                raise ValueError("box bound knots must share their parameters")
            if lo.values.ndim != 2 or lo.values.shape != hi.values.shape:
                raise ValueError("box bounds must be vectors of one length at every knot")
            # interpolating between valid knots keeps lower <= upper
            if not np.all(lo.values <= hi.values):
                raise ValueError("box lower bound exceeds upper bound at a knot")
            object.__setattr__(self, "knots", (lo, hi))
        else:
            if self.lower is None or self.upper is None:
                raise ValueError("box requires bounds or bound knots")
            lo = as_vector(self.lower)
            hi = as_vector(self.upper, len(lo))
            if np.any(lo > hi):
                raise ValueError("box lower bound exceeds upper bound")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return len(self.lower) if self.knots is None else self.knots[0].values.shape[1]

    def bounds_at(self, p: float) -> tuple[np.ndarray, np.ndarray]:
        if self.knots is not None:
            lo, hi = self.knots
            return lo.at(p), hi.at(p)
        return self.lower, self.upper

    def project(self, x, p: float) -> tuple[np.ndarray, float]:
        x = as_vector(x)
        lo, hi = self.bounds_at(p)
        proj = np.clip(x, lo, hi)
        return proj, float(np.linalg.norm(x - proj))

    def distances(self, X: np.ndarray, p: float) -> np.ndarray:
        return row_norms(X - np.clip(X, *self.bounds_at(p)))

    def to_dict(self) -> dict:
        if self.knots is not None:
            lo, hi = self.knots
            return {"variant": "box",
                    "knots": [{"p": float(pp), "lower": l.tolist(), "upper": u.tolist()}
                              for pp, l, u in zip(lo.ps, lo.values, hi.values)]}
        return {"variant": "box", "lower": self.lower.tolist(),
                "upper": self.upper.tolist()}


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball with possibly p-dependent center and radius."""

    center: Optional[np.ndarray] = None
    radius: Optional[float] = None
    center_knots: Optional[_Knots] = None
    radius_knots: Optional[_Knots] = None

    def __post_init__(self):
        if self.center_knots is None:
            if self.center is None or self.radius is None:
                raise ValueError("ball requires center/radius or knot tables")
            object.__setattr__(self, "center", as_vector(self.center))
            radii = np.array([self.radius], dtype=float)
        else:
            if self.center_knots.values.ndim != 2:
                raise ValueError("ball center knots must be vectors")
            if self.radius_knots is None or self.radius_knots.values.ndim != 1:
                raise ValueError("ball radius knots must be scalars, one per knot")
            if not np.array_equal(self.center_knots.ps, self.radius_knots.ps):
                raise ValueError("ball center and radius knots must share their parameters")
            radii = self.radius_knots.values
        # interpolating between valid knots keeps the radius valid
        if not np.all(np.isfinite(radii) & (radii >= 0)):
            raise ValueError("ball radius must be finite and nonnegative")

    @property
    def dim(self) -> int:
        return len(self.center) if self.center_knots is None \
            else self.center_knots.values.shape[1]

    def data_at(self, p: float) -> tuple[np.ndarray, float]:
        if self.center_knots is not None:
            return self.center_knots.at(p), float(self.radius_knots.at(p))
        return self.center, float(self.radius)

    def project(self, x, p: float) -> tuple[np.ndarray, float]:
        x = as_vector(x)
        c, r = self.data_at(p)
        gap = x - c
        nrm = float(np.linalg.norm(gap))
        if nrm <= r:
            return x.copy(), 0.0
        proj = c + gap * (r / nrm)
        return proj, nrm - r

    def distances(self, X: np.ndarray, p: float) -> np.ndarray:
        c, r = self.data_at(p)
        return np.maximum(row_norms(X - c) - r, 0.0)

    def to_dict(self) -> dict:
        if self.center_knots is not None:
            return {"variant": "ball",
                    "knots": [{"p": float(pp), "center": c.tolist(), "radius": float(r)}
                              for pp, c, r in zip(self.center_knots.ps,
                                                  self.center_knots.values,
                                                  self.radius_knots.values)]}
        return {"variant": "ball", "center": self.center.tolist(),
                "radius": float(self.radius)}


@dataclass(frozen=True, eq=False)
class PolytopeSet:
    """Constant polytopal feasible set (vertex list in the x-space)."""

    polytope: VPolytope

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def project(self, x, p: float) -> tuple[np.ndarray, float]:
        return project_dist(x, self.polytope)

    def distances(self, X: np.ndarray, p: float) -> np.ndarray:
        return dist_many(X, self.polytope)

    def to_dict(self) -> dict:
        return {"variant": "polytope",
                "vertices": self.polytope.vertices.tolist()}


ConstraintFamily = Union[AllSpace, Box, Ball, PolytopeSet]


def constraint_from_dict(d: dict) -> ConstraintFamily:
    variant = d["variant"]
    if variant == "all_space":
        return AllSpace()
    if variant == "box":
        if "knots" in d:
            ps = [k["p"] for k in d["knots"]]
            lo = [k["lower"] for k in d["knots"]]
            hi = [k["upper"] for k in d["knots"]]
            return Box(knots=((ps, lo), (ps, hi)))
        return Box(lower=np.asarray(d["lower"], float),
                   upper=np.asarray(d["upper"], float))
    if variant == "ball":
        if "knots" in d:
            ps = [k["p"] for k in d["knots"]]
            cs = [k["center"] for k in d["knots"]]
            rs = [k["radius"] for k in d["knots"]]
            return Ball(center_knots=_Knots(ps, cs), radius_knots=_Knots(ps, rs))
        return Ball(center=np.asarray(d["center"], float), radius=float(d["radius"]))
    if variant == "polytope":
        return PolytopeSet(VPolytope(np.asarray(d["vertices"], float)))
    raise ValueError(f"unknown constraint variant {variant!r}")


def is_all_space(constraint: ConstraintFamily) -> bool:
    return isinstance(constraint, AllSpace)


# ---------------------------------------------------------------------------
# the problem datum
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SviProblem:
    """Full datum of a parameterized inclusion problem F(p, x) subset C."""

    matrix: ParamMatrixFamily
    cone: PolyCone
    h: Optional[ConcaveTerm] = None
    fan: Optional[FanSpec] = None
    constraint: ConstraintFamily = field(default_factory=AllSpace)
    declared_alpha: Optional[float] = None

    def __post_init__(self):
        m, n = self.matrix.shape
        if self.declared_alpha is not None and not math.isfinite(self.declared_alpha):
            raise ValueError("declared alpha must be finite")
        if self.cone.dim != m:
            raise ValueError("cone dimension does not match the matrix output")
        if self.h is not None and self.h.out_dim != m:
            raise ValueError("concave term output dimension mismatch")
        if self.fan is not None and self.fan.shape != (m, n):
            raise ValueError("fan matrix shape mismatch")
        if self.h is not None and any(c.coord >= n for c in self.h.components):
            raise ValueError("concave term reads a coordinate beyond the input dimension")
        if self.constraint.dim not in (None, n):
            raise ValueError("constraint dimension does not match the input dimension")

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim_out(self) -> int:
        return self.matrix.shape[0]

    @property
    def ell(self) -> float:
        """Lipschitz budget of the perturbation terms, the solver's ell."""
        return lipschitz_budget(self).ell_total

    def evaluate(self, p: float, x) -> VPolytope:
        return evaluate(self, p, x)

    def bound_map(self, p: float):
        """The map whose increase bound the solver needs at p, x -> F(p, x),
        and its linear part M(p) for the witness hints."""
        return (lambda x: evaluate(self, p, x)), self.matrix.matrix_at(p)

    def evaluate_many(self, p: float, X) -> np.ndarray:
        """Vertices of F(p, x) for every row x of X, shape (k, v, m): one
        vertex M(p)x + h(x) without a fan, M(p)x + h(x) + L_i x with one."""
        X = np.ascontiguousarray(_as_points(X, self.dim_in))
        base = matvec_rows(self.matrix.matrix_at(p), X)
        if self.h is not None:
            base = base + self.h.values_many(X)
        if self.fan is None:
            return base[:, None, :]
        return base[:, None, :] + (self.fan.matrices @ X[:, None, :, None])[..., 0]

    def to_dict(self) -> dict:
        d = {"matrix": self.matrix.to_dict(),
             "cone": {"generators": self.cone.generators.tolist()},
             "constraint": self.constraint.to_dict()}
        if self.h is not None:
            d["h"] = self.h.to_dict()
        if self.fan is not None:
            d["fan"] = self.fan.to_dict()
        if self.declared_alpha is not None:
            d["declared_alpha"] = float(self.declared_alpha)
        return d


def problem_from_dict(d: dict) -> SviProblem:
    return SviProblem(
        matrix=matrix_family_from_dict(d["matrix"]),
        cone=PolyCone(np.asarray(d["cone"]["generators"], float)),
        h=ConcaveTerm.from_dict(d["h"]) if "h" in d and d["h"] is not None else None,
        fan=FanSpec(np.asarray(d["fan"]["matrices"], float))
        if "fan" in d and d["fan"] is not None else None,
        constraint=constraint_from_dict(d.get("constraint", {"variant": "all_space"})),
        declared_alpha=d.get("declared_alpha"),
    )


# ---------------------------------------------------------------------------
# evaluation and merit
# ---------------------------------------------------------------------------

def evaluate(problem: SviProblem, p: float, x) -> VPolytope:
    """Value F(p, x) as a vertex polytope: {M(p)x + h(x) + L_i x} over the
    fan's extreme matrices (a singleton without a fan); the one-row view of
    ``SviProblem.evaluate_many``, which validates the row."""
    return VPolytope(problem.evaluate_many(p, np.asarray(x, dtype=float)[None])[0])


def merit_many(problem, p: float, X, kappa: float = 0.0) -> np.ndarray:
    """Excess of F(p, x) beyond the cone, plus kappa * dist(x, R(p)) when
    kappa > 0 (the constraint's exact distance), for every row x of X; zero
    exactly on feasible solutions.  ``problem`` is any object with
    ``evaluate_many(p, X)``, ``cone`` and ``constraint``."""
    if kappa < 0:
        raise ValueError("penalty weight must be nonnegative")
    V = problem.evaluate_many(p, X)
    out = problem.cone.distances(V.reshape(-1, V.shape[2])).reshape(V.shape[:2]).max(axis=1)
    if kappa > 0:
        out = out + kappa * problem.constraint.distances(_as_points(X), p)
    return out


def merit(problem, p: float, x, kappa: float = 0.0) -> float:
    """The merit at one point: the one-row view of ``merit_many``."""
    return float(merit_many(problem, p, as_vector(x)[None, :], kappa)[0])


@dataclass(frozen=True)
class LipschitzBudget:
    ell_h: float
    ell_fan: float

    @property
    def ell_total(self) -> float:
        return self.ell_h + self.ell_fan


def lipschitz_budget(problem: SviProblem) -> LipschitzBudget:
    """Declared Lipschitz budget of the perturbation terms (h and fan)."""
    ell_h = problem.h.declared_lipschitz if problem.h is not None else 0.0
    ell_fan = problem.fan.lipschitz_constant if problem.fan is not None else 0.0
    return LipschitzBudget(float(ell_h), float(ell_fan))
