"""Problem data model: parametric matrix families, concave terms, fans,
constraint families, and the merit of the inclusion problem
F(p, x) = M(p) x + h(x) + H(x)  subset-of  C.

A problem at one parameter p is the immutable view ``problem.at(p)``
(``SviAt`` here, ``VopAt`` in vopt): the one way in to the data at p, built
once, whose constraint R(p) projects without a p.  The problem keeps the
view of the last p asked.  Its ``merit_many`` is the one merit of the
package: the excess of F(p, x) beyond C, optionally penalized by
kappa * dist(x, R(p)), for every row of a batch, which it checks once, as it
does the computed vertices.  The solver also reads a problem's ``ell`` and
``best_effort``.

The catalog is deliberately narrow so that concavity and Lipschitz constants
are declared and machine-checkable instead of inferred from arbitrary code.
"""
from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass, field
from operator import truediv
from typing import ClassVar, Optional, Union

import numpy as np

from .geometry import (PolyCone, SumSet, VPolytope, _as_points, _distance_rows, all_finite,
                       as_vector, hints_for_matrix, norm2, project_dist, row_norms)


# ---------------------------------------------------------------------------
# parameter-dependent data: constants and knot tables
# ---------------------------------------------------------------------------

class KnotRangeError(ValueError):
    """A parameter outside a knot table's range: the problem data does not
    cover it."""


class ImageOverflow(ValueError):
    """Finite points whose image at p overflows: the data is too large there."""


class _Knots:
    """One parameter-dependent datum: a value that holds at every p (``ps``
    is None), or a knot table of vector/matrix values on strictly increasing
    parameter knots, linearly interpolated, where a parameter outside the
    knot range is a KnotRangeError."""

    def __init__(self, ps, values):
        self.ps = None if ps is None else np.asarray(ps, dtype=float)
        self.values = np.array(values, dtype=float)  # a copy: a constant M(p) is kept read-only
        if not np.all(np.isfinite(self.values)):
            raise ValueError("p-dependent data and knot tables must be finite")
        if ps is None:
            return
        if self.ps.ndim != 1 or len(self.ps) < 1:
            raise ValueError("knot table needs at least one parameter value")
        if not np.all(np.isfinite(self.ps)):
            raise ValueError("knot tables must be finite")
        if np.any(self.ps[1:] <= self.ps[:-1]):  # no difference: it could overflow
            raise ValueError("knot parameters must be strictly increasing")
        if self.values.shape[:1] != self.ps.shape:
            raise ValueError("one value per knot required")

    @property
    def shape(self) -> tuple:
        """The shape of the value at one parameter."""
        return self.values.shape if self.ps is None else self.values.shape[1:]

    @property
    def value(self) -> np.ndarray:
        """A constant's value: a knot table has one only at a p (``at``)."""
        if self.ps is None:
            return self.values
        raise ValueError("a knot table has a value only at a parameter: read it at(p)")

    def at(self, p: float) -> np.ndarray:
        if self.ps is None:
            return self.values
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


def as_data(*values) -> tuple:
    """The p-dependent data of one object: each value is a knot table or,
    otherwise, a constant.  They must all be constants or all be tables on
    the same knots, so that they are written as one table."""
    data = tuple(v if isinstance(v, _Knots) else _Knots(None, v) for v in values)
    # a constant's ps, None, equals only another constant's
    if not all(np.array_equal(d.ps, data[0].ps) for d in data):
        raise ValueError("p-dependent data of one object must be constants or "
                         "tables that share their parameters")
    return data


def as_vector_data(value):
    """A vector datum: a knot table as it is, a constant through ``as_vector``
    (a scalar is a 1-vector)."""
    return value if isinstance(value, _Knots) else as_vector(value)


def write_data(key: str = "knots", **data: _Knots) -> dict:
    """The file form of one object's data: ``{name: value}`` for constants,
    else ``{key: [{"p": p, name: value, ...}, ...]}``, one row per knot."""
    ps = next(iter(data.values())).ps
    if ps is None:
        return {name: d.values.tolist() for name, d in data.items()}
    return {key: [{"p": float(p), **{name: d.values[i].tolist() for name, d in data.items()}}
                  for i, p in enumerate(ps)]}


def read_data(d: dict, *names: str, key: str = "knots", **kinds: type) -> tuple:
    """Inverse of ``write_data`` on the section d (``read``, with ``kinds``): knot
    tables from the rows ``d[key]`` when present, else the constants ``d.get(name)``."""
    if key not in read(d, key if key in d else " ".join(names), **kinds):
        return tuple(d.get(name) for name in names)
    rows = [read(row, " ".join(("p", *names))) for row in d[key]]
    return tuple(_Knots([row["p"] for row in rows], [row[name] for row in rows]) for name in names)


def read(d: dict, keys: str, **kinds: type) -> dict:
    """The problem file section d, checked: it holds no key but ``keys``, each a JSON number,
    null, a section or nested lists of them (not true, not "3"), and ``kinds``, each typed."""
    if type(d) is not dict:
        raise TypeError(f"a problem file section must be an object, got {d!r}")
    if unknown := sorted(set(d) - {*keys.split(), *kinds}):
        raise ValueError(f"unknown key {unknown[0]!r}; the section takes {keys.split() + [*kinds]}")
    for key, value in d.items():
        if not (type(value) is kinds[key] if key in kinds else _numbers(value)):
            kind = kinds[key].__name__ if key in kinds else "number or an array of them"
            raise ValueError(f"{key!r} must be a JSON {kind}, got {value!r}")
    return d


def _numbers(value) -> bool:
    return type(value) in (float, dict, type(None)) or (  # an int must read as a float
        type(value) is int and abs(value) <= sys.float_info.max) or (
        type(value) is list and all(map(_numbers, value)))


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
    def norm_bound(self) -> float:  # sup over p of ||M(p)||_2, and of ||dM/dp||_2
        return abs(self.scale)

    p_modulus = norm_bound

    @property
    def shape(self) -> tuple[int, int]:
        return (2, 2)

    def to_dict(self) -> dict:
        return {"variant": "rotation_scaled", "scale": self.scale,
                "clockwise": self.clockwise}


@dataclass(frozen=True, eq=False)
class MatrixTable:
    """M(p) as a p-dependent datum: one finite 2-D matrix (the ``constant``
    file variant) or a knot table of them (``interpolated``)."""

    matrix: object  # a 2-D array, or a _Knots table of 2-D arrays

    def __post_init__(self):
        (M,) = as_data(self.matrix)
        if len(M.shape) != 2:
            raise ValueError("a matrix datum must be a finite 2-D array at every knot")
        object.__setattr__(self, "matrix", M)

    def matrix_at(self, p: float) -> np.ndarray:
        return self.matrix.at(p)

    @property
    def norm_bound(self) -> float:  # sup over p of ||M(p)||_2: interpolation is convex
        return max(map(norm2, self.matrix.values.reshape(-1, *self.shape)))

    @property
    def p_modulus(self) -> float:
        """sup over p of ||dM/dp||_2: the steepest knot-interval slope (0 for a
        constant or a single knot), inf where a difference overflows."""
        M = self.matrix
        if M.ps is None:
            return 0.0
        with np.errstate(over="ignore"):  # a knot gap past the float range reads as its edge
            dp = np.minimum(np.diff(M.ps), np.finfo(float).max).tolist()
            return max(map(truediv, map(norm2, np.diff(M.values, axis=0)), dp), default=0.0)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def to_dict(self) -> dict:
        variant = "constant" if self.matrix.ps is None else "interpolated"
        return {"variant": variant, **write_data(matrix=self.matrix)}


ParamMatrixFamily = Union[RotationScaled, MatrixTable]


def matrix_family_from_dict(d: dict) -> ParamMatrixFamily:
    variant = d["variant"]
    if variant == "rotation_scaled":
        read(d, "scale", variant=str, clockwise=bool)
        return RotationScaled(float(d["scale"]), d.get("clockwise", False))
    if variant == "constant":
        return MatrixTable(read(d, "matrix", variant=str)["matrix"])
    if variant == "interpolated":
        return MatrixTable(*read_data(d, "matrix", variant=str))
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
        bound = self.lipschitz_bound
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
        object.__setattr__(self, "_terms", [(c.coord, *map(float, (c.a, c.b, c.c, c.d)))
                                            for c in comps])  # the same, as Python numbers

    @property
    def lipschitz_bound(self) -> float:
        # rows touch a single coordinate each; the operator-norm bound is the
        # worst column root-sum-square of per-row slopes (inf past the float range)
        by_coord: dict[int, float] = {}
        for comp in self.components:
            slope = abs(comp.b) + abs(comp.c)
            by_coord[comp.coord] = by_coord.get(comp.coord, 0.0) + slope * slope
        return math.sqrt(max(by_coord.values()))

    def values_many(self, X: np.ndarray) -> np.ndarray:
        """Values at the rows of X, shape (k, out_dim)."""
        coord, a, b, c, d = getattr(self, "_coef")
        xi = X.take(coord, axis=1)
        return a + b * xi + c * np.abs(xi - d)

    def _value_at(self, x: np.ndarray) -> np.ndarray:
        """``values_many`` at one row x, bit for bit, in Python floats: cheaper on a few."""
        xs = x.tolist()
        return np.array([a + b * xs[j] + c * abs(xs[j] - d)
                         for j, a, b, c, d in getattr(self, "_terms")])

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
        rows = [read(c, "a b c d", coord=int)
                for c in read(d, "components declared_lipschitz")["components"]]
        return ConcaveTerm(tuple(AbsComponent(float(c["a"]), *(float(c.get(k, 0.0)) for k in "bcd"),
                                              c.get("coord", 0)) for c in rows),
                           d.get("declared_lipschitz"))


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
        object.__setattr__(self, "lipschitz_constant", max(map(norm2, mats)))

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(self.matrices.shape[1:])

    def to_dict(self) -> dict:
        return {"matrices": self.matrices.tolist()}


# ---------------------------------------------------------------------------
# constraint families
# ---------------------------------------------------------------------------

class _Checked:
    """``distances`` checks its rows, as ``project`` its point: finite, of the
    set's dimension; ``_distances``, the merit's penalty, trusts them."""

    def distances(self, X) -> np.ndarray:
        return self._distances(_as_points(X, self.dim))


@dataclass(frozen=True)
class AllSpace(_Checked):
    dim = None  # fits every input dimension

    def at(self, p: float) -> "AllSpace":
        return self

    def project(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        return np.asarray(x, dtype=float).copy(), 0.0

    def _distances(self, X: np.ndarray) -> np.ndarray:
        return np.zeros(len(X))

    def to_dict(self) -> dict:
        return {"variant": "all_space"}


@dataclass(frozen=True, eq=False)
class Box(_Checked):
    """Axis-aligned box [lower, upper]; each bound is a vector or, with the
    other, a knot table of vectors."""

    lower: object
    upper: object

    def __post_init__(self):
        lo, hi = as_data(as_vector_data(self.lower), as_vector_data(self.upper))
        if len(lo.shape) != 1 or lo.shape != hi.shape:
            raise ValueError("box bounds must be vectors of one length at every knot")
        # interpolating between valid knots keeps lower <= upper
        if np.any(lo.values > hi.values):
            raise ValueError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def at(self, p: float) -> "Box":  # with constant bounds at p
        return self if self.lower.ps is None else Box(self.lower.at(p), self.upper.at(p))

    def project(self, x) -> tuple[np.ndarray, float]:
        x = as_vector(x, self.dim)
        proj = np.clip(x, self.lower.value, self.upper.value)
        return proj, float(np.linalg.norm(x - proj))

    def _distances(self, X: np.ndarray) -> np.ndarray:
        return row_norms(X - np.clip(X, self.lower.value, self.upper.value))

    def to_dict(self) -> dict:
        return {"variant": "box", **write_data(lower=self.lower, upper=self.upper)}


@dataclass(frozen=True, eq=False)
class Ball(_Checked):
    """Euclidean ball B(center, radius); the centre and the radius are a
    vector and a scalar or knot tables of them on the same knots."""

    center: object
    radius: object

    def __post_init__(self):
        c, r = as_data(as_vector_data(self.center), self.radius)
        if len(c.shape) != 1:
            raise ValueError("ball center must be a vector at every knot")
        if r.shape != ():
            raise ValueError("ball radius must be a scalar, and radius knots one scalar per knot")
        # interpolating between valid knots keeps the radius valid
        if np.any(r.values < 0):
            raise ValueError("ball radius must be finite and nonnegative")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def at(self, p: float) -> "Ball":  # with a constant centre and radius at p
        return self if self.center.ps is None else Ball(self.center.at(p), self.radius.at(p))

    def project(self, x) -> tuple[np.ndarray, float]:
        x = as_vector(x, self.dim)
        c, r = self.center.value, float(self.radius.value)
        gap = x - c
        nrm = float(np.linalg.norm(gap))
        if nrm <= r:
            return x.copy(), 0.0
        proj = c + gap * (r / nrm)
        return proj, nrm - r

    def _distances(self, X: np.ndarray) -> np.ndarray:
        c, r = self.center.value, float(self.radius.value)
        return np.maximum(row_norms(X - c) - r, 0.0)

    def to_dict(self) -> dict:
        return {"variant": "ball", **write_data(center=self.center, radius=self.radius)}


@dataclass(frozen=True, eq=False)
class PolytopeSet(_Checked):
    """Constant polytopal feasible set (vertex list in the x-space), measured
    through one SumSet of its polytope, built with it."""

    polytope: VPolytope

    def __post_init__(self):
        object.__setattr__(self, "_sumset", SumSet(self.polytope))

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def at(self, p: float) -> "PolytopeSet":
        return self

    def project(self, x) -> tuple[np.ndarray, float]:
        return project_dist(x, self._sumset)

    def _distances(self, X: np.ndarray) -> np.ndarray:
        return _distance_rows(self._sumset, X)

    def to_dict(self) -> dict:
        return {"variant": "polytope",
                "vertices": self.polytope.vertices.tolist()}


ConstraintFamily = Union[AllSpace, Box, Ball, PolytopeSet]


def constraint_from_dict(d: dict) -> ConstraintFamily:
    variant = d["variant"]
    if variant == "all_space":
        read(d, "", variant=str)
        return AllSpace()
    if variant == "box":
        return Box(*read_data(d, "lower", "upper", variant=str))
    if variant == "ball":
        return Ball(*read_data(d, "center", "radius", variant=str))
    if variant == "polytope":
        return PolytopeSet(VPolytope(np.array(read(d, "vertices", variant=str)["vertices"], float)))
    raise ValueError(f"unknown constraint variant {variant!r}")


def is_all_space(constraint: ConstraintFamily) -> bool:
    return isinstance(constraint, AllSpace)


# ---------------------------------------------------------------------------
# one parameter's view
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProblemAt:
    """A problem at one parameter p, ``problem.at(p)``: its cone, its
    constraint at p and the data its images (``_images``) read, set once,
    arrays read-only.  It keeps no reference to the problem."""

    problem: InitVar[object]
    p: float

    def __post_init__(self, problem):
        if not math.isfinite(self.p):
            raise ValueError(f"parameter p = {self.p} is not finite")
        self._set(cone=problem.cone, constraint=problem.constraint.at(self.p),
                  dim=problem.dim_in)

    def _set(self, **data):
        for name, value in data.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def evaluate_many(self, X) -> np.ndarray:
        """Vertices of F(p, x) for every row x of X (checked), shape (k, v, m)."""
        return self._images(_as_points(X, self.dim))

    def evaluate(self, x) -> VPolytope:
        """F(p, x), imaged on the checked row x: bit for bit row 0 of ``evaluate_many``."""
        return self._polytope(self._images(as_vector(x, self.dim)))

    def _polytope(self, V: np.ndarray) -> VPolytope:
        """The image with vertices V, checked once: no second check by VPolytope."""
        if not all_finite(V):  # a finite x whose image overflows
            raise ImageOverflow(f"the image at p = {self.p} has non-finite coordinates")
        image = object.__new__(VPolytope)
        object.__setattr__(image, "vertices", V)
        return image

    def merit_many(self, X, kappa: float = 0.0) -> np.ndarray:
        """Excess of F(p, x) beyond the cone, plus kappa * dist(x, R(p)) when
        kappa > 0 (the constraint's exact distance), for every row x of X;
        zero exactly on feasible solutions."""
        if kappa < 0:
            raise ValueError("penalty weight must be nonnegative")
        V = self.evaluate_many(X)  # checks X
        if not all_finite(V):  # finite points whose image overflows
            raise ImageOverflow(f"the image at p = {self.p} has non-finite coordinates")
        k, v, m = V.shape
        out = np.maximum.reduce(self.cone._distances(V.reshape(-1, m)).reshape(k, v), axis=1)
        if kappa > 0:  # X as evaluate_many read it
            out += kappa * self.constraint._distances(np.asarray(X, float).reshape(k, -1))
        if not all_finite(out):  # finite points too far out: a norm overflows
            raise ImageOverflow(f"the image at p = {self.p} has a merit that overflows")
        return out

    def merit(self, x, kappa: float = 0.0) -> float:
        return float(self.merit_many(np.asarray(x, dtype=float)[None], kappa)[0])

    @property
    def hint(self) -> Optional[np.ndarray]:
        """``hints_for_matrix`` of the bound map's linear part, or None."""
        if "_hint" not in vars(self):  # kept from the first use
            M = self.bound_map[1]
            self._set(_hint=None if M is None else hints_for_matrix(M, self.cone))
        return vars(self)["_hint"]


@dataclass(frozen=True, eq=False)
class SviAt(ProblemAt):
    """An ``SviProblem`` at p: M(p), the stack [M(p), L_1, ..., L_v] of shape
    (1 + v, m, n), and h, whose coefficient rows the term keeps."""

    def __post_init__(self, problem):
        super().__post_init__(problem)
        M, fan = problem.matrix.matrix_at(self.p), problem.fan
        self._set(M=M, h=problem.h,
                  stacked=M[None] if fan is None else np.concatenate([M[None], fan.matrices]))

    def _images(self, X: np.ndarray) -> np.ndarray:
        # M(p)x + h(x), plus L_i x with a fan; each product is the (m, n) one
        # of ``matvec_rows``, bit for bit: a row x gives (v, m), a batch (k, v, m)
        if X.ndim == 1:
            Y = self.stacked @ X
            base = Y[:1] if self.h is None else Y[:1] + self.h._value_at(X)
            return base if len(Y) == 1 else base + Y[1:]
        X = np.ascontiguousarray(X)
        Y = (self.stacked @ X[:, None, :, None])[..., 0]
        base = Y[:, :1] if self.h is None else Y[:, :1] + self.h.values_many(X)[:, None]
        return base if len(self.stacked) == 1 else base + Y[:, 1:]

    @property
    def bound_map(self):
        """x -> F(p, x), whose increase bound the solver needs, and M(p)."""
        return self.evaluate, self.M


class Parametric:
    """A problem kind (``view`` its view class) whose data at p is read
    through ``at(p)`` only."""

    def at(self, p: float):
        """The view at p, kept for the last p asked, keyed by p's value, type
        and sign (M(0) and M(-0.0) can differ in a signed zero)."""
        last = vars(self).get("_at", (None, None, None))
        if last[0] is not p:  # the same p object is the same key
            key = (p, type(p), math.copysign(1.0, p))
            last = (p, key, last[2] if last[1] == key else self.view(self, p))
            object.__setattr__(self, "_at", last)
        return last[2]


# ---------------------------------------------------------------------------
# the problem datum
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SviProblem(Parametric):
    """Full datum of a parameterized inclusion problem F(p, x) subset C."""

    #: missing descent constants raise instead of falling back on floor ones
    best_effort: ClassVar[bool] = False
    view: ClassVar[type] = SviAt

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
        """Declared Lipschitz budget of the perturbation terms h and the fan,
        the solver's ell."""
        ell_h = self.h.declared_lipschitz if self.h is not None else 0.0
        ell_fan = self.fan.lipschitz_constant if self.fan is not None else 0.0
        return float(ell_h) + float(ell_fan)

    def evaluate(self, p: float, x) -> VPolytope:
        return evaluate(self, p, x)

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
    h, fan = read(d, "matrix cone h fan constraint declared_alpha").get("h"), d.get("fan")
    return SviProblem(
        matrix=matrix_family_from_dict(d["matrix"]),
        cone=PolyCone(np.asarray(read(d["cone"], "generators")["generators"], float)),
        h=None if h is None else ConcaveTerm.from_dict(h),
        fan=None if fan is None else FanSpec(np.asarray(read(fan, "matrices")["matrices"], float)),
        constraint=constraint_from_dict(d.get("constraint", {"variant": "all_space"})),
        declared_alpha=d.get("declared_alpha"),
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(problem: SviProblem, p: float, x) -> VPolytope:
    """Value F(p, x) as a vertex polytope: {M(p)x + h(x) + L_i x} over the
    fan's extreme matrices (a singleton without a fan)."""
    return problem.at(p).evaluate(x)

