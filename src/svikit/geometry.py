"""Convex geometry kernel: polyhedral cones, V-polytopes, Minkowski sums,
Euclidean projections, excess, Hausdorff distance, and enlargement-inclusion
certificates.

All sets live in R^m with m small (desk scale, m <= 4 typical).  Cones are
finitely generated, polytopes are vertex lists.  Distances are exact up to
floating point, and each set shape has one path (``_nearest_rows``), a whole
batch of points at a time and each row's answer independent of its batch:
row norms to a point, the closed form of a point plus the orthant, and for
every other polytope-plus-cone its face table (``_face_table``, an affine
map of the point per face), cached on the set.  Sets above the face budget,
and a cone's construction checks (whole space, pointedness), take the one
least-distance kernel (``_ldp_project``): the least-distance problem (LDP)
solved as one Lawson-Hanson NNLS (LH ch. 23), which reports its KKT residual.
The face table also yields every set's facet rows (``_facets``), the cone's
``PolyCone.facets`` among them, whose least slack is a point's depth, and
with it the sup of the distance over a ball (``_sphere_max``).  Public
functions check their points; the distance-only paths (``_distance_rows``,
``PolyCone._distances``), which build no nearest point, trust their callers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations, islice
from typing import NamedTuple, Optional, Union

import numpy as np

#: membership means distance <= GEOM_TOL
GEOM_TOL = 1e-9


def all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()``, at half its cost on small arrays."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def norm2(A) -> float:
    """The spectral norm ||A||_2, inf when an entry is (numpy's would be nan)."""
    return float(np.linalg.norm(A, 2)) if all_finite(A) else math.inf


def as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {v.shape}")
    if not all_finite(v):
        raise ValueError("vector has non-finite coordinates")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def _as_points(rows, dim: Optional[int] = None) -> np.ndarray:
    pts = np.asarray(rows, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2:
        raise ValueError(f"expected a list of points, got shape {pts.shape}")
    if not all_finite(pts):
        raise ValueError("points have non-finite coordinates")
    if dim is not None and pts.shape[1] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {pts.shape[1]}")
    return pts


# ---------------------------------------------------------------------------
# least-distance kernel
# ---------------------------------------------------------------------------

#: a column enters the NNLS only above this dual value (the columns and the
#: residual have norms of order 1)
_DUAL_TOL = 1e-14


def _nnls(E: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Lawson-Hanson NNLS (1974, ch. 23): argmin ||E u - f|| over u >= 0.

    Returns u, the residual r = E u - f and the KKT residual: the largest
    violation of the dual sign E.T r >= 0 off the support, of
    complementarity E.T r = 0 on it and of u >= 0.  A column enters only
    with a positive trial weight (LH's guard against cycling), and each
    interpolation step sets its blocking variable to exactly zero.  Raises
    ``RuntimeError`` past an iteration cap, a safety check only.
    """
    n = E.shape[1]
    u = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    r = -f

    def solve_free() -> np.ndarray:
        z = np.zeros(n)
        z[free] = np.linalg.lstsq(E[:, free], f, rcond=None)[0]
        return z

    for _ in range(3 * n + 10):
        dual = -(E.T @ r)
        dual[free] = -np.inf
        while True:
            t = int(np.argmax(dual))
            if dual[t] <= _DUAL_TOL:
                g = E.T @ r
                return u, r, float(max(np.max(-g[~free], initial=0.0),
                                       np.max(np.abs(g[free]), initial=0.0), -u.min()))
            free[t] = True
            z = solve_free()
            if z[t] > 0.0:
                break
            free[t] = False
            dual[t] = -np.inf
        while np.any(z[free] <= 0.0):
            neg = np.flatnonzero(free & (z <= 0.0))
            ratios = u[neg] / (u[neg] - z[neg])
            j = int(np.argmin(ratios))
            u = u + ratios[j] * (z - u)
            u[neg[j]] = 0.0
            free &= u > 0.0
            u[~free] = 0.0
            z = solve_free()
        u = z
        # independent free columns spanning the rows fit f exactly; the
        # computed E u - f would only be rounding, amplified by large weights.
        # Dependent ones (a repeated ray, both rays of a line) need not fit it
        exact = free.sum() == len(f) and np.linalg.matrix_rank(E[:, free]) == len(f)
        r = np.zeros_like(f) if exact else E @ u - f
    raise RuntimeError("NNLS exceeded its iteration cap")


def _ldp_project(y: np.ndarray, base: np.ndarray,
                 gens: Optional[np.ndarray]) -> tuple[np.ndarray, float, float]:
    """Nearest point of conv(base rows) + cone(gens rows) to y, its distance
    and the KKT residual of the NNLS that found it.

    The normal w of the nearest point solves the least-distance problem
    min ||w||  s.t.  w.(y - b_i) / s >= 1 for every vertex b_i and
    -w.g_j / ||g_j|| >= 0 for every generator, with s = max(1, max|y - b_i|);
    then the distance is s / ||w||.  The LDP is one NNLS (LH ch. 23):
    min ||E u - e_{m+1}||, u >= 0, with one column ((y - b_i) / s, 1) per
    vertex and (-g_j / ||g_j||, 0) per generator.  Its residual r has
    ||r||^2 = -r_m at the optimum, so d = s ||r|| / sqrt(1 - ||r||^2) and the
    nearest point is y - d r[:m] / ||r[:m]||; r = 0 (an infeasible LDP)
    means y lies in the set.
    """
    k, m = base.shape
    rel = y - base
    s = max(1.0, float(np.max(np.abs(rel))))
    E = np.vstack([rel.T / s, np.ones(k)])
    if gens is not None and len(gens):
        unit = gens / np.linalg.norm(gens, axis=1, keepdims=True)
        E = np.hstack([E, np.vstack([-unit.T, np.zeros(len(gens))])])
    _, r, kkt = _nnls(E, np.eye(m + 1)[m])
    rn = float(np.linalg.norm(r))
    d = s * rn / math.sqrt(1.0 - rn * rn)
    rm = float(np.linalg.norm(r[:m]))
    return (y - (d / rm) * r[:m] if rm > 0.0 else y.copy()), d, kkt


# ---------------------------------------------------------------------------
# face tables
# ---------------------------------------------------------------------------

#: sets with more candidate faces are projected point by point by the
#: least-distance kernel (``_ldp_project``), and their facet rows are read
#: off runs of this many faces; bounds every table's memory and build time
_FACE_BUDGET = 512
#: a batch is evaluated in chunks of at most this many (face, point) pairs
_FACE_CHUNK = 1 << 17
#: faces up to this condition number take the normal equations
_NORMAL_COND = 100.0
#: a unit generator lies on a facet's side down to this (a base vertex: this times the extent)
_FACET_TOL = 1e-12
#: rounding can tilt an outward residual shorter than this off the normal cone
_SHORT_RESIDUAL = 1e-6


def _subsets(k: int, g: int, m: int):
    """The candidate faces of conv(k base vertices) + cone(g generators) in
    R^m, in table order: (i, B, J), base vertex b0 = i with further base
    vertices B > i and generators J, at most m + 1 in all."""
    sizes = [(b, j) for b in range(1, min(k, m + 1) + 1) for j in range(min(g, m + 1 - b) + 1)]
    for i in range(k):
        for b, j in sizes:
            for B in combinations(range(i + 1, k), b - 1):
                for J in combinations(range(g), j):
                    yield i, B, J


class _Gather(NamedTuple):
    """A run of ``_subsets(k, g, m)`` as read-only gather indices into the
    stack (base; gens; 0) of k + g + 1 rows: per subset its base vertex b0
    (``first``), the rows of its m direction columns (``cols``; the zero row
    pads the columns past its vertices and generators) and of what each is
    measured from (``orig``: b0 for a base vertex, else the zero row), and
    its base and column counts."""

    first: np.ndarray
    cols: np.ndarray
    orig: np.ndarray
    nbase: np.ndarray
    ncols: np.ndarray


def _gather(subsets, k: int, g: int, m: int) -> _Gather:
    """The ``_Gather`` of a run of ``_subsets(k, g, m)``, in its order."""
    first, cols, orig, shape = [], [], [], []
    for i, B, J in subsets:
        pad = [k + g] * (m - len(B) - len(J))
        first.append(i)
        cols.append([*B, *(k + j for j in J), *pad])
        orig.append([i] * len(B) + [k + g] * (m - len(B)))
        shape.append((len(B), len(B) + len(J)))
    S = len(first)
    out = _Gather(np.array(first, dtype=np.intp), np.array(cols, dtype=np.intp).reshape(S, m),
                  np.array(orig, dtype=np.intp).reshape(S, m), *np.array(shape, dtype=np.intp).T)
    for a in out:
        a.flags.writeable = False  # a cached index serves every set of its shape
    return out


@lru_cache(maxsize=128)
def _subset_index(k: int, g: int, m: int, budget: int) -> Optional[_Gather]:
    """The ``_Gather`` of all of ``_subsets(k, g, m)``, cached per shape and
    budget; None above ``budget`` subsets."""
    run = list(islice(_subsets(k, g, m), budget + 1))
    return _gather(run, k, g, m) if len(run) <= budget else None


def _runs(k: int, g: int, m: int):
    """The subsets of ``_subsets(k, g, m)`` in runs for ``_face_table``: the
    cached index of all of them up to ``_FACE_BUDGET``, else runs of that
    many, enumerated as they are walked and kept by no cache (a walk has no
    bound on its length)."""
    index = _subset_index(k, g, m, _FACE_BUDGET)
    if index is not None:
        return [index]
    faces = _subsets(k, g, m)
    return iter(lambda: list(islice(faces, _FACE_BUDGET)), [])


def _face_table(base: np.ndarray, gens: Optional[np.ndarray], subsets):
    """Face table of conv(base rows) + cone(gens rows) over ``subsets``
    (``_subsets``, all of them or a run of them, as (i, B, J) tuples or as
    their ``_Gather``).

    The projection of y lies in the relative interior of a face, so by
    Caratheodory it is a nonnegative combination of a base vertex b0 and
    base vertices and generators whose directions b_i - b0, g_j are linearly
    independent; least squares over that subset returns it.  Any subset with
    nonnegative weights gives a point of the set, so the distance is the
    least over the feasible candidates of all full-rank subsets.

    Per subset, the affine map T_f y + t_f, T_f = [P; -P's base sum; I - M]
    ((2m + 1) x m, M its directions' projector) and t_f = -T_f b0, gives its
    weights (zero-padded to m), their negated base sum (b0 keeps 1 minus it)
    and its residual y - candidate, exactly 0 on a full-dimensional subset
    (M = I).  Returns the origins b0 (S, m), the maps stacked as T
    (S * (2m + 1), m) and t (S * (2m + 1), 1), the feasible lower bounds
    (m + 1, 1), and per subset a unit vector orthogonal to its directions
    (S, m), a left singular vector, for the facet rows (``_facets``); zero
    for a full-dimensional subset, which has none.
    """
    k, m = base.shape
    gens = np.zeros((0, m)) if gens is None else gens
    index = subsets if isinstance(subsets, _Gather) else _gather(subsets, k, len(gens), m)
    # every direction matrix in one gather: b_i - b0 and g_j - 0, as columns
    V = np.vstack([base, gens, np.zeros((1, m))])
    D = (V[index.cols] - V[index.orig]).transpose(0, 2, 1)
    U, sv, Vt = np.linalg.svd(D)
    keep = np.sum(sv > sv[:, :1] * m * np.finfo(float).eps, axis=1) == index.ncols
    D, first, nbase, ncols, U, sv, Vt = (
        a[keep] for a in (D, index.first, index.nbase, index.ncols, U, sv, Vt))
    cols = np.arange(m)[None, :] < ncols[:, None]
    inv_sv = np.where(cols, 1.0 / np.where(cols, sv, 1.0), 0.0)
    P = (Vt.transpose(0, 2, 1) * inv_sv[:, None, :]) @ U.transpose(0, 2, 1)
    M = (U * cols[:, None, :]) @ U.transpose(0, 2, 1)
    # well-conditioned faces take the normal equations, which give the closed
    # forms bit for bit (a segment's weight (y - a).d / |d|^2); the rest keep
    # the SVD, whose projector avoids rebuilding a point from huge weights
    well = sv[:, 0] <= _NORMAL_COND * sv[np.arange(len(D)), np.maximum(ncols - 1, 0)]
    DT = D.transpose(0, 2, 1)
    gram = DT @ D + np.eye(m) * ~cols[:, :, None]
    P[well] = np.linalg.solve(gram[well], DT[well])
    M[well] = D[well] @ P[well]
    M[ncols == m] = np.eye(m)  # a full-dimensional face's candidate is y itself
    base_sum = np.sum(P * (np.arange(m)[None, :] < nbase[:, None])[:, :, None], axis=1)
    T = np.concatenate([P, -base_sum[:, None, :], np.eye(m) - M], axis=1)
    b0 = base[first]
    t = -(T @ b0[:, :, None])[..., 0]
    lower = np.append(np.zeros(m), -1.0)[:, None]
    normal = U[np.arange(len(D)), :, np.minimum(ncols, m - 1)] * (ncols < m)[:, None]
    return b0, T.reshape(-1, m), t.reshape(-1, 1), lower, normal


def _faces(owner, base: np.ndarray, gens: Optional[np.ndarray]):
    """The face table of conv(base) + cone(gens), built on first use and
    cached on ``owner``, an object that lives as long as the set; None above
    ``_FACE_BUDGET`` faces."""
    if "_faces" not in vars(owner):
        k, m = base.shape
        index = _subset_index(k, 0 if gens is None else len(gens), m, _FACE_BUDGET)
        object.__setattr__(owner, "_faces",
                           None if index is None else _face_table(base, gens, index))
    return vars(owner)["_faces"]


def _facets(owner, base: np.ndarray, gens: Optional[np.ndarray]):
    """Rows (N, c), unit N, with conv(base) + cone(gens) = {y : N y <= c},
    cached on ``owner``: in the set's span (dimension d), the orthogonal vector
    n of each face-table subset gives n.(y - b0) <= 0 in each sign that has all
    base vertices and generators on the set's side (every facet, and maybe more
    supporting rows, which move no least slack), and d < m adds +- a basis of
    the complement; the cached table when d = m, else one in span coordinates."""
    if "_facets" not in vars(owner):
        k, m = base.shape
        G = np.zeros((0, m)) if gens is None else gens
        _, sv, Vt = np.linalg.svd(np.vstack([base - base[0], G]))
        d = int(np.sum(sv > sv[0] * m * np.finfo(float).eps))
        basis, origin = (np.eye(m), np.zeros(m)) if d == m else (Vt[:d], base[0])
        B, G = (base - origin) @ basis.T, G @ basis.T
        tables = [_faces(owner, base, gens) if d == m else None]
        if tables[0] is None:
            tables = (_face_table(B, G, run) for run in _runs(k, len(G), d))
        tol = _FACET_TOL * max(1.0, float(np.max(np.abs(B - B[0]), initial=0.0)))
        N, c = [Vt[d:], -Vt[d:]], [Vt[d:] @ base[0], -Vt[d:] @ base[0]]
        for b0, _, _, _, normal in tables if d else ():
            has = normal.any(axis=1)
            n, b0 = np.vstack([normal[has], -normal[has]]), np.vstack([b0[has], b0[has]])
            ok = (np.all(B @ n.T - np.sum(n * b0, axis=1) <= tol, axis=0)
                  & np.all(G @ n.T <= _FACET_TOL * np.linalg.norm(G, axis=1)[:, None], axis=0))
            N.append(n[ok] @ basis)
            c.append(np.sum(n[ok] * b0[ok], axis=1) + N[-1] @ origin)
        object.__setattr__(owner, "_facets", (np.vstack(N), np.concatenate(c)))
    return vars(owner)["_facets"]


def _nearest(owner, base: np.ndarray, gens: Optional[np.ndarray], pts: np.ndarray,
             points: bool = True):
    """Nearest points y - r of conv(base) + cone(gens) to the rows y of pts,
    r the least feasible residual of the face table cached on ``owner``, and
    the distances |r|; the distances alone when not ``points``.  A chunk is
    one product T Y' + t; a lone row is multiplied as two copies of itself,
    the copy dropped, so that every row takes gemm's arithmetic whatever its
    batch."""
    table = _faces(owner, base, gens)
    if table is None:
        out = [_ldp_project(y, base, gens)[:2] for y in pts]
        d = np.array([d for _, d in out])
        return (np.array([p for p, _ in out]).reshape(pts.shape), d) if points else d
    b0, T, t, lower, _ = table
    n, m = pts.shape
    step = max(1, _FACE_CHUNK // len(b0))
    if n > step:
        parts = [_nearest(owner, base, gens, pts[i:i + step], points) for i in range(0, n, step)]
        return ((np.vstack([p for p, _ in parts]), np.concatenate([d for _, d in parts]))
                if points else np.concatenate(parts))
    Y = pts if n > 1 else np.concatenate([pts, pts])  # gemv's last bits would differ
    Z = (T @ Y.T)[:, :n]
    Z += t  # in place: a second array of Z's size doubled the time at 512 rows
    Z = Z.reshape(len(b0), 2 * m + 1, n)
    r = Z[:, m + 1:]
    d2 = np.add.reduce(r * r, axis=1)
    # only truly feasible weights: a candidate whose weights fall short of
    # zero by rounding lies outside the set and can read short of the
    # distance (2.8e-16 for a point 1.05e-12 outside); every vertex's own
    # face is feasible, so some candidate always is
    d2[~(Z[:, :m + 1] >= lower).all(axis=1)] = np.inf
    if not points:
        return np.sqrt(d2.min(axis=0))
    best = d2.argmin(axis=0)
    i = np.arange(n)
    return pts - r[best, :, i], np.sqrt(d2[best, i])


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PolyCone:
    """Finitely generated closed convex cone {sum mu_i g_i : mu >= 0}.

    Must be neither {0} nor the whole space.  ``pointed`` is cached at
    construction: the origin lies off the hull of the normalized generators.
    """

    generators: np.ndarray
    pointed: bool = field(init=False)

    def __post_init__(self):
        gens = _as_points(self.generators)
        with np.errstate(over="ignore"):  # an overflowing norm is rejected below
            norms = np.linalg.norm(gens, axis=1)
        if not all_finite(norms):
            raise ValueError("cone generators must have norms within the float range")
        if not np.any(norms > GEOM_TOL):
            raise ValueError("cone must have at least one nonzero generator")
        gens = gens[norms > GEOM_TOL]
        object.__setattr__(self, "generators", gens)
        if self._is_whole_space():
            raise ValueError("cone equals the whole space; a proper cone is required")
        unit = gens / np.linalg.norm(gens, axis=1, keepdims=True)
        d = _ldp_project(np.zeros(self.dim), unit, None)[1]
        object.__setattr__(self, "pointed", bool(d > GEOM_TOL))
        # the orthant: every unit generator is an axis, and every axis is one
        axes = np.argmax(unit, axis=1)
        object.__setattr__(self, "_orthant", bool(len(set(axes.tolist())) == self.dim and np.all(
            np.abs(unit - np.eye(self.dim)[axes]) <= GEOM_TOL)))

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    def _is_whole_space(self) -> bool:
        # containing +e_i and -e_i for every axis forces C = R^m
        m = self.dim
        return all(_ldp_project(p, np.zeros((1, m)), self.generators)[1] <= GEOM_TOL
                   for p in np.vstack([np.eye(m), -np.eye(m)]))

    @cached_property
    def facets(self) -> np.ndarray:
        """Unit rows W with C = {y : W y >= 0}, the extreme rays of the dual
        cone; built on first use and cached.  The orthant's W is the identity;
        any other cone's is -N of its facet rows C = {y : N y <= 0}
        (``_facets``), less each row within GEOM_TOL of the cone of the rows
        still kept (one NNLS each): repeats, and supporting rows off the facets."""
        m = self.dim
        if getattr(self, "_orthant"):
            W = np.eye(m)
        else:
            W, keep = -_facets(self, np.zeros((1, m)), self.generators)[0], []
            for i in range(len(W)):
                rest = keep + list(range(i + 1, len(W)))
                if not rest or np.linalg.norm(_nnls(W[rest].T, W[i])[1]) > GEOM_TOL:
                    keep.append(i)
            W = W[keep]
        W.flags.writeable = False  # one cached array serves every caller
        return W

    def distances(self, points: np.ndarray) -> np.ndarray:
        """Exact Euclidean distances of many points to the cone (vectorized)."""
        return self._distances(_as_points(points, self.dim))

    def _distances(self, pts: np.ndarray) -> np.ndarray:
        """``distances`` of rows already checked: finite, of the cone's dimension."""
        if getattr(self, "_orthant"):  # the norm of the negative part, as np.linalg.norm
            r = np.minimum(pts, 0.0)
            return np.sqrt(np.add.reduce(r * r, axis=1))
        return _nearest(self, np.zeros((1, self.dim)), self.generators, pts, False)

    def project(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        return project_dist(y, self)

    def deep_direction(self) -> np.ndarray:
        """Unit direction into the cone's bulk (normalized generator mean)."""
        unit = self.generators / np.linalg.norm(self.generators, axis=1, keepdims=True)
        w = unit.sum(axis=0)
        n = np.linalg.norm(w)
        return w / n if n > GEOM_TOL else unit[0]


def orthant(m: int) -> PolyCone:
    """The nonnegative orthant of R^m."""
    return PolyCone(np.eye(m))


def hints_for_matrix(M: np.ndarray, cone: PolyCone) -> Optional[np.ndarray]:
    """The unit direction d that the linear map M sends along the cone's deep
    direction, or None when M is not square, is singular or d vanishes; the
    witness hint candidates at radius r are x + r d and x + r d / 2."""
    try:  # a matrix that is not square raises too
        d = np.linalg.solve(M, cone.deep_direction())
    except np.linalg.LinAlgError:
        return None
    n = np.linalg.norm(d)
    return d / n if n > 1e-12 else None


@dataclass(frozen=True, eq=False)
class VPolytope:
    """Compact convex set given by a nonempty vertex list (rows)."""

    vertices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", _as_points(self.vertices))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def __neg__(self) -> "VPolytope":
        return VPolytope(-self.vertices)


@dataclass(frozen=True, eq=False)
class SumSet:
    """Minkowski sum conv(base) + cone; absent cone means the plain polytope."""

    base: VPolytope
    cone: Optional[PolyCone] = None

    def __post_init__(self):
        if self.cone is not None and self.cone.dim != self.base.dim:
            raise ValueError("dimension mismatch between base polytope and cone")

    @property
    def dim(self) -> int:
        return self.base.dim


SetLike = Union[SumSet, PolyCone, VPolytope]


def _as_sumset(S: SetLike) -> SumSet:
    if isinstance(S, SumSet):
        return S
    if isinstance(S, PolyCone):
        return SumSet(VPolytope(np.zeros((1, S.dim))), S)
    if isinstance(S, VPolytope):
        return SumSet(S, None)
    raise TypeError(f"cannot interpret {type(S).__name__} as a point set")


# ---------------------------------------------------------------------------
# distances and excess
# ---------------------------------------------------------------------------

def _table_for(ss: SumSet):
    """(owner, base, gens, shift): y is measured as y - shift against
    conv(base) + cone(gens), whose face table is cached on owner -- the cone
    for a single base vertex, the polytope when there is no cone, else the
    SumSet; shift is 0.0 above one vertex."""
    base = ss.base.vertices
    if ss.cone is None:
        return ss.base, base, None, 0.0
    if len(base) == 1:
        return ss.cone, np.zeros_like(base), ss.cone.generators, base[0]
    return ss, base, ss.cone.generators, 0.0


def _nearest_rows(ss: SumSet, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest points of ss to the rows of pts (already checked), and their
    distances, on the one path of the set's shape: row norms to a point, the
    closed form of a point plus the orthant, else the face table (or the LDP)
    of ``_table_for``."""
    base = ss.base.vertices
    if len(base) == 1 and (ss.cone is None or getattr(ss.cone, "_orthant")):
        proj = (np.repeat(base, len(pts), axis=0) if ss.cone is None
                else np.maximum(pts - base[0], 0.0) + base[0])
        return proj, _distance_rows(ss, pts)
    owner, base, gens, shift = _table_for(ss)
    proj, d = _nearest(owner, base, gens, pts - shift)
    return proj + shift, d


def _distance_rows(ss: SumSet, pts: np.ndarray) -> np.ndarray:
    """``_nearest_rows``'s distances, with no nearest point built."""
    owner, base, gens, shift = _table_for(ss)
    if len(base) > 1:
        return _nearest(owner, base, gens, pts, False)
    return row_norms(pts - base[0]) if gens is None else owner._distances(pts - shift)


def project_dist(y, S: SetLike) -> tuple[np.ndarray, float]:
    """Euclidean nearest point of S to y, and the distance.

    S may be a SumSet, a bare PolyCone, or a bare VPolytope.  Exact up to
    floating point (``_nearest_rows``); distance zero within GEOM_TOL means
    membership.
    """
    ss = _as_sumset(S)
    proj, d = _nearest_rows(ss, as_vector(y, ss.dim)[None, :])
    return proj[0], float(d[0])


def dist_many(points: np.ndarray, S: SetLike) -> np.ndarray:
    """Distances of many points (rows) to S, vectorized over the batch, with
    no nearest point built (``_distance_rows``)."""
    ss = _as_sumset(S)
    return _distance_rows(ss, _as_points(points, ss.dim))


def excess(A: VPolytope, S: SetLike) -> float:
    """Excess of A beyond S: sup over a in A of dist(a, S).

    The distance function to a convex set is convex, so the supremum over
    the polytope is attained at a vertex.
    """
    ss = _as_sumset(S)
    if A.dim != ss.dim:
        raise ValueError("dimension mismatch between polytope and target set")
    return float(np.max(dist_many(A.vertices, ss)))


def hausdorff(A: VPolytope, B: VPolytope) -> float:
    """Hausdorff distance between two polytopes: max of the two excesses."""
    if A.dim != B.dim:
        raise ValueError("dimension mismatch between polytopes")
    return max(excess(A, SumSet(B)), excess(B, SumSet(A)))


# ---------------------------------------------------------------------------
# direction sets and finite differences
# ---------------------------------------------------------------------------

def unit_directions(m: int, count: int) -> np.ndarray:
    """Deterministic unit directions in R^m: uniform angles (m=2), Fibonacci
    sphere (m=3), signed axes plus a fixed-seed normalized Gaussian cloud
    otherwise."""
    if m == 1:
        return np.array([[1.0], [-1.0]])
    if m == 2:
        t = np.arange(count) * (2.0 * np.pi / count)
        return np.column_stack([np.cos(t), np.sin(t)])
    if m == 3:
        i = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / count)
        theta = np.pi * (1.0 + math.sqrt(5.0)) * i
        return np.column_stack([
            np.sin(phi) * np.cos(theta),
            np.sin(phi) * np.sin(theta),
            np.cos(phi),
        ])
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((max(count, 2 * m), m))
    pts = np.vstack([np.eye(m), -np.eye(m), pts])
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def seeded_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal n x n matrix drawn from ``rng`` (the identity for
    n = 1, which draws nothing); rotates a direction set per seed."""
    if n == 1:
        return np.eye(1)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def row_norms(D: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of D, each equal bit for bit to
    ``np.linalg.norm(row)``: one dot product per row (a matrix product of
    the whole batch would not be independent of the other rows)."""
    return np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])


def matvec_rows(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M x for every row x of X, each equal bit for bit to ``M @ x``: one
    matrix-vector product per row (``X @ M.T`` is one matrix product, whose
    rows can change with the batch size)."""
    return (M @ np.ascontiguousarray(X, dtype=float)[:, :, None])[..., 0]


def numgrad(fn_many, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient at x of a function evaluated on the rows
    of a batch: the 2n stencil points x + h e_i, x - h e_i (in that order,
    by i) in one call, h = 1e-6 max(1, |x|).  A function with one column
    per component gives one gradient column per component."""
    h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    E = h * np.eye(len(x))
    f = fn_many(np.stack([x + E, x - E], axis=1).reshape(-1, len(x)))
    return (f[0::2] - f[1::2]) / (2.0 * h)


# ---------------------------------------------------------------------------
# enlargement inclusion
# ---------------------------------------------------------------------------

class Verdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"


@dataclass(frozen=True, eq=False)
class InclusionResult:
    """Outcome of an enlargement-inclusion test B(A, s) subset of B(D, r)."""

    verdict: Verdict
    witness: Optional[np.ndarray] = None  # a point of B(A, s) farther than r from D
    # sup of dist(., D) over B(A, s)
    sup_estimate: float = math.nan

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS


def _least_slack(points: np.ndarray, ss: SumSet) -> np.ndarray:
    """Least facet slack (``_facets``) of each row of points, independent of
    the batch: the row's depth in ss when positive, above -dist otherwise."""
    owner, base, gens, shift = _table_for(ss)
    N, c = _facets(owner, base, gens)
    return np.min(c - matvec_rows(N, points - shift), axis=1)


def _sphere_max(centers: np.ndarray, s: float, ss: SumSet) -> tuple[np.ndarray, np.ndarray]:
    """Largest dist(., D) over the sphere of radius s about each row v of
    ``centers``, and a point v + s n attaining it: max(0, s + sd(v)) by
    Radstrom's cancellation law (B(v, s) lies in B(D, rho) iff B(v, s - rho)
    lies in D), sd minus v's least facet slack (its depth) when positive, else
    dist(v, D); n is the least-slack normal inside, and v - P(v) outside, below
    ``_SHORT_RESIDUAL`` projected by one NNLS onto D's normal cone at P(v)."""
    owner, base, gens, shift = _table_for(ss)
    N, c = _facets(owner, base, gens)
    slack = c - matvec_rows(N, centers - shift)
    least = np.argmin(slack, axis=1)
    sd, normal = -slack[np.arange(len(centers)), least], N[least]
    out = np.flatnonzero(sd >= 0.0)
    proj, sd[out] = _nearest_rows(ss, centers[out])
    w = centers[out] - proj
    for j in np.flatnonzero(sd[out] < _SHORT_RESIDUAL):
        active = N[c - N @ (proj[j] - shift) <= GEOM_TOL]
        w[j] += _nnls(active.T, w[j])[1] if len(active) else 0.0
    keep = np.any(w, axis=1)
    normal[out[keep]] = w[keep] / np.linalg.norm(w[keep], axis=1, keepdims=True)
    return np.maximum(s + sd, 0.0), centers + s * normal


def ball_sup_dist(A: VPolytope, s: float, D: SetLike) -> tuple[float, np.ndarray]:
    """Supremum of dist(., D) over the enlargement B(A, s), and a point
    attaining it: the maximand is convex, so it sits on the sphere about a
    vertex of A, where ``_sphere_max`` takes it in closed form."""
    ss = _as_sumset(D)
    if A.dim != ss.dim:
        raise ValueError("dimension mismatch between polytope and target set")
    if not (math.isfinite(s) and s >= 0):
        raise ValueError(f"enlargement radius must be finite and nonnegative, got {s}")
    sups, points = _sphere_max(A.vertices, s, ss)
    k = int(np.argmax(sups))
    return float(sups[k]), points[k]


def enlargement_inclusion(A: VPolytope, s: float, D: SetLike, r: float,
                          dirs: Optional[int] = None, tol: float = GEOM_TOL,
                          rounds: int = 3) -> InclusionResult:
    """Decide whether B(A, s) is contained in B(D, r): it is when the exact
    sup of dist(., D) over B(A, s) (``ball_sup_dist``) is at most r + tol,
    and otherwise the point attaining it is the witness.  ``dirs`` and
    ``rounds`` are accepted and ignored.
    """
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"radii must be finite and nonnegative, got r = {r}")
    sup, pt = ball_sup_dist(A, s, D)
    holds = sup <= r + tol
    return InclusionResult(Verdict.HOLDS if holds else Verdict.FAILS, None if holds else pt, sup)
