"""Reference for the enlargement test: the Lagrange-point search for the
largest distance to D = conv(base) + cone(gens) over spheres, which the
library ran before it took the sup in closed form.  Tests compare the
library's closed form (``geometry._sphere_max``) and its witness checks
against it; it shares the face table with the library, not the facet rows.
"""
import math
from itertools import islice

import numpy as np

from svikit import geometry
from svikit.geometry import GEOM_TOL, SumSet, _as_sumset

#: slack on a face's weights when a centre's faces are picked
FEASIBLE_TOL = 1e-12


def _feasible_residuals(table, pts):
    """Every face's residual y - candidate for every row y of pts (S, m, n),
    and whether its weights are feasible to within FEASIBLE_TOL (S, n)."""
    b0, T, t, lower, _ = table
    n, m = pts.shape
    Z = (T @ pts.T + t).reshape(len(b0), 2 * m + 1, n)
    return Z[:, m + 1:], (Z[:, :m + 1] >= lower - FEASIBLE_TOL).all(axis=1)


def sphere_max(centers: np.ndarray, s: float, ss: SumSet):
    """Largest dist(., D) over the sphere of radius s about each row of
    ``centers``, and a point attaining it: one sup and one point per centre.

    A largest point y about c with dist(y) > 0 is c + s n, n the unit normal
    of D at P(y), which lies in the relative interior of a face F of less
    than full dimension, with weights feasible at c.  Since c - cand_F(c) =
    (dist(y) - s) n (cand_F: projection onto F's affine hull), y = c -+ s u_F
    with u_F the normalised residual.  A zero residual leaves n free in F's
    normal cone, so below GEOM_TOL c -+ s times F's stored orthogonal vector
    (a facet normal, or one off D's affine hull) are candidates as well, and
    so is each candidate stepped to the normal at its projection.  Above the
    face budget the subsets are walked in uncached runs of that size, with a
    running max per centre.
    """
    step = geometry._FACE_CHUNK // geometry._FACE_BUDGET
    if len(centers) > step:
        parts = [sphere_max(centers[i:i + step], s, ss) for i in range(0, len(centers), step)]
        return np.concatenate([b for b, _ in parts]), np.vstack([p for _, p in parts])
    owner, base, gens, shift = geometry._table_for(ss)
    ctr = centers - shift
    tables = [geometry._faces(owner, base, gens)]
    if tables[0] is None:
        shape = len(base), 0 if gens is None else len(gens), ss.dim
        faces = geometry._subsets(*shape)
        tables = (geometry._face_table(base, gens, geometry._gather(run, *shape))
                  for run in iter(lambda: list(islice(faces, geometry._FACE_BUDGET)), []))
    best, point = np.full(len(ctr), -math.inf), np.zeros_like(ctr)
    for table in tables:
        normal = table[4]
        r, feasible = _feasible_residuals(table, ctr)
        feasible &= normal.any(axis=1)[:, None]  # a full-dimensional face has none
        norm = np.sqrt(np.add.reduce(r * r, axis=1))
        f, i = np.nonzero(feasible & (norm > 0.0))
        g, j = np.nonzero(feasible & (norm <= GEOM_TOL))
        u = np.vstack([r[f, :, i] / norm[f, i][:, None], normal[g]])
        at = np.tile(np.concatenate([i, j]), 2)
        if not len(at):
            continue
        y = ctr[at] + s * np.vstack([u, -u])
        # rounding tilts a small residual along its face; the normal at the
        # projection of c + s u is accurate to rounding
        proj, d = geometry._nearest(owner, base, gens, y)
        w = y - proj  # d is |w| only to rounding: the step takes |w| itself
        out = w.any(axis=1)
        if out.any():
            w = w[out] / np.linalg.norm(w[out], axis=1, keepdims=True)
            y = np.vstack([y, ctr[at[out]] + s * w])
            d = np.concatenate([d, geometry._nearest(owner, base, gens, y[len(d):])[1]])
            at = np.concatenate([at, at[out]])
        o = np.lexsort((-d, at))
        k = o[np.r_[True, at[o][1:] != at[o][:-1]]]  # each centre's first largest
        k = k[d[k] > best[at[k]]]
        best[at[k]], point[at[k]] = d[k], y[k] + shift
    return best, point


def ball_sup(vertices: np.ndarray, s: float, D) -> float:
    """Sup of dist(., D) over B(conv(vertices), s) by the reference search."""
    return float(np.max(sphere_max(np.asarray(vertices, float), s, _as_sumset(D))[0]))
