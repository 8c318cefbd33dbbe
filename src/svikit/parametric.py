"""Warm-started parameter sweeps and continuity diagnostics.

A sweep solves the inclusion problem along a sorted parameter grid,
initializing each solve at the previous solution.  The chain of solutions is
the numerical stand-in for a continuous selection of the solution map: warm
starting biases the solver toward the branch through the previous point.
A row that took steps records the anchor's metric projection onto the
solution set in n = 2, else the earliest solved point of [anchor, x].  Both
bisect for a ray's entry into the solved set, speculated: a merit call tests
a predicted path of midpoints, and the output is the step-by-step bisection's.
Unsolved grid points are recorded as data, never as failures, because
legitimately empty solution sets must be chartable.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .solver import SolverConfig, solve

class TooFewRows(ValueError):
    pass


@dataclass
class SweepRow:
    p: float
    x: np.ndarray
    merit: float
    bound_rhs: float
    bound_holds: bool
    solved: bool
    iterations: int = 0
    warm_start: Optional[np.ndarray] = None
    value: Optional[np.ndarray] = None  # objective value column (vector sweeps)


@dataclass
class SweepTable:
    rows: list
    meta: dict = field(default_factory=dict)


@dataclass
class ContinuityReport:
    max_step_ratio: float
    discontinuity_flags: list
    unsolved_runs: list  # (p_start, p_end) maximal unsolved intervals
    threshold_ratio: float


def _problem_hash(problem) -> str:
    payload = json.dumps(problem.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _sorted_grid(grid) -> list:
    """The sweep grid as floats; it must be nonempty and sorted."""
    grid = [float(p) for p in grid]
    if not grid:
        raise ValueError("parameter grid must be nonempty")
    if sorted(grid) != grid:
        raise ValueError("parameter grid must be sorted")
    return grid


def _sweep_meta(problem, cfg: SolverConfig, warm_start: bool, t0: float, **extra) -> dict:
    """A sweep table's metadata; ``t0`` is the perf_counter at its start."""
    return {"problem_hash": _problem_hash(problem), "cfg": dict(cfg.__dict__),
            "warm_start": warm_start, "wall_time": time.perf_counter() - t0, **extra}


def _speculative_bisect(merit_many, tol: float, lo: float, hi: float, iters: int, samples):
    """``hi`` after ``iters`` bisection steps on [lo, hi], each moving hi to
    the midpoint where merit <= tol and lo otherwise.  Speculated in rounds:
    guess the threshold g as the secant root of merit - tol through the two
    largest-t unsolved (t, merit) samples seen so far (``samples`` seeds them;
    with fewer, g = lo), build the path the steps take if exactly the
    midpoints >= g hold, each with the step's own 0.5 * (lo + hi), test it in
    one ``merit_many`` call and keep the steps up to and including the first
    verdict the guess got wrong.  Every kept step is the step-by-step loop's,
    so the result equals its for any merit; the guess moves only the number
    of calls.  Rounds group t values differently from the loop, so a row's
    merit must not depend on its batch-mates (true on the orthant; see the
    README on face-table cones)."""
    misses = sorted((t, m) for t, m in samples if not m <= tol)[-2:]
    while iters > 0:
        g = lo
        if len(misses) == 2 and misses[0][1] > misses[1][1]:
            (t1, m1), (t2, m2) = misses
            g = t2 + (m2 - tol) * (t2 - t1) / (m1 - m2)
        ts, a, b = [], lo, hi
        for _ in range(iters):
            mid = 0.5 * (a + b)
            ts.append(mid)
            a, b = (a, mid) if mid >= g else (mid, b)
        merits = merit_many(np.array(ts)).tolist()
        for t, m in zip(ts, merits):
            iters -= 1
            lo, hi = (lo, t) if m <= tol else (t, hi)
            if (m <= tol) != (t >= g):
                break
        misses = sorted(misses + [(t, m) for t, m in zip(ts, merits) if not m <= tol])[-2:]
    return hi


def _first_solved(at, origin, v, kappa, tol, hi, iters, samples):
    """Bisected least t in (0, hi] with merit(origin + t*v) <= tol, at the
    view ``at`` of the row's parameter (as every helper below)."""
    return _speculative_bisect(lambda ts: at.merit_many(origin + ts[:, None] * v, kappa),
                               tol, 0.0, hi, iters, samples)


def _segment_pullback(at, x_from, x_to, kappa: float, tol: float,
                      iters: int = 45) -> np.ndarray:
    """Earliest point on the segment [x_from, x_to] with merit <= tol.

    Keeps the tracked selection close to the anchor instead of overshooting
    into the solution set's interior; for the catalog the merit is convex
    along segments, so the feasible part is a tail interval and bisection
    is exact."""
    x_from = np.asarray(x_from, dtype=float)
    v = np.asarray(x_to, dtype=float) - x_from
    if (m_from := at.merit(x_from, kappa)) <= tol:
        return x_from
    return x_from + _first_solved(at, x_from, v, kappa, tol, 1.0, iters, [(0.0, m_from)]) * v


def _ray_entry(at, anchor, v, kappa, tol, t_hint, samples, iters=48):
    """First entry parameter of the ray anchor + t*v into the solved set,
    given (t, merit) ``samples`` already known on it; math.inf when no
    feasible point is bracketed near the hint."""
    ts = t_hint * np.array([1.0, 1.3, 1.8, 2.6, 4.0])
    ms = at.merit_many(anchor + ts[:, None] * v, kappa)
    feas = np.flatnonzero(ms <= tol)
    if not feas.size:
        return math.inf
    return _first_solved(at, anchor, v, kappa, tol, float(ts[feas[0]]), iters,
                         [*samples, *zip(ts.tolist(), ms.tolist())])


def _anchored_projection_2d(at, anchor, x_feas, kappa, tol):
    """Approximate nearest point of the solved set to the anchor (n = 2).

    Parametrizes rays from the anchor by angle and minimizes the entry
    distance by golden section, warm-started at the direction of the
    supplied feasible point.  Tracking this projection gives the sweep a
    drift-free selection: the anchor never moves, so step ratios reflect
    the selection's true speed."""
    anchor = np.asarray(anchor, dtype=float)
    if (m_anchor := at.merit(anchor, kappa)) <= tol:
        return anchor.copy()
    gap = np.asarray(x_feas, float) - anchor
    base_t = float(np.linalg.norm(gap))
    if base_t <= tol:
        return np.asarray(x_feas, float)
    theta = math.atan2(gap[1], gap[0])

    def entry(th, hint):
        v = np.array([math.cos(th), math.sin(th)])
        return _ray_entry(at, anchor, v, kappa, tol, hint, [(0.0, m_anchor)])

    best_t, best_th = base_t, theta
    window = 0.35
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(4):  # re-center when the minimum sits on the bracket edge
        center = best_th
        a, b = center - window, center + window
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = entry(c, best_t), entry(d, best_t)
        for _ in range(36):
            hint = min(v for v in (best_t, fc, fd) if not math.isinf(v))
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = entry(c, hint)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = entry(d, hint)
        th = 0.5 * (a + b)
        t = entry(th, best_t)
        if t < best_t:
            best_t, best_th = t, th
        if abs(best_th - center) < window * 0.9:
            break
        window *= 2.0
    v = np.array([math.cos(best_th), math.sin(best_th)])
    return anchor + best_t * v


def _solve_row(problem, p: float, x_start: np.ndarray,
               cfg: SolverConfig, anchor: np.ndarray) -> SweepRow:
    res = solve(problem, p, x_start, cfg)
    if res.stop != "converged":
        return SweepRow(p=float(p), x=res.x_final, merit=res.merit_final,
                        bound_rhs=math.nan, bound_holds=False, solved=False,
                        warm_start=np.asarray(x_start, float))
    x_row, at = res.x_final, problem.at(p)
    if res.iterations > 0:
        # record a selection tied to the anchor: its metric projection
        # onto the solution set in n = 2, else the segment pullback
        if len(x_row) == 2:
            x_row = _anchored_projection_2d(at, anchor, x_row, res.kappa, cfg.tol)
        else:
            x_row = _segment_pullback(at, anchor, x_row, res.kappa, cfg.tol)
    m_row = at.merit(x_row, res.kappa)
    bound_holds = (float(np.linalg.norm(x_row - np.asarray(x_start, float)))
                   <= res.bound_rhs + cfg.tol)
    return SweepRow(p=float(p), x=x_row, merit=m_row,
                    bound_rhs=res.bound_rhs, bound_holds=bound_holds,
                    solved=m_row <= cfg.tol,
                    iterations=res.iterations, warm_start=np.asarray(x_start, float))


def sweep(problem, grid: Sequence[float], x_init,
          cfg: Optional[SolverConfig] = None, warm_start: bool = True) -> SweepTable:
    """Solve along a sorted grid; warm-started by default, or cold-started
    from x_init on every row (row i seeded with cfg.rng_seed + i)."""
    cfg = cfg or SolverConfig()
    grid = _sorted_grid(grid)
    x_init = np.asarray(x_init, dtype=float)
    t0 = time.perf_counter()
    rows: list[SweepRow] = []
    for i, p in enumerate(grid):
        if warm_start:  # from the last row's best available iterate, solved or not
            x_start, row_cfg = rows[-1].x if rows else x_init, cfg
        else:
            x_start, row_cfg = x_init, replace(cfg, rng_seed=cfg.rng_seed + i)
        rows.append(_solve_row(problem, p, x_start, row_cfg, x_init))
    return SweepTable(rows=rows, meta=_sweep_meta(problem, cfg, warm_start, t0))


def continuity_report(table: SweepTable) -> ContinuityReport:
    """Step-ratio diagnostic over consecutive solved rows: a numerical
    surrogate for continuity of the tracked selection.  A step is flagged
    above 10x the median ratio (scale-free jump detection)."""
    if len(table.rows) < 2:
        raise TooFewRows("continuity diagnostics need at least two rows")
    ratios, idx_pairs = [], []
    for i in range(len(table.rows) - 1):
        a, b = table.rows[i], table.rows[i + 1]
        if not (a.solved and b.solved):
            continue
        dp = b.p - a.p
        if dp <= 0:
            continue
        ratios.append(float(np.linalg.norm(b.x - a.x)) / dp)
        idx_pairs.append(i + 1)
    threshold_ratio = 10.0 * float(np.median(ratios)) if ratios else math.inf
    flags = [i for i, rr in zip(idx_pairs, ratios) if rr > threshold_ratio]
    runs = (list(g) for solved, g in itertools.groupby(table.rows, lambda r: r.solved) if not solved)
    unsolved = [(run[0].p, run[-1].p) for run in runs]
    return ContinuityReport(
        max_step_ratio=float(max(ratios)) if ratios else 0.0,
        discontinuity_flags=flags,
        unsolved_runs=unsolved,
        threshold_ratio=float(threshold_ratio),
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def csv_header(dim_x: int, dim_val: int = 0, oracle: bool = False) -> list:
    cols = ["p"] + [f"x_{i + 1}" for i in range(dim_x)]
    cols += ["merit", "bound_rhs", "bound_holds", "solved"]
    cols += [f"val_{i + 1}" for i in range(dim_val)]
    if oracle:
        cols.append("oracle_status")
    return cols


def write_csv(table: SweepTable, path, oracle_statuses: Optional[list] = None) -> None:
    """Emit the sweep as CSV with the documented fixed column order."""
    dim_x = len(table.rows[0].x)
    dim_val = len(table.rows[0].value) if table.rows[0].value is not None else 0
    cols = csv_header(dim_x, dim_val, oracle_statuses is not None)
    lines = [",".join(cols)]
    for i, r in enumerate(table.rows):
        cells = [repr(float(r.p))]
        cells += [repr(float(v)) for v in r.x]
        cells += [repr(float(r.merit)), repr(float(r.bound_rhs)),
                  "true" if r.bound_holds else "false",
                  "true" if r.solved else "false"]
        if dim_val:
            cells += [repr(float(v)) for v in r.value]
        if oracle_statuses is not None:
            cells.append(str(oracle_statuses[i]))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
