"""The benchmark's four workloads.

Each workload turns the run seed into a stream of units, runs one unit at
a time, and checks every item of a unit after the timed region.  A unit is
one item (a solve, a bound estimate) or one sweep whose rows are the items;
sweep rows are timed by marking each call of the per-row function that the
sweep issues (``row_hook``).

Most inputs come from a randomly shifted Kronecker sequence: the shift
varies with the seed, and every run covers the input space evenly, so a
run's averages do not hinge on a few unlucky draws.  triangle-ideal, whose
row costs jump erratically with p, walks one fixed set of rows instead.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from svikit import geometry, increase, parametric, problems, solver, vopt
from svikit.increase import SamplingConfig
from svikit.solver import SolverConfig

TWO_PI = 2.0 * math.pi
STEP = TWO_PI / 64
SWEEP_ROWS = 65             # one full turn of p at STEP, as in criteria 5 and 7
COLD_GRID = 257
ROT_FLOOR = 0.5 * (3.0 / math.sqrt(2.0) + 1.0) - 0.1   # criterion 3
TRI_ALPHA = 1.0 / math.sqrt(2.0) + 1.0
TRI_START = (0.3, 0.3)      # criterion 7's warm start
TRI_GRID = 64               # the distinct rows of a 65-row sweep
TRI_STRIDE = 39             # about 64 / golden ratio, coprime to 64
TRI_BREAKS = (0.0, math.pi / 2, 3 * math.pi / 4, 5 * math.pi / 4,
              3 * math.pi / 2, TWO_PI)


def kronecker(seed: int, dim: int, stream: int):
    """Points of the R_d sequence in [0, 1)^dim, shifted by a seeded offset."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    alpha = g ** -np.arange(1.0, dim + 1.0)
    shift = np.random.default_rng([seed, stream]).random(dim)
    j = 0
    while True:
        yield (shift + j * alpha) % 1.0
        j += 1


def setup(name: str, workdir: str):
    """Build the workload's problem the way the CLI does: write the bundled
    instance to a problem file and parse it back."""
    proto = (problems.triangle_vop_spec(clockwise=True) if name == "triangle-ideal"
             else problems.rotation_inclusion_problem())
    path = os.path.join(workdir, f"{name}.json")
    problems.write_problem_file(path, proto)
    return problems.load_problem_file(path), path


@dataclass
class Unit:
    args: tuple
    rows: int = 1


class Workload:
    row_hook = None      # (module, attribute) called once per sweep row
    digest_block = 1     # units per recorded output digest
    repeats = 1          # timed runs of each unit in the end-to-end loop
    repeat_block = 1     # units run in turn between two runs of one unit

    def __init__(self, problem, seed: int, workdir: str):
        self.problem = problem
        self.seed = seed
        self.workdir = workdir

    def first_unit(self) -> Unit:
        return next(iter(self.stream()))

    def _csv_bytes(self, table, statuses=None) -> bytes:
        path = os.path.join(self.workdir, "digest.csv")
        parametric.write_csv(table, path, oracle_statuses=statuses)
        with open(path, "rb") as fh:
            return fh.read()


class RotationCold(Workload):
    """Cold solves: the scalar merit and the descent loop, nothing else."""

    name = "rotation-cold"
    digest_block = COLD_GRID
    # Items of about a millisecond: a slow spell of the machine lands whole
    # on a few items, and the slowest items of a run were mostly such hits
    # (rerun, they took half the time).  Three runs of each item, a quarter
    # of a second apart, and the least of them.
    repeats = 3
    repeat_block = 256
    cfg = SolverConfig(alpha=1.5, tol=1e-8, rng_seed=0)

    def trace_units(self):
        x0 = (np.zeros(2) if self.seed == 0
              else np.random.default_rng([self.seed, 1]).uniform(-2.0, 2.0, 2))
        return [Unit((float(p), x0)) for p in np.linspace(0.0, TWO_PI, COLD_GRID)]

    def audit_units(self):
        return self.trace_units()[:16]

    def warmup_units(self):
        return self.trace_units()[:4]

    def stream(self):
        for j, u in enumerate(kronecker(self.seed, 3, 0)):
            x0 = np.zeros(2) if j % 8 == 0 else 4.0 * u[1:] - 2.0
            yield Unit((TWO_PI * float(u[0]), x0))

    def run(self, unit):
        p, x0 = unit.args
        return solver.solve(self.problem, p, x0, self.cfg)

    def failures(self, unit, res) -> int:
        return 0 if res.merit_final <= 1e-8 and res.bound_holds else 1

    def output_bytes(self, unit, res) -> bytes:
        return np.asarray(res.x_final, dtype="<f8").tobytes()


def _turn(phase: float, rows: int = SWEEP_ROWS) -> np.ndarray:
    """Sweep grid from ``phase``: a full turn of the periodic instances, so
    every sweep meets the same mix of easy and hard rows."""
    return phase + STEP * np.arange(rows)


class SweepWorkload(Workload):
    """Trace set: one 65-row sweep from a seeded phase (phase 0 at seed 0,
    the criterion grid)."""

    def _phase(self) -> float:
        return 0.0 if self.seed == 0 else TWO_PI * np.random.default_rng([self.seed, 1]).random()

    def trace_units(self):
        return [Unit((_turn(self._phase()),), SWEEP_ROWS)]

    def audit_units(self):
        return [Unit((_turn(self._phase(), 3),), 3)]

    def warmup_units(self):
        return [Unit((_turn(1.0, 2),), 2)]


class RotationWarm(SweepWorkload):
    """Warm-started sweep rows anchored at the origin: the anchored
    projection in ``parametric`` dominates."""

    name = "rotation-warm"
    row_hook = (parametric, "solve")
    # Rows cost much the same, so the slowest rows of a run are those a slow
    # spell of the machine hit.  Three runs of each sweep, so that the runs
    # of one row lie a sweep apart, and the least per row.
    repeats = 3
    cfg = SolverConfig(alpha=1.5, tol=1e-8, rng_seed=0)

    def stream(self):
        for u in kronecker(self.seed, 1, 0):
            yield Unit((_turn(TWO_PI * float(u[0])),), SWEEP_ROWS)

    def run(self, unit):
        (grid,) = unit.args
        return parametric.sweep(self.problem, grid, [0.0, 0.0], self.cfg)

    def failures(self, unit, table) -> int:
        if len(table.rows) >= 2 and parametric.continuity_report(table).max_step_ratio > 2.0:
            return unit.rows  # criterion 5 fails for the whole sweep
        return sum(1 for r in table.rows if not (r.solved and r.bound_holds))

    def output_bytes(self, unit, table) -> bytes:
        return self._csv_bytes(table)


def _triangle_schedule(q: float):
    """Criterion 7's ideal point at p = q (mod 2 pi), None where the ideal
    set is empty."""
    if math.isclose(q, 0.0, abs_tol=1e-12) or math.isclose(q, TWO_PI, abs_tol=1e-12):
        return (0.0, 0.0)
    if math.pi / 2 <= q <= 3 * math.pi / 4:
        return (1.0, 0.0)
    if 5 * math.pi / 4 <= q <= 3 * math.pi / 2:
        return (0.0, 1.0)
    return None


class TriangleIdeal(SweepWorkload):
    """Ideal-value sweep rows with the oracle: constrained, penalized
    descent, the 2-D polytope projection and the brute-force oracle."""

    name = "triangle-ideal"
    digest_block = 16
    # Each run times every row of the walk three times, a walk apart, and
    # keeps the least per row: the same rows in every run, and no slow spell
    # of the machine in the row times.
    repeats = 3
    repeat_block = TRI_GRID
    cfg = SolverConfig(rng_seed=0)

    def stream(self):
        # One-row sweeps, so that no row's cost hangs on where a warm-start
        # chain enters it.  Empty rows cost erratically in p, so every run
        # walks the rows of a 65-row sweep in full, in a golden-ratio stride
        # from a seeded start, before it repeats any.
        grid = TWO_PI / TRI_GRID * np.arange(TRI_GRID)
        j = int(np.random.default_rng([self.seed, 2]).integers(TRI_GRID))
        while True:
            yield Unit((grid[j:j + 1],))
            j = (j + TRI_STRIDE) % TRI_GRID

    def run(self, unit):
        (grid,) = unit.args
        return vopt.ideal_value_sweep(self.problem, grid, TRI_START, self.cfg,
                                      alpha_under=TRI_ALPHA, with_oracle=True,
                                      oracle_density=32)

    def failures(self, unit, table) -> int:
        bad = 0
        for row, status in zip(table.rows, table.meta["statuses"]):
            q = row.p % TWO_PI
            if any(abs(q - b) <= STEP + 1e-12 for b in TRI_BREAKS):
                continue  # one grid step of slack at the schedule's breaks
            expected = _triangle_schedule(q)
            oracle_ideal = status == "ideal"
            ok = (oracle_ideal == (expected is not None) and row.solved == oracle_ideal
                  and (expected is None or np.allclose(row.x, expected, atol=1e-6)))
            bad += not ok
        return bad

    def output_bytes(self, unit, table) -> bytes:
        return self._csv_bytes(table, table.meta["statuses"])


class RotationIncrease(Workload):
    """Increase-bound brackets: witness search in ``increase`` and the
    non-orthant distance paths of ``geometry``."""

    name = "rotation-increase"
    scfg = SamplingConfig(bracket_rtol=0.05, directions=64)

    def trace_units(self):
        stream = self.stream()
        return [next(stream) for _ in range(8)]

    def audit_units(self):
        return self.trace_units()[:1]

    def warmup_units(self):
        return self.trace_units()[:1]

    def stream(self):
        for u in kronecker(self.seed, 3, 0):
            yield Unit((TWO_PI * float(u[0]), 4.0 * u[1:] - 2.0))

    def _map_at(self, p):
        return lambda xx: self.problem.evaluate(p, xx)

    def run(self, unit):
        p, x = unit.args
        return increase.estimate_bound(self._map_at(p), self.problem.cone, x, self.scfg,
                                       hints=increase.hints_for_problem(self.problem, p),
                                       p_for_seed=p)

    def failures(self, unit, est) -> int:
        return 0 if est.alpha_lo >= ROT_FLOOR and self.witnesses_hold(unit, est) else 1

    def witnesses_hold(self, unit, est) -> bool:
        """Recheck each stored (r, u) witness of alpha_lo with the same
        inclusion test the witness search uses."""
        p, x = unit.args
        g = self._map_at(p)
        target = geometry.SumSet(g(x), self.problem.cone)
        cfg = self.scfg
        return all(
            geometry.enlargement_inclusion(g(u), est.alpha_lo * r, target, r,
                                           dirs=cfg.directions, tol=cfg.tolerance,
                                           rounds=cfg.refinement_rounds).holds
            for r, u in est.witnesses)

    def output_bytes(self, unit, est) -> bytes:
        parts = [est.alpha_lo, est.alpha_hi] + [v for r, u in est.witnesses for v in (r, *u)]
        return np.asarray(parts, dtype="<f8").tobytes()


WORKLOADS = {cls.name: cls for cls in (RotationCold, RotationWarm, TriangleIdeal,
                                       RotationIncrease)}
