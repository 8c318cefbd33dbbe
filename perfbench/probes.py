"""Geometry probe table: time per point of the distance kernels at batch
sizes 1, 64 and 512, one shape per distance path, with every answer checked
against ``project_dist``."""
from __future__ import annotations

import statistics
import time

import numpy as np

from svikit import geometry
from svikit.problems import TRIANGLE_VERTICES

BATCHES = (1, 64, 512)
SAMPLES = 5
MIN_SAMPLE_S = 0.002


def shapes() -> dict:
    cone3 = geometry.PolyCone(np.array([[1.0, 0.0, 0.4], [0.0, 1.0, 0.4],
                                        [-0.6, 0.1, 1.0], [0.2, -0.7, 1.0]]))
    return {
        "orthant2": geometry.orthant(2),
        "wedge2": geometry.PolyCone(np.array([[1.0, 0.25], [0.2, 1.0]])),
        "cone3": cone3,
        "cone4": geometry.PolyCone(np.array([[1.0, 0.0, 0.0, 0.3], [0.0, 1.0, 0.0, 0.3],
                                             [0.0, 0.0, 1.0, 0.3], [-0.4, -0.4, -0.4, 1.0],
                                             [0.5, 0.2, -0.3, 1.0]])),
        "segcone2": geometry.SumSet(geometry.VPolytope(np.array([[0.0, 0.0], [1.0, 0.5]])),
                                    geometry.orthant(2)),
        "polytope2": geometry.VPolytope(TRIANGLE_VERTICES),
        "polycone3": geometry.SumSet(
            geometry.VPolytope(np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.0],
                                         [0.1, 1.0, 0.3], [0.3, 0.3, 1.0]])), cone3),
    }


def _kernel(shape):
    if isinstance(shape, geometry.PolyCone):
        return shape.distances
    return lambda pts: geometry.dist_many(pts, shape)


def _seconds_per_call(fn, pts) -> float:
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(pts)
        if time.perf_counter() - t0 >= MIN_SAMPLE_S:
            break
        reps *= 4
    samples = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(pts)
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples)


def probe_table(seed: int):
    """Return ({metric: microseconds per point}, {shape: max |probe - project_dist|})."""
    rng = np.random.default_rng([seed, 7])
    metrics, errors = {}, {}
    for name, shape in shapes().items():
        dim = shape.dim
        pts = 2.0 * rng.standard_normal((max(BATCHES), dim))
        kernel = _kernel(shape)
        ref = np.array([geometry.project_dist(y, shape)[1] for y in pts])
        worst = 0.0
        for b in BATCHES:
            batch = pts[:b]
            worst = max(worst, float(np.max(np.abs(kernel(batch) - ref[:b]))))
            metrics[f"geometry.probe.{name}.b{b}.us_per_pt"] = \
                1e6 * _seconds_per_call(kernel, batch) / b
        errors[name] = worst
    return metrics, errors
