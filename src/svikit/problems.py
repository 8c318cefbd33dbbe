"""Bundled example instances and problem-file round-tripping.

The JSON problem format mirrors the data model one-to-one: an inclusion
problem carries ``matrix``/``h``/``fan``/``cone``/``constraint`` sections, a
vector-optimization problem carries ``objective``/``constraint``/``cone``.
Numbers are parsed as doubles; bit-exactness of the files is not required.
"""
from __future__ import annotations

import json
import math
from typing import Optional, Union

import numpy as np

from .geometry import VPolytope, orthant
from .setmaps import (AbsComponent, AllSpace, Box, ConcaveTerm, FanSpec,
                      PolytopeSet, RotationScaled, SviProblem, _Knots,
                      problem_from_dict)
from .vopt import AbsDeviation, AffineFamily, VopSpec, vop_spec_from_dict


def rotation_inclusion_problem(scale: float = 3.0, clockwise: bool = False,
                               with_h: bool = True, with_fan: bool = True,
                               constraint=None,
                               declared_alpha: Optional[float] = None) -> SviProblem:
    """The rescaled-rotation instance: M(p) = scale * O_p with the concave
    offset (-1 - |x1|/4, -1 - |x2|/4) and the fan generated by +-I/4.

    With the default data the perturbation budget is 1/2 and the increase
    constant of the matrix part is scale/sqrt(2) + 1, so the declared global
    bound defaults to (1/2) * (scale/sqrt(2) + 1).
    """
    h = ConcaveTerm((AbsComponent(-1.0, 0.0, -0.25, 0.0, 0),
                     AbsComponent(-1.0, 0.0, -0.25, 0.0, 1))) if with_h else None
    fan = FanSpec(np.array([0.25 * np.eye(2), -0.25 * np.eye(2)])) if with_fan else None
    ell = (0.25 if with_h else 0.0) + (0.25 if with_fan else 0.0)
    if declared_alpha is None:
        declared_alpha = (1.0 - ell) * (scale / math.sqrt(2.0) + 1.0)
    return SviProblem(matrix=RotationScaled(scale, clockwise), cone=orthant(2), h=h, fan=fan,
                      constraint=AllSpace() if constraint is None else constraint,
                      declared_alpha=declared_alpha)


def rotation_solution_path(p: float) -> np.ndarray:
    """Closed-form solution branch of the rotation instance: the unit vector
    at angle pi/4 - p."""
    return np.array([math.cos(math.pi / 4.0 - p), math.sin(math.pi / 4.0 - p)])


def boxed_rotation_problem(half_width: float = 2.0, **kwargs) -> SviProblem:
    """The rotation instance constrained to the centered box of the given
    half width."""
    box = Box([-half_width, -half_width], [half_width, half_width])
    return rotation_inclusion_problem(constraint=box, **kwargs)


TRIANGLE_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def triangle_vop_spec(clockwise: bool = True, scale: float = 1.0) -> VopSpec:
    """Rotation objective over the unit simplex triangle, ordered by the
    plane orthant.  The orientation flag is surfaced because the two
    conventions chart different ideal-point schedules; the bundled default
    is the clockwise action (see the oracle tests for the adopted record)."""
    return VopSpec(objective=AffineFamily(RotationScaled(scale, clockwise)),
                   constraint=PolytopeSet(VPolytope(TRIANGLE_VERTICES)),
                   cone=orthant(2),
                   objective_lipschitz=float(scale))


def deviation_vop_spec(phi_values, p_knots, components: int = 2) -> VopSpec:
    """Deviation objective f(p, x) = (|x - phi(p)|, ..) with phi given on
    knots (piecewise linear); unconstrained scalar decision variable."""
    return VopSpec(objective=AbsDeviation(_Knots(p_knots, phi_values), components),
                   constraint=AllSpace(),
                   cone=orthant(components),
                   objective_lipschitz=math.sqrt(components))


def sine_deviation_spec(n_knots: int = 257, span: float = 2.0 * math.pi,
                        components: int = 2) -> VopSpec:
    ps = np.linspace(0.0, span, n_knots)
    return deviation_vop_spec(np.sin(ps), ps, components)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

ProblemLike = Union[SviProblem, VopSpec]


def write_problem_file(path, problem: ProblemLike) -> None:
    with open(path, "w") as fh:
        json.dump(problem.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_problem_file(path) -> ProblemLike:
    """Load either problem kind; vector-optimization files are recognized by
    their ``objective`` section."""
    with open(path) as fh:
        data = json.load(fh)
    if "objective" in data:
        return vop_spec_from_dict(data)
    return problem_from_dict(data)
