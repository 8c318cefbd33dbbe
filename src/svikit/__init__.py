"""svikit: a solver toolkit for parameterized set-valued inclusion problems
over polyhedral cones, with descent certificates, increase-bound estimation,
warm-started continuation, and ideal efficiency for parametric vector
optimization."""

__version__ = "0.1.0"

from .geometry import (GEOM_TOL, InclusionResult, PolyCone, SumSet, Verdict,
                       VPolytope, enlargement_inclusion, excess, hausdorff,
                       orthant, project_dist)
from .increase import (IncreaseEstimate, PropertyAbsent, SamplingConfig,
                       check_increase, estimate_bound, global_infimum,
                       perturbed_bound)
from .parametric import (ContinuityReport, SweepTable, continuity_report,
                         sweep, write_csv)
from .setmaps import (AbsComponent, AllSpace, Ball, Box, ConcaveTerm, FanSpec,
                      PolytopeSet, RotationScaled, SviProblem, evaluate,
                      problem_from_dict)
from .solver import (SolveResult, SolverConfig, caristi_step, segment_step,
                     solve)
from .vopt import (AbsDeviation, AffineFamily, IdealResult, VopSpec,
                   brute_force_ideal, ideal_value_sweep, solve_ideal)

__all__ = [name for name in dir() if not name.startswith("_")]
