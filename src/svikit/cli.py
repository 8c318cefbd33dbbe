"""Command-line front end.

Verbs: solve, sweep, estimate-inc, vopt, verify-props (the theorem's
hypotheses and constants, read off the file).  Exit codes: 0 on success, 1 on
usage/parse errors, 2 on solver failure or a hypothesis that reads FAIL, 3 on
internal errors.  SVI_LOG sets the logging level by name (default warning,
which any name that is no level reads as); the one record is an internal
error's traceback (the library logs nothing).
"""
from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import replace
from functools import cache, partial

import numpy as np

from . import __version__
from .increase import PropertyAbsent, SamplingConfig, global_infimum
from .parametric import continuity_report, sweep, write_csv
from .problems import load_problem_file
from .setmaps import ImageOverflow, KnotRangeError, RotationScaled, SviProblem, is_all_space
from .solver import DescentConstantsError, SolverConfig, solve
from .vopt import FOUND, NOT_FOUND, AffineFamily, VopSpec, ideal_value_sweep, solve_ideal

log = logging.getLogger("svi")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is 1
        raise UsageError(message)


def _finite(text: str, above: float = -math.inf, kind: type = float):
    """A flag's value: a finite number of ``kind`` (float or int) above ``above``."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if value != value or abs(value) == math.inf:  # an int may be past the float range
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite {kind.__name__}")
    if value <= above:
        raise argparse.ArgumentTypeError(f"{text!r} is not greater than {above:g}")
    return value


def _parse_vector(text: str, dim: int) -> np.ndarray:
    """A finite comma-separated point with ``dim`` entries."""
    try:
        vec = np.array([float(tok) for tok in text.split(",")])
    except ValueError as err:
        raise UsageError(f"cannot parse vector {text!r}: {err}") from None
    if not np.all(np.isfinite(vec)):
        raise UsageError(f"vector {text!r} has non-finite entries")
    if len(vec) != dim:
        raise UsageError(f"vector {text!r} has {len(vec)} entries; the problem has "
                         f"{dim} inputs")
    return vec


def start_stop_count(text: str) -> np.ndarray:
    """A grid flag's value, start:stop:count with inclusive endpoints (argparse reports a
    part that does not parse, or a count past numpy's range, as its ValueError, and a
    grid that cannot be allocated by its flag)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid spec {text!r} must be start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be positive")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"grid {text!r} has non-finite bounds")
    if start > stop:
        raise argparse.ArgumentTypeError(f"grid {text!r} runs downward; start exceeds stop")
    try:
        return np.linspace(start, stop, count)
    except MemoryError:
        raise argparse.ArgumentTypeError(f"grid {text!r} cannot be allocated") from None


def _load(args, kind=object):
    """The problem file ``args.problem``, which must be of ``kind``."""
    try:  # a missing or unreadable file is an OSError, a usage error too
        problem = load_problem_file(args.problem)
    except (ValueError, KeyError, TypeError) as err:
        raise UsageError(f"cannot parse problem file {args.problem}: {err}") from None
    if not isinstance(problem, kind):
        raise UsageError(f"{args.verb} expects " + ("an inclusion problem file (use vopt instead)"
                         if kind is SviProblem else "a vector-optimization problem file"))
    return problem


def _solver_cfg(args) -> SolverConfig:
    flags = {"alpha": args.alpha, "alpha_tilde": args.alpha_tilde, "tol": args.tol,
             "rng_seed": args.seed}
    return SolverConfig(**{k: v for k, v in flags.items() if v is not None})


@cache  # one parser serves every call of main
def _build_parser() -> _Parser:
    parser = _Parser(prog="svi", description=__doc__)
    parser.add_argument("--version", action="version", version=f"svi {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    # each verb takes only the flags it reads
    def common(sp, solver=False, out=False):
        sp.add_argument("--problem", required=True, help="problem file (JSON)")
        sp.add_argument("--seed", type=partial(_finite, above=-1, kind=int), default=0)
        if solver:
            sp.add_argument("--tol", type=partial(_finite, above=0.0), default=None)
            sp.add_argument("--alpha", type=partial(_finite, above=1.0), default=None)
            sp.add_argument("--alpha-tilde", dest="alpha_tilde",
                            type=partial(_finite, above=1.0), default=None)
        if out:
            sp.add_argument("--out", default=None, help="output file (CSV)")

    sp = sub.add_parser("solve", help="solve at one parameter value")
    common(sp, solver=True)
    sp.add_argument("--p", type=_finite, required=True)
    sp.add_argument("--x0", required=True, help="comma-separated start point")

    sp = sub.add_parser("sweep", help="warm-started parameter sweep")
    common(sp, solver=True, out=True)
    sp.add_argument("--grid", type=start_stop_count, required=True, help="start:stop:count")
    sp.add_argument("--x0", required=True)
    sp.add_argument("--cold-start", action="store_true")

    sp = sub.add_parser("estimate-inc", help="bracket the increase/decrease bound "
                        "(the problem kind picks which)")
    common(sp, out=True)
    at = sp.add_mutually_exclusive_group(required=True)
    at.add_argument("--p-grid", type=start_stop_count, help="start:stop:count")
    at.add_argument("--p", type=_finite)
    sp.add_argument("--x-samples", default=8, type=partial(_finite, above=0, kind=int))

    sp = sub.add_parser("vopt", help="ideal-efficiency solve or sweep")
    common(sp, solver=True, out=True)
    at = sp.add_mutually_exclusive_group(required=True)
    at.add_argument("--p", type=_finite)
    at.add_argument("--grid", type=start_stop_count, help="start:stop:count")
    sp.add_argument("--x0", required=True)
    sp.add_argument("--oracle", action="store_true",
                    help="print the exact oracle's verdict, or with --grid write it")
    sp.add_argument("--orientation", choices=["cw", "ccw"], default=None,
                    help="turn the objective's rotation_scaled matrix clockwise "
                         "(cw) or counterclockwise (ccw)")

    sub.add_parser("verify-props", help="print the theorem's hypotheses and constants "
                   "for the problem").add_argument("--problem", required=True)
    return parser


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    problem = _load(args, SviProblem)
    cfg = _solver_cfg(args)
    res = solve(problem, args.p, _parse_vector(args.x0, problem.dim_in), cfg)
    if res.stop != "converged":
        print(f"solver failure: {res.stop} at x={res.x_final.tolist()} "
              f"(merit {res.merit_final:.3e}, {res.iterations} iterations)", file=sys.stderr)
        return EXIT_SOLVER
    print(f"p = {args.p}")
    print(f"x_final = {res.x_final.tolist()}")
    print(f"merit_final = {res.merit_final:.3e}")
    print(f"iterations = {res.iterations}")
    print(f"path_length = {res.path_length:.6f}")
    print(f"alpha = {res.alpha_used:.6f}  kappa = {res.kappa:.6f}")
    print(f"bound_rhs = {res.bound_rhs:.6f}")
    print(f"bound_holds = {str(res.bound_holds).lower()}")
    print(f"alpha_source = {res.alpha_source}")
    print(f"caristi_certified = {str(res.caristi_certified).lower()}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    problem = _load(args, SviProblem)
    cfg = _solver_cfg(args)
    table = sweep(problem, args.grid, _parse_vector(args.x0, problem.dim_in), cfg,
                  warm_start=not args.cold_start)
    solved = sum(1 for r in table.rows if r.solved)
    print(f"rows = {len(table.rows)}  solved = {solved}")
    if len(table.rows) >= 2:
        rep = continuity_report(table)
        print(f"max_step_ratio = {rep.max_step_ratio:.6f}")
        print(f"unsolved_runs = {rep.unsolved_runs}")
    if args.out:
        write_csv(table, args.out)
        print(f"wrote {args.out}")
    if solved < len(table.rows):
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_estimate(args) -> int:
    problem = _load(args)
    grid = args.p_grid if args.p is None else np.array([args.p])
    # the draw of count x n float64 coordinates must fit numpy's largest array
    if args.x_samples * problem.dim_in > np.iinfo(np.intp).max // 8:
        raise UsageError(f"--x-samples {args.x_samples} draws more than numpy's largest array")
    try:
        res = global_infimum(problem, grid, args.x_samples, SamplingConfig(seed=args.seed))
    except MemoryError:  # the count's draw, or the merits of all of it
        raise UsageError(f"--x-samples {args.x_samples} draws more than can be allocated") from None
    for p, x, est in res.estimates:
        print(f"p = {p:.6f}  x = {np.asarray(x).tolist()}  "
              f"alpha in [{est.alpha_lo:.5f}, {est.alpha_hi:.5f}]")
    print(f"global_infimum = {res.alpha:.6f} over {len(res.estimates)} samples")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("p,alpha_lo,alpha_hi\n")
            for p, x, est in res.estimates:
                fh.write(f"{p!r},{est.alpha_lo!r},{est.alpha_hi!r}\n")
    return EXIT_OK


def _cmd_vopt(args) -> int:
    spec = _load(args, VopSpec)
    if args.out is not None and args.grid is None:
        raise UsageError("vopt writes --out only for a --grid sweep")
    if args.orientation is not None:
        obj = spec.objective
        if not (isinstance(obj, AffineFamily) and isinstance(obj.matrix, RotationScaled)):
            raise UsageError("--orientation needs an affine objective with a "
                             "rotation_scaled matrix")
        matrix = replace(obj.matrix, clockwise=args.orientation == "cw")
        spec = replace(spec, objective=replace(obj, matrix=matrix))
    cfg = _solver_cfg(args)
    x0 = _parse_vector(args.x0, spec.objective.dim_in)
    if args.grid is not None:
        table = ideal_value_sweep(spec, args.grid, x0, cfg, with_oracle=args.oracle)
        solved = sum(1 for r in table.rows if r.solved)
        print(f"rows = {len(table.rows)}  solved = {solved}")
        if args.out:
            statuses = table.meta["statuses"] if args.oracle else None
            write_csv(table, args.out, oracle_statuses=statuses)
            print(f"wrote {args.out}")
        return EXIT_OK
    res = solve_ideal(spec, args.p, x0, cfg)
    print(f"status = {res.status}")
    if res.status == FOUND:
        print(f"x = {res.x.tolist()}")
        print(f"value = {res.value.tolist()}")
        print(f"merit_final = {res.merit_final:.3e}")
    print(f"alpha_source = {res.solve_result.alpha_source}")
    print(f"caristi_certified = {str(res.solve_result.caristi_certified).lower()}")
    if args.oracle or res.status != FOUND:
        print(f"oracle = {res.oracle.status}")
    return EXIT_SOLVER if res.status == NOT_FOUND else EXIT_OK


def _cmd_verify(args) -> int:
    problem = _load(args)
    ell, spec = problem.ell, isinstance(problem, VopSpec)
    verdicts = []

    def check(holds, text):  # holds None reads UNKNOWN
        verdicts.append(holds)
        print(f"{'UNKNOWN' if holds is None else 'PASS' if holds else 'FAIL':<7}  {text}")

    print(f"ell = {ell:.6g}")
    if spec:
        bound = problem.objective.lipschitz_bound
        check(ell >= bound * (1.0 - 1e-12), f"ell >= {bound:.6g}, the objective's Lipschitz bound")
    alpha = problem.declared_alpha  # what solve uses without --alpha-tilde
    if alpha is None:
        check(None, "alpha_tilde: none declared (svi estimate-inc brackets a sampled one)")
    else:
        print(f"alpha_tilde = {alpha:.6g} (declared)")
    constrained = not is_all_space(problem.constraint)
    floor = 1.0 + ell if constrained else 1.0
    check(None if alpha is None else alpha > floor, f"alpha_tilde > {floor:.6g}: the "
          + ("constrained theorem, else floor constants" if constrained else "unconstrained theorem"))
    matrix = getattr(problem.objective, "matrix", None) if spec else problem.matrix
    if matrix is not None:
        print(f"p_modulus = {matrix.p_modulus:.6g}: sup over p of ||dM/dp||_2")
        if verdicts[-1] and not (spec or constrained):  # alpha_tilde > 1
            print(f"solution_map_modulus = {matrix.p_modulus / (alpha - 1.0):.6g} per unit |x|: "
                  "p_modulus/(alpha_tilde - 1)")
    return EXIT_SOLVER if False in verdicts else EXIT_OK


# ---------------------------------------------------------------------------

_VERBS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "estimate-inc": _cmd_estimate,
    "vopt": _cmd_vopt,
    "verify-props": _cmd_verify,
}


def main(argv=None) -> int:
    # only a level's name: logging's other upper-case names (BASIC_FORMAT,
    # _STYLES) are no level, and basicConfig would raise on them
    level = getattr(logging, os.environ.get("SVI_LOG", "warning").upper(), None)
    logging.basicConfig(level=level if type(level) is int else logging.WARNING)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # an overflowing image or merit is reported as its error below, so
        # numpy's warning would only repeat it; set once, not per merit call
        with np.errstate(over="ignore"):
            return _VERBS[args.verb](args)
    except (UsageError, DescentConstantsError, KnotRangeError, ImageOverflow, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except PropertyAbsent as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports everything
        log.exception("internal error")
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
