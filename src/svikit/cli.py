"""Command-line front end.

Verbs: solve, sweep, estimate-inc, vopt, verify-props.  Exit codes: 0 on
success, 1 on usage/parse errors, 2 on solver or verification failure,
3 on internal errors.  Set SVI_LOG=debug|info|... for logging verbosity.
"""
from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from functools import partial

import numpy as np

from . import __version__
from .increase import PropertyAbsent, SamplingConfig, global_infimum
from .parametric import continuity_report, sweep, write_csv
from .problems import load_problem_file
from .setmaps import SviProblem, evaluate, is_all_space, lipschitz_budget, merit
from .solver import (DescentConstantsError, MaxItersExceeded, NoDescentStep,
                     SolverConfig, solve)
from .vopt import (FOUND, LinearRotation, VopSpec, decrease_infimum,
                   ideal_value_sweep, solve_ideal)

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


def _finite(text: str, above: float = -math.inf) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    if value <= above:
        raise argparse.ArgumentTypeError(f"{text!r} is not greater than {above:g}")
    return value


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer of at least 1")
    return value


def _parse_vector(text: str, dim: int) -> np.ndarray:
    """A finite comma-separated point with ``dim`` entries."""
    try:
        vec = np.array([float(tok) for tok in text.split(",") if tok != ""])
    except ValueError as err:
        raise UsageError(f"cannot parse vector {text!r}: {err}") from None
    if not np.all(np.isfinite(vec)):
        raise UsageError(f"vector {text!r} has non-finite entries")
    if len(vec) != dim:
        raise UsageError(f"vector {text!r} has {len(vec)} entries; the problem has "
                         f"{dim} inputs")
    return vec


def _parse_grid(text: str) -> np.ndarray:
    """start:stop:count with inclusive endpoints."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid spec {text!r} must be start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as err:
        raise UsageError(f"cannot parse grid {text!r}: {err}") from None
    if count < 1:
        raise UsageError("grid count must be positive")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"grid {text!r} has non-finite bounds")
    if start > stop:
        raise UsageError(f"grid {text!r} runs downward; start must not exceed stop")
    return np.linspace(start, stop, count)


def _load(path):
    if not os.path.exists(path):
        raise UsageError(f"problem file not found: {path}")
    try:
        return load_problem_file(path)
    except (ValueError, KeyError, TypeError) as err:
        raise UsageError(f"cannot parse problem file {path}: {err}") from None


def _solver_cfg(args) -> SolverConfig:
    flags = {"alpha": args.alpha, "alpha_tilde": args.alpha_tilde, "tol": args.tol,
             "rng_seed": args.seed}
    return SolverConfig(**{k: v for k, v in flags.items() if v is not None})


def _build_parser() -> _Parser:
    parser = _Parser(prog="svi", description=__doc__)
    parser.add_argument("--version", action="version", version=f"svi {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    # each verb takes only the flags it reads
    def common(sp, solver=False, out=False):
        sp.add_argument("--problem", required=True, help="problem file (JSON)")
        sp.add_argument("--seed", type=int, default=0)
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
    sp.add_argument("--grid", required=True, help="start:stop:count")
    sp.add_argument("--x0", required=True)
    sp.add_argument("--cold-start", action="store_true")

    sp = sub.add_parser("estimate-inc", help="bracket the increase/decrease bound "
                        "(the problem kind picks which)")
    common(sp, out=True)
    sp.add_argument("--p-grid", default=None, help="start:stop:count")
    sp.add_argument("--p", type=_finite, default=None)
    sp.add_argument("--x-samples", type=_count, default=8)

    sp = sub.add_parser("vopt", help="ideal-efficiency solve or sweep")
    common(sp, solver=True, out=True)
    sp.add_argument("--p", type=_finite, default=None)
    sp.add_argument("--grid", default=None, help="start:stop:count")
    sp.add_argument("--x0", required=True)
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check with the brute-force oracle")
    sp.add_argument("--orientation", choices=["cw", "ccw"], default=None,
                    help="override rotation orientation of the objective")

    sp = sub.add_parser("verify-props", help="run property suites on the problem")
    common(sp)
    sp.add_argument("--trials", type=_count, default=50)
    return parser


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    problem = _load(args.problem)
    if not isinstance(problem, SviProblem):
        raise UsageError("solve expects an inclusion problem file (use vopt instead)")
    cfg = _solver_cfg(args)
    res = solve(problem, args.p, _parse_vector(args.x0, problem.dim_in), cfg)
    print(f"p = {args.p}")
    print(f"x_final = {res.x_final.tolist()}")
    print(f"merit_final = {res.merit_final:.3e}")
    print(f"iterations = {res.iterations}")
    print(f"path_length = {res.path_length:.6f}")
    print(f"alpha = {res.alpha_used:.6f}  kappa = {res.kappa:.6f}")
    print(f"bound_rhs = {res.bound_rhs:.6f}")
    print(f"bound_holds = {str(res.bound_holds).lower()}")
    print(f"caristi_certified = {str(res.caristi_certified).lower()}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    problem = _load(args.problem)
    if not isinstance(problem, SviProblem):
        raise UsageError("sweep expects an inclusion problem file (use vopt instead)")
    cfg = _solver_cfg(args)
    grid = _parse_grid(args.grid)
    table = sweep(problem, grid, _parse_vector(args.x0, problem.dim_in), cfg,
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
    problem = _load(args.problem)
    if args.p_grid is not None and args.p is not None:
        raise UsageError("estimate-inc takes --p or --p-grid, not both")
    if args.p_grid is not None:
        grid = _parse_grid(args.p_grid)
    elif args.p is not None:
        grid = np.array([args.p])
    else:
        raise UsageError("estimate-inc needs --p or --p-grid")
    scfg = SamplingConfig(seed=args.seed)
    if isinstance(problem, SviProblem):
        res = global_infimum(problem, grid, args.x_samples, scfg,
                             constrained=not is_all_space(problem.constraint))
    else:
        res = decrease_infimum(problem, grid, args.x_samples, scfg)
    for p, x, est in res.estimates:
        print(f"p = {p:.6f}  x = {np.asarray(x).tolist()}  "
              f"alpha in [{est.alpha_lo:.5f}, {est.alpha_hi:.5f}]")
    print(f"global_infimum = {res.alpha:.6f} over {res.samples_used} samples")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("p,alpha_lo,alpha_hi\n")
            for p, x, est in res.estimates:
                fh.write(f"{p!r},{est.alpha_lo!r},{est.alpha_hi!r}\n")
    return EXIT_OK


def _cmd_vopt(args) -> int:
    spec = _load(args.problem)
    if not isinstance(spec, VopSpec):
        raise UsageError("vopt expects a vector-optimization problem file")
    if args.p is not None and args.grid is not None:
        raise UsageError("vopt takes --p or --grid, not both")
    if args.out is not None and args.grid is None:
        raise UsageError("vopt writes --out only for a --grid sweep")
    if args.orientation is not None:
        if not isinstance(spec.objective, LinearRotation):
            raise UsageError("--orientation needs a linear_rotation objective")
        obj = LinearRotation(spec.objective.scale, args.orientation == "cw")
        spec = VopSpec(obj, spec.constraint, spec.cone, spec.objective_lipschitz)
    cfg = _solver_cfg(args)
    x0 = _parse_vector(args.x0, spec.objective.dim_in)
    if args.grid is not None:
        grid = _parse_grid(args.grid)
        table = ideal_value_sweep(spec, grid, x0, cfg, with_oracle=args.oracle)
        solved = sum(1 for r in table.rows if r.solved)
        print(f"rows = {len(table.rows)}  solved = {solved}")
        if args.out:
            statuses = table.meta["statuses"] if args.oracle else None
            write_csv(table, args.out, oracle_statuses=statuses)
            print(f"wrote {args.out}")
        return EXIT_OK
    if args.p is None:
        raise UsageError("vopt needs --p or --grid")
    res = solve_ideal(spec, args.p, x0, cfg, certify_empty=args.oracle)
    print(f"status = {res.status}")
    if res.status == FOUND:
        print(f"x = {res.x.tolist()}")
        print(f"value = {res.value.tolist()}")
        print(f"merit_final = {res.merit_final:.3e}")
    if res.oracle is not None:
        print(f"oracle = {res.oracle.status}")
    return EXIT_OK if res.status == FOUND or args.oracle else EXIT_SOLVER


def _cmd_verify(args) -> int:
    problem = _load(args.problem)
    if not isinstance(problem, SviProblem):
        raise UsageError("verify-props expects an inclusion problem file")
    rng = np.random.default_rng(args.seed)
    n, m = problem.dim_in, problem.dim_out
    cone = problem.cone
    ell = lipschitz_budget(problem).ell_total
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    ps = rng.uniform(0.0, 2.0 * math.pi, size=8)
    xs = rng.uniform(-2.0, 2.0, size=(args.trials, n))

    ok = True
    for p in ps[:4]:
        for x in xs[:10]:
            vp = evaluate(problem, p, x)
            exact = merit(problem, p, x)
            w = rng.dirichlet(np.ones(len(vp.vertices)), size=2000)
            sampled = float(np.max(cone.distances(w @ vp.vertices)))
            ok &= sampled <= exact + 1e-9
    check("excess vertex attainment on problem images", ok)

    ok = True
    for p in ps[:4]:
        for x in xs[:10]:
            vp = evaluate(problem, p, x)
            exact = merit(problem, p, x)
            mus = rng.uniform(0.0, 2.0, size=(50, len(cone.generators)))
            shifted = np.vstack([vp.vertices + mu @ cone.generators for mu in mus]
                                + [vp.vertices])
            ok &= float(np.max(cone.distances(shifted))) <= exact + 1e-9
    check("cone-displacement invariance of the excess", ok)

    ok = True
    for p in ps[:4]:
        Mp = problem.matrix.matrix_at(p)
        lip = float(np.linalg.norm(Mp, 2)) + ell
        for _ in range(args.trials):
            x1, x2 = rng.uniform(-2, 2, size=(2, n))
            gap = abs(merit(problem, p, x1) - merit(problem, p, x2))
            ok &= gap <= lip * float(np.linalg.norm(x1 - x2)) + 1e-9
    check("merit Lipschitz bound", ok)

    ok = True
    for p in ps[:4]:
        for _ in range(args.trials):
            x1, x2 = rng.uniform(-2, 2, size=(2, n))
            t = rng.uniform()
            lhs = merit(problem, p, t * x1 + (1 - t) * x2)
            rhs = t * merit(problem, p, x1) + (1 - t) * merit(problem, p, x2)
            ok &= lhs <= rhs + 1e-9
    check("merit convexity (catalog concavity)", ok)

    ok = True
    for p in ps[:4]:
        for x in xs[:10]:
            vp = evaluate(problem, p, x)
            zero = merit(problem, p, x) <= 1e-9
            allin = bool(np.all(cone.distances(vp.vertices) <= 1e-9))
            ok &= zero == allin
    check("zero merit iff every vertex in the cone", ok)

    passed = sum(1 for _, o in checks if o)
    print(f"{passed}/{len(checks)} property suites passed")
    return EXIT_OK if passed == len(checks) else EXIT_SOLVER


# ---------------------------------------------------------------------------

_VERBS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "estimate-inc": _cmd_estimate,
    "vopt": _cmd_vopt,
    "verify-props": _cmd_verify,
}


def main(argv=None) -> int:
    level = os.environ.get("SVI_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _VERBS[args.verb](args)
    except (UsageError, DescentConstantsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (NoDescentStep, MaxItersExceeded, PropertyAbsent) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports everything
        log.exception("internal error")
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
