"""Benchmark for svikit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; it imports svikit from ``src/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record (machine, versions, seed, output digests, tracing overhead).

Workloads (see workloads.py): rotation-cold, rotation-warm, triangle-ideal,
rotation-increase.  Each is a closed loop, one caller in one process: the
next item is issued when the previous one returns.

``--trace 0`` runs the workload's seeded stream for ``--seconds`` with
tracing off and reports the end-to-end metrics:

- setup_s: median over fresh interpreters of the time until the first item
  is ready (import, problem-file round trip, problem construction);
- items_per_s: items that passed their check per second;
- item_p50_ms and item_tail_ms: the median item time and the item time at
  the highest percentile with ten items beyond it (the record names it);
  where a workload runs each item more than once (``repeats``), an item's
  time is the least of its runs;
- fail_frac: failed / attempted items, floored at FAIL_FLOOR so that a
  clean run reads above zero; the raw counts are the ``attempted`` and
  ``failed`` fields;
- peak_rss_mb: peak resident memory of the benchmark process.

Item times are CPU times of the benchmark process, scaled to a nominal
machine speed.  The loop is single-threaded and CPU-bound, so on an idle
machine its CPU time is its wall time; on a shared one, CPU time leaves out
the preemptions that would otherwise land on whichever item was running.
The scaling: a small reference kernel is timed between items, and each
item's time is multiplied by REF_NOMINAL_S over the kernel's time around it
(see ``run_units``).  On a shared 2-CPU virtual machine the speed of one
process was seen to swing by up to 1.7x for seconds at a time; the kernel
sees those swings too.  The record keeps the unscaled times and the kernel
timings.

``--trace 1`` runs the workload's fixed trace set (the same items on every
run with the same seed) once untraced and once traced, and reports the
per-layer metrics from the traced pass, the geometry probe table, and one
``svi solve`` and one ``svi sweep`` subprocess.  Tracing coverage is
audited on a short prefix of the trace set.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import gc
import hashlib
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
TAIL_BEYOND = 10
REF_EVERY_S = 0.03
REF_LOOPS = 90
REF_NOMINAL_S = 1e-3
REF_SPREAD = 2
RAW_CAP = 1.6
FAIL_FLOOR = 1e-6  # fail_frac of a clean run: the metric must not read 0
_REF_A = np.array([[0.3, -1.2], [0.7, 0.4], [-0.5, 0.9]])
_REF_M = np.array([[0.8, -0.6], [0.6, 0.8]])

# Counts taken by other means, from call counters and result objects, on the
# seed-0 trace sets at the commit that introduced the benchmark.  Steps are
# those of solves that returned (a solve that raises NoDescentStep reports
# none), so they undercount solver.steps_accepted on triangle-ideal.
CROSSCHECK = {
    "rotation-cold": {"setmaps.evaluate.calls": 12320, "solver.returned_steps": 1386},
    "rotation-warm": {"setmaps.evaluate.calls": 126760, "solver.returned_steps": 68},
    "triangle-ideal": {"vopt.evaluate.calls": 95356, "solver.returned_steps": 7,
                       "vopt.status.found": 20},
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", metavar="WORKDIR", default=None,
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_library():
    """Import svikit from this checkout's sources, never from elsewhere."""
    if not (SRC / "svikit" / "__init__.py").is_file():
        raise SystemExit(f"error: no svikit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import svikit
    if Path(svikit.__file__).resolve().parent != SRC / "svikit":
        raise SystemExit(f"error: svikit imported from {svikit.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# running units
# ---------------------------------------------------------------------------

def reference_seconds():
    """Mean of three timings of a fixed kernel with the library's mix of
    interpreted code and numpy calls on tiny arrays (the mean, not the best,
    so that it follows the speed the items see)."""
    t0 = time.process_time()
    for _ in range(3):
        x = np.array([0.1, 0.2])
        for _ in range(REF_LOOPS):
            x = _REF_M @ x
            np.max(np.linalg.norm(np.minimum(_REF_A + x, 0.0), axis=1))
    return (time.process_time() - t0) / 3


def run_units(wl, units, seconds=None, paced=False, repeats=1, block=1):
    """Closed loop over ``units``: each unit is issued when the previous one
    returns, until the units have run for ``seconds`` in total.

    With ``repeats`` above 1, the units are taken ``block`` at a time and
    each block is run ``repeats`` times over, so that the runs of one unit
    lie a block apart rather than back to back (a slow spell of the machine
    often outlasts a few runs of a short item).  An item's time is then the
    least of its runs, the usual estimate for timings that interference only
    lengthens, and a unit whose runs give different outputs is reported as
    failed.

    With ``paced``, the reference kernel is timed before the first unit,
    then at the first unit or sweep-row boundary after every REF_EVERY_S,
    and after the last unit; each item's time is scaled by REF_NOMINAL_S
    over the median of the timings from REF_SPREAD before the item to
    REF_SPREAD after it (one timing is too noisy to scale by).  This takes out
    the speed swings of a shared machine, which the kernel sees as well as
    the library.  ``seconds`` then counts scaled time, so a run does the
    same work at any machine speed (within RAW_CAP times ``seconds`` of wall
    time).  Time spent in the kernel is not item time.

    Item times are CPU times of this process (see the module docstring).

    Returns ([(unit, output or exception, per-item seconds)], seconds spent
    in items, the same unscaled, reference timings in seconds).
    """
    perf = time.process_time
    refs = []  # (clock time, seconds per kernel call)
    due = -math.inf

    def boundary():
        nonlocal due
        now = perf()
        if paced and now >= due:
            refs.append((now, reference_seconds()))
            now = perf()
            due = now + REF_EVERY_S
        return now

    marks = []  # per row: (end of the previous row, start of this row)
    hook = wl.row_hook
    if hook is not None:
        inner = getattr(*hook)

        def marked(*args, **kwargs):
            end = perf()
            marks.append((end, boundary() if marks else end))
            return inner(*args, **kwargs)

        setattr(hook[0], hook[1], marked)
    raw = []  # (unit, [output per run], [[(start, end) per item] per run])
    busy = estimate = 0.0
    gc.collect()
    gc.disable()
    wall0 = time.perf_counter()
    try:
        pending = iter(units)
        while seconds is None or (estimate < seconds and
                                  time.perf_counter() - wall0 < RAW_CAP * seconds):
            batch = [(unit, [], []) for unit in itertools.islice(pending, block)]
            if not batch:
                break
            for _ in range(repeats):
                for unit, outs, runs in batch:
                    t0 = boundary()
                    first_ref = len(refs) - 1  # the timing just before this run
                    marks.clear()
                    try:
                        out = wl.run(unit)
                    except Exception as err:  # a failed item is data, not a crash
                        out = err
                    t1 = perf()
                    if unit.rows == 1:
                        spans = [(t0, t1)]
                    elif len(marks) == unit.rows:
                        starts = [t0] + [b for _, b in marks[1:]]
                        spans = list(zip(starts, [a for a, _ in marks[1:]] + [t1]))
                    else:  # the sweep did not call the row function once per row
                        gaps = sum(b - a for a, b in marks)
                        spans = [(t0, t0 + (t1 - t0 - gaps) / unit.rows)] * unit.rows
                    took = sum(e - s for s, e in spans)
                    busy += took / repeats
                    if paced:
                        around = [r for _, r in refs[first_ref:]]
                        took *= REF_NOMINAL_S * len(around) / sum(around)
                    estimate += took
                    outs.append(out)
                    runs.append(spans)
            raw.extend(batch)
        if paced:
            refs.append((perf(), reference_seconds()))
    finally:
        gc.enable()
        if hook is not None:
            setattr(hook[0], hook[1], inner)

    clock = [t for t, _ in refs]

    def scale(start, end):
        if not paced:
            return 1.0
        lo = max(bisect.bisect_right(clock, start) - 1 - REF_SPREAD, 0)
        hi = min(bisect.bisect_left(clock, end) + REF_SPREAD, len(refs) - 1)
        return REF_NOMINAL_S / statistics.median(r for _, r in refs[lo:hi + 1])

    def same(unit, outs):
        if len(outs) == 1:
            return True
        if any(isinstance(o, Exception) for o in outs):
            return all(isinstance(o, Exception) for o in outs)
        return len({wl.output_bytes(unit, o) for o in outs}) == 1

    done = []
    for unit, outs, runs in raw:
        out = outs[0] if same(unit, outs) else RuntimeError("repeated runs gave different outputs")
        times = [min((e - s) * scale(s, e) for s, e in row) for row in zip(*runs)]
        done.append((unit, out, times))
    return done, sum(t for _, _, ts in done for t in ts), busy, [r for _, r in refs]


def check_units(wl, done):
    """(attempted items, failed items, {error type: items})."""
    attempted = failed = 0
    errors = {}
    for unit, out, _ in done:
        attempted += unit.rows
        if isinstance(out, Exception):
            failed += unit.rows
            key = type(out).__name__
            errors[key] = errors.get(key, 0) + unit.rows
        else:
            failed += wl.failures(unit, out)
    return attempted, failed, errors


def digests(wl, done):
    """sha256 of the outputs, one per ``wl.digest_block`` units (the last
    block may be short)."""
    out = []
    for i in range(0, len(done), wl.digest_block):
        h = hashlib.sha256()
        for unit, res, _ in done[i:i + wl.digest_block]:
            h.update(b"error" if isinstance(res, Exception) else wl.output_bytes(unit, res))
        out.append(h.hexdigest())
    return out


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def setup_seconds(args, workdir):
    """Median time from starting a fresh interpreter until it reports its
    first item ready, scaled like the units by the reference kernel timed
    around each start."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-child", workdir]
    times, raw = [], []
    ref = reference_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup child failed ({proc.returncode}): {err.strip()}")
        ref_after = reference_seconds()
        raw.append(t1 - t0)
        times.append((t1 - t0) * REF_NOMINAL_S / (0.5 * (ref + ref_after)))
        ref = ref_after
    return statistics.median(times), raw


def tail(times_ms):
    """Item time at the highest percentile with TAIL_BEYOND items beyond it."""
    ordered = sorted(times_ms)
    n = len(ordered)
    k = max(n - TAIL_BEYOND, 1)
    return ordered[k - 1], 100.0 * k / n, n - k


def end_to_end(args, wl, workdir, record):
    setup_s, setup_all = setup_seconds(args, workdir)
    run_units(wl, wl.warmup_units())
    done, wall, raw_wall, refs = run_units(wl, wl.stream(), args.seconds, paced=True,
                                           repeats=wl.repeats, block=wl.repeat_block)
    attempted, failed, errors = check_units(wl, done)
    times_ms = [1e3 * t for _, _, ts in done for t in ts]
    tail_ms, tail_pct, beyond = tail(times_ms)
    record.update(setup_raw_s=setup_all, scaled_s=wall, unscaled_s=raw_wall,
                  reference_ms=[1e3 * min(refs), 1e3 * statistics.median(refs), 1e3 * max(refs)],
                  units=len(done), repeats=wl.repeats, repeat_block=wl.repeat_block,
                  items=len(times_ms),
                  item_tail_percentile=tail_pct, items_beyond_tail=beyond,
                  errors=errors, digests=digests(wl, done))
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": ((attempted - failed) / wall, "1/s"),
        "item_p50_ms": (statistics.median(times_ms), "ms"),
        "item_tail_ms": (tail_ms, "ms"),
        "fail_frac": (max(failed / attempted, FAIL_FLOOR), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return failed == 0, attempted, failed, metrics


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def trace_targets():
    from svikit import geometry, increase, parametric, setmaps, solver, vopt

    def points_arg(key, pos):
        def observe(counts, args, out):
            pts = args[pos]
            counts[key] += 1 if getattr(pts, "ndim", 2) == 1 else len(pts)
        return observe

    def tally(prefix, field):
        def observe(counts, args, out):
            counts[f"{prefix}.{getattr(out, field)}"] += 1
        return observe

    def verdict(counts, args, out):
        counts[f"geometry.inclusion.{out.verdict.value}"] += 1

    def witness(counts, args, out):
        counts["increase.witnesses"] += out is not None

    def returned_steps(counts, args, out):
        counts["solver.returned_steps"] += out.iterations

    def rows(counts, args, out):
        counts["parametric.rows"] += len(out.rows)
        counts["parametric.rows_solved"] += sum(1 for r in out.rows if r.solved)

    return [
        ("geometry.distances", geometry.PolyCone, "distances",
         points_arg("geometry.distances.points", 1)),
        ("geometry.dist_many", geometry, "dist_many", points_arg("geometry.dist_many.points", 0)),
        ("geometry.project_dist", geometry, "project_dist", None),
        ("geometry.enlargement_inclusion", geometry, "enlargement_inclusion", verdict),
        ("setmaps.evaluate", setmaps, "evaluate", None),
        *[("setmaps.project", cls, "project", None)
          for cls in (setmaps.AllSpace, setmaps.Box, setmaps.Ball, setmaps.PolytopeSet)],
        ("solver.solve", solver, "solve", returned_steps),
        ("solver.caristi_step", solver, "caristi_step", tally("solver.step", "status")),
        ("solver.segment_step", solver, "segment_step", None),
        ("parametric.sweep", parametric, "sweep", rows),
        ("increase.estimate_bound", increase, "estimate_bound", None),
        ("increase.check_increase", increase, "check_increase", witness),
        ("vopt.solve_ideal", vopt, "solve_ideal", tally("vopt.status", "status")),
        ("vopt.evaluate", vopt.VopProblem, "evaluate", None),
        ("vopt.brute_force_ideal", vopt, "brute_force_ideal", None),
    ]


NESTED = (("solver.solve", "setmaps.evaluate"), ("solver.solve", "vopt.evaluate"),
          ("parametric.sweep", "solver.solve"), ("parametric.sweep", "setmaps.evaluate"))


def library_modules():
    import svikit.cli  # noqa: F401  (the CLI's bindings are wrapped too)
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "svikit" or name.startswith("svikit.")]


def layer_metrics(tr):
    c, s, n = tr.calls, tr.self_s, tr.counts
    nc, ns = tr.nested_calls, tr.nested_s

    def ratio(a, b):
        return a / b if b else 0.0  # no attempts: reported as 0

    steps = n["solver.step.accepted"]
    solve_evals = nc["solver.solve", "setmaps.evaluate"] + nc["solver.solve", "vopt.evaluate"]
    m = {}
    for span in ("geometry.distances", "geometry.dist_many", "geometry.project_dist",
                 "geometry.enlargement_inclusion", "setmaps.evaluate", "setmaps.project",
                 "solver.solve", "solver.caristi_step", "increase.estimate_bound",
                 "increase.check_increase", "vopt.solve_ideal", "vopt.brute_force_ideal"):
        m[f"{span}.calls"] = (c[span], "count")
        m[f"{span}.self_s"] = (s[span], "s")
    m["geometry.distances.points"] = (n["geometry.distances.points"], "count")
    m["geometry.dist_many.points"] = (n["geometry.dist_many.points"], "count")
    m["geometry.enlargement_inclusion.holds_ratio"] = (
        ratio(n["geometry.inclusion.holds"], c["geometry.enlargement_inclusion"]), "ratio")
    m["geometry.enlargement_inclusion.inconclusive"] = (n["geometry.inclusion.inconclusive"], "count")
    m["solver.steps_accepted"] = (steps, "count")
    m["solver.accept_ratio"] = (ratio(steps, c["solver.caristi_step"]), "ratio")
    m["solver.evals_per_accept"] = (ratio(solve_evals, steps), "count")
    m["solver.no_step"] = (n["solver.step.no_step"], "count")
    m["solver.segment_step.calls"] = (c["solver.segment_step"], "count")
    m["parametric.sweep.self_s"] = (
        tr.total_s["parametric.sweep"] - ns["parametric.sweep", "solver.solve"], "s")
    m["parametric.evals_per_row"] = (
        ratio(nc["parametric.sweep", "setmaps.evaluate"], n["parametric.rows"]), "count")
    m["parametric.rows_solved"] = (n["parametric.rows_solved"], "count")
    m["increase.witness_ratio"] = (
        ratio(n["increase.witnesses"], c["increase.check_increase"]), "ratio")
    m["vopt.evaluate.calls"] = (c["vopt.evaluate"], "count")
    for status in ("found", "not_found", "certified_empty"):
        m[f"vopt.status.{status}"] = (n[f"vopt.status.{status}"], "count")
    return m


def cli_metrics(workdir, problem_path):
    """One ``svi solve`` and one ``svi sweep`` subprocess on the rotation
    instance; returns (metrics, all exits and outputs as expected)."""
    from svikit import problems

    rot = os.path.join(workdir, "cli-rotation.json")
    problems.write_problem_file(rot, problems.rotation_inclusion_problem())
    env = dict(os.environ, PYTHONPATH=str(SRC))
    csv = os.path.join(workdir, "cli-sweep.csv")
    runs = {
        "cli.solve.wall_s": (["solve", "--problem", rot, "--p", "1.0", "--x0", "0,0",
                              "--alpha", "1.5"], "bound_holds = true"),
        "cli.sweep.wall_s": (["sweep", "--problem", rot, "--grid", "0:1.5708:5", "--x0", "0,0",
                              "--alpha", "1.5", "--out", csv], "rows = 5  solved = 5"),
    }
    metrics, ok = {}, True
    for name, (argv, expect) in runs.items():
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "svikit.cli", *argv], cwd=workdir,
                              env=env, capture_output=True, text=True, timeout=120)
        metrics[name] = (time.perf_counter() - t0, "s")
        ok &= proc.returncode == 0 and expect in proc.stdout
    ok &= os.path.isfile(csv)

    t_load = []
    for _ in range(20):
        t0 = time.perf_counter()
        problems.load_problem_file(problem_path)
        t_load.append(time.perf_counter() - t0)
    metrics["problems.load_problem_file.s"] = (statistics.median(t_load), "s")
    return metrics, ok


def traced(args, wl, workdir, problem_path, record):
    import probes
    from tracer import Tracer

    units = wl.trace_units()
    run_units(wl, wl.warmup_units())
    plain, wall_plain, _, _ = run_units(wl, units)
    tr = Tracer(NESTED)
    with tr.installed(trace_targets(), library_modules()):
        done, wall_traced, _, _ = run_units(wl, units)
    attempted, failed, errors = check_units(wl, done)
    same_outputs = digests(wl, plain) == digests(wl, done)

    auditor = Tracer(NESTED)
    with auditor.installed(trace_targets(), library_modules()):
        missed = auditor.audit(lambda: run_units(wl, wl.audit_units()))

    metrics = layer_metrics(tr)
    probe_us, probe_err = probes.probe_table(args.seed)
    metrics.update((k, (v, "us")) for k, v in probe_us.items())
    cli, cli_ok = cli_metrics(workdir, problem_path)
    metrics.update(cli)

    record.update(untraced_s=wall_plain, traced_s=wall_traced,
                  tracing_overhead_s=wall_traced - wall_plain, items=attempted,
                  errors=errors, digests=digests(wl, done), outputs_repeat=same_outputs,
                  audit_mismatches={k: list(v) for k, v in missed.items()},
                  probe_max_error=probe_err, cli_ok=cli_ok)
    expected = CROSSCHECK.get(wl.name) if args.seed == 0 else None
    if expected:
        values = {k: v for k, (v, _) in metrics.items()}
        values["solver.returned_steps"] = tr.counts["solver.returned_steps"]
        got = {k: values[k] for k in expected}
        record["crosscheck"] = {"expected": expected, "traced": got, "match": got == expected}
    correct = (failed == 0 and same_outputs and not missed and cli_ok
               and max(probe_err.values()) <= 1e-9)
    return correct, attempted, failed, metrics


# ---------------------------------------------------------------------------

def run_record(args):
    import scipy
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True) if (ROOT / ".git").exists() else None
    src = hashlib.sha256()
    for path in sorted((SRC / "svikit").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git.stdout.strip() if git is not None and git.returncode == 0 else None,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]

    if args.setup_child is not None:
        workdir = tempfile.mkdtemp(dir=args.setup_child)
        problem, _ = workloads.setup(args.workload, workdir)
        cls(problem, args.seed, workdir).first_unit()
        print("ready", flush=True)
        return 0

    record = run_record(args)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        problem, problem_path = workloads.setup(args.workload, workdir)
        wl = cls(problem, args.seed, workdir)
        if args.trace:
            correct, attempted, failed, metrics = traced(args, wl, workdir, problem_path, record)
        else:
            correct, attempted, failed, metrics = end_to_end(args, wl, workdir, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed),
                      "metrics": {k: {"value": float(v), "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
