"""What the benchmark binds by name must stay where it looks.

perfbench's tracer wraps each traced function as ``vars(owner)[attr]``, and
its sweep workloads mark rows by a ``(module, attribute)`` hook.  A library
change that deletes or moves such a name (onto a base class, say) would break
``perfbench/run.py --trace 1`` and nothing else.  The benchmark files are
loaded as they are."""
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    # run.py pins the BLAS thread counts on import; monkeypatch restores them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    return [_load(monkeypatch, name) for name in ("run", "workloads")]


def test_every_traced_name_resolves_on_its_owner(bench):
    run, _ = bench
    targets = run.trace_targets()
    assert targets
    for name, owner, attr, _ in targets:
        assert hasattr(vars(owner).get(attr), "__code__"), name


def test_every_row_hook_resolves(bench):
    _, workloads = bench
    hooks = [cls.row_hook for cls in workloads.WORKLOADS.values() if cls.row_hook]
    assert hooks
    for owner, attr in hooks:
        assert hasattr(vars(owner).get(attr), "__code__"), (owner.__name__, attr)


WORKLOADS = ["rotation-cold", "rotation-warm", "triangle-ideal", "rotation-increase"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_runs_its_audit_units_without_failures(bench, tmp_path, name):
    # the path the benchmark times, at its audit size: a library change that
    # breaks a workload's calls or its answers fails here
    _, workloads = bench
    problem, _ = workloads.setup(name, str(tmp_path))
    wl = workloads.WORKLOADS[name](problem, 0, str(tmp_path))
    units = wl.audit_units()
    assert units
    for unit in units:
        assert wl.failures(unit, wl.run(unit)) == 0, unit.args


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_traced_call_on_the_audit_units_is_spanned(bench, monkeypatch, tmp_path, name):
    # the coverage audit of ``run.py --trace 1``: a traced function that runs
    # without its span (reached through a binding the tracer does not wrap,
    # such as an alias made before the wrap) is a mismatch
    run, workloads = bench
    tracer = _load(monkeypatch, "tracer")
    problem, _ = workloads.setup(name, str(tmp_path))
    wl = workloads.WORKLOADS[name](problem, 0, str(tmp_path))
    auditor = tracer.Tracer(run.NESTED)
    with auditor.installed(run.trace_targets(), run.library_modules()):
        missed = auditor.audit(lambda: run.run_units(wl, wl.audit_units()))
    assert missed == {}
