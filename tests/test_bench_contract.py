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


@pytest.fixture
def bench(monkeypatch):
    # run.py pins the BLAS thread counts on import; monkeypatch restores them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    modules = []
    for name in ("run", "workloads"):
        spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        modules.append(module)
    return modules


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


@pytest.mark.parametrize("name", ["rotation-cold", "rotation-warm", "triangle-ideal",
                                  "rotation-increase"])
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
