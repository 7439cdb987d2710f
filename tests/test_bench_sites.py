"""The benchmark's tracer sites and workloads work against the package.

`bench/tracing.py` wraps library functions where they are looked up, by
(owner, attribute), and raises on a missing one.  Resolving every site here
makes a renamed or moved layer fail in the test suite rather than in a
traced benchmark run.  Likewise every workload of `bench/workloads.py` runs
its set-up, one op and its own check here, so a changed call that a
workload makes fails in the test suite rather than in a benchmark run.
"""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

import nonlocal_sl

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"
_LIBRARY = ("ode_core", "potential", "measure", "characteristic", "spectrum_finder", "inversion")


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))  # workloads.py imports the oracle as a top-level module
    try:
        return _load(WORKLOADS, "bench_workloads")
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_site_resolves():
    tracing = _load(TRACING, "bench_tracing")
    sites = tracing.sites(nonlocal_sl)
    assert sites
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in sites
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing
    before = [getattr(owner, attr) for owner, attr, _ in sites]
    with tracing.Tracer().installed(sites):
        assert all(getattr(o, a) is not f for (o, a, _), f in zip(sites, before))
    assert all(getattr(o, a) is f for (o, a, _), f in zip(sites, before))


@pytest.mark.parametrize("name", ["forward", "spectrum", "recover", "traces"])
def test_workload_runs_and_passes_its_check(workloads, name):
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"nonlocal_sl.{m}") for m in _LIBRARY})
    assert sorted(workloads.WORKLOADS) == ["forward", "recover", "spectrum", "traces"]
    work = workloads.WORKLOADS[name](lib)
    work.setup(1)
    args = work.inputs(0)
    assert work.check(args, work.call(args)) == []
