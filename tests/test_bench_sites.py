"""The benchmark tracer's lookup sites exist in the package.

`bench/tracing.py` wraps library functions where they are looked up, by
(owner, attribute), and raises on a missing one.  Resolving every site here
makes a renamed or moved layer fail in the test suite rather than in a
traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import nonlocal_sl

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through here
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    tracing = _load_tracing()
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
