"""Spans around the library's layers, installed from outside the package.

Nothing in the package is edited.  A wrapper replaces a public function at
every place it is looked up: the module that defines it, every module that
imported it by name, or the class that holds it as a method.  Outside
`Tracer.installed` the original objects are back in place, so untraced runs
execute the library unchanged.

A span records its name, start, end and parent.  Self time is a span's
duration minus the time its direct children cover; spans of one thread nest,
so children never overlap.  Sizes (lambda points, steps, stored bytes, zeros,
iterations) are read from the call's arguments or result, so every count
repeats exactly for the same inputs.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    root: int = -1
    size: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `write` dumps them when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        root = self.spans[parent].root if parent >= 0 else idx
        self.spans.append(Span(name, time.perf_counter(), parent=parent, root=root))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, sizes=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if sizes is not None:
                self.spans[idx].size = sizes(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, sites):
        """Replace every (owner, attribute) in `sites` while the block runs.

        A site missing from the library raises, so a renamed layer cannot
        pass for one the workload never reaches.
        """
        saved = []
        try:
            for owner, attr, make in sites:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make(self, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


# ---------------------------------------------------------------------------
# Where each layer is looked up


def _sweep_sizes(args, store):
    arrays = (getattr(store, k, None) for k in ("y", "dy", "s"))
    return {
        "points": len(store.lam),
        "steps": len(store.grid) - 1,
        "stored_bytes": sum(a.nbytes for a in arrays if a is not None),
    }


def _batch_sizes(args, batch):
    return {"points": len(batch.lam)}


def _plain(name, sizes=None):
    return lambda tracer, fn: tracer.wrap(name, fn, sizes)


def _traced_handles(tracer, char_handle):
    """char_handle whose returned handle records one span per evaluation."""

    @functools.wraps(char_handle)
    def factory(*args, **kwargs):
        return tracer.wrap(
            "spectrum_finder.handle",
            char_handle(*args, **kwargs),
            lambda a, r: {"points": int(np.size(a[0]))},
        )

    return factory


def sites(lib):
    """(owner, attribute, wrapper factory) for every lookup site of a layer."""
    ode, ch, me, sf, inv = lib.ode_core, lib.characteristic, lib.measure, lib.spectrum_finder, lib.inversion
    sweep = _plain("ode_core.integrate_family", _sweep_sizes)
    grid = _plain("ode_core.solver_grid")
    weights = _plain("measure.density_node_weights")
    batch = _plain("characteristic.char_batch", _batch_sizes)
    multi = _plain("characteristic.char_batch_multi", _batch_sizes)
    dseq = _plain("characteristic.d_sequence")
    finder = _plain(
        "spectrum_finder.problem_spectrum",
        lambda a, sp: {"zeros": int(np.sum(sp.multiplicities))},
    )
    return [
        (ode, "integrate_family", sweep),
        (ch, "integrate_family", sweep),
        (ode, "solver_grid", grid),
        (ch, "solver_grid", grid),
        (lib.potential.Potential, "step_samples", _plain("potential.step_samples")),
        (me, "density_node_weights", weights),
        (ch, "density_node_weights", weights),
        (me.LinearForm, "apply_sampled", _plain("measure.apply_sampled")),
        (ch, "char_batch", batch),
        (inv, "char_batch", batch),
        (ch, "char_batch_multi", multi),
        (inv, "char_batch_multi", multi),
        (ch, "combo_solutions", _plain("characteristic.combo_solutions")),
        (ch, "d_sequence", dseq),
        (inv, "d_sequence", dseq),
        (sf, "char_handle", _traced_handles),
        (sf, "problem_spectrum", finder),
        (inv, "problem_spectrum", finder),
        (
            inv,
            "reconstruct",
            _plain("inversion.reconstruct", lambda a, r: {"iterations": int(r.iterations)}),
        ),
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class _Phase:
    """Spans below a set of root spans, with self times and ancestry."""

    def __init__(self, spans: list[Span], roots):
        roots = set(roots)
        self.spans = spans
        self.idx = [i for i, s in enumerate(spans) if s.root in roots]
        covered = np.zeros(len(spans))
        for i in self.idx:
            p = spans[i].parent
            if p >= 0:
                covered[p] += spans[i].duration
        self.self_time = {i: spans[i].duration - covered[i] for i in self.idx}

    def named(self, *names, under=None):
        out = [i for i in self.idx if self.spans[i].name in names]
        if under is not None:
            out = [i for i in out if self._has_ancestor(i, under)]
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def total(self, idx, key: str) -> float:
        return float(sum(self.spans[i].size.get(key, 0) for i in idx))

    def duration(self, idx) -> float:
        return float(sum(self.spans[i].duration for i in idx))

    def self_s(self, idx) -> float:
        return float(sum(self.self_time[i] for i in idx))


def _finder_metrics(ph: _Phase, per: float, prefix: str) -> dict:
    handles = ph.named("spectrum_finder.handle")
    finders = ph.named("spectrum_finder.problem_spectrum")
    zeros = ph.total(finders, "zeros")
    finder_sweeps = len(ph.named("ode_core.integrate_family", under="spectrum_finder.problem_spectrum"))
    return {
        f"{prefix}spectrum_finder.handle_evals": (len(handles) / per, "count"),
        f"{prefix}spectrum_finder.lambda_samples": (ph.total(handles, "points") / per, "count"),
        f"{prefix}spectrum_finder.zeros": (zeros / per, "count"),
        f"{prefix}spectrum_finder.evals_per_zero": (_ratio(len(handles), zeros), "count"),
        f"{prefix}spectrum_finder.sweeps_per_zero": (_ratio(finder_sweeps, zeros), "count"),
        f"{prefix}spectrum_finder.self_s": (ph.self_s(finders + handles) / per, "s"),
    }


def op_metrics(spans: list[Span], roots) -> dict:
    """Per-op layer metrics over the traced ops whose root spans are `roots`."""
    ph = _Phase(spans, roots)
    n = max(1, len(roots))
    sweeps = ph.named("ode_core.integrate_family")
    steps = ph.total(sweeps, "steps")
    points = ph.total(sweeps, "points")
    point_steps = float(sum(ph.spans[i].size["steps"] * ph.spans[i].size["points"] for i in sweeps))
    sweep_self = ph.self_s(sweeps)
    stored = max((ph.spans[i].size["stored_bytes"] for i in sweeps), default=0)
    batches = ph.named("characteristic.char_batch")
    multis = ph.named("characteristic.char_batch_multi")
    applied = ph.named("measure.apply_sampled")
    trace_stack = ph.named("characteristic.d_sequence", "characteristic.combo_solutions")
    recon = ph.named("inversion.reconstruct")
    iterations = ph.total(recon, "iterations")
    lm_sweeps = ph.named("ode_core.integrate_family", under="inversion.reconstruct")
    m = {
        "ode_core.sweeps": (len(sweeps) / n, "count"),
        "ode_core.steps_per_sweep": (_ratio(steps, len(sweeps)), "count"),
        "ode_core.points_per_sweep": (_ratio(points, len(sweeps)), "count"),
        "ode_core.point_steps": (point_steps / n, "count"),
        "ode_core.time_s": (sweep_self / n, "s"),
        "ode_core.ns_per_point_step": (_ratio(sweep_self * 1e9, point_steps), "ns"),
        "ode_core.stored_mb": (stored / 1e6, "MB"),
        "ode_core.grid_s": (ph.duration(ph.named("ode_core.solver_grid")) / n, "s"),
        "potential.sample_s": (ph.duration(ph.named("potential.step_samples")) / n, "s"),
        "measure.node_weights_s": (ph.duration(ph.named("measure.density_node_weights")) / n, "s"),
        "characteristic.char_batch_calls": (len(batches) / n, "count"),
        "characteristic.char_batch_points": (ph.total(batches, "points") / n, "count"),
        "characteristic.self_s": (ph.self_s(batches + multis) / n, "s"),
        "measure.apply_sampled_calls": (len(applied) / n, "count"),
        "measure.apply_sampled_s": (ph.duration(applied) / n, "s"),
        "characteristic.trace_self_s": (ph.self_s(trace_stack) / n, "s"),
        "inversion.lm_iterations": (iterations / n, "count"),
        "inversion.multi_calls": (len(multis) / n, "count"),
        "inversion.sweeps_per_iteration": (_ratio(len(lm_sweeps), iterations), "count"),
        "inversion.points_per_iteration": (_ratio(ph.total(lm_sweeps, "points"), iterations), "count"),
        "inversion.self_s": (ph.self_s(recon) / n, "s"),
    }
    m.update(_finder_metrics(ph, n, ""))
    return m


def setup_metrics(spans: list[Span], root: int) -> dict:
    """Layer metrics of one traced set-up: the spectral data some workloads build."""
    ph = _Phase(spans, [root])
    m = _finder_metrics(ph, 1.0, "setup.")
    m["setup.ode_core.sweeps"] = (len(ph.named("ode_core.integrate_family")), "count")
    m["setup.ode_core.time_s"] = (ph.self_s(ph.named("ode_core.integrate_family")), "s")
    return m
