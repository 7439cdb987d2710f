"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload forward --seed 1 --seconds 20 --trace 0

Runs from the repository root and imports the package from ./src.  With
--trace 0 it prints the end-to-end metrics: setup_s (import, then the
median of three set-ups, each input generation including spectral data plus
one warm-up op), op_p50_s (median time of one op, timed around the library
call only), ops_per_s (ops per second of op time) and peak_rss_mb (this
process's peak resident set).  Set-up and op times are wall times scaled to
the speed of a reference host by a probe run either side of them (see
Probe); the unscaled median op time goes to stderr.  With --trace 1 it
traces one set-up, then runs untraced ops for half the time and one traced
round of ops, and prints the per-layer metrics with the tracing overhead;
the spans go to bench/out/.

Numerics run single-threaded: the thread caps below are set before numpy
loads.  Every op is checked outside the timed region, the warm-up op too; a
check that fails makes "correct" false, and an op that raises counts as
failed.  The reference integrator's self-test runs once, before any timing.
"""

import os
import sys
import time

_T0 = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
_MODULES = ("ode_core", "potential", "measure", "characteristic", "spectrum_finder", "inversion")


def _import_library() -> types.SimpleNamespace:
    """The package's modules, imported from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import scipy.integrate  # noqa: F401

    pkg = importlib.import_module("nonlocal_sl")
    if not Path(pkg.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"nonlocal_sl imported from {pkg.__file__}, not from {src}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"nonlocal_sl.{m}") for m in _MODULES}
    )


class Probe:
    """A fixed computation that gauges how fast the host runs right now.

    The host is shared: other tenants' load makes the same op take up to a
    third longer for seconds to minutes at a time, alike for every workload.
    The probe uses no library code.  Like the library's sweeps it is Python
    loops of small numpy updates, each stored: one on 2x256 values, as in a
    batch sweep, and one on 2 values, as in a single-lambda sweep, where
    call overhead is all the cost; then plain interpreter work.  Its wall
    time on the reference host is REFERENCE_S, so a wall time times
    REFERENCE_S over the probe's time at that moment is the time the
    reference host would have taken.
    """

    REFERENCE_S = 0.008  # median wall time of one probe on the host in bench/README.md
    _LOOP = 10_000

    def __init__(self):
        self._wide = np.empty((400, 2, 256), complex)
        self._narrow = np.empty((2000, 2), complex)

    @staticmethod
    def _sweep(store: np.ndarray) -> None:
        y = np.ones(store.shape[1:], complex)
        for k in range(len(store)):
            y = y * (1.0001 + 0.0001j) + 1e-3j
            store[k] = y

    def __call__(self) -> float:
        """Wall time of one probe."""
        t = time.perf_counter()
        self._sweep(self._wide)
        self._sweep(self._narrow)
        total = 0
        for i in range(self._LOOP):
            total += i
        return time.perf_counter() - t


class Runner:
    """Times ops of one workload and checks each result outside the timing.

    A probe runs right before and right after every op; the op's time is
    its wall time scaled by REFERENCE_S over the mean of the two probes, so
    host slowdowns common to probe and op cancel.
    """

    def __init__(self, workload):
        self.w = workload
        self.probe = Probe()
        for _ in range(3):  # the first probes run slow
            self.probe()
        self.times: list[float] = []  # scaled op times, the op_p50_s samples
        self.wall_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def scale(self, wall: float, before: float) -> float:
        """`wall` in reference-host seconds, from the probe run `before` it and one run now."""
        return wall * Probe.REFERENCE_S * 2 / (before + self.probe())

    def _check(self, i: int, args, result) -> None:
        for fault in self.w.check(args, result):
            self.faults.append(f"op {i}: {fault}")

    def warm_up(self) -> float:
        """Op 0, timed but not counted as an op; returns the call's wall time.

        An error here ends the run, since no op of the workload can then be
        trusted to work.
        """
        args = self.w.inputs(0)
        t = time.perf_counter()
        result = self.w.call(args)
        dt = time.perf_counter() - t
        self._check(0, args, result)
        return dt

    def op(self, i: int) -> None:
        args = self.w.inputs(i)
        self.attempted += 1
        before = self.probe()
        t = time.perf_counter()
        try:
            result = self.w.call(args)
        except Exception as exc:  # a library error is a failed op, not a crash
            self.failed += 1
            print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        wall = time.perf_counter() - t
        self.times.append(self.scale(wall, before))
        self.wall_times.append(wall)
        self._check(i, args, result)

    def run_for(self, seconds: float) -> None:
        """Ops 0, 1, 2, ... until `seconds` of wall time have passed."""
        i = 0
        t_end = time.perf_counter() + seconds
        while True:
            self.op(i)
            i += 1
            if time.perf_counter() >= t_end:
                return


def _setup(runner: Runner, seed: int, repeats: int) -> float:
    """Median time of `repeats` set-ups, each input generation plus a warm-up op.

    Only the workload's set-up and the warm-up call are timed, and scaled
    like op times; the warm-up's check runs after its timer stops.  The
    warm-up op is not an op of the run, so first-call costs stay out of the
    op timings.  The inputs of the last set-up are kept.
    """
    times = []
    for _ in range(repeats):
        before = runner.probe()
        t = time.perf_counter()
        runner.w.setup(seed)
        made = time.perf_counter() - t
        times.append(runner.scale(made + runner.warm_up(), before))
    return statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(workload, seed: int, seconds: float, import_s: float) -> tuple[Runner, dict]:
    runner = Runner(workload)
    setup_s = import_s + _setup(runner, seed, SETUP_REPEATS)
    runner.run_for(seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(runner.times), "s"),
        "ops_per_s": (len(runner.times) / sum(runner.times), "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return runner, metrics


def measure_traced(workload, lib, seed: int, seconds: float, name: str) -> tuple[Runner, dict]:
    import tracing

    tracer = tracing.Tracer()
    sites = tracing.sites(lib)
    with tracer.installed(sites), tracer.span("setup") as setup_root:
        workload.setup(seed)
    runner = Runner(workload)
    runner.warm_up()
    runner.run_for(seconds / 2)
    untraced = statistics.median(runner.times)
    untraced_wall = statistics.median(runner.wall_times)
    roots, traced_times = [], []
    with tracer.installed(sites):
        for i in range(workload.traced_ops):
            before = len(runner.times)
            with tracer.span("op") as root:
                runner.op(i)
            roots.append(root)
            traced_times.extend(runner.times[before:])
    traced = statistics.median(traced_times)
    metrics = tracing.op_metrics(tracer.spans, roots)
    metrics.update(tracing.setup_metrics(tracer.spans, setup_root))
    metrics["trace.op_p50_untraced_s"] = (untraced, "s")
    metrics["trace.op_p50_untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.op_p50_traced_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.spans_per_op"] = (
        sum(1 for s in tracer.spans if s.root in set(roots)) / len(roots),
        "count",
    )
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{name}-seed{seed}.json")
    return runner, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lib = _import_library()
    import oracle
    import workloads

    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](lib)
    oracle.self_test()
    if args.trace:
        runner, metrics = measure_traced(workload, lib, args.seed, args.seconds, args.workload)
    else:
        runner, metrics = measure(workload, args.seed, args.seconds, import_s)
    for fault in runner.faults:
        print(f"check failed: {fault}", file=sys.stderr)
    if runner.wall_times:
        print(f"op wall time p50, unscaled: {statistics.median(runner.wall_times):.4f} s", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not runner.faults,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
