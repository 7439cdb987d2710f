"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 bench/steady.py

Runs every workload in BENCHMARK.json ten times per set, in two sets, for
run_seconds each.  Each run is its own process, `bench/run.py --trace 0`,
with its own seed: seeds 1-10 in set 1 and 1001-1010 in set 2.  Runs
interleave the workloads so that slow drift of the machine reaches all of
them alike.  For every workload and end-to-end metric the command prints
each set's median and quartiles (`statistics.quantiles(values, n=4)`), the
quartile spread as a share of the median, and how much worse the second
median is than the first, against the bound in BENCHMARK.json.  Spreads of
setup_s are shown but, like the bound rule they serve, not held to the
bound.  The share of failed ops must be the same in both sets.  Raw results
go to bench/out/steady-<time>.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SET_SEEDS = (1, 1001)  # first seed of each set


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def _summary(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def report(results: dict, bench: dict) -> bool:
    """Print the comparison table; True when every gated figure is within bounds."""
    ok = True
    for w, sets in results.items():
        print(f"\n== {w}")
        for k, runs in enumerate(sets):
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            walls = [r["wall_s"] for r in runs]
            correct = all(r["correct"] for r in runs)
            print(f"  set {k + 1}: {len(runs)} runs, correct {correct}, failed {fail}/{att}, "
                  f"ops/run {min(r['attempted'] for r in runs)}-{max(r['attempted'] for r in runs)}, "
                  f"wall/run {min(walls):.1f}-{max(walls):.1f} s")
            ok &= correct
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        ok &= len(set(shares)) == 1
        print(f"  {'metric':12s} {'set':>3s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'bound':>6s} {'worse':>7s}")
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            meds = []
            for k, runs in enumerate(sets):
                med, q1, q3 = _summary([r["metrics"][name]["value"] for r in runs])
                spread = (q3 - q1) / med
                meds.append(med)
                gated = name != "setup_s"
                flag = "" if (not gated or spread <= bound) else "  SPREAD>BOUND"
                ok &= not flag
                worse = ""
                if k > 0:
                    shift = (med - meds[0]) / meds[0] * (1 if lower else -1)
                    worse = f"{shift:+7.3f}"
                    if shift > bound:
                        flag += "  SHIFT>BOUND"
                        ok = False
                print(f"  {name:12s} {k + 1:3d} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                      f"{spread:7.3f} {bound:6.2f} {worse:>7s}{flag}")
    print("\nall within bounds" if ok else "\nSOME FIGURES OUT OF BOUNDS")
    return ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    results = {w: [[] for _ in SET_SEEDS] for w in names}
    for k, base in enumerate(SET_SEEDS):
        for r in range(RUNS):
            for w in names:
                res = run_once(w, base + r, seconds)
                results[w][k].append(res)
                print(f"set {k + 1} run {r + 1} {w}: " + ", ".join(
                    f"{n}={v['value']:.4g}" for n, v in res["metrics"].items()
                ) + f", ops={res['attempted']}, wall={res['wall_s']:.1f}s", flush=True)
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(json.dumps(results))
    return 0 if report(results, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
