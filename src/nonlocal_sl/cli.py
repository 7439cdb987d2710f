"""Command-line frontend: strict config parsing and deterministic artifacts.

Configs are JSON with complex numbers written as [re, im] pairs.  Unknown
fields are rejected with their path, so a typo in a measure cannot silently
change the problem.  All outputs are byte-stable across reruns with the
same config and seed.

The library reads the problem's schema: `q`, `U1` and `U2` go through the
reader behind `ProblemSpec.from_dict`, whose paths are the config's own, and
a target through `InverseTarget.from_dict`.  This module checks what is its
own: the top-level `T` (required once any problem field is present, and
matched by `q.T`), seed, threads, output and the command sections.

Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 failed regression criterion.

Only the standard library and the package's exception types are imported at
module level.  The numerics load inside the validators and the command
handlers, after the thread cap from --threads or the config's `threads` has
been applied.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

from .errors import ConfigError, InputError, NumericalError, _Ctx, _number, _order, _pair_list, _reals, _whole

# argparse checks these choices before any numerics load, so they cannot be
# read from the library; they serve argparse only, and a test pins them to
# inversion._BASES and scenarios._NAMES.
_BASES = ("cosine", "piecewise")
_SCENARIO_NAMES = ("counterexample1", "counterexample2", "three_spectra")
_PROBLEM = ("q", "U1", "U2")  # with T, the config's problem fields


# ---------------------------------------------------------------------------
# Schema validation


def _interval(ctx, v, path):
    if not (_reals(v) and len(v) == 2):
        ctx.err(path, "expected [low, high]")
        return None
    if not v[0] < v[1]:
        ctx.err(path, "low must be below high")
        return None
    return float(v[0]), float(v[1])


def _box(ctx, v, path):
    """A search box {re: [lo, hi], im: [lo, hi]} as (re_min, re_max, im_min, im_max)."""
    if not isinstance(v, dict):
        ctx.err(path, "expected an object with re and im ranges")
        return None
    ctx.strict(v, path, {"re", "im"})
    re = _interval(ctx, v.get("re"), f"{path}.re")
    im = _interval(ctx, v.get("im"), f"{path}.im")
    return None if re is None or im is None else (*re, *im)


def _threads(ctx, raw):
    threads = raw.get("threads")
    return None if threads is None else _whole(ctx, threads, ".threads", 1)


def _sec_forward(ctx, d, path):
    from .characteristic import _NAMES

    ctx.strict(d, path, {"lambdas", "quantities"})
    lam = _pair_list(ctx, d.get("lambdas"), f"{path}.lambdas")
    names = _NAMES + ("M", "N")
    quantities = d.get("quantities", [*_NAMES, "M"])
    if (
        not isinstance(quantities, list)
        or not quantities
        or any(q not in names for q in quantities)
        or len(set(quantities)) != len(quantities)
    ):
        ctx.err(f"{path}.quantities", f"expected distinct names from {names}")
        return None
    return {"lambdas": lam, "quantities": quantities}


def _sec_spectrum(ctx, d, path):
    from .characteristic import _NAMES

    ctx.strict(d, path, {"which", "box", "tol", "real_axis"})
    which = d.get("which", "delta1")
    if which not in _NAMES:
        ctx.err(f"{path}.which", f"expected one of {_NAMES}")
    box = _box(ctx, d.get("box"), f"{path}.box")
    tol = _number(ctx, d.get("tol", 1e-8), f"{path}.tol", positive=True)
    real_axis = d.get("real_axis", False)
    if not isinstance(real_axis, bool):
        ctx.err(f"{path}.real_axis", "expected true or false")
    return {"which": which, "box": box, "tol": tol, "real_axis": real_axis}


def _sec_weyl(ctx, d, path):
    ctx.strict(d, path, {"lambdas", "which", "xi_count"})
    lam = _pair_list(ctx, d.get("lambdas"), f"{path}.lambdas")
    which = d.get("which", "M")
    if which not in ("M", "N"):
        ctx.err(f"{path}.which", "expected M or N")
    n_xi = _number(ctx, d.get("xi_count", 0), f"{path}.xi_count", integer=True, minimum=0)
    return {"lambdas": lam, "which": which, "xi_count": n_xi}


def _sec_asym(ctx, d, path):
    from .asymptotics import _DEFAULT_RADII, _QUANTITIES

    ctx.strict(d, path, {"quantity", "x", "order", "ray"})
    quantity = d.get("quantity")
    if quantity not in _QUANTITIES:
        ctx.err(f"{path}.quantity", f"expected one of {_QUANTITIES}")
    x = None
    if d.get("x") is not None:
        x = _number(ctx, d["x"], f"{path}.x")
    order = _order(ctx, d.get("order", 0), f"{path}.order")
    ray, p = d.get("ray"), f"{path}.ray"
    if not ctx.obj(ray, p, {"kind", "angle", "delta", "radii", "reference"}):
        return None
    kind = ray.get("kind", "Pi_delta")
    if kind not in ("Pi_delta", "G_delta"):
        ctx.err(f"{p}.kind", "expected Pi_delta or G_delta")
    angle = _number(ctx, ray.get("angle"), f"{p}.angle")
    delta = _number(ctx, ray.get("delta", 0.1), f"{p}.delta", positive=True)
    radii = ray.get("radii", list(_DEFAULT_RADII))
    if not _reals(radii, 2) or any(a >= b for a, b in zip(radii, radii[1:])):
        ctx.err(f"{p}.radii", "expected an increasing list of at least two radii")
    reference = None
    if kind == "G_delta":
        if "reference" not in ray:
            ctx.err(f"{p}.reference", "G_delta needs reference eigenvalues")
        else:
            reference = _pair_list(ctx, ray["reference"], f"{p}.reference")
    elif "reference" in ray:
        ctx.err(f"{p}.reference", "only meaningful for G_delta")
    ray = {"kind": kind, "angle": angle, "delta": delta, "radii": radii, "reference": reference}
    return {"quantity": quantity, "x": x, "order": order, "ray": ray}


# The section's defaults; its keys are also the fields the section accepts.
_INVERT_DEFAULTS = {
    "kind": "two_spectra",
    "n_each": 8,
    "lambdas": None,
    "xi_count": 6,
    "data": None,
    "basis": "cosine",
    "dim": 4,
    "starts": 5,
    "tol": 1e-9,
    "max_iter": 60,
    "initial": None,
}


def _sec_invert(ctx, d, path):
    from .inversion import _BASES, _KINDS

    ctx.strict(d, path, _INVERT_DEFAULTS)
    out = {**_INVERT_DEFAULTS, **d}
    if out["kind"] not in _KINDS:
        ctx.err(f"{path}.kind", f"expected one of {_KINDS}")
    out["n_each"] = _number(ctx, out["n_each"], f"{path}.n_each", integer=True, minimum=1)
    if "lambdas" in d:
        out["lambdas"] = _pair_list(ctx, d["lambdas"], f"{path}.lambdas")
    out["xi_count"] = _number(ctx, out["xi_count"], f"{path}.xi_count", integer=True, minimum=1)
    if out["data"] is not None and not isinstance(out["data"], dict):
        ctx.err(f"{path}.data", "expected a serialized target object")
    if out["basis"] not in _BASES:
        ctx.err(f"{path}.basis", "expected cosine or piecewise")
    out["dim"] = _number(ctx, out["dim"], f"{path}.dim", integer=True, minimum=1)
    out["starts"] = _number(ctx, out["starts"], f"{path}.starts", integer=True, minimum=1)
    out["tol"] = _number(ctx, out["tol"], f"{path}.tol", positive=True)
    out["max_iter"] = _number(ctx, out["max_iter"], f"{path}.max_iter", integer=True, minimum=0)
    if "initial" in d:
        if _reals(d["initial"]):
            out["initial"] = [float(u) for u in d["initial"]]
        else:
            ctx.err(f"{path}.initial", "expected a list of real coefficients")
    return out


# The section's defaults; its keys are also the fields the section accepts.
_SCENARIO_DEFAULTS = {
    "name": None,
    "params": {},
    "grid": {"start": 1.0, "stop": 90.0, "count": 50, "imag": 0.5},
    "tol": 1e-6,
    "d_count": 6,
    "box": (0.5, 60.0, -1.0, 1.0),
}


def _sec_scenario(ctx, d, path):
    from .scenarios import _NAMES, _PARAM_KEYS

    ctx.strict(d, path, _SCENARIO_DEFAULTS)
    out = {**_SCENARIO_DEFAULTS, **d}
    name = out["name"]
    if name not in _NAMES:
        ctx.err(f"{path}.name", f"expected one of {_NAMES}")
        return None
    # every builder parameter but the potential q, which JSON cannot express
    if ctx.obj(out["params"], f"{path}.params", _PARAM_KEYS[name] - {"q"}):
        for k, v in out["params"].items():
            _number(ctx, v, f"{path}.params.{k}", integer=k == "n_cells")
        out["params"] = dict(out["params"])  # never the module default itself
    grid, out["grid"] = out["grid"], dict(_SCENARIO_DEFAULTS["grid"])
    if ctx.obj(grid, f"{path}.grid", out["grid"]):
        for k in out["grid"]:
            if k in grid:
                count = k == "count"
                at = f"{path}.grid.{k}"
                v = _number(ctx, grid[k], at, integer=count, minimum=1 if count else None)
                if v is not None:
                    out["grid"][k] = v
    out["tol"] = _number(ctx, out["tol"], f"{path}.tol", positive=True)
    out["d_count"] = _number(ctx, out["d_count"], f"{path}.d_count", integer=True, minimum=1)
    if "box" in d:
        out["box"] = _box(ctx, d["box"], f"{path}.box")
    return out


_SECTION_CHECKS = {
    "forward": _sec_forward,
    "spectrum": _sec_spectrum,
    "weyl": _sec_weyl,
    "asym": _sec_asym,
    "invert": _sec_invert,
    "scenario": _sec_scenario,
}


@dataclass(frozen=True)
class RunConfig:
    """A validated configuration: the problem plus per-command options."""

    problem: object | None = None
    seed: int = 0
    threads: int | None = None
    output_path: str | None = None
    output_format: str | None = None
    sections: dict = field(default_factory=dict)


def _load(text: str, where: str = ".") -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([(where, f"not valid JSON: {e}")])
    if not isinstance(raw, dict):
        raise ConfigError([(where, "the top level must be an object")])
    return raw


def _validate(raw: dict) -> RunConfig:
    """The RunConfig of a config object; raises ConfigError listing every problem."""
    ctx = _Ctx()
    ctx.strict(raw, "", {"T", *_PROBLEM, "seed", "threads", "output", *_SECTION_CHECKS})
    problem = None
    missing = [k for k in ("T", *_PROBLEM) if k not in raw]
    if len(missing) <= len(_PROBLEM):  # some problem field is present
        for k in missing:
            ctx.err(f".{k}", "required once any problem field is present")
        T = _number(ctx, raw["T"], ".T", positive=True) if "T" in raw else None
        q = raw.get("q")
        if T is not None and isinstance(q, dict) and "T" in q:
            tq = _number(ctx, q["T"], ".q.T", positive=True)
            if tq is not None and abs(tq - T) > 1e-12 * max(1.0, T):
                ctx.err(".q.T", "must match the top-level T")
        if T is not None and not missing:
            from .characteristic import _read_problem

            # the library reads the problem fields; its paths are the config's own
            problem = _read_problem(ctx, {k: raw[k] for k in _PROBLEM}, "", T)

    seed = _whole(ctx, raw.get("seed", 0), ".seed", 0)
    threads = _threads(ctx, raw)
    out = raw.get("output", {})
    if not ctx.obj(out, ".output", {"path", "format"}):
        out = {}
    if out.get("path") is not None and not isinstance(out["path"], str):
        ctx.err(".output.path", "expected a string")
    if out.get("format") is not None and out["format"] not in ("json", "csv"):
        ctx.err(".output.format", "expected json or csv")

    sections = {}
    for name, check in _SECTION_CHECKS.items():
        if name in raw and ctx.obj(raw[name], f".{name}"):
            sections[name] = check(ctx, raw[name], f".{name}")

    if ctx.errors:
        raise ConfigError(ctx.errors)
    return RunConfig(problem, seed, threads, out.get("path"), out.get("format"), sections)


# ---------------------------------------------------------------------------
# Serialization helpers


def _cpairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def _masked(vals, ok):
    """A guarded ratio as JSON pairs (None under its pole guard) and CSV cells with an ok flag."""
    pairs = [[float(v.real), float(v.imag)] if k else None for v, k in zip(vals, ok)]
    return pairs, [p + [1] if p else ["", "", 0] for p in pairs]


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Command handlers: each takes (config, parsed arguments) and returns
# (payload, (csv header, csv rows))


def _need(cfg: RunConfig, name: str) -> dict:
    if name not in cfg.sections:
        raise ConfigError([(f".{name}", f"the {name} command needs this section")])
    return cfg.sections[name]


def _need_problem(cfg: RunConfig):
    if cfg.problem is None:
        raise ConfigError([(".", "this command needs the problem fields T, q, U1, U2")])
    return cfg.problem


def _run_forward(cfg: RunConfig, args):
    import numpy as np

    from .characteristic import _NAMES, char_batch

    spec = _need_problem(cfg)
    opts = _need(cfg, "forward")
    lam = np.asarray(opts["lambdas"], dtype=complex)
    cb = char_batch(spec, lam)
    payload = {"lambdas": _cpairs(lam)}
    header = ["lambda_re", "lambda_im"]
    columns = [payload["lambdas"]]
    for q in opts["quantities"]:
        if q in _NAMES:
            payload[q] = _cpairs(getattr(cb, q))
            header += [f"{q}_re", f"{q}_im"]
            columns.append(payload[q])
        else:
            vals, ok = cb.weyl_M_values() if q == "M" else cb.weyl_N_values()
            payload[q], cells = _masked(vals, ok)
            payload[f"{q}_ok"] = [bool(k) for k in ok]
            header += [f"{q}_re", f"{q}_im", f"{q}_ok"]
            columns.append(cells)
    rows = [[c for col in columns for c in col[i]] for i in range(len(lam))]
    return payload, (header, rows)


def _run_spectrum(cfg: RunConfig, args):
    from .spectrum_finder import SearchBox, problem_spectrum

    spec = _need_problem(cfg)
    opts = _need(cfg, "spectrum")
    box = SearchBox(*opts["box"])
    sp = problem_spectrum(spec, opts["which"], box, tol=opts["tol"], real_axis=opts["real_axis"])
    eig = [[float(z.real), float(z.imag), int(m)] for z, m in sp.entries]
    payload = {"which": opts["which"], "eigenvalues": eig, "winding_total": sp.winding_total}
    return payload, (["lambda_re", "lambda_im", "multiplicity"], eig)


def _run_weyl(cfg: RunConfig, args):
    import numpy as np

    from .characteristic import _ratios_at, char_batch
    from .inversion import _first_n_real

    spec = _need_problem(cfg)
    opts = _need(cfg, "weyl")
    lam = np.asarray(opts["lambdas"], dtype=complex)
    n_xi = int(opts["xi_count"])
    xi = _first_n_real(spec, "omega", n_xi) if n_xi > 0 else ()
    cb = char_batch(spec, np.concatenate([lam, np.asarray(xi, dtype=complex)]))  # one sweep for M and d_n
    vals, ok = (v[: len(lam)] for v in (cb.weyl_M_values() if opts["which"] == "M" else cb.weyl_N_values()))
    values, cells = _masked(vals, ok)
    payload = {
        "which": opts["which"],
        "lambdas": _cpairs(lam),
        "values": values,
        "ok": [bool(k) for k in ok],
    }
    if n_xi > 0:
        seq = _ratios_at(cb, len(lam))
        payload["d"] = {
            "xi": _cpairs(xi),
            "values": ["inf" if r.is_infinite else [r.value.real, r.value.imag] for r in seq],
            "defects": [float(r.defect) for r in seq],
        }
    rows = [z + c for z, c in zip(payload["lambdas"], cells)]
    return payload, (["lambda_re", "lambda_im", "value_re", "value_im", "ok"], rows)


def _run_asym(cfg: RunConfig, args):
    from .asymptotics import RaySpec, asym_report

    spec = _need_problem(cfg)
    opts = _need(cfg, "asym")
    r = opts["ray"]
    kw = {"angle": r["angle"], "delta": r["delta"], "radii": tuple(r["radii"])}
    if r["kind"] == "Pi_delta":
        ray = RaySpec.pi_delta(**kw)
    else:
        ray = RaySpec.g_delta(reference=r["reference"], **kw)
    rep = asym_report(opts["quantity"], opts["x"], ray, spec, order=opts["order"])
    table = rep.csv_rows()
    payload = {
        k: (None if isinstance(v, float) and not math.isfinite(v) else v)
        for k, v in rep.summary().items()
    }
    payload["rows"] = table[1:]
    return payload, (table[0], table[1:])


def _build_target(spec, opts):
    import numpy as np

    from .inversion import (
        InverseTarget,
        make_three_spectra_target,
        make_two_spectra_target,
        make_weyl_target,
    )

    if opts["data"] is not None:
        try:
            return InverseTarget.from_dict(opts["data"])
        except ConfigError as e:  # a target's problems are one input-error line, not config paths
            lines = (m if p == "." else f"target {p[1:]}: {m}" for p, m in e.errors)
            raise InputError("; ".join(lines)) from None
    kind = opts["kind"]
    n = int(opts["n_each"])
    if kind == "two_spectra":
        return make_two_spectra_target(spec, n)
    if kind == "three_spectra":
        return make_three_spectra_target(spec, n)
    if opts["lambdas"] is None:
        raise ConfigError(
            [(".invert.lambdas", "generating Weyl-type data needs a lambda grid")]
        )
    lam = np.asarray(opts["lambdas"], dtype=complex)
    return make_weyl_target(
        spec, lam, with_d=(kind == "weyl_pair_with_D"), n_xi=int(opts["xi_count"])
    )


def _run_invert(cfg: RunConfig, args):
    import numpy as np

    from .inversion import BasisSpec, ReconstructOptions, reconstruct

    spec = _need_problem(cfg)
    opts = dict(_need(cfg, "invert"))
    if args.target is not None:
        try:
            with open(args.target, encoding="utf-8") as fh:
                opts["data"] = _load(fh.read(), "--target")
        except OSError as e:
            raise ConfigError([("--target", f"cannot read target file: {e}")])
    for key in ("basis", "dim", "starts", "tol"):
        if getattr(args, key) is not None:
            opts[key] = getattr(args, key)
    target = _build_target(spec, opts)
    dim = int(opts["dim"])
    basis = BasisSpec(opts["basis"], spec.T, dim)
    initial = opts["initial"]
    c0 = np.zeros(dim) if initial is None else np.asarray(initial, dtype=float)
    ro = ReconstructOptions(
        template=spec,
        basis=basis,
        starts=int(opts["starts"]),
        tol=float(opts["tol"]),
        max_iter=int(opts["max_iter"]),
        seed=cfg.seed,
    )
    result = reconstruct(target, c0, ro)
    payload = result.to_dict()
    payload["data_kind"] = target.kind
    payload["basis"] = {"type": opts["basis"], "dim": dim}
    rows = [[i, float(c)] for i, c in enumerate(result.coeffs)]
    return payload, (["index", "coefficient"], rows)


def _run_scenario(cfg: RunConfig, args):
    import numpy as np

    from . import scenarios
    from .inversion import _certificate_to_dict, _first_n_real, distinguishability
    from .spectrum_finder import SearchBox

    if args.name is not None:
        opts = {**cfg.sections.get("scenario", _SCENARIO_DEFAULTS), "name": args.name}
        opts["params"], opts["grid"] = dict(opts["params"]), dict(opts["grid"])
        if args.name == "three_spectra" and not opts["params"]:
            opts["params"] = {"a": 1.0}
    else:
        opts = _need(cfg, "scenario")
    built, _ = scenarios.build_scenario(opts["name"], opts["params"])
    if opts["name"] == "three_spectra":
        rep = scenarios.three_spectra_overlap_rule(
            built.spec, built.params["a"], SearchBox(*opts["box"])
        )
        entries = [
            [[e.lam.real, e.lam.imag], list(e.members)] for e in rep.entries
        ]
        payload = {
            "name": built.name,
            "params": built.params,
            "entries": entries,
            "counts": {str(k): v for k, v in rep.counts().items()},
            "violations": len(rep.violations),
            "warnings": len(rep.warnings),
            "ok": rep.ok,
        }
        rows = [
            [e.lam.real, e.lam.imag, len(e.members), " ".join(e.members)]
            for e in rep.entries
        ]
        return payload, (["lambda_re", "lambda_im", "count", "members"], rows)
    g = opts["grid"]
    lam = np.linspace(g["start"], g["stop"], int(g["count"])) + 1j * g["imag"]
    try:
        rep = scenarios.verify_counterexample(built, lam, tol=opts["tol"])
    except InputError as e:  # the grid's reach or a grid point under a pole guard
        raise ConfigError([(".scenario.grid", str(e))]) from None
    payload = {
        "name": built.name,
        "params": built.params,
        "m_deviation": rep.m_deviation,
        "omega_deviation": rep.omega_deviation,
        "delta1_deviation": rep.delta1_deviation,
        "delta2_deviation": rep.delta2_deviation,
        "q_sup_difference": rep.q_sup_difference,
        "condition_s": {
            k: v for k, v in _certificate_to_dict(rep.condition_s).items() if k != "separation_tol"
        },
        "s_failure": not rep.condition_s.holds,
    }
    if built.name == "counterexample1":
        xi = _first_n_real(built.spec, "omega", int(opts["d_count"]), length=built.spec.T / 2.0)
        payload["d_distinguishability"] = distinguishability(
            built.spec, built.spec_mirror, "weyl_pair_with_D", lam, xi=xi
        )
    if rep.lambda2_containment is not None:
        payload["lambda2_containment"] = rep.lambda2_containment
    rows = [[k, v] for k, v in sorted(payload.items()) if isinstance(v, (int, float))]
    return payload, (["field", "value"], rows)


_HANDLERS = {
    "forward": _run_forward,
    "spectrum": _run_spectrum,
    "weyl": _run_weyl,
    "asym": _run_asym,
    "invert": _run_invert,
    "scenario": _run_scenario,
}


def _run_regress(args) -> int:
    from . import acceptance

    numbers = None
    if args.criteria:
        known = acceptance.criterion_numbers()
        tokens = [tok.strip() for tok in args.criteria.split(",") if tok.strip()]
        for tok in tokens:
            if not (tok.isdigit() and int(tok) in known):
                known_text = ", ".join(map(str, known))
                raise ConfigError([("--criteria", f"unknown criterion {tok!r}; known: {known_text}")])
        numbers = [int(tok) for tok in tokens]
    results = acceptance.run_all(numbers)
    for r in results:
        sys.stdout.write(r.line + "\n")
    all_passed = all(r.passed for r in results)
    sys.stdout.write(f"{'all criteria passed' if all_passed else 'FAILURES present'}\n")
    if args.out:
        payload = {
            "criteria": [r.to_dict() for r in results],
            "all_passed": all_passed,
        }
        _emit(_json_text(payload), args.out)
    return 0 if all_passed else 4


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nonlocal-sl",
        description="Spectral and inverse-spectral computations for nonlocal "
        "Sturm-Liouville problems.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in (*_HANDLERS, "regress"):
        sp = sub.add_parser(name)
        if name == "regress":
            sp.add_argument("--criteria", help="comma-separated criterion numbers")
            sp.add_argument("--out", help="write a JSON report here")
            sp.add_argument("--threads", type=int)
            continue
        sp.add_argument(
            "config",
            nargs="?" if name == "scenario" else None,
            help="path to a JSON config",
        )
        sp.add_argument("--out", help="write the artifact here instead of stdout")
        sp.add_argument("--format", choices=("json", "csv"))
        sp.add_argument("--seed", type=int)
        sp.add_argument("--threads", type=int)
        if name == "invert":
            sp.add_argument("--target", help="path to a serialized data JSON")
            sp.add_argument("--basis", choices=_BASES)
            sp.add_argument("--dim", type=int)
            sp.add_argument("--starts", type=int)
            sp.add_argument("--tol", type=float)
        if name == "scenario":
            sp.add_argument("--name", choices=_SCENARIO_NAMES)
    return p


def _check_flags(args) -> None:
    """Each numeric flag given, by the rule of the config key it overrides."""
    ctx = _Ctx()
    for key, low in (("seed", 0), ("threads", 1), ("dim", 1), ("starts", 1)):
        if getattr(args, key, None) is not None:
            _whole(ctx, getattr(args, key), f"--{key}", low)
    if getattr(args, "tol", None) is not None:
        _number(ctx, args.tol, "--tol", positive=True)
    if ctx.errors:
        raise ConfigError(ctx.errors)


def _apply_threads(n: int | None) -> None:
    if n is None:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(n)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        _apply_threads(args.threads)
        if args.command == "regress":
            return _run_regress(args)
        cfg = RunConfig()
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    raw = _load(fh.read())
            except OSError as e:
                raise ConfigError([(".", f"cannot read config file: {e}")])
            if args.threads is None:
                # the validators load the numerics; a bad value is reported by them
                _apply_threads(_threads(_Ctx(), raw))
            cfg = _validate(raw)
        elif args.command != "scenario" or args.name is None:
            raise ConfigError([(".", "a config file is required")])
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        payload, table = _HANDLERS[args.command](cfg, args)
    except ConfigError as e:
        for path, msg in e.errors:
            sys.stderr.write(f"config error at {path}: {msg}\n")
        return 2
    except InputError as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    except NumericalError as e:
        sys.stderr.write(f"numerical failure: {e}\n")
        return 3
    fmt = args.format or cfg.output_format or "json"
    path = args.out or cfg.output_path
    if fmt == "csv":
        header, rows = table
        _emit(_csv_text(header, rows), path)
    else:
        _emit(_json_text(payload), path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
