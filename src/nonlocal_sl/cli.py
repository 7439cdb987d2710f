"""Command-line frontend: strict config parsing and deterministic artifacts.

Configs are JSON with complex numbers written as [re, im] pairs.  Unknown
fields are rejected with their path, so a typo in a measure cannot silently
change the problem.  All outputs are byte-stable across reruns with the
same config and seed.

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

from .errors import ConfigError, InputError, NumericalError

# argparse checks these choices before any numerics load, so they cannot be
# read from the library; they serve argparse only, and a test pins them to
# inversion._BASES and scenarios._NAMES.
_BASES = ("cosine", "piecewise")
_SCENARIO_NAMES = ("counterexample1", "counterexample2", "three_spectra")


# ---------------------------------------------------------------------------
# Schema validation


class _Ctx:
    def __init__(self):
        self.errors: list = []

    def err(self, path: str, msg: str):
        self.errors.append((path or ".", msg))

    def strict(self, d: dict, path: str, allowed):
        for k in d:
            if k not in allowed:
                self.err(f"{path}.{k}", "unknown field")


def _real(v) -> bool:
    return not isinstance(v, bool) and isinstance(v, (int, float))


def _reals(v, min_len=0) -> bool:
    """True for a list of at least min_len real numbers (booleans are not numbers)."""
    return isinstance(v, list) and len(v) >= min_len and all(_real(u) for u in v)


def _number(ctx, v, path, positive=False, integer=False, minimum=None):
    if not _real(v):
        ctx.err(path, "expected a number")
        return None
    if integer and not isinstance(v, int):
        ctx.err(path, "expected an integer")
        return None
    if not math.isfinite(v):
        ctx.err(path, "must be finite")
        return None
    if positive and not v > 0:
        ctx.err(path, "must be positive")
        return None
    if minimum is not None and v < minimum:
        ctx.err(path, f"must be at least {minimum}")
        return None
    return v


def _order(ctx, v, path):
    if type(v) is not int or v not in (0, 1):  # true == 1 and 1.0 == 1 are not orders
        ctx.err(path, "expected 0 or 1")
        return None
    return v


def _pair(ctx, v, path):
    if not (_reals(v) and len(v) == 2):
        ctx.err(path, "expected a [re, im] pair")
        return None
    return complex(v[0], v[1])


def _pair_list(ctx, v, path, min_len=1):
    if not isinstance(v, list) or len(v) < min_len:
        ctx.err(path, f"expected a list of at least {min_len} [re, im] pairs")
        return None
    out = [_pair(ctx, u, f"{path}[{i}]") for i, u in enumerate(v)]
    return None if any(c is None for c in out) else out


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
    if threads is not None and (type(threads) is not int or threads < 1):
        ctx.err(".threads", "expected a positive integer")
        return None
    return threads


def _check_potential(ctx, d, path, T):
    if not isinstance(d, dict):
        ctx.err(path, "expected an object")
        return None
    ctx.strict(d, path, {"type", "T", "data"})
    kind = d.get("type")
    if kind not in ("zero", "grid", "piecewise", "cosine"):
        ctx.err(f"{path}.type", "expected zero, grid, piecewise, or cosine")
        return None
    if "T" in d:
        tq = _number(ctx, d["T"], f"{path}.T", positive=True)
        if tq is not None and T is not None and abs(tq - T) > 1e-12 * max(1.0, T):
            ctx.err(f"{path}.T", "must match the top-level T")
    if T is None:
        return None
    from .potential import Potential

    if kind == "zero":
        if "data" in d:
            ctx.err(f"{path}.data", "the zero potential takes no data")
            return None
        return Potential.zero(T)
    data = d.get("data")
    if not isinstance(data, dict):
        ctx.err(f"{path}.data", "expected an object")
        return None
    fields = {
        "grid": {"x": False, "values": True},
        "piecewise": {"breakpoints": False, "values": True},
        "cosine": {"coefficients": True},
    }[kind]
    ctx.strict(data, f"{path}.data", set(fields))
    ok = True
    for key, is_pairs in fields.items():
        v, p = data.get(key), f"{path}.data.{key}"
        if is_pairs:
            ok &= _pair_list(ctx, v, p) is not None
        elif not _reals(v):
            ctx.err(p, "expected a list of numbers")
            ok = False
    if not ok:
        return None
    try:
        return Potential.from_dict({"type": kind, "T": T, "data": data})
    except InputError as e:
        ctx.err(f"{path}.data", str(e))
        return None


def _check_form(ctx, d, path, T, first):
    if not isinstance(d, dict):
        ctx.err(path, "expected an object")
        return None
    kind = d.get("type")
    if kind == "point":
        ctx.strict(d, path, {"type", "x", "order"})
        x = _number(ctx, d.get("x"), f"{path}.x")
        if _order(ctx, d.get("order", 0), f"{path}.order") is None or x is None:
            return None
        if T is not None and not 0.0 <= x <= T:
            ctx.err(f"{path}.x", f"must lie in [0, {T:g}]")
            return None
    elif kind == "nonlocal":
        ctx.strict(d, path, {"type", "measure"})
        m = d.get("measure")
        if not isinstance(m, dict):
            ctx.err(f"{path}.measure", "expected an object")
            return None
        ctx.strict(m, f"{path}.measure", {"jump", "atoms", "density"})
        jump = 0j
        if "jump" in m:
            jump = _pair(ctx, m["jump"], f"{path}.measure.jump")
        atoms = m.get("atoms", [])
        if not isinstance(atoms, list):
            ctx.err(f"{path}.measure.atoms", "expected a list of [t, [re, im]] entries")
        else:
            for i, a in enumerate(atoms):
                p = f"{path}.measure.atoms[{i}]"
                if not isinstance(a, list) or len(a) != 2:
                    ctx.err(p, "expected [t, [re, im]]")
                    continue
                t = _number(ctx, a[0], p)
                _pair(ctx, a[1], p)
                if t is not None and t <= 0.0:
                    ctx.err(p, "atoms live in (0, T]; the point mass at 0 is the jump field")
                elif t is not None and T is not None and t > T:
                    ctx.err(p, f"atom location exceeds T = {T:g}")
        dens = m.get("density")
        if dens is not None:
            p = f"{path}.measure.density"
            if not isinstance(dens, dict):
                ctx.err(p, "expected an object")
            else:
                ctx.strict(dens, p, {"breakpoints", "values"})
                if not _reals(dens.get("breakpoints"), 2):
                    ctx.err(f"{p}.breakpoints", "expected at least two numbers")
                _pair_list(ctx, dens.get("values"), f"{p}.values", 2)
        if first and jump == 0:
            ctx.err(f"{path}.measure.jump", "the first form needs a nonzero point mass at 0")
    else:
        ctx.err(f"{path}.type", "expected point or nonlocal")
        return None
    if ctx.errors or T is None:
        return None
    from .measure import LinearForm

    try:
        return LinearForm.from_dict(d, T)
    except InputError as e:
        ctx.err(path, str(e))
        return None


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
    ray = d.get("ray")
    if not isinstance(ray, dict):
        ctx.err(f"{path}.ray", "expected an object")
        return None
    p = f"{path}.ray"
    ctx.strict(ray, p, {"kind", "angle", "delta", "radii", "reference"})
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
    out["max_iter"] = _number(ctx, out["max_iter"], f"{path}.max_iter", integer=True, minimum=1)
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
    if not isinstance(out["params"], dict):
        ctx.err(f"{path}.params", "expected an object")
    else:
        # every builder parameter but the potential q, which JSON cannot express
        ctx.strict(out["params"], f"{path}.params", _PARAM_KEYS[name] - {"q"})
        for k, v in out["params"].items():
            _number(ctx, v, f"{path}.params.{k}")
        out["params"] = dict(out["params"])  # never the module default itself
    grid, out["grid"] = out["grid"], dict(_SCENARIO_DEFAULTS["grid"])
    if not isinstance(grid, dict):
        ctx.err(f"{path}.grid", "expected an object")
    else:
        ctx.strict(grid, f"{path}.grid", out["grid"])
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


def _load(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([(".", f"not valid JSON: {e}")])
    if not isinstance(raw, dict):
        raise ConfigError([(".", "the top level must be an object")])
    return raw


def _validate(raw: dict) -> RunConfig:
    from .characteristic import ProblemSpec

    ctx = _Ctx()
    ctx.strict(raw, "", {"T", "q", "U1", "U2", "seed", "threads", "output", *_SECTION_CHECKS})
    problem = T = None
    if any(k in raw for k in ("T", "q", "U1", "U2")):
        for k in ("T", "q", "U1", "U2"):
            if k not in raw:
                ctx.err(f".{k}", "required once any problem field is present")
        if "T" in raw:
            T = _number(ctx, raw["T"], ".T", positive=True)
        q = _check_potential(ctx, raw["q"], ".q", T) if "q" in raw else None
        u1 = _check_form(ctx, raw["U1"], ".U1", T, first=True) if "U1" in raw else None
        u2 = _check_form(ctx, raw["U2"], ".U2", T, first=False) if "U2" in raw else None
        if not ctx.errors and q is not None and u1 is not None and u2 is not None:
            try:
                problem = ProblemSpec(q=q, form1=u1, form2=u2)
            except InputError as e:
                ctx.err(".", str(e))

    seed = raw.get("seed", 0)
    if type(seed) is not int or seed < 0:
        ctx.err(".seed", "expected a non-negative integer")
    threads = _threads(ctx, raw)
    out = raw.get("output", {})
    if not isinstance(out, dict):
        ctx.err(".output", "expected an object")
        out = {}
    ctx.strict(out, ".output", {"path", "format"})
    if out.get("path") is not None and not isinstance(out["path"], str):
        ctx.err(".output.path", "expected a string")
    if out.get("format") is not None and out["format"] not in ("json", "csv"):
        ctx.err(".output.format", "expected json or csv")

    sections = {}
    for name, check in _SECTION_CHECKS.items():
        if name in raw:
            if not isinstance(raw[name], dict):
                ctx.err(f".{name}", "expected an object")
            else:
                sections[name] = check(ctx, raw[name], f".{name}")

    if ctx.errors:
        raise ConfigError(ctx.errors)
    return RunConfig(problem, seed, threads, out.get("path"), out.get("format"), sections)


def parse_config(text: str) -> "RunConfig":
    """Validate config text; raises ConfigError listing every schema problem."""
    return _validate(_load(text))


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

    from .characteristic import char_batch, d_sequence
    from .inversion import _first_n_real

    spec = _need_problem(cfg)
    opts = _need(cfg, "weyl")
    lam = np.asarray(opts["lambdas"], dtype=complex)
    cb = char_batch(spec, lam)
    vals, ok = cb.weyl_M_values() if opts["which"] == "M" else cb.weyl_N_values()
    values, cells = _masked(vals, ok)
    payload = {
        "which": opts["which"],
        "lambdas": _cpairs(lam),
        "values": values,
        "ok": [bool(k) for k in ok],
    }
    n_xi = int(opts["xi_count"])
    if n_xi > 0:
        xi = _first_n_real(spec, "omega", n_xi)
        seq = d_sequence(spec, xi)
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
        return InverseTarget.from_dict(opts["data"])
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
        with open(args.target, encoding="utf-8") as fh:
            opts["data"] = json.load(fh)
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


def _condition_s_dict(rep) -> dict:
    w = None if rep.witness is None else _cpairs(rep.witness)
    return {
        "holds": rep.holds,
        "min_gap": rep.min_gap,
        "witness": w,
        "n_first": rep.n_first,
        "n_second": rep.n_second,
    }


def _run_scenario(cfg: RunConfig, args):
    import numpy as np

    from . import scenarios
    from .inversion import _first_n_real, distinguishability
    from .spectrum_finder import SearchBox

    if args.name is not None:
        opts = {**cfg.sections.get("scenario", _SCENARIO_DEFAULTS), "name": args.name}
        opts["params"], opts["grid"] = dict(opts["params"]), dict(opts["grid"])
        if args.name == "three_spectra" and not opts["params"]:
            opts["params"] = {"a": 1.0}
    else:
        opts = _need(cfg, "scenario")
    built, _ = scenarios.build(opts["name"], opts["params"])
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
    rep = scenarios.verify_counterexample(built, lam, tol=opts["tol"])
    payload = {
        "name": built.name,
        "params": built.params,
        "m_deviation": rep.m_deviation,
        "omega_deviation": rep.omega_deviation,
        "delta1_deviation": rep.delta1_deviation,
        "delta2_deviation": rep.delta2_deviation,
        "q_sup_difference": rep.q_sup_difference,
        "condition_s": _condition_s_dict(rep.condition_s),
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
        numbers = [int(tok) for tok in args.criteria.split(",") if tok.strip()]
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
    _apply_threads(args.threads)
    try:
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
