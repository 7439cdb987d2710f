"""Command-line frontend: strict config parsing and deterministic artifacts.

Configs are JSON with complex numbers written as [re, im] pairs.  Unknown
fields are rejected with their path, so a typo in a measure cannot silently
change the problem.  All outputs are byte-stable across reruns with the
same config and seed.

Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 failed regression criterion.

Only the standard library is imported at module level; the numerics load
inside the command handlers, after --threads has been applied.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

_CHAR_NAMES = ("omega", "delta1", "delta2", "delta11")
_FORWARD_QUANTITIES = _CHAR_NAMES + ("M", "N")
_ASYM_QUANTITIES = ("Delta1", "Delta11", "Phi", "v1", "varphi", "v2")
_SCENARIO_NAMES = ("counterexample1", "counterexample2", "three_spectra")
_COMMANDS = ("forward", "spectrum", "weyl", "asym", "invert", "scenario", "regress")


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


def _number(ctx, v, path, positive=False, integer=False, minimum=None):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
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


def _pair(ctx, v, path):
    ok = (
        isinstance(v, (list, tuple))
        and len(v) == 2
        and all(not isinstance(u, bool) and isinstance(u, (int, float)) for u in v)
    )
    if not ok:
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
    if (
        not isinstance(v, list)
        or len(v) != 2
        or any(isinstance(u, bool) or not isinstance(u, (int, float)) for u in v)
    ):
        ctx.err(path, "expected [low, high]")
        return None
    if not v[0] < v[1]:
        ctx.err(path, "low must be below high")
        return None
    return float(v[0]), float(v[1])


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
    from .errors import InputError
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
    shaped = {}
    for key, is_pairs in fields.items():
        v = data.get(key)
        p = f"{path}.data.{key}"
        if is_pairs:
            shaped[key] = _pair_list(ctx, v, p)
        elif not isinstance(v, list) or not all(
            not isinstance(u, bool) and isinstance(u, (int, float)) for u in v
        ):
            ctx.err(p, "expected a list of numbers")
            shaped[key] = None
        else:
            shaped[key] = v
    if any(v is None for v in shaped.values()):
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
        order = d.get("order", 0)
        if order not in (0, 1):
            ctx.err(f"{path}.order", "expected 0 or 1")
            return None
        if x is None:
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
            if not isinstance(dens, dict):
                ctx.err(f"{path}.measure.density", "expected an object")
            else:
                ctx.strict(dens, f"{path}.measure.density", {"breakpoints", "values"})
                bp = dens.get("breakpoints")
                if not isinstance(bp, list) or len(bp) < 2:
                    ctx.err(
                        f"{path}.measure.density.breakpoints",
                        "expected at least two numbers",
                    )
                _pair_list(ctx, dens.get("values"), f"{path}.measure.density.values", 2)
        if first and jump == 0:
            ctx.err(f"{path}.measure.jump", "the first form needs a nonzero point mass at 0")
    else:
        ctx.err(f"{path}.type", "expected point or nonlocal")
        return None
    if ctx.errors or T is None:
        return None
    from .errors import InputError
    from .measure import LinearForm

    key = {"point": "point", "nonlocal": "nonlocal"}[kind]
    raw = dict(d)
    raw["type"] = key
    try:
        return LinearForm.from_dict(raw, T)
    except InputError as e:
        ctx.err(path, str(e))
        return None


def _sec_forward(ctx, d, path):
    ctx.strict(d, path, {"lambdas", "quantities"})
    lam = _pair_list(ctx, d.get("lambdas"), f"{path}.lambdas")
    quantities = d.get("quantities", list(_CHAR_NAMES) + ["M"])
    if (
        not isinstance(quantities, list)
        or not quantities
        or len(set(quantities)) != len(quantities)
        or any(q not in _FORWARD_QUANTITIES for q in quantities)
    ):
        ctx.err(f"{path}.quantities", f"expected distinct names from {_FORWARD_QUANTITIES}")
        return None
    return {"lambdas": lam, "quantities": list(quantities)}


def _sec_spectrum(ctx, d, path):
    ctx.strict(d, path, {"which", "box", "tol", "real_axis"})
    which = d.get("which", "delta1")
    if which not in _CHAR_NAMES:
        ctx.err(f"{path}.which", f"expected one of {_CHAR_NAMES}")
    box = d.get("box")
    rng = None
    if not isinstance(box, dict):
        ctx.err(f"{path}.box", "expected an object with re and im ranges")
    else:
        ctx.strict(box, f"{path}.box", {"re", "im"})
        re = _interval(ctx, box.get("re"), f"{path}.box.re")
        im = _interval(ctx, box.get("im"), f"{path}.box.im")
        rng = None if re is None or im is None else (re, im)
    tol = _number(ctx, d.get("tol", 1e-8), f"{path}.tol", positive=True)
    real_axis = d.get("real_axis", False)
    if not isinstance(real_axis, bool):
        ctx.err(f"{path}.real_axis", "expected true or false")
    return {"which": which, "box": rng, "tol": tol, "real_axis": real_axis}


def _sec_weyl(ctx, d, path):
    ctx.strict(d, path, {"lambdas", "which", "xi_count"})
    lam = _pair_list(ctx, d.get("lambdas"), f"{path}.lambdas")
    which = d.get("which", "M")
    if which not in ("M", "N"):
        ctx.err(f"{path}.which", "expected M or N")
    n_xi = _number(ctx, d.get("xi_count", 0), f"{path}.xi_count", integer=True, minimum=0)
    return {"lambdas": lam, "which": which, "xi_count": n_xi}


def _sec_asym(ctx, d, path):
    ctx.strict(d, path, {"quantity", "x", "order", "ray"})
    quantity = d.get("quantity")
    if quantity not in _ASYM_QUANTITIES:
        ctx.err(f"{path}.quantity", f"expected one of {_ASYM_QUANTITIES}")
    x = None
    if d.get("x") is not None:
        x = _number(ctx, d["x"], f"{path}.x")
    order = d.get("order", 0)
    if order not in (0, 1):
        ctx.err(f"{path}.order", "expected 0 or 1")
    ray = d.get("ray")
    out_ray = None
    if not isinstance(ray, dict):
        ctx.err(f"{path}.ray", "expected an object")
    else:
        ctx.strict(ray, f"{path}.ray", {"kind", "angle", "delta", "radii", "reference"})
        kind = ray.get("kind", "Pi_delta")
        if kind not in ("Pi_delta", "G_delta"):
            ctx.err(f"{path}.ray.kind", "expected Pi_delta or G_delta")
        angle = _number(ctx, ray.get("angle"), f"{path}.ray.angle")
        delta = _number(ctx, ray.get("delta", 0.1), f"{path}.ray.delta", positive=True)
        radii = ray.get("radii", [5.0, 10.0, 20.0, 40.0, 80.0])
        if (
            not isinstance(radii, list)
            or len(radii) < 2
            or any(isinstance(r, bool) or not isinstance(r, (int, float)) for r in radii)
            or any(radii[i] >= radii[i + 1] for i in range(len(radii) - 1))
        ):
            ctx.err(f"{path}.ray.radii", "expected an increasing list of at least two radii")
            radii = None
        reference = None
        if kind == "G_delta":
            if "reference" not in ray:
                ctx.err(f"{path}.ray.reference", "G_delta needs reference eigenvalues")
            else:
                reference = _pair_list(ctx, ray["reference"], f"{path}.ray.reference")
        elif "reference" in ray:
            ctx.err(f"{path}.ray.reference", "only meaningful for G_delta")
        out_ray = {
            "kind": kind,
            "angle": angle,
            "delta": delta,
            "radii": radii,
            "reference": reference,
        }
    return {"quantity": quantity, "x": x, "order": order, "ray": out_ray}


def _sec_invert(ctx, d, path):
    from .inversion import _KINDS

    allowed = {
        "kind",
        "n_each",
        "lambdas",
        "xi_count",
        "data",
        "basis",
        "dim",
        "starts",
        "tol",
        "max_iter",
        "initial",
    }
    ctx.strict(d, path, allowed)
    kind = d.get("kind", "two_spectra")
    if kind not in _KINDS:
        ctx.err(f"{path}.kind", f"expected one of {_KINDS}")
    n_each = _number(ctx, d.get("n_each", 8), f"{path}.n_each", integer=True, minimum=1)
    lam = None
    if "lambdas" in d:
        lam = _pair_list(ctx, d["lambdas"], f"{path}.lambdas")
    xi_count = _number(ctx, d.get("xi_count", 6), f"{path}.xi_count", integer=True, minimum=1)
    data = d.get("data")
    if data is not None and not isinstance(data, dict):
        ctx.err(f"{path}.data", "expected a serialized target object")
        data = None
    basis = d.get("basis", "cosine")
    if basis not in ("cosine", "piecewise"):
        ctx.err(f"{path}.basis", "expected cosine or piecewise")
    dim = _number(ctx, d.get("dim", 4), f"{path}.dim", integer=True, minimum=1)
    starts = _number(ctx, d.get("starts", 5), f"{path}.starts", integer=True, minimum=1)
    tol = _number(ctx, d.get("tol", 1e-9), f"{path}.tol", positive=True)
    max_iter = _number(ctx, d.get("max_iter", 60), f"{path}.max_iter", integer=True, minimum=1)
    initial = None
    if "initial" in d:
        v = d["initial"]
        if not isinstance(v, list) or any(
            isinstance(u, bool) or not isinstance(u, (int, float)) for u in v
        ):
            ctx.err(f"{path}.initial", "expected a list of real coefficients")
        else:
            initial = [float(u) for u in v]
    return {
        "kind": kind,
        "n_each": n_each,
        "lambdas": lam,
        "xi_count": xi_count,
        "data": data,
        "basis": basis,
        "dim": dim,
        "starts": starts,
        "tol": tol,
        "max_iter": max_iter,
        "initial": initial,
    }


_SCENARIO_PARAMS = {
    "counterexample1": {"n_cells"},
    "counterexample2": {"alpha", "alpha0", "n_cells", "separation_tol", "box_hi"},
    "three_spectra": {"a", "T"},
}


def _sec_scenario(ctx, d, path):
    ctx.strict(d, path, {"name", "params", "grid", "tol", "d_count", "box"})
    name = d.get("name")
    if name not in _SCENARIO_NAMES:
        ctx.err(f"{path}.name", f"expected one of {_SCENARIO_NAMES}")
        return None
    params = d.get("params", {})
    if not isinstance(params, dict):
        ctx.err(f"{path}.params", "expected an object")
        params = {}
    else:
        ctx.strict(params, f"{path}.params", _SCENARIO_PARAMS[name])
        for k, v in params.items():
            _number(ctx, v, f"{path}.params.{k}")
    grid = d.get("grid", {})
    out_grid = {"start": 1.0, "stop": 90.0, "count": 50, "imag": 0.5}
    if not isinstance(grid, dict):
        ctx.err(f"{path}.grid", "expected an object")
    else:
        ctx.strict(grid, f"{path}.grid", set(out_grid))
        for k in out_grid:
            if k in grid:
                v = _number(
                    ctx,
                    grid[k],
                    f"{path}.grid.{k}",
                    integer=(k == "count"),
                    minimum=1 if k == "count" else None,
                )
                if v is not None:
                    out_grid[k] = v
    tol = _number(ctx, d.get("tol", 1e-6), f"{path}.tol", positive=True)
    d_count = _number(ctx, d.get("d_count", 6), f"{path}.d_count", integer=True, minimum=1)
    box = ((0.5, 60.0), (-1.0, 1.0))
    if "box" in d:
        if not isinstance(d["box"], dict):
            ctx.err(f"{path}.box", "expected an object with re and im ranges")
        else:
            ctx.strict(d["box"], f"{path}.box", {"re", "im"})
            re = _interval(ctx, d["box"].get("re"), f"{path}.box.re")
            im = _interval(ctx, d["box"].get("im"), f"{path}.box.im")
            box = None if re is None or im is None else (re, im)
    return {
        "name": name,
        "params": params,
        "grid": out_grid,
        "tol": tol,
        "d_count": d_count,
        "box": box,
    }


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

    problem: object | None
    seed: int
    threads: int | None
    output_path: str | None
    output_format: str | None
    sections: dict = field(default_factory=dict)


def parse_config(text: str) -> "RunConfig":
    """Validate config text; raises ConfigError listing every schema problem."""
    from .characteristic import ProblemSpec
    from .errors import ConfigError, InputError

    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([(".", f"not valid JSON: {e}")])
    if not isinstance(raw, dict):
        raise ConfigError([(".", "the top level must be an object")])
    ctx = _Ctx()
    allowed = {"T", "q", "U1", "U2", "seed", "threads", "output"} | set(_SECTION_CHECKS)
    ctx.strict(raw, "", allowed)

    problem = None
    T = None
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
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        ctx.err(".seed", "expected a non-negative integer")
        seed = 0
    threads = raw.get("threads")
    if threads is not None and (
        isinstance(threads, bool) or not isinstance(threads, int) or threads < 1
    ):
        ctx.err(".threads", "expected a positive integer")
        threads = None
    out_path = out_format = None
    if "output" in raw:
        out = raw["output"]
        if not isinstance(out, dict):
            ctx.err(".output", "expected an object")
        else:
            ctx.strict(out, ".output", {"path", "format"})
            out_path = out.get("path")
            if out_path is not None and not isinstance(out_path, str):
                ctx.err(".output.path", "expected a string")
                out_path = None
            out_format = out.get("format")
            if out_format is not None and out_format not in ("json", "csv"):
                ctx.err(".output.format", "expected json or csv")
                out_format = None

    sections = {}
    for name, check in _SECTION_CHECKS.items():
        if name in raw:
            if not isinstance(raw[name], dict):
                ctx.err(f".{name}", "expected an object")
            else:
                sections[name] = check(ctx, raw[name], f".{name}")

    if ctx.errors:
        raise ConfigError(ctx.errors)
    return RunConfig(
        problem=problem,
        seed=seed,
        threads=threads,
        output_path=out_path,
        output_format=out_format,
        sections=sections,
    )


# ---------------------------------------------------------------------------
# Serialization helpers


def _cpairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


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
# Command handlers: each returns (payload, (csv header, csv rows) or None)


def _need(cfg: RunConfig, name: str) -> dict:
    from .errors import ConfigError

    if name not in cfg.sections:
        raise ConfigError([(f".{name}", f"the {name} command needs this section")])
    return cfg.sections[name]


def _need_problem(cfg: RunConfig):
    from .errors import ConfigError

    if cfg.problem is None:
        raise ConfigError([(".", "this command needs the problem fields T, q, U1, U2")])
    return cfg.problem


def _run_forward(cfg: RunConfig):
    import numpy as np

    from .characteristic import char_batch

    spec = _need_problem(cfg)
    opts = _need(cfg, "forward")
    lam = np.asarray(opts["lambdas"], dtype=complex)
    cb = char_batch(spec, lam)
    m_vals = m_ok = n_vals = n_ok = None
    if "M" in opts["quantities"]:
        m_vals, m_ok = cb.weyl_M_values()
    if "N" in opts["quantities"]:
        n_vals, n_ok = cb.weyl_N_values()
    payload = {"lambdas": _cpairs(lam)}
    header = ["lambda_re", "lambda_im"]
    columns = []
    for q in opts["quantities"]:
        if q in _CHAR_NAMES:
            vals = getattr(cb, q)
            payload[q] = _cpairs(vals)
            header += [f"{q}_re", f"{q}_im"]
            columns.append([[float(v.real), float(v.imag)] for v in vals])
        else:
            vals, ok = (m_vals, m_ok) if q == "M" else (n_vals, n_ok)
            payload[q] = [
                None if not k else [float(v.real), float(v.imag)] for v, k in zip(vals, ok)
            ]
            payload[f"{q}_ok"] = [bool(k) for k in ok]
            header += [f"{q}_re", f"{q}_im", f"{q}_ok"]
            columns.append(
                [
                    [float(v.real), float(v.imag), 1] if k else ["", "", 0]
                    for v, k in zip(vals, ok)
                ]
            )
    rows = []
    for i, z in enumerate(lam):
        row = [float(z.real), float(z.imag)]
        for col in columns:
            row.extend(col[i])
        rows.append(row)
    return payload, (header, rows)


def _run_spectrum(cfg: RunConfig):
    from .spectrum_finder import SearchBox, problem_spectrum

    spec = _need_problem(cfg)
    opts = _need(cfg, "spectrum")
    (re_lo, re_hi), (im_lo, im_hi) = opts["box"]
    box = SearchBox(re_min=re_lo, re_max=re_hi, im_min=im_lo, im_max=im_hi)
    sp = problem_spectrum(spec, opts["which"], box, tol=opts["tol"], real_axis=opts["real_axis"])
    eig = [[float(z.real), float(z.imag), int(m)] for z, m in sp.entries]
    payload = {"which": opts["which"], "eigenvalues": eig, "winding_total": sp.winding_total}
    return payload, (["lambda_re", "lambda_im", "multiplicity"], eig)


def _run_weyl(cfg: RunConfig):
    import numpy as np

    from .characteristic import char_batch, d_sequence
    from .inversion import _first_n_real

    spec = _need_problem(cfg)
    opts = _need(cfg, "weyl")
    lam = np.asarray(opts["lambdas"], dtype=complex)
    cb = char_batch(spec, lam)
    vals, ok = cb.weyl_M_values() if opts["which"] == "M" else cb.weyl_N_values()
    payload = {
        "which": opts["which"],
        "lambdas": _cpairs(lam),
        "values": [None if not k else [float(v.real), float(v.imag)] for v, k in zip(vals, ok)],
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
    rows = [
        [float(z.real), float(z.imag)]
        + ([float(v.real), float(v.imag), 1] if k else ["", "", 0])
        for z, v, k in zip(lam, vals, ok)
    ]
    return payload, (["lambda_re", "lambda_im", "value_re", "value_im", "ok"], rows)


def _run_asym(cfg: RunConfig):
    from .asymptotics import RaySpec, asym_report

    spec = _need_problem(cfg)
    opts = _need(cfg, "asym")
    r = opts["ray"]
    if r["kind"] == "Pi_delta":
        ray = RaySpec.pi_delta(angle=r["angle"], delta=r["delta"], radii=tuple(r["radii"]))
    else:
        ray = RaySpec.g_delta(
            angle=r["angle"],
            delta=r["delta"],
            radii=tuple(r["radii"]),
            reference=r["reference"],
        )
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

    from .errors import ConfigError
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
    if args.basis is not None:
        opts["basis"] = args.basis
    if args.dim is not None:
        opts["dim"] = args.dim
    if args.starts is not None:
        opts["starts"] = args.starts
    if args.tol is not None:
        opts["tol"] = args.tol
    target = _build_target(spec, opts)
    dim = int(opts["dim"])
    basis = (
        BasisSpec.cosine(spec.T, dim)
        if opts["basis"] == "cosine"
        else BasisSpec.piecewise(spec.T, dim)
    )
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
        opts = dict(cfg.sections.get("scenario") or _default_scenario_opts())
        opts["name"] = args.name
        if args.name == "three_spectra" and not opts["params"]:
            opts["params"] = {"a": 1.0}
    else:
        opts = _need(cfg, "scenario")
    built, _ = scenarios.build(opts["name"], opts["params"])
    if opts["name"] == "three_spectra":
        (re_lo, re_hi), (im_lo, im_hi) = opts["box"]
        box = SearchBox(re_min=re_lo, re_max=re_hi, im_min=im_lo, im_max=im_hi)
        rep = scenarios.three_spectra_overlap_rule(
            built.spec, built.params["a"], box
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


def _default_scenario_opts() -> dict:
    return {
        "name": None,
        "params": {},
        "grid": {"start": 1.0, "stop": 90.0, "count": 50, "imag": 0.5},
        "tol": 1e-6,
        "d_count": 6,
        "box": ((0.5, 60.0), (-1.0, 1.0)),
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
    for name in _COMMANDS:
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
            sp.add_argument("--basis", choices=("cosine", "piecewise"))
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
    _apply_threads(getattr(args, "threads", None))
    from .errors import ConfigError, InputError, NumericalError

    try:
        if args.command == "regress":
            return _run_regress(args)
        if args.config is None:
            cfg = RunConfig(
                problem=None, seed=0, threads=None, output_path=None, output_format=None
            )
            if args.command != "scenario" or getattr(args, "name", None) is None:
                raise ConfigError([(".", "a config file is required")])
        else:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as e:
                raise ConfigError([(".", f"cannot read config file: {e}")])
            cfg = parse_config(text)
            _apply_threads(cfg.threads if getattr(args, "threads", None) is None else None)
        if args.seed is not None:
            cfg = RunConfig(
                problem=cfg.problem,
                seed=args.seed,
                threads=cfg.threads,
                output_path=cfg.output_path,
                output_format=cfg.output_format,
                sections=cfg.sections,
            )
        if args.command == "forward":
            payload, table = _run_forward(cfg)
        elif args.command == "spectrum":
            payload, table = _run_spectrum(cfg)
        elif args.command == "weyl":
            payload, table = _run_weyl(cfg)
        elif args.command == "asym":
            payload, table = _run_asym(cfg)
        elif args.command == "invert":
            payload, table = _run_invert(cfg, args)
        else:
            payload, table = _run_scenario(cfg, args)
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
