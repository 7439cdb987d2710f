"""Command-line frontend: strict config parsing and deterministic artifacts.

Configs are JSON with complex numbers written as [re, im] pairs.  Unknown
fields are rejected with their path, so a typo in a measure cannot silently
change the problem.  All outputs are byte-stable across reruns with the
same config and seed.

The library reads every value it takes, by the readers beside its types, so
each value rule and default is stated once: the problem (`q`, `U1`, `U2`,
with the config's paths), a target, and the section fields that make a
SearchBox, RaySpec, BasisSpec, ReconstructOptions or named scenario.  This
module owns the rest: the command names and flags; the top-level `T`
(required once any problem field is present, and matched by `q.T`), seed,
threads and output; and the section fields no library type takes (`which`,
`kind`, `n_each`, `dim`, `basis`, the scenario grid, `d_count` and box, and
a `tol` whose function states no rule).

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
from dataclasses import dataclass, field

from .errors import ConfigError, InputError, NumericalError, _Ctx, _number, _pair_list, _reals, _whole

# argparse checks these choices before any numerics load, so they cannot be
# read from the library; they serve argparse only, and a test pins them to
# inversion._BASES and scenarios._NAMES.
_BASES = ("cosine", "piecewise")
_SCENARIO_NAMES = ("counterexample1", "counterexample2", "three_spectra")
_PROBLEM = ("q", "U1", "U2")  # with T, the config's problem fields


# ---------------------------------------------------------------------------
# Schema validation


def _sec_forward(ctx, d, path, cfg):
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


def _sec_spectrum(ctx, d, path, cfg):
    """`problem_spectrum`'s arguments but the problem; tol and real_axis only where given."""
    from .characteristic import _NAMES
    from .spectrum_finder import _read_box

    ctx.strict(d, path, {"which", "box", "tol", "real_axis"})
    out = {"which": "delta1", **d}
    if out["which"] not in _NAMES:
        ctx.err(f"{path}.which", f"expected one of {_NAMES}")
    out["box"] = _read_box(ctx, d.get("box"), f"{path}.box")
    if "tol" in d:
        _number(ctx, d["tol"], f"{path}.tol", positive=True)
    if not isinstance(out.get("real_axis", False), bool):
        ctx.err(f"{path}.real_axis", "expected true or false")
    return out


def _sec_weyl(ctx, d, path, cfg):
    ctx.strict(d, path, {"lambdas", "which", "xi_count"})
    lam = _pair_list(ctx, d.get("lambdas"), f"{path}.lambdas")
    which = d.get("which", "M")
    if which not in ("M", "N"):
        ctx.err(f"{path}.which", "expected M or N")
    n_xi = _number(ctx, d.get("xi_count", 0), f"{path}.xi_count", integer=True, minimum=0)
    return {"lambdas": lam, "which": which, "xi_count": n_xi}


def _sec_asym(ctx, d, path, cfg):
    from .asymptotics import _read_asym

    return _read_asym(ctx, d, path, cfg.problem)


# The section's own defaults; its other fields default in the library (xi_count
# in make_weyl_target, starts, tol and max_iter in ReconstructOptions).
_INVERT_DEFAULTS = {"kind": "two_spectra", "n_each": 8, "basis": "cosine", "dim": 4}
_INVERT_FIELDS = {*_INVERT_DEFAULTS, "lambdas", "xi_count", "data", "starts", "tol", "max_iter", "initial"}


def _sec_invert(ctx, d, path, cfg):
    from .inversion import _KINDS, _read_options

    ctx.strict(d, path, _INVERT_FIELDS)
    out = {**_INVERT_DEFAULTS, "lambdas": None, "data": None, "initial": None, **d}
    if out["kind"] not in _KINDS:
        ctx.err(f"{path}.kind", f"expected one of {_KINDS}")
    out["n_each"] = _number(ctx, out["n_each"], f"{path}.n_each", integer=True, minimum=1)
    if "lambdas" in d:
        out["lambdas"] = _pair_list(ctx, d["lambdas"], f"{path}.lambdas")
    if "xi_count" in d:
        out["xi_count"] = _number(ctx, d["xi_count"], f"{path}.xi_count", integer=True, minimum=1)
    if out["data"] is not None and not isinstance(out["data"], dict):
        ctx.err(f"{path}.data", "expected a serialized target object")
    out["options"] = _read_options(ctx, out, path, cfg.problem, cfg.seed)
    if "initial" in d:
        if _reals(d["initial"]):
            out["initial"] = [float(u) for u in d["initial"]]
        else:
            ctx.err(f"{path}.initial", "expected a list of real coefficients")
    return out


# The section's own defaults; name and params are the library's to read, and
# tol defaults in verify_counterexample.
_SCENARIO_DEFAULTS = {
    "grid": {"start": 1.0, "stop": 90.0, "count": 50, "imag": 0.5},
    "d_count": 6,
    "box": {"re": [0.5, 60.0], "im": [-1.0, 1.0]},
}


def _sec_scenario(ctx, d, path, cfg):
    from .scenarios import _read_scenario
    from .spectrum_finder import _read_box

    ctx.strict(d, path, {"name", "params", "tol", *_SCENARIO_DEFAULTS})
    out = {**_SCENARIO_DEFAULTS, **d, "built": _read_scenario(ctx, d, path)}
    if ctx.obj(out["grid"], f"{path}.grid", _SCENARIO_DEFAULTS["grid"]):
        out["grid"] = {k: out["grid"].get(k, v) for k, v in _SCENARIO_DEFAULTS["grid"].items()}
        for k, v in out["grid"].items():
            _number(ctx, v, f"{path}.grid.{k}", integer=k == "count", minimum=1 if k == "count" else None)
    if "tol" in d:
        _number(ctx, d["tol"], f"{path}.tol", positive=True)
    out["d_count"] = _number(ctx, out["d_count"], f"{path}.d_count", integer=True, minimum=1)
    out["box"] = _read_box(ctx, out["box"], f"{path}.box")
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

    problem: object | None
    seed: int
    output_path: str | None
    output_format: str | None
    sections: dict = field(default_factory=dict)


def _load(path: str, where: str, what: str) -> dict:
    """The JSON object in the `what` file at `path`; a ConfigError at `where` if there is none."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.loads(fh.read())
    except OSError as e:
        raise ConfigError([(where, f"cannot read {what} file: {e}")])
    except json.JSONDecodeError as e:
        raise ConfigError([(where, f"not valid JSON: {e}")])
    if not isinstance(raw, dict):
        raise ConfigError([(where, "the top level must be an object")])
    return raw


def _validate(raw: dict, flags: dict | None = None) -> RunConfig:
    """The RunConfig of a config object, its `threads` cap applied before any numerics load;
    raises ConfigError listing every problem, a value that a flag set named by the flag
    (`flags` maps its config path to the flag)."""
    ctx = _Ctx()
    ctx.strict(raw, "", {"T", *_PROBLEM, "seed", "threads", "output", *_SECTION_CHECKS})
    if "threads" in raw:
        _apply_threads(_whole(ctx, raw["threads"], ".threads", 1))
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
    out = raw.get("output", {})
    if not ctx.obj(out, ".output", {"path", "format"}):
        out = {}
    if out.get("path") is not None and not isinstance(out["path"], str):
        ctx.err(".output.path", "expected a string")
    if out.get("format") is not None and out["format"] not in ("json", "csv"):
        ctx.err(".output.format", "expected json or csv")

    cfg = RunConfig(problem, seed, out.get("path"), out.get("format"))
    for name, check in _SECTION_CHECKS.items():
        if name in raw and ctx.obj(raw[name], f".{name}"):
            cfg.sections[name] = check(ctx, raw[name], f".{name}", cfg)

    if ctx.errors:
        raise ConfigError([((flags or {}).get(p, p), m) for p, m in ctx.errors])
    return cfg


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
    from .spectrum_finder import problem_spectrum

    spec = _need_problem(cfg)
    opts = _need(cfg, "spectrum")
    sp = problem_spectrum(spec, **opts)
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
    from .asymptotics import asym_report

    spec = _need_problem(cfg)
    rep = asym_report(spec=spec, **_need(cfg, "asym"))
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
    n_xi = {"n_xi": opts["xi_count"]} if "xi_count" in opts else {}
    return make_weyl_target(spec, lam, with_d=(kind == "weyl_pair_with_D"), **n_xi)


def _run_invert(cfg: RunConfig, args):
    import numpy as np

    from .inversion import reconstruct

    spec = _need_problem(cfg)
    opts = dict(_need(cfg, "invert"))
    if args.target is not None:
        opts["data"] = _load(args.target, "--target", "target")
    target = _build_target(spec, opts)
    basis = opts["options"].basis
    initial = opts["initial"]
    c0 = np.zeros(basis.dim) if initial is None else np.asarray(initial, dtype=float)
    result = reconstruct(target, c0, opts["options"])
    payload = result.to_dict()
    payload["data_kind"] = target.kind
    payload["basis"] = {"type": basis.kind, "dim": basis.dim}
    rows = [[i, float(c)] for i, c in enumerate(result.coeffs)]
    return payload, (["index", "coefficient"], rows)


def _run_scenario(cfg: RunConfig, args):
    import numpy as np

    from . import scenarios
    from .inversion import _certificate_to_dict, _first_n_real, distinguishability

    opts = _need(cfg, "scenario")
    built = opts["built"]
    if built.name == "three_spectra":
        rep = scenarios.three_spectra_overlap_rule(built.spec, built.params["a"], opts["box"])
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
    tol = {"tol": opts["tol"]} if "tol" in opts else {}
    try:
        rep = scenarios.verify_counterexample(built, lam, **tol)
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
    """--seed and --threads, by the rule of the config key each overrides, before the cap applies."""
    ctx = _Ctx()
    for key, low in (("seed", 0), ("threads", 1)):
        if getattr(args, key, None) is not None:
            _whole(ctx, getattr(args, key), f"--{key}", low)
    if ctx.errors:
        raise ConfigError(ctx.errors)


# the section holding the config key that each section flag overrides
_FLAG_SECTIONS = {"basis": "invert", "dim": "invert", "starts": "invert", "tol": "invert", "name": "scenario"}


def _with_flags(raw: dict, args) -> tuple:
    """raw with each flag given set at the config key it overrides (--name makes the scenario
    section when there is none), and {that key's path: the flag}."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    raw = dict(raw, **{k: given[k] for k in ("seed", "threads") if k in given})
    if "name" in given:
        raw.setdefault("scenario", {})
    flags = {}
    for key, section in _FLAG_SECTIONS.items():
        if key in given and isinstance(raw.get(section), dict):
            raw[section] = {**raw[section], key: given[key]}
            flags[f".{section}.{key}"] = f"--{key}"
    return raw, flags


def _apply_threads(n: int | None) -> None:
    """Cap the numerics libraries' thread pools at n (None: leave them be)."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        if n is not None:
            os.environ[var] = str(n)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        if args.command == "regress":
            _apply_threads(args.threads)
            return _run_regress(args)
        if args.config is None and (args.command != "scenario" or args.name is None):
            raise ConfigError([(".", "a config file is required")])
        raw = {} if args.config is None else _load(args.config, ".", "config")
        cfg = _validate(*_with_flags(raw, args))
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
