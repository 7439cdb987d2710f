"""The public surface: every exported name resolves, and every option is on record and in use.

`SURFACE` lists the parameters of each public function, class constructor
and method in the modules that `nonlocal_sl._EXPORTS` draws from (errors
aside).  A parameter with a default ends in "=", a keyword-only one starts
with "*", so adding, removing or moving an option is an edit of this table.
A default is an option only if some caller sets it: a call in `src/` or
`bench/` (tests aside) must pass it, or `UNSET_ALLOWED` must give the
reason it stays.
"""

import ast
import importlib
import inspect
from collections import defaultdict
from pathlib import Path

import nonlocal_sl

ROOT = Path(__file__).resolve().parent.parent


_MARK = {
    inspect.Parameter.KEYWORD_ONLY: "*",
    inspect.Parameter.VAR_POSITIONAL: "*",
    inspect.Parameter.VAR_KEYWORD: "**",
}


def _params(fn, skip_first: bool = False) -> tuple:
    params = list(inspect.signature(fn).parameters.values())[int(skip_first) :]
    return tuple(f"{_MARK.get(p.kind, '')}{p.name}{'' if p.default is p.empty else '='}" for p in params)


def _surface() -> dict:
    out = {}
    for mod_name in nonlocal_sl._EXPORTS:
        if mod_name == "errors":
            continue
        mod = importlib.import_module(f"nonlocal_sl.{mod_name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{mod_name}.{name}"] = _params(obj)
            elif inspect.isclass(obj):
                out[f"{mod_name}.{name}"] = _params(obj)
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        out[f"{mod_name}.{name}.{attr}"] = _params(getattr(obj, attr))
                    elif inspect.isfunction(member):
                        out[f"{mod_name}.{name}.{attr}"] = _params(member, skip_first=True)
    return out


def settable_values(surface: dict) -> int:
    """The number of parameters a caller may leave at their default."""
    return sum(p.endswith("=") for params in surface.values() for p in params)


def test_every_export_resolves_lazily():
    for mod_name, names in nonlocal_sl._EXPORTS.items():
        mod = importlib.import_module(f"nonlocal_sl.{mod_name}")
        for name in names:
            assert nonlocal_sl.__getattr__(name) is getattr(mod, name), name
            assert name in dir(nonlocal_sl)


def test_surface_is_on_record():
    got = _surface()
    assert sorted(got) == sorted(SURFACE)
    for name, params in SURFACE.items():
        assert got[name] == params, name
    assert settable_values(got) == SETTABLE_VALUES


# Defaults that no call in src/ or bench/ sets, each with the reason it stays.
UNSET_ALLOWED = {
    "ode_core.GridSpec.n_min": "the sweep tests set coarse and deep grids with it",
    "ode_core.GridSpec.tau_T_budget": "the sweep tests set the over-budget and near-budget grids with it",
    "inversion.residual.basis": "public API: scores a candidate in a piecewise basis",
    "measure.BVMeasure.from_atoms.jump": "public API: README's example builds its measure with from_atoms",
}


def _calls() -> dict:
    """Callee name -> the calls of it in src/ and bench/; a `cls(...)` call is one of its class.

    A call is known by the name it is made through (`f(...)`, `obj.f(...)`),
    so a call of another function of the same name counts too.
    """
    calls = defaultdict(list)
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> its innermost enclosing class; ast.walk reaches outer classes first
        for cls_node in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            owner.update((n, cls_node.name) for n in ast.walk(cls_node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls[owner.get(node) if name == "cls" else name].append(node)
    return calls


def _is_set(param: str, index: int, calls) -> bool:
    """Whether one of `calls` passes `param`, the index-th entry of its SURFACE row:
    by keyword, by position, or through * or **."""
    name = param.strip("*=")
    for call in calls:
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        if not param.startswith("*") and (
            len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
        ):
            return True
    return False


def test_every_default_has_a_setter():
    calls = _calls()
    unset = sorted(
        f"{key}.{param.strip('*=')}"
        for key, params in _surface().items()
        for index, param in enumerate(params)
        if param.endswith("=") and not _is_set(param, index, calls[key.rsplit(".", 1)[1]])
    )
    assert unset == sorted(UNSET_ALLOWED)


SETTABLE_VALUES = 70

SURFACE = {
    "acceptance.CriterionResult": ("number", "name", "passed", "runtime", "budget", "detail"),
    "acceptance.CriterionResult.to_dict": (),
    "acceptance.criterion_numbers": (),
    "acceptance.run_all": ("numbers=",),
    "acceptance.run_criterion": ("number",),
    "asymptotics.AsymReport": ("quantity", "x", "order", "ray", "rows"),
    "asymptotics.AsymReport.csv_rows": (),
    "asymptotics.AsymReport.decreasing_with_floor": ("floor=",),
    "asymptotics.AsymReport.summary": (),
    "asymptotics.AsymRow": ("radius", "rho", "computed", "predicted", "rel_error", "ratio"),
    "asymptotics.RaySpec": ("kind", "angle", "delta=", "radii=", "reference="),
    "asymptotics.RaySpec.g_delta": ("angle", "reference", "delta=", "radii="),
    "asymptotics.RaySpec.pi_delta": ("angle", "delta=", "radii="),
    "asymptotics.RaySpec.points": (),
    "asymptotics.ScaledComplex": ("mantissa", "log_scale="),
    "asymptotics.ScaledComplex.from_value": ("v",),
    "asymptotics.ScaledComplex.over": ("other",),
    "asymptotics.ScaledComplex.rel_error_vs": ("other",),
    "asymptotics.asym_report": ("quantity", "x", "rays", "spec", "*order="),
    "asymptotics.predict": ("quantity", "x", "p", "spec", "order="),
    "characteristic.CharBatch": ("lam", "delta1", "delta2", "delta11", "delta21", "T"),
    "characteristic.CharBatch.scale": (),
    "characteristic.CharBatch.weyl_M_values": (),
    "characteristic.CharBatch.weyl_N_values": (),
    "characteristic.ComboSolutions": (
        "point", "phi", "theta", "psi", "Phi", "v1", "v2", "omega", "delta1", "delta2", "delta11",
        "M", "N", "boundary_values",
    ),
    "characteristic.ProblemSpec": ("q", "form1", "form2"),
    "characteristic.ProblemSpec.from_dict": ("data",),
    "characteristic.ProblemSpec.required_points": (),
    "characteristic.ProblemSpec.to_dict": (),
    "characteristic.ProblemSpec.with_measures": ("q", "sigma1", "sigma2"),
    "characteristic.RatioValue": ("value", "is_infinite", "defect"),
    "characteristic.char_batch": ("spec", "lam"),
    "characteristic.char_batch_multi": ("spec", "lam", "q_list", "q_index", "grid_spec="),
    "characteristic.char_handle": ("spec", "which", "grid_spec="),
    "characteristic.combo_solutions": ("spec", "p"),
    "characteristic.d_sequence": ("spec", "xi"),
    "characteristic.node_weights": ("form", "grid"),
    "inversion.BasisSpec": ("kind", "T", "dim"),
    "inversion.BasisSpec.cosine": ("T", "dim"),
    "inversion.BasisSpec.potential": ("coeffs",),
    "inversion.InverseTarget": (
        "kind", "lambda1=", "lambda11=", "lam_grid=", "m_values=", "omega_values=", "xi=",
        "d_values=", "d_infinite=", "lambda0=", "lambda2=", "split=", "certificate=", "weights=",
    ),
    "inversion.InverseTarget.datum_weights": (),
    "inversion.InverseTarget.from_dict": ("d",),
    "inversion.InverseTarget.to_dict": (),
    "inversion.ReconstructOptions": (
        "template", "basis=", "starts=", "tol=", "max_iter=", "seed=",
    ),
    "inversion.ReconstructionResult": (
        "coeffs", "q_est", "residual_norm", "per_datum", "iterations", "convergence_flag",
        "start_norms", "message", "invalid_data",
    ),
    "inversion.ReconstructionResult.to_dict": (),
    "inversion.distinguishability": ("spec_a", "spec_b", "data_kind", "grid", "xi="),
    "inversion.make_three_spectra_target": ("spec", "n_each"),
    "inversion.make_two_spectra_target": ("spec", "n_each"),
    "inversion.make_weyl_target": ("spec", "lam_grid", "with_d=", "n_xi="),
    "inversion.reconstruct": ("target", "initial_coeffs", "options"),
    "inversion.residual": ("target", "coeffs", "template", "basis="),
    "measure.BVMeasure": ("domain_length", "jump_at_zero=", "atoms=", "density_segments="),
    "measure.BVMeasure.from_atoms": ("T", "atoms", "jump="),
    "measure.BVMeasure.from_dict": ("d", "T"),
    "measure.BVMeasure.from_jump": ("T", "jump"),
    "measure.BVMeasure.required_points": (),
    "measure.BVMeasure.to_dict": (),
    "measure.BVMeasure.total_variation": (),
    "measure.BVMeasure.truncate": ("a",),
    "measure.BVMeasure.window": ("lo", "hi"),
    "measure.BVMeasure.with_density": ("T", "breakpoints", "values", "jump=", "atoms="),
    "measure.LinearForm": ("kind", "measure=", "x0=", "order="),
    "measure.LinearForm.apply_sampled": ("x", "y", "dy=", "cbar="),
    "measure.LinearForm.from_dict": ("d", "T"),
    "measure.LinearForm.from_measure": ("measure",),
    "measure.LinearForm.point_value": ("x0", "order="),
    "measure.LinearForm.required_points": ("T",),
    "measure.LinearForm.to_dict": (),
    "measure.density_node_weights": ("m", "x"),
    "measure.stieltjes_integrate": ("x", "fx", "m", "dfx=", "cbar="),
    "ode_core.Discretization": ("grid", "spec", "samples", "weights"),
    "ode_core.Discretization.build": ("qs", "spec", "required", "weigh"),
    "ode_core.Discretization.piece": ("lo", "hi", "weigh"),
    "ode_core.FamilyStore": ("grid", "lam", "forms", "forms_s", "y", "dy", "s", "end"),
    "ode_core.GridSpec": ("tol=", "*n_min=", "*tau_T_budget="),
    "ode_core.SolutionTrace": ("grid", "y", "dy", "log_scale", "cbar"),
    "ode_core.SolutionTrace.value_at": ("x",),
    "ode_core.SpectralPoint": ("lam", "rho"),
    "ode_core.SpectralPoint.from_lambda": ("lam",),
    "ode_core.combine_traces": ("traces", "coeffs"),
    "ode_core.fitted_density_weights": ("grid", "dens", "cbar="),
    "ode_core.integrate_family": ("disc", "lam", "side", "*store=", "*q_index="),
    "ode_core.modulus_scale": ("lam", "T"),
    "ode_core.principal_rho": ("lam",),
    "ode_core.solver_grid": ("q", "spec=", "extra_required="),
    "potential.Potential": ("kind", "T", "nodes", "values"),
    "potential.Potential.derivative_bound": (),
    "potential.Potential.from_cosine": ("T", "coefficients"),
    "potential.Potential.from_dict": ("d",),
    "potential.Potential.from_grid": ("x", "values"),
    "potential.Potential.from_piecewise": ("breakpoints", "values"),
    "potential.Potential.l1_norm": (),
    "potential.Potential.max_abs_difference": ("other",),
    "potential.Potential.reflected": (),
    "potential.Potential.required_points": (),
    "potential.Potential.shifted": ("c",),
    "potential.Potential.step_samples": ("grid",),
    "potential.Potential.suggested_hmax": (),
    "potential.Potential.to_dict": (),
    "potential.Potential.zero": ("T",),
    "scenarios.CounterexampleReport": (
        "name", "m_deviation", "omega_deviation", "delta1_deviation", "delta2_deviation",
        "q_sup_difference", "condition_s", "lambda2_containment",
    ),
    "scenarios.OverlapEntry": ("lam", "members", "count"),
    "scenarios.OverlapReport": ("entries", "violations", "warnings"),
    "scenarios.OverlapReport.counts": (),
    "scenarios.ScenarioConfig": ("name", "params", "q", "spec", "spec_mirror"),
    "scenarios.build_scenario": ("name", "params="),
    "scenarios.counterexample1_preset": ("n_cells=",),
    "scenarios.counterexample2_preset": ("alpha0", "n_cells="),
    "scenarios.three_spectra_overlap_rule": ("spec", "a", "box"),
    "scenarios.verify_counterexample": ("cfg", "lam_grid", "tol="),
    "spectrum_finder.ConditionReport": (
        "holds", "min_gap", "witness", "n_first", "n_second", "separation_tol",
    ),
    "spectrum_finder.SearchBox": ("re_min", "re_max", "im_min", "im_max"),
    "spectrum_finder.SearchBox.contains": ("z",),
    "spectrum_finder.SearchBox.inflated": ("factor",),
    "spectrum_finder.SearchBox.split": ("fraction",),
    "spectrum_finder.Spectrum": ("entries", "winding_total"),
    "spectrum_finder.condition_S": ("spec", "box", "separation_tol", "*real_axis="),
    "spectrum_finder.find_spectrum": (
        "f", "box", "tol=", "*source=", "*scale=", "*f_polish=", "*real_axis=",
    ),
    "spectrum_finder.problem_spectrum": ("spec", "which", "box", "*tol=", "*real_axis="),
}
