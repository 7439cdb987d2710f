"""Spectral characteristics and inverse problems for Sturm-Liouville operators
with nonlocal Stieltjes boundary conditions.

Public names resolve lazily on first access.  The command line depends on
this: thread caps must land in the environment before numpy and its BLAS
are imported, so importing the package (and the `cli` module) must stay
cheap until numerics are actually used.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "CollinearityError",
        "ConfigError",
        "ContourError",
        "DomainError",
        "InputError",
        "NumericalError",
        "PoleProximityError",
        "RangeError",
    ),
    "measure": ("BVMeasure", "LinearForm", "stieltjes_integrate"),
    "potential": ("Potential",),
    "ode_core": (
        "GridSpec",
        "SolutionTrace",
        "SpectralPoint",
        "modulus_scale",
        "principal_rho",
    ),
    "characteristic": (
        "CharBatch",
        "ComboSolutions",
        "ProblemSpec",
        "RatioValue",
        "char_batch",
        "char_handle",
        "combo_solutions",
        "d_sequence",
    ),
    "spectrum_finder": (
        "ConditionReport",
        "SearchBox",
        "Spectrum",
        "condition_S",
        "find_spectrum",
        "problem_spectrum",
    ),
    "asymptotics": (
        "AsymReport",
        "RaySpec",
        "ScaledComplex",
        "asym_report",
        "predict",
    ),
    "inversion": (
        "BasisSpec",
        "InverseTarget",
        "ReconstructOptions",
        "ReconstructionResult",
        "distinguishability",
        "make_three_spectra_target",
        "make_two_spectra_target",
        "make_weyl_target",
        "reconstruct",
        "residual",
    ),
    "scenarios": (
        "CounterexampleReport",
        "OverlapReport",
        "ScenarioConfig",
        "build_scenario",
        "three_spectra_overlap_rule",
        "verify_counterexample",
    ),
    "acceptance": ("CriterionResult", "run_all", "run_criterion"),
}

_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = set(_EXPORTS) | {"cli"}


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME) | _SUBMODULES)
