"""Named experiment configurations around the uniqueness boundary.

Three builders are provided:

* ``counterexample1``: period pi/2 potential with U1 = y(0), U2 = y(pi/2).
  The mirrored potential q(pi - x) produces the same delta_1, delta_2,
  omega (hence the same Weyl function) while differing from q; the
  disjointness condition fails, and the d_n data tell the pair apart.
* ``counterexample2``: potential vanishing near both endpoints with
  U2 = y(pi - alpha).  For small alpha the disjointness condition holds,
  yet M still cannot see the mirror reflection.
* ``three_spectra``: the point-form frame U1 = y(0), U2 = y(a) whose
  characteristic functions carry the Dirichlet spectra of (0, a), (0, T)
  and (a, T).

`verify_counterexample` measures the identity chain numerically and
`three_spectra_overlap_rule` checks the one-or-all-three membership rule
for zeros of the product omega * delta_1 * delta_2.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .characteristic import ProblemSpec, char_batch
from .errors import InputError, NumericalError, _integer
from .measure import BVMeasure, LinearForm
from .potential import Potential
from .spectrum_finder import ConditionReport, SearchBox, condition_S, problem_spectrum

_NAMES = ("counterexample1", "counterexample2", "three_spectra")
_T = math.pi
_CTREX2_AMPLITUDE = 6.0  # scale of counterexample 2's bump
_OVERLAP_TOL = 1e-8  # zeros of the overlap rule meet |f| <= this * modulus scale
_MATCH_TOL = 1e-6  # relative distance within which the overlap rule's zeros count as shared


def counterexample1_preset(n_cells: int = 1024) -> Potential:
    """Period pi/2 sample potential, asymmetric under x -> pi - x."""
    x = np.linspace(0.0, _T, n_cells + 1)
    v = 0.8 * np.sin(4.0 * x) + 0.3 * np.cos(8.0 * x)
    return Potential.from_grid(x, v)


def counterexample2_preset(alpha0: float, n_cells: int = 1024) -> Potential:
    """Smooth bump supported in (alpha0, pi - alpha0), asymmetric under reflection."""
    x = np.union1d(np.linspace(0.0, _T, n_cells + 1), [alpha0, _T - alpha0])
    u = (x - alpha0) / (_T - 2.0 * alpha0)
    inside = (u > 0.0) & (u < 1.0)
    uu = np.clip(u, 0.0, 1.0)
    v = _CTREX2_AMPLITUDE * (uu * (1.0 - uu)) ** 2 * (1.5 + np.sin(2.0 * math.pi * uu))
    v[~inside] = 0.0
    return Potential.from_grid(x, v)


@dataclass(frozen=True)
class ScenarioConfig:
    """A built scenario: the base problem and, for the mirror pairs, its twin."""

    name: str
    params: dict
    q: Potential
    spec: ProblemSpec
    spec_mirror: ProblemSpec | None


def _jump_form() -> LinearForm:
    return LinearForm.from_measure(BVMeasure.from_jump(_T, 1.0))


def _check_mirror_asymmetry(q: Potential, floor: float):
    d = q.max_abs_difference(q.reflected())
    if not d > floor:
        raise InputError(
            f"the potential must differ from its reflection (sup difference {d:.3g}, "
            f"needed > {floor:g})"
        )


def _build_counterexample1(params: dict) -> ScenarioConfig:
    n_cells = _integer("n_cells", params.get("n_cells", 1024), 1)
    q = params.get("q") or counterexample1_preset(n_cells)
    if abs(q.T - _T) > 1e-12:
        raise InputError("counterexample 1 lives on (0, pi)")
    x = np.linspace(0.0, _T / 2.0, 2049)
    per = float(np.max(np.abs(q(x) - q(x + _T / 2.0))))
    if per > 1e-8 * (1.0 + q.l1_norm()):
        raise InputError(f"counterexample 1 needs q of period pi/2 (deviation {per:.3g})")
    _check_mirror_asymmetry(q, 0.1)
    spec = ProblemSpec(q=q, form1=_jump_form(), form2=LinearForm.point_value(_T / 2.0))
    mirror = dataclasses.replace(spec, q=q.reflected())
    return ScenarioConfig(
        name="counterexample1",
        params={"n_cells": n_cells},
        q=q,
        spec=spec,
        spec_mirror=mirror,
    )


def _collar_zero(q: Potential, alpha0: float):
    xs = np.concatenate(
        [np.linspace(0.0, alpha0, 257), np.linspace(_T - alpha0, _T, 257)]
    )
    worst = float(np.max(np.abs(q(xs))))
    if worst > 1e-12:
        raise InputError(
            f"counterexample 2 needs q = 0 on [0, {alpha0:g}] and [{_T - alpha0:g}, pi] "
            f"(found magnitude {worst:.3g})"
        )


def _ctrex2_spec(q: Potential, alpha: float) -> ProblemSpec:
    return ProblemSpec(
        q=q, form1=_jump_form(), form2=LinearForm.point_value(_T - alpha)
    )


def _build_counterexample2(params: dict) -> ScenarioConfig:
    alpha0 = float(params.get("alpha0", 0.6))
    if not 0.0 < alpha0 < _T / 2.0:
        raise InputError("alpha0 must lie in (0, pi/2)")
    n_cells = _integer("n_cells", params.get("n_cells", 1024), 1)
    q = params.get("q") or counterexample2_preset(alpha0, n_cells)
    if abs(q.T - _T) > 1e-12:
        raise InputError("counterexample 2 lives on (0, pi)")
    _collar_zero(q, alpha0)
    _check_mirror_asymmetry(q, 0.1)
    separation_tol = float(params.get("separation_tol", 1e-5))
    box_hi = float(params.get("box_hi", 120.0))
    box = SearchBox(re_min=-3.0, re_max=box_hi, im_min=-1.0, im_max=1.0)
    alpha = params.get("alpha")
    if alpha is not None:
        alpha = float(alpha)
        if not 0.0 < alpha < alpha0:
            raise InputError("alpha must lie in (0, alpha0)")
        report = condition_S(_ctrex2_spec(q, alpha), box, separation_tol, real_axis=True)
        if not report.holds:
            raise InputError(
                f"alpha={alpha:g} leaves the spectra too close "
                f"(min gap {report.min_gap:.3g}); pick a smaller alpha"
            )
    else:
        # shrink geometrically until the disjointness condition holds
        alpha = 0.75 * alpha0
        for _ in range(8):
            report = condition_S(_ctrex2_spec(q, alpha), box, separation_tol, real_axis=True)
            if report.holds:
                break
            alpha *= 0.75
        else:
            raise NumericalError("no alpha in the search range separates the spectra")
    spec = _ctrex2_spec(q, alpha)
    mirror = dataclasses.replace(spec, q=q.reflected())
    return ScenarioConfig(
        name="counterexample2",
        params={"alpha": alpha, "alpha0": alpha0, "n_cells": n_cells},
        q=q,
        spec=spec,
        spec_mirror=mirror,
    )


def _build_three_spectra(params: dict) -> ScenarioConfig:
    if "a" not in params:
        raise InputError("three_spectra needs the split point a")
    T = float(params.get("T", _T))
    a = float(params["a"])
    if not 0.0 < a < T:
        raise InputError("the split point must lie inside (0, T)")
    q = params.get("q") or Potential.zero(T)
    if abs(q.T - T) > 1e-12 * max(1.0, T):
        raise InputError("potential and split frame must share the interval")
    spec = ProblemSpec(
        q=q,
        form1=LinearForm.from_measure(BVMeasure.from_jump(T, 1.0)),
        form2=LinearForm.point_value(a),
    )
    return ScenarioConfig(
        name="three_spectra", params={"a": a, "T": T}, q=q, spec=spec, spec_mirror=None
    )


_PARAM_KEYS = {
    "counterexample1": {"n_cells", "q"},
    "counterexample2": {"alpha", "alpha0", "n_cells", "separation_tol", "box_hi", "q"},
    "three_spectra": {"a", "T", "q"},
}


def build_scenario(name: str, params: dict | None = None):
    """Construct a named scenario; returns (config, (spec, mirror spec))."""
    if name not in _NAMES:
        raise InputError(f"unknown scenario {name!r}; expected one of {_NAMES}")
    params = dict(params or {})
    unknown = sorted(set(params) - _PARAM_KEYS[name])
    if unknown:
        raise InputError(
            f"unknown parameter {unknown[0]!r} for scenario {name!r}; "
            f"allowed: {sorted(_PARAM_KEYS[name])}"
        )
    if name == "counterexample1":
        cfg = _build_counterexample1(params)
    elif name == "counterexample2":
        cfg = _build_counterexample2(params)
    else:
        cfg = _build_three_spectra(params)
    return cfg, (cfg.spec, cfg.spec_mirror)


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class CounterexampleReport:
    """Scale-normalized deviations of the data sets across a mirror pair."""

    name: str
    m_deviation: float
    omega_deviation: float
    delta1_deviation: float
    delta2_deviation: float
    q_sup_difference: float
    condition_s: ConditionReport
    lambda2_containment: float | None


def verify_counterexample(cfg: ScenarioConfig, lam_grid, tol: float = 1e-6) -> CounterexampleReport:
    """Deviation maxima over the grid, sup distance of the potentials, and
    the disjointness report; deviations are divided by the local modulus
    scale so `tol`-style thresholds apply directly.  The disjointness and
    containment checks search the box [-3, max Re lambda + 10] x [-1, 1], so
    a grid with max Re lambda <= -13 raises InputError."""
    if cfg.spec_mirror is None:
        raise InputError("verification needs a mirror pair scenario")
    lam = np.asarray(lam_grid, dtype=complex)
    if lam.size == 0:
        raise InputError("the lambda grid is empty")
    top = float(np.max(lam.real))
    hi = top + 10.0
    if hi <= -3.0:
        raise InputError(
            f"the lambda grid's largest Re lambda is {top:.6g}, so the box [-3, {hi:.6g}] x [-1, 1] "
            "searched for condition S is empty; the grid needs a point with Re lambda > -13"
        )
    ca = char_batch(cfg.spec, lam)
    cb = char_batch(cfg.spec_mirror, lam)
    ma, oka = ca.weyl_M_values()
    mb, okb = cb.weyl_M_values()
    if not np.all(oka & okb):
        bad = lam[~(oka & okb)][0]
        raise InputError(f"lambda grid point {bad:.6g} falls under the pole guard")
    scale = ca.scale()
    dev = lambda u, v: float(np.max(np.abs(u - v) / scale))
    m_dev = float(np.max(np.abs(ma - mb) / (1.0 + np.abs(ma) + np.abs(mb))))
    box = SearchBox(re_min=-3.0, re_max=hi, im_min=-1.0, im_max=1.0)
    report = condition_S(cfg.spec, box, 10.0 * tol, real_axis=cfg.spec.is_real)
    containment = None
    if cfg.name == "counterexample2":
        alpha = float(cfg.params["alpha"])
        predicted = [
            (math.pi * n / alpha) ** 2
            for n in range(1, 40)
            if (math.pi * n / alpha) ** 2 <= box.re_max
        ]
        if predicted:
            found = problem_spectrum(cfg.spec, "delta2", box, real_axis=cfg.spec.is_real).eigenvalues
            if len(found) == 0:
                raise NumericalError("no delta_2 zeros found for the containment check")
            containment = max(
                float(np.min(np.abs(found - p)) / (1.0 + abs(p))) for p in predicted
            )
    return CounterexampleReport(
        name=cfg.name,
        m_deviation=m_dev,
        omega_deviation=dev(ca.omega, cb.omega),
        delta1_deviation=dev(ca.delta1, cb.delta1),
        delta2_deviation=dev(ca.delta2, cb.delta2),
        q_sup_difference=cfg.q.max_abs_difference(cfg.spec_mirror.q),
        condition_s=report,
        lambda2_containment=containment,
    )


# ---------------------------------------------------------------------------
# Overlap rule


@dataclass(frozen=True)
class OverlapEntry:
    lam: complex
    members: tuple
    count: int


@dataclass(frozen=True)
class OverlapReport:
    """Membership classification of zeros of omega * delta_1 * delta_2."""

    entries: tuple
    violations: tuple
    warnings: tuple

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0

    def counts(self) -> dict:
        out = {1: 0, 2: 0, 3: 0}
        for e in self.entries:
            out[e.count] += 1
        return out


def three_spectra_overlap_rule(spec: ProblemSpec, a: float, box: SearchBox) -> OverlapReport:
    """Each zero belongs to exactly one or exactly three of the problems.

    Zeros of the three characteristic functions within 1e-6 (relative) of
    each other count as shared.  A pair whose missing third lies within ten
    times the matching tolerance is reported as a warning rather than a
    violation.
    """
    f2 = spec.form2
    if f2.kind != "point_value" or f2.order != 0 or abs(f2.x0 - a) > 1e-12 * max(1.0, spec.T):
        raise InputError("the overlap rule needs form2 = y(a) matching the given a")
    if not (
        spec.form1.kind == "nonlocal"
        and not spec.form1.measure.atoms
        and not spec.form1.measure.has_density
    ):
        raise InputError("the overlap rule needs form1 = H1 * y(0) (pure jump)")
    real = spec.is_real
    labeled = []
    for which in ("omega", "delta1", "delta2"):
        sp = problem_spectrum(spec, which, box, tol=_OVERLAP_TOL, real_axis=real)
        for z in sp.eigenvalues:
            labeled.append((complex(z), which))
    if not labeled:
        return OverlapReport(entries=(), violations=(), warnings=())
    labeled.sort(key=lambda t: (t[0].real, t[0].imag))
    eff = lambda z: _MATCH_TOL * (1.0 + abs(z)) + 10.0 * _OVERLAP_TOL
    clusters = []
    for z, which in labeled:
        if clusters and abs(z - clusters[-1][0][-1]) <= eff(z):
            clusters[-1][0].append(z)
            clusters[-1][1].append(which)
        else:
            clusters.append(([z], [which]))
    entries = []
    violations = []
    warnings = []
    by_fn = {w: np.asarray([z for z, ww in labeled if ww == w]) for w in ("omega", "delta1", "delta2")}
    for zs, whichs in clusters:
        center = complex(np.mean(zs))
        members = tuple(sorted(set(whichs)))
        entry = OverlapEntry(lam=center, members=members, count=len(members))
        entries.append(entry)
        if entry.count == 2:
            missing = next(w for w in ("omega", "delta1", "delta2") if w not in members)
            others = by_fn[missing]
            near = (
                len(others) > 0 and float(np.min(np.abs(others - center))) <= 10.0 * eff(center)
            )
            if near:
                warnings.append(entry)
            else:
                violations.append(entry)
    return OverlapReport(
        entries=tuple(entries), violations=tuple(violations), warnings=tuple(warnings)
    )
