"""Desk-scale regression criteria.

Each criterion is a self-contained experiment with fixed seeds and stated
tolerances.  The test suite and the `regress` subcommand both run these,
so a green suite and a green `regress` mean the same thing.  Criteria that
reconstruct potentials score the solver on data produced by its own
forward model; that is the intended scale of these checks, not a hidden
shortcut.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from . import scenarios
from .asymptotics import RaySpec, asym_report
from .characteristic import (
    _DEFECT_TOL,
    ProblemSpec,
    SpectralPoint,
    _row_ratios,
    char_batch,
    char_handle,
    combo_solutions,
)
from .errors import NumericalError, PoleProximityError
from .inversion import (
    BasisSpec,
    ReconstructOptions,
    _first_n_real,
    distinguishability,
    make_three_spectra_target,
    make_two_spectra_target,
    reconstruct,
)
from .measure import BVMeasure, LinearForm
from .ode_core import modulus_scale
from .potential import Potential
from .spectrum_finder import SearchBox, condition_S, find_spectrum, problem_spectrum


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime: float
    budget: float | None
    detail: str

    @property
    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        b = f", budget {self.budget:.0f}s" if self.budget else ""
        return f"criterion {self.number:2d}  {self.name:<24s} {mark}  ({self.runtime:5.1f}s{b})  {self.detail}"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _dirichlet_spec() -> ProblemSpec:
    return ProblemSpec(
        q=Potential.zero(math.pi),
        form1=LinearForm.point_value(0.0),
        form2=LinearForm.point_value(math.pi),
    )


def _criterion_1():
    """Closed-form values of delta_1 and delta_11 for the zero potential."""
    rng = np.random.default_rng(1)
    lam = (rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)) * (100.0 / math.sqrt(2))
    spec = _dirichlet_spec()
    cb = char_batch(spec, lam)
    rho = np.sqrt(lam.astype(complex))
    rho = np.where(rho.imag >= 0, rho, -rho)
    exact1 = np.where(np.abs(rho) < 1e-12, math.pi, np.sin(rho * math.pi) / rho)
    exact11 = np.cos(rho * math.pi)
    rel = [np.abs(cb.delta1 - exact1) / np.abs(exact1), np.abs(cb.delta11 - exact11) / np.abs(exact11)]
    worst = float(np.max(rel))  # np.max keeps a NaN, which then fails the bound
    return worst <= 1e-8, f"max relative error {worst:.2e} (allowed 1e-08)"


def _criterion_2():
    """Dirichlet spectrum {n^2} on the box, and winding conservation."""
    spec = _dirichlet_spec()
    box = SearchBox(re_min=0.5, re_max=110.0, im_min=-1.0, im_max=1.0)
    sp = problem_spectrum(spec, "delta1", box)
    target = np.array([float(n * n) for n in range(1, 11)])
    if len(sp.eigenvalues) != 10:
        return False, f"found {len(sp.eigenvalues)} eigenvalues, expected 10"
    err = float(np.max(np.abs(np.sort(sp.eigenvalues.real) - target)))
    if np.max(np.abs(sp.eigenvalues.imag)) > 1e-7:
        return False, "eigenvalues drifted off the real axis"
    total = sp.winding_total
    f_scan = char_handle(spec, "delta1", None)
    re_cuts = [0.5, 30.5, 72.5, 110.0]
    im_cut = 0.37
    winding = 0
    for i in range(3):
        for lo, hi in ((-1.0, im_cut), (im_cut, 1.0)):
            part = SearchBox(re_min=re_cuts[i], re_max=re_cuts[i + 1], im_min=lo, im_max=hi)
            winding += find_spectrum(
                f_scan,
                part,
                1e-6,
                source="delta1",
                scale=lambda z: modulus_scale(z, spec.T),
            ).winding_total
    ok = err <= 1e-7 and winding == total == 10
    return ok, f"max |lambda_n - n^2| = {err:.2e}; winding {total} vs partitioned {winding}"


def _random_form(rng, T: float, with_jump: bool) -> LinearForm:
    jump = 0j
    if with_jump:
        jump = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3))
    atoms = []
    for _ in range(int(rng.integers(1, 3))):
        t = float(rng.uniform(0.2, 0.9) * T)
        atoms.append((t, complex(rng.normal(0, 0.5), rng.normal(0, 0.5))))
    atoms.sort(key=lambda a: a[0])
    v0 = complex(rng.normal(0, 0.4), rng.normal(0, 0.4))
    v1 = complex(rng.normal(0, 0.4), rng.normal(0, 0.4))
    m = BVMeasure.with_density(T, [0.0, T], [v0, v1], jump=jump, atoms=atoms)
    return LinearForm.from_measure(m)


def _random_instance(rng):
    T = float(rng.uniform(2.0, 4.0))
    coeffs = rng.normal(0, 0.4, 4) + 1j * rng.normal(0, 0.4, 4)
    q = Potential.from_cosine(T, coeffs)
    return ProblemSpec(
        q=q, form1=_random_form(rng, T, True), form2=_random_form(rng, T, False)
    )


def _wronskian(a, b):
    """(a b' - a' b, cancellation magnitude) per grid node, scales applied."""
    f = np.exp(a.log_scale + b.log_scale)
    w = (a.y * b.dy - a.dy * b.y) * f
    m = (np.abs(a.y * b.dy) + np.abs(a.dy * b.y)) * f
    return w, m


def _identity_residuals(spec: ProblemSpec, lam: complex) -> dict:
    """Relative residual of each identity at one spectral point."""
    p = SpectralPoint.from_lambda(lam)
    c = combo_solutions(spec, p)
    sc = modulus_scale(lam, spec.T)
    out = {}

    bz = char_batch(spec, [lam])
    out["det_route_agreement"] = abs(complex(bz.omega[0]) - c.omega) / sc  # c holds the X route's

    w, m = _wronskian(c.theta, c.phi)
    out["wronskian_theta_phi"] = float(np.max(np.abs(w - c.omega) / (m + abs(c.omega) + sc)))
    w, m = _wronskian(c.psi, c.phi)
    out["wronskian_psi_phi"] = float(np.max(np.abs(w - c.delta1) / (m + abs(c.delta1) + sc)))

    bv = c.boundary_values
    z_side = {
        "delta1": (complex(bz.delta1[0]), bv["phi"]["V1"]),
        "delta11": (complex(bz.delta11[0]), bv["phi"]["V2"]),
        "delta2": (complex(bz.delta2[0]), -bv["theta"]["V1"]),
        "omega_u2_phi": (complex(bz.omega[0]), bv["phi"]["U2"]),
        "omega_u1_theta": (complex(bz.omega[0]), bv["theta"]["U1"]),
    }
    out["endpoint_data_match"] = float(
        np.max([abs(a - b) / (abs(a) + abs(b) + sc) for a, b in z_side.values()])
    )

    f_phi = np.exp(c.Phi.log_scale)
    f_mix = np.exp(c.theta.log_scale)
    mix = (c.theta.y * f_mix + c.M * c.phi.y * np.exp(c.phi.log_scale)) / c.omega
    big = np.abs(c.theta.y * f_mix) + np.abs(c.M * c.phi.y) * np.exp(c.phi.log_scale)
    out["weyl_solution_mix"] = float(
        np.max(np.abs(c.Phi.y * f_phi - mix) / (np.abs(mix) + big / abs(c.omega) + 1e-300))
    )

    w, m = _wronskian(c.Phi, c.phi)
    out["wronskian_Phi_phi"] = float(np.max(np.abs(w - 1.0) / (m + 1.0)))
    w, m = _wronskian(c.v1, c.v2)
    out["wronskian_v1_v2"] = float(np.max(np.abs(w - 1.0) / (m + 1.0)))

    v2T, dv2T = c.v2.value_at(spec.T)
    f2 = np.exp(c.v2.log_scale)
    out["v2_normalization"] = float(
        np.max([abs(dv2T * f2 - 1.0), abs(bv["v2"]["U1"]), abs(bv["v1"]["V1"] - 1.0)]) / (1.0 + sc)
    )

    out["form_truncation"] = _truncation_residual(spec, lam)
    return out


def _truncation_residual(spec: ProblemSpec, lam: complex) -> float:
    """Splitting the first form at a and a/2 shifts the two delta functions
    by the window integrals of Z_2 and Z_1."""
    sigma1 = spec.form1.measure
    T = spec.T
    a = 0.7 * T
    win = sigma1.window(a / 2.0, a)
    mk = lambda m: dataclasses.replace(spec, form1=LinearForm.from_measure(m))
    spec_a = dataclasses.replace(
        mk(sigma1.truncate(a)), form2=LinearForm.from_measure(win)
    )
    spec_h = mk(sigma1.truncate(a / 2.0))
    win_jump = BVMeasure(T, 1.0 + 0j, win.atoms, win.density_segments)
    spec_c = mk(win_jump)
    spec_d = mk(BVMeasure.from_jump(T, 1.0))
    ba = char_batch(spec_a, [lam])
    bh = char_batch(spec_h, [lam])
    i2 = -complex(ba.delta2[0])
    i1 = complex(char_batch(spec_c, [lam]).delta11[0]) - complex(
        char_batch(spec_d, [lam]).delta11[0]
    )
    sc = modulus_scale(lam, T) * (1.0 + sigma1.total_variation())
    r1 = abs(complex(bh.delta1[0]) - (complex(ba.delta1[0]) + i2))
    r11 = abs(complex(bh.delta11[0]) - (complex(ba.delta11[0]) - i1))
    return float(np.max([r1, r11])) / sc


def _criterion_3():
    """Identity suite on random complex instances."""
    rng = np.random.default_rng(3)
    found = []  # (identity, residual) at every instance
    for _ in range(20):
        spec = _random_instance(rng)
        res = None
        for _ in range(6):
            lam = complex(rng.uniform(-10, 35), rng.uniform(-8, 8))
            try:
                res = _identity_residuals(spec, lam)
                break
            except PoleProximityError:
                continue
        if res is None:
            return False, "could not place lambda away from the pole guards"
        found.extend(res.items())
    name, worst = found[int(np.argmax([v for _, v in found]))]  # the first NaN, else the first largest
    return worst <= 1e-7, f"worst residual {worst:.2e} ({name}, allowed 1e-07)"


def _criterion_4():
    """Constant shift of the potential relocates the spectral variable."""
    rng = np.random.default_rng(4)
    T = math.pi
    q = Potential.from_cosine(T, [0.3, -0.4, 0.2])
    spec = ProblemSpec(q=q, form1=_random_form(rng, T, True), form2=_random_form(rng, T, False))
    lam = np.linspace(2.0, 60.0, 12) + 0.7j
    base = char_batch(spec, lam)
    m0, ok0 = base.weyl_M_values()
    box = SearchBox(re_min=0.5, re_max=40.0, im_min=-1.0, im_max=1.0)
    sp0 = problem_spectrum(spec, "delta1", box)
    gaps = []
    for c in (-1.0, 0.5, 2.0):
        shifted = dataclasses.replace(spec, q=q.shifted(c))
        mc, okc = char_batch(shifted, lam + c).weyl_M_values()
        if not np.all(ok0 & okc):
            return False, f"pole guard hit on the shifted grid (c={c})"
        gaps.append(np.abs(mc - m0) / (1.0 + np.abs(m0)))
        spc = problem_spectrum(
            shifted,
            "delta1",
            SearchBox(box.re_min + c, box.re_max + c, box.im_min, box.im_max),
        )
        if len(spc.eigenvalues) != len(sp0.eigenvalues):
            return False, f"shifted spectrum count changed (c={c})"
        gaps.append(np.abs(spc.eigenvalues - (sp0.eigenvalues + c)) / (1.0 + np.abs(sp0.eigenvalues)))
    worst = float(np.max(np.concatenate(gaps)))
    return worst <= 1e-7, f"max relative mismatch {worst:.2e} (allowed 1e-07)"


def _asym_corpus():
    rng = np.random.default_rng(5)
    T = math.pi
    coeffs = rng.normal(0.0, 0.5, 6)
    q3 = Potential.from_cosine(T, coeffs)
    n1 = q3.l1_norm()
    if n1 > 5.0:
        q3 = Potential.from_cosine(T, coeffs * (5.0 / n1))
    forms = dict(form1=LinearForm.point_value(0.0), form2=LinearForm.point_value(T))
    return [
        ProblemSpec(q=Potential.zero(T), **forms),
        ProblemSpec(q=Potential.from_cosine(T, [1.0]), **forms),
        ProblemSpec(q=q3, **forms),
    ]


def _criterion_5():
    """Leading-term decay of delta_1 along a fixed ray."""
    ray = RaySpec.pi_delta(angle=math.pi / 3.0, radii=(5.0, 10.0, 20.0, 40.0))
    finals = []
    for spec in _asym_corpus():
        rep = asym_report("Delta1", None, ray, spec)
        if not rep.decreasing_with_floor(1e-8):
            return False, f"errors not decreasing: {np.round(rep.rel_errors, 6)}"
        finals.append(rep.final_rel_error)
    worst = float(np.max(finals))
    return worst < 0.05, f"final relative errors {[f'{v:.3f}' for v in finals]} (allowed 0.05)"


def _criterion_6():
    """Mirror pair with matching Weyl data, failing disjointness, split by d_n."""
    cfg, (spec, mirror) = scenarios.build_scenario("counterexample1")
    lam = np.linspace(1.0, 90.0, 50) + 0.5j
    rep = scenarios.verify_counterexample(cfg, lam, tol=1e-6)
    xi = _first_n_real(spec, "omega", 6, length=spec.T / 2.0)
    score = distinguishability(spec, mirror, "weyl_pair_with_D", lam, xi=xi)
    ok = (
        rep.m_deviation <= 1e-6
        and rep.omega_deviation <= 1e-6
        and rep.q_sup_difference > 0.1
        and not rep.condition_s.holds
        and score > 0.01
    )
    return ok, (
        f"M dev {rep.m_deviation:.1e}, omega dev {rep.omega_deviation:.1e}, "
        f"|q - q~| {rep.q_sup_difference:.2f}, S holds {rep.condition_s.holds}, "
        f"D score {score:.3f}"
    )


def _criterion_7():
    """Mirror pair where disjointness holds yet M still matches."""
    cfg, _ = scenarios.build_scenario("counterexample2")
    lam = np.linspace(1.0, 90.0, 50) + 0.5j
    rep = scenarios.verify_counterexample(cfg, lam, tol=1e-6)
    s = rep.condition_s
    ok = s.holds and s.min_gap > 10.0 * 1e-6 and rep.m_deviation <= 1e-6
    return ok, (
        f"S holds {s.holds} (min gap {s.min_gap:.3f}), M dev {rep.m_deviation:.1e}, "
        f"|q - q~| {rep.q_sup_difference:.2f}"
    )


def _c8_spec() -> ProblemSpec:
    T = math.pi
    q = Potential.from_cosine(T, [0.5, -0.3, 0.2, 0.1])
    sigma1 = BVMeasure.with_density(
        T, [0.0, T], [0.15, -0.1], jump=1.0, atoms=[(0.8, 0.4)]
    )
    sigma2 = BVMeasure.with_density(T, [0.0, T], [-0.2, 0.3], atoms=[(1.7, 0.9)])
    return ProblemSpec.with_measures(q, sigma1, sigma2)


def _criterion_8():
    """d_n = -1/M at the first zeros of omega when the spectra are disjoint."""
    spec = _c8_spec()
    xi = _first_n_real(spec, "omega", 6)
    hi = max(z.real for z in xi) + 5.0
    box = SearchBox(re_min=-3.0, re_max=hi, im_min=-1.0, im_max=1.0)
    cert = condition_S(spec, box, 1e-6, real_axis=True)
    if not cert.holds:
        return False, f"disjointness fails on the data box (gap {cert.min_gap:.2e})"
    # d_n (as d_sequence reads it) and M from one sweep over the zeros
    cb = char_batch(spec, np.asarray(xi))
    d, infinite, defect = _row_ratios(cb)
    if np.any(defect > _DEFECT_TOL):
        return False, f"form rows not collinear at a zero of omega (defect {defect.max():.2e})"
    m_vals, ok = cb.weyl_M_values()
    if not np.all(ok):
        return False, "a zero of omega fell under the delta_1 pole guard"
    if np.any(infinite):
        return False, "unexpected infinite ratio at a simple zero"
    worst = float(np.max([abs(complex(v) - (-1.0 / m)) / abs(1.0 / m) for v, m in zip(d, m_vals)]))
    return worst <= 1e-6, f"max relative error {worst:.2e} (allowed 1e-06)"


def _c9_truth() -> ProblemSpec:
    T = math.pi
    q = Potential.from_cosine(T, [0.6, -0.4, 0.25, -0.15])
    sigma1 = BVMeasure.with_density(
        T, [0.0, T], [0.2, -0.1], jump=1.0, atoms=[(T / 3.0, 0.5)]
    )
    return ProblemSpec(
        q=q,
        form1=LinearForm.from_measure(sigma1),
        form2=LinearForm.point_value(T / 2.0),
    )


def _criterion_9():
    """Recover four cosine coefficients from two eigenvalue lists."""
    truth = _c9_truth()
    target = make_two_spectra_target(truth, 8)
    template = dataclasses.replace(truth, q=Potential.zero(truth.T))
    basis = BasisSpec.cosine(truth.T, 4)
    opts = ReconstructOptions(template=template, basis=basis, starts=5, seed=9)
    result = reconstruct(target, np.zeros(4), opts)
    err = float(np.max(np.abs(result.coeffs - truth.q.values.real)))
    ok = err <= 1e-3 and result.convergence_flag
    return ok, (
        f"max coefficient error {err:.2e} (allowed 1e-03), "
        f"residual {result.residual_norm:.2e}, converged {result.convergence_flag}"
    )


def _criterion_10():
    """Recover four cosine coefficients from the three split spectra."""
    T = math.pi
    truth = ProblemSpec(
        q=Potential.from_cosine(T, [0.5, -0.35, 0.2, -0.1]),
        form1=LinearForm.from_measure(BVMeasure.from_jump(T, 1.0)),
        form2=LinearForm.point_value(1.0),
    )
    target = make_three_spectra_target(truth, 4)
    cert = target.certificate
    if cert is None or not cert.holds:
        return False, "the S' certificate does not hold on the data box"
    template = dataclasses.replace(truth, q=Potential.zero(T))
    basis = BasisSpec.cosine(T, 4)
    opts = ReconstructOptions(template=template, basis=basis, starts=5, seed=10)
    result = reconstruct(target, np.zeros(4), opts)
    err = float(np.max(np.abs(result.coeffs - truth.q.values.real)))
    ok = err <= 1e-3 and result.convergence_flag
    return ok, (
        f"max coefficient error {err:.2e} (allowed 1e-03), "
        f"S' min gap {cert.min_gap:.3f}, converged {result.convergence_flag}"
    )


def _criterion_11():
    """No zero of the product belongs to exactly two of the three problems."""
    rng = np.random.default_rng(11)
    T = math.pi
    box = SearchBox(re_min=0.5, re_max=60.0, im_min=-1.0, im_max=1.0)
    classified = 0
    for _ in range(10):
        q = Potential.from_cosine(T, rng.normal(0.0, 0.5, 4))
        a = float(rng.uniform(0.25, 0.75) * T)
        cfg, _ = scenarios.build_scenario("three_spectra", {"a": a, "q": q})
        rep = scenarios.three_spectra_overlap_rule(cfg.spec, a, box)
        counts = rep.counts()
        if counts[2] > 0 or not rep.ok:
            return False, f"a zero at a={a:.3f} classified as exactly-two: {rep.violations}"
        classified += sum(counts.values())
    return True, f"{classified} zeros classified across 10 instances, none exactly-two"


_CRITERIA = (
    (1, "zero_potential_oracle", _criterion_1, 10.0),
    (2, "spectrum_dirichlet", _criterion_2, 30.0),
    (3, "identity_suite", _criterion_3, 60.0),
    (4, "shift_covariance", _criterion_4, None),
    (5, "leading_term_decay", _criterion_5, None),
    (6, "counterexample_1", _criterion_6, None),
    (7, "counterexample_2", _criterion_7, None),
    (8, "d_sequence_consistency", _criterion_8, None),
    (9, "two_spectra_recovery", _criterion_9, 300.0),
    (10, "three_spectra_recovery", _criterion_10, None),
    (11, "overlap_rule", _criterion_11, None),
)


def criterion_numbers() -> tuple:
    return tuple(n for n, _, _, _ in _CRITERIA)


def run_criterion(number: int) -> CriterionResult:
    row = next((r for r in _CRITERIA if r[0] == number), None)
    if row is None:
        raise ValueError(f"no criterion {number}; known: {criterion_numbers()}")
    n, name, fn, budget = row
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except NumericalError as exc:
        ok, detail = False, f"numerical failure: {exc}"
    dt = time.perf_counter() - t0
    if ok and budget is not None and dt > budget:
        ok = False
        detail += f"; exceeded the {budget:.0f}s budget"
    return CriterionResult(
        number=n, name=name, passed=bool(ok), runtime=dt, budget=budget, detail=detail
    )


def run_all(numbers=None) -> list:
    wanted = tuple(numbers) if numbers else criterion_numbers()
    return [run_criterion(n) for n in wanted]
