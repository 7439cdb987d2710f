"""Potential reconstruction from spectral data by damped least squares.

Four data sets are supported, mirroring the uniqueness results that the
rest of the package computes forward:

* ``two_spectra``: eigenvalue lists of the problems cut out by
  (form1, y(T)) and (form1, y'(T)), i.e. zeros of delta_1 and delta_11.
* ``weyl_pair``: samples of M = delta_2/delta_1 and of omega on a lambda
  grid, optionally with a disjointness certificate.
* ``weyl_pair_with_D``: the same plus the collinearity ratios d_n at the
  zeros of omega (the data that restores uniqueness when the disjointness
  condition fails).
* ``three_spectra``: Dirichlet spectra on (0, a), (0, T) and (a, T) for the
  point-form configuration U1 = y(0), U2 = y(a).

Reconstruction runs a hand-rolled Levenberg-Marquardt loop over basis
coefficients.  Eigenvalue residuals match computed roots to the target
lists by optimal assignment, so no enumeration convention is needed.
Candidate eigenvalues are obtained by Newton refinement seeded at the
target values, and all finite-difference Jacobian columns share a single
batched sweep (`char_batch_multi`), which is what keeps the optimizer at
desk-scale runtimes.  Targets carrying d_n data add one X-route sweep per
candidate, in which `d_sequence` reads the d_n at every xi_n at once.

Data here are self-generated by the same forward solver (the usual inverse
crime); noise robustness is out of scope.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .characteristic import ProblemSpec, char_batch, char_batch_multi, d_sequence
from .errors import InputError, NumericalError
from .ode_core import GridSpec, modulus_scale
from .potential import Potential
from .spectrum_finder import ConditionReport, SearchBox, condition_S, problem_spectrum

_KINDS = ("two_spectra", "weyl_pair", "weyl_pair_with_D", "three_spectra")
_BASES = ("cosine", "piecewise")
_PENALTY = 1e3
_NEWTON_ROUNDS = 10
_STEP_TOL = 1e-9  # relative Newton step size counted as converged
_ROOT_F_TOL = 1e-4  # |f| <= this * modulus scale accepts a refined root


def _pairs(vals) -> tuple:
    return tuple(complex(v) for v in np.atleast_1d(np.asarray(vals, dtype=complex)))


@dataclass(frozen=True)
class BasisSpec:
    """Finite real parameterization of the potential."""

    kind: str
    T: float
    dim: int

    def __post_init__(self):
        if self.kind not in _BASES:
            raise InputError(f"unknown basis {self.kind!r}; expected cosine or piecewise")
        if self.dim < 1:
            raise InputError("basis dimension must be at least 1")
        if not self.T > 0:
            raise InputError("basis needs a positive interval length")

    @classmethod
    def cosine(cls, T: float, dim: int) -> "BasisSpec":
        """Coefficients of cos(k pi x / T), k = 0 .. dim-1."""
        return cls(kind="cosine", T=float(T), dim=int(dim))

    @classmethod
    def piecewise(cls, T: float, dim: int) -> "BasisSpec":
        """Constant values on dim equal cells."""
        return cls(kind="piecewise", T=float(T), dim=int(dim))

    def potential(self, coeffs) -> Potential:
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.dim,):
            raise InputError(f"expected {self.dim} coefficients, got shape {c.shape}")
        if self.kind == "cosine":
            return Potential.from_cosine(self.T, c.tolist())
        edges = np.linspace(0.0, self.T, self.dim + 1)
        return Potential.from_piecewise(edges, c.tolist())


def _certificate_to_dict(c: ConditionReport | None):
    if c is None:
        return None
    w = None if c.witness is None else [[z.real, z.imag] for z in c.witness]
    return {
        "holds": c.holds,
        "min_gap": c.min_gap,
        "witness": w,
        "n_first": c.n_first,
        "n_second": c.n_second,
        "separation_tol": c.separation_tol,
    }


def _certificate_from_dict(d) -> ConditionReport | None:
    if d is None:
        return None
    w = d.get("witness")
    witness = None if w is None else tuple(complex(p[0], p[1]) for p in w)
    return ConditionReport(
        holds=bool(d["holds"]),
        min_gap=float(d["min_gap"]),
        witness=witness,
        n_first=int(d["n_first"]),
        n_second=int(d["n_second"]),
        separation_tol=float(d["separation_tol"]),
    )


@dataclass(frozen=True)
class InverseTarget:
    """One inverse-problem data set with optional per-datum weights."""

    kind: str
    lambda1: tuple = ()
    lambda11: tuple = ()
    lam_grid: tuple = ()
    m_values: tuple = ()
    omega_values: tuple = ()
    xi: tuple = ()
    d_values: tuple = ()
    d_infinite: tuple = ()
    lambda0: tuple = ()
    lambda2: tuple = ()
    split: float | None = None
    certificate: ConditionReport | None = None
    weights: tuple | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown target kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "two_spectra":
            if not self.lambda1 or not self.lambda11:
                raise InputError("two_spectra needs both eigenvalue lists")
            a = np.asarray(self.lambda1, dtype=complex)
            b = np.asarray(self.lambda11, dtype=complex)
            gap = float(np.min(np.abs(a[:, None] - b[None, :])))
            if gap <= 1e-9 * (1.0 + float(np.max(np.abs(a)))):
                raise InputError(f"the two eigenvalue lists must be disjoint (gap {gap:.2e})")
        elif self.kind in ("weyl_pair", "weyl_pair_with_D"):
            n = len(self.lam_grid)
            if n == 0 or len(self.m_values) != n or len(self.omega_values) != n:
                raise InputError("weyl data needs aligned lam_grid, m_values, omega_values")
            if self.kind == "weyl_pair_with_D":
                if not self.xi or len(self.d_values) != len(self.xi):
                    raise InputError("d data needs aligned xi and d_values")
                if self.d_infinite and len(self.d_infinite) != len(self.xi):
                    raise InputError("d_infinite flags must align with xi")
                if not self.d_infinite:
                    object.__setattr__(self, "d_infinite", tuple(False for _ in self.xi))
        else:
            if not (self.lambda0 and self.lambda1 and self.lambda2):
                raise InputError("three_spectra needs all three eigenvalue lists")
            if self.split is None or not self.split > 0:
                raise InputError("three_spectra needs the split point a")
            if self.certificate is None:
                raise InputError("three_spectra data needs a disjointness certificate")
            if not self.certificate.holds:
                raise InputError(
                    "the disjointness certificate fails "
                    f"(min gap {self.certificate.min_gap:.2e}); the data do not "
                    "determine the potential"
                )
        if self.weights is not None and len(self.weights) != self.n_data:
            raise InputError(f"weights must have one entry per datum ({self.n_data})")

    @property
    def n_data(self) -> int:
        if self.kind == "two_spectra":
            return len(self.lambda1) + len(self.lambda11)
        if self.kind == "three_spectra":
            return len(self.lambda0) + len(self.lambda1) + len(self.lambda2)
        n = 2 * len(self.lam_grid)
        if self.kind == "weyl_pair_with_D":
            n += len(self.xi)
        return n

    def datum_weights(self) -> np.ndarray:
        if self.weights is None:
            return np.ones(self.n_data)
        return np.asarray(self.weights, dtype=float)

    def to_dict(self) -> dict:
        enc = lambda t: [[v.real, v.imag] for v in t]
        return {
            "kind": self.kind,
            "lambda1": enc(self.lambda1),
            "lambda11": enc(self.lambda11),
            "lam_grid": enc(self.lam_grid),
            "m_values": enc(self.m_values),
            "omega_values": enc(self.omega_values),
            "xi": enc(self.xi),
            "d_values": enc(self.d_values),
            "d_infinite": list(self.d_infinite),
            "lambda0": enc(self.lambda0),
            "lambda2": enc(self.lambda2),
            "split": self.split,
            "certificate": _certificate_to_dict(self.certificate),
            "weights": None if self.weights is None else list(self.weights),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InverseTarget":
        dec = lambda key: tuple(complex(p[0], p[1]) for p in d.get(key, []))
        w = d.get("weights")
        return cls(
            kind=d["kind"],
            lambda1=dec("lambda1"),
            lambda11=dec("lambda11"),
            lam_grid=dec("lam_grid"),
            m_values=dec("m_values"),
            omega_values=dec("omega_values"),
            xi=dec("xi"),
            d_values=dec("d_values"),
            d_infinite=tuple(bool(b) for b in d.get("d_infinite", [])),
            lambda0=dec("lambda0"),
            lambda2=dec("lambda2"),
            split=d.get("split"),
            certificate=_certificate_from_dict(d.get("certificate")),
            weights=None if w is None else tuple(float(x) for x in w),
        )


# ---------------------------------------------------------------------------
# Data builders (forward generation, real potentials)


def _first_n_real(
    spec: ProblemSpec,
    which: str,
    n: int,
    grid_spec: GridSpec | None = None,
    tol: float = 1e-9,
    length: float | None = None,
) -> tuple:
    """First n real zeros of one characteristic function, by real part.

    `length` is the effective interval length setting the zero spacing
    (about (n pi / length)^2); it defaults to the full domain.
    """
    if not spec.is_real:
        raise InputError("the data builders assume a real potential")
    T = spec.T
    ell = T if length is None else float(length)
    pad = 3.0 + spec.q.l1_norm()
    lo = -pad - 1.0
    hi = ((n + 1.5) * math.pi / ell) ** 2 + pad
    found = None
    for _ in range(4):
        box = SearchBox(re_min=lo, re_max=hi, im_min=-1.0, im_max=1.0)
        found = problem_spectrum(spec, which, box, grid_spec, tol=tol, real_axis=True)
        if len(found) >= n:
            return tuple(complex(z) for z in found.eigenvalues[:n])
        hi = lo + (hi - lo) * 1.7
    raise NumericalError(f"found only {len(found)} zeros of {which}, needed {n}")


def make_two_spectra_target(
    spec: ProblemSpec,
    n_each: int,
    grid_spec: GridSpec | None = None,
    tol: float = 1e-9,
    weights=None,
) -> InverseTarget:
    """First n_each eigenvalues of the delta_1 and delta_11 problems."""
    l1 = _first_n_real(spec, "delta1", n_each, grid_spec, tol)
    l11 = _first_n_real(spec, "delta11", n_each, grid_spec, tol)
    return InverseTarget(
        kind="two_spectra",
        lambda1=l1,
        lambda11=l11,
        weights=None if weights is None else tuple(weights),
    )


def make_weyl_target(
    spec: ProblemSpec,
    lam_grid,
    with_d: bool = False,
    n_xi: int = 6,
    grid_spec: GridSpec | None = None,
    tol: float = 1e-9,
    certificate: ConditionReport | None = None,
    weights=None,
) -> InverseTarget:
    """M and omega samples on a lambda grid, optionally with d_n data."""
    lam = np.asarray(lam_grid, dtype=complex)
    cb = char_batch(spec, lam, grid_spec)
    m_vals, ok = cb.weyl_M_values()
    if not np.all(ok):
        bad = lam[~ok][0]
        raise InputError(f"lambda grid point {bad:.6g} falls under the delta_1 pole guard")
    kwargs = {}
    kind = "weyl_pair"
    if with_d:
        xi = _first_n_real(spec, "omega", n_xi, grid_spec, tol)
        ratios = d_sequence(spec, xi, grid_spec)
        kind = "weyl_pair_with_D"
        kwargs = {
            "xi": xi,
            "d_values": tuple(0j if r.is_infinite else complex(r.value) for r in ratios),
            "d_infinite": tuple(r.is_infinite for r in ratios),
        }
    return InverseTarget(
        kind=kind,
        lam_grid=_pairs(lam),
        m_values=_pairs(m_vals),
        omega_values=_pairs(cb.omega),
        certificate=certificate,
        weights=None if weights is None else tuple(weights),
        **kwargs,
    )


def make_three_spectra_target(
    spec: ProblemSpec,
    n_each: int,
    grid_spec: GridSpec | None = None,
    tol: float = 1e-9,
    separation_tol: float = 1e-6,
    weights=None,
) -> InverseTarget:
    """Dirichlet spectra on (0, a), (0, T), (a, T) with the S' certificate.

    Needs the point-form configuration: form1 a pure jump at 0 and form2 the
    point value y(a).
    """
    f1, f2 = spec.form1, spec.form2
    pure_jump = (
        f1.kind == "nonlocal"
        and not f1.measure.atoms
        and not f1.measure.has_density
    )
    if not pure_jump:
        raise InputError("three-spectra data needs form1 = H1 * y(0) (pure jump)")
    if f2.kind != "point_value" or f2.order != 0 or not (0.0 < f2.x0 < spec.T):
        raise InputError("three-spectra data needs form2 = y(a) with a inside (0, T)")
    a = float(f2.x0)
    l0 = _first_n_real(spec, "omega", n_each, grid_spec, tol, length=a)
    l1 = _first_n_real(spec, "delta1", n_each, grid_spec, tol, length=spec.T)
    l2 = _first_n_real(spec, "delta2", n_each, grid_spec, tol, length=spec.T - a)
    hi = max(z.real for z in (*l0, *l1, *l2)) + 2.0
    lo = min(0.0, min(z.real for z in (*l0, *l1, *l2)) - 1.0)
    box = SearchBox(re_min=lo, re_max=hi, im_min=-1.0, im_max=1.0)
    cert = condition_S(spec, box, separation_tol, grid_spec, real_axis=True)
    return InverseTarget(
        kind="three_spectra",
        lambda0=l0,
        lambda1=l1,
        lambda2=l2,
        split=a,
        certificate=cert,
        weights=None if weights is None else tuple(weights),
    )


# ---------------------------------------------------------------------------
# Residual engine


class _Engine:
    """Batched map from coefficient rows to weighted residual rows.

    Residual layout: two real slots (re, im) per datum, in target order.
    Rows of the coefficient matrix are independent candidates, which lets a
    finite-difference Jacobian ride one fused sweep.
    """

    def __init__(
        self,
        target: InverseTarget,
        template: ProblemSpec,
        basis: BasisSpec,
        grid_tol: float = 1e-7,
    ):
        self.target = target
        self.template = template
        self.basis = basis
        self.gs = GridSpec(tol=grid_tol)
        self.w = target.datum_weights()
        if target.kind == "two_spectra":
            self.blocks = [("delta1", np.asarray(target.lambda1, dtype=complex)),
                           ("delta11", np.asarray(target.lambda11, dtype=complex))]
        elif target.kind == "three_spectra":
            self.blocks = [("omega", np.asarray(target.lambda0, dtype=complex)),
                           ("delta1", np.asarray(target.lambda1, dtype=complex)),
                           ("delta2", np.asarray(target.lambda2, dtype=complex))]
        else:
            self.blocks = None

    def specs_for(self, C: np.ndarray) -> list[ProblemSpec]:
        return [
            dataclasses.replace(self.template, q=self.basis.potential(c)) for c in C
        ]

    def residuals(self, C) -> tuple[np.ndarray, np.ndarray]:
        """(residual rows (B, 2*n_data), invalid-datum flags (B, n_data))."""
        C = np.atleast_2d(np.asarray(C, dtype=float))
        if self.blocks is not None:
            return self._spectra_residuals(C)
        return self._weyl_residuals(C)

    # -- eigenvalue targets --------------------------------------------------

    def _refined_roots(self, C: np.ndarray):
        """Newton-refined roots seeded at the targets, per candidate row.

        Returns (roots (B, total), valid (B, total)) with block columns
        concatenated in self.blocks order.
        """
        B = len(C)
        q_list = [self.basis.potential(c) for c in C]
        seeds = np.concatenate([s for _, s in self.blocks])
        total = len(seeds)
        sizes = [len(s) for _, s in self.blocks]
        offs = np.cumsum([0] + sizes)
        z = np.tile(seeds, (B, 1))
        active = np.ones((B, total), dtype=bool)
        f_last = np.zeros((B, total), dtype=complex)
        for _ in range(_NEWTON_ROUNDS):
            h = 1e-6 * (1.0 + np.abs(z))
            lam_flat = np.concatenate([z.ravel(), (z + h).ravel()])
            q_idx = np.tile(np.repeat(np.arange(B), total), 2)
            cb = char_batch_multi(self.template, lam_flat, q_list, q_idx, self.gs)
            f_all = np.empty((2, B, total), dtype=complex)
            for k, (which, _) in enumerate(self.blocks):
                sl = slice(offs[k], offs[k + 1])
                f_all[:, :, sl] = getattr(cb, which).reshape(2, B, total)[:, :, sl]
            f0, f1 = f_all[0], f_all[1]
            f_last = f0
            fp = (f1 - f0) / h
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(fp != 0, f0 / np.where(fp != 0, fp, 1.0), 0.0)
            bad = ~np.isfinite(step)
            step = np.where(bad, 0.0, step)
            cap = 0.5 * (1.0 + np.abs(z))
            mag = np.abs(step)
            step = np.where(mag > cap, step * (cap / np.where(mag > 0, mag, 1.0)), step)
            z = np.where(active, z - step, z)
            done = np.abs(step) <= _STEP_TOL * (1.0 + np.abs(z))
            active &= ~done
            if not active.any():
                break
        scale = np.abs(modulus_scale(z, self.template.T))
        valid = np.isfinite(z) & (np.abs(f_last) <= _ROOT_F_TOL * scale)
        return z, valid

    def _spectra_residuals(self, C: np.ndarray):
        B = len(C)
        n_data = self.target.n_data
        res = np.zeros((B, 2 * n_data))
        invalid = np.zeros((B, n_data), dtype=bool)
        roots, valid = self._refined_roots(C)
        sizes = [len(s) for _, s in self.blocks]
        offs = np.cumsum([0] + sizes)
        for b in range(B):
            for k, (_, targets) in enumerate(self.blocks):
                sl = slice(offs[k], offs[k + 1])
                r = roots[b, sl]
                ok = valid[b, sl]
                n = len(targets)
                cost = np.abs(r[:, None] - targets[None, :])
                cost = np.where(ok[:, None], cost, 1e9 * (1.0 + cost))
                rows, cols = linear_sum_assignment(cost)
                for i, j in zip(rows, cols):
                    d_idx = offs[k] + j
                    w = self.w[d_idx]
                    if ok[i]:
                        diff = r[i] - targets[j]
                        res[b, 2 * d_idx] = w * diff.real
                        res[b, 2 * d_idx + 1] = w * diff.imag
                    else:
                        pen = _PENALTY * (1.0 + abs(targets[j]))
                        res[b, 2 * d_idx] = w * pen
                        res[b, 2 * d_idx + 1] = w * pen
                        invalid[b, d_idx] = True
        return res, invalid

    # -- Weyl targets ----------------------------------------------------------

    def _weyl_residuals(self, C: np.ndarray):
        t = self.target
        B = len(C)
        n_data = t.n_data
        res = np.zeros((B, 2 * n_data))
        invalid = np.zeros((B, n_data), dtype=bool)
        lamg = np.asarray(t.lam_grid, dtype=complex)
        ng = len(lamg)
        q_list = [self.basis.potential(c) for c in C]
        lam_flat = np.tile(lamg, B)
        q_idx = np.repeat(np.arange(B), ng)
        cb = char_batch_multi(self.template, lam_flat, q_list, q_idx, self.gs)
        m_vals, ok = cb.weyl_M_values()
        m_vals = m_vals.reshape(B, ng)
        ok = ok.reshape(B, ng)
        om = cb.omega.reshape(B, ng)
        m_t = np.asarray(t.m_values, dtype=complex)
        om_t = np.asarray(t.omega_values, dtype=complex)
        for b in range(B):
            for g in range(ng):
                wm, wo = self.w[2 * g], self.w[2 * g + 1]
                if ok[b, g]:
                    dm = m_vals[b, g] - m_t[g]
                    res[b, 4 * g] = wm * dm.real
                    res[b, 4 * g + 1] = wm * dm.imag
                else:
                    pen = _PENALTY * (1.0 + abs(m_t[g]))
                    res[b, 4 * g] = wm * pen
                    res[b, 4 * g + 1] = wm * pen
                    invalid[b, 2 * g] = True
                do = om[b, g] - om_t[g]
                res[b, 4 * g + 2] = wo * do.real
                res[b, 4 * g + 3] = wo * do.imag
        if t.kind == "weyl_pair_with_D":
            base = 2 * ng
            specs = self.specs_for(C)
            for b in range(B):
                ratios = None
                try:
                    ratios = d_sequence(specs[b], np.asarray(t.xi, dtype=complex), self.gs)
                except NumericalError:
                    pass
                for j in range(len(t.xi)):
                    d_idx = base + j
                    w = self.w[d_idx]
                    diff = None
                    if ratios is not None:
                        diff = _d_mismatch(
                            ratios[j].value,
                            ratios[j].is_infinite,
                            complex(t.d_values[j]),
                            bool(t.d_infinite[j]),
                        )
                    if diff is None:
                        res[b, 2 * d_idx] = w * _PENALTY
                        res[b, 2 * d_idx + 1] = w * _PENALTY
                        invalid[b, d_idx] = True
                    else:
                        res[b, 2 * d_idx] = w * diff.real
                        res[b, 2 * d_idx + 1] = w * diff.imag
        return res, invalid


def _d_mismatch(value: complex, is_inf: bool, t_value: complex, t_inf: bool):
    """Mismatch in the chart picked by the target: direct inside the unit
    disk, reciprocal outside (infinity maps to 0).  None means incomparable
    (the candidate sits at the chart's singular point)."""
    if t_inf or abs(t_value) > 1.0:
        tv = 0j if t_inf else 1.0 / t_value
        if is_inf:
            return -tv
        if value == 0:
            return None
        return 1.0 / value - tv
    if is_inf:
        return None
    return value - t_value


def residual(
    target: InverseTarget,
    coeffs,
    template: ProblemSpec,
    basis: BasisSpec | None = None,
    grid_tol: float = 1e-10,
) -> np.ndarray:
    """Weighted residual vector of one candidate (two real slots per datum).

    The default grid tolerance matches the data builders, so a candidate
    equal to the generating potential scores essentially zero.  The
    optimizer runs a coarser grid (see ReconstructOptions.grid_tol); its
    small forward bias is far below the coefficient tolerances of interest.
    """
    c = np.asarray(coeffs, dtype=float)
    basis = basis or BasisSpec.cosine(template.T, len(c))
    engine = _Engine(target, template, basis, grid_tol)
    r, _ = engine.residuals(c[None, :])
    return r[0]


# ---------------------------------------------------------------------------
# Levenberg-Marquardt with multistart


@dataclass(frozen=True)
class ReconstructOptions:
    template: ProblemSpec
    basis: BasisSpec | None = None
    starts: int = 5
    tol: float = 1e-9
    max_iter: int = 60
    seed: int = 0
    spread: float = 0.5
    step_tol: float = 1e-10
    grid_tol: float = 1e-7
    fd_step: float = 1e-6
    bounds: tuple[float, float] = (-20.0, 20.0)


@dataclass(frozen=True)
class ReconstructionResult:
    coeffs: tuple
    q_est: Potential
    residual_norm: float
    per_datum: tuple
    iterations: int
    convergence_flag: bool
    start_norms: tuple
    message: str
    invalid_data: tuple

    def to_dict(self) -> dict:
        return {
            "coeffs": list(self.coeffs),
            "q_est": self.q_est.to_dict(),
            "residual_norm": self.residual_norm,
            "per_datum": list(self.per_datum),
            "iterations": self.iterations,
            "converged": self.convergence_flag,
            "start_norms": list(self.start_norms),
            "message": self.message,
            "invalid_data": list(self.invalid_data),
        }


def _lm_run(engine: _Engine, c0: np.ndarray, opts: ReconstructOptions):
    lo, hi = opts.bounds
    c = np.clip(np.asarray(c0, dtype=float), lo, hi)
    K = len(c)
    R, inv = engine.residuals(c[None, :])
    r, invalid = R[0], inv[0]
    norm = float(np.linalg.norm(r))
    damp = 1e-3
    iters = 0
    converged = False
    message = "iteration limit reached"
    for iters in range(1, opts.max_iter + 1):
        if norm < opts.tol:
            converged, message = True, "residual below tolerance"
            break
        h = opts.fd_step * (1.0 + np.abs(c))
        rows = np.vstack([c[None, :], c[None, :] + np.diag(h)])
        R, inv = engine.residuals(rows)
        r, invalid = R[0], inv[0]
        norm = float(np.linalg.norm(r))
        J = (R[1:] - r[None, :]).T / h[None, :]
        A = J.T @ J
        g = J.T @ r
        diag = np.maximum(np.diag(A), 1e-12)
        accepted = False
        while damp <= 1e4 + 1e-9:
            try:
                delta = np.linalg.solve(A + damp * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None:
                c_try = np.clip(c + delta, lo, hi)
                R_try, inv_try = engine.residuals(c_try[None, :])
                norm_try = float(np.linalg.norm(R_try[0]))
                if norm_try < norm:
                    c, r, invalid, norm = c_try, R_try[0], inv_try[0], norm_try
                    damp = max(damp * 0.5, 1e-8)
                    accepted = True
                    break
            damp = damp * 2.0
        if not accepted:
            message = "damping limit reached without descent"
            break
        if np.linalg.norm(delta) < opts.step_tol * (1.0 + np.linalg.norm(c)):
            converged, message = True, "step below tolerance"
            break
        if norm < opts.tol:
            converged, message = True, "residual below tolerance"
            break
    return c, norm, r, invalid, iters, converged, message


def reconstruct(
    target: InverseTarget, initial_coeffs, options: ReconstructOptions
) -> ReconstructionResult:
    """Best local minimum over multistart damped least squares.

    Failure to converge is reported in the result flags, not raised.
    """
    c0 = np.asarray(initial_coeffs, dtype=float)
    basis = options.basis or BasisSpec.cosine(options.template.T, len(c0))
    if basis.dim != len(c0):
        raise InputError(f"initial coefficients have length {len(c0)}, basis dim {basis.dim}")
    if basis.dim > 2 * target.n_data:
        raise InputError(
            f"{basis.dim} parameters exceed the {2 * target.n_data} real scalar data"
        )
    engine = _Engine(target, options.template, basis, options.grid_tol)
    rng = np.random.default_rng(options.seed)
    starts = [c0]
    for _ in range(max(0, options.starts - 1)):
        starts.append(c0 + rng.normal(0.0, options.spread, len(c0)))
    runs = [_lm_run(engine, s, options) for s in starts]
    norms = [run[1] for run in runs]
    # residuals within tol of the lowest are one minimum: prefer a run that converged there
    tied = [run for run in runs if run[1] <= min(norms) + options.tol]
    best = min(tied, key=lambda run: (not run[5], run[1]))
    c, norm, r, invalid, iters, converged, message = best
    pairs = r.reshape(-1, 2)
    per_datum = tuple(float(v) for v in np.hypot(pairs[:, 0], pairs[:, 1]))
    if not any(run[5] for run in runs):
        message = f"no start converged; best stop: {message}"
    return ReconstructionResult(
        coeffs=tuple(float(v) for v in c),
        q_est=basis.potential(c),
        residual_norm=norm,
        per_datum=per_datum,
        iterations=iters,
        convergence_flag=converged,
        start_norms=tuple(float(n) for n in norms),
        message=message,
        invalid_data=tuple(int(i) for i in np.nonzero(invalid)[0]),
    )


# ---------------------------------------------------------------------------
# Distinguishability experiments


def _chordal(a: complex | None, b: complex | None) -> float:
    """Distance on the Riemann sphere; None stands for infinity."""
    if a is None and b is None:
        return 0.0
    if a is None:
        return 1.0 / math.sqrt(1.0 + abs(b) ** 2)
    if b is None:
        return 1.0 / math.sqrt(1.0 + abs(a) ** 2)
    return abs(a - b) / math.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))


def distinguishability(
    spec_a: ProblemSpec,
    spec_b: ProblemSpec,
    data_kind: str,
    grid,
    xi=(),
    grid_spec: GridSpec | None = None,
    tol: float = 1e-9,
) -> float:
    """Normalized maximum deviation of the named data sets between two problems.

    `grid` is a lambda sample array for the Weyl kinds and a SearchBox for
    two_spectra.  For weyl_pair_with_D pass the omega zeros as `xi`; the d_n
    are compared by chordal distance on the Riemann sphere, so an infinite
    ratio against a finite one scores close to 1.
    """
    if data_kind in ("weyl_pair", "weyl_pair_with_D"):
        lam = np.asarray(grid, dtype=complex)
        ca = char_batch(spec_a, lam, grid_spec)
        cb = char_batch(spec_b, lam, grid_spec)
        ma, oka = ca.weyl_M_values()
        mb, okb = cb.weyl_M_values()
        if not np.all(oka & okb):
            bad = lam[~(oka & okb)][0]
            raise InputError(f"lambda grid point {bad:.6g} falls under the pole guard")
        score = float(np.max(np.abs(ma - mb) / (1.0 + np.abs(ma) + np.abs(mb))))
        score = max(
            score,
            float(np.max(np.abs(ca.omega - cb.omega) / (1.0 + np.abs(ca.omega) + np.abs(cb.omega)))),
        )
        if data_kind == "weyl_pair_with_D":
            if len(np.atleast_1d(np.asarray(xi))) == 0:
                raise InputError("weyl_pair_with_D needs the omega zeros xi")
            xi = np.asarray(xi, dtype=complex)
            da = d_sequence(spec_a, xi, grid_spec)
            db = d_sequence(spec_b, xi, grid_spec)
            for ra, rb in zip(da, db):
                va = None if ra.is_infinite else complex(ra.value)
                vb = None if rb.is_infinite else complex(rb.value)
                score = max(score, _chordal(va, vb))
        return score
    if data_kind == "two_spectra":
        if not isinstance(grid, SearchBox):
            raise InputError("two_spectra distinguishability takes a SearchBox grid")
        real = spec_a.is_real and spec_b.is_real
        score = 0.0
        for which in ("delta1", "delta11"):
            sa = problem_spectrum(spec_a, which, grid, grid_spec, tol, real_axis=real)
            sb = problem_spectrum(spec_b, which, grid, grid_spec, tol, real_axis=real)
            n = min(len(sa), len(sb))
            if n == 0:
                continue
            za = sa.eigenvalues[:n]
            zb = sb.eigenvalues[:n]
            cost = np.abs(za[:, None] - zb[None, :])
            rows, cols = linear_sum_assignment(cost)
            for i, j in zip(rows, cols):
                score = max(score, float(abs(za[i] - zb[j]) / (1.0 + abs(za[i]))))
        return score
    raise InputError(f"unknown data kind {data_kind!r}")
