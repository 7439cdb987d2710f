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
Candidate eigenvalues are refined from the target values by the package's
one batched Newton (`spectrum_finder._batched_newton`), which sweeps only
the seeds still moving.  Their Jacobian needs no further Newton: a root z
of the datum's characteristic function f moves by
dz/dc_k = -(df/dc_k)/(df/dlambda) (the implicit function theorem, as in
Poeschel & Trubowitz, Inverse Spectral Theory, 1987), and one batched sweep
at the fixed roots gives every difference quotient: it runs on the
refinement's discretization, the perturbed candidates' samples added as
columns.  The Weyl kinds take finite-difference Jacobian columns, all in one
`char_batch_multi` sweep; targets carrying d_n data put the xi_n into that
same sweep and read each candidate's d_n from its form rows there.

Data here are self-generated by the same forward solver (the usual inverse
crime); noise robustness is out of scope.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .characteristic import ProblemSpec, _batch, _discretize, _ratios_at, _row_ratios, char_batch, char_batch_multi
from .characteristic import d_sequence  # noqa: F401  (bench/tracing.py wraps it here)
from .errors import InputError, NumericalError, _integer, _is_pair, _read, _real, _reals, _scalar
from .ode_core import GridSpec, modulus_scale
from .potential import Potential
from .spectrum_finder import _LAMBDA_STEP, ConditionReport, SearchBox, _batched_newton, condition_S, problem_spectrum

_KINDS = ("two_spectra", "weyl_pair", "weyl_pair_with_D", "three_spectra")
_BASES = ("cosine", "piecewise")
_PENALTY = 1e3
_ROOT_F_TOL = 1e-4  # |f| <= this * modulus scale accepts a refined root
_DATA_TOL = 1e-9  # the data builders' zeros meet |f| <= this * modulus scale
_DATA_GRID_TOL = 1e-10  # grid tolerance of `residual`: the one the builders polish their zeros on
_GRID_TOL = 1e-7  # grid tolerance of `reconstruct`'s optimizer
_SEPARATION_TOL = 1e-6  # least gap of the three-spectra disjointness certificate
_SPREAD = 0.5  # standard deviation of the random starts around the initial coefficients
_LM_STEP_TOL = 1e-10  # relative LM step counted as converged
_FD_STEP = 1e-6  # relative coefficient step of the Jacobian
_BOUNDS = (-20.0, 20.0)  # box the coefficients are clipped to


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
        _integer("dim", self.dim, 1)
        if isinstance(self.T, bool) or not self.T > 0:
            raise InputError("basis needs a positive interval length")

    @classmethod
    def cosine(cls, T: float, dim: int) -> "BasisSpec":
        """Coefficients of cos(k pi x / T), k = 0 .. dim-1."""
        return cls(kind="cosine", T=float(T), dim=dim)

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
    return {**dataclasses.asdict(c), "witness": w}


# the target's complex-valued fields, and a disjointness certificate's fields
_PAIR_FIELDS = (
    "lambda1", "lambda11", "lam_grid", "m_values", "omega_values", "xi", "d_values", "lambda0", "lambda2"
)
_CERTIFICATE = ("holds", "min_gap", "witness", "n_first", "n_second", "separation_tol")


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
        return {
            "kind": self.kind,
            **{key: [[v.real, v.imag] for v in getattr(self, key)] for key in _PAIR_FIELDS},
            "d_infinite": list(self.d_infinite),
            "split": self.split,
            "certificate": _certificate_to_dict(self.certificate),
            "weights": None if self.weights is None else list(self.weights),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InverseTarget":
        """The target `to_dict` wrote; absent lists are empty, absent split, certificate and
        weights None.  A ConfigError names every bad field's path, its first problem and value."""
        return _read(_read_target, d)


def _is_certificate(c) -> bool:
    w = c.get("witness") if isinstance(c, dict) else None
    return (
        isinstance(c, dict)
        and set(c) == set(_CERTIFICATE)
        and isinstance(c["holds"], bool)
        and all(_real(c[k]) for k in ("min_gap", "separation_tol"))
        and all(type(c[k]) is int for k in ("n_first", "n_second"))
        and (w is None or isinstance(w, list) and all(_is_pair(p) for p in w))
    )


def _certificate(c: dict) -> ConditionReport:
    w = c["witness"]
    return ConditionReport(**{**c, "witness": None if w is None else tuple(complex(a, b) for a, b in w)})


def _flags(v) -> bool:
    return isinstance(v, list) and all(isinstance(b, bool) for b in v)


# The target's fields besides kind and the pair lists: a test of the JSON
# value, what the test expects, and the value kept.
_FIELDS = {
    "d_infinite": (_flags, "a list of true/false flags", tuple),
    "split": (_real, "a number", float),
    "certificate": (_is_certificate, "a certificate object", _certificate),
    "weights": (_reals, "a list of numbers", tuple),
}


def _read_target(ctx, d, path: str):
    """The InverseTarget that d at `path` describes, or None after any problem."""
    if not isinstance(d, dict) or "kind" not in d:
        ctx.err(path, "target data needs a 'kind' field")
        return None
    ctx.strict(d, path, ("kind", *_PAIR_FIELDS, *_FIELDS))
    out = {"kind": d["kind"]}
    for key in _PAIR_FIELDS:
        v = d.get(key, [])
        i = next((i for i, u in enumerate(v) if not _is_pair(u)), None) if isinstance(v, list) else -1
        if i is None:
            out[key] = tuple(complex(a, b) for a, b in v)
        elif i < 0:
            ctx.err(f"{path}.{key}", f"expected a list of [re, im] pairs, got {v!r}")
        else:
            ctx.err(f"{path}.{key}[{i}]", f"expected a [re, im] pair, got {v[i]!r}")
    for key, (ok, expected, keep) in _FIELDS.items():
        v = d.get(key)
        certificate = key == "certificate" and isinstance(v, dict)
        missing = [k for k in _CERTIFICATE if k not in v] if certificate else ()
        if missing:
            ctx.err(f"{path}.{key}", f"missing field {missing[0]!r}")
        elif v is not None and not ok(v):
            ctx.err(f"{path}.{key}", f"expected {expected}, got {v!r}")
        elif v is not None:
            out[key] = keep(v)
    return None if ctx.errors else ctx.build(path, lambda: InverseTarget(**out))


# ---------------------------------------------------------------------------
# Data builders (forward generation, real potentials)


def _first_n_real(spec: ProblemSpec, which: str, n: int, *, length: float | None = None) -> tuple:
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
        found = problem_spectrum(spec, which, box, tol=_DATA_TOL, real_axis=True)
        if len(found) >= n:
            return tuple(complex(z) for z in found.eigenvalues[:n])
        hi = lo + (hi - lo) * 1.7
    raise NumericalError(f"found only {len(found)} zeros of {which}, needed {n}")


def make_two_spectra_target(spec: ProblemSpec, n_each: int) -> InverseTarget:
    """First n_each eigenvalues of the delta_1 and delta_11 problems."""
    l1 = _first_n_real(spec, "delta1", n_each)
    l11 = _first_n_real(spec, "delta11", n_each)
    return InverseTarget(kind="two_spectra", lambda1=l1, lambda11=l11)


def make_weyl_target(spec: ProblemSpec, lam_grid, with_d: bool = False, n_xi: int = 6) -> InverseTarget:
    """M and omega samples on a lambda grid, optionally with d_n data.

    With d_n data, M, omega and the d_n come from one sweep over the grid
    and the omega zeros xi_n together.
    """
    _integer("n_xi", n_xi, 1)
    lam = np.asarray(lam_grid, dtype=complex)
    xi = _first_n_real(spec, "omega", n_xi) if with_d else ()
    cb = char_batch(spec, np.concatenate([np.atleast_1d(lam), np.asarray(xi, dtype=complex)]))
    m_vals, ok = (v[: lam.size] for v in cb.weyl_M_values())
    if not np.all(ok):
        bad = lam[~ok][0]
        raise InputError(f"lambda grid point {bad:.6g} falls under the delta_1 pole guard")
    kwargs = {}
    kind = "weyl_pair"
    if with_d:
        ratios = _ratios_at(cb, lam.size)
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
        omega_values=_pairs(cb.omega[: lam.size]),
        **kwargs,
    )


def make_three_spectra_target(spec: ProblemSpec, n_each: int) -> InverseTarget:
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
    l0 = _first_n_real(spec, "omega", n_each, length=a)
    l1 = _first_n_real(spec, "delta1", n_each, length=spec.T)
    l2 = _first_n_real(spec, "delta2", n_each, length=spec.T - a)
    hi = max(z.real for z in (*l0, *l1, *l2)) + 2.0
    lo = min(0.0, min(z.real for z in (*l0, *l1, *l2)) - 1.0)
    box = SearchBox(re_min=lo, re_max=hi, im_min=-1.0, im_max=1.0)
    cert = condition_S(spec, box, _SEPARATION_TOL, real_axis=True)
    return InverseTarget(
        kind="three_spectra", lambda0=l0, lambda1=l1, lambda2=l2, split=a, certificate=cert
    )


# ---------------------------------------------------------------------------
# Residual engine


class _Engine:
    """Batched map from coefficient rows to weighted residual rows.

    Each data kind yields a complex mismatch (candidate - target) of shape
    (B, n_data) and an invalid-datum mask, both in target order.  An invalid
    datum reads pen * (1 + 1j) instead, with the per-datum penalty pen equal
    to _PENALTY * (1 + |t|) for eigenvalue and M data (t the target value),
    _PENALTY for d_n data and 0 for omega data, which is never flagged.  The
    residual row is w * mismatch as two real slots (re, im) per datum.  Rows
    of the coefficient matrix are independent candidates, which lets a
    finite-difference Jacobian ride one fused sweep.  For eigenvalue data
    `evaluate` also returns each datum's matched root, from which
    `root_jacobian` builds the Jacobian in one sweep at those fixed roots.
    """

    def __init__(
        self,
        target: InverseTarget,
        template: ProblemSpec,
        basis: BasisSpec,
        grid_tol: float = _GRID_TOL,
    ):
        self.target = t = target
        self.template = template
        self.basis = basis
        self.gs = GridSpec(tol=grid_tol)
        self.w2 = np.repeat(t.datum_weights(), 2)
        if t.kind == "two_spectra":
            blocks = [("delta1", t.lambda1), ("delta11", t.lambda11)]
        elif t.kind == "three_spectra":
            blocks = [("omega", t.lambda0), ("delta1", t.lambda1), ("delta2", t.lambda2)]
        else:
            blocks = []
        offs = np.cumsum([0] + [len(vals) for _, vals in blocks])
        self.blocks = [(which, slice(offs[k], offs[k + 1])) for k, (which, _) in enumerate(blocks)]
        if blocks:
            self.seeds = np.asarray([v for _, vals in blocks for v in vals], dtype=complex)
            self.pen = _PENALTY * (1.0 + np.abs(self.seeds))
        else:
            m_pen = _PENALTY * (1.0 + np.abs(np.asarray(t.m_values, dtype=complex)))
            pen = np.stack([m_pen, np.zeros_like(m_pen)], axis=1).ravel()
            self.pen = np.concatenate([pen, np.full(len(t.xi), _PENALTY)])
        self._held = (None, None)  # (coefficient rows, the discretization `_refined_roots` built for them)

    def residuals(self, C) -> tuple[np.ndarray, np.ndarray]:
        """(residual rows (B, 2*n_data), invalid-datum flags (B, n_data))."""
        R, invalid, _ = self.evaluate(C)
        return R, invalid

    def evaluate(self, C):
        """`residuals` plus the matched roots (B, n_data) of eigenvalue data, else None."""
        C = np.atleast_2d(np.asarray(C, dtype=float))
        mismatch = self._spectra_mismatch if self.blocks else self._weyl_mismatch
        diff, invalid, roots = mismatch(C)
        diff = np.where(invalid, self.pen * (1 + 1j), diff)
        return diff.view(float) * self.w2, invalid, roots

    def root_jacobian(self, c, roots, invalid, h) -> np.ndarray:
        """Jacobian (2*n_data, K) of the eigenvalue residuals at c, by the implicit function theorem.

        `roots` and `invalid` are c's matched roots and flags from `evaluate`.
        The root z of datum j's characteristic function f moves by
        dz/dc_k = -(df/dc_k)/(df/dlambda).  One sweep at fixed lambda gives
        both by forward differences: q(c) at z and at z + dlambda, and
        q(c + h_k e_k) at z.  It runs on the discretization that `evaluate`
        built for c, with the perturbed candidates' samples as more columns,
        so its values are `char_batch_multi`'s on that list.  An invalid
        datum reads a constant penalty, so its rows are 0.
        """
        K, n = len(c), len(roots)
        z = np.where(invalid, self.seeds, roots)  # keeps the sweep finite
        dlam = _LAMBDA_STEP * (1.0 + np.abs(z))
        disc = self._held[1] if np.array_equal(self._held[0], [c]) else self._discretization([c])
        disc = disc._widened([self.basis.potential(row) for row in c + np.diag(h)])
        lam = np.concatenate([z, z + dlam, np.tile(z, K)])
        cb = _batch(disc, self.template.T, lam, np.repeat([0, 0, *range(1, K + 1)], n))
        f = np.empty((K + 2, n), dtype=complex)
        for which, sl in self.blocks:
            f[:, sl] = getattr(cb, which).reshape(K + 2, n)[:, sl]
        with np.errstate(divide="ignore", invalid="ignore"):
            dz = -((f[2:] - f[0]) / h[:, None]) / ((f[1] - f[0]) / dlam)
        dz = np.where(np.isfinite(dz) & ~invalid, dz, 0.0)
        return dz.view(float).T * self.w2[:, None]

    # -- eigenvalue targets --------------------------------------------------

    def _discretization(self, C):
        """One discretization of the candidates with coefficient rows C, on the first one's grid."""
        return _discretize(self.template, self.gs, [self.basis.potential(c) for c in C])

    def _refined_roots(self, C):
        """Newton-refined roots seeded at the targets, per row of coefficients C.

        One discretization of the candidates serves every round, and is held
        for `root_jacobian`; a point of seed idx sweeps candidate idx // n and
        reads its datum's block function.  Returns (roots (B, n), valid
        (B, n)) in target order.
        """
        B, n = len(C), len(self.seeds)
        disc = self._discretization(C)
        self._held = (C, disc)

        def f(lam, idx):
            cb = _batch(disc, self.template.T, lam, idx // n)
            col = idx % n
            out = np.empty(len(lam), dtype=complex)
            for which, sl in self.blocks:
                at = (col >= sl.start) & (col < sl.stop)
                out[at] = getattr(cb, which)[at]
            return out

        seeds = np.tile(self.seeds, B)
        z, resid = _batched_newton(f, seeds, 1.0, 0.5 * (1.0 + np.abs(seeds)), 10, 1e-9, lambda z: 0.0)
        z, resid = z.reshape(B, n), resid.reshape(B, n)
        valid = np.isfinite(z) & (resid <= _ROOT_F_TOL * np.abs(modulus_scale(z, self.template.T)))
        return z, valid

    def _spectra_mismatch(self, C):
        """Refined roots matched to each block's targets by optimal assignment.

        Returns (mismatch, invalid, matched roots), all in target order.
        """
        from scipy.optimize import linear_sum_assignment  # here, so importing the package does not load scipy

        roots, valid = self._refined_roots(C)
        matched = np.empty_like(roots)
        invalid = np.empty(roots.shape, dtype=bool)
        for b in range(len(roots)):
            for _, sl in self.blocks:
                r, ok, t = roots[b, sl], valid[b, sl], self.seeds[sl]
                cost = np.abs(r[:, None] - t[None, :])
                cost = np.where(ok[:, None], cost, 1e9 * (1.0 + cost))
                rows, cols = linear_sum_assignment(cost)
                matched[b, sl][cols] = r[rows]
                invalid[b, sl][cols] = ~ok[rows]
        return matched - self.seeds, invalid, matched

    # -- Weyl targets ----------------------------------------------------------

    def _weyl_mismatch(self, C):
        """M and omega on the lambda grid, interleaved per point, then d_n.

        The xi_n ride the grid's sweep.  There d_n is the least-squares ratio
        of the candidate's form rows, with no collinearity gate: it moves
        smoothly with the coefficients and equals the target at the truth.
        """
        t = self.target
        B = len(C)
        ng = len(t.lam_grid)
        lam = np.concatenate([np.asarray(t.lam_grid, dtype=complex), np.asarray(t.xi, dtype=complex)])
        n = len(lam)
        q_list = [self.basis.potential(c) for c in C]
        cb = char_batch_multi(self.template, np.tile(lam, B), q_list, np.repeat(np.arange(B), n), self.gs)
        m_vals, ok = cb.weyl_M_values()
        dm = m_vals.reshape(B, n)[:, :ng] - np.asarray(t.m_values, dtype=complex)
        do = cb.omega.reshape(B, n)[:, :ng] - np.asarray(t.omega_values, dtype=complex)
        diff = np.stack([dm, do], axis=2).reshape(B, 2 * ng)
        invalid = np.zeros((B, 2 * ng), dtype=bool)
        invalid[:, 0::2] = ~ok.reshape(B, n)[:, :ng]  # omega data are never flagged
        d, d_inf, _ = (v.reshape(B, n)[:, ng:] for v in _row_ratios(cb))
        t_d, t_inf = np.asarray(t.d_values, dtype=complex), np.asarray(t.d_infinite, dtype=bool)
        d_diff, d_invalid = _d_mismatch(d, d_inf, t_d, t_inf)
        return np.hstack([diff, d_diff]), np.hstack([invalid, d_invalid]), None


def _d_mismatch(value, is_inf, t_value, t_inf):
    """(mismatch, incomparable) in the chart picked by each target: direct
    inside the unit disk, reciprocal outside (infinity maps to 0).  A
    candidate at the chart's singular point is incomparable."""
    recip = t_inf | (np.abs(t_value) > 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = np.where(is_inf, 0j, 1.0 / value) - np.where(t_inf, 0j, 1.0 / t_value)
        diff = np.where(recip, inverse, value - t_value)
    return diff, np.where(recip, ~is_inf & (value == 0), is_inf)


def residual(
    target: InverseTarget, coeffs, template: ProblemSpec, basis: BasisSpec | None = None
) -> np.ndarray:
    """Weighted residual vector of one candidate (two real slots per datum).

    It runs on the data builders' grid tolerance, 1e-10, so a candidate
    equal to the generating potential scores essentially zero.  The
    optimizer runs a coarser grid, 1e-7; its small forward bias is far
    below the coefficient tolerances of interest.
    """
    c = np.asarray(coeffs, dtype=float)
    basis = basis or BasisSpec.cosine(template.T, len(c))
    engine = _Engine(target, template, basis, _DATA_GRID_TOL)
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

    def __post_init__(self):
        _integer("starts", self.starts, 1)
        if isinstance(self.tol, bool) or not self.tol >= 0:  # NaN fails too
            raise InputError("tol must be a non-negative number", field="tol")
        _integer("max_iter", self.max_iter, 0)
        _integer("seed", self.seed, 0)


def _read_options(ctx, d, path: str, template: ProblemSpec | None, seed: int):
    """The ReconstructOptions on `template` that d at `path` sets, or None after any problem: `basis`
    and `dim` make its BasisSpec, and `starts`, `tol` and `max_iter` replace the defaults where given."""
    dim = _scalar(ctx, d.get("dim"), f"{path}.dim", integer=True)
    kw = {k: _scalar(ctx, d[k], f"{path}.{k}", integer=k != "tol") for k in ("starts", "tol", "max_iter") if k in d}
    if ctx.errors or template is None:
        return None
    basis = ctx.build(path, BasisSpec, d.get("basis"), template.T, dim, at=f"{path}.basis")
    return None if basis is None else ctx.build(path, lambda: ReconstructOptions(template, basis, seed=seed, **kw))


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
    lo, hi = _BOUNDS
    c = np.clip(np.asarray(c0, dtype=float), lo, hi)
    R, inv, roots = engine.evaluate(c[None, :])
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
        h = _FD_STEP * (1.0 + np.abs(c))
        if roots is not None:
            J = engine.root_jacobian(c, roots[0], invalid, h)
        else:
            R, inv = engine.residuals(np.vstack([c[None, :], c[None, :] + np.diag(h)]))
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
                R_try, inv_try, roots_try = engine.evaluate(c_try[None, :])
                norm_try = float(np.linalg.norm(R_try[0]))
                if norm_try < norm:
                    c, r, invalid, roots, norm = c_try, R_try[0], inv_try[0], roots_try, norm_try
                    damp = max(damp * 0.5, 1e-8)
                    accepted = True
                    break
            damp = damp * 2.0
        if not accepted:
            message = "damping limit reached without descent"
            break
        if np.linalg.norm(delta) < _LM_STEP_TOL * (1.0 + np.linalg.norm(c)):
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
    engine = _Engine(target, options.template, basis, _GRID_TOL)
    rng = np.random.default_rng(options.seed)
    starts = [c0]
    for _ in range(max(0, options.starts - 1)):
        starts.append(c0 + rng.normal(0.0, _SPREAD, len(c0)))
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
) -> float:
    """Normalized maximum deviation of the named data sets between two problems.

    `grid` is a lambda sample array for the Weyl kinds and a SearchBox for
    two_spectra.  For weyl_pair_with_D pass the omega zeros as `xi`; the d_n
    are compared by chordal distance on the Riemann sphere, so an infinite
    ratio against a finite one scores close to 1.
    """
    if data_kind in ("weyl_pair", "weyl_pair_with_D"):
        lam = np.atleast_1d(np.asarray(grid, dtype=complex))
        xi = np.atleast_1d(np.asarray(xi if data_kind == "weyl_pair_with_D" else (), dtype=complex))
        if data_kind == "weyl_pair_with_D" and len(xi) == 0:
            raise InputError("weyl_pair_with_D needs the omega zeros xi")
        n = lam.size
        # M, omega and the d_n of each problem from one sweep over the grid and the zeros
        ca, cb = (char_batch(s, np.concatenate([lam, xi])) for s in (spec_a, spec_b))
        ma, oka = (v[:n] for v in ca.weyl_M_values())
        mb, okb = (v[:n] for v in cb.weyl_M_values())
        if not np.all(oka & okb):
            bad = lam[~(oka & okb)][0]
            raise InputError(f"lambda grid point {bad:.6g} falls under the pole guard")
        oa, ob = ca.omega[:n], cb.omega[:n]
        score = float(np.max(np.abs(ma - mb) / (1.0 + np.abs(ma) + np.abs(mb))))
        score = max(score, float(np.max(np.abs(oa - ob) / (1.0 + np.abs(oa) + np.abs(ob)))))
        for ra, rb in zip(_ratios_at(ca, n), _ratios_at(cb, n)):
            va = None if ra.is_infinite else complex(ra.value)
            vb = None if rb.is_infinite else complex(rb.value)
            score = max(score, _chordal(va, vb))
        return score
    if data_kind == "two_spectra":
        from scipy.optimize import linear_sum_assignment

        if not isinstance(grid, SearchBox):
            raise InputError("two_spectra distinguishability takes a SearchBox grid")
        real = spec_a.is_real and spec_b.is_real
        score = 0.0
        for which in ("delta1", "delta11"):
            sa = problem_spectrum(spec_a, which, grid, tol=_DATA_TOL, real_axis=real)
            sb = problem_spectrum(spec_b, which, grid, tol=_DATA_TOL, real_axis=real)
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
