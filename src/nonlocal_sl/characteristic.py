"""Characteristic functions, Weyl-type ratios, and combination solutions.

A problem couples -y'' + q y = lambda y on (0, T) with two linear forms
U1, U2 (Stieltjes integrals or point evaluations).  With V1(y) = y(T) and
V2(y) = y'(T), four entire functions of lambda are assembled from the
fundamental system X1, X2 started at 0:

    omega    = det [U_j(X_k)]             zeros: fully nonlocal problem
    delta_1  = det [U_1(X_k); V_1(X_k)]   zeros: U_1 together with y(T)=0
    delta_2  = det [U_2(X_k); V_1(X_k)]
    delta_11 = det [U_1(X_k); V_2(X_k)]   zeros: U_1 together with y'(T)=0

Because the T-side fundamental system Z1, Z2 has unit Wronskian, each of
these is also a plain form value of Z-solutions: delta_1 = -U_1(Z_2),
delta_2 = -U_2(Z_2), delta_11 = U_1(Z_1), and omega = det [U_j(Z_k)].  The
Z route needs one sweep and, for the deltas, no subtraction of near-equal
products, so `char_batch` takes it; the determinant route, which
`combo_solutions` reads, is the cross-check.
The sweep also yields delta_21 = U_2(Z_1) = det [U_2(X_k); V_2(X_k)], which
completes the form rows (U_j(Z_1), U_j(Z_2)).

Weyl-type ratios: M = delta_2 / delta_1 and N = delta_1 / delta_11.  The
collinearity ratios d_n at the zeros of omega are read from the same rows:
Z_k = sum_l X_l G_lk for one invertible G, so the Z rows are the X rows
times G and are collinear exactly when the X rows are, with the same ratio.
Combination solutions (phi, theta, psi, Phi, v1, v2) are fixed by their
form values, e.g. U_1(phi) = 0, U_2(phi) = omega, V_1(phi) = delta_1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CollinearityError, ConfigError, DomainError, InputError, PoleProximityError, _read
from .measure import BVMeasure, LinearForm, _read_form, density_node_weights
from .ode_core import (
    Discretization,
    GridSpec,
    SolutionTrace,
    SpectralPoint,
    _node_index,
    _traces,
    combine_traces,
    integrate_family,
    modulus_scale,
    solver_grid,  # noqa: F401  (the grid builder; bench/tracing.py wraps it here too)
)
from .potential import Potential, _read_potential

POLE_GUARD = 1e-10
_DEFECT_TOL = 1e-6  # collinearity defect above which a d_n is refused
_EDGE = 1e-12
_NAMES = ("omega", "delta1", "delta2", "delta11")  # the characteristic functions


@dataclass(frozen=True)
class ProblemSpec:
    """A potential on (0, T) together with the two boundary forms.

    The problem holds one discretization per GridSpec (see `_discretize`)
    for as long as it lives; equality, hashing and `dataclasses.replace` see
    only q and the forms.
    """

    q: Potential
    form1: LinearForm
    form2: LinearForm
    _discretizations: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # misplaced points and a missing first jump are named by their `to_dict`
        # paths, which `from_dict` reports them at
        T, problems = self.q.T, []
        for key, form in (("U1", self.form1), ("U2", self.form2)):
            if form.kind == "nonlocal":
                if abs(form.measure.domain_length - T) > _EDGE * max(1.0, T):
                    raise DomainError(
                        f"{key}: measure domain {form.measure.domain_length} != T {T}"
                    )
            elif not -_EDGE <= form.x0 <= T + _EDGE:
                problems.append((f".{key}.x", f"must lie in [0, {T:g}]"))
        if self.form1.kind == "nonlocal" and self.form1.measure.jump_at_zero == 0:
            problems.append((".U1.measure.jump", "the first form needs a nonzero point mass at 0"))
        if problems:
            raise ConfigError(problems)

    @classmethod
    def with_measures(cls, q: Potential, sigma1: BVMeasure, sigma2: BVMeasure) -> "ProblemSpec":
        return cls(q=q, form1=LinearForm.from_measure(sigma1), form2=LinearForm.from_measure(sigma2))

    @property
    def T(self) -> float:
        return self.q.T

    @property
    def is_real(self) -> bool:
        return self.q.is_real and self.form1.is_real and self.form2.is_real

    @property
    def jump_coefficient(self) -> complex:
        return self.form1.jump_coefficient

    def required_points(self) -> np.ndarray:
        pts = np.concatenate(
            [self.form1.required_points(self.T), self.form2.required_points(self.T)]
        )
        return np.unique(pts)

    def to_dict(self) -> dict:
        return {"q": self.q.to_dict(), "U1": self.form1.to_dict(), "U2": self.form2.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemSpec":
        """The problem `to_dict` wrote, q carrying T; a ConfigError names every bad path,
        as the CLI does for a config's problem fields."""
        return _read(_read_problem, data)


def _read_problem(ctx, d, path: str, T=None):
    """The ProblemSpec that d at `path` describes, or None after any problem; T as in `_read_potential`."""
    if not ctx.obj(d, path, ("q", "U1", "U2")):
        return None
    q = _read_potential(ctx, d.get("q"), f"{path}.q", T)
    T = None if q is None else q.T
    forms = [_read_form(ctx, d.get(key), f"{path}.{key}", T) for key in ("U1", "U2")]
    return None if ctx.errors else ctx.build(path, ProblemSpec, q, *forms)


# ---------------------------------------------------------------------------
# Form application over swept families


def node_weights(form: LinearForm, grid: np.ndarray) -> tuple:
    """The form over `grid` as (Wy, Wd, D) for `integrate_family`; None marks zero.

    The jump and the atoms are node weights Wy on y, an order-1 point form
    is Wd on y'.  A density is D, its values at each cell's ends, which the
    sweep integrates at each lambda's own c_bar.
    """

    def node(x: float, label: str) -> int:
        i = _node_index(grid, x)
        if i is None:
            raise InputError(f"{label}: no grid node at x={x}")
        return i

    w = np.zeros(len(grid), dtype=complex)
    if form.kind == "point_value":
        w[node(form.x0, "point form")] = 1.0
        return (w, None, None) if form.order == 0 else (None, w, None)
    mu = form.measure
    if mu.jump_at_zero != 0:
        w[node(0.0, "point")] += mu.jump_at_zero
    for t, wt in mu.atoms:
        w[node(t, "atom")] += wt
    return w, None, (density_node_weights(mu, grid) if mu.has_density else None)


def _form_values(fam) -> np.ndarray:
    """True-scale form values of a weighted sweep, shape (F, m, k)."""
    return fam.forms * np.exp(fam.forms_s)[..., None]


def _unit(z: np.ndarray) -> np.ndarray:
    az = np.abs(z)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = z / az
    return np.where(az > 0, u, 0j)


def _safe_det(a1, b1, a2, b2) -> np.ndarray:
    """a1*b1 - a2*b2 elementwise, immune to overflow of the products."""
    a1, b1, a2, b2 = (np.asarray(v, dtype=complex) for v in (a1, b1, a2, b2))
    with np.errstate(divide="ignore", invalid="ignore"):
        l1 = np.log(np.abs(a1)) + np.log(np.abs(b1))
        l2 = np.log(np.abs(a2)) + np.log(np.abs(b2))
        S = np.maximum(l1, l2)
        S = np.where(np.isfinite(S), S, 0.0)
        t = _unit(a1) * _unit(b1) * np.exp(l1 - S) - _unit(a2) * _unit(b2) * np.exp(l2 - S)
        out = np.where(t == 0, 0j, np.exp(S + np.log(np.where(t == 0, 1, t))))
    return out


# ---------------------------------------------------------------------------
# Batched characteristic values


@dataclass(eq=False)
class CharBatch:
    """All four characteristic functions and delta21 on a lambda batch, single route.

    delta21 = U_2(Z_1) completes the form rows (delta11, -delta1) =
    (U_1(Z_1), U_1(Z_2)) and (delta21, -delta2) = (U_2(Z_1), U_2(Z_2)), from
    which `d_sequence` reads the collinearity ratios.
    """

    lam: np.ndarray
    delta1: np.ndarray
    delta2: np.ndarray
    delta11: np.ndarray
    delta21: np.ndarray
    T: float

    @cached_property
    def omega(self) -> np.ndarray:
        """det [U_j(Z_k)], the determinant of the form rows, computed when first read.

        A route-X batch holds det [U_j(X_k)] of its own sweep instead.
        """
        return _safe_det(self.delta11, -self.delta2, -self.delta1, self.delta21)

    def scale(self) -> np.ndarray:
        return np.asarray(modulus_scale(self.lam, self.T))

    def _guarded(self, num, den):
        """(num / den, valid mask); entries whose den fails the pole guard are NaN."""
        ok = np.abs(den) >= POLE_GUARD * self.scale()
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(ok, num / np.where(ok, den, 1.0), np.nan + 0j), ok

    def weyl_M_values(self):
        """(values, valid mask); entries failing the delta_1 pole guard are NaN."""
        return self._guarded(self.delta2, self.delta1)

    def weyl_N_values(self):
        return self._guarded(self.delta1, self.delta11)


def _lam_batch(lam) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    if not np.all(np.isfinite(lam)):
        raise InputError("lambda values must be finite")
    return lam


def _char_batch(fam, route: str, T: float) -> CharBatch:
    """The CharBatch of a weighted sweep from `route`'s side."""
    (u11, u12), (u21, u22) = (u.T for u in _form_values(fam))
    if route == "Z":
        return CharBatch(fam.lam, delta1=-u12, delta2=-u22, delta11=u11, delta21=u21, T=T)
    yT, dT, eT = fam.end[0], fam.end[1], np.exp(fam.end[2])[:, None]
    (v11, v12), (v21, v22) = (yT * eT).T, (dT * eT).T
    dets = {  # name: the factors (a1, b1, a2, b2) of a1 b1 - a2 b2
        "delta1": (u11, v12, u12, v11), "delta2": (u21, v12, u22, v11),
        "delta11": (u11, v22, u12, v21), "delta21": (u21, v22, u22, v21),
    }
    cb = CharBatch(fam.lam, T=T, **{name: _safe_det(*f) for name, f in dets.items()})
    cb.omega = _safe_det(u11, u22, u12, u21)
    return cb


def _discretize(spec: ProblemSpec, grid_spec: GridSpec | None, q_list=None) -> Discretization:
    """The problem's grid, q's samples (one column per candidate of `q_list`) and both forms' weights.

    Without `q_list` it is the discretization the problem holds for
    `grid_spec`, built on first use; a candidate list gets a fresh one.
    """
    key = grid_spec or GridSpec()
    held = spec._discretizations if q_list is None else {}
    if key not in held:
        qs, forms = [spec.q] if q_list is None else q_list, (spec.form1, spec.form2)
        held[key] = Discretization.build(
            qs, key, [spec.required_points()], lambda grid: [node_weights(f, grid) for f in forms]
        )
    return held[key]


def _batch(disc: Discretization, T: float, lam, q_index=None) -> CharBatch:
    """The CharBatch of one Z-side sweep over `disc`."""
    return _char_batch(integrate_family(disc, _lam_batch(lam), "Z", q_index=q_index), "Z", T)


def char_batch(spec: ProblemSpec, lam) -> CharBatch:
    """Evaluate omega, delta_1, delta_2, delta_11 and delta_21 at a batch of lambda values.

    One T-side sweep on the grid the problem holds for the default GridSpec
    gives them all as form values.  The grid depends on the problem only,
    so a value is a function of its lambda alone, whatever else the batch
    holds.  The determinant route (`combo_solutions`' values) is the same
    discrete system run from 0 (the Magnus cell run backwards is its
    inverse, and the density rule is symmetric in a cell's ends), so the two
    differ by rounding only: cancellation in the X route's determinants and
    growth through its propagation, both like exp(Im rho * T).
    """
    return _batch(_discretize(spec, None), spec.T, lam)


def char_handle(spec: ProblemSpec, which: str, grid_spec: GridSpec | None = None):
    """Vectorized callable lambda-array -> Z-route values of one characteristic function.

    The handle sweeps the discretization the problem holds for `grid_spec`,
    so its calls, and every other evaluation of the problem on that grid,
    share the grid, the samples, the forms' node weights and the sweep layout.
    """
    if which not in _NAMES:
        raise InputError(f"unknown characteristic function {which!r}")
    disc = _discretize(spec, grid_spec)

    def handle(lam):
        return getattr(_batch(disc, spec.T, lam), which)

    return handle


def char_batch_multi(
    spec: ProblemSpec,
    lam,
    q_list,
    q_index,
    grid_spec: GridSpec | None = None,
) -> CharBatch:
    """Z-route characteristic values with a per-column potential.

    `q_list` holds candidate potentials on the same interval and `q_index`
    assigns one of them to each lambda column.  The whole family runs in a
    single batched sweep, so a Jacobian over basis coefficients costs about
    as much as one forward evaluation: the inversion's finite-difference
    columns of Weyl data, or, for eigenvalue data, f at fixed roots under
    each perturbed potential, which gives df/dc_k for the implicit-function
    derivative -(df/dc_k)/(df/dlambda) of every root.  The sweep runs on
    q_list[0]'s grid for grid_spec (holding every candidate's required
    points), so the first candidate's values do not depend on the others:
    with the default grid_spec they are `char_batch`'s values of the problem
    with that potential, bit for bit.  Keep the candidates structurally
    alike (same basis, nearby coefficients) so that grid suits them all.
    """
    lam = _lam_batch(lam)
    q_list = list(q_list)
    if not q_list:
        raise InputError("q_list must be non-empty")
    q_index = np.broadcast_to(np.asarray(q_index, dtype=int), lam.shape)
    if len(lam) and (q_index.min() < 0 or q_index.max() >= len(q_list)):
        raise InputError("q_index entries must point into q_list")
    T = spec.T
    for qq in q_list:
        if abs(qq.T - T) > 1e-12 * max(1.0, T):
            raise InputError("every candidate potential must live on (0, T)")
    return _batch(_discretize(spec, grid_spec, q_list), T, lam, q_index)


# ---------------------------------------------------------------------------
# Combination solutions


@dataclass(frozen=True, eq=False)
class ComboSolutions:
    """The six combination solutions at one spectral point.

    boundary_values[name] maps each of U1, U2, V1, V2 to its value on that
    trace.
    """

    point: SpectralPoint
    phi: SolutionTrace
    theta: SolutionTrace
    psi: SolutionTrace
    Phi: SolutionTrace
    v1: SolutionTrace
    v2: SolutionTrace
    omega: complex
    delta1: complex
    delta2: complex
    delta11: complex
    M: complex
    N: complex
    boundary_values: dict


def _form_on_trace(form: LinearForm, trace: SolutionTrace) -> complex:
    f = np.exp(trace.log_scale)
    return form.apply_sampled(trace.grid, trace.y * f, trace.dy * f, trace.cbar)


def combo_solutions(spec: ProblemSpec, p: SpectralPoint) -> ComboSolutions:
    """Build phi, theta, psi, Phi, v1 and v2 on a shared grid.

    omega, the deltas, M and N are read by the determinant route from the
    stored sweep that also gives the traces X1, X2; psi, Phi, v1 and v2
    combine the Z traces of a second sweep.  The defining linear
    combinations of X1, X2 lose accuracy once exp(2 Im rho T) meets machine
    precision; intended for desk-scale lambda.  At large |rho|, `asymptotics`
    reads phi, Phi, v1 and v2 at a point as form values of sweeps anchored
    there, with no combination.
    """
    disc = _discretize(spec, None)
    fam, (X1, X2) = _traces(disc, p.lam, "X")
    _, (Z1, Z2) = _traces(disc, p.lam, "Z")
    (u11, u12), (u21, u22) = _form_values(fam)[:, 0]
    cb = _char_batch(fam, "X", spec.T)
    values = {name: complex(getattr(cb, name)[0]) for name in _NAMES}
    (M,), (m_ok,) = cb.weyl_M_values()
    (N,), (n_ok,) = cb.weyl_N_values()
    for ok, name, den, sol in ((m_ok, "delta_1", "delta1", "Phi"), (n_ok, "delta_11", "delta11", "v2")):
        if not ok:
            raise PoleProximityError(
                f"{name}({p.lam:.6g}) = {values[den]:.3e} is under the pole guard; {sol} undefined here"
            )

    traces = {
        "phi": combine_traces([X2, X1], [u11, -u12]),
        "theta": combine_traces([X1, X2], [u22, -u21]),
        "psi": combine_traces([Z2], [-1.0]),
        "Phi": combine_traces([Z2], [-1.0 / values["delta1"]]),
        "v1": Z1,
        "v2": combine_traces([Z2, Z1], [1.0, N]),
    }
    bv = {}
    for name, tr in traces.items():
        yT, dyT = tr.value_at(spec.T)
        f = np.exp(tr.log_scale)
        U1, U2 = (_form_on_trace(form, tr) for form in (spec.form1, spec.form2))
        bv[name] = {"U1": U1, "U2": U2, "V1": yT * f, "V2": dyT * f}

    return ComboSolutions(point=p, **traces, **values, M=complex(M), N=complex(N), boundary_values=bv)


# ---------------------------------------------------------------------------
# Collinearity ratios at the fully nonlocal eigenvalues


@dataclass(frozen=True)
class RatioValue:
    """Collinearity ratio d with phi = d * theta; d may be infinite (theta = 0)."""

    value: complex
    is_infinite: bool
    defect: float


def _row_ratios(cb: CharBatch):
    """(d, infinite, defect) per lambda of `cb`: the least-squares ratio d with
    (U_1(Z_1), U_1(Z_2)) = -d (U_2(Z_1), U_2(Z_2)) and its relative residual.

    Each row is divided by its largest entry first, so no square overflows.
    A second row below 1e-12 of the first reads as an infinite ratio (value
    NaN), a first row below 1e-12 of the second as d = 0, both with defect 0.
    """
    f = np.stack([cb.delta11, -cb.delta1])
    t = np.stack([cb.delta21, -cb.delta2])
    mf, mt = (np.where(v.any(axis=0), np.abs(v).max(axis=0), 1.0) for v in (f, t))
    f, t = f / mf, t / mt
    nf, nt = np.linalg.norm(f, axis=0), np.linalg.norm(t, axis=0)
    infinite = mt * nt <= 1e-12 * mf * nf
    ok = ~(infinite | (mf * nf <= 1e-12 * mt * nt))
    nf, nt = np.where(ok, nf, 1.0), np.where(ok, nt, 1.0)
    r = np.where(ok, -np.sum(np.conj(t) * f, axis=0) / nt**2, 0j)
    defect = np.where(ok, np.linalg.norm(f + r * t, axis=0) / (nf + np.abs(r) * nt), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # mf / mt overflows only where d is infinite
        return np.where(infinite, np.nan, r * (mf / mt)), infinite, defect


def d_sequence(spec: ProblemSpec, xi):
    """Ratios d_n with phi(., xi_n) = d_n * theta(., xi_n) at simple omega zeros.

    With u_jk = U_j(X_k), phi = u11 X2 - u12 X1 and theta = u22 X1 - u21 X2,
    so phi = d theta exactly when the X rows satisfy (u11, u12) =
    -d (u21, u22).  The Z rows (U_j(Z_1), U_j(Z_2)) are the X rows times one
    invertible matrix, so they obey the same relation.  One Z-route
    `char_batch` over every xi_n yields them as form values; d_n is their
    least-squares ratio, and the relative residual of that fit is the
    collinearity defect.  A defect above 1e-6 means xi_n is not a
    simple eigenvalue of the fully nonlocal problem, reported as an error
    rather than a ratio.

    The rows are plain form values with no subtraction, so the defect's
    rounding floor is near machine precision.  Once Im rho * T is large both
    rows follow the growing solution, and the defect can no longer flag a
    lambda that is not an eigenvalue.
    """
    return _ratios_at(char_batch(spec, np.atleast_1d(np.asarray(xi, dtype=complex))))


def _ratios_at(cb: CharBatch, first: int = 0) -> list[RatioValue]:
    """`d_sequence`'s ratios at the xi_n = cb.lam[first:], from the batch's form rows.

    A batch that also holds other lambdas (before `first`) reads them from
    the same sweep; each value depends on its own lambda alone.  Raises
    CollinearityError at the first xi_n whose defect passes 1e-6.
    """
    xi = cb.lam[first:]
    d, infinite, defect = (v[first:] for v in _row_ratios(cb))
    bad = np.flatnonzero(defect > _DEFECT_TOL)
    if len(bad):
        n = bad[0]
        raise CollinearityError(
            f"form rows at xi[{n}]={xi[n]:.6g} are not collinear "
            f"(defect {defect[n]:.2e}); not a simple eigenvalue?"
        )
    return [RatioValue(complex(v), bool(i), float(e)) for v, i, e in zip(d, infinite, defect)]
