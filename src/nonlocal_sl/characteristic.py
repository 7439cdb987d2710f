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
products, so it is the default; the determinant route is the cross-check.

Weyl-type ratios: M = delta_2 / delta_1 and N = delta_1 / delta_11.
Combination solutions (phi, theta, psi, Phi, v1, v2) are fixed by their
form values, e.g. U_1(phi) = 0, U_2(phi) = omega, V_1(phi) = delta_1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CollinearityError,
    ConsistencyError,
    DomainError,
    InputError,
    PoleProximityError,
)
from .measure import BVMeasure, LinearForm, density_node_weights
from .ode_core import (
    GridSpec,
    SolutionTrace,
    SpectralPoint,
    combine_traces,
    fundamental_X,
    fundamental_Z,
    integrate_family,
    modulus_scale,
    principal_rho,
    solver_grid,
)
from .potential import Potential

POLE_GUARD = 1e-10
ROUTE_TOL = 1e-6
_EDGE = 1e-12
_EPS = float(np.finfo(float).eps)
_NAMES = ("omega", "delta1", "delta2", "delta11")  # the characteristic functions


@dataclass(frozen=True)
class ProblemSpec:
    """A potential on (0, T) together with the two boundary forms."""

    q: Potential
    form1: LinearForm
    form2: LinearForm

    def __post_init__(self):
        T = self.q.T
        for label, form in (("form1", self.form1), ("form2", self.form2)):
            if form.kind == "nonlocal":
                if abs(form.measure.domain_length - T) > _EDGE * max(1.0, T):
                    raise DomainError(
                        f"{label}: measure domain {form.measure.domain_length} != T {T}"
                    )
            else:
                if not -_EDGE <= form.x0 <= T + _EDGE:
                    raise DomainError(f"{label}: evaluation point {form.x0} outside [0, {T}]")
        if self.form1.kind == "nonlocal" and self.form1.measure.jump_at_zero == 0:
            raise InputError(
                "the first form needs a nonzero jump at 0; use a point form to bypass"
            )

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
        q = Potential.from_dict(data["q"])
        return cls(
            q=q,
            form1=LinearForm.from_dict(data["U1"], q.T),
            form2=LinearForm.from_dict(data["U2"], q.T),
        )


# ---------------------------------------------------------------------------
# Form application over swept families


def _node_index(grid: np.ndarray, x: float, label: str = "point") -> int:
    tiny = _EDGE * max(1.0, float(grid[-1]))
    i = int(np.searchsorted(grid, x))
    for j in (i - 1, i, i + 1):
        if 0 <= j < len(grid) and abs(float(grid[j]) - x) <= tiny:
            return j
    raise InputError(f"{label}: no grid node at x={x}")


def node_weights(form: LinearForm, grid: np.ndarray) -> tuple:
    """The form as node weights (Wy, Wd) on y and y' over `grid`; None marks zero.

    The jump, the atoms and the density's trapezoid weights fold into Wy;
    an order-1 point form is the only one that weighs y'.
    """
    w = np.zeros(len(grid), dtype=complex)
    if form.kind == "point_value":
        w[_node_index(grid, form.x0, "point form")] = 1.0
        return (w, None) if form.order == 0 else (None, w)
    mu = form.measure
    if mu.jump_at_zero != 0:
        w[_node_index(grid, 0.0)] += mu.jump_at_zero
    for t, wt in mu.atoms:
        w[_node_index(grid, t, "atom")] += wt
    if mu.has_density:
        w += density_node_weights(mu, grid)
    return w, None


def _form_values(fam) -> np.ndarray:
    """True-scale form values of a weighted sweep, shape (F, m, k)."""
    return fam.forms * np.exp(fam.forms_s)[..., None]


def _form_sweep(spec: ProblemSpec, lam: np.ndarray, gs: GridSpec, side: str):
    """One sweep from `side` over the batch with both forms folded in as node weights."""
    rho_max = float(np.max(np.abs(principal_rho(lam)))) if len(lam) else 1.0
    grid = solver_grid(spec.q, rho_max, gs, extra_required=[spec.required_points()])
    weights = [node_weights(f, grid) for f in (spec.form1, spec.form2)]
    return integrate_family(spec.q, lam, side, grid, gs, weights=weights)


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


def _det_rounding(a1, b1, a2, b2) -> float:
    """eps * (|a1 b1| + |a2 b2|): the rounding bound of the determinant a1 b1 - a2 b2."""
    return _EPS * (abs(complex(a1) * complex(b1)) + abs(complex(a2) * complex(b2)))


# ---------------------------------------------------------------------------
# Batched characteristic values


@dataclass(eq=False)
class CharBatch:
    """All four characteristic functions on a lambda batch, single route."""

    lam: np.ndarray
    omega: np.ndarray
    delta1: np.ndarray
    delta2: np.ndarray
    delta11: np.ndarray
    route: str
    T: float
    alt: dict = field(default_factory=dict)

    def scale(self) -> np.ndarray:
        return np.asarray(modulus_scale(self.lam, self.T))

    def weyl_M_values(self):
        """(values, valid mask); entries failing the delta_1 pole guard are NaN."""
        ok = np.abs(self.delta1) >= POLE_GUARD * self.scale()
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(ok, self.delta2 / np.where(ok, self.delta1, 1.0), np.nan + 0j)
        return vals, ok

    def weyl_N_values(self):
        ok = np.abs(self.delta11) >= POLE_GUARD * self.scale()
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(ok, self.delta1 / np.where(ok, self.delta11, 1.0), np.nan + 0j)
        return vals, ok


def char_batch(
    spec: ProblemSpec,
    lam,
    grid_spec: GridSpec | None = None,
    route: str = "Z",
) -> CharBatch:
    """Evaluate omega, delta_1, delta_2, delta_11 at a batch of lambda values.

    route "Z" (default) uses one T-side sweep; "X" uses the defining
    determinants; "both" computes the two and raises a consistency error
    when they disagree beyond ROUTE_TOL relative to the natural scale.  The
    error names cancellation instead of the grid when the rounding bound
    eps * (|a1 b1| + |a2 b2|) of the determinants a1 b1 - a2 b2 involved
    already exceeds that tolerance.
    """
    if route not in ("Z", "X", "both"):
        raise InputError(f"unknown route {route!r}")
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    if not np.all(np.isfinite(lam)):
        raise InputError("lambda values must be finite")
    gs = grid_spec or GridSpec()
    results, dets = {}, {}  # dets[route][name]: the factors (a1, b1, a2, b2) of a1 b1 - a2 b2
    for r in ("Z", "X"):
        if route not in (r, "both"):
            continue
        fam = _form_sweep(spec, lam, gs, r)
        (u11, u12), (u21, u22) = (u.T for u in _form_values(fam))
        dets[r] = {"omega": (u11, u22, u12, u21)}
        if r == "Z":
            results["Z"] = {"delta1": -u12, "delta2": -u22, "delta11": u11}
        else:
            yT, dT, eT = fam.stateT[0], fam.stateT[1], np.exp(fam.stateT[2])[:, None]
            (v11, v12), (v21, v22) = (yT * eT).T, (dT * eT).T
            results["X"] = {}
            dets["X"].update(
                delta1=(u11, v12, u12, v11), delta2=(u21, v12, u22, v11), delta11=(u11, v22, u12, v21)
            )
        results[r].update({name: _safe_det(*t) for name, t in dets[r].items()})

    primary_route = "Z" if "Z" in results else "X"
    primary = results[primary_route]
    batch = CharBatch(
        lam=lam,
        omega=primary["omega"],
        delta1=primary["delta1"],
        delta2=primary["delta2"],
        delta11=primary["delta11"],
        route=primary_route,
        T=spec.T,
    )
    if route == "both":
        batch.alt = results["X"]
        sc = batch.scale()
        for name in _NAMES:
            a, b = primary[name], results["X"][name]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 0.1 * sc)
            defect = np.abs(a - b) / denom
            if np.any(defect > ROUTE_TOL):
                i = int(np.argmax(defect))
                bound = sum(_det_rounding(*(v[i] for v in d[name])) for d in dets.values() if name in d)
                if bound > ROUTE_TOL * denom[i]:
                    tau_T = float(principal_rho(lam[i]).imag) * spec.T
                    cause = f"cancellation in the determinant at Im rho * T = {tau_T:.1f}"
                else:
                    cause = "grid too coarse?"
                raise ConsistencyError(
                    f"{name} routes disagree by {defect[i]:.2e} at lambda={lam[i]:.6g} ({cause})"
                )
    return batch


def char_handle(spec: ProblemSpec, which: str, grid_spec: GridSpec | None = None, route: str = "Z"):
    """Vectorized callable lambda-array -> values of one characteristic function."""
    if which not in _NAMES:
        raise InputError(f"unknown characteristic function {which!r}")

    def handle(lam):
        return getattr(char_batch(spec, lam, grid_spec, route=route), which)

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
    single batched sweep, so a finite-difference Jacobian over basis
    coefficients costs about as much as one forward evaluation.  Step-size
    caps come from q_list[0]; keep the candidates structurally alike (same
    basis) so one grid suits them all.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    if not np.all(np.isfinite(lam)):
        raise InputError("lambda values must be finite")
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
    gs = grid_spec or GridSpec()
    rho_max = float(np.max(np.abs(principal_rho(lam)))) if len(lam) else 1.0
    extra = [spec.required_points()]
    extra.extend(qq.required_points() for qq in q_list[1:])
    grid = solver_grid(q_list[0], rho_max, gs, extra_required=extra)
    samples = [qq.step_samples(grid) for qq in q_list]
    qa, qm, qb = (np.stack([s[i] for s in samples], axis=1)[:, q_index] for i in range(3))

    weights = [node_weights(f, grid) for f in (spec.form1, spec.form2)]
    fam = integrate_family(q_list[0], lam, "Z", grid, gs, weights=weights, q_steps=(qa, qm, qb))
    (u11, u12), (u21, u22) = (u.T for u in _form_values(fam))
    return CharBatch(
        lam=lam,
        omega=_safe_det(u11, u22, u12, u21),
        delta1=-u12,
        delta2=-u22,
        delta11=u11,
        route="Z",
        T=T,
    )


# ---------------------------------------------------------------------------
# Combination solutions


_ALL_COMBOS = ("phi", "theta", "psi", "Phi", "v1", "v2")


@dataclass(frozen=True, eq=False)
class ComboSolutions:
    """The named combination solutions at one spectral point.

    Traces not requested (or blocked by a pole guard when not requested)
    are None.  boundary_values[name] maps each of U1, U2, V1, V2 to its
    value on that trace.
    """

    point: SpectralPoint
    phi: SolutionTrace | None
    theta: SolutionTrace | None
    psi: SolutionTrace | None
    Phi: SolutionTrace | None
    v1: SolutionTrace | None
    v2: SolutionTrace | None
    omega: complex
    delta1: complex
    delta2: complex
    delta11: complex
    M: complex | None
    N: complex | None
    boundary_values: dict


def _form_on_trace(form: LinearForm, trace: SolutionTrace) -> complex:
    f = np.exp(trace.log_scale)
    return form.apply_sampled(trace.grid, trace.y * f, trace.dy * f)


def combo_solutions(
    spec: ProblemSpec,
    p: SpectralPoint,
    grid_spec: GridSpec | None = None,
    need=_ALL_COMBOS,
) -> ComboSolutions:
    """Build the requested combination solutions on a shared grid.

    The defining linear combinations of X1, X2 lose accuracy once
    exp(2 Im rho T) meets machine precision; intended for desk-scale lambda.
    Large-|rho| point evaluation should go through phi_trace_stable and the
    Z-side formulas instead.
    """
    need = tuple(need)
    unknown = set(need) - set(_ALL_COMBOS)
    if unknown:
        raise InputError(f"unknown combination solutions {sorted(unknown)}")
    gs = grid_spec or GridSpec()
    extras = [spec.required_points()]
    X1, X2 = fundamental_X(spec.q, p, gs, extras)
    Z1, Z2 = fundamental_Z(spec.q, p, gs, extras)

    u11 = _form_on_trace(spec.form1, X1)
    u12 = _form_on_trace(spec.form1, X2)
    u21 = _form_on_trace(spec.form2, X1)
    u22 = _form_on_trace(spec.form2, X2)
    om = complex(_safe_det(u11, u22, u12, u21))
    x1T, dx1T, _ = X1.value_at(spec.T)
    x2T, dx2T, _ = X2.value_at(spec.T)
    sX = np.exp(X1.log_scale)
    d1 = complex(_safe_det(u11, x2T * sX, u12, x1T * sX))
    d2 = complex(_safe_det(u21, x2T * sX, u22, x1T * sX))
    d11 = complex(_safe_det(u11, dx2T * sX, u12, dx1T * sX))

    sc = modulus_scale(p.lam, spec.T)
    M = N = None
    if abs(d1) >= POLE_GUARD * sc:
        M = d2 / d1
    if abs(d11) >= POLE_GUARD * sc:
        N = d1 / d11

    traces = {}
    if "phi" in need:
        traces["phi"] = combine_traces([X2, X1], [u11, -u12])
    if "theta" in need:
        traces["theta"] = combine_traces([X1, X2], [u22, -u21])
    if "psi" in need:
        traces["psi"] = combine_traces([Z2], [-1.0])
    if "Phi" in need:
        if M is None:
            raise PoleProximityError(
                f"delta_1({p.lam:.6g}) = {d1:.3e} is under the pole guard; Phi undefined here"
            )
        traces["Phi"] = combine_traces([Z2], [-1.0 / d1])
    if "v1" in need:
        traces["v1"] = Z1
    if "v2" in need:
        if N is None:
            raise PoleProximityError(
                f"delta_11({p.lam:.6g}) = {d11:.3e} is under the pole guard; v2 undefined here"
            )
        traces["v2"] = combine_traces([Z2, Z1], [1.0, N])

    bv = {}
    for name, tr in traces.items():
        yT, dyT, _ = tr.value_at(spec.T)
        f = np.exp(tr.log_scale)
        bv[name] = {
            "U1": _form_on_trace(spec.form1, tr),
            "U2": _form_on_trace(spec.form2, tr),
            "V1": yT * f,
            "V2": dyT * f,
        }

    return ComboSolutions(
        point=p,
        phi=traces.get("phi"),
        theta=traces.get("theta"),
        psi=traces.get("psi"),
        Phi=traces.get("Phi"),
        v1=traces.get("v1"),
        v2=traces.get("v2"),
        omega=om,
        delta1=d1,
        delta2=d2,
        delta11=d11,
        M=M,
        N=N,
        boundary_values=bv,
    )


def phi_trace_stable(
    spec: ProblemSpec, p: SpectralPoint, grid_spec: GridSpec | None = None
) -> SolutionTrace:
    """phi computed by coefficient extraction on [0, a] plus a restart at a.

    a is the support end of the first form.  Beyond a the combination is a
    single initial-value solution, so the relative error stays near
    eps * exp(Im rho * a) instead of eps * exp(2 Im rho * T); with small
    form support this keeps phi usable far into the upper rho half-plane.
    """
    gs = grid_spec or GridSpec()
    a = spec.form1.support_end
    grid = solver_grid(spec.q, abs(p.rho), gs, extra_required=[spec.required_points(), [a]])
    ia = _node_index(grid, a, "form support end")

    head = grid[: ia + 1]
    famH = integrate_family(
        spec.q, [p.lam], "X", head, gs, weights=[node_weights(spec.form1, head)], store=True
    )
    u = famH.forms[0, 0]  # U1(X1), U1(X2) as mantissas

    # mantissa-space combination on the head, shared head scale
    cmax = float(np.abs(u).max()) or 1.0
    c1, c2 = u / cmax
    su = float(famH.forms_s[0, 0] + np.log(cmax))
    head_y = c1 * famH.y[:, 0, 1] - c2 * famH.y[:, 0, 0]
    head_dy = c1 * famH.dy[:, 0, 1] - c2 * famH.dy[:, 0, 0]
    head_s = famH.s[:, 0] + su

    if ia == len(grid) - 1:
        S = float(head_s.max())
        return SolutionTrace(
            grid=grid, y=head_y * np.exp(head_s - S), dy=head_dy * np.exp(head_s - S), log_scale=S
        )

    tail = grid[ia:]
    init_scale = float(head_s[-1])
    famT = integrate_family(
        spec.q,
        [p.lam],
        "X",
        tail,
        gs,
        store=True,
        init=(np.asarray([[head_y[-1]]]), np.asarray([[head_dy[-1]]])),
    )
    tail_y = famT.y[:, 0, 0]
    tail_dy = famT.dy[:, 0, 0]
    tail_s = famT.s[:, 0] + init_scale

    S = float(max(head_s.max(), tail_s.max()))
    y = np.concatenate([head_y[:-1] * np.exp(head_s[:-1] - S), tail_y * np.exp(tail_s - S)])
    dy = np.concatenate([head_dy[:-1] * np.exp(head_s[:-1] - S), tail_dy * np.exp(tail_s - S)])
    return SolutionTrace(grid=grid, y=y, dy=dy, log_scale=S)


# ---------------------------------------------------------------------------
# Split-support identity


@dataclass(frozen=True)
class SplitIdentityReport:
    """Residuals of the support-splitting relations for delta_1 and delta_11."""

    a: float
    lam: complex
    residual_delta1: complex
    residual_delta11: complex
    scale: float

    @property
    def max_normalized(self) -> float:
        return max(abs(self.residual_delta1), abs(self.residual_delta11)) / self.scale


def split_identity_check(
    spec: ProblemSpec, a: float, p: SpectralPoint, grid_spec: GridSpec | None = None
) -> SplitIdentityReport:
    """Check delta_1^(a/2) = delta_1^a + int_(a/2,a] Z_2 dsigma_1 and the
    delta_11 companion, where the superscript marks truncation of sigma_1."""
    T = spec.T
    if not 0 < a <= T + _EDGE * max(1.0, T):
        raise InputError(f"a must lie in (0, T], got {a}")
    if spec.form1.kind != "nonlocal":
        raise InputError("the split identity needs a measure-type first form")
    sigma = spec.form1.measure
    gs = grid_spec or GridSpec()
    extras = [spec.required_points(), [a / 2.0, a]]
    Z1, Z2 = fundamental_Z(spec.q, p, gs, extras)

    def apply(mu: BVMeasure, trace: SolutionTrace) -> complex:
        return _form_on_trace(LinearForm.from_measure(mu), trace)

    half, full = sigma.truncate(a / 2.0), sigma.truncate(a)
    mid = sigma.window(a / 2.0, a)
    r1 = (-apply(half, Z2)) - (-apply(full, Z2)) - apply(mid, Z2)
    r2 = apply(half, Z1) - apply(full, Z1) + apply(mid, Z1)
    return SplitIdentityReport(
        a=a,
        lam=complex(p.lam),
        residual_delta1=r1,
        residual_delta11=r2,
        scale=modulus_scale(p.lam, T),
    )


# ---------------------------------------------------------------------------
# Collinearity ratios at the fully nonlocal eigenvalues


@dataclass(frozen=True)
class RatioValue:
    """Collinearity ratio d with phi = d * theta; d may be infinite (theta = 0)."""

    value: complex
    is_infinite: bool
    defect: float

    def reciprocal(self) -> complex:
        if self.is_infinite:
            return 0j
        if self.value == 0:
            raise InputError("reciprocal of a zero ratio")
        return 1.0 / self.value


def d_sequence(spec: ProblemSpec, xi, grid_spec: GridSpec | None = None, defect_tol: float = 1e-6):
    """Ratios d_n with phi(., xi_n) = d_n * theta(., xi_n) at simple omega zeros.

    With u_jk = U_j(X_k), phi = u11 X2 - u12 X1 and theta = u22 X1 - u21 X2,
    so phi = d theta exactly when the form rows satisfy (u11, u12) =
    -d (u21, u22).  One weighted X-route sweep yields both rows for every
    xi_n at once; d_n is their least-squares ratio, and the relative
    residual of that fit is the collinearity defect.  A defect above
    defect_tol means xi_n is not a simple eigenvalue of the fully nonlocal
    problem, reported as an error rather than a ratio.

    The rows are plain form values with no subtraction, so the defect's
    rounding floor is near machine precision.  Once Im rho * T is large both
    rows follow the growing solution, and the defect can no longer flag a
    lambda that is not an eigenvalue.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    if not len(xi):
        return []
    fam = _form_sweep(spec, xi, grid_spec or GridSpec(), "X")
    out = []
    for n, lam_n in enumerate(xi):
        f, t = fam.forms[0, n], fam.forms[1, n]  # rows U1(X_k), U2(X_k) as mantissas
        sf, st = fam.forms_s[:, n]
        nf, nt = float(np.linalg.norm(f)), float(np.linalg.norm(t))
        log_f = (np.log(nf) if nf > 0 else -np.inf) + sf
        log_t = (np.log(nt) if nt > 0 else -np.inf) + st
        if nt == 0.0 or log_t < log_f + np.log(1e-12):
            out.append(RatioValue(value=complex(np.nan), is_infinite=True, defect=0.0))
            continue
        if nf == 0.0 or log_f < log_t + np.log(1e-12):
            out.append(RatioValue(value=0j, is_infinite=False, defect=0.0))
            continue
        r = complex(-np.vdot(t, f) / nt**2)
        defect = float(np.linalg.norm(f + r * t) / (nf + abs(r) * nt))
        if defect > defect_tol:
            raise CollinearityError(
                f"form rows at xi[{n}]={lam_n:.6g} are not collinear "
                f"(defect {defect:.2e}); not a simple eigenvalue?"
            )
        out.append(RatioValue(value=complex(r * np.exp(sf - st)), is_infinite=False, defect=defect))
    return out
