"""Large-|rho| leading terms and ray-wise comparison reports.

The solution families and characteristic determinants all behave like pure
exponentials in rho once |rho| is large.  This module evaluates those leading
terms (`predict`) and compares them against the solver along rays in the
upper rho half-plane (`asym_report`).  Two ray domains are supported:

* ``Pi_delta``: arg rho fixed inside [delta, pi - delta].  Here the leading
  terms are asymptotically exact and the report carries relative errors.
* ``G_delta``: rho kept at distance >= delta from every spectral point
  rho_n = sqrt(lambda_n) of the first boundary value problem.  Here only
  O-bounds hold and the report carries envelope ratios.

Magnitudes grow like exp(|Im rho| T), so every comparison is done in
log-magnitude plus phase.

Every pointwise value is a plain form value of sweeps anchored at a grid
node, so no value is interpolated or formed by cancellation.  Let W1, W2 be
the fundamental system at x: W1(x) = W2'(x) = 1, W1'(x) = W2(x) = 0.  Its
Wronskian is 1, so phi = U_1(W_1) W_2 - U_1(W_2) W_1 for any such pair and
phi(x) = -U_1(W_2), phi'(x) = U_1(W_1); at x = T these are delta_1 and
delta_11.  Hence varphi^(k)(x) is U_1 on the system anchored at x,
v2 = phi / delta_11, and with V(y) = y^(k)(x) on the system anchored at T,
v1 = V(Z_1) and Phi = -V(Z_2) / delta_1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .characteristic import ProblemSpec, char_batch, node_weights
from .errors import InputError, RangeError, _order, _pair_list, _reals, _scalar
from .measure import LinearForm
from .ode_core import Discretization, SpectralPoint, _node_index, integrate_family, principal_rho

_QUANTITIES = ("Delta1", "Delta11", "Phi", "v1", "varphi", "v2")
_DEFAULT_RADII = (5.0, 10.0, 20.0, 40.0, 80.0)
_EXP_CAP = 700.0


@dataclass(frozen=True)
class ScaledComplex:
    """A complex value kept as mantissa * exp(log_scale)."""

    mantissa: complex
    log_scale: float = 0.0

    @classmethod
    def from_value(cls, v: complex) -> "ScaledComplex":
        v = complex(v)
        a = abs(v)
        if a == 0.0:
            return cls(0.0 + 0j, 0.0)
        return cls(v / a, math.log(a))

    @property
    def log_abs(self) -> float:
        a = abs(self.mantissa)
        return -math.inf if a == 0.0 else math.log(a) + self.log_scale

    @property
    def phase(self) -> float:
        return cmath.phase(self.mantissa)

    @property
    def value(self) -> complex:
        if self.log_scale > _EXP_CAP:
            raise RangeError(f"exp({self.log_scale:.1f}) is not representable")
        return self.mantissa * math.exp(self.log_scale)

    def over(self, other: "ScaledComplex") -> complex:
        """self / other as a plain complex; huge mismatches saturate to inf."""
        if abs(other.mantissa) == 0.0:
            return complex(math.inf, 0.0)
        if abs(self.mantissa) == 0.0:
            return 0.0 + 0j
        d = self.log_abs - other.log_abs
        if d > _EXP_CAP:
            return complex(math.inf, 0.0)
        if d < -_EXP_CAP:
            return 0.0 + 0j
        return cmath.exp(complex(d, self.phase - other.phase))

    def rel_error_vs(self, other: "ScaledComplex") -> float:
        r = self.over(other)
        return math.inf if not np.isfinite(r) else abs(r - 1.0)


def _as_rho_reference(reference) -> tuple[complex, ...]:
    eigs = getattr(reference, "eigenvalues", None)
    if eigs is not None:
        lams = np.asarray(eigs, dtype=complex)
    else:
        lams = np.asarray(list(reference), dtype=complex)
    return tuple(complex(r) for r in np.atleast_1d(principal_rho(lams)))


@dataclass(frozen=True)
class RaySpec:
    """A fixed-angle ray of rho samples inside Pi_delta or G_delta."""

    kind: str
    angle: float
    delta: float = 0.1
    radii: tuple[float, ...] = _DEFAULT_RADII
    reference: tuple[complex, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in ("Pi_delta", "G_delta"):
            raise InputError(f"unknown ray domain {self.kind!r}")
        if not self.delta > 0:
            raise InputError("delta must be positive", field="delta")
        r = np.asarray(self.radii, dtype=float)
        if len(r) == 0 or not np.all(np.isfinite(r)) or np.any(r <= 0) or np.any(np.diff(r) <= 0):
            raise InputError("radii must be finite, positive and strictly increasing", field="radii")
        if self.kind == "Pi_delta":
            if not self.delta < math.pi / 2:
                raise InputError("Pi_delta needs delta in (0, pi/2)", field="delta")
            if not (self.delta - 1e-12 <= self.angle <= math.pi - self.delta + 1e-12):
                raise InputError(
                    f"arg rho = {self.angle} is outside [delta, pi - delta] for delta={self.delta}",
                    field="angle",
                )
        else:
            if not (0.0 <= self.angle <= math.pi):
                raise InputError("G_delta rays live in the closed upper half-plane", field="angle")
            if self.reference:
                ref = np.asarray(self.reference, dtype=complex)
                pts = r * np.exp(1j * self.angle)
                gaps = np.abs(pts[:, None] - ref[None, :]).min(axis=1)
                bad = np.nonzero(gaps < self.delta)[0]
                if len(bad):
                    raise InputError(
                        f"ray point |rho|={r[bad[0]]} is within delta={self.delta} "
                        "of a spectral point; adjust the radii",
                        field="radii",
                    )

    @classmethod
    def pi_delta(cls, angle: float, delta: float = 0.1, radii=_DEFAULT_RADII) -> "RaySpec":
        return cls(kind="Pi_delta", angle=angle, delta=delta, radii=tuple(radii))

    @classmethod
    def g_delta(cls, angle: float, reference, delta: float = 0.1, radii=_DEFAULT_RADII) -> "RaySpec":
        """reference: a Spectrum (or iterable of lambda values) fixing the rho_n."""
        return cls(
            kind="G_delta",
            angle=angle,
            delta=delta,
            radii=tuple(radii),
            reference=_as_rho_reference(reference),
        )

    def points(self) -> np.ndarray:
        return np.asarray(self.radii, dtype=float) * np.exp(1j * self.angle)


def _read_ray(ctx, d, path: str):
    """The RaySpec that d at `path` describes, or None after any problem: its kind (Pi_delta unless
    given), angle, delta and radii where given, and a G_delta ray's reference eigenvalues."""
    if not ctx.obj(d, path, ("kind", "angle", "delta", "radii", "reference")):
        return None
    kind, reference = d.get("kind", "Pi_delta"), None
    if kind not in ("Pi_delta", "G_delta"):
        ctx.err(f"{path}.kind", "expected Pi_delta or G_delta")
    kw = {"angle": _scalar(ctx, d.get("angle"), f"{path}.angle")}
    if "delta" in d:
        kw["delta"] = _scalar(ctx, d["delta"], f"{path}.delta")
    if "radii" in d:
        kw["radii"] = d["radii"]
        if not _reals(d["radii"]):
            ctx.err(f"{path}.radii", "expected a list of numbers")
    if kind == "G_delta" and "reference" not in d:
        ctx.err(f"{path}.reference", "G_delta needs reference eigenvalues")
    elif kind == "G_delta":
        reference = _pair_list(ctx, d["reference"], f"{path}.reference")
    elif "reference" in d:
        ctx.err(f"{path}.reference", "only meaningful for G_delta")
    if ctx.errors:
        return None
    if reference is None:
        return ctx.build(path, lambda: RaySpec.pi_delta(**kw))
    return ctx.build(path, lambda: RaySpec.g_delta(reference=reference, **kw))


def _check_args(quantity: str, x, spec: ProblemSpec, order: int, kind: str = "Pi_delta") -> float | None:
    """The checks `predict` and `asym_report` share: quantity, order and x, pointwise on a G_delta ray.

    Returns x as a float (None for Delta1 and Delta11).
    """
    if kind == "G_delta" and quantity in ("Delta1", "Delta11"):
        raise InputError("G_delta bounds cover Phi, v1, varphi and v2 only", field="quantity")
    if quantity not in _QUANTITIES:
        raise InputError(f"unknown quantity {quantity!r}; expected one of {_QUANTITIES}", field="quantity")
    if order not in (0, 1):
        raise InputError("order must be 0 or 1", field="order")
    T = spec.T
    if quantity in ("Delta1", "Delta11"):
        if order != 0:
            raise InputError(f"{quantity} has no derivative orders", field="order")
        if x is not None:
            raise InputError(f"{quantity} prediction takes no evaluation point x", field="x")
        return None
    if x is None:
        raise InputError(f"{quantity} prediction needs an evaluation point x", field="x")
    try:
        x = float(x)
    except (TypeError, ValueError):
        raise InputError(f"evaluation point x must be a real number, got {x!r}", field="x") from None
    a = spec.form1.support_end
    if quantity == "Phi":
        if not (0.0 <= x < T):
            raise InputError("Phi leading term holds for x in [0, T)", field="x")
    elif quantity == "v1":
        # The open right end is the stated range; the endpoint value stays
        # within a bounded factor of the prediction, so x = T is allowed.
        if not (0.0 <= x <= T):
            raise InputError("v1 leading term holds for x in [0, T]", field="x")
    elif quantity == "varphi":
        if not (0.0 < x <= T):
            raise InputError("varphi leading term holds for x in (0, T]", field="x")
        if x < a / 2:
            raise InputError(
                f"varphi leading term needs x >= a/2 = {a / 2} (support end a = {a})", field="x"
            )
    else:  # v2
        if not (0.0 <= x < T):
            raise InputError("v2 leading term holds for x in [0, T)", field="x")
        if x < a / 2:
            raise InputError(
                f"v2 leading term needs x >= a/2 = {a / 2} (support end a = {a})", field="x"
            )
    return x


def predict(
    quantity: str, x, p: SpectralPoint, spec: ProblemSpec, order: int = 0
) -> ScaledComplex:
    """Leading term of the named quantity at spectral point p, scale-aware.

    `order` selects the derivative order (0 or 1) for the pointwise
    quantities; Delta1 and Delta11 take x=None and order 0 only.
    """
    x = _check_args(quantity, x, spec, order)
    rho = p.rho
    sig, tau = rho.real, rho.imag
    T = spec.T
    H1 = spec.jump_coefficient
    if quantity == "Phi":
        m = (1j * rho) ** order / H1 * cmath.exp(1j * sig * x)
        return ScaledComplex(m, -tau * x)
    if quantity == "v1":
        m = (1j * rho) ** order / 2.0 * cmath.exp(-1j * sig * (T - x))
        return ScaledComplex(m, tau * (T - x))
    if quantity == "Delta1":
        m = -H1 / (2j * rho) * cmath.exp(-1j * sig * T)
        return ScaledComplex(m, tau * T)
    if quantity == "Delta11":
        m = H1 / 2.0 * cmath.exp(-1j * sig * T)
        return ScaledComplex(m, tau * T)
    if quantity == "varphi":
        m = H1 / 2.0 * (-1j * rho) ** (order - 1) * cmath.exp(-1j * sig * x)
        return ScaledComplex(m, tau * x)
    m = (-1j * rho) ** (order - 1) * cmath.exp(1j * sig * (T - x))
    return ScaledComplex(m, -tau * (T - x))


def _envelope(quantity: str, x: float, rho: complex, T: float, order: int) -> ScaledComplex:
    """G_delta bound envelope |rho|^p * |exp(...)| for the pointwise quantities."""
    tau = rho.imag
    if quantity == "v1":
        return ScaledComplex(abs(rho) ** order + 0j, tau * (T - x))
    if quantity == "Phi":
        return ScaledComplex(abs(rho) ** order + 0j, -tau * x)
    if quantity == "varphi":
        return ScaledComplex(abs(rho) ** (order - 1) + 0j, tau * x)
    return ScaledComplex(abs(rho) ** (order - 1) + 0j, -tau * (T - x))


def _unit(v: complex) -> complex:
    a = abs(v)
    return 1.0 + 0j if a == 0.0 else v / a


def _anchored(spec: ProblemSpec, form: LinearForm, x: float, lams: np.ndarray):
    """The form's values on the fundamental system (W1, W2) at x, for each lambda.

    W1(x) = W2'(x) = 1 and W1'(x) = W2(x) = 0.  The grid holds q's points,
    the form's points and x.  [0, x] is swept backwards from x, [x, T]
    forwards, each with its share of the form's node weights (the node at x
    counts in the first), and a share that weighs nothing is not swept.
    Returns mantissas of shape (m, 2), one column per W_k, and log-scales of
    shape (m,).
    """
    disc = Discretization.build([spec.q], None, [form.required_points(spec.T), [x]], None)
    grid = disc.grid
    i, n = _node_index(grid, x), len(grid)
    wy, wd, dens = node_weights(form, grid)
    first = np.arange(n) <= i
    parts = []
    for lo, hi, side, nodes in ((0, i + 1, "Z", first), (i, n, "X", ~first)):
        w = [None if v is None else np.where(nodes, v, 0)[lo:hi] for v in (wy, wd)]
        w.append(None if dens is None else dens[:, lo : hi - 1])
        if any(v is not None and v.any() for v in w):
            fam = integrate_family(disc.piece(lo, hi, lambda g: [w]), lams, side)
            parts.append((fam.forms[0], fam.forms_s[0]))
    if len(parts) == 1:
        return parts[0]
    (u, s), (v, t) = parts
    top = np.maximum(s, t)
    return u * np.exp(s - top)[:, None] + v * np.exp(t - top)[:, None], top


def _computed_values(
    quantity: str, x, lams: np.ndarray, spec: ProblemSpec, order: int
) -> list[ScaledComplex]:
    """Solver-side values of the quantity at each lambda, scale-aware.

    Delta1 and Delta11 come from `char_batch`.  The pointwise quantities are
    form values on a fundamental system anchored at a node (see the module
    docstring): v1 = V(Z_1) and Phi = -V(Z_2) / delta_1 with V the point form
    y^(k)(x) and the system anchored at T; varphi(x) = -U_1(W_2),
    varphi'(x) = U_1(W_1) with the system anchored at x, and
    v2 = varphi / delta_11.
    """
    if quantity in ("Delta1", "Delta11"):
        cb = char_batch(spec, lams)
        vals = cb.delta1 if quantity == "Delta1" else cb.delta11
        return [ScaledComplex.from_value(v) for v in vals]

    x = float(x)
    if quantity in ("v1", "Phi"):
        w, s = _anchored(spec, LinearForm.point_value(x, order), spec.T, lams)
        vals = w[:, 0] if quantity == "v1" else -w[:, 1]
    else:
        w, s = _anchored(spec, spec.form1, x, lams)
        vals = -w[:, 1] if order == 0 else w[:, 0]
    if quantity in ("v1", "varphi"):
        return [ScaledComplex(complex(v), float(e)) for v, e in zip(vals, s)]
    cb = char_batch(spec, lams)
    div = [complex(d) for d in (cb.delta1 if quantity == "Phi" else cb.delta11)]
    return [
        ScaledComplex(complex(v) / _unit(d), float(e) - math.log(abs(d)))
        for v, e, d in zip(vals, s, div)
    ]


@dataclass(frozen=True)
class AsymRow:
    radius: float
    rho: complex
    computed: ScaledComplex
    predicted: ScaledComplex
    rel_error: float
    ratio: float


@dataclass(frozen=True)
class AsymReport:
    """Ray-wise comparison of computed values against the leading term."""

    quantity: str
    x: float | None
    order: int
    ray: RaySpec
    rows: tuple[AsymRow, ...]

    @property
    def rel_errors(self) -> np.ndarray:
        return np.asarray([r.rel_error for r in self.rows])

    @property
    def ratios(self) -> np.ndarray:
        return np.asarray([r.ratio for r in self.rows])

    @property
    def final_rel_error(self) -> float:
        return self.rows[-1].rel_error

    @property
    def strictly_decreasing(self) -> bool:
        e = self.rel_errors
        return bool(np.all(np.diff(e) < 0))

    @property
    def decreasing_from(self) -> int:
        """Smallest index from which the errors are non-increasing to the end."""
        e = self.rel_errors
        start = len(e) - 1
        for i in range(len(e) - 2, -1, -1):
            if e[i] >= e[i + 1]:
                start = i
            else:
                break
        return start

    def decreasing_with_floor(self, floor: float = 1e-8) -> bool:
        """Non-increasing once errors below `floor` count as at-floor.

        Solver noise dominates below roughly 1e-8, so a run that bottoms out
        early (q = 0 does at the first radius) still passes.
        """
        e = np.maximum(self.rel_errors, floor)
        return bool(np.all(np.diff(e) <= 0))

    def summary(self) -> dict:
        return {
            "quantity": self.quantity,
            "domain": self.ray.kind,
            "strictly_decreasing": self.strictly_decreasing,
            "decreasing_from": self.decreasing_from,
            "final_rel_error": self.final_rel_error,
            "max_ratio_over_first": float(np.max(self.ratios / self.ratios[0])),
        }

    def csv_rows(self) -> list[list[str]]:
        head = [
            "radius",
            "computed_log_abs",
            "computed_phase",
            "predicted_log_abs",
            "predicted_phase",
            "rel_error",
            "ratio",
        ]
        body = [
            [
                f"{r.radius:.12g}",
                f"{r.computed.log_abs:.12g}",
                f"{r.computed.phase:.12g}",
                f"{r.predicted.log_abs:.12g}",
                f"{r.predicted.phase:.12g}",
                f"{r.rel_error:.12g}",
                f"{r.ratio:.12g}",
            ]
            for r in self.rows
        ]
        return [head] + body


def asym_report(
    quantity: str,
    x,
    rays: RaySpec,
    spec: ProblemSpec,
    *,
    order: int = 0,
) -> AsymReport:
    """Compare solver values with the leading term along a ray.

    For Pi_delta rays the `predicted` column is the full leading term and
    `rel_error` is meaningful; for G_delta rays it is the bound envelope
    (no constants) and `ratio` is the boundedness proxy.
    """
    x = _check_args(quantity, x, spec, order, rays.kind)
    pts = rays.points()
    lams = pts**2
    computed = _computed_values(quantity, x, lams, spec, order)
    rows = []
    for j, rho in enumerate(pts):
        if rays.kind == "Pi_delta":
            pred = predict(quantity, x, SpectralPoint.from_lambda(lams[j]), spec, order)
            err = computed[j].rel_error_vs(pred)
        else:
            pred = _envelope(quantity, float(x), complex(rho), spec.T, order)
            err = math.nan
        d = computed[j].log_abs - pred.log_abs
        ratio = math.inf if d > _EXP_CAP else math.exp(d) if d > -_EXP_CAP else 0.0
        rows.append(
            AsymRow(
                radius=float(abs(rho)),
                rho=complex(rho),
                computed=computed[j],
                predicted=pred,
                rel_error=float(err),
                ratio=float(ratio),
            )
        )
    return AsymReport(quantity=quantity, x=None if x is None else float(x), order=order, ray=rays, rows=tuple(rows))


def _read_asym(ctx, d, path: str, spec: ProblemSpec | None):
    """`asym_report`'s arguments but the problem, from d at `path` (quantity, x, order and a ray
    object that `_read_ray` reads), or None after any problem; checked against `spec` where given."""
    if not ctx.obj(d, path, ("quantity", "x", "order", "ray")):
        return None
    args = {
        "quantity": d.get("quantity"),
        "x": None if d.get("x") is None else _scalar(ctx, d["x"], f"{path}.x"),
        "order": _order(ctx, d.get("order", 0), f"{path}.order"),
        "rays": _read_ray(ctx, d.get("ray"), f"{path}.ray"),
    }
    if not ctx.errors and spec is not None:
        ctx.build(path, _check_args, args["quantity"], args["x"], spec, args["order"], args["rays"].kind)
    return None if ctx.errors else args
