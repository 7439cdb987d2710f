"""Bounded-variation measures on [0, T] and the linear forms they induce.

A measure is a point mass at 0, finitely many atoms in (0, T], and an
absolutely continuous part with piecewise-linear density:

    sigma = jump_at_zero * delta_0 + sum_i w_i * delta_{t_i} + d(t) dt.

Integrating a sampled function f against sigma realizes the nonlocal form

    U(f) = jump_at_zero * f(0) + sum_i w_i * f(t_i) + int_0^T f(t) d(t) dt.

The absolutely continuous term needs f and f' on a grid that holds the
density breakpoints; it is evaluated by the exponentially fitted rule the
sweeps use (`ode_core.fitted_density_weights`), cubic Hermite unless each
cell's mean of q - lambda is given.  Atoms are never interpolated: f must
carry exact samples at every atom location.

The density is stored as a list of linear segments (lo, hi, v_lo, v_hi),
zero outside the segments.  Segments may touch with different one-sided
values, so sums and truncations of densities stay exactly representable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, InputError, _number, _order, _pair, _pair_list, _read, _reals
from .ode_core import _node_index, fitted_density_weights

_EDGE_TOL = 1e-12
_TV_POINTS = 65  # trapezoid nodes per density segment in `total_variation`


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= _EDGE_TOL * max(1.0, scale)


@dataclass(frozen=True)
class BVMeasure:
    """Complex measure of bounded variation on [0, T]."""

    domain_length: float
    jump_at_zero: complex = 0j
    atoms: tuple[tuple[float, complex], ...] = ()
    # (lo, hi, value_at_lo, value_at_hi), ascending, non-overlapping, zero elsewhere
    density_segments: tuple[tuple[float, float, complex, complex], ...] = ()

    def __post_init__(self):
        T = self.domain_length
        if not np.isfinite(T) or T <= 0:
            raise InputError(f"domain length must be positive and finite, got {T}")
        object.__setattr__(self, "jump_at_zero", complex(self.jump_at_zero))
        atoms = tuple((float(t), complex(w)) for t, w in self.atoms)
        prev = 0.0
        for i, (t, _) in enumerate(atoms):
            # named by their `to_dict` path, which `from_dict` reports them at
            if t <= 0:
                msg = "atoms live in (0, T]; the point mass at 0 is the jump field"
                raise ConfigError([(f".atoms[{i}]", msg)])
            if t > T + _EDGE_TOL * max(1.0, T):
                raise ConfigError([(f".atoms[{i}]", f"atom location exceeds T = {T:g}")])
            if t <= prev:
                raise InputError("atom locations must be strictly increasing")
            prev = t
        object.__setattr__(self, "atoms", atoms)
        segs = []
        prev_hi = 0.0
        for lo, hi, vlo, vhi in self.density_segments:
            lo, hi = float(lo), float(hi)
            if lo >= hi:
                continue  # zero-width pieces carry no mass
            if lo < -_EDGE_TOL or hi > T + _EDGE_TOL * max(1.0, T):
                raise InputError(f"density segment [{lo}, {hi}] outside [0, T], T={T}")
            if lo < prev_hi - _EDGE_TOL:
                raise InputError("density segments must be ascending and non-overlapping")
            segs.append((lo, hi, complex(vlo), complex(vhi)))
            prev_hi = hi
        object.__setattr__(self, "density_segments", tuple(segs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_jump(cls, T: float, jump: complex) -> "BVMeasure":
        return cls(domain_length=T, jump_at_zero=jump)

    @classmethod
    def from_atoms(cls, T: float, atoms, jump: complex = 0j) -> "BVMeasure":
        return cls(domain_length=T, jump_at_zero=jump, atoms=tuple(atoms))

    @classmethod
    def with_density(cls, T: float, breakpoints, values, jump: complex = 0j, atoms=()) -> "BVMeasure":
        """Density given by nodal values on breakpoints; repeated breakpoints encode jumps."""
        bp = [float(b) for b in breakpoints]
        vals = [complex(v) for v in values]
        if len(bp) != len(vals):
            raise InputError("breakpoints and values must have equal length")
        if len(bp) < 2:
            raise InputError("density needs at least two breakpoints")
        segs = []
        for i in range(len(bp) - 1):
            if bp[i + 1] < bp[i]:
                raise InputError("density breakpoints must be non-decreasing")
            segs.append((bp[i], bp[i + 1], vals[i], vals[i + 1]))
        return cls(domain_length=T, jump_at_zero=jump, atoms=tuple(atoms), density_segments=tuple(segs))

    # -- basic queries -----------------------------------------------------

    @property
    def has_density(self) -> bool:
        return bool(self.density_segments)

    @property
    def is_real(self) -> bool:
        if self.jump_at_zero.imag != 0.0:
            return False
        if any(w.imag != 0.0 for _, w in self.atoms):
            return False
        return all(vlo.imag == 0.0 and vhi.imag == 0.0 for _, _, vlo, vhi in self.density_segments)

    @property
    def support_end(self) -> float:
        """Largest t where the restriction to [0, t] still changes (0 for a pure jump)."""
        end = 0.0
        if self.atoms:
            end = max(end, self.atoms[-1][0])
        if self.density_segments:
            end = max(end, self.density_segments[-1][1])
        return end

    def required_points(self) -> np.ndarray:
        """Sample locations a grid must contain to integrate exactly against this measure."""
        pts = [0.0] + [t for t, _ in self.atoms]
        for lo, hi, _, _ in self.density_segments:
            pts.extend((lo, hi))
        return np.unique(np.asarray(pts, dtype=float))

    def total_variation(self) -> float:
        """|jump| + sum |atom weights| + int |density|; density term by quadrature."""
        tv = abs(self.jump_at_zero) + sum(abs(w) for _, w in self.atoms)
        for lo, hi, vlo, vhi in self.density_segments:
            s = np.linspace(0.0, 1.0, _TV_POINTS)
            mags = np.abs(vlo + (vhi - vlo) * s)
            tv += float(np.trapezoid(mags, dx=(hi - lo) / (_TV_POINTS - 1)))
        return float(tv)

    # -- transformations ---------------------------------------------------

    def truncate(self, a: float) -> "BVMeasure":
        """Measure equal to this one on [0, a] and zero on (a, T]."""
        T = self.domain_length
        if not (0.0 < a <= T + _EDGE_TOL * max(1.0, T)):
            raise InputError(f"truncation point {a} outside (0, T], T={T}")
        atoms = tuple((t, w) for t, w in self.atoms if t <= a + _EDGE_TOL * max(1.0, T))
        segs = []
        for lo, hi, vlo, vhi in self.density_segments:
            if lo >= a:
                break
            if hi <= a:
                segs.append((lo, hi, vlo, vhi))
            else:
                frac = (a - lo) / (hi - lo)
                segs.append((lo, a, vlo, vlo + (vhi - vlo) * frac))
        return BVMeasure(T, self.jump_at_zero, atoms, tuple(segs))

    def window(self, lo: float, hi: float) -> "BVMeasure":
        """Restriction to (lo, hi]: atoms in (lo, hi], density clipped, no jump term."""
        T = self.domain_length
        if not (0.0 <= lo < hi <= T + _EDGE_TOL * max(1.0, T)):
            raise InputError(f"window ({lo}, {hi}] invalid for T={T}")
        atoms = tuple((t, w) for t, w in self.atoms if lo < t <= hi + _EDGE_TOL * max(1.0, T))
        segs = []
        for slo, shi, vlo, vhi in self.density_segments:
            clo, chi = max(slo, lo), min(shi, hi)
            if clo >= chi:
                continue
            width = shi - slo
            seg_vlo = vlo + (vhi - vlo) * (clo - slo) / width
            seg_vhi = vlo + (vhi - vlo) * (chi - slo) / width
            segs.append((clo, chi, seg_vlo, seg_vhi))
        return BVMeasure(T, 0j, atoms, tuple(segs))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        d: dict = {"jump": [self.jump_at_zero.real, self.jump_at_zero.imag]}
        if self.atoms:
            d["atoms"] = [[t, [w.real, w.imag]] for t, w in self.atoms]
        if self.density_segments:
            bp, vals = [], []
            for lo, hi, vlo, vhi in self.density_segments:
                if not bp or not _close(bp[-1], lo) or vals[-1] != [vlo.real, vlo.imag]:
                    bp.append(lo)
                    vals.append([vlo.real, vlo.imag])
                bp.append(hi)
                vals.append([vhi.real, vhi.imag])
            d["density"] = {"breakpoints": bp, "values": vals}
        return d

    @classmethod
    def from_dict(cls, d: dict, T: float) -> "BVMeasure":
        """The measure on [0, T] that `to_dict` wrote, absent fields zero; a ConfigError
        names every bad path."""
        return _read(_read_measure, d, T)


def _read_measure(ctx, d, path: str, T: float, at: str | None = None):
    """The BVMeasure on [0, T] that d at `path` describes, or None after any problem; the
    constructor's named fields are reported below `path`, its other problems at `at`
    (default `path`)."""
    if not ctx.obj(d, path, ("jump", "atoms", "density")):
        return None
    jump = _pair(ctx, d["jump"], f"{path}.jump") if "jump" in d else 0j
    atoms = d.get("atoms", [])
    if not isinstance(atoms, list):
        ctx.err(f"{path}.atoms", "expected a list of [t, [re, im]] entries")
        atoms = []
    read = []
    for i, a in enumerate(atoms):
        p = f"{path}.atoms[{i}]"
        if isinstance(a, list) and len(a) == 2:
            read.append((_number(ctx, a[0], p), _pair(ctx, a[1], p)))
        else:
            ctx.err(p, "expected [t, [re, im]]")
    dens, p = d.get("density"), f"{path}.density"
    if dens is not None and ctx.obj(dens, p, ("breakpoints", "values")):
        if not _reals(dens.get("breakpoints"), 2):
            ctx.err(f"{p}.breakpoints", "expected at least two numbers")
        dens = (dens.get("breakpoints"), _pair_list(ctx, dens.get("values"), f"{p}.values", 2))
    if ctx.errors:
        return None
    if dens is None:
        return ctx.build(path, BVMeasure, T, jump, tuple(read), at=at)
    return ctx.build(path, BVMeasure.with_density, T, *dens, jump, read, at=at)


def density_node_weights(m: BVMeasure, x: np.ndarray) -> np.ndarray:
    """The density's values at each cell's left and right end on grid x, shape (2, n-1).

    This is the density's part of a form's node weights: a rule turns it
    into weights on y and y' at the cells' ends, the sweep at each lambda's
    own c_bar (see `ode_core.fitted_density_weights`).  Cells outside the
    density hold zeros.  Requires every segment edge to be a node of x;
    one-sided values at segment edges are taken from within each cell, so
    densities with jumps integrate consistently.
    """
    x = np.asarray(x, dtype=float)
    D = np.zeros((2, max(len(x) - 1, 0)), dtype=complex)
    for lo, hi, vlo, vhi in m.density_segments:
        i_lo, i_hi = _node_index(x, lo), _node_index(x, hi)
        if i_lo is None or i_hi is None:
            raise InputError(
                f"sample grid is missing a density breakpoint of the measure ({lo} or {hi})"
            )
        dvals = vlo + (vhi - vlo) / (hi - lo) * (x[i_lo : i_hi + 1] - lo)
        D[0, i_lo:i_hi] += dvals[:-1]
        D[1, i_lo:i_hi] += dvals[1:]
    return D


def stieltjes_integrate(x: np.ndarray, fx: np.ndarray, m: BVMeasure, dfx=None, cbar=None) -> complex:
    """int_0^T f dsigma for f sampled on the grid x.

    A density term needs the derivative samples `dfx` and a grid that holds
    the density breakpoints; it uses the exponentially fitted rule at each
    cell's mean `cbar` of q - lambda, the rule the sweeps fold in (cubic
    Hermite without `cbar`).  Without a density, `dfx` may be left out.
    """
    x = np.asarray(x, dtype=float)
    fx = np.asarray(fx, dtype=complex)
    samples = [fx] if dfx is None else [fx, np.asarray(dfx, dtype=complex)]
    if x.ndim != 1 or any(v.shape != x.shape for v in samples) or len(x) < 2:
        raise InputError("need matching 1-d arrays with at least two samples")
    if np.any(np.diff(x) <= 0):
        raise InputError("sample grid must be strictly increasing")
    if not all(np.all(np.isfinite(v)) for v in [x, *samples]):
        raise InputError("samples must be finite")
    scale = max(1.0, m.domain_length)
    if not _close(x[0], 0.0, scale) or not _close(x[-1], m.domain_length, scale):
        raise DomainError(
            f"sample grid spans [{x[0]}, {x[-1]}] but the measure lives on [0, {m.domain_length}]"
        )

    total = m.jump_at_zero * fx[0]
    for t, w in m.atoms:
        i = _node_index(x, t)
        if i is None:
            raise InputError(f"function not sampled at atom location t={t}; refusing to interpolate")
        total += w * fx[i]
    if not m.has_density:
        return complex(total)
    if dfx is None:
        raise InputError("a density term needs derivative samples dfx")
    wy, wd = fitted_density_weights(x, density_node_weights(m, x), cbar)
    return complex(total + np.dot(wy, fx) + np.dot(wd, samples[1]))


# ----------------------------------------------------------------------------
# Linear forms


@dataclass(frozen=True)
class LinearForm:
    """A linear form acting on solutions: Stieltjes integral or point value.

    kind "nonlocal":    U(y) = int y dsigma         (measure required)
    kind "point_value": U(y) = y^(order)(x0), order in {0, 1}
    """

    kind: str
    measure: BVMeasure | None = None
    x0: float | None = None
    order: int = 0

    def __post_init__(self):
        if self.kind == "nonlocal":
            if self.measure is None:
                raise InputError("nonlocal form needs a measure")
        elif self.kind == "point_value":
            if self.x0 is None:
                raise InputError("point form needs x0")
            if self.order not in (0, 1):
                raise InputError("point form order must be 0 or 1")
        else:
            raise InputError(f"unknown form kind {self.kind!r}")

    @classmethod
    def from_measure(cls, measure: BVMeasure) -> "LinearForm":
        return cls(kind="nonlocal", measure=measure)

    @classmethod
    def point_value(cls, x0: float, order: int = 0) -> "LinearForm":
        return cls(kind="point_value", x0=float(x0), order=order)

    @property
    def jump_coefficient(self) -> complex:
        """Weight of y(0) in the form; the H coefficient of the general theory."""
        if self.kind == "nonlocal":
            return self.measure.jump_at_zero
        return 1.0 + 0j if (self.x0 == 0.0 and self.order == 0) else 0j

    @property
    def support_end(self) -> float:
        if self.kind == "nonlocal":
            return self.measure.support_end
        return self.x0

    @property
    def is_real(self) -> bool:
        return self.measure.is_real if self.kind == "nonlocal" else True

    def required_points(self, T: float) -> np.ndarray:
        if self.kind == "nonlocal":
            return self.measure.required_points()
        return np.asarray([self.x0], dtype=float)

    def apply_sampled(
        self, x: np.ndarray, y: np.ndarray, dy: np.ndarray | None = None, cbar=None
    ) -> complex:
        """Apply to a function sampled on x.

        dy is needed for order-1 point forms and for a density, which is
        integrated by the exponentially fitted rule the sweeps use, at each
        cell's mean `cbar` of q - lambda (see `stieltjes_integrate`).
        """
        if self.kind == "nonlocal":
            return stieltjes_integrate(x, y, self.measure, dy, cbar)
        i = _node_index(np.asarray(x, dtype=float), self.x0)
        if i is None:
            raise InputError(f"function not sampled at x0={self.x0}")
        if self.order == 0:
            return complex(y[i])
        if dy is None:
            raise InputError("derivative samples required for an order-1 point form")
        return complex(dy[i])

    def to_dict(self) -> dict:
        if self.kind == "nonlocal":
            return {"type": "nonlocal", "measure": self.measure.to_dict()}
        return {"type": "point", "x": self.x0, "order": self.order}

    @classmethod
    def from_dict(cls, d: dict, T: float) -> "LinearForm":
        """The form that `to_dict` wrote, its measure on [0, T]; a ConfigError names every bad path."""
        return _read(_read_form, d, T)


def _read_form(ctx, d, path: str, T: float):
    """The LinearForm that d at `path` describes, its measure on [0, T], or None after any problem."""
    if not ctx.obj(d, path):
        return None
    kind = d.get("type")
    if kind == "point":
        ctx.strict(d, path, ("type", "x", "order"))
        x = _number(ctx, d.get("x"), f"{path}.x")
        order = _order(ctx, d.get("order", 0), f"{path}.order")
        return None if ctx.errors else LinearForm.point_value(x, order)
    if kind == "nonlocal":
        ctx.strict(d, path, ("type", "measure"))
        m = _read_measure(ctx, d.get("measure"), f"{path}.measure", T, at=path)
        return None if m is None else LinearForm.from_measure(m)
    ctx.err(f"{path}.type", "expected point or nonlocal")
    return None
