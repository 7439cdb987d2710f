"""Finitely parameterized complex potentials q on (0, T).

Three representations:
    grid      - samples on a node grid, linear interpolation between nodes
    cosine    - q(x) = sum_k c_k cos(k pi x / T)
    piecewise - constant on cells between breakpoints

All three evaluate anywhere in [0, T], know which x-locations an ODE grid
must contain to keep the right-hand side smooth inside every step, and are
closed under the operations the rest of the library needs (shift by a
constant, reflection x -> T - x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, _number, _pair_list, _read, _reals

# each kind's `data` fields: its nodes (none for a cosine) and its values
_DATA = {"grid": ("x", "values"), "cosine": (None, "coefficients"), "piecewise": ("breakpoints", "values")}
_NORM_POINTS = 2049  # samples of `l1_norm` and `max_abs_difference`


@dataclass(frozen=True, eq=False)
class Potential:
    kind: str
    T: float
    nodes: np.ndarray | None  # grid: sample x; piecewise: breakpoints; cosine: None
    values: np.ndarray  # grid: q(nodes); piecewise: cell values; cosine: coefficients

    def __post_init__(self):
        if self.kind not in _DATA:
            raise InputError(f"unknown potential kind {self.kind!r}")
        if not np.isfinite(self.T) or self.T <= 0:
            raise InputError(f"interval length must be positive, got {self.T}")
        vals = np.asarray(self.values, dtype=complex)
        if not np.all(np.isfinite(vals)):
            raise InputError("potential values must be finite")
        object.__setattr__(self, "values", vals)
        if self.kind == "grid":
            x = np.asarray(self.nodes, dtype=float)
            if x.ndim != 1 or len(x) < 2 or x.shape != vals.shape:
                raise InputError("grid potential needs matching 1-d nodes and values")
            if np.any(np.diff(x) <= 0):
                raise InputError("grid nodes must be strictly increasing")
            if abs(x[0]) > 1e-12 or abs(x[-1] - self.T) > 1e-12 * max(1.0, self.T):
                raise InputError("grid nodes must span [0, T]")
            object.__setattr__(self, "nodes", x)
        elif self.kind == "piecewise":
            b = np.asarray(self.nodes, dtype=float)
            if b.ndim != 1 or len(b) != len(vals) + 1:
                raise InputError("piecewise potential needs len(breakpoints) == len(values) + 1")
            if np.any(np.diff(b) <= 0):
                raise InputError("breakpoints must be strictly increasing")
            if abs(b[0]) > 1e-12 or abs(b[-1] - self.T) > 1e-12 * max(1.0, self.T):
                raise InputError("breakpoints must span [0, T]")
            object.__setattr__(self, "nodes", b)
        else:  # cosine
            if self.nodes is not None:
                raise InputError("cosine potential takes coefficients only")
            if vals.ndim != 1 or len(vals) == 0:
                raise InputError("cosine potential needs at least one coefficient")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, T: float) -> "Potential":
        return cls(kind="cosine", T=T, nodes=None, values=np.zeros(1, dtype=complex))

    @classmethod
    def from_grid(cls, x, values) -> "Potential":
        x = np.asarray(x, dtype=float)
        return cls(kind="grid", T=float(x[-1]), nodes=x, values=np.asarray(values, dtype=complex))

    @classmethod
    def from_cosine(cls, T: float, coefficients) -> "Potential":
        return cls(kind="cosine", T=float(T), nodes=None, values=np.asarray(coefficients, dtype=complex))

    @classmethod
    def from_piecewise(cls, breakpoints, values) -> "Potential":
        b = np.asarray(breakpoints, dtype=float)
        return cls(kind="piecewise", T=float(b[-1]), nodes=b, values=np.asarray(values, dtype=complex))

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "grid":
            out = np.interp(x, self.nodes, self.values.real) + 1j * np.interp(
                x, self.nodes, self.values.imag
            )
        elif self.kind == "piecewise":
            idx = np.clip(np.searchsorted(self.nodes, x, side="right") - 1, 0, len(self.values) - 1)
            out = self.values[idx]
        else:
            k = np.arange(len(self.values))
            out = np.cos(np.multiply.outer(x, k) * (np.pi / self.T)) @ self.values
        return out

    def step_samples(self, grid: np.ndarray):
        """(q_left, q_mid, q_right) per step of `grid`, cell-aware for piecewise kinds.

        For a piecewise-constant potential all three samples come from the step
        midpoint, so steps whose endpoints sit on a breakpoint see one constant.
        """
        xa, xb = grid[:-1], grid[1:]
        xm = 0.5 * (xa + xb)
        if self.kind == "piecewise":
            qm = self(xm)
            return qm, qm, qm
        return self(xa), self(xm), self(xb)

    # -- metadata for grid construction ---------------------------------------

    def required_points(self) -> np.ndarray:
        """x-locations where the potential is non-smooth; ODE grids must contain them."""
        if self.kind in ("grid", "piecewise"):
            return np.asarray(self.nodes, dtype=float)
        return np.empty(0, dtype=float)

    def suggested_hmax(self) -> float | None:
        """Step bound resolving the potential's own variation (cosine wavelength)."""
        if self.kind == "cosine":
            nz = np.nonzero(np.abs(self.values) > 0)[0]
            k_max = int(nz[-1]) if len(nz) else 0
            if k_max >= 1:
                return self.T / (8.0 * k_max)
        return None

    def derivative_bound(self) -> float:
        """A bound on |q'| + |q''| inside the grid's steps (the Magnus cell's error constant).

        Closed form for a cosine; the largest slope for a grid potential,
        which is linear between its nodes; 0 for a piecewise constant.
        """
        if self.kind == "cosine":
            w = np.arange(len(self.values)) * (np.pi / self.T)
            c = np.abs(self.values)
            return float(np.sum((w * w + w) * c))
        if self.kind == "grid":
            return float(np.max(np.abs(np.diff(self.values) / np.diff(self.nodes))))
        return 0.0

    # -- algebra ---------------------------------------------------------------

    def shifted(self, c: complex) -> "Potential":
        """q + c."""
        if self.kind == "cosine":
            vals = self.values.copy()
            vals[0] += c
            return Potential("cosine", self.T, None, vals)
        return Potential(self.kind, self.T, self.nodes, self.values + c)

    def reflected(self) -> "Potential":
        """q(T - x)."""
        if self.kind == "grid":
            return Potential("grid", self.T, self.T - self.nodes[::-1], self.values[::-1])
        if self.kind == "piecewise":
            return Potential("piecewise", self.T, self.T - self.nodes[::-1], self.values[::-1])
        k = np.arange(len(self.values))
        return Potential("cosine", self.T, None, self.values * (-1.0) ** k)

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))

    def l1_norm(self) -> float:
        x = np.linspace(0.0, self.T, _NORM_POINTS)
        return float(np.trapezoid(np.abs(self(x)), x))

    def max_abs_difference(self, other: "Potential") -> float:
        x = np.linspace(0.0, min(self.T, other.T), _NORM_POINTS)
        return float(np.max(np.abs(self(x) - other(x))))

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        node_key, value_key = _DATA[self.kind]
        data = {} if node_key is None else {node_key: self.nodes.tolist()}
        data[value_key] = [[v.real, v.imag] for v in self.values]
        return {"type": self.kind, "T": self.T, "data": data}

    @classmethod
    def from_dict(cls, d: dict) -> "Potential":
        """The potential `to_dict` wrote, or {"type": "zero", "T": T}; a ConfigError names every bad path."""
        return _read(_read_potential, d)


def _read_potential(ctx, d, path: str, T=None):
    """The Potential that d at `path` describes, or None after any problem; T is the interval
    length when the caller fixes it (a config's top-level T), else d carries its own."""
    if not ctx.obj(d, path, ("type", "T", "data")):
        return None
    kind = d.get("type")
    if kind not in ("zero", *_DATA):
        ctx.err(f"{path}.type", "expected zero, grid, piecewise, or cosine")
        return None
    if T is None:
        T = _number(ctx, d.get("T"), f"{path}.T", positive=True)
    if kind == "zero":
        if "data" in d:
            ctx.err(f"{path}.data", "the zero potential takes no data")
        return None if ctx.errors else Potential.zero(T)
    node_key, value_key = _DATA[kind]
    data, at = d.get("data"), f"{path}.data"
    if not ctx.obj(data, at, (node_key, value_key)):
        return None
    nodes = data.get(node_key)
    if node_key and not _reals(nodes):
        ctx.err(f"{at}.{node_key}", "expected a list of numbers")
    values = _pair_list(ctx, data.get(value_key), f"{at}.{value_key}")
    return None if ctx.errors else ctx.build(at, Potential, kind, T, nodes, values)
