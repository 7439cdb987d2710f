"""Initial-value integration of -y'' + q(x) y = lambda y on [0, T].

The equation is integrated as a first-order system Y' = A Y, A = [[0, 1],
[c, 0]] with c = q - lambda, by the fourth-order Magnus cell (Iserles and
Norsett 1999).  With the step's samples c_a, c_m, c_b at its start, middle
and end, c_bar = (c_a + 4 c_m + c_b) / 6 and a = -h^2 (c_b - c_a) / 12,

    Omega = [[a, h], [h c_bar, -a]],   exp(Omega) = C I + S Omega,

where C = cosh s and S = sinh s / s are even functions of s^2 = a^2 + h^2 c_bar.
The cell is exact for constant q, has determinant 1, and its error comes from
the variation of q only.  Densities of the boundary forms are integrated by
exponentially fitted weights on (y, y') at each cell's ends (Ixaru and
Vanden Berghe 2004), exact for every solution of the cell's constant-c_bar
equation.  Neither rule needs a step tied to |rho|, so the step law

    h = min(T / n_min, q's own cap, h_q),   h_q = (720 tol / (T K_q))^(1/4),

(K_q bounds |q'| + |q''|) gives one grid per potential, tolerance and set of
required points, the same for every lambda.  A sweep multiplies out blocks
of L = ceil(sqrt(N)) steps, all blocks at once, and carries the state across
the B block starts by an inclusive pairwise prefix scan of the block maps
(Hillis and Steele 1986; Blelloch 1990): ceil(log2 B) levels, each one
product over all blocks at once, whose results are renormalized into a
per-lambda log-scale s (held values are the true solution times exp(-s)).
The scan's order follows from B, which the grid alone fixes, so a value
still does not depend on its batch.  Boundary forms enter as node
weights on y and y' and per-cell density values: while a block's partial
products are multiplied out, they fold into two coefficients per block that
act on the block-start state, so a form costs no node storage.  The cells,
the density rule's weights and their sums at each node depend on each
lambda alone; they are evaluated for a chunk of block offsets per numpy
call, so a small batch pays numpy's per-call cost once per chunk rather than
once per offset, and only the products and folds run offset by offset.  A
stored sweep also keeps each offset's partial products and reads every node
as one of them times its block's start, so its nodes and its forms come from
the same cells, each evaluated once; stored sweeps serve
`characteristic.combo_solutions` alone.  One sweep integrates a whole family
of spectral points (and both fundamental columns) at once.  All a sweep
needs but lambda (the grid, q's samples, the forms' node weights and their
blocked layout) is one `Discretization`, so lambda enters only the sweep; a
problem (`characteristic.ProblemSpec`) holds one per GridSpec for as long as
it lives, so repeat evaluations of it skip all of that.

A discretization stores q's samples and the forms' weights as float64 when
their imaginary parts are all exactly zero, and a sweep computes in the
result dtype of those arrays and its lambda: real arithmetic for a real
problem at real lambda, promoted to complex only in what the sweep returns.
Complex arithmetic keeps a zero imaginary part exactly zero, and its real
parts of sums, products, abs, frexp and ldexp are the real results, so both
paths give the same bits.  Where numpy's real and complex kernels round
differently, the sweep computes as the complex path does: the layout scales
by 1/6 and 1/12 (complex division by a real multiplies by the reciprocal),
and the forms' contraction and the closed-form sums run in complex.

Branch convention: rho = sqrt(lambda) with Im rho >= 0, and rho >= 0 when
lambda is real non-negative.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from math import ceil, factorial, inf, log
from numbers import Integral, Real

import numpy as np

from .errors import InputError, RangeError
from .potential import Potential

_EDGE_TOL = 1e-12
_MAX_NODES = 2_000_000  # grid cap
_EPS = float(np.finfo(float).eps)
# A chunk of block offsets in a sweep's first pass holds at most this many
# (offset, block, lambda) entries per array.  A numpy call costs about 1 us
# whatever its size, and 2048 complex entries take a few us of arithmetic, so
# a small batch runs its whole first pass in a few calls.  Larger budgets
# (4096, 8192) measured no faster on char_batch at 2 to 72 lambda and keep
# more memory live; a batch with blocks * lambda >= 2048, such as 256 lambda,
# gets one offset per chunk and the arrays of an offset-by-offset loop.
_CHUNK = 2048
# Every series below is in z = s^2 and is summed by Horner's rule for
# |z| <= _Z_MAX, where its depth keeps the truncation under eps and the
# terms' rounding stays under e^4 eps; beyond, the closed forms take over.
# Row k holds the coefficients of z^k of
#   Q2 = (cosh s - 1) / z,  Q3 = (sinh s / s - 1) / z,
#   NC = (4 Q2 - 12 Q3) / z,  ND = (4 Q2 - sinh s / s - 1) / z^2,
# so the cell's C = 1 + z Q2 and S = 1 + z Q3, and NC and ND are the
# remainders the density rule needs (see `_cell`).
_Z_MAX = 16.0
_A2_SHIFT = 1e-8  # a^2 up to this takes C and S at z + a^2 to first order (see `_cell`)
_SERIES = np.array(
    [
        [
            1.0 / factorial(2 * k + 2),
            1.0 / factorial(2 * k + 3),
            8.0 * (k + 1) / factorial(2 * k + 5),
            -2.0 * (k + 1) / factorial(2 * k + 6),
        ]
        for k in range(24)
    ]
)


def principal_rho(lam) -> np.ndarray:
    """sqrt(lambda) on the branch with Im rho >= 0 (rho > 0 for positive real lambda)."""
    lam = np.asarray(lam, dtype=complex)
    rho = np.sqrt(lam)
    flip = (rho.imag < 0) | ((rho.imag == 0) & (rho.real < 0))
    return np.where(flip, -rho, rho)


@dataclass(frozen=True)
class SpectralPoint:
    """A spectral parameter lambda = rho^2 with the branch Im rho >= 0."""

    lam: complex
    rho: complex

    @classmethod
    def from_lambda(cls, lam: complex) -> "SpectralPoint":
        lam = complex(lam)
        if not (np.isfinite(lam.real) and np.isfinite(lam.imag)):
            raise InputError(f"lambda must be finite, got {lam}")
        return cls(lam=lam, rho=complex(principal_rho(lam)))


@dataclass(frozen=True)
class GridSpec:
    """Step-size law and overflow guard; the sweep's block length follows from N."""

    tol: float = 1e-10  # target relative accuracy of propagation and density quadrature
    _: KW_ONLY
    n_min: int = 64  # least number of steps; the step never exceeds T / n_min
    tau_T_budget: float = 600.0  # |Im rho| * T beyond this -> range error

    def __post_init__(self):
        for name in ("tol", "tau_T_budget"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Real) or not 0 < v < inf:  # False for nan
                raise InputError(f"GridSpec.{name} must be a finite positive number, got {v!r}")
        if isinstance(self.n_min, bool) or not isinstance(self.n_min, Integral) or self.n_min < 1:
            raise InputError(f"GridSpec.n_min must be an integer of at least 1, got {self.n_min!r}")


def solver_grid(q: Potential, spec: GridSpec | None = None, extra_required=()) -> np.ndarray:
    """Node grid on [0, T] resolving q and holding all marked points, for every lambda.

    The step is h = min(T / n_min, q.suggested_hmax(), h_q), where
    h_q = (720 tol / (T K_q))^(1/4) with K_q = q.derivative_bound() holds
    the Magnus cell's error from the variation of q under tol.  Both the
    cell and the density rule are exact for constant q, so the step does
    not depend on |rho|.
    """
    spec = spec or GridSpec()
    T = q.T
    h = T / spec.n_min
    q_hmax = q.suggested_hmax()
    if q_hmax is not None:
        h = min(h, q_hmax)
    k_q = q.derivative_bound()
    if k_q > 0:
        h = min(h, (720.0 * spec.tol / (T * k_q)) ** 0.25)
    n = max(spec.n_min, ceil(T / h))
    if n > _MAX_NODES:
        raise RangeError(f"resolving q needs {n} grid nodes, beyond the {_MAX_NODES} node cap")
    base = np.linspace(0.0, T, n + 1)
    parts = [np.asarray(q.required_points(), dtype=float)]
    for r_ in extra_required:
        parts.append(np.atleast_1d(np.asarray(r_, dtype=float)))
    req = np.concatenate(parts)
    req = req[(req >= 0.0) & (req <= T + _EDGE_TOL * max(1.0, T))]
    if len(req) == 0:
        return base
    grid = np.union1d(base, req)
    # drop base nodes that nearly coincide with a required point, keeping the exact value
    tiny = _EDGE_TOL * max(1.0, T)
    keep = np.ones(len(grid), dtype=bool)
    close_next = np.diff(grid) < tiny
    req_set = set(np.round(req / tiny).astype(np.int64).tolist())
    for i in np.nonzero(close_next)[0]:
        drop = i if int(round(grid[i] / tiny)) not in req_set else i + 1
        keep[drop] = False
    return grid[keep]


def _node_index(grid: np.ndarray, x: float) -> int | None:
    """The index of `grid`'s node at x, within _EDGE_TOL * max(1, grid[-1]); None if there is none."""
    tiny = _EDGE_TOL * max(1.0, float(grid[-1])) if len(grid) else 0.0
    i = int(np.searchsorted(grid, x - tiny))
    return i if i < len(grid) and abs(grid[i] - x) <= tiny else None


@dataclass(frozen=True, eq=False)
class SolutionTrace:
    """Solution samples at a grid's nodes, read only there; true values are
    exp(log_scale) * stored values.

    `cbar` holds each cell's Simpson mean of q - lambda, shape (n-1,), from
    the sweep's layout; forms applied to the trace use it to integrate
    densities by the sweep's own rule.
    """

    grid: np.ndarray
    y: np.ndarray
    dy: np.ndarray
    log_scale: float
    cbar: np.ndarray

    def value_at(self, x: float):
        """(y, dy) at the grid node x; InputError anywhere else."""
        g = self.grid
        i = _node_index(g, x)
        if i is None:
            raise InputError(f"x={x} is not a node of the trace's grid on [{g[0]}, {g[-1]}]")
        return complex(self.y[i]), complex(self.dy[i])


def combine_traces(traces, coeffs) -> SolutionTrace:
    """Linear combination of traces on a shared grid, scale-aware."""
    traces = list(traces)
    coeffs = [complex(c) for c in coeffs]
    g = traces[0].grid
    S = max(t.log_scale for t in traces)
    y = np.zeros(len(g), dtype=complex)
    dy = np.zeros(len(g), dtype=complex)
    for t, c in zip(traces, coeffs):
        f = c * np.exp(t.log_scale - S)
        y += f * t.y
        dy += f * t.dy
    return SolutionTrace(grid=g, y=y, dy=dy, log_scale=S, cbar=traces[0].cbar)


# ---------------------------------------------------------------------------
# Batched sweep core


@dataclass(eq=False)
class FamilyStore:
    """Result of one batched sweep: a family of solutions over shared nodes.

    `forms` has shape (F, m, k): one weighted node sum per entry of the
    sweep's `weights`, per spectral point and column, as a mantissa whose true
    value is forms * exp(forms_s)[..., None] with `forms_s` of shape (F, m).
    Only a stored sweep keeps `y`/`dy` at every node, shape (n, m, k) in
    ascending grid order, with the per-node log-scale `s`, shape (n, m); each
    node is its block's prefix product times the block's start, the products
    the forms fold with.  `end` is always kept: the state where the sweep
    ends, at T on side X and at 0 on side Z.  With `forms` it gives the X
    route's characteristic values, to `combo_solutions`.
    """

    grid: np.ndarray
    lam: np.ndarray
    forms: np.ndarray | None
    forms_s: np.ndarray | None
    y: np.ndarray | None
    dy: np.ndarray | None
    s: np.ndarray | None
    end: tuple  # (y, dy, s) at the sweep's last node


def _check_budget(rho: np.ndarray, T: float, spec: GridSpec):
    tau_max = float(np.max(np.abs(rho.imag))) if rho.size else 0.0
    if tau_max * T > spec.tau_T_budget:
        raise RangeError(
            f"|Im rho| * T = {tau_max * T:.1f} exceeds the overflow budget {spec.tau_T_budget}"
        )


def _series_coefficients(z_bound: np.ndarray) -> np.ndarray:
    """Per-lambda rows of `_SERIES`, shape (depth, 4, m), for |z| <= min(z_bound, _Z_MAX).

    A column keeps the fewest terms that hold the truncation under eps and is
    padded with zeros past them.  Horner's rule then sums each column exactly
    as it would alone, so a value does not depend on the other lambdas of
    its batch.
    """
    z = np.minimum(np.asarray(z_bound, dtype=float), _Z_MAX)
    K = np.arange(1, len(_SERIES))[:, None]
    # the first term of Q2 left out at depth K, and of C = 1 + z Q2 once z > 1
    omitted = z**K * _SERIES[1:, 0, None] * np.maximum(1.0, z)
    depth = 1 + np.argmax(omitted <= _EPS, axis=0)
    rows = np.arange(max(2, int(depth.max(initial=1))))
    return np.where((rows[:, None] < depth)[:, None, :], _SERIES[rows][:, :, None], 0.0)


def _closed_sums(z: np.ndarray) -> np.ndarray:
    """Q2, Q3, NC and ND at z from cosh and sinh, shape (4,) + z.shape; for |z| > _Z_MAX.

    They are evaluated in complex, where sqrt(z) of a real z < 0 lives, and
    returned in z's own dtype: the real parts for a real z.
    """
    zc = np.asarray(z, dtype=complex)
    x = np.sqrt(zc)
    C = np.cosh(x)
    S = np.sinh(x) / x
    q2 = (C - 1.0) / zc
    q3 = (S - 1.0) / zc
    sums = np.stack([q2, q3, (4.0 * q2 - 12.0 * q3) / zc, (4.0 * q2 - S - 1.0) / (zc * zc)])
    return sums if np.iscomplexobj(z) else sums.real


def _sums(z: np.ndarray, coef: np.ndarray, wide=None) -> np.ndarray:
    """The first r rows of `_SERIES` at z of shape (B, m), for `coef` of shape (depth, r, m).

    Horner's rule sums them, except in the columns that `wide` flags (their
    bound passes _Z_MAX): there every cell with |z| > _Z_MAX is summed in
    closed form.  Returns shape (r, B, m).
    """
    c = coef[:, :, None, :]
    big = None
    if wide is not None:
        zw = z[:, wide]
        big = np.abs(zw) > _Z_MAX
        if big.any():
            z = z.copy()
            z[:, wide] = np.where(big, 0.0, zw)
        else:
            big = None
    V = c[-1] * z + c[-2]
    for k in range(len(c) - 3, -1, -1):
        V *= z
        V += c[k]
    if big is not None:
        Vw = V[:, :, wide]
        Vw[:, big] = _closed_sums(zw[big])[: len(V)]
        V[:, :, wide] = Vw
    return V


def _cell(h, a, cbar, coef, wide=None, rule=False, shift=False):
    """One Magnus cell per entry and, with `rule`, the density rule's factors there.

    The cell is exp(Omega) for Omega = [[a, h], [h cbar, -a]] as (m11, m12,
    m21, m22) on (y, y'), with C = cosh s = 1 + s^2 Q2 and
    S = sinh s / s = 1 + s^2 Q3 at s^2 = a^2 + h^2 cbar; h = 0 gives the
    identity.  The factors (f1, f2, f3, f4) of `_rule_weights` are even
    functions of z = h^2 cbar:

        f1 = 4 Q2 / (1 + S),  f2 = -2 Q3 / (1 + S),  f3 = NC / (2 Q3),  f4 = ND / Q3,

    with S = 1 + z Q3.  `shift` says that every a^2 is so small that its
    square is lost to rounding: the cell then moves the rule's C and S at z
    to s^2 = z + a^2 by their first derivatives, S / 2 and (Q2 - Q3) / 2.
    """
    hc = h * cbar
    z = h * hc
    factors = None
    if rule:
        q2, q3, nc, nd = _sums(z, coef, wide)
        C = 1.0 + z * q2
        S = 1.0 + z * q3
        r = 1.0 / (1.0 + S)
        rq = 1.0 / q3
        factors = (4.0 * q2 * r, -2.0 * q3 * r, 0.5 * nc * rq, nd * rq)
        if shift:
            e = 0.5 * a * a
            C, S = C + e * S, S + e * (q2 - q3)
    if not (rule and shift):
        z = a * a + z
        q2, q3 = _sums(z, coef[:, :2], wide)
        C = 1.0 + z * q2
        S = 1.0 + z * q3
    Sa = S * a
    return (C + Sa, S * h, S * hc, C - Sa), factors


def _guard_rule_poles(z: np.ndarray, tol: float, label):
    """Raise RangeError where a density cell's z = h^2 cbar lies so near a pole
    of the rule's factors that their rounding passes tol.

    The factors of `_cell` divide by 1 + S and by Q3 = (S - 1) / z.  Both
    vanish only past _Z_MAX (first at |z| = 22.8 and 63.9), where S is
    summed in closed form with a rounding of about eps |S|, which the
    divisions amplify by |S| / |1 + S| and |S| / |S - 1|.  `z` has shape
    (rows, cells, cases); the rows are checked in order, and the first
    whose worst cell passes tol raises, naming that cell's case k by label(k).
    """
    big = np.abs(z) > _Z_MAX
    if not big.any():
        return
    x = np.sqrt(z[big].astype(complex))  # complex: a real z < 0 has an imaginary root
    S = np.sinh(x) / x
    amp = np.zeros(z.shape)
    with np.errstate(divide="ignore"):
        amp[big] = np.abs(S) / np.minimum(np.abs(1.0 + S), np.abs(S - 1.0))
    over = np.flatnonzero(_EPS * amp.reshape(len(z), -1).max(axis=1) > tol)
    if len(over):
        r = over[0]
        i = int(np.argmax(amp[r]))
        raise RangeError(
            f"{label(i % z.shape[2])}: a density cell (h^2 cbar = "
            f"{complex(z[r].flat[i]):.6g}) sits next to a pole of the fitted rule, whose rounding there "
            f"({_EPS * amp[r].flat[i]:.1e}) exceeds the grid tolerance {tol:.0e}"
        )


def _density_terms(h, d0, d1):
    """(h m / 2, h e / 2, h^2 m / 2, h^2 e / 2) for a density running from d0 to d1
    over a cell of width h, with m = (d0 + d1) / 2 and e = d1 - d0."""
    a1 = 0.25 * h * (d0 + d1)
    a2 = 0.5 * h * (d1 - d0)
    return a1, a2, h * a1, h * a2


def _rule_weights(terms, factors):
    """((y, y') weights at a cell's start, (y, y') weights at its end).

    The exponentially fitted rule (Ixaru and Vanden Berghe 2004): with
    kappa^2 = cbar, the function in span{cosh kt, sinh kt / k, t sinh kt / k,
    (t cosh kt - sinh kt / k) / k^2} that matches y and y' at both ends of the
    cell is integrated exactly against the cell's linear density.  The span
    holds every solution of y'' = cbar y and becomes the cubics as
    kappa h -> 0, where the rule is cubic Hermite.  Splitting the cell at
    its middle into even and odd parts gives, for `terms` from
    `_density_terms` and `factors` from `_cell`,

        int d y = h m (f1 y_mean + h f2 y'_half) + h e (f3 y_half + h f4 y'_mean),

    with y_mean, y'_mean the end means and y_half, y'_half half the
    end-to-end rises.  The rule is symmetric in the cell's ends, and a
    backward cell (h < 0) gives the integral from its start to its end.
    """
    a1, a2, b1, b2 = terms
    f1, f2, f3, f4 = factors
    u, v = a1 * f1, a2 * f3
    start_y = u - v
    u += v
    v = None
    p, r = b1 * f2, b2 * f4
    start_d = r - p
    r += p
    return [start_y, start_d], [u, r]


def fitted_density_weights(grid, dens, cbar=None) -> tuple[np.ndarray, np.ndarray]:
    """Node weights (Wy, Wd) of the exponentially fitted density rule on `grid`.

    `dens`, shape (2, n-1), holds a density's values at each cell's left and
    right end (`measure.density_node_weights`); `cbar`, shape (n-1,), each
    cell's mean of q - lambda (None for 0, the cubic Hermite rule).  These
    are the weights a sweep folds in at that lambda.  Like the sweep, it
    raises RangeError where a cell sits so near a pole of the rule that the
    rounding there passes a tolerance, here GridSpec's default tol.
    """
    grid = np.asarray(grid, dtype=float)
    h = np.diff(grid)[:, None]
    cbar = np.zeros(h.shape) if cbar is None else np.asarray(cbar, dtype=complex).reshape(h.shape)
    z = h * h * cbar
    _guard_rule_poles(z[None], GridSpec().tol, lambda k: "density weights on a trace")
    bound = np.abs(z).max(initial=0.0)
    wide = np.array([True]) if bound > _Z_MAX else None
    _, factors = _cell(h, 0.0, cbar, _series_coefficients([bound]), wide, rule=True, shift=True)
    start, end = _rule_weights(_density_terms(h[:, 0], *np.asarray(dens)), [f[:, 0] for f in factors])
    W = np.zeros((2, len(grid)), dtype=complex)
    W[:, :-1] += start
    W[:, 1:] += end
    return W[0], W[1]


def _blocked(ws, reverse: bool, N: int, L: int, B: int):
    """Node weights in sweep order as (F, B + 1, L): node b*L + j at [:, b, j], node N at [:, B, 0].

    None when every entry is None.
    """
    if all(w is None for w in ws):
        return None
    out = np.zeros((len(ws), (B + 1) * L), dtype=np.result_type(*(w for w in ws if w is not None)))
    for f, w in enumerate(ws):
        if w is not None:
            w = np.asarray(w)[::-1] if reverse else np.asarray(w)
            out[f, :N] = w[:N]
            out[f, B * L] = w[N]
    return out.reshape(len(ws), B + 1, L)


def _cells_blocked(ds, reverse: bool, h: np.ndarray, N: int, L: int, B: int):
    """Density terms in sweep order as (4, F, L, B): cell b*L + j at [:, :, j, b].

    Each entry of `ds` is None or a density's values at each cell's left and
    right end, shape (2, N), in ascending grid order.  A backward sweep runs
    each cell from its right end with h < 0, so its densities change sign to
    keep the integral's orientation.  None when every entry is None.
    """
    if all(d is None for d in ds):
        return None
    out = np.zeros((4, len(ds), B * L), dtype=np.result_type(h, *(d for d in ds if d is not None)))
    for f, d in enumerate(ds):
        if d is not None:
            d0, d1 = np.asarray(d)
            if reverse:
                d0, d1 = -d1[::-1], -d0[::-1]
            out[:, f, :N] = _density_terms(h, d0, d1)
    return np.ascontiguousarray(out.reshape(4, len(ds), B, L).transpose(0, 1, 3, 2))


def _exact_real(a):
    """`a` as a float64 copy when every imaginary part is exactly zero, else `a` itself."""
    if a is None or a.dtype.kind != "c" or np.count_nonzero(a.imag):
        return a
    return a.real.copy()


@dataclass(frozen=True, eq=False)
class Discretization:
    """Everything a sweep needs but lambda: the grid, q's step samples and the forms' node weights.

    `samples` holds (q_left, q_mid, q_right) per step, each of shape (n-1, P)
    with one column per candidate potential (P = 1 for one q).
    `weights` lists forms, each (Wy, Wd, D) as `integrate_family` reads them.
    Each of these arrays is stored as float64 when all its imaginary parts
    are exactly zero, as for a real q and real measures, and keeps its
    complex dtype otherwise; a sweep at real lambda then runs in real
    arithmetic.  Each side's sweep layout, everything the sweep derives
    from these, is built on its first use and kept, so a caller that holds one
    discretization per problem pays for it once.  Every sweep of the
    problem shares these arrays, so they are made read-only here: a caller
    that writes into one fails at once instead of moving later values.
    """

    grid: np.ndarray
    spec: GridSpec
    samples: tuple
    weights: tuple
    _layouts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(_exact_real(v) for v in self.samples))
        object.__setattr__(self, "weights", tuple(tuple(_exact_real(w) for w in form) for form in self.weights))
        for a in (self.grid, *self.samples, *(w for form in self.weights for w in form)):
            if a is not None:
                a.flags.writeable = False

    @classmethod
    def build(cls, qs, spec: GridSpec | None, required, weigh) -> "Discretization":
        """The discretization of the potentials `qs`: one, or candidates sharing a grid.

        The grid is `solver_grid` of qs[0] holding the `required` points and
        every other candidate's own, so qs[0]'s columns are its values alone
        on that grid; `weigh`, unless None, maps the grid to the forms' node
        weights.
        """
        spec = spec or GridSpec()
        qs = list(qs)
        extra = [*required, *(q.required_points() for q in qs[1:])]
        grid = solver_grid(qs[0], spec, extra)
        samples = [q.step_samples(grid) for q in qs]
        samples = tuple(np.stack([s[i] for s in samples], axis=1) for i in range(3))
        return cls(grid, spec, samples, tuple(weigh(grid)) if weigh else ())

    def piece(self, lo: int, hi: int, weigh) -> "Discretization":
        """The discretization of grid[lo:hi] alone, its forms given by `weigh` as in `build`."""
        grid = self.grid[lo:hi]
        samples = tuple(v[lo : hi - 1] for v in self.samples)
        return Discretization(grid, self.spec, samples, tuple(weigh(grid)))

    def _layout(self, side: str) -> "_Layout":
        if side not in self._layouts:
            self._layouts[side] = _Layout(self, side == "Z")
        return self._layouts[side]


class _Layout:
    """The lambda-free part of a sweep from one side, in sweep order.

    Step t goes from sweep node t to t + 1; step N, one past the end, has
    h = 0 and so the identity matrix.  Steps sit in blocks of L = ceil(sqrt(N)),
    step b L + j at steps[j, b], and the forms' node weights and density
    terms are blocked to match (`_blocked`, `_cells_blocked`).
    """

    def __init__(self, disc: Discretization, reverse: bool):
        grid, ws = disc.grid, disc.weights
        N = len(grid) - 1
        self.h = h = np.append(-np.diff(grid)[::-1] if reverse else np.diff(grid), 0.0)[:, None]
        qa, qm, qb = disc.samples
        sa, sm, sb = (qb[::-1], qm[::-1], qa[::-1]) if reverse else (qa, qm, qb)
        pad = np.zeros((1, sm.shape[1]))
        # times 1/6 and 1/12 rather than divided by 6 and 12: complex division by a real
        # multiplies by its reciprocal, so real and complex samples round alike
        self.qbar = np.concatenate([(sa + 4.0 * sm + sb) * (1.0 / 6.0), pad])  # (N + 1, P)
        self.a = -(h**2) * np.concatenate([sb - sa, pad]) * (1.0 / 12.0)  # lambda cancels in c_b - c_a
        # per column, the lambda-free part of the series bound, and the largest |a|
        self.z_free = (np.abs(self.a) ** 2 + h**2 * np.abs(self.qbar)).max(axis=0)
        self.h2_max, self.a_max = float(np.max(h**2)), np.abs(self.a).max(axis=0)
        self.L = L = max(1, ceil(N**0.5))
        self.B = B = -(-N // L)
        self.steps = np.minimum(np.arange(L)[:, None] + np.arange(B) * L, N)
        self.Wy, self.Wd = Ws = [_blocked([w[i] for w in ws], reverse, N, L, B) for i in (0, 1)]
        self.dens = dens = _cells_blocked([w[2] for w in ws], reverse, h[:N, 0], N, L, B)
        self.rule_at = dens.any(axis=(0, 1, 3)) if dens is not None else np.zeros(L, dtype=bool)
        # (W, 0 for y or 1 for y', the offsets W weighs) per weighted variable
        self.nodes = [(W, v, W[:, :B].any(axis=(0, 1))) for v, W in enumerate(Ws) if W is not None]
        self.used = np.zeros((len(ws), B + 1), dtype=bool)  # the block starts each form weighs
        for W, _, _ in self.nodes:
            self.used |= W.any(axis=2)
        if dens is not None:
            cells = dens.any(axis=(0, 2))  # blocks holding a density cell, which weighs the next start too
            self.used[:, :B] |= cells
            self.used[:, 1:] |= cells


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises RangeError in pass 2
def integrate_family(
    disc: Discretization,
    lam,
    side: str,
    *,
    store: bool = False,
    q_index=None,
) -> FamilyStore:
    """Integrate the fundamental family over `disc`'s grid.

    side "X" starts at the grid's first node, side "Z" at its last, both with
    the identity initial state [[1, 0], [0, 1]] for (y, y').  `q_index` picks
    each lambda's column of `disc.samples`, to batch over potentials; a
    discretization of one potential needs none.

    Each of `disc.weights` is a form (Wy, Wd, D).  Wy and Wd are node weights
    of shape (n,) in ascending grid order, D a density's values at each
    cell's left and right end, shape (2, n-1); None marks zero.  Entry f
    yields forms[f] = sum_u Wy[u] y(x_u) + Wd[u] y'(x_u) + int D y, the
    integral by the exponentially fitted rule of `_rule_weights` at each
    lambda's own cbar.  `store` keeps every node's state as well, which costs
    O(n m k) memory; meant for single-lambda traces.  It keeps each offset's
    partial products P_j from the first pass and, once the second has carried
    the state to every block start, reads node b L + j as P_j of block b
    times that start: no cell is evaluated twice.  Lambda enters only
    here: the grid, the samples and the blocked weights come from `disc`.

    The cells, the rule's weights, both passes and the stored nodes are
    computed in np.result_type of `disc`'s samples and weights and of lambda,
    taken as real when every lambda of the batch is: float64 for a real
    problem at real lambda.  `forms`, `end` and the stored `y`/`dy` are
    complex either way, and equal the complex path's bit for bit (see the
    module docstring).

    The first pass takes the block offsets in chunks (see _CHUNK), cut where
    offsets with and without density cells meet: the cells, the rule's
    weights and each node's summed weight come from one call per chunk, on
    rows (offset, block).  The loop over offsets keeps only the block
    products and the folds into the forms' coefficients, in offset order, so
    every value is the same whatever the chunking and the batch.

    The second pass gives the state at every block start as a prefix product
    of the block maps, by an inclusive pairwise (Hillis and Steele) scan:
    level s = 1, 2, 4, ... multiplies each block's partial product by the one
    s blocks earlier, all blocks and lambdas in one product, and rescales each
    result per lambda by the power of 2 of max(|y|, |y'| / max(1, |rho|)),
    adding its exponent.  ceil(log2 B) levels replace a loop over the B
    blocks; their order depends on B alone.  A non-finite product after the
    last level raises RangeError, with no numpy warning on the way.
    """
    spec, grid = disc.spec, disc.grid
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    rho = principal_rho(lam)
    _check_budget(rho, float(grid[-1]), spec)
    if side not in ("X", "Z"):
        raise InputError("side must be 'X' or 'Z'")
    lay = disc._layout(side)
    m = len(lam)
    N = len(grid) - 1
    k = 2

    # everything below runs in sweep order: step t goes from sweep node t to t+1
    cols = slice(None) if q_index is None else np.asarray(q_index)
    h_sw, qbar, a_sw = lay.h, lay.qbar[:, cols], lay.a[:, cols]
    # |s^2| <= |a|^2 + h^2 |q_bar| + h^2 |lambda| bounds each lambda's series alone
    z_bound = lay.z_free[cols] + lay.h2_max * np.abs(lam)
    coef = _series_coefficients(z_bound)
    wide = z_bound > _Z_MAX
    wide = wide if wide.any() else None
    shift = float(lay.a_max[cols].max(initial=0.0)) ** 2 <= _A2_SHIFT
    L, B, steps, F = lay.L, lay.B, lay.steps, len(disc.weights)
    Wy, Wd, dens, rule_at, nodes = lay.Wy, lay.Wd, lay.dens, lay.rule_at, lay.nodes
    # the working dtype: float64 when lambda, the samples and the forms are all real
    lam_w = lam if np.count_nonzero(lam.imag) else lam.real
    dt = np.result_type(qbar, lam_w, *(x for x in (Wy, Wd, dens) if x is not None))

    def step_cells(t, rule=False):
        """`_cell` at the steps t, rows of `steps`, in the order of t.ravel()."""
        t = t.ravel()
        cbar = qbar[t] - lam_w
        if rule and wide is not None:
            z = (h_sw[t] ** 2 * cbar[:, wide]).reshape(-1, B, np.count_nonzero(wide))
            _guard_rule_poles(z, spec.tol, lambda k: f"lambda = {lam[wide][k]:.10g}")
        return _cell(h_sw[t], a_sw[t], cbar, coef, wide, rule, shift)

    # pass 1: the product P_j of each block's first j step maps, all blocks at
    # once; node j's weights (w_y, w_d) fold in as the coefficients (cy, cd)
    # of the block-start (y, y') in sum_j w_y y_j + w_d y'_j.  A density's
    # cell j weighs nodes j and j + 1; its share of node j + 1 is carried to
    # the next offset, and from the last offset to the next block's start.
    # The cells, the rule's weights and their sums at each node are evaluated
    # for a chunk of offsets at once, offset j's blocks in rows
    # (j - j0) B to (j - j0 + 1) B (see _CHUNK); a chunk's offsets either all
    # have density cells or none does.
    cy = np.zeros((F, B + 1, m), dtype=dt)
    cd = np.zeros((F, B + 1, m), dtype=dt)
    if Wy is not None:
        cy += Wy[:, :, 0, None]
    if Wd is not None:
        cd += Wd[:, :, 0, None]
    cyB, cdB = cy[:, :B].copy(), cd[:, :B].copy()  # contiguous, for the folds; copied back below
    per_chunk = max(1, _CHUNK // max(1, B * m))  # offsets
    cuts = sorted({*range(0, L, per_chunk), *(1 + np.flatnonzero(np.diff(rule_at))).tolist()})
    carry = P = None
    prods = []  # P_j of offsets 1 .. L - 1, kept by a stored sweep
    for j0, j1 in zip(cuts, [*cuts[1:], L]):
        rule = rule_at[j0]
        Mc, factors = step_cells(steps[j0:j1], rule)
        head, carry = carry, None  # node j0's weights: the end weights of the cell before
        if rule:  # node j's weights: cell j - 1's end weights plus cell j's start weights
            start, end = _rule_weights(dens[:, :, j0:j1].reshape(4, F, (j1 - j0) * B, 1), factors)
            for x, e in zip(start, end):
                e[:, :-B] += x[:, B:]  # nodes j0 + 1 .. j1 - 1, in the rows of cell j - 1
            if head is None:
                head = [x[:, :B] for x in start]
            else:
                for c, x in zip(head, start):
                    c += x[:, :B]
            carry = [e[:, -B:] for e in end]
        factors = start = None
        for i, j in enumerate(range(j0, j1)):
            if i == 0:
                w = head or [None, None]
            elif rule:
                w = [e[:, (i - 1) * B : i * B] for e in end]
            else:
                w = [None, None]
            for W, v, hit in nodes:
                if j and hit[j]:
                    if w[v] is None:
                        w[v] = W[:, :B, j, None]
                    else:
                        w[v] += W[:, :B, j, None]
            M = [x[i * B : (i + 1) * B] for x in Mc]
            if P is None:  # offset 0, the block start itself
                for c, x in zip((cyB, cdB), w):
                    if x is not None:
                        c += x
                P = M
            else:
                if store:
                    prods.append(P)
                for x, a in zip(w, (0, 2)):
                    if x is not None:
                        cyB += x * P[a]
                        cdB += x * P[a + 1]
                P = (
                    M[0] * P[0] + M[1] * P[2],
                    M[0] * P[1] + M[1] * P[3],
                    M[2] * P[0] + M[3] * P[2],
                    M[2] * P[1] + M[3] * P[3],
                )
        Mc = M = head = end = w = x = None  # free this chunk's arrays before the next
    cy[:, :B], cd[:, :B] = cyB, cdB
    if carry is not None:
        cy[:, 1:] += carry[0]
        cd[:, 1:] += carry[1]

    # pass 2: the state at block start b + 1 is the prefix product T_b = P_b ... P_0
    # of the block maps, as the sweep starts from the identity; level s of the
    # scan sets T_b = T_b T_(b-s) for every b >= s at once
    rho_div = np.maximum(1.0, np.abs(rho))

    def renormalized(maps):
        """Scale `maps`, shape (2, 2, blocks, m), in place by 2^-e and return e."""
        a = np.abs(maps)
        peak = np.maximum(a[:, 0], a[:, 1])  # (y, y') rows: the larger of the two columns
        peak[1] /= rho_div
        e = np.frexp(np.maximum(peak[0], peak[1]))[1]
        maps *= np.ldexp(1.0, -e)
        return e

    T = np.stack(P).reshape(2, 2, B, m)  # T[r, c, b]: row r, column c of block b's map
    E = renormalized(T)
    s = 1
    while s < B:
        later = T[:, :, s:]
        Tn = later[:, 0, None] * T[0, :, :-s]
        Tn += later[:, 1, None] * T[1, :, :-s]
        E[s:] += E[:-s] + renormalized(Tn)
        T[:, :, s:] = Tn
        s *= 2
    if not np.isfinite(T).all():
        raise RangeError("solution overflow within one block of steps")
    # (y, y') at each block start, the identity at the first, each of shape (B + 1, m, k)
    start = np.broadcast_to(np.eye(k)[:, :, None, None], (2, k, 1, m))
    Ys, Ds = np.concatenate([start, T], axis=2).transpose(0, 2, 3, 1)
    Es = np.concatenate([np.zeros((1, m), dtype=np.int64), E])
    Ss = Es * log(2.0)
    # the forms' contraction runs in complex whatever dt is: numpy's real einsum sums in another order
    Yc, Dc = Ys.astype(complex, copy=False), Ds.astype(complex, copy=False)

    # each form's sum is scaled to the largest block-start exponent it weighs
    forms = forms_s = None
    if F:
        low = np.iinfo(np.int64).min
        top = np.where(lay.used[..., None], Es, low).max(axis=1)
        top = np.where(top == low, 0, top)
        f = np.ldexp(1.0, np.minimum(Es - top[:, None], 0))
        forms = np.einsum("fbm,bmk->fmk", (cy * f).astype(complex, copy=False), Yc)
        forms += np.einsum("fbm,bmk->fmk", (cd * f).astype(complex, copy=False), Dc)
        forms_s = top * log(2.0)

    # a stored sweep reads node b L + j as P_j of block b times the block's start
    y_st = dy_st = s_st = None
    if store:
        eye = np.broadcast_to(np.array([1.0, 0.0, 0.0, 1.0])[:, None, None], (4, B, m))
        Pj = np.stack([eye, *(np.stack(p) for p in prods)], axis=2)[..., None]  # (4, B, L, m, 1)
        Yb, Db = Ys[:B, None], Ds[:B, None]
        y_st, dy_st = (
            np.concatenate([(p0 * Yb + p1 * Db).reshape(B * L, m, k)[:N], e[B:]])
            for p0, p1, e in ((Pj[0], Pj[1], Ys), (Pj[2], Pj[3], Ds))
        )
        y_st, dy_st = y_st.astype(complex, copy=False), dy_st.astype(complex, copy=False)
        s_st = np.concatenate([np.repeat(Ss[:B], L, axis=0)[:N], Ss[B:]])
        if side == "Z":
            y_st, dy_st, s_st = y_st[::-1], dy_st[::-1], s_st[::-1]

    return FamilyStore(
        grid=grid,
        lam=lam,
        forms=forms,
        forms_s=forms_s,
        y=y_st,
        dy=dy_st,
        s=s_st,
        end=tuple(a[B].copy() for a in (Yc, Dc, Ss)),
    )


def _traces(disc: Discretization, lam, side: str) -> tuple[FamilyStore, list[SolutionTrace]]:
    """One stored single-lambda sweep over `disc` and its two columns' traces; the
    sweep's forms and end state give the characteristic values of those solutions."""
    fam = integrate_family(disc, [lam], side, store=True)
    S = fam.s.max(axis=0)
    E = np.exp(fam.s - S[None, :])[:, 0]
    qbar = disc._layout(side).qbar[:-1, 0]  # sweep order, the identity step N left out
    cbar = (qbar[::-1] if side == "Z" else qbar) - lam
    return fam, [
        SolutionTrace(grid=fam.grid, y=y * E, dy=dy * E, log_scale=float(S[0]), cbar=cbar)
        for y, dy in zip(fam.y[:, 0].T, fam.dy[:, 0].T)
    ]


def modulus_scale(lam, T: float):
    """Natural magnitude envelope (1+|lambda|)^(1/2) * exp(Im rho * T) of characteristic values."""
    arr = np.asarray(lam, dtype=complex)
    tau = np.atleast_1d(principal_rho(arr)).imag
    e = np.clip(tau * T, -700.0, 700.0)
    out = (1.0 + np.abs(np.atleast_1d(arr))) ** 0.5 * np.exp(e)
    return float(out[0]) if arr.ndim == 0 else out
