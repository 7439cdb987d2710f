"""Initial-value integration of -y'' + q(x) y = lambda y on [0, T].

The equation is integrated as a first-order system Y' = A Y, A = [[0, 1],
[c, 0]] with c = q - lambda, by the fourth-order Magnus cell (Iserles and
Norsett 1999).  With the step's samples c_a, c_m, c_b at its start, middle
and end, c_bar = (c_a + 4 c_m + c_b) / 6 and a = -h^2 (c_b - c_a) / 12,

    Omega = [[a, h], [h c_bar, -a]],   exp(Omega) = C I + S Omega,

where C = cosh s and S = sinh s / s are even series in s^2 = a^2 + h^2 c_bar.
The cell is exact for constant q, has determinant 1, and its error comes from
the variation of q only.  The step law

    h = min(h_max, q's own cap, h_q, theta / max(1, |rho|)),
    theta = min(theta_cap, 0.5, (720 tol)^(1/4)),
    h_q = (720 tol / (T K_q))^(1/4),

keeps both that error (K_q bounds |q'| + |q''|) and the (rho h)^4 / 720 term
of the endpoint-corrected density quadrature under `tol`.  A sweep
multiplies out blocks of L = ceil(sqrt(N)) steps, all blocks at once, and
carries the state across the block starts, renormalizing it there into a
per-lambda log-scale s (held values are the true solution times exp(-s)).
Boundary forms enter as node weights on y and y': while a block's partial
products are multiplied out, the weights fold into two coefficients per
block that act on the block-start state, so a form costs no node storage.
Only single-lambda traces replay the blocks to keep every node.  One sweep
integrates a whole family of spectral points (and both fundamental columns)
at once; all public entry points are thin wrappers over that core.

Branch convention: rho = sqrt(lambda) with Im rho >= 0, and rho >= 0 when
lambda is real non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, factorial, log

import numpy as np

from .errors import InputError, RangeError
from .potential import Potential

_EDGE_TOL = 1e-12
_MAX_NODES = 2_000_000  # grid cap; |rho| beyond this cannot be integrated stepwise
_EPS = float(np.finfo(float).eps)
# The cell's series in z = s^2 are certified for |z| <= _Z_MAX: there the
# depth below keeps the truncation under eps, and the terms' rounding stays
# under e^4 eps.  Grids from the step law have |rho| h <= theta_cap, so |z|
# stays near theta_cap^2 unless q itself is large.
_Z_MAX = 16.0
_COSH = np.array([1.0 / factorial(2 * k) for k in range(24)])  # cosh s = sum z^k / (2k)!
_SINC = np.array([1.0 / factorial(2 * k + 1) for k in range(24)])  # sinh s / s = sum z^k / (2k+1)!


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

    @property
    def tau(self) -> float:
        """Im rho, the exponential growth rate of solutions."""
        return self.rho.imag


@dataclass(frozen=True)
class GridSpec:
    """Step-size law and overflow guard; the sweep's block length follows from N."""

    tol: float = 1e-10  # target relative accuracy of propagation and density quadrature
    h_max: float | None = None  # absolute cap on the step (default T / n_min)
    n_min: int = 64
    theta_cap: float = 0.35  # cap on |rho| * h per step
    tau_T_budget: float = 600.0  # |Im rho| * T beyond this -> range error

    def coarsened(self, tol: float) -> "GridSpec":
        """Same spec with a looser tolerance (never tighter)."""
        return replace(self, tol=max(self.tol, tol))


def solver_grid(
    q: Potential,
    rho_abs_max: float,
    spec: GridSpec | None = None,
    extra_required=(),
    k_q: float | None = None,
) -> np.ndarray:
    """Node grid on [0, T] resolving the oscillation scale and all marked points.

    The step is h = min(h_max, q.suggested_hmax(), h_q, theta / max(1, |rho|)).
    theta = min(theta_cap, 0.5, (720 tol)^(1/4)) holds the corrected density
    rule's per-cell (rho h)^4 / 720 under tol; h_q = (720 tol / (T K_q))^(1/4)
    does the same for the Magnus cell's error from the variation of q, with
    K_q = q.derivative_bound() unless `k_q` gives it (a sweep over several
    potentials passes their largest).
    """
    spec = spec or GridSpec()
    T = q.T
    r = max(1.0, float(rho_abs_max))
    theta = min(spec.theta_cap, 0.5, (720.0 * spec.tol) ** 0.25)
    h = theta / r
    h_max = spec.h_max if spec.h_max is not None else T / spec.n_min
    q_hmax = q.suggested_hmax()
    if q_hmax is not None:
        h_max = min(h_max, q_hmax)
    k_q = q.derivative_bound() if k_q is None else k_q
    if k_q > 0:
        h_max = min(h_max, (720.0 * spec.tol / (T * k_q)) ** 0.25)
    h = min(h, h_max)
    n = max(spec.n_min, ceil(T / h))
    if n > _MAX_NODES:
        raise RangeError(
            f"|rho| = {r:.3g} needs {n} grid nodes to resolve the oscillation, "
            f"beyond the {_MAX_NODES} node cap"
        )
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


@dataclass(frozen=True, eq=False)
class SolutionTrace:
    """Solution samples on a grid; true values are exp(log_scale) * stored values."""

    grid: np.ndarray
    y: np.ndarray
    dy: np.ndarray
    log_scale: float = 0.0

    def value_at(self, x: float):
        """(y, dy, interpolated) at x; cubic Hermite between nodes, flagged."""
        g = self.grid
        i = int(np.searchsorted(g, x - _EDGE_TOL * max(1.0, g[-1])))
        if i < len(g) and abs(g[i] - x) <= _EDGE_TOL * max(1.0, g[-1]):
            return complex(self.y[i]), complex(self.dy[i]), False
        if x < g[0] or x > g[-1]:
            raise InputError(f"x={x} outside the trace domain [{g[0]}, {g[-1]}]")
        i = min(max(i - 1, 0), len(g) - 2)
        h = g[i + 1] - g[i]
        t = (x - g[i]) / h
        y0, y1 = self.y[i], self.y[i + 1]
        d0, d1 = self.dy[i] * h, self.dy[i + 1] * h
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        yv = h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1
        dv = (
            6 * t * (t - 1) * (y0 - y1) + (3 * t * t - 4 * t + 1) * d0 + t * (3 * t - 2) * d1
        ) / h
        return complex(yv), complex(dv), True


def wronskian(u: SolutionTrace, v: SolutionTrace, x: float) -> complex:
    """u(x) v'(x) - u'(x) v(x), true scale (may raise if the scales overflow)."""
    if len(u.grid) != len(v.grid) or not np.allclose(u.grid, v.grid, rtol=0, atol=1e-12):
        raise InputError("Wronskian requires traces on a shared grid")
    uy, udy, _ = u.value_at(x)
    vy, vdy, _ = v.value_at(x)
    s = u.log_scale + v.log_scale
    if abs(s) > 700.0:
        raise RangeError(f"Wronskian scale exp({s:.1f}) is not representable")
    return complex((uy * vdy - udy * vy) * np.exp(s))


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
    return SolutionTrace(grid=g, y=y, dy=dy, log_scale=S)


# ---------------------------------------------------------------------------
# Batched sweep core


@dataclass(eq=False)
class FamilyStore:
    """Result of one batched sweep: a family of solutions over shared nodes.

    `forms` has shape (F, m, k): one weighted node sum per entry of the
    sweep's `weights`, per spectral point and column, as a mantissa whose true
    value is forms * exp(forms_s)[..., None] with `forms_s` of shape (F, m).
    Only a stored sweep keeps `y`/`dy` at every node, shape (n, m, k) in
    ascending grid order, with the per-node log-scale `s`, shape (n, m).
    Endpoint states are always kept.
    """

    grid: np.ndarray
    lam: np.ndarray
    rho: np.ndarray
    side: str  # "X": initial data at 0; "Z": initial data at T
    forms: np.ndarray | None
    forms_s: np.ndarray | None
    y: np.ndarray | None
    dy: np.ndarray | None
    s: np.ndarray | None
    state0: tuple  # (y, dy, s) at grid[0]
    stateT: tuple  # (y, dy, s) at grid[-1]

    def scale_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp(s - S), S) aligning stored nodes to a common per-lambda scale."""
        S = self.s.max(axis=0)
        return np.exp(self.s - S[None, :]), S


def _check_budget(rho: np.ndarray, T: float, spec: GridSpec):
    tau_max = float(np.max(np.abs(rho.imag))) if rho.size else 0.0
    if tau_max * T > spec.tau_T_budget:
        raise RangeError(
            f"|Im rho| * T = {tau_max * T:.1f} exceeds the overflow budget {spec.tau_T_budget}"
        )


def _series_coefficients(z_bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-lambda coefficients of the cell's series C and S, shape (depth, m).

    A column keeps the fewest terms that hold the truncation under eps for
    |s^2| <= its z_bound, and is padded with zeros past them.  Horner's rule
    then sums each column exactly as it would alone, so a value does not
    depend on the other lambdas of its batch.
    """
    z = np.asarray(z_bound, dtype=float)
    if not np.all(z <= _Z_MAX):
        raise RangeError(
            f"a step has |s^2| up to {float(np.max(z)):.3g}, beyond the Magnus cell's "
            f"certified {_Z_MAX:g}; use a finer grid"
        )
    K = np.arange(1, len(_COSH))[:, None]
    omitted = z**K * _COSH[1:, None]  # the first term left out at depth K
    depth = 1 + np.argmax(omitted <= 0.5 * _EPS, axis=0)
    rows = np.arange(int(depth.max(initial=1)))[:, None]
    keep = rows < depth
    return (
        np.where(keep, _COSH[rows], 0.0),
        np.where(keep, _SINC[rows], 0.0),
    )


def _magnus_cell(h, a, cbar, coef):
    """exp(Omega) for Omega = [[a, h], [h cbar, -a]] as (m11, m12, m21, m22) on (y, y').

    C = cosh s and S = sinh s / s, s^2 = a^2 + h^2 cbar, are summed by
    Horner's rule over the rows of `coef` (from `_series_coefficients`);
    h = 0 gives the identity.
    """
    hc = h * cbar
    z = a * a + h * hc
    cc, sc = coef
    C, S = cc[-1], sc[-1]
    for k in range(len(cc) - 2, -1, -1):
        C = C * z + cc[k]
        S = S * z + sc[k]
    Sa = S * a
    return C + Sa, S * h, S * hc, C - Sa


def _blocked(ws, reverse: bool, N: int, L: int, B: int):
    """Node weights in sweep order as (F, B + 1, L): node b*L + j at [:, b, j], node N at [:, B, 0].

    None when every entry is None.
    """
    if all(w is None for w in ws):
        return None
    out = np.zeros((len(ws), (B + 1) * L), dtype=complex)
    for f, w in enumerate(ws):
        if w is not None:
            w = np.asarray(w)[::-1] if reverse else np.asarray(w)
            out[f, :N] = w[:N]
            out[f, B * L] = w[N]
    return out.reshape(len(ws), B + 1, L)


def integrate_family(
    q: Potential,
    lam,
    side: str,
    grid: np.ndarray,
    spec: GridSpec | None = None,
    *,
    weights=(),
    store: bool = False,
    init: tuple | None = None,
    q_steps: tuple | None = None,
) -> FamilyStore:
    """Integrate the fundamental family (or custom initial data) over `grid`.

    side "X" starts at x=0, side "Z" at x=T, both with the identity initial
    state [[1, 0], [0, 1]] for (y, y') unless `init` gives (y0, dy0) arrays of
    shape (m, k).  `q_steps` may supply precomputed (q_left, q_mid, q_right)
    per step, each of shape (n-1,) or (n-1, m), to batch over potentials.

    `weights` lists forms as node weights (Wy, Wd), each of shape (n,) in
    ascending grid order or None for zero; entry f yields
    forms[f] = sum_u Wy[u] y(x_u) + Wd[u] y'(x_u).  `store` keeps every node's
    state as well, which costs O(n m k) memory; meant for single-lambda traces.
    """
    spec = spec or GridSpec()
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    rho = principal_rho(lam)
    _check_budget(rho, float(grid[-1]), spec)
    if side not in ("X", "Z"):
        raise InputError("side must be 'X' or 'Z'")
    m = len(lam)
    N = len(grid) - 1
    qa, qm, qb = q.step_samples(grid) if q_steps is None else q_steps
    if init is None:
        init = (np.tile([1.0 + 0j, 0j], (m, 1)), np.tile([0j, 1.0 + 0j], (m, 1)))
    y, d = (np.asarray(v, dtype=complex) for v in init)
    y, d = (y[:, None], d[:, None]) if y.ndim == 1 else (y, d)
    k = y.shape[1]

    # everything below runs in sweep order: step t goes from sweep node t to t+1
    reverse = side == "Z"
    # step N, one past the end, has h = 0 and so the identity matrix
    h_sw = np.append(-np.diff(grid)[::-1] if reverse else np.diff(grid), 0.0)[:, None]
    q_sw = [np.asarray(v) for v in ((qb, qm, qa) if reverse else (qa, qm, qb))]
    q_sw = [v[::-1] for v in q_sw] if reverse else q_sw
    sa, sm, sb = (v[:, None] if v.ndim == 1 else v for v in q_sw)  # (N, 1): q shared by every lambda
    pad = np.zeros((1, sm.shape[1]))
    qbar = np.concatenate([(sa + 4.0 * sm + sb) / 6.0, pad])
    a_sw = -(h_sw**2) * np.concatenate([sb - sa, pad]) / 12.0  # lambda cancels in c_b - c_a
    # |s^2| <= |a|^2 + h^2 |q_bar| + h^2 |lambda| bounds each lambda's series alone
    z_own = (np.abs(a_sw) ** 2 + h_sw**2 * np.abs(qbar)).max(axis=0)
    coef = _series_coefficients(z_own + float(np.max(h_sw**2)) * np.abs(lam))

    def step_maps(t):
        t = np.minimum(t, N)
        return _magnus_cell(h_sw[t], a_sw[t], qbar[t] - lam, coef)

    L = max(1, ceil(N**0.5))
    B = -(-N // L)
    starts = np.arange(B) * L
    weights = list(weights)
    F = len(weights)
    Wy, Wd = (_blocked([w[i] for w in weights], reverse, N, L, B) for i in (0, 1))

    # pass 1: the product P_j of each block's first j step maps, all blocks at
    # once; the weights fold in as the coefficients (cy, cd) of the block-start
    # (y, y') in sum_j Wy_j y_j + Wd_j y'_j, skipping offsets no block weighs
    cy = np.zeros((F, B + 1, m), dtype=complex)
    cd = np.zeros((F, B + 1, m), dtype=complex)
    if Wy is not None:
        cy += Wy[:, :, 0, None]
    if Wd is not None:
        cd += Wd[:, :, 0, None]
    folds = [(W, a, W[:, :B].any(axis=(0, 1))) for W, a in ((Wy, 0), (Wd, 2)) if W is not None]
    P = step_maps(starts)
    for j in range(1, L):
        for W, a, hit in folds:
            if hit[j]:
                w = W[:, :B, j, None]
                cy[:, :B] += w * P[a]
                cd[:, :B] += w * P[a + 1]
        M = step_maps(starts + j)
        P = (
            M[0] * P[0] + M[1] * P[2],
            M[0] * P[1] + M[1] * P[3],
            M[2] * P[0] + M[3] * P[2],
            M[2] * P[1] + M[3] * P[3],
        )

    # pass 2: carry the state over the block starts, renormalizing by powers of 2
    rho_div = np.maximum(1.0, np.abs(rho))
    Ys, Ds = np.empty((2, B + 1, m, k), dtype=complex)
    Es = np.zeros((B + 1, m), dtype=np.int64)
    Ys[0], Ds[0] = y, d
    for b in range(B):
        p = [x[b][:, None] for x in P]
        y, d = p[0] * y + p[1] * d, p[2] * y + p[3] * d
        mag = np.maximum(np.abs(y).max(axis=1), np.abs(d).max(axis=1) / rho_div)
        if not np.all(np.isfinite(mag)):
            raise RangeError("solution overflow within one block of steps")
        e = np.frexp(mag)[1]
        f = np.ldexp(1.0, -e)[:, None]
        y, d = y * f, d * f
        Ys[b + 1], Ds[b + 1], Es[b + 1] = y, d, Es[b] + e
    Ss = Es * log(2.0)

    # each form's sum is scaled to the largest block-start exponent it weighs
    forms = forms_s = None
    if F:
        used = np.zeros((F, B + 1), dtype=bool)
        for W, _, _ in folds:
            used |= W.any(axis=2)
        low = np.iinfo(np.int64).min
        top = np.where(used[..., None], Es, low).max(axis=1)
        top = np.where(top == low, 0, top)
        f = np.ldexp(1.0, np.minimum(Es - top[:, None], 0))
        forms = np.einsum("fbm,bmk->fmk", cy * f, Ys) + np.einsum("fbm,bmk->fmk", cd * f, Ds)
        forms_s = top * log(2.0)

    # pass 3: replay every block from its start to keep each node's state
    y_st = dy_st = s_st = None
    if store:
        Yb, Db = Ys[:B], Ds[:B]
        ys, ds = [Yb], [Db]
        for j in range(1, L):
            M = [x[..., None] for x in step_maps(starts + j - 1)]
            Yb, Db = M[0] * Yb + M[1] * Db, M[2] * Yb + M[3] * Db
            ys.append(Yb)
            ds.append(Db)
        y_st, dy_st = (
            np.concatenate([np.stack(v, axis=1).reshape(B * L, m, k)[:N], e[B:]])
            for v, e in ((ys, Ys), (ds, Ds))
        )
        s_st = np.concatenate([np.repeat(Ss[:B], L, axis=0)[:N], Ss[B:]])
        if reverse:
            y_st, dy_st, s_st = y_st[::-1], dy_st[::-1], s_st[::-1]

    ends = tuple(tuple(a[i].copy() for a in (Ys, Ds, Ss)) for i in (0, B))
    state0, stateT = ends[::-1] if reverse else ends
    return FamilyStore(
        grid=grid,
        lam=lam,
        rho=rho,
        side=side,
        forms=forms,
        forms_s=forms_s,
        y=y_st,
        dy=dy_st,
        s=s_st,
        state0=state0,
        stateT=stateT,
    )


def _traces_from_store(fam: FamilyStore) -> list[SolutionTrace]:
    """Per-column SolutionTraces of a stored single-lambda sweep."""
    if fam.y is None or fam.y.shape[1] != 1:
        raise InputError("traces need a stored single-lambda sweep")
    E, S = fam.scale_weights()
    out = []
    for col in range(fam.y.shape[2]):
        out.append(
            SolutionTrace(
                grid=fam.grid,
                y=fam.y[:, 0, col] * E[:, 0],
                dy=fam.dy[:, 0, col] * E[:, 0],
                log_scale=float(S[0]),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Public single-point wrappers


def _prep(q: Potential, p: SpectralPoint, grid_spec, extra_required):
    spec = grid_spec or GridSpec()
    grid = solver_grid(q, abs(p.rho), spec, extra_required)
    return spec, grid


def integrate_ivp(
    q: Potential,
    p: SpectralPoint,
    x0: float,
    y0: complex,
    dy0: complex,
    grid_spec: GridSpec | None = None,
    extra_required=(),
) -> SolutionTrace:
    """Solve -y'' + q y = lambda y with y(x0)=y0, y'(x0)=dy0, x0 an endpoint of [0, T]."""
    for v in (y0, dy0):
        if not np.isfinite(complex(v)):
            raise InputError("initial data must be finite")
    T = q.T
    if abs(x0) <= _EDGE_TOL * max(1.0, T):
        side = "X"
    elif abs(x0 - T) <= _EDGE_TOL * max(1.0, T):
        side = "Z"
    else:
        raise InputError(f"x0 must be an endpoint of [0, {T}], got {x0}")
    spec, grid = _prep(q, p, grid_spec, extra_required)
    fam = integrate_family(
        q,
        [p.lam],
        side,
        grid,
        spec,
        store=True,
        init=(np.asarray([[y0]], dtype=complex), np.asarray([[dy0]], dtype=complex)),
    )
    return _traces_from_store(fam)[0]


def fundamental_X(
    q: Potential,
    p: SpectralPoint,
    grid_spec: GridSpec | None = None,
    extra_required=(),
) -> tuple[SolutionTrace, SolutionTrace]:
    """(X1, X2) with X1(0)=X2'(0)=1, X1'(0)=X2(0)=0."""
    spec, grid = _prep(q, p, grid_spec, extra_required)
    fam = integrate_family(q, [p.lam], "X", grid, spec, store=True)
    t = _traces_from_store(fam)
    return t[0], t[1]


def fundamental_Z(
    q: Potential,
    p: SpectralPoint,
    grid_spec: GridSpec | None = None,
    extra_required=(),
) -> tuple[SolutionTrace, SolutionTrace]:
    """(Z1, Z2) with Z1(T)=Z2'(T)=1, Z1'(T)=Z2(T)=0."""
    spec, grid = _prep(q, p, grid_spec, extra_required)
    fam = integrate_family(q, [p.lam], "Z", grid, spec, store=True)
    t = _traces_from_store(fam)
    return t[0], t[1]


def modulus_scale(lam, T: float):
    """Natural magnitude envelope (1+|lambda|)^(1/2) * exp(Im rho * T) of characteristic values."""
    arr = np.asarray(lam, dtype=complex)
    tau = np.atleast_1d(principal_rho(arr)).imag
    e = np.clip(tau * T, -700.0, 700.0)
    out = (1.0 + np.abs(np.atleast_1d(arr))) ** 0.5 * np.exp(e)
    return float(out[0]) if arr.ndim == 0 else out
