"""The blocked sweep against a plain sequential Magnus loop.

`integrate_family` composes closed-form fourth-order Magnus cells block by
block, summing cosh s and sinh s / s as series.  The reference below builds
each step's exp(Omega) with `scipy.linalg.expm`, so it shares nothing with
that series, and takes the steps one at a time on the state vector,
rescaling on the way; the two agree to rounding once values are compared at
a common log-scale.  Every side, kind of node weights (dense, sparse, on y'
only, at either end node), a density (against the fitted rule's weights at
each lambda, one lambda at a time), stored and unstored sweeps and every
kind of input the library uses are covered, plus a zero-step grid, a
strongly growing case, whose cells pass the series range, and a grid of 67
blocks, whose block starts take seven levels of the sweep's pairwise scan.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from nonlocal_sl import Potential
from nonlocal_sl.errors import RangeError
from nonlocal_sl.ode_core import (
    Discretization,
    GridSpec,
    fitted_density_weights,
    integrate_family,
    principal_rho,
    solver_grid,
)

T = np.pi
REL = 1e-12


def reference_sweep(q, lam, side, grid, q_steps=None):
    """(y, dy, s) at every node in ascending grid order, one Magnus step at a time."""
    lam = np.asarray(lam, dtype=complex)
    rho_div = np.maximum(1.0, np.abs(principal_rho(lam)))
    m, n = len(lam), len(grid)
    qa, qm, qb = q.step_samples(grid) if q_steps is None else q_steps
    y = np.tile([[1.0 + 0j, 0j]], (m, 1))
    d = np.tile([[0j, 1.0 + 0j]], (m, 1))
    s = np.zeros(m)
    ys, ds, ss = [y], [d], [s]
    reverse = side == "Z"
    for i in range(n - 2, -1, -1) if reverse else range(n - 1):
        h = grid[i] - grid[i + 1] if reverse else grid[i + 1] - grid[i]
        c0, c1 = (qb, qa) if reverse else (qa, qb)
        ca, cm, cb = (np.reshape(c[i], (-1,)) - lam for c in (c0, qm, c1))
        a = -h * h * (cb - ca) / 12.0
        omega = np.empty((m, 2, 2), dtype=complex)
        omega[:, 0, 0], omega[:, 0, 1] = a, h
        omega[:, 1, 0], omega[:, 1, 1] = h * (ca + 4.0 * cm + cb) / 6.0, -a
        E = expm(omega)[:, None]
        y, d = E[..., 0, 0] * y + E[..., 0, 1] * d, E[..., 1, 0] * y + E[..., 1, 1] * d
        mag = np.maximum(np.abs(y).max(axis=1), np.abs(d).max(axis=1) / rho_div)
        big = mag > 1e8
        s = s.copy()
        y[big] /= mag[big, None]
        d[big] /= mag[big, None]
        s[big] += np.log(mag[big])
        ys.append(y)
        ds.append(d)
        ss.append(s)
    if reverse:
        ys, ds, ss = ys[::-1], ds[::-1], ss[::-1]
    return np.array(ys), np.array(ds), np.array(ss)


def _mismatch(y, dy, s, ry, rdy, rs, rho):
    """Largest difference, relative to the reference's per-node magnitude."""
    f = np.exp(s - rs)[..., None]
    div = np.maximum(1.0, np.abs(rho))[None, :, None]
    mag = np.maximum(np.abs(ry), np.abs(rdy) / div).max(axis=-1)
    err = np.abs(y * f - ry).max(axis=-1)
    if dy is not None:
        err = np.maximum(err, (np.abs(dy * f - rdy) / div).max(axis=-1))
    return float((err / mag).max())


def _weight_cases(n, rng):
    """Forms (Wy, Wd, D) in ascending grid order; Wy, Wd of shape (n,), D (2, n-1), or None."""

    def draw(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    sparse = np.zeros(n, dtype=complex)
    sparse[sorted({0, n // 3, min(n // 2 + 1, n - 1), max(n - 3, 0)})] = draw(1)[0]
    first, last = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    first[0], last[-1] = 1.0, 0.5 - 2j
    return [
        (draw(n), draw(n), None),  # dense on y and y'
        (sparse, None, None),
        (None, sparse[::-1].copy(), None),  # y' only
        (first, None, None),  # node 0 alone
        (None, last, None),  # the end node alone
        (None, None, draw((2, n - 1))),  # a density with jumps at every node
    ]


def _node_weights(case, grid, cbar):
    """A form as per-lambda node weights (Wy, Wd), each of shape (n, m) or None.

    A density becomes the weights of the fitted rule at each lambda's cbar,
    which `fitted_density_weights` gives one lambda at a time.
    """
    wy, wd, dens = case
    m = cbar.shape[1]
    out = [None if w is None else np.repeat(np.asarray(w)[:, None], m, axis=1) for w in (wy, wd)]
    if dens is not None and len(grid) > 1:
        cols = [fitted_density_weights(grid, dens, cbar[:, j]) for j in range(m)]
        out = [np.stack([c[i] for c in cols], axis=1) for i in (0, 1)]
    return out


def _weighted_mismatch(fam, cases, ry, rdy, rs, grid, cbar):
    """Largest form error, relative to the sum of the absolute terms."""
    worst = 0.0
    for f, case in enumerate(cases):
        wy, wd = _node_weights(case, grid, cbar)
        terms = [(w, r) for w, r in ((wy, ry), (wd, rdy)) if w is not None]
        if not terms:
            assert np.all(fam.forms[f] == 0)
            continue
        used = np.any([np.any(w != 0, axis=1) for w, _ in terms], axis=0)
        S = rs[used].max(axis=0)
        E = np.exp(rs[used] - S)[..., None]
        ref = sum(np.einsum("um,umk->mk", w[used], r[used] * E) for w, r in terms)
        size = sum(np.einsum("um,umk->mk", np.abs(w[used]), np.abs(r[used]) * E) for w, r in terms)
        got = fam.forms[f] * np.exp(fam.forms_s[f] - S)[:, None]
        err = np.abs(got - ref) / np.where(size > 0, size, 1.0)  # exact zeros stay zero
        assert np.all(np.isfinite(err))
        worst = max(worst, float(err.max()))
    return worst


def _disc(qs, grid, spec=None, weights=()):
    """The discretization of `grid` with one column of samples per potential of `qs`."""
    samples = [q.step_samples(grid) for q in qs]
    samples = tuple(np.stack([np.asarray(v[c]) for v in samples], axis=1) for c in range(3))
    return Discretization(grid, spec or GridSpec(), samples, tuple(weights))


def _check_all_modes(q, lam, side, grid, spec=None, qs=None, q_index=None):
    """The sweep of every weight case against the reference; with `qs`, lambda j sees qs[q_index[j]]."""
    q_steps = None if qs is None else tuple(v[:, q_index] for v in _disc(qs, grid).samples)
    ry, rdy, rs = reference_sweep(q, lam, side, grid, q_steps)
    rho = principal_rho(np.asarray(lam, dtype=complex))
    n = len(grid)
    cases = _weight_cases(n, np.random.default_rng(n))
    qa, qm, qb = (np.asarray(v) for v in (q.step_samples(grid) if q_steps is None else q_steps))
    qbar = (qa + 4.0 * qm + qb) / 6.0
    cbar = (qbar[:, None] if qbar.ndim == 1 else qbar) - np.asarray(lam, dtype=complex)
    for store in (False, True):
        fam = integrate_family(_disc(qs or [q], grid, spec, cases), lam, side, store=store, q_index=q_index)
        sl = slice(n - 1, n) if side == "X" else slice(0, 1)  # the node where the sweep ends
        y, dy, s = fam.end
        assert _mismatch(y[None], dy[None], s[None], ry[sl], rdy[sl], rs[sl], rho) <= REL
        assert fam.forms.shape == (len(cases),) + ry.shape[1:]
        assert _weighted_mismatch(fam, cases, ry, rdy, rs, grid, cbar) <= REL
        if not store:
            assert fam.y is None and fam.dy is None and fam.s is None
            continue
        assert fam.y.shape == fam.dy.shape == ry.shape
        assert _mismatch(fam.y, fam.dy, fam.s, ry, rdy, rs, rho) <= REL
    plain = integrate_family(_disc(qs or [q], grid, spec), lam, side, q_index=q_index)
    assert plain.forms is None and plain.forms_s is None


def _cosine():
    return Potential.from_cosine(T, [0.4, -0.7, 0.3, 0.2])


LAMS = np.array([0.3, 17.0, 110.0 + 3j, -40.0, 6.0 + 25j, 250.0 - 1j])


@pytest.mark.parametrize("side", ["X", "Z"])
def test_fundamental_family_matches_sequential_magnus(side):
    q = _cosine()
    grid = solver_grid(q, GridSpec(), [[0.7, 2.0]])
    _check_all_modes(q, LAMS, side, grid)


@pytest.mark.parametrize("side", ["X", "Z"])
def test_complex_piecewise_potential(side):
    q = Potential.from_piecewise([0.0, 1.0, 2.5, T], [1.5 + 0.5j, -2.0, 0.3j])
    grid = solver_grid(q, GridSpec(tol=1e-8))
    _check_all_modes(q, LAMS[:3], side, grid)


@pytest.mark.parametrize("side", ["X", "Z"])
def test_per_column_potential_samples(side):
    qs = [_cosine(), Potential.from_cosine(T, [0.1, 0.5, -0.2, 0.4]), Potential.zero(T)]
    lam = np.array([2.0, 9.5 + 1j, 30.0, -3.0, 14.0])
    idx = np.array([0, 1, 2, 1, 0])
    grid = solver_grid(qs[0], GridSpec())
    _check_all_modes(qs[0], lam, side, grid, qs=qs, q_index=idx)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17])
@pytest.mark.parametrize("side", ["X", "Z"])
def test_short_grids(n, side):
    q = _cosine()
    grid = np.linspace(0.0, 0.8, n)
    _check_all_modes(q, LAMS[:2], side, grid)


def test_zero_step_grid_keeps_identity_state():
    q = _cosine()
    fam = integrate_family(_disc([q], np.array([0.0])), [4.0], "X", store=True)
    assert fam.y.shape == (1, 1, 2) and fam.s.shape == (1, 1)
    assert np.array_equal(fam.y[0, 0] * np.exp(fam.s[0, 0]), [1.0, 0.0])
    assert np.array_equal(fam.dy[0, 0] * np.exp(fam.s[0, 0]), [0.0, 1.0])
    assert np.array_equal(fam.end[0][0], [1.0, 0.0])


def test_end_states_do_not_hold_the_sweep_buffers():
    q = _cosine()
    fam = integrate_family(_disc([q], np.linspace(0.0, T, 401)), LAMS, "X")
    assert all(a.base is None for a in fam.end)
    assert fam.end[0].shape == (len(LAMS), 2) and fam.end[2].shape == (len(LAMS),)


@pytest.mark.parametrize("side", ["X", "Z"])
def test_strong_growth_near_the_budget(side):
    spec = GridSpec(tol=1e-6, tau_T_budget=900.0)
    tau = 890.0 / T
    lam = np.array([(1.5 + 1j * tau) ** 2, -(tau**2), -(tau**2) / 4 + 2j])
    q = _cosine()
    grid = solver_grid(q, spec)
    _check_all_modes(q, lam, side, grid, spec=spec)
    fam = integrate_family(_disc([q], grid, spec), lam, side)
    assert fam.end[2].max() > 800.0
    with pytest.raises(RangeError):
        integrate_family(_disc([q], grid, GridSpec()), lam, side)


@pytest.mark.parametrize("side", ["X", "Z"])
def test_deep_scan_near_the_budget(side):
    # 4,500 steps make 67 blocks of 68: the block starts take seven levels of
    # the pairwise scan, and 67 is no power of two
    spec = GridSpec(tol=1e-6, n_min=4500, tau_T_budget=900.0)
    q = _cosine()
    grid = solver_grid(q, spec)
    lay = _disc([q], grid, spec)._layout(side)
    assert (lay.L, lay.B) == (68, 67)
    lam = np.array([(1.5 + 1j * 890.0 / T) ** 2])
    _check_all_modes(q, lam, side, grid, spec=spec)
