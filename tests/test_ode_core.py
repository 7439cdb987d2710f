"""Integrator tests against closed-form solutions.

With q = 0 the fundamental systems are trigonometric, which pins down the
initial conditions, the branch of rho, the Wronskian normalization, and the
log-scaling used for large |Im rho|.  A constant potential checks the
spectral-shift relation.  Traces are read at their grid nodes only, so each
test asks for its probe points as required grid points.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_sl import Potential
from nonlocal_sl.acceptance import _wronskian
from nonlocal_sl.errors import InputError, RangeError
from nonlocal_sl.ode_core import (
    Discretization,
    GridSpec,
    SpectralPoint,
    _node_index,
    _traces,
    combine_traces,
    fitted_density_weights,
    integrate_family,
    modulus_scale,
    principal_rho,
    solver_grid,
)

TOL = 5e-9
T = np.pi


def _point(lam):
    return SpectralPoint(complex(lam), complex(principal_rho([lam])[0]))


def _sweep(q, lam, side, grid_spec=None, extras=()):
    """The traces of q's fundamental pair at lambda from `side`, on q's grid holding `extras`."""
    return _traces(Discretization.build([q], grid_spec, extras, None), lam, side)[1]


def _true(trace, x):
    y, dy = trace.value_at(x)
    s = np.exp(trace.log_scale)
    return y * s, dy * s


class TestPrincipalBranch:
    def test_positive_real_axis(self):
        rho = principal_rho([4.0, 9.0])
        assert np.allclose(rho, [2.0, 3.0])

    def test_negative_real_axis_maps_up(self):
        rho = principal_rho([-4.0])
        assert rho[0] == pytest.approx(2.0j)

    def test_upper_half_plane_always(self):
        rng = np.random.default_rng(7)
        lam = rng.normal(size=50) * 30 + 1j * rng.normal(size=50) * 10
        rho = principal_rho(lam)
        assert np.all(rho.imag >= 0)
        assert np.allclose(rho * rho, lam, rtol=1e-14)


class TestZeroPotentialClosedForms:
    def test_X_system(self):
        q = Potential.zero(T)
        probes = (0.0, 0.4, 1.1, T)
        for lam in (2.0, 17.3, -5.0, 3.0 + 4.0j):
            p = _point(lam)
            X1, X2 = _sweep(q, p.lam, "X", extras=[probes])
            for x in probes:
                y1, dy1 = _true(X1, x)
                y2, dy2 = _true(X2, x)
                assert y1 == pytest.approx(np.cos(p.rho * x), rel=1e-8, abs=TOL)
                assert dy1 == pytest.approx(-p.rho * np.sin(p.rho * x), rel=1e-8, abs=TOL * 10)
                assert y2 == pytest.approx(np.sin(p.rho * x) / p.rho, rel=1e-8, abs=TOL)
                assert dy2 == pytest.approx(np.cos(p.rho * x), rel=1e-8, abs=TOL)

    def test_Z_system_anchored_at_T(self):
        q = Potential.zero(T)
        p = _point(6.0 + 1.5j)
        x = 0.9
        Z1, Z2 = _sweep(q, p.lam, "Z", extras=[[x]])
        y1T, dy1T = _true(Z1, T)
        y2T, dy2T = _true(Z2, T)
        assert y1T == pytest.approx(1.0, abs=TOL) and dy1T == pytest.approx(0.0, abs=TOL)
        assert y2T == pytest.approx(0.0, abs=TOL) and dy2T == pytest.approx(1.0, abs=TOL)
        y2, _ = _true(Z2, x)
        assert y2 == pytest.approx(np.sin(p.rho * (x - T)) / p.rho, abs=TOL)

    def test_wronskian_is_one_everywhere(self):
        # keep Im rho moderate; the u v' - u' v cancellation grows like
        # eps * exp(2 Im(rho) x) and would dominate for strongly negative lam
        q = Potential.zero(T)
        probes = (0.0, 0.7, 2.2, T)
        for lam in (5.0, -2.0, 2.0 - 3.0j):
            p = _point(lam)
            X1, X2 = _sweep(q, p.lam, "X", extras=[probes])
            assert all(_node_index(X1.grid, x) is not None for x in probes)
            w, _ = _wronskian(X1, X2)  # at every node, the probes among them
            assert np.max(np.abs(w - 1.0)) <= 1e-8


def test_constant_potential_shifts_lambda():
    c = 2.5
    q = Potential.from_cosine(T, [c])
    p = _point(9.0)
    p_shift = _point(9.0 - c)
    x = 1.7
    X1, X2 = _sweep(q, p.lam, "X", extras=[[x]])
    y1, _ = _true(X1, x)
    y2, _ = _true(X2, x)
    assert y1 == pytest.approx(np.cos(p_shift.rho * x), abs=TOL)
    assert y2 == pytest.approx(np.sin(p_shift.rho * x) / p_shift.rho, abs=TOL)


def test_log_scaled_growth_matches_cosh():
    # rho = 40i: cos(rho x) = cosh(40 x) overflows the plain representation
    q = Potential.zero(T)
    p = _point(-1600.0)
    X1, _ = _sweep(q, p.lam, "X")
    y, _ = X1.value_at(T)
    assert np.log(abs(y)) + X1.log_scale == pytest.approx(40.0 * T - np.log(2.0), abs=1e-8)


def test_required_points_become_nodes():
    q = Potential.from_cosine(1.0, [1.0, 0.5])
    X1, _ = _sweep(q, 30.0, "X", extras=[[0.377]])
    assert _node_index(X1.grid, 0.377) is not None


def test_combine_traces_matches_fundamental_combination():
    q = Potential.from_cosine(T, [0.4, -0.3])
    p = _point(12.0 + 2.0j)
    a, b = 1.3 - 0.2j, 0.7j
    x = 2.4
    X1, X2 = _sweep(q, p.lam, "X", extras=[[x]])
    tr = combine_traces([X1, X2], [a, b])
    y, _ = _true(tr, x)
    y1, _ = _true(X1, x)
    y2, _ = _true(X2, x)
    assert y == pytest.approx(a * y1 + b * y2, rel=1e-9)


def test_tau_budget_guard():
    q = Potential.zero(T)
    p = _point(-4.0e6)  # rho = 2000i, tau * T far beyond the default budget
    with pytest.raises(RangeError):
        _sweep(q, p.lam, "X")


@pytest.mark.parametrize("side", ["X", "Z"])
def test_overflow_within_one_block_raises_without_warnings(side):
    # a raised budget admits rho = 2000i, but one block of 8 steps, T / 8 long,
    # grows by about exp(785), past the float range
    disc = Discretization.build([Potential.zero(T)], GridSpec(tau_T_budget=1e4), [], None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match="solution overflow within one block of steps"):
            integrate_family(disc, [-4.0e6], side)


def test_budget_can_be_raised():
    q = Potential.zero(1.0)
    p = SpectralPoint(-640000.0, 800.0j)
    gs = GridSpec(tau_T_budget=900.0)
    X1, _ = _sweep(q, p.lam, "X", gs)
    y, _ = X1.value_at(1.0)
    assert np.log(abs(y)) + X1.log_scale == pytest.approx(800.0 - np.log(2.0), abs=1e-6)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tol", -1e-8),
        ("tol", 0.0),
        ("tol", float("nan")),
        ("tol", float("inf")),
        ("tol", "1e-8"),
        ("tau_T_budget", 0.0),
        ("tau_T_budget", float("nan")),
        ("n_min", 0),
        ("n_min", 8.0),
        ("n_min", True),
    ],
)
def test_grid_spec_rejects_bad_fields(field, value):
    with pytest.raises(InputError, match=f"GridSpec.{field} "):
        GridSpec(**{field: value})


def test_value_at_outside_domain_raises():
    q = Potential.zero(1.0)
    X1, _ = _sweep(q, 4.0, "X")
    with pytest.raises(InputError):
        X1.value_at(1.5)


def test_value_at_between_nodes_raises():
    # a trace holds its nodes only; a point inside the domain off the grid has no value
    q = Potential.zero(1.0)
    X1, _ = _sweep(q, 4.0, "X")
    x = 0.5 * (X1.grid[3] + X1.grid[4])
    with pytest.raises(InputError, match="not a node"):
        X1.value_at(x)


def test_modulus_scale_envelope():
    lam = np.array([100.0, -100.0, 9.0 + 40.0j])
    sc = modulus_scale(lam, 2.0)
    tau = principal_rho(lam).imag
    expected = np.sqrt(1.0 + np.abs(lam)) * np.exp(tau * 2.0)
    assert np.allclose(sc, expected, rtol=1e-12)


_coef = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=30)
@given(
    q_coeffs=st.lists(_coef, min_size=1, max_size=4),
    sigma=st.floats(0.0, 30.0),
    tau_T=st.floats(0.0, 20.0),
)
def test_stored_sweep_keeps_unit_wronskian(q_coeffs, sigma, tau_T):
    # every Magnus cell has determinant 1, so X1 X2' - X1' X2 = 1 holds at every node up to
    # the rounding of its two products
    q = Potential.from_cosine(T, q_coeffs)
    lam = complex(sigma, tau_T / T) ** 2
    fam = integrate_family(Discretization.build([q], GridSpec(), (), None), [lam], "X", store=True)
    y, d, e2 = fam.y[:, 0], fam.dy[:, 0], np.exp(2.0 * fam.s[:, 0])
    w = (y[:, 0] * d[:, 1] - d[:, 0] * y[:, 1]) * e2
    size = (np.abs(y[:, 0] * d[:, 1]) + np.abs(d[:, 0] * y[:, 1])) * e2
    assert np.all(np.abs(w - 1.0) <= 1e-12 * size)


def test_steps_beyond_the_series_range_use_the_closed_form():
    # one step of h = 3 at lambda = 100 has |s^2| = 900, far past the series range, and the cell
    # summed in closed form is still exact for q = 0
    q, grid = Potential.zero(3.0), np.array([0.0, 3.0])
    disc = Discretization(grid, GridSpec(), tuple(v[:, None] for v in q.step_samples(grid)), ())
    fam = integrate_family(disc, [100.0], "X")
    assert fam.end[0][0, 0] * np.exp(fam.end[2][0]) == pytest.approx(np.cos(30.0), abs=1e-12)


def test_step_law():
    # h_q = (720 tol / (T K_q))^(1/4) for q, and no step term in |rho|: q = 0 takes n_min steps
    gs = GridSpec(tol=1e-8)
    plain = solver_grid(Potential.zero(T), gs)
    assert len(plain) - 1 == gs.n_min
    grid_q = Potential.from_grid(np.linspace(0.0, T, 3), [0.0, 40.0, 0.0])  # K_q = 80 / pi
    h_q = (720.0 * gs.tol / (T * grid_q.derivative_bound())) ** 0.25
    assert len(solver_grid(grid_q, gs)) - 1 == int(np.ceil(T / h_q))
    piecewise = Potential.from_piecewise([0.0, T / 2, T], [0.0, 40.0])  # K_q = 0
    assert np.array_equal(solver_grid(piecewise, gs), np.union1d(plain, [T / 2]))


def _cell_sums(z, closed):
    """(C, S, A, B, C', D) of one cell with h = 1 and cbar = z, by the series or in closed form."""
    from nonlocal_sl.ode_core import _Z_MAX, _cell, _series_coefficients

    wide = np.array([True]) if closed else None
    (m11, m12, _, m22), rule = _cell(
        np.ones((1, 1)), 0.0, np.array([[z]]), _series_coefficients([_Z_MAX]), wide, rule=True
    )
    return np.array([0.5 * (m11 + m22), m12, *rule]).ravel()


@pytest.mark.parametrize("phase", np.linspace(0.0, 2.0 * np.pi, 13))
def test_sums_are_continuous_across_the_series_range(phase):
    # at |z| = 16 the series gives way to the closed forms; on the boundary the two agree to
    # rounding, so C, S and the density rule's factors do not jump where the method changes
    z = 16.0 * (1.0 + 1e-15) * np.exp(1j * phase)
    series, closed = _cell_sums(z, False), _cell_sums(z, True)
    assert np.all(np.abs(series - closed) <= 1e-13 * np.maximum(np.abs(series), 1.0))


@pytest.mark.parametrize("kappa2", [0.5, -3.0 + 2.0j, 10.0j, -40.0, 60.0 + 20.0j, 300.0])
def test_fitted_weights_solve_the_interpolation_problem(kappa2):
    # the weights on (y, y') at both ends of a cell [0, h] are M^-T m, with M the basis functions'
    # values and slopes at the ends and m their moments against the linear density, here taken
    # by a 24-point Gauss rule.  The basis e^(k(t-h)), e^(-kt), t e^(k(t-h)), t e^(-kt) spans the
    # rule's space and keeps M well conditioned; h = 0.9 puts the last two cases past |z| = 16
    h, d0, d1 = 0.9, 0.7 - 0.2j, -0.4 + 1.1j
    k = np.sqrt(complex(kappa2))
    k = k if k.real >= 0 else -k
    basis = []
    for sign, shift in ((1.0, h), (-1.0, 0.0)):
        e = lambda t, s=sign, c=shift: np.exp(s * k * (t - c))
        basis.append(lambda t, e=e, s=sign: (e(t), s * k * e(t)))
        basis.append(lambda t, e=e, s=sign: (t * e(t), (1.0 + s * k * t) * e(t)))
    M = np.array([[*u(0.0), *u(h)] for u in basis]).T  # rows: y(0), y'(0), y(h), y'(h)
    x, w = np.polynomial.legendre.leggauss(24)
    t = 0.5 * h * (x + 1.0)
    d = d0 + (d1 - d0) * t / h
    moments = np.array([0.5 * h * np.sum(w * d * u(t)[0]) for u in basis])
    want = np.linalg.solve(M.T, moments)
    Wy, Wd = fitted_density_weights([0.0, h], [[d0], [d1]], [kappa2])
    got = np.array([Wy[0], Wd[0], Wy[1], Wd[1]])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())
