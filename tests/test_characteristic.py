"""Tests for characteristic values, the solution family, and ratio functions.

Point boundary forms with q = 0 give trigonometric closed forms for all four
characteristic functions.  Random nonlocal forms then check that the two
evaluation routes agree, that the named solutions hit their defining boundary
values, and that the ratio functions respect their pole guards.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_sl import BVMeasure, LinearForm, Potential, ProblemSpec, scenarios
from nonlocal_sl.acceptance import _c8_spec, _c9_truth, _truncation_residual, _wronskian
from nonlocal_sl.asymptotics import _anchored
from nonlocal_sl.characteristic import (
    _NAMES,
    _char_batch,
    _discretize,
    char_batch,
    char_batch_multi,
    char_handle,
    combo_solutions,
    d_sequence,
    node_weights,
)
from nonlocal_sl.errors import CollinearityError, InputError, PoleProximityError, RangeError
from nonlocal_sl.inversion import _first_n_real
from nonlocal_sl.ode_core import (
    _Z_MAX,
    Discretization,
    GridSpec,
    SpectralPoint,
    _traces,
    combine_traces,
    integrate_family,
    modulus_scale,
    principal_rho,
    solver_grid,
)

TOL = 1e-7
T = np.pi
ORACLE = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"


def _point(lam):
    return SpectralPoint(complex(lam), complex(principal_rho([lam])[0]))


def _x_batch(spec, lam):
    """The determinant route's CharBatch: one X-side sweep of the problem's held discretization."""
    return _char_batch(integrate_family(_discretize(spec, None), np.asarray(lam, dtype=complex), "X"), "X", spec.T)


def _dirichlet():
    return ProblemSpec(
        q=Potential.zero(T),
        form1=LinearForm.point_value(0.0, 0),
        form2=LinearForm.point_value(T, 0),
    )


def _random_spec(rng):
    q = Potential.from_cosine(T, rng.normal(0, 0.4, 3) + 1j * rng.normal(0, 0.2, 3))
    m1 = BVMeasure.with_density(
        T,
        [0.0, T],
        [rng.normal(0, 0.3) + 0j, rng.normal(0, 0.3) + 0j],
        jump=complex(rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3)),
        atoms=[(rng.uniform(0.3, 0.9) * T, complex(rng.normal(0, 0.5), rng.normal(0, 0.5)))],
    )
    m2 = BVMeasure.with_density(
        T,
        [0.0, T],
        [rng.normal(0, 0.3) + 0j, rng.normal(0, 0.3) + 0j],
        jump=complex(rng.normal(0, 0.8), rng.normal(0, 0.3)),
        atoms=[(rng.uniform(0.2, 0.8) * T, complex(rng.normal(0, 0.5), 0))],
    )
    return ProblemSpec(q=q, form1=LinearForm.from_measure(m1), form2=LinearForm.from_measure(m2))


class TestClosedForms:
    def test_dirichlet_batch(self):
        spec = _dirichlet()
        lam = np.array([2.0, 7.5, -3.0, 4.0 + 6.0j, 40.0 - 5.0j])
        rho = principal_rho(lam)
        b = char_batch(spec, lam)
        sc = modulus_scale(lam, T)
        assert np.max(np.abs(b.delta1 - np.sin(rho * T) / rho) / sc) < TOL
        assert np.max(np.abs(b.delta11 - np.cos(rho * T)) / sc) < TOL
        assert np.max(np.abs(b.omega - np.sin(rho * T) / rho) / sc) < TOL

    def test_interior_point_delta2(self):
        a = 1.1
        spec = ProblemSpec(
            q=Potential.zero(T),
            form1=LinearForm.point_value(0.0, 0),
            form2=LinearForm.point_value(a, 0),
        )
        lam = np.array([3.0, 11.0, 5.0 - 2.0j])
        rho = principal_rho(lam)
        b = char_batch(spec, lam)
        sc = modulus_scale(lam, T)
        assert np.max(np.abs(b.delta2 - np.sin(rho * (T - a)) / rho) / sc) < TOL

    def test_single_point_routes_match_batch(self):
        spec = _dirichlet()
        lam = 6.3 + 0.8j
        b = char_batch(spec, [lam])
        x = _x_batch(spec, [lam])
        assert complex(x.omega[0]) == pytest.approx(complex(b.omega[0]), rel=1e-9)
        assert complex(x.delta1[0]) == pytest.approx(complex(b.delta1[0]), rel=1e-9)
        assert complex(x.delta2[0]) == pytest.approx(complex(b.delta2[0]), rel=1e-9)
        with pytest.raises(InputError):
            char_handle(spec, "delta3")


class TestRouteAgreement:
    def test_random_nonlocal_instances(self):
        rng = np.random.default_rng(21)
        lam = np.array([1.5, 9.0, -4.0 + 3.0j, 25.0 + 1.0j])
        for _ in range(5):
            spec = _random_spec(rng)
            z, x = char_batch(spec, lam), _x_batch(spec, lam)
            sc = modulus_scale(lam, T)
            for name in ("omega", "delta1", "delta2", "delta11", "delta21"):
                assert np.max(np.abs(getattr(z, name) - getattr(x, name)) / sc) < TOL

    @pytest.mark.parametrize("route", ["Z", "X"])
    def test_empty_batch(self, route):
        b = (char_batch if route == "Z" else _x_batch)(_dirichlet(), np.array([], dtype=complex))
        for name in ("omega", "delta1", "delta2", "delta11", "delta21"):
            assert getattr(b, name).shape == (0,)

    def test_empty_multi_batch(self):
        spec = _dirichlet()
        b = char_batch_multi(spec, np.array([], dtype=complex), [spec.q, Potential.from_cosine(T, [0.3])], [])
        for name in ("omega", "delta1", "delta2", "delta11", "delta21"):
            assert getattr(b, name).shape == (0,)


class TestSolutionFamily:
    def _residual_scale(self, combo, spec):
        return modulus_scale(combo.point.lam, spec.T)

    def test_boundary_value_table(self):
        rng = np.random.default_rng(4)
        spec = _random_spec(rng)
        for lam in (3.7 + 0.9j, 14.0 - 2.0j):
            c = combo_solutions(spec, _point(lam))
            sc = float(modulus_scale(lam, T))
            bv = c.boundary_values

            def near(x, y):
                assert abs(x - y) / (sc + abs(y)) < TOL

            near(bv["phi"]["U1"], 0.0)
            near(bv["phi"]["U2"], c.omega)
            near(bv["phi"]["V1"], c.delta1)
            near(bv["phi"]["V2"], c.delta11)
            near(bv["theta"]["U1"], c.omega)
            near(bv["theta"]["U2"], 0.0)
            near(bv["theta"]["V1"], -c.delta2)
            near(bv["psi"]["U1"], c.delta1)
            near(bv["psi"]["U2"], c.delta2)
            near(bv["psi"]["V1"], 0.0)
            near(bv["psi"]["V2"], -1.0)
            near(bv["v2"]["U1"], 0.0)

    def test_wronskian_normalizations(self):
        rng = np.random.default_rng(11)
        spec = _random_spec(rng)
        lam = 8.2 + 1.4j
        c = combo_solutions(spec, _point(lam))
        sc = float(modulus_scale(lam, T))
        # at every node of the shared grid, 0 and T among them
        w_theta_phi, _ = _wronskian(c.theta, c.phi)
        assert np.max(np.abs(w_theta_phi - c.omega)) / (sc + abs(c.omega)) < TOL
        w_psi_phi, _ = _wronskian(c.psi, c.phi)
        assert np.max(np.abs(w_psi_phi - c.delta1)) / (sc + abs(c.delta1)) < TOL
        assert np.max(np.abs(_wronskian(c.Phi, c.phi)[0] - 1.0)) <= 1e-6
        assert np.max(np.abs(_wronskian(c.v1, c.v2)[0] - 1.0)) <= 1e-6

    def test_ratio_definitions(self):
        rng = np.random.default_rng(12)
        spec = _random_spec(rng)
        lam = 5.6 - 1.2j
        c = combo_solutions(spec, _point(lam))
        assert c.M == pytest.approx(c.delta2 / c.delta1, rel=1e-9)
        assert c.N == pytest.approx(c.delta1 / c.delta11, rel=1e-9)
        b = char_batch(spec, [lam])
        for (vals, ok), want in ((b.weyl_M_values(), c.M), (b.weyl_N_values(), c.N)):
            assert ok[0]
            assert complex(vals[0]) == pytest.approx(want, rel=1e-7)

    def test_anchored_phi_matches_combo(self):
        # phi(x) = -U_1(W_2) and phi'(x) = U_1(W_1) on the fundamental system at x
        rng = np.random.default_rng(13)
        spec = _random_spec(rng)
        lam = 30.0 + 12.0j
        c = combo_solutions(spec, _point(lam))
        grid = c.phi.grid
        for x in grid[np.abs(grid[:, None] - [0.3, 1.5, 2.8]).argmin(axis=0)]:  # the nearest nodes
            ya, da = c.phi.value_at(x)
            w, s = _anchored(spec, spec.form1, x, np.array([lam]))
            f = np.exp(c.phi.log_scale)
            assert ya * f == pytest.approx(-w[0, 1] * np.exp(s[0]), rel=1e-7, abs=1e-12)
            assert da * f == pytest.approx(w[0, 0] * np.exp(s[0]), rel=1e-7, abs=1e-12)


class TestRatioPoles:
    def test_weyl_M_pole_guard(self):
        # delta_1 vanishes at lam = 1 for the Dirichlet problem
        vals, ok = char_batch(_dirichlet(), [1.0]).weyl_M_values()
        assert not ok[0] and np.isnan(vals[0])

    def test_weyl_N_pole_guard(self):
        # delta_11 = cos(rho pi) vanishes at lam = 1/4
        vals, ok = char_batch(_dirichlet(), [0.25]).weyl_N_values()
        assert not ok[0] and np.isnan(vals[0])

    @pytest.mark.parametrize("lam, message", [(1.0, "delta_1.*Phi undefined"), (0.25, "delta_11.*v2 undefined")])
    def test_combo_solutions_name_the_pole(self, lam, message):
        with pytest.raises(PoleProximityError, match=message):
            combo_solutions(_dirichlet(), _point(lam))


def _trace_fit_ratio(spec, lam) -> complex:
    """d with phi = d * theta, fitted by trapezoid-weighted least squares over stored traces.

    phi = u11 X2 - u12 X1 and theta = u22 X1 - u21 X2 are combined from the X traces as
    `combo_solutions` combines them; it needs delta_1 off its pole guard, and at some of
    these omega zeros delta_1 vanishes too.
    """
    fam, (X1, X2) = _traces(_discretize(spec, None), lam, "X")
    (u11, u12), (u21, u22) = (fam.forms * np.exp(fam.forms_s)[..., None])[:, 0]
    phi, theta = combine_traces([X2, X1], [u11, -u12]), combine_traces([X1, X2], [u22, -u21])
    dx = np.diff(phi.grid)
    w = np.concatenate([dx, [0.0]]) / 2.0 + np.concatenate([[0.0], dx]) / 2.0
    f, t = phi.y, theta.y
    r = np.sum(w * np.conj(t) * f) / np.sum(w * np.abs(t) ** 2)
    return complex(r * np.exp(phi.log_scale - theta.log_scale))


def _x_row_ratios(spec, xi) -> np.ndarray:
    """d with (U1(X1), U1(X2)) = -d (U2(X1), U2(X2)), by least squares on one X-route sweep."""

    def weigh(grid):
        return [node_weights(f, grid) for f in (spec.form1, spec.form2)]

    disc = Discretization.build([spec.q], GridSpec(), [spec.required_points()], weigh)
    fam = integrate_family(disc, xi, "X")
    f, t = fam.forms * np.exp(fam.forms_s)[..., None]
    return -np.sum(np.conj(t) * f, axis=1) / np.sum(np.abs(t) ** 2, axis=1)


def _assert_matches_trace_fit(spec, xi):
    seq = d_sequence(spec, xi)
    for lam, r, x_row in zip(xi, seq, _x_row_ratios(spec, np.asarray(xi))):
        assert not r.is_infinite
        want = _trace_fit_ratio(spec, lam)
        assert abs(r.value - want) <= 1e-6 * abs(want)
        assert abs(r.value - x_row) <= 1e-12 * abs(x_row)


class TestDSequence:
    def test_matches_trace_fit_at_criterion_8_zeros(self):
        spec = _c8_spec()
        _assert_matches_trace_fit(spec, _first_n_real(spec, "omega", 6))

    def test_matches_trace_fit_on_counterexample_1(self):
        # both problems of the mirror pair, at omega zeros where delta_1 vanishes too
        cfg, (spec, mirror) = scenarios.build_scenario("counterexample1")
        xi = _first_n_real(spec, "omega", 6, length=spec.T / 2.0)
        for s in (spec, mirror):
            _assert_matches_trace_fit(s, xi)

    def test_dirichlet_signs(self):
        spec = _dirichlet()
        vals = d_sequence(spec, [1.0, 4.0, 9.0])
        signs = [r.value for r in vals]
        assert signs[0] == pytest.approx(1.0, abs=1e-8)
        assert signs[1] == pytest.approx(-1.0, abs=1e-8)
        assert signs[2] == pytest.approx(1.0, abs=1e-8)
        assert all(not r.is_infinite for r in vals)
        assert all(r.defect < 1e-8 for r in vals)

    def test_off_eigenvalue_rejected(self):
        with pytest.raises(CollinearityError):
            d_sequence(_dirichlet(), [2.5])


def test_split_identity_residuals_small():
    # truncating sigma_1 at a and at a / 2 shifts delta_1 and delta_11 by window integrals
    rng = np.random.default_rng(31)
    spec = _random_spec(rng)
    assert _truncation_residual(spec, 6.0 + 2.0j) < TOL


def test_char_handle_is_vectorized():
    spec = _dirichlet()
    f = char_handle(spec, "delta1")
    lam = np.array([2.0, 6.0, 10.0 + 1.0j])
    rho = principal_rho(lam)
    vals = f(lam)
    assert np.max(np.abs(vals - np.sin(rho * T) / rho)) < 1e-7


def test_nonlocal_first_form_requires_jump():
    m = BVMeasure.from_atoms(T, [(1.0, 2.0)], jump=0.0)
    with pytest.raises(InputError):
        ProblemSpec(
            q=Potential.zero(T),
            form1=LinearForm.from_measure(m),
            form2=LinearForm.point_value(T, 0),
        )


def test_point_first_form_at_origin_allowed():
    spec = _dirichlet()
    assert spec.jump_coefficient == 1.0 or spec.jump_coefficient == 1.0 + 0.0j


# ---------------------------------------------------------------------------
# Weighted sweep against forms applied to stored traces

_SLOTS = 997  # form locations are multiples of T / _SLOTS
_coef = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def _forms(draw, needs_y0=False):
    """A point form of order 0/1, or a jump with 0-3 atoms and an optional density segment."""
    if draw(st.booleans()):
        return LinearForm.point_value(draw(st.integers(0, _SLOTS)) * T / _SLOTS, draw(st.integers(0, 1)))
    jump = draw(_coef.filter(lambda z: abs(z) > 0.1) if needs_y0 else _coef)
    slots = sorted(draw(st.lists(st.integers(1, _SLOTS), unique=True, max_size=3)))
    atoms = [(k * T / _SLOTS, draw(_coef)) for k in slots]
    segs = ()
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(st.integers(0, _SLOTS), min_size=2, max_size=2, unique=True)))
        segs = ((lo * T / _SLOTS, hi * T / _SLOTS, draw(_coef), draw(_coef)),)
    return LinearForm.from_measure(BVMeasure(T, jump, tuple(atoms), segs))


@settings(max_examples=40)
@given(
    form1=_forms(needs_y0=True),
    form2=_forms(),
    q_coeffs=st.lists(_coef, min_size=1, max_size=3),
    sigma=st.floats(0.0, 30.0),
    tau_T=st.floats(0.0, 20.0),
)
def test_weighted_sweep_matches_forms_on_traces(form1, form2, q_coeffs, sigma, tau_T):
    spec = ProblemSpec(q=Potential.from_cosine(T, q_coeffs), form1=form1, form2=form2)
    lam = complex(sigma, tau_T / T) ** 2
    b = char_batch(spec, [lam])
    _, (Z1, Z2) = _traces(Discretization.build([spec.q], GridSpec(), [spec.required_points()], None), lam, "Z")

    def apply(form, trace):
        f = np.exp(trace.log_scale)
        return form.apply_sampled(trace.grid, trace.y * f, trace.dy * f, trace.cbar)

    sc = float(modulus_scale(lam, T))
    for got, want in (
        (b.delta1[0], -apply(form1, Z2)),
        (b.delta2[0], -apply(form2, Z2)),
        (b.delta11[0], apply(form1, Z1)),
        (b.delta21[0], apply(form2, Z1)),
    ):
        assert abs(got - want) <= 1e-10 * sc


# ---------------------------------------------------------------------------
# GridSpec.tol against an independent integrator

_C9_LAMS = (1.167, 30.0, 400.0, 2500.0, 900.0 + 30.0j)


def _load_oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through here
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def _c9_reference(lam):
    """Per form of criterion 9: (U(Z1), U(Z2)) and their term scales, by the benchmark's oracle.

    `bench/oracle.py` runs Z1, Z2 from T down to 0 by DOP853 at rtol 1e-12,
    with each density integrated along as J' = d y and its size as
    K' = |d y|; it shares no code with the package.  A term scale is the
    largest of |jump Z(0)|, |w Z(t)| and int |d Z|, or |Z(x0)| for a point form.
    """
    oracle = _load_oracle()
    spec = _c9_truth()
    forms = []
    for f in (spec.form1, spec.form2):
        if f.kind == "point_value":
            forms.append(oracle.FormData(point=(f.x0, f.order)))
        else:
            m = f.measure
            forms.append(oracle.FormData(jump=m.jump_at_zero, atoms=m.atoms, density=m.density_segments))
    return oracle.z_form_values(spec.q.values, T, lam, forms)


@pytest.mark.parametrize("lam", _C9_LAMS)
@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_default_grid_meets_its_tolerance(tol, lam):
    # a jump, an atom and a linear density: the Magnus cell and the corrected density rule
    # together hold the error to the grid's tol, relative to the largest term of the form;
    # delta21 = U2(Z1) is the point value Z1(T/2), relative to its own size
    (u11, u12, s11, s12), (u21, _, s21, _) = _c9_reference(lam)
    spec = _c9_truth()
    b = char_batch_multi(spec, [lam], [spec.q], 0, GridSpec(tol=tol))  # the one-candidate list
    assert abs(b.delta11[0] - u11) <= 10 * tol * s11
    assert abs(-b.delta1[0] - u12) <= 10 * tol * s12
    assert abs(b.delta21[0] - u21) <= 10 * tol * s21


# ---------------------------------------------------------------------------
# A lambda-independent grid

_wide_lam = st.builds(lambda s, t: complex(s, t / T) ** 2, st.floats(0.0, 100.0), st.floats(0.0, 40.0))


@settings(max_examples=30)
@given(lam=_wide_lam, others=st.lists(_wide_lam, max_size=8), pos=st.integers(0, 8))
def test_value_does_not_depend_on_its_batch(lam, others, pos):
    # |lambda| up to 1e4 and Im rho * T up to 40, with densities and atoms in both forms: the
    # grid follows the problem alone, so a value is the same alone or in any batch
    spec = _c8_spec()
    pos = min(pos, len(others))
    alone = char_batch(spec, [lam])
    batch = char_batch(spec, others[:pos] + [lam] + others[pos:])
    for name in (*_NAMES, "delta21"):
        a, b = complex(getattr(alone, name)[0]), complex(getattr(batch, name)[pos])
        assert abs(b - a) <= 1e-14 * abs(a)


def test_first_candidate_values_are_its_values_alone():
    # a candidate list sweeps the grid of its first candidate: next to 3 cos(6 pi x / T), whose
    # K_q is over 20 times criterion 9's, q0's columns are char_batch's values, bit for bit
    spec = _c9_truth()
    rough = Potential.from_cosine(T, [0.0] * 6 + [3.0])
    assert rough.derivative_bound() > 20.0 * spec.q.derivative_bound()
    lam = np.array(_C9_LAMS)
    multi = char_batch_multi(spec, np.concatenate([lam, lam]), [spec.q, rough], np.repeat([0, 1], len(lam)))
    alone = char_batch(spec, lam)
    for name in (*_NAMES, "delta21"):
        assert np.array_equal(getattr(multi, name)[: len(lam)], getattr(alone, name))


@pytest.mark.parametrize("lam", [1.167, 400.0, 1e4, 900.0 + 30.0j])
def test_fitted_density_integrals_match_the_zero_potential(lam):
    # with q = 0 the fundamental solutions are cos(rho t) and sin(rho t) / rho, which the fitted
    # rule integrates exactly against a linear density on the default 64-step grid, where
    # |rho| h reaches 4.9 at lambda = 1e4; the sweep and the rule on a stored trace agree
    a, b = 0.3 - 0.1j, -0.2 + 0.05j
    form = LinearForm.from_measure(BVMeasure.with_density(T, [0.0, T], [a, a + b * T]))
    q = Potential.zero(T)
    disc = Discretization.build([q], GridSpec(), (), lambda g: [node_weights(form, g)])
    grid = disc.grid
    rho = complex(principal_rho(lam))

    def J(k):  # int_0^T (a + b t) e^(k t) dt
        e = np.exp(k * T)
        return a * (e - 1.0) / k + b * (T * e / k - (e - 1.0) / k**2)

    want = [(J(1j * rho) + J(-1j * rho)) / 2.0, (J(1j * rho) - J(-1j * rho)) / (2j * rho)]
    fam = integrate_family(disc, [lam], "X")
    got = fam.forms[0, 0] * np.exp(fam.forms_s[0, 0])
    _, X = _traces(Discretization.build([q], None, (), None), lam, "X")
    on_traces = [
        form.apply_sampled(t.grid, t.y * np.exp(t.log_scale), t.dy * np.exp(t.log_scale), t.cbar)
        for t in X
    ]
    scale = np.exp(abs(rho.imag) * T) * (abs(a) + abs(b) * T) * T / np.array([1.0, max(1.0, abs(rho))])
    assert len(grid) == 65
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    assert np.all(np.abs(np.array(on_traces) - want) <= 1e-13 * scale)


def _pole_spec():
    densities = ([0.3 - 0.1j, -0.2 + 0.05j], [0.1 + 0.2j, 0.4 - 0.1j])
    m1, m2 = (BVMeasure.with_density(T, [0.0, T], d, jump=j) for d, j in zip(densities, (1.0, 0.0)))
    return ProblemSpec(q=Potential.zero(T), form1=LinearForm.from_measure(m1), form2=LinearForm.from_measure(m2))


def test_density_rule_pole_raises():
    # with q = 0 every cell of the default 64-step grid has h^2 cbar = -h^2 lambda; at this
    # lambda that sits on the fitted rule's first pole, 1 + sinh(s) / s = 0 at
    # z = -12.678 + 18.962i.  Unguarded, delta2 missed a 1,024-step grid's value by 1.7e-7
    # relative here, against the grid's 1e-10 target
    spec = _pole_spec()
    lam = 5261.7113 - 7869.4093j
    with pytest.raises(RangeError, match="lambda = 5261.7113-7869.4093j"):
        char_batch(spec, [lam])
    # at 1e-3 relative distance the rounding is amplified ~460-fold and the values hold
    near = lam * (1.0 + 1e-3)
    got, want = char_batch(spec, [near]), char_batch_multi(spec, [near], [spec.q], 0, GridSpec(n_min=1024))
    for name in ("delta1", "delta2", "delta11"):
        a, b = getattr(got, name)[0], getattr(want, name)[0]
        assert abs(a - b) <= 1e-11 * abs(b)


def test_density_rule_pole_raises_on_traces():
    # the same pole on the single-lambda trace path.  Unguarded, the density applied to stored
    # traces of X1, X2 misses a 1,024-step grid's value by 6.2e-7 relative here
    form = LinearForm.from_measure(BVMeasure.with_density(T, [0.0, T], [0.3 - 0.1j, -0.2 + 0.05j]))
    q = Potential.zero(T)

    def on_traces(lam):
        return [
            form.apply_sampled(t.grid, t.y * np.exp(t.log_scale), t.dy * np.exp(t.log_scale), t.cbar)
            for t in _traces(Discretization.build([q], None, (), None), lam, "X")[1]
        ]

    lam = 5261.7113 - 7869.4093j
    with pytest.raises(RangeError, match="density weights on a trace: .* pole of the fitted rule"):
        on_traces(lam)
    assert np.all(np.isfinite(on_traces(lam * (1.0 + 1e-3))))


def test_density_rule_pole_raises_inside_a_large_batch():
    # the same pole among 511 harmless lambda: a batch this large evaluates the sweep's cells
    # one block offset at a time, and the error still names the pole's lambda.  At 9000 the
    # cells pass the series range too (z = -21.7, far from a pole), ahead of the pole's column
    others = np.array([1.0, 0.1j]) @ np.random.default_rng(4).uniform(-100.0, 100.0, (2, 511))
    others[10] = 9000.0
    with pytest.raises(RangeError, match="lambda = 5261.7113-7869.4093j"):
        char_batch(_pole_spec(), np.insert(others, 300, 5261.7113 - 7869.4093j))


def test_value_alone_equals_value_in_a_one_offset_chunk_batch():
    # a lone lambda evaluates the cells of many block offsets per call, a 512-lambda batch
    # those of one offset per call.  Both densities cover fewer cells than a block has
    # offsets, so the lone lambda's chunks also split at offsets without a density cell.
    # The arithmetic behind each value is the same either way, so the values are equal
    q = Potential.from_cosine(T, [0.5, -0.3, 0.2, 0.1])
    m1 = BVMeasure.with_density(T, [1.0, 1.04], [0.3 - 0.1j, -0.2], jump=1.0, atoms=[(1.1, 0.5)])
    m2 = BVMeasure.with_density(T, [2.0, 2.03], [0.1, 0.4j], atoms=[(2.3, 0.9)])
    spec = ProblemSpec(q, LinearForm.from_measure(m1), LinearForm.from_measure(m2))
    grid = solver_grid(q, GridSpec(), extra_required=[spec.required_points()])
    cells = sum(np.count_nonzero(node_weights(f, grid)[2].any(axis=0)) for f in (spec.form1, spec.form2))
    assert cells < np.ceil(np.sqrt(len(grid) - 1))
    rng = np.random.default_rng(5)
    batch = rng.uniform(-400.0, 400.0, 512) + 1j * rng.uniform(-20.0, 20.0, 512)
    batch[[7, 100]] = 2e5 + 5j, 3e5  # cells past the series range, summed in closed form
    big = char_batch(spec, batch)
    for k in (0, 7, 100, 511):
        alone = char_batch(spec, batch[k : k + 1])
        for name in (*_NAMES, "delta21"):
            assert getattr(alone, name)[0] == getattr(big, name)[k]


def test_handle_values_equal_char_batch_values():
    # a handle sweeps the discretization its problem holds, char_batch here that of a second
    # problem built alike: the same grid, samples and weights, so the values are equal, also
    # for cells past the series range
    spec = _c8_spec()
    lam = np.array([3.0 + 1j, 400.0 - 20.0j, 3e5 + 5j])
    grid = solver_grid(spec.q, GridSpec(), extra_required=[spec.required_points()])
    assert np.max(np.diff(grid)) ** 2 * abs(lam[-1]) > _Z_MAX
    batch = char_batch(_c8_spec(), lam)
    for name in _NAMES:
        handle = char_handle(spec, name)
        assert np.array_equal(handle(lam), getattr(batch, name))
        assert handle(lam[-1:])[0] == getattr(batch, name)[-1]
