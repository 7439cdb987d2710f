"""Tests for characteristic values, the solution family, and ratio functions.

Point boundary forms with q = 0 give trigonometric closed forms for all four
characteristic functions.  Random nonlocal forms then check that the two
evaluation routes agree, that the named solutions hit their defining boundary
values, and that the ratio functions respect their pole guards.
"""

import numpy as np
import pytest

from nonlocal_sl import BVMeasure, LinearForm, Potential, ProblemSpec
from nonlocal_sl.characteristic import (
    char_batch,
    char_handle,
    combo_solutions,
    d_sequence,
    delta_j,
    omega,
    phi_trace_stable,
    split_identity_check,
    weyl_M,
    weyl_N,
)
from nonlocal_sl.errors import CollinearityError, InputError, PoleProximityError
from nonlocal_sl.ode_core import SpectralPoint, modulus_scale, principal_rho, wronskian

TOL = 1e-7
T = np.pi


def _point(lam):
    return SpectralPoint(complex(lam), complex(principal_rho([lam])[0]))


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

    def test_scalar_wrappers_match_batch(self):
        spec = _dirichlet()
        lam = 6.3 + 0.8j
        b = char_batch(spec, [lam])
        p = _point(lam)
        assert omega(spec, p) == pytest.approx(complex(b.omega[0]), rel=1e-9)
        assert delta_j(spec, 1, p).value == pytest.approx(complex(b.delta1[0]), rel=1e-9)
        assert delta_j(spec, 2, p).value == pytest.approx(complex(b.delta2[0]), rel=1e-9)
        with pytest.raises(InputError):
            delta_j(spec, 3, p)


class TestRouteAgreement:
    def test_random_nonlocal_instances(self):
        rng = np.random.default_rng(21)
        lam = np.array([1.5, 9.0, -4.0 + 3.0j, 25.0 + 1.0j])
        for _ in range(5):
            spec = _random_spec(rng)
            b = char_batch(spec, lam, route="both")
            sc = modulus_scale(lam, T)
            for name in ("omega", "delta1", "delta2", "delta11"):
                main = getattr(b, name)
                alt = b.alt[name]
                assert np.max(np.abs(main - alt) / sc) < TOL

    def test_bad_route_rejected(self):
        with pytest.raises(InputError):
            char_batch(_dirichlet(), [1.0], route="Y")

    @pytest.mark.parametrize("route", ["Z", "X", "both"])
    def test_empty_batch(self, route):
        b = char_batch(_dirichlet(), np.array([], dtype=complex), route=route)
        for name in ("omega", "delta1", "delta2", "delta11"):
            assert getattr(b, name).shape == (0,)
        assert set(b.alt) == (set() if route != "both" else {"omega", "delta1", "delta2", "delta11"})


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
        for x in (0.0, T / 2, T):
            w_theta_phi = complex(wronskian(c.theta, c.phi, x))
            assert abs(w_theta_phi - c.omega) / (sc + abs(c.omega)) < TOL
            w_psi_phi = complex(wronskian(c.psi, c.phi, x))
            assert abs(w_psi_phi - c.delta1) / (sc + abs(c.delta1)) < TOL
            assert complex(wronskian(c.Phi, c.phi, x)) == pytest.approx(1.0, abs=1e-6)
            assert complex(wronskian(c.v1, c.v2, x)) == pytest.approx(1.0, abs=1e-6)

    def test_ratio_definitions(self):
        rng = np.random.default_rng(12)
        spec = _random_spec(rng)
        lam = 5.6 - 1.2j
        c = combo_solutions(spec, _point(lam))
        assert c.M == pytest.approx(c.delta2 / c.delta1, rel=1e-9)
        assert c.N == pytest.approx(c.delta1 / c.delta11, rel=1e-9)
        assert weyl_M(spec, _point(lam)) == pytest.approx(c.M, rel=1e-7)
        assert weyl_N(spec, _point(lam)) == pytest.approx(c.N, rel=1e-7)

    def test_phi_stable_trace_matches_combo(self):
        rng = np.random.default_rng(13)
        spec = _random_spec(rng)
        lam = 30.0 + 12.0j
        p = _point(lam)
        c = combo_solutions(spec, p, need=("phi",))
        tr = phi_trace_stable(spec, p)
        for x in (0.3, 1.5, 2.8):
            ya, _, _ = c.phi.value_at(x)
            yb, _, _ = tr.value_at(x)
            va = ya * np.exp(c.phi.log_scale)
            vb = yb * np.exp(tr.log_scale)
            assert va == pytest.approx(vb, rel=1e-7, abs=1e-12)


class TestRatioPoles:
    def test_weyl_M_pole_guard(self):
        # delta_1 vanishes at lam = 1 for the Dirichlet problem
        with pytest.raises(PoleProximityError):
            weyl_M(_dirichlet(), _point(1.0))

    def test_weyl_N_pole_guard(self):
        # delta_11 = cos(rho pi) vanishes at lam = 1/4
        with pytest.raises(PoleProximityError):
            weyl_N(_dirichlet(), _point(0.25))


class TestDSequence:
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
    rng = np.random.default_rng(31)
    spec = _random_spec(rng)
    rep = split_identity_check(spec, 0.7 * T, _point(6.0 + 2.0j))
    assert abs(rep.residual_delta1) / rep.scale < TOL
    assert abs(rep.residual_delta11) / rep.scale < TOL


def test_split_identity_needs_measure_form():
    spec = _dirichlet()
    with pytest.raises(InputError):
        split_identity_check(spec, 1.0, _point(4.0))


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
