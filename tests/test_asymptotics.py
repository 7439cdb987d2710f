"""Tests for leading-term predictions along rays in the spectral plane.

The q = 0 closed forms make the Delta predictions exact up to machine noise,
cosine potentials give the expected error decay in the sector domain, and
the punctured domain is exercised with explicit pole references.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_sl import BVMeasure, LinearForm, Potential, ProblemSpec, asymptotics, characteristic
from nonlocal_sl.asymptotics import _DEFAULT_RADII, RaySpec, ScaledComplex, asym_report, predict
from nonlocal_sl.errors import InputError, RangeError
from nonlocal_sl.ode_core import SpectralPoint
from nonlocal_sl.spectrum_finder import SearchBox, problem_spectrum

T = np.pi


def _spec(q=None, a=None):
    return ProblemSpec(
        q=q or Potential.zero(T),
        form1=LinearForm.point_value(0.0, 0),
        form2=LinearForm.point_value(T if a is None else a, 0),
    )


def _point_from_rho(rho):
    return SpectralPoint(complex(rho * rho), complex(rho))


class TestScaledComplex:
    def test_round_trip(self):
        v = 3.0 - 4.0j
        s = ScaledComplex.from_value(v)
        assert s.value == pytest.approx(v)
        assert s.log_abs == pytest.approx(np.log(5.0))
        assert s.phase == pytest.approx(np.angle(v))

    def test_over_cancels_scales(self):
        a = ScaledComplex(mantissa=2.0 + 0j, log_scale=500.0)
        b = ScaledComplex(mantissa=4.0 + 0j, log_scale=500.0)
        assert a.over(b) == pytest.approx(0.5)

    def test_value_overflow_guard(self):
        s = ScaledComplex(mantissa=1.0 + 0j, log_scale=800.0)
        with pytest.raises(RangeError):
            s.value

    def test_rel_error_in_scaled_space(self):
        a = ScaledComplex(mantissa=1.0 + 0j, log_scale=300.0)
        b = ScaledComplex(mantissa=1.0 + 1e-6j, log_scale=300.0)
        assert a.rel_error_vs(b) == pytest.approx(1e-6, rel=1e-3)


class TestRaySpecValidation:
    def test_nonpositive_delta(self):
        with pytest.raises(InputError):
            RaySpec.pi_delta(np.pi / 3, delta=0.0)

    def test_sector_angle_range(self):
        with pytest.raises(InputError):
            RaySpec.pi_delta(0.01, delta=0.1)
        with pytest.raises(InputError):
            RaySpec.pi_delta(np.pi - 0.01, delta=0.1)

    def test_radii_must_increase(self):
        with pytest.raises(InputError):
            RaySpec.pi_delta(np.pi / 3, radii=(5.0, 5.0, 10.0))

    def test_punctured_ray_rejects_points_near_reference(self):
        # rho reference at 5 on the real axis; a ray point at radius 5 collides
        with pytest.raises(InputError):
            RaySpec.g_delta(0.0, reference=[25.0], delta=0.5, radii=(5.0, 10.0))

    def test_punctured_ray_accepts_offset_radii(self):
        ray = RaySpec.g_delta(0.0, reference=[25.0], delta=0.4, radii=(5.5, 10.5))
        assert ray.kind == "G_delta"
        assert np.allclose(ray.points(), [5.5, 10.5])


class TestPredictions:
    def test_delta_predictions_exact_for_zero_potential(self):
        spec = _spec()
        rho = 20.0 * np.exp(1j * np.pi / 3)
        p = _point_from_rho(rho)
        pred1 = predict("Delta1", None, p, spec)
        pred11 = predict("Delta11", None, p, spec)
        exact1 = ScaledComplex(mantissa=np.sin(rho * T) / rho * np.exp(-50.0), log_scale=50.0)
        exact11 = ScaledComplex(mantissa=np.cos(rho * T) * np.exp(-50.0), log_scale=50.0)
        assert pred1.rel_error_vs(exact1) < 1e-10
        assert pred11.rel_error_vs(exact11) < 1e-10

    def test_x_domain_validation(self):
        spec = _spec()
        p = _point_from_rho(6.0 + 6.0j)
        with pytest.raises(InputError):
            predict("Delta1", 1.0, p, spec)  # takes no x
        with pytest.raises(InputError):
            predict("Phi", None, p, spec)  # needs x
        with pytest.raises(InputError):
            predict("Phi", T, p, spec)  # right-open range
        with pytest.raises(InputError):
            predict("varphi", -0.1, p, spec)
        predict("v1", T, p, spec)  # endpoint allowed here

    @pytest.mark.parametrize("x", ["abc", 1.0 + 0.5j, float("nan"), float("inf")])
    def test_x_must_be_a_finite_real_number(self, x):
        # a non-finite x fails the range check, a non-numeric one the conversion
        spec = _spec()
        p = _point_from_rho(6.0 + 6.0j)
        with pytest.raises(InputError):
            predict("Phi", x, p, spec)
        with pytest.raises(InputError):
            asym_report("Phi", x, RaySpec.pi_delta(np.pi / 3, delta=0.1), spec)

    def test_truncated_support_shifts_varphi_domain(self):
        # first form supported on [0, a]: the varphi term needs x >= a/2
        from nonlocal_sl import BVMeasure

        a = 2.0
        m = BVMeasure.from_atoms(T, [(a, 0.7)], jump=1.0)
        spec = ProblemSpec(
            q=Potential.zero(T),
            form1=LinearForm.from_measure(m),
            form2=LinearForm.point_value(T, 0),
        )
        p = _point_from_rho(4.0 + 4.0j)
        with pytest.raises(InputError):
            predict("varphi", 0.5, p, spec)
        predict("varphi", 1.5, p, spec)

    def test_bad_quantity_and_order(self):
        spec = _spec()
        p = _point_from_rho(3.0 + 3.0j)
        with pytest.raises(InputError):
            predict("Delta3", None, p, spec)
        with pytest.raises(InputError):
            predict("Phi", 1.0, p, spec, order=2)


class TestReports:
    @pytest.mark.parametrize(
        "quantity, x, order",
        [
            ("Delta3", None, 0),
            ("Phi", 1.0, 2),
            ("Delta1", None, 1),
            ("Delta11", 1.0, 0),
            ("Phi", None, 0),
            ("Phi", T, 0),
            ("varphi", 0.0, 0),
            ("v2", T, 1),
        ],
    )
    def test_report_rejects_what_predict_rejects(self, quantity, x, order):
        spec, ray = _spec(), RaySpec.pi_delta(np.pi / 3, radii=(5.0, 10.0))
        with pytest.raises(InputError) as want:
            predict(quantity, x, _point_from_rho(3.0 + 3.0j), spec, order)
        with pytest.raises(InputError) as got:
            asym_report(quantity, x, ray, spec, order=order)
        assert str(got.value) == str(want.value)

    def test_zero_potential_bottoms_out_at_floor(self):
        rep = asym_report(
            "Delta1", None, RaySpec.pi_delta(np.pi / 3, radii=(5.0, 10.0, 20.0)), _spec()
        )
        assert rep.decreasing_with_floor(1e-8)
        assert rep.final_rel_error < 1e-8

    def test_cosine_potential_error_decays(self):
        q = Potential.from_cosine(T, [1.0])
        rep = asym_report(
            "Delta1", None, RaySpec.pi_delta(np.pi / 3, radii=(5.0, 10.0, 20.0, 40.0)), _spec(q=q)
        )
        assert rep.decreasing_with_floor(1e-8)
        assert rep.final_rel_error < 0.05
        assert rep.rel_errors[0] > rep.final_rel_error

    def test_pointwise_quantity_report(self):
        q = Potential.from_cosine(T, [0.5, 0.3])
        rep = asym_report(
            "varphi", 1.2, RaySpec.pi_delta(np.pi / 2, radii=(5.0, 10.0, 20.0)), _spec(q=q)
        )
        assert rep.decreasing_with_floor(1e-8)
        assert rep.final_rel_error < 0.05

    def test_punctured_domain_ratio_stays_bounded(self):
        # Phi has poles on the delta_1 zero set; puncture around those rho
        spec = _spec(q=Potential.from_cosine(T, [0.4]))
        lam1 = problem_spectrum(spec, "delta1", SearchBox(0.2, 120.0, -1.0, 1.0)).eigenvalues
        ray = RaySpec.g_delta(0.0, reference=lam1, delta=0.25, radii=(2.5, 5.5, 8.5))
        rep = asym_report("Phi", 1.0, ray, spec)
        assert np.all(rep.ratios <= 10.0 * rep.ratios[0])

    def test_csv_rows_shape(self):
        rep = asym_report("Delta1", None, RaySpec.pi_delta(np.pi / 3, radii=(5.0, 10.0)), _spec())
        table = rep.csv_rows()
        assert table[0][0] == "radius" and table[0][-1] == "ratio"
        assert len(table) == 3 and all(len(row) == 7 for row in table)


def _density_spec():
    """Cosine q; sigma_1 a density on [0, 2] plus a jump and two atoms, so a = 2."""
    m = BVMeasure.with_density(T, [0.0, 2.0], [1.0, 0.5], jump=1.0, atoms=[(0.5, 0.3), (1.0, -0.2)])
    return ProblemSpec(
        q=Potential.from_cosine(T, [0.5, 0.3]),
        form1=LinearForm.from_measure(m),
        form2=LinearForm.point_value(T, 0),
    )


class TestAnchoredValues:
    """varphi and v2 as form values on the fundamental system at x (and at T)."""

    @settings(max_examples=25)
    @given(
        atoms=st.lists(
            st.tuples(st.integers(1, 100), st.floats(-0.5, 0.5).filter(lambda w: abs(w) >= 0.1)),
            min_size=1,
            max_size=3,
            unique_by=lambda a: a[0],
        ),
        u=st.floats(0.0, 0.99),
        angle=st.floats(np.pi / 6, np.pi / 2),
    )
    def test_zero_potential_matches_the_closed_forms(self, atoms, u, angle):
        # q = 0: phi(x) = -sum w sin(rho (t - x)) / rho, phi'(x) = sum w cos(rho (t - x)),
        # delta_11 = sum w cos(rho (t - T)), over the jump (t = 0) and the atoms.  |w| <= 0.5
        # keeps an atom at t = a = 2x from cancelling the jump's term, which it matches in size.
        atoms = sorted((k * T / 100, w) for k, w in atoms)
        sigma = BVMeasure.from_atoms(T, atoms, jump=1.0)
        spec = ProblemSpec(Potential.zero(T), LinearForm.from_measure(sigma), LinearForm.point_value(T, 0))
        a = atoms[-1][0]
        x = a / 2 + u * (T - a / 2)
        t = np.array([0.0] + [p for p, _ in atoms])
        w = np.array([1.0] + [v for _, v in atoms])
        rho = RaySpec.pi_delta(angle).points()[:, None]
        phi = -np.sum(w * np.sin(rho * (t - x)), axis=1) / rho[:, 0], np.sum(w * np.cos(rho * (t - x)), axis=1)
        d11 = np.sum(w * np.cos(rho * (t - T)), axis=1)
        for order in (0, 1):
            for quantity, want in (("varphi", phi[order]), ("v2", phi[order] / d11)):
                rep = asym_report(quantity, x, RaySpec.pi_delta(angle), spec, order=order)
                got = np.array([r.computed.value for r in rep.rows])
                assert np.all(np.abs(got / want - 1.0) <= 1e-12), (quantity, order)

    def test_jump_and_atom_reach_the_rounding_floor(self):
        # the parent's coefficient extraction read 3.00 and 1.02e4 at radii 40 and 80
        sigma = BVMeasure.from_atoms(T, [(1.0, 0.5)], jump=1.0)
        spec = ProblemSpec(Potential.zero(T), LinearForm.from_measure(sigma), LinearForm.point_value(T, 0))
        for order in (0, 1):
            rep = asym_report("varphi", 1.5, RaySpec.pi_delta(np.pi / 2), spec, order=order)
            assert np.all(rep.rel_errors[3:] <= 1e-12)
            assert rep.decreasing_with_floor(1e-12)

    @pytest.mark.parametrize("quantity, x", [("varphi", 1.2), ("v2", 2.7)])
    @pytest.mark.parametrize("order", [0, 1])
    def test_density_form_errors_fall_at_every_radius(self, quantity, x, order):
        rep = asym_report(quantity, x, RaySpec.pi_delta(np.pi / 3), _density_spec(), order=order)
        assert rep.strictly_decreasing
        assert rep.final_rel_error < 0.05

    @pytest.mark.parametrize(
        "quantity, x, sweeps",
        [("varphi", 2.5, 1), ("varphi", 1.2, 2), ("v2", 2.7, 2), ("v2", 1.2, 3), ("v1", 1.2, 1), ("Phi", 1.2, 2)],
    )
    def test_one_sweep_per_part_that_the_form_weighs(self, monkeypatch, quantity, x, sweeps):
        # a = 2: [x, T] holds part of sigma_1 only when x < a; v2 and Phi add one char_batch sweep
        calls = []
        for mod in (asymptotics, characteristic):
            real = mod.integrate_family
            monkeypatch.setattr(
                mod, "integrate_family", lambda *args, _real=real, **kw: calls.append(1) or _real(*args, **kw)
            )
        rep = asym_report(quantity, x, RaySpec.pi_delta(np.pi / 3), _density_spec())
        assert len(rep.rows) == len(_DEFAULT_RADII)
        assert len(calls) == sweeps
