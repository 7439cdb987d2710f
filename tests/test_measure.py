"""Tests for the bounded-variation measure layer.

Covers construction rules (the jump/atom split at the origin, domain checks),
the Stieltjes integral against closed forms, truncation and window algebra,
form application, and dict round trips.
"""

import numpy as np
import pytest

from nonlocal_sl import BVMeasure, LinearForm
from nonlocal_sl.errors import InputError
from nonlocal_sl.measure import density_node_weights, stieltjes_integrate

TOL = 1e-12


def test_jump_only_integral():
    m = BVMeasure.from_jump(2.0, 1.5 - 0.5j)
    x = np.linspace(0.0, 2.0, 5)
    f = x + 3.0
    # only the jump at 0 contributes: (1.5 - 0.5j) * f(0)
    assert stieltjes_integrate(x, f, m) == pytest.approx((1.5 - 0.5j) * 3.0, abs=TOL)


def test_atoms_integral_exact():
    m = BVMeasure.from_atoms(2.0, [(0.5, 2.0), (1.25, -1.0 + 1.0j)], jump=0.0)
    x = np.array([0.0, 0.5, 1.0, 1.25, 2.0])
    f = x**2
    expected = 2.0 * 0.25 + (-1.0 + 1.0j) * 1.25**2
    assert stieltjes_integrate(x, f, m) == pytest.approx(expected, abs=TOL)


def test_atom_at_origin_rejected():
    with pytest.raises(InputError):
        BVMeasure.from_atoms(1.0, [(0.0, 1.0)])


def test_atom_outside_domain_rejected():
    with pytest.raises(InputError):
        BVMeasure.from_atoms(1.0, [(1.5, 1.0)])


def test_density_trapezoid_is_exact_for_linear_integrand():
    # constant density, linear f: the density rule, exact for cubics, has no error
    m = BVMeasure.with_density(1.0, [0.0, 1.0], [1.0, 1.0], jump=2.0)
    x = np.linspace(0.0, 1.0, 7)
    f = 2.0 * x + 1.0
    expected = 2.0 * 1.0 + 2.0  # jump * f(0) + int_0^1 (2x+1) dx
    assert stieltjes_integrate(x, f, m, np.full(7, 2.0)) == pytest.approx(expected, abs=TOL)


def test_density_without_derivative_samples_raises():
    # a density is integrated only by the sweeps' rule, which reads f'; atoms alone need none
    m = BVMeasure.with_density(1.0, [0.0, 1.0], [1.0, 1.0], jump=2.0)
    x = np.linspace(0.0, 1.0, 7)
    with pytest.raises(InputError, match="derivative samples"):
        stieltjes_integrate(x, x + 1.0, m)
    with pytest.raises(InputError, match="derivative samples"):
        LinearForm.from_measure(m).apply_sampled(x, x + 1.0)
    assert stieltjes_integrate(x, x + 1.0, BVMeasure.from_jump(1.0, 2.0)) == 2.0


def test_corrected_density_rule_is_exact_for_cubic_integrands():
    # given f', the density rule without cbar interpolates f by cubic Hermite, so f = x^2
    # against the density 1 + x integrates exactly, also across a change of step width
    m = BVMeasure.with_density(1.0, [0.0, 1.0], [1.0, 2.0])
    x = np.concatenate([np.linspace(0.0, 0.5, 4), np.linspace(0.6, 1.0, 3)])
    assert stieltjes_integrate(x, x**2, m, 2.0 * x) == pytest.approx(7.0 / 12.0, abs=TOL)


def test_corrected_density_rule_converges_at_fourth_order():
    m = BVMeasure.with_density(1.0, [0.0, 1.0], [1.0, 2.0])
    exact = 2.0 * np.sin(1.0) + np.cos(1.0) - 1.0  # int_0^1 (1 + x) cos(x) dx
    errs = []
    for n in (9, 17, 33):
        x = np.linspace(0.0, 1.0, n)
        errs.append(abs(stieltjes_integrate(x, np.cos(x), m, -np.sin(x)) - exact))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.1)


def test_density_values_per_cell_are_one_sided():
    # a density on [0.4, 2] that jumps at 0.8: each cell holds its own side's value at both ends
    m = BVMeasure.with_density(2.0, [0.4, 0.8, 0.8, 2.0], [1.0, 0.5, 0.2, 1.0 + 1.0j])
    x = np.linspace(0.0, 2.0, 11)
    D = density_node_weights(m, x)
    assert D.shape == (2, 10)
    assert np.all(D[:, :2] == 0)  # cells left of the density
    assert D[:, 2] == pytest.approx([1.0, 0.75]) and D[:, 3] == pytest.approx([0.75, 0.5])
    assert D[:, 4] == pytest.approx([0.2, 0.2 + (0.8 + 1.0j) / 6.0])
    assert D[1, -1] == pytest.approx(1.0 + 1.0j)
    with pytest.raises(InputError, match="missing a density breakpoint"):
        density_node_weights(m, np.linspace(0.0, 2.0, 8))


def test_fitted_rule_on_sampled_solutions_is_exact_for_constant_q():
    # y = cos(rho t) solves y'' = cbar y with cbar = -rho^2: given cbar per cell, the rule
    # integrates it exactly against a linear density on a coarse grid, where cubic Hermite does not
    m = BVMeasure.with_density(2.0, [0.0, 2.0], [1.0, -0.5 + 0.3j])
    rho = 9.0
    x = np.linspace(0.0, 2.0, 9)
    b = (-1.5 + 0.3j) / 2.0  # the density is 1 + b t
    s, c = np.sin(2.0 * rho), np.cos(2.0 * rho)
    exact = s / rho + b * (2.0 * s / rho + (c - 1.0) / rho**2)
    y, dy = np.cos(rho * x), -rho * np.sin(rho * x)
    fitted = stieltjes_integrate(x, y, m, dy, np.full(8, -rho * rho))
    assert fitted == pytest.approx(exact, abs=1e-14)
    assert abs(stieltjes_integrate(x, y, m, dy) - exact) > 1e-3


def test_total_variation_closed_form():
    m = BVMeasure.with_density(1.0, [0.0, 1.0], [1.0, 0.5], jump=2.0, atoms=[(0.4, 1.0)])
    # |jump| + |atom| + int of |density| = 2 + 1 + 3/4
    assert m.total_variation() == pytest.approx(3.75, rel=1e-12)


def test_total_variation_additive_under_partition():
    # nonnegative density, so the quadrature sees no kinks and the split is exact
    m = BVMeasure.with_density(
        2.0, [0.0, 1.0, 2.0], [1.0, 0.4, 0.9], jump=1.0 + 0.5j, atoms=[(0.7, 2.0), (1.6, -3.0)]
    )
    a, b = 0.9, 1.4
    tv_parts = (
        m.truncate(a).total_variation()
        + m.window(a, b).total_variation()
        + m.window(b, 2.0).total_variation()
    )
    assert tv_parts == pytest.approx(m.total_variation(), rel=1e-10)


def test_truncate_drops_later_atoms():
    m = BVMeasure.from_atoms(3.0, [(0.5, 1.0), (2.5, 4.0)], jump=1.0)
    t = m.truncate(1.0)
    assert t.jump_at_zero == 1.0
    assert len(t.atoms) == 1 and t.atoms[0][0] == pytest.approx(0.5)


def test_window_has_no_jump():
    m = BVMeasure.from_atoms(3.0, [(0.5, 1.0), (2.5, 4.0)], jump=7.0)
    w = m.window(1.0, 3.0)
    assert w.jump_at_zero == 0
    assert len(w.atoms) == 1 and w.atoms[0][0] == pytest.approx(2.5)


def test_required_points_cover_atoms_and_breakpoints():
    m = BVMeasure.with_density(2.0, [0.0, 0.8, 2.0], [1.0, 0.0, 1.0], atoms=[(1.3, 1.0)])
    pts = m.required_points()
    for t in (0.8, 1.3):
        assert any(abs(p - t) < 1e-14 for p in pts)


def test_measure_dict_round_trip():
    m = BVMeasure.with_density(
        1.5,
        [0.0, 0.5, 1.5],
        [1.0 + 0.25j, -0.5j, 2.0],
        jump=1.0 - 1.0j,
        atoms=[(0.4, 0.5j), (1.1, -2.0)],
    )
    m2 = BVMeasure.from_dict(m.to_dict(), 1.5)
    assert m2.domain_length == m.domain_length
    assert m2.jump_at_zero == m.jump_at_zero
    assert m2.atoms == m.atoms
    x = np.sort(np.unique(np.concatenate([np.linspace(0.0, 1.5, 31), [0.4, 1.1]])))
    f, df = np.sin(x) + 1.0, np.cos(x)
    assert stieltjes_integrate(x, f, m2, df) == pytest.approx(
        stieltjes_integrate(x, f, m, df), abs=TOL
    )


def test_density_round_trip_preserves_complex_values():
    # regression: density values used to be re-encoded incorrectly on load
    m = BVMeasure.with_density(1.0, [0.0, 1.0], [1.0 + 2.0j, -0.5 + 0.25j])
    m2 = BVMeasure.from_dict(m.to_dict(), 1.0)
    assert m2.to_dict() == m.to_dict()


class TestLinearForm:
    def test_point_form_evaluation(self):
        form = LinearForm.point_value(0.75, 1)
        assert form.kind == "point_value"
        assert form.x0 == 0.75 and form.order == 1

    def test_nonlocal_form_jump_coefficient(self):
        m = BVMeasure.from_atoms(1.0, [(0.5, 2.0)], jump=1.5 + 0.5j)
        form = LinearForm.from_measure(m)
        assert form.jump_coefficient == 1.5 + 0.5j

    def test_apply_sampled_matches_integral(self):
        m = BVMeasure.with_density(1.0, [0.0, 1.0], [1.0, 1.0], jump=2.0, atoms=[(0.5, 1.0)])
        form = LinearForm.from_measure(m)
        x = np.sort(np.unique(np.concatenate([np.linspace(0, 1, 41), [0.5]])))
        f, df = np.cos(x), -np.sin(x)
        assert form.apply_sampled(x, f, df) == pytest.approx(stieltjes_integrate(x, f, m, df), abs=TOL)

    def test_form_dict_round_trip(self):
        m = BVMeasure.with_density(2.0, [0.0, 2.0], [0.5, 1.5], jump=1.0, atoms=[(0.9, 1.0j)])
        for form in (LinearForm.from_measure(m), LinearForm.point_value(1.0, 0)):
            f2 = LinearForm.from_dict(form.to_dict(), 2.0)
            assert f2.kind == form.kind
            if form.kind == "point_value":
                assert (f2.x0, f2.order) == (form.x0, form.order)
            else:
                assert f2.measure.atoms == form.measure.atoms
                assert f2.measure.to_dict() == form.measure.to_dict()

    def test_real_detection(self):
        m_real = BVMeasure.from_atoms(1.0, [(0.5, 2.0)], jump=1.0)
        m_cplx = BVMeasure.from_atoms(1.0, [(0.5, 2.0j)], jump=1.0)
        assert LinearForm.from_measure(m_real).is_real
        assert not LinearForm.from_measure(m_cplx).is_real

    def test_every_lookup_finds_a_node_within_the_grid_scaled_tolerance(self):
        # one lookup, at 1e-12 * max(1, x[-1]): 5e-11 off the node at 50 on [0, 100]
        from nonlocal_sl.characteristic import node_weights

        x = np.linspace(0.0, 100.0, 201)
        f = x**2 + 1j * x
        t = 50.0 + 5e-11
        assert LinearForm.point_value(t).apply_sampled(x, f) == f[100]
        assert LinearForm.point_value(t, 1).apply_sampled(x, f, 2 * x + 0j) == 100.0
        atom = LinearForm.from_measure(BVMeasure.from_atoms(100.0, [(t, 1.0)]))
        assert atom.apply_sampled(x, f) == f[100]
        assert np.flatnonzero(node_weights(LinearForm.point_value(t), x)[0]).tolist() == [100]
        assert np.flatnonzero(node_weights(atom, x)[0]).tolist() == [100]
        with pytest.raises(InputError, match="not sampled at x0"):
            LinearForm.point_value(50.0 + 2e-10).apply_sampled(x, f)
