"""Tests for potential construction, evaluation, and transforms."""

import numpy as np
import pytest

from nonlocal_sl import Potential
from nonlocal_sl.errors import InputError

TOL = 1e-12


def test_zero_potential():
    q = Potential.zero(2.0)
    x = np.linspace(0.0, 2.0, 11)
    assert np.max(np.abs(q(x))) == 0.0
    assert q.l1_norm() == 0.0
    assert q.is_real


def test_cosine_evaluation_matches_sum():
    T = np.pi
    coeffs = [0.3, -0.2, 0.1]
    q = Potential.from_cosine(T, coeffs)
    x = np.linspace(0.0, T, 17)
    manual = sum(c * np.cos(k * np.pi * x / T) for k, c in enumerate(coeffs))
    assert np.max(np.abs(q(x) - manual)) < TOL


def test_grid_potential_interpolates_nodes():
    xs = np.array([0.0, 0.5, 1.0, 2.0])
    vals = np.array([1.0, -1.0, 0.5, 2.0])
    q = Potential.from_grid(xs, vals)
    assert np.max(np.abs(q(xs) - vals)) < TOL
    # linear between nodes
    assert q(0.25) == pytest.approx(0.0, abs=TOL)


def test_piecewise_constant_values():
    q = Potential.from_piecewise([0.0, 1.0, 2.0, 3.0], [1.0, -2.0, 0.5])
    assert q(0.5) == pytest.approx(1.0)
    assert q(1.5) == pytest.approx(-2.0)
    assert q(2.5) == pytest.approx(0.5)


def test_shifted_adds_constant():
    q = Potential.from_cosine(np.pi, [0.4, 0.2])
    qs = q.shifted(1.5)
    x = np.linspace(0.0, np.pi, 9)
    assert np.max(np.abs(qs(x) - q(x) - 1.5)) < TOL


def test_reflected_is_an_involution():
    q = Potential.from_cosine(2.0, [0.1, 0.7, -0.3])
    assert q.max_abs_difference(q.reflected().reflected()) < TOL


def test_reflected_evaluates_mirrored():
    T = 2.0
    q = Potential.from_grid([0.0, 0.5, 2.0], [1.0, 3.0, -1.0])
    qr = q.reflected()
    x = np.linspace(0.0, T, 21)
    assert np.max(np.abs(qr(x) - q(T - x))) < 1e-10


def test_l1_norm_closed_form():
    # |cos| integrates to 4/pi per period; with T = pi and one cosine term
    q = Potential.from_cosine(np.pi, [0.0, 2.0])
    assert q.l1_norm() == pytest.approx(4.0, rel=1e-6)


def test_max_abs_difference_detects_perturbation():
    q1 = Potential.from_cosine(1.0, [0.5])
    q2 = Potential.from_cosine(1.0, [0.5 + 1e-3])
    assert q1.max_abs_difference(q2) == pytest.approx(1e-3, rel=1e-6)


def test_step_samples_consistent_with_call():
    q = Potential.from_cosine(1.0, [0.2, -0.5, 0.3])
    grid = np.linspace(0.0, 1.0, 33)
    q_left, q_mid, q_right = q.step_samples(grid)
    mids = 0.5 * (grid[:-1] + grid[1:])
    assert len(q_mid) == len(grid) - 1
    assert np.max(np.abs(q_mid - q(mids))) < TOL
    assert np.max(np.abs(q_left - q(grid[:-1]))) < TOL
    assert np.max(np.abs(q_right - q(grid[1:]))) < TOL


def test_step_samples_piecewise_uses_cell_value():
    q = Potential.from_piecewise([0.0, 0.5, 1.0], [2.0, -1.0])
    grid = np.array([0.0, 0.5, 1.0])
    q_left, q_mid, q_right = q.step_samples(grid)
    # endpoints sit on breakpoints; all three samples come from the midpoint
    assert np.allclose(q_left, [2.0, -1.0])
    assert np.allclose(q_mid, [2.0, -1.0])
    assert np.allclose(q_right, [2.0, -1.0])


def test_suggested_hmax_resolves_highest_frequency():
    assert Potential.from_cosine(np.pi, [0.5]).suggested_hmax() is None
    h1 = Potential.from_cosine(np.pi, [0.0, 1.0]).suggested_hmax()
    h4 = Potential.from_cosine(np.pi, [0.0, 0.0, 0.0, 0.0, 1.0]).suggested_hmax()
    assert h1 == pytest.approx(np.pi / 8.0)
    assert h4 == pytest.approx(np.pi / 32.0)


def test_derivative_bound_per_kind():
    # cos(2x) on (0, pi): |q'| <= 2 and |q''| <= 4 per unit coefficient
    assert Potential.from_cosine(np.pi, [7.0, 0.0, 0.5j]).derivative_bound() == pytest.approx(3.0)
    assert Potential.from_grid([0.0, 0.5, 2.0], [1.0, 2.0, -1.0]).derivative_bound() == pytest.approx(2.0)
    assert Potential.from_piecewise([0.0, 1.0, 2.0], [3.0, -3.0]).derivative_bound() == 0.0


def test_dict_round_trip_all_kinds():
    T = 1.5
    pots = [
        Potential.zero(T),
        Potential.from_cosine(T, [0.3 + 0.1j, -0.2]),
        Potential.from_grid([0.0, 0.6, 1.5], [1.0, 2.0j, -1.0]),
        Potential.from_piecewise([0.0, 0.5, 1.5], [1.0, -1.0 + 0.5j]),
    ]
    x = np.linspace(0.0, T, 13)
    for q in pots:
        q2 = Potential.from_dict(q.to_dict())
        assert q2.kind == q.kind and q2.T == q.T
        assert np.max(np.abs(q2(x) - q(x))) < TOL


def test_is_real_flags_complex_coefficients():
    assert Potential.from_cosine(1.0, [0.5, -0.25]).is_real
    assert not Potential.from_cosine(1.0, [0.5, 0.1j]).is_real


def test_invalid_grid_rejected():
    with pytest.raises(InputError):
        Potential.from_grid([0.0, 0.7, 0.6, 1.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(InputError):
        Potential.from_grid([0.0, 0.5], [1.0, 2.0, 3.0])
    with pytest.raises(InputError):
        Potential.from_piecewise([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
