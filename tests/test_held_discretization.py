"""A problem holds one discretization per GridSpec for as long as it lives.

Repeat evaluations of one problem object build no grid, and their values
equal those of a freshly built equal problem.  The held arrays are
read-only, and nothing that makes a new problem (replace, a dict round trip)
or evaluates candidate lists sees them.
"""

import dataclasses

import numpy as np
import pytest

from nonlocal_sl import BVMeasure, Potential, ProblemSpec
from nonlocal_sl import characteristic, ode_core
from nonlocal_sl.acceptance import _c8_spec
from nonlocal_sl.characteristic import (
    _NAMES,
    _discretize,
    char_batch,
    char_batch_multi,
    char_handle,
    combo_solutions,
    d_sequence,
)
from nonlocal_sl.inversion import _first_n_real
from nonlocal_sl.ode_core import _Z_MAX, Discretization, GridSpec, SpectralPoint
from nonlocal_sl.spectrum_finder import SearchBox, problem_spectrum

T = np.pi
_FIELDS = (*_NAMES, "delta21")
# one lambda whose cells pass the series range, so the closed-form sums are held too
_LAM = np.array([3.0 + 1j, -2.5, 40.0 - 6.0j, 400.0 - 20.0j, 3e5 + 5j])


def _count_grids(monkeypatch):
    """A list that grows by one at every grid build."""
    calls = []
    for mod in (ode_core, characteristic):
        fn = getattr(mod, "solver_grid")
        monkeypatch.setattr(mod, "solver_grid", lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
    return calls


@pytest.fixture(scope="module")
def xi():
    return _first_n_real(_c8_spec(), "omega", 2)


def _evaluate(op, spec, xi):
    """One evaluation of `spec` by `op`, as a value that compares with ==."""
    if op == "char_batch":  # both routes; every field of each batch
        batches = [char_batch(spec, _LAM, route=route) for route in ("Z", "X")]
        return [getattr(cb, name).tolist() for cb in batches for name in _FIELDS]
    if op == "char_handle":
        return char_handle(spec, "delta2")(_LAM).tolist()
    if op == "d_sequence":
        return d_sequence(spec, xi)
    return problem_spectrum(spec, "delta1", SearchBox(0.5, 12.0, -1.0, 1.0)).entries


@pytest.mark.parametrize("op", ["char_batch", "char_handle", "d_sequence", "problem_spectrum"])
def test_a_second_evaluation_builds_no_grid(op, xi, monkeypatch):
    spec = _c8_spec()
    grids = _count_grids(monkeypatch)
    first = _evaluate(op, spec, xi)
    built = len(grids)
    assert built >= 1
    second = _evaluate(op, spec, xi)
    assert len(grids) == built
    assert first == second == _evaluate(op, _c8_spec(), xi)


def test_held_arrays_are_read_only():
    spec = _c8_spec()
    before = char_batch(spec, _LAM)
    disc = _discretize(spec, None)
    assert _discretize(spec, GridSpec()) is disc
    assert np.max(np.diff(disc.grid)) ** 2 * abs(_LAM[-1]) > _Z_MAX
    arrays = [disc.grid, *disc.samples, *(w for form in disc.weights for w in form if w is not None)]
    assert len(arrays) == 8  # the grid, three samples, each form's atoms and density
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[..., 0] = 0.0
    after = char_batch(spec, _LAM)
    for name in _FIELDS:
        assert np.array_equal(getattr(before, name), getattr(after, name))


def test_replace_and_round_trip_start_empty(monkeypatch):
    spec = _c8_spec()
    base = char_batch(spec, _LAM[:3])
    q = Potential.from_cosine(T, [0.4, 0.1])
    moved, copied = dataclasses.replace(spec, q=q), ProblemSpec.from_dict(spec.to_dict())
    assert moved._discretizations == {} and copied._discretizations == {}
    grids = _count_grids(monkeypatch)
    got = char_batch(moved, _LAM[:3])
    assert len(grids) == 1
    trip = char_batch(copied, _LAM[:3])
    assert len(grids) == 2
    want = char_batch(ProblemSpec(q, spec.form1, spec.form2), _LAM[:3])
    assert np.array_equal(got.delta1, want.delta1)
    assert not np.array_equal(got.delta1, base.delta1)
    assert np.array_equal(trip.delta1, base.delta1)


def test_equal_problems_stay_equal_after_one_is_evaluated():
    # problems compare by their potential and forms (each compared by identity)
    a = _c8_spec()
    b = ProblemSpec(a.q, a.form1, a.form2)
    assert a == b and hash(a) == hash(b)
    char_batch(a, _LAM[:2])
    char_handle(a, "omega", GridSpec(tol=1e-8))(_LAM[:2])
    assert len(a._discretizations) == 2 and b._discretizations == {}
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert {a: 1}[b] == 1
    assert dataclasses.replace(a) == a and dataclasses.replace(a)._discretizations == {}


def test_candidate_lists_build_a_grid_per_call(monkeypatch):
    spec = _c8_spec()
    q_list = [spec.q, Potential.from_cosine(T, [0.4, -0.3, 0.2, 0.1])]
    grids = _count_grids(monkeypatch)
    values = [char_batch_multi(spec, _LAM[:4], q_list, [0, 1, 0, 1]).delta1 for _ in range(2)]
    assert len(grids) == 2
    assert spec._discretizations == {}
    assert np.array_equal(*values)


def _density_spec():
    q = Potential.from_cosine(T, [0.3 + 0.1j, -0.2, 0.15j])
    m1 = BVMeasure.with_density(T, [0.0, T], [0.2 - 0.1j, -0.3], jump=1.2, atoms=[(1.3, 0.4 - 0.2j)])
    m2 = BVMeasure.with_density(T, [0.5, 2.5], [0.1j, 0.4], jump=-0.6, atoms=[(2.1, 0.7)])
    return ProblemSpec.with_measures(q, m1, m2)


@pytest.mark.parametrize("lam", [6.0 + 2.0j, 30.0 - 1.0j])
def test_combo_solutions_sweep_the_held_grid(lam, monkeypatch):
    # X1, X2, Z1, Z2 equal the traces of q's own discretization, bit for bit, although the
    # problem's forms carry densities; one grid for both sides, none on a second call
    spec, p = _density_spec(), SpectralPoint.from_lambda(lam)
    swept = []
    traces = characteristic._traces
    monkeypatch.setattr(characteristic, "_traces", lambda *a: swept.extend(traces(*a)) or swept[-2:])
    grids = _count_grids(monkeypatch)
    c = combo_solutions(spec, p)
    assert len(grids) == 1
    extras = [spec.required_points()]
    want = [*traces(Discretization.build([spec.q], None, extras, None), lam, "X")]
    want += traces(Discretization.build([spec.q], None, extras, None), lam, "Z")
    assert len(grids) == 3
    assert len(swept) == 4
    for got, ref in zip(swept, want):
        assert np.array_equal(got.grid, ref.grid)
        assert np.array_equal(got.y, ref.y) and np.array_equal(got.dy, ref.dy)
        assert got.log_scale == ref.log_scale and np.array_equal(got.cbar, ref.cbar)
    again = combo_solutions(spec, p)
    assert len(grids) == 3
    for name in ("phi", "theta", "Phi", "v2"):
        assert np.array_equal(getattr(again, name).y, getattr(c, name).y)
    assert (again.omega, again.M, again.boundary_values) == (c.omega, c.M, c.boundary_values)
