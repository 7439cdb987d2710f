"""A problem holds one discretization per GridSpec for as long as it lives.

Repeat evaluations of one problem object build no grid, and their values
equal those of a freshly built equal problem.  The held arrays are
read-only, and nothing that makes a new problem (replace, a dict round trip)
or evaluates candidate lists sees them.  A stored sweep over the held
discretization evaluates each cell once, and its nodes agree with the point
forms it folds.
"""

import dataclasses

import numpy as np
import pytest

from nonlocal_sl import BVMeasure, LinearForm, Potential, ProblemSpec
from nonlocal_sl import characteristic, ode_core
from nonlocal_sl.acceptance import _c8_spec
from nonlocal_sl.characteristic import (
    _NAMES,
    _char_batch,
    _discretize,
    char_batch,
    char_batch_multi,
    char_handle,
    combo_solutions,
    d_sequence,
)
from nonlocal_sl.inversion import _first_n_real
from nonlocal_sl.ode_core import _Z_MAX, GridSpec, SpectralPoint
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
    if op == "char_batch":  # with the determinant route on the held grid; every field of each batch
        x = _char_batch(ode_core.integrate_family(_discretize(spec, None), _LAM, "X"), "X", spec.T)
        batches = [char_batch(spec, _LAM), x]
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
    # X1, X2, Z1, Z2 equal the traces of the problem's held discretization, forms and all,
    # bit for bit; one grid for both sides, none on a second call, which reuses the layouts
    spec, p = _density_spec(), SpectralPoint.from_lambda(lam)
    swept = []
    traces = characteristic._traces
    monkeypatch.setattr(characteristic, "_traces", lambda *a: (got := traces(*a), swept.extend(got[1]))[0])
    grids = _count_grids(monkeypatch)
    c = combo_solutions(spec, p)
    assert len(grids) == 1
    disc = _discretize(spec, None)
    layouts = dict(disc._layouts)
    assert sorted(layouts) == ["X", "Z"]
    want = [*traces(disc, lam, "X")[1], *traces(disc, lam, "Z")[1]]
    assert len(swept) == 4
    for got, ref in zip(swept, want):
        assert np.array_equal(got.grid, ref.grid)
        assert np.array_equal(got.y, ref.y) and np.array_equal(got.dy, ref.dy)
        assert got.log_scale == ref.log_scale and np.array_equal(got.cbar, ref.cbar)
    again = combo_solutions(spec, p)
    assert len(grids) == 1
    assert all(disc._layouts[side] is layouts[side] for side in layouts)
    for name in ("phi", "theta", "Phi", "v2"):
        assert np.array_equal(getattr(again, name).y, getattr(c, name).y)
    assert (again.omega, again.M, again.boundary_values) == (c.omega, c.M, c.boundary_values)


@pytest.mark.parametrize("lam", [6.0 + 2.0j, 30.0 - 1.0j])
def test_combo_values_are_the_x_route_batch(lam):
    # omega, the deltas, M and N come from the combination's own X sweep, a stored sweep of the
    # held discretization: the same values as an unstored X sweep of it, bit for bit
    spec = _density_spec()
    c = combo_solutions(spec, SpectralPoint.from_lambda(lam))
    cb = _char_batch(ode_core.integrate_family(_discretize(spec, None), [lam], "X"), "X", spec.T)
    for name in _NAMES:
        assert getattr(c, name) == getattr(cb, name)[0]
    for got, (vals, ok) in ((c.M, cb.weyl_M_values()), (c.N, cb.weyl_N_values())):
        assert ok[0] and got == vals[0]


def test_combo_applies_the_forms_to_its_traces_only_for_boundary_values(monkeypatch):
    # two stored sweeps; U1 and U2 applied to each of the six combinations, nothing else
    spec, p = _density_spec(), SpectralPoint.from_lambda(6.0 + 2.0j)
    combo_solutions(spec, p)  # the held discretization is built
    applied, sweeps = [], []
    apply, sweep = LinearForm.apply_sampled, ode_core.integrate_family
    monkeypatch.setattr(LinearForm, "apply_sampled", lambda *a, **k: applied.append(1) or apply(*a, **k))
    monkeypatch.setattr(ode_core, "integrate_family", lambda *a, **k: sweeps.append(k) or sweep(*a, **k))
    combo_solutions(spec, p)
    assert len(applied) == 12
    assert sweeps == [{"store": True}, {"store": True}]


@pytest.mark.parametrize("side", ["X", "Z"])
def test_a_stored_sweep_evaluates_each_cell_once(side, monkeypatch):
    # the stored nodes come from the first pass's products: storing evaluates no cell again
    disc = _discretize(_density_spec(), None)
    calls = []
    cell = ode_core._cell
    monkeypatch.setattr(ode_core, "_cell", lambda *a, **k: calls.append(1) or cell(*a, **k))
    counts = []
    for store in (False, True):
        calls.clear()
        ode_core.integrate_family(disc, [6.0 + 2.0j], side, store=store)
        counts.append(len(calls))
    assert counts[0] >= 1
    assert counts[0] == counts[1]


@pytest.mark.parametrize("lam", [3.7, 12.0 + 2.0j, 150.0 - 40.0j])
@pytest.mark.parametrize("side", ["X", "Z"])
def test_stored_nodes_agree_with_the_sweeps_own_point_folds(lam, side):
    # each node's (y, y') against point forms on them folded by the same weighted sweep: both
    # come from one set of cells, so they differ by the rounding of the fold's sums alone
    disc = _discretize(_density_spec(), None)
    n, F = len(disc.grid), len(disc.weights)
    points = []
    for i in range(n):
        e = np.zeros(n, dtype=complex)
        e[i] = 1.0
        points += [(e, None, None), (None, e, None)]
    fam = ode_core.integrate_family(
        ode_core.Discretization(disc.grid, disc.spec, disc.samples, (*disc.weights, *points)),
        [lam], side, store=True,
    )
    folds = fam.forms[F:, 0] * np.exp(fam.forms_s[F:, 0] - np.repeat(fam.s[:, 0], 2))[:, None]
    rho = max(1.0, abs(ode_core.principal_rho(lam)))
    y, dy = fam.y[:, 0], fam.dy[:, 0] / rho
    scale = np.maximum(np.abs(y), np.abs(dy)).max(axis=1, keepdims=True)
    for got, want in ((folds[0::2], y), (folds[1::2] / rho, dy)):
        assert np.max(np.abs(got - want) / scale) <= 4 * np.finfo(float).eps
