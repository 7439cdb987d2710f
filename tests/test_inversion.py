"""Tests for inverse-data assembly, residuals, and coefficient recovery.

The two-spectra residual has sharp invariants that pin the implementation
down without any optimizer in the loop: it vanishes at the generating
coefficients, is invariant under reordering of the input eigenvalue lists,
and shifts by exactly c when the potential is shifted by the constant c.
A small Newton recovery run and the data-distance helper close the loop.
"""

import dataclasses

import numpy as np
import pytest

from nonlocal_sl import BVMeasure, LinearForm, Potential, ProblemSpec, scenarios
from nonlocal_sl import characteristic, inversion, ode_core
from nonlocal_sl.acceptance import _c8_spec, _c9_truth
from nonlocal_sl.errors import InputError
from nonlocal_sl.inversion import (
    _FD_STEP,
    _PENALTY,
    BasisSpec,
    _Engine,
    InverseTarget,
    ReconstructOptions,
    _first_n_real,
    distinguishability,
    make_three_spectra_target,
    make_two_spectra_target,
    make_weyl_target,
    reconstruct,
    residual,
)
from nonlocal_sl.spectrum_finder import SearchBox, problem_spectrum

T = np.pi
TRUTH_COEFFS = [0.4, -0.25]


def _count_calls(monkeypatch, name, modules):
    """A list that grows by one at every call of `name` through any of `modules`."""
    calls = []
    for mod in modules:
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
    return calls


def _truth():
    return ProblemSpec(
        q=Potential.from_cosine(T, TRUTH_COEFFS),
        form1=LinearForm.from_measure(BVMeasure.from_atoms(T, [(1.1, 0.6)], jump=1.0)),
        form2=LinearForm.point_value(T, 0),
    )


@pytest.fixture(scope="module")
def truth():
    return _truth()


@pytest.fixture(scope="module")
def target(truth):
    return make_two_spectra_target(truth, 4)


class TestTwoSpectraResidual:
    def test_vanishes_at_generating_coefficients(self, truth, target):
        r = residual(target, TRUTH_COEFFS, truth)
        assert np.linalg.norm(r) < 1e-8

    def test_interleaved_layout(self, truth, target):
        r = residual(target, TRUTH_COEFFS, truth)
        assert len(r) == 2 * target.n_data

    def test_invariant_under_data_reordering(self, truth, target):
        shuffled = dataclasses.replace(
            target,
            lambda1=tuple(reversed(target.lambda1)),
            lambda11=tuple(reversed(target.lambda11)),
        )
        r1 = residual(target, [0.1, 0.3], truth)
        r2 = residual(shuffled, [0.1, 0.3], truth)
        assert np.linalg.norm(r1) == pytest.approx(np.linalg.norm(r2), rel=1e-12)

    def test_constant_shift_moves_every_eigenvalue_by_c(self, truth, target):
        c = 0.5
        r = residual(target, [TRUTH_COEFFS[0] + c, TRUTH_COEFFS[1]], truth)
        assert np.max(np.abs(r[0::2] - c)) < 1e-7
        assert np.max(np.abs(r[1::2])) < 1e-7

    def test_weights_scale_per_datum(self, truth, target):
        w = np.ones(target.n_data)
        w[0] = 3.0
        weighted = dataclasses.replace(target, weights=tuple(w))
        c = [0.9, -0.25]
        r_plain = residual(target, c, truth)
        r_weighted = residual(weighted, c, truth)
        assert r_weighted[0] == pytest.approx(3.0 * r_plain[0], rel=1e-12)
        assert np.allclose(r_weighted[2:], r_plain[2:], rtol=1e-12)

    def test_wrong_coefficient_count_rejected(self, truth, target):
        with pytest.raises(InputError):
            residual(target, [0.1, 0.2, 0.3], truth, basis=BasisSpec.cosine(T, 2))


def test_gradient_consistency(truth, target):
    # central differences at h and h/2 must agree like O(h^2)
    base = np.array([0.2, -0.1])
    direction = np.array([1.0, -0.7])
    direction /= np.linalg.norm(direction)

    def phi(c):
        return residual(target, c, truth)

    h = 1e-3
    g_h = (phi(base + h * direction) - phi(base - h * direction)) / (2 * h)
    g_h2 = (phi(base + 0.5 * h * direction) - phi(base - 0.5 * h * direction)) / h
    num = np.linalg.norm(g_h - g_h2)
    den = np.linalg.norm(g_h2)
    assert num / den < 1e-4


class TestWeylWithD:
    """weyl_pair_with_D data of criterion 8's problem: 12 lambda, 4 omega zeros, cosine dim 4."""

    @pytest.fixture(scope="class")
    def data(self):
        spec = _c8_spec()
        target = make_weyl_target(spec, np.linspace(2.0, 60.0, 12) + 0.7j, with_d=True, n_xi=4)
        return target, spec, spec.q.values.real

    def test_one_sweep_per_residual_call(self, data, monkeypatch):
        target, spec, truth = data
        sweep = characteristic.integrate_family
        calls = []
        monkeypatch.setattr(characteristic, "integrate_family", lambda *a, **k: calls.append(1) or sweep(*a, **k))
        rows = truth + np.vstack([np.zeros(4), 1e-3 * np.eye(4)])
        _Engine(target, spec, BasisSpec.cosine(T, 4)).residuals(rows)
        assert len(calls) == 1

    def test_target_takes_one_sweep(self, data, monkeypatch):
        # M, omega and the d_n of the target come from one batch over the grid and the zeros
        target, spec, _ = data
        xi = tuple(complex(z) for z in target.xi)
        monkeypatch.setattr(inversion, "_first_n_real", lambda *a, **k: xi)
        sweep = characteristic.integrate_family
        calls = []
        monkeypatch.setattr(characteristic, "integrate_family", lambda *a, **k: calls.append(1) or sweep(*a, **k))
        again = make_weyl_target(spec, np.linspace(2.0, 60.0, 12) + 0.7j, with_d=True, n_xi=4)
        assert len(calls) == 1
        assert again == target

    def test_d_data_move_with_every_coefficient(self, data):
        # near the truth no d datum is flagged, and central differences of the d slots at h and
        # h/2 agree like O(h^2) along every coefficient: the d data carry a gradient
        target, spec, truth = data
        base = truth + np.array([0.02, -0.01, 0.015, 0.01])
        h = 1e-3
        steps = np.vstack([s * np.eye(4) for s in (h, -h, h / 2, -h / 2)])
        R, invalid = _Engine(target, spec, BasisSpec.cosine(T, 4), grid_tol=1e-10).residuals(base + steps)
        nd = len(target.xi)
        assert not invalid[:, -nd:].any()
        d = R[:, -2 * nd :].reshape(4, 4, -1)
        g_h = (d[0] - d[1]) / (2 * h)
        g_h2 = (d[2] - d[3]) / h
        for k in range(4):
            assert np.linalg.norm(g_h2[k]) > 1e-3
            assert np.linalg.norm(g_h[k] - g_h2[k]) / np.linalg.norm(g_h2[k]) < 1e-4


def test_target_dict_round_trip(target):
    d = target.to_dict()
    back = InverseTarget.from_dict(d)
    assert back.kind == target.kind
    assert np.allclose(np.asarray(back.lambda1), np.asarray(target.lambda1))
    assert np.allclose(np.asarray(back.lambda11), np.asarray(target.lambda11))
    assert back.n_data == target.n_data


def test_weyl_target_with_d_chart(truth):
    lam_grid = np.linspace(2.0, 40.0, 9) + 0.6j
    t = make_weyl_target(truth, lam_grid, with_d=True, n_xi=3)
    assert len(t.m_values) == len(lam_grid)
    assert len(t.xi) == 3 and len(t.d_values) == 3
    r = residual(t, TRUTH_COEFFS, _truth())
    assert np.linalg.norm(r) < 1e-6


def test_three_spectra_target_needs_plain_jump_form(truth):
    # the first form carries an atom, which this data set does not allow
    with pytest.raises(InputError):
        make_three_spectra_target(truth, 3)


def test_recovery_from_two_spectra(truth, target):
    opts = ReconstructOptions(
        template=dataclasses.replace(truth, q=Potential.zero(T)),
        basis=BasisSpec.cosine(T, 2),
        starts=2,
        tol=1e-9,
        max_iter=40,
        seed=3,
    )
    res = reconstruct(target, np.zeros(2), opts)
    assert res.convergence_flag
    assert np.max(np.abs(np.asarray(res.coeffs) - TRUTH_COEFFS)) < 1e-5
    assert res.residual_norm < 1e-6


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"starts": 0}, "starts must be at least 1"),
        ({"tol": -1.0}, "tol must be a non-negative number"),
        ({"tol": float("nan")}, "tol must be a non-negative number"),
        ({"max_iter": -1}, "max_iter must be at least 0"),
        ({"seed": -1}, "seed must be at least 0"),
    ],
    ids=["starts", "tol_negative", "tol_nan", "max_iter", "seed"],
)
def test_reconstruct_options_reject_bad_values(truth, bad, message):
    with pytest.raises(InputError, match=message):
        ReconstructOptions(template=truth, **bad)


INTEGER_FIELDS = [  # (id, a call given a number that is not an integer, the field it names)
    ("starts", lambda spec: ReconstructOptions(template=spec, starts=2.5), "starts"),
    ("starts_true", lambda spec: ReconstructOptions(template=spec, starts=True), "starts"),
    ("max_iter", lambda spec: ReconstructOptions(template=spec, max_iter=1.5), "max_iter"),
    ("seed", lambda spec: ReconstructOptions(template=spec, seed=0.5), "seed"),
    ("dim", lambda spec: BasisSpec("cosine", T, 2.5), "dim"),
    ("dim_true", lambda spec: BasisSpec("cosine", T, True), "dim"),
    ("cosine_dim", lambda spec: BasisSpec.cosine(T, 2.5), "dim"),
    ("n_cells_1", lambda spec: scenarios.build_scenario("counterexample1", {"n_cells": 1000.5}), "n_cells"),
    ("n_cells_2", lambda spec: scenarios.build_scenario("counterexample2", {"n_cells": 1000.5}), "n_cells"),
]


@pytest.mark.parametrize("make, field", [c[1:] for c in INTEGER_FIELDS], ids=[c[0] for c in INTEGER_FIELDS])
def test_integer_fields_reject_other_numbers(truth, make, field):
    # each used to pass and then fail in reconstruct with a TypeError, or run truncated
    with pytest.raises(InputError, match=f"^{field} must be an integer, got"):
        make(truth)


def test_tied_starts_report_the_converged_run(truth, target, monkeypatch):
    """Starts ending within tol of the same residual are one minimum."""
    import nonlocal_sl.inversion as inversion

    r = np.zeros(2 * target.n_data)

    def run(stops):
        opts = ReconstructOptions(
            template=truth, basis=BasisSpec.cosine(T, 2), starts=len(stops), tol=1e-9
        )
        ends = iter([(np.array(c), norm, r, r > 0, n, ok, "") for c, norm, n, ok in stops])
        monkeypatch.setattr(inversion, "_lm_run", lambda *args: next(ends))
        return reconstruct(target, np.zeros(2), opts)

    tied = [([0.4, -0.25], 3.0e-7, 6, False), ([0.4, -0.25], 3.0e-7 + 1e-13, 5, True)]
    res = run(tied)
    assert res.convergence_flag and res.iterations == 5
    assert res.start_norms == (3.0e-7, 3.0e-7 + 1e-13)
    res = run(tied + [([0.1, 0.2], 2.0e-7, 4, False)])
    assert res.coeffs == (0.1, 0.2) and not res.convergence_flag


def _stop_at_start(monkeypatch, target, template, c0):
    """Reconstruction that stops at its start, on the grid that residual() uses."""
    monkeypatch.setattr(inversion, "_GRID_TOL", 1e-10)
    opts = ReconstructOptions(template=template, basis=BasisSpec.cosine(T, 2), starts=1, max_iter=0)
    return reconstruct(target, np.asarray(c0, dtype=float), opts)


def _patch_roots(monkeypatch, alter):
    """Route every `_Engine._refined_roots` result through alter(engine, z, valid)."""
    refined = _Engine._refined_roots
    monkeypatch.setattr(_Engine, "_refined_roots", lambda self, *args: alter(self, *refined(self, *args)))


def _second_root_invalid(engine, z, valid):
    valid = valid.copy()
    valid[:, 1] = False
    return z, valid


class TestPenalty:
    """Invalid data read w * _PENALTY * (1 + |t|) in both slots, t the target value."""

    def test_m_datum_on_a_delta1_zero_of_the_candidate(self, truth, monkeypatch):
        # an interior second form, so that M is not identically zero
        spec = dataclasses.replace(truth, form2=LinearForm.point_value(2.0, 0))
        cand = [1.5, 0.0]
        cand_spec = dataclasses.replace(spec, q=Potential.from_cosine(T, cand))
        box = SearchBox(0.5, 20.0, -1.0, 1.0)
        zero = problem_spectrum(cand_spec, "delta1", box, tol=1e-12, real_axis=True).eigenvalues[1]
        lam = [3.0 + 0.6j, 12.0 + 0.6j, zero]
        w = np.ones(2 * len(lam))
        w[4] = 2.5  # the M datum at the zero
        t = dataclasses.replace(make_weyl_target(spec, lam), weights=tuple(w))
        assert abs(t.m_values[2]) > 0.5
        r = residual(t, cand, spec)
        pen = 2.5 * _PENALTY * (1.0 + abs(t.m_values[2]))
        assert r[8] == pytest.approx(pen, rel=1e-12)
        assert r[9] == pytest.approx(pen, rel=1e-12)
        assert _stop_at_start(monkeypatch, t, spec, cand).invalid_data == (4,)

    def test_eigenvalue_datum_with_an_invalid_root(self, truth, target, monkeypatch):
        _patch_roots(monkeypatch, _second_root_invalid)
        w = np.ones(target.n_data)
        w[1] = 2.5
        weighted = dataclasses.replace(target, weights=tuple(w))
        r = residual(weighted, TRUTH_COEFFS, truth)
        pen = 2.5 * _PENALTY * (1.0 + abs(target.lambda1[1]))
        assert r[2] == pytest.approx(pen, rel=1e-12)
        assert r[3] == pytest.approx(pen, rel=1e-12)
        assert np.max(np.abs(np.delete(r, [2, 3]))) < 1e-7
        assert _stop_at_start(monkeypatch, weighted, truth, TRUTH_COEFFS).invalid_data == (1,)


def _ift_jacobian(engine, c):
    """The LM Jacobian at c: one residual call, then `root_jacobian` at its matched roots."""
    _, invalid, roots = engine.evaluate(c[None, :])
    return engine.root_jacobian(c, roots[0], invalid[0], _FD_STEP * (1.0 + np.abs(c)))


def _central_jacobian(engine, c, h=1e-4):
    K = len(c)
    R, _ = engine.residuals(np.vstack([c + h * np.eye(K), c - h * np.eye(K)]))
    return (R[:K] - R[K:]).T / (2 * h)


class TestRootJacobian:
    """Eigenvalue-data Jacobian from one sweep at the fixed roots (implicit function theorem)."""

    @pytest.fixture(scope="class", params=["two_spectra", "three_spectra"])
    def case(self, request, truth, target):
        """(engine, truth coefficients) for each eigenvalue data kind."""
        if request.param == "two_spectra":
            spec, tgt = truth, target
        else:
            spec = ProblemSpec(
                q=Potential.from_cosine(T, [0.5, -0.35, 0.2]),
                form1=LinearForm.from_measure(BVMeasure.from_jump(T, 1.0)),
                form2=LinearForm.point_value(1.0),
            )
            tgt = make_three_spectra_target(spec, 3)
        template = dataclasses.replace(spec, q=Potential.zero(T))
        coeffs = spec.q.values.real
        return _Engine(tgt, template, BasisSpec.cosine(T, len(coeffs))), coeffs

    @staticmethod
    def _start(coeffs):
        direction = np.resize([1.0, -0.6, 0.8], len(coeffs))
        return coeffs + 0.15 * direction / np.linalg.norm(direction)

    def test_matches_central_differences(self, case):
        engine, coeffs = case
        c = self._start(coeffs)
        J = _ift_jacobian(engine, c)
        Jc = _central_jacobian(engine, c)
        assert J.shape == (2 * engine.target.n_data, len(c))
        assert np.linalg.norm(Jc) > 1e-2
        assert np.linalg.norm(J - Jc) <= 1e-4 * np.linalg.norm(Jc)

    def test_costs_one_sweep(self, case, monkeypatch):
        engine, coeffs = case
        c = self._start(coeffs)
        _, invalid, roots = engine.evaluate(c[None, :])
        sweep = characteristic.integrate_family
        calls = []
        monkeypatch.setattr(characteristic, "integrate_family", lambda *a, **k: calls.append(1) or sweep(*a, **k))
        engine.root_jacobian(c, roots[0], invalid[0], _FD_STEP * (1.0 + np.abs(c)))
        assert len(calls) == 1

    def test_root_newton_sweeps_only_unconverged_seeds(self, case, monkeypatch):
        # a residual call 0.15 from the truth: the first round sweeps every seed at z and z + h,
        # each later round only the seeds still moving
        engine, coeffs = case
        sweep = characteristic.integrate_family
        sizes = []
        monkeypatch.setattr(
            characteristic, "integrate_family", lambda d, lam, *a, **k: sizes.append(len(lam)) or sweep(d, lam, *a, **k)
        )
        engine.residuals(self._start(coeffs)[None, :])
        n = len(engine.seeds)
        assert sizes[0] == 2 * n and all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sum(sizes) < len(sizes) * 2 * n

    def test_invalid_datum_gives_zero_rows(self, case, monkeypatch):
        engine, coeffs = case
        c = self._start(coeffs)
        J = _ift_jacobian(engine, c)
        _patch_roots(monkeypatch, _second_root_invalid)
        J_bad = _ift_jacobian(engine, c)
        assert np.all(J_bad[2:4] == 0.0)
        assert np.abs(J[2:4]).max() > 1e-3
        others = np.delete(np.arange(len(J)), [2, 3])
        assert np.allclose(J_bad[others], J[others], rtol=1e-10, atol=0.0)

    def test_rows_follow_the_assignment(self, case, monkeypatch):
        # reversing each block's roots makes the assignment a reversal; the rows must not move
        engine, coeffs = case
        c = self._start(coeffs)
        J = _ift_jacobian(engine, c)
        R, _ = engine.residuals(c[None, :])

        def reversed_blocks(eng, z, valid):
            order = np.concatenate([np.arange(sl.start, sl.stop)[::-1] for _, sl in eng.blocks])
            return z[:, order], valid[:, order]

        _patch_roots(monkeypatch, reversed_blocks)
        R_rev, _ = engine.residuals(c[None, :])
        np.testing.assert_array_equal(R_rev, R)
        np.testing.assert_array_equal(_ift_jacobian(engine, c), J)


def test_residual_call_builds_one_grid(truth, target, monkeypatch):
    # every Newton round of the root refinement sweeps one discretization of the candidates
    engine = _Engine(target, dataclasses.replace(truth, q=Potential.zero(T)), BasisSpec.cosine(T, 2))
    grids = _count_calls(monkeypatch, "solver_grid", (ode_core, characteristic))
    sweeps = _count_calls(monkeypatch, "integrate_family", (characteristic,))
    engine.residuals(np.array(TRUTH_COEFFS) + np.array([[0.0, 0.0], [0.1, -0.05]]))
    assert len(sweeps) >= 3
    assert len(grids) == 1


class TestDistinguishability:
    def test_weyl_pair_with_D_takes_one_sweep_per_problem(self, monkeypatch):
        # criterion 6's mirror pair: M, omega and the d_n of each problem come from one batch
        # over the grid and the zeros; the score is pinned to its last digit
        _, (spec, mirror) = scenarios.build_scenario("counterexample1")
        lam = np.linspace(1.0, 90.0, 50) + 0.5j
        xi = _first_n_real(spec, "omega", 6, length=spec.T / 2.0)
        sweeps = _count_calls(monkeypatch, "integrate_family", (characteristic,))
        score = distinguishability(spec, mirror, "weyl_pair_with_D", lam, xi=xi)
        assert len(sweeps) == 2
        assert score == 0.15711996366437786


    def test_identical_problems_score_zero(self, truth):
        lam = np.linspace(3.0, 30.0, 7) + 0.5j
        assert distinguishability(truth, _truth(), "weyl_pair", lam) < 1e-12

    def test_different_potentials_score_positive(self, truth):
        other = dataclasses.replace(truth, q=Potential.from_cosine(T, [0.4, 0.25]))
        lam = np.linspace(3.0, 30.0, 7) + 0.5j
        assert distinguishability(truth, other, "weyl_pair", lam) > 1e-3

    def test_two_spectra_scores_the_matched_eigenvalues(self):
        # criterion 9's truth: zero against itself, and a shifted last coefficient moves its spectra
        truth, box = _c9_truth(), SearchBox(-3.0, 60.0, -1.0, 1.0)
        assert distinguishability(truth, truth, "two_spectra", box) == 0.0
        other = dataclasses.replace(truth, q=Potential.from_cosine(T, [0.6, -0.4, 0.25, -0.10]))
        assert distinguishability(truth, other, "two_spectra", box) > 1e-3
        with pytest.raises(InputError, match="takes a SearchBox grid"):
            distinguishability(truth, truth, "two_spectra", np.linspace(1.0, 9.0, 5))

    def test_unknown_kind_rejected(self, truth):
        with pytest.raises(InputError):
            distinguishability(truth, truth, "spectra_pair", np.array([1.0 + 1j]))
