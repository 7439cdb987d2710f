"""Tests for contour-based zero search and the spectral separation check.

Synthetic analytic handles pin down winding counts, multiplicity reporting,
and residual polishing.  Problem-level searches are checked against the
trigonometric spectra of point boundary forms.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonlocal_sl import BVMeasure, LinearForm, Potential, ProblemSpec
from nonlocal_sl import characteristic, ode_core, spectrum_finder
from nonlocal_sl.errors import ContourError, InputError
from nonlocal_sl.spectrum_finder import SearchBox, condition_S, find_spectrum, problem_spectrum

T = np.pi


def _spec(a=None, q=None):
    form2 = LinearForm.point_value(T if a is None else a, 0)
    return ProblemSpec(
        q=q or Potential.zero(T),
        form1=LinearForm.point_value(0.0, 0),
        form2=form2,
    )


def _exp_poly(roots, lam):
    lam = np.asarray(lam, dtype=complex)
    return np.prod(lam[:, None] - np.asarray(roots)[None, :], axis=1) * np.exp(0.2 * lam)


def _apart(roots):
    return bool(np.all(np.abs(roots[:, None] - roots[None, :]) + 9.0 * np.eye(len(roots)) >= 0.5))


def _seed_error(roots, seeds):
    """Largest distance from a seed to the nearest zero."""
    return float(np.max(np.min(np.abs(seeds[:, None] - np.asarray(roots)[None, :]), axis=1)))


def _midpoint_seeds(cr):
    """Pencil seeds from moments by the midpoint rule on the dlog increments, the rule that
    integration by parts replaced; a reference for the accuracy of `_moment_seeds`."""
    b, r, n = cr.box_used, cr.box_used.diag / 2.0, cr.winding
    u = ((cr.points + np.roll(cr.points, -1)) / 2.0 - b.center) / r
    dlog = np.log(np.abs(np.roll(cr.values, -1) / cr.values)) + 1j * cr.arg_steps
    s = (u[None, :] ** np.arange(2 * n)[:, None]) @ dlog / (2j * np.pi)
    hankel = np.add.outer(np.arange(n), np.arange(n))
    return b.center + r * scipy.linalg.eigvals(s[hankel + 1], s[hankel])


_SEED_BOX = SearchBox(0.0, 10.0, -2.0, 2.0)
# zeros at least 0.5 inside _SEED_BOX
_inner = st.builds(complex, st.floats(0.5, 9.5), st.floats(-1.5, 1.5))


class TestSyntheticHandles:
    def test_two_simple_zeros(self):
        def f(lam):
            lam = np.asarray(lam, dtype=complex)
            return (lam - 2.0) * (lam - 7.0 - 0.5j)

        s = find_spectrum(f, SearchBox(0.0, 10.0, -2.0, 2.0))
        assert s.winding_total == 2
        assert sorted(m for _, m in s.entries) == [1, 1]
        eig = sorted(s.eigenvalues, key=lambda z: z.real)
        assert eig[0] == pytest.approx(2.0, abs=1e-8)
        assert eig[1] == pytest.approx(7.0 + 0.5j, abs=1e-8)

    @pytest.mark.parametrize("real_axis", [False, True])
    def test_seed_and_root_batches_evaluated_once(self, real_axis):
        # the seeds are evaluated only at the head of the first Newton round, and the
        # residual check reuses the last round's values: every polish call is a round
        # (k iterates, then each one lambda step further), so none follows the last round
        roots = np.array([np.sqrt(5.0), 7.0 + np.pi / 30.0])

        def f(lam):
            lam = np.asarray(lam, dtype=complex)
            return (lam - roots[0]) * (lam - roots[1]) * np.exp(0.1 * lam)

        calls = []

        def polish(lam):
            calls.append(np.array(lam, dtype=complex))
            return f(lam)

        s = find_spectrum(f, SearchBox(0.0, 10.0, -2.0, 2.0), f_polish=polish, real_axis=real_axis)
        assert sorted(s.eigenvalues.real) == pytest.approx(roots, abs=1e-8)
        seeds = calls[0][: len(roots)]
        assert sum(bool(np.isin(seeds, c).all()) for c in calls) == 1
        for c in calls:
            k = len(c) // 2
            assert len(c) == 2 * k and np.all(c[k:] == c[:k] + spectrum_finder._LAMBDA_STEP * (1.0 + np.abs(c[:k])))

    @pytest.mark.parametrize("real_axis", [False, True])
    def test_no_point_is_evaluated_twice(self, real_axis):
        # the polish handle sees each point once: seeds only inside Newton's first round, and in
        # the final evaluation only the points whose last step moved them
        def f(lam):
            lam = np.asarray(lam, dtype=complex)
            return (lam - 2.3) * (lam - 7.1) * np.exp(0.1 * lam)

        calls = []

        def polish(lam):
            calls.append(np.array(lam, dtype=complex))
            return f(lam)

        s = find_spectrum(f, SearchBox(0.0, 10.0, -2.0, 2.0), f_polish=polish, real_axis=real_axis)
        assert sorted(s.eigenvalues.real) == pytest.approx([2.3, 7.1], abs=1e-8)
        points = np.concatenate(calls)
        assert len(np.unique(points)) == len(points)

    def test_newton_reuses_the_value_of_a_point_that_did_not_move(self):
        # a seed exactly on the root 2.3 has f = 0 and a zero step, so its first value is its last:
        # it costs one call, comes back unchanged and reports |f| = 0
        calls = []

        def polish(lam):
            lam = np.array(lam, dtype=complex)
            calls.append(lam)
            return (lam - 2.3) * (lam - 7.1) * np.exp(0.1 * lam)

        def run(seeds):
            calls.clear()
            n = len(seeds)
            return spectrum_finder._batched_newton(
                lambda lam, _: polish(lam), seeds, 1.0, np.ones(n), 60, 1e-13, lambda z: 1e-11 * np.abs(z)
            )

        roots, resid = run([2.3, 7.0])
        assert roots == pytest.approx([2.3, 7.1], abs=1e-12) and resid[0] == 0.0
        points = np.concatenate(calls)
        assert len(np.unique(points)) == len(points)
        roots, resid = run([2.3])
        assert len(calls) == 1 and roots[0] == 2.3 and resid[0] == 0.0

    @pytest.mark.parametrize(
        "stage, real_axis, nan_in",
        [
            ("contour count", False, "scan"),
            ("Chebyshev scan", True, "scan"),
            ("Chebyshev doubling", True, "doubling"),
            ("Newton polish", False, "polish"),
            ("Newton polish", True, "polish"),
        ],
    )
    def test_non_finite_value_names_its_stage(self, stage, real_axis, nan_in):
        # (lambda - 2.3)(lambda - 7.1) exp(sin lambda), not finite for |Re lambda - 7| < 0.3 in the
        # counting handle, in its calls after the first (the real-axis proxy's first scan at degree
        # 16 has a point there, its doubling to 32 has none and its doubling to 64 has one), or in
        # the polish handle: the zero at 7.1 is not lost, the search stops at the first lambda
        # where the value is not finite
        def f(lam):
            lam = np.asarray(lam, dtype=complex)
            return (lam - 2.3) * (lam - 7.1) * np.exp(np.sin(lam))

        def nan_near_7(lam):
            lam = np.asarray(lam, dtype=complex)
            return np.where(np.abs(lam.real - 7.0) < 0.3, np.nan, f(lam))

        calls = []

        def after_first(lam):
            calls.append(1)
            return nan_near_7(lam) if len(calls) > 1 else f(lam)

        scan = {"scan": nan_near_7, "doubling": after_first, "polish": f}[nan_in]
        polish = nan_near_7 if nan_in == "polish" else None
        with pytest.raises(ContourError, match=f"in the {stage} at lambda = ") as err:
            find_spectrum(scan, SearchBox(0.0, 10.0, -2.0, 2.0), f_polish=polish, real_axis=real_axis)
        bad = complex(str(err.value).rsplit("= ", 1)[1])
        assert abs(bad.real - 7.0) < 0.3 and not np.isfinite(nan_near_7([bad])[0])

    @pytest.mark.parametrize(
        "f, zeros",
        [
            (lambda lam: ((lam - 7.0) ** 2 + 0.01) * (lam - 12.0) * (lam - 20.0), [7.0 - 0.1j, 7.0 + 0.1j, 12.0, 20.0]),
            (lambda lam: (lam - 7.0) ** 2 * (lam - 12.0) * (lam - 20.0), [(7.0, 2), 12.0, 20.0]),
            (
                lambda lam: ((lam - 7.0) ** 2 + 0.25) * (lam - 12.0) * (lam - 20.0) * np.exp(0.2 * lam),
                [7.0 - 0.5j, 7.0 + 0.5j, 12.0, 20.0],
            ),
            (
                lambda lam: ((lam - 1.4118) ** 2 + 0.04) * (lam - 27.8) * (lam - 28.47) * np.exp(np.sin(1.309 * lam)),
                [1.4118 - 0.2j, 1.4118 + 0.2j, 27.8, 28.47],
            ),
        ],
        ids=["pair at 0.1i", "double zero", "pair at 0.5i", "pair at 0.2i, degree 256"],
    )
    def test_real_axis_search_reports_zeros_off_the_axis_and_double_zeros(self, f, zeros):
        # none of them changes sign on the axis; the proxy's colleague roots hold the pair or the
        # split double zero, so the certificate fails and the window goes to the contour search.
        # The last proxy resolves at degree 256, where its pair lies at B^n = e^12.8: inside the
        # trusted ellipse B^n < e^-3 max|c| / err = e^17.5, though B^2n > max|c| / tail = e^23.5
        box = SearchBox(0.5, 30.0, -1.0, 1.0)
        handle = lambda lam: f(np.asarray(lam, dtype=complex))
        s = find_spectrum(handle, box, real_axis=True)
        got = sorted(s.entries, key=lambda e: (round(e[0].real), e[0].imag))
        want = [z if isinstance(z, tuple) else (z, 1) for z in zeros]
        assert [m for _, m in got] == [m for _, m in want]
        assert [z for z, _ in got] == pytest.approx([z for z, _ in want], abs=1e-6)
        assert s.entries == find_spectrum(handle, box).entries

    def test_real_axis_search_keeps_close_simple_zeros_on_a_window_of_wide_range(self):
        # seven real factors times cos(3a sqrt(lambda + 5)) on [-5, 60]: 39.56 and 39.75 lie close in
        # a window where |f| spans ten decades, so the proxy's value between them is 1e-8 of max|c|,
        # yet far above its error (1e-15 max|c|); the window stays on the proxy, where the contour
        # search on the same box stops at its dip floor
        roots, a = [3.78, 20.28, 29.15, 37.28, 39.56, 39.75, 41.9], 0.255

        def f(lam):
            lam = np.asarray(lam, dtype=complex)
            return np.prod([(lam - r) / 30.0 for r in roots], axis=0) * np.cos(3.0 * a * np.sqrt(lam + 5.0))

        s = find_spectrum(f, SearchBox(-5.0, 60.0, -1.0, 1.0), real_axis=True)
        exact = np.sort([*roots, *(((np.arange(2) + 0.5) * np.pi / (3.0 * a)) ** 2 - 5.0)])
        assert np.allclose(s.eigenvalues.real, exact, rtol=1e-10, atol=0.0)
        assert np.all(s.eigenvalues.imag == 0.0) and np.all(s.multiplicities == 1)

    def test_real_axis_search_halves_a_window_beyond_the_degree_cap(self):
        # sin(L sqrt(lambda)) / sqrt(lambda), zeros (n pi / L)^2: on [0.5, 2500] with L = 10 the proxy
        # is not resolved at degree 256, and each half of the window is (each scan starts at 17 points)
        L = 10.0
        calls = []

        def f(lam):
            return L * np.sinc(L * np.sqrt(np.asarray(lam, dtype=complex)) / np.pi)

        def scan(lam):
            calls.append(len(lam))
            return f(lam)

        s = find_spectrum(scan, SearchBox(0.5, 2500.0, -1.0, 1.0), f_polish=f, real_axis=True)
        assert calls.count(17) == 3
        exact = (np.arange(1, 160) * np.pi / L) ** 2
        exact = exact[exact >= 0.5]
        assert len(s) == len(exact) == 157
        assert np.allclose(s.eigenvalues.real, exact, rtol=1e-10, atol=0.0)
        assert np.all(s.eigenvalues.imag == 0.0) and np.all(s.multiplicities == 1)

    def test_real_axis_search_rejects_a_handle_not_real_on_the_axis(self):
        with pytest.raises(InputError, match="not real-valued on the real axis"):
            find_spectrum(lambda lam: (np.asarray(lam) - 2.0) * (1.0 + 0.1j), _SEED_BOX, real_axis=True)

    def test_double_zero_reported_with_multiplicity(self):
        def f(lam):
            return (np.asarray(lam, dtype=complex) - 5.3) ** 2

        s = find_spectrum(f, SearchBox(0.0, 10.0, -2.0, 2.0))
        assert s.winding_total == 2
        assert len(s.entries) == 1
        lam0, mult = s.entries[0]
        assert mult == 2
        assert lam0 == pytest.approx(5.3, abs=1e-6)

    def test_moment_seeds_resolve_a_box_without_splitting(self):
        roots = np.array([1.3, 2.7 + 0.4j, 5.1 - 0.8j, 8.2 + 0.3j])
        calls = []

        def f(lam):
            lam = np.array(lam, dtype=complex)
            calls.append(lam)
            return _exp_poly(roots, lam)

        s = find_spectrum(f, _SEED_BOX)
        # the box's own contour, no child boxes; then Newton rounds from the pencil's seeds
        assert len(calls) == 4 and len(calls[0]) == 256
        assert np.max(np.abs(np.sort_complex(calls[1][:4]) - roots)) <= 1e-4
        assert s.winding_total == 4 and list(s.multiplicities) == [1] * 4
        got = np.array(sorted(s.eigenvalues, key=lambda z: z.real))
        assert np.max(np.abs(got - roots)) <= 1e-8

    def test_failed_certificate_falls_back_to_bisection(self, monkeypatch):
        # nine zeros on a long box: the pencil seeds polish onto
        # repeated zeros, so the box is split and its children bisected
        def f(lam):
            return np.sin(np.pi * np.asarray(lam, dtype=complex))

        box = SearchBox(0.5, 9.5, -1.0, 1.0)
        batches = []
        newton = spectrum_finder._batched_newton

        def recording(fp, seeds, *args, **kwargs):
            roots, resid = newton(fp, seeds, *args, **kwargs)
            batches.append(roots)
            return roots, resid

        monkeypatch.setattr(spectrum_finder, "_batched_newton", recording)
        s = find_spectrum(f, box)
        first = np.round(batches[0].real).astype(int)
        assert len(batches) == 2 and len(set(first)) < len(first)

        monkeypatch.setattr(spectrum_finder, "_certified", lambda z, b, gap: False)
        bisected = find_spectrum(f, box)
        assert s.winding_total == bisected.winding_total == 9
        assert list(s.multiplicities) == list(bisected.multiplicities) == [1] * 9
        assert np.max(np.abs(s.eigenvalues - bisected.eigenvalues)) <= 1e-12
        assert np.max(np.abs(s.eigenvalues - np.arange(1, 10))) <= 1e-8

    def test_empty_box(self):
        def f(lam):
            return np.asarray(lam, dtype=complex) - 100.0

        s = find_spectrum(f, SearchBox(0.0, 10.0, -1.0, 1.0))
        assert s.winding_total == 0 and s.entries == ()

    def test_reversed_box_rejected(self):
        with pytest.raises(InputError):
            SearchBox(5.0, 1.0, -1.0, 1.0)


@settings(max_examples=300)
@given(roots=st.lists(_inner, min_size=1, max_size=4))
def test_moment_seeds_lie_near_simple_zeros(roots):
    # by-parts moments with the sixth-order rule on the 64-per-edge contour.  Four zeros packed
    # 0.5 apart make the pencil amplify any moment error (a seed then misses by up to 0.27, the
    # midpoint rule's by up to 55): there the seeds must still beat the midpoint rule's 20-fold
    roots = np.array(roots)
    assume(_apart(roots))
    try:
        cr = spectrum_finder._winding(lambda lam: _exp_poly(roots, lam), _SEED_BOX)
    except ContourError:
        assume(False)  # |f| dips below the contour's floor: the box is not counted at all
    assert cr.winding == len(roots)
    error = _seed_error(roots, spectrum_finder._moment_seeds(cr))
    assert error <= max(1e-2, 0.05 * _seed_error(roots, _midpoint_seeds(cr)))


_offset = st.builds(lambda r, t: r * np.exp(2j * np.pi * t), st.floats(0.0, 0.05), st.floats(0.0, 1.0))


def _recorded(roots):
    """(handle f(lambda, seed index) of the zeros roots x e^{0.2 lambda}, {seed: every |f| it returned})."""
    seen = {}

    def f(lam, idx):
        vals = _exp_poly(roots, lam)
        for i, v in zip(idx, np.abs(vals)):
            seen.setdefault(int(i), set()).add(v)
        return vals

    return f, seen


@settings(max_examples=100)
@given(roots=st.lists(_inner, min_size=1, max_size=4), offsets=st.lists(_offset, min_size=4, max_size=4))
def test_shared_newton_polishes_simple_zeros(roots, offsets):
    # seeds within 0.05 of 1-4 simple zeros: every root to 1e-10 (1 + |r|), and the |f| reported
    # for a seed is one the handle returned for it
    roots = np.array(roots)
    assume(_apart(roots))
    f, seen = _recorded(roots)
    z, resid = spectrum_finder._batched_newton(f, roots + offsets[: len(roots)], 1.0, 1.0, 60, 1e-13, lambda z: 0.0)
    assert np.all(np.abs(z - roots) <= 1e-10 * (1.0 + np.abs(roots)))
    assert all(resid[i] in seen[i] for i in range(len(roots)))


@settings(max_examples=50)
@given(double=_inner, other=_inner, offset=_offset)
def test_shared_newton_polishes_a_double_zero(double, other, offset):
    # with multiplicity 2 and the contour polish's stop rule, a seed within 0.05 of a double zero
    # stops well inside the round limit at |f| <= f_stop, close to the zero
    assume(abs(double - other) >= 0.5)
    f, seen = _recorded(np.array([double, double, other]))
    f_stop = lambda z: 1e-11 * (1.0 + np.abs(z)) ** 0.5
    rounds = []
    z, resid = spectrum_finder._batched_newton(
        lambda lam, idx: rounds.append(1) or f(lam, idx), [double + offset], 2.0, 1.0, 60, 1e-13, f_stop
    )
    assert len(rounds) < 20 and resid[0] in seen[0]
    assert resid[0] <= 1e-11 * (2.0 + abs(double)) ** 0.5 and abs(z[0] - double) <= 1e-6 * (1.0 + abs(double))


@pytest.mark.parametrize("n_samples, edge_gap", [(64, 0.05), (10, None)])
def test_seeds_no_worse_than_the_midpoint_rule(n_samples, edge_gap, monkeypatch):
    # refined contours (one zero within edge_gap of the top edge) and a coarse n_samples = 10:
    # over 40 fixed draws of 1-4 zeros the by-parts seeds miss by less in the median
    rng = np.random.default_rng(12)
    monkeypatch.setattr(spectrum_finder, "_EDGE_SAMPLES", n_samples)
    errors = []
    while len(errors) < 40:
        k = rng.integers(1, 5)
        roots = rng.uniform(0.5, 9.5, k) + 1j * rng.uniform(-1.5, 1.5, k)
        if edge_gap is not None:
            roots[0] = roots[0].real + 1j * (2.0 - rng.uniform(0.01, edge_gap))
        if not _apart(roots):
            continue
        cr = spectrum_finder._winding(lambda lam: _exp_poly(roots, lam), _SEED_BOX)
        if edge_gap is not None and len(cr.points) == 4 * n_samples:
            continue  # not refined
        errors.append([_seed_error(roots, f(cr)) for f in (spectrum_finder._moment_seeds, _midpoint_seeds)])
    by_parts, midpoint = np.median(errors, axis=0)
    assert by_parts <= midpoint


class TestProblemSpectra:
    def test_dirichlet_eigenvalues(self):
        s = problem_spectrum(_spec(), "delta1", SearchBox(0.5, 30.0, -1.0, 1.0))
        assert np.allclose(s.eigenvalues, [1.0, 4.0, 9.0, 16.0, 25.0], atol=1e-8)
        assert list(s.multiplicities) == [1] * 5
        assert s.winding_total == 5

    def test_interior_point_omega(self):
        # omega reduces to sin(rho a) / rho for these forms with q = 0
        a = T / 2
        s = problem_spectrum(_spec(a), "omega", SearchBox(0.5, 40.0, -1.0, 1.0))
        assert np.allclose(s.eigenvalues, [4.0, 16.0, 36.0], atol=1e-7)

    def test_winding_conserved_under_partition(self):
        spec = _spec(q=Potential.from_cosine(T, [0.4, -0.3, 0.2]))
        whole = problem_spectrum(spec, "delta1", SearchBox(0.5, 30.0, -1.0, 1.0))
        left = problem_spectrum(spec, "delta1", SearchBox(0.5, 5.5, -1.0, 1.0))
        right = problem_spectrum(spec, "delta1", SearchBox(5.5, 30.0, -1.0, 1.0))
        assert left.winding_total + right.winding_total == whole.winding_total
        joined = np.sort(np.concatenate([left.eigenvalues, right.eigenvalues]).real)
        assert np.allclose(joined, np.sort(whole.eigenvalues.real), atol=1e-7)

    def test_real_axis_route_matches_contour_route(self):
        spec = _spec(q=Potential.from_cosine(T, [0.6, 0.25]))
        box = SearchBox(0.5, 25.0, -1.0, 1.0)
        s_contour = problem_spectrum(spec, "delta1", box)
        s_real = problem_spectrum(spec, "delta1", box, real_axis=True)
        assert len(s_real.eigenvalues) == len(s_contour.eigenvalues)
        assert np.allclose(
            np.sort(s_real.eigenvalues.real), np.sort(s_contour.eigenvalues.real), atol=1e-8
        )
        assert np.max(np.abs(s_real.eigenvalues.imag)) < 1e-10


class TestConditionS:
    def test_fails_when_zero_sets_coincide(self):
        # with form2 at the endpoint, omega and delta_1 are the same function
        rep = condition_S(_spec(), SearchBox(0.5, 12.0, -1.0, 1.0), separation_tol=1e-4)
        assert not rep.holds
        assert rep.min_gap < 1e-12
        assert rep.witness is not None
        w1, w2 = rep.witness
        assert abs(w1 - w2) < 1e-10

    def test_holds_for_incommensurate_interior_point(self):
        # omega zeros fall at (pi n / a)^2 with a = 1, away from the n^2 family
        rep = condition_S(_spec(a=1.0), SearchBox(0.5, 40.0, -1.0, 1.0), separation_tol=0.1)
        assert rep.holds
        # closest approach: pi^2 against 9
        assert rep.min_gap == pytest.approx(np.pi**2 - 9.0, rel=1e-6)
        assert rep.n_first == 2 and rep.n_second == 6

    def test_shared_subset_is_caught(self):
        # a = T/2 places every omega zero on the delta_1 lattice
        rep = condition_S(_spec(a=T / 2), SearchBox(0.5, 40.0, -1.0, 1.0), separation_tol=1e-3)
        assert not rep.holds
        assert rep.min_gap < 1e-8


# ---------------------------------------------------------------------------
# One grid per contour search

_BOX = SearchBox(0.5, 20.0, -2.0, 2.0)


def _search_handles(spec, which, box):
    """The counting and polish handles problem_spectrum gives its contour search."""
    seen = {}

    def capture(f, b, tol, **kwargs):
        seen.update(scan=f, polish=kwargs["f_polish"])

    with mock.patch.object(spectrum_finder, "find_spectrum", capture):
        problem_spectrum(spec, which, box)
    return seen["scan"], seen["polish"]


def _atoms_spec():
    return ProblemSpec(
        q=Potential.from_cosine(T, [0.3, -0.2 + 0.1j, 0.15]),
        form1=LinearForm.from_measure(BVMeasure(T, 1.0, ((1.1, 0.6 + 0.2j), (2.3, -0.3 + 0.1j)))),
        form2=LinearForm.point_value(1.5, 0),
    )


_ATOMS_SPEC = _atoms_spec()
_POLISH = _search_handles(_ATOMS_SPEC, "delta1", _BOX)[1]
_in_box = st.builds(complex, st.floats(_BOX.re_min, _BOX.re_max), st.floats(_BOX.im_min, _BOX.im_max))


@settings(max_examples=25)
@given(lam=_in_box, others=st.lists(_in_box, max_size=12), pos=st.integers(0, 12))
def test_search_value_does_not_depend_on_its_batch(lam, others, pos):
    pos = min(pos, len(others))
    alone = complex(_POLISH(np.array([lam]))[0])
    batch = np.array(others[:pos] + [lam] + others[pos:])
    assert abs(complex(_POLISH(batch)[pos]) - alone) <= 1e-14 * abs(alone)


def _count_calls(monkeypatch, name, modules):
    """A list that grows by one at every call of `name` through any of `modules`."""
    calls = []
    for mod in modules:
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
    return calls


def test_a_contour_search_builds_two_grids(monkeypatch):
    # the counting handle and the polish handle each sweep one discretization, so a fresh problem's
    # grid is built twice however many times the handles are evaluated, and the problem keeps both
    spec = _atoms_spec()
    grids = _count_calls(monkeypatch, "solver_grid", (ode_core, characteristic))
    sweeps = _count_calls(monkeypatch, "integrate_family", (characteristic,))
    sp = problem_spectrum(spec, "delta1", _BOX)
    assert len(sp.entries) > 0
    assert len(sweeps) > 2
    assert len(grids) == 2
    again = problem_spectrum(spec, "delta1", _BOX)
    assert len(grids) == 2
    assert again.entries == sp.entries
