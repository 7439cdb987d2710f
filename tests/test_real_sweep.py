"""The real path of a sweep gives the complex path's values, bit for bit.

A discretization of a real q with real measures stores its samples and
weights as float64, and a batch of real lambda then sweeps them in real
arithmetic.  A batch that also holds one non-real lambda sweeps the same
discretization in complex arithmetic.  A zero imaginary part stays exactly
zero there, so every value at the real lambda must be equal on both paths;
the draws reach series cells, closed-form cells (|h^2 cbar| > 16) and both
signs of h^2 cbar.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_sl import BVMeasure, LinearForm, Potential, ProblemSpec
from nonlocal_sl.characteristic import _NAMES, _discretize, char_batch, char_batch_multi
from nonlocal_sl.ode_core import integrate_family

T = np.pi
FIVE = (*_NAMES, "delta21")
_coef = st.floats(-2.0, 2.0)
# negative lambda gives h^2 cbar > 0 (series cells), large positive lambda h^2 cbar < -16
_real_lam = st.one_of(st.floats(-3000.0, 0.0), st.floats(0.0, 1e4), st.floats(1e4, 3e5))


@st.composite
def _real_problem(draw):
    """A real cosine q; each form a jump or an atom plus a linear density on a subinterval."""
    q = Potential.from_cosine(T, draw(st.lists(_coef, min_size=1, max_size=4)))
    forms = []
    for jump in (draw(st.floats(0.5, 2.0)), 0.0):
        lo = draw(st.floats(0.0, T - 0.2))
        hi = draw(st.floats(lo + 0.1, T))
        atom = (draw(st.floats(0.05, T - 0.05)), draw(_coef))
        dens = [draw(_coef), draw(_coef)]
        forms.append(LinearForm.from_measure(BVMeasure.with_density(T, [lo, hi], dens, jump=jump, atoms=[atom])))
    return ProblemSpec(q, *forms)


def _strict(f, *args, **kwargs):
    """f(*args, **kwargs) with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args, **kwargs)


def test_a_real_problem_is_stored_real_and_a_complex_one_complex():
    real = ProblemSpec.with_measures(
        Potential.from_cosine(T, [0.5, -0.3]),
        BVMeasure.with_density(T, [0.0, T], [0.2, -0.1], jump=1.0, atoms=[(1.0, 0.5)]),
        BVMeasure.with_density(T, [1.0, 2.0], [0.3, 0.4]),
    )
    disc = _discretize(real, None)
    stored = [*disc.samples, *(w for form in disc.weights for w in form if w is not None)]
    assert all(a.dtype == np.float64 for a in stored)
    q_complex = ProblemSpec(Potential.from_cosine(T, [0.5, 0.1j]), real.form1, real.form2)
    assert all(a.dtype == np.complex128 for a in _discretize(q_complex, None).samples)
    form_complex = LinearForm.from_measure(BVMeasure.with_density(T, [1.0, 2.0], [0.3, 0.4j]))
    w = _discretize(ProblemSpec(real.q, real.form1, form_complex), None).weights
    assert w[0][0].dtype == np.float64 and w[1][2].dtype == np.complex128


@settings(max_examples=100, deadline=None)
@given(spec=_real_problem(), lam=_real_lam)
def test_real_path_values_equal_complex_path_values(spec, lam):
    alone = _strict(char_batch, spec, [lam])
    mixed = _strict(char_batch, spec, [lam, lam + 1j])
    for name in FIVE:
        a, b = getattr(alone, name), getattr(mixed, name)
        assert a.dtype == np.complex128
        assert a[0] == b[0], name


@settings(max_examples=40, deadline=None)
@given(
    spec=_real_problem(),
    lam=_real_lam,
    others=st.lists(st.lists(_coef, min_size=1, max_size=4), min_size=1, max_size=2),
    pick=st.integers(0, 2),
)
def test_real_path_values_equal_complex_path_values_for_candidates(spec, lam, others, pick):
    qs = [spec.q, *(Potential.from_cosine(T, c) for c in others)]
    j = min(pick, len(qs) - 1)
    alone = _strict(char_batch_multi, spec, [lam], qs, [j])
    mixed = _strict(char_batch_multi, spec, [lam, lam + 1j], qs, [j, j])
    for name in FIVE:
        a, b = getattr(alone, name), getattr(mixed, name)
        assert a.dtype == np.complex128
        assert a[0] == b[0], name


@settings(max_examples=40, deadline=None)
@given(spec=_real_problem(), lam=_real_lam, side=st.sampled_from(["X", "Z"]))
def test_real_path_stored_sweep_equals_complex_path(spec, lam, side):
    disc = _discretize(spec, None)
    alone = _strict(integrate_family, disc, [lam], side, store=True)
    mixed = _strict(integrate_family, disc, [lam, lam + 1j], side, store=True)
    pairs = [
        (alone.forms, mixed.forms[:, :1]),
        (alone.y, mixed.y[:, :1]),
        (alone.dy, mixed.dy[:, :1]),
        (alone.end[0], mixed.end[0][:1]),
        (alone.end[1], mixed.end[1][:1]),
    ]
    for a, b in pairs:
        assert a.dtype == np.complex128
        assert np.array_equal(a, b)
    for a, b in [(alone.forms_s, mixed.forms_s[:, :1]), (alone.s, mixed.s[:, :1]), (alone.end[2], mixed.end[2][:1])]:
        assert np.array_equal(a, b)
