"""Tests for the packaged scenario builders and their verification reports.

The heavyweight end-to-end verifications run in the acceptance suite; here
the builders are checked structurally (preset periodicity, collar support,
mirror asymmetry, parameter validation) plus one medium-cost verification
of the truncated-support pair and the zero-overlap classification rule on
closed-form spectra.
"""

import numpy as np
import pytest

from nonlocal_sl.characteristic import char_batch
from nonlocal_sl.errors import InputError
from nonlocal_sl.scenarios import build_scenario, three_spectra_overlap_rule, verify_counterexample
from nonlocal_sl.spectrum_finder import SearchBox

T = np.pi


@pytest.fixture(scope="module")
def ctrex1():
    cfg, (spec, mirror) = build_scenario("counterexample1", {"n_cells": 512})
    return cfg, spec, mirror


@pytest.fixture(scope="module")
def ctrex2():
    params = {"alpha": 0.45, "alpha0": 0.5, "box_hi": 40.0}
    cfg, (spec, mirror) = build_scenario("counterexample2", params)
    return cfg, spec, mirror


class TestBuildValidation:
    def test_unknown_name(self):
        with pytest.raises(InputError):
            build_scenario("counterexample3")

    def test_unknown_parameter(self):
        with pytest.raises(InputError):
            build_scenario("counterexample1", {"cells": 4})

    def test_three_spectra_needs_interior_a(self):
        with pytest.raises(InputError):
            build_scenario("three_spectra", {"a": 0.0})
        with pytest.raises(InputError):
            build_scenario("three_spectra", {"a": 4.0})

    def test_three_spectra_requires_a(self):
        with pytest.raises(InputError):
            build_scenario("three_spectra")


class TestPeriodicPairStructure:
    def test_forms(self, ctrex1):
        _, spec, mirror = ctrex1
        assert spec.form1.kind == "nonlocal"
        assert spec.form1.measure.atoms == ()
        assert not spec.form1.measure.has_density
        assert spec.form2.kind == "point_value"
        assert spec.form2.x0 == pytest.approx(T / 2)
        assert mirror.form1.kind == "nonlocal" and mirror.form2.x0 == pytest.approx(T / 2)

    def test_preset_is_half_pi_periodic(self, ctrex1):
        _, spec, _ = ctrex1
        x = np.linspace(0.0, T / 2, 301)
        assert np.max(np.abs(spec.q(x + T / 2) - spec.q(x))) < 1e-10

    def test_mirror_is_reflection_and_differs(self, ctrex1):
        _, spec, mirror = ctrex1
        x = np.linspace(0.0, T, 401)
        assert np.max(np.abs(mirror.q(x) - spec.q(T - x))) < 1e-10
        assert spec.q.max_abs_difference(mirror.q) > 0.1

    def test_weyl_function_matches_across_pair(self, ctrex1):
        # the headline effect: M is blind to the reflection for these forms
        _, spec, mirror = ctrex1
        lam = np.array([3.0 + 0.8j, 11.0 + 0.8j, 24.0 + 0.8j])
        ba = char_batch(spec, lam)
        bb = char_batch(mirror, lam)
        m_dev = np.max(np.abs(ba.delta2 / ba.delta1 - bb.delta2 / bb.delta1))
        assert m_dev < 1e-10
        assert np.max(np.abs(ba.delta1 - bb.delta1)) / np.max(np.abs(ba.delta1)) < 1e-10


class TestTruncatedSupportPair:
    def test_collar_support(self, ctrex2):
        cfg, spec, _ = ctrex2
        alpha0 = cfg.params["alpha0"]
        left = np.linspace(0.0, alpha0 * 0.98, 50)
        right = np.linspace(T - alpha0 * 0.98, T, 50)
        assert np.max(np.abs(spec.q(left))) == 0.0
        assert np.max(np.abs(spec.q(right))) == 0.0
        inner = np.linspace(alpha0 * 1.2, T - alpha0 * 1.2, 100)
        assert np.max(np.abs(spec.q(inner))) > 0.1

    def test_form_places_point_inside_collar(self, ctrex2):
        cfg, spec, _ = ctrex2
        alpha = cfg.params["alpha"]
        assert alpha < cfg.params["alpha0"]
        assert spec.form2.x0 == pytest.approx(T - alpha)

    def test_verification_report(self, ctrex2):
        cfg, _, _ = ctrex2
        # the grid reaches Re 45, so condition S is checked on the box (-3, 55) x (-1, 1)
        rep = verify_counterexample(cfg, np.linspace(1.0, 45.0, 6) + 0.5j)
        assert rep.condition_s.holds
        assert rep.m_deviation < 1e-10
        assert rep.delta2_deviation < 1e-12
        assert rep.omega_deviation > 1e-3  # the pair is genuinely different
        assert rep.q_sup_difference > 0.1
        # predicted Dirichlet-type lattice inside the second spectrum
        assert rep.lambda2_containment is not None
        assert rep.lambda2_containment < 1e-8


class TestOverlapRule:
    def test_commensurate_point_splits_one_or_all(self):
        _, (spec, _) = build_scenario("three_spectra", {"a": T / 2})
        rep = three_spectra_overlap_rule(spec, T / 2, SearchBox(0.5, 40.0, -1.0, 1.0))
        assert rep.ok
        counts = rep.counts()
        assert counts.get(2, 0) == 0
        singles = sorted(e.lam.real for e in rep.entries if e.count == 1)
        triples = sorted(e.lam.real for e in rep.entries if e.count == 3)
        assert np.allclose(singles, [1.0, 9.0, 25.0], atol=1e-6)
        assert np.allclose(triples, [4.0, 16.0, 36.0], atol=1e-6)
        assert all(e.members == ("delta1",) for e in rep.entries if e.count == 1)

    def test_incommensurate_point_gives_all_singles(self):
        _, (spec, _) = build_scenario("three_spectra", {"a": 1.0})
        rep = three_spectra_overlap_rule(spec, 1.0, SearchBox(0.5, 30.0, -1.0, 1.0))
        assert rep.ok
        assert rep.counts().get(1, 0) == len(rep.entries)

    def test_point_form_required(self, ctrex1):
        _, spec, _ = ctrex1
        # form2 is a point form here, but form1 carries only a jump; a must
        # match the point position, so a mismatched a is rejected
        with pytest.raises(InputError):
            three_spectra_overlap_rule(spec, 0.3, SearchBox(0.5, 10.0, -1.0, 1.0))
