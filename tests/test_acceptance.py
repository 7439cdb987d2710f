"""Acceptance suite: eleven numbered criteria, one pass/fail line each.

Each test runs one criterion end to end with its fixed seeds and prints the
one-line report (visible with -v on failure, and in the captured stdout).
Budgeted criteria also enforce their wall-clock limit.  Tolerances live in
the criterion implementations; the assertions here only gate on the result.
"""

from nonlocal_sl.acceptance import run_criterion


def _check(number):
    r = run_criterion(number)
    print(r.line)
    assert r.passed, r.line
    return r


def test_criterion_01_zero_potential_oracle():
    _check(1)


def test_criterion_02_spectrum_dirichlet():
    _check(2)


def test_criterion_03_identity_suite():
    _check(3)


def test_criterion_04_shift_covariance():
    _check(4)


def test_criterion_05_leading_term_decay():
    _check(5)


def test_criterion_06_counterexample_1():
    _check(6)


def test_criterion_07_counterexample_2():
    _check(7)


def test_criterion_08_d_sequence_consistency():
    _check(8)


def test_criterion_09_two_spectra_recovery():
    _check(9)


def test_criterion_10_three_spectra_recovery():
    _check(10)


def test_criterion_11_overlap_rule():
    _check(11)


def test_a_nan_residual_fails_criterion_3(monkeypatch):
    # Python's max drops a NaN that is not its first argument; the criterion must not
    from nonlocal_sl import acceptance

    real = acceptance._identity_residuals

    def with_nan(spec, lam):
        return {**real(spec, lam), "wronskian_theta_phi": float("nan")}

    monkeypatch.setattr(acceptance, "_identity_residuals", with_nan)
    passed, detail = acceptance._criterion_3()
    assert not passed
    assert detail == "worst residual nan (wronskian_theta_phi, allowed 1e-07)"
