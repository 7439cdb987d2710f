"""End-to-end tests for the command line interface.

Every subcommand is driven through main() with real config files in a temp
directory: JSON and CSV outputs, strict config validation with error paths,
the documented exit codes (0 ok, 2 validation, 3 numerical, 4 acceptance),
and byte-identical reruns.  Subprocess checks pin the lazy import that lets
--threads and the config's threads field take effect before the numerics
stack loads.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_sl import LinearForm, ProblemSpec
from nonlocal_sl.asymptotics import RaySpec, _read_asym
from nonlocal_sl.cli import _INVERT_DEFAULTS, _build_parser, _validate, _with_flags, main
from nonlocal_sl.errors import ConfigError, InputError, _read
from nonlocal_sl.inversion import BasisSpec, ReconstructOptions, _read_options
from nonlocal_sl.scenarios import _read_scenario
from nonlocal_sl.spectrum_finder import SearchBox, _read_box, problem_spectrum

SRC = str(Path(__file__).resolve().parents[1] / "src")

BASE_PROBLEM = {
    "T": 3.141592653589793,
    "q": {"type": "zero"},
    "U1": {"type": "point", "x": 0.0, "order": 0},
    "U2": {"type": "point", "x": 3.141592653589793, "order": 0},
}


def _cosine(*coeffs):
    return {"type": "cosine", "data": {"coefficients": [[c, 0.0] for c in coeffs]}}


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def _config(section_name, section, problem=None):
    d = dict(problem or BASE_PROBLEM)
    d[section_name] = section
    return d


class TestConfigValidation:
    def test_minimal_config_parses(self):
        cfg = _validate(_config("spectrum", {"which": "delta1", "box": {"re": [0.5, 10.0], "im": [-1.0, 1.0]}}))
        assert cfg.problem is not None
        # an omitted tol is problem_spectrum's own default
        assert cfg.sections["spectrum"] == {"which": "delta1", "box": SearchBox(0.5, 10.0, -1.0, 1.0)}
        assert inspect.signature(problem_spectrum).parameters["tol"].default == 1e-8

    def test_negative_T_reports_exact_path(self):
        bad = dict(BASE_PROBLEM, T=-1.0)
        with pytest.raises(ConfigError) as exc:
            _validate(_config("spectrum", {"box": {"re": [0.5, 2.0], "im": [-1.0, 1.0]}}, problem=bad))
        paths = [p for p, _ in exc.value.errors]
        assert ".T" in paths

    def test_atom_at_origin_names_the_split_rule(self):
        bad = dict(BASE_PROBLEM)
        bad["U1"] = {
            "type": "nonlocal",
            "measure": {"jump": [1.0, 0.0], "atoms": [[0.0, [1.0, 0.0]]], "density": None},
        }
        with pytest.raises(ConfigError) as exc:
            _validate(_config("forward", {"lambdas": [[1.0, 0.0]]}, problem=bad))
        hits = [(p, m) for p, m in exc.value.errors if "atoms[0]" in p]
        assert hits
        assert "jump" in hits[0][1]

    def test_zero_jump_on_first_nonlocal_form_rejected(self):
        bad = dict(BASE_PROBLEM)
        bad["U1"] = {
            "type": "nonlocal",
            "measure": {"jump": [0.0, 0.0], "atoms": [[1.0, [1.0, 0.0]]], "density": None},
        }
        with pytest.raises(ConfigError) as exc:
            _validate(_config("forward", {"lambdas": [[1.0, 0.0]]}, problem=bad))
        assert any(p.endswith(".measure.jump") for p, _ in exc.value.errors)

    def test_unknown_keys_rejected_with_paths(self):
        cfg = _config("spectrum", {"box": {"re": [0.5, 2.0], "im": [-1.0, 1.0]}, "wat": 1})
        cfg["extra_top"] = True
        with pytest.raises(ConfigError) as exc:
            _validate(cfg)
        paths = [p for p, _ in exc.value.errors]
        assert any("extra_top" in p for p in paths)
        assert any("spectrum.wat" in p for p in paths)

    def test_complex_pairs_enforced(self):
        with pytest.raises(ConfigError) as exc:
            _validate(_config("forward", {"lambdas": [1.0, 2.0]}))
        assert any("forward.lambdas[0]" in p for p, _ in exc.value.errors)

    def test_invert_max_iter_takes_the_library_minimum(self):
        # ReconstructOptions(max_iter=0) scores the starts without an LM step; the section agrees
        assert _validate(_config("invert", {"max_iter": 0})).sections["invert"]["options"].max_iter == 0
        with pytest.raises(ConfigError) as exc:
            _validate(_config("invert", {"max_iter": -1}))
        assert exc.value.errors == [(".invert.max_iter", "max_iter must be at least 0")]

    def test_booleans_are_not_numbers(self):
        bad = dict(BASE_PROBLEM, T=True)
        with pytest.raises(ConfigError):
            _validate(_config("forward", {"lambdas": [[1.0, 0.0]]}, problem=bad))


class TestForward:
    def test_json_payload_matches_library(self, tmp_path, capsys):
        cfg = _write(tmp_path, "f.json", _config("forward", {"lambdas": [[2.0, 0.0], [6.0, 1.0]]}))
        assert main(["forward", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        from nonlocal_sl import LinearForm, Potential, ProblemSpec
        from nonlocal_sl.characteristic import char_batch

        spec = ProblemSpec(
            q=Potential.zero(np.pi),
            form1=LinearForm.point_value(0.0, 0),
            form2=LinearForm.point_value(np.pi, 0),
        )
        b = char_batch(spec, np.array([2.0, 6.0 + 1.0j]))
        got = np.array([complex(re, im) for re, im in payload["delta1"]])
        assert np.allclose(got, b.delta1, rtol=1e-12)
        assert payload["M_ok"] == [True, True]

    def test_csv_column_order(self, tmp_path):
        out = tmp_path / "fwd.csv"
        cfg = _write(
            tmp_path,
            "f.json",
            _config("forward", {"lambdas": [[2.0, 0.0]], "quantities": ["omega", "M"]}),
        )
        assert main(["forward", cfg, "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda_re,lambda_im,omega_re,omega_im,M_re,M_im,M_ok"
        first = lines[1].split(",")
        assert float(first[0]) == 2.0 and first[-1] == "1"

    def test_weyl_pole_row_masked_not_failed(self, tmp_path, capsys):
        # lambda = 1 is a delta_1 zero for this problem; M is unavailable there
        cfg = _write(tmp_path, "f.json", _config("forward", {"lambdas": [[1.0, 0.0], [2.0, 0.0]]}))
        assert main(["forward", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["M_ok"] == [False, True]
        assert payload["M"][0] is None


class TestSpectrum:
    def test_dirichlet_eigenvalues(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "s.json",
            _config("spectrum", {"which": "delta1", "box": {"re": [0.5, 12.0], "im": [-1.0, 1.0]}}),
        )
        assert main(["spectrum", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        eigs = payload["eigenvalues"]
        assert [round(e[0]) for e in eigs] == [1, 4, 9]
        assert all(e[2] == 1 for e in eigs)
        assert payload["winding_total"] == 3

    def test_csv_columns(self, tmp_path):
        out = tmp_path / "s.csv"
        cfg = _write(
            tmp_path,
            "s.json",
            _config("spectrum", {"box": {"re": [0.5, 12.0], "im": [-1.0, 1.0]}}),
        )
        assert main(["spectrum", cfg, "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda_re,lambda_im,multiplicity"
        assert len(lines) == 4

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write(
            tmp_path,
            "s.json",
            _config("spectrum", {"box": {"re": [0.5, 12.0], "im": [-1.0, 1.0]}}),
        )
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["spectrum", cfg, "--out", str(out1)]) == 0
        assert main(["spectrum", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestWeyl:
    def test_values_and_d_chart(self, tmp_path, capsys):
        section = {
            "lambdas": [[2.0, 0.5], [6.5, 0.5], [12.5, 0.5]],
            "which": "M",
            "xi_count": 2,
        }
        cfg = _write(tmp_path, "w.json", _config("weyl", section))
        assert main(["weyl", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["which"] == "M"
        assert payload["ok"] == [True, True, True]
        assert len(payload["d"]["xi"]) == 2
        # omega zeros for this problem are 1 and 4; d alternates +1, -1
        assert payload["d"]["xi"][0][0] == pytest.approx(1.0, abs=1e-7)
        assert payload["d"]["values"][0][0] == pytest.approx(1.0, abs=1e-6)
        assert payload["d"]["values"][1][0] == pytest.approx(-1.0, abs=1e-6)


    def test_one_sweep_for_values_and_d(self, tmp_path, capsys, monkeypatch):
        # the zeros found, M at the lambdas and the d_n at the zeros come from one sweep
        from nonlocal_sl import characteristic, inversion

        monkeypatch.setattr(inversion, "_first_n_real", lambda *a, **k: (1.0 + 0j, 4.0 + 0j))
        sweep = characteristic.integrate_family
        calls = []
        monkeypatch.setattr(characteristic, "integrate_family", lambda *a, **k: calls.append(1) or sweep(*a, **k))
        section = {"lambdas": [[2.0, 0.5], [6.5, 0.5]], "which": "N", "xi_count": 2}
        assert main(["weyl", _write(tmp_path, "w.json", _config("weyl", section))]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert payload["ok"] == [True, True]
        assert [v[0] for v in payload["d"]["values"]] == pytest.approx([1.0, -1.0], abs=1e-6)


class TestAsym:
    def test_sector_report(self, tmp_path, capsys):
        section = {
            "quantity": "Delta1",
            "ray": {"kind": "Pi_delta", "angle": 1.0471975511965976, "radii": [5.0, 10.0]},
        }
        problem = dict(BASE_PROBLEM, q=_cosine(1.0))
        cfg = _write(tmp_path, "a.json", _config("asym", section, problem=problem))
        assert main(["asym", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quantity"] == "Delta1"
        rels = [float(row[5]) for row in payload["rows"]]  # rel_error column
        assert rels[1] < rels[0]

    def test_csv_rows(self, tmp_path):
        out = tmp_path / "a.csv"
        section = {
            "quantity": "Delta1",
            "ray": {"kind": "Pi_delta", "angle": 1.0471975511965976, "radii": [5.0, 10.0]},
        }
        cfg = _write(tmp_path, "a.json", _config("asym", section))
        assert main(["asym", cfg, "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("radius,computed_log_abs")
        assert len(lines) == 3


class TestInvert:
    def test_two_spectra_recovery(self, tmp_path, capsys):
        problem = dict(BASE_PROBLEM, q=_cosine(0.3, -0.2))
        section = {"kind": "two_spectra", "n_each": 3, "dim": 2, "starts": 1, "tol": 1e-8}
        cfg = _write(tmp_path, "i.json", _config("invert", section, problem=problem))
        assert main(["invert", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"]
        got = payload["coeffs"]
        assert got[0] == pytest.approx(0.3, abs=1e-5)
        assert got[1] == pytest.approx(-0.2, abs=1e-5)

    def test_weyl_pair_with_d_at_the_truth(self, tmp_path, capsys):
        # started at the generating coefficients, no d datum reads a penalty
        problem = dict(BASE_PROBLEM, q=_cosine(0.3, -0.2), U2={"type": "point", "x": 2.0, "order": 0})
        lambdas = [[2.0, 0.5], [6.5, 0.5], [12.5, 0.5]]
        section = {"kind": "weyl_pair_with_D", "lambdas": lambdas, "xi_count": 2, "dim": 2, "starts": 1,
                   "initial": [0.3, -0.2]}
        cfg = _write(tmp_path, "i.json", _config("invert", section, problem=problem))
        assert main(["invert", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["data_kind"] == "weyl_pair_with_D"
        assert len(payload["per_datum"]) == 2 * len(lambdas) + 2
        assert all(i < 2 * len(lambdas) for i in payload["invalid_data"])

    def test_target_file_override(self, tmp_path, capsys):
        from nonlocal_sl import LinearForm, Potential, ProblemSpec
        from nonlocal_sl.inversion import make_two_spectra_target

        T = np.pi
        truth = ProblemSpec(
            q=Potential.from_cosine(T, [0.25]),
            form1=LinearForm.point_value(0.0, 0),
            form2=LinearForm.point_value(T, 0),
        )
        data = make_two_spectra_target(truth, 3).to_dict()
        data_path = tmp_path / "target.json"
        data_path.write_text(json.dumps(data), encoding="utf-8")
        section = {"kind": "two_spectra", "dim": 1, "starts": 1}
        cfg = _write(tmp_path, "i.json", _config("invert", section))
        assert main(["invert", cfg, "--target", str(data_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coeffs"][0] == pytest.approx(0.25, abs=1e-5)

    def test_csv_output(self, tmp_path):
        out = tmp_path / "i.csv"
        problem = dict(BASE_PROBLEM, q=_cosine(0.3))
        section = {"kind": "two_spectra", "n_each": 3, "dim": 1, "starts": 1}
        cfg = _write(tmp_path, "i.json", _config("invert", section, problem=problem))
        assert main(["invert", cfg, "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,coefficient"
        assert len(lines) == 2


class TestScenario:
    def test_named_scenario_without_config(self, capsys):
        assert main(["scenario", "--name", "three_spectra"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"]
        assert payload["counts"].get("2", 0) == 0
        assert payload["violations"] == 0


BOX = {"re": [0.5, 12.0], "im": [-1.0, 1.0]}


def _bad(**fields):
    return {**BASE_PROBLEM, "spectrum": {"box": BOX}, **fields}


def _nonlocal_u1(**measure):
    return _bad(U1={"type": "nonlocal", "measure": {"jump": [1, 0], **measure}})


# One malformed config per validator branch, with the exact stderr lines
# ("config error at " is dropped from each).  The n_cells row, the grid
# reach row and the last five rows were faults: a fractional cell count ran
# truncated, a grid below Re lambda = -13 failed on an empty search box that
# named neither, text breakpoints and a list among the quantities escaped as
# tracebacks, and true or 1.0 passed as an order.
ERROR_LINES = [
    ("unknown_top", "spectrum", _bad(extra=1), [".extra: unknown field"]),
    ("missing_fields", "spectrum", {"T": 3.0, "spectrum": {"box": BOX}},
     [".q: required once any problem field is present", ".U1: required once any problem field is present",
      ".U2: required once any problem field is present"]),
    ("T_bool", "spectrum", _bad(T=True), [".T: expected a number"]),
    ("q_notobj", "spectrum", _bad(q=3), [".q: expected an object"]),
    ("q_type", "spectrum", _bad(q={"type": "spline"}), [".q.type: expected zero, grid, piecewise, or cosine"]),
    ("q_T", "spectrum", _bad(q={"type": "zero", "T": 2.0}), [".q.T: must match the top-level T"]),
    ("q_zero_data", "spectrum", _bad(q={"type": "zero", "data": {}}), [".q.data: the zero potential takes no data"]),
    ("q_data_notobj", "spectrum", _bad(q={"type": "cosine", "data": [1]}), [".q.data: expected an object"]),
    ("q_pairs", "spectrum", _bad(q={"type": "cosine", "data": {"coefficients": [1.0], "x": 1}}),
     [".q.data.x: unknown field", ".q.data.coefficients[0]: expected a [re, im] pair"]),
    ("q_numbers", "spectrum", _bad(q={"type": "grid", "data": {"x": [0.0, "a"], "values": [[1, 0], [2, 0]]}}),
     [".q.data.x: expected a list of numbers"]),
    ("q_library", "spectrum",
     _bad(q={"type": "piecewise", "data": {"breakpoints": [0, 2, 1, 4], "values": [[1, 0], [2, 0], [3, 0]]}}),
     [".q.data: breakpoints must be strictly increasing"]),
    ("u1_notobj", "spectrum", _bad(U1=[0]), [".U1: expected an object"]),
    ("u1_type", "spectrum", _bad(U1={"type": "dirichlet"}), [".U1.type: expected point or nonlocal"]),
    ("u1_order", "spectrum", _bad(U1={"type": "point", "x": 0.0, "order": 2}), [".U1.order: expected 0 or 1"]),
    ("u1_x_range", "spectrum", _bad(U1={"type": "point", "x": 5.0}), [".U1.x: must lie in [0, 3.14159]"]),
    ("u1_x_text", "spectrum", _bad(U1={"type": "point", "x": "0"}), [".U1.x: expected a number"]),
    ("u2_extra", "spectrum", _bad(U2={"type": "point", "x": 1.0, "w": 1}), [".U2.w: unknown field"]),
    ("measure_notobj", "spectrum", _bad(U1={"type": "nonlocal", "measure": 1}), [".U1.measure: expected an object"]),
    ("measure_key", "spectrum", _nonlocal_u1(mass=1), [".U1.measure.mass: unknown field"]),
    ("jump", "spectrum", _nonlocal_u1(jump=[1]), [".U1.measure.jump: expected a [re, im] pair"]),
    ("atoms_notlist", "spectrum", _nonlocal_u1(atoms={}),
     [".U1.measure.atoms: expected a list of [t, [re, im]] entries"]),
    ("atom_shape", "spectrum", _nonlocal_u1(atoms=[[1.0]]), [".U1.measure.atoms[0]: expected [t, [re, im]]"]),
    ("atom_zero", "spectrum", _nonlocal_u1(atoms=[[0.0, [1, 0]]]),
     [".U1.measure.atoms[0]: atoms live in (0, T]; the point mass at 0 is the jump field"]),
    ("atom_far", "spectrum", _nonlocal_u1(atoms=[[4.0, [1, 0]]]),
     [".U1.measure.atoms[0]: atom location exceeds T = 3.14159"]),
    ("atom_entries", "spectrum", _nonlocal_u1(atoms=[["x", [1]]]),
     [".U1.measure.atoms[0]: expected a number", ".U1.measure.atoms[0]: expected a [re, im] pair"]),
    ("density_notobj", "spectrum", _nonlocal_u1(density=[1]), [".U1.measure.density: expected an object"]),
    ("density_key", "spectrum", _nonlocal_u1(density={"breakpoints": [0, 1], "values": [[1, 0], [1, 0]], "z": 0}),
     [".U1.measure.density.z: unknown field"]),
    ("density_short", "spectrum", _nonlocal_u1(density={"breakpoints": [0.0], "values": [[1, 0]]}),
     [".U1.measure.density.breakpoints: expected at least two numbers",
      ".U1.measure.density.values: expected a list of at least 2 [re, im] pairs"]),
    ("zero_jump", "spectrum", _bad(U1={"type": "nonlocal", "measure": {"atoms": [[1.0, [1, 0]]]}}),
     [".U1.measure.jump: the first form needs a nonzero point mass at 0"]),
    ("form_library", "spectrum",
     _bad(U2={"type": "nonlocal", "measure": {"density": {"breakpoints": [2, 1], "values": [[1, 0], [1, 0]]}}}),
     [".U2: density breakpoints must be non-decreasing"]),
    ("seed", "spectrum", _bad(seed=-1), [".seed: expected a non-negative integer"]),
    ("threads", "spectrum", _bad(threads=0), [".threads: expected a positive integer"]),
    ("output_notobj", "spectrum", _bad(output="x"), [".output: expected an object"]),
    ("output_fields", "spectrum", _bad(output={"path": 3, "format": "xml", "mode": 1}),
     [".output.mode: unknown field", ".output.path: expected a string", ".output.format: expected json or csv"]),
    ("section_notobj", "spectrum", _bad(spectrum=[1]), [".spectrum: expected an object"]),
    ("forward_pairs", "forward", _config("forward", {"lambdas": [1.0, 2.0]}),
     [".forward.lambdas[0]: expected a [re, im] pair", ".forward.lambdas[1]: expected a [re, im] pair"]),
    ("forward_empty", "forward", _config("forward", {"lambdas": []}),
     [".forward.lambdas: expected a list of at least 1 [re, im] pairs"]),
    ("forward_quantities", "forward", _config("forward", {"lambdas": [[1, 0]], "quantities": ["M", "M"]}),
     [".forward.quantities: expected distinct names from ('omega', 'delta1', 'delta2', 'delta11', 'M', 'N')"]),
    ("spectrum_fields", "spectrum", _bad(spectrum={"which": "delta3", "box": BOX, "tol": 0, "real_axis": 1}),
     [".spectrum.which: expected one of ('omega', 'delta1', 'delta2', 'delta11')", ".spectrum.tol: must be positive",
      ".spectrum.real_axis: expected true or false"]),
    ("spectrum_box", "spectrum", _bad(spectrum={}), [".spectrum.box: expected an object with re and im ranges"]),
    ("spectrum_ranges", "spectrum", _bad(spectrum={"box": {"re": [2.0, 1.0], "im": [0, True], "x": 1}}),
     [".spectrum.box.x: unknown field", ".spectrum.box.im: expected [low, high]"]),
    ("weyl_fields", "weyl", _config("weyl", {"lambdas": [[1, 0]], "which": "D", "xi_count": -1}),
     [".weyl.which: expected M or N", ".weyl.xi_count: must be at least 0"]),
    ("asym_fields", "asym", _config("asym", {"quantity": "Q", "x": "1", "order": 3, "ray": 1}),
     [".asym.x: expected a number", ".asym.order: expected 0 or 1", ".asym.ray: expected an object"]),
    ("asym_ray", "asym",
     _config("asym", {"quantity": "Phi", "ray": {"kind": "P", "angle": None, "delta": -1, "radii": [5, 4], "w": 0}}),
     [".asym.ray.w: unknown field", ".asym.ray.kind: expected Pi_delta or G_delta", ".asym.ray.angle: expected a number"]),
    ("asym_reference_missing", "asym", _config("asym", {"quantity": "Phi", "ray": {"kind": "G_delta", "angle": 0.1}}),
     [".asym.ray.reference: G_delta needs reference eigenvalues"]),
    ("asym_reference_extra", "asym", _config("asym", {"quantity": "Phi", "ray": {"angle": 0.1, "reference": [[1, 0]]}}),
     [".asym.ray.reference: only meaningful for G_delta"]),
    ("invert_fields", "invert",
     _config("invert", {"kind": "one", "n_each": 0, "lambdas": [], "xi_count": 1.5, "data": [1], "basis": "b",
                        "dim": "4", "starts": 0, "tol": -1, "max_iter": True, "initial": [True], "other": 1}),
     [".invert.other: unknown field",
      ".invert.kind: expected one of ('two_spectra', 'weyl_pair', 'weyl_pair_with_D', 'three_spectra')",
      ".invert.n_each: must be at least 1", ".invert.lambdas: expected a list of at least 1 [re, im] pairs",
      ".invert.xi_count: expected an integer", ".invert.data: expected a serialized target object",
      ".invert.dim: expected a number", ".invert.max_iter: expected a number",
      ".invert.initial: expected a list of real coefficients"]),
    ("invert_nulls", "invert", _config("invert", {"lambdas": None, "initial": None, "data": None}),
     [".invert.lambdas: expected a list of at least 1 [re, im] pairs",
      ".invert.initial: expected a list of real coefficients"]),
    ("scenario_name", "scenario", {"scenario": {"name": "counterexample3"}},
     [".scenario.name: expected one of ('counterexample1', 'counterexample2', 'three_spectra')"]),
    ("scenario_fields", "scenario",
     {"scenario": {"name": "counterexample1", "params": {"alpha": 1, "n_cells": "4"},
                   "grid": {"count": 0, "imag": "x", "step": 1}, "tol": 0, "d_count": 0, "box": {"re": [1, 0]},
                   "more": 1}},
     [".scenario.more: unknown field", ".scenario.params.alpha: unknown field",
      ".scenario.params.n_cells: expected a number", ".scenario.grid.step: unknown field",
      ".scenario.grid.count: must be at least 1", ".scenario.grid.imag: expected a number",
      ".scenario.tol: must be positive", ".scenario.d_count: must be at least 1",
      ".scenario.box.im: expected [low, high]"]),
    ("scenario_notobj", "scenario", {"scenario": {"name": "three_spectra", "params": [], "grid": [], "box": 1}},
     [".scenario.params: expected an object", ".scenario.grid: expected an object",
      ".scenario.box: expected an object with re and im ranges"]),
    ("scenario_q", "scenario", {"scenario": {"name": "three_spectra", "params": {"q": 1}}},
     [".scenario.params.q: unknown field"]),
    ("scenario_n_cells", "scenario", {"scenario": {"name": "counterexample1", "params": {"n_cells": 1000.5}}},
     [".scenario.params.n_cells: expected an integer"]),
    ("scenario_grid_reach", "scenario",
     {"scenario": {"name": "counterexample1", "grid": {"start": -30.0, "stop": -20.0, "count": 5}}},
     [".scenario.grid: the lambda grid's largest Re lambda is -20, so the box [-3, -10] x [-1, 1] searched for "
      "condition S is empty; the grid needs a point with Re lambda > -13"]),
    ("density_text", "spectrum", _nonlocal_u1(density={"breakpoints": ["a", 1.0], "values": [[1, 0], [1, 0]]}),
     [".U1.measure.density.breakpoints: expected at least two numbers"]),
    ("order_true", "spectrum", _bad(U1={"type": "point", "x": 0.0, "order": True}), [".U1.order: expected 0 or 1"]),
    ("order_float", "spectrum", _bad(U1={"type": "point", "x": 0.0, "order": 1.0}), [".U1.order: expected 0 or 1"]),
    ("forward_unhashable", "forward", _config("forward", {"lambdas": [[1, 0]], "quantities": [["M"]]}),
     [".forward.quantities: expected distinct names from ('omega', 'delta1', 'delta2', 'delta11', 'M', 'N')"]),
    ("asym_order_true", "asym",
     _config("asym", {"quantity": "Phi", "x": 1.0, "order": True, "ray": {"angle": 0.1, "radii": [5.0, 10.0]}}),
     [".asym.order: expected 0 or 1"]),
    # value rules that the library's constructors apply, at the paths of the fields they reject
    ("asym_radii", "asym", _config("asym", {"quantity": "Delta1", "ray": {"angle": 1.0, "radii": [-1, 2]}}),
     [".asym.ray.radii: radii must be finite, positive and strictly increasing"]),
    ("asym_delta", "asym", _config("asym", {"quantity": "Delta1", "ray": {"angle": 1.0, "delta": 2.0}}),
     [".asym.ray.delta: Pi_delta needs delta in (0, pi/2)"]),
    ("asym_angle", "asym", _config("asym", {"quantity": "Delta1", "ray": {"angle": 0.0}}),
     [".asym.ray.angle: arg rho = 0.0 is outside [delta, pi - delta] for delta=0.1"]),
    ("asym_quantity", "asym", _config("asym", {"quantity": "Q", "ray": {"angle": 1.0}}),
     [".asym.quantity: unknown quantity 'Q'; expected one of ('Delta1', 'Delta11', 'Phi', 'v1', 'varphi', 'v2')"]),
    ("asym_g_delta_quantity", "asym",
     _config("asym", {"quantity": "Delta1", "ray": {"kind": "G_delta", "angle": 1.0, "reference": [[1, 0]]}}),
     [".asym.quantity: G_delta bounds cover Phi, v1, varphi and v2 only"]),
    ("spectrum_box_inf", "spectrum", _bad(spectrum={"box": {"re": [0, 1e400], "im": [-1, 1]}}),
     [".spectrum.box: box corners must be finite"]),
    ("spectrum_box_empty", "spectrum", _bad(spectrum={"box": {"re": [2.0, 1.0], "im": [-1, 1]}}),
     [".spectrum.box: box must have positive width and height"]),
    ("invert_basis", "invert", _config("invert", {"basis": "b"}),
     [".invert.basis: unknown basis 'b'; expected cosine or piecewise"]),
    ("invert_starts", "invert", _config("invert", {"starts": 0}), [".invert.starts: starts must be at least 1"]),
    ("invert_tol", "invert", _config("invert", {"tol": -1}), [".invert.tol: tol must be a non-negative number"]),
    ("scenario_alpha0", "scenario", {"scenario": {"name": "counterexample2", "params": {"alpha0": 3.0}}},
     [".scenario.params.alpha0: alpha0 must lie in (0, pi/2)"]),
    ("scenario_split", "scenario", {"scenario": {"name": "three_spectra", "params": {"a": 9.0}}},
     [".scenario.params.a: the split point must lie inside (0, T)"]),
]


@pytest.mark.parametrize("command, config, lines", [c[1:] for c in ERROR_LINES], ids=[c[0] for c in ERROR_LINES])
def test_config_error_lines(tmp_path, capsys, command, config, lines):
    path = _write(tmp_path, "bad.json", config)
    assert main([command, path]) == 2
    assert capsys.readouterr().err == "".join(f"config error at {line}\n" for line in lines)


# The library reads a problem's fields for the CLI: each problem row above, fed
# straight to ProblemSpec.from_dict (q carrying the top-level T), reports the
# CLI's lines.  Which problem fields a config needs, and a q.T that disagrees
# with the top-level T, are the CLI's own checks.
CLI_OWN = ("required once any problem field is present", "must match the top-level T")
PROBLEM_ROWS = [
    c for c in ERROR_LINES if all(line.startswith((".q", ".U1", ".U2")) and not line.endswith(CLI_OWN) for line in c[3])
]


BASE_SPEC = ProblemSpec.from_dict({"q": {"T": BASE_PROBLEM["T"], "type": "zero"}, "U1": BASE_PROBLEM["U1"],
                                   "U2": BASE_PROBLEM["U2"]})
# The library reads these parts of a section for the CLI: (where the part sits, the fields of the
# section it reads, None for all, and the reader on the part, through errors._read).
SECTION_READERS = [
    (".asym", None, lambda d: _read(_read_asym, d, BASE_SPEC)),
    (".spectrum.box", None, lambda d: _read(_read_box, d)),
    (".scenario", ("name", "params"), lambda d: _read(_read_scenario, d)),
    (".invert", ("basis", "dim", "starts", "tol", "max_iter"),
     lambda d: _read(_read_options, {**_INVERT_DEFAULTS, **d}, BASE_SPEC, 0)),
]


def _read_by(prefix, fields, line):
    path = line.split(": ")[0]
    if fields is None:
        return path == prefix or path.startswith((f"{prefix}.", f"{prefix}["))
    return any(path == f"{prefix}.{f}" or path.startswith(f"{prefix}.{f}.") for f in fields)


SECTION_ROWS = [
    (c[0], c[2], c[3], (prefix, read))
    for c in ERROR_LINES
    for prefix, fields, read in SECTION_READERS
    if all(_read_by(prefix, fields, line) for line in c[3])
]


def _part(config, prefix):
    for key in prefix[1:].split("."):
        config = config.get(key)
    return config


@pytest.mark.parametrize(
    "config, lines, reader",
    [(c[2], c[3], None) for c in PROBLEM_ROWS] + [c[1:] for c in SECTION_ROWS],
    ids=[c[0] for c in PROBLEM_ROWS + SECTION_ROWS],
)
def test_library_reader_reports_the_config_lines(config, lines, reader):
    # a section row's lines, their section's prefix dropped
    if reader is not None:
        prefix, read = reader
        with pytest.raises(ConfigError) as exc:
            read(_part(config, prefix))
        assert exc.value.errors == [(p[len(prefix):] or ".", m) for p, m in (line.split(": ", 1) for line in lines)]
        return
    q = config["q"]
    data = {"q": {"T": config["T"], **q} if isinstance(q, dict) else q, "U1": config["U1"], "U2": config["U2"]}
    with pytest.raises(ConfigError) as exc:
        ProblemSpec.from_dict(data)
    assert [f"{path}: {msg}" for path, msg in exc.value.errors] == lines


POINT = {"type": "point", "x": 0.0}
# Malformed dicts that the library's from_dict used to read into a traceback or
# a silently different problem: (reader, dict, the one path reported).
READER_DEFECTS = [
    ("cosine_no_data", "problem", {"q": {"type": "cosine", "T": 2}, "U1": POINT, "U2": POINT}, ".q.data"),
    ("text_coefficient", "problem",
     {"q": {"type": "cosine", "T": 2, "data": {"coefficients": [["a", 0]]}}, "U1": POINT, "U2": POINT},
     ".q.data.coefficients[0]"),
    ("grid_no_values", "problem",
     {"q": {"type": "grid", "T": 2, "data": {"x": [0, 2]}}, "U1": POINT, "U2": POINT}, ".q.data.values"),
    ("short_atom", "form", {"type": "nonlocal", "measure": {"jump": [1, 0], "atoms": [[1.0]]}}, ".measure.atoms[0]"),
    ("point_no_x", "form", {"type": "point"}, ".x"),
    ("one_number_jump", "form", {"type": "nonlocal", "measure": {"jump": [1]}}, ".measure.jump"),
    ("order_true", "form", {"type": "point", "x": 0.5, "order": True}, ".order"),
    ("dirichlet", "form", {"type": "dirichlet", "x": 0.5}, ".type"),
]


@pytest.mark.parametrize("reader, data, path", [c[1:] for c in READER_DEFECTS], ids=[c[0] for c in READER_DEFECTS])
def test_library_reader_names_the_bad_field(reader, data, path):
    with pytest.raises(InputError) as exc:
        ProblemSpec.from_dict(data) if reader == "problem" else LinearForm.from_dict(data, 2.0)
    assert [p for p, _ in exc.value.errors] == [path]


MISSING = "<no such file>"

# Malformed invert data: (invert section, --target file content or None for
# no flag, exact stderr).  All eight used to escape as tracebacks with exit 1.
TWO_SPECTRA = {"kind": "two_spectra", "lambda1": [[1.0, 0.0]], "lambda11": [[2.0, 0.0]]}
THREE_SPECTRA = {
    "kind": "three_spectra",
    "lambda0": [[1.0, 0.0]],
    "lambda1": [[2.0, 0.0]],
    "lambda2": [[3.0, 0.0]],
    "split": 1.0,
    "certificate": {
        "holds": True, "min_gap": 0.5, "witness": None, "n_first": 1, "n_second": 1, "separation_tol": 1e-3,
    },
}
BAD_INVERT_DATA = [
    ("target_missing", {}, MISSING,
     "config error at --target: cannot read target file: [Errno 2] No such file or directory: '{path}'"),
    ("target_not_json", {}, "{not json",
     "config error at --target: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("target_no_kind", {}, {"lambda1": [[1.0, 0.0]]}, "input error: target data needs a 'kind' field"),
    ("target_bad_pair", {}, {"kind": "two_spectra", "lambda1": [1, 2], "lambda11": [[2.0, 0.0]]},
     "input error: target lambda1[0]: expected a [re, im] pair, got 1"),
    ("data_no_kind", {"data": {"lambda1": [[1.0, 0.0]]}}, None, "input error: target data needs a 'kind' field"),
    ("target_weight_text", {}, dict(TWO_SPECTRA, weights=["a", "b"]),
     "input error: target weights: expected a list of numbers, got ['a', 'b']"),
    ("target_empty_certificate", {}, dict(THREE_SPECTRA, certificate={}),
     "input error: target certificate: missing field 'holds'"),
    ("target_split_text", {}, dict(THREE_SPECTRA, split="x"), "input error: target split: expected a number, got 'x'"),
]


@pytest.mark.parametrize(
    "section, target, line", [c[1:] for c in BAD_INVERT_DATA], ids=[c[0] for c in BAD_INVERT_DATA]
)
def test_malformed_invert_data_is_one_line(tmp_path, capsys, section, target, line):
    cfg = _write(tmp_path, "i.json", _config("invert", {"dim": 1, "starts": 1, **section}))
    argv = ["invert", cfg]
    path = tmp_path / "target.json"
    if target is not None:
        argv += ["--target", str(path)]
        if target is not MISSING:
            path.write_text(target if isinstance(target, str) else json.dumps(target), encoding="utf-8")
    assert main(argv) == 2
    assert capsys.readouterr().err == line.format(path=path) + "\n"


# Bad command-line values, each with its one stderr line: a flag is read as the config key it
# overrides, by the same rule, and --seed and --threads before the thread cap is applied.
INVERT = _config("invert", {"dim": 1, "starts": 1})
KNOWN = "known: 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11"
BAD_FLAGS = [
    ("criteria_number", None, ["regress", "--criteria", "99"], f"--criteria: unknown criterion '99'; {KNOWN}"),
    ("criteria_text", None, ["regress", "--criteria", "1,abc"], f"--criteria: unknown criterion 'abc'; {KNOWN}"),
    ("seed", INVERT, ["invert", "--seed", "-1"], "--seed: expected a non-negative integer"),
    ("tol", INVERT, ["invert", "--tol", "-1"], "--tol: tol must be a non-negative number"),
    ("starts", INVERT, ["invert", "--starts", "0"], "--starts: starts must be at least 1"),
    ("dim", INVERT, ["invert", "--dim", "0"], "--dim: dim must be at least 1"),
    ("threads", _bad(), ["spectrum", "--threads", "0"], "--threads: expected a positive integer"),
]


@pytest.mark.parametrize("config, argv, line", [c[1:] for c in BAD_FLAGS], ids=[c[0] for c in BAD_FLAGS])
def test_bad_flag_values_are_usage_errors(tmp_path, capsys, monkeypatch, config, argv, line):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    if config is not None:
        argv = [argv[0], _write(tmp_path, "c.json", config), *argv[1:]]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error at {line}\n"
    assert "OMP_NUM_THREADS" not in os.environ


def test_library_values_pass_validation(tmp_path, capsys):
    # a one-radius ray and tol 0 are valid library values, from the config and from --tol alike
    section = {"quantity": "Delta1", "ray": {"angle": 1.2, "radii": [5]}}
    assert main(["asym", _write(tmp_path, "a.json", _config("asym", section))]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 1
    assert _validate(_config("invert", {"tol": 0})).sections["invert"]["options"].tol == 0
    args = _build_parser().parse_args(["invert", "c.json", "--tol", "0", "--starts", "2"])
    options = _validate(*_with_flags(INVERT, args)).sections["invert"]["options"]
    assert (options.tol, options.starts) == (0, 2)


class TestScenarioName:
    def test_a_config_section_takes_the_split_point_default(self, tmp_path, capsys):
        cfg = _write(tmp_path, "s.json", {"scenario": {"name": "three_spectra"}})
        assert main(["scenario", cfg]) == 0
        from_config = capsys.readouterr().out
        assert main(["scenario", "--name", "three_spectra"]) == 0
        assert capsys.readouterr().out == from_config
        assert json.loads(from_config)["params"]["a"] == 1.0

    def test_name_is_read_with_the_section(self, tmp_path, capsys):
        # --name replaces the section's name before the one reader checks its params
        section = {"name": "counterexample1", "params": {"n_cells": 4}}
        cfg = _write(tmp_path, "s.json", {"scenario": section})
        assert main(["scenario", cfg, "--name", "counterexample2"]) == 2
        assert capsys.readouterr().err == (
            "config error at .scenario.params: the potential must differ from its reflection "
            "(sup difference 0.0505, needed > 0.1)\n"
        )


# The CLI section accepts a drawn value exactly when the library's constructor does.
def _near(low, high):
    """Floats mostly in [low, high], where valid and invalid values both occur, else infinite or NaN."""
    return st.one_of(*[st.floats(low, high)] * 3, st.sampled_from([-np.inf, np.inf, np.nan]))


def _accepts(config) -> bool:
    try:
        _validate(config)
    except ConfigError:
        return False
    return True


def _builds(make) -> bool:
    try:
        make()
    except InputError:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["Pi_delta", "G_delta"]),
    angle=_near(-0.5, 3.7),
    extra=st.fixed_dictionaries({}, optional={"delta": _near(-0.5, 2.0), "radii": st.lists(_near(-5, 60), max_size=4)}),
    reference=st.lists(st.tuples(_near(-10, 400), _near(-1, 1)), min_size=1, max_size=2),
)
def test_ray_section_accepts_what_rayspec_does(kind, angle, extra, reference):
    ray = {"kind": kind, "angle": angle, **extra}
    if kind == "G_delta":
        ray["reference"] = [list(p) for p in reference]
        make = lambda: RaySpec.g_delta(angle, [complex(*p) for p in reference], **extra)
    else:
        make = lambda: RaySpec.pi_delta(angle, **extra)
    assert _accepts(_config("asym", {"quantity": "Phi", "x": 1.0, "ray": ray})) == _builds(make)


@settings(max_examples=100, deadline=None)
@given(re=st.tuples(_near(-5, 5), _near(-5, 5)), im=st.tuples(_near(-5, 5), _near(-5, 5)))
def test_box_section_accepts_what_searchbox_does(re, im):
    box = {"re": list(re), "im": list(im)}
    assert _accepts(_config("spectrum", {"box": box})) == _builds(lambda: SearchBox(*re, *im))


@settings(max_examples=100, deadline=None)
@given(
    section=st.fixed_dictionaries(
        {},
        optional={
            "basis": st.sampled_from(["cosine", "piecewise", "spline"]),
            "dim": st.integers(-2, 6),
            "starts": st.integers(-2, 6),
            "tol": _near(-1, 1),
            "max_iter": st.integers(-2, 6),
        },
    )
)
def test_invert_section_accepts_what_the_options_do(section):
    T, given_options = BASE_PROBLEM["T"], {k: v for k, v in section.items() if k not in ("basis", "dim")}

    def make():
        basis = BasisSpec(section.get("basis", "cosine"), T, section.get("dim", 4))
        ReconstructOptions(BASE_SPEC, basis, **given_options)

    assert _accepts(_config("invert", section)) == _builds(make)


class TestExitCodes:
    def test_validation_failure_is_2(self, tmp_path, capsys):
        bad = dict(BASE_PROBLEM, T=-1.0)
        cfg = _write(tmp_path, "bad.json", _config("forward", {"lambdas": [[1.0, 0.0]]}, problem=bad))
        assert main(["forward", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error at .T" in err

    def test_missing_config_file_is_2(self, tmp_path, capsys):
        assert main(["forward", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_numerical_failure_is_3(self, tmp_path, capsys):
        cfg = _write(
            tmp_path, "big.json", _config("forward", {"lambdas": [[-1.0e12, 0.0]]})
        )
        assert main(["forward", cfg]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_malformed_json_is_2(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        assert main(["spectrum", str(p)]) == 2
        assert "config error" in capsys.readouterr().err


class TestRegress:
    def test_single_criterion_with_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["regress", "--criteria", "1", "--out", str(report)]) == 0
        out = capsys.readouterr().out
        assert "criterion  1" in out and "PASS" in out
        doc = json.loads(report.read_text())
        assert doc["all_passed"] is True
        assert doc["criteria"][0]["number"] == 1
        assert doc["criteria"][0]["passed"] is True
        assert doc["criteria"][0]["runtime"] > 0
        assert doc["criteria"][0]["budget"] == 10

    def test_report_of_a_numpy_verdict_is_written(self, tmp_path):
        # criterion 8 computes its verdict with numpy, which json cannot encode
        report = tmp_path / "report.json"
        assert main(["regress", "--criteria", "8", "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["criteria"][0]["passed"] is True
        assert doc["criteria"][0]["budget"] is None


def _run_python(code, *argv):
    """Run code (or, with argv, `python *argv`) in a fresh interpreter that imports the
    package from this checkout's src/."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    args = argv if code is None else ("-c", code)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_cli_import_does_not_load_numerics():
    res = _run_python("import nonlocal_sl.cli, sys; print('numpy' in sys.modules)")
    assert res.returncode == 0
    assert res.stdout.strip() == "False"


def test_inversion_import_does_not_load_scipy():
    res = _run_python("import nonlocal_sl.inversion, sys; print('scipy.optimize' in sys.modules)")
    assert res.returncode == 0
    assert res.stdout.strip() == "False"


def test_contour_search_does_not_load_scipy():
    # the moment seeds' Hankel pencil is solved by numpy alone
    res = _run_python(
        "import sys; from nonlocal_sl.spectrum_finder import SearchBox, find_spectrum; "
        "s = find_spectrum(lambda z: (z - 2.0) * (z - 7.0 - 0.5j) * (z - 4.0), SearchBox(0.0, 10.0, -2.0, 2.0)); "
        "print(s.winding_total, 'scipy' in sys.modules)"
    )
    assert res.returncode == 0
    assert res.stdout.split() == ["3", "False"]


def test_python_m_runs_the_cli():
    res = _run_python(None, "-m", "nonlocal_sl", "--help")
    assert res.returncode == 0
    assert res.stdout.startswith("usage: nonlocal-sl")


def test_threads_flag_sets_env_before_numerics(tmp_path):
    cfg_payload = _config("spectrum", {"box": {"re": [0.5, 5.0], "im": [-1.0, 1.0]}})
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps(cfg_payload), encoding="utf-8")
    code = (
        "import os\n"
        "from nonlocal_sl.cli import main\n"
        f"rc = main(['spectrum', {str(cfg)!r}, '--threads', '2', '--out', {str(tmp_path / 'o.json')!r}])\n"
        "print(rc, os.environ.get('OMP_NUM_THREADS'))\n"
    )
    res = _run_python(code)
    assert res.returncode == 0
    assert res.stdout.strip() == "0 2"


@pytest.mark.parametrize("flag, expected", [([], "3"), (["--threads", "2"], "2")])
def test_config_threads_set_env_before_numerics(tmp_path, flag, expected):
    # the config's threads field caps the pools before numpy loads; --threads wins
    cfg_payload = dict(_config("spectrum", {"box": {"re": [0.5, 5.0], "im": [-1.0, 1.0]}}), threads=3)
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps(cfg_payload), encoding="utf-8")
    argv = ["spectrum", str(cfg), *flag, "--out", str(tmp_path / "o.json")]
    code = (
        "import os, sys\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.meta_path.insert(0, Spy())\n"
        "from nonlocal_sl.cli import main\n"
        f"rc = main({argv!r})\n"
        "print(rc, seen)\n"
    )
    res = _run_python(code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == f"0 [{expected!r}]"


def test_argparse_choices_match_the_library():
    from nonlocal_sl import cli, inversion, scenarios

    assert cli._BASES == inversion._BASES
    assert cli._SCENARIO_NAMES == scenarios._NAMES
