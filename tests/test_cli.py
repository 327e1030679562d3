"""Command-line interface: outputs, manifests and exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latticeic.cli
from latticeic.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, MAX_N_MAX, main
from latticeic.rates import dof_symmetric
from latticeic.simulate import MAX_SEARCH_BUDGET, MAX_SHIFT_TRIALS, MAX_TRIALS, ConfigError, SimConfig


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run_twice(argv, out):
    assert main(argv) == EXIT_OK
    first = out.read_bytes()
    first_manifest = (out.parent / (out.name + ".manifest.json")).read_bytes()
    assert main(argv) == EXIT_OK
    assert out.read_bytes() == first
    assert (out.parent / (out.name + ".manifest.json")).read_bytes() == first_manifest
    return first


class TestDofCurve:
    def test_two_steps_two_rows(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["dof-curve", "--a2-min", "0.1", "--a2-max", "10", "--steps", "2", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["a2", "dof"]
        assert len(rows) == 2

    def test_band_is_flat_one(self, tmp_path):
        out = tmp_path / "band.csv"
        argv = ["dof-curve", "--a2-min", str(1 / 3), "--a2-max", "2", "--steps", "50", "--out", str(out)]
        assert main(argv) == EXIT_OK
        _, rows = read_csv(out)
        assert all(float(v) == 1.0 for _, v in rows)

    def test_log_sweep_exceeds_one_at_extremes(self, tmp_path):
        out = tmp_path / "log.csv"
        argv = [
            "dof-curve", "--a2-min", "0.01", "--a2-max", "100",
            "--steps", "200", "--log-axis", "--out", str(out),
        ]
        assert main(argv) == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 200
        assert float(rows[0][1]) > 1.0 and float(rows[-1][1]) > 1.0

    def test_bad_range_is_validation_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["dof-curve", "--a2-min", "5", "--a2-max", "1", "--out", str(out)]) == EXIT_VALIDATION

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "curve.csv"
        run_twice(["dof-curve", "--a2-min", "0.5", "--a2-max", "4", "--steps", "10", "--out", str(out)], out)

    def test_ladder_outside_float_range_is_runtime_error(self, tmp_path, capsys):
        # the strong ladder ratio 2*a2^2 - a2 overflows from a2 ~ 1e154
        out = tmp_path / "far.csv"
        argv = ["dof-curve", "--a2-min", "1e150", "--a2-max", "1e160", "--steps", "3", "--out", str(out)]
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists() and not (tmp_path / "far.csv.manifest.json").exists()


class TestSymRateCompare:
    def test_single_row_when_range_degenerate(self, tmp_path):
        out = tmp_path / "one.csv"
        argv = ["sym-rate-compare", "--a", "2.5", "--p-min", "5", "--p-max", "5", "--out", str(out)]
        assert main(argv) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["P", "R_lattice", "R_HK"]
        assert len(rows) == 1

    def test_band_gain_duplicates_columns_with_warning(self, tmp_path):
        out = tmp_path / "band.csv"
        argv = [
            "sym-rate-compare", "--a", "1.0", "--p-min", "1", "--p-max", "10",
            "--steps", "3", "--grid-size", "51", "--out", str(out),
        ]
        assert main(argv) == EXIT_OK
        _, rows = read_csv(out)
        assert all(r[1] == r[2] for r in rows)
        manifest = json.loads((tmp_path / "band.csv.manifest.json").read_text())
        assert manifest["params"]["warnings"]


# the cyclic ratio is 1/7 + 8e-10: within 1e-9 of 1/7 absolute, but (1, 7) would leave |h31 f1|
# and |h32 f2| 5.6e-9 apart relative, outside the membership tolerance, so it is no witness
MISALIGNED_H = [[1, 15 * (1 / 7 + 8e-10), 20], [15, 1, 20], [20, 20, 1]]


class TestAlignCheck:
    def write_matrix(self, tmp_path, h):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"h": h}))
        return path

    def test_symmetric_very_strong_report(self, tmp_path):
        mat = self.write_matrix(tmp_path, [[1, 2, 2], [2, 1, 2], [2, 2, 1]])
        out = tmp_path / "report.json"
        argv = [
            "align-check", "--matrix-file", str(mat),
            "--powers", "3,3,3", "--noises", "1,1,1", "--out", str(out),
        ]
        assert main(argv) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["member"] and doc["witness"] == [1, 1]
        assert doc["condition_set"] == 1
        assert doc["rates_bits_per_dim"][0] == pytest.approx(0.5 * math.log2(3.0))

    def test_huge_gains_report_without_warning(self, tmp_path, capsys):
        mat = self.write_matrix(tmp_path, [[1, 1e200, 1e200], [1e200, 1, 1e200], [1e200, 1e200, 1]])
        out = tmp_path / "report.json"
        argv = ["align-check", "--matrix-file", str(mat), "--powers", "3,3,3", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["condition_set"] == 1

    @pytest.mark.parametrize("h, condition_set", [
        # the cyclic ratio 1e160 is its own witness p, whose square leaves the float range
        ([[1, 1e160, 1], [1, 1, 1], [1, 1, 1]], None),
        # (h12 / p)^2 = 9 >= (P + sigma2) / sigma2 = 4, and every other cross gain squares to 9
        ([[1, 3e160, 3], [3, 1, 3], [3, 3, 1]], 1),
    ])
    def test_witness_squaring_past_float_range(self, tmp_path, capsys, h, condition_set):
        mat = self.write_matrix(tmp_path, h)
        out = tmp_path / "report.json"
        argv = ["align-check", "--matrix-file", str(mat), "--powers", "3,3,3", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == ""
        doc = json.loads(out.read_text())
        assert doc["witness"][1] == 1 and doc["witness"][0] ** 2 > sys.float_info.max
        assert doc["condition_set"] == condition_set

    def test_irrational_ratio_not_member(self, tmp_path):
        r = math.sqrt(2.0)
        mat = self.write_matrix(tmp_path, [[1, r, 1], [1, 1, 1], [1, 1, 1]])
        out = tmp_path / "report.json"
        assert main(["align-check", "--matrix-file", str(mat), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["member"] is False

    def test_zero_witness_not_member(self, tmp_path):
        # the ratio 1e-12 is within 1e-9 of 0/1 absolute, but not relative: 0 would make a scale factor zero
        mat = self.write_matrix(tmp_path, [[1, 1e-12, 1], [1, 1, 1], [1, 1, 1]])
        out = tmp_path / "report.json"
        assert main(["align-check", "--matrix-file", str(mat), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text()) == {"member": False, "witness": None}

    def test_near_rational_ratio_not_member(self, tmp_path, capsys):
        # (1, 7) is within 1e-9 of the cyclic ratio absolute, but would misalign receiver 3
        mat = self.write_matrix(tmp_path, MISALIGNED_H)
        out = tmp_path / "report.json"
        argv = ["align-check", "--matrix-file", str(mat), "--powers", "3,3,3", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text()) == {"member": False, "witness": None}

    def test_zero_cross_gain_validation_error(self, tmp_path):
        mat = self.write_matrix(tmp_path, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        out = tmp_path / "report.json"
        assert main(["align-check", "--matrix-file", str(mat), "--out", str(out)]) == EXIT_VALIDATION


class TestSimulate:
    def write_config(self, tmp_path, **overrides):
        doc = dict(
            scheme="very-strong-sym",
            n=4,
            trials=100,
            master_seed=3,
            rates=[0.25],
            power=3.0,
            a=4.0,
            search_budget=2,
        )
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_writes_json_line_and_manifest(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run.jsonl"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["scheme"] == "very-strong-sym"
        assert len(doc["wilson"]) == 2
        manifest = json.loads((tmp_path / "run.jsonl.manifest.json").read_text())
        assert manifest["command"] == "simulate"

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run.jsonl"
        run_twice(["simulate", "--config", str(cfg), "--out", str(out)], out)

    def test_zero_trials_rejected(self, tmp_path):
        cfg = self.write_config(tmp_path, trials=0)
        out = tmp_path / "run.jsonl"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION

    def test_unknown_field_rejected(self, tmp_path):
        cfg = self.write_config(tmp_path, bogus=1)
        out = tmp_path / "run.jsonl"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION

    def test_replay_reproduces_output(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run.jsonl"
        first = run_twice(["simulate", "--config", str(cfg), "--out", str(out)], out)
        out.unlink()
        assert main(["replay", str(tmp_path / "run.jsonl.manifest.json")]) == EXIT_OK
        assert out.read_bytes() == first


class TestDofNonsym:
    def test_single_row(self, tmp_path):
        out = tmp_path / "d.csv"
        argv = ["dof-nonsym", "--a1", "2", "--a2", "2", "--a3", "2", "--n-max", "1", "--out", str(out)]
        assert main(argv) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["N", "sum_rate", "total_power", "dof_estimate"]
        assert len(rows) == 1

    def test_symmetric_triple_matches_closed_form(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        a = str(math.sqrt(10.0))
        argv = ["dof-nonsym", "--a1", a, "--a2", a, "--a3", a, "--n-max", "40", "--out", str(out)]
        assert main(argv) == EXIT_OK
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert manifest["params"]["dof"] == pytest.approx(dof_symmetric(10.0), abs=0.01)
        assert capsys.readouterr().out.strip() == repr(manifest["params"]["dof"])

    def test_weak_gains_rejected(self, tmp_path):
        out = tmp_path / "d.csv"
        argv = ["dof-nonsym", "--a1", "1", "--a2", "2", "--a3", "2", "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION


# A config whose decoder squared distances overflow, so that every candidate
# would tie at inf and the run report a wrong error rate; it is refused.
OVERFLOW_CONFIG = dict(
    scheme="very-strong-sym", n=2, trials=200, master_seed=3, rates=[0.25], power=1e200, a=1e100, search_budget=2,
)


class TestBadInputs:
    """Each bad input exits 2 with a one-line `error:` message, no traceback."""

    def assert_validation_error(self, argv, capsys):
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        assert out is None or not Path(out).exists()

    def write_matrix(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"h": [[1, 2, 2], [2, 1, 2], [2, 2, 1]]}))
        return path

    def test_align_check_two_powers(self, tmp_path, capsys):
        mat = self.write_matrix(tmp_path)
        argv = ["align-check", "--matrix-file", str(mat), "--powers", "3,3", "--out", str(tmp_path / "r.json")]
        self.assert_validation_error(argv, capsys)

    def test_align_check_four_noises(self, tmp_path, capsys):
        mat = self.write_matrix(tmp_path)
        argv = [
            "align-check", "--matrix-file", str(mat), "--powers", "3,3,3",
            "--noises", "1,1,1,1", "--out", str(tmp_path / "r.json"),
        ]
        self.assert_validation_error(argv, capsys)

    def test_align_check_noises_without_powers(self, tmp_path, capsys):
        # the noises enter only the very-strong check, which runs on --powers: they were ignored
        mat = self.write_matrix(tmp_path)
        argv = ["align-check", "--matrix-file", str(mat), "--noises", "5,5,5", "--out", str(tmp_path / "r.json")]
        self.assert_validation_error(argv, capsys)

    def test_missing_matrix_file(self, tmp_path, capsys):
        argv = ["align-check", "--matrix-file", str(tmp_path / "absent.json"), "--out", str(tmp_path / "r.json")]
        self.assert_validation_error(argv, capsys)

    H = "[[1, 2, 2], [2, 1, 2], [2, 2, 1]]"

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"h": ' + H + ', "max_den": 1e400}',
        '{"h": ' + H + ', "max_den": true}',
        '{"h": ' + H + ', "max_den": 0}',
        '{"h": ' + H + ', "max_den": 2.5}',
        '{"h": ' + H + ', "tol": NaN}',
        '{"h": ' + H + ', "tol": -1}',
        '{"h": ' + H + ', "tol": "1e-9"}',
        # the membership tolerances are fixed, and the file holds only h
        '{"h": ' + H + ', "tol": 1e-9}',
        '{"h": ' + H + ', "note": 1}',
        '{"h": [[1, Infinity, 2], [2, 1, 2], [2, 2, 1]]}',
        '{"h": [[1, NaN, 2], [2, 1, 2], [2, 2, 1]]}',
        '{"h": [[1, 2, 2], [2, 1, 2], [2, true, 1]]}',
        '{"h": [[1, 2, 2], [2, 1, 2], [2, 1' + "0" * 400 + ', 1]]}',
        '{"h": [[1, 2], [2, 1]]}',
        '{"H": ' + H + '}',
        # the cyclic ratio (h12/h21)(h23/h32)(h31/h13) overflows, and underflows to 0
        '{"h": [[1, 1e308, 1], [1e-308, 1, 1], [1, 1, 1]]}',
        '{"h": [[1, 1e-308, 1], [1e308, 1, 1], [1, 1, 1]]}',
        # the scale factor h23 q / h21 overflows
        '{"h": [[1, 1, 1e300], [1e-300, 1, 1e300], [1, 1e300, 1]]}',
        '{not json',
    ], ids=["not-an-object", "max-den-inf", "max-den-bool", "max-den-zero", "max-den-float", "tol-nan",
            "tol-negative", "tol-string", "tol-default", "unknown-key", "gain-inf", "gain-nan", "gain-bool",
            "gain-huge-int", "h-not-3x3", "h-missing", "ratio-overflow", "ratio-underflow", "factor-overflow",
            "not-json"])
    def test_bad_matrix_file(self, tmp_path, capsys, text):
        mat = tmp_path / "h.json"
        mat.write_text(text)
        self.assert_validation_error(["align-check", "--matrix-file", str(mat), "--out", str(tmp_path / "r.json")], capsys)

    def test_missing_config(self, tmp_path, capsys):
        argv = ["simulate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "run.jsonl")]
        self.assert_validation_error(argv, capsys)

    def test_missing_replay_manifest(self, tmp_path, capsys):
        self.assert_validation_error(["replay", str(tmp_path / "absent.manifest.json")], capsys)

    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_oversized_codebook_refused(self, tmp_path, capsys):
        # a 2**80-word target: the shaping enumeration refuses before it runs away
        cfg = self.write_config(tmp_path, dict(scheme="p2p", n=4, trials=100, master_seed=0, rates=[20], power=3.0))
        self.assert_validation_error(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run.jsonl")], capsys)

    def simulate_text(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        self.assert_validation_error(["simulate", "--config", str(path), "--out", str(tmp_path / "run.jsonl")], capsys)

    @pytest.mark.parametrize("text", [
        # a^2 = 0 is outside both layered regimes
        '{"scheme": "layered-sym", "n": 4, "trials": 100, "master_seed": 0, "rates": [0.1], "a": 0}',
        '{"scheme": "p2p", "n": 4, "trials": 100, "master_seed": 0, "rates": [0.5], "power": "x"}',
        '{"scheme": "p2p", "n": 4.5, "trials": 100, "master_seed": 0, "rates": [0.5], "power": 3}',
        '{"scheme": "p2p", "n": 4, "trials": true, "master_seed": 0, "rates": [0.5], "power": 3}',
        '{"scheme": "very-strong-sym", "n": 4, "trials": 100, "master_seed": 0, "rates": [0.5], "power": NaN, "a": 4}',
        '{"scheme": "p2p", "n": 4, "trials": 100, "master_seed": 0, "rates": [0.5], "power": Infinity}',
        '{"scheme": "p2p", "n": 4, "trials": 100, "master_seed": 0, "rates": [NaN], "power": 3}',
        '{"scheme": "very-strong-general", "n": 4, "trials": 100, "master_seed": 0, "rates": [0.3, 0.3, 0.3],'
        ' "powers": [3, 3, 3], "h": [[1, 4, 4], [4, 1, "4"], [4, 4, 1]]}',
        '{"scheme": "p2p", "n": 4, "trials": 100}',
        "[1, 2]",
        # a^2 overflows
        '{"scheme": "layered-sym", "n": 4, "trials": 100, "master_seed": 0, "rates": [0.1], "a": 1e200}',
        '{"scheme": "very-strong-sym", "n": 4, "trials": 100, "master_seed": 0, "rates": [0.1], "power": 3, "a": 1e200}',
        # the codebook target 2^(nR), the sphere's radius**n, or their quotient leaves the float range
        '{"scheme": "p2p", "n": 2, "trials": 100, "master_seed": 0, "rates": [512], "power": 3}',
        '{"scheme": "p2p", "n": 4, "trials": 100, "master_seed": 0, "rates": [0.5], "power": 1e200}',
        '{"scheme": "p2p", "n": 10, "trials": 100, "master_seed": 0, "rates": [0.5], "power": 3e60}',
        '{"scheme": "very-strong-general", "n": 4, "trials": 100, "master_seed": 0, "rates": [300, 0.3, 0.3],'
        ' "powers": [3, 3, 3], "h": [[1, 4, 4], [4, 1, 4], [4, 4, 1]]}',
        # an integer too large for a float
        '{"scheme": "p2p", "n": 4, "trials": 100, "master_seed": 0, "rates": [0.5], "power": 1' + "0" * 400 + "}",
        # the decoders' squared distances could overflow
        json.dumps(OVERFLOW_CONFIG),
        '{"scheme": "layered-sym", "n": 2, "trials": 100, "master_seed": 0, "rates": [0.1, 0.1], "N": 2, "a": 1e40}',
        # the ladder's ratio**2 overflows to inf: refused by the bound, with no numpy warning
        '{"scheme": "layered-sym", "n": 2, "trials": 100, "master_seed": 0, "rates": [0.1, 0.1, 0.1], "N": 3, "a": 1e55}',
        '{"scheme": "very-strong-general", "n": 4, "trials": 100, "master_seed": 0, "rates": [0.3, 0.3, 0.3],'
        ' "powers": [3, 3, 3], "h": [[1, 1e160, 1e160], [1e160, 1, 1e160], [1e160, 1e160, 1]]}',
        '{"scheme": "p2p", "n": 4, "trials": 100, "master_seed": 0, "rates": [0.5], "power": 3, "sigma2": 1e308}',
        '{"scheme": "very-strong-general", "n": 4, "trials": 100, "master_seed": 0, "rates": [0.3, 0.3, 0.3],'
        ' "powers": [3, 3, 3], "h": [[1, 4], [4, 1]]}',
        # one above each size cap
        f'{{"scheme": "p2p", "n": 4, "trials": {MAX_TRIALS + 1}, "master_seed": 0, "rates": [0.5], "power": 3}}',
        f'{{"scheme": "p2p", "n": 4, "trials": 100, "master_seed": 0, "rates": [0.5], "power": 3,'
        f' "shift_trials": {MAX_SHIFT_TRIALS + 1}}}',
        f'{{"scheme": "p2p", "n": 4, "trials": 100, "master_seed": 0, "rates": [0.5], "power": 3,'
        f' "search_budget": {MAX_SEARCH_BUDGET + 1}}}',
        # every (p, k) candidate of the largest rate has more than 100 000 cosets
        '{"scheme": "p2p", "n": 10, "trials": 100, "master_seed": 0, "rates": [2.0], "power": 15}',
        '{"scheme": "very-strong-general", "n": 10, "trials": 100, "master_seed": 0, "rates": [2.5, 0.3, 0.3],'
        ' "powers": [3, 3, 3], "h": [[1, 4, 4], [4, 1, 4], [4, 4, 1]]}',
        '{not json',
    ], ids=["layered-a-zero", "power-string", "n-float", "trials-bool", "power-nan", "power-inf",
            "rate-nan", "h-string", "missing-rates", "not-an-object", "layered-a-huge", "very-strong-a-huge",
            "p2p-target-overflow", "p2p-sphere-overflow", "p2p-volume-inf", "general-target-overflow",
            "power-huge-int", "very-strong-distance-overflow", "layered-distance-overflow", "layered-ladder-overflow",
            "general-distance-overflow", "p2p-noise-overflow", "general-h-not-3x3",
            "trials-above-cap", "shift-trials-above-cap", "search-budget-above-cap",
            "p2p-no-candidate", "general-no-candidate", "not-json"])
    def test_bad_config_field(self, tmp_path, capsys, text):
        self.simulate_text(tmp_path, capsys, text)

    def test_negative_seed_flag_refused(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, dict(scheme="p2p", n=4, trials=100, rates=[0.5], power=3.0))
        argv = ["simulate", "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path / "run.jsonl")]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: master_seed must be nonnegative\n"
        assert not (tmp_path / "run.jsonl").exists()

    def test_seed_flag_and_master_seed_refused(self, tmp_path, capsys):
        # the config's master_seed used to win silently over the flag that the manifest's argv records
        cfg = self.write_config(tmp_path, dict(scheme="p2p", n=4, trials=100, master_seed=7, rates=[0.5], power=3.0))
        argv = ["simulate", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "run.jsonl")]
        self.assert_validation_error(argv, capsys)

    def test_seedless_config_without_flag_runs_seed_zero(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, SEEDLESS_CONFIG)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run.jsonl")]) == EXIT_OK
        assert json.loads((tmp_path / "run.jsonl").read_text())["seed"] == 0

    def test_codebook_volume_overflow_names_inputs(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, dict(scheme="p2p", n=2, trials=100, master_seed=0, rates=[512], power=3.0))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run.jsonl")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: n=2, rate=512, power=3.0: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["dof-curve", "--a2-min", "1", "--a2-max", "inf"],
        ["dof-curve", "--a2-min", "nan", "--a2-max", "2"],
        ["dof-nonsym", "--a1", "inf", "--a2", "3", "--a3", "3"],
        # the squared gain overflows
        ["dof-nonsym", "--a1", "1e200", "--a2", "3", "--a3", "3"],
        ["sym-rate-compare", "--a", "nan"],
        ["sym-rate-compare", "--a", "0"],
        ["sym-rate-compare", "--a", "-2.5"],
        # the squared gain underflows to 0
        ["sym-rate-compare", "--a", "1e-200"],
        ["sym-rate-compare", "--a", "2.5", "--p-max", "inf"],
        ["sym-rate-compare", "--a", "2.5", "--grid-size", "1"],
        # above MAX_GRID_SIZE: refused before any grid is allocated
        ["sym-rate-compare", "--a", "1.0", "--steps", "1", "--grid-size", "1000000000000"],
        # above MAX_GRID_SIZE: refused before any sweep is allocated
        ["dof-curve", "--a2-min", "1", "--a2-max", "2", "--steps", "1000000000000000"],
        ["dof-curve", "--a2-min", "1", "--a2-max", "2", "--steps", "1000001", "--log-axis"],
        ["sym-rate-compare", "--a", "2.5", "--steps", "1000000000000000"],
        ["sym-rate-compare", "--a", "2.5", "--p-min", "1", "--p-max", "1", "--steps", "1000001"],
        # the baseline's power sums overflow: 511.5 and 255.7 bits per user came out at exit 0
        ["sym-rate-compare", "--a", "1.0", "--p-min", "1", "--p-max", "8.98846567431164e+307", "--steps", "2"],
        ["sym-rate-compare", "--a", "0.5", "--p-min", "1.7e308", "--p-max", "1.7e308", "--grid-size", "5"],
        # above MAX_N_MAX: refused before any layer count is swept
        ["dof-nonsym", "--a1", "1.42", "--a2", "1.42", "--a3", "1.42", "--n-max", str(MAX_N_MAX + 1)],
        ["dof-nonsym", "--a1", "1.42", "--a2", "1.42", "--a3", "1.42", "--n-max", "1000000"],
    ], ids=" ".join)
    def test_bad_numeric_flag(self, tmp_path, capsys, argv):
        self.assert_validation_error(argv + ["--out", str(tmp_path / "x.csv")], capsys)

    def test_overflowing_layer_powers_are_a_runtime_error(self, tmp_path, capsys):
        # finite flags whose layer powers overflow from N = 3 on: no NaN rows
        out = tmp_path / "d.csv"
        argv = ["dof-nonsym", "--a1", "1e60", "--a2", "3", "--a3", "3", "--n-max", "6", "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_RUNTIME
        # the one error line, without numpy's overflow warnings next to it
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_align_check_nan_power(self, tmp_path, capsys):
        mat = self.write_matrix(tmp_path)
        argv = ["align-check", "--matrix-file", str(mat), "--powers", "3,nan,3", "--out", str(tmp_path / "r.json")]
        self.assert_validation_error(argv, capsys)

    def test_replay_of_replay_refused(self, tmp_path, capsys):
        manifest = tmp_path / "loop.manifest.json"
        manifest.write_text(json.dumps({"argv": ["replay", str(manifest)]}))
        self.assert_validation_error(["replay", str(manifest)], capsys)

    def test_manifest_without_argv(self, tmp_path, capsys):
        manifest = tmp_path / "bare.manifest.json"
        # no argv, an argv that is a string, and one that holds a number
        for doc in ({"command": "dof-curve"}, {"argv": "dof-curve --a2-min 1 --a2-max 2 --out x"},
                    {"argv": ["dof-curve", "--steps", 7]}):
            manifest.write_text(json.dumps(doc))
            self.assert_validation_error(["replay", str(manifest)], capsys)

    def test_two_sigma2s(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, dict(
            scheme="very-strong-general", n=4, trials=100, master_seed=0, rates=[0.3] * 3,
            powers=[3.0] * 3, h=[[1, 4, 4], [4, 1, 4], [4, 4, 1]], sigma2s=[1.0, 1.0],
        ))
        self.assert_validation_error(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run.jsonl")], capsys)


# Short runs of every closed-form command, covering the strong, weak and
# band regimes of sym-rate-compare (including points exactly on the first
# layer threshold), both dof-curve axes, dof-nonsym and align-check with
# each very-strong condition set. Each digest is the SHA-256 of the output
# file followed by the sorted-key JSON of the manifest's params; any change
# to either is a change in closed-form output.
ALIGN_MATRICES = {
    "set-1": [[1, 2, 2], [2, 1, 2], [2, 2, 1]],
    "set-2": [[1, 4, 10], [10, 1, 10], [75, 10, 1]],
    "set-3": [[1, 2, 5], [2, 1, 2], [15, 2, 1]],
}
CLOSED_FORM_PINNED = {
    "compare-strong": (
        ["sym-rate-compare", "--a", "2.5", "--p-min", "0.5", "--p-max", "1e5", "--steps", "9", "--grid-size", "51"],
        "71037e619ce37edffcb1dfbea2d2e0d60863c5edf46382b22125b124a5e04ae8",
    ),
    "compare-strong-threshold": (
        ["sym-rate-compare", "--a", "2.5", "--p-min", "5.25", "--p-max", "5.25", "--grid-size", "51"],
        "d31f1f673dea0cc4e046bbf7b16ef062e8f2ad7e80b36bfd1c0ab22ee4d9bfbe",
    ),
    "compare-weak": (
        ["sym-rate-compare", "--a", "0.5", "--p-min", "0.5", "--p-max", "1e5", "--steps", "9", "--grid-size", "51"],
        "60518ff7a873b9af709892a7b0db2b71e82c649e1a866cf98cd9850c109c7874",
    ),
    "compare-weak-threshold": (
        ["sym-rate-compare", "--a", "0.5", "--p-min", "6", "--p-max", "6", "--grid-size", "51"],
        "d69f0eedab00fa7e06875f8cb397e572afff71e120ca2d05760a6481c02551ba",
    ),
    "compare-band": (
        ["sym-rate-compare", "--a", "1.0", "--p-min", "1", "--p-max", "1e4", "--steps", "4", "--grid-size", "51"],
        "8b0078cca26fa1db9d1dca57e541bf3f7d18dec8b49ae4f41547af5f795a8f3c",
    ),
    "dof-curve-log": (
        ["dof-curve", "--a2-min", "0.01", "--a2-max", "100", "--steps", "41", "--log-axis"],
        "479a156cf96768c36725e2c3c451f63833520d34eabda18f39e4ce66e009c873",
    ),
    "dof-curve-linear": (
        ["dof-curve", "--a2-min", "0.05", "--a2-max", "12", "--steps", "25"],
        "ab7775507f2dcce164a2bc30539ddcfcfae725288786662482da7eb4e8e19a51",
    ),
    "dof-nonsym": (
        ["dof-nonsym", "--a1", "4", "--a2", "6", "--a3", "8", "--n-max", "12"],
        "8bc5dc5781549752e8dd268b5077c3cec1a40009830bb267d3d0b2b303eec4ab",
    ),
    "align-check-set-1": (["align-check", "--matrix", "set-1", "--powers", "3,3,3"], "9ed354dbe620da939e12f3212ce9d2e4e67e0368d9789dc1ea9bb3be6190228b"),
    "align-check-set-2": (["align-check", "--matrix", "set-2", "--powers", "1,1,1"], "2434bf3d68b4eab4aaaf3b7ea7d9991a859fb5c0bb5f3939a050eefb06613676"),
    "align-check-set-3": (["align-check", "--matrix", "set-3", "--powers", "2,2,2", "--noises", "1,1,1"], "2a12cdd72d7f572e12bfa4123421cbfebc20547c65c9b71c1ee6a28f5f925b77"),
    "align-check-no-powers": (["align-check", "--matrix", "set-3"], "8665f9be98ed96279020fa2be2c939290981ee0a73e45518610f3ffd055c91b9"),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_PINNED))
def test_closed_form_outputs_pinned(name, tmp_path, capsys):
    assert closed_form_digest(name, tmp_path) == CLOSED_FORM_PINNED[name][1]


def closed_form_digest(name, tmp_path):
    """The digest of a pinned closed-form command's output and params."""
    argv = list(CLOSED_FORM_PINNED[name][0])
    if "--matrix" in argv:
        i = argv.index("--matrix")
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"h": ALIGN_MATRICES[argv[i + 1]]}))
        argv[i : i + 2] = ["--matrix-file", str(path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    params = json.loads((tmp_path / "out.manifest.json").read_text())["params"]
    params.pop("matrix_file", None)
    blob = out.read_bytes() + json.dumps(params, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class TestOneParser:
    """`main` builds its parser once per process and reuses it for every call."""

    def test_consecutive_commands_match_pins(self, tmp_path, capsys):
        for name in ("dof-curve-linear", "dof-nonsym", "align-check-set-2", "compare-weak-threshold"):
            (tmp_path / name).mkdir()
            assert closed_form_digest(name, tmp_path / name) == CLOSED_FORM_PINNED[name][1]

    def test_built_once(self, monkeypatch, tmp_path, capsys):
        built = []
        real = latticeic.cli.build_parser
        monkeypatch.setattr(latticeic.cli, "build_parser", lambda: built.append(1) or real())
        latticeic.cli._parser.cache_clear()
        try:
            out = str(tmp_path / "out")
            assert main(["dof-curve", "--a2-min", "1", "--a2-max", "2", "--steps", "3", "--out", out]) == EXIT_OK
            assert main(["dof-nonsym", "--a1", "4", "--a2", "6", "--a3", "8", "--n-max", "3", "--out", out]) == EXIT_OK
            assert main(["replay", out + ".manifest.json"]) == EXIT_OK
        finally:
            latticeic.cli._parser.cache_clear()
        assert built == [1]

    def test_not_built_at_import(self):
        code = "import latticeic.cli as c; print(c._parser.cache_info().currsize)"
        assert fresh_process(["-c", code]) == (0, "0\n", "")

    def test_module_entry_point_exits_with_main_code(self, tmp_path):
        # `python -m latticeic.cli` passes main's return code to the process
        args = ["-m", "latticeic.cli", "dof-curve", "--a2-min", "1", "--a2-max", "2"]
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        assert fresh_process([*args, "--steps", "3", "--out", str(good)]) == (0, "", "")
        assert good.exists()
        rc, out, err = fresh_process([*args, "--steps", "1", "--out", str(bad)])
        assert (rc, out) == (EXIT_VALIDATION, "") and err.startswith("error: ") and err.count("\n") == 1
        assert not bad.exists()

    def test_calls_behave_as_in_fresh_processes(self, monkeypatch, tmp_path, capsys):
        # a bad flag, --version, a good call and its replay, in one process and each in its own
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal width
        good = ["dof-curve", "--a2-min", "0.05", "--a2-max", "12", "--steps", "25", "--out"]
        calls = [["dof-curve", "--a2-min", "1", "--a2-max", "2", "--bogus", "--out", "x"], ["--version"]]
        for argv in calls:
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            seen = capsys.readouterr()
            assert (rc, seen.out, seen.err) == fresh_process(["-m", "latticeic.cli", *argv])
        for where in ("here", "fresh"):
            (tmp_path / where).mkdir()
        assert main(good + [str(tmp_path / "here" / "out")]) == EXIT_OK
        assert fresh_process(["-m", "latticeic.cli", *good, str(tmp_path / "fresh" / "out")]) == (0, "", "")
        first = (tmp_path / "here" / "out").read_bytes()
        assert first == (tmp_path / "fresh" / "out").read_bytes()
        (tmp_path / "here" / "out").unlink()
        assert main(["replay", str(tmp_path / "here" / "out.manifest.json")]) == EXIT_OK
        assert (tmp_path / "here" / "out").read_bytes() == first


def fresh_process(args):
    """(exit code, stdout, stderr) of a new interpreter run with `args`."""
    src = str(Path(latticeic.cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


# Any float, including NaN, infinities, negatives and subnormals, mixed with
# moderate values so that the successful paths are exercised too, and with
# the values whose squares or logarithms leave the float range.
ANY_FLOAT = st.one_of(
    st.floats(),
    st.floats(1e-3, 1e3),
    st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan, 1e-200, 1e154, 1e200, 5e-324]),
)
NUMERIC_FLAGS = {
    "dof-curve": {"--a2-min": ANY_FLOAT, "--a2-max": ANY_FLOAT, "--steps": st.integers(-1, 6)},
    "sym-rate-compare": {
        "--a": ANY_FLOAT, "--p-min": ANY_FLOAT, "--p-max": ANY_FLOAT,
        "--steps": st.integers(-1, 6), "--grid-size": st.integers(-1, 6),
    },
    "dof-nonsym": {"--a1": ANY_FLOAT, "--a2": ANY_FLOAT, "--a3": ANY_FLOAT, "--n-max": st.integers(-1, 6)},
}


@pytest.mark.parametrize("command", sorted(NUMERIC_FLAGS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_numeric_flags_exit_codes_and_finite_output(command, data):
    flags = data.draw(st.fixed_dictionaries(NUMERIC_FLAGS[command]))
    argv = [command] + [f"{flag}={value!r}" for flag, value in flags.items()]
    if command == "dof-curve" and data.draw(st.booleans()):
        argv.append("--log-axis")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        rc = main(argv + ["--out", str(out)])
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME)
        if rc != EXIT_OK:
            assert not out.exists()
            return
        _, rows = read_csv(out)
        assert rows and all(math.isfinite(float(x)) for row in rows for x in row)


# Whole manifest files, byte for byte, with the run's temporary directory
# replaced by a fixed placeholder. Covers every command's params (including
# the derived `warnings` and `dof` entries), a simulate config whose
# master_seed comes from --seed (recorded only in params' config), and the
# replay of that run.
MANIFEST_PINNED = {
    "dof-curve": (
        ["dof-curve", "--a2-min", "0.05", "--a2-max", "12", "--steps", "7", "--log-axis"],
        "515165c674cfee426dd57fe01ec42d2b89c08dfd912df42316db85391ce3e729",
    ),
    "sym-rate-compare-band": (
        ["sym-rate-compare", "--a", "1.0", "--p-min", "1", "--p-max", "100", "--steps", "3", "--grid-size", "21"],
        "8a597fb6d75d0d59c3854b6b80be32e335e2ffc8857d175b2ddfc19b6200fa73",
    ),
    "align-check": (
        ["align-check", "--matrix", "set-2", "--powers", "1,1,1", "--noises", "1,2,1"],
        "b793351824fb84c076d00c0077798de98d1998008d9fe6e096422c9eb5f7e28b",
    ),
    "align-check-no-powers": (
        ["align-check", "--matrix", "set-3"],
        "ba9b21a3a772a4706705f4e5f322a99f8b86e3c8fddc414c314e82a5bcfcd9ab",
    ),
    "dof-nonsym": (
        ["dof-nonsym", "--a1", "4", "--a2", "6", "--a3", "8", "--n-max", "5"],
        "b977f4eac396d4eb7b8c61054ef9581a8ec8b79cf33a51cb4ea85274672c3f2c",
    ),
    "simulate-seed-flag": (
        ["simulate", "--config", "{tmp}/sim.json", "--seed", "5"],
        "553d21704d12957d6b89a27aa18d48104c44121aac5f0ebed9db882cf352f301",
    ),
    # replays the manifest of simulate-seed-flag, which rewrites the same output
    "simulate-replay": (
        ["replay", "{tmp}/first.manifest.json"],
        "553d21704d12957d6b89a27aa18d48104c44121aac5f0ebed9db882cf352f301",
    ),
}
SEEDLESS_CONFIG = dict(scheme="very-strong-sym", n=4, trials=100, rates=[0.25], power=3.0, a=4.0, search_budget=1)


@pytest.mark.parametrize("name", sorted(MANIFEST_PINNED))
def test_whole_manifest_pinned(name, tmp_path):
    argv, digest = MANIFEST_PINNED[name]
    tmp = str(tmp_path)
    argv = [a.replace("{tmp}", tmp) for a in argv]
    if "--matrix" in argv:
        i = argv.index("--matrix")
        (tmp_path / "h.json").write_text(json.dumps({"h": ALIGN_MATRICES[argv[i + 1]]}))
        argv[i : i + 2] = ["--matrix-file", tmp + "/h.json"]
    (tmp_path / "sim.json").write_text(json.dumps(SEEDLESS_CONFIG))
    if argv[0] == "replay":
        assert main(["simulate", "--config", tmp + "/sim.json", "--seed", "5", "--out", tmp + "/out"]) == EXIT_OK
        (tmp_path / "out").unlink()
        (tmp_path / "out.manifest.json").rename(tmp_path / "first.manifest.json")
    else:
        argv += ["--out", tmp + "/out"]
    assert main(argv) == EXIT_OK
    manifest = (tmp_path / "out.manifest.json").read_bytes().replace(tmp.encode(), b"{tmp}")
    assert hashlib.sha256(manifest).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["dof-curve", "--a2-min", "1", "--a2-max", "2"],
    ["sym-rate-compare", "--a", "2.5"],
    ["align-check", "--matrix-file", "h.json"],
    ["dof-nonsym", "--a1", "4", "--a2", "6", "--a3", "8"],
], ids=lambda argv: argv[0])
def test_seed_flag_is_simulate_only(argv, capsys):
    # the closed-form commands draw no random numbers, so they take no seed
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1", "--out", "x"])
    assert exc.value.code == EXIT_VALIDATION
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_configs_validate():
    """Every JSON block of the README is a simulation config that validates,
    so a doc example cannot use a refused field."""
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        SimConfig(**json.loads(block)).validate()


def test_readme_cli_examples_parse():
    """Every `latticeic ...` line of the README parses, so a removed flag
    cannot stay in the docs; nothing is run."""
    lines = [line.strip() for line in README.read_text().splitlines() if line.strip().startswith("latticeic ")]
    assert len(lines) >= 6
    parser = latticeic.cli.build_parser()
    for line in lines:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {line}\n{err.getvalue()}")


# A short run of each scheme that passes validation (with 4 candidates it
# mostly finds a lattice too); the property below replaces up to two fields
# of one of them with arbitrary values.
VALID_CONFIGS = {
    "p2p": dict(rates=[0.25], power=3.0),
    "very-strong-sym": dict(rates=[0.25], power=3.0, a=4.0),
    "layered-sym": dict(rates=[0.1, 0.1], N=2, a=2.0),
    "very-strong-general": dict(rates=[0.25] * 3, powers=[3.0] * 3, h=[[1, 4, 4], [4, 1, 4], [4, 4, 1]]),
}
WILD_FIELDS = {
    "scheme": st.sampled_from(sorted(VALID_CONFIGS) + ["no-such-scheme"]),
    "trials": st.integers(99, 101),
    "search_budget": st.integers(0, 1),
    "shift_trials": st.integers(0, 1),
    "power": ANY_FLOAT,
    "a": ANY_FLOAT,
    "sigma2": ANY_FLOAT,
    "rates": st.lists(ANY_FLOAT, min_size=1, max_size=3),
}


def all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(all_finite(v) for v in obj)
    return True


@st.composite
def wild_configs(draw):
    scheme = draw(st.sampled_from(sorted(VALID_CONFIGS)))
    doc = dict(
        scheme=scheme, n=draw(st.integers(2, 4)), trials=100, master_seed=draw(st.integers(0, 3)),
        search_budget=4, shift_trials=1, **VALID_CONFIGS[scheme],
    )
    for name in sorted(draw(st.sets(st.sampled_from(sorted(WILD_FIELDS)), max_size=2))):
        doc[name] = draw(WILD_FIELDS[name])
    return doc


def validates(doc) -> bool:
    try:
        SimConfig(**doc).validate()
    except ConfigError:
        return False
    return True


# layer 1's rate is above its stage ceiling, 2.2925 bits at a = 5
OVER_CEILING_CONFIG = dict(
    scheme="layered-sym", n=6, trials=100, master_seed=0, search_budget=4, shift_trials=1,
    rates=[2.5, 2.5], N=2, a=5.0,
)
# the cyclic ratio 1/7 + 8e-10 has no witness; the shaping-sphere volume per codeword overflows or underflows
MISALIGNED_CONFIG = dict(
    scheme="very-strong-general", n=4, trials=100, master_seed=0, search_budget=4, shift_trials=1,
    rates=[0.2] * 3, powers=[3.0] * 3, h=MISALIGNED_H,
)
VOLUME_CONFIGS = [
    dict(scheme="p2p", n=n, trials=100, master_seed=0, search_budget=4, shift_trials=1, rates=[rate], power=power)
    for n, rate, power in ((10, 0.5, 1e200), (10, 0.5, 1e-300), (2, 3000.0, 3.0))
]
# the refusals a candidate lattice can meet once validate() has passed
PER_CANDIDATE = ("shaping sphere needs over", "no candidate lattice met")


@settings(max_examples=150, deadline=None)
@given(doc=wild_configs())
@example(doc=OVERFLOW_CONFIG)
@example(doc=OVER_CEILING_CONFIG)
@example(doc=MISALIGNED_CONFIG)
@example(doc=VOLUME_CONFIGS[0])
@example(doc=VOLUME_CONFIGS[1])
@example(doc=VOLUME_CONFIGS[2])
def test_simulate_config_exit_codes_and_finite_output(doc):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "sim.json", Path(tmp) / "run.jsonl"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["simulate", "--config", str(config), "--out", str(out)])
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME)
        if rc != EXIT_OK:
            assert not out.exists() and not Path(str(out) + ".manifest.json").exists()
            # every config rule refuses in validate; only per-candidate refusals remain in the run
            if rc == EXIT_VALIDATION and validates(doc):
                assert any(refusal in err.getvalue() for refusal in PER_CANDIDATE), err.getvalue()
            return
        assert all_finite(json.loads(out.read_text()))
