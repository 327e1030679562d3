"""Command-line interface: outputs, manifests and exit codes."""

import csv
import json
import math

import pytest

from latticeic.cli import EXIT_OK, EXIT_VALIDATION, main
from latticeic.rates import dof_symmetric


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

    def test_irrational_ratio_not_member(self, tmp_path):
        r = math.sqrt(2.0)
        mat = self.write_matrix(tmp_path, [[1, r, 1], [1, 1, 1], [1, 1, 1]])
        out = tmp_path / "report.json"
        assert main(["align-check", "--matrix-file", str(mat), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["member"] is False

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


class TestBadInputs:
    """Each bad input exits 2 with a one-line `error:` message, no traceback."""

    def assert_validation_error(self, argv, capsys):
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_missing_matrix_file(self, tmp_path, capsys):
        argv = ["align-check", "--matrix-file", str(tmp_path / "absent.json"), "--out", str(tmp_path / "r.json")]
        self.assert_validation_error(argv, capsys)

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

    def test_two_sigma2s(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, dict(
            scheme="very-strong-general", n=4, trials=100, master_seed=0, rates=[0.3] * 3,
            powers=[3.0] * 3, h=[[1, 4, 4], [4, 1, 4], [4, 4, 1]], sigma2s=[1.0, 1.0],
        ))
        self.assert_validation_error(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run.jsonl")], capsys)
