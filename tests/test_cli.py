import csv
import hashlib
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from remcr import __version__
from remcr.cli import _fmt_cell, run


def _capture(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatting:
    def test_nine_significant_digits(self):
        assert _fmt_cell(1.0 / 3.0) == "0.333333333"
        assert _fmt_cell(25.0) == "25"
        assert _fmt_cell(-2.3292346) == "-2.3292346"

    def test_non_finite_rendered_absent(self):
        assert _fmt_cell(float("nan")) == ""
        assert _fmt_cell(float("inf")) == ""

    def test_strings_pass_through(self):
        assert _fmt_cell("rayleigh") == "rayleigh"


class TestCsvOutput:
    def test_header_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["cdf", "--trials", "50", "--out", str(out1)]) == 0
        assert run(["cdf", "--trials", "50", "--out", str(out2)]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        assert b1.splitlines()[0] == b"delta_m,degradation_db,cdf"

    def test_backoff_header(self, capsys):
        code, out, _ = _capture(["backoff", "--trials", "60"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "dd_m,delta_m,buffer_star_db"

    def test_tradeoff_header(self, capsys):
        code, out, _ = _capture(["grid-tradeoff", "--trials", "40"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "dd_m,extra_db,delta_star_m"

    def test_seed_changes_output(self, capsys):
        _, out1, _ = _capture(["cdf", "--trials", "50", "--seed", "1"], capsys)
        _, out2, _ = _capture(["cdf", "--trials", "50", "--seed", "2"], capsys)
        assert out1 != out2


class TestJsonOutput:
    def test_meta_and_rows(self, capsys):
        code, out, _ = _capture(
            ["backoff", "--trials", "60", "--format", "json", "--seed", "9"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["version"] == __version__
        assert doc["meta"]["seed"] == 9
        assert doc["meta"]["config"]["master_seed"] == 9
        assert doc["meta"]["study"] == "backoff"
        row = doc["rows"][0]
        assert set(row) == {"dd_m", "delta_m", "buffer_star_db"}


class TestExitCodes:
    def test_config_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("R = 1000\noops\n")
        code, _, err = _capture(["cdf", "--config", str(bad)], capsys)
        assert code == 2
        assert f"{bad}:2" in err

    def test_non_utf8_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"R = 1000\n\xff\xfe\n")
        code, out, err = _capture(["cdf", "--config", str(bad), "--trials", "3"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: scenario file {bad} is not UTF-8")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["cdf", "--trials", "3"], ["validate"]])
    def test_calibration_underflow(self, tmp_path, capsys, argv):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("sigma_dB = 1e5\n")
        code, _, err = _capture(argv + ["--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("config error: cannot calibrate the licensed link")

    @pytest.mark.parametrize(
        "line, argv",
        [
            ("buffer_dB = 5000", ["cdf", "--trials", "3"]),
            ("buffer_dB = 5000", ["validate"]),
            ("K_dB = 5000", ["lcr", "--trials", "30"]),
        ],
    )
    def test_linear_overflow_config(self, tmp_path, capsys, line, argv):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(line + "\n")
        code, out, err = _capture(argv + ["--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {cfg}: {line.split()[0]} = 5000.0 overflows")
        assert "Traceback" not in err

    @pytest.mark.parametrize("k_db", ["-3300", "1100", "3000"])
    def test_unusable_k_factor_config(self, tmp_path, capsys, k_db):
        cfg = tmp_path / "k.cfg"
        cfg.write_text(f"K_dB = {k_db}\n")
        code, out, err = _capture(["lcr", "--trials", "30", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {cfg}: K_dB = {float(k_db)}")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "lines, argv",
        [
            (["R = 1e155", "Rc = 500"], ["cdf", "--trials", "3"]),
            (["R = 1e155", "Rc = 500"], ["lcr", "--trials", "30"]),
            (["f_D = 1e155"], ["lcr", "--trials", "30"]),
            (["f_D = 1e155"], ["aed", "--trials", "30"]),
        ],
    )
    def test_square_overflow_config(self, tmp_path, capsys, lines, argv):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        code, out, err = _capture(argv + ["--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {cfg}: {lines[0].split()[0]} = 1e+155 overflows when squared")
        assert "Traceback" not in err

    @pytest.mark.parametrize("study", ["lcr", "aed"])
    @pytest.mark.parametrize("noise_power", ["1e-300", "1e170"])
    def test_moment_sum_out_of_range(self, tmp_path, capsys, study, noise_power):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text(f"noise_power = {noise_power}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the squares under- or overflow silently
            code, out, err = _capture([study, "--trials", "30", "--config", str(cfg)], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("fit failure: a power sum of the weights is ")
        assert "; the weights range from " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["cdf", "--trials", "30"], ["validate"]])
    def test_calibration_overflow(self, tmp_path, capsys, argv):
        cfg = tmp_path / "loud.cfg"
        cfg.write_text("noise_power = 1e300\n")
        code, out, err = _capture(argv + ["--config", str(cfg)], capsys)
        assert code == 2
        assert argv == ["validate"] or out == ""  # validate reports its checks as it goes
        assert err.startswith("config error: cannot calibrate the transmit powers: pu = inf")
        assert "Traceback" not in err

    @pytest.mark.parametrize("study", ["lcr", "aed"])
    def test_rice_slope_overflow_config(self, tmp_path, capsys, study):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("f_D = 1e154\n")
        code, out, err = _capture([study, "--trials", "30", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {cfg}: f_D = 1e+154 overflows the Rice slope")

    def test_largest_doppler_has_analytic_rates(self, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("f_D = 1e150\n")
        code, out, _ = _capture(["lcr", "--trials", "30", "--config", str(cfg)], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4 * 231
        analytic = np.array([float(r["lcr_analytic_norm"]) for r in rows])
        assert np.all(np.isfinite(analytic) & (analytic >= 0.0))
        assert np.any(analytic > 0.0)

    def test_validate_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr("remcr.cli.snap_points", lambda points, delta: np.zeros(2))
        code, out, _ = _capture(["validate"], capsys)
        assert code == 1
        assert any(l.startswith("FAIL - grid-snap") for l in out.splitlines())

    def test_unknown_subcommand(self, capsys):
        assert _capture(["frobnicate"], capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert _capture(["cdf", "--bogus"], capsys)[0] == 2

    def test_missing_subcommand(self, capsys):
        assert _capture([], capsys)[0] == 2

    def test_bad_trials(self, capsys):
        code, _, err = _capture(["cdf", "--trials", "0"], capsys)
        assert code == 2

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code, stdout, err = _capture(["cdf", "--trials", "1", "--out", str(out)], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"config error: cannot write {out}")
        assert not out.exists()

    def test_fit_failure_echoes_profile(self, tmp_path, capsys):
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text("delta_grid = 50\n")
        code, _, err = _capture(["lcr", "--config", str(cfg), "--trials", "60"], capsys)
        assert code == 3
        assert "fit failure" in err
        assert "weights" in err

    @pytest.mark.parametrize("line", ["sigma_dB = nan", "R = inf", "buffer_dB = -inf", "K_dB = nan"])
    def test_non_finite_config_value(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, out, err = _capture(["cdf", "--config", str(cfg), "--trials", "20"], capsys)
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize("study", ["lcr", "aed"])
    def test_no_admitted_profiles(self, tmp_path, capsys, study):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("cr_density = 0\n")
        code, out, err = _capture([study, "--config", str(cfg), "--trials", "20"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: need at least two non-empty profiles")
        assert "admit a transmitter in 0" in err

    def test_validate_passes(self, capsys):
        code, out, _ = _capture(["validate"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert all(l.startswith("ok - ") for l in lines)
        assert len(lines) == 8


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "t.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "remcr.cli", "backoff", "--trials", "40",
             "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0
        assert out.read_text().splitlines()[0] == "dd_m,delta_m,buffer_star_db"

    def test_installed_script(self, tmp_path):
        import shutil

        exe = shutil.which("remcr")
        if exe is None:
            pytest.skip("console script not on PATH in this environment")
        proc = subprocess.run(
            [exe, "cdf", "--trials", "30"], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "delta_m,degradation_db,cdf"


class TestGoldenOutput:
    """SHA-256 of the CSV output at the sizes of acceptance criterion 10.

    The digests pin every printed digit of the admission studies; any change
    to the draws, the map estimate, the admission order or the rounding of a
    reduction shows here.
    """

    DIGESTS = {
        "cdf": ("120", "24e346c35d379f79c5a5c4ac45874b1a24dfa649da7a3a890a0ef2aa10e97e2e"),
        "grid-tradeoff": ("60", "87892d95dd54c778566ae7e7d67d8e262f7f76b8175ef33d4ac825038b44cede"),
        "backoff": ("150", "6d808a317c80d196a59a136516fde6dcc7be3ef646e3303828321a38b570673a"),
    }

    @pytest.mark.parametrize("study", sorted(DIGESTS))
    def test_csv_digest(self, tmp_path, study):
        trials, digest = self.DIGESTS[study]
        cfg = tmp_path / "plain.cfg"
        cfg.write_text("master_seed = 7\n")
        out = tmp_path / "out.csv"
        assert run([study, "--config", str(cfg), "--trials", trials, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
