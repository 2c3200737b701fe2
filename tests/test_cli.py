import json
import math

import numpy as np
import pytest

from ddmemory import calibrate_strength, load_preset
from ddmemory.cli import main


def _run(capsys, args):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def _parse_csv(text):
    lines = text.strip().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    config = json.loads(next(ln for ln in header if ln.startswith("# config "))[9:])
    body = [ln for ln in lines if not ln.startswith("#")]
    columns = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return config, columns, rows


class TestErrorCommand:
    def test_free_evolution_t2_anchor(self, capsys):
        code, out, _ = _run(
            capsys,
            ["error", "--sequence", "free", "--duration", "35e-9", "--spectrum", "gaas"],
        )
        assert code == 0
        config, columns, rows = _parse_csv(out)
        assert columns[0] == "chi_total"
        chi_total = float(rows[0][0])
        assert chi_total == pytest.approx(1.0, rel=0.2)
        assert config["spectrum_rad_s"]["omega_c"] == pytest.approx(2e4 * math.pi)
        assert config["units"] == {"frequency": "rad/s", "time": "s"}

    def test_output_is_bit_stable_across_reruns(self, capsys):
        args = ["error", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas"]
        code1, out1, _ = _run(capsys, args)
        code2, out2, _ = _run(capsys, args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_header_config_reproduces_run_exactly(self, capsys):
        code1, out1, _ = _run(
            capsys, ["error", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas"]
        )
        config, _, _ = _parse_csv(out1)
        duration = config["sequence"]["duration_s"]
        code2, out2, _ = _run(
            capsys,
            ["error", "--sequence", "cdd:4", "--duration", repr(duration), "--spectrum", "gaas"],
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_repeat_uses_kernel(self, capsys):
        code, out, _ = _run(
            capsys,
            ["error", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas",
             "--repeat", "100"],
        )
        assert code == 0
        _, _, rows = _parse_csv(out)
        assert float(rows[0][0]) == pytest.approx(1.2438e-9, rel=1e-3)


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        code, _, err = _run(
            capsys, ["error", "--sequence", "bogus:1", "--tau", "1e-6", "--spectrum", "gaas"]
        )
        assert code == 2
        assert "--sequence" in err

    def test_both_time_options_is_usage_error(self, capsys):
        code, _, err = _run(
            capsys,
            ["error", "--sequence", "cdd:2", "--tau", "1e-6", "--duration", "4e-6",
             "--spectrum", "gaas"],
        )
        assert code == 2

    def test_unknown_preset_is_domain_error(self, capsys):
        code, _, err = _run(
            capsys, ["error", "--sequence", "free", "--duration", "1e-6", "--spectrum", "nope"]
        )
        assert code == 3
        assert "nope" in err

    def test_non_finite_spectrum_file_is_three(self, capsys, tmp_path):
        from ddmemory import spectrum_to_json

        doc = spectrum_to_json(load_preset("gaas"))
        doc["g_over_omega_c"] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, _, err = _run(
            capsys, ["error", "--sequence", "cdd:2", "--tau", "1e-6", "--spectrum", str(path)]
        )
        assert code == 3
        assert "g must be finite" in err

    def test_domain_error_from_module_is_three(self, capsys):
        # odd pulse count with finite widths cannot use the kernel at large m
        code, _, err = _run(
            capsys,
            ["error", "--sequence", "echo", "--tau", "1e-6", "--spectrum", "gaas",
             "--pulse", "primitive:1e-9", "--repeat", "100"],
        )
        assert code == 3


class TestFfCommand:
    def test_low_frequency_slope_is_ten_for_cdd4(self, capsys, tmp_path):
        out_path = tmp_path / "ff.csv"
        code, _, _ = _run(
            capsys,
            ["ff", "--sequence", "cdd:4", "--tau", "1e-6", "--pulse", "bb",
             "--points", "64", "--output", str(out_path)],
        )
        assert code == 0
        data = np.loadtxt(out_path, delimiter=",", skiprows=3)
        w, f = data[:, 0], data[:, 1]
        mask = w < 1e3
        slope = np.polyfit(np.log(w[mask]), np.log(f[mask]), 1)[0]
        assert slope == pytest.approx(10.0, abs=0.1)

    def test_finite_pulse_adds_quadrature_columns(self, capsys):
        code, out, _ = _run(
            capsys,
            ["ff", "--sequence", "cdd:2", "--tau", "1e-6", "--pulse", "dcg:1e-8",
             "--points", "16"],
        )
        assert code == 0
        _, columns, rows = _parse_csv(out)
        assert columns[-2:] == ["rz_sq", "ry_sq"]
        assert len(rows) == 16

    def test_ideal_total_equals_ideal_column(self, capsys):
        code, out, _ = _run(
            capsys,
            ["ff", "--sequence", "udd:3", "--tau", "1e-6", "--points", "12"],
        )
        assert code == 0
        _, columns, rows = _parse_csv(out)
        for row in rows:
            assert row[columns.index("ff_total")] == row[columns.index("ff_ideal")]


class TestPlateauCommand:
    def test_corrected_pulse_conditions_all_pass(self, capsys):
        code, out, _ = _run(
            capsys,
            ["plateau", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas",
             "--pulse", "dcg:1e-8"],
        )
        assert code == 0
        doc = json.loads(out)
        conditions = doc["report"]["conditions"]
        assert conditions["all_met"] is True
        assert conditions["lowfreq_ideal"]["passed"] is True
        assert conditions["lowfreq_pulse"]["passed"] is True
        assert conditions["resonance"]["x"] == pytest.approx(0.16, rel=1e-9)
        assert doc["report"]["chi_infinity"]["chi_total"] > 0.0

    def test_primitive_pulse_reports_failure_but_exits_zero(self, capsys):
        code, out, _ = _run(
            capsys,
            ["plateau", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas",
             "--pulse", "primitive:1e-9"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["conditions"]["all_met"] is False
        assert doc["report"]["chi_infinity"] is None

    def test_csv_format_rejected(self, capsys):
        code, _, err = _run(
            capsys,
            ["plateau", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas",
             "--format", "csv"],
        )
        assert code == 2


class TestSweepAndTrace:
    def test_sweep_rows_scale_storage_time(self, capsys):
        code, out, _ = _run(
            capsys,
            ["sweep-m", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas",
             "--m", "1", "--m", "4"],
        )
        assert code == 0
        _, columns, rows = _parse_csv(out)
        assert columns == ["m", "t_s", "chi", "coherence"]
        assert float(rows[0][1]) == pytest.approx(16e-6)
        assert float(rows[1][1]) == pytest.approx(64e-6)

    def test_trace_ends_at_duration(self, capsys):
        code, out, _ = _run(
            capsys,
            ["trace", "--sequence", "echo", "--tau", "1e-6", "--spectrum", "gaas",
             "--points", "8"],
        )
        assert code == 0
        _, columns, rows = _parse_csv(out)
        assert columns == ["t", "chi", "coherence"]
        assert len(rows) == 8
        assert float(rows[-1][0]) == pytest.approx(2e-6, rel=1e-12)


class TestSearchCommand:
    def test_columns_and_structure_fields(self, capsys):
        code, out, _ = _run(
            capsys,
            ["search", "--tau", "1e-6", "--t-s", "2e-6", "--t-s", "3.2e-5",
             "--spectrum", "gaas"],
        )
        assert code == 0
        _, columns, rows = _parse_csv(out)
        assert columns == ["t_s", "walsh_index", "label", "pulses", "chi",
                           "coherence", "base_block", "repeats"]
        first, second = rows
        assert first[1] == "1"
        assert second[6] == "CDD4"
        assert second[7] == "2"


class TestCalibrateCommand:
    def test_matches_library_calibration(self, capsys, gaas):
        code, out, _ = _run(capsys, ["calibrate", "--spectrum", "gaas", "--t2", "35e-9"])
        assert code == 0
        doc = json.loads(out)
        expected = calibrate_strength(gaas, 35e-9)
        assert doc["spectrum_rad_s"]["g"] == pytest.approx(expected.g, rel=1e-12)
        assert doc["preset_json_hz"]["g_over_omega_c"] == pytest.approx(
            expected.g / expected.omega_c, rel=1e-12
        )

    def test_spectrum_by_json_path(self, capsys, tmp_path, gaas):
        from ddmemory import spectrum_to_json

        path = tmp_path / "custom.json"
        path.write_text(json.dumps(spectrum_to_json(gaas)))
        code, out, _ = _run(capsys, ["calibrate", "--spectrum", str(path), "--t2", "35e-9"])
        assert code == 0
