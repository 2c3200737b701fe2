import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from ddmemory import (
    DEFAULT_CONFIG, calibrate_strength, cdd, chi, chi_asymptotic, dcg3, filter_fn, load_preset, repeat_pattern,
    udd, walsh,
)
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

    def test_pulse_excess_column_is_signed(self, capsys):
        code, out, _ = _run(
            capsys,
            ["error", "--sequence", "udd:5", "--duration", "16e-6", "--spectrum", "gaas",
             "--pulse", "dcg:1e-08"],
        )
        assert code == 0
        _, columns, rows = _parse_csv(out)
        row = dict(zip(columns, map(float, rows[0])))
        assert row["chi_pulse"] < 0.0
        assert row["chi_total"] == row["chi_ideal"] + row["chi_pulse"]

    def test_power_law_spectrum_echoes_every_field_in_order(self, capsys, tmp_path, gaas):
        from ddmemory import NoiseSpectrum, PowerLaw, spectrum_to_json

        spec = replace(gaas, rolloff=PowerLaw(8.0))
        path = tmp_path / "power_law.json"
        path.write_text(json.dumps(spectrum_to_json(spec)))
        code, out, _ = _run(
            capsys,
            ["error", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", str(path),
             "--format", "json"],
        )
        assert code == 0
        echoed = json.loads(out)["spectrum_rad_s"]
        assert list(echoed) == [f.name for f in fields(NoiseSpectrum)]
        assert echoed["rolloff"] == {"power_law": 8.0}
        loaded = load_preset(str(path))
        for name in ("s", "g", "omega_c", "omega_min", "omega_max"):
            assert echoed[name] == getattr(loaded, name), name


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

    def test_oversized_sequence_is_resource_limit(self, capsys):
        code, _, err = _run(
            capsys, ["error", "--sequence", "cdd:40", "--tau", "1e-6", "--spectrum", "gaas"]
        )
        assert code == 5
        assert "limit" in err

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

    @pytest.mark.parametrize(
        "text, named", [('{"s": -2,', "broken.json' is not JSON"), ("[1, 2]", "an object")]
    )
    def test_malformed_spectrum_file_is_three(self, capsys, tmp_path, text, named):
        path = tmp_path / "broken.json"
        path.write_text(text)
        code, _, err = _run(
            capsys, ["error", "--sequence", "cdd:2", "--tau", "1e-6", "--spectrum", str(path)]
        )
        assert code == 3
        assert named in err

    def test_block_beyond_panel_budget_is_four(self, capsys):
        # the first walk block of 160 s CDD4 repeated 100 times, the crossover
        # check's direct walk, exceeds the panel budget, which is reported
        # before its edges are built
        code, _, err = _run(
            capsys,
            ["error", "--sequence", "cdd:4", "--tau", "10", "--spectrum", "gaas", "--repeat", "100"],
        )
        assert code == 4
        assert "exhausted for 'CDD4' repeated 100 times" in err

    def test_non_finite_rel_tol_is_three(self, capsys):
        code, _, err = _run(
            capsys,
            ["error", "--sequence", "cdd:2", "--tau", "1e-6", "--spectrum", "gaas", "--rel-tol", "nan"],
        )
        assert code == 3
        assert "rel_tol" in err

    def test_domain_error_from_module_is_three(self, capsys):
        # a 4 us DCG footprint does not fit the echo's 1 us half-interval: the
        # pulses module refuses it when the comb walk first evaluates the filter
        code, _, err = _run(
            capsys,
            ["error", "--sequence", "echo", "--tau", "1e-6", "--spectrum", "gaas",
             "--pulse", "dcg:1e-6", "--repeat", "1001"],
        )
        assert code == 3
        assert "footprint" in err

    def test_plateau_of_odd_base_with_finite_pulses_is_three(self, capsys, tmp_path, gaas):
        from ddmemory import spectrum_to_json

        # s = 1 meets the fitted pulse-order condition, and the comb walk takes the
        # junction pulses: the report holds the library's plateau level
        spec = replace(gaas, s=1.0)
        path = tmp_path / "s1.json"
        path.write_text(json.dumps(spectrum_to_json(spec)))
        code, out, err = _run(
            capsys,
            ["plateau", "--sequence", "udd:5", "--duration", "16e-6", "--spectrum", str(path),
             "--pulse", "dcg:1e-08"],
        )
        assert code == 0
        assert err == ""
        report = json.loads(out)["report"]
        assert report["conditions"]["all_met"] is True
        level = chi_asymptotic(udd(5, 16e-6), spec, dcg3(1e-8)).chi_total
        assert report["chi_infinity"]["chi_total"] == level

    def test_plateau_of_odd_base_on_gaas_reads_the_fitted_pulse_order(self, capsys):
        code, out, _ = _run(
            capsys,
            ["plateau", "--sequence", "udd:5", "--duration", "16e-6", "--spectrum", "gaas",
             "--pulse", "dcg:1e-08"],
        )
        assert code == 0
        conditions = json.loads(out)["report"]["conditions"]
        assert conditions["lowfreq_pulse"] == {"passed": False, "margin": -1.0}
        assert conditions["all_met"] is False


_CDD4 = ["--sequence", "cdd:4"]
_FF_CDD4 = ["ff", *_CDD4, "--tau", "1e-6", "--points", "4"]


class TestTimeOptions:
    # a time or frequency that is not finite and positive is a domain error naming its option
    @pytest.mark.parametrize(
        "args, option",
        [(["error", *_CDD4, "--tau", v, "--spectrum", "gaas"], "--tau") for v in ("nan", "inf", "0", "-1e-6")]
        + [(["error", *_CDD4, "--duration", v, "--spectrum", "gaas"], "--duration") for v in ("nan", "inf", "0")]
        + [
            ([*_FF_CDD4, "--omega-max", "inf"], "--omega-max"),
            ([*_FF_CDD4, "--omega-min", "nan"], "--omega-min"),
            ([*_FF_CDD4, "--omega-min", "0"], "--omega-min"),
            ([*_FF_CDD4, "--omega-min", "1e8", "--omega-max", "1e6"], "--omega-min/--omega-max"),
        ],
        ids=["tau_nan", "tau_inf", "tau_0", "tau_negative", "duration_nan", "duration_inf",
             "duration_0", "omega_max_inf", "omega_min_nan", "omega_min_0", "omega_min_above_max"],
    )
    def test_bad_time_is_three(self, capsys, args, option):
        code, out, err = _run(capsys, args)
        assert code == 3
        assert out == ""
        assert option in err


class TestSequenceGrammar:
    @pytest.mark.parametrize(
        "sequence, times, pattern",
        [
            ("walsh:3/8", ["--tau", "1e-6"], walsh(3, 8e-6, 8)),
            ("walsh:3/8", ["--duration", "8e-6"], walsh(3, 8e-6, 8)),
            ("cp", ["--tau", "1e-6"], cdd(2, 1e-6)),
        ],
        ids=["walsh_tau", "walsh_duration", "cp"],
    )
    def test_spelled_sequence_gives_the_library_chi(self, capsys, gaas, sequence, times, pattern):
        code, out, _ = _run(capsys, ["error", "--sequence", sequence, *times, "--spectrum", "gaas"])
        assert code == 0
        _, columns, rows = _parse_csv(out)
        assert float(rows[0][columns.index("chi_total")]) == chi(pattern, gaas).chi_total

    @pytest.mark.parametrize(
        "args, option",
        [
            ([*_CDD4, "--tau", "1e-6", "--pulse", "bb:1e-9"], "--pulse"),
            ([*_CDD4, "--tau", "1e-6", "--pulse", "gauss:1e-9"], "--pulse"),
            ([*_CDD4, "--tau", "1e-6", "--pulse", "dcg:wide"], "--pulse"),
            (_CDD4, "--tau/--duration"),
            (["--sequence", "free", "--tau", "1e-6"], "--sequence free"),
        ],
        ids=["bb_width", "unknown_pulse", "malformed_width", "no_time", "free_with_tau"],
    )
    def test_malformed_form_is_a_usage_error(self, capsys, args, option):
        code, out, err = _run(capsys, ["error", *args, "--spectrum", "gaas"])
        assert code == 2
        assert out == ""
        assert option in err

    def test_malformed_sequence_argument_names_the_option(self, capsys):
        code, out, err = _run(capsys, ["error", "--sequence", "udd:x", "--tau", "1e-6", "--spectrum", "gaas"])
        assert code == 2
        assert out == ""
        assert "--sequence: malformed argument in 'udd:x'" in err


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

    _FF = ["ff", "--sequence", "cdd:4", "--tau", "1e-6"]
    _ERROR = ["error", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas"]
    _SWEEP = ["sweep-m", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas"]
    _SEARCH = ["search", "--tau", "1e-6", "--t-s", "8e-6", "--spectrum", "gaas"]

    @pytest.mark.parametrize(
        "args, option, count",
        [(_FF, "--repeat", "-3"), (_FF, "--repeat", "0"), (_ERROR, "--repeat", "0"),
         (_SWEEP, "--m", "0"), (_SWEEP, "--m-max", "0"), (_SEARCH, "--threads", "0")],
        ids=["-3", "0", "error_repeat", "sweep_m", "sweep_m_max", "search_threads"],
    )
    def test_repeat_below_one_is_a_usage_error(self, capsys, args, option, count):
        # every count option is a click range: exit 2, nothing on stdout, the option named
        code, out, err = _run(capsys, [*args, option, count])
        assert code == 2
        assert out == ""
        assert f"'{option}'" in err

    def test_repeat_tabulates_the_library_filter_of_the_repeat(self, capsys):
        code, out, _ = _run(capsys, [*self._FF, "--repeat", "4", "--points", "32"])
        assert code == 0
        config, columns, rows = _parse_csv(out)
        grid = np.geomspace(config["grid"]["omega_min"], config["grid"]["omega_max"], 32)
        want = filter_fn(repeat_pattern(cdd(4, 1e-6), 4), grid)
        assert [float(row[columns.index("omega_rad_s")]) for row in rows] == grid.tolist()
        assert [float(row[columns.index("ff_total")]) for row in rows] == want.tolist()

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

    def test_jitter_after_many_repeats_exits_zero(self, capsys):
        # each delay is one comb walk, whose cost does not grow with --jitter-m
        code, out, err = _run(
            capsys,
            ["plateau", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas",
             "--pulse", "dcg:1e-8", "--jitter-budget-factor", "2", "--jitter-m", "50000"],
        )
        assert (code, err) == (0, "")
        assert 0.15e-12 <= json.loads(out)["report"]["jitter_tolerance_s"] <= 15e-12

    @pytest.mark.parametrize(
        "flag, value",
        [("--t-markov", "nan"), ("--t-markov", "inf"), ("--jitter-budget-factor", "nan")],
    )
    def test_non_finite_flag_is_three(self, capsys, flag, value):
        code, out, err = _run(
            capsys,
            ["plateau", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas", flag, value],
        )
        assert code == 3
        assert out == ""
        assert flag.lstrip("-").replace("-", "_") in err

    def test_jitter_m_below_one_is_a_usage_error(self, capsys):
        code, out, err = _run(
            capsys,
            ["plateau", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas", "--jitter-m", "0"],
        )
        assert code == 2
        assert out == ""
        assert "'--jitter-m'" in err

    @pytest.mark.parametrize(
        "args",
        [["plateau", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas"],
         ["calibrate", "--spectrum", "gaas", "--t2", "35e-9"]],
        ids=["plateau", "calibrate"],
    )
    def test_json_reports_take_no_format(self, capsys, args):
        code, out, err = _run(capsys, [*args, "--format", "json"])
        assert code == 2
        assert out == ""
        assert "--format" in err

    def test_csv_format_rejected(self, capsys):
        code, _, err = _run(
            capsys,
            ["plateau", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas",
             "--format", "csv"],
        )
        assert code == 2


class TestSweepAndTrace:
    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_sweep_needs_a_point(self, capsys, points):
        code, out, err = _run(
            capsys,
            ["sweep-m", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas",
             "--points", points],
        )
        assert code == 2
        assert "--points" in err
        assert out == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["ff", "--sequence", "cdd:2", "--tau", "1e-6"],
            ["trace", "--sequence", "echo", "--tau", "1e-6", "--spectrum", "gaas"],
            ["sweep-m", "--sequence", "cdd:4", "--tau", "1e-6", "--spectrum", "gaas"],
        ],
        ids=["ff", "trace", "sweep-m"],
    )
    def test_oversized_points_is_a_usage_error(self, capsys, args):
        # refused while parsing, before a grid of that size is allocated
        code, out, err = _run(capsys, [*args, "--points", "10000000000000"])
        assert code == 2
        assert "--points" in err and "x<=10000000" in err
        assert out == ""

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

    @pytest.mark.parametrize("command", ["trace", "plateau", "error", "sweep-m", "search"])
    def test_crossover_option_is_not_taken_where_nothing_repeats(self, capsys, command):
        # no command takes it: trace runs single blocks, plateau the m -> infinity
        # comb walk, and the crossover is QuadratureConfig.comb_crossover in the library
        where = ["--t-s", "8e-6"] if command == "search" else ["--sequence", "echo"]
        args = [command, *where, "--tau", "1e-6", "--spectrum", "gaas"]
        code, out, err = _run(capsys, [*args, "--comb-crossover", "100"])
        assert code == 2
        assert "--comb-crossover" in err
        assert out == ""

    def test_trace_header_echoes_the_default_crossover(self, capsys):
        code, out, _ = _run(
            capsys,
            ["trace", "--sequence", "echo", "--tau", "1e-6", "--spectrum", "gaas", "--points", "2"],
        )
        assert code == 0
        config, _, _ = _parse_csv(out)
        assert config["quadrature"]["comb_crossover"] == DEFAULT_CONFIG.comb_crossover

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

    def test_slot_limit_is_not_an_option(self, capsys):
        code, out, _ = _run(
            capsys,
            ["search", "--tau", "1e-6", "--t-s", "8e-6", "--spectrum", "gaas", "--limit", "8"],
        )
        assert code == 2
        assert out == ""

    def test_infinite_storage_time_is_three(self, capsys):
        code, out, err = _run(
            capsys,
            ["search", "--tau", "1e-6", "--t-s", "inf", "--spectrum", "gaas", "--threads", "1"],
        )
        assert code == 3
        assert out == ""
        assert "storage time" in err


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
