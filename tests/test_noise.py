import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ddmemory import (
    DomainError,
    CalibrationError,
    GAUSSIAN,
    HARD,
    NoiseSpectrum,
    PowerLaw,
    bang_bang,
    calibrate_strength,
    chi,
    evaluate,
    free_evolution,
    load_preset,
    spectrum_from_json,
    spectrum_to_json,
)

TWO_PI = 2.0 * math.pi
_MISSING = object()


def _gaas_doc(**change) -> dict:
    """The gaas preset document with fields changed, or dropped when set to _MISSING."""
    doc = {"s": -2, "g_over_omega_c": 0.207, "omega_c_hz": 1e4, "rolloff": "gaussian",
           "omega_min_hz": 0.01, "omega_max_hz": 1e8, **change}
    return {k: v for k, v in doc.items() if v is not _MISSING}


def _spec(**kw) -> NoiseSpectrum:
    base = dict(s=-2.0, g=100.0, omega_c=TWO_PI * 1e4)
    base.update(kw)
    return NoiseSpectrum(**base)


class TestEvaluate:
    def test_power_law_below_cutoff(self):
        spec = _spec(rolloff=HARD)
        w = spec.omega_c / 4.0
        assert evaluate(spec, w) == pytest.approx(100.0 * 4.0**2, rel=1e-14)

    def test_hard_cutoff_zero_above(self):
        spec = _spec(rolloff=HARD)
        assert evaluate(spec, spec.omega_c * 1.0000001) == 0.0
        assert evaluate(spec, spec.omega_c) > 0.0

    def test_gaussian_rolloff_value(self):
        spec = _spec(rolloff=GAUSSIAN)
        x = 2.5
        expected = 100.0 * x**-2 * math.exp(-x * x)
        assert evaluate(spec, x * spec.omega_c) == pytest.approx(expected, rel=1e-13)

    def test_power_law_rolloff_above(self):
        spec = _spec(rolloff=PowerLaw(18.0))
        x = 3.0
        assert evaluate(spec, x * spec.omega_c) == pytest.approx(100.0 * x**-18, rel=1e-13)

    def test_band_clip(self):
        spec = _spec()
        assert evaluate(spec, spec.omega_min * 0.5) == 0.0
        assert evaluate(spec, spec.omega_max * 2.0) == 0.0

    def test_vectorized_matches_scalar(self):
        spec = _spec(rolloff=PowerLaw(6.0))
        grid = np.geomspace(spec.omega_min, spec.omega_max, 64)
        vec = evaluate(spec, grid)
        for w, v in zip(grid, vec):
            assert evaluate(spec, float(w)) == v

    def test_zero_d_omega_gives_python_float(self):
        got = evaluate(_spec(), np.array(2e3))
        assert type(got) is float
        assert got == evaluate(_spec(), 2e3)

    def test_nonpositive_omega_rejected(self):
        with pytest.raises(DomainError):
            evaluate(_spec(), 0.0)

    @pytest.mark.parametrize("omega", [math.nan, np.array([1e3, math.nan])], ids=["number", "array"])
    def test_nan_omega_rejected(self, omega):
        with pytest.raises(DomainError, match="omega > 0"):
            evaluate(_spec(), omega)

    def test_extreme_gaussian_underflow_is_zero_not_nan(self):
        spec = _spec(rolloff=GAUSSIAN)
        val = evaluate(spec, spec.omega_c * 1e3)
        assert val == 0.0


class TestGaussianEdge:
    """exp(-x*x) up to x*x = 745, where it would turn subnormal; exactly 0 from there on."""

    # g large enough that g * x**-2 * exp(-745) would be a nonzero subnormal
    SPEC = _spec(g=1e5, rolloff=GAUSSIAN)

    @staticmethod
    def _grid(spec):
        """omega, and x as evaluate forms it, over x*x in [700, 760]."""
        omega = np.sqrt(np.linspace(700.0, 760.0, 6001)) * spec.omega_c
        return omega, omega / spec.omega_c

    def test_below_edge_is_the_closed_form_bit_for_bit(self):
        omega, x = self._grid(self.SPEC)
        below = x * x < 745.0
        expected = self.SPEC.g * x**self.SPEC.s * np.exp(-x * x)
        got = evaluate(self.SPEC, omega)
        assert below.sum() > 1000
        assert np.array_equal(got[below].view(np.int64), expected[below].view(np.int64))
        for k in np.flatnonzero(below)[::97]:
            assert evaluate(self.SPEC, float(omega[k])) == expected[k]

    def test_from_edge_on_is_exactly_zero(self):
        omega, x = self._grid(self.SPEC)
        above = x * x >= 745.0
        got = evaluate(self.SPEC, omega)
        assert above.sum() > 1000
        assert np.all(got[above] == 0.0)
        for k in np.flatnonzero(above)[::97]:
            val = evaluate(self.SPEC, float(omega[k]))
            assert type(val) is float and val == 0.0

    def test_overflowed_power_law_gives_no_nan(self):
        spec = _spec(s=300.0, rolloff=GAUSSIAN)
        omega, x = self._grid(spec)
        got = evaluate(spec, omega)
        with np.errstate(over="ignore"):
            assert np.isinf(spec.g * x[0] ** spec.s)
        assert not np.isnan(got).any()
        assert np.all(got[x * x >= 745.0] == 0.0)
        for k in range(0, omega.size, 97):
            assert not math.isnan(evaluate(spec, float(omega[k])))


class TestValidation:
    def test_negative_g_rejected(self):
        with pytest.raises(DomainError):
            _spec(g=-1.0)

    def test_zero_omega_c_rejected(self):
        with pytest.raises(DomainError):
            _spec(omega_c=0.0)

    def test_band_order_rejected(self):
        with pytest.raises(DomainError):
            _spec(omega_min=10.0, omega_max=1.0)

    def test_unknown_rolloff_rejected(self):
        with pytest.raises(DomainError):
            _spec(rolloff="linear")

    def test_power_law_exponent_positive(self):
        with pytest.raises(DomainError):
            PowerLaw(0.0)

    @given(
        field=st.sampled_from(["s", "g", "omega_c", "omega_min", "omega_max", "r"]),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    @settings(max_examples=30, deadline=None)
    def test_non_finite_field_rejected_by_name(self, field, value):
        with pytest.raises(DomainError, match=rf"\b{field}\b"):
            if field == "r":
                PowerLaw(value)
            else:
                _spec(**{field: value})


class TestPresets:
    def test_gaas_fields(self, gaas):
        assert gaas.s == -2.0
        assert gaas.omega_c == pytest.approx(TWO_PI * 1e4, rel=1e-15)
        assert gaas.g == pytest.approx(0.207 * gaas.omega_c, rel=1e-15)
        assert gaas.rolloff == GAUSSIAN

    def test_yb_is_calibrated_to_one_second(self, yb):
        budget = chi(free_evolution(1.0), yb, bang_bang())
        assert budget.chi_total == pytest.approx(1.0, rel=1e-6)

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            load_preset("nosuch")

    def test_env_dir_override(self, tmp_path, monkeypatch, gaas):
        doc = spectrum_to_json(replace(gaas, g=2.0 * gaas.g))
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("DDMEMORY_PRESET_DIR", str(tmp_path))
        loaded = load_preset("custom")
        assert loaded.g == pytest.approx(2.0 * gaas.g, rel=1e-12)

    def test_env_dir_shadows_packaged_preset(self, tmp_path, monkeypatch, gaas):
        path = tmp_path / "gaas.json"
        path.write_text(json.dumps(spectrum_to_json(replace(gaas, s=-1.0))))
        monkeypatch.setenv("DDMEMORY_PRESET_DIR", str(tmp_path))
        assert load_preset("gaas").s == -1.0

    def test_load_by_path(self, tmp_path, gaas):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spectrum_to_json(gaas)))
        assert load_preset(str(path)) == gaas


class TestJsonRoundTrip:
    @pytest.mark.parametrize("rolloff", [HARD, GAUSSIAN, PowerLaw(18.0)])
    def test_round_trip(self, rolloff):
        spec = _spec(rolloff=rolloff)
        again = spectrum_from_json(spectrum_to_json(spec))
        assert again.s == spec.s
        assert again.g == pytest.approx(spec.g, rel=1e-15)
        assert again.omega_c == pytest.approx(spec.omega_c, rel=1e-15)
        assert again.rolloff == spec.rolloff

    @pytest.mark.parametrize(
        "doc, name",
        [
            (_gaas_doc(omega_c_hz=_MISSING), "missing field 'omega_c_hz'"),
            (_gaas_doc(s="abc"), "'s' is not a number: 'abc'"),
            (_gaas_doc(g_over_omega_c=None), "'g_over_omega_c' is not a number"),
            (_gaas_doc(omega_c_hz=True), "'omega_c_hz' is not a number: True"),
            (_gaas_doc(rolloff={"power_law": None}), "'power_law' is not a number"),
            (_gaas_doc(rolloff={}), "missing field 'power_law'"),
            (_gaas_doc(omega_max_hz=10**400), "'omega_max_hz' is not a number"),
            ([1.0, 2.0], "must be an object, got list"),
        ],
        ids=["missing", "string", "null", "bool", "null_power_law", "no_power_law", "overflow", "list"],
    )
    def test_missing_field_names_it(self, doc, name):
        with pytest.raises(DomainError, match=name):
            spectrum_from_json(doc)


class TestCalibrate:
    def test_free_calibration_solves_chi_one(self, gaas):
        spec = calibrate_strength(gaas, 35e-9)
        budget = chi(free_evolution(35e-9), spec, bang_bang())
        assert budget.chi_total == pytest.approx(1.0, rel=1e-9)

    def test_template_g_is_irrelevant(self, gaas):
        a = calibrate_strength(replace(gaas, g=1.0), 1e-6)
        b = calibrate_strength(replace(gaas, g=1e6), 1e-6)
        assert a.g == pytest.approx(b.g, rel=1e-9)

    def test_no_noise_in_the_band_cannot_be_calibrated(self, gaas):
        spec = replace(gaas, rolloff=HARD, omega_c=gaas.omega_min)
        with pytest.raises(CalibrationError, match="baseline free-evolution error is 0.0"):
            calibrate_strength(spec, 1e-6)

    def test_bad_target_rejected(self, gaas):
        with pytest.raises(DomainError):
            calibrate_strength(gaas, 0.0)
