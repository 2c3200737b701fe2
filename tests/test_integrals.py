import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmemory import (
    AccuracyError,
    DEFAULT_CONFIG,
    DomainError,
    NoiseSpectrum,
    QuadratureConfig,
    bang_bang,
    carr_purcell,
    cdd,
    chi,
    chi_during,
    chi_plateau_limit,
    chi_repeated,
    echo,
    free_evolution,
    primitive,
    repeat_pattern,
    truncate,
    udd_from_min_interval,
)

TWO_PI = 2.0 * math.pi

# Frozen oracles: 30-digit adaptive quadrature of the defining band
# integral (gaussian rolloff, s = -2, g = 0.207*omega_c, omega_c =
# 2*pi*1e4, band 2*pi*[0.01, 1e8] Hz), via mpmath.quad with explicit
# breakpoints at the filter lobes and the cutoff.
ORACLE_CHI_FREE_35NS = 1.00107220004571620725656206413
ORACLE_CHI_ECHO_2US = 2.85819221609217150601607830261e-6
ORACLE_CHI_CDD4_1US = 1.22448664158290302467211543086e-9


class TestOracles:
    def test_free_evolution_matches_oracle(self, gaas):
        budget = chi(free_evolution(35e-9), gaas, bang_bang())
        assert budget.chi_total == pytest.approx(ORACLE_CHI_FREE_35NS, rel=1e-9)

    def test_echo_matches_oracle(self, gaas):
        budget = chi(echo(2e-6), gaas, bang_bang())
        assert budget.chi_total == pytest.approx(ORACLE_CHI_ECHO_2US, rel=1e-9)

    def test_cdd4_matches_oracle(self, gaas):
        budget = chi(cdd(4, 1e-6), gaas, bang_bang())
        assert budget.chi_total == pytest.approx(ORACLE_CHI_CDD4_1US, rel=1e-9)


class TestBudgetFields:
    def test_split_adds_up_and_coherence_is_exp(self, gaas):
        b = chi(cdd(3, 1e-6), gaas, bang_bang())
        assert b.chi_total == pytest.approx(b.chi_low + b.chi_high, rel=1e-12)
        assert b.coherence == pytest.approx(math.exp(-b.chi_total), rel=1e-12)
        assert b.chi_pul == 0.0
        assert b.m == 1
        assert not b.comb_path

    def test_pulse_contribution_separated(self, gaas):
        b = chi(cdd(4, 1e-6), gaas, primitive(1e-9))
        assert b.chi_pul >= 0.0
        assert b.chi_total == pytest.approx(b.chi_bb + b.chi_pul, rel=1e-9)

    def test_zero_strength_gives_zero_error(self, gaas):
        silent = replace(gaas, g=0.0)
        b = chi(cdd(2, 1e-6), silent, bang_bang())
        assert b.chi_total == 0.0
        assert b.coherence == 1.0

    @given(log_c=st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=20, deadline=None)
    def test_error_is_linear_in_strength(self, gaas, log_c):
        c = 10.0**log_c
        scaled = replace(gaas, g=c * gaas.g)
        base = chi(echo(2e-6), gaas, bang_bang()).chi_total
        got = chi(echo(2e-6), scaled, bang_bang()).chi_total
        assert got == pytest.approx(c * base, rel=1e-12)


class TestRepetitionKernel:
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    @pytest.mark.parametrize("maker", [echo, carr_purcell, lambda tau: cdd(3, tau)])
    def test_kernel_equals_explicit_concatenation(self, m, maker, gaas):
        base = maker(1e-6)
        via_kernel = chi_repeated(base, m, gaas, bang_bang()).chi_total
        via_explicit = chi(repeat_pattern(base, m), gaas, bang_bang()).chi_total
        assert via_kernel == pytest.approx(via_explicit, rel=1e-6)

    def test_m_one_equals_single_block(self, gaas):
        base = cdd(3, 1e-6)
        assert chi_repeated(base, 1, gaas, bang_bang()).chi_total == chi(
            base, gaas, bang_bang()
        ).chi_total

    def test_invalid_m_rejected(self, gaas):
        with pytest.raises(DomainError):
            chi_repeated(echo(1e-6), 0, gaas, bang_bang())

    def test_quadratic_growth_far_below_saturation(self):
        # x = T_p*omega_c/2pi = 0.01: every repeat is still coherent, so
        # the error must scale as m^2 until the comb resolves the cutoff
        spec = NoiseSpectrum(s=-2, g=1.0, omega_c=TWO_PI * 1e4)
        p = cdd(2, 0.25e-6)
        base = chi_repeated(p, 1, spec, bang_bang()).chi_total
        for m in (2, 3, 5):
            got = chi_repeated(p, m, spec, bang_bang()).chi_total
            assert 0.9 <= got / (m * m * base) <= 1.02

    def test_finite_width_kernel_matches_explicit_even_base(self, gaas):
        base = cdd(4, 1e-6)
        shape = primitive(1e-9)
        via_kernel = chi_repeated(base, 4, gaas, shape).chi_total
        via_explicit = chi(repeat_pattern(base, 4), gaas, shape).chi_total
        assert via_kernel == pytest.approx(via_explicit, rel=1e-8)

    def test_finite_width_odd_base_small_m_falls_back(self, gaas):
        base = echo(2e-6)
        shape = primitive(1e-9)
        via_kernel = chi_repeated(base, 4, gaas, shape).chi_total
        via_explicit = chi(repeat_pattern(base, 4), gaas, shape).chi_total
        assert via_kernel == pytest.approx(via_explicit, rel=1e-8)

    def test_finite_width_odd_base_large_m_rejected(self, gaas):
        with pytest.raises(DomainError):
            chi_repeated(echo(2e-6), 100, gaas, primitive(1e-9))


class TestCombPath:
    def test_comb_agrees_with_direct_summation(self, gaas):
        cfg = replace(DEFAULT_CONFIG, comb_crossover=64)
        base = cdd(4, 1e-6)
        comb = chi_repeated(base, 200, gaas, bang_bang(), cfg)
        direct = chi_repeated(base, 200, gaas, bang_bang())
        assert comb.comb_path and not direct.comb_path
        assert comb.chi_total == pytest.approx(direct.chi_total, rel=1e-3)
        assert comb.comb_agreement is not None and comb.comb_agreement < 0.01
        assert comb.growth_per_repeat is not None and comb.growth_per_repeat >= 0.0

    def test_large_m_saturates_at_plateau_limit(self, gaas):
        base = cdd(4, 1e-6)
        plateau = chi_plateau_limit(base, gaas, bang_bang()).chi_total
        at_62500 = chi_repeated(base, 62500, gaas, bang_bang()).chi_total
        assert at_62500 == pytest.approx(plateau, rel=1e-3)


class TestDuring:
    def test_full_time_equals_whole_pattern(self, gaas):
        p = udd_from_min_interval(3, 1e-6)
        a = chi_during(p, p.duration, gaas, bang_bang()).chi_total
        b = chi(p, gaas, bang_bang()).chi_total
        assert a == b

    def test_matches_truncated_pattern(self, gaas):
        p = udd_from_min_interval(5, 1e-6)
        t = 0.4 * p.duration
        a = chi_during(p, t, gaas, bang_bang()).chi_total
        b = chi(truncate(p, t), gaas, bang_bang()).chi_total
        assert a == b

    def test_beyond_duration_rejected(self, gaas):
        with pytest.raises(DomainError):
            chi_during(echo(1e-6), 2e-6, gaas, bang_bang())


class TestConfigAndFailure:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(rel_tol=2.0)
        with pytest.raises(DomainError):
            QuadratureConfig(abs_floor=-1.0)
        with pytest.raises(DomainError):
            QuadratureConfig(max_panels=8)
        with pytest.raises(DomainError):
            QuadratureConfig(comb_crossover=4)

    def test_exhausted_panel_budget_reports_estimate(self, gaas):
        cfg = replace(DEFAULT_CONFIG, max_panels=64, rel_tol=1e-12)
        with pytest.raises(AccuracyError) as err:
            chi(cdd(4, 1e-6), gaas, bang_bang(), cfg)
        assert err.value.estimate > 0.0
        assert err.value.error_bound > err.value.estimate

    @pytest.mark.parametrize("m", [None, 10**6])
    def test_exhausted_budget_on_comb_walk_reports_estimate(self, gaas, m):
        cfg = replace(DEFAULT_CONFIG, max_panels=64, validate_crossover=False)
        p = cdd(4, 1e-6)
        with pytest.raises(AccuracyError, match="64 panels exhausted for 'CDD4'") as err:
            if m is None:
                chi_plateau_limit(p, gaas, bang_bang(), cfg)
            else:
                chi_repeated(p, m, gaas, bang_bang(), cfg)
        assert math.isfinite(err.value.estimate) and err.value.estimate >= 0.0
        assert math.isfinite(err.value.error_bound)
        assert err.value.error_bound > err.value.estimate

    def test_tighter_tolerance_is_consistent(self, gaas):
        loose = chi(cdd(3, 1e-6), gaas, bang_bang(), replace(DEFAULT_CONFIG, rel_tol=1e-4))
        tight = chi(cdd(3, 1e-6), gaas, bang_bang(), replace(DEFAULT_CONFIG, rel_tol=1e-9))
        assert loose.chi_total == pytest.approx(tight.chi_total, rel=1e-4)
