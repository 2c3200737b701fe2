import math
from dataclasses import replace

import pytest

from ddmemory import (
    DivergenceError,
    DomainError,
    HARD,
    PowerLaw,
    bang_bang,
    cdd,
    check_conditions,
    chi_asymptotic,
    chi_infinity_leading_order,
    chi_plateau_limit,
    chi_repeated,
    chi_with_jitter,
    dcg3,
    echo,
    free_evolution,
    jitter_tolerance,
    m_max_soft,
    m_max_soft_detail,
    markovian_limit,
    plateau_report,
    primitive,
)

CDD4_COEFF = 3.0 * math.pi**6 / (5.0 * 2.0**25)


@pytest.fixture(scope="module")
def gaas_r18(gaas):
    return replace(gaas, rolloff=PowerLaw(18.0))


class TestConditions:
    def test_cdd4_ideal_pulses_pass(self, gaas):
        rep = check_conditions(cdd(4, 1e-6), gaas)
        assert rep.condition_lowfreq_bb.passed
        assert rep.condition_lowfreq_bb.margin == pytest.approx(5.0, abs=0.1)
        assert rep.condition_lowfreq_pul is None
        assert rep.condition_resonance.passed
        assert rep.condition_resonance.x == pytest.approx(0.16, rel=1e-12)
        assert rep.all_conditions_met

    def test_corrected_pulses_pass_primitive_fail(self, gaas):
        p = cdd(4, 1e-6)
        good = check_conditions(p, gaas, dcg3(1e-8))
        assert good.condition_lowfreq_pul.passed
        assert good.condition_lowfreq_pul.margin == pytest.approx(1.0, abs=0.1)
        bad = check_conditions(p, gaas, primitive(1e-9))
        assert not bad.condition_lowfreq_pul.passed
        assert not bad.all_conditions_met

    def test_free_evolution_fails_lowfreq(self, gaas):
        rep = check_conditions(free_evolution(1e-6), gaas)
        assert not rep.condition_lowfreq_bb.passed

    def test_resonance_fails_for_long_blocks(self, gaas):
        rep = check_conditions(cdd(4, 100e-6), gaas)
        assert not rep.condition_resonance.passed
        assert rep.condition_resonance.x > 1.0


class TestChiAsymptotic:
    def test_hard_cutoff_equals_plateau_limit(self, gaas_hard):
        p = cdd(4, 1e-6)
        inf_val = chi_asymptotic(p, gaas_hard).chi_total
        lim = chi_plateau_limit(p, gaas_hard, bang_bang()).chi_total
        assert inf_val == pytest.approx(lim, rel=1e-9)

    def test_gaussian_equals_plateau_limit_on_clamped_band(self, gaas):
        p = cdd(4, 1e-6)
        inf_val = chi_asymptotic(p, gaas).chi_total
        clamped = replace(gaas, omega_max=gaas.omega_c)
        lim = chi_plateau_limit(p, clamped, bang_bang()).chi_total
        assert inf_val == pytest.approx(lim, rel=1e-9)

    def test_gaussian_value_counts_only_below_cutoff(self, gaas):
        # the gaussian tail above omega_c is excluded by convention, so
        # the saturated error exceeds this number
        p = cdd(4, 1e-6)
        to_cutoff = chi_asymptotic(p, gaas).chi_total
        saturated = chi_plateau_limit(p, gaas, bang_bang()).chi_total
        assert to_cutoff < saturated

    def test_divergence_is_named(self, gaas):
        with pytest.raises(DivergenceError, match="alpha"):
            chi_asymptotic(free_evolution(1e-6), gaas)
        with pytest.raises(DivergenceError):
            chi_asymptotic(cdd(4, 1e-6), gaas, primitive(1e-9))

    def test_halving_tolerance_is_stable(self, gaas_hard):
        from ddmemory import DEFAULT_CONFIG

        p = cdd(4, 1e-6)
        a = chi_asymptotic(p, gaas_hard, config=replace(DEFAULT_CONFIG, rel_tol=1e-6)).chi_total
        b = chi_asymptotic(p, gaas_hard, config=replace(DEFAULT_CONFIG, rel_tol=5e-7)).chi_total
        assert a == pytest.approx(b, rel=3e-6)

    def test_closed_form_tracks_numerical(self, gaas_hard):
        p = cdd(4, 1e-6)
        closed = chi_infinity_leading_order(p, gaas_hard)
        numerical = chi_asymptotic(p, gaas_hard).chi_total
        assert closed == pytest.approx(numerical, rel=0.3)

    def test_plateau_bound_holds_for_sampled_m(self, gaas_hard):
        p = cdd(4, 1e-6)
        cap = 2.0 * chi_asymptotic(p, gaas_hard).chi_total
        for m in (1, 3, 10, 30, 100, 1000):
            got = chi_repeated(p, m, gaas_hard, bang_bang()).chi_total
            assert got <= cap * 1.05


class TestMMax:
    def test_specialization_matches_closed_route(self, gaas_r18):
        detail = m_max_soft_detail(cdd(4, 1e-6), gaas_r18)
        assert detail.specialized is not None
        assert detail.closed_route == pytest.approx(detail.specialized, rel=0.01)

    def test_specialized_coefficient(self, gaas_r18):
        x = 0.16
        detail = m_max_soft_detail(cdd(4, 1e-6), gaas_r18)
        assert detail.specialized == pytest.approx(CDD4_COEFF * x ** (7 - 18), rel=1e-9)

    def test_bound_exceeds_ten_thousand_at_figure_point(self, gaas_r18):
        assert m_max_soft(cdd(4, 1e-6), gaas_r18) >= 10**4

    def test_monotone_in_rolloff_exponent(self, gaas):
        vals = [
            m_max_soft_detail(cdd(4, 1e-6), replace(gaas, rolloff=PowerLaw(r))).bound
            for r in (8.0, 18.0, 25.0)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_non_power_law_rejected(self, gaas):
        with pytest.raises(DomainError):
            m_max_soft_detail(cdd(4, 1e-6), gaas)

    def test_non_cdd4_has_no_specialization(self, gaas_r18):
        detail = m_max_soft_detail(cdd(3, 1e-6), gaas_r18)
        assert detail.specialized is None
        assert detail.bound > 0


class TestJitter:
    def test_zero_delay_matches_repetition_kernel(self, gaas):
        p = cdd(4, 1e-6)
        a = chi_with_jitter(p, 50, 0.0, gaas).chi_total
        b = chi_repeated(p, 50, gaas, bang_bang()).chi_total
        assert a == pytest.approx(b, rel=1e-10)

    def test_error_grows_with_delay(self, gaas):
        p = cdd(4, 1e-6)
        vals = [chi_with_jitter(p, 100, dt, gaas).chi_total for dt in (0.0, 1e-12, 1e-10)]
        assert vals[0] < vals[1] < vals[2]

    def test_tolerance_in_picosecond_window(self, gaas):
        dt = jitter_tolerance(cdd(4, 1e-6), 1000, gaas, budget_factor=2.0)
        assert 0.15e-12 <= dt <= 15e-12

    def test_tolerance_solves_the_budget(self, gaas):
        p = cdd(4, 1e-6)
        budget = 2.0 * chi_plateau_limit(p, gaas, bang_bang()).chi_total
        dt = jitter_tolerance(p, 1000, gaas, budget_factor=2.0, rel_tol=1e-3)
        at_dt = chi_with_jitter(p, 1000, dt, gaas).chi_total
        assert at_dt == pytest.approx(budget, rel=5e-3)

    def test_infeasible_budget_rejected(self, gaas):
        with pytest.raises(DomainError):
            jitter_tolerance(cdd(4, 1e-6), 1000, gaas, budget_factor=1.0)

    def test_odd_base_with_finite_pulses_rejected(self, gaas):
        with pytest.raises(DomainError):
            chi_with_jitter(echo(2e-6), 100, 1e-12, gaas, primitive(1e-9))

    def test_negative_delay_rejected(self, gaas):
        with pytest.raises(DomainError):
            chi_with_jitter(cdd(4, 1e-6), 10, -1e-12, gaas)


class TestMarkovian:
    def test_exact_product(self):
        assert markovian_limit(100.0, 1e-5) == 1e-3

    def test_validation(self):
        with pytest.raises(DomainError):
            markovian_limit(-1.0, 1e-5)
        with pytest.raises(DomainError):
            markovian_limit(100.0, -1e-5)
        assert markovian_limit(100.0, 0.0) == 0.0


class TestReport:
    def test_full_report_with_corrected_pulses(self, gaas):
        rep = plateau_report(
            cdd(4, 1e-6), gaas, dcg3(1e-8), t_markov=100.0, jitter_budget_factor=2.0
        )
        assert rep.all_conditions_met
        assert rep.chi_infinity is not None
        assert rep.chi_infinity_closed > 0.0
        assert rep.m_max_bound is None  # gaussian rolloff: no power-law lifetime
        assert rep.t_max["markovian"] == pytest.approx(100.0 * rep.chi_infinity.chi_total)
        assert 0.15e-12 <= rep.jitter_tolerance_s <= 15e-12

    def test_power_law_report_has_lifetime(self, gaas_r18):
        rep = plateau_report(cdd(4, 1e-6), gaas_r18)
        assert rep.m_max_bound >= 10**4
        assert rep.t_max["soft_cutoff"] == pytest.approx(rep.m_max_bound * 16e-6, rel=1e-12)

    def test_hard_cutoff_reports_unbounded_lifetime(self, gaas_hard):
        rep = plateau_report(cdd(4, 1e-6), gaas_hard)
        assert rep.m_max_bound == math.inf
        assert rep.t_max["soft_cutoff"] == math.inf

    def test_failed_conditions_short_circuit(self, gaas):
        rep = plateau_report(cdd(4, 1e-6), gaas, primitive(1e-9))
        assert not rep.all_conditions_met
        assert rep.chi_infinity is None
        assert rep.m_max_bound is None
