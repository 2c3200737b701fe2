import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmemory import (
    DEFAULT_CONFIG,
    DivergenceError,
    DomainError,
    ErrorBudget,
    HARD,
    PowerLaw,
    TimingPattern,
    bang_bang,
    cdd,
    check_conditions,
    chi,
    chi_asymptotic,
    chi_infinity_leading_order,
    chi_plateau_limit,
    chi_repeated,
    chi_with_jitter,
    dcg3,
    echo,
    free_evolution,
    jitter_curve,
    jitter_tolerance,
    load_preset,
    m_max_soft,
    m_max_soft_detail,
    markovian_limit,
    plateau_report,
    primitive,
    pulse_order,
    repeat_pattern,
    udd,
    walsh,
)
from ddmemory import integrals, plateau

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
        assert rep.condition_resonance.x == pytest.approx(0.16, rel=1e-12, abs=0.0)
        assert rep.all_conditions_met

    def test_corrected_pulses_pass_primitive_fail(self, gaas):
        p = cdd(4, 1e-6)
        good = check_conditions(p, gaas, dcg3(1e-8))
        assert good.condition_lowfreq_pul.passed
        assert good.condition_lowfreq_pul.margin == pytest.approx(1.0, abs=0.1)
        bad = check_conditions(p, gaas, primitive(1e-9))
        assert not bad.condition_lowfreq_pul.passed
        assert not bad.all_conditions_met

    def test_udd20_meets_every_condition(self, gaas):
        rep = check_conditions(udd(20, 2e-5), gaas)
        assert rep.condition_lowfreq_bb.margin == 37.0
        assert rep.all_conditions_met

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
        assert inf_val == pytest.approx(lim, rel=1e-9, abs=0.0)

    def test_gaussian_equals_plateau_limit_on_clamped_band(self, gaas):
        p = cdd(4, 1e-6)
        inf_val = chi_asymptotic(p, gaas).chi_total
        clamped = replace(gaas, omega_max=gaas.omega_c)
        lim = chi_plateau_limit(p, clamped, bang_bang()).chi_total
        assert inf_val == pytest.approx(lim, rel=1e-9, abs=0.0)

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

    def test_resonance_failure_is_named(self, gaas):
        # T_p = 160 us puts the cutoff past the first resonance
        with pytest.raises(DivergenceError, match=r"T_p\*omega_c < 2\*pi fails .* = 1.6 >= 1"):
            chi_asymptotic(cdd(4, 1e-5), gaas)

    def test_noiseless_spectrum_has_a_zero_level(self, gaas):
        p, silent = cdd(4, 1e-6), replace(gaas, g=0.0)
        assert chi_asymptotic(p, silent) == ErrorBudget(0.0, 0.0, 0.0, 0.0, 0.0, 1.0, m=None)
        assert chi_infinity_leading_order(p, silent) == 0.0
        with pytest.raises(DomainError, match="undefined for g = 0"):
            m_max_soft_detail(p, replace(silent, rolloff=PowerLaw(8.0)))

    def test_halving_tolerance_is_stable(self, gaas_hard):
        from ddmemory import DEFAULT_CONFIG

        p = cdd(4, 1e-6)
        a = chi_asymptotic(p, gaas_hard, config=replace(DEFAULT_CONFIG, rel_tol=1e-6)).chi_total
        b = chi_asymptotic(p, gaas_hard, config=replace(DEFAULT_CONFIG, rel_tol=5e-7)).chi_total
        assert a == pytest.approx(b, rel=3e-6, abs=0.0)

    def test_closed_form_tracks_numerical(self, gaas_hard):
        p = cdd(4, 1e-6)
        closed = chi_infinity_leading_order(p, gaas_hard)
        numerical = chi_asymptotic(p, gaas_hard).chi_total
        assert closed == pytest.approx(numerical, rel=0.3, abs=0.0)

    @pytest.mark.parametrize("n", range(5, 29))
    def test_closed_form_tracks_numerical_for_high_order_udd(self, gaas_hard, n):
        # |A|^2 underflows from UDD21 on at 1 us periods, while each term does not
        p = udd(n, 1e-6)
        closed = chi_infinity_leading_order(p, gaas_hard)
        assert closed == pytest.approx(chi_asymptotic(p, gaas_hard).chi_total, rel=1e-3, abs=0.0)

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
        assert detail.closed_route == pytest.approx(detail.specialized, rel=0.01, abs=0.0)

    def test_specialized_coefficient(self, gaas_r18):
        x = 0.16
        detail = m_max_soft_detail(cdd(4, 1e-6), gaas_r18)
        assert detail.specialized == pytest.approx(CDD4_COEFF * x ** (7 - 18), rel=1e-9, abs=0.0)

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
        assert a == pytest.approx(b, rel=1e-10, abs=0.0)

    def test_error_grows_with_delay(self, gaas):
        p = cdd(4, 1e-6)
        vals = [chi_with_jitter(p, 100, dt, gaas).chi_total for dt in (0.0, 1e-12, 1e-10)]
        assert vals[0] < vals[1] < vals[2]

    def test_tolerance_in_picosecond_window(self, gaas):
        dt = jitter_tolerance(cdd(4, 1e-6), 1000, gaas, budget_factor=2.0)
        assert 0.15e-12 <= dt <= 15e-12

    def test_tolerance_after_many_repeats_keeps_the_plateau_one(self, gaas):
        # past the plateau the repeats add almost nothing, and each delay's comb
        # walk costs the same at any m: 5e4 repeats, out of a direct walk's reach
        shape = dcg3(1e-8)
        at_1000 = jitter_tolerance(cdd(4, 1e-6), 1000, gaas, shape)
        at_50000 = jitter_tolerance(cdd(4, 1e-6), 50_000, gaas, shape)
        assert at_50000 == pytest.approx(at_1000, rel=plateau.JITTER_REL_TOL, abs=0.0)

    def test_tolerance_solves_the_budget(self, gaas):
        p = cdd(4, 1e-6)
        budget = 2.0 * chi_plateau_limit(p, gaas, bang_bang()).chi_total
        dt = jitter_tolerance(p, 1000, gaas, budget_factor=2.0)
        at_dt = chi_with_jitter(p, 1000, dt, gaas).chi_total
        assert at_dt == pytest.approx(budget, rel=5e-3, abs=0.0)

    def test_bisection_evaluates_each_delay_once(self, gaas, monkeypatch):
        calls = []

        def counting(*args):
            curve = jitter_curve(*args)

            def at(delta_t):
                b = curve(delta_t)
                calls.append((delta_t, b.chi_total))
                return b

            return at

        monkeypatch.setattr(plateau, "jitter_curve", counting)
        p = cdd(4, 1e-6)
        dt = jitter_tolerance(p, 1000, gaas, budget_factor=2.0)
        budget = 2.0 * chi_plateau_limit(p, gaas).chi_total
        delays = [delta_t for delta_t, _ in calls]
        assert len(delays) == len(set(delays))
        # zero delay, then doublings from a physical scale up to the first delay
        # over budget, then probes that each lie inside the bracket so far
        assert delays[0] == 0.0
        first_over = next(i for i, (_, c) in enumerate(calls) if c > budget)
        assert all(b == 2.0 * a for a, b in zip(delays[1:first_over], delays[2:first_over + 1]))
        lo, hi = (delays[first_over - 1] if first_over > 1 else 0.0), delays[first_over]
        for delta_t, c in calls[first_over + 1:]:
            assert lo < delta_t < hi
            lo, hi = (lo, delta_t) if c > budget else (delta_t, hi)
        assert hi - lo <= plateau.JITTER_REL_TOL * hi
        assert dt == 0.5 * (lo + hi)

    @pytest.mark.parametrize("preset", ["gaas", "yb"])
    def test_tolerance_runs_one_band_walk(self, preset, monkeypatch):
        # one comb walk for the plateau level and one per delay, and no direct walk;
        # aiming at the root of a power-law fit of the excess error closes the
        # 1e-3 bracket in a few delays, where bisection takes about 13
        bands, walks = [], []
        band, comb_walk = integrals._Walk.band, integrals._comb_walk

        def counted_band(walk, *args):
            bands.append(args)
            return band(walk, *args)

        def counted(*args):
            walks.append(args[1::4])  # (m, delay)
            return comb_walk(*args)

        monkeypatch.setattr(integrals._Walk, "band", counted_band)
        monkeypatch.setattr(integrals, "_comb_walk", counted)
        jitter_tolerance(cdd(4, 1e-6), 1000, load_preset(preset), budget_factor=2.0)
        assert bands == []
        assert walks[:2] == [(None, 0.0), (1000, 0.0)]
        assert len(walks) == len(set(walks)) <= 8

    @given(
        factor=st.floats(1.5, 10.0),
        shape=st.sampled_from((bang_bang(), primitive(1e-9), dcg3(1e-8))),
        m=st.sampled_from((100, 1000, 5 * 10**4)),
        tau=st.sampled_from((0.6e-6, 1e-6, 1.4e-6)),
    )
    @settings(max_examples=15, deadline=None)
    def test_tolerance_agrees_with_plain_bisection(self, gaas, factor, shape, m, tau):
        p = cdd(4, tau)
        budget = factor * chi_plateau_limit(p, gaas, shape).chi_total
        curve = jitter_curve(p, m, gaas, shape)
        if curve(0.0).chi_total >= budget:  # 5e4 repeats of 1.4 us slots outgrow a small factor
            with pytest.raises(DomainError, match="no jitter headroom"):
                jitter_tolerance(p, m, gaas, shape, budget_factor=factor)
            return
        # the tolerances drawn here lie between 1.0e-13 and 1.5e-9 s; close 10x past JITTER_REL_TOL
        lo, hi = 0.0, 1e-13
        while curve(hi).chi_total <= budget:
            lo, hi = hi, 2.0 * hi
        while hi - lo > 0.1 * plateau.JITTER_REL_TOL * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if curve(mid).chi_total > budget else (mid, hi)
        want = 0.5 * (lo + hi)
        got = jitter_tolerance(p, m, gaas, shape, budget_factor=factor)
        assert got == pytest.approx(want, rel=plateau.JITTER_REL_TOL, abs=0.0)

    def test_infeasible_budget_rejected(self, gaas):
        with pytest.raises(DomainError):
            jitter_tolerance(cdd(4, 1e-6), 1000, gaas, budget_factor=1.0)

    @pytest.mark.parametrize(
        "p, shape",
        [
            (echo(2e-6), bang_bang()),
            (echo(2e-6), primitive(1e-9)),
            (echo(2e-6), dcg3(1e-8)),
            (udd(5, 16e-6), primitive(1e-9)),
        ],
        ids=["echo-bb", "echo-primitive", "echo-dcg", "udd5-primitive"],
    )
    def test_odd_base_delay_equals_explicit_pattern(self, gaas, p, shape):
        # junction pulses between the copies, and the delay continues the last
        # copy's sign, which is -1 for an odd base; primitive pulses carry
        # about a third of echo's chi here and nearly all of UDD5's, and the
        # junctions' z term moves echo's chi with DCG pulses by 1e-4
        m, delta_t = 16, 1e-10
        q = repeat_pattern(p, m)
        explicit = TimingPattern(q.pulse_times, q.duration + delta_t, "explicit")
        got = chi_with_jitter(p, m, delta_t, gaas, shape).chi_total
        assert got == pytest.approx(chi(explicit, gaas, shape).chi_total, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, 0.0])
    def test_bad_budget_factor_is_named(self, gaas, factor):
        with pytest.raises(DomainError, match="budget_factor"):
            jitter_tolerance(cdd(4, 1e-6), 1000, gaas, budget_factor=factor)

    def test_negative_delay_rejected(self, gaas):
        with pytest.raises(DomainError):
            chi_with_jitter(cdd(4, 1e-6), 10, -1e-12, gaas)

    @pytest.mark.parametrize(
        "m, delta_t, name",
        [(10, math.nan, "delta_t"), (10, math.inf, "delta_t"), (2.5, 1e-12, "repeat count")],
    )
    def test_bad_jitter_argument_is_named(self, gaas, m, delta_t, name):
        with pytest.raises(DomainError, match=name):
            chi_with_jitter(cdd(4, 1e-6), m, delta_t, gaas)


class TestMarkovian:
    def test_exact_product(self):
        assert markovian_limit(100.0, 1e-5) == 1e-3

    def test_validation(self):
        with pytest.raises(DomainError):
            markovian_limit(-1.0, 1e-5)
        with pytest.raises(DomainError):
            markovian_limit(100.0, -1e-5)
        assert markovian_limit(100.0, 0.0) == 0.0

    @pytest.mark.parametrize("t_markov, chi_inf", [(math.nan, 1e-5), (math.inf, 1e-5), (100.0, math.nan)])
    def test_non_finite_rejected(self, t_markov, chi_inf):
        with pytest.raises(DomainError):
            markovian_limit(t_markov, chi_inf)


class TestReport:
    def test_full_report_with_corrected_pulses(self, gaas):
        rep = plateau_report(
            cdd(4, 1e-6), gaas, dcg3(1e-8), t_markov=100.0, jitter_budget_factor=2.0
        )
        assert rep.all_conditions_met
        assert rep.chi_infinity is not None
        assert rep.chi_infinity_closed > 0.0
        assert rep.m_max_bound is None  # gaussian rolloff: no power-law lifetime
        assert rep.t_max["markovian"] == pytest.approx(100.0 * rep.chi_infinity.chi_total, abs=0.0)
        assert 0.15e-12 <= rep.jitter_tolerance_s <= 15e-12

    def test_power_law_report_has_lifetime(self, gaas_r18):
        rep = plateau_report(cdd(4, 1e-6), gaas_r18)
        assert rep.m_max_bound >= 10**4
        assert rep.t_max["soft_cutoff"] == pytest.approx(rep.m_max_bound * 16e-6, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "shape, pulse_calls", [(bang_bang(), 0), (dcg3(1e-8), 1)], ids=["bb", "dcg_10ns"]
    )
    def test_report_fits_each_order_once(self, gaas_r18, monkeypatch, shape, pulse_calls):
        calls = {"suppression_order": 0, "pulse_order": 0}
        for name in calls:

            def counting(*args, _fit=getattr(plateau, name), _name=name):
                calls[_name] += 1
                return _fit(*args)

            monkeypatch.setattr(plateau, name, counting)
        plateau._leading_terms.cache_clear()
        rep = plateau_report(cdd(4, 1e-6), gaas_r18, shape)
        assert rep.all_conditions_met and rep.m_max_bound is not None
        assert calls == {"suppression_order": 1, "pulse_order": pulse_calls}

    def test_power_law_report_walks_the_comb_once(self, gaas_r18, monkeypatch):
        # the repeat bound reads the plateau level the report has just computed
        calls = []

        def counting(*args, _limit=plateau.chi_plateau_limit):
            calls.append(args)
            return _limit(*args)

        monkeypatch.setattr(plateau, "chi_plateau_limit", counting)
        p, shape = cdd(4, 1e-6), dcg3(1e-8)
        rep = plateau_report(p, gaas_r18, shape)
        assert len(calls) == 1
        assert rep.m_max_bound == float(m_max_soft(p, gaas_r18, shape))

    def test_hard_cutoff_reports_unbounded_lifetime(self, gaas_hard):
        rep = plateau_report(cdd(4, 1e-6), gaas_hard)
        assert rep.m_max_bound == math.inf
        assert rep.t_max["soft_cutoff"] == math.inf

    def test_failed_conditions_short_circuit(self, gaas):
        rep = plateau_report(cdd(4, 1e-6), gaas, primitive(1e-9))
        assert not rep.all_conditions_met
        assert rep.chi_infinity is None
        assert rep.m_max_bound is None

    @pytest.mark.parametrize("name", ["t_markov", "jitter_budget_factor"])
    def test_non_finite_inputs_rejected_before_short_circuit(self, gaas, name):
        with pytest.raises(DomainError, match=name):
            plateau_report(cdd(4, 1e-6), gaas, primitive(1e-9), **{name: math.nan})

    def test_bad_jitter_m_rejected_without_a_budget(self, gaas):
        with pytest.raises(DomainError, match="jitter_m"):
            plateau_report(cdd(4, 1e-6), gaas, jitter_m=0)

    def test_bad_jitter_m_rejected_before_short_circuit(self, gaas):
        with pytest.raises(DomainError, match="jitter_m"):
            plateau_report(
                cdd(4, 1e-6), gaas, primitive(1e-9), jitter_budget_factor=2.0, jitter_m=0
            )


class TestOddBaseFinitePulses:
    """Every quantity resting on the comb walk takes an odd base with finite pulses.

    The comb walk carries the junction pulses as r = G X - Y, whose cross
    term G X conj(Y) and |Y|^2 it integrates along with |G|^2 |X|^2.  On gaas
    (s = -2) the plateau conditions fail first: odd switching parity lowers
    the fitted pulse order from 2 to 1, so s + 2 alpha_pul - 1 = -1.  With
    s = 1 they pass, and each call returns the value its definition gives.
    """

    U5 = udd(5, 16e-6)
    CALLS = {
        "chi_plateau_limit": lambda p, spec, shape: chi_plateau_limit(p, spec, shape),
        "chi_asymptotic": lambda p, spec, shape: chi_asymptotic(p, spec, shape),
        "m_max_soft_detail": lambda p, spec, shape: m_max_soft_detail(
            p, replace(spec, rolloff=PowerLaw(18.0)), shape
        ),
        "jitter_tolerance": lambda p, spec, shape: jitter_tolerance(p, 1000, spec, shape),
        "plateau_report": lambda p, spec, shape: plateau_report(p, spec, shape),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_comb_resting_call_is_refused(self, gaas, name):
        # where the comb walk once refused, each call now meets its definition
        spec, shape = replace(gaas, s=1.0), dcg3(1e-8)
        got = self.CALLS[name](self.U5, spec, shape)
        level = chi_plateau_limit(self.U5, spec, shape)
        if name == "chi_plateau_limit":
            # chi(m) = level + m growth + a transient: the direct walk at m = 1000,
            # past the crossover, where chi_repeated takes the comb walk
            direct = integrals._chi_direct(self.U5, 1000, spec, shape, DEFAULT_CONFIG).chi_total
            assert abs(direct - 1000 * got.growth_per_repeat - got.chi_total) <= 1e-9 * direct
        elif name == "chi_asymptotic":
            clamped = replace(spec, omega_max=spec.omega_c)
            assert got.chi_total == chi_plateau_limit(self.U5, clamped, shape).chi_total > 0.0
        elif name == "m_max_soft_detail":
            assert got.bound == pytest.approx(got.closed_route, rel=0.1, abs=0.0)
        elif name == "jitter_tolerance":
            at_dt = chi_with_jitter(self.U5, 1000, got, spec, shape).chi_total
            assert at_dt == pytest.approx(2.0 * level.chi_total, rel=5e-3, abs=0.0)
        else:
            assert got.all_conditions_met
            assert got.chi_infinity == chi_asymptotic(self.U5, spec, shape)

    @pytest.mark.parametrize("name", ["chi_asymptotic", "m_max_soft_detail"])
    def test_fitted_pulse_order_fails_on_gaas(self, gaas, name):
        with pytest.raises(DivergenceError, match="alpha_pul"):
            self.CALLS[name](self.U5, gaas, dcg3(1e-8))

    def test_leading_order_fails_on_gaas(self, gaas_hard):
        with pytest.raises(DivergenceError, match="alpha_pul"):
            chi_infinity_leading_order(self.U5, gaas_hard, dcg3(1e-8))

    def test_leading_order_sums_the_fitted_pulse_term(self, gaas_hard):
        spec, shape = replace(gaas_hard, s=1.0), dcg3(1e-8)
        po = pulse_order(self.U5, shape)
        assert po.alpha == 2 and round(po.alpha_fit) == 1
        # order 1 and s = 1: 2 g |A_fit|^2 omega_c^(s+1) omega_c^(-s) / (T_p^2 (s+1))
        expected = spec.g * abs(po.amplitude_fit) ** 2 * spec.omega_c / self.U5.duration**2
        pulse = chi_infinity_leading_order(self.U5, spec, shape) - chi_infinity_leading_order(self.U5, spec)
        assert pulse / expected == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_leading_order_and_conditions_read_one_order(self, gaas_hard):
        # primitive pulses on an odd base fit order 0: margin s - 1 = 0 fails for both
        spec, shape = replace(gaas_hard, s=1.0), primitive(1e-9)
        assert check_conditions(self.U5, spec, shape).condition_lowfreq_pul.margin == 0.0
        with pytest.raises(DivergenceError, match="alpha_pul"):
            chi_infinity_leading_order(self.U5, spec, shape)

    @pytest.mark.parametrize("p", [U5, cdd(3, 1e-6)], ids=["udd5", "cdd3"])
    def test_report_reads_the_fitted_pulse_order(self, gaas, p):
        rep = plateau_report(p, gaas, dcg3(1e-8))
        assert not rep.condition_lowfreq_pul.passed
        assert rep.condition_lowfreq_pul.margin == -1.0
        assert not rep.all_conditions_met
        assert rep.chi_infinity is None

    def test_bang_bang_plateau_is_kept(self, gaas):
        # against the direct walk at m = 1000, which chi_repeated leaves for the comb walk
        limit = chi_plateau_limit(self.U5, gaas).chi_total
        direct = integrals._chi_direct(self.U5, 1000, gaas, bang_bang(), DEFAULT_CONFIG).chi_total
        assert limit == pytest.approx(direct, rel=1e-6, abs=0.0)


class TestNoPlateauLevel:
    """Where resonances inside a soft rolloff make chi grow linearly in m, the
    comb walk's plateau part, the intercept P of chi(m) = P + m * growth, sums
    negative: there is no plateau level, and the refusal names the growth per
    repeat and the intercept."""

    W60 = walsh(60, 256e-6, 256)
    CASES = {
        # the two-m fit of chi_repeated at m = 2000 and 4000 gives P = -1.66e-4, growth 2.05e-3
        "w60_256": (W60, None, "2.052e-03", "-1.663e-04"),
        # the whole walk sums negative
        "w25_64_r8": (walsh(25, 64 * 7.75e-6, 64), PowerLaw(8.0), "1.184e+00", "-2.369e-01"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_plateau_limit_raises(self, gaas, name):
        p, rolloff, growth, intercept = self.CASES[name]
        spec = gaas if rolloff is None else replace(gaas, rolloff=rolloff)
        msg = (f"no plateau level for {p.label!r}: chi grows by {growth} per repeat "
               f"from a negative intercept {intercept}")
        with pytest.raises(DomainError, match=re.escape(msg)):
            chi_plateau_limit(p, spec)

    def test_jitter_budget_is_not_built_on_it(self, gaas):
        with pytest.raises(DomainError, match="no plateau level for 'W60@256'"):
            jitter_tolerance(self.W60, 10, gaas)
