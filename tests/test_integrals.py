import dataclasses
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmemory import (
    AccuracyError,
    ConsistencyError,
    DEFAULT_CONFIG,
    DomainError,
    HARD,
    NoiseSpectrum,
    PowerLaw,
    QuadratureConfig,
    TimingPattern,
    bang_bang,
    carr_purcell,
    cdd,
    chi,
    chi_during,
    chi_plateau_limit,
    chi_repeated,
    chi_with_jitter,
    dcg3,
    echo,
    free_evolution,
    jitter_curve,
    primitive,
    repeat_pattern,
    truncate,
    udd,
    udd_from_min_interval,
    walsh,
)
from ddmemory import integrals
from ddmemory.filters import filter_fn
from ddmemory.plateau import chi_asymptotic

TWO_PI = 2.0 * math.pi

# Frozen oracles: 30-digit adaptive quadrature of the defining band
# integral (gaussian rolloff, s = -2, g = 0.207*omega_c, omega_c =
# 2*pi*1e4, band 2*pi*[0.01, 1e8] Hz), via mpmath.quad with explicit
# breakpoints at the filter lobes and the cutoff.
ORACLE_CHI_FREE_35NS = 1.00107220004571620725656206413
ORACLE_CHI_ECHO_2US = 2.85819221609217150601607830261e-6
ORACLE_CHI_CDD4_1US = 1.22448664158290302467211543086e-9
# 40-digit mpmath.quad of S * 4 sin^2(omega T/2) / omega^2 on yb, T = 16 ms,
# split on a log ladder of 24 pieces below 2 pi/T and at every node 2 pi k/T
# up to sqrt(745) omega_c, where the library's gaussian rolloff is 0 (67 pieces)
# (a 48-piece ladder at 50 digits gives the same 30 digits)
ORACLE_CHI_FREE_16MS_YB = 3.81729243369436589929071039928e-4


class TestOracles:
    def test_free_evolution_matches_oracle(self, gaas):
        budget = chi(free_evolution(35e-9), gaas, bang_bang())
        assert budget.chi_total == pytest.approx(ORACLE_CHI_FREE_35NS, rel=1e-9, abs=0.0)

    def test_echo_matches_oracle(self, gaas):
        budget = chi(echo(2e-6), gaas, bang_bang())
        assert budget.chi_total == pytest.approx(ORACLE_CHI_ECHO_2US, rel=1e-9, abs=0.0)

    def test_cdd4_matches_oracle(self, gaas):
        budget = chi(cdd(4, 1e-6), gaas, bang_bang())
        assert budget.chi_total == pytest.approx(ORACLE_CHI_CDD4_1US, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize(
        "m, walk",
        [(1000, integrals._chi_direct), (1000, chi_repeated), (1, integrals._chi_direct)],
        ids=["16us_x1000", "16us_x1000_comb", "16ms"],
    )
    def test_long_free_evolution_on_yb_matches_oracle(self, yb, m, walk):
        # the kernel walk and the comb walk of 1000 repeats and the single run
        # integrate the same closed form; bench/oracle.py's kernel route lies
        # 1.02e-12 chi above it
        budget = walk(free_evolution(16e-3 / m), m, yb, bang_bang(), DEFAULT_CONFIG)
        assert abs(budget.chi_total - ORACLE_CHI_FREE_16MS_YB) <= 1e-14 * ORACLE_CHI_FREE_16MS_YB

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-12])
    def test_cdd4_meets_each_tolerance(self, gaas, rel_tol):
        # no absolute floor: at 1e-12 the walk refines past the 1.4e-12 chi it
        # returns at the default tolerance
        budget = chi(cdd(4, 1e-6), gaas, bang_bang(), replace(DEFAULT_CONFIG, rel_tol=rel_tol))
        assert budget.quad_error <= rel_tol * budget.chi_total
        assert abs(budget.chi_total - ORACLE_CHI_CDD4_1US) <= budget.quad_error


class TestBudgetFields:
    def test_split_adds_up_and_coherence_is_exp(self, gaas):
        b = chi(cdd(3, 1e-6), gaas, bang_bang())
        assert b.chi_total == pytest.approx(b.chi_low + b.chi_high, rel=1e-12, abs=0.0)
        assert b.coherence == pytest.approx(math.exp(-b.chi_total), rel=1e-12, abs=0.0)
        assert b.chi_pul == 0.0
        assert b.m == 1
        assert not b.comb_path

    def test_pulse_contribution_separated(self, gaas):
        b = chi(cdd(4, 1e-6), gaas, primitive(1e-9))
        assert b.chi_pul >= 0.0
        assert b.chi_total == pytest.approx(b.chi_bb + b.chi_pul, rel=1e-9, abs=0.0)

    def test_negative_pulse_excess_is_reported_signed(self, gaas):
        # 10 ns DCG pulses lower UDD5's chi by about 0.5 %, which is a real
        # effect (the oracle agrees), not quadrature noise to fold into the bound
        p = udd(5, 16e-6)
        b = chi(p, gaas, dcg3(1e-8))
        ideal = chi(p, gaas, bang_bang()).chi_total
        assert b.chi_bb == pytest.approx(ideal, rel=1e-12, abs=0.0)
        assert b.chi_pul == b.chi_total - b.chi_bb
        assert b.chi_pul == pytest.approx(-5.15e-3 * ideal, rel=0.01, abs=0.0)
        assert b.quad_error <= 1e-6 * b.chi_total

    @pytest.mark.parametrize("rolloff", [HARD, PowerLaw(18.0)], ids=["hard", "r18"])
    def test_quad_error_is_a_float_on_the_comb_path(self, gaas, rolloff):
        # the cutoff's break terms enter the bound there
        b = chi_repeated(cdd(4, 1e-6), 10**4, replace(gaas, rolloff=rolloff))
        assert b.comb_path
        assert type(b.quad_error) is float

    def test_quad_error_is_a_float_with_jitter(self, gaas):
        assert type(chi_with_jitter(cdd(4, 1e-6), 1000, 1e-7, gaas).quad_error) is float

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
        assert got == pytest.approx(c * base, rel=1e-12, abs=0.0)


class TestRepetitionKernel:
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    @pytest.mark.parametrize("maker", [echo, carr_purcell, lambda tau: cdd(3, tau)])
    def test_kernel_equals_explicit_concatenation(self, m, maker, gaas):
        base = maker(1e-6)
        via_kernel = chi_repeated(base, m, gaas, bang_bang()).chi_total
        via_explicit = chi(repeat_pattern(base, m), gaas, bang_bang()).chi_total
        assert via_kernel == pytest.approx(via_explicit, rel=1e-6, abs=0.0)

    def test_m_one_equals_single_block(self, gaas):
        base = cdd(3, 1e-6)
        assert chi_repeated(base, 1, gaas, bang_bang()).chi_total == chi(
            base, gaas, bang_bang()
        ).chi_total

    def test_invalid_m_rejected(self, gaas):
        with pytest.raises(DomainError):
            chi_repeated(echo(1e-6), 0, gaas, bang_bang())

    @pytest.mark.parametrize("m", [2.5, math.nan, math.inf])
    def test_non_integer_m_is_named(self, gaas, m):
        with pytest.raises(DomainError, match="repeat count"):
            chi_repeated(cdd(4, 1e-6), m, gaas)

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
        assert via_kernel == pytest.approx(via_explicit, rel=1e-8, abs=0.0)

    @given(
        bounds=st.sets(st.integers(1, 15), min_size=1).map(sorted),
        m=st.integers(2, 8),
        shape=st.sampled_from((primitive(1e-9), dcg3(1e-8))),
    )
    @settings(max_examples=12, deadline=None)
    def test_finite_width_kernel_equals_explicit_for_grid_patterns(self, gaas, bounds, m, shape):
        # an odd pulse count adds a junction pulse at every copy boundary,
        # which the repetition factor carries at the phasor level
        bounds = tuple(bounds)
        base = TimingPattern(tuple(b * 1e-6 for b in bounds), 16e-6, "grid", grid=(16, bounds))
        via_kernel = chi_repeated(base, m, gaas, shape).chi_total
        via_explicit = chi(repeat_pattern(base, m), gaas, shape).chi_total
        assert via_kernel == pytest.approx(via_explicit, rel=1e-6, abs=0.0)

    def test_finite_width_odd_base_small_m_falls_back(self, gaas):
        # an echo's junction pulses are carried by the repetition factor
        # rather than an explicit construction; the value must not change
        base = echo(2e-6)
        shape = primitive(1e-9)
        via_kernel = chi_repeated(base, 4, gaas, shape).chi_total
        via_explicit = chi(repeat_pattern(base, 4), gaas, shape).chi_total
        assert via_kernel == pytest.approx(via_explicit, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("shape", [primitive(1e-9), dcg3(1e-8)], ids=["primitive", "dcg"])
    def test_finite_width_odd_base_large_power_of_two_repeat(self, gaas, shape):
        # CDD3 has 5 pulses; its power-of-two repeat is a Walsh pattern,
        # whose product transform keeps the explicit evaluation cheap
        base = cdd(3, 1e-6)
        via_kernel = chi_repeated(base, 512, gaas, shape).chi_total
        via_explicit = chi(repeat_pattern(base, 512), gaas, shape).chi_total
        assert via_kernel == pytest.approx(via_explicit, rel=1e-9, abs=0.0)

    def test_finite_width_odd_base_large_m_rejected(self, gaas):
        # past the crossover the comb walk takes the junction pulses as r = G X - Y,
        # and the crossover check runs for it as for any other base
        m0 = DEFAULT_CONFIG.comb_crossover
        p, shape = echo(2e-6), primitive(1e-9)
        comb = chi_repeated(p, m0 + 1, gaas, shape)
        assert comb.comb_path and comb.comb_agreement < 1e-9
        assert integrals._crossover_agreement.cache_info().currsize == 1
        direct = integrals._chi_direct(p, m0 + 1, gaas, shape, DEFAULT_CONFIG)
        assert abs(comb.chi_total - direct.chi_total) <= 1e-9 * direct.chi_total


class TestKronrodRule:
    """The K15/G7 pair is derived, so it holds to its degree to a few ulp."""

    @pytest.mark.parametrize("name", ["_WK15", "_WG7"])
    def test_weights_sum_to_two(self, name):
        assert abs(math.fsum(getattr(integrals, name)) - 2.0) <= np.spacing(2.0)

    @pytest.mark.parametrize("name, degree", [("_WK15", 22), ("_WG7", 13)])
    def test_exact_on_monomials_to_its_degree(self, name, degree):
        weights = getattr(integrals, name)
        for d in range(degree + 1):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(weights @ integrals._NODES**d - exact) <= 4 * np.finfo(float).eps, d

    def test_nodes_ascend_symmetrically_with_gauss_on_every_second(self):
        x, w_g7 = integrals._NODES, integrals._WG7
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1])
        assert np.all(w_g7[1::2] > 0) and np.all(w_g7[::2] == 0)


_COMB_VS_DIRECT = {
    "cdd4": cdd(4, 1e-6),
    "udd4": udd(4, 16e-6),
    "w37_64": walsh(37, 64e-6, 64),
    "echo": echo(2e-6),
    "free": free_evolution(16e-6),
}


@st.composite
def _small_bases(draw):
    """A Walsh base of up to 64 slots, or any sign pattern on up to 64 slots, 0.1-10 us a slot."""
    slot = 10.0 ** draw(st.floats(-7.0, -5.0))
    if draw(st.booleans()):
        n = 2 ** draw(st.integers(0, 6))
        return walsh(draw(st.integers(0, n - 1)), n * slot, n)
    flips = draw(st.lists(st.booleans(), max_size=63))
    bounds = tuple(j + 1 for j, flip in enumerate(flips) if flip)
    n = len(flips) + 1
    return TimingPattern(tuple(b * slot for b in bounds), n * slot, "grid", grid=(n, bounds))


class TestCombPath:
    @pytest.mark.parametrize("m", [17, 100, 1001])
    @pytest.mark.parametrize("name", sorted(_COMB_VS_DIRECT))
    @pytest.mark.parametrize("spec_name", ["gaas", "gaas_hard", "yb"])
    def test_comb_matches_direct_summation(self, request, spec_name, name, m):
        # the comb walk integrates the kernel's oscillation exactly, so it
        # meets the direct kernel walk far inside rel_tol at every m
        spec = request.getfixturevalue(spec_name)
        p = _COMB_VS_DIRECT[name]
        cfg = replace(DEFAULT_CONFIG, comb_crossover=16, validate_crossover=False)
        for shape in (bang_bang(), primitive(1e-9), dcg3(1e-8)):
            comb = integrals._chi_comb(p, m, spec, shape, cfg)
            direct = integrals._chi_direct(p, m, spec, shape, cfg)
            assert comb.comb_path and not direct.comb_path
            assert abs(comb.chi_total - direct.chi_total) <= 1e-9 * direct.chi_total, shape.kind

    @given(_small_bases(), st.integers(2, 64), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_comb_matches_direct_walk_at_small_m(self, gaas, yb, p, m, on_gaas):
        # at rel_tol = 1e-9 the walks agree to 1e-9 chi; at the default 1e-6 the
        # comb walk on a base of 0.1 ms or longer can stop 2e-8 chi from the
        # direct one, so there they must agree within their summed quad_error
        tight = replace(DEFAULT_CONFIG, rel_tol=1e-9)
        spec = gaas if on_gaas else yb
        for shape in (bang_bang(), dcg3(1e-8)):
            comb = integrals._chi_comb(p, m, spec, shape, tight)
            direct = integrals._chi_direct(p, m, spec, shape, tight)
            assert abs(comb.chi_total - direct.chi_total) <= 1e-9 * direct.chi_total, shape.kind
            comb = integrals._chi_comb(p, m, spec, shape, DEFAULT_CONFIG)
            direct = integrals._chi_direct(p, m, spec, shape, DEFAULT_CONFIG)
            bound = comb.quad_error + direct.quad_error
            assert abs(comb.chi_total - direct.chi_total) <= bound, shape.kind

    @pytest.mark.parametrize(
        "m, crossover", [(200, 64), (1001, 1000)], ids=["m200", "m1001"]
    )
    def test_comb_splits_on_the_error_it_charges(self, gaas, m, crossover):
        # on the r = 18 power law the panel above the cutoff charges the top
        # Legendre terms of its interpolant, about 3.5e-9 chi unsplit: the
        # walk halves it on that charge until rel_tol = 1e-9 is met.  The
        # direct walk at 1e-9 is 3.8e-12 chi off, more than the comb walk's
        # charge, so the reference is the direct walk at 1e-11
        cfg = replace(DEFAULT_CONFIG, comb_crossover=crossover, rel_tol=1e-9)
        r18 = replace(gaas, rolloff=PowerLaw(18.0))
        p = cdd(4, 1e-6)
        comb = chi_repeated(p, m, r18, bang_bang(), cfg)
        assert comb.comb_path
        direct = integrals._chi_direct(p, m, r18, bang_bang(), replace(cfg, rel_tol=1e-11))
        assert abs(comb.chi_total - direct.chi_total) <= comb.quad_error

    @pytest.mark.parametrize(
        "m, crossover", [(200, 64), (1001, 1000)], ids=["m200", "m1001"]
    )
    def test_comb_error_above_rel_tol_raises(self, gaas, monkeypatch, m, crossover):
        # no known case misses rel_tol once the walk splits on its own charge,
        # so the error reaching the one check, in _assemble, is inflated past it
        rel_tol = 1e-9
        cfg = replace(DEFAULT_CONFIG, comb_crossover=crossover, rel_tol=rel_tol)
        r18 = replace(gaas, rolloff=PowerLaw(18.0))
        p = cdd(4, 1e-6)
        unchecked = integrals._chi_comb(p, m, r18, bang_bang(), cfg)
        assemble = integrals._assemble

        def inflated(low, high, err, *args, **kwargs):
            return assemble(low, high, err + 10 * rel_tol * (low[0] + high[0]), *args, **kwargs)

        monkeypatch.setattr(integrals, "_assemble", inflated)
        with pytest.raises(AccuracyError, match=rf"for 'CDD4' repeated {m} times") as info:
            chi_repeated(p, m, r18, bang_bang(), cfg)
        assert info.value.error_bound > rel_tol * info.value.estimate
        inflated_error = unchecked.quad_error + 10 * rel_tol * unchecked.chi_total
        assert (info.value.estimate, info.value.error_bound) == (unchecked.chi_total, inflated_error)

    @pytest.mark.parametrize("tau", [4e-6, 6e-6])
    @pytest.mark.parametrize("shape", [bang_bang(), dcg3(1e-8)], ids=["bb", "dcg"])
    def test_comb_splits_at_a_cutoff_inside_a_cell(self, gaas, tau, shape):
        # pi/T_p < omega_c: the cutoff lies inside resonance cell 1, whose part
        # below it is low, as on the direct walk
        p = cdd(4, tau)
        m0 = DEFAULT_CONFIG.comb_crossover
        direct = integrals._chi_direct(p, m0, gaas, shape, DEFAULT_CONFIG)
        cfg = replace(DEFAULT_CONFIG, comb_crossover=m0 - 1, validate_crossover=False)
        comb = chi_repeated(p, m0, gaas, shape, cfg)
        assert comb.comb_path
        assert abs(comb.chi_low - direct.chi_low) <= 1e-12 * direct.chi_total
        assert comb.chi_high == comb.chi_total - comb.chi_low

    def test_plateau_level_splits_at_a_cutoff_inside_a_cell(self, gaas):
        # its low part is the same walk on the band cut at the cutoff: chi_asymptotic
        # (on gaas' gaussian rolloff this pattern has no plateau level)
        r18 = replace(gaas, rolloff=PowerLaw(18.0))
        p = cdd(4, 4e-6)
        assert math.pi / p.duration < r18.omega_c
        level = chi_plateau_limit(p, r18)
        assert level.chi_low == chi_asymptotic(p, r18).chi_total
        assert level.chi_high == level.chi_total - level.chi_low

    def test_large_m_saturates_at_plateau_limit(self, gaas):
        base = cdd(4, 1e-6)
        plateau = chi_plateau_limit(base, gaas, bang_bang()).chi_total
        at_62500 = chi_repeated(base, 62500, gaas, bang_bang()).chi_total
        assert at_62500 == pytest.approx(plateau, rel=1e-3, abs=0.0)

    @pytest.mark.parametrize("m", [1000, 2000])
    def test_long_walsh_block_takes_the_comb_walk(self, gaas, m):
        # a direct walk of a 1.024 ms block resolves every node 2 pi/(m T_p) and
        # runs out of panels at m = 1000; past the crossover the comb walk takes
        # it at any m, and the crossover check's direct walk at m0 fits the budget
        b = chi_repeated(walsh(555, 1024e-6, 1024), m, gaas)
        assert b.comb_path
        assert b.quad_error <= DEFAULT_CONFIG.rel_tol * b.chi_total
        assert b.comb_agreement <= 1e-9


class TestCrossoverReuse:
    """One memo per problem keeps the crossover check at m0 = comb_crossover:
    its direct budget, which chi_repeated at m0 returns, and its agreement,
    which the comb path reports."""

    M0 = DEFAULT_CONFIG.comb_crossover

    @staticmethod
    def _count_direct(monkeypatch):
        calls = []
        direct = integrals._chi_direct

        def counting(*args):
            calls.append(args[1])
            return direct(*args)

        monkeypatch.setattr(integrals, "_chi_direct", counting)
        return calls

    def test_direct_m0_then_comb_integrates_direct_once(self, gaas, monkeypatch):
        calls = self._count_direct(monkeypatch)
        chi_repeated(cdd(4, 1e-6), self.M0, gaas)
        comb = chi_repeated(cdd(4, 1e-6), 62_500, gaas)
        assert comb.comb_path and comb.comb_agreement is not None
        assert calls == [self.M0]

    def test_reused_check_gives_the_cold_budget(self, gaas):
        p = cdd(4, 1e-6)
        chi_repeated(p, self.M0, gaas)
        reused = chi_repeated(p, 62_500, gaas)
        integrals._crossover_agreement.cache_clear()
        cold = chi_repeated(p, 62_500, gaas)
        assert reused.comb_agreement == cold.comb_agreement
        assert dataclasses.astuple(reused) == dataclasses.astuple(cold)

    def test_second_m0_call_integrates_nothing(self, gaas, monkeypatch):
        p = cdd(4, 1e-6)
        first = chi_repeated(p, self.M0, gaas)
        calls = self._count_direct(monkeypatch)
        again = chi_repeated(p, self.M0, gaas)
        assert calls == []
        assert again == first == integrals._chi_direct(p, self.M0, gaas, bang_bang(), DEFAULT_CONFIG)

    def test_one_cache_clear_makes_the_m0_call_cold(self, gaas, monkeypatch):
        p = cdd(4, 1e-6)
        chi_repeated(p, self.M0, gaas)
        integrals._crossover_agreement.cache_clear()
        calls = self._count_direct(monkeypatch)
        chi_repeated(p, self.M0, gaas)
        assert calls == [self.M0]

    def test_without_validation_nothing_is_stored(self, gaas):
        cfg = replace(DEFAULT_CONFIG, validate_crossover=False)
        chi_repeated(cdd(4, 1e-6), self.M0, gaas, bang_bang(), cfg)
        assert integrals._crossover_agreement.cache_info().currsize == 0

    def test_crossover_check_runs_one_comb_walk(self, gaas, monkeypatch):
        # the check reads only chi_total: no cut-band walk for chi_low, although
        # the cutoff lies inside resonance cell 1 of this 64 us base
        p = cdd(4, 4e-6)
        assert math.pi / p.duration < gaas.omega_c
        walks = []
        comb_walk = integrals._comb_walk

        def counted(*args):
            walks.append(args[1])
            return comb_walk(*args)

        monkeypatch.setattr(integrals, "_comb_walk", counted)
        chi_repeated(p, self.M0, gaas)
        assert walks == [self.M0]

    def test_memo_keeps_as_many_problems_as_the_agreement_cache(self):
        # the agreement cache is the one memo: no second cache holds the direct budget
        assert integrals._crossover_agreement.cache_parameters() == {"maxsize": 64, "typed": False}
        assert not hasattr(integrals, "_direct_at_crossover")

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "reused"])
    def test_disagreement_still_raises(self, gaas, monkeypatch, warm):
        comb_walk = integrals._comb_walk

        def off_by_a_fifth(*args):
            walk, growth = comb_walk(*args)
            walk.rows = [1.2 * rows for rows in walk.rows]
            return walk, growth

        p = cdd(4, 1e-6)
        direct = integrals._chi_direct(p, self.M0, gaas, bang_bang(), DEFAULT_CONFIG).chi_total
        calls = self._count_direct(monkeypatch)
        monkeypatch.setattr(integrals, "_comb_walk", off_by_a_fifth)
        disagree = rf"disagree by 2\d\.\d% at the crossover m={self.M0} "
        if warm:  # the call at m0 runs the check; its failure is not memoised
            with pytest.raises(ConsistencyError, match=disagree):
                chi_repeated(p, self.M0, gaas)
        with pytest.raises(ConsistencyError, match=disagree) as info:
            chi_repeated(p, 62_500, gaas)
        assert calls == [self.M0] * (2 if warm else 1)
        # the patched walk's chi, which the comb path would report at m0
        shifted = integrals._chi_comb(p, self.M0, gaas, bang_bang(), DEFAULT_CONFIG).chi_total
        assert info.value.estimate == shifted
        assert info.value.error_bound == abs(shifted - direct)


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


def _delayed(p, m, delta_t):
    """p repeated m times as one explicit pattern, its duration extended by delta_t."""
    q = repeat_pattern(p, m)
    return TimingPattern(q.pulse_times, q.duration + delta_t, "explicit")


def _meets(got, ref, rel_tol=DEFAULT_CONFIG.rel_tol):
    """|chi - ref| <= max(quad_error, rel_tol * chi), plus the reference's own quad_error."""
    gap = abs(got.chi_total - ref.chi_total)
    return gap <= max(got.quad_error, rel_tol * got.chi_total) + ref.quad_error


class TestCutoffBreakpoint:
    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
    def test_near_inner_edge_moves_onto_the_cutoff(self, side):
        x = 2.0
        edges = np.array([0.5, 1.0, x * (1.0 + side * 4e-13), 3.0, 4.0])
        out = integrals._with_breakpoint(edges, x)
        assert x in out
        assert np.sum(np.abs(out - x) <= 1e-12 * x) == 1
        assert len(out) == len(edges) and np.all(np.diff(out) > 0)
        assert edges[2] != x  # the caller's edges are left alone

    def test_cutoff_between_edges_is_inserted(self):
        out = integrals._with_breakpoint(np.array([1.0, 3.0]), 2.0)
        assert out.tolist() == [1.0, 2.0, 3.0]


_CURVE_BASES = {"cdd4": cdd(4, 1e-6), "echo": echo(2e-6), "udd5": udd(5, 16e-6)}
_CURVE_SHAPES = {"bb": bang_bang(), "primitive_1ns": primitive(1e-9), "dcg_10ns": dcg3(1e-8)}


class TestJitterCurve:
    @given(
        base=st.sampled_from(sorted(_CURVE_BASES)),
        shape=st.sampled_from(sorted(_CURVE_SHAPES)),
        m=st.integers(1, 32),
        delta_t=st.floats(0.0, 1e-9),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_explicit_delayed_pattern(self, gaas, base, shape, m, delta_t):
        # the explicit pattern goes through no kernel and no delay rows
        p, shape = _CURVE_BASES[base], _CURVE_SHAPES[shape]
        got = jitter_curve(p, m, gaas, shape)(delta_t)
        assert _meets(got, chi(_delayed(p, m, delta_t), gaas, shape))

    def test_long_delay_splits_only_its_panels(self, gaas):
        # 8 T_p after one 128 us CDD4 block: e^(i omega delta) turns 8 times
        # across each resonance cell, which the comb walk's panels resolve
        p, delta_t = cdd(4, 8e-6), 8 * 128e-6
        got = jitter_curve(p, 1, gaas)(delta_t)
        assert _meets(got, chi(_delayed(p, 1, delta_t), gaas))

    def test_delay_that_cancels_the_error_walks_past_the_stop(self, gaas):
        # pulses at 0.2 T and 0.9 T leave a net area of -0.4 T per copy, which
        # a delay of 0.4 m T all but cancels: chi falls 1e6-fold, and the walk
        # for this delay stops on its own tail check under the power-law tail
        p = TimingPattern((0.2e-6, 0.9e-6), 1e-6, "y")
        spec = replace(gaas, rolloff=PowerLaw(2.0))
        m, delta_t = 10, 0.3999 * 10e-6
        ref = chi(_delayed(p, m, delta_t), spec)
        curve = jitter_curve(p, m, spec)
        got = curve(delta_t)
        assert got.chi_total < 1e-5 * curve(0.0).chi_total
        assert _meets(got, ref)

    def test_quad_error_covers_the_rounding_of_a_cancelling_delay(self, gaas):
        # one pulse at 0.6 T leaves a net area of 0.2 T, which a delay of
        # 0.2 T cancels: chi falls 1e8-fold, and the terms of |G X - Y|^2,
        # each of the size of the zero-delay chi, cancel to the last 8 digits
        p, delta_t = TimingPattern((0.6e-6,), 1e-6, "x"), 0.2e-6
        got = jitter_curve(p, 1, gaas)(delta_t)
        ref = chi(_delayed(p, 1, delta_t), gaas)
        assert abs(got.chi_total - ref.chi_total) <= got.quad_error + ref.quad_error

    @pytest.mark.parametrize("delta_t", [-1e-12, math.nan, math.inf])
    def test_bad_delay_is_named(self, gaas, delta_t):
        curve = jitter_curve(echo(2e-6), 2, gaas)
        with pytest.raises(DomainError, match="delta_t"):
            curve(delta_t)


class TestConfigAndFailure:
    @pytest.mark.parametrize(
        "t_osc, ff_bound, name",
        [(math.nan, 100.0, "t_osc"), (-1e-6, 100.0, "t_osc"), (0.0, 100.0, "t_osc"),
         (1e-6, math.nan, "ff_bound"), (1e-6, -1.0, "ff_bound"), (1e-6, math.inf, "ff_bound")],
    )
    def test_integrate_rows_checks_its_scales_first(self, gaas, t_osc, ff_bound, name):
        def rows(w):
            raise AssertionError("rows evaluated before the arguments were checked")

        with pytest.raises(DomainError, match=name):
            integrals.integrate_rows(rows, gaas, t_osc, ff_bound)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(rel_tol=2.0)
        with pytest.raises(DomainError):
            QuadratureConfig(max_panels=8)
        with pytest.raises(DomainError):
            QuadratureConfig(comb_crossover=4)

    @given(
        st.sampled_from(["rel_tol", "max_panels", "comb_crossover"]),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    @settings(max_examples=20, deadline=None)
    def test_non_finite_config_field_is_named(self, name, value):
        with pytest.raises(DomainError, match=name):
            QuadratureConfig(**{name: value})

    @pytest.mark.parametrize("name", ["max_panels", "comb_crossover"])
    def test_fractional_count_field_is_named(self, name):
        with pytest.raises(DomainError, match=name):
            QuadratureConfig(**{name: 1000.5})

    @pytest.mark.parametrize(
        "direct",
        [
            lambda p, spec, cfg: chi(p, spec, bang_bang(), cfg),
            lambda p, spec, cfg: chi_repeated(p, 2, spec, bang_bang(), cfg),
            lambda p, spec, cfg: chi_with_jitter(p, 2, 1e-7, spec, bang_bang(), cfg),
        ],
        ids=["chi", "chi_repeated", "chi_with_jitter"],
    )
    def test_exhausted_panel_budget_reports_estimate(self, gaas, direct):
        # 100 panels: the comb walk of chi_with_jitter spends 69 on its first region
        cfg = replace(DEFAULT_CONFIG, max_panels=100, rel_tol=1e-12)
        with pytest.raises(AccuracyError, match="100 panels exhausted for 'CDD4'") as err:
            direct(cdd(4, 1e-6), gaas, cfg)
        assert err.value.estimate > 0.0
        # the bound holds the walked band, the region being refined and the
        # tail above it: it reaches the value the default budget returns
        full = direct(cdd(4, 1e-6), gaas, replace(cfg, max_panels=DEFAULT_CONFIG.max_panels))
        assert abs(err.value.estimate - full.chi_total) <= err.value.error_bound + full.quad_error

    def test_block_beyond_budget_fails_before_it_is_built(self, gaas):
        # 160 s blocks repeated 100 times, the crossover check's direct walk: its
        # first walk block alone holds about 8e8 half-lobe edges, 6 GB of numpy
        # arrays had it been built
        tracemalloc.start()
        try:
            with pytest.raises(AccuracyError, match="exhausted for 'CDD4' repeated 100 times"):
                chi_repeated(cdd(4, 10.0), 100, gaas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

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

    def test_cell_walk_stops_on_the_panel_budget(self, gaas):
        # region (a) of CDD4 on gaas spends 69 panels and its one resonance cell 40 more
        cfg = replace(DEFAULT_CONFIG, max_panels=100)
        with pytest.raises(AccuracyError, match="100 panels exhausted for 'CDD4'") as err:
            chi_plateau_limit(cdd(4, 1e-6), gaas, bang_bang(), cfg)
        assert err.value.estimate > 0.0  # region (a) was added: the cell loop ran out
        assert err.value.error_bound > 0.0

    def test_refine_round_limit_is_named(self, gaas, monkeypatch):
        monkeypatch.setattr(integrals, "_MAX_REFINE_ROUNDS", 1)
        cfg = replace(DEFAULT_CONFIG, rel_tol=1e-12)
        with pytest.raises(AccuracyError, match="did not converge within 1 rounds for 'CDD4'") as err:
            chi(cdd(4, 1e-6), gaas, bang_bang(), cfg)
        assert "panels" not in str(err.value)
        # the bound holds the region being refined and the tail above it only
        assert abs(err.value.estimate - ORACLE_CHI_CDD4_1US) <= err.value.error_bound
        assert err.value.error_bound < 1e-11 * err.value.estimate

    def test_tighter_tolerance_is_consistent(self, gaas):
        loose = chi(cdd(3, 1e-6), gaas, bang_bang(), replace(DEFAULT_CONFIG, rel_tol=1e-4))
        tight = chi(cdd(3, 1e-6), gaas, bang_bang(), replace(DEFAULT_CONFIG, rel_tol=1e-9))
        assert loose.chi_total == pytest.approx(tight.chi_total, rel=1e-4, abs=0.0)


class TestCutoffAtTheBandStart:
    """A hard cutoff at or below omega_min leaves no noise in the band: every
    chi flavour, on both repeat paths, is exactly 0 with no error."""

    CALLS = {
        "chi": lambda p, spec: chi(p, spec),
        "repeated_10": lambda p, spec: chi_repeated(p, 10, spec),
        "repeated_5000": lambda p, spec: chi_repeated(p, 5000, spec),
        "plateau_limit": lambda p, spec: chi_plateau_limit(p, spec),
        "with_jitter": lambda p, spec: chi_with_jitter(p, 1000, 1e-7, spec),
    }

    @pytest.mark.parametrize("factor", [1.0, 0.5], ids=["at", "below"])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_chi_is_zero(self, gaas, name, factor):
        spec = replace(gaas, rolloff=HARD, omega_c=factor * gaas.omega_min)
        budget = self.CALLS[name](cdd(4, 1e-6), spec)
        assert (budget.chi_total, budget.quad_error) == (0.0, 0.0)


class TestLinearInStrength:
    """chi is linear in the strength g, bit for bit for power-of-two factors.

    Every tolerance and tail test compares quantities that all carry g, so
    a factor 2^k takes each walk through the same panels and scales every
    additive budget field exactly.
    """

    ROUTES = {
        "direct": lambda p, spec, shape, cfg: chi(p, spec, shape, cfg),
        "kernel": lambda p, spec, shape, cfg: chi_repeated(p, 100, spec, shape, cfg),
        "comb": lambda p, spec, shape, cfg: chi_repeated(p, 10**6, spec, shape, cfg),
        "plateau_limit": chi_plateau_limit,
    }
    ADDITIVE = (
        "chi_total", "chi_bb", "chi_pul", "chi_low", "chi_high", "quad_error", "growth_per_repeat"
    )

    @pytest.mark.parametrize("rolloff", ["gaussian", "hard", "power_law_18"])
    @pytest.mark.parametrize("shape", [bang_bang, lambda: dcg3(1e-8)], ids=["bb", "dcg_10ns"])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_power_of_two_factors_scale_exactly(self, gaas, route, shape, rolloff):
        rolloffs = {"gaussian": gaas.rolloff, "hard": HARD, "power_law_18": PowerLaw(18.0)}
        spec = replace(gaas, rolloff=rolloffs[rolloff])
        cfg = replace(DEFAULT_CONFIG, validate_crossover=False)
        run = self.ROUTES[route]
        p, pulse = cdd(4, 1e-6), shape()
        base = run(p, spec, pulse, cfg)
        assert base.chi_total > 0.0
        for factor in (2.0**-20, 0.125, 2.0, 1024.0):
            scaled = run(p, replace(spec, g=spec.g * factor), pulse, cfg)
            assert (scaled.m, scaled.comb_path) == (base.m, base.comb_path)
            for name in self.ADDITIVE:
                value = getattr(base, name)
                assert getattr(scaled, name) == (None if value is None else factor * value), name


class TestFilterBound:
    """The tail certificate's 4 (n+1)^2 bounds every bang-bang filter.

    It does not bound finite-pulse filters (10 ns DCG pulses on UDD5 exceed
    it 6.8 times); only the bang-bang statement is held here.
    """

    @staticmethod
    def _assert_bounded(p):
        w = np.geomspace(1e-3, 4.0 * math.pi * (p.n_pulses + 2), 20001) / p.duration
        # rounding of a maximal |omega*y| may land an ulp above the bound
        assert filter_fn(p, w).max() <= integrals._filter_bound(p) * (1.0 + 1e-12)

    @given(st.integers(0, 10).flatmap(lambda q: st.tuples(st.integers(0, 2**q - 1), st.just(2**q))))
    @settings(max_examples=40, deadline=None)
    def test_walsh(self, kn):
        k, n = kn
        self._assert_bounded(walsh(k, n * 1e-6, n))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_udd(self, n):
        self._assert_bounded(udd(n, 16e-6))

    @pytest.mark.parametrize("frac", (0.1, 0.3, 0.55, 0.8, 0.95))
    def test_truncated_udd(self, frac):
        p = udd(5, 16e-6)
        self._assert_bounded(truncate(p, frac * p.duration))
