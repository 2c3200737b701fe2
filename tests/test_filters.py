import math
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ddmemory import (
    DomainError,
    SuppressionFitError,
    TimingPattern,
    carr_purcell,
    cdd,
    chi,
    combine,
    concat,
    dirichlet_factor,
    echo,
    filter_fn,
    filters,
    free_evolution,
    omega_y_tilde,
    passband_max,
    repeat_pattern,
    suppression_order,
    truncate,
    udd,
    walsh,
    y_tilde,
)
from ddmemory.filters import FIT_RESIDUAL_LIMIT, N_MOMENTS, THETA_SWITCH, dirichlet_ratio
from ddmemory.sequences import _GRID_RTOL

RNG = np.random.default_rng(20240817)


def _random_pattern(rng, duration=1e-5, max_pulses=9):
    n = int(rng.integers(1, max_pulses + 1))
    times = np.sort(rng.uniform(0.05 * duration, 0.95 * duration, size=n))
    from ddmemory import TimingPattern

    return TimingPattern(tuple(float(t) for t in times), duration, f"rand{n}")


class TestClosedForms:
    def test_free_filter_matches_closed_form(self):
        t = 3e-6
        w = np.geomspace(1e2, 1e8, 300)
        expected = 4.0 * np.sin(w * t / 2.0) ** 2
        assert filter_fn(free_evolution(t), w) == pytest.approx(expected, rel=1e-10)

    def test_echo_filter_matches_closed_form(self):
        t = 2e-6
        w = np.geomspace(1e2, 1e8, 300)
        expected = 16.0 * np.sin(w * t / 4.0) ** 4
        assert filter_fn(echo(t), w) == pytest.approx(expected, rel=1e-9, abs=1e-18)

    def test_omega_y_vanishes_at_zero_frequency(self):
        for p in (echo(1e-6), cdd(3, 1e-6), udd(4, 1e-6)):
            val = omega_y_tilde(p, 1e-12 / p.duration)
            assert abs(val) < 1e-9

    def test_y_tilde_is_omega_y_over_omega(self):
        p = cdd(2, 1e-6)
        w = np.geomspace(1e3, 1e7, 50)
        assert y_tilde(p, w) == pytest.approx(omega_y_tilde(p, w) / w, rel=1e-12)

    @pytest.mark.parametrize("p, limit", [(free_evolution(1e-6), -1e-6j), (cdd(4, 1e-6), 0j)],
                             ids=["free", "cdd4"])
    def test_y_tilde_at_zero_frequency_is_its_limit(self, p, limit):
        # the omega -> 0 limit i T_p mu_1, returned exactly at omega = 0
        assert y_tilde(p, 0.0) == limit
        got = y_tilde(p, np.array([0.0, 1e3]))
        assert got[0] == limit and got[1] == y_tilde(p, 1e3)


class TestEnvelopeBound:
    @given(st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_filter_below_square_count_envelope(self, seed):
        rng = np.random.default_rng(seed)
        p = _random_pattern(rng)
        w = np.geomspace(1e-2 / p.duration, 1e3 / p.duration, 400)
        bound = 4.0 * (p.n_pulses + 1) ** 2
        assert np.all(filter_fn(p, w) <= bound * (1.0 + 1e-12))


def _reversed(p):
    """The pattern run backwards: pulse times T_p - t_j, grid boundaries N - b_j."""
    grid = None
    if p.grid is not None:
        n_slots, bounds = p.grid
        grid = (n_slots, tuple(n_slots - b for b in reversed(bounds)))
    times = tuple(p.duration - t for t in reversed(p.pulse_times))
    return TimingPattern(times, p.duration, f"{p.label}~", grid=grid)


class TestTimeReversal:
    """F is invariant when the pattern runs backwards.

    y(T_p - t) transforms to exp(i omega T_p) times the conjugate of y(omega),
    so |omega y|^2 is unchanged, on the series branch (omega T_p <= 2) and
    on the phasor sum above it.
    """

    @staticmethod
    def _assert_invariant(p):
        q = _reversed(p)
        lo = np.geomspace(1e-3, THETA_SWITCH, 60) / p.duration
        np.testing.assert_allclose(filter_fn(q, lo), filter_fn(p, lo), rtol=1e-10, atol=0.0)
        # the phasor sum rounds on the scale of its bound 4 (n+1)^2, not of F
        hi = np.geomspace(THETA_SWITCH * (1 + 1e-9), 8 * math.pi * (p.n_pulses + 2), 300)
        hi /= p.duration
        bound = 4.0 * (p.n_pulses + 1) ** 2
        np.testing.assert_allclose(filter_fn(q, hi), filter_fn(p, hi), rtol=0.0, atol=1e-12 * bound)

    @given(
        st.integers(2, 256).flatmap(
            lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n - 1), max_size=40))
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_grid(self, grid):
        n_slots, bounds = grid[0], tuple(sorted(grid[1]))
        times = tuple(b * 1e-5 / n_slots for b in bounds)
        self._assert_invariant(TimingPattern(times, 1e-5, "grid", grid=(n_slots, bounds)))

    @given(st.integers(1, 12), st.floats(0.03, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_truncated_udd(self, n, frac):
        p = udd(n, 16e-6)
        self._assert_invariant(truncate(p, frac * p.duration))


class TestCombine:
    def test_combine_matches_concatenated_transform(self):
        w = np.geomspace(1e3, 5e7, 200)
        for _ in range(100):
            p1 = _random_pattern(RNG, duration=float(RNG.uniform(0.5e-5, 2e-5)))
            p2 = _random_pattern(RNG, duration=float(RNG.uniform(0.5e-5, 2e-5)))
            joined = concat(p1, p2)
            got = combine(y_tilde(p1, w), y_tilde(p2, w), p1.duration, w)
            want = y_tilde(joined, w)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-16)

    @pytest.mark.parametrize("t_p1", [math.nan, math.inf, 0.0, -1.0])
    def test_first_duration_must_be_finite_and_positive(self, t_p1):
        with pytest.raises(DomainError, match="t_p1"):
            combine(1.0, 1.0, t_p1, 1.0)


class TestOmegaArguments:
    @pytest.mark.parametrize(
        "call",
        [
            lambda w: omega_y_tilde(udd(5, 1e-5), w),
            lambda w: omega_y_tilde(cdd(4, 1e-6), w),
            lambda w: y_tilde(cdd(4, 1e-6), w),
            lambda w: filter_fn(cdd(4, 1e-6), w),
            lambda w: combine(1.0, 1.0, 1e-6, w),
            lambda w: dirichlet_factor(3, 1e-6, w),
        ],
        ids=["omega_y_tilde_series", "omega_y_tilde_product", "y_tilde", "filter_fn", "combine",
             "dirichlet_factor"],
    )
    @pytest.mark.parametrize("omega", [-1.0, np.array([1e5, -1e5]), math.nan, math.inf])
    def test_negative_or_nan_omega_rejected(self, call, omega):
        with pytest.raises(DomainError, match="omega"):
            call(omega)

    @pytest.mark.parametrize(
        "call, kind",
        [
            (lambda w: omega_y_tilde(cdd(4, 1e-6), w), complex),
            (lambda w: omega_y_tilde(udd(5, 1e-5), w), complex),
            (lambda w: y_tilde(cdd(4, 1e-6), w), complex),
            (lambda w: filter_fn(cdd(4, 1e-6), w), float),
            (lambda w: dirichlet_ratio(3, w), float),
        ],
        ids=["omega_y_tilde_product", "omega_y_tilde_series", "y_tilde", "filter_fn",
             "dirichlet_ratio"],
    )
    def test_zero_d_omega_gives_python_scalar(self, call, kind):
        got = call(np.array(1e5))
        assert type(got) is kind
        assert got == call(1e5)

    @given(st.sampled_from(["cdd4", "udd5"]), st.floats(1e2, 1e10))
    @example("cdd4", 675445761.347726)
    @settings(max_examples=200, deadline=None)
    def test_number_omega_equals_array_entry_bit_for_bit(self, name, w):
        p = {"cdd4": cdd(4, 1e-6), "udd5": udd(5, 16e-6)}[name]
        got = filter_fn(p, w)
        assert type(got) is float
        assert got.hex() == filter_fn(p, [w])[0].hex()


class TestDirichlet:
    @pytest.mark.parametrize("m", [0, 2.5, math.nan])
    def test_non_count_repeat_rejected(self, m):
        with pytest.raises(DomainError, match="repeat count"):
            dirichlet_factor(m, 1e-6, 1e5)

    @pytest.mark.parametrize("t_p", [math.nan, math.inf, 0.0, -1e-6])
    def test_period_must_be_finite_and_positive(self, t_p):
        with pytest.raises(DomainError, match="t_p"):
            dirichlet_factor(10, t_p, np.geomspace(1e3, 1e7, 5))

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    @pytest.mark.parametrize("maker", [echo, carr_purcell, lambda tau: cdd(3, tau)])
    def test_repeat_transform_is_dirichlet_times_base(self, m, maker):
        base = maker(1e-6)
        rep = repeat_pattern(base, m)
        w = np.geomspace(1e2, 4e7, 500)
        lhs = np.abs(omega_y_tilde(rep, w)) ** 2
        rhs = dirichlet_factor(m, base.duration, w) * np.abs(omega_y_tilde(base, w)) ** 2
        np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)

    def test_dirichlet_peaks_at_m_squared(self):
        t_p = 1e-6
        for m in (2, 5, 9):
            at_node = dirichlet_factor(m, t_p, 2.0 * math.pi / t_p)
            assert at_node == pytest.approx(m * m, rel=1e-6)

    @pytest.mark.parametrize("m", [2, 3, 7, 1000])
    def test_ratio_is_signed_sine_quotient(self, m):
        k = np.arange(7)
        # off the nodes: theta = k*pi + delta with delta well inside (0, pi)
        theta = (k[:, None] * math.pi + np.linspace(0.01, math.pi - 0.01, 97)[None, :]).ravel()
        np.testing.assert_allclose(
            dirichlet_ratio(m, theta), np.sin(m * theta) / np.sin(theta), rtol=1e-9, atol=1e-9 * m
        )
        at_nodes = dirichlet_ratio(m, k * math.pi)
        np.testing.assert_allclose(at_nodes, (-1.0) ** (k * (m - 1)) * m, rtol=1e-12)

    def test_dirichlet_continuous_through_nodes(self):
        t_p, m = 1e-6, 7
        node = 2.0 * math.pi / t_p
        eps = node * 1e-9
        left = dirichlet_factor(m, t_p, node - eps)
        right = dirichlet_factor(m, t_p, node + eps)
        center = dirichlet_factor(m, t_p, node)
        assert left == pytest.approx(center, rel=1e-6)
        assert right == pytest.approx(center, rel=1e-6)


class TestSuppressionOrder:
    # the fit reads |omega*y| ~ (omega T_p)^(n+1), so it does not underflow
    # where F ~ (omega T_p)^(2n+2) would, from n = 28 on
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12, 18, 27, 28, 35])
    def test_udd_reaches_its_order(self, n):
        fit = suppression_order(udd(n, 1e-6))
        assert fit.alpha == n
        assert fit.residual < 0.05

    def test_udd36_is_past_the_moment_series(self):
        # all N_MOMENTS Taylor coefficients of UDD36 vanish, so does omega*y below |omega T_p| = 2
        assert N_MOMENTS == 36
        with pytest.raises(SuppressionFitError, match="vanished"):
            suppression_order(udd(36, 1e-6))

    def test_order_is_read_off_the_times_not_the_constructor(self):
        u = udd(5, 1e-6)
        scaled = tuple(0.9 * t for t in u.pulse_times)
        fresh = TimingPattern(scaled, u.duration, "scaled")
        assert suppression_order(replace(u, pulse_times=scaled)) == suppression_order(fresh)

    def test_free_is_zeroth_order(self):
        fit = suppression_order(free_evolution(1e-6))
        assert fit.alpha == 0
        assert abs(fit.amplitude) == pytest.approx(1e-6, rel=0.02)

    @pytest.mark.parametrize("level,alpha", [(1, 1), (2, 2), (3, 3), (4, 4)])
    def test_cdd_level_sets_order(self, level, alpha):
        assert suppression_order(cdd(level, 1e-6)).alpha == alpha

    def test_cdd4_amplitude_anchor(self):
        t_p = 16e-6
        fit = suppression_order(cdd(4, 1e-6))
        assert abs(fit.amplitude) == pytest.approx(t_p**5 / 2**14, rel=0.01)

    def test_fit_residual_limit_enforced(self):
        # an echo 1.25e-4 T off centre: F turns from omega^2 to omega^4 inside the fit window
        off_centre = TimingPattern((0.5e-6 + 1.25e-10,), 1e-6, "x")
        with pytest.raises(SuppressionFitError) as info:
            suppression_order(off_centre)
        assert info.value.residual > FIT_RESIDUAL_LIMIT


def _udd_moments_reference(n):
    """mu_k of UDD_n summed vertex by vertex at 400 digits, rounded to float."""
    with mp.workdps(400):
        taus = [mp.sin(mp.pi * j / (2 * n + 2)) ** 2 for j in range(1, n + 1)] + [mp.mpf(1)]
        coeffs = [2 * (-1) ** l for l in range(1, n + 1)] + [(-1) ** (n + 1)]
        return [
            float(mp.fsum(c * t**k for c, t in zip(coeffs, taus)) / mp.factorial(k))
            for k in range(1, N_MOMENTS + 1)
        ]


class TestMoments:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_udd_closed_form_is_the_correctly_rounded_sum(self, n):
        mu = filters._udd_moments(n)
        assert all(m == 0.0 for m in mu[:n])
        assert list(mu) == _udd_moments_reference(n)

    def test_hand_built_udd_times_take_the_udd_route(self, gaas):
        u = udd(5, 16e-6)
        hand = TimingPattern(u.pulse_times, u.duration, "hand")
        assert chi(hand, gaas).chi_total == chi(u, gaas).chi_total
        assert filters._moments(hand.pulse_times, hand.duration, None) == filters._udd_moments(5)

    @given(
        st.floats(1e-9, 1e-2),
        st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=12, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_gridless_moments_are_the_correctly_rounded_rationals(self, duration, fracs):
        times = tuple(sorted({f * duration for f in fracs}))
        n = len(times)
        tol = _GRID_RTOL * duration
        assume(not all(abs(t - u) <= tol for t, u in zip(times, udd(n, duration).pulse_times)))
        taus = [Fraction(t) / Fraction(duration) for t in times] + [Fraction(1)]
        coeffs = [2 * (-1) ** l for l in range(1, n + 1)] + [(-1) ** (n + 1)]
        want = tuple(
            float(sum(c * tau**k for c, tau in zip(coeffs, taus)) / math.factorial(k))
            for k in range(1, N_MOMENTS + 1)
        )
        assert filters._moments(times, duration, None) == want

    def test_cache_tells_a_grid_from_its_absence(self):
        # equal patterns that differ only in the grid take different routes,
        # whichever of them is evaluated first
        g = repeat_pattern(cdd(3, 1e-6), 3)
        f = TimingPattern(g.pulse_times, g.duration, g.label)
        assert f == g and g.grid is not None
        filters._moments.cache_clear()
        cold = omega_y_tilde(f, 1e3)
        filters._moments.cache_clear()
        omega_y_tilde(g, 1e3)
        assert omega_y_tilde(f, 1e3) == cold


class TestPassband:
    def test_free_peak_is_four(self):
        assert passband_max(free_evolution(1e-6)) == pytest.approx(4.0, rel=1e-3)

    def test_echo_peak_is_sixteen(self):
        assert passband_max(echo(1e-6)) == pytest.approx(16.0, rel=1e-3)

    def test_cdd4_peak_near_square_count_envelope(self):
        # 10 pulses: envelope 4*(n+1)^2 = 484; the actual peak sits at 255
        peak = passband_max(cdd(4, 1e-6))
        assert peak == pytest.approx(255.011, rel=1e-3)
        assert peak <= 4.0 * 11**2

    def test_walsh_peak_respects_envelope(self):
        p = walsh(11, 16e-6, 16)
        assert passband_max(p) <= 4.0 * (p.n_pulses + 1) ** 2 * (1 + 1e-9)
