import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmemory import (
    SuppressionFitError,
    carr_purcell,
    cdd,
    combine,
    concat,
    dirichlet_factor,
    echo,
    filter_fn,
    free_evolution,
    omega_y_tilde,
    passband_max,
    repeat_pattern,
    suppression_order,
    udd,
    walsh,
    y_tilde,
)
from ddmemory.filters import dirichlet_ratio

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


class TestEnvelopeBound:
    @given(st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_filter_below_square_count_envelope(self, seed):
        rng = np.random.default_rng(seed)
        p = _random_pattern(rng)
        w = np.geomspace(1e-2 / p.duration, 1e3 / p.duration, 400)
        bound = 4.0 * (p.n_pulses + 1) ** 2
        assert np.all(filter_fn(p, w) <= bound * (1.0 + 1e-12))


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


class TestDirichlet:
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
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_udd_reaches_its_order(self, n):
        fit = suppression_order(udd(n, 1e-6))
        assert fit.alpha == n
        assert fit.residual < 0.05

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
        with pytest.raises(SuppressionFitError):
            suppression_order(udd(3, 1e-6), fit_residual_limit=1e-18)


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
