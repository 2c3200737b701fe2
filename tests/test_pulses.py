import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ddmemory import (
    DomainError,
    PulseShape,
    TimingPattern,
    bang_bang,
    cdd,
    chi_plateau_limit,
    chi_repeated,
    dcg3,
    echo,
    filter_fn,
    free_evolution,
    jitter_tolerance,
    omega_y_tilde,
    primitive,
    pulse_order,
    total_ff,
    total_quadratures,
    truncate,
    udd,
    walsh,
)
from ddmemory import filters, integrals, pulses

RNG = np.random.default_rng(77)


def _random_pattern(rng, duration=1e-5, max_pulses=8):
    n = int(rng.integers(1, max_pulses + 1))
    # keep a healthy margin so finite widths fit inside the intervals
    slots = np.sort(rng.choice(np.arange(1, 20), size=n, replace=False))
    times = slots * duration / 20.0
    return TimingPattern(tuple(float(t) for t in times), duration, f"rand{n}")


class TestShapes:
    def test_kinds_and_footprints(self):
        assert bang_bang().footprint == 0.0
        assert primitive(1e-9).footprint == 1e-9
        assert dcg3(1e-9).footprint == 4e-9

    def test_rabi_frequency(self):
        assert primitive(1e-9).rabi_frequency == pytest.approx(math.pi / 1e-9)
        assert bang_bang().rabi_frequency == math.inf

    def test_validation(self):
        with pytest.raises(DomainError):
            PulseShape("bang_bang", 1e-9)
        with pytest.raises(DomainError):
            primitive(0.0)
        with pytest.raises(DomainError):
            PulseShape("square", 1e-9)


class TestBangBangReduction:
    def test_zero_width_limit_recovers_ideal_transform(self):
        # leftover pulse terms scale like n * omega * tau_pi
        w = np.geomspace(1e3, 1e7, 200)
        tau_pi = 1e-15
        for seed in range(50):
            rng = np.random.default_rng(seed)
            p = _random_pattern(rng)
            base = omega_y_tilde(p, w)
            slack = 4.0 * (p.n_pulses + 1) * w.max() * tau_pi
            rz, ry = total_quadratures(p, primitive(tau_pi), w)
            np.testing.assert_allclose(rz, base, rtol=0, atol=max(slack, 1e-10))
            np.testing.assert_allclose(ry, 0.0, rtol=0, atol=max(slack, 1e-10))

    def test_bang_bang_shape_is_exactly_ideal(self):
        p = udd(3, 1e-6)
        w = np.geomspace(1e3, 1e7, 100)
        rz, ry = total_quadratures(p, bang_bang(), w)
        np.testing.assert_array_equal(rz, omega_y_tilde(p, w))
        assert np.all(ry == 0.0)


class TestTotalFilter:
    def test_total_ff_is_quadrature_sum(self):
        p = cdd(3, 1e-6)
        shape = primitive(5e-9)
        w = np.geomspace(1e3, 1e7, 150)
        rz, ry = total_quadratures(p, shape, w)
        np.testing.assert_allclose(
            total_ff(p, shape, w), np.abs(rz) ** 2 + np.abs(ry) ** 2, rtol=1e-12
        )

    def test_total_ff_nonnegative_and_reduces_for_bb(self):
        p = echo(1e-6)
        w = np.geomspace(1e3, 1e8, 200)
        assert np.all(total_ff(p, primitive(1e-9), w) >= 0.0)
        np.testing.assert_array_equal(total_ff(p, bang_bang(), w), filter_fn(p, w))

    def test_scalar_omega_accepted(self):
        val = total_ff(echo(1e-6), primitive(1e-9), 1e5)
        assert isinstance(val, float) and val >= 0.0

    @pytest.mark.parametrize("shape", [bang_bang(), dcg3(1e-8)], ids=["bb", "dcg"])
    def test_zero_d_omega_gives_python_float(self, shape):
        got = total_ff(cdd(4, 1e-6), shape, np.array(1e5))
        assert type(got) is float
        assert got == total_ff(cdd(4, 1e-6), shape, 1e5)

    @given(
        st.sampled_from([cdd(4, 1e-6), udd(5, 16e-6)]),
        st.sampled_from([bang_bang(), primitive(1e-9), dcg3(1e-8)]),
        st.floats(1e2, 1e10),
    )
    @example(cdd(4, 1e-6), dcg3(1e-8), 13116029.564747807)
    @settings(max_examples=200, deadline=None)
    def test_number_omega_equals_array_entry_bit_for_bit(self, p, shape, w):
        got = total_ff(p, shape, w)
        assert type(got) is float
        assert got.hex() == total_ff(p, shape, [w])[0].hex()

    @pytest.mark.parametrize(
        "call",
        [
            lambda w: pulses.pulse_quadratures(dcg3(1e-8), w),
            lambda w: pulses.quadrature_components(cdd(4, 1e-6), bang_bang(), w),
            lambda w: pulses.quadrature_components(cdd(4, 1e-6), dcg3(1e-8), w),
            lambda w: total_quadratures(cdd(4, 1e-6), bang_bang(), w),
            lambda w: total_ff(cdd(4, 1e-6), bang_bang(), w),
            lambda w: total_ff(udd(3, 1e-5), primitive(1e-9), w),
        ],
        ids=["pulse_quadratures", "quadrature_components_bb", "quadrature_components_dcg",
             "total_quadratures_bb", "total_ff_bb", "total_ff_primitive"],
    )
    @pytest.mark.parametrize("omega", [-1.0, np.array([1e5, -1e5]), math.inf])
    def test_negative_omega_rejected(self, call, omega):
        with pytest.raises(DomainError, match="omega"):
            call(omega)


class TestFootprintValidation:
    def test_pulse_wider_than_interval_rejected(self):
        p = cdd(4, 1e-6)
        with pytest.raises(DomainError):
            total_ff(p, primitive(1.1e-6), 1e5)

    def test_dcg_footprint_counts_four_segments(self):
        p = cdd(4, 1e-6)
        with pytest.raises(DomainError):
            total_ff(p, dcg3(0.3e-6), 1e5)
        assert total_ff(p, dcg3(0.2e-6), 1e5) >= 0.0

    def test_pulse_overlapping_sequence_edge_rejected(self):
        p = TimingPattern((0.5e-9,), 1e-6, "early")
        with pytest.raises(DomainError):
            total_ff(p, primitive(2e-9), 1e5)


class TestPulseOrder:
    def test_primitive_is_first_order_with_known_amplitude(self):
        p = cdd(4, 1e-6)
        tau_pi = 1e-3 * p.duration
        fit = pulse_order(p, primitive(tau_pi))
        assert fit.alpha == 1
        expected = p.duration * tau_pi / math.pi
        assert abs(fit.amplitude) == pytest.approx(expected, rel=0.05)

    def test_dcg_gains_one_order(self):
        p = cdd(4, 1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = pulse_order(p, dcg3(1e-9))
        assert fit.alpha == 2

    def test_bang_bang_has_no_pulse_contribution(self):
        with pytest.raises(DomainError):
            pulse_order(cdd(2, 1e-6), bang_bang())

    @pytest.mark.parametrize(
        "base", [cdd(2, 1e-6), cdd(4, 1e-6), udd(4, 16e-6), udd(6, 16e-6)],
        ids=["cdd2", "cdd4", "udd4", "udd6"],
    )
    @pytest.mark.parametrize("shape", [primitive(1e-9), dcg3(1e-8)], ids=["primitive", "dcg3"])
    def test_closed_pair_is_the_fit_on_balanced_bases(self, base, shape):
        # the fit's own error is about 3e-9 relative
        fit = pulse_order(base, shape)
        assert abs(fit.amplitude_fit - fit.amplitude) <= 1e-7 * abs(fit.amplitude)
        assert fit.warning is None

    def test_pattern_without_pulses_is_refused(self):
        with pytest.raises(DomainError, match="'free' has no pulses"):
            pulse_order(free_evolution(1e-6), primitive(1e-9))

    def test_footprint_that_does_not_fit_is_refused(self):
        # a 4 ns DCG in a 1 ns half-interval: the filter functions refuse it, and so does the fit
        with pytest.raises(DomainError, match="footprint"):
            pulse_order(echo(2e-9), dcg3(1e-9))


# -- the pulse phasor u_p, read off omega*y ------------------------------------

EPS = np.finfo(float).eps
TAU = 1e-6


def _exact_grid_times(p):
    n_slots, bounds = p.grid
    return [mp.mpf(p.duration) * b / n_slots for b in bounds]


def _exact_udd_times(order, t_p):
    return [mp.mpf(t_p) * mp.sin(mp.pi * j / (2 * order + 2)) ** 2 for j in range(1, order + 1)]


@st.composite
def _patterns(draw):
    """(pattern, its exact pulse times at 40 digits, slot count N) for walsh, cdd, udd,
    truncated udd and random grid patterns, each with at least one pulse."""
    kind = draw(st.sampled_from(("walsh", "cdd", "udd", "truncated_udd", "grid")))
    with mp.workdps(40):
        if kind == "walsh":
            q = draw(st.integers(1, 10))
            n = 2**q
            p = walsh(draw(st.integers(1, n - 1)), n * TAU, n)
            return p, _exact_grid_times(p), n
        if kind == "cdd":
            p = cdd(draw(st.integers(1, 7)), TAU)
            return p, _exact_grid_times(p), p.grid[0]
        if kind == "grid":
            n = draw(st.integers(2, 64))
            bounds = tuple(sorted(draw(st.sets(st.integers(1, n - 1), min_size=1))))
            p = TimingPattern(tuple(b * TAU for b in bounds), n * TAU, "grid", grid=(n, bounds))
            return p, _exact_grid_times(p), n
        order = draw(st.integers(1, 24))
        full = udd(order, 16 * TAU)
        exact = _exact_udd_times(order, full.duration)
        if kind == "udd":
            return full, exact, order + 1
        p = truncate(full, draw(st.floats(0.05, 0.999)) * full.duration)
        assume(p.n_pulses > 0)
        return p, exact[: p.n_pulses], order + 1


def _exact_phasor(times, omega):
    with mp.workdps(40):
        return np.array([
            complex(mp.fsum((-1) ** l * mp.expj(mp.mpf(w) * t) for l, t in enumerate(times, 1)))
            for w in omega
        ])


@given(_patterns())
@settings(max_examples=40, deadline=None)
def test_pulse_phasor_matches_exact_sum(case):
    p, exact_times, n_slots = case
    theta = np.geomspace(1e-4, 1e3 * n_slots, 24)
    w = theta / p.duration
    exact = _exact_phasor(exact_times, w)
    got = pulses._pulse_phasor(p, w, filters.omega_y_tilde(p, w))
    # the rounding bound of the vertex sum itself: each of its n + 2 phases
    # is rounded by about eps * omega * t
    bound = 4.0 * EPS * (1.0 + theta) * (p.n_pulses + 2)
    assert np.all(np.abs(got - exact) <= bound)
    # at small omega*T_p the sum loses digits to cancellation; u_p read off
    # omega*y must lose none of its own.  Its two terms are O(1) for odd n
    # and O(omega*T_p) for even n, where |u_p| >= omega*T_p/N on N slots, so
    # its relative rounding stays near eps*N however small omega*T_p gets
    small = theta < 1e-2
    signs = (-1.0) ** np.arange(1, p.n_pulses + 1)
    summed = filters.phasor_sum(np.asarray(p.pulse_times), signs, w[small])
    rel_got = np.max(np.abs(got[small] - exact[small]) / np.abs(exact[small]))
    rel_sum = np.max(np.abs(summed - exact[small]) / np.abs(exact[small]))
    assert rel_got <= max(rel_sum, 2.0 * EPS)
    assert rel_got <= 2.0 * EPS * (n_slots + 2)


def test_finite_pulses_run_no_phasor_sum(monkeypatch, gaas):
    # every module that could call a phasor sum, under the name it imported it by
    calls = []
    original = filters.phasor_sum

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("ddmemory") and hasattr(module, "phasor_sum"):
            monkeypatch.setattr(module, "phasor_sum", counted)
    p = cdd(4, 1e-6)
    shape = dcg3(1e-8)
    chi_repeated(p, 1000, gaas, shape)
    chi_plateau_limit(p, gaas, shape)
    jitter_tolerance(p, 1000, gaas, shape)
    assert calls == []


def test_junction_rows_evaluate_the_pulses_once(monkeypatch, gaas):
    # an odd base with finite pulses: one rows call of the direct walk at m = 10, and one
    # of the comb walk, each evaluate the pulse quadratures once for omega*y, X and Y
    calls = []
    original = pulses.pulse_quadratures

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("ddmemory") and hasattr(module, "pulse_quadratures"):
            monkeypatch.setattr(module, "pulse_quadratures", counted)
    p, shape = udd(5, 16e-6), dcg3(1e-8)
    w = np.geomspace(1e4, 1e9, 45)
    for rows in (integrals._ff_rows_factory(p, shape, gaas, 10), integrals._repeat_terms(p, shape, gaas)):
        calls.clear()
        rows(w)
        assert len(calls) == 1


# -- the segment table against the hand-expanded forms it replaced -------------


def _expanded_quadratures(shape, w):
    """(r_z_pul, r_y_pul) as the primitive and DCG3 formulas were written out by hand."""
    tau = shape.tau_pi
    big_omega = math.pi / tau
    sinc = lambda x: np.sinc(x / np.pi)  # noqa: E731
    if shape.kind == "primitive":
        core = tau * np.exp(0.5j * tau * w) * sinc(0.5 * tau * (w - big_omega)) / (w + big_omega)
        return -(w**2) * core, -1j * w * big_omega * core
    phase = tau * w
    # (e^{3iw}+1)(e^{iw}+1) resonant at Omega, 2 e^{2iw} cos(w) at Omega/2
    term1 = (
        (np.exp(3j * phase) + 1.0) * np.exp(0.5j * phase) * tau
        * sinc(0.5 * tau * (w - big_omega)) / (w + big_omega)
    )
    term2 = tau * sinc(tau * (w - 0.5 * big_omega)) * np.exp(2j * phase) / (w + 0.5 * big_omega)
    return (w**2) * (2.0 * term2 - term1), 1j * w * big_omega * (term2 - term1)


def _segment_scales(shape, w):
    """Sum over segments of |omega^2 P_s| and of |omega Omega_s P_s|: the size of the terms summed."""
    widths = (1.0,) if shape.kind == "primitive" else (1.0, 2.0, 1.0)
    z = y = 0.0
    for width in widths:
        tau_s = width * shape.tau_pi
        omega_s = math.pi / tau_s
        size = tau_s * np.abs(np.sinc(0.5 * tau_s * (w - omega_s) / np.pi)) / (w + omega_s)
        z, y = z + w**2 * size, y + w * omega_s * size
    return z, y


@pytest.mark.parametrize("tau_pi", [1e-9, 3.7e-9, 1e-8, 2.5e-8])
@pytest.mark.parametrize("make", [primitive, dcg3], ids=["primitive", "dcg3"])
def test_segment_sum_equals_the_expanded_forms(make, tau_pi):
    shape = make(tau_pi)
    big_omega = math.pi / tau_pi
    w = np.r_[0.0, np.geomspace(1.0, 1e10, 20_001), big_omega, 0.5 * big_omega]
    scale_z, scale_y = _segment_scales(shape, w)
    slack = 8.0 * EPS * (1.0 + w * shape.footprint)
    for got, ref, scale in zip(pulses.pulse_quadratures(shape, w), _expanded_quadratures(shape, w),
                               (scale_z, scale_y)):
        assert np.all(np.abs(got - ref) <= slack * scale)


def _mp_ry(shape, w):
    """r_y_pul = -i omega sum_s sigma_s Omega_s P_s over the segment table, at 50 digits."""
    with mp.workdps(50):
        w, tau, total = mp.mpf(w), mp.mpf(shape.tau_pi), 0
        for start, width, sign in pulses._SEGMENTS[shape.kind]:
            big_omega = mp.pi / (width * tau)
            total += sign * big_omega * mp.exp(1j * w * start * tau) * (mp.exp(1j * w * width * tau) + 1) / (
                big_omega**2 - w**2
            )
        return complex(-1j * w * total)


@pytest.mark.parametrize(
    "w, rel",
    [(1.0, 1e-15), (1e3, 1e-15), (1e5, 1e-15), (0.15e8 * (1 - 1e-9), 1e-15), (0.15e8 * (1 + 1e-9), 3e-14)],
    ids=["1", "1e3", "1e5", "below_series_top", "above_series_top"],
)
def test_dcg_ry_keeps_its_low_frequency_digits(w, rel):
    # sum_s sigma_s tau_s = 0 cancels DCG3's r_y sum to O((omega tau_pi)^2) below
    # its terms: up to omega tau_pi = 0.15 its exact-coefficient series keeps them,
    # and above it the sum keeps all but about 2.5e-16 / (omega tau_pi)^2 of them
    shape = dcg3(1e-8)
    ref = _mp_ry(shape, w)
    assert abs(pulses.pulse_quadratures(shape, w)[1] - ref) <= rel * abs(ref)


def test_bang_bang_has_no_segments_and_zero_quadratures():
    rz, ry = pulses.pulse_quadratures(bang_bang(), np.geomspace(1e3, 1e9, 7))
    assert rz.dtype == complex and ry.dtype == complex
    assert np.all(rz == 0.0) and np.all(ry == 0.0)
    got = pulses.pulse_quadratures(bang_bang(), 1e5)
    assert [type(q) for q in got] == [complex, complex] and got == (0j, 0j)


def test_footprint_is_the_sum_of_segment_widths():
    assert [s.footprint for s in (bang_bang(), primitive(3.7e-9), dcg3(3.7e-9))] == [
        0.0, 3.7e-9, 4.0 * 3.7e-9
    ]
