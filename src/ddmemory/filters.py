"""Bang-bang filter functions and their structure.

The control transfer function of a pattern is

    omega * y(omega) = sum_j (-1)^j [exp(i t_j omega) - exp(i t_{j+1} omega)]

with t_0 = 0 and t_{n+1} = T_p, and the filter function is
F(omega) = |omega * y(omega)|^2. Direct summation destroys the
high-order zero at omega = 0 through cancellation, so below
|omega * T_p| <= 2 the sum is evaluated from its Taylor coefficients
instead. Those coefficients are exact rationals for patterns on a
uniform slot grid, 60-digit values for UDD timings, and compensated
float sums otherwise; in all three cases the multiplicity of the zero
survives in double precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SuppressionFitError
from .sequences import TimingPattern, min_interval

THETA_SWITCH = 2.0
N_MOMENTS = 36

# vectorized evaluation proceeds in chunks of at most this many complex terms
_CHUNK_TERMS = 1 << 22


def _vertex_coefficients(p: TimingPattern) -> tuple[np.ndarray, np.ndarray]:
    """Vertex times and weights of the phasor sum, including both endpoints.

    The sum telescopes to +1 at t = 0, 2*(-1)^l at the l-th pulse, and
    (-1)^(n+1) at T_p.
    """
    n = p.n_pulses
    times = np.empty(n + 2)
    coeff = np.empty(n + 2)
    times[0] = 0.0
    coeff[0] = 1.0
    times[1 : n + 1] = p.pulse_times
    coeff[1 : n + 1] = [2.0 * (-1.0) ** l for l in range(1, n + 1)]
    times[n + 1] = p.duration
    coeff[n + 1] = (-1.0) ** (n + 1)
    return times, coeff


def _grid_moments(n_slots: int, bounds: tuple[int, ...], n_terms: int) -> tuple[float, ...]:
    # exact rational vertex sums; the t = 0 vertex drops out for k >= 1
    verts = [(-2 if i % 2 == 0 else 2, b) for i, b in enumerate(bounds)]
    verts.append((1 if len(bounds) % 2 else -1, n_slots))
    powers = [b for _, b in verts]
    out = []
    kfac = 1
    for k in range(1, n_terms + 1):
        kfac *= k
        s_k = sum(c * pw for (c, _), pw in zip(verts, powers))
        out.append(float(Fraction(s_k, n_slots**k * kfac)))
        powers = [pw * b for (_, b), pw in zip(verts, powers)]
    return tuple(out)


def _udd_moments(order: int, n_terms: int) -> tuple[float, ...]:
    import mpmath as mp

    with mp.workdps(60):
        taus = [mp.sin(mp.pi * j / (2 * order + 2)) ** 2 for j in range(1, order + 1)]
        coeffs = [mp.mpf(2 * (-1) ** l) for l in range(1, order + 1)]
        taus.append(mp.mpf(1))
        coeffs.append(mp.mpf((-1) ** (order + 1)))
        out = []
        kfac = mp.mpf(1)
        powers = list(taus)
        for k in range(1, n_terms + 1):
            kfac *= k
            s_k = mp.fsum(c * pw for c, pw in zip(coeffs, powers))
            out.append(float(s_k / kfac))
            powers = [pw * t for pw, t in zip(powers, taus)]
    return tuple(out)


def _float_moments(p: TimingPattern, n_terms: int) -> tuple[float, ...]:
    times, coeff = _vertex_coefficients(p)
    taus = times[1:] / p.duration
    cs = coeff[1:]
    out = []
    powers = taus.copy()
    kfac = 1.0
    for k in range(1, n_terms + 1):
        kfac *= k
        s_k = math.fsum(c * pw for c, pw in zip(cs, powers))
        out.append(s_k / kfac)
        powers = powers * taus
    return tuple(out)


@lru_cache(maxsize=4096)
def _moments(p: TimingPattern) -> tuple[float, ...]:
    """Taylor coefficients mu_k of omega*y = sum_k mu_k (i*omega*T_p)^k."""
    if p.grid is not None:
        return _grid_moments(p.grid[0], p.grid[1], N_MOMENTS)
    if p.udd_order is not None and p.udd_order >= 1:
        return _udd_moments(p.udd_order, N_MOMENTS)
    return _float_moments(p, N_MOMENTS)


def _series_eval(p: TimingPattern, theta: np.ndarray) -> np.ndarray:
    mu = _moments(p)
    z = 1j * theta
    acc = np.zeros(theta.shape, dtype=complex)
    for m_k in reversed(mu):
        acc = (acc + m_k) * z
    return acc


def phasor_sum(times: np.ndarray, coeff: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """sum_j coeff_j exp(i omega t_j) for every omega, one outer product per chunk.

    Chunks run over omega so each holds at most _CHUNK_TERMS complex terms.
    """
    coeff = np.asarray(coeff, dtype=complex)
    out = np.empty(omega.shape, dtype=complex)
    step = max(1, _CHUNK_TERMS // max(1, times.size))
    for lo in range(0, omega.size, step):
        out[lo : lo + step] = np.exp(1j * np.outer(omega[lo : lo + step], times)) @ coeff
    return out


def omega_y_tilde(p: TimingPattern, omega) -> np.ndarray:
    """The dimensionless phasor sum omega * y(omega), vectorized."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    theta = w * p.duration
    out = np.empty(w.shape, dtype=complex)
    small = np.abs(theta) <= THETA_SWITCH
    if small.any():
        out[small] = _series_eval(p, theta[small])
    big = ~small
    if big.any():
        out[big] = phasor_sum(*_vertex_coefficients(p), w[big])
    if np.isscalar(omega):
        return complex(out[0])
    return out


def y_tilde(p: TimingPattern, omega):
    """Control transfer function y(omega) in seconds.

    The omega -> 0 limit i * T_p * mu_1 is returned at omega = 0.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.any(w < 0):
        raise DomainError("y_tilde is defined for omega >= 0")
    num = np.atleast_1d(omega_y_tilde(p, w))
    with np.errstate(invalid="ignore", divide="ignore"):
        out = num / w
    zero = w == 0.0
    if zero.any():
        out[zero] = 1j * p.duration * _moments(p)[0]
    if np.isscalar(omega):
        return complex(out[0])
    return out


def filter_fn(p: TimingPattern, omega):
    """F(omega) = omega^2 |y(omega)|^2 >= 0, vectorized."""
    val = omega_y_tilde(p, omega)
    out = np.abs(val) ** 2
    if np.isscalar(omega):
        return float(out)
    return out


def combine(y1, y2, t_p1: float, omega):
    """Transfer function of two joined blocks: y1 + exp(i*omega*T_1)*y2."""
    return y1 + np.exp(1j * np.asarray(omega, dtype=float) * t_p1) * y2


def dirichlet_ratio(m: int, theta):
    """Signed kernel sin(m*theta)/sin(theta), with its limit +-m at theta = k*pi.

    Evaluated in the reduced offset delta = theta - k*pi as
    (-1)^(k(m-1)) sin(m*delta)/sin(delta), and by the series
    m * (1 - (m^2 - 1)*delta^2/6) where |m*delta| < 1e-3.
    """
    th = np.asarray(theta, dtype=float)
    k = np.round(th / math.pi)
    delta = th - k * math.pi
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.sin(m * delta) / np.sin(delta)
    series = m * (1.0 - (m * m - 1.0) / 6.0 * delta * delta)
    sign = 1.0 - 2.0 * ((m - 1) % 2) * (k % 2)
    out = sign * np.where(np.abs(m * delta) < 1e-3, series, ratio)
    return float(out) if np.isscalar(theta) else out


def dirichlet_factor(m: int, t_p: float, omega):
    """Repetition kernel sin^2(m*omega*T_p/2) / sin^2(omega*T_p/2).

    The square of dirichlet_ratio at theta = omega*T_p/2, so the removable
    singularities at omega = 2*pi*k/T_p take the value m^2.
    """
    if m < 1:
        raise DomainError(f"repeat count must be >= 1, got {m}")
    return dirichlet_ratio(m, np.multiply(omega, t_p / 2.0)) ** 2


class SuppressionOrder(NamedTuple):
    alpha: int
    amplitude: complex
    slope: float
    residual: float


def suppression_order(p: TimingPattern, fit_residual_limit: float = 0.2) -> SuppressionOrder:
    """Order of error suppression and leading amplitude of the filter zero.

    F behaves as |amplitude|^2 * omega^(2*(alpha+1)) near omega = 0. The
    order comes from an integer-rounded log-log slope on the decade grid
    omega in [1e-4, 1e-2]/T_p; the amplitude is y(omega)/omega^alpha at
    the smallest grid point, Richardson-refined with the 2x point to
    cancel the linear correction.
    """
    grid = np.logspace(-4, -2, 25) / p.duration
    f_vals = filter_fn(p, grid)
    if np.any(f_vals <= 0.0):
        raise SuppressionFitError("filter vanished on the fit grid", math.nan, math.inf)
    logw = np.log10(grid)
    logf = np.log10(f_vals)
    slope, intercept = np.polyfit(logw, logf, 1)
    residual = float(np.sqrt(np.mean((logf - (slope * logw + intercept)) ** 2)))
    alpha = int(round(slope / 2.0 - 1.0))
    if residual > fit_residual_limit or abs(slope - 2.0 * (alpha + 1)) > 0.5 or alpha < 0:
        raise SuppressionFitError(
            f"low-frequency behavior is not a clean power law (slope {slope:.3f})",
            float(slope),
            residual,
        )
    w0 = grid[0]
    a1 = complex(omega_y_tilde(p, w0)) / w0 ** (alpha + 1)
    a2 = complex(omega_y_tilde(p, 2.0 * w0)) / (2.0 * w0) ** (alpha + 1)
    amplitude = 2.0 * a1 - a2
    return SuppressionOrder(alpha, amplitude, float(slope), residual)


def passband_max(p: TimingPattern, search_band: tuple[float, float] | None = None) -> float:
    """Global maximum of F over the band, by dense log sampling plus refinement.

    Default band [0.1/T_p, 2*pi/min_interval]; the peak of any pattern
    saturates before the inverse minimum interval.
    """
    tau = min_interval(p)
    if search_band is None:
        lo, hi = 0.1 / p.duration, 2.0 * math.pi / tau
    else:
        lo, hi = search_band
    if not (0.0 < lo < hi):
        raise DomainError(f"search band must satisfy 0 < lo < hi, got ({lo}, {hi})")
    if hi > 4.0 * math.pi / tau * (1.0 + 1e-12):
        raise DomainError(
            f"search band upper edge {hi} exceeds 4*pi/min_interval = {4 * math.pi / tau}"
        )
    decades = math.log10(hi / lo)
    n_pts = max(256, int(math.ceil(decades * 16384)))
    grid = np.logspace(math.log10(lo), math.log10(hi), n_pts)
    f_vals = filter_fn(p, grid)
    i = int(np.argmax(f_vals))
    best = float(f_vals[i])
    a = grid[max(0, i - 1)]
    b = grid[min(n_pts - 1, i + 1)]
    if a < b:
        best = max(best, _golden_max(lambda w: filter_fn(p, w), a, b, (b - a) * 1e-10))
    return best


def _golden_max(f, a: float, b: float, xatol: float) -> float:
    """Largest value of f found by golden-section search on [a, b]."""
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xatol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return max(fc, fd)
