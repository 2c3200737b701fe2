"""Bang-bang filter functions and their structure.

The control transfer function of a pattern is

    omega * y(omega) = sum_j (-1)^j [exp(i t_j omega) - exp(i t_{j+1} omega)]

with t_0 = 0 and t_{n+1} = T_p, and the filter function is
F(omega) = |omega * y(omega)|^2.

A Walsh pattern w_k on N = 2**q slots of width tau (free evolution,
echo, CDD, every search candidate and their power-of-two repeats; any
pattern whose walsh_index is set) factorises: with z = exp(i*omega*tau)
the sum is (1 - z) * prod_b (1 +- z**(2**b)), and with h = omega*tau/2

    omega * y = (-i)**(1 + popcount(k)) * exp(i*omega*T_p/2) * 2 sin(h)
                * prod_{b<q} 2 [sin if bit (q-1-b) of k else cos](2**b * h),

so F is a product of q + 1 squared sines and cosines. This costs
O(log N) per frequency instead of O(pulses), and being a product it
keeps the zero at omega = 0 at every frequency, with no series branch.

Other patterns are summed vertex by vertex. Direct summation destroys
the high-order zero at omega = 0 through cancellation, so below
|omega * T_p| <= 2 the sum is evaluated from its Taylor coefficients
mu_k = sum_j c_j (t_j/T_p)^k / k! instead, computed in one of two ways:
from an exact closed form for Uhrig's times, which are recognised from
the pulse times themselves, and otherwise by an exact integer sum over
a grid's slot indices or the float times over their least common
denominator, with one correctly rounded division. Both give the exact
mu_k of the pattern's times, rounded once, so the multiplicity of the
zero survives in double precision.

suppression_order reads the order alpha and amplitude A of that zero,
F ~ |A|^2 omega^(2(alpha+1)), off _power_law_fit of |omega*y| near 0;
pulses.pulse_order runs the same fit on the dominant pulse quadrature.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SuppressionFitError, require_count, require_positive
from .sequences import _GRID_RTOL, TimingPattern, min_interval, udd

THETA_SWITCH = 2.0
N_MOMENTS = 36
FIT_RESIDUAL_LIMIT = 0.2  # rms log10 misfit above which suppression_order refuses

# vectorized evaluation proceeds in chunks of at most this many complex terms
_CHUNK_TERMS = 1 << 22


def _omega_array(omega) -> np.ndarray:
    """omega as a float array of at least one dimension; DomainError unless every entry is finite and >= 0."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if w.size and not (0.0 <= w.min() and w.max() < math.inf):  # min and max propagate NaN
        raise DomainError("angular frequency omega must be finite and >= 0")
    return w


def _scalar_like(omega, out):
    """out as a Python scalar when omega is a number (0-d); out unchanged otherwise."""
    return out.item() if np.ndim(omega) == 0 else out


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


@lru_cache(maxsize=256)
def _udd_moments(n: int) -> tuple[float, ...]:
    """mu_k of Uhrig's n-pulse pattern from an exact rational, rounded once.

    Its vertices tau_j = (1 - cos theta_j)/2 at theta_j = j*pi/(n+1),
    j = 0 .. n+1, carry the weights (-1)^j, doubled inside. Expanded in
    cos(l*theta), tau^k = 4^-k sum_{r,i} (-1)^r C(k,r) C(r,i) 2^(k-r)
    cos((r-2i)*theta), and the weighted sum of cos(l*theta_j) over the
    vertices is 2(n+1) when l = n+1 (mod 2(n+1)) and 0 otherwise. So every
    mu_k with k <= n is exactly 0.
    """
    period = 2 * (n + 1)
    out = []
    for k in range(1, N_MOMENTS + 1):
        s = sum(
            (-1) ** r * math.comb(k, r) * math.comb(r, i) * 2 ** (k - r)
            for r in range(k + 1)
            for i in range(r + 1)
            if (r - 2 * i - n - 1) % period == 0
        )
        out.append(period * s / (4**k * math.factorial(k)))
    return tuple(out)


@lru_cache(maxsize=4096)
def _moments(times, duration, grid) -> tuple[float, ...]:
    """Taylor coefficients mu_k of omega*y = sum_k mu_k (i*omega*T_p)^k.

    mu_k = sum_j c_j tau_j^k / k! over the vertices tau_j = t_j / T_p; the
    t = 0 vertex drops out for k >= 1. Takes a pattern's pulse_times,
    duration and grid, all that the routes read, so that equal patterns
    with and without a grid are cached apart. Off any grid, pulses within
    _GRID_RTOL*T_p of Uhrig's times take the closed form; otherwise
    tau_j = u_j / U in integers (grid slots, or the float times over their
    least common denominator) and sum_j c_j u_j^k / (U^k k!) is rounded
    once, by int / int.
    """
    n = len(times)
    if grid is not None:
        ticks = [*grid[1], grid[0]]
    else:
        tol = _GRID_RTOL * duration
        if n and all(abs(t - u) <= tol for t, u in zip(times, udd(n, duration).pulse_times)):
            return _udd_moments(n)
        ratios = [t.as_integer_ratio() for t in (*times, duration)]
        den = math.lcm(*(d for _, d in ratios))
        ticks = [a * (den // d) for a, d in ratios]
    coeffs = [2 * (-1) ** l for l in range(1, n + 1)] + [(-1) ** (n + 1)]
    out, powers, scale = [], ticks, 1
    for k in range(1, N_MOMENTS + 1):
        scale *= k * ticks[-1]
        out.append(sum(c * pw for c, pw in zip(coeffs, powers)) / scale)
        powers = [pw * u for pw, u in zip(powers, ticks)]
    return tuple(out)


def _series_eval(p: TimingPattern, theta: np.ndarray) -> np.ndarray:
    mu = _moments(p.pulse_times, p.duration, p.grid)
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


def _walsh_product(p: TimingPattern, w: np.ndarray) -> np.ndarray:
    k = p.walsh_index
    n_slots = p.grid[0]
    q = n_slots.bit_length() - 1
    h = w * (0.5 * p.duration / n_slots)
    acc = 2.0 * np.sin(h)
    for b in range(q):
        trig = np.sin if (k >> (q - 1 - b)) & 1 else np.cos
        acc *= 2.0 * trig(2**b * h)
    phase = (1, -1j, -1, 1j)[(1 + bin(k).count("1")) % 4]
    return phase * np.exp(0.5j * p.duration * w) * acc


def omega_y_tilde(p: TimingPattern, omega) -> np.ndarray:
    """The dimensionless phasor sum omega * y(omega), vectorized over omega >= 0."""
    w = _omega_array(omega)
    if p.walsh_index is not None:
        out = _walsh_product(p, w)
    else:
        theta = w * p.duration
        out = np.empty(w.shape, dtype=complex)
        small = np.abs(theta) <= THETA_SWITCH
        if small.any():
            out[small] = _series_eval(p, theta[small])
        big = ~small
        if big.any():
            out[big] = phasor_sum(*_vertex_coefficients(p), w[big])
    return _scalar_like(omega, out)


def y_tilde(p: TimingPattern, omega):
    """Control transfer function y(omega) in seconds.

    The omega -> 0 limit i * T_p * mu_1 is returned at omega = 0.
    """
    w = _omega_array(omega)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = omega_y_tilde(p, w) / w
    zero = w == 0.0
    if zero.any():
        out[zero] = 1j * p.duration * _moments(p.pulse_times, p.duration, p.grid)[0]
    return _scalar_like(omega, out)


def filter_fn(p: TimingPattern, omega):
    """F(omega) = omega^2 |y(omega)|^2 >= 0, vectorized over omega >= 0; F(p, w) == F(p, [w])[0]."""
    return _scalar_like(omega, np.abs(omega_y_tilde(p, _omega_array(omega))) ** 2)


def combine(y1, y2, t_p1: float, omega):
    """Transfer function of two joined blocks: y1 + exp(i*omega*T_1)*y2."""
    require_positive("first block duration t_p1", t_p1)
    return _scalar_like(omega, y1 + np.exp(1j * _omega_array(omega) * t_p1) * y2)


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
    return _scalar_like(theta, sign * np.where(np.abs(m * delta) < 1e-3, series, ratio))


def dirichlet_factor(m: int, t_p: float, omega):
    """Repetition kernel sin^2(m*omega*T_p/2) / sin^2(omega*T_p/2).

    The square of dirichlet_ratio at theta = omega*T_p/2, so the removable
    singularities at omega = 2*pi*k/T_p take the value m^2.
    """
    require_count("repeat count", m)
    require_positive("period t_p", t_p)
    return _scalar_like(omega, dirichlet_ratio(m, _omega_array(omega) * (t_p / 2.0)) ** 2)


def _power_law_fit(q, t_p: float) -> tuple[int, complex, float, float]:
    """(order, amplitude, slope, residual) of q(omega) ~ amplitude * omega^(order+1) near 0.

    Fits log10|q| against log10(omega) on the decade grid omega in
    [1e-4, 1e-2]/t_p and rounds slope - 1 to the order; residual is the rms
    misfit in log10. The amplitude is q(omega)/omega^(order+1) at the
    smallest grid point, Richardson-refined with the 2x point to cancel the
    linear correction. Raises SuppressionFitError where |q| vanishes.
    """
    grid = np.logspace(-4, -2, 25) / t_p
    vals = q(np.append(grid, 2.0 * grid[0]))
    mags = np.abs(vals[:-1])
    if not np.all(mags > 0.0):
        raise SuppressionFitError("low-frequency term vanished on the fit grid", math.nan, math.inf)
    logw = np.log10(grid)
    logq = np.log10(mags)
    slope, intercept = np.polyfit(logw, logq, 1)
    residual = float(np.sqrt(np.mean((logq - (slope * logw + intercept)) ** 2)))
    order = int(round(slope - 1.0))
    w0 = grid[0]
    amplitude = 2.0 * vals[0] / w0 ** (order + 1) - vals[-1] / (2.0 * w0) ** (order + 1)
    return order, complex(amplitude), float(slope), residual


class SuppressionOrder(NamedTuple):
    alpha: int
    amplitude: complex
    slope: float
    residual: float


def suppression_order(p: TimingPattern) -> SuppressionOrder:
    """Order of error suppression and leading amplitude of the filter zero.

    F behaves as |amplitude|^2 * omega^(2*(alpha+1)) near omega = 0. The
    order and amplitude are _power_law_fit's of omega*y, whose log needs
    half the range of F's and so does not underflow before N_MOMENTS;
    slope and residual are reported for log10 F, twice the fitted ones.
    """
    alpha, amplitude, slope, residual = _power_law_fit(lambda w: omega_y_tilde(p, w), p.duration)
    slope, residual = 2.0 * slope, 2.0 * residual
    if residual > FIT_RESIDUAL_LIMIT or abs(slope - 2.0 * (alpha + 1)) > 0.5 or alpha < 0:
        raise SuppressionFitError(
            f"low-frequency behavior is not a clean power law (slope {slope:.3f})",
            slope,
            residual,
        )
    return SuppressionOrder(alpha, amplitude, slope, residual)


def passband_max(p: TimingPattern) -> float:
    """Global maximum of F over [0.1/T_p, 2*pi/min_interval]: dense log samples, one parabolic step.

    The peak of any pattern saturates before the inverse minimum interval.
    The step evaluates F at the vertex of the parabola in log omega through
    the largest sample and its two neighbours; a peak on the range's edge
    or on a flat run keeps the sample.
    """
    lo, hi = 0.1 / p.duration, 2.0 * math.pi / min_interval(p)
    decades = math.log10(hi / lo)
    n_pts = max(256, int(math.ceil(decades * 16384)))
    grid = np.logspace(math.log10(lo), math.log10(hi), n_pts)
    f_vals = filter_fn(p, grid)
    i = int(np.argmax(f_vals))
    best = float(f_vals[i])
    if 0 < i < n_pts - 1:
        left, right = float(f_vals[i - 1]), float(f_vals[i + 1])
        curve = left - 2.0 * best + right  # < 0 unless the three samples are equal
        if curve < 0.0:
            step = decades / (n_pts - 1)
            vertex = grid[i] * 10.0 ** (0.5 * step * (left - right) / curve)
            best = max(best, float(filter_fn(p, vertex)))
    return best
