"""Filter functions for sequences driven with finite-width pi pulses.

An instantaneous pulse only toggles the dephasing switch, so the error
filter has a single quadrature, the z control component |omega*y_tilde|^2.
A pulse of non-zero width tau_pi adds two effects at leading order in the
base period: the z component acquires a per-pulse correction, and a second
quadrature r_y opens up because the spin spends time away from the poles
of the Bloch sphere while being driven.  The total filter function is

    F(omega) = |r_z(omega)|^2 + |r_y(omega)|^2,

with r_z reducing to omega*y_tilde and r_y to zero as tau_pi -> 0.

Every pulse kind is a row of one table of rectangular drive segments
(start, width, sign) in units of tau_pi: none for bang-bang, one for a
primitive pi pulse, and +pi, -2pi, +pi back to back for the first-order
dynamically corrected gate DCG3 (footprint 4 tau_pi).  The per-pulse
quadratures sum one primitive response per segment, each in a sinc form
without its removable singularity at omega = pi/tau_s, so no pole windows
are needed.  Where the signed segment widths sum to zero (DCG3) the r_y sum
cancels at low omega, and there it is the Taylor series of exact integer
coefficients (_ry_series).

The pulses enter the whole sequence through u_p = sum_l (-1)^l e^{i omega t_l}
over the pulse centers, read off the ideal transform by its vertex form
omega*y = 1 + 2 u_p + (-1)^(n+1) e^{i omega T_p}: O(1) per frequency on top
of omega*y, with that transform's accuracy (Walsh product or Taylor series).
quadrature_components returns (omega*y, u_p, b, c_y), (b, c_y) what one pulse
of phasor 1 adds to (r_z, r_y): the one evaluation every filter reads.

pulse_order gives the closed-form low-frequency order of the pulse part and
checks it against filters._power_law_fit of the dominant quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import DomainError, require_positive
from .filters import _omega_array, _power_law_fit, _scalar_like, omega_y_tilde
from .sequences import TimingPattern

__all__ = [
    "BANG_BANG",
    "PRIMITIVE",
    "DCG3",
    "PulseShape",
    "bang_bang",
    "primitive",
    "dcg3",
    "pulse_quadratures",
    "quadrature_components",
    "total_quadratures",
    "total_ff",
    "PulseOrder",
    "pulse_order",
]

BANG_BANG = "bang_bang"
PRIMITIVE = "primitive"
DCG3 = "dcg3"

# drive segments (start, width, sign) of each pulse kind, in units of tau_pi
_SEGMENTS = {
    BANG_BANG: (),
    PRIMITIVE: ((0, 1, 1),),
    DCG3: ((0, 1, 1), (1, 2, -1), (3, 1, 1)),
}

_MISMATCH_WARN = 0.10
_RY_SERIES_X = 0.15  # omega tau_pi up to which a cancelling r_y takes 16 Taylor terms: 5e-17 of it is left


def _ry_series(kind: str) -> Optional[np.ndarray]:
    """Taylor coefficients (8, 2) of r_y / (-i pi omega tau_pi) = E(x^2) + i x O(x^2), x = omega tau_pi.

    That is S(x) = sum_s sigma_s w_s e^{i x a_s} (1 + e^{i x w_s}) / (pi^2 - x^2 w_s^2) over segments
    of start a_s and width w_s in units of tau_pi, which cancels when sum_s sigma_s w_s = 0: to
    O(x^2) for DCG3, where the sinc form keeps eps/x^2 of its digits.  S(x) = sum_n r_n (i x)^n, r_n
    summing (-1)^k / ((n-2k)! pi^(2k+2)) times the integer sum_s sigma_s w_s^(2k+1) (a_s^j + (a_s + w_s)^j),
    j = n - 2k; columns E and O take r_(2k) and r_(2k+1) times (-1)^k.  None where S does not cancel.
    """
    segments = _SEGMENTS[kind]
    if not segments or sum(sign * width for _, width, sign in segments):
        return None
    coef = np.zeros(16)
    for n in range(16):
        for k in range(n // 2 + 1):
            j = n - 2 * k
            exact = sum(s * w ** (2 * k + 1) * (a**j + (a + w) ** j) for a, w, s in segments)
            coef[n] += (-1) ** k * exact / (math.factorial(j) * math.pi ** (2 * k + 2))
    return coef.reshape(8, 2) * (-1.0) ** np.arange(8)[:, None]


_RY_SERIES = {kind: _ry_series(kind) for kind in _SEGMENTS}


@dataclass(frozen=True)
class PulseShape:
    """Drive profile of a single pi pulse.

    kind     one of BANG_BANG, PRIMITIVE, DCG3
    tau_pi   segment duration in seconds (0 for bang-bang)
    """

    kind: str
    tau_pi: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _SEGMENTS:
            raise DomainError(f"unknown pulse kind {self.kind!r}, expected one of {tuple(_SEGMENTS)}")
        if _SEGMENTS[self.kind]:
            require_positive("pulse width tau_pi", self.tau_pi)
        elif self.tau_pi != 0.0:
            raise DomainError("bang-bang pulses have zero width")

    @property
    def rabi_frequency(self) -> float:
        """Omega = pi/tau_pi in rad/s; infinite in the bang-bang limit."""
        return math.pi / self.tau_pi if self.tau_pi else math.inf

    @property
    def footprint(self) -> float:
        """Total time occupied by one pulse, its segments' widths: 0, tau_pi, or 4*tau_pi (DCG)."""
        return self.tau_pi * sum(width for _, width, _ in _SEGMENTS[self.kind])


def bang_bang() -> PulseShape:
    return PulseShape(BANG_BANG)


def primitive(tau_pi: float) -> PulseShape:
    """Rectangular pi pulse of width tau_pi."""
    return PulseShape(PRIMITIVE, float(tau_pi))


def dcg3(tau_pi: float) -> PulseShape:
    """Three-segment first-order DCG with segment width tau_pi."""
    return PulseShape(DCG3, float(tau_pi))


def pulse_quadratures(
    shape: PulseShape, omega: Union[float, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-pulse control quadratures (r_z_pul, r_y_pul) at omega >= 0.

    r_z_pul = -omega^2 sum_s sigma_s P_s and r_y_pul = -i omega sum_s
    sigma_s Omega_s P_s over the drive segments (start t_s, width tau_s,
    sign sigma_s, Omega_s = pi/tau_s; bang-bang has none and gives zeros),
    with the primitive response

        P_s = tau_s e^{i omega (t_s + tau_s/2)} sinc(tau_s (omega - Omega_s)/2) / (omega + Omega_s)
            = e^{i omega t_s} (e^{i omega tau_s} + 1) / (Omega_s^2 - omega^2),

    and r_y_pul from _ry_series up to omega tau_pi = _RY_SERIES_X where its sum cancels.
    """
    w = _omega_array(omega)
    sum_p = ry = None  # the sums start from the first width, so one segment adds nothing
    for width in dict.fromkeys(width for _, width, _ in _SEGMENTS[shape.kind]):
        tau_s = width * shape.tau_pi
        omega_s = math.pi / tau_s
        # segments of one width share their sinc and pole; np.sinc(x) = sin(pi x)/(pi x)
        p_s = tau_s * _phase_sum(shape, width, w) * np.sinc(0.5 * tau_s * (w - omega_s) / np.pi)
        p_s /= w + omega_s
        y_s = -1j * w * omega_s * p_s
        sum_p, ry = (p_s, y_s) if ry is None else (sum_p + p_s, ry + y_s)
    if ry is None:  # no segments: bang-bang
        sum_p, ry = np.zeros((2,) + w.shape, dtype=complex)
    series = _RY_SERIES[shape.kind]
    if series is not None:  # the cancelling r_y sum: its series at low omega
        low = shape.tau_pi * w <= _RY_SERIES_X
        x = shape.tau_pi * w[low]
        # the terms that reach 1e-17 of the largest at the top x: few, where x is small
        size = np.abs(series) * (x.max(initial=0.0) ** 2) ** np.arange(8)[:, None]
        terms = 1 + np.flatnonzero(size.max(axis=1) >= 1e-17 * size.max()).max(initial=0)
        even, odd = np.polynomial.polynomial.polyval(x * x, series[:terms])
        ry.real[low], ry.imag[low] = math.pi * x * x * odd, -math.pi * x * even
    return _scalar_like(omega, -(w**2) * sum_p), _scalar_like(omega, ry)


def _phase_sum(shape: PulseShape, width: int, w: np.ndarray) -> np.ndarray:
    """Sum of sigma_s e^{i omega (t_s + tau_s/2)} over the shape's segments of one width."""
    total = None
    for start, seg_width, sign in _SEGMENTS[shape.kind]:
        if seg_width == width:
            phase = np.exp(1j * (start + 0.5 * width) * shape.tau_pi * w)
            phase *= sign  # in place, as the sum: a fresh 0.5 MB temporary is first-touched memory
            total = phase if total is None else np.add(total, phase, out=total)
    return total


def _check_footprint(p: TimingPattern, shape: PulseShape) -> None:
    fp = shape.footprint
    if fp == 0.0 or not p.pulse_times:
        return
    times = (0.0,) + p.pulse_times + (p.duration,)
    for a, b in zip(times, times[1:]):
        if b - a <= fp:
            raise DomainError(
                f"pulse footprint {fp:.3e}s does not fit in the interval "
                f"({a:.6e}s, {b:.6e}s) of pattern {p.label!r}"
            )


def _pulse_phasor(p: TimingPattern, omega: np.ndarray, base: np.ndarray) -> np.ndarray:
    """u_p = sum_l (-1)^l e^{i omega t_l}, read off base = omega*y_tilde."""
    # (base - 1 + (-1)^n e^{i w T_p}) / 2, with 1 -+ e^{i w T_p} factored so nothing cancels
    half_t = 0.5 * p.duration * omega
    edge = 1j * np.sin(half_t) if p.n_pulses % 2 == 0 else -np.cos(half_t)
    return 0.5 * base + np.exp(1j * half_t) * edge


def quadrature_components(
    p: TimingPattern, shape: PulseShape, omega: np.ndarray
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """(omega*y_tilde, u_p, b, c_y); the last three None for bang-bang or no pulses.

    u_p is the pulse phasor and (b, c_y) what one pulse of phasor 1 adds to
    (r_z, r_y): callers form the ideal and the total filter from this one
    evaluation, with the near-cancelling pulse terms b u_p and c_y u_p kept
    out of the ideal one.  Returns arrays, also for a number omega.
    """
    _check_footprint(p, shape)
    w = _omega_array(omega)
    base = omega_y_tilde(p, w)
    if shape.kind == BANG_BANG or not p.pulse_times:
        return base, None, None, None
    rz_pul, ry_pul = pulse_quadratures(shape, w)
    half = np.exp(-0.5j * shape.tau_pi * w)
    # 2 cos(w tau/2) - 2 written as -4 sin^2(w tau/4) to keep the small-w
    # cancellation exact
    b = -4.0 * np.sin(0.25 * shape.tau_pi * w) ** 2 - half * rz_pul
    return base, _pulse_phasor(p, w, base), b, -half * ry_pul


def _totals(base, u_p, b, c_y) -> Tuple[np.ndarray, np.ndarray]:
    """(r_z, r_y) = (omega*y + b u_p, c_y u_p) from quadrature_components; (omega*y, 0) without pulses."""
    return (base, np.zeros_like(base)) if u_p is None else (base + b * u_p, c_y * u_p)


def total_quadratures(
    p: TimingPattern, shape: PulseShape, omega: Union[float, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Whole-sequence control quadratures (r_z, r_y) with pulses of width tau_pi.

    r_z(omega) = omega*y_tilde_p(omega)
                 + [2 cos(omega tau_pi/2) - 2
                    - e^{-i omega tau_pi/2} r_z_pul(omega)] u_p(omega)
    r_y(omega) = -e^{-i omega tau_pi/2} r_y_pul(omega) u_p(omega)

    with u_p = sum_l (-1)^l e^{i omega t_l} over the pulse centers t_l, read
    off omega*y_tilde by its vertex form (module docstring).  The bracket
    vanishes identically for bang-bang, so (r_z, r_y) reduces to
    (omega*y_tilde, 0) exactly for any switching parity.  Pulse footprints
    must fit strictly inside the free intervals around each center.
    """
    rz, ry = _totals(*quadrature_components(p, shape, omega))
    return _scalar_like(omega, rz), _scalar_like(omega, ry)


def total_ff(
    p: TimingPattern, shape: PulseShape, omega: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """F(omega) = |r_z|^2 + |r_y|^2, the ideal filter for bang-bang; F(w) == F([w])[0]."""
    rz, ry = _totals(*quadrature_components(p, shape, omega))
    return _scalar_like(omega, np.abs(rz) ** 2 + np.abs(ry) ** 2)


class PulseOrder(NamedTuple):
    """Leading low-frequency pulse contribution F_pul ~ |amplitude|^2 w^{2(alpha+1)}.

    alpha, amplitude      closed-form order and prefactor for the shape
    alpha_fit             exponent recovered from a log-log fit of the
                          dominant quadrature of this specific pattern
    amplitude_fit         prefactor from the same fit, at order round(alpha_fit)
    mismatch              |amplitude_fit - amplitude| / |amplitude|
    warning               None, or a note when fit and closed form disagree
    """

    alpha: int
    amplitude: complex
    alpha_fit: float
    amplitude_fit: complex
    mismatch: float
    warning: Optional[str]


def pulse_order(p: TimingPattern, shape: PulseShape) -> PulseOrder:
    """Closed-form (alpha_pul, A_pul) plus a numerical cross-check.

    The closed pair, from the segments' signs sigma_s and widths tau_s, is
    that of a balanced base pattern (alternating-sign pulse centers summing
    to T_p/2, as for the concatenated family), where u_p ~ i omega T_p/2:
    r_y leads at order 1 with -T_p sum(sigma_s tau_s)/pi, else the pulse
    part of r_z at order 2 with -i T_p (tau_pi^2/8 - sum(sigma_s tau_s^2)/pi^2).
    Primitive: (1, -T_p tau_pi/pi); DCG3: (2, -i T_p tau_pi^2 (1/8 + 2/pi^2)).

    The fit is filters._power_law_fit of the dominant quadrature of the
    actual pattern, taken from quadrature_components, so a footprint that
    does not fit raises DomainError; a disagreement beyond 10% in
    amplitude, or a shifted exponent (odd switching parity lowers it by
    one), is reported in `warning` rather than raised.
    """
    segments = _SEGMENTS[shape.kind]
    if not segments:
        raise DomainError("bang-bang pulses carry no finite-width contribution")
    if not p.pulse_times:
        raise DomainError(f"pattern {p.label!r} has no pulses")
    t_p = p.duration
    tau = shape.tau_pi
    # signed sums of the widths and of their squares, in units of tau_pi
    first = sum(sign * width for _, width, sign in segments)
    second = sum(sign * width**2 for _, width, sign in segments)
    if first:
        alpha, part, amplitude = 1, 1, complex(-t_p * tau * first / math.pi)
    else:
        alpha, part, amplitude = 2, 0, -1j * t_p * tau * tau * (0.125 - second / math.pi**2)

    def dominant(w: np.ndarray) -> np.ndarray:  # (b, c_y)[part] u_p
        _, u_p, *unit = quadrature_components(p, shape, w)
        return unit[part] * u_p

    _, amplitude_fit, slope, _ = _power_law_fit(dominant, t_p)
    alpha_fit = slope - 1.0
    mismatch = abs(amplitude_fit - amplitude) / abs(amplitude)

    notes = []
    if abs(alpha_fit - alpha) > 0.25:
        notes.append(
            f"fitted exponent {alpha_fit:.2f} differs from the closed-form "
            f"order {alpha} for pattern {p.label!r}"
        )
    if mismatch > _MISMATCH_WARN:
        notes.append(
            f"fitted amplitude {amplitude_fit:.4e} deviates from the "
            f"closed form {amplitude:.4e} by {mismatch:.1%}"
        )
    warning = "; ".join(notes) if notes else None
    return PulseOrder(alpha, amplitude, alpha_fit, amplitude_fit, mismatch, warning)
