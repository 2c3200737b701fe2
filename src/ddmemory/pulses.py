"""Filter functions for sequences driven with finite-width pi pulses.

An instantaneous pulse only toggles the dephasing switch, so the error
filter has a single quadrature, the z control component |omega*y_tilde|^2.
A pulse of non-zero width tau_pi adds two effects at leading order in the
base period: the z component acquires a per-pulse correction, and a second
quadrature r_y opens up because the spin spends time away from the poles
of the Bloch sphere while being driven.  The total filter function is

    F(omega) = |r_z(omega)|^2 + |r_y(omega)|^2,

with r_z reducing to omega*y_tilde and r_y to zero as tau_pi -> 0.

Two drive profiles are supported: a rectangular primitive pulse with Rabi
rate Omega = pi/tau_pi, and a three-segment first-order dynamically
corrected gate (DCG) built from such segments, whose effective footprint
is 4*tau_pi.  The per-pulse quadratures contain removable singularities
at omega = Omega (and Omega/2 for the DCG); they are evaluated here in an
algebraically equivalent sinc form that is finite and smooth everywhere,
so no pole windows or series switches are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import DomainError
from .filters import filter_fn, omega_y_tilde, phasor_sum
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

_KINDS = (BANG_BANG, PRIMITIVE, DCG3)

# log-spaced fit window for pulse_order, in units of 1/T_p
_FIT_LO = 1e-4
_FIT_HI = 1e-2
_FIT_POINTS = 25
_MISMATCH_WARN = 0.10


@dataclass(frozen=True)
class PulseShape:
    """Drive profile of a single pi pulse.

    kind     one of BANG_BANG, PRIMITIVE, DCG3
    tau_pi   segment duration in seconds (0 for bang-bang)
    """

    kind: str
    tau_pi: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"unknown pulse kind {self.kind!r}, expected one of {_KINDS}")
        if self.kind == BANG_BANG:
            if self.tau_pi != 0.0:
                raise DomainError("bang-bang pulses have zero width")
        else:
            if not (math.isfinite(self.tau_pi) and self.tau_pi > 0.0):
                raise DomainError(f"pulse width must be positive and finite, got {self.tau_pi}")

    @property
    def rabi_frequency(self) -> float:
        """Omega = pi/tau_pi in rad/s; infinite in the bang-bang limit."""
        if self.kind == BANG_BANG:
            return math.inf
        return math.pi / self.tau_pi

    @property
    def footprint(self) -> float:
        """Total time occupied by one pulse: 0, tau_pi, or 4*tau_pi (DCG)."""
        if self.kind == BANG_BANG:
            return 0.0
        if self.kind == PRIMITIVE:
            return self.tau_pi
        return 4.0 * self.tau_pi


def bang_bang() -> PulseShape:
    return PulseShape(BANG_BANG)


def primitive(tau_pi: float) -> PulseShape:
    """Rectangular pi pulse of width tau_pi."""
    return PulseShape(PRIMITIVE, float(tau_pi))


def dcg3(tau_pi: float) -> PulseShape:
    """Three-segment first-order DCG with segment width tau_pi."""
    return PulseShape(DCG3, float(tau_pi))


def _sinc(x: np.ndarray) -> np.ndarray:
    # sin(x)/x with the limit 1 at x = 0; np.sinc takes x/pi
    return np.sinc(x / np.pi)


def _as_omega_array(omega: Union[float, np.ndarray]) -> Tuple[np.ndarray, bool]:
    arr = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.any(arr < 0.0):
        raise DomainError("angular frequencies must be non-negative")
    return arr, np.ndim(omega) == 0


def pulse_quadratures(
    shape: PulseShape, omega: Union[float, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-pulse control quadratures (r_z_pul, r_y_pul) at omega >= 0.

    Primitive (Omega = pi/tau_pi):

        r_z_pul = omega^2 (e^{i omega tau_pi} + 1) / (omega^2 - Omega^2)
        r_y_pul = (i Omega / omega) r_z_pul

    evaluated as -omega^2 tau_pi e^{i omega tau_pi/2}
    sinc(tau_pi (omega - Omega)/2) / (omega + Omega), which is the same
    function with the omega = Omega singularity removed.  The DCG form
    combines two such terms with resonances at Omega and Omega/2.
    Bang-bang returns (0, 0).
    """
    w, scalar = _as_omega_array(omega)
    if shape.kind == BANG_BANG:
        rz = np.zeros_like(w, dtype=complex)
        ry = np.zeros_like(w, dtype=complex)
    elif shape.kind == PRIMITIVE:
        tau = shape.tau_pi
        big_omega = shape.rabi_frequency
        core = (
            tau
            * np.exp(0.5j * tau * w)
            * _sinc(0.5 * tau * (w - big_omega))
            / (w + big_omega)
        )
        rz = -(w**2) * core
        ry = -1j * w * big_omega * core
    else:
        tau = shape.tau_pi
        big_omega = shape.rabi_frequency
        phase = tau * w
        # c1 = (e^{3iw}+1)(e^{iw}+1), resonant at Omega; c2 = 2 e^{2iw} cos(w),
        # resonant at Omega/2; both folded into finite sinc terms
        term1 = (
            (np.exp(3j * phase) + 1.0)
            * np.exp(0.5j * phase)
            * tau
            * _sinc(0.5 * tau * (w - big_omega))
            / (w + big_omega)
        )
        term2 = (
            tau
            * _sinc(tau * (w - 0.5 * big_omega))
            * np.exp(2j * phase)
            / (w + 0.5 * big_omega)
        )
        rz = (w**2) * (2.0 * term2 - term1)
        ry = 1j * w * big_omega * (term2 - term1)
    if scalar:
        return complex(rz[0]), complex(ry[0])
    return rz, ry


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


def _pulse_terms(
    p: TimingPattern, shape: PulseShape, omega: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Additive pulse-induced parts: (r_z - omega*y_tilde, r_y)."""
    # u_p(omega) = sum_{l=1..n} (-1)^l exp(i omega t_l)
    signs = np.where(np.arange(1, p.n_pulses + 1) % 2 == 1, -1.0, 1.0)
    u_p = phasor_sum(np.asarray(p.pulse_times, dtype=float), signs, omega)
    rz_pul, ry_pul = pulse_quadratures(shape, omega)
    half = np.exp(-0.5j * shape.tau_pi * omega)
    # 2 cos(w tau/2) - 2 written as -4 sin^2(w tau/4) to keep the small-w
    # cancellation exact
    bracket = -4.0 * np.sin(0.25 * shape.tau_pi * omega) ** 2 - half * rz_pul
    return bracket * u_p, -half * ry_pul * u_p


def quadrature_components(
    p: TimingPattern, shape: PulseShape, omega: np.ndarray
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """(omega*y_tilde, pulse correction to r_z, r_y); corrections None for bang-bang.

    Splitting the ideal part from the pulse-induced parts lets callers form
    both the ideal and the total filter from one evaluation, and keeps the
    near-cancelling pulse terms out of the ideal ones.
    """
    _check_footprint(p, shape)
    base = np.asarray(omega_y_tilde(p, omega), dtype=complex)
    if shape.kind == BANG_BANG or not p.pulse_times:
        return base, None, None
    dz, ry = _pulse_terms(p, shape, omega)
    return base, dz, ry


def total_quadratures(
    p: TimingPattern, shape: PulseShape, omega: Union[float, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Whole-sequence control quadratures (r_z, r_y) with pulses of width tau_pi.

    r_z(omega) = omega*y_tilde_p(omega)
                 + [2 cos(omega tau_pi/2) - 2
                    - e^{-i omega tau_pi/2} r_z_pul(omega)] u_p(omega)
    r_y(omega) = -e^{-i omega tau_pi/2} r_y_pul(omega) u_p(omega)

    with u_p = sum_l (-1)^l e^{i omega t_l} over the pulse centers t_l.  The
    bracket vanishes identically for bang-bang, so (r_z, r_y) reduces to
    (omega*y_tilde, 0) exactly for any switching parity.  Pulse footprints
    must fit strictly inside the free intervals around each center.
    """
    w, scalar = _as_omega_array(omega)
    base, dz, ry = quadrature_components(p, shape, w)
    if dz is None:
        rz = base
        ry = np.zeros_like(w, dtype=complex)
    else:
        rz = base + dz
    if scalar:
        return complex(rz[0]), complex(ry[0])
    return rz, ry


def total_ff(
    p: TimingPattern, shape: PulseShape, omega: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """F(omega) = |r_z|^2 + |r_y|^2; equals the ideal filter for bang-bang."""
    if shape.kind == BANG_BANG:
        return filter_fn(p, omega)
    rz, ry = total_quadratures(p, shape, omega)
    out = np.abs(rz) ** 2 + np.abs(ry) ** 2
    if np.ndim(omega) == 0:
        return float(out)
    return out


class PulseOrder(NamedTuple):
    """Leading low-frequency pulse contribution F_pul ~ |amplitude|^2 w^{2(alpha+1)}.

    alpha, amplitude      closed-form order and prefactor for the shape
    alpha_fit             exponent recovered from a log-log fit of the
                          dominant quadrature of this specific pattern
    amplitude_fit         prefactor recovered from the same fit
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

    Primitive: (1, -T_p tau_pi / pi), dominant quadrature r_y.
    DCG:       (2, -2i T_p tau_pi^2 / (1 + 1/pi^2)), dominant quadrature
               the pulse part of r_z.

    The closed pair assumes a balanced base pattern (alternating-sign pulse
    centers summing to T_p/2, as for the concatenated family).  The fit
    Taylor-expands the dominant quadrature of the actual pattern near
    omega = 0; a disagreement beyond 10% in amplitude, or a shifted
    exponent (odd switching parity lowers it by one), is reported in
    `warning` rather than raised.
    """
    if shape.kind == BANG_BANG:
        raise DomainError("bang-bang pulses carry no finite-width contribution")
    if not p.pulse_times:
        raise DomainError(f"pattern {p.label!r} has no pulses")
    t_p = p.duration
    tau = shape.tau_pi
    if shape.kind == PRIMITIVE:
        alpha = 1
        amplitude = complex(-t_p * tau / math.pi)
    else:
        alpha = 2
        amplitude = -2j * t_p * tau * tau / (1.0 + 1.0 / math.pi**2)

    grid = np.geomspace(_FIT_LO / t_p, _FIT_HI / t_p, _FIT_POINTS)
    dz, ry = _pulse_terms(p, shape, grid)
    dominant = ry if shape.kind == PRIMITIVE else dz
    mags = np.abs(dominant)
    if not np.all(mags > 0.0):
        raise DomainError("dominant pulse quadrature vanishes on the fit window")
    slope = float(np.polyfit(np.log(grid), np.log(mags), 1)[0])
    alpha_fit = slope - 1.0

    # Richardson step kills the O(omega) correction in q(omega)/omega^(alpha+1)
    w1 = grid[0]
    dz2, ry2 = _pulse_terms(p, shape, np.array([2.0 * w1]))
    q1 = dominant[0]
    q2 = (ry2 if shape.kind == PRIMITIVE else dz2)[0]
    a1 = q1 / w1 ** (alpha + 1)
    a2 = q2 / (2 * w1) ** (alpha + 1)
    amplitude_fit = complex(2.0 * a1 - a2)
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
