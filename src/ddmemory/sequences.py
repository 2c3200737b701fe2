"""Pulse-timing patterns: UDD, CDD, Carr-Purcell, Walsh, concatenation.

A pattern is the ordered list of pi-pulse center times inside a base
sequence of duration T_p. The switching function y(t) starts at +1 and
flips sign at every pulse. Joining two patterns restarts the second
block's switching at +1, which inserts a junction pulse whenever the
first block ends on -1 (odd pulse count); this is the convention under
which y_join(omega) = y1 + exp(i*omega*T1)*y2 holds identically and
m-fold repetition reproduces the Dirichlet-kernel error formula for
every base block, even- or odd-ending.

Patterns built on a uniform slot grid carry the integer slot boundaries
so downstream filter evaluation can use exact small-frequency series
coefficients; UDD patterns carry their order for the same purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import DomainError, ResourceLimitError

MAX_REPEAT_PULSES = 10**7

# relative slot-width mismatch tolerated when merging grids on join
_GRID_MERGE_RTOL = 1e-12


@dataclass(frozen=True)
class TimingPattern:
    """Ordered pi-pulse center times t_1 < ... < t_n in (0, duration)."""

    pulse_times: tuple[float, ...]
    duration: float
    label: str
    # (n_slots, interior slot indices of the pulses) when the pattern
    # lives exactly on a uniform grid; None otherwise
    grid: Optional[tuple[int, tuple[int, ...]]] = field(default=None, compare=False)
    udd_order: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise DomainError(f"pattern duration must be finite and positive, got {self.duration}")
        prev = 0.0
        for t in self.pulse_times:
            if not math.isfinite(t):
                raise DomainError(f"pulse times must be finite, got {t}")
            if not prev < t:
                raise DomainError(f"pulse times must be strictly increasing, got {t} after {prev}")
            prev = t
        if self.pulse_times and not self.pulse_times[-1] < self.duration:
            raise DomainError(
                f"pulses must lie inside (0, {self.duration}), got {self.pulse_times[-1]}"
            )
        if self.grid is not None:
            n_slots, bounds = self.grid
            if len(bounds) != len(self.pulse_times):
                raise DomainError("grid boundary count does not match pulse count")
            if any(not 0 < b < n_slots for b in bounds):
                raise DomainError("grid boundaries must be interior slot indices")

    @property
    def n_pulses(self) -> int:
        return len(self.pulse_times)

    @property
    def end_sign(self) -> int:
        """Sign of the switching function just before the block ends."""
        return -1 if self.n_pulses % 2 else 1

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "duration_s": self.duration,
            "pulse_times_s": list(self.pulse_times),
        }


def free_evolution(duration: float, label: str = "free") -> TimingPattern:
    return TimingPattern((), duration, label, grid=(1, ()))


def echo(duration: float) -> TimingPattern:
    """Spin echo: one pulse at the midpoint."""
    return TimingPattern((duration / 2.0,), duration, "echo", grid=(2, (1,)))


def udd(n: int, t_p: float) -> TimingPattern:
    """Uhrig pattern: n pulses at t_j = T_p * sin^2(pi*j / (2n + 2)).

    n = 0 returns free evolution. Times are mirrored around T_p/2 so the
    symmetry t_j + t_{n+1-j} = T_p holds exactly.
    """
    if n < 0:
        raise DomainError(f"pulse count must be >= 0, got {n}")
    if not t_p > 0:
        raise DomainError(f"duration must be positive, got {t_p}")
    if n == 0:
        return free_evolution(t_p)
    times = [0.0] * n
    for j in range(1, n // 2 + 1):
        tj = t_p * math.sin(math.pi * j / (2 * n + 2)) ** 2
        times[j - 1] = tj
        times[n - j] = t_p - tj
    if n % 2:
        times[n // 2] = 0.5 * t_p
    return TimingPattern(tuple(times), t_p, f"UDD{n}", udd_order=n)


def udd_from_min_interval(n: int, tau: float) -> TimingPattern:
    """Uhrig pattern scaled so its shortest interval (t_1) equals tau."""
    if n < 1:
        raise DomainError(f"need at least one pulse, got n={n}")
    if not tau > 0:
        raise DomainError(f"minimum interval must be positive, got {tau}")
    return udd(n, tau / math.sin(math.pi / (2 * n + 2)) ** 2)


def _thue_morse_boundaries(n_slots: int) -> tuple[int, ...]:
    # sign of slot j is (-1)**popcount(j); a pulse sits wherever it flips
    parity = [bin(j).count("1") & 1 for j in range(n_slots)]
    return tuple(j for j in range(1, n_slots) if parity[j] != parity[j - 1])


def cdd(level: int, tau: float) -> TimingPattern:
    """Concatenated sequence of the given level on slots of width tau.

    The switching function is the Thue-Morse sign pattern on 2**level
    slots, equivalently the Walsh pattern of Paley index 2**level - 1.
    Level 1 is spin echo, level 2 is Carr-Purcell (intervals tau, 2*tau,
    tau).
    """
    if level < 1:
        raise DomainError(f"level must be >= 1, got {level}")
    if not tau > 0:
        raise DomainError(f"slot width must be positive, got {tau}")
    n_slots = 2**level
    bounds = _thue_morse_boundaries(n_slots)
    times = tuple(b * tau for b in bounds)
    return TimingPattern(times, n_slots * tau, f"CDD{level}", grid=(n_slots, bounds))


def carr_purcell(tau: float) -> TimingPattern:
    return cdd(2, tau)


def walsh_signs(k: int, n_slots: int) -> list[int]:
    """Per-slot signs of the Paley-ordered Walsh function w_k.

    Bit i of k selects the Rademacher factor r_{i+1}, which on 2**q
    slots reads off bit (q-1-i) of the slot index. k = 2**q - 1 gives
    the Thue-Morse pattern.
    """
    if n_slots < 1 or n_slots & (n_slots - 1):
        raise DomainError(f"slot count must be a power of two, got {n_slots}")
    if not 0 <= k < n_slots:
        raise DomainError(f"Walsh index must satisfy 0 <= k < {n_slots}, got {k}")
    q = n_slots.bit_length() - 1
    signs = []
    for j in range(n_slots):
        acc = 0
        for i in range(q):
            if (k >> i) & 1:
                acc ^= (j >> (q - 1 - i)) & 1
        signs.append(-1 if acc else 1)
    return signs


def walsh(k: int, t_s: float, n_slots: int) -> TimingPattern:
    """Pattern whose switching function is Walsh w_k on n_slots slots."""
    if not t_s > 0:
        raise DomainError(f"duration must be positive, got {t_s}")
    signs = walsh_signs(k, n_slots)
    bounds = tuple(j for j in range(1, n_slots) if signs[j] != signs[j - 1])
    slot = t_s / n_slots
    times = tuple(b * slot for b in bounds)
    return TimingPattern(times, t_s, f"W{k}@{n_slots}", grid=(n_slots, bounds))


def concat(p1: TimingPattern, p2: TimingPattern) -> TimingPattern:
    """Join two patterns; the second block's switching restarts at +1.

    If p1 ends on -1 a junction pulse appears at t = T_1 so that the
    joined switching function is y_1 followed by a fresh copy of y_2.
    """
    t1 = p1.duration
    times = list(p1.pulse_times)
    if p1.end_sign < 0:
        times.append(t1)
    times.extend(t1 + t for t in p2.pulse_times)
    grid = None
    if p1.grid is not None and p2.grid is not None:
        n1, b1 = p1.grid
        n2, b2 = p2.grid
        w1 = t1 / n1
        w2 = p2.duration / n2
        if abs(w1 - w2) <= _GRID_MERGE_RTOL * w1:
            bounds = list(b1)
            if p1.end_sign < 0:
                bounds.append(n1)
            bounds.extend(n1 + b for b in b2)
            grid = (n1 + n2, tuple(bounds))
    return TimingPattern(
        tuple(times), t1 + p2.duration, f"{p1.label}+{p2.label}", grid=grid
    )


def repeat_pattern(p: TimingPattern, m: int) -> TimingPattern:
    """Explicit m-fold self-join; brute-force oracle for the repetition kernel.

    Each copy restarts at +1, so an odd-ending base acquires a junction
    pulse at every block boundary.
    """
    if m < 1:
        raise DomainError(f"repeat count must be >= 1, got {m}")
    if m == 1:
        return p
    junction = 1 if p.end_sign < 0 else 0
    total_pulses = m * p.n_pulses + (m - 1) * junction
    if total_pulses > MAX_REPEAT_PULSES:
        raise ResourceLimitError(
            f"repeat would produce {total_pulses} pulses (limit {MAX_REPEAT_PULSES})"
        )
    times: list[float] = []
    for j in range(m):
        base = j * p.duration
        if j and junction:
            times.append(base)
        times.extend(base + t for t in p.pulse_times)
    grid = None
    if p.grid is not None:
        n1, b1 = p.grid
        bounds: list[int] = []
        for j in range(m):
            if j and junction:
                bounds.append(j * n1)
            bounds.extend(j * n1 + b for b in b1)
        grid = (m * n1, tuple(bounds))
    return TimingPattern(tuple(times), m * p.duration, f"{p.label}^{m}", grid=grid)


def min_interval(p: TimingPattern) -> float:
    """Smallest gap in {t_1, t_2 - t_1, ..., T_p - t_n}; T_p when free."""
    if not p.pulse_times:
        return p.duration
    gaps = [p.pulse_times[0]]
    gaps.extend(b - a for a, b in zip(p.pulse_times, p.pulse_times[1:]))
    gaps.append(p.duration - p.pulse_times[-1])
    return min(gaps)


def truncate(p: TimingPattern, t: float) -> TimingPattern:
    """Pattern as seen by a readout at time t: pulses before t, duration t."""
    if not 0 < t <= p.duration:
        raise DomainError(f"readout time must lie in (0, {p.duration}], got {t}")
    if t == p.duration:
        return p
    times = tuple(tj for tj in p.pulse_times if tj < t)
    return TimingPattern(times, t, f"{p.label}|{t:.3e}s")
