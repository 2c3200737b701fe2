"""Pulse-timing patterns: UDD, CDD, Carr-Purcell, Walsh, concatenation.

A pattern is the ordered list of pi-pulse center times inside a base
sequence of duration T_p. The switching function y(t) starts at +1 and
flips sign at every pulse. Joining two patterns restarts the second
block's switching at +1, which inserts a junction pulse whenever the
first block ends on -1 (odd pulse count); this is the convention under
which y_join(omega) = y1 + exp(i*omega*T1)*y2 holds identically.  So the
bang-bang filter of m repeats is the Dirichlet kernel times the base
filter for any block; finite-width junction pulses add a cross term.

Patterns built on a uniform slot grid carry the integer slot boundaries
so downstream filter evaluation can use exact small-frequency series
coefficients; Uhrig's times are recognised there from the times alone.
A grid whose slot signs are a Walsh function (free evolution, echo, CDD,
every w_k and their power-of-two repeats) also yields its Paley index,
found at construction, which selects the closed-form product transform.
"""

from __future__ import annotations

import math
import numbers
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import DomainError, ResourceLimitError, require_count, require_positive

MAX_REPEAT_PULSES = 10**7

# offset of a pulse time from its grid boundary tolerated, relative to the duration
_GRID_RTOL = 1e-12


@dataclass(frozen=True)
class TimingPattern:
    """Ordered pi-pulse center times t_1 < ... < t_n in (0, duration)."""

    pulse_times: tuple[float, ...]
    duration: float
    label: str
    # (n_slots, interior slot indices of the pulses) when the pattern
    # lives exactly on a uniform grid; None otherwise
    grid: Optional[tuple[int, tuple[int, ...]]] = field(default=None, compare=False)
    # Paley index k when the grid's slot signs are Walsh w_k; None otherwise
    walsh_index: Optional[int] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        # a list or array of times or bounds is stored as a tuple, so patterns hash
        if not isinstance(self.pulse_times, tuple):
            object.__setattr__(self, "pulse_times", tuple(map(float, self.pulse_times)))
        require_positive("pattern duration", self.duration)
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
            try:
                n_slots, bounds = self.grid
                n_slots, bounds = operator.index(n_slots), tuple(map(operator.index, bounds))
            except (TypeError, ValueError):
                raise DomainError(
                    f"grid must be an integer slot count and slot indices, got {self.grid!r}"
                ) from None
            object.__setattr__(self, "grid", (n_slots, bounds))
            if len(bounds) != len(self.pulse_times):
                raise DomainError("grid boundary count does not match pulse count")
            if not all(lo < hi for lo, hi in zip((0, *bounds), (*bounds, n_slots))):
                raise DomainError(
                    f"grid boundaries must increase strictly within (0, n_slots), got {self.grid!r}"
                )
            if not _on_grid(self.pulse_times, self.duration, self.grid):
                raise DomainError("pulse times do not lie on the grid's slot boundaries")
        object.__setattr__(self, "walsh_index", _paley_index(self.grid))

    @property
    def n_pulses(self) -> int:
        return len(self.pulse_times)

    @property
    def end_sign(self) -> int:
        """Sign of the switching function just before the block ends."""
        return -1 if self.n_pulses % 2 else 1


def _check_size(count: int, what: str) -> None:
    """Refuse a pattern of more than MAX_REPEAT_PULSES pulses or slots before building it."""
    if count > MAX_REPEAT_PULSES:
        raise ResourceLimitError(f"pattern would have {count} {what} (limit {MAX_REPEAT_PULSES})")


def free_evolution(duration: float) -> TimingPattern:
    return TimingPattern((), duration, "free", grid=(1, ()))


def echo(duration: float) -> TimingPattern:
    """Spin echo: one pulse at the midpoint."""
    return TimingPattern((duration / 2.0,), duration, "echo", grid=(2, (1,)))


def udd(n: int, t_p: float) -> TimingPattern:
    """Uhrig pattern: n pulses at t_j = T_p * sin^2(pi*j / (2n + 2)).

    n = 0 returns free evolution. Times are mirrored around T_p/2 so the
    symmetry t_j + t_{n+1-j} = T_p holds exactly.
    """
    require_count("pulse count", n, least=0)
    require_positive("duration", t_p)
    if n == 0:
        return free_evolution(t_p)
    _check_size(n, "pulses")
    times = [0.0] * n
    for j in range(1, n // 2 + 1):
        tj = t_p * math.sin(math.pi * j / (2 * n + 2)) ** 2
        times[j - 1] = tj
        times[n - j] = t_p - tj
    if n % 2:
        times[n // 2] = 0.5 * t_p
    return TimingPattern(tuple(times), t_p, f"UDD{n}")


def udd_from_min_interval(n: int, tau: float) -> TimingPattern:
    """Uhrig pattern scaled so its shortest interval (t_1) equals tau."""
    require_count("pulse count", n)
    require_positive("minimum interval", tau)
    return udd(n, tau / math.sin(math.pi / (2 * n + 2)) ** 2)


def cdd(level: int, tau: float) -> TimingPattern:
    """Concatenated sequence of the given level on slots of width tau.

    The switching function is the Thue-Morse sign pattern on 2**level
    slots, equivalently the Walsh pattern of Paley index 2**level - 1.
    Level 1 is spin echo, level 2 is Carr-Purcell (intervals tau, 2*tau,
    tau).
    """
    require_count("level", level)
    # slot width n_slots * tau / n_slots is tau exactly: n_slots is a power of two
    n_slots = 2**level
    return _walsh(n_slots - 1, n_slots * tau, n_slots, f"CDD{level}")


def carr_purcell(tau: float) -> TimingPattern:
    return cdd(2, tau)


def _check_walsh(k: int, n_slots: int) -> None:
    """Raise DomainError unless n_slots is a power of two and k an integer in [0, n_slots)."""
    require_count("slot count", n_slots)
    if n_slots & (n_slots - 1):
        raise DomainError(f"slot count must be a power of two, got {n_slots}")
    if not (isinstance(k, numbers.Integral) and not isinstance(k, bool) and 0 <= k < n_slots):
        raise DomainError(f"Walsh index must be an integer in [0, {n_slots}), got {k!r}")


def walsh_signs(k: int, n_slots: int) -> list[int]:
    """Per-slot signs of the Paley-ordered Walsh function w_k.

    Bit i of k selects the Rademacher factor r_{i+1}, which on 2**q
    slots reads off bit (q-1-i) of the slot index, so the sign of slot j
    is the parity of k & reverse(j), or equally of reverse(k) & j.
    k = 2**q - 1 gives the Thue-Morse pattern.
    """
    return _grid_signs(walsh(k, 1.0, n_slots))


def _walsh_pulses(k: int) -> int:
    """Pulse count of Paley w_k on any grid: the inverse Gray code g of k.

    On 2**q slots the sign of w_k flips at boundary j, 2**t = j & -j its
    lowest bit, when bits q-1-t and up of k have odd parity (see
    walsh_signs), that is when bit q-1-t of g is set.  That bit,
    2**q // (2 (j & -j)), is boundary j's class, and a class holds as many
    boundaries as its value, so w_k flips at g boundaries.
    """
    n = 0
    while k:
        n ^= k
        k >>= 1
    return n


def _grid_signs(p: TimingPattern) -> Optional[list[int]]:
    """Per-slot signs of a grid pattern, +1 first; None off the grid."""
    if p.grid is None:
        return None
    n_slots, bounds = p.grid
    # slot j's sign is the parity of the flips at or before it
    return [-1 if bisect_right(bounds, j) & 1 else 1 for j in range(n_slots)]


def _on_grid(times: tuple[float, ...], duration: float, grid: tuple[int, tuple[int, ...]]) -> bool:
    slot = duration / grid[0]
    return all(abs(t - b * slot) <= _GRID_RTOL * duration for t, b in zip(times, grid[1]))


def _paley_index(grid: Optional[tuple[int, tuple[int, ...]]]) -> Optional[int]:
    """Index k whose Walsh signs flip exactly at the grid's boundaries; None if no k does.

    The grid is w_k when its boundaries are every boundary of the classes
    they fall in (see _walsh_pulses): as many as the OR g of those classes.
    Then g is the inverse Gray code of k, and k = g ^ (g >> 1).
    """
    if grid is None or grid[0] & (grid[0] - 1):
        return None
    n_slots, bounds = grid
    g = 0
    for j in bounds:
        g |= n_slots // (2 * (j & -j))
    return g ^ (g >> 1) if len(bounds) == g else None


def walsh(k: int, t_s: float, n_slots: int) -> TimingPattern:
    """Pattern whose switching function is Walsh w_k on n_slots slots."""
    return _walsh(k, t_s, n_slots, f"W{k}@{n_slots}")


def _walsh(k: int, t_s: float, n_slots: int, label: str) -> TimingPattern:
    """walsh(k, t_s, n_slots) under the given label, its flips read off _walsh_pulses(k)."""
    require_positive("duration", t_s)
    _check_walsh(k, n_slots)
    _check_size(n_slots, "slots")
    g = _walsh_pulses(k)
    bounds = tuple(j for j in range(1, n_slots) if g & (n_slots // (2 * (j & -j))))
    slot = t_s / n_slots
    times = tuple(b * slot for b in bounds)
    return TimingPattern(times, t_s, label, grid=(n_slots, bounds))


def _join(
    blocks: Sequence[TimingPattern], starts: Sequence[float], duration: float, label: str
) -> TimingPattern:
    """Blocks placed at their start times, each restarting its switching at +1.

    A block that follows one ending on -1 gets a junction pulse at its
    start time and, on the joined grid, at its first slot boundary.
    """
    times: list[float] = []
    bounds: list[int] = []
    n_slots = 0
    gridded = all(b.grid is not None for b in blocks)
    for j, (block, start) in enumerate(zip(blocks, starts)):
        if j and blocks[j - 1].end_sign < 0:
            times.append(start)
            bounds.append(n_slots)
        times.extend(start + t for t in block.pulse_times)
        if gridded:
            bounds.extend(n_slots + b for b in block.grid[1])
            n_slots += block.grid[0]
    if gridded:
        # the joined grid holds only where the joined times sit on it (equal
        # slot widths); the pattern's own grid check is the one pass that tells
        try:
            return TimingPattern(tuple(times), duration, label, grid=(n_slots, tuple(bounds)))
        except DomainError:
            pass
    return TimingPattern(tuple(times), duration, label)


def concat(p1: TimingPattern, p2: TimingPattern) -> TimingPattern:
    """Join two patterns; the second block's switching restarts at +1.

    If p1 ends on -1 a junction pulse appears at t = T_1 so that the
    joined switching function is y_1 followed by a fresh copy of y_2.
    """
    t1 = p1.duration
    return _join((p1, p2), (0.0, t1), t1 + p2.duration, f"{p1.label}+{p2.label}")


def repeat_pattern(p: TimingPattern, m: int) -> TimingPattern:
    """Explicit m-fold self-join; brute-force oracle for the repetition kernel.

    Each copy restarts at +1, so an odd-ending base acquires a junction
    pulse at every block boundary. Off any uniform grid (UDD, say) the
    series is exact for the tiled float times j*T_p + t, but their rounding
    is a low-order term (16 copies of UDD5 over 16 us on yb: 6.4 times the
    ideal chi); integrals.chi_repeated is the route for the ideal tiling.
    """
    require_count("repeat count", m)
    if m == 1:
        return p
    junction = 1 if p.end_sign < 0 else 0
    _check_size(m * p.n_pulses + (m - 1) * junction, "pulses")
    starts = [j * p.duration for j in range(m)]
    return _join([p] * m, starts, m * p.duration, f"{p.label}^{m}")


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
