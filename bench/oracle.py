"""Independent reference values for the benchmark's correctness checks.

Every reference is a dense piecewise Gauss-Legendre sum of the raw phasor
filter against the benchmark's own S(omega). Nothing here calls
`ddmemory.filters`, `ddmemory.integrals` or `ddmemory.walsh_search`; the
only library function used is `ddmemory.pulses.pulse_quadratures`, the
per-pulse response of a finite-width pulse. Library objects are read only
as data (spectrum fields, pulse kind and width); the reference builds its
own pulse timings.

The reference's own error is the gap between a 12-node and an 8-node rule
on the same panels plus a bound on the truncated tail, so it is a
conservative estimate of the 12-node value's error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

import numpy as np

_LOG_PANELS_PER_DECADE = 16
_X_HI, _W_HI = np.polynomial.legendre.leggauss(12)
_X_LO, _W_LO = np.polynomial.legendre.leggauss(8)
# below this omega*T the phasor sum comes from its Taylor series
_SERIES_THETA = 2.0
_N_MOMENTS = 40
_CHUNK = 1 << 21


@dataclass(frozen=True)
class Ref:
    value: float
    error: float


@dataclass(frozen=True)
class Pattern:
    """Pulse times and duration, built here from the sequence definitions.

    `grid` (slot count) or `udd` (order) marks patterns whose vertex times are
    exact rationals or exact sin^2 values; the low-frequency series then uses
    those exact times, so a high-order zero at omega = 0 is not spoiled by the
    rounding of the float times.
    """

    times: Tuple[float, ...]
    duration: float
    grid: Optional[int] = None
    udd: Optional[int] = None


def _grid_pattern(parity: np.ndarray, slot: float, duration: float) -> Pattern:
    bounds = np.nonzero(np.diff(parity))[0] + 1
    return Pattern(tuple(float(b * slot) for b in bounds), duration, grid=parity.size)


def _paley_parity(k: int, n_slots: int) -> np.ndarray:
    # bit i of k selects Rademacher r_{i+1}, which flips with bit q-1-i of the slot
    q = n_slots.bit_length() - 1
    j = np.arange(n_slots)
    parity = np.zeros(n_slots, dtype=int)
    for i in range(q):
        if (k >> i) & 1:
            parity ^= (j >> (q - 1 - i)) & 1
    return parity


def walsh_pattern(k: int, n_slots: int, t_s: float) -> Pattern:
    """Paley-ordered Walsh w_k on n_slots slots; a pulse at every sign change."""
    return _grid_pattern(_paley_parity(k, n_slots), t_s / n_slots, t_s)


def cdd_pattern(level: int, tau: float) -> Pattern:
    """Concatenated sequence: Thue-Morse signs on 2**level slots of width tau."""
    n = 2**level
    parity = np.array([bin(j).count("1") & 1 for j in range(n)])
    return _grid_pattern(parity, tau, n * tau)


def udd_pattern(n: int, t_p: float) -> Pattern:
    """Uhrig pulses at T_p sin^2(pi j / (2n + 2)), j = 1..n."""
    times = tuple(t_p * math.sin(math.pi * j / (2 * n + 2)) ** 2 for j in range(1, n + 1))
    return Pattern(times, t_p, udd=n)


def truncated(p: Pattern, t: float) -> Pattern:
    """The pattern as a readout at time t sees it: pulses before t, duration t."""
    if t == p.duration:
        return p
    return Pattern(tuple(x for x in p.times if x < t), t)


# -- spectrum ------------------------------------------------------------------


def spectrum(spec, w: np.ndarray, rolloff=None) -> np.ndarray:
    """S(omega) from the spectrum's fields: g (w/wc)^s times the rolloff, banded."""
    rolloff = spec.rolloff if rolloff is None else rolloff
    x = w / spec.omega_c
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        vals = spec.g * x**spec.s
        if rolloff == "hard":
            vals = np.where(x > 1.0, 0.0, vals)
        elif rolloff == "gaussian":
            vals = vals * np.exp(-np.minimum(x * x, 745.0))
        else:
            vals = np.where(x > 1.0, spec.g * x ** (-rolloff.r), vals)
    return np.where((w < spec.omega_min) | (w > spec.omega_max), 0.0, vals)


# -- filter --------------------------------------------------------------------


def _vertices(p: Pattern) -> Tuple[np.ndarray, np.ndarray]:
    n = len(p.times)
    t = np.array((0.0,) + p.times + (p.duration,))
    c = np.empty(n + 2)
    c[0] = 1.0
    c[1 : n + 1] = 2.0 * (-1.0) ** np.arange(1, n + 1)
    c[n + 1] = (-1.0) ** (n + 1)
    return t, c


@lru_cache(maxsize=1024)
def _moments(p: Pattern) -> Tuple[float, ...]:
    """mu_k with omega*y = sum_k mu_k (i omega T)^k, summed in 60-digit arithmetic."""
    import mpmath as mp

    t, c = _vertices(p)
    with mp.workdps(60):
        if p.grid:
            taus = [mp.mpf(round(x * p.grid / p.duration)) / p.grid for x in t[1:]]
        elif p.udd:
            n = p.udd
            taus = [mp.sin(mp.pi * j / (2 * n + 2)) ** 2 for j in range(1, n + 1)] + [mp.mpf(1)]
        else:
            taus = [mp.mpf(float(x)) / mp.mpf(p.duration) for x in t[1:]]
        coeffs = [int(x) for x in c[1:]]
        powers = list(taus)
        out, kfac = [], mp.mpf(1)
        for k in range(1, _N_MOMENTS + 1):
            kfac *= k
            out.append(float(mp.fsum(ci * pw for ci, pw in zip(coeffs, powers)) / kfac))
            powers = [pw * x for pw, x in zip(powers, taus)]
    return tuple(out)


def _phasors(p: Pattern, w: np.ndarray, with_pulses: bool):
    """(omega*y, u) with u = sum_l (-1)^l exp(i w t_l) over the pulses.

    Both come from one table of exp(i w t) - 1 = -2 sin^2(w t/2) + i sin(w t)
    at the vertex times, which removes the zeroth-order cancellation (the
    vertex weights sum to zero). Below omega*T = 2 the remaining cancellation
    of a high-order zero is avoided by the Taylor series in omega*T.
    """
    t, c = _vertices(p)
    signs = (-1.0) ** np.arange(1, t.size - 1)
    inner = slice(1, t.size - 1)
    oy = np.empty(w.shape, dtype=complex)
    u = np.empty(w.shape, dtype=complex) if with_pulses else None
    step = max(1, _CHUNK // t.size)
    for lo in range(0, w.size, step):
        ph = np.multiply.outer(w[lo : lo + step], t)
        half = np.sin(0.5 * ph)
        em1 = -2.0 * half * half + 1j * np.sin(ph)
        oy[lo : lo + step] = em1 @ c
        if with_pulses:
            u[lo : lo + step] = em1[:, inner] @ signs + signs.sum()
    small = w * p.duration <= _SERIES_THETA
    if small.any():
        z = 1j * w[small] * p.duration
        acc = np.zeros(z.shape, dtype=complex)
        for mu in reversed(_moments(p)):
            acc = (acc + mu) * z
        oy[small] = acc
    return oy, u


def filter_totals(p: Pattern, shapes: Sequence, w: np.ndarray) -> np.ndarray:
    """|r_z|^2 + |r_y|^2 per pulse shape, rows in the order of `shapes`.

    The phasor sums are shared; only the per-pulse response differs by shape.
    """
    finite = [s.kind != "bang_bang" and bool(p.times) for s in shapes]
    base, u = _phasors(p, w, any(finite))
    out = np.empty((len(shapes), w.size))
    for row, (shape, fin) in enumerate(zip(shapes, finite)):
        if not fin:
            out[row] = np.abs(base) ** 2
            continue
        from ddmemory.pulses import pulse_quadratures

        rz_pul, ry_pul = pulse_quadratures(shape, w)
        half = np.exp(-0.5j * shape.tau_pi * w)
        rz = base + (-4.0 * np.sin(0.25 * shape.tau_pi * w) ** 2 - half * rz_pul) * u
        ry = -half * ry_pul * u
        out[row] = np.abs(rz) ** 2 + np.abs(ry) ** 2
    return out


def filter_total(p: Pattern, shape, w: np.ndarray) -> np.ndarray:
    return filter_totals(p, (shape,), w)[0]


def dirichlet(m: int, duration: float, w: np.ndarray) -> np.ndarray:
    """sin^2(m w T/2) / sin^2(w T/2), with the m^2 limit at the resonances."""
    theta = 0.5 * w * duration
    d = theta - np.round(theta / math.pi) * math.pi
    near = np.abs(d) < 1e-8
    safe = np.where(near, 1.0, d)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.sin(m * safe) / np.sin(safe)
    return np.where(near, float(m) * m, ratio * ratio)


# -- integration ---------------------------------------------------------------


def _panel_edges(w_lo: float, w_hi: float, period: float, breaks: Sequence[float]) -> np.ndarray:
    """Log panels up to a few periods, then one panel per period on the period grid."""
    w_sw = min(w_hi, max(w_lo, 4.0 * period))
    n_log = max(2, int(math.ceil(_LOG_PANELS_PER_DECADE * math.log10(w_sw / w_lo)))) if w_sw > w_lo else 0
    edges = [np.geomspace(w_lo, w_sw, n_log + 1)] if n_log else [np.array([w_lo])]
    if w_hi > w_sw:
        grid = np.arange(math.floor(w_sw / period) + 1, math.ceil(w_hi / period)) * period
        edges.append(grid[(grid > w_sw) & (grid < w_hi)])
        edges.append(np.array([w_hi]))
    out = np.concatenate(edges)
    inner = [b for b in breaks if w_lo < b < w_hi]
    return np.unique(np.concatenate([out, inner])) if inner else out


def _gauss(integrand, edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row panel sums of a (rows, points) integrand: (values, error estimates)."""
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = np.concatenate([(mid[:, None] + half[:, None] * _X_HI).ravel(),
                        (mid[:, None] + half[:, None] * _X_LO).ravel()])
    vals = np.atleast_2d(integrand(x))
    n_hi = a.size * _X_HI.size
    hi = (vals[:, :n_hi].reshape(len(vals), a.size, -1) @ _W_HI) * half
    lo = (vals[:, n_hi:].reshape(len(vals), a.size, -1) @ _W_LO) * half
    return (np.array([math.fsum(r) for r in hi]),
            np.array([math.fsum(r) for r in np.abs(hi - lo)]))


def _tail(spec, w_from: float, w_to: float, scale: float, rolloff) -> float:
    if w_from >= w_to:
        return 0.0
    grid = np.geomspace(w_from, w_to, 513)
    f = spectrum(spec, grid, rolloff) / grid**2
    return 2.0 * scale * float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(grid)))


def _band_top(spec, w_hi: float, scale: float, rolloff, target: float) -> float:
    """Lowest multiple of omega_c past which the bounded tail is below target."""
    x = 4.0
    while x * spec.omega_c < w_hi:
        if _tail(spec, x * spec.omega_c, w_hi, scale, rolloff) <= target:
            return x * spec.omega_c
        x += 1.0
    return w_hi


def chi_refs(
    p: Pattern,
    spec,
    shapes: Sequence,
    m: int = 1,
    kernel: str = "dirichlet",
    w_cap: Optional[float] = None,
    rolloff=None,
) -> List[Ref]:
    """References for integral S F K / w^2 over the band, one per pulse shape.

    K is the m-fold Dirichlet kernel, or with kernel="deosc" the plateau
    integrand 1/(2 sin^2(w T/2)), which needs w_cap below the first resonance.
    """
    rolloff = spec.rolloff if rolloff is None else rolloff
    t_p = p.duration
    w_lo = spec.omega_min
    w_hi = spec.omega_max if w_cap is None else min(w_cap, spec.omega_max)
    if rolloff == "hard":
        w_hi = min(w_hi, spec.omega_c)
    n_osc = m if kernel == "dirichlet" else 1
    period = 2.0 * math.pi / (n_osc * t_p)
    f_bound = 4.0 * (len(p.times) + 2) ** 2
    k_bound = float(m) if kernel == "dirichlet" else 1.0 / (2.0 * math.sin(0.5 * t_p * w_lo) ** 2)

    def integrand(w: np.ndarray) -> np.ndarray:
        if kernel == "dirichlet":
            k = dirichlet(m, t_p, w) if m > 1 else 1.0
        else:
            k = 1.0 / (2.0 * np.sin(0.5 * t_p * w) ** 2)
        return spectrum(spec, w, rolloff) / w**2 * k * filter_totals(p, shapes, w)

    # a coarse pass fixes the scale the truncated tail is measured against
    rough, _ = _gauss(integrand, np.geomspace(w_lo, w_hi, 400))
    scale = f_bound * k_bound
    top = _band_top(spec, w_hi, scale, rolloff, 1e-12 * float(np.min(np.abs(rough))))
    edges = _panel_edges(w_lo, top, period, (spec.omega_c,))
    values, errors = _gauss(integrand, edges)
    tail = _tail(spec, top, w_hi, scale, rolloff)
    return [Ref(float(v), float(e) + tail) for v, e in zip(values, errors)]


def chi_ref(p: Pattern, spec, shape, m: int = 1, **kw) -> Ref:
    return chi_refs(p, spec, (shape,), m, **kw)[0]


def growth_ref(p: Pattern, spec, shape) -> float:
    """Per-repeat resonance mass sum_k (2 pi / T) S F / w^2 at w_k = 2 pi k / T."""
    w1 = 2.0 * math.pi / p.duration
    w_hi = spec.omega_max if spec.rolloff != "hard" else min(spec.omega_max, spec.omega_c)
    k = np.arange(1, int(w_hi / w1) + 1)
    if k.size == 0:
        return 0.0
    wk = k * w1
    h = spectrum(spec, wk) / wk**2 * filter_total(p, shape, wk)
    return math.fsum(w1 * h)


def filter_max(p: Pattern, lo: float, hi: float) -> float:
    """Max of the bang-bang filter on [lo, hi]: dense log grid, then golden section."""
    bb = SimpleNamespace(kind="bang_bang", tau_pi=0.0)
    grid = np.geomspace(lo, hi, max(256, int(16384 * math.log10(hi / lo))))
    vals = filter_total(p, bb, grid)
    i = int(np.argmax(vals))
    a, b = grid[max(0, i - 1)], grid[min(grid.size - 1, i + 1)]
    best = float(vals[i])
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        c, d = b - g * (b - a), a + g * (b - a)
        fc, fd = filter_total(p, bb, np.array([c, d]))
        if fc > fd:
            b = d
        else:
            a = c
        best = max(best, float(fc), float(fd))
    return best


def within(value: float, quad_error: float, rel_tol: float, ref: Ref) -> bool:
    """|chi - ref| <= max(quad_error, rel_tol * chi) + the reference's own error."""
    if not math.isfinite(value):
        return False
    return abs(value - ref.value) <= max(quad_error, rel_tol * abs(value)) + ref.error
