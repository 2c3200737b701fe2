"""Decoupling-error integrals over the noise band.

The stored error of a sequence is the band-limited overlap

    chi = integral from omega_min to omega_max of
          S(omega) * F(omega) / omega^2  domega,

with S in rad/s and F the (dimensionless) filter function.  Spectra in
this package are normalized so that the free-evolution calibration
chi(free(T2)) = 1 holds under this convention; see the preset files.

m-fold repetition multiplies the base filter by the Dirichlet kernel
sin^2(m w T_p/2)/sin^2(w T_p/2), which oscillates on the scale
2 pi/(m T_p) and spikes as m^2 at the resonances w_k = 2 pi k/T_p.
A blind adaptive integrator misses those spikes, so integration panels
are aligned to the kernel nodes, the quiet region below 1/T is covered
by a log ladder, and the spectrum's cutoff is always a panel edge.
For m above a configurable crossover the kernel is replaced by its
exact period integral (weight 2 pi m/T_p at each resonance) plus the
de-oscillated local average 1/(2 sin^2(w T_p/2)) and a symmetrized
finite-part correction per resonance cell; the two evaluation paths
are cross-checked at the crossover the first time the fast path is
used for a given problem.  With m -> infinity the same comb walk, minus
the masses that grow with m, is the plateau level chi_plateau_limit.

Every flavour builds its integrand with one rows factory: the ideal and
total filter rows S F / omega^2, times an optional kernel (the Dirichlet
factor or the de-oscillated 1/(2 sin^2(omega T_p/2))).  Direct
integrals run through integrate_rows, and one assembler turns the
per-region totals into an ErrorBudget.  Panel integrals use a 7-point
Gauss / 15-point Kronrod pair evaluated in batches, and every region
total is a correctly rounded math.fsum, so results do not depend on
summation order or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import AccuracyError, ConsistencyError, DomainError
from .filters import dirichlet_factor
from .noise import HARD, NoiseSpectrum, evaluate
from .pulses import BANG_BANG, PulseShape, bang_bang, quadrature_components
from .sequences import TimingPattern, repeat_pattern, truncate

__all__ = [
    "QuadratureConfig",
    "DEFAULT_CONFIG",
    "ErrorBudget",
    "chi",
    "chi_repeated",
    "chi_during",
    "chi_plateau_limit",
    "integrate_rows",
]

# 15-point Kronrod extension of 7-point Gauss, nonnegative abscissae
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

# full 15-node arrays, ascending
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK15 = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG7 = np.zeros(15)
_WG7[[1, 3, 5]] = _WG[:3]
_WG7[7] = _WG[3]
_WG7[[9, 11, 13]] = _WG[:3][::-1]

_LADDER_PER_DECADE = 8
_WALK_BLOCK_LOBES = 1024
_TAIL_SHARE = 0.25  # of rel_tol, spent on the truncated tail
_MAX_REFINE_ROUNDS = 60
_EXPLICIT_REPEAT_LIMIT = 64  # odd finite-pulse bases: build the pattern outright

RowsFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class QuadratureConfig:
    """Accuracy and resource knobs for the error integrals.

    rel_tol            target relative error of chi_total
    abs_floor          absolute error floor (values below it count as met)
    max_panels         evaluation budget per integral
    comb_crossover     repeat count above which the resonance-comb path runs
    validate_crossover cross-check comb vs direct at the crossover once
    """

    rel_tol: float = 1e-6
    abs_floor: float = 1e-18
    max_panels: int = 200_000
    comb_crossover: int = 10_000
    validate_crossover: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.rel_tol < 1:
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.abs_floor < 0:
            raise DomainError("abs_floor must be nonnegative")
        if self.max_panels < 64:
            raise DomainError("max_panels must be at least 64")
        if self.comb_crossover < 16:
            raise DomainError("comb_crossover must be at least 16")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class ErrorBudget:
    """Decoupling error and its decomposition for one stored-state scenario.

    chi_total = chi_low + chi_high (split at the spectrum's cutoff) and
    also chi_bb + chi_pul (ideal-pulse part vs finite-width excess).
    coherence = exp(-chi_total).  m is the repeat count of the evaluated
    pattern (None for asymptotic estimates).  quad_error bounds the
    numerical error of chi_total; growth_per_repeat, comb_path and
    comb_agreement are filled by the resonance-comb evaluation path.
    """

    chi_total: float
    chi_bb: float
    chi_pul: float
    chi_low: float
    chi_high: float
    coherence: float
    m: Optional[int] = 1
    quad_error: float = 0.0
    growth_per_repeat: Optional[float] = None
    comb_path: bool = False
    comb_agreement: Optional[float] = None


class _PanelBudget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def spend(self, count: int) -> None:
        self.used += count
        if self.used > self.limit:
            raise _BudgetExhausted(self.limit)


class _BudgetExhausted(AccuracyError):
    """Panel budget spent; integrate_rows and _chi_comb re-raise it with the partial estimate."""

    def __init__(self, limit: int) -> None:
        super().__init__(
            f"quadrature budget of {limit} panels exhausted", estimate=math.nan, error_bound=math.inf
        )


def _eval_panels(rows_fn: RowsFn, a: np.ndarray, b: np.ndarray):
    """Batched G7/K15 on panels [a_i, b_i]: (integrals (R, P), error (P,))."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = rows_fn(x.ravel())
    vals = vals.reshape(vals.shape[0], len(a), 15)
    integrals = vals @ _WK15 * half
    gauss0 = vals[0] @ _WG7 * half
    err = np.abs(integrals[0] - gauss0)
    return integrals, err


def _adaptive_region(
    rows_fn: RowsFn, edges: np.ndarray, cfg: QuadratureConfig, budget: _PanelBudget
):
    """Refine panels between fixed edges until the K15-G7 gap is within tolerance.

    Returns (left_edges, row_integrals (R, P), total_error), panels sorted by
    position so downstream sums are order-stable.
    """
    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    keep = b > a
    a, b = a[keep], b[keep]
    if a.size == 0:
        return a, np.zeros((2, 0)), 0.0
    budget.spend(a.size)
    integrals, err = _eval_panels(rows_fn, a, b)
    for _ in range(_MAX_REFINE_ROUNDS):
        total = float(np.sum(integrals[0]))
        err_total = float(np.sum(err))
        tol = max(cfg.rel_tol * abs(total), cfg.abs_floor)
        if err_total <= tol:
            break
        split = err > max(err_total / (4 * len(a)), 1e-3 * float(err.max()))
        if not split.any():
            split[int(np.argmax(err))] = True
        budget.spend(int(split.sum()))
        mids = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[split], mids])
        new_b = np.concatenate([mids, b[split]])
        new_integrals, new_err = _eval_panels(rows_fn, new_a, new_b)
        a = np.concatenate([a[~split], new_a])
        b = np.concatenate([b[~split], new_b])
        integrals = np.concatenate([integrals[:, ~split], new_integrals], axis=1)
        err = np.concatenate([err[~split], new_err])
    else:
        raise _BudgetExhausted(budget.limit)
    order = np.argsort(a, kind="stable")
    return a[order], integrals[:, order], float(np.sum(err))


def _ladder_and_lobes(w_lo: float, w_hi: float, lobe: float) -> np.ndarray:
    """Log ladder while spacing < lobe width, then half-lobe edges on the node grid."""
    if w_hi <= w_lo:
        return np.array([w_lo, w_hi])
    w_switch = min(w_hi, max(w_lo, 3.0 * lobe))
    edges = [w_lo]
    if w_switch > w_lo:
        n_ladder = max(2, int(math.ceil(_LADDER_PER_DECADE * math.log10(w_switch / w_lo))))
        edges = list(np.geomspace(w_lo, w_switch, n_ladder + 1))
    if w_switch < w_hi:
        half = 0.5 * lobe
        j0 = int(math.floor(w_switch / half)) + 1
        j1 = int(math.ceil(w_hi / half))
        grid = np.arange(j0, j1) * half
        edges.extend(grid[(grid > w_switch) & (grid < w_hi)])
        edges.append(w_hi)
    return np.asarray(edges)


def _with_breakpoint(edges: np.ndarray, x: float) -> np.ndarray:
    if not (edges[0] < x < edges[-1]):
        return edges
    i = int(np.searchsorted(edges, x))
    if math.isclose(edges[i - 1], x, rel_tol=1e-12) or math.isclose(
        edges[min(i, len(edges) - 1)], x, rel_tol=1e-12
    ):
        return edges
    return np.insert(edges, i, x)


def _tail_envelope(spec: NoiseSpectrum, w_from: float, ff_bound: float) -> float:
    """Upper estimate of ff_bound * integral of S/w^2 over [w_from, omega_max]."""
    if w_from >= spec.omega_max:
        return 0.0
    grid = np.geomspace(w_from, spec.omega_max, 257)
    s = evaluate(spec, grid)
    return 2.0 * ff_bound * float(np.trapezoid(s / grid**2, grid))


class _Accumulator:
    """Contributions (2, P) at frequencies (P,), split at the cutoff.

    The totals are math.fsum over each region, which is correctly rounded,
    so they depend neither on the order contributions arrive in nor on
    how the work was divided.
    """

    def __init__(self, omega_c: float) -> None:
        self.omega_c = omega_c
        self.at: List[np.ndarray] = [np.zeros(0)]
        self.rows: List[np.ndarray] = [np.zeros((2, 0))]
        self.total = 0.0  # running sum of row 0, for tail checks
        self.err = 0.0

    def add(self, at, rows: np.ndarray, err: float = 0.0) -> None:
        self.at.append(np.atleast_1d(at))
        self.rows.append(np.reshape(rows, (2, -1)))
        self.total += float(np.sum(self.rows[-1][0]))
        self.err += err

    def totals(self) -> Tuple[np.ndarray, np.ndarray]:
        low = np.concatenate(self.at) < self.omega_c
        rows = np.concatenate(self.rows, axis=1)
        return (
            np.array([math.fsum(r[low]) for r in rows]),
            np.array([math.fsum(r[~low]) for r in rows]),
        )


def _integrate_band(
    rows_fn: RowsFn,
    spec: NoiseSpectrum,
    t_osc: float,
    ff_bound: float,
    cfg: QuadratureConfig,
    budget: _PanelBudget,
    acc: _Accumulator,
) -> None:
    """Walk the band from omega_min upward; stop once the remaining tail is negligible.

    ff_bound must upper-bound the filter rows divided by S/w^2, with any
    repetition kernel counted through its exact period integral (an extra
    factor m); the tail estimate uses it to certify early termination.
    """
    w_lo, w_hi = spec.omega_min, spec.omega_max
    if spec.rolloff == HARD:
        w_hi = min(w_hi, spec.omega_c)
    if not w_lo < w_hi:
        return
    lobe = math.pi / t_osc
    core_hi = min(w_hi, max(1.25 * spec.omega_c, w_lo * 10.0, 6.0 * lobe))
    edges = _with_breakpoint(_ladder_and_lobes(w_lo, core_hi, lobe), spec.omega_c)
    acc.add(*_adaptive_region(rows_fn, edges, cfg, budget))
    w = core_hi
    while w < w_hi:
        w_next = min(w_hi, w + _WALK_BLOCK_LOBES * lobe)
        edges = _with_breakpoint(_ladder_and_lobes(w, w_next, lobe), spec.omega_c)
        acc.add(*_adaptive_region(rows_fn, edges, cfg, budget))
        w = w_next
        if w >= w_hi:
            break
        tail = _tail_envelope(spec, w, ff_bound)
        if tail <= max(cfg.abs_floor, _TAIL_SHARE * cfg.rel_tol * acc.total):
            acc.err += tail
            break


def _ff_rows_factory(
    p: TimingPattern, shape: PulseShape, spec: NoiseSpectrum, kernel: Optional[RowsFn] = None
) -> RowsFn:
    """Rows [S*F_total/w^2, S*F_ideal/w^2], each times kernel(w) when one is given."""

    def rows(w: np.ndarray) -> np.ndarray:
        base, dz, ry = quadrature_components(p, shape, w)
        f_bb = np.abs(base) ** 2
        if dz is None:
            f_total = f_bb
        else:
            f_total = np.abs(base + dz) ** 2 + np.abs(ry) ** 2
        weight = evaluate(spec, w) / w**2
        if kernel is not None:
            weight = weight * kernel(w)
        return np.stack([f_total * weight, f_bb * weight])

    return rows


def _assemble(
    low: np.ndarray,
    high: np.ndarray,
    err: float,
    m: Optional[int],
    growth: Optional[float] = None,
    comb_path: bool = False,
) -> ErrorBudget:
    # finite-part cell corrections may dip a region slightly negative
    for region in (low, high):
        for i in range(2):
            if region[i] < 0:
                err += abs(float(region[i]))
                region[i] = 0.0
    chi_low = float(low[0])
    chi_high = float(high[0])
    chi_total = chi_low + chi_high
    chi_bb = float(low[1] + high[1])
    chi_pul = chi_total - chi_bb
    if chi_pul < 0:
        # cross terms can undershoot by quadrature noise; fold it into the bound
        err += abs(chi_pul)
        chi_pul = 0.0
    return ErrorBudget(
        chi_total=chi_total,
        chi_bb=min(chi_bb, chi_total),
        chi_pul=chi_pul,
        chi_low=chi_low,
        chi_high=chi_high,
        coherence=math.exp(-chi_total),
        m=m,
        quad_error=err,
        growth_per_repeat=growth,
        comb_path=comb_path,
    )


def integrate_rows(
    rows_fn: RowsFn,
    spec: NoiseSpectrum,
    t_osc: float,
    ff_bound: float,
    config: Optional[QuadratureConfig] = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Band integral of caller-supplied nonnegative rows [control, secondary].

    t_osc is the slowest coherent timescale of the rows (sets panel width),
    ff_bound a global upper bound of rows[0] * w^2 / S(w).  Returns (low,
    high, error) with low/high the per-row sums below/above the cutoff.
    The band integrator behind chi, direct chi_repeated and chi_with_jitter.
    """
    cfg = config or DEFAULT_CONFIG
    acc = _Accumulator(spec.omega_c)
    try:
        _integrate_band(rows_fn, spec, t_osc, ff_bound, cfg, _PanelBudget(cfg.max_panels), acc)
    except _BudgetExhausted as exc:
        raise AccuracyError(
            str(exc),
            estimate=acc.total,
            error_bound=acc.err + _tail_envelope(spec, spec.omega_min, ff_bound),
        ) from None
    low, high = acc.totals()
    return low, high, acc.err


def chi(
    p: TimingPattern,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> ErrorBudget:
    """Decoupling error of a single run of the pattern over the noise band."""
    return _chi_direct(p, 1, spec, shape or bang_bang(), config or DEFAULT_CONFIG)


def chi_during(
    p: TimingPattern,
    t: float,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> ErrorBudget:
    """Error seen by a readout at time t: pulses before t kept, duration t."""
    return chi(truncate(p, t), spec, shape, config)


def chi_repeated(
    p: TimingPattern,
    m: int,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> ErrorBudget:
    """Error after m back-to-back runs of the pattern.

    The base filter picks up the Dirichlet factor sin^2(m w T_p/2) /
    sin^2(w T_p/2); panels are aligned to its nodes.  Beyond the configured
    crossover the resonance-comb path evaluates the same integral from its
    m -> infinity structure (see chi's module notes), after a one-time
    agreement check between the two paths at the crossover.

    A base pattern with odd pulse count restarts each repeat with a junction
    pulse, which breaks the kernel factorization for finite-width pulses;
    such cases are evaluated by explicit construction for small m and
    rejected beyond that.
    """
    if m < 1:
        raise DomainError(f"repeat count must be at least 1, got {m}")
    shape = shape or bang_bang()
    cfg = config or DEFAULT_CONFIG
    if m == 1:
        return chi(p, spec, shape, cfg)
    odd = p.n_pulses % 2 == 1
    if odd and shape.kind != BANG_BANG:
        if m <= _EXPLICIT_REPEAT_LIMIT:
            budget = chi(repeat_pattern(p, m), spec, shape, cfg)
            return replace(budget, m=m)
        raise DomainError(
            f"pattern {p.label!r} has odd pulse count; with finite-width pulses "
            f"the repetition kernel does not factorize, and m={m} exceeds the "
            f"explicit-construction limit {_EXPLICIT_REPEAT_LIMIT}"
        )
    if m <= cfg.comb_crossover:
        return _chi_direct(p, m, spec, shape, cfg)
    agreement: Optional[float] = None
    if cfg.validate_crossover:
        agreement = _crossover_agreement(p, spec, shape, cfg)
    budget = _chi_comb(p, m, spec, shape, cfg)
    return replace(budget, comb_agreement=agreement)


def _chi_direct(
    p: TimingPattern,
    m: int,
    spec: NoiseSpectrum,
    shape: PulseShape,
    cfg: QuadratureConfig,
) -> ErrorBudget:
    kernel = None if m == 1 else lambda w: dirichlet_factor(m, p.duration, w)
    rows = _ff_rows_factory(p, shape, spec, kernel)
    # the kernel integrates to 2 pi m / T_p per period, so an m-linear
    # envelope certifies the tail: F*D <= per-period mass * base bound
    ff_bound = 4.0 * (p.n_pulses + 1) ** 2 * m
    try:
        low, high, err = integrate_rows(rows, spec, m * p.duration, ff_bound, cfg)
    except AccuracyError as exc:
        repeated = f" repeated {m} times" if m > 1 else ""
        raise AccuracyError(
            f"{exc} for {p.label!r}{repeated}", exc.estimate, exc.error_bound
        ) from None
    return _assemble(low, high, err, m=m)


@lru_cache(maxsize=64)
def _crossover_agreement(
    p: TimingPattern, spec: NoiseSpectrum, shape: PulseShape, cfg: QuadratureConfig
) -> float:
    m0 = cfg.comb_crossover
    direct = _chi_direct(p, m0, spec, shape, cfg)
    comb = _chi_comb(p, m0, spec, shape, cfg)
    scale = max(direct.chi_total, cfg.abs_floor)
    agreement = abs(comb.chi_total - direct.chi_total) / scale
    if direct.chi_total <= cfg.abs_floor:
        return 0.0
    if agreement > 0.10:
        raise ConsistencyError(
            f"comb and direct evaluations disagree by {agreement:.1%} at the "
            f"crossover m={m0} for {p.label!r} (direct {direct.chi_total:.6e}, "
            f"comb {comb.chi_total:.6e})",
            estimate=comb.chi_total,
            error_bound=abs(comb.chi_total - direct.chi_total),
        )
    return agreement


def _chi_comb(
    p: TimingPattern,
    m: Optional[int],
    spec: NoiseSpectrum,
    shape: PulseShape,
    cfg: QuadratureConfig,
) -> ErrorBudget:
    """Resonance-comb evaluation of the m-repeat integral, or its plateau part.

    Decomposition over the band, with h = S F / w^2:
      (a) exact kernel panels for the first D-nodes above omega_min,
          where the envelope still varies steeply;
      (b) the de-oscillated average h/(2 sin^2(w T_p/2)) up to the first
          resonance cell boundary pi/T_p;
      (c) per resonance cell k: the exact period mass m (2 pi/T_p) h(w_k)
          plus the symmetrized finite part of the remainder.
    Parts (a)+(b)+finite parts are the plateau value; the cell masses grow
    linearly in m (reported as growth_per_repeat).  With m=None the result
    is the m -> infinity plateau level: (b) starts at omega_min, and
    neither (a), the cell masses nor the O(1/m) model error enter.
    """
    acc = _Accumulator(spec.omega_c)
    try:
        growth = _walk_comb(p, m, spec, shape, cfg, acc)
    except AccuracyError as exc:
        # partial sum; the bound adds the walk's tail envelope over the whole band
        tail_scale = (m + 1) if m is not None else 2
        tail = tail_scale * _tail_envelope(spec, spec.omega_min, 4.0 * (p.n_pulses + 1) ** 2)
        repeated = f" repeated {m} times" if m is not None else ""
        raise AccuracyError(
            f"{exc} for {p.label!r}{repeated}", acc.total, acc.err + tail
        ) from None
    return _assemble(*acc.totals(), acc.err, m=m, growth=growth, comb_path=True)


def _walk_comb(
    p: TimingPattern,
    m: Optional[int],
    spec: NoiseSpectrum,
    shape: PulseShape,
    cfg: QuadratureConfig,
    acc: _Accumulator,
) -> float:
    """_chi_comb's band walk into acc; returns growth_per_repeat."""
    t_p = p.duration
    w_lo, w_hi = spec.omega_min, spec.omega_max
    if spec.rolloff == HARD:
        w_hi = min(w_hi, spec.omega_c)
    if not w_lo < w_hi:
        return 0.0
    budget = _PanelBudget(cfg.max_panels)
    h_rows = _ff_rows_factory(p, shape, spec)
    half_res = math.pi / t_p  # lower edge of the first resonance cell

    # (a) exact kernel region: log ladder low down, node-aligned panels above
    deosc_start = w_lo
    if m is not None:
        node = 2.0 * math.pi / (m * t_p)
        w_a = min(min(1024, max(8, int(0.45 * m))) * node, w_hi, half_res)
        if w_a > w_lo:
            edges = _with_breakpoint(_ladder_and_lobes(w_lo, w_a, 0.5 * node), spec.omega_c)
            kernel_rows = _ff_rows_factory(p, shape, spec, lambda w: dirichlet_factor(m, t_p, w))
            acc.add(*_adaptive_region(kernel_rows, edges, cfg, budget))
            deosc_start = w_a

    # (b) de-oscillated average up to the first cell
    w_b = min(half_res, w_hi)
    deosc_part = 0.0
    if w_b > deosc_start:
        n_geo = max(2, int(math.ceil(_LADDER_PER_DECADE * math.log10(w_b / deosc_start))))
        edges = np.unique(
            np.concatenate(
                [
                    np.geomspace(deosc_start, w_b, n_geo + 1),
                    np.linspace(max(deosc_start, 0.5 * w_b), w_b, 17),
                ]
            )
        )
        edges = _with_breakpoint(edges, spec.omega_c)
        deosc_rows = _ff_rows_factory(p, shape, spec, lambda w: 0.5 / np.sin(0.5 * t_p * w) ** 2)
        lefts, rows_i, err_i = _adaptive_region(deosc_rows, edges, cfg, budget)
        acc.add(lefts, rows_i, err_i)
        deosc_part = float(np.sum(rows_i[0]))

    # (c) resonance cells above pi/T_p
    base_bound = 4.0 * (p.n_pulses + 1) ** 2
    w1 = 2.0 * math.pi / t_p
    growth_rows = np.zeros(2)
    pv_abs = 0.0
    k = 1
    while k * w1 - 0.5 * w1 < w_hi:
        w_k = k * w1
        if w_k > w_hi + 0.5 * w1:
            break
        # zero when the cell centre lies past the band
        h_k = h_rows(np.array([w_k]))[:, 0]
        growth_rows += w1 * h_k
        if m is not None:
            acc.add(w_k, m * w1 * h_k)

        def pv_rows(delta: np.ndarray, w_center=w_k, h_center=h_k) -> np.ndarray:
            upper = h_rows(w_center + delta)
            lower_w = w_center - delta
            lower = np.zeros_like(upper)
            ok = lower_w > 0
            if ok.any():
                lower[:, ok] = h_rows(lower_w[ok])
            return (upper + lower - 2.0 * h_center[:, None]) / (
                2.0 * np.sin(0.5 * t_p * delta) ** 2
            )

        d_min = 1e-6 * w1
        d_max = 0.5 * w1
        edges = np.geomspace(d_min, d_max, 41)
        for crossing in (w_k - spec.omega_c, spec.omega_c - w_k, w_hi - w_k, w_k - w_lo):
            if d_min < crossing < d_max:
                edges = _with_breakpoint(edges, crossing)
        _, rows_i, err_i = _adaptive_region(pv_rows, edges, cfg, budget)
        patch = pv_rows(np.array([d_min]))[:, 0] * d_min
        # a cell centred past the band draws only on its lower half
        acc.add(w_k if w_k <= w_hi else w_k - 0.5 * w1, rows_i.sum(axis=1) + patch, err_i)
        pv_abs += float(np.abs(rows_i[0]).sum()) + abs(float(patch[0]))

        k += 1
        if k > 65536:
            raise AccuracyError(
                "resonance-cell walk did not converge within 65536 cells", math.nan, math.inf
            )
        tail_scale = (m + 1) if m is not None else 2
        tail = tail_scale * _tail_envelope(spec, (k - 0.5) * w1, base_bound)
        if tail <= max(cfg.abs_floor, _TAIL_SHARE * cfg.rel_tol * abs(acc.total)):
            acc.err += tail
            break

    if m is not None:
        # de-oscillation model error is O(1/m) of the averaged parts
        acc.err += (4.0 / m) * (abs(deosc_part) + pv_abs)
    return float(growth_rows[0])


def chi_plateau_limit(
    p: TimingPattern,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> ErrorBudget:
    """Repeat-count-independent part of the repeated error (the plateau level).

    The infinite-repetition limit of chi_repeated minus the linear resonance
    growth: the de-oscillated average below the first resonance plus the
    finite parts of every resonance cell, from the same comb walk as large-m
    chi_repeated.  For a hard cutoff meeting the plateau conditions the
    growth vanishes and this is the exact limit.  growth_per_repeat reports
    the linear term's slope for callers that need the full picture.
    """
    return _chi_comb(p, None, spec, shape or bang_bang(), config or DEFAULT_CONFIG)
