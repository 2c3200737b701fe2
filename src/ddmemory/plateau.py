"""Coherence-plateau conditions, asymptotic error, and lifetime bounds.

A periodically repeated sequence stops accumulating error (a coherence
plateau) when three inequalities hold: the ideal-pulse filter must rise
fast enough against the low-frequency noise (s + 2*alpha_p > 1), the
finite-width pulse contribution must do the same (s + 2*alpha_pul > 1),
and the spectral cutoff must sit below the first filter resonance
(T_p * omega_c < 2*pi, i.e. x = T_p*omega_c/(2*pi) < 1).

When they hold, the asymptotic error is the de-oscillated integral

    chi_inf = integral up to omega_c of
              S(omega) F_p(omega) / (2 omega^2 sin^2(omega T_p/2)) domega,

evaluated numerically as the plateau level chi_plateau_limit on the
band clamped at omega_c (authoritative) and, for a hard cutoff, by the
leading-order closed form per contribution 2 g |A|^2 omega_c^(2a-1) /
(T_p^2 (s + 2a - 1)).

Lifetime bounds cover three failure mechanisms: spectral weight above
the cutoff (power-law rolloff curbs the usable repeat count m_max),
access jitter when appending a read delay to the repeated block, and a
residual Markovian noise floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, NamedTuple, Optional

import numpy as np

from .errors import DivergenceError, DomainError
from .filters import dirichlet_ratio, passband_max, suppression_order
from .integrals import (
    ErrorBudget,
    QuadratureConfig,
    _assemble,
    chi_plateau_limit,
    integrate_rows,
)
from .noise import HARD, NoiseSpectrum, PowerLaw, evaluate
from .pulses import BANG_BANG, PulseShape, bang_bang, pulse_order, quadrature_components
from .sequences import TimingPattern

__all__ = [
    "ConditionCheck",
    "ResonanceCheck",
    "PlateauReport",
    "MMaxDetail",
    "check_conditions",
    "chi_asymptotic",
    "chi_infinity_leading_order",
    "m_max_soft",
    "m_max_soft_detail",
    "chi_with_jitter",
    "jitter_tolerance",
    "markovian_limit",
    "plateau_report",
]

# coefficient of the level-4 concatenated specialization, 3*pi^6/(5*2^25)
_CDD4_COEFF = 3.0 * math.pi**6 / (5.0 * 2.0**25)


@dataclass(frozen=True)
class ConditionCheck:
    """One plateau inequality: margin > 0 means satisfied."""

    passed: bool
    margin: float


@dataclass(frozen=True)
class ResonanceCheck:
    """Cutoff-below-resonance condition; x = T_p*omega_c/(2*pi) < 1."""

    passed: bool
    x: float


@dataclass(frozen=True)
class PlateauReport:
    """Plateau conditions plus, when requested, error level and lifetimes.

    condition_lowfreq_pul is None for bang-bang pulses (nothing to check).
    m_max_bound: usable repeat count under a power-law rolloff, math.inf
    for a hard cutoff meeting every condition, None when not applicable.
    t_max maps mechanism name to a lifetime in seconds.
    """

    condition_lowfreq_bb: ConditionCheck
    condition_lowfreq_pul: Optional[ConditionCheck]
    condition_resonance: ResonanceCheck
    all_conditions_met: bool
    chi_infinity: Optional[ErrorBudget] = None
    chi_infinity_closed: Optional[float] = None
    m_max_bound: Optional[float] = None
    t_max: Optional[Dict[str, float]] = None
    jitter_tolerance_s: Optional[float] = None


def check_conditions(
    p: TimingPattern, spec: NoiseSpectrum, shape: Optional[PulseShape] = None
) -> PlateauReport:
    """Evaluate the three plateau inequalities with margins, nothing else."""
    shape = shape or bang_bang()
    alpha_p = suppression_order(p).alpha
    margin_bb = spec.s + 2.0 * alpha_p - 1.0
    cond_bb = ConditionCheck(margin_bb > 0.0, margin_bb)
    cond_pul: Optional[ConditionCheck] = None
    if shape.kind != BANG_BANG and p.n_pulses > 0:
        alpha_pul = pulse_order(p, shape).alpha
        margin_pul = spec.s + 2.0 * alpha_pul - 1.0
        cond_pul = ConditionCheck(margin_pul > 0.0, margin_pul)
    x = p.duration * spec.omega_c / (2.0 * math.pi)
    cond_res = ResonanceCheck(x < 1.0, x)
    met = cond_bb.passed and cond_res.passed and (cond_pul is None or cond_pul.passed)
    return PlateauReport(
        condition_lowfreq_bb=cond_bb,
        condition_lowfreq_pul=cond_pul,
        condition_resonance=cond_res,
        all_conditions_met=met,
    )


def _raise_if_divergent(report: PlateauReport, spec: NoiseSpectrum) -> None:
    if not report.condition_lowfreq_bb.passed:
        raise DivergenceError(
            "asymptotic error diverges: s + 2*alpha_p > 1 fails "
            f"(s={spec.s}, margin={report.condition_lowfreq_bb.margin:+g})"
        )
    if report.condition_lowfreq_pul is not None and not report.condition_lowfreq_pul.passed:
        raise DivergenceError(
            "asymptotic error diverges: s + 2*alpha_pul > 1 fails "
            f"(s={spec.s}, margin={report.condition_lowfreq_pul.margin:+g})"
        )
    if not report.condition_resonance.passed:
        raise DivergenceError(
            "no plateau: T_p*omega_c < 2*pi fails "
            f"(x = T_p*omega_c/(2*pi) = {report.condition_resonance.x:g} >= 1)"
        )


def _zero_budget() -> ErrorBudget:
    return ErrorBudget(
        chi_total=0.0, chi_bb=0.0, chi_pul=0.0, chi_low=0.0, chi_high=0.0,
        coherence=1.0, m=None,
    )


def chi_asymptotic(
    p: TimingPattern,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> ErrorBudget:
    """Numerical asymptotic (infinite-repetition) error, integrated to the cutoff.

    The plateau level chi_plateau_limit on the band clamped at omega_c;
    authoritative for any rolloff.  Raises DivergenceError when a plateau
    condition fails, naming the inequality.
    """
    shape = shape or bang_bang()
    if spec.g == 0.0:
        return _zero_budget()
    _raise_if_divergent(check_conditions(p, spec, shape), spec)
    w_hi = min(spec.omega_c, spec.omega_max)
    if w_hi <= spec.omega_min:
        return _zero_budget()
    limit = chi_plateau_limit(p, replace(spec, omega_max=w_hi), shape, config)
    return replace(limit, growth_per_repeat=None, comb_path=False)


def chi_infinity_leading_order(
    p: TimingPattern, spec: NoiseSpectrum, shape: Optional[PulseShape] = None
) -> float:
    """Hard-cutoff closed form of the asymptotic error, leading order per term.

    Each contribution behaving as |A|^2 omega^(2(a+1)) in the filter adds
    2 g |A|^2 omega_c^(2a-1) / (T_p^2 (s + 2a - 1)).  Documented estimator;
    chi_asymptotic is authoritative.
    """
    shape = shape or bang_bang()
    if spec.g == 0.0:
        return 0.0
    report = check_conditions(p, spec, shape)
    _raise_if_divergent(report, spec)
    t_p = p.duration

    def term(alpha: int, amplitude: complex) -> float:
        power = spec.s + 2.0 * alpha - 1.0
        return (
            2.0 * spec.g * abs(amplitude) ** 2 * spec.omega_c**power
            * spec.omega_c ** (-spec.s)
            / (t_p**2 * power)
        )

    fit = suppression_order(p)
    total = term(fit.alpha, fit.amplitude)
    if shape.kind != BANG_BANG and p.n_pulses > 0:
        po = pulse_order(p, shape)
        total += term(po.alpha, po.amplitude)
    return total


class MMaxDetail(NamedTuple):
    """Soft-cutoff repeat bound, with both ingredient routes.

    bound            returned estimate (numerical asymptotic + passband max)
    closed_route     same formula fed with the closed-form asymptotic value
    specialized      level-4 concatenated shortcut coefficient * x^(7-r),
                     None when the pattern does not match that case
    """

    bound: float
    closed_route: float
    specialized: Optional[float]


def _matches_cdd4(p: TimingPattern, shape: PulseShape) -> bool:
    if shape.kind != BANG_BANG:
        return False
    fit = suppression_order(p)
    if fit.alpha != 4:
        return False
    nominal = p.duration**5 / 2.0**14
    return abs(abs(fit.amplitude) - nominal) <= 0.02 * nominal


def m_max_soft_detail(
    p: TimingPattern,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> MMaxDetail:
    """Lower bound on usable repeats for a power-law rolloff, all routes.

    The bound scales the low-frequency (hard-cutoff) asymptotic error by
    the passband maximum of the filter and by x^(-r): spectral weight a
    factor x^r below the cutoff-free level feeds the filter passband once
    the resonances sweep across it, and the accumulated extra error stays
    below the plateau level for m up to the bound.
    """
    shape = shape or bang_bang()
    if not isinstance(spec.rolloff, PowerLaw):
        raise DomainError(
            f"soft-cutoff repeat bound needs a power-law rolloff, got {spec.rolloff!r}"
        )
    if spec.g == 0.0:
        raise DomainError("soft-cutoff repeat bound undefined for g = 0")
    r = spec.rolloff.r
    x = p.duration * spec.omega_c / (2.0 * math.pi)
    hard_spec = replace(spec, rolloff=HARD)
    chi_low_num = chi_asymptotic(p, hard_spec, shape, config).chi_total
    chi_low_closed = chi_infinity_leading_order(p, hard_spec, shape)
    f_max = passband_max(p)
    scale = (24.0 / math.pi) / (spec.g * p.duration * f_max * x**r)
    bound = scale * chi_low_num
    closed_route = scale * chi_low_closed
    specialized = _CDD4_COEFF * x ** (7.0 - r) if _matches_cdd4(p, shape) else None
    return MMaxDetail(bound, closed_route, specialized)


def m_max_soft(
    p: TimingPattern,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> int:
    """Usable repeat count before rolloff leakage erodes the plateau, >= 1."""
    return max(1, int(m_max_soft_detail(p, spec, shape, config).bound))


def chi_with_jitter(
    p: TimingPattern,
    m: int,
    delta_t: float,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> ErrorBudget:
    """Error of m repeats followed by an unrefocused read delay delta_t.

    The switching function of the delay appends coherently:
    r_total = G_m r_p + e^(i omega m T_p) (1 - e^(i omega delta_t)) with
    G_m the geometric repetition factor.  chi_bb reports the delta_t = 0
    ideal-pulse value, so chi_pul carries pulse width and jitter excess
    together.
    """
    if m < 1:
        raise DomainError(f"repeat count must be at least 1, got {m}")
    if delta_t < 0.0:
        raise DomainError(f"read delay must be nonnegative, got {delta_t}")
    shape = shape or bang_bang()
    if p.n_pulses % 2 == 1 and shape.kind != BANG_BANG:
        raise DomainError(
            f"pattern {p.label!r} has odd pulse count; the repetition factor "
            "does not apply with finite-width pulses"
        )
    t_p = p.duration

    def rows(w: np.ndarray) -> np.ndarray:
        base, dz, ry = quadrature_components(p, shape, w)
        rz = base if dz is None else base + dz
        theta = 0.5 * t_p * w
        ratio = dirichlet_ratio(m, theta)
        g_rep = np.exp(1j * (m - 1) * theta) * ratio
        jit = np.exp(1j * w * (m * t_p)) * (1.0 - np.exp(1j * w * delta_t))
        f_tot = np.abs(g_rep * rz + jit) ** 2
        if ry is not None:
            f_tot = f_tot + ratio**2 * np.abs(ry) ** 2
        weight = evaluate(spec, w) / w**2
        return np.stack([f_tot * weight, ratio**2 * np.abs(base) ** 2 * weight])

    bound = 2.0 * (2.0 * (p.n_pulses + 1) * m + 2.0) ** 2
    low, high, err = integrate_rows(rows, spec, m * t_p + delta_t, bound, config)
    return _assemble(low, high, err, m=m)


def jitter_tolerance(
    p: TimingPattern,
    m: int,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    budget_factor: float = 2.0,
    config: Optional[QuadratureConfig] = None,
    rel_tol: float = 1e-3,
) -> float:
    """Largest read delay keeping total error within budget_factor * chi_inf.

    Bisects delta_t for the repeated-plus-delay scenario of chi_with_jitter
    against the asymptotic plateau budget.  The reference is the
    rolloff-aware plateau level (chi_plateau_limit), which equals the
    to-the-cutoff integral for hard cutoffs and extends it past the cutoff
    for soft rolloffs.  Raises DomainError when the error already exceeds
    the budget at delta_t = 0.
    """
    if budget_factor <= 0.0:
        raise DomainError(f"budget_factor must be positive, got {budget_factor}")
    shape = shape or bang_bang()
    budget = budget_factor * chi_plateau_limit(p, spec, shape, config).chi_total
    chi0 = chi_with_jitter(p, m, 0.0, spec, shape, config).chi_total
    if chi0 >= budget:
        raise DomainError(
            f"error at zero delay ({chi0:.3e}) already exceeds the budget "
            f"{budget_factor} * chi_inf = {budget:.3e}; no jitter headroom"
        )
    # physical starting scale: extra error of a bare delay is about dt^2 * total power
    grid = np.geomspace(spec.omega_min, spec.omega_max, 4097)
    power = float(np.trapezoid(evaluate(spec, grid), grid))
    hi = math.sqrt((budget - chi0) / power) if power > 0 else p.duration
    for _ in range(80):
        if chi_with_jitter(p, m, hi, spec, shape, config).chi_total > budget:
            break
        hi *= 2.0
    else:
        raise DomainError("read-delay error never reaches the budget; nothing to bisect")
    lo = 0.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if chi_with_jitter(p, m, mid, spec, shape, config).chi_total > budget:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def markovian_limit(t_markov: float, chi_inf: float) -> float:
    """Storage time at which a Markovian noise floor overtakes the plateau.

    Uncorrelated background decay at rate 1/t_markov accumulates linearly
    and crosses the plateau level chi_inf at t_markov * chi_inf, exactly.
    """
    if t_markov <= 0.0:
        raise DomainError(f"Markovian decay time must be positive, got {t_markov}")
    if chi_inf < 0.0:
        raise DomainError(f"plateau error must be nonnegative, got {chi_inf}")
    return t_markov * chi_inf


def plateau_report(
    p: TimingPattern,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    t_markov: Optional[float] = None,
    jitter_budget_factor: Optional[float] = None,
    jitter_m: int = 1000,
    config: Optional[QuadratureConfig] = None,
) -> PlateauReport:
    """Full plateau assessment: conditions, error level, lifetime bounds."""
    shape = shape or bang_bang()
    base = check_conditions(p, spec, shape)
    if not base.all_conditions_met:
        return base
    chi_inf = chi_asymptotic(p, spec, shape, config)
    closed = chi_infinity_leading_order(p, replace(spec, rolloff=HARD), shape)
    t_max: Dict[str, float] = {}
    m_max: Optional[float] = None
    if isinstance(spec.rolloff, PowerLaw):
        m_max = float(m_max_soft(p, spec, shape, config))
        t_max["soft_cutoff"] = m_max * p.duration
    elif spec.rolloff == HARD:
        m_max = math.inf
        t_max["soft_cutoff"] = math.inf
    if t_markov is not None:
        t_max["markovian"] = markovian_limit(t_markov, chi_inf.chi_total)
    jitter_s: Optional[float] = None
    if jitter_budget_factor is not None:
        jitter_s = jitter_tolerance(
            p, jitter_m, spec, shape, budget_factor=jitter_budget_factor, config=config
        )
    return replace(
        base,
        chi_infinity=chi_inf,
        chi_infinity_closed=closed,
        m_max_bound=m_max,
        t_max=t_max,
        jitter_tolerance_s=jitter_s,
    )
