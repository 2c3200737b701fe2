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
access jitter when appending a read delay to the repeated block (its
error, one comb walk per delay whose cost does not depend on the repeat
count, is jitter_curve in integrals; chi_with_jitter is re-exported
here), and a residual Markovian noise floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .errors import DivergenceError, DomainError, require_count, require_nonnegative, require_positive
from .filters import passband_max, suppression_order
from .integrals import (
    ErrorBudget,
    QuadratureConfig,
    chi_plateau_limit,
    chi_with_jitter,
    jitter_curve,
)
from .noise import HARD, NoiseSpectrum, PowerLaw, evaluate
from .pulses import BANG_BANG, PulseShape, bang_bang, pulse_order
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
JITTER_REL_TOL = 1e-3  # jitter_tolerance stops once its bracket is this narrow, relative to its top


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
    lowfreq = {}
    for name, alpha, _ in _leading_terms(p, shape or bang_bang()):
        margin = spec.s + 2.0 * alpha - 1.0
        lowfreq[name] = ConditionCheck(margin > 0.0, margin)
    x = p.duration * spec.omega_c / (2.0 * math.pi)
    cond_res = ResonanceCheck(x < 1.0, x)
    return PlateauReport(
        condition_lowfreq_bb=lowfreq["alpha_p"],
        condition_lowfreq_pul=lowfreq.get("alpha_pul"),
        condition_resonance=cond_res,
        all_conditions_met=cond_res.passed and all(c.passed for c in lowfreq.values()),
    )


@lru_cache(maxsize=64)
def _leading_terms(p: TimingPattern, shape: PulseShape) -> Tuple[Tuple[str, int, complex], ...]:
    """(name, order, amplitude) of each low-frequency filter term |A|^2 omega^(2(a+1)).

    alpha_p, the ideal filter's (suppression_order); then, with finite
    pulses, alpha_pul: pulse_order's closed form, or its fitted pair where
    the fit finds another order (odd switching parity lowers it by one).
    Memoised: a plateau report reads it from its conditions, closed form
    and repeat bound.
    """
    fit = suppression_order(p)
    terms = [("alpha_p", fit.alpha, fit.amplitude)]
    if shape.kind != BANG_BANG and p.pulse_times:
        po = pulse_order(p, shape)
        order = round(po.alpha_fit)
        pair = (po.alpha, po.amplitude) if order == po.alpha else (order, po.amplitude_fit)
        terms.append(("alpha_pul", *pair))
    return tuple(terms)


def _has_plateau(p: TimingPattern, spec: NoiseSpectrum, shape: Optional[PulseShape]) -> bool:
    """False for a noiseless spectrum; raises DivergenceError naming a failed condition."""
    if spec.g == 0.0:
        return False
    report = check_conditions(p, spec, shape)
    lowfreq = (("alpha_p", report.condition_lowfreq_bb), ("alpha_pul", report.condition_lowfreq_pul))
    for alpha, cond in lowfreq:
        if cond is not None and not cond.passed:
            raise DivergenceError(
                "asymptotic error diverges: "
                f"s + 2*{alpha} > 1 fails (s={spec.s}, margin={cond.margin:+g})"
            )
    if not report.condition_resonance.passed:
        raise DivergenceError(
            "no plateau: T_p*omega_c < 2*pi fails "
            f"(x = T_p*omega_c/(2*pi) = {report.condition_resonance.x:g} >= 1)"
        )
    return True


def chi_asymptotic(
    p: TimingPattern,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> ErrorBudget:
    """Numerical asymptotic (infinite-repetition) error, integrated to the cutoff.

    The plateau level chi_plateau_limit on the band clamped at omega_c;
    authoritative for any rolloff.  Raises DivergenceError when a plateau
    condition fails, naming the inequality; chi_plateau_limit's DomainError passes through.
    """
    w_hi = min(spec.omega_c, spec.omega_max)
    if not _has_plateau(p, spec, shape) or w_hi <= spec.omega_min:
        return ErrorBudget(0.0, 0.0, 0.0, 0.0, 0.0, 1.0, m=None)
    limit = chi_plateau_limit(p, replace(spec, omega_max=w_hi), shape, config)
    return replace(limit, growth_per_repeat=None, comb_path=False)


def chi_infinity_leading_order(
    p: TimingPattern, spec: NoiseSpectrum, shape: Optional[PulseShape] = None
) -> float:
    """Hard-cutoff closed form of the asymptotic error, leading order per term.

    Each contribution behaving as |A|^2 omega^(2(a+1)) in the filter adds
    2 g |A|^2 omega_c^(2a-1) / (T_p^2 (s + 2a - 1)), summed from logarithms:
    |A|^2 alone underflows for high orders (about 2e-441 for UDD28 with
    1 us periods) where the term does not.  Documented estimator;
    chi_asymptotic is authoritative.
    """
    shape = shape or bang_bang()
    if not _has_plateau(p, spec, shape):
        return 0.0
    total = 0.0
    for _, alpha, amplitude in _leading_terms(p, shape):
        power = spec.s + 2.0 * alpha - 1.0
        if amplitude != 0:
            total += math.exp(
                math.log(2.0 * spec.g / power) + 2.0 * math.log(abs(amplitude))
                + (2.0 * alpha - 1.0) * math.log(spec.omega_c) - 2.0 * math.log(p.duration)
            )
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
    (_, alpha, amplitude), = _leading_terms(p, shape)
    if alpha != 4:
        return False
    nominal = p.duration**5 / 2.0**14
    return abs(abs(amplitude) - nominal) <= 0.02 * nominal


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
    # both integrate only up to omega_c, where S is the hard cutoff's
    chi_low_num = chi_asymptotic(p, spec, shape, config).chi_total
    return _m_max_detail(p, spec, shape, chi_low_num, chi_infinity_leading_order(p, spec, shape))


def _m_max_detail(
    p: TimingPattern, spec: NoiseSpectrum, shape: PulseShape, chi_low_num: float, chi_low_closed: float
) -> MMaxDetail:
    """m_max_soft_detail's bound from the numerical and closed-form asymptotic levels."""
    if spec.g == 0.0:
        raise DomainError("soft-cutoff repeat bound undefined for g = 0")
    r = spec.rolloff.r
    x = p.duration * spec.omega_c / (2.0 * math.pi)
    scale = (24.0 / math.pi) / (spec.g * p.duration * passband_max(p) * x**r)
    specialized = _CDD4_COEFF * x ** (7.0 - r) if _matches_cdd4(p, shape) else None
    return MMaxDetail(scale * chi_low_num, scale * chi_low_closed, specialized)


def m_max_soft(
    p: TimingPattern,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> int:
    """Usable repeat count before rolloff leakage erodes the plateau, >= 1."""
    return max(1, int(m_max_soft_detail(p, spec, shape, config).bound))


def jitter_tolerance(
    p: TimingPattern,
    m: int,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    budget_factor: float = 2.0,
    config: Optional[QuadratureConfig] = None,
) -> float:
    """Largest read delay keeping total error within budget_factor * chi_inf.

    Solves for delta_t in the repeated-plus-delay scenario of chi_with_jitter
    against the asymptotic plateau budget, reading every delay off one
    jitter_curve, one comb walk per delay.  From the zero-delay error, delays
    double from a physical scale until one exceeds the budget.  Each round
    then fits a power law c delta^k to the excess error chi(delta) - chi(0)
    through the bracket's ends (k = 2 from zero) and probes its root times
    1 -+ 0.4 JITTER_REL_TOL; a round that does not halve the bracket bisects
    it once more.  The midpoint of the first bracket within JITTER_REL_TOL
    of its top is returned.  On CDD4 the excess is close to delta^2, so after
    the plateau level this takes four comb walks.  The reference is the
    rolloff-aware plateau level (chi_plateau_limit), which equals the
    to-the-cutoff integral for hard cutoffs and extends it past the cutoff
    for soft rolloffs.  Raises
    DomainError when the error already exceeds the budget at delta_t = 0;
    chi_plateau_limit's DomainError (no plateau level) and AccuracyError pass through.
    """
    require_positive("budget_factor", budget_factor)
    budget = budget_factor * chi_plateau_limit(p, spec, shape, config).chi_total
    curve = jitter_curve(p, m, spec, shape, config)
    chi0 = curve(0.0).chi_total
    if chi0 >= budget:
        raise DomainError(
            f"error at zero delay ({chi0:.3e}) already exceeds the budget "
            f"{budget_factor} * chi_inf = {budget:.3e}; no jitter headroom"
        )
    # physical starting scale: extra error of a bare delay is about dt^2 * total power
    grid = np.geomspace(spec.omega_min, spec.omega_max, 4097)
    power = float(np.trapezoid(evaluate(spec, grid), grid))
    target = budget - chi0
    hi = math.sqrt(target / power) if power > 0 else p.duration
    # the bracket [lo, hi], within budget at lo and above at hi, and the excess chi - chi0 at its ends
    lo = excess_lo = 0.0
    for _ in range(80):
        chi_hi = curve(hi).chi_total
        if chi_hi > budget:
            break
        lo, excess_lo = hi, chi_hi - chi0  # within budget: the bracket starts here
        hi *= 2.0
    else:
        raise DomainError("read-delay error never reaches the budget; no bracket to close")
    excess_hi = chi_hi - chi0

    def probe(delta_t: float) -> None:
        nonlocal lo, hi, excess_lo, excess_hi
        if lo < delta_t < hi:
            chi_t = curve(delta_t).chi_total
            if chi_t > budget:
                hi, excess_hi = delta_t, chi_t - chi0
            else:
                lo, excess_lo = delta_t, chi_t - chi0

    while hi - lo > JITTER_REL_TOL * hi:
        width = hi - lo
        # the power law c delta^k through the bracket ends (delta^2 from zero) meets the target at aim
        k = math.log(excess_hi / excess_lo) / math.log(hi / lo) if 0.0 < excess_lo < excess_hi else 2.0
        aim = hi * (target / excess_hi) ** (1.0 / k)
        probe(aim * (1.0 - 0.4 * JITTER_REL_TOL))
        probe(aim * (1.0 + 0.4 * JITTER_REL_TOL))
        if hi - lo > max(0.5 * width, JITTER_REL_TOL * hi):
            probe(0.5 * (lo + hi))  # the aim missed: bisect once
    return 0.5 * (lo + hi)


def markovian_limit(t_markov: float, chi_inf: float) -> float:
    """Storage time at which a Markovian noise floor overtakes the plateau.

    Uncorrelated background decay at rate 1/t_markov accumulates linearly
    and crosses the plateau level chi_inf at t_markov * chi_inf, exactly.
    """
    require_positive("t_markov", t_markov)
    require_nonnegative("plateau error chi_inf", chi_inf)
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
    if t_markov is not None:
        require_positive("t_markov", t_markov)
    if jitter_budget_factor is not None:
        require_positive("jitter_budget_factor", jitter_budget_factor)
    require_count("jitter_m", jitter_m)
    base = check_conditions(p, spec, shape)
    if not base.all_conditions_met:
        return base
    chi_inf = chi_asymptotic(p, spec, shape, config)
    closed = chi_infinity_leading_order(p, spec, shape)
    t_max: Dict[str, float] = {}
    m_max: Optional[float] = None
    if isinstance(spec.rolloff, PowerLaw):
        detail = _m_max_detail(p, spec, shape or bang_bang(), chi_inf.chi_total, closed)
        m_max = float(max(1, int(detail.bound)))
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
