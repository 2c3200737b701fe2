"""Exhaustive minimum-error search over the Walsh sequence family.

For a slot width tau and storage time T_s = N tau (N a power of two)
there are exactly N Walsh switching patterns, of which the N/2 with
index k >= N/2 have minimal pulse interval exactly tau.  Each candidate
is a complete pattern of duration T_s and is scored by its band error
chi; the winner is the deterministic argmin.

Candidates are scored by index in one loop in the calling process: w_k
is built from k, so no candidate list is held, and the tie-break reads
the pulse count of w_k off k.  Generic Walsh patterns are not periodic,
so candidates are always integrated at full length.  A winner that does tile as base^m is
reported with its base block and cross-checked against the repetition
kernel; the relative gap between the two evaluations is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import AccuracyError, DomainError, require_count, require_positive
from .integrals import ErrorBudget, QuadratureConfig, chi, chi_repeated
from .noise import NoiseSpectrum
from .pulses import PulseShape
from .sequences import TimingPattern, _grid_signs, _paley_index, _walsh_pulses, walsh

__all__ = [
    "CandidateResult",
    "DetectedStructure",
    "SearchResult",
    "enumerate_walsh",
    "detect_structure",
    "best_sequence",
    "search_series",
]

MAX_SLOTS = 2**12  # largest slot count N = T_s/tau a search accepts


@dataclass(frozen=True)
class CandidateResult:
    """Score of one Walsh index; skipped=True when evaluation failed."""

    index: int
    chi_total: Optional[float]
    skipped: bool = False
    note: str = ""


@dataclass(frozen=True)
class DetectedStructure:
    """Winner periodicity: winner == base repeated `repeats` times.

    kernel_chi is the repetition-kernel evaluation of the same pattern;
    kernel_agreement its relative gap from the full-length integral.
    Both are None where the base is refused (DomainError): a pulse
    footprint that fits the winner's intervals but not the base's end ones.
    """

    base: TimingPattern
    repeats: int
    kernel_chi: Optional[float] = None
    kernel_agreement: Optional[float] = None


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one (T_s, tau) search."""

    t_s: float
    tau: float
    winner: TimingPattern
    winner_index: int
    chi: ErrorBudget
    candidates: Tuple[CandidateResult, ...]
    detected_structure: Optional[DetectedStructure]


def _slot_count(t_s: float, tau: float) -> int:
    require_positive("slot width", tau)
    require_positive("storage time", t_s)
    n_float = t_s / tau
    n = int(round(n_float))
    if n < 1 or abs(n_float - n) > 1e-9 * n_float or n & (n - 1):
        raise DomainError(
            f"T_s/tau = {n_float:g} must be a power of two; "
            f"got T_s={t_s:g}, tau={tau:g}"
        )
    if n > MAX_SLOTS:
        raise DomainError(f"slot count {n} exceeds the search limit {MAX_SLOTS}")
    return n


def enumerate_walsh(t_s: float, tau: float) -> List[TimingPattern]:
    """All N = T_s/tau Walsh patterns of duration T_s, Paley index order.

    Indices k >= N/2 are exactly the patterns whose minimal interval is
    tau; lower indices live on coarser grids (k = 0 is free evolution).
    """
    n = _slot_count(t_s, tau)
    return [walsh(k, t_s, n) for k in range(n)]


def _base_block(q: int, bounds: Tuple[int, ...], duration: float) -> TimingPattern:
    """The grid pattern of q slots flipping at bounds, labeled by its Walsh index if any."""
    times = tuple(b * duration / q for b in bounds)
    k = _paley_index((q, bounds))
    if k is None:
        label = f"block{q}"
    elif k == q - 1 and q > 1:
        label = f"CDD{q.bit_length() - 1}"
    else:
        label = f"W{k}@{q}"
    return TimingPattern(times, duration, label, grid=(q, bounds))


def detect_structure(p: TimingPattern) -> Optional[Tuple[TimingPattern, int]]:
    """Smallest tiling period of a grid pattern's switching function.

    Returns (base block, repeat count) when the per-slot sign sequence is
    periodic with a proper period dividing the slot count, None for
    aperiodic or off-grid patterns.  Thue-Morse bases are labeled as the
    concatenated family, other Walsh-expressible bases by their index.
    """
    signs = _grid_signs(p)
    if signs is None:
        return None
    n = len(signs)
    for q in range(1, n):
        if n % q:
            continue
        if all(signs[j] == signs[j % q] for j in range(n)):
            base = _base_block(q, tuple(b for b in p.grid[1] if b < q), p.duration * q / n)
            return base, n // q
    return None


def best_sequence(
    t_s: float,
    tau: float,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
    workers: Optional[int] = None,
) -> SearchResult:
    """Minimum-chi Walsh pattern at (T_s, tau), deterministically tie-broken.

    Candidates are scored one by one in index order in the calling
    process; ties fall to the fewest pulses, then the lowest Walsh index.
    Failed candidates are skipped and recorded.  A periodic winner carries
    its detected base block and the repetition-kernel cross-check.
    `workers`, when given, must be a count >= 1 and is otherwise ignored.
    """
    n = _slot_count(t_s, tau)
    if workers is not None:
        require_count("workers", workers)
    rows: List[CandidateResult] = []
    budgets: List[Optional[ErrorBudget]] = []
    for k in range(n):
        budget, note = None, ""
        try:
            budget = chi(walsh(k, t_s, n), spec, shape, config)
        except AccuracyError as exc:
            note = f"accuracy: {exc}"
        except DomainError as exc:
            note = f"domain: {exc}"
        chi_total = None if budget is None else budget.chi_total
        rows.append(CandidateResult(k, chi_total, budget is None, note))
        budgets.append(budget)
    ranked = [row for row in rows if not row.skipped]
    if not ranked:
        raise DomainError(
            f"no evaluable candidates at T_s={t_s:g}, tau={tau:g}; all {n} were skipped"
        )
    winner_index = min(ranked, key=lambda r: (r.chi_total, _walsh_pulses(r.index), r.index)).index
    winner = walsh(winner_index, t_s, n)
    budget = budgets[winner_index]
    assert budget is not None

    structure: Optional[DetectedStructure] = None
    detected = detect_structure(winner)
    if detected is not None and detected[1] > 1:
        base, repeats = detected
        try:
            kernel = chi_repeated(base, repeats, spec, shape, config).chi_total
            scale = max(abs(budget.chi_total), 1e-300)
            agreement = abs(kernel - budget.chi_total) / scale
            structure = DetectedStructure(base, repeats, kernel, agreement)
        except DomainError:
            structure = DetectedStructure(base, repeats)
    return SearchResult(
        t_s=t_s,
        tau=tau,
        winner=winner,
        winner_index=winner_index,
        chi=budget,
        candidates=tuple(rows),
        detected_structure=structure,
    )


def search_series(
    tau: float,
    t_s_list: Sequence[float],
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> List[SearchResult]:
    """Independent best_sequence per storage time, in the given order."""
    return [best_sequence(t_s, tau, spec, shape, config=config) for t_s in t_s_list]
