"""Exhaustive minimum-error search over the Walsh sequence family.

For a slot width tau and storage time T_s = N tau (N a power of two)
there are exactly N Walsh switching patterns, of which the N/2 with
index k >= N/2 have minimal pulse interval exactly tau.  Each candidate
is a complete pattern of duration T_s and is scored by its band error
chi; the winner is the deterministic argmin.

Generic Walsh patterns are not periodic, so candidates are always
integrated at full length.  A winner that does tile as base^m is
reported with its base block and cross-checked against the repetition
kernel; the relative gap between the two evaluations is recorded.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import AccuracyError, DomainError
from .integrals import ErrorBudget, QuadratureConfig, chi, chi_repeated
from .noise import NoiseSpectrum
from .pulses import PulseShape, bang_bang
from .sequences import TimingPattern, walsh, walsh_signs

__all__ = [
    "CandidateResult",
    "DetectedStructure",
    "SearchResult",
    "enumerate_walsh",
    "detect_structure",
    "best_sequence",
    "search_series",
]

MAX_SLOTS = 2**12


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
    Both are None when the kernel route is unavailable (odd-count base
    with finite-width pulses).
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


def _slot_count(t_s: float, tau: float, limit: int) -> int:
    if not tau > 0:
        raise DomainError(f"slot width must be positive, got {tau}")
    if not t_s > 0:
        raise DomainError(f"storage time must be positive, got {t_s}")
    n_float = t_s / tau
    n = int(round(n_float))
    if n < 1 or abs(n_float - n) > 1e-9 * n_float or n & (n - 1):
        raise DomainError(
            f"T_s/tau = {n_float:g} must be a power of two; "
            f"got T_s={t_s:g}, tau={tau:g}"
        )
    if n > limit:
        raise DomainError(f"slot count {n} exceeds the search limit {limit}")
    return n


def enumerate_walsh(t_s: float, tau: float, limit: int = MAX_SLOTS) -> List[TimingPattern]:
    """All N = T_s/tau Walsh patterns of duration T_s, Paley index order.

    Indices k >= N/2 are exactly the patterns whose minimal interval is
    tau; lower indices live on coarser grids (k = 0 is free evolution).
    """
    n = _slot_count(t_s, tau, limit)
    return [walsh(k, t_s, n) for k in range(n)]


def _grid_signs(p: TimingPattern) -> Optional[List[int]]:
    if p.grid is None:
        return None
    n_slots, bounds = p.grid
    signs = []
    sign = 1
    flips = set(bounds)
    for j in range(n_slots):
        if j in flips:
            sign = -sign
        signs.append(sign)
    return signs


def _base_from_signs(signs: Sequence[int], duration: float) -> TimingPattern:
    q = len(signs)
    bounds = tuple(j for j in range(1, q) if signs[j] != signs[j - 1])
    times = tuple(b * duration / q for b in bounds)
    label = f"block{q}"
    if q & (q - 1) == 0:
        for k in range(q):
            if walsh_signs(k, q) == list(signs):
                level = q.bit_length() - 1
                label = f"CDD{level}" if k == q - 1 and q > 1 else f"W{k}@{q}"
                break
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
            base = _base_from_signs(signs[:q], p.duration * q / n)
            return base, n // q
    return None


def _evaluate_one(
    payload: Tuple[int, TimingPattern, NoiseSpectrum, PulseShape, Optional[QuadratureConfig]],
) -> Tuple[CandidateResult, Optional[ErrorBudget]]:
    k, p, spec, shape, config = payload
    try:
        budget = chi(p, spec, shape, config)
    except AccuracyError as exc:
        return CandidateResult(k, None, skipped=True, note=f"accuracy: {exc}"), None
    except DomainError as exc:
        return CandidateResult(k, None, skipped=True, note=f"domain: {exc}"), None
    return CandidateResult(k, budget.chi_total), budget


def best_sequence(
    t_s: float,
    tau: float,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
    workers: Optional[int] = None,
    limit: int = MAX_SLOTS,
) -> SearchResult:
    """Minimum-chi Walsh pattern at (T_s, tau), deterministically tie-broken.

    Candidates are scored independently (in parallel when workers > 1) and
    reduced in index order; ties fall to the fewest pulses, then the lowest
    Walsh index.  Failed candidates are skipped and recorded.  A periodic
    winner carries its detected base block and the repetition-kernel
    cross-check.
    """
    shape = shape or bang_bang()
    candidates = enumerate_walsh(t_s, tau, limit)
    if workers is None:
        workers = os.cpu_count() or 1
    payloads = [(k, p, spec, shape, config) for k, p in enumerate(candidates)]
    if workers > 1 and len(candidates) >= 16:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(payloads) // (8 * workers))
            scored = list(pool.map(_evaluate_one, payloads, chunksize=chunk))
    else:
        scored = [_evaluate_one(pl) for pl in payloads]
    rows = [row for row, _ in scored]
    budgets = [b for _, b in scored]

    best_key: Optional[Tuple[float, int, int]] = None
    for p, row in zip(candidates, rows):
        if row.skipped:
            continue
        key = (row.chi_total, p.n_pulses, row.index)
        if best_key is None or key < best_key:
            best_key = key
    if best_key is None:
        raise DomainError(
            f"no evaluable candidates at T_s={t_s:g}, tau={tau:g}; "
            f"all {len(candidates)} were skipped"
        )
    winner_index = best_key[2]
    winner = candidates[winner_index]
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
    workers: Optional[int] = None,
    limit: int = MAX_SLOTS,
) -> List[SearchResult]:
    """Independent best_sequence per storage time, in the given order."""
    return [
        best_sequence(t_s, tau, spec, shape, config=config, workers=workers, limit=limit)
        for t_s in t_s_list
    ]
