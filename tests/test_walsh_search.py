import math
from dataclasses import replace

import pytest

from ddmemory import (
    DEFAULT_CONFIG,
    DomainError,
    NoiseSpectrum,
    TimingPattern,
    bang_bang,
    best_sequence,
    cdd,
    chi,
    dcg3,
    detect_structure,
    enumerate_walsh,
    min_interval,
    repeat_pattern,
    search_series,
    walsh,
)
from ddmemory import filters, walsh_search
from ddmemory.walsh_search import MAX_SLOTS, _walsh_pulses

TAU = 1e-6


class TestEnumerate:
    def test_counts_and_labels(self):
        cands = enumerate_walsh(4 * TAU, TAU)
        assert [p.label for p in cands] == ["W0@4", "W1@4", "W2@4", "W3@4"]
        assert cands[0].pulse_times == ()

    def test_half_have_min_interval_exactly_tau(self):
        cands = enumerate_walsh(16 * TAU, TAU)
        assert len(cands) == 16
        fine = [p for p in cands if p.n_pulses and min_interval(p) == pytest.approx(TAU, rel=1e-12)]
        assert len(fine) == 8

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DomainError):
            enumerate_walsh(3 * TAU, TAU)

    def test_limit_enforced(self, monkeypatch):
        def build(*args):
            raise AssertionError("a pattern was built past the slot limit")

        monkeypatch.setattr(walsh_search, "walsh", build)
        with pytest.raises(DomainError, match=f"search limit {MAX_SLOTS}"):
            enumerate_walsh(2 * MAX_SLOTS * TAU, TAU)

    @pytest.mark.parametrize(
        "t_s, tau, name",
        [(math.inf, TAU, "storage time"), (4 * TAU, math.inf, "slot width")],
    )
    def test_non_finite_time_is_named(self, gaas, t_s, tau, name):
        with pytest.raises(DomainError, match=name):
            best_sequence(t_s, tau, gaas, workers=1)

    @pytest.mark.parametrize("workers", [0, 2.5, True])
    def test_worker_count_is_named(self, gaas, workers):
        with pytest.raises(DomainError, match="workers"):
            best_sequence(4 * TAU, TAU, gaas, workers=workers)


class TestDetectStructure:
    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_repeated_block_recovered_exactly(self, m):
        base = cdd(4, TAU)
        det = detect_structure(repeat_pattern(base, m))
        assert det is not None
        found, repeats = det
        assert repeats == m
        assert found == base  # label CDD4, same times, same duration

    def test_aperiodic_patterns_return_none(self):
        assert detect_structure(walsh(5, 8 * TAU, 8)) is None
        assert detect_structure(walsh(1, 8 * TAU, 8)) is None

    def test_offgrid_pattern_returns_none(self):
        from ddmemory import udd

        assert detect_structure(udd(5, 1e-6)) is None

    @pytest.mark.parametrize(
        "k, n, label, repeats", [(960, 1024, "CDD4", 64), (2, 8, "W1@4", 2)]
    )
    def test_base_is_built_once_under_its_label(self, monkeypatch, k, n, label, repeats):
        winner = walsh(k, n * TAU, n)
        built = []
        post_init = TimingPattern.__post_init__

        def counted(p):
            built.append(p.label)
            post_init(p)

        monkeypatch.setattr(TimingPattern, "__post_init__", counted)
        base, found = detect_structure(winner)
        assert built == [label]
        assert (base.label, found) == (label, repeats)
        assert base.walsh_index == k // repeats

    def test_periodic_walsh_maps_to_lower_index(self):
        det = detect_structure(walsh(30, 32 * TAU, 32))
        assert det is not None
        base, repeats = det
        assert repeats == 2
        assert base.label == "CDD4"


class TestBestSequence:
    def test_two_slots_picks_echo(self, gaas):
        res = best_sequence(2 * TAU, TAU, gaas)
        assert res.winner_index == 1
        assert res.winner.n_pulses == 1

    def test_zero_strength_tie_breaks_to_free(self, gaas):
        silent = replace(gaas, g=0.0)
        res = best_sequence(8 * TAU, TAU, silent)
        assert res.winner_index == 0
        assert res.winner.n_pulses == 0
        assert res.chi.chi_total == 0.0

    def test_candidates_whose_pulses_do_not_fit_are_skipped(self, gaas):
        # a 4 ns DCG footprint fits no interval of 1 ns slots: only free evolution is scored
        res = best_sequence(8e-9, 1e-9, gaas, dcg3(1e-9))
        assert res.winner_index == 0
        assert not res.candidates[0].skipped
        for c in res.candidates[1:]:
            assert c.skipped and c.chi_total is None
            assert c.note.startswith("domain: pulse footprint 4.000e-09s does not fit")

    def test_winner_beats_free_and_expressible_concatenations(self, gaas):
        res = best_sequence(16 * TAU, TAU, gaas)
        shape = bang_bang()
        assert res.chi.chi_total <= chi(walsh(0, 16 * TAU, 16), gaas, shape).chi_total
        for level in (1, 2, 3, 4):
            rival = repeat_pattern(cdd(level, TAU), 2 ** (4 - level))
            assert res.chi.chi_total <= chi(rival, gaas, shape).chi_total * (1 + 1e-9)

    def test_candidate_table_is_complete_and_minimal(self, gaas):
        res = best_sequence(8 * TAU, TAU, gaas)
        assert [c.index for c in res.candidates] == list(range(8))
        scores = [c.chi_total for c in res.candidates if not c.skipped]
        assert res.chi.chi_total == min(scores)

    def test_deterministic_across_runs_and_workers(self, gaas):
        a = best_sequence(16 * TAU, TAU, gaas, workers=1)
        b = best_sequence(16 * TAU, TAU, gaas, workers=1)
        c = best_sequence(16 * TAU, TAU, gaas, workers=2)
        assert a.winner_index == b.winner_index == c.winner_index
        assert a.chi.chi_total == b.chi.chi_total == c.chi.chi_total
        assert a.candidates == b.candidates == c.candidates

    def test_periodic_winner_carries_kernel_crosscheck(self, gaas):
        res = best_sequence(32 * TAU, TAU, gaas)
        det = res.detected_structure
        assert det is not None
        assert det.base.label == "CDD4"
        assert det.repeats == 2
        assert det.kernel_agreement is not None
        assert det.kernel_agreement < 1e-3

    def test_search_needs_no_exact_rational_moments(self, gaas):
        # candidates and the periodic winner's kernel cross-check all take
        # the Walsh product transform
        filters._moments.cache_clear()
        res = best_sequence(64 * TAU, TAU, gaas, workers=1)
        assert res.detected_structure is not None
        assert res.detected_structure.kernel_chi is not None
        assert filters._moments.cache_info().currsize == 0

    def test_all_candidates_failing_is_a_domain_error(self, gaas):
        starved = replace(DEFAULT_CONFIG, max_panels=64, rel_tol=1e-12)
        with pytest.raises(DomainError, match="no evaluable candidates"):
            best_sequence(16 * TAU, TAU, gaas, config=starved)


class TestSeries:
    def test_series_runs_independently_per_storage_time(self, gaas):
        t_s_list = [2 * TAU, 4 * TAU, 8 * TAU]
        results = search_series(TAU, t_s_list, gaas)
        assert [r.t_s for r in results] == t_s_list
        solo = best_sequence(4 * TAU, TAU, gaas)
        assert results[1].winner_index == solo.winner_index
        assert results[1].chi.chi_total == solo.chi.chi_total


@pytest.mark.parametrize("q", range(9))
def test_pulse_count_read_off_the_index(q):
    # the search tie-breaks on this count without building the candidates
    n = 2**q
    assert [_walsh_pulses(k) for k in range(n)] == [walsh(k, n * TAU, n).n_pulses for k in range(n)]
