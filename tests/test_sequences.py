import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmemory import (
    DomainError,
    ResourceLimitError,
    TimingPattern,
    carr_purcell,
    chi,
    cdd,
    concat,
    echo,
    free_evolution,
    min_interval,
    repeat_pattern,
    truncate,
    udd,
    udd_from_min_interval,
    walsh,
    walsh_signs,
)


class TestConstructors:
    def test_free_has_no_pulses(self):
        p = free_evolution(1e-6)
        assert p.pulse_times == ()
        assert p.duration == 1e-6

    def test_echo_pulse_at_midpoint(self):
        p = echo(2e-6)
        assert p.pulse_times == (1e-6,)

    def test_udd_times_follow_sine_squared(self):
        n, t_p = 5, 1.0
        p = udd(n, t_p)
        for j, t in enumerate(p.pulse_times, start=1):
            assert t == pytest.approx(t_p * math.sin(j * math.pi / (2 * n + 2)) ** 2, rel=1e-12)

    def test_udd_from_min_interval_hits_target(self):
        p = udd_from_min_interval(5, 1e-6)
        assert min_interval(p) == pytest.approx(1e-6, rel=1e-12)

    def test_cdd4_has_ten_pulses_on_thue_morse_boundaries(self):
        p = cdd(4, 1e-6)
        assert p.n_pulses == 10
        assert p.duration == pytest.approx(16e-6, rel=1e-15)
        signs = [(-1) ** bin(i).count("1") for i in range(16)]
        bounds = [i for i in range(1, 16) if signs[i] != signs[i - 1]]
        assert p.pulse_times == pytest.approx([b * 1e-6 for b in bounds], rel=1e-12)

    def test_carr_purcell_is_level_two_concatenation(self):
        assert carr_purcell(1e-6).pulse_times == cdd(2, 1e-6).pulse_times

    def test_udd_zero_is_free_evolution(self):
        assert udd(0, 1.0).pulse_times == ()

    @pytest.mark.parametrize("convert", [list, np.array], ids=["list", "array"])
    @pytest.mark.parametrize("grid", [False, True], ids=["off_grid", "grid"])
    def test_sequence_inputs_are_stored_as_tuples(self, gaas, convert, grid):
        times, bounds = (0.25e-6, 0.75e-6), (1, 3)
        p = TimingPattern(convert(times), 1e-6, "x", grid=(4, convert(bounds)) if grid else None)
        ref = TimingPattern(times, 1e-6, "x", grid=(4, bounds) if grid else None)
        assert type(p.pulse_times) is tuple and p.pulse_times == times
        assert hash(p) == hash(ref)
        if grid:
            assert p.grid == (4, bounds) and all(type(b) is int for b in p.grid[1])
            assert p.walsh_index == ref.walsh_index == 3
        assert chi(p, gaas).chi_total == chi(ref, gaas).chi_total

    @pytest.mark.parametrize(
        "grid",
        [(4.0, (1,)), (4, (1.0,)), (4, 1), (4,), (4, (1,), 0)],
        ids=["float_count", "float_bound", "bare_bound", "no_bounds", "three_fields"],
    )
    def test_malformed_grid_is_named(self, grid):
        with pytest.raises(DomainError, match="grid"):
            TimingPattern((0.25e-6,), 1e-6, "x", grid=grid)

    def test_bad_orders_rejected(self):
        with pytest.raises(DomainError):
            udd(-1, 1.0)
        with pytest.raises(DomainError):
            cdd(-1, 1.0)
        with pytest.raises(DomainError):
            free_evolution(0.0)


class TestWalsh:
    def test_paley_sign_anchors(self):
        assert walsh_signs(0, 4) == [1, 1, 1, 1]
        assert walsh_signs(1, 4) == [1, 1, -1, -1]
        assert walsh_signs(2, 4) == [1, -1, 1, -1]
        assert walsh_signs(3, 4) == [1, -1, -1, 1]

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_last_index_is_thue_morse(self, level):
        n = 2**level
        w = walsh(2**level - 1, n * 1e-6, n)
        c = cdd(level, 1e-6)
        assert w.pulse_times == pytest.approx(c.pulse_times, rel=1e-12)
        assert w.duration == pytest.approx(c.duration, rel=1e-15)

    def test_index_zero_is_free(self):
        assert walsh(0, 1e-6, 4).pulse_times == ()

    def test_labels_encode_index_and_slots(self):
        assert walsh(5, 8e-6, 8).label == "W5@8"

    def test_bad_indices_rejected(self):
        with pytest.raises(DomainError):
            walsh(4, 1e-6, 4)
        with pytest.raises(DomainError):
            walsh(-1, 1e-6, 4)
        with pytest.raises(DomainError):
            walsh(1, 1e-6, 3)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 128, 256])
    def test_signs_match_rademacher_product_loop(self, n):
        def loop_signs(k, n_slots):
            q = n_slots.bit_length() - 1
            signs = []
            for j in range(n_slots):
                acc = 0
                for i in range(q):
                    if (k >> i) & 1:
                        acc ^= (j >> (q - 1 - i)) & 1
                signs.append(-1 if acc else 1)
            return signs

        for k in range(n):
            assert walsh_signs(k, n) == loop_signs(k, n)

    def test_non_integer_index_rejected(self):
        with pytest.raises(DomainError, match="integer"):
            walsh_signs(1.0, 4)

    @pytest.mark.parametrize("n_slots", ["8", None])
    def test_non_integer_slot_count_is_named(self, n_slots):
        # checked before the size limit, which cannot compare it
        with pytest.raises(DomainError, match="slot count"):
            walsh(1, 1e-6, n_slots)

    def test_signs_have_the_slot_limit(self, monkeypatch):
        from ddmemory import sequences

        monkeypatch.setattr(sequences, "MAX_REPEAT_PULSES", 64)
        assert len(walsh_signs(1, 64)) == 64
        with pytest.raises(ResourceLimitError, match="128 slots"):
            walsh_signs(1, 128)

    @given(st.integers(0, 63))
    @settings(max_examples=30, deadline=None)
    def test_sign_sequences_are_distinct_and_start_positive(self, k):
        signs = walsh_signs(k, 64)
        assert signs[0] == 1
        assert len(signs) == 64


class TestCompose:
    def test_concat_inserts_junction_after_odd_count(self):
        p = concat(echo(2e-6), echo(2e-6))
        assert p.pulse_times == pytest.approx((1e-6, 2e-6, 3e-6), rel=1e-12)
        assert p.duration == pytest.approx(4e-6, rel=1e-15)

    def test_concat_no_junction_after_even_count(self):
        p = concat(cdd(2, 1e-6), cdd(2, 1e-6))
        assert p.n_pulses == 2 * cdd(2, 1e-6).n_pulses

    def test_repeat_matches_explicit_concat(self):
        base = cdd(3, 1e-6)
        via_concat = concat(concat(base, base), base)
        via_repeat = repeat_pattern(base, 3)
        assert via_repeat.pulse_times == pytest.approx(via_concat.pulse_times, rel=1e-12)

    def test_repeated_thue_morse_is_a_walsh_function(self):
        doubled = repeat_pattern(cdd(4, 1e-6), 2)
        w = walsh(30, 32e-6, 32)
        assert doubled.pulse_times == pytest.approx(w.pulse_times, rel=1e-12)

    def test_repeat_one_is_identity(self):
        base = udd(3, 1e-6)
        assert repeat_pattern(base, 1).pulse_times == base.pulse_times

    def test_repeat_count_validation(self):
        with pytest.raises(DomainError):
            repeat_pattern(echo(1e-6), 0)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: repeat_pattern(echo(1e-6), 2.0), "repeat count"),
            (lambda: udd(2.5, 1e-6), "pulse count"),
            (lambda: udd_from_min_interval(2.5, 1e-6), "pulse count"),
            (lambda: cdd(2.5, 1e-6), "level"),
            (lambda: walsh(1, 4e-6, 4.0), "slot count"),
        ],
        ids=["repeat_pattern", "udd", "udd_from_min_interval", "cdd", "walsh"],
    )
    def test_non_integer_count_is_named(self, call, name):
        with pytest.raises(DomainError, match=name):
            call()

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: repeat_pattern(echo(1e-6), True), "repeat count"),
            (lambda: udd(True, 1e-6), "pulse count"),
            (lambda: udd_from_min_interval(True, 1e-6), "pulse count"),
            (lambda: cdd(True, 1e-6), "level"),
            (lambda: walsh(True, 4e-6, 4), "Walsh index"),
            (lambda: walsh(0, 4e-6, True), "slot count"),
        ],
        ids=["repeat_pattern", "udd", "udd_from_min_interval", "cdd", "walsh_index", "walsh_slots"],
    )
    def test_bool_count_is_named(self, call, name):
        with pytest.raises(DomainError, match=name):
            call()

    def test_numpy_integer_counts_are_accepted(self):
        assert cdd(np.int64(2), 1e-6) == cdd(2, 1e-6)
        assert udd(np.int64(3), 1e-6).label == "UDD3"
        assert walsh(np.int64(3), 4e-6, np.int64(4)) == walsh(3, 4e-6, 4)
        assert repeat_pattern(echo(1e-6), np.int64(2)) == repeat_pattern(echo(1e-6), 2)

    def test_repeat_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            repeat_pattern(cdd(4, 1e-6), 10**7)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: cdd(40, 1e-6),
            lambda: walsh(3, 1.0, 2**40),
            lambda: udd(2**40, 1.0),
            lambda: udd_from_min_interval(2**40, 1e-6),
        ],
        ids=["cdd", "walsh", "udd", "udd_from_min_interval"],
    )
    def test_oversized_pattern_fails_before_building(self, build):
        # a list of 2**40 signs or times would take the memory first
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            build()
        assert time.perf_counter() - start < 0.1

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_concat_is_associative(self, a, b, c):
        # offsets are reassociated sums, so allow a couple of ulps
        pa, pb, pc = cdd(a, 1e-6), udd(b, 1e-6), cdd(c, 2e-6)
        left = concat(concat(pa, pb), pc)
        right = concat(pa, concat(pb, pc))
        assert left.n_pulses == right.n_pulses
        assert left.pulse_times == pytest.approx(right.pulse_times, rel=1e-15)
        assert left.duration == pytest.approx(right.duration, rel=1e-15)


class TestIntervalsAndTruncate:
    def test_min_interval_of_free_is_duration(self):
        assert min_interval(free_evolution(3e-6)) == 3e-6

    def test_min_interval_of_walsh_is_slot(self):
        assert min_interval(walsh(15, 16e-6, 16)) == pytest.approx(1e-6, rel=1e-12)

    def test_truncate_keeps_prefix(self):
        p = udd(5, 10e-6)
        cut = truncate(p, 5e-6)
        assert cut.duration == 5e-6
        assert all(t < 5e-6 for t in cut.pulse_times)
        assert cut.pulse_times == tuple(t for t in p.pulse_times if t < 5e-6)

    def test_truncate_full_length_keeps_everything(self):
        p = cdd(3, 1e-6)
        cut = truncate(p, p.duration)
        assert cut.pulse_times == p.pulse_times

    def test_truncate_beyond_duration_rejected(self):
        with pytest.raises(DomainError):
            truncate(echo(1e-6), 2e-6)

    @given(
        where=st.sampled_from(["duration", "pulse"]),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    @settings(max_examples=20, deadline=None)
    def test_non_finite_times_rejected_by_name(self, where, value):
        if where == "duration":
            with pytest.raises(DomainError, match="duration must be finite"):
                TimingPattern((0.5e-6,), value, "bad")
        else:
            with pytest.raises(DomainError, match="pulse times must be finite"):
                TimingPattern((0.2e-6, value), 1e-6, "bad")

    def test_cdd_is_built_and_indexed_once(self, monkeypatch):
        from ddmemory import sequences

        calls = []
        paley = sequences._paley_index

        def counted(grid):
            calls.append(grid)
            return paley(grid)

        monkeypatch.setattr(sequences, "_paley_index", counted)
        p = cdd(4, 1e-6)
        assert len(calls) == 1
        w = walsh(15, 16e-6, 16)
        assert (p.label, p.walsh_index) == ("CDD4", w.walsh_index)
        assert (p.pulse_times, p.duration, p.grid) == (w.pulse_times, w.duration, w.grid)

    def test_cdd_with_infinite_slot_names_duration(self):
        with pytest.raises(DomainError, match="duration must be finite"):
            cdd(2, math.inf)

    @given(st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_udd_times_are_symmetric(self, n):
        p = udd(n, 1.0)
        times = p.pulse_times
        for j in range(n):
            assert times[j] + times[n - 1 - j] == pytest.approx(1.0, rel=1e-12)


class TestGrid:
    def test_walsh_carries_its_grid(self):
        p = walsh(15, 16e-6, 16)
        assert p.grid is not None
        n_slots, bounds = p.grid
        assert n_slots == 16
        assert len(bounds) == p.n_pulses

    def test_repeat_propagates_grid(self):
        p = repeat_pattern(cdd(4, 1e-6), 3)
        assert p.grid is not None
        assert p.grid[0] == 48

    def test_udd_has_no_grid(self):
        assert udd(5, 1e-6).grid is None

    @pytest.mark.parametrize(
        "times, match",
        [((0.5e-6, 0.5e-6), "strictly increasing"), ((0.6e-6, 0.4e-6), "strictly increasing"),
         ((0.5e-6, 1e-6), "inside")],
        ids=["repeated", "decreasing", "at_duration"],
    )
    def test_times_must_increase_inside_the_duration(self, times, match):
        with pytest.raises(DomainError, match=match):
            TimingPattern(times, 1e-6, "x")

    def test_grid_bound_count_must_match_the_pulses(self):
        with pytest.raises(DomainError, match="boundary count does not match pulse count"):
            TimingPattern((0.25e-6, 0.5e-6), 1e-6, "x", grid=(4, (1, 2, 3)))

    def test_times_off_the_grid_raise(self):
        # the time says 0.3 of the duration, the grid says the midpoint
        with pytest.raises(DomainError, match="grid"):
            TimingPattern((0.3e-6,), 1e-6, "x", grid=(2, (1,)))

    def test_repeated_grid_bound_is_refused(self):
        # two times 1e-19 apart round to the same slot boundary
        with pytest.raises(DomainError, match=r"grid boundaries must increase strictly .*, got \(4, \(1, 1, 2\)\)"):
            TimingPattern((0.25e-6, 0.25e-6 + 1e-19, 0.5e-6), 1e-6, "dup", grid=(4, (1, 1, 2)))

    @pytest.mark.parametrize("n_slots", [0, -4])
    def test_grid_without_slots_is_refused(self, n_slots):
        # zero slots divided by zero while checking the times
        with pytest.raises(DomainError, match="grid boundaries"):
            TimingPattern((), 1e-6, "x", grid=(n_slots, ()))

    def test_concat_of_unequal_slots_drops_the_grid(self):
        assert concat(cdd(2, 1e-6), cdd(2, 2e-6)).grid is None
        assert concat(cdd(2, 1e-6), cdd(2, 1e-6)).grid == (8, (1, 3, 5, 7))

    def test_a_join_checks_its_grid_once(self, monkeypatch):
        from ddmemory import sequences

        base = cdd(4, 1e-6)
        calls = []
        on_grid = sequences._on_grid

        def counted(times, duration, grid):
            calls.append(grid[0])
            return on_grid(times, duration, grid)

        monkeypatch.setattr(sequences, "_on_grid", counted)
        assert repeat_pattern(base, 1000).grid[0] == 16_000
        assert calls == [16_000]
