"""Closed-form product transform of Walsh patterns and the index that selects it.

A pattern whose grid signs are Walsh w_k on N = 2**q slots carries
walsh_index k, read off the grid at construction, and is transformed as a
product of q + 1 sines and cosines.  It must agree with the vertex phasor
sum above omega*T_p = 2, to the rounding of that sum, and with the Taylor
series below it.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmemory import (
    DomainError,
    TimingPattern,
    cdd,
    concat,
    echo,
    free_evolution,
    repeat_pattern,
    truncate,
    walsh,
    walsh_signs,
)
from ddmemory import filters, sequences
from ddmemory.walsh_search import _grid_signs, detect_structure

EPS = np.finfo(float).eps
TAU = 1e-6

def _paley_signs(k, n):
    """Reference Walsh signs on n = 2**q slots: slot j is -1 when k & reverse_q(j) has odd parity."""
    q = n.bit_length() - 1
    rev_k = int(format(k, f"0{q}b")[::-1], 2)
    return [-1 if (rev_k & j).bit_count() & 1 else 1 for j in range(n)]


walsh_indices = st.integers(0, 10).flatmap(lambda q: st.tuples(st.integers(0, 2**q - 1), st.just(2**q)))


@given(walsh_indices)
@settings(max_examples=40, deadline=None)
def test_product_matches_phasor_sum_above_series_switch(kn):
    k, n = kn
    p = walsh(k, n * TAU, n)
    w = np.geomspace(2.0, 1e3 * n, 200) / p.duration
    got = filters.omega_y_tilde(p, w)
    ref = filters.phasor_sum(*filters._vertex_coefficients(p), w)
    # each of the n + 2 terms carries a phase rounded by about eps * omega * t
    bound = 4.0 * EPS * (1.0 + w * p.duration) * (p.n_pulses + 2)
    assert np.all(np.abs(got - ref) <= bound)


@given(walsh_indices)
@settings(max_examples=40, deadline=None)
def test_product_matches_series_below_switch(kn):
    k, n = kn
    p = walsh(k, n * TAU, n)
    theta = np.geomspace(1e-3, filters.THETA_SWITCH, 100)
    got = filters.omega_y_tilde(p, theta / p.duration)
    ref = filters._series_eval(p, theta)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


@pytest.mark.parametrize(
    "p",
    [
        walsh(37, 64 * TAU, 64),
        walsh(0, 8 * TAU, 8),
        cdd(4, TAU),
        free_evolution(TAU),
        echo(2 * TAU),
        detect_structure(walsh(240, 256 * TAU, 256))[0],
        repeat_pattern(cdd(4, TAU), 4),
    ],
    ids=lambda p: p.label,
)
def test_walsh_index_reproduces_slot_signs(p):
    assert p.walsh_index is not None
    assert _paley_signs(p.walsh_index, p.grid[0]) == _grid_signs(p)


@pytest.mark.parametrize(
    "bounds, n_slots, label",
    [
        ((1, 3, 4), 6, "block3"),  # signs + - - repeated: period 3
        ((3, 4, 7), 8, "block4"),  # signs + + + - repeated: not a Walsh function
    ],
)
def test_non_walsh_base_carries_no_index(bounds, n_slots, label):
    p = TimingPattern(tuple(b * TAU for b in bounds), n_slots * TAU, "tiled", grid=(n_slots, bounds))
    base, repeats = detect_structure(p)
    assert (base.label, base.walsh_index, repeats) == (label, None, 2)


def test_paley_index_of_a_non_walsh_grid_is_none():
    three = TimingPattern((TAU,), 3 * TAU, "three", grid=(3, (1,)))
    assert three.walsh_index is None
    assert truncate(cdd(2, TAU), 2.5 * TAU).walsh_index is None


@given(st.integers(1, 5).flatmap(lambda q: st.sets(st.integers(1, 2**q - 1)).map(lambda s: (2**q, s))))
@settings(max_examples=60, deadline=None)
def test_paley_index_is_the_only_walsh_function_on_the_grid(ns):
    n, flips = ns
    bounds = tuple(sorted(flips))
    p = TimingPattern(tuple(b * TAU for b in bounds), n * TAU, "grid", grid=(n, bounds))
    matches = [k for k in range(n) if _grid_signs(p) == _paley_signs(k, n)]
    assert matches == ([] if p.walsh_index is None else [p.walsh_index])


def _flips(signs):
    return tuple(j for j in range(1, len(signs)) if signs[j] != signs[j - 1])


@pytest.mark.parametrize("q", range(11))
def test_closed_form_bounds_and_index_match_the_signs_for_every_k(q):
    n = 2**q
    for k in range(n):
        p = walsh(k, n * TAU, n)
        signs = _paley_signs(k, n)
        assert (p.grid[1], p.walsh_index) == (_flips(signs), k)
        assert walsh_signs(k, n) == signs


@pytest.mark.parametrize("q", range(5))
def test_closed_form_index_of_every_grid_subset(q):
    # every set of flip boundaries on up to 16 slots: Walsh exactly when a k has those flips
    n = 2**q
    walsh_of = {_flips(_paley_signs(k, n)): k for k in range(n)}
    for r in range(n):
        for bounds in itertools.combinations(range(1, n), r):
            assert sequences._paley_index((n, bounds)) == walsh_of.get(bounds)


@given(walsh_indices, st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_power_of_two_repeats_keep_a_walsh_index(kn, r):
    # w_k repeated 2**r times is w_{k * 2**r}, whichever way it is joined
    k, n = kn
    p = walsh(k, n * TAU, n)
    assert repeat_pattern(p, 2**r).walsh_index == k << r
    assert concat(p, p).walsh_index == 2 * k
