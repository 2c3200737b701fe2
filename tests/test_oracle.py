"""chi against the independent reference in bench/oracle.py, pulse shapes included.

The reference is a dense Gauss-Legendre sum of the raw vertex phasor
filter, on pulse timings it builds itself; it shares only the per-pulse
response `pulse_quadratures` with the library.  Every chi must lie within
max(quad_error, rel_tol * chi) of it, plus the reference's own error, and
the comb path's growth per repeat must match the reference's resonance sum.
Where the walk stops before every resonance with weight (slow power-law
tails, or resonances far past a Gaussian cutoff) the growth is checked
through the repeated chi instead: m times its gap from the resonance sum
must fit the error budget of chi at that m.  Past the crossover the comb
path's quad_error, which charges each panel's weighted integral of the
kernel's oscillation, must bound its gap from the reference and meet
rel_tol.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ddmemory import (
    DEFAULT_CONFIG,
    HARD,
    PowerLaw,
    bang_bang,
    cdd,
    chi_repeated,
    concat,
    dcg3,
    echo,
    free_evolution,
    load_preset,
    primitive,
    repeat_pattern,
    truncate,
    udd,
    walsh,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import oracle  # noqa: E402

TAU = 1e-6
SHAPES = {"bb": bang_bang(), "primitive_1ns": primitive(1e-9), "dcg_10ns": dcg3(1e-8)}
_THUE_MORSE_8 = np.array([bin(j).count("1") & 1 for j in range(8)])
_UDD5 = udd(5, 16 * TAU)
# name -> (library pattern, reference pattern)
PATTERNS = {
    "cdd4": (cdd(4, TAU), oracle.cdd_pattern(4, TAU)),
    "udd4": (udd(4, 16 * TAU), oracle.udd_pattern(4, 16 * TAU)),
    "udd5": (_UDD5, oracle.udd_pattern(5, 16 * TAU)),
    "w37_64": (walsh(37, 64 * TAU, 64), oracle.walsh_pattern(37, 64, 64 * TAU)),
    "free": (free_evolution(16 * TAU), oracle.Pattern((), 16 * TAU, grid=1)),
    "echo": (echo(2 * TAU), oracle.cdd_pattern(1, TAU)),
    "w555_1024": (walsh(555, 1024 * TAU, 1024), oracle.walsh_pattern(555, 1024, 1024 * TAU)),
    # a 24-slot grid that is no Walsh function: the exact-rational moment route
    "cdd3_x3": (
        repeat_pattern(cdd(3, TAU), 3),
        oracle._grid_pattern(np.tile(_THUE_MORSE_8, 3), TAU, 24 * TAU),
    ),
    # off every grid and not at Uhrig's times: the exact moments of its float times
    "udd5_cut": (
        truncate(_UDD5, 0.55 * _UDD5.duration),
        oracle.truncated(oracle.udd_pattern(5, 16 * TAU), 0.55 * _UDD5.duration),
    ),
}
_GAAS = load_preset("gaas")
SPECTRA = {
    "gaas": _GAAS,
    "gaas_hard": replace(_GAAS, rolloff=HARD),
    "gaas_r18": replace(_GAAS, rolloff=PowerLaw(18.0)),
    "yb": load_preset("yb"),
}
# m = comb_crossover is the direct walk and m = 1000 the comb walk.  W555@1024
# is not repeated here: the reference would hold one panel per kernel period
# 2 pi/(m T_p) up to its band top, far too many at m = 1000
CHI_CASES = [
    (name, spec_name, m)
    for m in (1, DEFAULT_CONFIG.comb_crossover, 1000)
    for spec_name in SPECTRA
    for name in sorted(PATTERNS)
    if not (name == "w555_1024" and m > 1)
]
# growth agrees with the resonance sum to 1e-9 where the walk reaches every
# resonance with weight; the other pairs are checked against the chi budget
STRICT_GROWTH = [(name, s) for s in ("gaas", "yb") for name in ("cdd4", "udd4", "udd5", "w37_64")]
# the reference sums W555@1024's 1e5 resonances below omega_max on gaas at
# 4-5 s a spectrum; its comb walk is checked on the two shorter bands
_SLOW_REFERENCE = [("w555_1024", "gaas"), ("w555_1024", "gaas_r18")]
BUDGET_GROWTH = [
    (name, s)
    for s in SPECTRA
    for name in sorted(PATTERNS)
    if (name, s) not in STRICT_GROWTH + _SLOW_REFERENCE
]


def _shapes(name: str, m: int) -> dict:
    # the reference's Dirichlet kernel does not model the junction pulses of
    # an odd pulse count, which finite-width pulses feel (the tiled reference
    # below covers those), and a pattern without pulses has nothing for a
    # pulse shape to change
    n = PATTERNS[name][0].n_pulses
    if n == 0 or (m > 1 and n % 2):
        return {"bb": SHAPES["bb"]}
    return SHAPES


@pytest.mark.parametrize("name, spec_name, m", CHI_CASES)
def test_chi_matches_reference(name, spec_name, m):
    p, ref_p = PATTERNS[name]
    spec = SPECTRA[spec_name]
    shapes = _shapes(name, m)
    refs = oracle.chi_refs(ref_p, spec, tuple(shapes.values()), m)
    for (shape_name, shape), ref in zip(shapes.items(), refs):
        b = chi_repeated(p, m, spec, shape)
        assert oracle.within(b.chi_total, b.quad_error, DEFAULT_CONFIG.rel_tol, ref), (
            f"{shape_name}: chi {b.chi_total!r} vs reference {ref.value!r} +- {ref.error!r}"
        )


@pytest.mark.parametrize("name, spec_name", STRICT_GROWTH)
def test_comb_growth_matches_reference(name, spec_name):
    p, ref_p = PATTERNS[name]
    spec = SPECTRA[spec_name]
    # the crossover check repeats a direct m = 1e4 integral; growth does not need it
    cfg = replace(DEFAULT_CONFIG, validate_crossover=False)
    for shape_name, shape in _shapes(name, 10**6).items():
        b = chi_repeated(p, 10**6, spec, shape, cfg)
        assert b.comb_path
        want = oracle.growth_ref(ref_p, spec, shape)
        assert b.growth_per_repeat == pytest.approx(want, rel=1e-9, abs=1e-300), shape_name


@pytest.mark.parametrize("name, spec_name", BUDGET_GROWTH)
def test_comb_growth_fits_the_error_budget(name, spec_name):
    p, ref_p = PATTERNS[name]
    spec = SPECTRA[spec_name]
    cfg = replace(DEFAULT_CONFIG, validate_crossover=False)
    m = 10**6
    for shape_name, shape in _shapes(name, m).items():
        b = chi_repeated(p, m, spec, shape, cfg)
        assert b.comb_path
        want = oracle.growth_ref(ref_p, spec, shape)
        gap = m * abs(b.growth_per_repeat - want)
        assert gap <= max(b.quad_error, cfg.rel_tol * b.chi_total), shape_name


# the comb path just past the crossover, at m = 1001 and at m = 1e4: CDD4
# across the benchmark's slot widths, UDD4, and W37@64, whose chi the
# resonance masses carry
COMB_PATTERNS = {
    **{
        f"cdd4_{x}us": (cdd(4, x * TAU), oracle.cdd_pattern(4, x * TAU), SHAPES)
        for x in (0.6, 1.0, 1.26, 1.4)
    },
    "udd4": PATTERNS["udd4"] + ({"bb": SHAPES["bb"]},),
    "w37_64": PATTERNS["w37_64"] + ({"bb": SHAPES["bb"]},),
}


_COMB_M = (DEFAULT_CONFIG.comb_crossover + 1, 1001, 10**4)
# every pattern on gaas, whose Gaussian rolloff leaves h smooth; CDD4 at two
# slot widths on the hard cutoff (a jump of h), the r = 18 power law (a
# kink) and yb, where h's break is a panel edge of the comb walk
COMB_CASES = [
    pytest.param(name, m, "gaas", id=f"{name}-{m}") for m in _COMB_M for name in sorted(COMB_PATTERNS)
] + [
    pytest.param(name, m, spec_name, id=f"{name}-{m}-{spec_name}")
    for spec_name in ("gaas_hard", "gaas_r18", "yb")
    for m in _COMB_M
    for name in ("cdd4_1.0us", "cdd4_1.26us")
]


@pytest.mark.parametrize("name, m, spec_name", COMB_CASES)
def test_comb_error_bound_holds_and_meets_rel_tol(name, m, spec_name):
    p, ref_p, shapes = COMB_PATTERNS[name]
    spec = SPECTRA[spec_name]
    refs = oracle.chi_refs(ref_p, spec, tuple(shapes.values()), m)
    for (shape_name, shape), ref in zip(shapes.items(), refs):
        b = chi_repeated(p, m, spec, shape)
        assert b.comb_path, shape_name
        assert abs(b.chi_total - ref.value) <= b.quad_error + ref.error, (
            f"{shape_name}: chi {b.chi_total!r} +- {b.quad_error!r} vs reference {ref.value!r}"
        )
        assert b.quad_error <= DEFAULT_CONFIG.rel_tol * b.chi_total, shape_name


@pytest.mark.parametrize("m", [DEFAULT_CONFIG.comb_crossover + 1, 1001, 2000])
def test_free_evolution_repeat_is_within_its_bound(m):
    # no pulses, so the gap is the panel rule's own: K15 weights whose sum
    # misses 2 by a few ulp scale every panel and show here
    p, ref_p = PATTERNS["free"]
    (ref,) = oracle.chi_refs(ref_p, _GAAS, (SHAPES["bb"],), m)
    b = chi_repeated(p, m, _GAAS)
    assert b.comb_path
    assert abs(b.chi_total - ref.value) <= b.quad_error + ref.error, (
        f"chi {b.chi_total!r} +- {b.quad_error!r} vs reference {ref.value!r} +- {ref.error!r}"
    )


def _tiled(ref_p: oracle.Pattern, m: int) -> oracle.Pattern:
    """m copies of an odd-count reference pattern, a junction pulse at each boundary j T_p."""
    t_p = ref_p.duration
    times = [t_p * j + t for j in range(m) for t in ((0.0,) if j else ()) + ref_p.times]
    return oracle.Pattern(tuple(times), m * t_p)


@pytest.mark.parametrize("m", [8, 64])
@pytest.mark.parametrize("name", ["echo", "udd5"])
def test_odd_base_repeat_matches_tiled_reference(name, m):
    # finite-width pulses on an odd base: the library's phasor-level
    # repetition factor against the explicitly tiled pattern
    p, ref_p = PATTERNS[name]
    shapes = {k: SHAPES[k] for k in ("primitive_1ns", "dcg_10ns")}
    refs = oracle.chi_refs(_tiled(ref_p, m), _GAAS, tuple(shapes.values()))
    for (shape_name, shape), ref in zip(shapes.items(), refs):
        b = chi_repeated(p, m, _GAAS, shape)
        assert oracle.within(b.chi_total, b.quad_error, DEFAULT_CONFIG.rel_tol, ref), (
            f"{shape_name}: chi {b.chi_total!r} vs reference {ref.value!r} +- {ref.error!r}"
        )


@pytest.mark.parametrize("name", ["echo", "udd5"])
def test_odd_base_comb_walk_matches_tiled_reference(name):
    # the same junction pulses through the comb walk's r = G X - Y, whose
    # order-one and order-zero terms only an odd base with finite pulses has
    m = 64
    p, ref_p = PATTERNS[name]
    shapes = {k: SHAPES[k] for k in ("primitive_1ns", "dcg_10ns")}
    refs = oracle.chi_refs(_tiled(ref_p, m), _GAAS, tuple(shapes.values()))
    cfg = replace(DEFAULT_CONFIG, comb_crossover=16, validate_crossover=False)
    for (shape_name, shape), ref in zip(shapes.items(), refs):
        b = chi_repeated(p, m, _GAAS, shape, cfg)
        assert b.comb_path, shape_name
        assert oracle.within(b.chi_total, b.quad_error, DEFAULT_CONFIG.rel_tol, ref), (
            f"{shape_name}: chi {b.chi_total!r} vs reference {ref.value!r} +- {ref.error!r}"
        )


# off every grid and not at Uhrig's times: explicit UDD5 tilings and a join of
# two UDD blocks, whose series the exact integer moments take from the float times
OFF_GRID = {
    "udd5_x2": repeat_pattern(_UDD5, 2),
    "udd5_x8": repeat_pattern(_UDD5, 8),
    "udd4+udd6": concat(udd(4, 16 * TAU), udd(6, 16 * TAU)),
}


@pytest.mark.parametrize("spec_name", ["gaas", "yb"])
@pytest.mark.parametrize("name", sorted(OFF_GRID))
def test_off_grid_pattern_matches_reference_on_its_float_times(name, spec_name):
    p = OFF_GRID[name]
    spec = SPECTRA[spec_name]
    ref = oracle.chi_ref(oracle.Pattern(p.pulse_times, p.duration), spec, SHAPES["bb"])
    b = chi_repeated(p, 1, spec)
    assert oracle.within(b.chi_total, b.quad_error, DEFAULT_CONFIG.rel_tol, ref), (
        f"chi {b.chi_total!r} vs reference {ref.value!r} +- {ref.error!r}"
    )
