"""chi against the independent reference in bench/oracle.py, pulse shapes included.

The reference is a dense Gauss-Legendre sum of the raw vertex phasor
filter, on pulse timings it builds itself; it shares only the per-pulse
response `pulse_quadratures` with the library.  Every chi must lie within
max(quad_error, rel_tol * chi) of it, plus the reference's own error, and
the comb path's growth per repeat must match the reference's resonance sum.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ddmemory import (
    DEFAULT_CONFIG,
    bang_bang,
    cdd,
    chi_repeated,
    dcg3,
    load_preset,
    primitive,
    udd,
    walsh,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import oracle  # noqa: E402

TAU = 1e-6
SHAPES = {"bb": bang_bang(), "primitive_1ns": primitive(1e-9), "dcg_10ns": dcg3(1e-8)}
# name -> (library pattern, reference pattern)
PATTERNS = {
    "cdd4": (cdd(4, TAU), oracle.cdd_pattern(4, TAU)),
    "udd4": (udd(4, 16 * TAU), oracle.udd_pattern(4, 16 * TAU)),
    "udd5": (udd(5, 16 * TAU), oracle.udd_pattern(5, 16 * TAU)),
    "w37_64": (walsh(37, 64 * TAU, 64), oracle.walsh_pattern(37, 64, 64 * TAU)),
}
SPECTRA = ("gaas", "yb")


def _shapes(name: str, m: int) -> dict:
    # an odd pulse count has no repetition kernel with finite-width pulses
    if m > 1 and PATTERNS[name][0].n_pulses % 2:
        return {"bb": SHAPES["bb"]}
    return SHAPES


@pytest.mark.parametrize("m", (1, 1000))
@pytest.mark.parametrize("spec_name", SPECTRA)
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_chi_matches_reference(name, spec_name, m):
    p, ref_p = PATTERNS[name]
    spec = load_preset(spec_name)
    shapes = _shapes(name, m)
    refs = oracle.chi_refs(ref_p, spec, tuple(shapes.values()), m)
    for (shape_name, shape), ref in zip(shapes.items(), refs):
        b = chi_repeated(p, m, spec, shape)
        assert oracle.within(b.chi_total, b.quad_error, DEFAULT_CONFIG.rel_tol, ref), (
            f"{shape_name}: chi {b.chi_total!r} vs reference {ref.value!r} +- {ref.error!r}"
        )


@pytest.mark.parametrize("spec_name", SPECTRA)
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_comb_growth_matches_reference(name, spec_name):
    p, ref_p = PATTERNS[name]
    spec = load_preset(spec_name)
    # the crossover check repeats a direct m = 1e4 integral; growth does not need it
    cfg = replace(DEFAULT_CONFIG, validate_crossover=False)
    for shape_name, shape in _shapes(name, 10**6).items():
        b = chi_repeated(p, 10**6, spec, shape, cfg)
        assert b.comb_path
        want = oracle.growth_ref(ref_p, spec, shape)
        assert b.growth_per_repeat == pytest.approx(want, rel=1e-9, abs=1e-300), shape_name
