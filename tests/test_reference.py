"""Frozen reference table for every chi flavour, the passband maximum and the search.

The chi and passband values in reference_values.json were computed with
an earlier implementation, which built the integrand per flavour and
maximised the passband with a library optimiser; the search entries
(winner and its budget for N = 2 ... 256 slots, every candidate's chi at
N = 64) with the per-pulse phasor sum, before Walsh patterns got their
product-form transform; the finite-pulse entries on UDD, Walsh on `yb`,
the truncated readouts, the DCG jitter tolerance and the pulse-order fits
while the pulse phasor u_p was still summed pulse by pulse.  The current
code must reproduce each entry within 1e-9 relative, with the same repeat
count, path flag, growth term and search winner on every budget.

One entry was changed by hand since: the full UDD5 readout with DCG
pulses, whose pulses lower chi by 0.5 %.  It was frozen with chi_pul
clipped to 0 and chi_bb to chi_total; the excess is now reported signed,
so it holds the bang-bang chi as chi_bb and the negative difference.
The chi_low/chi_high split of the three chi_repeated entries at m = 1000
was re-frozen once the cutoff became a panel edge there: a kernel node
within 1e-12 of omega_c used to stand in for it, and the panel above that
node counted below the cutoff.  Their chi_total did not move.  The DCG
pulse-order mismatch was re-frozen (0.8196 -> 3.3e-9) once its closed pair
was derived from the pulse's drive segments; its fitted exponent and
amplitude did not move.  When the comb crossover moved from m = 1000 to
100, the three chi_repeated entries at m = 1000 were re-frozen on the comb
walk: their path flag and growth term are now set, and chi moved by at most
3.1e-14 relative, inside quad_error.  When jitter_tolerance began to aim at
the root of a power-law fit instead of bisecting, its two entries were
re-frozen too; they moved by at most 2.9e-4 relative, inside JITTER_REL_TOL.
"""

import json
import math
from dataclasses import asdict, replace
from functools import lru_cache
from pathlib import Path

import pytest

from ddmemory import (
    HARD,
    PowerLaw,
    PulseOrder,
    SearchResult,
    bang_bang,
    best_sequence,
    cdd,
    chi,
    chi_asymptotic,
    chi_during,
    chi_plateau_limit,
    chi_repeated,
    dcg3,
    jitter_tolerance,
    load_preset,
    passband_max,
    primitive,
    pulse_order,
    udd,
    udd_from_min_interval,
    walsh,
)

REL = 1e-9
TAU = 1e-6
REFERENCE = json.loads((Path(__file__).with_name("reference_values.json")).read_text())
SEARCH_SLOTS = tuple(2**q for q in range(1, 9))
# parts compared on the scale of a whole: budget parts on chi_total, the
# components of a fitted amplitude on its modulus, a relative mismatch on 1
_PARTS = ("chi_total", "chi_bb", "chi_pul", "chi_low", "chi_high", "quad_error")
_AMPLITUDE = ("amplitude_fit_re", "amplitude_fit_im")

_SHAPES = {"bb": bang_bang, "primitive_1ns": lambda: primitive(1e-9), "dcg_10ns": lambda: dcg3(1e-8)}


def _spectra():
    gaas = load_preset("gaas")
    return {"gaas": gaas, "hard": replace(gaas, rolloff=HARD), "r18": replace(gaas, rolloff=PowerLaw(18.0))}


@lru_cache(maxsize=None)
def _search(n: int) -> SearchResult:
    return best_sequence(n * TAU, TAU, load_preset("gaas"), workers=1)


def cases():
    """Name -> zero-argument callable returning an ErrorBudget, a SearchResult, a list or a float."""
    spectra = _spectra()
    gaas = spectra["gaas"]
    p = cdd(4, TAU)
    out = {}
    for shape_name, make in _SHAPES.items():
        out[f"chi/{shape_name}"] = lambda make=make: chi(p, gaas, make())
        for m in (1, 10, 1000, 10**6):
            out[f"chi_repeated/{shape_name}/{m}"] = (
                lambda make=make, m=m: chi_repeated(p, m, gaas, make())
            )
    for shape_name in ("bb", "dcg_10ns"):
        make = _SHAPES[shape_name]
        out[f"chi_plateau_limit/{shape_name}"] = lambda make=make: chi_plateau_limit(p, gaas, make())
    # at tau = 4 us the cutoff sits past half the first resonance (x = 0.64)
    for spec_name, spec in spectra.items():
        for shape_name in ("bb", "dcg_10ns"):
            for tau in (TAU, 4 * TAU):
                out[f"chi_asymptotic/{spec_name}/{shape_name}/{tau:g}"] = (
                    lambda spec=spec, make=_SHAPES[shape_name], tau=tau:
                    chi_asymptotic(cdd(4, tau), spec, make())
                )
    # dense Walsh patterns, as ranked by the search
    for k, n in ((37, 64), (555, 1024)):
        out[f"chi/walsh/w{k}_{n}"] = lambda k=k, n=n: chi(walsh(k, n * TAU, n), gaas, bang_bang())
    out["jitter_tolerance/cdd4/1000"] = lambda: jitter_tolerance(p, 1000, gaas)
    out["jitter_tolerance/cdd4/1000/dcg_10ns"] = lambda: jitter_tolerance(p, 1000, gaas, dcg3(1e-8))
    # finite pulses on patterns without a Walsh grid, on a second spectrum,
    # and at readouts that cut the pattern short (odd pulse counts included)
    u5 = udd(5, 16 * TAU)
    out["chi/udd4/dcg_10ns"] = lambda: chi(udd(4, 16 * TAU), gaas, dcg3(1e-8))
    out["chi/walsh/w37_64/yb/primitive_1ns"] = lambda: chi(
        walsh(37, 64 * TAU, 64), load_preset("yb"), primitive(1e-9)
    )
    for frac in (0.3, 0.55, 1.0):
        out[f"chi_during/udd5/dcg_10ns/{frac:g}"] = (
            lambda frac=frac: chi_during(u5, frac * u5.duration, gaas, dcg3(1e-8))
        )
    for shape_name in ("primitive_1ns", "dcg_10ns"):
        out[f"pulse_order/cdd4/{shape_name}"] = lambda make=_SHAPES[shape_name]: pulse_order(p, make())
    out["passband_max/cdd4"] = lambda: passband_max(p)
    out["passband_max/udd5"] = lambda: passband_max(udd_from_min_interval(5, TAU))
    out["passband_max/w37_64"] = lambda: passband_max(walsh(37, 64 * TAU, 64))
    for n in SEARCH_SLOTS:
        out[f"best_sequence/{n}"] = lambda n=n: _search(n)
    out["best_sequence/64/candidates"] = lambda: [c.chi_total for c in _search(64).candidates]
    return out


def record(value):
    """JSON-ready form of a case result."""
    if isinstance(value, (float, list)):
        return value
    if isinstance(value, PulseOrder):
        return {
            "alpha_fit": value.alpha_fit,
            "amplitude_fit_re": value.amplitude_fit.real,
            "amplitude_fit_im": value.amplitude_fit.imag,
            "mismatch": value.mismatch,
        }
    if isinstance(value, SearchResult):
        det = value.detected_structure
        return {
            "winner_index": value.winner_index,
            **asdict(value.chi),
            "repeats": det.repeats if det else None,
            "kernel_chi": det.kernel_chi if det else None,
        }
    return {
        "chi_total": value.chi_total,
        "chi_bb": value.chi_bb,
        "chi_pul": value.chi_pul,
        "chi_low": value.chi_low,
        "chi_high": value.chi_high,
        "m": value.m,
        "growth_per_repeat": value.growth_per_repeat,
        "comb_path": value.comb_path,
    }


def test_table_covers_every_case():
    assert set(REFERENCE) == set(cases())


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_matches_reference(name):
    got = record(cases()[name]())
    ref = REFERENCE[name]
    if isinstance(ref, float):
        assert got == pytest.approx(ref, rel=REL, abs=0.0)
        return
    if isinstance(ref, list):
        assert [g is None for g in got] == [r is None for r in ref]
        assert [g for g in got if g is not None] == pytest.approx(
            [r for r in ref if r is not None], rel=REL, abs=0.0
        )
        return
    assert got.keys() == ref.keys()
    # parts are compared on the scale of the total, so a part that is a
    # difference of near-equal numbers is held to the same absolute accuracy
    scale = {key: REL * abs(ref["chi_total"]) for key in _PARTS if "chi_total" in ref}
    if "amplitude_fit_re" in ref:
        modulus = abs(complex(ref["amplitude_fit_re"], ref["amplitude_fit_im"]))
        scale.update({key: REL * modulus for key in _AMPLITUDE}, mismatch=REL)
    for key, val in ref.items():
        if isinstance(val, float):
            abs_tol = scale.get(key, 0.0)
            assert math.isclose(got[key], val, rel_tol=REL, abs_tol=abs_tol), key
        else:
            assert got[key] == val, key
