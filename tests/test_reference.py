"""Frozen reference table for every chi flavour and the passband maximum.

The values in reference_values.json were computed with the earlier
implementation, which built the integrand per flavour and maximised the
passband with a library optimiser.  The current single-path code must
reproduce each entry within 1e-9 relative, with the same repeat count,
path flag and growth term on every budget.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from ddmemory import (
    HARD,
    PowerLaw,
    bang_bang,
    cdd,
    chi,
    chi_asymptotic,
    chi_plateau_limit,
    chi_repeated,
    dcg3,
    jitter_tolerance,
    load_preset,
    passband_max,
    primitive,
    udd_from_min_interval,
    walsh,
)

REL = 1e-9
TAU = 1e-6
REFERENCE = json.loads((Path(__file__).with_name("reference_values.json")).read_text())

_SHAPES = {"bb": bang_bang, "primitive_1ns": lambda: primitive(1e-9), "dcg_10ns": lambda: dcg3(1e-8)}


def _spectra():
    gaas = load_preset("gaas")
    return {"gaas": gaas, "hard": replace(gaas, rolloff=HARD), "r18": replace(gaas, rolloff=PowerLaw(18.0))}


def cases():
    """Name -> zero-argument callable returning an ErrorBudget or a float."""
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
    out["passband_max/cdd4"] = lambda: passband_max(p)
    out["passband_max/udd5"] = lambda: passband_max(udd_from_min_interval(5, TAU))
    out["passband_max/w37_64"] = lambda: passband_max(walsh(37, 64 * TAU, 64))
    return out


def record(value):
    """JSON-ready form of a case result."""
    if isinstance(value, float):
        return value
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
        assert got == pytest.approx(ref, rel=REL)
        return
    assert (got["m"], got["comb_path"]) == (ref["m"], ref["comb_path"])
    if ref["growth_per_repeat"] is None:
        assert got["growth_per_repeat"] is None
    else:
        assert got["growth_per_repeat"] == pytest.approx(ref["growth_per_repeat"], rel=REL)
    # parts are compared on the scale of the total, so a part that is a
    # difference of near-equal numbers is held to the same absolute accuracy
    scale = REL * abs(ref["chi_total"])
    for key in ("chi_total", "chi_bb", "chi_pul", "chi_low", "chi_high"):
        assert math.isclose(got[key], ref[key], rel_tol=REL, abs_tol=scale), key
