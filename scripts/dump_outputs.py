#!/usr/bin/env python3
"""Dump the repr of every reference output, for bit-identity checks between commits.

Writes one line per case to stdout: every entry of the frozen reference
table (tests/test_reference.py), the plateau and jitter calls, the
AccuracyError (message, estimate, bound) of each panel-budget exhaustion,
the type and message of every other refusal, and the exit code and output
of a fixed set of CLI runs. Two checkouts agree bit for bit when their
dumps do:

    PYTHONPATH=src python3 scripts/dump_outputs.py > a.txt   # in each checkout
    cmp a.txt b.txt

A run takes about 10 s on a 2-CPU machine.
"""

import contextlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_reference import cases  # noqa: E402

from ddmemory import (  # noqa: E402
    DEFAULT_CONFIG,
    AccuracyError,
    DDMemoryError,
    HARD,
    PowerLaw,
    TimingPattern,
    bang_bang,
    cdd,
    chi,
    chi_plateau_limit,
    chi_repeated,
    chi_with_jitter,
    concat,
    dcg3,
    echo,
    spectrum_to_json,
    free_evolution,
    jitter_tolerance,
    load_preset,
    m_max_soft_detail,
    plateau_report,
    primitive,
    pulse_order,
    repeat_pattern,
    suppression_order,
    udd,
    walsh,
)
from ddmemory.cli import main as cli_main  # noqa: E402
from ddmemory.pulses import pulse_quadratures  # noqa: E402

_CDD4 = ["--sequence", "cdd:4", "--tau", "1e-6"]
CLI_RUNS = [
    ["error", *_CDD4, "--spectrum", "gaas"],
    ["error", *_CDD4, "--spectrum", "gaas", "--pulse", "dcg:1e-08", "--repeat", "1000"],
    ["error", "--sequence", "udd:5", "--tau", "1e-6", "--spectrum", "yb", "--format", "json"],
    ["sweep-m", *_CDD4, "--spectrum", "gaas", "--m-max", "100000", "--points", "6"],
    ["sweep-m", "--sequence", "cdd:2", "--tau", "1e-6", "--spectrum", "gaas",
     "--m", "3", "--m", "20000"],
    ["trace", "--sequence", "udd:5", "--tau", "1e-6", "--spectrum", "gaas", "--points", "12"],
    ["plateau", *_CDD4, "--spectrum", "gaas", "--pulse", "dcg:1e-08", "--t-markov", "1",
     "--jitter-budget-factor", "2"],
    ["ff", *_CDD4, "--points", "64"],
    ["ff", *_CDD4, "--points", "64", "--pulse", "dcg:1e-08"],
    ["ff", "--sequence", "udd:3", "--tau", "1e-6", "--points", "64", "--pulse", "primitive:1e-09"],
    ["search", "--tau", "1e-6", "--t-s", "8e-6", "--t-s", "64e-6", "--spectrum", "gaas",
     "--threads", "1"],
    ["calibrate", "--spectrum", "gaas", "--t2", "35e-9"],
    ["calibrate", "--spectrum", "yb", "--t2", "1e-3"],
    ["ff", *_CDD4, "--points", "8", "--repeat", "-3"],
    ["ff", *_CDD4, "--points", "8", "--repeat", "0"],
    ["plateau", *_CDD4, "--spectrum", "gaas", "--jitter-m", "0"],
    # a read delay after 5e4 repeats: one comb walk per delay
    ["plateau", *_CDD4, "--spectrum", "gaas", "--pulse", "dcg:1e-08", "--jitter-budget-factor", "2",
     "--jitter-m", "50000"],
]
# an odd base with finite pulses on s = 1, where its plateau conditions hold;
# S1_SPECTRUM is replaced by the path of that spectrum's file
S1_SPECTRUM = "<gaas with s = 1>"
CLI_RUNS.append(["plateau", "--sequence", "udd:5", "--duration", "16e-6", "--spectrum", S1_SPECTRUM,
                 "--pulse", "dcg:1e-08"])


def _calls():
    yield from sorted(cases().items())
    gaas = load_preset("gaas")
    p = cdd(4, 1e-6)
    yield "plateau_report/dcg_10ns", lambda: plateau_report(
        p, gaas, dcg3(1e-8), t_markov=1.0, jitter_budget_factor=2.0
    )
    # CDD4 with bang-bang and DCG pulses is in the reference table above
    yield "jitter_tolerance/cdd4/primitive_1ns", lambda: jitter_tolerance(
        p, 1000, gaas, primitive(1e-9)
    )
    # an odd base with finite pulses: its budget is the comb walk's plateau level
    yield "jitter_tolerance/echo/primitive_1ns/16", lambda: jitter_tolerance(
        echo(2e-6), 16, gaas, primitive(1e-9)
    )
    # its read delay continues the last copy's sign
    yield "chi_with_jitter/echo/primitive_1ns/16", lambda: chi_with_jitter(
        echo(2e-6), 16, 1e-10, gaas, primitive(1e-9)
    )
    yield "chi_with_jitter/bb", lambda: chi_with_jitter(p, 1000, 1e-7, gaas)
    yield "chi_with_jitter/dcg_10ns", lambda: chi_with_jitter(p, 1000, 1e-7, gaas, dcg3(1e-8))
    # an odd base with finite pulses: junction pulses through the repetition factor,
    # and past the crossover through the comb walk's r = G X - Y
    u5 = udd(5, 16e-6)
    for m in (8, 64, 1000, 1001, 10**6):
        yield f"chi_repeated/udd5/dcg_10ns/{m}", lambda m=m: chi_repeated(u5, m, gaas, dcg3(1e-8))
    yield "chi_with_jitter/udd5/dcg_10ns", lambda: chi_with_jitter(
        u5, 1000, 1e-12, gaas, dcg3(1e-8)
    )
    # off every grid and not at Uhrig's times: the exact integer moments of the float times
    yb = load_preset("yb")
    off_grid = (("udd5_x8", repeat_pattern(u5, 8)), ("udd4+udd6", concat(udd(4, 16e-6), udd(6, 16e-6))))
    for name, q in off_grid:
        for spec_name, spec in (("gaas", gaas), ("yb", yb)):
            yield f"chi/{name}/{spec_name}", lambda q=q, spec=spec: chi(q, spec)
    # the comb walk's level on gaas, whose plateau conditions fail on the fitted pulse order,
    # and on s = 1, where they hold
    yield "chi_plateau_limit/udd5/dcg_10ns", lambda: chi_plateau_limit(u5, gaas, dcg3(1e-8))
    yield "plateau_report/udd5/dcg_10ns", lambda: plateau_report(u5, gaas, dcg3(1e-8))
    s1 = replace(gaas, s=1.0)
    yield "chi_plateau_limit/udd5/dcg_10ns/s1", lambda: chi_plateau_limit(u5, s1, dcg3(1e-8))
    # a read delay after 5e4 repeats, past the reach of a direct walk
    yield "jitter_tolerance/cdd4/dcg_10ns/50000", lambda: jitter_tolerance(p, 5 * 10**4, gaas, dcg3(1e-8))
    # chi grows linearly in m from a negative intercept: no plateau level
    yield "chi_plateau_limit/w60_256", lambda: chi_plateau_limit(walsh(60, 256e-6, 256), gaas)
    r8 = replace(gaas, rolloff=PowerLaw(8.0))
    yield "chi_plateau_limit/w25_64_r8", lambda: chi_plateau_limit(walsh(25, 64 * 7.75e-6, 64), r8)
    # the per-pulse quadratures around each segment resonance, and the DCG closed pair on more bases
    for shape_name, shape in (("primitive_1ns", primitive(1e-9)), ("dcg_10ns", dcg3(1e-8))):
        big_omega = shape.rabi_frequency
        for w_name, w in (("1e3", 1e3), ("1e6", 1e6), ("Omega/2", 0.5 * big_omega),
                          ("Omega", big_omega), ("1e9", 1e9)):
            yield f"pulse_quadratures/{shape_name}/{w_name}", lambda shape=shape, w=w: pulse_quadratures(shape, w)
    for base_name, base in (("cdd2", cdd(2, 1e-6)), ("udd4", udd(4, 16e-6))):
        yield f"pulse_order/{base_name}/dcg_10ns", lambda base=base: pulse_order(base, dcg3(1e-8))
    r18 = replace(gaas, rolloff=PowerLaw(18.0))
    yield "m_max_soft_detail/r18", lambda: m_max_soft_detail(p, r18)
    # the cutoff inside resonance cell 1 (pi/T_p < omega_c): the comb walk's chi_low
    # takes that cell's part below the cutoff
    q = cdd(4, 4e-6)
    yield "chi_repeated/cdd4_4us/1001", lambda: chi_repeated(q, 1001, gaas)
    yield "chi_plateau_limit/cdd4_4us/r18", lambda: chi_plateau_limit(q, r18)
    # the comb path where h jumps (hard cutoff) or kinks (power law) inside its
    # de-oscillated parts, each break a panel edge
    for spec_name, spec in (("hard", replace(gaas, rolloff=HARD)), ("r18", r18)):
        for shape_name, shape in (("bb", bang_bang()), ("dcg_10ns", dcg3(1e-8))):
            yield f"chi_repeated/{spec_name}/{shape_name}/10000", (
                lambda spec=spec, shape=shape: chi_repeated(p, 10**4, spec, shape)
            )
    # an odd base near omega_min, a spectrum whose g is largest at omega_min, and
    # a long base period at m = 10^4 on the power-law rolloff
    yield "chi_repeated/w37_64/1001", lambda: chi_repeated(walsh(37, 64e-6, 64), 1001, gaas)
    yield "chi_repeated/yb/free_16us/1001", lambda: chi_repeated(
        free_evolution(16e-6), 1001, load_preset("yb")
    )
    yield "chi_repeated/r18/udd4_16us/10000", lambda: chi_repeated(udd(4, 16e-6), 10**4, r18)
    # free evolution on gaas at m = 1001 and 2000, on the comb walk: no pulses, so
    # chi is set by the panel rule alone, and the oracle compares it at a few ulp
    for m in (1001, 2000):
        yield f"chi_repeated/free_16us/{m}", lambda m=m: chi_repeated(free_evolution(16e-6), m, gaas)
    # rel_tol is the only accuracy rule: at 1e-12 the walk refines past the default's error
    yield "chi/cdd4/rel_tol_1e-12", lambda: chi(p, gaas, config=replace(DEFAULT_CONFIG, rel_tol=1e-12))
    # the comb walk at rel_tol = 1e-9 on the r = 18 power law, where the panel above
    # the cutoff needs the weighted rule's own error to split it
    for m, crossover in ((200, 64), (1001, 1000)):
        cfg = replace(DEFAULT_CONFIG, rel_tol=1e-9, comb_crossover=crossover)
        yield f"chi_repeated/r18/cdd4/{m}/rel_tol_1e-9", (
            lambda m=m, cfg=cfg: chi_repeated(p, m, r18, config=cfg)
        )
    small = replace(DEFAULT_CONFIG, max_panels=64, validate_crossover=False)
    tight = replace(small, rel_tol=1e-12)
    bb = bang_bang()
    yield "exhausted/chi", lambda: chi(p, gaas, bb, tight)
    yield "exhausted/chi_repeated_direct", lambda: chi_repeated(p, 100, gaas, bb, small)  # m0: still direct
    yield "exhausted/chi_repeated_comb", lambda: chi_repeated(p, 10**6, gaas, bb, small)
    yield "exhausted/chi_plateau_limit", lambda: chi_plateau_limit(p, gaas, bb, small)
    yield "exhausted/chi_with_jitter", lambda: chi_with_jitter(p, 1000, 1e-7, gaas, bb, small)
    # a 1.024 ms block 1000 times: the direct walk runs out of panels there, the comb walk does not
    yield "chi_repeated/w555_1024/1000", lambda: chi_repeated(walsh(555, 1024e-6, 1024), 1000, gaas)
    # CDD4 at and just past the default crossover: the crossover check's direct budget, then the comb walk
    for m in (100, 101):
        yield f"chi_repeated/cdd4/{m}", lambda m=m: chi_repeated(p, m, gaas)
    # CDD4 with 1.26 us slots at m = 1001: the comb walk meets rel_tol = 1e-9
    yield "chi_repeated/cdd4_1.26us/1001/rel_tol_1e-9", lambda: chi_repeated(
        cdd(4, 1.26e-6), 1001, gaas, config=replace(DEFAULT_CONFIG, rel_tol=1e-9)
    )
    # the fit reads |omega*y|, which does not underflow on its grid up to N_MOMENTS - 1
    for n in (28, 35, 36):
        yield f"suppression_order/udd{n}", lambda n=n: suppression_order(udd(n, 1e-6))
    # a 4 ns DCG footprint in a 1 ns half-interval
    yield "refused/pulse_order_footprint", lambda: pulse_order(echo(2e-9), dcg3(1e-9))
    # two pulse times 1e-19 s apart on one slot boundary
    yield "refused/repeated_grid_bound", lambda: TimingPattern(
        (0.25e-6, 0.25e-6 + 1e-19, 0.5e-6), 1e-6, "dup", grid=(4, (1, 1, 2))
    )


def _cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(args))
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def main() -> None:
    for name, call in _calls():
        try:
            text = repr(call())
        except AccuracyError as exc:
            text = f"{type(exc).__name__}({str(exc)!r}, {exc.estimate!r}, {exc.error_bound!r})"
        except DDMemoryError as exc:
            text = f"{type(exc).__name__}({str(exc)!r})"
        print(f"{name}: {text}")
    with tempfile.TemporaryDirectory() as tmp:
        s1 = Path(tmp) / "gaas_s1.json"
        s1.write_text(json.dumps(spectrum_to_json(replace(load_preset("gaas"), s=1.0))))
        for args in CLI_RUNS:
            run = [str(s1) if a == S1_SPECTRUM else a for a in args]
            print(f"$ ddmemory {' '.join(args)}\n{_cli(run)}")


if __name__ == "__main__":
    main()
