"""Command-line front end binding sequences, spectra, and error integrals.

Subcommands: ff, error, sweep-m, trace, plateau, search, calibrate.
Every run echoes its fully resolved configuration (frequencies in rad/s,
times in s) into the output header so results can be reproduced exactly.
CSV column sets are frozen per subcommand; see README.

Exit codes: 0 ok, 2 usage, 3 domain error, 4 accuracy, 5 resource limit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from typing import Dict, List, Optional, Sequence as SeqT

import click
import numpy as np

from . import __version__
from .errors import DDMemoryError, DomainError, require_positive
from .integrals import DEFAULT_CONFIG, QuadratureConfig, chi_during, chi_repeated
from .noise import NoiseSpectrum, calibrate_strength, load_preset, spectrum_to_json
from .plateau import plateau_report
from .pulses import BANG_BANG, PulseShape, _totals, bang_bang, dcg3, primitive, quadrature_components
from .sequences import (
    TimingPattern,
    carr_purcell,
    cdd,
    echo,
    free_evolution,
    min_interval,
    repeat_pattern,
    udd,
    udd_from_min_interval,
    walsh,
)
from .walsh_search import MAX_SLOTS, search_series

FORMATS = ("csv", "json")
MAX_POINTS = 10**7  # largest --points: grids are allocated whole


# -- spec-string parsing -------------------------------------------------------


def _usage(field: str, msg: str) -> click.UsageError:
    return click.UsageError(f"{field}: {msg}")


def build_sequence(spec: str, tau: Optional[float], duration: Optional[float]) -> TimingPattern:
    """Parse 'free | echo | cp | udd:n | cdd:level | walsh:k/N' with one of
    --tau (minimum pulse interval / slot width) or --duration (total length)."""
    if tau is not None and duration is not None:
        raise _usage("--tau/--duration", "give exactly one, not both")
    if tau is None and duration is None:
        raise _usage("--tau/--duration", "one is required")
    option, value = ("--tau", tau) if tau is not None else ("--duration", duration)
    require_positive(option, value)
    name, _, arg = spec.partition(":")
    try:
        if name == "free":
            if duration is None:
                raise _usage("--sequence free", "needs --duration (it has no interval)")
            return free_evolution(duration)
        if name == "echo":
            return echo(duration if duration is not None else 2.0 * tau)
        if name == "cp":
            return carr_purcell(tau if tau is not None else duration / 4.0)
        if name == "udd":
            n = int(arg)
            if duration is not None:
                return udd(n, duration)
            return udd_from_min_interval(n, tau)
        if name == "cdd":
            level = int(arg)
            slot = tau if tau is not None else duration / float(2**level)
            return cdd(level, slot)
        if name == "walsh":
            k_str, _, n_str = arg.partition("/")
            k, n_slots = int(k_str), int(n_str)
            t_s = duration if duration is not None else n_slots * tau
            return walsh(k, t_s, n_slots)
    except ValueError as exc:
        raise _usage("--sequence", f"malformed argument in {spec!r}: {exc}") from exc
    raise _usage("--sequence", f"unknown family {name!r} in {spec!r}")


def build_pulse(spec: str) -> PulseShape:
    """Parse 'bb | primitive:<tau_pi> | dcg:<tau_pi>' (tau_pi in seconds)."""
    name, _, arg = spec.partition(":")
    try:
        if name == "bb":
            if arg:
                raise _usage("--pulse", "bb takes no width argument")
            return bang_bang()
        if name == "primitive":
            return primitive(float(arg))
        if name == "dcg":
            return dcg3(float(arg))
    except ValueError as exc:
        raise _usage("--pulse", f"malformed width in {spec!r}: {exc}") from exc
    raise _usage("--pulse", f"unknown pulse kind {name!r} in {spec!r}")


def _problem(sequence, tau, duration, pulse, spectrum, rel_tol):
    """(pattern, pulse shape, spectrum, quadrature config) from the shared options."""
    p = build_sequence(sequence, tau, duration)
    shape = build_pulse(pulse)
    return p, shape, load_preset(spectrum), dataclasses.replace(DEFAULT_CONFIG, rel_tol=rel_tol)


# -- resolved-config echo ------------------------------------------------------


def _resolved_doc(
    subcommand: str,
    p: Optional[TimingPattern] = None,
    spec: Optional[NoiseSpectrum] = None,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    doc: Dict[str, object] = {
        "tool": "ddmemory",
        "version": __version__,
        "subcommand": subcommand,
        "units": {"frequency": "rad/s", "time": "s"},
    }
    if p is not None:
        doc["sequence"] = {
            "label": p.label,
            "duration_s": p.duration,
            "n_pulses": p.n_pulses,
            "min_interval_s": min_interval(p),
            "pulse_times_s": list(p.pulse_times) if p.n_pulses <= 64 else None,
        }
    if spec is not None:
        rolloff = spectrum_to_json(spec)["rolloff"]  # a power law as {"power_law": r}
        doc["spectrum_rad_s"] = {**dataclasses.asdict(spec), "rolloff": rolloff}
    if shape is not None:
        doc["pulse"] = {"kind": shape.kind, "tau_pi_s": shape.tau_pi}
    if config is not None:
        doc["quadrature"] = {
            "rel_tol": config.rel_tol,
            "max_panels": config.max_panels,
            "comb_crossover": config.comb_crossover,
        }
    if extra:
        doc.update(extra)
    return doc


# -- output plumbing -----------------------------------------------------------


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def _write_text(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def emit_table(
    doc: Dict[str, object],
    columns: SeqT[str],
    rows: SeqT[SeqT[object]],
    fmt: str,
    output: Optional[str],
) -> None:
    if fmt == "json":
        payload = dict(doc)
        payload["columns"] = list(columns)
        payload["rows"] = [list(r) for r in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"# ddmemory {__version__}", "# config " + json.dumps(doc, sort_keys=True)]
        lines.append(",".join(columns))
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _write_text(text, output)


def emit_report(doc: Dict[str, object], output: Optional[str]) -> None:
    _write_text(json.dumps(doc, indent=2) + "\n", output)


# -- shared options ------------------------------------------------------------


def _seq_opts(f):
    f = click.option("--duration", type=float, default=None, help="Total length in s.")(f)
    f = click.option("--tau", type=float, default=None, help="Minimum interval / slot width in s.")(f)
    f = click.option("--sequence", required=True, help="free | echo | cp | udd:n | cdd:level | walsh:k/N")(f)
    return f


def _pulse_opt(f):
    return click.option(
        "--pulse", default="bb", show_default=True, help="bb | primitive:<tau_pi> | dcg:<tau_pi>"
    )(f)


def _spectrum_opt(f):
    return click.option(
        "--spectrum", required=True, help="Preset name (gaas, yb) or JSON path."
    )(f)


_rel_tol_opt = click.option(
    "--rel-tol", type=float, default=DEFAULT_CONFIG.rel_tol, help="Quadrature relative tolerance."
)


_output_opt = click.option("--output", type=click.Path(dir_okay=False, writable=True), default=None)


def _out_opts(f):
    f = click.option("--format", "fmt", type=click.Choice(list(FORMATS)), default="csv", show_default=True)(f)
    return _output_opt(f)


@click.group()
@click.version_option(version=__version__, prog_name="ddmemory")
def cli() -> None:
    """Pulse-sequence design and decoupling-error analysis for quantum memory."""


# -- subcommands -----------------------------------------------------------


@cli.command("ff")
@_seq_opts
@_pulse_opt
@click.option("--repeat", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--points", type=click.IntRange(2, MAX_POINTS), default=2048, show_default=True)
@click.option("--omega-min", type=float, default=None, help="Grid start in rad/s.")
@click.option("--omega-max", type=float, default=None, help="Grid end in rad/s.")
@_out_opts
def ff_cmd(sequence, tau, duration, pulse, repeat, points, omega_min, omega_max, output, fmt):
    """Tabulate the filter function on a log frequency grid."""
    p = build_sequence(sequence, tau, duration)
    if repeat > 1:
        p = repeat_pattern(p, repeat)
    shape = build_pulse(pulse)
    w_lo = omega_min if omega_min is not None else 1e-3 / p.duration
    w_hi = omega_max if omega_max is not None else 8.0 * math.pi / min_interval(p)
    require_positive("--omega-min", w_lo)
    require_positive("--omega-max", w_hi)
    if not w_lo < w_hi:
        raise DomainError(f"--omega-min/--omega-max: need min < max, got ({w_lo}, {w_hi})")
    grid = np.geomspace(w_lo, w_hi, points)
    doc = _resolved_doc(
        "ff", p, shape=shape,
        extra={"grid": {"omega_min": w_lo, "omega_max": w_hi, "points": points}},
    )
    base, *pulse = quadrature_components(p, shape, grid)
    ff_ideal = np.abs(base) ** 2
    columns = ["omega_rad_s", "ff_total", "ff_ideal", "re_omega_y", "im_omega_y"]
    values = [grid, ff_ideal, ff_ideal, base.real, base.imag]
    if shape.kind != BANG_BANG:
        rz_sq, ry_sq = (np.abs(r) ** 2 for r in _totals(base, *pulse))
        values[1] = rz_sq + ry_sq
        columns += ["rz_sq", "ry_sq"]
        values += [rz_sq, ry_sq]
    rows = [tuple(float(v) for v in row) for row in zip(*values)]
    emit_table(doc, columns, rows, fmt, output)


@cli.command("error")
@_seq_opts
@_pulse_opt
@_spectrum_opt
@click.option("--repeat", type=click.IntRange(min=1), default=1, show_default=True,
              help="Evaluate the pattern repeated m times.")
@_rel_tol_opt
@_out_opts
def error_cmd(sequence, tau, duration, pulse, spectrum, repeat, rel_tol, output, fmt):
    """Decoupling error chi and coherence for one pattern."""
    p, shape, spec, config = _problem(sequence, tau, duration, pulse, spectrum, rel_tol)
    budget = chi_repeated(p, repeat, spec, shape, config)
    doc = _resolved_doc("error", p, spec, shape, config, extra={"repeat": repeat})
    doc["achieved"] = {"quad_error": budget.quad_error}
    columns = ["chi_total", "chi_ideal", "chi_pulse", "chi_low", "chi_high", "coherence", "quad_error"]
    rows = [(budget.chi_total, budget.chi_bb, budget.chi_pul,
             budget.chi_low, budget.chi_high, budget.coherence, budget.quad_error)]
    emit_table(doc, columns, rows, fmt, output)


@cli.command("sweep-m")
@_seq_opts
@_pulse_opt
@_spectrum_opt
@click.option("--m", "m_values", type=click.IntRange(min=1), multiple=True,
              help="Explicit repeat counts; may be given several times.")
@click.option("--m-max", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--points", type=click.IntRange(1, MAX_POINTS), default=25, show_default=True,
              help="Log-spaced repeat counts from 1 to --m-max.")
@_rel_tol_opt
@_out_opts
def sweep_m_cmd(sequence, tau, duration, pulse, spectrum, m_values, m_max, points,
                rel_tol, output, fmt):
    """chi versus repeat count m for a repeated base pattern."""
    p, shape, spec, config = _problem(sequence, tau, duration, pulse, spectrum, rel_tol)
    if m_values:
        ms = sorted(set(m_values))
    else:
        grid = np.unique(np.rint(np.geomspace(1, m_max, points)).astype(int))
        ms = [int(m) for m in grid]
    doc = _resolved_doc("sweep-m", p, spec, shape, config, extra={"m_values": ms})
    budgets = [chi_repeated(p, m, spec, shape, config) for m in ms]
    rows = [(m, m * p.duration, b.chi_total, b.coherence) for m, b in zip(ms, budgets)]
    doc["achieved"] = {"quad_error_max": max(b.quad_error for b in budgets)}
    emit_table(doc, ["m", "t_s", "chi", "coherence"], rows, fmt, output)


@cli.command("trace")
@_seq_opts
@_pulse_opt
@_spectrum_opt
@click.option("--points", type=click.IntRange(2, MAX_POINTS), default=400, show_default=True)
@_rel_tol_opt
@_out_opts
def trace_cmd(sequence, tau, duration, pulse, spectrum, points, rel_tol, output, fmt):
    """Mid-sequence error chi(t) for t in (0, T_p]."""
    p, shape, spec, config = _problem(sequence, tau, duration, pulse, spectrum, rel_tol)
    doc = _resolved_doc("trace", p, spec, shape, config, extra={"points": points})
    ts = np.linspace(p.duration / points, p.duration, points)
    budgets = [chi_during(p, float(t), spec, shape, config) for t in ts]
    rows = [(float(t), b.chi_total, b.coherence) for t, b in zip(ts, budgets)]
    doc["achieved"] = {"quad_error_max": max(b.quad_error for b in budgets)}
    emit_table(doc, ["t", "chi", "coherence"], rows, fmt, output)


@cli.command("plateau")
@_seq_opts
@_pulse_opt
@_spectrum_opt
@click.option("--t-markov", type=float, default=None,
              help="Markovian decay time in s; adds its lifetime limit.")
@click.option("--jitter-budget-factor", type=float, default=None,
              help="Allowed chi growth factor; adds the jitter tolerance.")
@click.option("--jitter-m", type=click.IntRange(min=1), default=1000, show_default=True)
@_rel_tol_opt
@_output_opt
def plateau_cmd(sequence, tau, duration, pulse, spectrum, t_markov, jitter_budget_factor,
                jitter_m, rel_tol, output):
    """Coherence-plateau report: conditions, chi_infinity, lifetime bounds."""
    p, shape, spec, config = _problem(sequence, tau, duration, pulse, spectrum, rel_tol)
    report = plateau_report(
        p, spec, shape,
        t_markov=t_markov,
        jitter_budget_factor=jitter_budget_factor,
        jitter_m=jitter_m,
        config=config,
    )
    doc = _resolved_doc(
        "plateau", p, spec, shape, config,
        extra={"t_markov": t_markov, "jitter_budget_factor": jitter_budget_factor,
               "jitter_m": jitter_m},
    )
    pul = report.condition_lowfreq_pul
    doc["report"] = {
        "conditions": {
            "lowfreq_ideal": {"passed": report.condition_lowfreq_bb.passed,
                              "margin": report.condition_lowfreq_bb.margin},
            "lowfreq_pulse": None if pul is None else {"passed": pul.passed, "margin": pul.margin},
            "resonance": {"passed": report.condition_resonance.passed,
                          "x": report.condition_resonance.x},
            "all_met": report.all_conditions_met,
        },
        "chi_infinity": None if report.chi_infinity is None else dataclasses.asdict(report.chi_infinity),
        "chi_infinity_closed": report.chi_infinity_closed,
        "m_max_bound": report.m_max_bound,
        "t_max_s": report.t_max,
        "jitter_tolerance_s": report.jitter_tolerance_s,
    }
    emit_report(doc, output)


@cli.command("search")
@click.option("--tau", type=float, required=True, help="Slot width in s.")
@click.option("--t-s", "t_s_values", type=float, multiple=True, required=True,
              help="Storage times in s; may be given several times.")
@_pulse_opt
@_spectrum_opt
@click.option("--threads", type=click.IntRange(min=1), default=None,
              help="Ignored, kept for compatibility; must be >= 1. The search runs in one process.")
@_rel_tol_opt
@_out_opts
def search_cmd(tau, t_s_values, pulse, spectrum, threads, rel_tol, output, fmt):
    """Exhaustive Walsh-family minimum-chi search per storage time."""
    shape = build_pulse(pulse)
    spec = load_preset(spectrum)
    config = dataclasses.replace(DEFAULT_CONFIG, rel_tol=rel_tol)
    t_s_list = list(t_s_values)
    doc = _resolved_doc(
        "search", spec=spec, shape=shape, config=config,
        extra={"tau_s": tau, "t_s_values": t_s_list, "limit": MAX_SLOTS},
    )
    results = search_series(tau, t_s_list, spec, shape, config=config)
    rows = []
    skipped = 0
    for res in results:
        det = res.detected_structure
        base_label = det.base.label if det is not None else res.winner.label
        repeats = det.repeats if det is not None else 1
        skipped += sum(1 for c in res.candidates if c.skipped)
        rows.append((
            res.t_s, res.winner_index, res.winner.label, res.winner.n_pulses,
            res.chi.chi_total, res.chi.coherence, base_label, repeats,
        ))
    doc["achieved"] = {"skipped_candidates": skipped}
    columns = ["t_s", "walsh_index", "label", "pulses", "chi", "coherence", "base_block", "repeats"]
    emit_table(doc, columns, rows, fmt, output)


@cli.command("calibrate")
@_spectrum_opt
@click.option("--t2", type=float, required=True, help="Target free-evolution 1/e time in s.")
@_output_opt
def calibrate_cmd(spectrum, t2, output):
    """Rescale a spectrum's strength so free evolution has chi(T2) = 1."""
    template = load_preset(spectrum)
    calibrated = calibrate_strength(template, t2)
    doc = _resolved_doc("calibrate", spec=calibrated, extra={"target_t2_s": t2})
    doc["preset_json_hz"] = spectrum_to_json(calibrated)
    emit_report(doc, output)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 130
    except click.UsageError as exc:
        exc.show()
        return 2
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except DDMemoryError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
