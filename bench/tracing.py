"""Spans around calls into ddmemory's public functions, recorded from outside.

Modules import names directly (`from .filters import omega_y_tilde`), so a
function is bound in several module namespaces. `Tracer` wraps the function
once and rebinds every ddmemory attribute that holds it, then restores each
one on exit. Spans carry a name, start, end, parent and a few counts taken
from the call's arguments or result; they stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


def _size(w) -> int:
    return int(np.size(w))


def _oyt(a, r):
    return {"points": _size(a[1]), "pulses": a[0].n_pulses}


def _qc(a, r):
    shape, p = a[1], a[0]
    return {"points": _size(a[2]), "finite": shape.kind != "bang_bang" and p.n_pulses > 0}


def _chi_rep(a, r):
    return {"m": a[1], "comb": bool(r.comb_path)}


def _best(a, r):
    return {
        "n": int(round(a[0] / a[1])),
        "candidates": len(r.candidates),
        "skipped": sum(1 for c in r.candidates if c.skipped),
    }


# (module, function, attrs(args, result)); args are bound positionally by signature
TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("sequences", "walsh", None),
    ("sequences", "walsh_signs", None),
    ("sequences", "cdd", None),
    ("sequences", "udd", None),
    ("sequences", "truncate", None),
    ("sequences", "repeat_pattern", None),
    ("filters", "omega_y_tilde", _oyt),
    ("filters", "filter_fn", None),
    ("filters", "dirichlet_factor", lambda a, r: {"points": _size(a[2])}),
    ("filters", "passband_max", None),
    ("filters", "suppression_order", None),
    ("pulses", "quadrature_components", _qc),
    ("pulses", "pulse_quadratures", lambda a, r: {"points": _size(a[1])}),
    ("pulses", "total_quadratures", None),
    ("pulses", "pulse_order", None),
    ("noise", "evaluate", lambda a, r: {"points": _size(a[1])}),
    ("noise", "load_preset", None),
    ("noise", "calibrate_strength", None),
    ("integrals", "chi", None),
    ("integrals", "chi_during", None),
    ("integrals", "chi_repeated", _chi_rep),
    ("integrals", "chi_plateau_limit", None),
    ("integrals", "integrate_rows", None),
    ("plateau", "plateau_report", None),
    ("plateau", "check_conditions", None),
    ("plateau", "chi_asymptotic", None),
    ("plateau", "chi_with_jitter", None),
    ("plateau", "jitter_tolerance", None),
    ("plateau", "m_max_soft_detail", None),
    ("walsh_search", "best_sequence", _best),
    ("walsh_search", "detect_structure", None),
    ("walsh_search", "enumerate_walsh", None),
)


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, sid: int, name: str, parent: int, start: float) -> None:
        self.id, self.name, self.parent, self.start = sid, name, parent, start
        self.end = start
        self.attrs: Dict[str, Any] = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.id, self.name, self.parent, self.start, self.end, self.attrs]


def _ddmemory_modules() -> List[Any]:
    return [m for n, m in list(sys.modules.items()) if n == "ddmemory" or n.startswith("ddmemory.")]


def binding_snapshot() -> Dict[Tuple[str, str], int]:
    """id() of every function-valued attribute of every ddmemory module."""
    return {
        (mod.__name__, name): id(val)
        for mod in _ddmemory_modules()
        for name, val in vars(mod).items()
        if callable(val)
    }


def _crossover_misses() -> int:
    return sys.modules["ddmemory.integrals"]._crossover_agreement.cache_info().misses


# read before and after the call; the difference lands in the span's attrs as
# "delta" (a comb-path call with delta > 0 paid the crossover check)
PROBES: Dict[str, Callable[[], int]] = {"integrals.chi_repeated": _crossover_misses}


class Tracer:
    """Context manager that records spans while installed; it may be entered again."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = [-1]
        self._restore: List[Tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str, attrs: Optional[Callable]) -> Callable:
        spans, stack, extra = self.spans, self._stack, PROBES.get(name)
        n_pos = fn.__code__.co_argcount
        names = fn.__code__.co_varnames[:n_pos]
        defaults = fn.__defaults__ or ()

        def positional(args, kwargs):
            if not kwargs and len(args) == n_pos:
                return args
            full = list(args) + [None] * (n_pos - len(args))
            for i in range(len(args), n_pos):
                j = i - (n_pos - len(defaults))
                full[i] = kwargs.get(names[i], defaults[j] if j >= 0 else None)
            return full

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1], 0.0)
            spans.append(span)
            stack.append(span.id)
            before = extra() if extra else 0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if extra:
                span.attrs["delta"] = extra() - before
            if attrs is not None:
                span.attrs.update(attrs(positional(args, kwargs), result))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = _ddmemory_modules()
        for mod_name, fn_name, attrs in TARGETS:
            original = getattr(sys.modules["ddmemory." + mod_name], fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}", attrs)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()


# -- per-layer metrics -----------------------------------------------------------


def _self_times(spans: List[Span]) -> List[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _entry_kind(s: Span) -> str:
    fn = s.name.split(".", 1)[1]
    if fn == "chi_repeated":
        if s.attrs.get("comb"):
            return "repeated_comb"
        return "repeated_direct" if s.attrs.get("m", 1) > 1 else "chi"
    return {"chi_during": "chi", "chi_plateau_limit": "plateau_limit"}.get(fn, fn)


ENTRY_KINDS = ("chi", "repeated_direct", "repeated_comb", "integrate_rows", "plateau_limit")


def layer_metrics(spans: List[Span], passes: int, search_sizes: Tuple[int, ...]) -> Dict[str, float]:
    """Per-layer numbers from one run's spans; extensive ones are per pass."""
    per = 1.0 / max(1, passes)
    self_t = _self_times(spans)
    by_name: Dict[str, List[int]] = defaultdict(list)
    layer_self: Dict[str, float] = defaultdict(float)
    for s, st in zip(spans, self_t):
        by_name[s.name].append(s.id)
        layer_self[s.layer] += st

    def total(name: str, key: str = "") -> float:
        return sum((spans[i].attrs.get(key, 0) if key else spans[i].duration) for i in by_name[name])

    out: Dict[str, float] = {}
    oyt = by_name["filters.omega_y_tilde"]
    point_pulses = sum(spans[i].attrs["points"] * (spans[i].attrs["pulses"] + 2) for i in oyt)
    out["filters.points"] = total("filters.omega_y_tilde", "points") * per
    out["filters.self_s"] = layer_self["filters"] * per
    out["filters.ns_per_point_pulse"] = (
        1e9 * sum(self_t[i] for i in oyt) / point_pulses if point_pulses else 0.0
    )
    out["filters.passband_max_s"] = total("filters.passband_max") * per
    qc = by_name["pulses.quadrature_components"]
    out["pulses.points"] = sum(spans[i].attrs["points"] for i in qc if spans[i].attrs["finite"]) * per
    out["pulses.self_s"] = layer_self["pulses"] * per
    out["noise.points"] = total("noise.evaluate", "points") * per
    out["noise.self_s"] = layer_self["noise"] * per

    # outermost integrals span above each span, and integrand points per entry
    entry = [-1] * len(spans)
    for s in spans:
        up = entry[s.parent] if s.parent >= 0 else -1
        entry[s.id] = s.id if up < 0 and s.layer == "integrals" else up
    entry_points: Dict[int, int] = defaultdict(int)
    for i in qc:
        if entry[i] >= 0:
            entry_points[entry[i]] += spans[i].attrs["points"]
    entries = [s for s in spans if entry[s.id] == s.id]
    for kind in ENTRY_KINDS:
        ids = [s.id for s in entries if _entry_kind(s) == kind]
        out[f"integrals.points_per_chi.{kind}"] = (
            sum(entry_points[i] for i in ids) / len(ids) if ids else 0.0
        )
    out["integrals.self_s"] = layer_self["integrals"] * per
    comb = [s for s in entries if _entry_kind(s) == "repeated_comb"]
    first = [s.duration for s in comb if s.attrs.get("delta", 0) > 0]
    warm = [s.duration for s in comb if s.attrs.get("delta", 0) == 0]
    out["integrals.comb_first_ms"] = 1e3 * float(np.mean(first)) if first else 0.0
    out["integrals.comb_warm_ms"] = 1e3 * float(np.mean(warm)) if warm else 0.0
    entry_time = sum(s.duration for s in entries)
    out["integrals.comb_frac"] = sum(s.duration for s in comb) / entry_time if entry_time else 0.0

    tolerances = len(by_name["plateau.jitter_tolerance"])
    out["plateau.jitter_evals"] = (
        len(by_name["plateau.chi_with_jitter"]) / tolerances if tolerances else 0.0
    )
    out["plateau.jitter_s"] = total("plateau.jitter_tolerance") * per
    out["plateau.asymptotic_s"] = total("plateau.chi_asymptotic") * per

    best = [spans[i] for i in by_name["walsh_search.best_sequence"]]
    for n in search_sizes:
        calls = [s for s in best if s.attrs["n"] == n]
        out[f"walsh_search.ms_per_candidate.n{n}"] = (
            1e3 * sum(s.duration for s in calls) / (n * len(calls)) if calls else 0.0
        )
    best_ids = {s.id for s in best}
    best_time = sum(s.duration for s in best)
    scored = sum(s.duration for s in spans if s.parent in best_ids and s.name == "integrals.chi")
    kernel = sum(s.duration for s in spans if s.parent in best_ids and s.name == "integrals.chi_repeated")
    n_cand = sum(s.attrs["candidates"] for s in best)
    out["walsh_search.overhead_frac"] = 1.0 - scored / best_time if best_time else 0.0
    out["walsh_search.skipped_frac"] = sum(s.attrs["skipped"] for s in best) / n_cand if n_cand else 0.0
    out["walsh_search.kernel_check_s"] = kernel * per
    out["sequences.build_s"] = layer_self["sequences"] * per
    return out
