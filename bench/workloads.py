"""Seeded inputs, request execution and correctness checks for each workload.

A run is a sequence of passes. Every pass draws a fresh slot width tau in
[0.6, 1.4] us, log-uniform, so the lru caches in `filters._moments` and
`integrals._crossover_agreement` start cold, as they do for a user with a
new tau. In `memory` each request group of a pass draws its own tau, and in
`cli` each call template (calls start cold anyway): every group or template
has its own stream of draws.

Pass cost grows steeply with tau (a memory pass takes 4.3 s at 0.65 us and
8.5 s at 1.3 us), so the draws are stratified: a cycle of K passes puts one
draw of each stream, uniform in log tau, into each of K equal strata, in a
seeded random order. Each draw is still log-uniform, and a run made of
whole cycles covers the range evenly, which keeps the spread between seeds
low.

Requests are plain dicts (JSON-able, recorded in the run record). Library
functions are looked up on the module at call time, so the tracer's
rebinding is seen.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import oracle

TAU_LO, TAU_HI = 0.6e-6, 1.4e-6
REPEATS = (1, 10, 100, 1000, 10_000, 62_500, 1_000_000)
SHAPES = ("bb", "primitive:1e-09", "dcg:1e-08")
SEARCH_SIZES = (2, 4, 8, 16, 32, 64)
TRACE_POINTS = 12
T_MARKOV = 1.0
# CLI children report their own peak RSS (VmHWM of the post-exec image; the
# parent's rusage would count the forked copy of the benchmark process) and,
# when traced, their import and main() times, as JSON on the last stderr line
_CLI_REPORT = (
    "status = '/proc/self/status'; "
    "hwm = [int(ln.split()[1]) for ln in open(status) if ln.startswith('VmHWM')] "
    "if os.path.exists(status) else []; "
    "report['hwm_kb'] = hwm[0] if hwm else None; "
    "sys.stderr.write('\\nBENCH ' + json.dumps(report) + '\\n'); sys.exit(rc)"
)
CLI_CODE = (
    "import os, sys, json; from ddmemory.cli import main; rc = main(sys.argv[1:]); report = {}; "
    + _CLI_REPORT
)
CLI_TRACED_CODE = (
    "import os, sys, json, time; t0 = time.perf_counter(); from ddmemory.cli import main; "
    "t1 = time.perf_counter(); rc = main(sys.argv[1:]); t2 = time.perf_counter(); "
    "report = {'import_s': t1 - t0, 'main_s': t2 - t1}; "
    + _CLI_REPORT
)


def taus(seed: int, strata: int, stream: int = 0):
    """Endless seeded tau sequence in stratified cycles, rounded to 7 digits for the CLI."""
    rng = random.Random(f"{seed}:{stream}")
    while True:
        order = list(range(strata))
        rng.shuffle(order)
        for k in order:
            u = (k + rng.random()) / strata
            yield float(f"{TAU_LO * (TAU_HI / TAU_LO) ** u:.6e}")


def shape_of(dd, name: str):
    kind, _, width = name.partition(":")
    return {"bb": dd.bang_bang, "primitive": dd.primitive, "dcg": dd.dcg3}[kind](
        *((float(width),) if width else ())
    )


# -- request lists ---------------------------------------------------------------


def search_requests(draw: Callable[[int], float], smoke: bool) -> List[dict]:
    tau = draw(0)
    sizes = SEARCH_SIZES[:3] if smoke else SEARCH_SIZES
    return [{"op": "best_sequence", "tau": tau, "n": n} for n in sizes]


def memory_requests(draw: Callable[[int], float], smoke: bool) -> List[dict]:
    """One pass; each group of requests (a pulse shape's m sweep, the plateau
    report, the m_max detail with the trace) draws its own tau.

    Cost grows 2 to 4x over the tau range, and a pass's cost is mostly four
    groups of similar size, so independent draws per group make the total
    of a run depend far less on the seed than one draw per pass.
    """
    if smoke:
        tau = draw(0)
        reqs = [{"op": "chi_repeated", "tau": tau, "shape": "bb", "m": m} for m in (1, 10, 62_500)]
        reqs.append({"op": "chi_repeated", "tau": draw(1), "shape": "dcg:1e-08", "m": 10})
    else:
        reqs = []
        for i, s in enumerate(SHAPES):
            tau = draw(i)
            reqs += [{"op": "chi_repeated", "tau": tau, "shape": s, "m": m} for m in REPEATS]
        reqs.append({"op": "plateau_report", "tau": draw(len(SHAPES)), "shape": "dcg:1e-08"})
    tau = draw(len(SHAPES) + 1)
    reqs.append({"op": "m_max_soft_detail", "tau": tau, "r": 18.0})
    n_trace = 3 if smoke else TRACE_POINTS
    duration = 16 * tau
    # the last readout is the full duration, exactly
    reqs += [
        {"op": "chi_during", "tau": tau, "t": duration if j == n_trace else duration * j / n_trace}
        for j in range(1, n_trace + 1)
    ]
    return reqs


_CDD4 = ["--sequence", "cdd:4", "--tau", "{tau!r}", "--spectrum", "gaas"]
_DCG = ["--pulse", "dcg:1e-08"]
# argv templates, formatted with the call's tau; the first three form the smoke set
CLI_CALLS = (
    ["error", *_CDD4],
    ["ff", "--sequence", "cdd:4", "--tau", "{tau!r}", "--points", "256"],
    ["calibrate", "--spectrum", "gaas", "--t2", "{t100!r}"],
    ["error", *_CDD4, *_DCG, "--repeat", "1000"],
    ["sweep-m", *_CDD4, "--m-max", "1000", "--points", "6"],
    ["trace", "--sequence", "udd:5", "--duration", "{t16!r}", "--spectrum", "gaas",
     "--points", str(TRACE_POINTS)],
    ["plateau", *_CDD4, *_DCG, "--t-markov", repr(T_MARKOV), "--jitter-budget-factor", "2"],
    ["search", "--tau", "{tau!r}", "--t-s", "{t8!r}", "--t-s", "{t16!r}", "--spectrum", "gaas",
     "--threads", "1"],
)


def cli_requests(draw: Callable[[int], float], smoke: bool) -> List[dict]:
    reqs = []
    for i, template in enumerate(CLI_CALLS[:3] if smoke else CLI_CALLS):
        tau = draw(i)
        values = {"tau": tau, "t8": 8 * tau, "t16": 16 * tau, "t100": 100 * tau}
        reqs.append({"op": "cli", "tau": tau, "argv": [a.format(**values) for a in template]})
    return reqs


REQUESTS = {"search": search_requests, "memory": memory_requests, "cli": cli_requests}
# passes per stratified cycle, each sized so that one cycle fills a run of
# 25 to 30 s on the reference machine; a run stops only after whole cycles
STRATA = {"search": 4, "memory": 4, "cli": 2}
SMOKE_STRATA = {"search": 2, "memory": 2, "cli": 1}


def work_units(req: dict) -> int:
    """Candidates for a search request; one for every other request."""
    return req["n"] if req["op"] == "best_sequence" else 1


# -- execution -------------------------------------------------------------------


class Runner:
    """Executes requests against the library (in-process) or the CLI (child)."""

    def __init__(self, dd, root: str, env: Dict[str, str]) -> None:
        self.dd = dd
        self.root = root
        self.env = env
        self.gaas = dd.load_preset("gaas")

    def run(self, req: dict, traced: bool = False) -> Any:
        dd, gaas, tau = self.dd, self.gaas, req["tau"]
        op = req["op"]
        if op == "best_sequence":
            return dd.best_sequence(req["n"] * tau, tau, gaas, workers=1)
        if op == "chi_repeated":
            return dd.chi_repeated(dd.cdd(4, tau), req["m"], gaas, shape_of(dd, req["shape"]))
        if op == "plateau_report":
            return dd.plateau_report(
                dd.cdd(4, tau), gaas, shape_of(dd, req["shape"]),
                t_markov=T_MARKOV, jitter_budget_factor=2.0,
            )
        if op == "m_max_soft_detail":
            return dd.m_max_soft_detail(dd.cdd(4, tau), replace(gaas, rolloff=dd.PowerLaw(req["r"])))
        if op == "chi_during":
            return dd.chi_during(dd.udd(5, 16 * tau), req["t"], gaas)
        if op == "cli":
            return self._cli(req["argv"], traced)
        raise ValueError(f"unknown request {op!r}")

    def _cli(self, argv: List[str], traced: bool) -> dict:
        code = CLI_TRACED_CODE if traced else CLI_CODE
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - t0
        tail = proc.stderr.rstrip().rsplit("\n", 1)[-1]
        report = json.loads(tail[len("BENCH "):]) if tail.startswith("BENCH ") else {}
        return {"rc": proc.returncode, "stdout": proc.stdout, "wall_s": wall, "report": report}


def same_output(req: dict, a: Any, b: Any) -> bool:
    """Bit-for-bit equality of two executions of one request."""
    if req["op"] == "cli":
        return a["rc"] == b["rc"] and a["stdout"] == b["stdout"]
    return a == b


# -- correctness -----------------------------------------------------------------


class Checker:
    """Checks outputs against oracle references or, for the CLI, library values.

    References are cached per pass input, so each is computed once even when
    several requests share it.
    """

    def __init__(self, dd) -> None:
        self.dd = dd
        self.gaas = dd.load_preset("gaas")
        self.rel_tol = dd.DEFAULT_CONFIG.rel_tol
        self._refs: Dict[Tuple, oracle.Ref] = {}

    def _rep_ref(self, tau: float, shape: str, m: int) -> oracle.Ref:
        """Reference for CDD4 repeated m times."""
        key = ("rep", tau, shape, m)
        if key not in self._refs:
            p = oracle.cdd_pattern(4, tau)
            self._refs[key] = oracle.chi_ref(p, self.gaas, shape_of(self.dd, shape), m)
        return self._refs[key]

    def clear(self) -> None:
        self._refs.clear()

    def _ok(self, value: float, quad_error: float, ref: oracle.Ref) -> bool:
        return oracle.within(value, quad_error, self.rel_tol, ref)

    def check(self, req: dict, out: Any) -> Optional[str]:
        """None when the output is correct, else a one-line reason."""
        try:
            return getattr(self, "_check_" + req["op"])(req, out)
        except Exception as exc:  # a crash while checking is a failed check, not a crash of the run
            return f"check raised {type(exc).__name__}: {exc}"

    def _check_chi_repeated(self, req: dict, budget) -> Optional[str]:
        dd, tau, m = self.dd, req["tau"], req["m"]
        shape = shape_of(dd, req["shape"])
        p = oracle.cdd_pattern(4, tau)
        if budget.m != m:
            return f"budget.m {budget.m} != {m}"
        m0 = dd.DEFAULT_CONFIG.comb_crossover
        if not budget.comb_path:
            ref = self._rep_ref(tau, req["shape"], m)
            if not self._ok(budget.chi_total, budget.quad_error, ref):
                return f"chi {budget.chi_total!r} vs reference {ref.value!r} +- {ref.error:.2e}"
            return None
        # comb path: its per-repeat growth against the oracle, and the comb
        # evaluation itself at the crossover, where the dense reference is affordable
        growth = oracle.growth_ref(p, self.gaas, shape)
        if not math.isclose(budget.growth_per_repeat, growth, rel_tol=1e-9, abs_tol=1e-300):
            return f"growth {budget.growth_per_repeat!r} vs reference {growth!r}"
        ref = self._rep_ref(tau, req["shape"], m0)
        cfg = replace(dd.DEFAULT_CONFIG, comb_crossover=m0 - 1, validate_crossover=False)
        key = ("comb", tau, req["shape"])
        if key not in self._refs:
            b = dd.chi_repeated(dd.cdd(4, tau), m0, self.gaas, shape, cfg)
            self._refs[key] = oracle.Ref(b.chi_total, b.quad_error)
        at_m0 = self._refs[key]
        if not self._ok(at_m0.value, at_m0.error, ref):
            return f"comb at m={m0}: {at_m0.value!r} vs reference {ref.value!r}"
        # where the plateau conditions hold (ideal and DCG pulses on CDD4), chi
        # beyond the crossover is the crossover value plus linear resonance growth
        if shape.kind != "primitive":
            want = ref.value + (m - m0) * growth
            if not self._ok(budget.chi_total, budget.quad_error, oracle.Ref(want, ref.error)):
                return f"chi {budget.chi_total!r} vs reference at m={m0} plus growth {want!r}"
        again = dd.chi_repeated(dd.cdd(4, tau), m, self.gaas, shape, replace(cfg, comb_crossover=m0))
        if again.chi_total != budget.chi_total:
            return f"comb value not reproducible: {budget.chi_total!r} then {again.chi_total!r}"
        return None

    def _check_plateau_report(self, req: dict, rep) -> Optional[str]:
        dd, tau = self.dd, req["tau"]
        shape = shape_of(dd, req["shape"])
        p = oracle.cdd_pattern(4, tau)
        if not rep.all_conditions_met:
            return "plateau conditions reported unmet"
        x = p.duration * self.gaas.omega_c / (2.0 * math.pi)
        if not math.isclose(rep.condition_resonance.x, x, rel_tol=1e-12):
            return f"resonance x {rep.condition_resonance.x!r} vs {x!r}"
        # margins are s + 2*alpha - 1: CDD4 suppresses to order 4, the DCG pulse part to order 2
        margins = (rep.condition_lowfreq_bb.margin, rep.condition_lowfreq_pul.margin)
        if margins != (self.gaas.s + 7, self.gaas.s + 3):
            return f"plateau margins {margins} differ from s + 2*alpha - 1"
        inf = rep.chi_infinity
        ref = oracle.chi_ref(p, self.gaas, shape, kernel="deosc", w_cap=self.gaas.omega_c)
        if not self._ok(inf.chi_total, inf.quad_error, ref):
            return f"chi_infinity {inf.chi_total!r} vs reference {ref.value!r}"
        if rep.t_max["markovian"] != T_MARKOV * inf.chi_total:
            return "markovian lifetime is not t_markov * chi_infinity"
        if not (math.isfinite(rep.jitter_tolerance_s) and rep.jitter_tolerance_s > 0):
            return f"jitter tolerance {rep.jitter_tolerance_s!r}"
        return None

    def _check_m_max_soft_detail(self, req: dict, detail) -> Optional[str]:
        dd, tau, r = self.dd, req["tau"], req["r"]
        p = oracle.cdd_pattern(4, tau)
        spec = self.gaas
        hard = oracle.chi_ref(p, spec, dd.bang_bang(), kernel="deosc", w_cap=spec.omega_c, rolloff="hard")
        tau_min = min(b - a for a, b in zip((0.0,) + p.times, p.times + (p.duration,)))
        f_max = oracle.filter_max(p, 0.1 / p.duration, 2.0 * math.pi / tau_min)
        x = p.duration * spec.omega_c / (2.0 * math.pi)
        scale = (24.0 / math.pi) / (spec.g * p.duration * f_max * x**r)
        want = scale * hard.value
        tol = (self.rel_tol + 1e-9) * want + scale * hard.error
        if not abs(detail.bound - want) <= tol:
            return f"m_max bound {detail.bound!r} vs reference {want!r}"
        special = 3.0 * math.pi**6 / (5.0 * 2.0**25) * x ** (7.0 - r)
        if detail.specialized is None or not math.isclose(detail.specialized, special, rel_tol=1e-12):
            return f"CDD4 specialization {detail.specialized!r} vs {special!r}"
        return None

    def _check_chi_during(self, req: dict, budget) -> Optional[str]:
        tau, t = req["tau"], req["t"]
        p = oracle.truncated(oracle.udd_pattern(5, 16 * tau), t)
        ref = oracle.chi_ref(p, self.gaas, self.dd.bang_bang())
        if not self._ok(budget.chi_total, budget.quad_error, ref):
            return f"chi_during {budget.chi_total!r} vs reference {ref.value!r}"
        return None

    def _check_best_sequence(self, req: dict, res) -> Optional[str]:
        tau, n = req["tau"], req["n"]
        t_s = n * tau
        if len(res.candidates) != n or any(c.skipped for c in res.candidates):
            return "candidate list incomplete or with skipped entries"
        keys = []
        bb = self.dd.bang_bang()
        for k, cand in enumerate(res.candidates):
            p = oracle.walsh_pattern(k, n, t_s)
            ref = oracle.chi_ref(p, self.gaas, bb)
            if cand.index != k or not self._ok(cand.chi_total, 0.0, ref):
                return f"candidate {k}: {cand.chi_total!r} vs reference {ref.value!r}"
            keys.append((cand.chi_total, len(p.times), k))
        best = min(keys)[2]
        if res.winner_index != best or res.chi.chi_total != res.candidates[best].chi_total:
            return f"winner {res.winner_index} is not the argmin {best}"
        period = _period(oracle.walsh_pattern(best, n, t_s), n)
        det = res.detected_structure
        if period < n:
            if det is None or det.repeats != n // period:
                return f"periodic winner (period {period} slots) without matching structure"
            if det.kernel_agreement is None or det.kernel_agreement > 1e-6:
                return f"kernel agreement {det.kernel_agreement!r} > 1e-6"
        elif det is not None:
            return "aperiodic winner reported as periodic"
        return None

    def _check_cli(self, req: dict, out: dict) -> Optional[str]:
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        return check_cli_output(self.dd, self.gaas, req["argv"], out["stdout"])


def _period(p: oracle.Pattern, n: int) -> int:
    slot = p.duration / n
    flips = {int(round(t / slot)) for t in p.times}
    signs, s = [], 1
    for j in range(n):
        if j in flips:
            s = -s
        signs.append(s)
    for q in range(1, n):
        if n % q == 0 and all(signs[j] == signs[j % q] for j in range(n)):
            return q
    return n


# -- CLI outputs against library values -------------------------------------------


def _csv_rows(text: str) -> Tuple[List[str], List[List[str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def _opt(argv: List[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check_cli_output(dd, gaas, argv: List[str], stdout: str) -> Optional[str]:
    """Parse one CLI output and compare it with the same library call."""
    sub = argv[0]
    tau = float(_opt(argv, "--tau", "nan"))
    shape = shape_of(dd, _opt(argv, "--pulse", "bb"))
    if sub == "error":
        m = int(_opt(argv, "--repeat", "1"))
        p = dd.cdd(4, tau)
        b = dd.chi_repeated(p, m, gaas, shape) if m > 1 else dd.chi(p, gaas, shape)
        _, rows = _csv_rows(stdout)
        want = (b.chi_total, b.chi_bb, b.chi_pul, b.chi_low, b.chi_high, b.coherence, b.quad_error)
        if len(rows) != 1 or not all(_close(float(v), w) for v, w in zip(rows[0], want)):
            return f"error output {rows} differs from library {want}"
        return None
    if sub == "sweep-m":
        p = dd.cdd(4, tau)
        _, rows = _csv_rows(stdout)
        for m, _t, c, _coh in rows:
            if not _close(float(c), dd.chi_repeated(p, int(m), gaas, shape).chi_total):
                return f"sweep-m row m={m} differs from library"
        return None if rows else "sweep-m printed no rows"
    if sub == "trace":
        p = dd.udd(5, float(_opt(argv, "--duration")))
        _, rows = _csv_rows(stdout)
        if len(rows) != int(_opt(argv, "--points")):
            return "trace row count"
        for t, c, _coh in rows:
            if not _close(float(c), dd.chi_during(p, float(t), gaas).chi_total):
                return f"trace row t={t} differs from library"
        return None
    if sub == "plateau":
        doc = json.loads(stdout)["report"]
        rep = dd.plateau_report(dd.cdd(4, tau), gaas, shape, t_markov=T_MARKOV, jitter_budget_factor=2.0)
        pairs = [
            (doc["chi_infinity"]["chi_total"], rep.chi_infinity.chi_total),
            (doc["jitter_tolerance_s"], rep.jitter_tolerance_s),
            (doc["t_max_s"]["markovian"], rep.t_max["markovian"]),
        ]
        if not all(_close(a, b) for a, b in pairs):
            return f"plateau report differs from library: {pairs}"
        return None
    if sub == "ff":
        import numpy as np

        header, rows = _csv_rows(stdout)
        w = np.array([float(r[0]) for r in rows])
        ff = dd.filter_fn(dd.cdd(4, tau), w)
        if len(rows) != int(_opt(argv, "--points")) or not all(
            _close(float(r[1]), f) for r, f in zip(rows, ff)
        ):
            return "ff column differs from library filter_fn"
        return None
    if sub == "calibrate":
        doc = json.loads(stdout)["preset_json_hz"]
        cal = dd.calibrate_strength(gaas, float(_opt(argv, "--t2")))
        if not _close(doc["g_over_omega_c"], cal.g / cal.omega_c):
            return "calibrated strength differs from library"
        return None
    if sub == "search":
        _, rows = _csv_rows(stdout)
        t_s = [float(v) for i, v in enumerate(argv) if i and argv[i - 1] == "--t-s"]
        if len(rows) != len(t_s):
            return "search row count"
        for row, ts in zip(rows, t_s):
            res = dd.best_sequence(ts, tau, gaas, workers=1)
            if int(row[1]) != res.winner_index or not _close(float(row[4]), res.chi.chi_total):
                return f"search row t_s={ts} differs from library"
        return None
    return f"no check for subcommand {sub!r}"
