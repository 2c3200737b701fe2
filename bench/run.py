"""ddmemory benchmark: end-to-end and per-layer numbers for the chi workloads.

    python3 bench/run.py --workload search|memory|cli|all --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. With
--trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics. Each run also
writes its record (machine, code hash, seed, generated inputs, metrics,
failures and, when traced, spans) to bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

# one client, one thread: an idle OpenBLAS worker would otherwise spin on the
# second CPU, against CLI and setup children; set before numpy loads, and
# inherited by every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "search": "Walsh minimum-chi search over N = 2..64 slots a pass: filter transform and band walk; "
              "no kernel, comb, finite pulses or plateau",
    "memory": "CDD4 repeated up to m = 1e6 with three pulse shapes, plus plateau and jitter: "
              "Dirichlet kernel, comb path, finite-width pulses, plateau bisection",
    "cli": "one fresh interpreter per CLI call: every call pays import and cold caches, "
           "which the library workloads amortise",
}
# throughput name per workload; reported as throughput_per_s in the JSON line
THROUGHPUT = {"search": "candidates_per_s", "memory": "chi_per_s", "cli": "invocations_per_s"}
# name: (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_tail_ms": ("ms", "lower", 0.25),
    "throughput_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.2),
    "setup_s": ("s", "lower", 0.25),
}
CLI_SUBCOMMANDS = ("error", "sweep-m", "trace", "plateau", "ff", "calibrate", "search")
# name: (unit, better); extensive counts and times are per traced pass
PER_LAYER = {
    "filters.points": ("count/pass", "lower"),
    "filters.self_s": ("s/pass", "lower"),
    "filters.ns_per_point_pulse": ("ns", "lower"),
    "filters.passband_max_s": ("s/pass", "lower"),
    "pulses.points": ("count/pass", "lower"),
    "pulses.self_s": ("s/pass", "lower"),
    "noise.points": ("count/pass", "lower"),
    "noise.self_s": ("s/pass", "lower"),
    **{f"integrals.points_per_chi.{k}": ("count", "lower") for k in tracing.ENTRY_KINDS},
    "integrals.self_s": ("s/pass", "lower"),
    "integrals.comb_first_ms": ("ms", "lower"),
    "integrals.comb_warm_ms": ("ms", "lower"),
    "integrals.comb_frac": ("fraction", "lower"),
    "plateau.jitter_evals": ("count", "lower"),
    "plateau.jitter_s": ("s/pass", "lower"),
    "plateau.asymptotic_s": ("s/pass", "lower"),
    **{f"walsh_search.ms_per_candidate.n{n}": ("ms", "lower") for n in workloads.SEARCH_SIZES},
    "walsh_search.overhead_frac": ("fraction", "lower"),
    "walsh_search.skipped_frac": ("fraction", "lower"),
    "walsh_search.kernel_check_s": ("s/pass", "lower"),
    "sequences.build_s": ("s/pass", "lower"),
    "cli.import_s": ("s", "lower"),
    **{f"cli.{sub}_ms": ("ms", "lower") for sub in CLI_SUBCOMMANDS},
    "cli.work_frac": ("fraction", "higher"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.spans": ("count/pass", "lower"),
}
# workloads the benchmark gate runs (BENCHMARK.json); `cli` runs on request only
GATED = ("search", "memory")
# first tau stream of the CLI round in a traced `memory` run, past memory's own
CLI_STREAMS = 100
TAIL_PERCENTILE = 90
SETUP_REPEATS = 5
WARMUP_TAU = 1.0e-6
SETUP_CODE = (
    "import ddmemory; ddmemory.load_preset('gaas'); ddmemory.load_preset('yb'); "
    "print('ready', flush=True)"
)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_package():
    """Import ddmemory from ./src and nowhere else."""
    if not (SRC / "ddmemory" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ddmemory package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ddmemory

    if Path(ddmemory.__file__).resolve().parent != SRC / "ddmemory":
        raise SystemExit(f"bench: imported ddmemory from {ddmemory.__file__}, not from {SRC}")
    return ddmemory


def measure_setup(repeats: int) -> List[float]:
    """Wall time from starting a fresh interpreter to ddmemory and both presets loaded.

    Not scaled to the reference speed: set-up is mostly file reads,
    unmarshalling and dynamic loading, which the speed kernel does not
    follow. Scaling each start by the kernel samples next to it, or by a
    fresh interpreter importing numpy and scipy.optimize started next to
    it, did not make the spread between runs reliably smaller.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        _, err = proc.communicate(timeout=60)
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"bench: setup child failed: {err.strip()}")
    return times


# -- run record -------------------------------------------------------------------


def _blas_threads() -> Optional[int]:
    import ctypes

    try:
        libs = {ln.split()[-1] for ln in open("/proc/self/maps") if "blas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        for ln in open("/proc/cpuinfo"):
            if ln.startswith("model name"):
                return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def machine_record() -> Dict[str, Any]:
    versions = {}
    for pkg in ("numpy", "scipy", "click", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "blas_threads": _blas_threads(),
        **versions,
    }


# -- statistics -------------------------------------------------------------------


def quantile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics. A
    workload's latencies form clusters by request type, and a single order
    statistic jumps between clusters from run to run; the weighted mean
    moves smoothly, which cuts the run-to-run spread of the memory median
    from about 19 % to 12 %.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    grid = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(pdf)]) / pdf.sum()
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.concatenate([[0.0], grid]), cdf))
    return float(weights @ x)


# -- one workload -----------------------------------------------------------------


def clear_caches() -> None:
    """Drop the package's lru caches so a repeated input starts cold again."""
    sys.modules["ddmemory.filters"]._moments.cache_clear()
    sys.modules["ddmemory.integrals"]._crossover_agreement.cache_clear()


def run_pass(runner, reqs: List[dict], traced: bool, meter: Optional[speed.Meter]) -> Dict[str, Any]:
    """Run one pass; `time_s` is the sum of request latencies, without the speed samples."""
    results = []
    for req in reqs:
        if meter is not None:
            meter.tick()
        t0 = time.perf_counter()
        try:
            out, err = runner.run(req, traced), None
        except Exception:  # a failing request is counted, and the run goes on
            out, err = None, traceback.format_exc(limit=3)
        results.append({"req": req, "out": out, "latency_s": time.perf_counter() - t0, "error": err})
    return {"results": results, "time_s": sum(r["latency_s"] for r in results)}


def run_workload(dd, name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    runner = workloads.Runner(dd, str(ROOT), child_env())
    make = workloads.REQUESTS[name]
    strata = (workloads.SMOKE_STRATA if smoke else workloads.STRATA)[name]
    streams: Dict[int, Any] = {}

    def draw(stream: int) -> float:
        if stream not in streams:
            streams[stream] = workloads.taus(seed, strata, stream)
        return next(streams[stream])

    setup = measure_setup(1 if smoke else SETUP_REPEATS)

    in_process = name != "cli"
    # in-process request times are scaled to the reference machine speed
    # (speed.py); a CLI call is mostly interpreter start and imports, which
    # the speed kernel does not follow, so CLI times stay as measured
    meter = speed.Meter() if in_process else None
    tracer = tracing.Tracer()
    if in_process:
        # lazy imports and first-touch allocations happen once per process;
        # a smoke pass at a tau outside the draws pays them before timing
        for req in make(lambda stream: WARMUP_TAU, True):
            runner.run(req)
        clear_caches()
        speed.kernel()
    passes: List[Dict[str, Any]] = []
    t_start = time.perf_counter()
    while True:
        reqs = make(draw, smoke)
        if trace:
            # the same inputs untraced and traced, both from cold caches, in
            # alternating order so one-time costs do not land on one side
            sides = {}
            for traced in (False, True) if len(passes) % 2 == 0 else (True, False):
                clear_caches()
                if traced and in_process:
                    with tracer:
                        sides[traced] = run_pass(runner, reqs, True, meter)
                else:
                    sides[traced] = run_pass(runner, reqs, traced, meter)
            passes.append({"plain": sides[False], "traced": sides[True]})
        else:
            passes.append({"plain": run_pass(runner, reqs, False, meter)})
        # stop only after whole stratified cycles, nearest to the requested length
        elapsed = time.perf_counter() - t_start
        cycles = len(passes) / strata
        if cycles == int(cycles) and elapsed + 0.5 * elapsed / cycles > seconds:
            break
    if in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max((r["out"]["report"].get("hwm_kb") or 0
                      for ps in passes for r in ps["plain"]["results"] if r["out"]), default=0)
    # `cli` is not a gated workload (see README), so the traced `memory` run
    # gives the cli layer's numbers: one traced round of the CLI calls
    cli_round: List[Dict[str, Any]] = []
    if trace and name == "memory":
        cli_round = run_pass(runner, workloads.cli_requests(lambda i: draw(CLI_STREAMS + i), smoke),
                             True, None)["results"]

    # correctness, outside the timed region
    t_check = time.perf_counter()
    checker = workloads.Checker(dd)
    failures = []
    attempted = 0
    for i, ps in enumerate(passes):
        checker.clear()
        for r in ps["plain"]["results"]:
            attempted += 1
            why = r["error"] or checker.check(r["req"], r["out"])
            if why:
                failures.append({"pass": i, "request": r["req"], "why": why})
        if trace:
            for a, b in zip(ps["plain"]["results"], ps["traced"]["results"]):
                attempted += 1
                if b["error"] or not workloads.same_output(a["req"], a["out"], b["out"]):
                    failures.append({"pass": i, "request": b["req"],
                                     "why": b["error"] or "traced output differs from untraced"})
    for r in cli_round:
        attempted += 1
        why = r["error"] or checker.check(r["req"], r["out"])
        if why:
            failures.append({"pass": "cli round", "request": r["req"], "why": why})

    check_s = time.perf_counter() - t_check
    plain = [r for ps in passes for r in ps["plain"]["results"]]
    lat_ms = [1e3 * r["latency_s"] for r in plain]
    busy = sum(ps["plain"]["time_s"] for ps in passes)
    units = sum(workloads.work_units(r["req"]) for r in plain)
    tail = quantile(lat_ms, TAIL_PERCENTILE / 100)
    measured = {
        "latency_p50_ms": quantile(lat_ms, 0.5),
        "latency_tail_ms": tail,
        "throughput_per_s": units / busy,
    }
    # times at the reference machine speed (speed.py); a rate divides by the scale
    scale = meter.scale() if meter is not None else 1.0
    end_to_end = {k: v / scale if k == "throughput_per_s" else v * scale for k, v in measured.items()}
    end_to_end["setup_s"] = statistics.median(setup)
    end_to_end["peak_rss_mb"] = rss_kb / 1024.0
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "passes": len(passes),
        "setup_samples_s": setup,
        "speed": {"ref_s": speed.REF_S, "samples_s": meter.samples if meter else [],
                  "scale": scale, "measured": measured},
        "check_s": check_s,
        "latency": {
            "samples": len(lat_ms),
            "tail_percentile": TAIL_PERCENTILE,
            "beyond_tail": sum(1 for v in lat_ms if v > tail),
        },
        "inputs": [[r["req"] for r in ps["plain"]["results"]] for ps in passes],
        "cli_round_inputs": [r["req"] for r in cli_round],
        "timings": [
            {"pass_s": ps["plain"]["time_s"],
             "latency_ms": [1e3 * r["latency_s"] for r in ps["plain"]["results"]]}
            for ps in passes
        ],
        "failures": failures,
    }
    record["inputs_sha256"] = hashlib.sha256(json.dumps(record["inputs"]).encode()).hexdigest()
    per_layer: Dict[str, float] = {}
    if trace:
        per_layer = tracing.layer_metrics(tracer.spans, len(passes), workloads.SEARCH_SIZES)
        traced_cli = cli_round if in_process else [r for ps in passes for r in ps["traced"]["results"]]
        per_layer.update(cli_layer_metrics(traced_cli))
        traced_time = sum(ps["traced"]["time_s"] for ps in passes)
        per_layer["trace.overhead_frac"] = traced_time / busy - 1.0
        per_layer["trace.spans"] = len(tracer.spans) / len(passes)
        record["spans"] = [s.to_json() for s in tracer.spans]
    return {
        "name": name,
        "attempted": attempted,
        "failed": len(failures),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "record": record,
    }


def cli_layer_metrics(results: List[Dict[str, Any]]) -> Dict[str, float]:
    timed = [r for r in results if r["out"] is not None and "main_s" in r["out"]["report"]]
    out: Dict[str, float] = {}
    out["cli.import_s"] = statistics.median(r["out"]["report"]["import_s"] for r in timed) if timed else 0.0
    for sub in CLI_SUBCOMMANDS:
        runs = [r["out"]["report"]["main_s"] for r in timed if r["req"]["argv"][0] == sub]
        out[f"cli.{sub}_ms"] = 1e3 * statistics.fmean(runs) if runs else 0.0
    wall = sum(r["out"]["wall_s"] for r in timed)
    out["cli.work_frac"] = sum(r["out"]["report"]["main_s"] for r in timed) / wall if wall else 0.0
    return out


# -- output -----------------------------------------------------------------------

def report(res: Dict[str, Any], trace: bool, path: Path) -> Dict[str, Dict[str, Any]]:
    rec = res["record"]
    name = res["name"]
    print(f"workload {name}: seed {rec['seed']}, {rec['passes']} passes, "
          f"{rec['latency']['samples']} requests, trace {int(trace)}")
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        for key, value in res["per_layer"].items():
            metrics[key] = {"value": value, "unit": PER_LAYER[key][0]}
    else:
        for key, value in res["end_to_end"].items():
            metrics[key] = {"value": value, "unit": END_TO_END[key][0]}
    for key, m in metrics.items():
        note = ""
        if key == "throughput_per_s":
            note = f"  ({THROUGHPUT[name]})"
        if key == "latency_tail_ms":
            lat = rec["latency"]
            note = f"  (p{lat['tail_percentile']} of {lat['samples']}, {lat['beyond_tail']} beyond)"
        print(f"  {key:40s} {m['value']:14.6g} {m['unit']}{note}")
    if not trace and rec["speed"]["samples_s"]:
        sp = rec["speed"]
        print(f"  request times at reference speed: measured x {sp['scale']:.4f} "
              f"(speed.REF_S / trimmed mean of {len(sp['samples_s'])} kernel samples)")
    print(f"  {'fail_frac':40s} {res['failed'] / res['attempted']:14.6g} fraction"
          f"  ({res['failed']} of {res['attempted']})")
    for f in rec["failures"][:5]:
        print(f"  FAIL pass {f['pass']} {f['request']}: {f['why']}".rstrip())
    print(f"  record: {path.relative_to(ROOT)}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced request lists, one setup sample")
    args = ap.parse_args(argv)

    dd = import_package()
    machine = machine_record()
    code = {"git_sha": _git_sha(), "src_sha256": _src_sha256()}
    OUT.mkdir(exist_ok=True)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(dd, name, args.seed, args.seconds, bool(args.trace), args.smoke)
        res["record"].update(machine=machine, code=code)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
        metrics = report(res, bool(args.trace), path)
        res["record"]["metrics"] = metrics
        path.write_text(json.dumps(res["record"], default=str) + "\n")
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
