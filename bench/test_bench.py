"""Self-tests of the benchmark: correctness check, tracing, smoke runs, contract.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import ddmemory as dd  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TAU = 1.0e-6


@pytest.fixture(scope="module")
def checker():
    return workloads.Checker(dd)


def _perturbed(budget, rel):
    return replace(budget, chi_total=budget.chi_total * (1.0 + rel))


@pytest.mark.parametrize(
    "req",
    [
        {"op": "chi_repeated", "tau": TAU, "shape": "bb", "m": 10},
        {"op": "chi_repeated", "tau": TAU, "shape": "dcg:1e-08", "m": 1000},
        {"op": "chi_repeated", "tau": TAU, "shape": "bb", "m": 62_500},
        {"op": "chi_during", "tau": TAU, "t": 16 * TAU / 3},
    ],
    ids=lambda r: f"{r['op']}-{r.get('shape', '')}-{r.get('m', '')}",
)
def test_check_accepts_chi_and_rejects_ten_rel_tol(checker, req):
    out = workloads.Runner(dd, str(ROOT), {}).run(req)
    assert checker.check(req, out) is None
    assert checker.check(req, _perturbed(out, 10 * dd.DEFAULT_CONFIG.rel_tol)) is not None
    assert checker.check(req, _perturbed(out, -10 * dd.DEFAULT_CONFIG.rel_tol)) is not None


def test_check_rejects_perturbed_search_candidate(checker):
    req = {"op": "best_sequence", "tau": TAU, "n": 4}
    res = workloads.Runner(dd, str(ROOT), {}).run(req)
    assert checker.check(req, res) is None
    cands = list(res.candidates)
    cands[1] = replace(cands[1], chi_total=cands[1].chi_total * (1 + 10 * dd.DEFAULT_CONFIG.rel_tol))
    assert checker.check(req, replace(res, candidates=tuple(cands))) is not None
    assert checker.check(req, replace(res, winner_index=(res.winner_index + 1) % 4)) is not None


def test_oracle_patterns_match_library_times():
    assert oracle.cdd_pattern(4, TAU).times == dd.cdd(4, TAU).pulse_times
    for k in (0, 5, 31, 63):
        assert oracle.walsh_pattern(k, 64, 64 * TAU).times == dd.walsh(k, 64 * TAU, 64).pulse_times


def _fixed_case():
    gaas = dd.load_preset("gaas")
    p = dd.cdd(4, TAU)
    return (
        dd.chi(p, gaas),
        dd.chi_repeated(p, 100, gaas, dd.dcg3(1e-8)),
        dd.chi_repeated(p, 20_000, gaas),
        dd.best_sequence(4 * TAU, TAU, gaas, workers=1),
    )


def _traced_fixed_case():
    run.clear_caches()
    with tracing.Tracer() as tr:
        out = _fixed_case()
    counts = Counter(s.name for s in tr.spans)
    points = Counter()
    for s in tr.spans:
        points[s.name] += s.attrs.get("points", 0)
    return out, counts, points


def test_tracing_repeats_exactly_and_changes_no_bit():
    run.clear_caches()
    plain = _fixed_case()
    out1, counts1, points1 = _traced_fixed_case()
    out2, counts2, points2 = _traced_fixed_case()
    assert out1 == plain and out2 == plain
    assert counts1 == counts2 and points1 == points2
    for name in ("filters.omega_y_tilde", "noise.evaluate", "integrals.chi_repeated",
                 "walsh_search.best_sequence", "sequences.cdd", "filters.dirichlet_factor"):
        assert counts1[name] > 0, name


def test_tracer_patches_every_binding_and_restores_them():
    before = tracing.binding_snapshot()
    original = dd.filters.omega_y_tilde
    with tracing.Tracer():
        assert dd.pulses.omega_y_tilde is not original
        assert dd.pulses.omega_y_tilde is dd.filters.omega_y_tilde is dd.omega_y_tilde
        assert dd.walsh_search.chi is dd.integrals.chi
    assert tracing.binding_snapshot() == before
    assert dd.pulses.omega_y_tilde is original


def test_speed_kernel_calls_no_ddmemory_function():
    with tracing.Tracer() as tr:
        speed.kernel()
    assert tr.spans == []


def test_speed_scale_is_reference_over_trimmed_mean():
    meter = speed.Meter()
    meter.samples = [1e-4] + [0.02] * 18 + [5.0]  # a preemption and a stall
    assert meter.scale() == pytest.approx(speed.REF_S / 0.02)


def test_speed_meter_samples_once_per_interval(monkeypatch):
    clock = [100.0]
    monkeypatch.setattr(speed, "kernel", lambda: clock.__setitem__(0, clock[0] + 0.02))
    monkeypatch.setattr(speed.time, "perf_counter", lambda: clock[0])
    meter = speed.Meter()
    meter.tick()  # the first tick always samples
    clock[0] += 3.5 * speed.INTERVAL_S
    meter.tick()
    meter.tick()  # no time has passed since the burst
    clock[0] += 1000.0
    meter.tick()
    assert len(meter.samples) == 1 + 3 + speed.MAX_BURST


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                 "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(table)
    for name, m in result["metrics"].items():
        assert m["unit"] == table[name][0]


def test_benchmark_json_matches_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.GATED)
    assert all(w["why"] == run.WORKLOADS[w["name"]] for w in spec["workloads"])
    assert {e["name"]: (e["unit"], e["better"], e["bound"]) for e in spec["end_to_end"]} == run.END_TO_END
    assert {e["name"]: (e["unit"], e["better"]) for e in spec["per_layer"]} == run.PER_LAYER
    assert max(b for _, _, b in run.END_TO_END.values()) == run.END_TO_END["setup_s"][2]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
