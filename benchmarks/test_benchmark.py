"""Checks of the benchmark harness itself, on tiny inputs (``--smoke``).

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_and_benchmark_json_agree():
    assert sorted(WORKLOADS) == sorted(SPEC["workloads"])
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(SPEC["layers"])
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for name, entry in SPEC["layers"].items():
        assert set(entry["moves"]) <= end_to_end, name
        assert all(set(ws) <= set(WORKLOADS) for ws in entry["moves"].values()), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = result_of(run_bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    proc = run_bench(workload, 1)
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["cli.import_s"] > 0 and metrics["cli.main_s"] > metrics["cli.self_s"] > 0
    if workload == "triad_analyze":
        assert metrics["spectral.bicoherence_calls"] == 3
        assert metrics["spectral.true_hotspot_ratio"] == 1.0
        assert metrics["synthetic.gen_triad_s"] > 0
    elif workload == "market_analyze":
        # the run itself fails unless these equal what the generator planted
        assert metrics["market.dropped_invalid"] > 0 and metrics["market.dropped_duplicate"] > 0
        assert metrics["market.gaps"] > 0
    else:
        assert metrics["simulator.steps"] == SPEC["workloads"][workload]["smoke"]["steps"]
        assert metrics["simulator.step_us_tail"] >= metrics["simulator.step_us_p50"] > 0
    assert "traced" in proc.stdout and "cli.self" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
