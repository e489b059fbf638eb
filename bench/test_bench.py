"""The benchmark's own tests, on its smoke mode: tiny inputs, one pass per workload.

    python3 -m pytest -q bench
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
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PROVENANCE_KEYS = {
    "nproc", "cpu_model", "python", "numpy", "blas_threads", "git_commit", "seed",
    "passes", "pass_samples", "note",
}


def bench(workload, seed=42, trace=0, *extra, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = last_line(bench(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))

    stored = json.loads((run.RESULTS_DIR / f"{workload}_seed42_trace{trace}_smoke.json").read_text())
    assert PROVENANCE_KEYS <= set(stored["provenance"])
    assert stored["provenance"]["reference_checks"] >= 1
    assert stored["error_rate"] == 0.0
    every = LAYER_METRICS if trace else [(n, u, "") for n, u in run.END_TO_END]
    assert {n: v["unit"] for n, v in stored["metrics"].items()} == {n: u for n, u, _ in every}
    if trace:
        assert stored["metrics"]["trace.coverage"]["value"] >= 0.9


def test_per_layer_counts_repeat_between_traced_runs():
    from tracing import COUNT_METRICS

    counts = []
    for _ in range(2):
        last_line(bench("ref_eval", 7, 1))
        stored = json.loads((run.RESULTS_DIR / "ref_eval_seed7_trace1_smoke.json").read_text())
        counts.append([{k: p[k] for k in COUNT_METRICS if k in p} for p in stored["samples"]["per_pass"]])
    assert counts[0] == counts[1] and counts[0][0]["segments.components_found"] > 0


@pytest.mark.parametrize("seed", [42, 7])  # with and without stored reference values
@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failure(workload, seed):
    result = last_line(bench(workload, seed, 0, "--corrupt"))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = bench(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(40)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_diff_is_exact_for_integers_and_tolerant_for_floats():
    assert run.diff({"a": [1, 0.5]}, {"a": [1, 0.5 + 1e-12]}) == []
    assert run.diff({"a": [2, 0.5]}, {"a": [1, 0.5]}) != []
    assert run.diff({"a": 0.5 + 1e-6}, {"a": 0.5}) != []
    assert run.diff({"a": True}, {"a": 1}) != []
