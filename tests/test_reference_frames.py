"""The seed-42 smoke passes of the frame workloads against the benchmark's stored reference.

Runs the benchmark's ``frame_pipeline`` and ``fragmented_frame`` passes on
their small smoke inputs: NPY read and validation, segment extraction,
labelling, meta filter, matching and the feature CSV. Each summary, CSV
sha256 and feature sums included, must agree with ``bench/reference.json``
as the benchmark's own check compares them, so a change in the extraction
path's results fails here as well as in the benchmark. Files under
``bench/`` are only read.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    with mock.patch.dict(os.environ):  # run.py pins BLAS thread counts for its own process
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_modules():
    return _load("run"), _load("workloads")


@pytest.mark.parametrize("workload", ["frame_pipeline", "fragmented_frame"])
def test_smoke_passes_match_reference(bench_modules, tmp_path, workload):
    run, workloads = bench_modules
    reference = json.loads((BENCH / "reference.json").read_text())[f"{workload}.smoke"]["42"]
    w = workloads.WORKLOADS[workload]
    state = w.setup(42, True, tmp_path)
    try:
        for index in range(w.cycle):
            summary = w.summary(w.run_pass(state, index), state, index)
            assert run.diff(summary, reference[str(index)]) == []
            assert w.invariants(summary, state) == []
    finally:
        w.teardown(state)
