"""Regenerate the benchmark's stored model and reference outputs.

    python3 bench/make_reference.py             # all default seeds
    python3 bench/make_reference.py --seeds 42  # only the seeds given

``meta_model.json`` is the model ``ref_eval`` fits at seed 42 (the reference
20-scene benchmark, default grid, min_size 10); ``frame_pipeline`` applies
it. ``reference.json`` holds, per workload and default seed, the checked
summary of each pass of one input cycle.
Run this only when a change is meant to alter the outputs, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # pins the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

from oodseg import evaluate, meta, synth  # noqa: E402
from workloads import MIN_SIZE, MODEL_PATH, WORKLOADS  # noqa: E402

DEFAULT_SEEDS = (42, *range(11))


def write_model() -> None:
    bench = synth.build_benchmark(synth.DEFAULT_CONFIG, synth.DEFAULT_N_SCENES)
    features, labels = evaluate.build_training_table(bench, evaluate.DEFAULT_GRID, min_size=MIN_SIZE)
    meta.save_meta_model(meta.fit_meta(features, labels), MODEL_PATH)


def reference_for(workload, seed: int, smoke: bool) -> dict:
    """Checked summaries of one cycle of passes, keyed by position in the cycle."""
    state = workload.setup(seed, smoke, run.WORK_DIR)
    try:
        outputs = {str(i): workload.summary(workload.run_pass(state, i), state, i) for i in range(workload.cycle)}
        for i, summary in outputs.items():
            problems = workload.invariants(summary, state)
            if problems:
                raise RuntimeError(f"{workload.name} seed {seed} pass {i}: {problems}")
    finally:
        workload.teardown(state)
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=DEFAULT_SEEDS)
    args = parser.parse_args(argv)
    run.WORK_DIR.mkdir(exist_ok=True)
    write_model()
    try:
        with open(run.REFERENCE_PATH) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    for name, workload in WORKLOADS.items():
        table.setdefault(f"{name}.smoke", {})[str(DEFAULT_SEEDS[0])] = reference_for(workload, DEFAULT_SEEDS[0], True)
        for seed in args.seeds:
            print(f"{name} seed {seed}", file=sys.stderr, flush=True)
            table.setdefault(name, {})[str(seed)] = reference_for(workload, seed, False)
            with open(run.REFERENCE_PATH, "w") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
