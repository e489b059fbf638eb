"""Run one workload over several seeds and report each end-to-end metric's spread.

    python3 bench/spread.py --workload fragmented_frame --seeds 1 2 3 4 5

Runs ``bench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json. For every end-to-end metric it prints the
median of the runs and the quartile spread, (Q3 - Q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``, next to the metric's
bound. Add ``--json PATH`` to keep the per-run values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--json", default=None, help="write the per-run results here")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    runs = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {result['failed']}/{result['attempted']} failed {values}",
              flush=True)
    print(f"{args.workload}, {len(runs)} runs:")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        s = spread(values) if len(values) > 1 else float("nan")
        print(f"  {metric['name']:12s} median {statistics.median(values):10.4f} {metric['unit']:3s} "
              f"spread {s:6.3f}  bound {metric['bound']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
