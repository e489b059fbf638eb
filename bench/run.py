"""oodseg benchmark: one seeded, single-process closed-loop workload per run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload ref_eval --seed 42 --seconds 20 --trace 0
    python3 bench/run.py --workload fragmented_frame --seed 42 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
Times are CPU seconds of this single-threaded process; see ``cpu_clock``.
``--trace 1`` runs untraced passes, then the same passes with spans around
the library's public functions, and reports the per-layer metrics. Every
pass's output is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A result file with
provenance, samples and every metric goes to ``bench/results/``.
``--smoke`` runs tiny inputs and one pass, for the benchmark's own tests;
``--corrupt`` alters each pass's output before it is checked, to show that
the checks catch it.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is single-process, and extra threads would
# only add scheduling noise on a small shared machine. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"
REFERENCE_PATH = BENCH_DIR / "reference.json"
FLOAT_TOL = 1e-9
# Passes and set-ups are timed in CPU seconds of this process. The benchmark is
# single-threaded, so on an idle machine that equals wall time; on a shared
# virtual machine it leaves out the time the hypervisor gives the core to
# someone else (steal), which made wall-clock medians drift by 30 % between
# identical runs. Wall times are kept in the result file.
cpu_clock = time.process_time
PAGE_CACHE_NOTE = (
    "tensor_io reads hit the page cache: the frames are written during set-up and read "
    "back right away, so read times are not disk measurements"
)

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s_p50", "s"),
    ("pass_s_tail", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    parser.add_argument("--corrupt", action="store_true", help="alter every output before checking it")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten samples above it.

    With fewer than 11 samples no percentile has ten beyond it; the maximum
    (percentile 100) is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def close(a, b) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))


def diff(got, want, path="") -> list:
    """Mismatches between two summaries: integers and strings exactly, floats within 1e-9."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [d for k in want for d in diff(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in diff(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return [] if close(got, want) else [f"{path}: {got!r} != {want!r}"]
    return [] if type(got) is type(want) and got == want else [f"{path}: {got!r} != {want!r}"]


def load_reference(workload: str, seed: int, smoke: bool) -> dict:
    """Stored outputs for a default seed, or {} for any other seed."""
    with open(REFERENCE_PATH) as fh:
        table = json.load(fh)
    key = workload + (".smoke" if smoke else "")
    return table.get(key, {}).get(str(seed), {})


class Checker:
    """Checks each pass: invariants, stored reference values, repeatability.

    A summary is compared with the reference stored for its position in the
    input cycle (default seeds only) and with the first summary seen at that
    position in this run, so a pass that changes its answer is caught for
    any seed.
    """

    def __init__(self, workload, state, reference: dict, corrupt: bool):
        self.workload = workload
        self.state = state
        self.reference = reference
        self.corrupt = corrupt
        self.first = {}
        self.first_counts = {}
        self.reference_checks = 0

    def check(self, summary: dict, index: int) -> list:
        if self.corrupt:
            self.workload.corrupt(summary)
        pos = str(index % self.workload.cycle)
        problems = self.workload.invariants(summary, self.state)
        if pos in self.reference:
            self.reference_checks += 1
            problems += [f"reference{d}" for d in diff(summary, self.reference[pos])]
        return problems + self._repeats(self.first, summary, pos, "repeat")

    def check_counts(self, counts: dict, index: int) -> list:
        """Per-layer counts must repeat exactly for the same input (there is no stored
        reference: a change to the library may rightly change them)."""
        return self._repeats(self.first_counts, counts, str(index % self.workload.cycle), "repeat counts")

    @staticmethod
    def _repeats(first: dict, value: dict, pos: str, label: str) -> list:
        if pos not in first:
            first[pos] = value
            return []
        return [f"{label}{d}" for d in diff(value, first[pos])]


class Loop:
    """Closed loop with one client: the next pass starts when the previous one returns."""

    def __init__(self, workload, state, checker):
        self.workload = workload
        self.state = state
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.last_raw = None
        self.wall_s = []  # wall time of every pass, for the result file

    def one_pass(self, index: int, tracer=None, trace_check=None) -> float:
        """Run and check pass ``index``; return its duration in CPU seconds.

        Under a tracer the pass is one span, and ``trace_check(index, lo, hi)``
        checks the spans ``lo..hi-1`` it recorded.
        """
        self.attempted += 1
        self.last_raw = None
        start, wall_start = cpu_clock(), time.perf_counter()
        try:
            if tracer is None:
                raw = self.workload.run_pass(self.state, index)
            else:
                lo = len(tracer.spans)
                with tracer.span("pass", pass_id=index):
                    raw = self.workload.run_pass(self.state, index)
            elapsed, wall = cpu_clock() - start, time.perf_counter() - wall_start
            problems = self.checker.check(self.workload.summary(raw, self.state, index), index)
            if tracer is not None:
                problems += trace_check(index, lo, len(tracer.spans))
            self.last_raw = raw
        except Exception:  # a pass that raises counts as failed; the loop goes on
            elapsed, wall = cpu_clock() - start, time.perf_counter() - wall_start
            problems = [traceback.format_exc()]
        self.record(index, problems)
        self.wall_s.append(wall)
        return elapsed

    def record(self, index: int, problems: list) -> None:
        if problems:
            self.failed += 1
            self.problems.append({"pass": index, "problems": problems[:20]})
            print(f"pass {index} failed:\n  " + "\n  ".join(problems[:20]), file=sys.stderr)

    def run(self, seconds: float, first_index: int, multiple: int, tracer=None, trace_check=None) -> list:
        """CPU times of the passes started within ``seconds`` of wall time; each runs to its end.

        The pass count is a positive multiple of ``multiple``.
        """
        times = []
        start = time.perf_counter()
        while not times or len(times) % multiple or time.perf_counter() - start < seconds:
            gc.collect()  # every pass starts from the same heap state
            times.append(self.one_pass(first_index + len(times), tracer, trace_check))
        return times


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, numpy_version: str, oodseg_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "oodseg": oodseg_version,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "note": PAGE_CACHE_NOTE,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def run_end_to_end(args, workload, reference) -> dict:
    setup_times, setup_wall = [], []
    state = None
    for _ in range(1 if args.smoke else workload.setup_repeats):
        if state is not None:
            workload.teardown(state)
            state = None
            gc.collect()
        start, wall = cpu_clock(), time.perf_counter()
        state = workload.setup(args.seed, args.smoke, WORK_DIR)
        setup_times.append(cpu_clock() - start)
        setup_wall.append(time.perf_counter() - wall)
    try:
        checker = Checker(workload, state, reference, args.corrupt)
        loop = Loop(workload, state, checker)
        times = loop.run(0.0 if args.smoke else args.seconds, 0, 1)
    finally:
        workload.teardown(state)
    tail_value, tail_pct = tail(times)
    values = {
        "setup_s": statistics.median(setup_times),
        "pass_s_p50": statistics.median(times),
        "pass_s_tail": tail_value,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "loop": loop,
        "checker": checker,
        "metrics": {name: (values[name], unit) for name, unit in END_TO_END},
        "samples": {
            "setup_s": setup_times,
            "pass_s": times,
            "tail_percentile": tail_pct,
            "setup_wall_s": setup_wall,
            "pass_wall_s": loop.wall_s,
        },
    }


def run_traced(args, workload, reference) -> dict:
    """Untraced passes, then traced passes, both for half of ``--seconds``, in whole cycles."""
    from tracing import COUNT_METRICS, MIN_COVERAGE, UNITS, Tracer, combine

    tracer = Tracer()
    with tracer.installed():
        with tracer.span("setup"):
            state = workload.setup(args.seed, args.smoke, WORK_DIR)
    setup_metrics = tracer.setup_metrics(0, len(tracer.spans))
    per_pass, coverages, extra = [], [], {}

    def trace_check(index: int, lo: int, hi: int) -> list:
        metrics = tracer.pass_metrics(lo, hi)
        coverage = tracer.coverage(lo, hi)
        per_pass.append(metrics)
        coverages.append(coverage)
        problems = checker.check_counts({k: metrics[k] for k in COUNT_METRICS if k in metrics}, index)
        if coverage < MIN_COVERAGE:
            problems.append(f"child spans cover {coverage:.1%} of the pass, below {MIN_COVERAGE:.0%}")
        return problems

    half = 0.0 if args.smoke else args.seconds / 2
    try:
        checker = Checker(workload, state, reference, args.corrupt)
        loop = Loop(workload, state, checker)
        untraced = loop.run(half, 0, workload.cycle)
        with tracer.installed():
            traced = loop.run(half, len(untraced), workload.cycle, tracer, trace_check)
            if hasattr(workload, "extra") and not args.smoke and loop.last_raw is not None:
                loop.attempted += 1
                try:
                    with tracer.span("extra"):
                        start = time.perf_counter()
                        problems = workload.extra(state, loop.last_raw)
                        extra["evaluate.sweep_jobs2_s"] = time.perf_counter() - start
                except Exception:  # counted as a failed attempt, like a pass that raises
                    problems = [traceback.format_exc()]
                loop.record(-1, problems)
    finally:
        workload.teardown(state)
    if not per_pass:
        raise RuntimeError("every traced pass raised; no per-layer metrics")
    overhead = statistics.median(traced) - statistics.median(untraced)
    layer = combine(per_pass, setup_metrics, extra, overhead, min(coverages))
    return {
        "loop": loop,
        "checker": checker,
        "metrics": {name: (value, UNITS[name]) for name, value in layer.items()},
        "samples": {
            "untraced_pass_s": untraced,
            "traced_pass_s": traced,
            "coverage": coverages,
            "per_pass": per_pass,
        },
        "spans": tracer.spans,
    }


def write_results(args, result: dict, prov: dict, correct: bool) -> Path:
    """One JSON result file per run (plus a span CSV for a traced run)."""
    loop = result["loop"]
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}" + ("_smoke" if args.smoke else "")
    prov = {
        **prov,
        "passes": loop.attempted,
        "pass_samples": len(result["samples"]["traced_pass_s" if args.trace else "pass_s"]),
        "reference_checks": result["checker"].reference_checks,
    }
    payload = {
        "provenance": prov,
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "error_rate": loop.failed / loop.attempted,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()},
        "samples": result["samples"],
        "problems": loop.problems,
    }
    path = RESULTS_DIR / f"{stem}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if "spans" in result:
        with open(RESULTS_DIR / f"{stem}_spans.csv", "w") as fh:
            fh.write("index,name,start,end,parent,pass\n")
            for i, s in enumerate(result["spans"]):
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},{s.pass_id}\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oodseg" / "__init__.py").is_file():
        print(f"error: no oodseg sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import oodseg
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    reference = load_reference(args.workload, args.seed, args.smoke)
    prov = provenance(args, numpy.__version__, oodseg.__version__)
    result = (run_traced if args.trace else run_end_to_end)(args, workload, reference)

    loop = result["loop"]
    correct = loop.failed == 0
    path = write_results(args, result, prov, correct)
    samples = result["samples"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {loop.attempted} passes, "
          f"{loop.failed} failed, error_rate={loop.failed / loop.attempted:.4g}, "
          f"reference checks: {result['checker'].reference_checks}")
    if args.trace:
        print(f"untraced passes: {len(samples['untraced_pass_s'])}, traced passes: "
              f"{len(samples['traced_pass_s'])}, lowest span coverage {min(samples['coverage']):.1%}")
    else:
        print(f"pass samples: {len(samples['pass_s'])}, set-up samples: {len(samples['setup_s'])}, "
              f"pass_s_tail is p{samples['tail_percentile']:.4g} of {len(samples['pass_s'])}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"result file: {path.relative_to(ROOT)}")

    # The last line carries exactly the metrics BENCHMARK.json lists for this mode;
    # the result file and the lines above carry every metric.
    with open(ROOT / "BENCHMARK.json") as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]]
    metrics = result["metrics"]
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
