"""Spans around oodseg's public functions, for the benchmark's traced run.

The traced run rebinds public names in the ``oodseg.*`` module namespaces to
timing wrappers, so the calls the library makes internally (``sweep`` ->
``connected_components``, ``read_npy`` -> ``validate_prob_map``) are timed
as well as the benchmark's own calls. Nothing under ``src/`` changes, and the
untraced run installs no wrappers.

Every span records its name, start, end, parent and pass id; spans stay in
memory until the run ends. Spans are timed in CPU seconds of the process
(``time.process_time``), like the untraced passes, so time the hypervisor
takes away from the core does not count. A span's self time is its duration minus the
time its child spans cover. Per-layer metrics (``<module>.<quantity>``) are
computed per pass from the spans of that pass, or from the set-up spans for
the layers that only run in set-up (``synth``, ``tensor_io.write``).
"""

from __future__ import annotations

import functools
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import oodseg.evaluate
import oodseg.meta
import oodseg.scores
import oodseg.segments
import oodseg.synth
import oodseg.tensor_io

MODULES = {
    "evaluate": oodseg.evaluate,
    "meta": oodseg.meta,
    "scores": oodseg.scores,
    "segments": oodseg.segments,
    "synth": oodseg.synth,
    "tensor_io": oodseg.tensor_io,
}

# A pass must spend at least this share of its time inside named child
# spans, so that no stage of the pass goes unaccounted.
MIN_COVERAGE = 0.9


def _score_counts(args, kwargs, result):
    p = args[0]
    return {"px": p.shape[0] * p.shape[1], "bytes": p.nbytes}


def _prcurve_counts(args, kwargs, result):
    return {"px": sum(int(s.size) for s in args[0])}


# (span name, namespaces to rebind, attribute, count function). One wrapper
# per row is bound into every listed namespace. ``connected_components`` gets
# two rows: in ``segments`` it labels threshold masks, in ``evaluate`` only
# ``match_segments`` calls it, on the ground-truth OoD mask.
WRAPS = [
    *[
        (f"scores.{fn}", ("scores", "segments", "evaluate"), fn, _score_counts)
        for fn in ("entropy_map", "margin_map", "maxprob_map", "argmax_map")
    ],
    ("segments.extract", ("segments",), "extract_segments", None),
    ("segments.components", ("segments",), "connected_components",
     lambda a, k, r: {"found": len(r)}),
    ("segments.features", ("segments",), "compute_features", None),
    ("evaluate.match", ("evaluate",), "match_segments", None),
    ("evaluate.gt_label", ("evaluate",), "connected_components", None),
    ("evaluate.table", ("evaluate",), "build_training_table", None),
    ("evaluate.sweep", ("evaluate",), "sweep", None),
    ("evaluate.prcurve", ("evaluate",), "pixel_pr_curve", _prcurve_counts),
    ("meta.fit", ("meta",), "fit_meta",
     lambda a, k, r: {"rows": int(a[0].shape[0]), "iters": int(r.n_iter)}),
    ("meta.filter", ("meta", "evaluate"), "apply_meta_filter",
     lambda a, k, r: {"in": len(a[0]), "kept": len(r[0])}),
    ("meta.label", ("meta", "evaluate"), "label_segments", None),
    ("meta.load", ("meta",), "load_meta_model", None),
    ("synth.build", ("synth",), "build_benchmark", None),
    ("synth.scene", ("synth",), "generate_scene", None),
    ("tensor_io.read", ("tensor_io",), "read_npy", lambda a, k, r: {"bytes": int(r.nbytes)}),
    *[
        ("tensor_io.validate", ("tensor_io",), fn, None)
        for fn in ("validate_prob_map", "validate_label_mask", "validate_score_map")
    ],
    ("tensor_io.write", ("tensor_io",), "write_npy", lambda a, k, r: {"bytes": int(a[0].nbytes)}),
    ("tensor_io.csv_write", ("tensor_io",), "write_feature_csv", lambda a, k, r: {"rows": len(a[0])}),
]

# (metric, unit, how it is computed). Times are self times summed over a
# pass unless the description says otherwise.
LAYER_METRICS = [
    ("scores.busy_s", "s", "self time of the four score maps"),
    ("scores.calls", "count", "score-map calls"),
    ("scores.mpx", "Mpx", "pixels scored, in millions"),
    ("scores.gb_read_computed", "GB", "probability bytes read by the score maps, computed from shapes"),
    ("segments.components_s", "s", "connected_components on threshold masks"),
    ("segments.components_calls", "count", "connected_components calls on threshold masks"),
    ("segments.components_found", "count", "components before min_size"),
    ("segments.components_kept", "count", "components after min_size (one compute_features call each)"),
    ("segments.kept_ratio", "ratio", "components_kept / components_found"),
    ("segments.features_s", "s", "compute_features"),
    ("segments.features_calls", "count", "compute_features calls"),
    ("evaluate.match_s", "s", "match_segments, without its gt labelling"),
    ("evaluate.match_calls", "count", "match_segments calls"),
    ("evaluate.gt_label_s", "s", "connected_components called by match_segments"),
    ("evaluate.gt_label_calls", "count", "connected_components calls by match_segments"),
    ("evaluate.table_s", "s", "build_training_table"),
    ("evaluate.sweep_s", "s", "sweep"),
    ("evaluate.sweep_wall_s", "s", "sweep(jobs=1), whole duration including children"),
    ("evaluate.sweep_jobs2_s", "s", "one extra sweep(jobs=2) outside the passes, in wall time"),
    ("evaluate.prcurve_s", "s", "pixel_pr_curve"),
    ("evaluate.prcurve_px", "count", "pixels pooled by pixel_pr_curve"),
    ("meta.fit_s", "s", "fit_meta"),
    ("meta.newton_iters", "count", "Newton iterations of fit_meta"),
    ("meta.table_rows", "count", "rows fitted by fit_meta"),
    ("meta.filter_s", "s", "apply_meta_filter"),
    ("meta.filter_in", "count", "segments given to apply_meta_filter"),
    ("meta.filter_kept", "count", "segments kept by apply_meta_filter"),
    ("meta.label_s", "s", "label_segments"),
    ("synth.build_s", "s", "build_benchmark in set-up, without its scenes"),
    ("synth.scene_s", "s", "generate_scene in set-up"),
    ("synth.scenes", "count", "generate_scene calls in set-up"),
    ("synth.peak_alloc_mb", "MB", "peak traced allocation of one outermost synth call"),
    ("tensor_io.read_s", "s", "read_npy without validation"),
    ("tensor_io.validate_s", "s", "validate_* called by read_npy"),
    ("tensor_io.read_mb", "MB", "bytes returned by read_npy"),
    ("tensor_io.write_s", "s", "write_npy in set-up"),
    ("tensor_io.write_mb", "MB", "bytes written by write_npy in set-up"),
    ("tensor_io.csv_write_s", "s", "write_feature_csv"),
    ("tensor_io.csv_rows", "count", "rows written by write_feature_csv"),
    ("trace.overhead_s", "s", "median traced pass minus median untraced pass"),
    ("trace.coverage", "ratio", "lowest share of a traced pass covered by its child spans"),
]
UNITS = {name: unit for name, unit, _ in LAYER_METRICS}
COUNT_METRICS = [name for name, unit, _ in LAYER_METRICS if unit != "s" and not name.startswith("trace.")]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    pass_id: int  # -1 outside the passes
    counts: Optional[dict] = None


class Tracer:
    """Records spans in memory; rebinds the library's public names while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.pass_id = -1

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, pass_id: int = -1):
        """A span opened by the benchmark itself (a pass, set-up or an extra call)."""
        outer, self.pass_id = self.pass_id, pass_id
        span = self._open(name)
        span.start = time.process_time()
        try:
            yield span
        finally:
            span.end = time.process_time()
            self._stack.pop()
            self.pass_id = outer

    def _wrap(self, name, fn, count):
        tracer = self
        # synth is the one layer whose memory peak matters (about 2 GB per frame).
        measure_alloc = name.startswith("synth.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost_alloc = measure_alloc and not tracemalloc.is_tracing()
            if outermost_alloc:
                tracemalloc.start()
            span = tracer._open(name)
            span.start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.process_time()
                tracer._stack.pop()
                if outermost_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    span.counts = {"peak_alloc_mb": peak / 2**20}
            if count is not None:
                span.counts = {**(span.counts or {}), **count(args, kwargs, result)}
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every wrapped public name; restore the originals on exit."""
        saved = []
        try:
            for name, namespaces, attr, count in WRAPS:
                wrapper = self._wrap(name, getattr(MODULES[namespaces[0]], attr), count)
                for ns in namespaces:
                    module = MODULES[ns]
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- aggregation -------------------------------------------------------

    def _totals(self, lo: int, hi: int) -> dict:
        """Per span name: calls, self time, wall time and summed counts over spans[lo:hi]."""
        child_time = {}
        for i in range(lo, hi):
            s = self.spans[i]
            if s.parent >= lo:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        totals = {}
        for i in range(lo, hi):
            s = self.spans[i]
            t = totals.setdefault(s.name, {"calls": 0, "self": 0.0, "wall": 0.0})
            wall = s.end - s.start
            t["calls"] += 1
            t["wall"] += wall
            t["self"] += wall - child_time.get(i, 0.0)
            for key, value in (s.counts or {}).items():
                if key == "peak_alloc_mb":
                    t[key] = max(t.get(key, 0.0), value)
                else:
                    t[key] = t.get(key, 0) + value
        return totals

    def coverage(self, root: int, hi: int) -> float:
        """Share of span ``root``'s duration covered by its direct children."""
        r = self.spans[root]
        covered = sum(s.end - s.start for s in self.spans[root + 1:hi] if s.parent == root)
        return covered / (r.end - r.start)

    def pass_metrics(self, root: int, hi: int) -> dict:
        """Per-layer metrics of one pass, from the spans of indices root..hi-1."""
        return _pass_metrics(self._totals(root, hi))

    def setup_metrics(self, root: int, hi: int) -> dict:
        return _setup_metrics(self._totals(root, hi))


def _get(totals: dict, name: str, key: str):
    return totals.get(name, {}).get(key, 0)


def _pass_metrics(t: dict) -> dict:
    scores = [v for k, v in t.items() if k.startswith("scores.")]
    found = _get(t, "segments.components", "found")
    kept = _get(t, "segments.features", "calls")
    return {
        "scores.busy_s": sum(v["self"] for v in scores),
        "scores.calls": sum(v["calls"] for v in scores),
        "scores.mpx": sum(v["px"] for v in scores) / 1e6,
        "scores.gb_read_computed": sum(v["bytes"] for v in scores) / 2**30,
        "segments.components_s": _get(t, "segments.components", "self"),
        "segments.components_calls": _get(t, "segments.components", "calls"),
        "segments.components_found": found,
        "segments.components_kept": kept,
        "segments.kept_ratio": kept / found if found else 0.0,
        "segments.features_s": _get(t, "segments.features", "self"),
        "segments.features_calls": kept,
        "evaluate.match_s": _get(t, "evaluate.match", "self"),
        "evaluate.match_calls": _get(t, "evaluate.match", "calls"),
        "evaluate.gt_label_s": _get(t, "evaluate.gt_label", "self"),
        "evaluate.gt_label_calls": _get(t, "evaluate.gt_label", "calls"),
        "evaluate.table_s": _get(t, "evaluate.table", "self"),
        "evaluate.sweep_s": _get(t, "evaluate.sweep", "self"),
        "evaluate.sweep_wall_s": _get(t, "evaluate.sweep", "wall"),
        "evaluate.prcurve_s": _get(t, "evaluate.prcurve", "self"),
        "evaluate.prcurve_px": _get(t, "evaluate.prcurve", "px"),
        "meta.fit_s": _get(t, "meta.fit", "self"),
        "meta.newton_iters": _get(t, "meta.fit", "iters"),
        "meta.table_rows": _get(t, "meta.fit", "rows"),
        "meta.filter_s": _get(t, "meta.filter", "self"),
        "meta.filter_in": _get(t, "meta.filter", "in"),
        "meta.filter_kept": _get(t, "meta.filter", "kept"),
        "meta.label_s": _get(t, "meta.label", "self"),
        "tensor_io.read_s": _get(t, "tensor_io.read", "self"),
        "tensor_io.validate_s": _get(t, "tensor_io.validate", "self"),
        "tensor_io.read_mb": _get(t, "tensor_io.read", "bytes") / 2**20,
        "tensor_io.csv_write_s": _get(t, "tensor_io.csv_write", "self"),
        "tensor_io.csv_rows": _get(t, "tensor_io.csv_write", "rows"),
    }


def _setup_metrics(t: dict) -> dict:
    return {
        "synth.build_s": _get(t, "synth.build", "self"),
        "synth.scene_s": _get(t, "synth.scene", "self"),
        "synth.scenes": _get(t, "synth.scene", "calls"),
        "synth.peak_alloc_mb": max(_get(t, "synth.build", "peak_alloc_mb"),
                                   _get(t, "synth.scene", "peak_alloc_mb")),
        "tensor_io.write_s": _get(t, "tensor_io.write", "self"),
        "tensor_io.write_mb": _get(t, "tensor_io.write", "bytes") / 2**20,
    }


def combine(per_pass: list[dict], setup: dict, extra: dict, overhead_s: float, coverage: float) -> dict:
    """All per-layer metrics: times are medians over passes, counts are per-pass means."""
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        out[name] = statistics.median(values) if UNITS[name] == "s" else statistics.fmean(values)
    out.update(setup)
    out["evaluate.sweep_jobs2_s"] = extra.get("evaluate.sweep_jobs2_s", 0.0)
    out["trace.overhead_s"] = overhead_s
    out["trace.coverage"] = coverage
    return {name: out[name] for name, _, _ in LAYER_METRICS}
