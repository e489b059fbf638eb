"""Detection quality metrics and threshold sweeps.

Covers the three evaluation views used throughout:

* segment level -- FP/FN counts under a majority-coverage matching rule,
  swept over a threshold grid for the four combinations of simulated OoD
  training (boosted scenes) and meta classification;
* pixel level   -- precision-recall curve and its step-wise area (AuPRC)
  with ground-truth OoD pixels as positives;
* segmentation  -- mIoU of the predicted classes against ground truth, and
  the loss in percent points relative to the unboosted/no-meta reference.

Sweep rows serialize to CSV/JSON tables from which FP-vs-FN curves with
mIoU-loss annotations can be plotted without recomputation.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, DomainError, IoError, SchemaError, ValidationError
from .meta import MetaModel, _ood_share, apply_meta_filter, label_segments
# The single-map names stay bound here because bench/tracing.py rebinds them
# in this namespace for its traced run.
from .scores import argmax_map, entropy_map, margin_map, maxprob_map, score_maps  # noqa: F401
from .segments import _segments_from_maps, connected_components, features_matrix
from .synth import _check_jobs
from .tensor_io import IGNORE_ID, OOD_ID, SegmentTable

__all__ = [
    "DEFAULT_GRID",
    "MatchAssignment",
    "MatchResult",
    "DetectionOutcome",
    "SweepResult",
    "PRCurve",
    "match_segments",
    "miou",
    "pixel_pr_curve",
    "sweep",
    "build_training_table",
    "write_sweep_csv",
    "write_sweep_json",
    "write_pr_csv",
    "write_pr_summary",
]

SWEEP_CSV_COLUMNS = ("t", "ood_training", "meta", "tp", "fp", "fn", "miou_loss")

# Reference threshold grid used by the CLI and the benchmark walkthroughs.
DEFAULT_GRID = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


@dataclass(frozen=True)
class MatchAssignment:
    """Per-segment / per-component outcome of a matching pass.

    ``pred_is_tp[i]`` tells whether predicted segment i counted as a true
    indication; ``pred_excluded[i]`` marks segments lying entirely on ignore
    pixels (counted as neither TP nor FP); ``gt_detected[j]`` tells whether
    ground-truth OoD component j was covered enough to count as found.
    """

    pred_is_tp: np.ndarray
    pred_excluded: np.ndarray
    gt_detected: np.ndarray


class MatchResult(NamedTuple):
    tp: int
    fp: int
    fn: int
    assignment: MatchAssignment


@dataclass(frozen=True)
class DetectionOutcome:
    """One sweep row: counts for a (threshold, ood_training, meta) combination."""

    t: float
    ood_training: bool
    meta: bool
    tp: int
    fp: int
    fn: int
    miou_loss: float  # percent points below the unboosted/no-meta reference


@dataclass(frozen=True)
class SweepResult:
    rows: list
    reference_miou: float


@dataclass(frozen=True)
class PRCurve:
    """Precision-recall curve over all distinct score cutoffs, descending."""

    cutoffs: np.ndarray
    precisions: np.ndarray
    recalls: np.ndarray
    auprc: float


def match_segments(pred: SegmentTable, gt: np.ndarray, coverage: float = 0.5) -> MatchResult:
    """Majority-coverage matching of predicted segments against gt OoD components.

    Ground-truth components are the 8-connected components of the OoD mask.
    A component counts as detected when at least ``coverage`` of its pixels
    lies under the union of all predicted segments (fn = undetected count).
    A predicted segment is a false positive when less than ``coverage`` of
    its non-ignore pixels lies on OoD ground truth; tp is the number of
    predicted segments that are not false positives. Segments consisting
    solely of ignore pixels are excluded from both counts. ``pred`` needs its
    label image, so a table read from CSV raises DomainError.
    """
    coverage = float(coverage)
    if not (0.0 < coverage <= 1.0):
        raise DomainError(f"coverage {coverage!r} outside (0, 1]")
    share, pred_excluded = _ood_share(pred, gt)
    pred_is_tp = ~pred_excluded & (share >= coverage)

    components = connected_components(np.asarray(gt) == OOD_ID, connectivity=8)
    union = np.isin(pred.label_image, pred.ids + 1)
    covered = np.bincount(components.label_image[union], minlength=len(components) + 1)[1:]
    gt_detected = covered / components.sizes >= coverage

    tp = int(pred_is_tp.sum())
    fp = int((~pred_is_tp & ~pred_excluded).sum())
    fn = int((~gt_detected).sum())
    return MatchResult(tp, fp, fn, MatchAssignment(pred_is_tp, pred_excluded, gt_detected))


def _confusion(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> np.ndarray:
    """(C, C) confusion counts over pixels whose gt is a plain class id."""
    if pred.shape != gt.shape:
        raise SchemaError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    valid = (gt != OOD_ID) & (gt != IGNORE_ID)
    gt_v = gt[valid].astype(np.int64)
    pred_v = pred[valid].astype(np.int64)
    if gt_v.size and (gt_v.min() < 0 or gt_v.max() >= num_classes):
        raise ValidationError(f"ground truth contains class ids outside 0..{num_classes - 1}")
    if pred_v.size and (pred_v.min() < 0 or pred_v.max() >= num_classes):
        raise ValidationError(f"prediction contains class ids outside 0..{num_classes - 1}")
    return np.bincount(gt_v * num_classes + pred_v, minlength=num_classes * num_classes).reshape(
        num_classes, num_classes
    )


def _miou_from_confusion(conf: np.ndarray) -> float:
    gt_counts = conf.sum(axis=1)
    pred_counts = conf.sum(axis=0)
    diag = np.diag(conf)
    present = gt_counts > 0
    if not present.any():
        raise DomainError("no valid pixels: every pixel is OoD or ignore")
    union = gt_counts[present] + pred_counts[present] - diag[present]
    return float(np.mean(diag[present] / union))


def miou(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> float:
    """Mean IoU over the classes present in ground truth.

    OoD and ignore pixels are excluded; classes that appear in neither mask
    contribute nothing. Raises DomainError when no valid pixel remains.
    """
    return _miou_from_confusion(_confusion(np.asarray(pred), np.asarray(gt), num_classes))


def pixel_pr_curve(scores, gts) -> PRCurve:
    """Pixel-level precision-recall curve with gt OoD pixels as positives.

    ``scores``/``gts`` are parallel lists of score maps and label masks (a
    single pair may be passed directly). Ignore pixels are excluded. The
    curve has one point per distinct cutoff, descending, and the area uses
    the step-wise rule sum((R_i - R_{i-1}) * P_i) without interpolation.
    """
    if isinstance(scores, np.ndarray):
        scores = [scores]
    if isinstance(gts, np.ndarray):
        gts = [gts]
    if len(scores) != len(gts):
        raise SchemaError(f"{len(scores)} score maps but {len(gts)} ground-truth masks")
    pooled_s, pooled_y = [], []
    for s, g in zip(scores, gts):
        s = np.asarray(s)
        g = np.asarray(g)
        if s.shape != g.shape:
            raise SchemaError(f"score shape {s.shape} != gt shape {g.shape}")
        keep = (g != IGNORE_ID).ravel()
        pooled_s.append(s.ravel()[keep])
        pooled_y.append((g == OOD_ID).ravel()[keep])
    s_all = np.concatenate(pooled_s).astype(np.float64)
    y_all = np.concatenate(pooled_y)
    positives = int(y_all.sum())
    if positives == 0:
        raise DomainError("precision-recall needs at least one positive pixel")

    order = np.argsort(-s_all, kind="stable")
    s_sorted = s_all[order]
    y_sorted = y_all[order]
    tp_cum = np.cumsum(y_sorted)
    boundaries = np.flatnonzero(np.diff(s_sorted) != 0.0)
    boundaries = np.concatenate([boundaries, [s_sorted.size - 1]])
    tp = tp_cum[boundaries].astype(np.float64)
    predicted = boundaries + 1.0  # pixels at or above each cutoff
    recalls = tp / positives
    precisions = tp / predicted
    auprc = math.fsum(
        (r - r_prev) * p
        for r, r_prev, p in zip(recalls, np.concatenate([[0.0], recalls[:-1]]), precisions)
    )
    return PRCurve(
        cutoffs=s_sorted[boundaries],
        precisions=precisions,
        recalls=recalls,
        auprc=auprc,
    )


def _validate_grid(grid) -> tuple:
    grid = tuple(float(t) for t in grid)
    if not grid:
        raise DomainError("threshold grid must be non-empty")
    for t in grid:
        if not (0.0 <= t <= 1.0):
            raise DomainError(f"grid threshold {t!r} outside [0, 1]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("threshold grid must be strictly increasing")
    return grid


def _variant_counts(prob, gt, grid, coverage, connectivity, min_size, model, meta_cutoff):
    """Per-scene counts for one training variant: (no-meta counts, meta counts, confusion)."""
    maps = score_maps(prob)
    num_classes = prob.shape[2]
    conf = _confusion(maps.pred, gt, num_classes)
    plain = np.zeros((len(grid), 3), dtype=np.int64)
    filtered = np.zeros((len(grid), 3), dtype=np.int64) if model is not None else None
    for ti, t in enumerate(grid):
        segs = _segments_from_maps(*maps, num_classes, t, connectivity, min_size)
        m = match_segments(segs, gt, coverage)
        plain[ti] = (m.tp, m.fp, m.fn)
        if model is not None:
            kept, _ = apply_meta_filter(segs, model, meta_cutoff)
            mk = match_segments(kept, gt, coverage)
            filtered[ti] = (mk.tp, mk.fp, mk.fn)
    return plain, filtered, conf


def _scene_task(args):
    gt, prob_plain, prob_boosted, grid, coverage, connectivity, min_size, model, meta_cutoff = args
    return (
        _variant_counts(prob_plain, gt, grid, coverage, connectivity, min_size, model, meta_cutoff),
        _variant_counts(prob_boosted, gt, grid, coverage, connectivity, min_size, model, meta_cutoff),
    )


def sweep(
    benchmark,
    grid,
    model: Optional[MetaModel] = None,
    coverage: float = 0.5,
    connectivity: int = 8,
    min_size: int = 1,
    meta_cutoff: float = 0.5,
    jobs: int = 1,
) -> SweepResult:
    """Aggregate FP/FN/TP counts over a benchmark for every grid threshold.

    Produces one :class:`DetectionOutcome` per (t, ood_training, meta)
    combination, where ood_training selects each scene's entropy-boosted
    variant and meta applies ``model`` at ``meta_cutoff``. Without a model
    only the two no-meta combinations are produced. ``miou_loss`` is the
    percent-point drop of the variant's mIoU below the unboosted reference;
    boosting rewrites only OoD pixels (excluded from mIoU), so it is 0.0
    for both variants by construction. ``jobs > 1`` distributes scenes over
    processes; counts are merged by exact integer sums, so results do not
    depend on the worker count.
    """
    _check_jobs(jobs)
    grid = _validate_grid(grid)
    scenes = list(benchmark.scenes)
    if not scenes:
        raise ConfigError("benchmark contains no scenes")
    for scene in scenes:
        if scene.prob_boosted is None:
            raise ConfigError("scene is missing its entropy-boosted variant")

    tasks = [
        (s.gt, s.prob_plain, s.prob_boosted, grid, coverage, connectivity, min_size, model, meta_cutoff)
        for s in scenes
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scene_task, tasks))
    else:
        results = [_scene_task(t) for t in tasks]

    num_classes = scenes[0].prob_plain.shape[2]
    counts = {
        (False, False): np.zeros((len(grid), 3), dtype=np.int64),
        (True, False): np.zeros((len(grid), 3), dtype=np.int64),
    }
    if model is not None:
        counts[(False, True)] = np.zeros((len(grid), 3), dtype=np.int64)
        counts[(True, True)] = np.zeros((len(grid), 3), dtype=np.int64)
    conf = {False: np.zeros((num_classes, num_classes), dtype=np.int64),
            True: np.zeros((num_classes, num_classes), dtype=np.int64)}
    for (plain_res, boost_res) in results:
        for boosted, (no_meta, with_meta, conf_scene) in ((False, plain_res), (True, boost_res)):
            counts[(boosted, False)] += no_meta
            if with_meta is not None:
                counts[(boosted, True)] += with_meta
            conf[boosted] += conf_scene

    reference_miou = _miou_from_confusion(conf[False])
    loss = {
        False: (reference_miou - _miou_from_confusion(conf[False])) * 100.0,
        True: (reference_miou - _miou_from_confusion(conf[True])) * 100.0,
    }
    rows = []
    for ti, t in enumerate(grid):
        for boosted in (False, True):
            for with_meta in (False, True) if model is not None else (False,):
                tp, fp, fn = counts[(boosted, with_meta)][ti]
                rows.append(
                    DetectionOutcome(
                        t=t,
                        ood_training=boosted,
                        meta=with_meta,
                        tp=int(tp),
                        fp=int(fp),
                        fn=int(fn),
                        miou_loss=loss[boosted],
                    )
                )
    return SweepResult(rows=rows, reference_miou=reference_miou)


def build_training_table(
    benchmark,
    grid,
    tau_tp: float = 0.5,
    connectivity: int = 8,
    min_size: int = 1,
):
    """Pool labeled segment features over all scenes, variants and thresholds.

    Returns ``(features, labels)`` ready for :func:`oodseg.meta.fit_meta`.
    Segments labeled as excluded (entirely ignore pixels) are dropped.
    """
    grid = _validate_grid(grid)
    feature_blocks = []
    label_blocks = []
    for scene in benchmark.scenes:
        for prob in (scene.prob_plain, scene.prob_boosted):
            if prob is None:
                raise ConfigError("scene is missing a probability variant")
            maps = score_maps(prob)
            for t in grid:
                segs = _segments_from_maps(*maps, prob.shape[2], t, connectivity, min_size)
                labels = label_segments(segs, scene.gt, tau_tp)
                keep = labels != -1
                if keep.any():
                    feature_blocks.append(features_matrix(segs)[keep])
                    label_blocks.append(labels[keep])
    if not feature_blocks:
        return np.zeros((0, 0), dtype=np.float64), np.zeros(0, dtype=np.int64)
    return np.concatenate(feature_blocks), np.concatenate(label_blocks)


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def write_sweep_csv(result: SweepResult, path) -> None:
    """Write sweep rows as CSV with the pinned column order."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SWEEP_CSV_COLUMNS)
            for row in result.rows:
                writer.writerow(
                    [
                        repr(float(row.t)),
                        _fmt_bool(row.ood_training),
                        _fmt_bool(row.meta),
                        row.tp,
                        row.fp,
                        row.fn,
                        repr(float(row.miou_loss)),
                    ]
                )
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_sweep_json(result: SweepResult, path) -> None:
    payload = {
        "reference_miou": result.reference_miou,
        "rows": [
            {
                "t": row.t,
                "ood_training": row.ood_training,
                "meta": row.meta,
                "tp": row.tp,
                "fp": row.fp,
                "fn": row.fn,
                "miou_loss": row.miou_loss,
            }
            for row in result.rows
        ],
    }
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_pr_csv(curve: PRCurve, path) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["cutoff", "precision", "recall"])
            for c, p, r in zip(curve.cutoffs, curve.precisions, curve.recalls):
                writer.writerow([repr(float(c)), repr(float(p)), repr(float(r))])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_pr_summary(curve: PRCurve, path) -> None:
    try:
        with open(path, "w") as fh:
            json.dump({"auprc": curve.auprc}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
