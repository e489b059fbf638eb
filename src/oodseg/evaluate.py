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

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .errors import (ConfigError, DomainError, SchemaError, ValidationError, _array, _count, _in_interval, _plain,
                     _prefix)
from .meta import EXCLUDED_LABEL, MetaModel, apply_meta_filter, label_segments
# The single-map names stay bound here because bench/tracing.py rebinds them
# in this namespace for its traced run.
from .scores import argmax_map, entropy_map, margin_map, maxprob_map, score_maps  # noqa: F401
from .segments import _check_labelling, _grid_segments, connected_components
from .synth import _ordered_map
from .tensor_io import FEATURE_NAMES, IGNORE_ID, OOD_ID, SegmentTable, _first_bad_pixel, _write_csv, _write_json

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
_VARIANTS = ("plain", "boosted")  # a scene's probability maps, as the sweep indexes them

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
    coverage = _in_interval("coverage", coverage, "(0, 1]")
    counts, is_tp, excluded, detected = _detections(pred, np.zeros(len(pred), dtype=np.int64), gt, [pred.ids], coverage)
    return MatchResult(*counts[0, 0].tolist(), MatchAssignment(is_tp, excluded, detected[0, 0]))


def _detections(segs: SegmentTable, block, gt, selections, coverage):
    """(tp, fp, fn) of selections of a table's rows, block by block, under the majority-coverage rule.

    ``selections`` lists arrays of segment ids; ``block`` gives each row's
    block of the label image, whose blocks (a 3-D image stacks them) are each
    matched against the 8-connected components of the ``gt`` OoD mask;
    coverage is not checked. Rows are TP or excluded as
    :func:`label_segments` labels them. The covered share of each gt
    component under each (selection, block) union of segments comes from one
    ``bincount`` that reads only the gt OoD pixels. Returns the int64
    (selections, blocks, 3) counts, each row's TP and excluded flags, and the
    (selections, blocks, gt components) detected flags.
    """
    labels = label_segments(segs, gt, coverage)
    is_tp, excluded, image = labels == 1, labels == EXCLUDED_LABEL, segs.require_label_image()
    gt_components = connected_components(np.asarray(gt) == OOD_ID, connectivity=8)
    gt_labels = gt_components.label_image
    n_blocks = image.size // gt_labels.size
    member = np.zeros((len(selections), int(image.max()) + 1), dtype=bool)
    for k, ids in enumerate(selections):
        member[k, ids + 1] = True
    n_keys = len(selections) * n_blocks
    key = np.arange(len(selections))[:, None] * n_blocks + block
    selected = member[:, segs.ids + 1]
    tp = np.bincount(key[selected & is_tp], minlength=n_keys)
    fp = np.bincount(key[selected & ~is_tp & ~excluded], minlength=n_keys)

    on_gt = np.flatnonzero(gt_labels)
    union = member[:, image.reshape(-1, gt_labels.size)[:, on_gt]]
    n_gt = len(gt_components)
    key = np.arange(n_keys).reshape(len(selections), n_blocks, 1) * n_gt + (gt_labels.ravel()[on_gt] - 1)
    covered = np.bincount(key[union], minlength=n_keys * n_gt).reshape(len(selections), n_blocks, n_gt)
    detected = covered / gt_components.sizes >= coverage
    fn = (~detected).sum(axis=2)
    counts = np.stack([tp.reshape(fn.shape), fp.reshape(fn.shape), fn], axis=2)
    return counts, is_tp, excluded, detected


def _check_class_ids(name, ids: np.ndarray, valid: np.ndarray, num_classes: int) -> None:
    """ValidationError naming the first pixel of ``valid`` whose class id in ``ids`` lies outside 0..C-1."""
    bad = valid & ((ids < 0) | (ids >= num_classes))
    if bad.any():
        r, c = _first_bad_pixel(bad)
        raise ValidationError(f"pixel ({r}, {c}): {name} class id {ids[r, c]} outside 0..{num_classes - 1}")


def _confusion(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> np.ndarray:
    """(C, C) confusion counts over the pixels of (H, W) class maps whose gt is a plain class id."""
    _count("num_classes", num_classes, 2, hi=OOD_ID)
    if pred.shape != gt.shape:
        raise SchemaError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    valid = (gt != OOD_ID) & (gt != IGNORE_ID)
    for name, ids in (("ground truth", gt), ("prediction", pred)):
        _check_class_ids(name, ids, valid, num_classes)
    gt_v = gt[valid].astype(np.int64)
    pred_v = pred[valid].astype(np.int64)
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
    contribute nothing. ``num_classes`` is at most ``OOD_ID``, the first
    reserved id. Raises DomainError when no valid pixel remains.
    """
    pred, gt = _array("prediction", pred, 2, "iu"), _array("ground truth", gt, 2, "iu")
    return _miou_from_confusion(_confusion(pred, gt, num_classes))


def pixel_pr_curve(scores, gts) -> PRCurve:
    """Pixel-level precision-recall curve with gt OoD pixels as positives.

    ``scores``/``gts`` are parallel lists of boolean or real score maps and
    label masks (a single pair may be passed directly). Ignore pixels are
    excluded; a NaN score on any other pixel raises ValidationError. The
    curve has one point per distinct cutoff, descending, and the area uses
    the step-wise rule sum((R_i - R_{i-1}) * P_i) without interpolation.
    """
    if not isinstance(scores, (list, tuple)):
        scores = [scores]
    if not isinstance(gts, (list, tuple)):
        gts = [gts]
    if len(scores) != len(gts):
        raise SchemaError(f"{len(scores)} score maps but {len(gts)} ground-truth masks")
    pooled_s, pooled_y = [], []
    for k, (s, g) in enumerate(zip(scores, gts)):
        s, g = _array(f"score map {k}", s, 2, "biuf"), _array(f"ground-truth mask {k}", g, 2, "iu")
        if s.shape != g.shape:
            raise SchemaError(f"score shape {s.shape} != gt shape {g.shape}")
        keep = (g != IGNORE_ID).ravel()
        pooled_s.append(s.ravel()[keep])
        pooled_y.append((g == OOD_ID).ravel()[keep])
        nan = np.isnan(pooled_s[-1])
        if nan.any():
            at = np.unravel_index(np.flatnonzero(keep)[np.argmax(nan)], s.shape)
            raise ValidationError(f"score map {k}, pixel {tuple(map(int, at))}: NaN score")
    positives = sum(int(y.sum()) for y in pooled_y)
    if positives == 0:
        raise DomainError("precision-recall needs at least one positive pixel")
    s_all, y_all = np.concatenate(pooled_s), np.concatenate(pooled_y)
    del pooled_s, pooled_y

    # One sort of the pooled scores gives the distinct cutoffs and, from where
    # each starts, the pixels at or above it; tp comes from searchsorted in
    # the sorted positives. Each input is dropped once read, so the peak
    # stays near the output.
    pos = np.sort(s_all[y_all])
    # -0.0 and 0.0 tie; like a stable descending sort, keep the sign of the
    # last zero in pooled order.
    last_zero = s_all[s_all == 0.0][-1:]
    s_all.sort()
    start = np.flatnonzero(np.concatenate(([True], s_all[1:] != s_all[:-1])))[::-1]
    cutoffs = s_all[start]
    cutoffs[cutoffs == 0.0] = last_zero
    predicted = np.subtract(s_all.size, start, out=start)
    del s_all, y_all
    tp = np.searchsorted(pos, cutoffs)
    np.subtract(pos.size, tp, out=tp)
    precisions = tp / predicted
    del pos, predicted, start
    recalls = tp / positives
    del tp
    # fsum rounds correctly, so it needs only the cutoffs where recall rises.
    rise = np.flatnonzero(np.concatenate(([recalls[0] > 0.0], recalls[1:] != recalls[:-1])))
    return PRCurve(
        cutoffs=cutoffs.astype(np.float64),
        precisions=precisions,
        recalls=recalls,
        auprc=math.fsum(np.diff(recalls[rise], prepend=0.0) * precisions[rise]),
    )


def _scenes_and_grid(benchmark, grid, connectivity, min_size) -> tuple:
    _check_labelling(connectivity, min_size)
    if not isinstance(grid, (list, tuple, range, np.ndarray)) or getattr(grid, "ndim", 1) != 1:
        raise DomainError(f"threshold grid must be a 1-D sequence of numbers, got {_plain(grid)}")
    grid = tuple(_in_interval("threshold", t, "[0, 1]") for t in grid)
    if not grid:
        raise DomainError("threshold grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("threshold grid must be strictly increasing")
    scenes = list(benchmark.scenes)
    if not scenes:
        raise ConfigError("benchmark contains no scenes")
    for scene in scenes:
        if scene.prob_plain is None or scene.prob_boosted is None:
            raise ConfigError(f"scene {scene.index} is missing a probability variant")
        with _prefix(f"scene {scene.index}"):
            plain, boosted = (_array(f"{v} map", getattr(scene, f"prob_{v}"), 3, "f").shape for v in _VARIANTS)
            gt = _array("ground truth", scene.gt, 2, "iu")
            if gt.shape != plain[:2] or boosted != plain:
                raise SchemaError(f"shapes differ: ground truth {gt.shape}, plain map {plain}, boosted map {boosted}")
            _check_class_ids("ground truth", gt, (gt != OOD_ID) & (gt != IGNORE_ID), plain[2])
    return scenes, grid


def _scene_segments(scene, grid, connectivity, min_size) -> tuple:
    """A scene's plain and boosted :class:`ScoreMaps`, and the featurized table of their whole grid with its blocks;
    an error from a map names the scene and the map."""
    maps = []
    for v in _VARIANTS:
        with _prefix(f"scene {scene.index}, {v} map"):
            maps.append(score_maps(getattr(scene, f"prob_{v}")))
    return (maps, *_grid_segments(maps, scene.prob_plain.shape[2], grid, connectivity, min_size))


def _scene_counts(scene, *, grid, coverage, connectivity, min_size, model, meta_cutoff):
    """One scene's sweep counts and confusion matrices.

    Returns an int64 (1 or 2, 2, len(grid), 3) array holding (tp, fp, fn) at
    [meta, variant, threshold index], with variant 0 plain and 1 boosted and
    the meta row only with a model, and the (2, C, C) confusion stack of the
    two variants. The gt OoD mask is labelled once, and all thresholds of
    both variants are extracted, filtered and matched together.
    """
    maps, segs, block = _scene_segments(scene, grid, connectivity, min_size)
    conf = np.stack([_confusion(m.pred, scene.gt, scene.prob_plain.shape[2]) for m in maps])
    selections = [segs.ids]  # the rows counted without, then with the meta filter
    if model is not None:
        selections.append(apply_meta_filter(segs, model, meta_cutoff)[0].ids)
    counts = _detections(segs, block, scene.gt, selections, coverage)[0]
    return counts.reshape(len(selections), 2, len(grid), 3), conf


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
    _count("jobs", jobs, 1)
    scenes, grid = _scenes_and_grid(benchmark, grid, connectivity, min_size)
    coverage = _in_interval("coverage", coverage, "(0, 1]")
    meta_cutoff = _in_interval("meta_cutoff", meta_cutoff, "(0, 1)")
    if model is not None and np.shape(model.weights) != (len(FEATURE_NAMES),):
        raise SchemaError(f"model has {np.size(model.weights)} weights, segments {len(FEATURE_NAMES)} features")
    count = partial(_scene_counts, grid=grid, coverage=coverage, connectivity=connectivity, min_size=min_size,
                    model=model, meta_cutoff=meta_cutoff)
    counts, conf = map(sum, zip(*_ordered_map(count, scenes, jobs)))

    reference_miou = _miou_from_confusion(conf[0])
    loss = [(reference_miou - _miou_from_confusion(c)) * 100.0 for c in conf]
    rows = [
        DetectionOutcome(t, bool(v), bool(m), *counts[m, v, ti].tolist(), miou_loss=loss[v])
        for ti, t in enumerate(grid)
        for v in (0, 1)
        for m in ((0, 1) if model is not None else (0,))
    ]
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
    scenes, grid = _scenes_and_grid(benchmark, grid, connectivity, min_size)
    tau_tp = _in_interval("tau_tp", tau_tp, "(0, 1]")
    feature_blocks, label_blocks = [], []
    for scene in scenes:
        _, segs, _ = _scene_segments(scene, grid, connectivity, min_size)
        labels = label_segments(segs, scene.gt, tau_tp)
        keep = labels != EXCLUDED_LABEL
        if keep.any():
            feature_blocks.append(segs.features[keep])
            label_blocks.append(labels[keep])
    if not feature_blocks:
        return np.zeros((0, 0), dtype=np.float64), np.zeros(0, dtype=np.int64)
    return np.concatenate(feature_blocks), np.concatenate(label_blocks)


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def write_sweep_csv(result: SweepResult, path) -> None:
    """Write sweep rows as CSV with the pinned column order."""
    rows = (
        [repr(float(r.t)), _fmt_bool(r.ood_training), _fmt_bool(r.meta), r.tp, r.fp, r.fn, repr(float(r.miou_loss))]
        for r in result.rows
    )
    _write_csv(path, SWEEP_CSV_COLUMNS, rows)


def write_sweep_json(result: SweepResult, path) -> None:
    _write_json(asdict(result), path)


def write_pr_csv(curve: PRCurve, path) -> None:
    rows = zip(curve.cutoffs, curve.precisions, curve.recalls)
    _write_csv(path, ["cutoff", "precision", "recall"], ([repr(float(v)) for v in row] for row in rows))


def write_pr_summary(curve: PRCurve, path) -> None:
    _write_json({"auprc": curve.auprc}, path)
