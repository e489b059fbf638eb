"""Detection quality metrics and threshold sweeps.

Covers the three evaluation views used throughout:

* segment level -- FP/FN counts under a majority-coverage matching rule,
  swept over a threshold grid for the four combinations of simulated OoD
  training (boosted scenes) and meta classification;
* pixel level   -- precision-recall curve and its step-wise area (AuPRC)
  with ground-truth OoD pixels as positives;
* segmentation  -- mIoU of the predicted classes against ground truth, and
  the loss in percent points relative to the unboosted/no-meta reference.

Sweep rows serialize to a CSV table from which FP-vs-FN curves with
mIoU-loss annotations can be plotted without recomputation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .errors import (ConfigError, DomainError, SchemaError, ValidationError, _array, _count, _first_true,
                     _in_interval, _plain, _prefix)
from .meta import EXCLUDED_LABEL, MetaModel, _image_against, _overlap, _segment_labels, apply_meta_filter
# The names bench/tracing.py rebinds in this namespace for its traced run
# stay bound here.
from .meta import label_segments  # noqa: F401
from .scores import argmax_map, entropy_map, margin_map, maxprob_map, score_maps  # noqa: F401
from .segments import _grid_segments, connected_components
from .synth import BenchScene, _ordered_map
from .tensor_io import FEATURE_NAMES, IGNORE_ID, OOD_ID, SegmentTable, _check_class_ids, _write_csv

__all__ = [
    "DEFAULT_GRID",
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
]

SWEEP_CSV_COLUMNS = ("t", "ood_training", "meta", "tp", "fp", "fn", "miou_loss")
_VARIANTS = ("plain", "boosted")  # a scene's probability maps, as the sweep indexes them

# Reference threshold grid used by the CLI and the benchmark walkthroughs.
DEFAULT_GRID = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


class MatchResult(NamedTuple):
    tp: int
    fp: int
    fn: int


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
    solely of ignore pixels are excluded from both counts; the segments'
    outcomes are ``label_segments(pred, gt, coverage)``. ``pred`` needs its
    2-D label image: a table read from CSV raises DomainError.
    """
    coverage = _in_interval("coverage", coverage, "(0, 1]")
    image, top, gt = _image_against(pred, gt)
    gt_components = connected_components(gt == OOD_ID)
    table = _overlap(image, top, gt, gt_components.label_image)
    return MatchResult(*_detections(table, pred.ids, 0, 1, [pred.ids], gt_components.sizes, coverage)[0, 0].tolist())


def _detections(table, ids, block, n_blocks, selections, gt_sizes, coverage) -> np.ndarray:
    """The int64 (selections, blocks, 3) counts (tp, fp, fn) of ``selections``, arrays of segment ids, from the
    :func:`~oodseg.meta._overlap` table, with gt component pairs, of segments ``ids`` in their ``block`` of
    ``n_blocks``. A segment counts as :func:`label_segments` labels it; a gt component of ``gt_sizes`` pixels is found
    in a (selection, block) when its disjoint segments there cover at least ``coverage`` of it, which is not checked."""
    counts, pairs = table
    outcome = _segment_labels(counts, coverage)
    member = np.zeros((len(selections), len(counts)), dtype=bool)
    for k, ids_k in enumerate(selections):
        member[k, ids_k + 1] = True
    block_of = np.zeros(len(counts), dtype=np.int64)
    block_of[ids + 1] = block
    key = np.arange(len(selections))[:, None] * n_blocks + block_of  # each label's (selection, block) index
    n_keys, n_gt = len(selections) * n_blocks, len(gt_sizes)
    tp, fp = (np.bincount(key[member & (outcome == v)], minlength=n_keys) for v in (1, 0))
    label, component, pixels = pairs.T
    union, pair_key = member[:, label], key[:, label] * n_gt + component
    covered = np.bincount(pair_key[union], weights=np.broadcast_to(pixels, union.shape)[union], minlength=n_keys * n_gt)
    fn = (covered.reshape(n_keys, n_gt) / gt_sizes < coverage).sum(axis=1)
    return np.stack([tp, fp, fn], axis=1).reshape(len(selections), n_blocks, 3)


def _confusion(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> np.ndarray:
    """(C, C) confusion counts over the pixels of (H, W) class maps whose gt is a plain class id, all below C."""
    valid = (gt != OOD_ID) & (gt != IGNORE_ID)
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
    _count("num_classes", num_classes, 2, hi=OOD_ID)
    if pred.shape != gt.shape:
        raise SchemaError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    for name, ids in (("ground truth", gt), ("prediction", pred)):
        _check_class_ids(name, ids, num_classes, gt)
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
        if np.isnan(pooled_s[-1]).any():
            raise ValidationError(f"score map {k}, pixel {_first_true(np.isnan(s) & (g != IGNORE_ID))}: NaN score")
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


def _scenes_and_grid(benchmark, grid, min_size) -> tuple:
    """The benchmark's scenes, rebuilt from the arrays checked, and the grid as floats, after checking every argument
    and every scene, so that the per-scene steps need not; an error from a scene names it."""
    _count("min_size", min_size, 1)
    if not isinstance(grid, (list, tuple, range, np.ndarray)) or getattr(grid, "ndim", 1) != 1:
        raise DomainError(f"threshold grid must be a 1-D sequence of numbers, got {_plain(grid)}")
    grid = tuple(_in_interval("threshold", t, "[0, 1]") for t in grid)
    if not grid:
        raise DomainError("threshold grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("threshold grid must be strictly increasing")
    scenes = getattr(benchmark, "scenes", None)
    if not isinstance(scenes, (list, tuple)):
        raise ConfigError(f"benchmark scenes must be a list or tuple, got {type(scenes).__name__}")
    if not scenes:
        raise ConfigError("benchmark contains no scenes")
    checked = []
    for k, scene in enumerate(scenes):
        try:
            index, gt, plain, boosted = scene.index, scene.gt, scene.prob_plain, scene.prob_boosted
        except AttributeError:
            raise ConfigError(f"benchmark scenes[{k}] is a {type(scene).__name__}, not a scene") from None
        if plain is None or boosted is None:
            raise ConfigError(f"scene {index} is missing a probability variant")
        with _prefix(f"scene {index}"):
            plain, boosted = _array("plain map", plain, 3, "f"), _array("boosted map", boosted, 3, "f")
            gt, (shape, other) = _array("ground truth", gt, 2, "iu"), (plain.shape, boosted.shape)
            if gt.shape != shape[:2] or other != shape:
                raise SchemaError(f"shapes differ: ground truth {gt.shape}, plain map {shape}, boosted map {other}")
            _count("num_classes", shape[2], 0, hi=OOD_ID)  # a map of fewer than 2 classes fails in score_maps
            _check_class_ids("ground truth", gt, shape[2], gt)
        checked.append(BenchScene(index, gt, boosted, plain))
    return checked, grid


def _scene_segments(scene, grid, min_size, gt_labels=None) -> tuple:
    """A scene's plain and boosted :class:`ScoreMaps`, the featurized table of their whole grid with its blocks, and
    the grid's label image reduced to its :func:`~oodseg.meta._overlap` table with the gt and, if given, the gt OoD
    components' ``gt_labels``; an error from a map names the scene and the map."""
    maps = []
    for v in _VARIANTS:
        with _prefix(f"scene {scene.index}, {v} map"):
            maps.append(score_maps(getattr(scene, f"prob_{v}")))
    segs, block = _grid_segments(maps, scene.prob_plain.shape[2], grid, min_size)
    table = _overlap(segs.label_image, int(segs.label_image.max(initial=0)), scene.gt, gt_labels)
    return maps, replace(segs, label_image=None), block, table


def _scene_counts(scene, *, grid, coverage, min_size, model):
    """One scene's sweep counts and confusion matrices.

    Returns an int64 (1 or 2, 2, len(grid), 3) array holding (tp, fp, fn) at
    [meta, variant, threshold index], with variant 0 plain and 1 boosted and
    the meta row only with a model, and the (2, C, C) confusion stack of the
    two variants. The gt OoD mask is labelled once, and all thresholds of
    both variants are extracted, filtered and matched together.
    """
    components = connected_components(scene.gt == OOD_ID)
    maps, segs, block, table = _scene_segments(scene, grid, min_size, components.label_image)
    conf = np.stack([_confusion(m.pred, scene.gt, scene.prob_plain.shape[2]) for m in maps])
    selections = [segs.ids]  # the rows counted without, then with the meta filter
    if model is not None:
        selections.append(apply_meta_filter(segs, model)[0].ids)
    counts = _detections(table, segs.ids, block, 2 * len(grid), selections, components.sizes, coverage)
    return counts.reshape(len(selections), 2, len(grid), 3), conf


def sweep(
    benchmark,
    grid,
    model: Optional[MetaModel] = None,
    coverage: float = 0.5,
    min_size: int = 1,
    jobs: int = 1,
) -> SweepResult:
    """Aggregate FP/FN/TP counts over a benchmark for every grid threshold.

    Produces one :class:`DetectionOutcome` per (t, ood_training, meta)
    combination, where ood_training selects each scene's entropy-boosted
    variant and meta applies ``model`` at :func:`apply_meta_filter`'s default
    cutoff. Without a model only the two no-meta combinations are produced.
    Segments are 8-connected, like the gt components they are matched
    against; scenes of different class counts raise SchemaError.
    ``miou_loss`` is the percent-point drop of the variant's mIoU below the
    unboosted reference; boosting rewrites only OoD pixels (excluded from
    mIoU), so it is 0.0 for both variants by construction. ``jobs > 1``
    distributes scenes over processes; counts are merged by exact integer
    sums, so results do not depend on the worker count.
    """
    _count("jobs", jobs, 1)
    scenes, grid = _scenes_and_grid(benchmark, grid, min_size)
    first = scenes[0]
    for scene in scenes:  # the scenes' confusion matrices are summed
        if scene.prob_plain.shape[2] != first.prob_plain.shape[2]:
            raise SchemaError(f"scene {scene.index}: maps have {scene.prob_plain.shape[2]} classes, "
                              f"scene {first.index}'s have {first.prob_plain.shape[2]}")
    coverage = _in_interval("coverage", coverage, "(0, 1]")
    if model is not None and np.shape(model.weights) != (len(FEATURE_NAMES),):
        raise SchemaError(f"model has {np.size(model.weights)} weights, segments {len(FEATURE_NAMES)} features")
    count = partial(_scene_counts, grid=grid, coverage=coverage, min_size=min_size, model=model)
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
    min_size: int = 1,
):
    """Pool labeled segment features over all scenes, variants and thresholds.

    Returns ``(features, labels)`` ready for :func:`oodseg.meta.fit_meta`.
    Segments are 8-connected, as in :func:`sweep`, and labeled as excluded
    (entirely ignore pixels) are dropped.
    """
    scenes, grid = _scenes_and_grid(benchmark, grid, min_size)
    tau_tp = _in_interval("tau_tp", tau_tp, "(0, 1]")
    feature_blocks, label_blocks = [], []
    for scene in scenes:
        _, segs, _, (counts, _) = _scene_segments(scene, grid, min_size)
        labels = _segment_labels(counts, tau_tp)[segs.ids + 1]
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

