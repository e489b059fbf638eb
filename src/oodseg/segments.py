"""Candidate OoD segments: thresholding, connected components, segment features.

A score map is thresholded into a binary mask, whose runs of 1-pixels are
labelled into connected components (4- or 8-connectivity) as in He, Chao &
Suzuki (IEEE TIP 2008), with vectorized union of touching runs. The result
is a :class:`~oodseg.tensor_io.SegmentTable` with its int32 label image, and
:func:`compute_features` fills 15 hand-crafted statistics (``FEATURE_NAMES``)
per segment, all segments at once: size, geometry, uncertainty profile and
class neighborhood. These feed the logistic-regression meta classifier that
separates true from false OoD indications.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import DomainError, SchemaError
# The single-map names stay bound here because bench/tracing.py rebinds them
# in this namespace for its traced run.
from .scores import argmax_map, entropy_map, margin_map, maxprob_map, score_maps  # noqa: F401
from .tensor_io import FEATURE_NAMES, SegmentTable

__all__ = [
    "FEATURE_NAMES",
    "threshold_mask",
    "connected_components",
    "compute_features",
    "extract_segments",
    "features_matrix",
]

_NEIGHBOR_SHIFTS = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc)


def threshold_mask(score: np.ndarray, t: float) -> np.ndarray:
    """Binary mask of pixels with ``score >= t``; t must lie in [0, 1]."""
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"threshold {t!r} outside [0, 1]")
    score = np.asarray(score)
    if score.ndim != 2:
        raise SchemaError(f"score map must be rank 2, got rank {score.ndim}")
    return score >= t


def _smallest_member(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For nodes 0..n-1 joined by edges (a, b): each node's smallest connected node.

    Roots hook onto the smaller root across each edge and pointer jumping flattens
    the trees (Shiloach & Vishkin, J. Algorithms 1982) until no edge joins two roots.
    """
    parent = np.arange(n)
    while a.size:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(parent, grand := parent[parent]):
            parent = grand
    return parent


def connected_components(mask: np.ndarray, connectivity: int = 8) -> SegmentTable:
    """Partition the 1-pixels of a binary mask into connected components.

    Maximal horizontal runs of 1-pixels are united when runs in adjacent rows
    touch under the requested connectivity. Ids follow the raster order of
    each component's first pixel. Returns a feature-less table (ids, bounding
    boxes, sizes) whose label image holds ``id + 1`` per pixel.
    """
    if connectivity not in (4, 8):
        raise DomainError(f"connectivity must be 4 or 8, got {connectivity!r}")
    mask = np.asarray(mask).astype(bool)
    if mask.ndim != 2:
        raise SchemaError(f"mask must be rank 2, got rank {mask.ndim}")
    h, w = mask.shape
    if h < 1 or w < 1:
        raise DomainError(f"mask dimensions must be at least 1x1, got {h}x{w}")

    # Pad one False column so runs never wrap across row ends in the flat view.
    stride = w + 1
    flat = np.pad(mask, ((0, 0), (0, 1))).ravel()
    edges = np.diff(flat.astype(np.int8), prepend=np.int8(0))
    starts = np.flatnonzero(edges == 1)
    stops = np.flatnonzero(edges == -1)  # exclusive
    n_runs = starts.size

    # The runs of the row above that touch run i are those with index in
    # [first[i], last[i]): they end after col_lo - slack and start before
    # col_hi + slack. Both bounds stay inside the row above.
    slack = 1 if connectivity == 8 else 0
    first = np.searchsorted(stops, starts - stride - slack, side="right")
    last = np.searchsorted(starts, stops - stride + slack, side="left")
    n_touch = last - first
    below = np.repeat(np.arange(n_runs), n_touch)
    above = np.arange(below.size) - np.repeat(np.cumsum(n_touch) - n_touch - first, n_touch)
    root = _smallest_member(n_runs, below, above)

    # Each root is its component's first run, so ranking roots gives raster-order ids.
    is_root = root == np.arange(n_runs)
    comp = (np.cumsum(is_root) - 1)[root]
    n = int(is_root.sum())

    # Paint the label image: +label at each run start, -label at its stop, running sum.
    delta = np.zeros(flat.size, dtype=np.int32)
    delta[starts] = comp + 1
    delta[stops] = -(comp + 1)
    label_image = np.ascontiguousarray(np.cumsum(delta, dtype=np.int32).reshape(h, stride)[:, :w])

    run_row, col_lo = np.divmod(starts, stride)
    bboxes = np.zeros((n, 4), dtype=np.int64)
    bboxes[:, 0] = run_row[is_root]
    bboxes[:, 1] = w
    np.minimum.at(bboxes[:, 1], comp, col_lo)
    np.maximum.at(bboxes[:, 2], comp, run_row)
    np.maximum.at(bboxes[:, 3], comp, col_lo + stops - starts - 1)
    return SegmentTable(
        ids=np.arange(n, dtype=np.int64),
        bboxes=bboxes,
        features=None,
        sizes=np.bincount(comp, weights=stops - starts, minlength=n).astype(np.int64),
        label_image=label_image,
    )


def _segment_means(values: np.ndarray, seg: np.ndarray, n: int) -> np.ndarray:
    """Per-segment float64 means of segment-sorted values; 0.0 for an empty segment.

    A 0.0 pad in front of each segment makes ``np.add.reduceat`` sum it the
    way ``ndarray.sum`` sums it alone (identity first, then the same pairwise
    order), so each mean is bit-equal to the segment's ``ndarray.mean``.
    """
    counts = np.bincount(seg, minlength=n)
    starts = np.cumsum(counts) - counts
    sums = np.add.reduceat(np.insert(values, starts, 0.0), starts + np.arange(n))
    return np.divide(sums, counts, out=np.zeros(n), where=counts > 0)


def compute_features(
    segments: SegmentTable,
    entropy: np.ndarray,
    margin: np.ndarray,
    maxprob_unc: np.ndarray,
    pred: np.ndarray,
    num_classes: int,
) -> SegmentTable:
    """A copy of the table with the 15 canonical statistics filled for every row.

    Interior pixels are those whose eight neighbors all exist and belong to
    the segment; the boundary is the rest, so size = interior + boundary.
    ``var_entropy`` is the population variance. Means over an empty interior
    (or boundary) are 0.0. Centroids use pixel centers, ``(mean_index + 0.5)
    / extent``. The adjacency feature counts distinct predicted classes in
    the 1-pixel outer ring (8-dilation minus segment, clipped to the image).
    Float64 reductions are bit-equal to per-segment ``mean``/``var`` calls.
    """
    labels = segments.require_label_image()
    h, w = labels.shape
    flat = labels.ravel()
    fg = np.flatnonzero(flat)
    fg_seg = flat[fg] - 1  # segment id per foreground pixel, raster order
    n = int(fg_seg.max()) + 1 if fg.size else 0

    # Interior flags and ring classes, one neighbor shift at a time. A ring
    # pixel of segment s is a pixel outside s with a neighbor in s.
    padded = np.pad(labels, 1)
    interior = labels > 0
    ring_classes = np.zeros((n + 1, int(pred.max()) + 1), dtype=bool)
    for dr, dc in _NEIGHBOR_SHIFTS:
        neighbor = padded[1 + dr:h + 1 + dr, 1 + dc:w + 1 + dc]
        same = neighbor == labels
        interior &= same
        ring = (neighbor > 0) & ~same
        ring_classes[neighbor[ring], pred[ring]] = True

    order = np.argsort(fg_seg, kind="stable")  # by segment, raster order within
    seg = fg_seg[order]
    px = fg[order]
    inner = interior.ravel()[px]
    ent = entropy.ravel()[px].astype(np.float64)
    mean_ent = _segment_means(ent, seg, n)
    deviation = ent - mean_ent[seg]

    size = np.bincount(fg_seg, minlength=n)
    n_inner = np.bincount(seg[inner], minlength=n)
    per_segment = np.stack(
        [
            size,
            n_inner,
            size - n_inner,
            n_inner / size,
            mean_ent,
            _segment_means(ent[inner], seg[inner], n),
            _segment_means(ent[~inner], seg[~inner], n),
            _segment_means(deviation * deviation, seg, n),
            _segment_means(margin.ravel()[px].astype(np.float64), seg, n),
            _segment_means(maxprob_unc.ravel()[px].astype(np.float64), seg, n),
            (np.bincount(fg_seg, weights=fg // w, minlength=n) / size + 0.5) / h,
            (np.bincount(fg_seg, weights=fg % w, minlength=n) / size + 0.5) / w,
            ring_classes[1:].sum(axis=1) / num_classes,
        ],
        axis=1,
    )[segments.ids]
    box = segments.bboxes
    extent = np.column_stack([(box[:, 2] - box[:, 0] + 1) / h, (box[:, 3] - box[:, 1] + 1) / w])
    return replace(segments, features=np.column_stack([per_segment[:, :10], extent, per_segment[:, 10:]]))


def _segments_from_maps(
    entropy: np.ndarray,
    margin: np.ndarray,
    maxprob_unc: np.ndarray,
    pred: np.ndarray,
    num_classes: int,
    t: float,
    connectivity: int,
    min_size: int,
) -> SegmentTable:
    """Threshold + label + filter + featurize on precomputed score maps.

    Shared by :func:`extract_segments` and the evaluation sweep so both paths
    produce byte-identical segments. Component ids keep their pre-filter
    values, so gaps in the id sequence reveal suppressed small components.
    """
    if min_size < 1:
        raise DomainError(f"min_size must be >= 1, got {min_size!r}")
    components = connected_components(threshold_mask(entropy, t), connectivity)
    kept = components[components.sizes >= min_size]
    return compute_features(kept, entropy, margin, maxprob_unc, pred, num_classes)


def extract_segments(
    p: np.ndarray,
    t: float,
    connectivity: int = 8,
    min_size: int = 1,
) -> SegmentTable:
    """Full candidate-extraction pipeline on a probability map.

    Computes the four score maps in one pass (rejecting NaN and inf
    probabilities), thresholds the entropy map at ``t``, labels connected
    components, drops those smaller than ``min_size`` and fills features
    (which also draw on the margin, max-probability and argmax maps).
    """
    p = np.asarray(p)
    return _segments_from_maps(*score_maps(p), p.shape[2], t, connectivity, min_size)


def features_matrix(segments: SegmentTable) -> np.ndarray:
    """The (n, 15) float64 feature block of a table, in canonical order."""
    if segments.features is None:
        raise DomainError("segments have no features; run compute_features first")
    return segments.features
