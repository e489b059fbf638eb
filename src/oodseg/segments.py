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

import numbers
from dataclasses import replace

import numpy as np

from .errors import DomainError, SchemaError, ValidationError, _in_interval, _is_a, _plain
from .scores import _top2_near, entropy_map
# The other single-map names stay bound here because bench/tracing.py rebinds
# them in this namespace for its traced run.
from .scores import argmax_map, margin_map, maxprob_map  # noqa: F401
from .tensor_io import FEATURE_NAMES, SegmentTable, _check_prob_shape  # noqa: F401 (keeps segments.FEATURE_NAMES)

__all__ = [
    "threshold_mask",
    "connected_components",
    "compute_features",
    "extract_segments",
    "features_matrix",
]

_NEIGHBOR_SHIFTS = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc)


def _check_labelling(connectivity, min_size=1) -> None:
    if connectivity not in (4, 8):
        raise DomainError(f"connectivity must be 4 or 8, got {_plain(connectivity)!r}")
    if not _is_a(min_size, numbers.Integral) or min_size < 1:
        raise DomainError(f"min_size must be an integer >= 1, got {_plain(min_size)!r}")


def threshold_mask(score: np.ndarray, t: float) -> np.ndarray:
    """Binary mask of pixels with ``score >= t``; t must lie in [0, 1]."""
    t = _in_interval("threshold", t, "[0, 1]")
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
    _check_labelling(connectivity)
    mask = np.asarray(mask).astype(bool)
    if mask.ndim != 2:
        raise SchemaError(f"mask must be rank 2, got rank {mask.ndim}")
    h, w = mask.shape
    if h < 1 or w < 1:
        raise DomainError(f"mask dimensions must be at least 1x1, got {h}x{w}")

    # Pad one False column so runs never wrap across row ends in the flat view.
    stride = w + 1
    edges = np.diff(np.pad(mask.view(np.int8), ((0, 0), (0, 1))).ravel(), prepend=np.int8(0))
    starts = np.flatnonzero(edges == 1)
    stops = np.flatnonzero(edges == -1)  # exclusive
    del edges
    n_runs, lengths = starts.size, stops - starts

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

    # Paint the label image: each run's label at its pixels, in raster order.
    label_image = np.zeros((h, w), dtype=np.int32)
    label_image.ravel()[np.flatnonzero(mask)] = np.repeat((comp + 1).astype(np.int32), lengths)

    run_row, col_lo = np.divmod(starts, stride)

    bboxes = np.zeros((n, 4), dtype=np.int64)
    bboxes[:, 0] = run_row[is_root]
    bboxes[:, 1] = w
    np.minimum.at(bboxes[:, 1], comp, col_lo)
    np.maximum.at(bboxes[:, 2], comp, run_row)
    np.maximum.at(bboxes[:, 3], comp, col_lo + lengths - 1)
    return SegmentTable(
        ids=np.arange(n, dtype=np.int64),
        bboxes=bboxes,
        features=None,
        sizes=np.bincount(comp, weights=lengths, minlength=n).astype(np.int64),
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

    Only the table's pixels and their eight neighbors are visited, with one
    gather per neighbor offset; a neighbor's class is read only when it lies
    outside the segment. A 3-D label image is a stack of (H, W) blocks with
    block-local bounding boxes, each block its own image; its maps are then
    (V, H, W) with the blocks split evenly over the V maps in order.
    """
    labels = segments.require_label_image()
    blocks = labels.reshape(-1, *labels.shape[-2:])
    n_blocks, h, w = blocks.shape
    maps = [np.asarray(m).reshape(-1, *np.shape(m)[-2:]) for m in (entropy, margin, maxprob_unc, pred)]
    if any(m.shape != maps[0].shape for m in maps) or maps[0].shape[1:] != (h, w) or n_blocks % len(maps[0]):
        raise SchemaError(f"score maps of shape {np.shape(entropy)} do not fit label image shape {labels.shape}")
    per_map = n_blocks // len(maps[0])
    bad = (maps[3] < 0) | (maps[3] >= num_classes)
    if bad.any():
        at = np.unravel_index(int(np.argmax(bad)), np.shape(pred))
        raise ValidationError(
            f"pixel {tuple(map(int, at))}: predicted class {int(np.asarray(pred)[at])} "
            f"outside [0, {num_classes - 1}]"
        )

    # Each block padded by one pixel and painted with each pixel's index among
    # the table's distinct ids, -1 elsewhere, so no neighbor gather crosses
    # into another block. Off-image pixels have class num_classes.
    ids = np.unique(segments.ids)
    n = ids.size
    lut = np.full(int(labels.max()) + 1, -1, dtype=np.int32)
    lut[ids + 1] = np.arange(n, dtype=np.int32)
    ph, pw = h + 2, w + 2
    padded = np.full((n_blocks, ph, pw), -1, dtype=np.int32)
    padded[:, 1:-1, 1:-1] = lut[blocks]
    padded = padded.ravel()
    classes = np.full((len(maps[0]), per_map, ph, pw), num_classes, dtype=np.int32)
    classes[:, :, 1:-1, 1:-1] = maps[3][:, None]
    classes = classes.ravel()

    # Only the pixels of the table's own segments are visited, in block-major raster order.
    fg = np.flatnonzero(padded >= 0)
    seg = padded[fg]
    size = np.bincount(seg, minlength=n)
    start = fg - (pw + 1)  # block * ph * pw + row * pw + col
    row, col = np.divmod(start % (ph * pw), pw)
    row_mean = np.bincount(seg, weights=row, minlength=n) / size
    col_mean = np.bincount(seg, weights=col, minlength=n) / size
    at = (start // (ph * pw) // per_map * h + row) * w + col  # pixel index into the stacked maps
    del row, col

    # A neighbor outside segment s is in the ring of s, so one gather per
    # offset, from the view in which index start holds the (dr, dc) neighbor,
    # gives both the interior test and, for outside neighbors only, the ring
    # classes: ring_classes[s, c] flags class c in the ring of s; the last
    # column, off-image neighbors, is dropped.
    n_cls = int(num_classes) + 1
    key = seg.astype(np.intp) * n_cls
    ring_classes = np.zeros(n * n_cls, dtype=bool)
    interior = np.ones(fg.size, dtype=bool)
    for dr, dc in _NEIGHBOR_SHIFTS:
        o = (dr + 1) * pw + dc + 1
        inside = padded[o:][start] == seg
        interior &= inside
        outside = np.flatnonzero(~inside)
        ring_classes[key[outside] + classes[o:][start[outside]]] = True

    order = np.argsort(seg, kind="stable")  # by segment, raster order within
    px = at[order]
    inner = interior[order]
    seg = seg[order]
    ent = maps[0].ravel()[px].astype(np.float64)
    mean_ent = _segment_means(ent, seg, n)
    deviation = ent - mean_ent[seg]
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
            _segment_means(maps[1].ravel()[px].astype(np.float64), seg, n),
            _segment_means(maps[2].ravel()[px].astype(np.float64), seg, n),
            (row_mean + 0.5) / h,
            (col_mean + 0.5) / w,
            ring_classes.reshape(n, n_cls)[:, :-1].sum(axis=1) / num_classes,
        ],
        axis=1,
    )[lut[segments.ids + 1]]
    box = segments.bboxes
    extent = np.column_stack([(box[:, 2] - box[:, 0] + 1) / h, (box[:, 3] - box[:, 1] + 1) / w])
    return replace(segments, features=np.column_stack([per_segment[:, :10], extent, per_segment[:, 10:]]))


def _grid_components(entropies, grid, connectivity: int, min_size: int):
    """Components of every (map, threshold) pair, labelled in one pass.

    ``entropies`` is a sequence of (H, W) entropy maps. Their masks at each
    threshold, compared as :func:`threshold_mask` compares them, go into one
    boolean image as one block per (map, threshold), each followed by an
    all-False row so no component spans two blocks. Returns the feature-less
    table of the components of at least ``min_size`` pixels, in (map,
    threshold, component id) row order with block-local bounding boxes and
    an (n_blocks, H, W) label image, and each row's block index ``map *
    len(grid) + threshold index``. Ids stay unique across blocks; gaps
    reveal components dropped by ``min_size``.
    """
    _check_labelling(connectivity, min_size)
    h, w = entropies[0].shape
    masks = np.zeros((len(entropies), len(grid), h + 1, w), dtype=bool)
    for m, entropy in enumerate(entropies):
        for k, t in enumerate(grid):
            masks[m, k, :h] = threshold_mask(entropy, t)
    components = connected_components(masks.reshape(-1, w), connectivity)
    kept = components[components.sizes >= min_size]
    block = kept.bboxes[:, 0] // (h + 1)
    bboxes = kept.bboxes - (block * (h + 1))[:, None] * np.array([1, 0, 1, 0])
    return replace(kept, bboxes=bboxes, label_image=components.label_image.reshape(-1, h + 1, w)[:, :h]), block


def _grid_segments(maps, num_classes: int, grid, connectivity: int, min_size: int):
    """:func:`_grid_components` of a sequence of ScoreMaps, with features filled."""
    kept, block = _grid_components([m.entropy for m in maps], grid, connectivity, min_size)
    stacked = [planes[0] if len(maps) == 1 else np.stack(planes) for planes in zip(*maps)]
    return compute_features(kept, *stacked, num_classes), block


def _dilate8(mask: np.ndarray) -> np.ndarray:
    """The 8-dilation of a 2-D boolean mask, clipped to the image."""
    tall = mask.copy()
    tall[1:] |= mask[:-1]
    tall[:-1] |= mask[1:]
    out = tall.copy()
    out[:, 1:] |= tall[:, :-1]
    out[:, :-1] |= tall[:, 1:]
    return out


def extract_segments(
    p: np.ndarray,
    t: float,
    connectivity: int = 8,
    min_size: int = 1,
) -> SegmentTable:
    """Full candidate-extraction pipeline on a probability map.

    Checks ``t``, ``connectivity``, ``min_size`` and the map's shape (an
    empty map raises DomainError), computes the entropy map
    (rejecting NaN and inf probabilities), thresholds it at ``t``, labels
    connected components and drops those smaller than ``min_size``. The
    margin, max-probability and argmax maps are then computed only on the
    kept segments and their one-pixel ring, the only pixels
    :func:`compute_features` reads of them, and features are filled.
    Component ids keep their pre-filter values, so gaps in the id sequence
    reveal suppressed small components.
    """
    t = _in_interval("threshold", t, "[0, 1]")
    _check_labelling(connectivity, min_size)
    p = _check_prob_shape(np.asarray(p))
    if 0 in p.shape[:2]:
        raise DomainError(f"probability map must be at least 1x1 pixels, got shape {p.shape}")
    entropy = entropy_map(p)
    kept, _ = _grid_components([entropy], (t,), connectivity, min_size)
    labels = kept.label_image[0]
    member = np.zeros(int(labels.max()) + 1, dtype=bool)
    member[kept.ids + 1] = True
    segs = compute_features(kept, entropy, *_top2_near(p, _dilate8(member[labels])), p.shape[2])
    return replace(segs, label_image=labels)


def features_matrix(segments: SegmentTable) -> np.ndarray:
    """The (n, 15) float64 feature block of a table, in canonical order."""
    return segments.require_features()
