"""Candidate OoD segments: thresholding, connected components, segment features.

A score map is thresholded into a binary mask, whose runs of 1-pixels are
labelled into 8-connected components as in He, Chao & Suzuki (IEEE TIP
2008), with vectorized union of touching runs. The result is a
:class:`~oodseg.tensor_io.SegmentTable` with its int32 label image, and
:func:`compute_features` fills 15 hand-crafted statistics (``FEATURE_NAMES``)
per segment, all segments at once: size, geometry, uncertainty profile and
class neighborhood. These feed the logistic-regression meta classifier that
separates true from false OoD indications.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from .errors import DomainError, SchemaError, _array, _check_ids, _count, _in_interval
from .scores import _top2_at, entropy_map
# The other single-map names stay bound here because bench/tracing.py rebinds
# them in this namespace for its traced run.
from .scores import argmax_map, margin_map, maxprob_map  # noqa: F401
from .tensor_io import SegmentTable, _check_prob_shape

__all__ = [
    "threshold_mask",
    "connected_components",
    "compute_features",
    "extract_segments",
    "features_matrix",
]

_NEIGHBOR_SHIFTS = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc)


def threshold_mask(score: np.ndarray, t: float) -> np.ndarray:
    """Binary mask of pixels with ``score >= t``; t must lie in [0, 1]."""
    t = _in_interval("threshold", t, "[0, 1]")
    return _array("score map", score, 2, "biuf") >= t


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


def connected_components(mask: np.ndarray) -> SegmentTable:
    """Partition the 1-pixels of a binary mask into 8-connected components.

    Maximal horizontal runs of 1-pixels are united when runs in adjacent rows
    touch, diagonally included. Ids follow the raster order of each
    component's first pixel. Returns a feature-less table (ids, bounding
    boxes, sizes) whose label image holds ``id + 1`` per pixel.
    """
    mask = _array("mask", mask, 2, "biuf").astype(bool, copy=False)
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
    # [first[i], last[i]): they end after col_lo - 1 and start before
    # col_hi + 1. Both bounds stay inside the row above.
    first = np.searchsorted(stops, starts - stride - 1, side="right")
    last = np.searchsorted(starts, stops - stride + 1, side="left")
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


def _segment_means(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment float64 means of values grouped by segment, ``counts[s]`` of them for segment s; 0.0 for none.

    A 0.0 pad in front of each segment makes ``np.add.reduceat`` sum it the
    way ``ndarray.sum`` sums it alone (identity first, then the same pairwise
    order), so each mean is bit-equal to the segment's ``ndarray.mean``.
    """
    starts = np.cumsum(counts) - counts
    sums = np.add.reduceat(np.insert(values, starts, 0.0), starts + np.arange(counts.size))
    return np.divide(sums, counts, out=np.zeros(counts.size), where=counts > 0)


def compute_features(segments: SegmentTable, entropy: np.ndarray, p) -> SegmentTable:
    """A copy of the table with the 15 canonical statistics filled for every row.

    ``entropy`` is the (H, W) entropy map and ``p`` the (H, W, C) probability
    map it came from. Interior pixels are those whose eight neighbors all
    exist and belong to the segment; the boundary is the rest, so size =
    interior + boundary. ``var_entropy`` is the population variance. Means
    over an empty interior (or boundary) are 0.0. Centroids use pixel
    centers, ``(mean_index + 0.5) / extent``. The adjacency feature counts
    distinct predicted classes in the 1-pixel outer ring (8-dilation minus
    segment, clipped to the image), out of C. Float64 reductions are
    bit-equal to per-segment ``mean``/``var`` calls.

    Margin, max-probability and argmax come from ``score_maps``' kernel run
    on the table's pixels and their ring only, so they are byte-identical to
    its maps; a non-finite probability among those rows raises
    ValidationError naming the pixel. Only the argmax (one byte per pixel up
    to 256 classes) and 1-byte masks are image-sized.
    """
    labels, entropy, p = segments.require_label_image(), _array("entropy map", entropy, 2, "f"), _check_prob_shape(p)
    if entropy.shape != labels.shape or p.shape[:2] != labels.shape:
        raise SchemaError(f"maps of shape {entropy.shape} and {p.shape} do not fit label image shape {labels.shape}")
    return replace(segments, features=_features_of(segments, labels, entropy, partial(_top2_near, p), p.shape[2]))


def _top2_near(p: np.ndarray, at: np.ndarray) -> tuple:
    """Margin and max-probability of p at ascending flat indices ``at``, and an argmax image holding their ring."""
    member = np.zeros(p.shape[:2], dtype=bool)
    member.ravel()[at] = True
    near = member.copy()  # grown to its 8-dilation, clipped to the image; NumPy buffers overlapping operands
    near[1:] |= near[:-1]
    near[:-1] |= near[1:]
    near[:, 1:] |= near[:, :-1]
    near[:, :-1] |= near[:, 1:]
    on = np.flatnonzero(near)
    pred = np.zeros(member.size, dtype=np.uint8 if p.shape[2] <= 256 else np.int32)
    margin, maxprob, pred[on] = _top2_at(p, on)
    keep = np.flatnonzero(member.ravel().take(on))
    return margin.take(keep), maxprob.take(keep), pred


def _features_of(segments: SegmentTable, labels: np.ndarray, entropy: np.ndarray, top2, n_cls: int) -> np.ndarray:
    """The (n, 15) features of the table's rows on ``labels``, one (H, W) label image or a stack of them, of one map.

    Each block of a stack is its own image with block-local bounding boxes.
    ``top2(at)`` gives margin and max-probability at the table's pixels, at
    flat indices ``at`` into the (H, W) ``entropy`` map of ``n_cls`` classes,
    and an argmax image that holds their ring. Only the table's pixels and
    their eight neighbors are visited, with one gather per neighbor offset by
    flat index; only the pixels whose neighbor would leave the block are
    masked, and a neighbor's class is read only when it lies outside the
    segment.
    """
    h, w = labels.shape[-2:]

    # The table's pixels, in block-major raster order, by flat index into the
    # stack (``at`` into the map), with their label and row among the table's
    # distinct ids. Flat indices are int32 while the stack has < 2**31 pixels.
    top = _check_ids(segments.ids, labels)
    ids = np.sort(segments.ids)  # distinct and ascending, as np.unique gives them at a fraction of its cost
    ids = ids[np.flatnonzero(np.diff(ids, prepend=-1))]
    n = ids.size
    lut = np.full(top + 1, -1, dtype=np.int32)
    lut[ids + 1] = np.arange(n, dtype=np.int32)
    stack = labels.ravel()
    index = np.int32 if stack.size + w + 1 < 2**31 else np.intp
    fg = np.flatnonzero((lut >= 0)[stack]).astype(index)
    own = stack.take(fg)
    seg = lut.take(own)
    at = fg % (h * w)
    row, col = np.divmod(at, w)
    size = np.bincount(seg, minlength=n)
    row_mean = np.bincount(seg, weights=row, minlength=n) / size
    col_mean = np.bincount(seg, weights=col, minlength=n) / size
    margin, maxprob, pred = top2(at)

    # A neighbor outside segment s is in the ring of s, so one gather per
    # offset gives both the interior test and, for outside neighbors only, the
    # ring classes: ring_classes[s, c] flags class c in the ring of s. A pixel
    # whose neighbor would leave its block reads itself instead, which keeps
    # it out of the ring, and is then marked not interior.
    edges = (np.flatnonzero(row == 0), np.flatnonzero(row == h - 1), np.flatnonzero(col == 0),
             np.flatnonzero(col == w - 1))
    del row, col
    key = seg.astype(np.intp) * n_cls
    ring_classes = np.zeros(n * n_cls, dtype=bool)
    interior = np.ones(fg.size, dtype=bool)
    for dr, dc in _NEIGHBOR_SHIFTS:
        shift = dr * w + dc
        edge = np.concatenate([e for e, leaves in zip(edges, (dr < 0, dr > 0, dc < 0, dc > 0)) if leaves])
        nb = fg + shift
        nb[edge] = fg[edge]
        inside = stack.take(nb) == own
        del nb
        outside = np.flatnonzero(~inside)
        ring_classes[key[outside] + pred.take(at[outside] + shift)] = True
        inside[edge] = False
        interior &= inside
    del fg, own, key, pred, inside, outside

    # Masks select through flatnonzero and take, several times faster than
    # boolean indexing.
    order = np.argsort(seg, kind="stable")  # by segment, raster order within
    seg = seg.take(order)
    inner = interior.take(order)
    inner, outer = np.flatnonzero(inner), np.flatnonzero(~inner)
    ent = entropy.ravel().take(at.take(order)).astype(np.float64)
    mean_ent = _segment_means(ent, size)
    deviation = ent - mean_ent[seg]
    n_inner = np.bincount(seg.take(inner), minlength=n)
    per_segment = np.stack(
        [
            size,
            n_inner,
            size - n_inner,
            n_inner / size,
            mean_ent,
            _segment_means(ent.take(inner), n_inner),
            _segment_means(ent.take(outer), size - n_inner),
            _segment_means(deviation * deviation, size),
            _segment_means(margin.take(order).astype(np.float64), size),
            _segment_means(maxprob.take(order).astype(np.float64), size),
            (row_mean + 0.5) / h,
            (col_mean + 0.5) / w,
            ring_classes.reshape(n, n_cls).sum(axis=1) / n_cls,
        ],
        axis=1,
    )[lut[segments.ids + 1]]
    box = segments.bboxes
    extent = np.column_stack([(box[:, 2] - box[:, 0] + 1) / h, (box[:, 3] - box[:, 1] + 1) / w])
    return np.column_stack([per_segment[:, :10], extent, per_segment[:, 10:]])


def _grid_components(entropies, grid, min_size: int):
    """Components of every (map, threshold) pair, labelled in one pass.

    ``entropies`` is a sequence of (H, W) entropy maps and ``grid`` holds
    float thresholds; the callers have checked them and ``min_size``. The
    masks ``entropy >= t`` go into one boolean image as one block per (map,
    threshold), each followed by an all-False row so no component spans two
    blocks. Returns the feature-less table of the components of at least
    ``min_size`` pixels, in (map, threshold, component id) row order with
    block-local bounding boxes and an (n_blocks, H, W) label image, and each
    row's block index ``map * len(grid) + threshold index``. Ids stay unique
    across blocks; gaps reveal components dropped by ``min_size``.
    """
    h, w = entropies[0].shape
    masks = np.zeros((len(entropies), len(grid), h + 1, w), dtype=bool)
    for m, entropy in enumerate(entropies):
        for k, t in enumerate(grid):
            masks[m, k, :h] = entropy >= t
    components = connected_components(masks.reshape(-1, w))
    kept = components[components.sizes >= min_size]
    block = kept.bboxes[:, 0] // (h + 1)
    bboxes = kept.bboxes - (block * (h + 1))[:, None] * np.array([1, 0, 1, 0])
    return replace(kept, bboxes=bboxes, label_image=components.label_image.reshape(-1, h + 1, w)[:, :h]), block


def _grid_segments(maps, n_cls: int, grid, min_size: int):
    """:func:`_grid_components` of :class:`ScoreMaps` of ``n_cls`` classes, featurized from the maps."""
    kept, block = _grid_components([m.entropy for m in maps], grid, min_size)
    g = len(grid)
    features = [_features_of(kept[block // g == v], kept.label_image[v * g:(v + 1) * g], m.entropy,
                             lambda at, m=m: (m.margin.ravel().take(at), m.maxprob.ravel().take(at), m.pred.ravel()),
                             n_cls) for v, m in enumerate(maps)]
    return replace(kept, features=np.concatenate(features)), block


def extract_segments(p: np.ndarray, t: float, min_size: int = 1) -> SegmentTable:
    """Full candidate-extraction pipeline on a probability map.

    Checks ``t``, ``min_size`` and the map's shape (an empty map raises
    DomainError), computes the entropy map (rejecting NaN and inf
    probabilities), thresholds it at ``t``, labels 8-connected components
    and drops those smaller than ``min_size``. The features are then filled
    by :func:`compute_features`, which computes margin, max-probability and
    argmax only on the kept segments and their one-pixel ring. Component ids
    keep their pre-filter values, so gaps in the id sequence reveal
    suppressed small components.
    """
    t = _in_interval("threshold", t, "[0, 1]")
    _count("min_size", min_size, 1)
    p = _check_prob_shape(p)
    if 0 in p.shape[:2]:
        raise DomainError(f"probability map must be at least 1x1 pixels, got shape {p.shape}")
    entropy = entropy_map(p)
    kept, _ = _grid_components([entropy], (t,), min_size)
    return compute_features(replace(kept, label_image=kept.label_image[0]), entropy, p)


def features_matrix(segments: SegmentTable) -> np.ndarray:
    """The (n, 15) float64 feature block of a table, in canonical order."""
    return segments.require_features()
