"""Pixel-wise uncertainty score maps and the predicted segmentation.

All scores are oriented so that larger means more uncertain and live in
[0, 1] for every valid probability map:

* ``entropy_map``  -- Shannon entropy normalized by ln C
* ``margin_map``   -- 1 - (largest - second largest probability)
* ``maxprob_map``  -- 1 - largest probability
* ``argmax_map``   -- predicted class per pixel (smallest index wins ties)

``score_maps`` returns all four from one pass over the map, which is what
the evaluation uses; the CLI's ``score`` command uses the single-map
functions. The pass walks blocks of whole image rows of about ``_BLOCK_PX``
pixels, so each block's temporaries stay in cache and a non-contiguous map
is never copied whole. Segment extraction takes the entropy map over the
whole image and the top-2 statistics (margin, max-probability, argmax) only
on the pixels its features read, the kept segments and their one-pixel
ring, gathered in chunks of at most ``_BLOCK_PX`` pixels. Every routine
reads the same block kernels, so every value is byte-identical whichever
function produced it. NaN and inf probabilities raise ValidationError naming
the first bad pixel in raster order.

The [0, 1] normalization makes detection thresholds comparable across
datasets with different class counts.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SchemaError, ValidationError
from .tensor_io import _BLOCK_PX, _first_bad_pixel

__all__ = ["ScoreMaps", "score_maps", "entropy_map", "margin_map", "maxprob_map", "argmax_map"]


class ScoreMaps(NamedTuple):
    """The four per-pixel maps of one probability map: three float32 scores and int32 classes."""

    entropy: np.ndarray
    margin: np.ndarray
    maxprob: np.ndarray
    pred: np.ndarray


def _check_prob_shape(p: np.ndarray) -> np.ndarray:
    if p.ndim != 3:
        raise SchemaError(f"probability map must be rank 3, got rank {p.ndim}")
    if p.shape[2] < 2:
        raise ValidationError(f"probability map needs C >= 2 classes, got {p.shape[2]}")
    if not np.issubdtype(p.dtype, np.floating):
        raise SchemaError(f"probability map must be floating point, got {p.dtype}")
    return p


def _unit(score: np.ndarray) -> np.ndarray:
    # Clip pure float roundoff (at most a few ulp past the interval ends);
    # genuine range violations are caught by input validation, never here.
    return np.clip(score, 0.0, 1.0, out=score)


def _entropy_block(block: np.ndarray) -> tuple:
    """Normalized entropy of an (rows, W, C) block, in the block's precision."""
    block = np.ascontiguousarray(block)  # einsum's channel summation order follows the strides
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(block)
    np.copyto(logs, 0, where=block <= 0)  # 0 * ln 0 := 0; few entries, so cheaper than a masked log
    score = np.einsum("hwc,hwc->hw", block, logs)
    score *= np.asarray(-1.0 / np.log(block.shape[2]), dtype=block.dtype)
    return (_unit(score),)


def _top2_block(block: np.ndarray) -> tuple:
    """Margin and max-probability scores and the argmax of an (rows, W, C) block.

    One sweep over the class planes keeps the running largest and second
    largest value. The argmax becomes k only where plane k is strictly larger,
    so the smallest index wins ties; as k exceeds every earlier index, the
    unmasked ``maximum(pred, (x > top1) * k)`` makes that move.
    """
    planes = np.ascontiguousarray(np.moveaxis(block, 2, 0))
    top1 = planes[0].copy()
    top2 = np.full_like(top1, -np.inf)
    pred = np.zeros(top1.shape, dtype=np.int32)
    for k in range(1, planes.shape[0]):
        x = planes[k]
        np.maximum(pred, (x > top1) * np.int32(k), out=pred)
        np.maximum(top2, np.minimum(x, top1), out=top2)
        np.maximum(top1, x, out=top1)
    return _unit(1.0 - (top1 - top2)), _unit(1.0 - top1), pred


def _all_block(block: np.ndarray) -> tuple:
    return _entropy_block(block) + _top2_block(block)


def _blockwise(p, kernel, dtypes) -> tuple:
    """Run ``kernel`` over blocks of whole rows of p into (H, W) maps of ``dtypes``."""
    p = _check_prob_shape(np.asarray(p))
    h, w, _ = p.shape
    maps = tuple(np.empty((h, w), dtype=dtype) for dtype in dtypes)
    step = max(1, _BLOCK_PX // max(w, 1))
    for r0 in range(0, h, step):
        block = p[r0:r0 + step]
        finite = np.isfinite(block)
        if not finite.all():
            r, c = _first_bad_pixel(~finite.all(axis=2))
            raise ValidationError(f"pixel ({r0 + r}, {c}): non-finite probability")
        for out, part in zip(maps, kernel(block)):
            out[r0:r0 + step] = part
    return maps


_TOP2_DTYPES = (np.float32, np.float32, np.int32)


def _top2_near(p: np.ndarray, near: np.ndarray) -> tuple:
    """Margin, max-probability and argmax maps of p, filled only where ``near`` is True.

    The pixels of ``near`` are gathered in raster order, at most
    ``_BLOCK_PX`` at a time, and go through the block routine of
    ``score_maps``, so each filled value is byte-identical to it; every
    other pixel is 0. p must already be known to be finite.
    """
    p = _check_prob_shape(np.asarray(p))
    maps = tuple(np.zeros(near.shape, dtype=dtype) for dtype in _TOP2_DTYPES)
    flat = np.flatnonzero(near)
    rows, cols = np.divmod(flat, near.shape[1])
    for i in range(0, flat.size, _BLOCK_PX):
        at = slice(i, i + _BLOCK_PX)
        for out, part in zip(maps, _top2_block(p[rows[at], cols[at]][None])):
            out.reshape(-1)[flat[at]] = part[0]
    return maps


def score_maps(p: np.ndarray) -> ScoreMaps:
    """Entropy, margin and max-probability scores and the argmax, from one pass over p."""
    return ScoreMaps(*_blockwise(p, _all_block, (np.float32,) + _TOP2_DTYPES))


def entropy_map(p: np.ndarray) -> np.ndarray:
    """Normalized Shannon entropy per pixel: ``-(1/ln C) sum_c p_c ln p_c``.

    The 0 * ln 0 terms are defined as 0, so one-hot pixels score exactly 0.0
    and uniform pixels exactly 1.0. Computation stays in the input precision
    (float32 maps are processed without an intermediate float64 copy, which
    keeps multi-megapixel maps fast).
    """
    return _blockwise(p, _entropy_block, (np.float32,))[0]


def margin_map(p: np.ndarray) -> np.ndarray:
    """Margin uncertainty per pixel: ``1 - (p_(1) - p_(2))``.

    ``p_(1)`` and ``p_(2)`` are the largest and second-largest probabilities;
    one-hot pixels score 0.0, pixels with a tied top pair score 1.0.
    """
    return _blockwise(p, _top2_block, _TOP2_DTYPES)[0]


def maxprob_map(p: np.ndarray) -> np.ndarray:
    """Max-probability uncertainty per pixel: ``1 - max_c p_c``."""
    return _blockwise(p, _top2_block, _TOP2_DTYPES)[1]


def argmax_map(p: np.ndarray) -> np.ndarray:
    """Predicted class per pixel: smallest class index attaining the maximum.

    The tie-break is deterministic so repeated runs yield identical masks
    (and hence identical mIoU).
    """
    return _blockwise(p, _top2_block, _TOP2_DTYPES)[2]
