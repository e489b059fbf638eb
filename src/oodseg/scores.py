"""Pixel-wise uncertainty score maps and the predicted segmentation.

All scores are oriented so that larger means more uncertain and live in
[0, 1] for every valid probability map:

* ``entropy_map``  -- Shannon entropy normalized by ln C
* ``margin_map``   -- 1 - (largest - second largest probability)
* ``maxprob_map``  -- 1 - largest probability
* ``argmax_map``   -- predicted class per pixel (smallest index wins ties)

``score_maps`` returns all four from one pass over the map; ``margin_map``,
``maxprob_map`` and ``argmax_map`` each return one of its maps. The pass
walks blocks of whole image rows of about ``_BLOCK_PX`` pixels, so each
block's temporaries stay in cache and a non-contiguous map is never copied
whole. The features of one map's segments take the top-2 statistics (margin,
max-probability, argmax) only at the pixels they read, the segments and
their one-pixel ring: ``_top2_at`` gathers their rows in chunks of at most
``_BLOCK_PX`` pixels and returns one value per pixel, so no image-sized
float map is built. Every routine reads the same block kernels, so every
value is byte-identical whichever function produced it. Every whole-map
routine runs the entropy kernel, so NaN and inf probabilities raise
ValidationError naming the first bad pixel in raster order: the kernel
checks the pixels of a block only when its scores are not all finite, and
masks ``0 * ln 0`` only in a block with an entry <= 0. ``_top2_at`` raises
the same error for the first bad pixel it reads.

The [0, 1] normalization makes detection thresholds comparable across
datasets with different class counts.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError, _first_true
from .tensor_io import _BLOCK_PX, _check_prob_shape, _require_finite

__all__ = ["ScoreMaps", "score_maps", "entropy_map", "margin_map", "maxprob_map", "argmax_map"]


class ScoreMaps(NamedTuple):
    """The four per-pixel maps of one probability map: three float32 scores and int32 classes."""

    entropy: np.ndarray
    margin: np.ndarray
    maxprob: np.ndarray
    pred: np.ndarray


def _unit(score: np.ndarray) -> np.ndarray:
    # Clip pure float roundoff (at most a few ulp past the interval ends);
    # genuine range violations are caught by input validation, never here.
    return np.clip(score, 0.0, 1.0, out=score)


def _entropy_block(block: np.ndarray, r0: int) -> tuple:
    """Normalized entropy of an (rows, W, C) block starting at image row r0, in the block's precision.

    A block whose entries are all > 0 (zeros, NaN and -inf fail) takes the
    unmasked log; any other block sets the log of every entry <= 0 to 0, so
    ``0 * ln 0 := 0``. Both give the same products. A non-finite probability
    always makes its pixel's score non-finite, so only a block with a
    non-finite score (or an overflow) is checked pixel by pixel, and its
    first non-finite pixel raises ValidationError.
    """
    block = np.ascontiguousarray(block)  # einsum's channel summation order follows the strides
    if block.min(initial=1) > 0:
        score = np.einsum("hwc,hwc->hw", block, np.log(block))
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(block)
            np.copyto(logs, 0, where=block <= 0)  # few entries, so cheaper than a masked log
            score = np.einsum("hwc,hwc->hw", block, logs)
    score *= np.asarray(-1.0 / np.log(block.shape[2]), dtype=block.dtype)
    if not np.isfinite(score).all():
        _require_finite(block, r0)
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


def _all_block(block: np.ndarray, r0: int) -> tuple:
    return _entropy_block(block, r0) + _top2_block(block)  # the entropy kernel has checked the block


def _blockwise(p, kernel, dtypes) -> tuple:
    """Run ``kernel(block, r0)`` over blocks of whole rows of p, from row r0 on, into (H, W) maps of ``dtypes``."""
    p = _check_prob_shape(p)
    h, w, _ = p.shape
    maps = tuple(np.empty((h, w), dtype=dtype) for dtype in dtypes)
    step = max(1, _BLOCK_PX // max(w, 1))
    for r0 in range(0, h, step):
        for out, part in zip(maps, kernel(p[r0:r0 + step], r0)):
            out[r0:r0 + step] = part
    return maps


_TOP2_DTYPES = (np.float32, np.float32, np.int32)


def _top2_at(p: np.ndarray, flat: np.ndarray) -> tuple:
    """Margin, max-probability and argmax of an (H, W, C) map p at the pixel indices ``flat``, as flat arrays.

    The rows of ``flat`` are gathered at most ``_BLOCK_PX`` at a time and go
    through the block routine of ``score_maps``, so each value is
    byte-identical to its maps. A gathered chunk whose minimum or maximum is
    not finite holds a NaN or inf, and ValidationError names its first such
    pixel.
    """
    w, c = p.shape[1:]
    out = tuple(np.empty(flat.size, dtype=dtype) for dtype in _TOP2_DTYPES)
    rows = p.reshape(-1, c) if p.flags.c_contiguous else None  # (H * W, C) view
    for i in range(0, flat.size, _BLOCK_PX):
        at = flat[i:i + _BLOCK_PX]
        block = p[np.divmod(at, w)] if rows is None else rows.take(at, axis=0)
        if not (np.isfinite(block.min()) and np.isfinite(block.max())):
            (first,) = _first_true(~np.isfinite(block).all(axis=1))
            raise ValidationError(f"pixel {divmod(int(at[first]), w)}: non-finite probability")
        for values, part in zip(out, _top2_block(block[None])):
            values[i:i + _BLOCK_PX] = part[0]
    return out


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
    return score_maps(p).margin


def maxprob_map(p: np.ndarray) -> np.ndarray:
    """Max-probability uncertainty per pixel: ``1 - max_c p_c``."""
    return score_maps(p).maxprob


def argmax_map(p: np.ndarray) -> np.ndarray:
    """Predicted class per pixel: smallest class index attaining the maximum.

    The tie-break is deterministic so repeated runs yield identical masks
    (and hence identical mIoU).
    """
    return score_maps(p).pred
