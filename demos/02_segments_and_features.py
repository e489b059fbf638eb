"""
From uncertainty maps to candidate segments
===========================================

Thresholding an entropy map gives a binary mask; its connected components
are the candidate OoD segments. Each segment is summarized by fifteen
hand-crafted features (size, shape, location, and uncertainty statistics
split between interior and boundary) — the raw material for the meta
classifier in the next demo.
"""

import numpy as np

import oodseg

prob, gt, _ = oodseg.generate_scene(oodseg.SceneConfig(seed=7))
entropy = oodseg.entropy_map(prob)

# Threshold the entropy at t = 0.3 (>= semantics) and keep 8-connected
# components with at least 10 pixels. extract_segments derives the margin,
# max-probability and argmax maps itself and fills all fifteen features.
segments = oodseg.extract_segments(prob, t=0.3, min_size=10)
mask = oodseg.threshold_mask(entropy, 0.3)
print(f"flagged pixels: {int(mask.sum())}, segments >= 10 px: {len(segments)}")

# How many of them sit on a real blob? Majority coverage (>=50%) decides.
match = oodseg.match_segments(segments, gt)
print(f"matched blobs: {match.tp}, false segments: {match.fp}, missed blobs: {match.fn}")

# The segments come back as one table: a row per segment (id, bounding box,
# size) with the (n, 15) feature block in FEATURE_NAMES order, plus the
# label image they were cut from. Interior pixels have all eight neighbours
# inside the segment.
col = {name: i for i, name in enumerate(oodseg.FEATURE_NAMES)}
largest = segments[np.argsort(-segments.sizes, kind="stable")[:3]]
print(f"\n{'id':>4s} {'size':>6s} {'interior':>8s} {'mean_ent':>8s} {'ent_bd':>8s} {'var_ent':>8s}")
for seg, f in zip(largest, largest.features):
    print(
        f"{seg.id:4d} {seg.size:6d} {f[col['interior_size']]:8.0f}"
        f" {f[col['mean_entropy']]:8.3f} {f[col['mean_entropy_boundary']]:8.3f} {f[col['var_entropy']]:8.4f}"
    )

# Pixel value id + 1 in the label image marks each segment's pixels; 0 is background.
print(f"\nfeature table: {segments.features.shape[0]} rows x {segments.features.shape[1]} columns"
      f" in the order {oodseg.FEATURE_NAMES[:3] + ('...',)}")
print(f"label image: {segments.label_image.shape}, {segments.label_image.dtype},"
      f" {int((segments.label_image == largest.ids[0] + 1).sum())} px in segment {largest.ids[0]}")

# Raising the threshold can only shrink the flagged set — segments at a
# higher t are always subsets of segments at a lower one.
for t in (0.2, 0.4, 0.6, 0.8):
    m = oodseg.threshold_mask(entropy, t)
    n_seg = len(oodseg.connected_components(m))
    print(f"t={t:.1f}: {int(m.sum()):5d} pixels in {n_seg:3d} raw components")
