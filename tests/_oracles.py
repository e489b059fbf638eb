"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way (python loops, flood
fill, brute force over cutoffs, arbitrary precision) and deliberately
shares no code with the package. The per-threshold oracles are the one
exception: they restate the evaluation's orchestration on the package's
single-map functions, which the other oracles check on their own.
"""

import math

import mpmath
import numpy as np

import oodseg


def entropy_exact(pvec):
    """Normalized Shannon entropy at 50 significant digits."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for p in pvec:
            p = mpmath.mpf(float(p))
            if p > 0:
                total += p * mpmath.log(p)
        return float(-total / mpmath.log(len(pvec)))


def flood_fill_components(mask, connectivity):
    """Connected components via an explicit-stack flood fill.

    Returns a list of pixel lists; components ordered by their first pixel
    in raster order, pixels within a component sorted in raster order.
    """
    h, w = mask.shape
    if connectivity == 4:
        offsets = [(-1, 0), (0, -1), (0, 1), (1, 0)]
    else:
        offsets = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
    seen = np.zeros((h, w), dtype=bool)
    components = []
    for r0 in range(h):
        for c0 in range(w):
            if not mask[r0, c0] or seen[r0, c0]:
                continue
            stack = [(r0, c0)]
            seen[r0, c0] = True
            pixels = []
            while stack:
                r, c = stack.pop()
                pixels.append((r, c))
                for dr, dc in offsets:
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and mask[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        stack.append((rr, cc))
            components.append(sorted(pixels))
    return components


def naive_segment_features(pixels, entropy, margin, maxprob_unc, pred, num_classes):
    """Recompute all 15 features for one pixel set with plain python loops."""
    h, w = entropy.shape
    pixel_set = {(int(r), int(c)) for r, c in pixels}
    rows = [r for r, _ in pixels]
    cols = [c for _, c in pixels]
    size = len(pixel_set)

    interior = []
    boundary = []
    for r, c in pixels:
        is_interior = True
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                rr, cc = r + dr, c + dc
                if not (0 <= rr < h and 0 <= cc < w) or (rr, cc) not in pixel_set:
                    is_interior = False
        (interior if is_interior else boundary).append((r, c))

    ring = set()
    for r, c in pixels:
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and (rr, cc) not in pixel_set:
                    ring.add((rr, cc))

    def mean_of(values):
        return sum(values) / len(values) if values else 0.0

    ent_vals = [float(entropy[r, c]) for r, c in pixels]
    mean_ent = mean_of(ent_vals)
    r0, r1 = min(rows), max(rows)
    c0, c1 = min(cols), max(cols)
    return {
        "size": float(size),
        "interior_size": float(len(interior)),
        "boundary_size": float(len(boundary)),
        "rel_interior": len(interior) / size,
        "mean_entropy": mean_ent,
        "mean_entropy_interior": mean_of([float(entropy[r, c]) for r, c in interior]),
        "mean_entropy_boundary": mean_of([float(entropy[r, c]) for r, c in boundary]),
        "var_entropy": sum((v - mean_ent) ** 2 for v in ent_vals) / size,
        "mean_margin": mean_of([float(margin[r, c]) for r, c in pixels]),
        "mean_maxprob_unc": mean_of([float(maxprob_unc[r, c]) for r, c in pixels]),
        "bbox_height_rel": (r1 - r0 + 1) / h,
        "bbox_width_rel": (c1 - c0 + 1) / w,
        "centroid_row_rel": (sum(rows) / size + 0.5) / h,
        "centroid_col_rel": (sum(cols) / size + 0.5) / w,
        "n_adjacent_classes_rel": len({int(pred[r, c]) for r, c in ring}) / num_classes,
    }


def per_segment_features(pixels, entropy, margin, maxprob_unc, pred, num_classes):
    """All 15 features of one segment, computed on its own local grid.

    ``pixels`` is an (n, 2) array of (row, col) in raster order. This is the
    one-segment-at-a-time formulation with numpy's own ``mean``/``var``, so
    a vectorized implementation must agree with it bit for bit.
    """
    h, w = entropy.shape
    rows = pixels[:, 0]
    cols = pixels[:, 1]
    r0, c0, r1, c1 = rows.min(), cols.min(), rows.max(), cols.max()

    # Local bool grid with a 1-pixel apron; cells beyond the image stay False,
    # which makes image-border pixels non-interior automatically.
    local = np.zeros((r1 - r0 + 3, c1 - c0 + 3), dtype=bool)
    local[rows - r0 + 1, cols - c0 + 1] = True
    nbr_all = np.ones((r1 - r0 + 1, c1 - c0 + 1), dtype=bool)
    ring_any = np.zeros_like(local)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            shifted = local[1 + dr:local.shape[0] - 1 + dr, 1 + dc:local.shape[1] - 1 + dc]
            if dr or dc:
                nbr_all &= shifted
            ring_any[1 + dr:local.shape[0] - 1 + dr, 1 + dc:local.shape[1] - 1 + dc] |= local[1:-1, 1:-1]
    interior_flags = (nbr_all & local[1:-1, 1:-1])[rows - r0, cols - c0]

    ring_r, ring_c = np.nonzero(ring_any & ~local)
    ring_r = ring_r + r0 - 1
    ring_c = ring_c + c0 - 1
    inside = (ring_r >= 0) & (ring_r < h) & (ring_c >= 0) & (ring_c < w)
    ring_classes = np.unique(pred[ring_r[inside], ring_c[inside]])

    ent = entropy[rows, cols].astype(np.float64)
    size = ent.size
    interior = int(interior_flags.sum())
    boundary = size - interior
    return {
        "size": float(size),
        "interior_size": float(interior),
        "boundary_size": float(boundary),
        "rel_interior": interior / size,
        "mean_entropy": float(ent.mean()),
        "mean_entropy_interior": float(ent[interior_flags].mean()) if interior else 0.0,
        "mean_entropy_boundary": float(ent[~interior_flags].mean()) if boundary else 0.0,
        "var_entropy": float(ent.var()),
        "mean_margin": float(margin[rows, cols].astype(np.float64).mean()),
        "mean_maxprob_unc": float(maxprob_unc[rows, cols].astype(np.float64).mean()),
        "bbox_height_rel": int(r1 - r0 + 1) / h,
        "bbox_width_rel": int(c1 - c0 + 1) / w,
        "centroid_row_rel": (float(rows.mean(dtype=np.float64)) + 0.5) / h,
        "centroid_col_rel": (float(cols.mean(dtype=np.float64)) + 0.5) / w,
        "n_adjacent_classes_rel": ring_classes.size / num_classes,
    }


def brute_force_pr(scores, labels):
    """PR curve by re-counting TP/FP from scratch at every distinct cutoff."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    positives = int(labels.sum())
    cutoffs = sorted(set(scores.tolist()), reverse=True)
    points = []
    for cut in cutoffs:
        flagged = scores >= cut
        tp = int((flagged & labels).sum())
        fp = int((flagged & ~labels).sum())
        points.append((cut, tp / (tp + fp), tp / positives))
    auprc = 0.0
    prev_recall = 0.0
    for _, precision, recall in points:
        auprc += (recall - prev_recall) * precision
        prev_recall = recall
    return points, auprc


def stepwise_auprc(recalls, precisions):
    """Step-wise area sum((R_i - R_{i-1}) * P_i) with R_{-1} = 0, fed to fsum one product at a time."""
    return math.fsum(
        (r - r_prev) * p
        for r, r_prev, p in zip(recalls, np.concatenate([[0.0], recalls[:-1]]), precisions)
    )


def argsort_pr_curve(scores, gts, ood_id=254, ignore_id=255):
    """(cutoffs, precisions, recalls, auprc) from one stable descending argsort of the pooled float64 scores.

    The cutoff of each group of tied scores is the value last in pooled
    order, so a tie of -0.0 and 0.0 keeps the sign of the last zero.
    """
    keep = [(g != ignore_id).ravel() for g in gts]
    s_all = np.concatenate([np.asarray(s).ravel()[k] for s, k in zip(scores, keep)]).astype(np.float64)
    y_all = np.concatenate([(g == ood_id).ravel()[k] for g, k in zip(gts, keep)])
    positives = int(y_all.sum())
    order = np.argsort(-s_all, kind="stable")
    s_sorted = s_all[order]
    tp_cum = np.cumsum(y_all[order])
    boundaries = np.concatenate([np.flatnonzero(np.diff(s_sorted) != 0.0), [s_sorted.size - 1]])
    tp = tp_cum[boundaries].astype(np.float64)
    recalls = tp / positives
    precisions = tp / (boundaries + 1.0)
    return s_sorted[boundaries], precisions, recalls, stepwise_auprc(recalls, precisions)


def _per_threshold_segments(prob, grid, min_size):
    """Per variant map, per threshold: the featurized 8-connected segments of that threshold alone."""
    maps = oodseg.score_maps(prob)
    for t in grid:
        components = oodseg.connected_components(oodseg.threshold_mask(maps.entropy, t))
        kept = components[components.sizes >= min_size]
        yield t, oodseg.compute_features(kept, maps.entropy, prob)


def per_threshold_training_table(benchmark, grid, tau_tp=0.5, min_size=1):
    """``build_training_table`` with one extraction and one labelling per (scene, variant, threshold)."""
    features, labels = [], []
    for scene in benchmark.scenes:
        for prob in (scene.prob_plain, scene.prob_boosted):
            for _, segs in _per_threshold_segments(prob, grid, min_size):
                lab = oodseg.label_segments(segs, scene.gt, tau_tp)
                if (lab != -1).any():
                    features.append(segs.features[lab != -1])
                    labels.append(lab[lab != -1])
    if not features:
        return np.zeros((0, 0)), np.zeros(0, dtype=np.int64)
    return np.concatenate(features), np.concatenate(labels)


def per_threshold_sweep_counts(benchmark, grid, model=None, coverage=0.5, min_size=1):
    """{(t, ood_training, meta): (tp, fp, fn)} summed over scenes, one match_segments call per combination."""
    counts = {}
    for scene in benchmark.scenes:
        for boosted, prob in ((False, scene.prob_plain), (True, scene.prob_boosted)):
            for t, segs in _per_threshold_segments(prob, grid, min_size):
                tables = [(False, segs)]
                if model is not None:
                    tables.append((True, oodseg.apply_meta_filter(segs, model)[0]))
                for meta, table in tables:
                    tp, fp, fn = oodseg.match_segments(table, scene.gt, coverage)
                    old = counts.get((t, boosted, meta), (0, 0, 0))
                    counts[(t, boosted, meta)] = (old[0] + tp, old[1] + fp, old[2] + fn)
    return counts


def naive_miou(pred, gt, num_classes, ood_id=254, ignore_id=255):
    """Per-class IoU with explicit loops; mean over classes present in gt."""
    h, w = gt.shape
    inter = [0] * num_classes
    gt_count = [0] * num_classes
    pred_count = [0] * num_classes
    for r in range(h):
        for c in range(w):
            g = int(gt[r, c])
            if g in (ood_id, ignore_id):
                continue
            p = int(pred[r, c])
            gt_count[g] += 1
            pred_count[p] += 1
            if p == g:
                inter[g] += 1
    ious = []
    for k in range(num_classes):
        if gt_count[k] == 0:
            continue
        union = gt_count[k] + pred_count[k] - inter[k]
        ious.append(inter[k] / union)
    return sum(ious) / len(ious)


def naive_match_counts(pred_pixel_sets, gt, coverage, ood_id=254, ignore_id=255):
    """(tp, fp, fn) by brute-force pixel counting against the gt OoD mask."""
    gt = np.asarray(gt)
    union = set()
    for pixels in pred_pixel_sets:
        union |= pixels
    ood_mask = gt == ood_id
    comps = flood_fill_components(ood_mask, connectivity=8)
    fn = 0
    for comp in comps:
        covered = sum(1 for px in comp if px in union)
        if covered / len(comp) < coverage:
            fn += 1
    tp = fp = 0
    for pixels in pred_pixel_sets:
        considered = [px for px in pixels if int(gt[px]) != ignore_id]
        if not considered:
            continue  # neither tp nor fp
        on_ood = sum(1 for px in considered if int(gt[px]) == ood_id)
        if on_ood / len(considered) >= coverage:
            tp += 1
        else:
            fp += 1
    return tp, fp, fn


def logistic_objective(x, y, weights, bias, lam):
    """Ridge-penalized Bernoulli log-likelihood, written out longhand."""
    total = 0.0
    for xi, yi in zip(x, y):
        z = float(np.dot(xi, weights) + bias)
        # log sigma(z) = -log(1+e^-z); log(1-sigma(z)) = -log(1+e^z)
        total += yi * (-math.log1p(math.exp(-z))) if z > 0 else yi * (z - math.log1p(math.exp(z)))
        total += (1 - yi) * (-z - math.log1p(math.exp(-z))) if z > 0 else (1 - yi) * (-math.log1p(math.exp(z)))
    penalty = 0.5 * lam * (float(np.dot(weights, weights)) + bias * bias)
    return total - penalty


def logistic_gradient_fd(x, y, weights, bias, lam, h=1e-5):
    """Central-difference gradient of :func:`logistic_objective`."""
    theta = np.concatenate([np.asarray(weights, dtype=np.float64), [bias]])
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        down = theta.copy()
        up[i] += h
        down[i] -= h
        f_up = logistic_objective(x, y, up[:-1], up[-1], lam)
        f_down = logistic_objective(x, y, down[:-1], down[-1], lam)
        grad[i] = (f_up - f_down) / (2 * h)
    return grad


def newton_bias_only(y, lam, tol=1e-14, max_iter=200):
    """1-D Newton for the bias-only ridge logistic objective."""
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    b = 0.0
    for _ in range(max_iter):
        mu = 1.0 / (1.0 + math.exp(-b))
        grad = float(y.sum()) - n * mu - lam * b
        hess = n * mu * (1.0 - mu) + lam
        step = grad / hess
        b += step
        if abs(step) < tol:
            break
    return b


# Whole-array score maps: one NumPy reduction over the class axis per map.
# The library computes all four in blocks of image rows; these are the
# bit-exact references for that (compare with ``.view(int)``).


def _unit_float32(score):
    np.clip(score, 0.0, 1.0, out=score)
    return score.astype(np.float32, copy=False)


def whole_array_entropy(p):
    logs = np.log(p, out=np.zeros_like(p), where=p > 0)
    plogp = np.einsum("hwc,hwc->hw", p, logs)
    return _unit_float32(plogp * np.asarray(-1.0 / np.log(p.shape[2]), dtype=p.dtype))


def whole_array_margin(p):
    c = p.shape[2]
    part = np.partition(p, c - 2, axis=2)
    return _unit_float32(np.asarray(1.0 - (part[:, :, c - 1] - part[:, :, c - 2]), dtype=p.dtype))


def whole_array_maxprob(p):
    return _unit_float32(np.asarray(1.0 - p.max(axis=2), dtype=p.dtype))


def whole_array_argmax(p):
    return p.argmax(axis=2).astype(np.int32)


# Whole-array synthetic scene: every (H, W, C) draw and mix at once, in the
# stream order of ``synth``'s contract. The library generates the map in
# blocks of image rows; this is its bit-exact reference.


def _philox(seed, stream_id):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream_id,))))


def whole_array_generate_scene(cfg):
    h, w, c = cfg.height, cfg.width, cfg.num_classes
    geom = _philox(cfg.seed, 0)
    sites_r = geom.random(cfg.n_regions) * h
    sites_c = geom.random(cfg.n_regions) * w
    region_class = geom.integers(0, c, cfg.n_regions)
    rows = np.arange(h, dtype=np.float64)[:, None] + 0.5
    cols = np.arange(w, dtype=np.float64)[None, :] + 0.5
    d2 = (rows[None] - sites_r[:, None, None]) ** 2 + (cols[None] - sites_c[:, None, None]) ** 2
    classes = region_class[np.argmin(d2, axis=0)].astype(np.int32)
    del d2

    blob_mask = np.zeros((h, w), dtype=bool)
    wrong_class = np.zeros((h, w), dtype=np.int64)
    rr = np.arange(h, dtype=np.float64)[:, None]
    cc = np.arange(w, dtype=np.float64)[None, :]
    lo, hi = cfg.blob_radius_range
    for _ in range(cfg.n_ood_blobs):
        a = geom.uniform(lo, hi)
        b = geom.uniform(lo, hi)
        theta = geom.uniform(0.0, np.pi)
        wrong = int(geom.integers(0, c))
        ext_c = np.hypot(a * np.cos(theta), b * np.sin(theta))
        ext_r = np.hypot(a * np.sin(theta), b * np.cos(theta))
        if ext_r > (h - 1) - ext_r or ext_c > (w - 1) - ext_c:
            raise oodseg.ConfigError("blob cannot fit")
        cy = geom.uniform(ext_r, (h - 1) - ext_r)
        cx = geom.uniform(ext_c, (w - 1) - ext_c)
        u = (cc - cx) * np.cos(theta) + (rr - cy) * np.sin(theta)
        v = -(cc - cx) * np.sin(theta) + (rr - cy) * np.cos(theta)
        inside = (u / a) ** 2 + (v / b) ** 2 <= 1.0
        blob_mask |= inside
        wrong_class[inside] = wrong

    alpha = np.full((h, w, c), cfg.base_alpha, dtype=np.float64)
    np.put_along_axis(alpha, classes[:, :, None].astype(np.int64), cfg.base_alpha + cfg.sharpness, axis=2)
    prob = _philox(cfg.seed, 1).gamma(alpha)
    prob /= prob.sum(axis=2, keepdims=True)

    speckle = _philox(cfg.seed, 2)
    radius = 2.0
    r = int(np.floor(radius))
    dr, dc = np.mgrid[-r:r + 1, -r:r + 1]
    disc = dr * dr + dc * dc <= radius * radius
    offsets = np.stack([dr[disc], dc[disc]], axis=1)
    target = int(round(cfg.speckle_rate * int((~blob_mask).sum())))
    n_discs = max(1, int(round(target / offsets.shape[0]))) if target > 0 else 0
    if n_discs > 0:
        centers_r = speckle.integers(0, h, n_discs)
        centers_c = speckle.integers(0, w, n_discs)
        pr = (centers_r[:, None] + offsets[:, 0]).ravel()
        pc = (centers_c[:, None] + offsets[:, 1]).ravel()
        keep = (pr >= 0) & (pr < h) & (pc >= 0) & (pc < w)
        speckle_mask = np.zeros((h, w), dtype=bool)
        speckle_mask[pr[keep], pc[keep]] = True
        speckle_mask &= ~blob_mask
        s = cfg.speckle_strength
        prob[speckle_mask] = (1.0 - s) * prob[speckle_mask] + s / c

    ood = _philox(cfg.seed, 3)
    ood_r, ood_c = np.nonzero(blob_mask)
    n_ood = ood_r.size
    if n_ood:
        alpha1 = np.full((n_ood, c), cfg.base_alpha, dtype=np.float64)
        alpha1[np.arange(n_ood), wrong_class[ood_r, ood_c]] += cfg.sharpness
        d1 = ood.gamma(alpha1)
        d2_draw = ood.gamma(np.full((n_ood, c), cfg.base_alpha, dtype=np.float64))
        beta = cfg.ood_entropy_boost
        mix = (1.0 - beta) * (d1 / d1.sum(axis=1, keepdims=True)) + beta * (
            d2_draw / d2_draw.sum(axis=1, keepdims=True)
        )
        mix /= mix.sum(axis=1, keepdims=True)
        prob[ood_r, ood_c] = mix

    gt = classes.copy()
    gt[blob_mask] = 254
    return prob.astype(np.float32), gt, classes
