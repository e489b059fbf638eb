"""
Sweeping thresholds across the benchmark
========================================

The end-to-end evaluation: for every entropy threshold, count segment-level
true/false positives and missed blobs over all scenes — with and without
the meta filter, for both training variants — and check what the detection
pipeline costs in segmentation accuracy (nothing, here).
"""

import oodseg

# The default benchmark: 20 seeded scenes at 128x128, two variants each.
bench = oodseg.build_benchmark(oodseg.DEFAULT_CONFIG, oodseg.DEFAULT_N_SCENES)

# Train the meta classifier on the same pooled segments (the filter is a
# post-processing step, not a generalization claim).
features, labels = oodseg.build_training_table(bench, oodseg.DEFAULT_GRID, min_size=10)
model = oodseg.fit_meta(features, labels)

result = oodseg.sweep(bench, oodseg.DEFAULT_GRID, model=model, min_size=10)
print(f"reference mIoU (plain variant, no filtering): {result.reference_miou:.3f}\n")

print(f"{'t':>4s} {'variant':>8s} {'meta':>5s} {'tp':>4s} {'fp':>5s} {'fn':>4s} {'miou_loss':>9s}")
for row in result.rows:
    variant = "boosted" if row.ood_training else "plain"
    print(f"{row.t:4.1f} {variant:>8s} {str(row.meta):>5s}"
          f" {row.tp:4d} {row.fp:5d} {row.fn:4d} {row.miou_loss:9.1f}")

# Two headline numbers. First: the meta filter's effect at the threshold
# where unfiltered FP+FN is smallest.
rows = {(r.t, r.ood_training, r.meta): r for r in result.rows}
grid = sorted({r.t for r in result.rows})
best_t = min(grid, key=lambda t: rows[(t, True, False)].fp + rows[(t, True, False)].fn)
fp0, fp1 = rows[(best_t, True, False)].fp, rows[(best_t, True, True)].fp
print(f"\nmeta filter at t={best_t} (boosted): fp {fp0} -> {fp1}")

# Second: pixel-level AuPRC of the entropy score, per training variant.
gts = [scene.gt for scene in bench.scenes]
auprc_boost = oodseg.pixel_pr_curve([oodseg.entropy_map(s.prob_boosted) for s in bench.scenes], gts)
auprc_plain = oodseg.pixel_pr_curve([oodseg.entropy_map(s.prob_plain) for s in bench.scenes], gts)
print(f"pixel AuPRC: boosted {auprc_boost.auprc:.3f} vs plain {auprc_plain.auprc:.3f}")

# Optional: plot the two precision-recall curves.
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(5, 4))
    for curve, label in [(auprc_boost, "OoD-aware training"), (auprc_plain, "plain training")]:
        ax.step(curve.recalls, curve.precisions, where="post",
                label=f"{label} (AuPRC {curve.auprc:.3f})")
    ax.set_xlabel("recall")
    ax.set_ylabel("precision")
    ax.legend()
    fig.tight_layout()
    fig.savefig("pr_curves.png", dpi=120)
    print("wrote pr_curves.png")
