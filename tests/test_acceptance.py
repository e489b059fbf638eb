"""Acceptance gate: one test per shipped guarantee.

Full-scale detection quality depends on a trained segmentation network and
real street-scene data, which a library test suite cannot carry. The gate
therefore pins what is checkable on a desk: exact values against independent
oracles, structural invariants with zero tolerance, directional results on
the seeded synthetic benchmark, and runtime ceilings. ``pytest -v`` prints
one pass/fail line per criterion.
"""

import time

import numpy as np

import oodseg

from _oracles import (
    brute_force_pr,
    entropy_exact,
    flood_fill_components,
    logistic_gradient_fd,
)
from conftest import SWEEP_MIN_SIZE, pixel_lists


def test_criterion_1_desk_scale_substitute():
    """The reference benchmark is a seeded synthetic stand-in, not real data.

    Everything downstream (criteria 6-8) runs on scenes that regenerate
    bit-identically from a config, at sizes a laptop handles in seconds;
    property- and direction-based checks take the place of full-scale
    network results.
    """
    cfg = oodseg.DEFAULT_CONFIG
    assert (cfg.height, cfg.width) == (128, 128)
    assert oodseg.DEFAULT_N_SCENES == 20
    a, _, _ = oodseg.generate_scene(cfg)
    b, _, _ = oodseg.generate_scene(oodseg.SceneConfig())
    np.testing.assert_array_equal(a, b)


def test_criterion_2_score_values_and_runtime():
    """Entropy/margin hit their closed-form endpoints within 1e-7, the skewed
    four-class pixel matches the arbitrary-precision oracle within 1e-5, and
    a 2048x1024x19 float32 map scores in under 2 s single-threaded."""
    for dtype in (np.float32, np.float64):
        for c in (2, 4, 19):
            uniform = np.full((1, 1, c), 1.0 / c, dtype=dtype)
            uniform /= uniform.sum(axis=2, keepdims=True)
            one_hot = np.zeros((1, 1, c), dtype=dtype)
            one_hot[0, 0, 0] = 1.0
            assert abs(float(oodseg.entropy_map(uniform)[0, 0]) - 1.0) < 1e-7
            assert abs(float(oodseg.entropy_map(one_hot)[0, 0])) < 1e-7
            assert abs(float(oodseg.margin_map(uniform)[0, 0]) - 1.0) < 1e-7
            assert abs(float(oodseg.margin_map(one_hot)[0, 0])) < 1e-7

    skewed = np.asarray([0.7, 0.1, 0.1, 0.1], dtype=np.float32).reshape(1, 1, 4)
    expected = entropy_exact([0.7, 0.1, 0.1, 0.1])
    assert abs(float(oodseg.entropy_map(skewed)[0, 0]) - expected) < 1e-5

    rng = np.random.default_rng(2)
    raw = rng.gamma(1.0, size=(2048, 1024, 19)).astype(np.float32)
    prob = raw / raw.sum(axis=2, keepdims=True)
    start = time.perf_counter()
    score = oodseg.entropy_map(prob)
    elapsed = time.perf_counter() - start
    assert score.shape == (2048, 1024)
    assert elapsed < 2.0, f"entropy over 2048x1024x19 took {elapsed:.2f} s"


def test_criterion_3_component_partition_oracle():
    """Component extraction equals the flood-fill oracle on 1000 seeded
    32x32 masks under 8-connectivity; zero mismatches."""
    rng = np.random.default_rng(3)
    mismatches = 0
    for _ in range(1000):
        density = rng.uniform(0.1, 0.9)
        mask = rng.random((32, 32)) < density
        mismatches += pixel_lists(oodseg.connected_components(mask)) != flood_fill_components(mask, 8)
    assert mismatches == 0


def test_criterion_4_irls_convergence_and_gradients():
    """On a seeded 2-D Gaussian two-class dataset (n=400) the Newton fit
    reaches gradient infinity-norm < 1e-8 within 50 iterations, the analytic
    gradient matches central differences within 1e-6 relative at 20 random
    points, and refitting is bit-exact."""
    rng = np.random.default_rng(4)
    x_raw = np.concatenate([
        rng.standard_normal((200, 2)) - 1.0,
        rng.standard_normal((200, 2)) + 1.0,
    ])
    y = np.concatenate([np.zeros(200), np.ones(200)])
    x, _, _, _ = oodseg.standardize_fit(x_raw)
    lam = 1e-3

    model = oodseg.fit_logistic(x, y, l2_lambda=lam)
    assert model.grad_norm < 1e-8
    assert model.n_iter <= 50

    for _ in range(20):
        theta = rng.uniform(-0.8, 0.8, 3)
        w, b = theta[:2], theta[2]
        mu = 1.0 / (1.0 + np.exp(-(x @ w + b)))
        g_an = np.concatenate([x.T @ (y - mu) - lam * w, [(y - mu).sum() - lam * b]])
        g_fd = logistic_gradient_fd(x, y, w, b, lam)
        assert np.all(np.abs(g_an - g_fd) <= 1e-6 * np.maximum(1.0, np.abs(g_fd)))

    refit = oodseg.fit_logistic(x, y, l2_lambda=lam)
    np.testing.assert_array_equal(refit.weights, model.weights)
    assert refit.bias == model.bias
    assert refit.n_iter == model.n_iter


def test_criterion_5_auprc_oracles():
    """AuPRC: perfect separation gives exactly 1.0, constant scores give the
    positive prevalence within 1e-12, and 64x64 seeded scenes match the
    brute-force cutoff oracle within 1e-10."""
    gt = np.zeros((8, 8), dtype=np.int32)
    gt[:3] = oodseg.OOD_ID
    separated = np.where(gt == oodseg.OOD_ID, 0.75, 0.25).astype(np.float32)
    assert oodseg.pixel_pr_curve(separated, gt).auprc == 1.0

    constant = np.full((8, 8), 0.5, dtype=np.float32)
    prevalence = float((gt == oodseg.OOD_ID).mean())
    assert abs(oodseg.pixel_pr_curve(constant, gt).auprc - prevalence) < 1e-12

    rng = np.random.default_rng(5)
    for _ in range(5):
        gt = np.where(rng.random((64, 64)) < 0.12, oodseg.OOD_ID, 0).astype(np.int32)
        scores = np.round(
            rng.random((64, 64)) + 0.3 * (gt == oodseg.OOD_ID), 2
        ).clip(0.0, 1.0).astype(np.float32)
        _, expected = brute_force_pr(scores, gt == oodseg.OOD_ID)
        assert abs(oodseg.pixel_pr_curve(scores, gt).auprc - expected) < 1e-10


def test_criterion_6_benchmark_directions(bench20, sweep_result):
    """On the default 20-scene benchmark: (a) the meta filter strictly lowers
    segment-FP at every threshold while never lowering FN, with >= 30% FP
    reduction at the FP+FN-minimizing threshold; (b) the entropy-boosted
    variant beats the plain one by >= 0.2 AuPRC; (c) the mIoU loss of both
    variants is exactly 0.0 (boosting rewrites only OoD pixels)."""
    rows = {(r.t, r.ood_training, r.meta): r for r in sweep_result.rows}
    grid = sorted({r.t for r in sweep_result.rows})

    # (a) segment-level FP/FN direction
    for boosted in (False, True):
        for t in grid:
            plain, meta = rows[(t, boosted, False)], rows[(t, boosted, True)]
            assert meta.fp < plain.fp, f"t={t} boosted={boosted}: {meta.fp} !< {plain.fp}"
            assert meta.fn >= plain.fn
        best_t = min(grid, key=lambda t: rows[(t, boosted, False)].fp + rows[(t, boosted, False)].fn)
        fp_before = rows[(best_t, boosted, False)].fp
        fp_after = rows[(best_t, boosted, True)].fp
        reduction = (fp_before - fp_after) / fp_before
        assert reduction >= 0.30, f"FP reduction {reduction:.2%} at t={best_t}"
        print(f"boosted={boosted}: FP {fp_before} -> {fp_after} ({reduction:.0%}) at t={best_t}")

    # (b) pixel-level AuPRC gap between training variants
    gts = [scene.gt for scene in bench20.scenes]
    boosted_auprc = oodseg.pixel_pr_curve(
        [oodseg.entropy_map(s.prob_boosted) for s in bench20.scenes], gts
    ).auprc
    plain_auprc = oodseg.pixel_pr_curve(
        [oodseg.entropy_map(s.prob_plain) for s in bench20.scenes], gts
    ).auprc
    print(f"AuPRC boosted={boosted_auprc:.4f} plain={plain_auprc:.4f}")
    assert boosted_auprc - plain_auprc >= 0.2

    # (c) segmentation cost of the pipeline
    assert all(row.miou_loss == 0.0 for row in sweep_result.rows)
    assert all(row.miou_loss <= 1.0 for row in sweep_result.rows)


def test_criterion_7_pixel_monotonicity(bench20):
    """Raising the threshold across the full grid only shrinks the flagged
    pixel set, and pixel-level FP counts never increase; zero violations
    over all scenes and both variants."""
    nesting_violations = 0
    fp_violations = 0
    for scene in bench20.scenes:
        negatives = (scene.gt != oodseg.OOD_ID) & (scene.gt != oodseg.IGNORE_ID)
        for prob in (scene.prob_plain, scene.prob_boosted):
            ent = oodseg.entropy_map(prob)
            prev_mask = None
            prev_fp = None
            for t in oodseg.DEFAULT_GRID:
                mask = oodseg.threshold_mask(ent, t)
                fp = int((mask & negatives).sum())
                if prev_mask is not None:
                    nesting_violations += int((mask & ~prev_mask).sum())
                    fp_violations += int(fp > prev_fp)
                prev_mask, prev_fp = mask, fp
    assert nesting_violations == 0
    assert fp_violations == 0


def test_criterion_8_end_to_end_runtime(tmp_path, meta_model):
    """Generating the full 20-scene benchmark on disk, loading it back and
    sweeping all four combinations over the seven-threshold grid stays under
    60 s single-threaded."""
    start = time.perf_counter()
    out = tmp_path / "bench"
    oodseg.generate_benchmark(oodseg.DEFAULT_CONFIG, oodseg.DEFAULT_N_SCENES, out)
    bench = oodseg.load_benchmark(out)
    result = oodseg.sweep(
        bench, oodseg.DEFAULT_GRID, model=meta_model, min_size=SWEEP_MIN_SIZE, jobs=1
    )
    elapsed = time.perf_counter() - start
    assert len(result.rows) == len(oodseg.DEFAULT_GRID) * 4
    print(f"generate + load + sweep: {elapsed:.2f} s")
    assert elapsed < 60.0, f"end-to-end run took {elapsed:.2f} s"
