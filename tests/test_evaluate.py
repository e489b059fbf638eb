import csv
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oodseg
from oodseg import ConfigError, DomainError, IoError, SchemaError, ValidationError

from _oracles import (
    argsort_pr_curve,
    brute_force_pr,
    naive_match_counts,
    naive_miou,
    per_threshold_sweep_counts,
    per_threshold_training_table,
    stepwise_auprc,
)
from conftest import (IDS_OUTSIDE, HUGE, HUGE_NEGATIVE, NEGATIVE_LABELS, SHOWN, pixel_lists,
                      table_with_negative_label, table_with_second_id, traced_peak)

SMALL_GRID = (0.3, 0.6)


@pytest.fixture(scope="module")
def small_bench():
    cfg = oodseg.SceneConfig(
        height=32,
        width=32,
        num_classes=5,
        n_regions=8,
        n_ood_blobs=2,
        blob_radius_range=(3.0, 5.0),
        seed=123,
    )
    return oodseg.build_benchmark(cfg, n_scenes=3)


@pytest.fixture(scope="module")
def small_model(small_bench):
    features, labels = oodseg.build_training_table(small_bench, SMALL_GRID)
    return oodseg.fit_meta(features, labels)


def _segments_on(mask):
    return oodseg.connected_components(np.asarray(mask, dtype=bool))


def _no_segments(shape):
    return _segments_on(np.zeros(shape, dtype=bool))


class TestMatchSegments:
    def _gt(self):
        gt = np.zeros((8, 8), dtype=np.int32)
        gt[1:3, 1:3] = oodseg.OOD_ID  # one 4-pixel component
        gt[6, 6] = oodseg.OOD_ID      # one 1-pixel component
        gt[0, 7] = oodseg.IGNORE_ID
        return gt

    @pytest.mark.parametrize("second_id", IDS_OUTSIDE)
    def test_segment_ids_outside_the_label_image_are_rejected(self, second_id):
        gt = np.zeros((6, 7), dtype=np.int32)
        gt[4, 1:6] = oodseg.OOD_ID
        message = f"^segment id {second_id} is outside the label image, whose largest label is 2$"
        with pytest.raises(SchemaError, match=message):
            oodseg.match_segments(table_with_second_id(second_id), gt)

    @pytest.mark.parametrize("pixel, label", NEGATIVE_LABELS)
    def test_negative_labels_are_rejected(self, pixel, label):
        message = f"pixel {pixel}: negative label {label} in the label image"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            oodseg.match_segments(table_with_negative_label(pixel, label), np.zeros((6, 7), dtype=np.int32))

    def test_a_stacked_label_image_is_rejected(self):
        # The segment covers the gt object in block 1 of a stack; counting the
        # gt object once per block would score it both hit and missed.
        gt = np.zeros((6, 6), dtype=np.int32)
        gt[1:3, 1:3] = oodseg.OOD_ID
        image = (gt == oodseg.OOD_ID).astype(np.int32)
        table = oodseg.SegmentTable(ids=np.zeros(1, dtype=np.int64), bboxes=np.array([[1, 1, 2, 2]]), features=None,
                                    sizes=np.array([4]), label_image=image)
        assert oodseg.match_segments(table, gt)[:3] == (1, 0, 0)
        stacked = replace(table, label_image=np.stack([np.zeros_like(image), image]))
        message = "segment label image must be a rank-2 int32 array, got rank-3 int32"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            oodseg.match_segments(stacked, gt)

    def test_empty_everything(self):
        result = oodseg.match_segments(_no_segments((4, 4)), np.zeros((4, 4), dtype=np.int32))
        assert (result.tp, result.fp, result.fn) == (0, 0, 0)

    def test_no_predictions_counts_all_components_as_missed(self):
        result = oodseg.match_segments(_no_segments((8, 8)), self._gt())
        assert (result.tp, result.fp, result.fn) == (0, 0, 2)

    def test_exact_hit(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[1:3, 1:3] = True
        segs = _segments_on(mask)
        result = oodseg.match_segments(segs, self._gt())
        assert (result.tp, result.fp, result.fn) == (1, 0, 1)
        np.testing.assert_array_equal(oodseg.label_segments(segs, self._gt(), 0.5), [1])

    def test_miss_is_a_false_positive(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[4:6, 0:2] = True
        result = oodseg.match_segments(_segments_on(mask), self._gt())
        assert (result.tp, result.fp, result.fn) == (0, 1, 2)

    def test_coverage_boundary_is_inclusive(self):
        # segment with exactly half of its pixels on OoD counts as tp at 0.5
        mask = np.zeros((8, 8), dtype=bool)
        mask[1:3, 1:3] = True   # 4 pixels on the component
        mask[4:6, 1:3] = True   # 4 pixels off it, 4-adjacent so one segment? no: rows 3 is a gap
        mask[3, 1:3] = True     # bridge so it is one 10-pixel segment... recompute below
        segs = _segments_on(mask)
        assert len(segs) == 1
        values = self._gt()[segs.label_image == 1]
        ratio = (values == oodseg.OOD_ID).sum() / len(values)
        result = oodseg.match_segments(segs, self._gt(), coverage=float(ratio))
        assert result.tp == 1
        result = oodseg.match_segments(segs, self._gt(), coverage=min(1.0, float(ratio) + 0.01))
        assert result.tp == 0

    def test_gt_components_use_8_connectivity(self):
        gt = np.zeros((4, 4), dtype=np.int32)
        gt[0, 0] = oodseg.OOD_ID
        gt[1, 1] = oodseg.OOD_ID  # diagonal: one component, not two
        result = oodseg.match_segments(_no_segments((4, 4)), gt)
        assert result.fn == 1

    def test_union_of_fragments_detects_a_component(self):
        gt = np.zeros((4, 8), dtype=np.int32)
        gt[1, 1:7] = oodseg.OOD_ID  # 6-pixel strip
        mask = np.zeros((4, 8), dtype=bool)
        mask[1, 1:3] = True
        mask[1, 5:7] = True  # two fragments, 4 of 6 pixels covered
        result = oodseg.match_segments(_segments_on(mask), gt)
        assert result.fn == 0
        assert result.tp == 2  # each fragment lies fully on OoD

    def test_ignore_only_segment_is_neither_tp_nor_fp(self):
        gt = np.full((3, 3), oodseg.IGNORE_ID, dtype=np.int32)
        gt[0, 0] = 0
        mask = np.zeros((3, 3), dtype=bool)
        mask[2, :] = True
        segs = _segments_on(mask)
        result = oodseg.match_segments(segs, gt)
        assert (result.tp, result.fp, result.fn) == (0, 0, 0)
        np.testing.assert_array_equal(oodseg.label_segments(segs, gt, 0.5), [-1])

    @pytest.mark.parametrize("coverage", [0.0, -0.5, 1.01])
    def test_coverage_domain(self, coverage):
        with pytest.raises(DomainError):
            oodseg.match_segments(_no_segments((2, 2)), np.zeros((2, 2), dtype=np.int32), coverage=coverage)

    def test_gt_rank_check(self):
        with pytest.raises(SchemaError):
            oodseg.match_segments(_no_segments((2, 2)), np.zeros(4, dtype=np.int32))

    def test_table_read_from_csv_is_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        segs = oodseg.extract_segments(np.full((8, 8, 2), 0.5, dtype=np.float32), t=0.5)
        oodseg.write_feature_csv(segs, path)
        with pytest.raises(DomainError, match="label image"):
            oodseg.match_segments(oodseg.read_feature_csv(path), self._gt())

    def test_matches_brute_force_counter(self, rng):
        values = np.array([0, 1, oodseg.OOD_ID, oodseg.IGNORE_ID], dtype=np.int32)
        for trial in range(60):
            gt = rng.choice(values, size=(16, 16), p=[0.45, 0.2, 0.25, 0.1])
            segs = _segments_on(rng.random((16, 16)) < 0.35)
            coverage = float(rng.uniform(0.2, 0.9))
            pixel_sets = [set(pixels) for pixels in pixel_lists(segs)]
            # A meta-kept sub-table shares the label image that still holds
            # the removed segments; only the selected rows may count.
            keep = rng.random(len(segs)) < 0.5
            for table, sets in ((segs, pixel_sets), (segs[keep], [s for s, k in zip(pixel_sets, keep) if k])):
                result = oodseg.match_segments(table, gt, coverage)
                assert (result.tp, result.fp, result.fn) == naive_match_counts(sets, gt, coverage)

    def test_traced_peak_holds_no_segments_by_components_table(self, rng):
        # A frame-sized label image of 2x2 segments on a 4-pixel lattice and a
        # gt of 3x3 OoD blobs on a 12-pixel lattice. A dense segments x
        # components table would take gigabytes; labelling the gt alone
        # peaks near 1.75 times the label image.
        shape = (1024, 2048)
        rows, cols = np.indices(shape)
        cell = (rows // 4) * (shape[1] // 4) + cols // 4
        segs = _segments_on((rows % 4 < 2) & (cols % 4 < 2) & (rng.random(cell.max() + 1) < 0.5)[cell])
        gt = rng.choice(np.array([0, 1, oodseg.IGNORE_ID], dtype=np.int32), size=shape, p=[0.5, 0.4, 0.1])
        blob = (rows // 12) * (shape[1] // 12 + 1) + cols // 12
        gt[(rows % 12 < 3) & (cols % 12 < 3) & (rng.random(blob.max() + 1) < 0.8)[blob]] = oodseg.OOD_ID
        del rows, cols, cell, blob
        assert len(segs) >= 50_000 and len(oodseg.connected_components(gt == oodseg.OOD_ID)) >= 10_000
        result, peak = traced_peak(lambda: oodseg.match_segments(segs, gt))
        assert result.tp > 0 and result.fn > 0
        assert peak <= 2 * segs.label_image.nbytes, peak / segs.label_image.nbytes

    def test_counts_are_consistent_with_segment_labels(self, rng):
        gt = rng.choice(np.array([0, oodseg.OOD_ID, oodseg.IGNORE_ID], dtype=np.int32), size=(12, 12),
                        p=[0.6, 0.3, 0.1])
        segs = _segments_on(rng.random((12, 12)) < 0.4)
        for table in (segs, segs[rng.random(len(segs)) < 0.5]):
            for coverage in (0.3, 0.5, 0.8):
                tp, fp, _ = oodseg.match_segments(table, gt, coverage)
                labels = oodseg.label_segments(table, gt, coverage)
                assert (tp, fp) == ((labels == 1).sum(), (labels == 0).sum())


class TestMiou:
    def test_perfect_prediction(self):
        gt = np.arange(12, dtype=np.int32).reshape(3, 4) % 3
        assert oodseg.miou(gt.copy(), gt, num_classes=3) == 1.0

    def test_half_right_single_class(self):
        gt = np.zeros((2, 2), dtype=np.int32)
        pred = np.array([[0, 0], [1, 1]], dtype=np.int32)
        # inter = 2, union = 4 gt + 2 pred - 2 = 4 -> IoU 0.5; class 1 absent in gt
        assert oodseg.miou(pred, gt, num_classes=2) == 0.5

    def test_ood_and_ignore_pixels_carry_no_penalty(self):
        gt = np.zeros((2, 3), dtype=np.int32)
        gt[0, 1] = oodseg.OOD_ID
        gt[1, 1] = oodseg.IGNORE_ID
        pred = np.zeros((2, 3), dtype=np.int32)
        pred[0, 1] = 1  # wrong only where gt is OoD
        pred[1, 1] = 1  # wrong only where gt is ignore
        assert oodseg.miou(pred, gt, num_classes=2) == 1.0

    def test_all_pixels_reserved_raises(self):
        gt = np.full((2, 2), oodseg.OOD_ID, dtype=np.int32)
        with pytest.raises(DomainError):
            oodseg.miou(np.zeros((2, 2), dtype=np.int32), gt, num_classes=2)

    def test_matches_naive_loop(self, rng):
        for _ in range(20):
            gt = rng.integers(0, 5, (24, 24)).astype(np.int32)
            reserved = rng.random((24, 24))
            gt[reserved > 0.9] = oodseg.OOD_ID
            gt[reserved < 0.05] = oodseg.IGNORE_ID
            pred = rng.integers(0, 5, (24, 24)).astype(np.int32)
            # make the prediction mostly right so per-class unions vary
            agree = rng.random((24, 24)) < 0.7
            pred[agree] = np.where(gt[agree] < 5, gt[agree], pred[agree])
            assert_allclose(
                oodseg.miou(pred, gt, num_classes=5), naive_miou(pred, gt, 5), rtol=1e-12
            )

    def test_class_range_validation(self):
        gt = np.zeros((2, 2), dtype=np.int32)
        pred = np.full((2, 2), 7, dtype=np.int32)
        with pytest.raises(ValidationError):
            oodseg.miou(pred, gt, num_classes=3)
        with pytest.raises(ValidationError):
            oodseg.miou(gt, pred, num_classes=3)

    def test_shape_mismatch(self):
        with pytest.raises(SchemaError):
            oodseg.miou(np.zeros((2, 2), dtype=np.int32), np.zeros((2, 3), dtype=np.int32), 2)

    def test_class_id_out_of_range_names_the_pixel(self):
        gt, pred = np.zeros((3, 4), dtype=np.int32), np.zeros((3, 4), dtype=np.int32)
        gt[0, 3], gt[1, 2], pred[2, 1] = oodseg.IGNORE_ID, 77, -3
        with pytest.raises(ValidationError, match=r"^pixel \(1, 2\): ground truth class id 77 outside 0\.\.10$"):
            oodseg.miou(pred, gt, num_classes=11)
        gt[1, 2] = 0
        with pytest.raises(ValidationError, match=r"^pixel \(2, 1\): prediction class id -3 outside 0\.\.10$"):
            oodseg.miou(pred, gt, num_classes=11)

    @pytest.mark.parametrize("dtype", [np.float32, bool, complex])
    def test_class_maps_must_be_integer(self, dtype):
        gt = np.zeros((2, 2), dtype=np.int32)
        for pred, gt_, name in ((gt.astype(dtype), gt, "prediction"), (gt, gt.astype(dtype), "ground truth")):
            message = f"{name} must be a rank-2 integer array, got rank-2 {np.dtype(dtype)}"
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                oodseg.miou(pred, gt_, num_classes=2)

    @pytest.mark.parametrize(
        "num_classes,shown",
        [("x", "'x'"), (2.5, "2.5"), (1, "1"), (True, "True"), (np.float64(3.0), "3.0"),
         pytest.param(HUGE_NEGATIVE, SHOWN[HUGE_NEGATIVE], id="huge-negative")],
    )
    def test_class_count_must_be_an_integer_of_at_least_two(self, num_classes, shown):
        gt = np.zeros((2, 2), dtype=np.int32)
        with pytest.raises(DomainError, match=f"^num_classes must be an integer >= 2, got {re.escape(shown)}$"):
            oodseg.miou(gt, gt, num_classes)


class TestPixelPrCurve:
    def test_perfect_separation_scores_exactly_one(self):
        gt = np.zeros((4, 4), dtype=np.int32)
        gt[:2] = oodseg.OOD_ID
        scores = np.where(gt == oodseg.OOD_ID, 0.9, 0.1).astype(np.float32)
        curve = oodseg.pixel_pr_curve(scores, gt)
        assert curve.auprc == 1.0

    def test_constant_scores_give_prevalence(self):
        gt = np.zeros((5, 8), dtype=np.int32)
        gt[0] = oodseg.OOD_ID  # 8 of 40 pixels -> prevalence 0.2
        scores = np.full((5, 8), 0.5, dtype=np.float32)
        curve = oodseg.pixel_pr_curve(scores, gt)
        assert curve.cutoffs.shape == (1,)
        assert_allclose(curve.auprc, 0.2, rtol=1e-12)
        assert curve.recalls[-1] == 1.0

    def test_matches_brute_force(self, rng):
        gt = np.where(rng.random((64, 64)) < 0.1, oodseg.OOD_ID, 0).astype(np.int32)
        # quantized scores force plenty of ties
        scores = np.round(rng.random((64, 64)) + 0.4 * (gt == oodseg.OOD_ID), 2)
        scores = np.clip(scores, 0.0, 1.0).astype(np.float32)
        curve = oodseg.pixel_pr_curve(scores, gt)
        points, auprc = brute_force_pr(scores, gt == oodseg.OOD_ID)
        assert curve.cutoffs.shape[0] == len(points)
        for i, (cut, precision, recall) in enumerate(points):
            assert_allclose(curve.cutoffs[i], cut, rtol=1e-12)
            assert_allclose(curve.precisions[i], precision, rtol=1e-10)
            assert_allclose(curve.recalls[i], recall, rtol=1e-10)
        assert_allclose(curve.auprc, auprc, rtol=1e-10)

    @pytest.mark.parametrize("case", ["tied", "single_positive", "pooled", "continuous"])
    def test_auprc_bit_equal_to_stepwise_oracle(self, rng, case):
        for trial in range(10):
            gts, scores = [], []
            for _ in range(3 if case == "pooled" else 1):
                gt = np.where(rng.random((32, 32)) < 0.15, oodseg.OOD_ID, 0).astype(np.int32)
                gt[rng.random((32, 32)) < 0.05] = oodseg.IGNORE_ID
                gts.append(gt)
                scores.append(rng.random((32, 32)).astype(np.float32))
            if case == "tied":
                scores = [np.round(s, 1) for s in scores]
            if case == "single_positive":
                gts[0][gts[0] == oodseg.OOD_ID] = 0
                gts[0][5, 7] = oodseg.OOD_ID
            curve = oodseg.pixel_pr_curve(scores, gts)
            assert curve.auprc == stepwise_auprc(curve.recalls, curve.precisions), trial

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("values", ["signed_zero_ties", "continuous", "signed_zeros_among_100k_cutoffs"])
    def test_equal_to_argsort_oracle(self, rng, dtype, values):
        many = values == "signed_zeros_among_100k_cutoffs"
        for _ in range(1 if many else 20):
            shape = (250, 250) if many else tuple(int(v) for v in rng.integers(1, 12, size=2))
            if values == "signed_zero_ties":
                scores = [rng.choice(np.array([-0.0, 0.0, 0.25, 1.0], dtype=dtype), size=shape) for _ in range(3)]
            else:
                scores = [rng.random(shape).astype(dtype) for _ in range(3)]
            if many:
                for s in scores:
                    s.flat[rng.choice(s.size, 50, replace=False)] = rng.choice(np.array([-0.0, 0.0], dtype=dtype), 50)
            gts = [rng.choice(np.array([0, oodseg.OOD_ID, oodseg.IGNORE_ID]), size=shape) for _ in range(3)]
            gts[0].flat[0] = oodseg.OOD_ID
            curve = oodseg.pixel_pr_curve(scores, gts)
            cutoffs, precisions, recalls, auprc = argsort_pr_curve(scores, gts)
            assert curve.cutoffs.size > (100_000 if many else 0)
            assert curve.cutoffs.dtype == np.float64
            assert curve.cutoffs.tobytes() == cutoffs.tobytes()  # the sign of a zero included
            assert curve.precisions.tobytes() == precisions.tobytes()
            assert curve.recalls.tobytes() == recalls.tobytes()
            assert curve.auprc == auprc

    def test_traced_peak_stays_near_the_output(self, rng):
        # A W1-sized pooled input: 20 maps of 128^2 with about as many
        # distinct cutoffs as pixels. The three float64 outputs are the floor.
        scores = list(rng.random((20, 128, 128), dtype=np.float32))
        gts = list(np.where(rng.random((20, 128, 128)) < 0.05, oodseg.OOD_ID, 0).astype(np.int32))
        curve, peak = traced_peak(lambda: oodseg.pixel_pr_curve(scores, gts))
        output = curve.cutoffs.nbytes + curve.precisions.nbytes + curve.recalls.nbytes
        assert curve.cutoffs.size > 300_000
        assert peak <= 2.0 * output, peak / output

    def test_nan_score_is_rejected_unless_ignored(self):
        scores = [np.full((2, 3), 0.5, dtype=np.float32) for _ in range(2)]
        gts = [np.full((2, 3), oodseg.OOD_ID, dtype=np.int32) for _ in range(2)]
        scores[1][1, 0] = np.nan
        gts[1][1, 0] = oodseg.IGNORE_ID
        oodseg.pixel_pr_curve(scores, gts)
        scores[1][0, 2] = np.nan
        with pytest.raises(ValidationError, match=r"^score map 1, pixel \(0, 2\): NaN score$"):
            oodseg.pixel_pr_curve(scores, gts)

    @pytest.mark.parametrize("dtype", [complex, object, "U3", "datetime64[s]"])
    def test_score_maps_must_be_real(self, dtype):
        gts = [np.full((4, 5), oodseg.OOD_ID, dtype=np.int32) for _ in range(2)]
        scores = [np.full((4, 5), 0.5, dtype=np.float32), np.full((4, 5), 0.5).astype(dtype)]
        message = f"score map 1 must be a rank-2 boolean or real array, got rank-2 {np.dtype(dtype)}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            oodseg.pixel_pr_curve(scores, gts)

    def test_zero_positives_raise(self):
        with pytest.raises(DomainError):
            oodseg.pixel_pr_curve(
                np.zeros((2, 2), dtype=np.float32), np.zeros((2, 2), dtype=np.int32)
            )

    def test_no_maps_raise_a_domain_error(self):
        with pytest.raises(DomainError, match="positive pixel"):
            oodseg.pixel_pr_curve([], [])

    def test_ignore_pixels_are_dropped(self):
        gt = np.array([[oodseg.OOD_ID, 0], [oodseg.IGNORE_ID, oodseg.IGNORE_ID]], dtype=np.int32)
        # the ignored pixels carry the highest scores; with them the first
        # cutoff would have precision 0
        scores = np.array([[0.8, 0.1], [0.9, 0.95]], dtype=np.float32)
        curve = oodseg.pixel_pr_curve(scores, gt)
        assert curve.precisions[0] == 1.0
        assert curve.auprc == 1.0

    def test_pooling_equals_concatenation(self, rng):
        gts, scores = [], []
        for _ in range(3):
            gt = np.where(rng.random((10, 10)) < 0.2, oodseg.OOD_ID, 0).astype(np.int32)
            gts.append(gt)
            scores.append(rng.random((10, 10)).astype(np.float32))
        pooled = oodseg.pixel_pr_curve(scores, gts)
        merged = oodseg.pixel_pr_curve(
            np.concatenate([s.ravel() for s in scores]).reshape(1, -1),
            np.concatenate([g.ravel() for g in gts]).reshape(1, -1),
        )
        assert_allclose(pooled.auprc, merged.auprc, rtol=1e-12)
        np.testing.assert_array_equal(pooled.cutoffs, merged.cutoffs)

    def test_curve_shape_invariants(self, rng):
        gt = np.where(rng.random((20, 20)) < 0.15, oodseg.OOD_ID, 0).astype(np.int32)
        scores = rng.random((20, 20)).astype(np.float32)
        curve = oodseg.pixel_pr_curve(scores, gt)
        assert np.all(np.diff(curve.cutoffs) < 0)       # strictly descending cutoffs
        assert np.all(np.diff(curve.recalls) >= 0)      # recall never drops
        assert curve.recalls[-1] == 1.0
        assert np.all((curve.precisions >= 0) & (curve.precisions <= 1))
        assert curve.precisions[-1] == pytest.approx((gt == oodseg.OOD_ID).mean())

    def test_shape_checks(self):
        with pytest.raises(SchemaError):
            oodseg.pixel_pr_curve(
                [np.zeros((2, 2), dtype=np.float32)], []
            )
        with pytest.raises(SchemaError):
            oodseg.pixel_pr_curve(
                np.zeros((2, 2), dtype=np.float32), np.zeros((2, 3), dtype=np.int32)
            )


class TestSweep:
    def test_row_structure_with_model(self, small_bench, small_model):
        result = oodseg.sweep(small_bench, SMALL_GRID, model=small_model)
        assert len(result.rows) == len(SMALL_GRID) * 4
        combos = [(r.t, r.ood_training, r.meta) for r in result.rows]
        expected = [
            (t, boosted, meta)
            for t in SMALL_GRID
            for boosted in (False, True)
            for meta in (False, True)
        ]
        assert combos == expected

    def test_row_structure_without_model(self, small_bench):
        result = oodseg.sweep(small_bench, SMALL_GRID)
        assert len(result.rows) == len(SMALL_GRID) * 2
        assert all(r.meta is False for r in result.rows)

    def test_counts_equal_manual_per_scene_sums(self, small_bench, small_model):
        result = oodseg.sweep(small_bench, SMALL_GRID, model=small_model)
        by_combo = {(r.t, r.ood_training, r.meta): r for r in result.rows}
        for t in SMALL_GRID:
            for boosted in (False, True):
                totals = {False: np.zeros(3, dtype=int), True: np.zeros(3, dtype=int)}
                for scene in small_bench.scenes:
                    prob = scene.prob_boosted if boosted else scene.prob_plain
                    segs = oodseg.extract_segments(prob, t)
                    m = oodseg.match_segments(segs, scene.gt)
                    totals[False] += (m.tp, m.fp, m.fn)
                    kept, _ = oodseg.apply_meta_filter(segs, small_model)
                    mk = oodseg.match_segments(kept, scene.gt)
                    totals[True] += (mk.tp, mk.fp, mk.fn)
                for meta in (False, True):
                    row = by_combo[(t, boosted, meta)]
                    assert (row.tp, row.fp, row.fn) == tuple(totals[meta])

    def test_reference_miou_matches_pooled_confusion(self, small_bench):
        result = oodseg.sweep(small_bench, SMALL_GRID)
        c = small_bench.config.num_classes
        inter = np.zeros(c)
        gt_count = np.zeros(c)
        pred_count = np.zeros(c)
        for scene in small_bench.scenes:
            pred = oodseg.argmax_map(scene.prob_plain)
            for r in range(scene.gt.shape[0]):
                for col in range(scene.gt.shape[1]):
                    g = int(scene.gt[r, col])
                    if g in (oodseg.OOD_ID, oodseg.IGNORE_ID):
                        continue
                    p = int(pred[r, col])
                    gt_count[g] += 1
                    pred_count[p] += 1
                    if p == g:
                        inter[g] += 1
        present = gt_count > 0
        expected = np.mean(
            inter[present] / (gt_count[present] + pred_count[present] - inter[present])
        )
        assert_allclose(result.reference_miou, expected, rtol=1e-12)

    def test_miou_loss_is_zero_for_both_variants(self, small_bench):
        # boosting rewrites only OoD pixels, which mIoU excludes
        result = oodseg.sweep(small_bench, SMALL_GRID)
        assert all(row.miou_loss == 0.0 for row in result.rows)

    def test_meta_filter_never_adds_false_positives(self, small_bench, small_model):
        result = oodseg.sweep(small_bench, SMALL_GRID, model=small_model)
        by_combo = {(r.t, r.ood_training, r.meta): r for r in result.rows}
        for t in SMALL_GRID:
            for boosted in (False, True):
                plain = by_combo[(t, boosted, False)]
                meta = by_combo[(t, boosted, True)]
                assert meta.fp <= plain.fp
                assert meta.fn >= plain.fn
                assert meta.tp <= plain.tp

    def test_worker_count_does_not_change_results(self, small_bench, small_model):
        serial = oodseg.sweep(small_bench, SMALL_GRID, model=small_model, jobs=1)
        parallel = oodseg.sweep(small_bench, SMALL_GRID, model=small_model, jobs=2)
        assert serial.rows == parallel.rows
        assert serial.reference_miou == parallel.reference_miou

    @pytest.mark.parametrize("jobs", [0, -3, 2.5, True])
    def test_invalid_worker_count_rejected(self, small_bench, jobs):
        with pytest.raises(DomainError, match="jobs"):
            oodseg.sweep(small_bench, SMALL_GRID, jobs=jobs)

    def test_grid_validation(self, small_bench):
        with pytest.raises(DomainError):
            oodseg.sweep(small_bench, [])
        with pytest.raises(DomainError):
            oodseg.sweep(small_bench, [0.5, 0.5])
        with pytest.raises(DomainError):
            oodseg.sweep(small_bench, [0.6, 0.3])
        with pytest.raises(DomainError):
            oodseg.sweep(small_bench, [-0.1, 0.5])

    @pytest.mark.parametrize(
        "grid,shown",
        [(0.5, "0.5"), (None, "None"), ("0.3,0.6", "'0.3,0.6'"), (np.float64(0.5), "0.5"),
         (np.array([[0.3, 0.6]]), "array([[0.3, 0.6]])")],
        ids=["float", "None", "str", "numpy-scalar", "2-D"],
    )
    def test_grid_that_is_not_a_1d_sequence_rejected(self, small_bench, grid, shown):
        message = f"threshold grid must be a 1-D sequence of numbers, got {shown}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            oodseg.sweep(small_bench, grid)

    def test_empty_benchmark_rejected(self, small_bench):
        with pytest.raises(ConfigError):
            oodseg.sweep(oodseg.Benchmark(config=small_bench.config, scenes=[]), SMALL_GRID)

    def test_missing_variant_rejected(self, small_bench):
        scene = small_bench.scenes[0]
        broken = oodseg.BenchScene(0, scene.gt, None, scene.prob_plain)
        with pytest.raises(ConfigError):
            oodseg.sweep(oodseg.Benchmark(config=small_bench.config, scenes=[broken]), SMALL_GRID)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_missing_variant_checked_before_any_work(self, small_bench, monkeypatch, jobs):
        def no_work(*args, **kwargs):
            raise AssertionError("sweep started work before checking its scenes")

        monkeypatch.setattr(oodseg.evaluate, "score_maps", no_work)
        monkeypatch.setattr(oodseg.synth, "ProcessPoolExecutor", no_work)
        scenes = [*small_bench.scenes[:2], replace(small_bench.scenes[2], prob_plain=None)]
        with pytest.raises(ConfigError, match="^scene 2 is missing a probability variant$"):
            oodseg.sweep(oodseg.Benchmark(config=small_bench.config, scenes=scenes), SMALL_GRID, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_model_of_another_width_checked_before_any_work(self, small_bench, monkeypatch, jobs):
        x = np.random.default_rng(3).standard_normal((12, 3))
        model = oodseg.fit_meta(x, (x[:, 0] > 0).astype(np.int64))

        def no_work(*args, **kwargs):
            raise AssertionError("sweep started work before checking the model")

        monkeypatch.setattr(oodseg.evaluate, "score_maps", no_work)
        monkeypatch.setattr(oodseg.synth, "ProcessPoolExecutor", no_work)
        with pytest.raises(SchemaError, match="^model has 3 weights, segments 15 features$"):
            oodseg.sweep(small_bench, SMALL_GRID, model=model, jobs=jobs)

    def test_gt_is_labelled_once_per_scene(self, small_bench, small_model, monkeypatch):
        calls = []
        label = oodseg.evaluate.connected_components

        def counting(*args, **kwargs):
            calls.append(1)
            return label(*args, **kwargs)

        monkeypatch.setattr(oodseg.evaluate, "connected_components", counting)
        oodseg.sweep(small_bench, SMALL_GRID, model=small_model)
        assert len(calls) == len(small_bench.scenes)
        oodseg.build_training_table(small_bench, SMALL_GRID)  # its labels need no gt components
        assert len(calls) == len(small_bench.scenes)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("coverage", [0.0, -0.5, 1.01])
    def test_coverage_checked_before_any_work(self, small_bench, monkeypatch, coverage, jobs):
        def no_work(*args, **kwargs):
            raise AssertionError("sweep started work before checking coverage")

        monkeypatch.setattr(oodseg.evaluate, "score_maps", no_work)
        monkeypatch.setattr(oodseg.synth, "ProcessPoolExecutor", no_work)
        with pytest.raises(DomainError, match="coverage"):
            oodseg.sweep(small_bench, SMALL_GRID, coverage=coverage, jobs=jobs)

    @pytest.mark.parametrize("jobs,shown", [(np.int64(0), "0"), (np.float64(2.0), "2.0"), ("2", "'2'"),
                                            pytest.param(HUGE_NEGATIVE, SHOWN[HUGE_NEGATIVE], id="huge-negative")])
    def test_worker_count_error_prints_a_plain_value(self, small_bench, jobs, shown):
        with pytest.raises(DomainError, match=f"^jobs must be an integer >= 1, got {re.escape(shown)}$"):
            oodseg.sweep(small_bench, SMALL_GRID, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "kwargs,message",
        [({"min_size": 2.5}, "min_size must be an integer >= 1, got 2.5")],
        ids=["min_size"],
    )
    def test_labelling_options_checked_before_any_work(self, small_bench, monkeypatch, kwargs, message, jobs):
        def no_work(*args, **kwargs):
            raise AssertionError("sweep started work before checking its labelling options")

        monkeypatch.setattr(oodseg.evaluate, "score_maps", no_work)
        monkeypatch.setattr(oodseg.synth, "ProcessPoolExecutor", no_work)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            oodseg.sweep(small_bench, SMALL_GRID, jobs=jobs, **kwargs)

    def test_default_grid_is_valid_and_spans_midrange(self):
        assert oodseg.DEFAULT_GRID[0] >= 0.1
        assert oodseg.DEFAULT_GRID[-1] <= 0.9
        assert list(oodseg.DEFAULT_GRID) == sorted(set(oodseg.DEFAULT_GRID))


class TestBuildTrainingTable:
    def test_shapes_and_label_values(self, small_bench):
        features, labels = oodseg.build_training_table(small_bench, SMALL_GRID)
        assert features.shape[1] == len(oodseg.FEATURE_NAMES)
        assert features.shape[0] == labels.shape[0] > 0
        assert set(np.unique(labels)) <= {0, 1}
        assert (labels == 1).any() and (labels == 0).any()

    def test_matches_manual_pooling(self, small_bench):
        bench1 = oodseg.Benchmark(config=small_bench.config, scenes=[small_bench.scenes[0]])
        features, labels = oodseg.build_training_table(bench1, SMALL_GRID)
        blocks, lab_blocks = [], []
        scene = small_bench.scenes[0]
        for prob in (scene.prob_plain, scene.prob_boosted):
            for t in SMALL_GRID:
                segs = oodseg.extract_segments(prob, t)
                if not segs:
                    continue
                lab = oodseg.label_segments(segs, scene.gt)
                keep = lab != -1
                if keep.any():
                    blocks.append(oodseg.features_matrix(segs)[keep])
                    lab_blocks.append(lab[keep])
        np.testing.assert_array_equal(features, np.concatenate(blocks))
        np.testing.assert_array_equal(labels, np.concatenate(lab_blocks))

    def test_grid_validation(self, small_bench):
        with pytest.raises(DomainError):
            oodseg.build_training_table(small_bench, [])

    @pytest.mark.parametrize("missing", ["prob_plain", "prob_boosted"])
    def test_missing_variant_rejected(self, small_bench, missing):
        scene = replace(small_bench.scenes[0], index=5, **{missing: None})
        with pytest.raises(ConfigError, match="scene 5"):
            oodseg.build_training_table(oodseg.Benchmark(config=small_bench.config, scenes=[scene]), SMALL_GRID)

    def test_missing_variant_checked_before_any_work(self, small_bench, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("build_training_table started work before checking its scenes")

        monkeypatch.setattr(oodseg.evaluate, "score_maps", no_work)
        scenes = [*small_bench.scenes[:2], replace(small_bench.scenes[2], prob_plain=None)]
        with pytest.raises(ConfigError, match="^scene 2 is missing a probability variant$"):
            oodseg.build_training_table(oodseg.Benchmark(config=small_bench.config, scenes=scenes), SMALL_GRID)

    @pytest.mark.parametrize(
        "scenes,kwargs,error,message",
        [
            ([], {}, ConfigError, "benchmark contains no scenes"),
            (None, {"tau_tp": 0.0}, DomainError, "tau_tp 0.0 outside (0, 1]"),
            (None, {"grid": (0.3, 1.5)}, DomainError, "threshold 1.5 outside [0, 1]"),
            (None, {"grid": None}, DomainError, "threshold grid must be a 1-D sequence of numbers, got None"),
            (None, {"grid": (0.3, "0.6")}, DomainError, "threshold must be a number in [0, 1], got '0.6'"),
            (None, {"min_size": 2.5}, DomainError, "min_size must be an integer >= 1, got 2.5"),
        ],
        ids=["no-scenes", "tau_tp", "grid", "grid-None", "grid-str-entry", "min_size"],
    )
    def test_arguments_checked_before_any_work(self, small_bench, monkeypatch, scenes, kwargs, error, message):
        def no_work(*args, **kwargs):
            raise AssertionError("build_training_table started work before checking its arguments")

        monkeypatch.setattr(oodseg.evaluate, "score_maps", no_work)
        bench = small_bench if scenes is None else oodseg.Benchmark(config=small_bench.config, scenes=scenes)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            oodseg.build_training_table(bench, **{"grid": SMALL_GRID, **kwargs})


_JUST_BELOW_0 = float(np.nextafter(0.0, -1.0))
_JUST_ABOVE_1 = float(np.nextafter(1.0, 2.0))

# Every entry point that takes a fraction: (name in the message, interval,
# call on a context of the small benchmark and the fraction).
_FRACTIONS = {
    "threshold_mask": ("threshold", "[0, 1]", lambda c, x: oodseg.threshold_mask(c.score, x)),
    "extract_segments": ("threshold", "[0, 1]", lambda c, x: oodseg.extract_segments(c.prob, x)),
    "sweep-grid": ("threshold", "[0, 1]", lambda c, x: oodseg.sweep(c.bench, (x,))),
    "build_training_table-grid": ("threshold", "[0, 1]", lambda c, x: oodseg.build_training_table(c.bench, (x,))),
    "match_segments": ("coverage", "(0, 1]", lambda c, x: oodseg.match_segments(c.segs, c.gt, coverage=x)),
    "sweep-coverage": ("coverage", "(0, 1]", lambda c, x: oodseg.sweep(c.bench, SMALL_GRID, coverage=x)),
    "label_segments": ("tau_tp", "(0, 1]", lambda c, x: oodseg.label_segments(c.segs, c.gt, tau_tp=x)),
    "build_training_table-tau_tp": (
        "tau_tp", "(0, 1]", lambda c, x: oodseg.build_training_table(c.bench, SMALL_GRID, tau_tp=x)
    ),
    "apply_meta_filter": ("cutoff", "(0, 1)", lambda c, x: oodseg.apply_meta_filter(c.segs, c.model, cutoff=x)),
}


class TestFractionArguments:
    """Every fraction argument obeys one rule: both bounds, just outside each bound, and NaN."""

    @pytest.fixture(scope="class")
    def context(self, small_bench, small_model):
        scene = small_bench.scenes[0]
        return SimpleNamespace(
            bench=small_bench,
            model=small_model,
            prob=scene.prob_boosted,
            gt=scene.gt,
            score=oodseg.entropy_map(scene.prob_boosted),
            segs=oodseg.extract_segments(scene.prob_boosted, 0.3),
        )

    @pytest.mark.parametrize("value", [0.0, 1.0, _JUST_BELOW_0, _JUST_ABOVE_1, np.nan])
    @pytest.mark.parametrize("entry_point", list(_FRACTIONS))
    def test_interval(self, context, entry_point, value):
        name, interval, call = _FRACTIONS[entry_point]
        accepted = {
            "[0, 1]": 0.0 <= value <= 1.0,
            "(0, 1]": 0.0 < value <= 1.0,
            "(0, 1)": 0.0 < value < 1.0,
        }[interval]
        if accepted:
            call(context, value)
        else:
            with pytest.raises(DomainError, match=f"^{re.escape(f'{name} {value!r} outside {interval}')}$"):
                call(context, value)

    @pytest.mark.parametrize("value", ["high", "0.5", None, True, np.bool_(True), np.array(0.5), HUGE, HUGE_NEGATIVE],
                             ids=["word", "numeric-str", "None", "bool", "numpy-bool", "0-d-array", "huge",
                                  "huge-negative"])
    @pytest.mark.parametrize("entry_point", list(_FRACTIONS))
    def test_non_numbers_rejected(self, context, entry_point, value):
        name, interval, call = _FRACTIONS[entry_point]
        shown = value.item() if isinstance(value, np.generic) else value
        shown = SHOWN[value] if type(value) is int else repr(shown)
        message = f"{name} must be a number in {interval}, got {shown}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(context, value)

    def test_numpy_scalars_are_read_as_floats(self, context):
        with pytest.raises(DomainError, match=r"^cutoff 1\.0 outside \(0, 1\)$"):
            oodseg.apply_meta_filter(context.segs, context.model, cutoff=np.float32(1.0))


class TestGridPass:
    """Sweep and training table extract each scene's whole grid at once; the oracles go one threshold at a time."""

    @staticmethod
    def _assert_equal_to_oracles(bench, model, grid, min_size):
        features, labels = oodseg.build_training_table(bench, grid, min_size=min_size)
        expected_features, expected_labels = per_threshold_training_table(bench, grid, min_size=min_size)
        assert features.shape == expected_features.shape
        np.testing.assert_array_equal(features.view(np.int64), expected_features.view(np.int64))
        np.testing.assert_array_equal(labels, expected_labels)
        for coverage in (0.5, 0.7):
            rows = oodseg.sweep(bench, grid, model=model, coverage=coverage, min_size=min_size).rows
            expected = per_threshold_sweep_counts(bench, grid, model, coverage, min_size=min_size)
            assert {(r.t, r.ood_training, r.meta): (r.tp, r.fp, r.fn) for r in rows} == expected

    @pytest.mark.parametrize("grid", [SMALL_GRID, (0.45,), (0.0, 0.5, 1.0)])
    @pytest.mark.parametrize("min_size", [1, 10])
    def test_equal_to_per_threshold_oracle(self, small_bench, small_model, min_size, grid):
        self._assert_equal_to_oracles(small_bench, small_model, grid, min_size)

    @pytest.mark.parametrize("min_size", [1, 10])
    def test_scenes_of_different_sizes_equal_to_per_threshold_oracle(self, small_bench, small_model, min_size):
        tall = oodseg.build_benchmark(replace(small_bench.config, height=40, width=24), n_scenes=1).scenes[0]
        bench = SimpleNamespace(scenes=[small_bench.scenes[0], replace(tall, index=1)])
        self._assert_equal_to_oracles(bench, small_model, SMALL_GRID, min_size)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scenes_of_different_class_counts_fail_before_any_score_map(self, small_bench, monkeypatch, jobs):
        calls = []
        monkeypatch.setattr(oodseg.evaluate, "score_maps", lambda p: calls.append(1))
        monkeypatch.setattr(oodseg.synth, "ProcessPoolExecutor", lambda **kwargs: calls.append(kwargs))
        eleven = oodseg.build_benchmark(replace(small_bench.config, num_classes=11), n_scenes=1).scenes[0]
        bench = SimpleNamespace(scenes=[eleven, replace(small_bench.scenes[1], index=1)])
        with pytest.raises(SchemaError, match=r"^scene 1: maps have 5 classes, scene 0's have 11$"):
            oodseg.sweep(bench, SMALL_GRID, jobs=jobs)
        assert calls == []
        # The training table's features are normalized by C, so it pools such scenes.
        monkeypatch.undo()
        features, _ = oodseg.build_training_table(bench, SMALL_GRID)
        assert len(features) > 0

    def test_grid_is_labelled_once_per_scene(self, small_bench, small_model, monkeypatch):
        calls = []
        label = oodseg.segments.connected_components

        def counting(*args, **kwargs):
            calls.append(1)
            return label(*args, **kwargs)

        monkeypatch.setattr(oodseg.segments, "connected_components", counting)
        oodseg.sweep(small_bench, SMALL_GRID, model=small_model)
        assert len(calls) == len(small_bench.scenes)
        oodseg.build_training_table(small_bench, SMALL_GRID)
        assert len(calls) == 2 * len(small_bench.scenes)

    def test_no_label_image_leaves_the_scene_step(self, small_bench):
        scene = small_bench.scenes[0]
        gt_labels = oodseg.connected_components(scene.gt == oodseg.OOD_ID).label_image
        for labels in (None, gt_labels):
            _, segs, block, (counts, pairs) = oodseg.evaluate._scene_segments(scene, SMALL_GRID, 1, labels)
            assert segs.label_image is None and len(block) == len(segs) > 0
            assert counts.shape[1] == 3 and (pairs is None) == (labels is None)

    def test_top2_kernel_reads_each_pixel_once_per_map(self, small_bench, small_model, monkeypatch):
        rows = []
        top2 = oodseg.scores._top2_block

        def counting(block):
            rows.append(block.shape[0] * block.shape[1])
            return top2(block)

        monkeypatch.setattr(oodseg.scores, "_top2_block", counting)
        h, w = small_bench.scenes[0].gt.shape
        for run in (lambda: oodseg.sweep(small_bench, SMALL_GRID, model=small_model),
                    lambda: oodseg.build_training_table(small_bench, SMALL_GRID)):
            rows.clear()
            run()
            assert sum(rows) == 2 * h * w * len(small_bench.scenes)

    def test_non_finite_probability_names_the_pixel(self, small_bench, small_model):
        scenes = list(small_bench.scenes)
        boosted = scenes[1].prob_boosted.copy()
        boosted[5, 7, 2] = np.nan
        scenes[1] = replace(scenes[1], prob_boosted=boosted)
        bench = SimpleNamespace(scenes=scenes)
        message = r"^scene 1, boosted map: pixel \(5, 7\): non-finite probability$"
        for run in (lambda: oodseg.sweep(bench, SMALL_GRID, model=small_model),
                    lambda: oodseg.build_training_table(bench, SMALL_GRID)):
            with pytest.raises(ValidationError, match=message):
                run()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("variant", ["plain", "boosted"])
    def test_map_errors_name_the_scene_and_the_map(self, small_bench, small_model, jobs, variant):
        scenes = list(small_bench.scenes)
        p = getattr(scenes[2], f"prob_{variant}").copy()
        p[5, 7, 0] = np.inf
        scenes[2] = replace(scenes[2], **{f"prob_{variant}": p})
        message = rf"^scene 2, {variant} map: pixel \(5, 7\): non-finite probability$"
        with pytest.raises(ValidationError, match=message):
            oodseg.sweep(SimpleNamespace(scenes=scenes), SMALL_GRID, model=small_model, jobs=jobs)
        with pytest.raises(ValidationError, match=message):
            oodseg.build_training_table(SimpleNamespace(scenes=scenes), SMALL_GRID)

    def test_ground_truth_class_out_of_range_names_the_pixel(self, small_bench):
        scenes = list(small_bench.scenes)
        gt = scenes[1].gt.copy()
        gt[9, 4] = 77
        scenes[1] = replace(scenes[1], gt=gt)
        message = r"^scene 1: pixel \(9, 4\): ground truth class id 77 outside 0\.\.4$"
        with pytest.raises(ValidationError, match=message):
            oodseg.sweep(SimpleNamespace(scenes=scenes), SMALL_GRID)

    def test_each_scene_gt_is_checked_once_and_no_mask_is_rechecked(self, small_bench, small_model, monkeypatch):
        checked = []
        rule = oodseg.evaluate._check_class_ids
        monkeypatch.setattr(oodseg.evaluate, "_check_class_ids", lambda *args: checked.append(args[1]) or rule(*args))

        def threshold_mask(*args):
            raise AssertionError("the sweep thresholded through the checked public threshold_mask")

        monkeypatch.setattr(oodseg.segments, "threshold_mask", threshold_mask)
        scenes = list(small_bench.scenes)[:2]
        oodseg.sweep(SimpleNamespace(scenes=scenes), SMALL_GRID, model=small_model)
        assert len(checked) == 2
        assert [sum(ids is scene.gt for ids in checked) for scene in scenes] == [1, 1]

    @pytest.mark.parametrize("run", ["sweep", "build_training_table"])
    def test_scene_of_more_than_254_classes_fails_before_any_score_map(self, small_bench, monkeypatch, run):
        calls = []
        monkeypatch.setattr(oodseg.evaluate, "score_maps", lambda p: calls.append(1))
        p = np.random.default_rng(0).dirichlet(np.ones(300), size=(32, 32)).astype(np.float32)
        scenes = list(small_bench.scenes)
        scenes[0] = replace(scenes[0], prob_plain=p, prob_boosted=p)
        with pytest.raises(DomainError, match=r"^scene 0: num_classes must be at most 254, got 300$"):
            getattr(oodseg, run)(SimpleNamespace(scenes=scenes), SMALL_GRID)
        assert calls == []

    @pytest.mark.parametrize("run", ["sweep", "sweep-2-jobs", "build_training_table"])
    @pytest.mark.parametrize(
        "field,change,error,message",
        [
            ("gt", lambda a: a.astype(np.float32), SchemaError,
             "ground truth must be a rank-2 integer array, got rank-2 float32"),
            ("gt", lambda a: a[None], SchemaError, "ground truth must be a rank-2 integer array, got rank-3 int32"),
            ("gt", lambda a: a[:, :-1], SchemaError,
             "shapes differ: ground truth (32, 31), plain map (32, 32, 5), boosted map (32, 32, 5)"),
            ("prob_boosted", lambda a: a[:-2], SchemaError,
             "shapes differ: ground truth (32, 32), plain map (32, 32, 5), boosted map (30, 32, 5)"),
            ("prob_plain", lambda a: a[..., 0], SchemaError,
             "plain map must be a rank-3 floating-point array, got rank-2 float32"),
            ("gt", lambda a: np.where(np.arange(32) == 4, np.where(np.arange(32)[:, None] == 9, 77, a), a),
             ValidationError, "pixel (9, 4): ground truth class id 77 outside 0..4"),
            ("gt", lambda a: np.where(np.arange(32)[:, None] == 3, -1, a), ValidationError,
             "pixel (3, 0): ground truth class id -1 outside 0..4"),
        ],
        ids=["float-gt", "rank-3-gt", "gt-shape", "maps-differ", "rank-2-map", "class-77", "class-minus-1"],
    )
    def test_bad_scene_fails_before_any_score_map(self, small_bench, small_model, monkeypatch, field, change, error,
                                                  message, run):
        calls = []
        score_maps = oodseg.evaluate.score_maps
        monkeypatch.setattr(oodseg.evaluate, "score_maps", lambda p: calls.append(1) or score_maps(p))
        monkeypatch.setattr(oodseg.synth, "ProcessPoolExecutor", lambda **kwargs: calls.append(kwargs))
        scenes = list(small_bench.scenes)
        scenes[2] = replace(scenes[2], **{field: change(getattr(scenes[2], field))})
        bench = SimpleNamespace(scenes=scenes)
        with pytest.raises(error, match=f"^scene 2: {re.escape(message)}$"):
            if run == "build_training_table":
                oodseg.build_training_table(bench, SMALL_GRID)
            else:
                oodseg.sweep(bench, SMALL_GRID, model=small_model, jobs=2 if run == "sweep-2-jobs" else 1)
        assert calls == []


class TestEmitters:
    def test_sweep_csv_round_trip(self, tmp_path, small_bench, small_model):
        result = oodseg.sweep(small_bench, SMALL_GRID, model=small_model)
        path = tmp_path / "sweep.csv"
        oodseg.write_sweep_csv(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(oodseg.evaluate.SWEEP_CSV_COLUMNS)
        assert len(rows) - 1 == len(result.rows)
        for parsed, row in zip(rows[1:], result.rows):
            assert float(parsed[0]) == row.t
            assert parsed[1] == ("true" if row.ood_training else "false")
            assert parsed[2] == ("true" if row.meta else "false")
            assert [int(parsed[3]), int(parsed[4]), int(parsed[5])] == [row.tp, row.fp, row.fn]
            assert float(parsed[6]) == row.miou_loss

    def test_unwritable_path_raises_io_error(self, tmp_path, small_bench):
        result = oodseg.sweep(small_bench, SMALL_GRID)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        target = blocker / "out.csv"
        with pytest.raises(IoError):
            oodseg.write_sweep_csv(result, target)
