import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oodseg
from oodseg import DomainError, SchemaError, ValidationError, scores, segments
from oodseg.segments import _grid_segments

from _oracles import flood_fill_components, naive_segment_features, per_segment_features
from conftest import pixel_lists as _pixel_lists
from conftest import (IDS_OUTSIDE, HUGE_NEGATIVE, NEGATIVE_LABELS, layouts, random_prob_map, table_from_pixels,
                      table_with_negative_label, table_with_second_id, traced_peak)


def _features(table, row=0):
    """Row ``row`` of a filled table as a {feature name: value} dict."""
    return dict(zip(oodseg.FEATURE_NAMES, table.features[row].tolist()))


class TestThresholdMask:
    def test_geq_semantics(self):
        score = np.array([[0.1, 0.5], [0.7, 0.5]], dtype=np.float32)
        mask = oodseg.threshold_mask(score, 0.5)
        np.testing.assert_array_equal(mask, [[False, True], [True, True]])

    def test_extreme_thresholds(self):
        score = np.array([[0.0, 1.0]], dtype=np.float32)
        assert oodseg.threshold_mask(score, 0.0).all()
        np.testing.assert_array_equal(oodseg.threshold_mask(score, 1.0), [[False, True]])

    @pytest.mark.parametrize("t", [-0.1, 1.1, np.nan])
    def test_threshold_domain(self, t):
        with pytest.raises(DomainError):
            oodseg.threshold_mask(np.zeros((2, 2), dtype=np.float32), t)

    def test_rank_check(self):
        with pytest.raises(SchemaError):
            oodseg.threshold_mask(np.zeros((2, 2, 2), dtype=np.float32), 0.5)


class TestConnectedComponents:
    def test_diagonal_pair(self):
        mask = np.array([[1, 0], [0, 1]], dtype=bool)
        assert len(oodseg.connected_components(mask, connectivity=4)) == 2
        assert len(oodseg.connected_components(mask, connectivity=8)) == 1

    def test_empty_mask(self):
        segs = oodseg.connected_components(np.zeros((3, 3), dtype=bool))
        assert len(segs) == 0 and list(segs) == []
        np.testing.assert_array_equal(segs.label_image, np.zeros((3, 3), dtype=np.int32))

    def test_full_mask(self):
        segs = oodseg.connected_components(np.ones((4, 6), dtype=bool), connectivity=4)
        assert list(segs) == [(0, (0, 0, 3, 5), 24)]
        assert segs.label_image.dtype == np.int32
        np.testing.assert_array_equal(segs.label_image, 1)

    def test_ids_and_pixels_in_raster_order(self):
        mask = np.array(
            [
                [0, 1, 0, 1],
                [0, 1, 0, 0],
                [0, 0, 0, 0],
                [1, 0, 0, 1],
            ],
            dtype=bool,
        )
        segs = oodseg.connected_components(mask, connectivity=4)
        assert [s.id for s in segs] == [0, 1, 2, 3]
        # components keyed by their first pixel in raster order
        assert _pixel_lists(segs) == [
            [(0, 1), (1, 1)],
            [(0, 3)],
            [(3, 0)],
            [(3, 3)],
        ]

    def test_u_shape_merges_across_rows(self):
        mask = np.array(
            [
                [1, 0, 1],
                [1, 0, 1],
                [1, 1, 1],
            ],
            dtype=bool,
        )
        segs = oodseg.connected_components(mask, connectivity=4)
        assert len(segs) == 1
        assert segs.sizes.tolist() == [7]

    def test_single_row_and_column(self):
        row = np.array([[1, 1, 0, 1]], dtype=bool)
        segs = oodseg.connected_components(row, connectivity=4)
        assert _pixel_lists(segs) == [[(0, 0), (0, 1)], [(0, 3)]]
        col = row.T.copy()
        segs = oodseg.connected_components(col, connectivity=4)
        assert _pixel_lists(segs) == [[(0, 0), (1, 0)], [(3, 0)]]

    def test_connectivity_validation(self):
        with pytest.raises(DomainError):
            oodseg.connected_components(np.ones((2, 2), dtype=bool), connectivity=6)

    @pytest.mark.parametrize(
        "mask, shown",
        [(np.array([["a", ""]]), "rank-2 <U1"), (np.zeros((2, 2), dtype=complex), "rank-2 complex128"),
         (np.zeros(4, dtype=bool), "rank-1 bool"), (np.zeros((2, 2), dtype=object), "rank-2 object")],
    )
    def test_mask_must_be_a_rank_2_boolean_or_real_array(self, mask, shown):
        with pytest.raises(SchemaError, match=f"^mask must be a rank-2 boolean or real array, got {shown}$"):
            oodseg.connected_components(mask)

    def test_real_masks_label_like_boolean_ones(self):
        mask = np.array([[0.0, 0.5, 0.0], [2.0, 0.0, -1.0]])
        for same in (mask, (mask != 0).astype(np.uint8)):
            np.testing.assert_array_equal(oodseg.connected_components(same, 4).label_image, [[0, 1, 0], [2, 0, 3]])

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
    def test_empty_mask_rejected(self, shape):
        message = f"mask dimensions must be at least 1x1, got {shape[0]}x{shape[1]}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            oodseg.connected_components(np.zeros(shape, dtype=bool))

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("density", [0.2, 0.45, 0.7])
    def test_matches_flood_fill(self, connectivity, density):
        rng = np.random.default_rng(hash((connectivity, density)) % 2**32)
        for _ in range(35):
            mask = rng.random((32, 32)) < density
            got = _pixel_lists(oodseg.connected_components(mask, connectivity))
            expected = flood_fill_components(mask, connectivity)
            assert got == expected

    def test_traced_peak_stays_near_the_label_image(self):
        # A frame-sized mask, 12 % labelled in 4x4 cells: the label image is painted
        # at the labelled pixels, with no full-frame int32 temporaries.
        rng = np.random.default_rng(5)
        mask = np.kron(rng.random((256, 512)) < 0.12, np.ones((4, 4), dtype=bool))
        segs, peak = traced_peak(lambda: oodseg.connected_components(mask))
        assert 0.10 < mask.mean() < 0.14 and len(segs) > 5_000
        assert peak <= 3 * segs.label_image.nbytes, peak / segs.label_image.nbytes

    def test_matches_flood_fill_on_thin_grids(self):
        rng = np.random.default_rng(99)
        for shape in [(1, 64), (64, 1), (2, 33), (33, 2)]:
            for _ in range(10):
                mask = rng.random(shape) < 0.5
                for connectivity in (4, 8):
                    got = _pixel_lists(oodseg.connected_components(mask, connectivity))
                    assert got == flood_fill_components(mask, connectivity)


def _confident_map(classes, top=1.0, c=None):
    """A probability map whose pixel (r, col) puts ``top`` on class classes[r, col] and the rest on the next class."""
    classes = np.asarray(classes)
    c = c or int(classes.max()) + 2
    p = np.zeros((*classes.shape, c), dtype=np.float32)
    rows, cols = np.indices(classes.shape)
    p[rows, cols, classes] = top
    p[rows, cols, (classes + 1) % c] += 1.0 - top
    return p


class TestComputeFeatures:
    @staticmethod
    def _maps(rng, h, w, c=5):
        prob = random_prob_map(rng, h, w, c)
        return oodseg.entropy_map(prob), prob

    def test_single_pixel_segment(self):
        h, w = 4, 5
        entropy = np.zeros((h, w), dtype=np.float32)
        entropy[1, 2] = 0.625
        pred = np.zeros((h, w), dtype=np.int32)
        pred[0, 2] = 1
        pred[2, 2] = 2
        p = _confident_map(pred, top=0.875, c=4)  # margin 0.25 and max-probability 0.125 everywhere
        table = table_from_pixels((h, w), [[(1, 2)]])
        f = _features(oodseg.compute_features(table, entropy, p))
        assert f["size"] == 1.0
        assert f["interior_size"] == 0.0
        assert f["boundary_size"] == 1.0
        assert f["rel_interior"] == 0.0
        assert f["mean_entropy"] == 0.625
        assert f["mean_entropy_interior"] == 0.0  # empty interior mean is defined as 0
        assert f["mean_entropy_boundary"] == 0.625
        assert f["var_entropy"] == 0.0
        assert f["mean_margin"] == 0.25
        assert f["mean_maxprob_unc"] == 0.125
        assert f["bbox_height_rel"] == 1 / h
        assert f["bbox_width_rel"] == 1 / w
        assert f["centroid_row_rel"] == 1.5 / h
        assert f["centroid_col_rel"] == 2.5 / w
        # ring holds classes {0, 1, 2} out of 4
        assert f["n_adjacent_classes_rel"] == 3 / 4

    def test_three_by_three_block(self):
        h, w = 8, 8
        entropy = np.full((h, w), 0.5, dtype=np.float32)
        p = _confident_map(np.full((h, w), 3), c=6)  # one-hot: margin and max-probability 0
        table = table_from_pixels((h, w), [[(r, c) for r in (2, 3, 4) for c in (5, 6, 7)]])
        f = _features(oodseg.compute_features(table, entropy, p))
        assert f["size"] == 9.0
        # only the center pixel has all 8 neighbors inside the segment; the
        # right column touches the image border which counts as non-interior
        assert f["interior_size"] == 1.0
        assert f["boundary_size"] == 8.0
        assert f["rel_interior"] == 1 / 9
        assert f["mean_entropy"] == f["mean_entropy_interior"] == f["mean_entropy_boundary"] == 0.5
        assert f["var_entropy"] == 0.0
        assert f["mean_margin"] == f["mean_maxprob_unc"] == 0.0
        assert f["bbox_height_rel"] == 3 / 8
        assert f["bbox_width_rel"] == 3 / 8
        assert f["centroid_row_rel"] == 3.5 / 8
        assert f["centroid_col_rel"] == 6.5 / 8
        assert f["n_adjacent_classes_rel"] == 1 / 6

    def test_full_image_segment_has_no_ring(self):
        h, w = 3, 3
        maps = self._maps(np.random.default_rng(5), h, w)
        table = table_from_pixels((h, w), [[(r, c) for r in range(h) for c in range(w)]])
        f = _features(oodseg.compute_features(table, *maps))
        assert f["interior_size"] == 1.0  # image border makes the rest boundary
        assert f["n_adjacent_classes_rel"] == 0.0

    def test_matches_naive_oracle_on_random_segments(self, rng):
        entropy, prob = self._maps(rng, 24, 30)
        maps = oodseg.score_maps(prob)
        for trial in range(30):
            mask = rng.random((24, 30)) < 0.35
            if not mask.any():
                continue
            segs = oodseg.connected_components(mask, connectivity=8 if trial % 2 else 4)
            table = oodseg.compute_features(segs, entropy, prob)
            for row, pixels in enumerate(_pixel_lists(table)[:5]):
                got = _features(table, row)
                expected = naive_segment_features(pixels, *maps, prob.shape[2])
                for name in oodseg.FEATURE_NAMES:
                    assert_allclose(got[name], expected[name], rtol=1e-12, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("min_size", [1, 3])
    def test_bit_equal_to_per_segment_oracle(self, rng, connectivity, min_size):
        mismatches = 0
        for trial in range(25):
            h, w = rng.integers(1, 40, size=2)
            p = random_prob_map(rng, h, w, int(rng.integers(2, 8)))
            maps = (oodseg.entropy_map(p), oodseg.margin_map(p), oodseg.maxprob_map(p), oodseg.argmax_map(p))
            t = float(rng.choice([0.0, 0.5, 0.8, 0.9]))
            # Every other row of a 4-connected table: the labels it lacks sit
            # diagonally next to its segments, in their ring, never featurized.
            subset = oodseg.connected_components(maps[0] >= t, connectivity=4)[::2]
            for table in (
                oodseg.extract_segments(p, t, connectivity, min_size),
                oodseg.compute_features(subset, maps[0], p),
            ):
                for row, pixels in enumerate(_pixel_lists(table)):
                    expected = per_segment_features(np.array(pixels), *maps, p.shape[2])
                    expected = np.array([expected[name] for name in oodseg.FEATURE_NAMES])
                    mismatches += not np.array_equal(table.features[row], expected)
        assert mismatches == 0

    def test_columns_follow_feature_names(self, rng):
        entropy, prob = self._maps(rng, 6, 6)
        table = oodseg.compute_features(oodseg.connected_components(np.ones((6, 6), dtype=bool)), entropy, prob)
        assert table.features.shape == (1, len(oodseg.FEATURE_NAMES))
        expected = per_segment_features(np.argwhere(np.ones((6, 6), dtype=bool)), *oodseg.score_maps(prob), 5)
        for i, name in enumerate(oodseg.FEATURE_NAMES):
            assert table.features[0, i] == expected[name]

    def test_table_without_label_image_is_rejected(self, rng):
        maps = self._maps(rng, 4, 4)
        with pytest.raises(DomainError):
            oodseg.compute_features(oodseg.SegmentTable.empty(), *maps)

    @pytest.mark.parametrize("dtype", [np.int32, bool, complex, object])
    def test_entropy_map_must_be_floating_point(self, rng, dtype):
        table = oodseg.connected_components(np.ones((4, 4), dtype=bool))
        entropy, prob = self._maps(rng, 4, 4)
        message = f"entropy map must be a rank-2 floating-point array, got rank-2 {np.dtype(dtype)}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            oodseg.compute_features(table, entropy.astype(dtype), prob)

    def test_maps_of_another_shape_are_rejected(self, rng):
        table = oodseg.connected_components(np.ones((4, 4), dtype=bool))
        with pytest.raises(SchemaError, match="do not fit"):
            oodseg.compute_features(table, *self._maps(rng, 5, 4))
        entropy, prob = self._maps(rng, 4, 4)
        for entropy_, prob_ in ((entropy, prob[:, :3]), (entropy[:3], prob)):
            with pytest.raises(SchemaError, match="do not fit"):
                oodseg.compute_features(table, entropy_, prob_)
        for entropy_, prob_, message in (
            (np.stack([entropy] * 2), prob, "entropy map must be a rank-2 floating-point array, got rank-3 float32"),
            (entropy, [prob, prob], "probability map must be a rank-3 floating-point array, got rank-4 float32"),
            (entropy, [], "probability map must be a rank-3 floating-point array, got rank-1 float64"),
        ):
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                oodseg.compute_features(table, entropy_, prob_)

    @pytest.mark.parametrize("second_id", IDS_OUTSIDE)
    def test_segment_ids_outside_the_label_image_are_rejected(self, rng, second_id):
        table = table_with_second_id(second_id)
        message = f"^segment id {second_id} is outside the label image, whose largest label is 2$"
        with pytest.raises(SchemaError, match=message):
            oodseg.compute_features(table, *self._maps(rng, 6, 7))

    @pytest.mark.parametrize("pixel, label", NEGATIVE_LABELS)
    def test_negative_labels_are_rejected(self, rng, pixel, label):
        message = f"pixel {pixel}: negative label {label} in the label image"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            oodseg.compute_features(table_with_negative_label(pixel, label), *self._maps(rng, 6, 7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probability_read_is_rejected(self, rng, bad):
        entropy, p = self._maps(rng, 5, 6, 3)
        mask = np.zeros((5, 6), dtype=bool)
        mask[2:4, 2:4] = True
        p[1, 2, 1] = bad  # in the ring of the segment
        p[4, 0, 2] = bad  # outside it: never read
        table = oodseg.connected_components(mask)
        with pytest.raises(ValidationError, match=r"^pixel \(1, 2\): non-finite probability$"):
            oodseg.compute_features(table, entropy, p)
        p[1, 2, 1] = 0.5
        oodseg.compute_features(table, entropy, p)

    @pytest.mark.parametrize(
        "prob, message",
        [
            (np.zeros((5, 6), dtype=np.float32), "probability map must be a rank-3 floating-point array, got rank-2 "
             "float32"),
            (np.zeros((5, 6, 3), dtype=np.int32), "probability map must be a rank-3 floating-point array, got rank-3 "
             "int32"),
            (np.full((5, 6, 1), 1.0, dtype=np.float32), "probability map needs C >= 2 classes, got 1"),
        ],
        ids=["rank", "dtype", "one-class"],
    )
    def test_probability_map_must_be_a_float_map_of_two_classes(self, rng, prob, message):
        table = oodseg.connected_components(np.ones((5, 6), dtype=bool))
        entropy, _ = self._maps(rng, 5, 6, 3)
        with pytest.raises((SchemaError, ValidationError), match=f"^{re.escape(message)}$"):
            oodseg.compute_features(table, entropy, prob)


class TestGridSegments:
    """``segments._grid_segments``: every (map, threshold) block labelled in one pass and featurized from the maps."""

    def test_thresholds_compare_in_float32(self):
        t = 0.7
        assert float(np.float32(t)) < t  # a pixel at float32(t) lies below t in float64
        entropy = np.zeros((4, 5), dtype=np.float32)
        entropy[1:3, 1:3] = np.float32(t)
        maps = oodseg.score_maps(np.full((4, 5, 2), 0.5, dtype=np.float32))._replace(entropy=entropy)
        table, block = _grid_segments([maps], 2, (0.5, t, 0.8), 8, 1)
        assert block.tolist() == [0, 1]
        assert table.sizes.tolist() == [4, 4]
        assert oodseg.threshold_mask(entropy, t).sum() == 4

    @pytest.mark.parametrize("shape", [(7, 6), (1, 9), (8, 1), (1, 1)])
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_rows_match_per_segment_oracle(self, rng, shape, connectivity):
        grid = (0.0, 0.4, 0.7, 1.0)
        maps, probs = [], [random_prob_map(rng, *shape, 4) for _ in range(2)]
        for prob in probs:
            m = oodseg.score_maps(prob)
            m.entropy[[0, -1], :] = 0.8  # segments on the top and bottom rows of every block
            m.entropy[:, [0, -1]] = 0.8  # and on all four image borders
            maps.append(m)
        table, block = _grid_segments(maps, 4, grid, connectivity, 1)
        assert np.all(np.diff(block) >= 0)
        for b in range(2 * len(grid)):
            variant, t = divmod(b, len(grid))
            expected = oodseg.connected_components(oodseg.threshold_mask(maps[variant].entropy, grid[t]), connectivity)
            rows = table[block == b]
            np.testing.assert_array_equal(rows.sizes, expected.sizes)
            np.testing.assert_array_equal(rows.bboxes, expected.bboxes)
            for row, pixels in zip(rows, flood_fill_components(table.label_image[b] > 0, connectivity)):
                oracle = per_segment_features(np.array(pixels), *maps[variant], 4)
                features = table.features[table.ids == row.id][0]
                np.testing.assert_array_equal(features, [oracle[name] for name in oodseg.FEATURE_NAMES])
        full = table[block == 0]  # t = 0.0: one segment covering the whole first block
        assert full.sizes.tolist() == [shape[0] * shape[1]]


class TestExtractSegments:
    def test_uniform_map_is_one_full_segment(self):
        p = np.full((6, 7, 4), 0.25, dtype=np.float32)
        segs = oodseg.extract_segments(p, t=0.5)
        assert len(segs) == 1
        assert segs.sizes.tolist() == [42]
        assert _features(segs)["mean_entropy"] == pytest.approx(1.0)

    def test_one_hot_map_has_no_segments_above_zero(self):
        p = np.zeros((5, 5, 3), dtype=np.float32)
        p[:, :, 1] = 1.0
        assert len(oodseg.extract_segments(p, t=0.25)) == 0
        # at t = 0 the >= comparison captures every pixel
        segs = oodseg.extract_segments(p, t=0.0)
        assert len(segs) == 1 and segs.sizes.tolist() == [25]

    def test_min_size_keeps_prefilter_ids(self, rng):
        p = random_prob_map(rng, 40, 40, 6)
        entropy = oodseg.entropy_map(p)
        t = float(np.quantile(entropy, 0.7))
        all_segs = oodseg.extract_segments(p, t=t, min_size=1)
        big_segs = oodseg.extract_segments(p, t=t, min_size=4)
        assert 0 < len(big_segs) < len(all_segs)
        by_id = dict(zip(all_segs.ids.tolist(), _pixel_lists(all_segs)))
        for seg, pixels in zip(big_segs, _pixel_lists(big_segs)):
            assert seg.size >= 4
            assert pixels == by_id[seg.id]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probability_is_rejected(self, bad):
        p = np.zeros((8, 8, 4), dtype=np.float32)
        p[:, :, 0] = 1.0
        p[2:6, 2:6] = 0.25  # one 16-pixel uncertain block
        p[3, 4, 1] = bad
        with pytest.raises(ValidationError, match=r"pixel \(3, 4\): non-finite probability"):
            oodseg.extract_segments(p, t=0.5)

    def test_non_finite_probability_in_a_late_block_is_rejected(self):
        p = np.zeros((300, 64, 4), dtype=np.float32)
        p[:, :, 0] = 1.0
        p[280:290, 10:20] = 0.25
        p[285, 12, 3] = np.nan  # in the third block of 128 rows of 64 pixels
        with pytest.raises(ValidationError, match=r"pixel \(285, 12\): non-finite probability"):
            oodseg.extract_segments(p, t=0.5)

    def test_rows_are_python_ints(self, rng):
        segs = oodseg.extract_segments(random_prob_map(rng, 16, 16, 4), t=0.8)
        assert len(segs) > 0
        for row in segs:
            assert type(row.id) is int and type(row.size) is int
            assert len(row.bbox) == 4 and all(type(v) is int for v in row.bbox)

    def test_min_size_validation(self):
        p = np.full((2, 2, 2), 0.5, dtype=np.float32)
        with pytest.raises(DomainError):
            oodseg.extract_segments(p, t=0.5, min_size=0)

    def test_segments_partition_the_mask(self, rng):
        p = random_prob_map(rng, 32, 32, 5)
        t = 0.9
        segs = oodseg.extract_segments(p, t=t)
        mask = oodseg.threshold_mask(oodseg.entropy_map(p), t)
        covered = np.zeros_like(mask, dtype=int)
        for pixels in _pixel_lists(segs):
            for r, c in pixels:
                covered[r, c] += 1
        assert covered[mask].min() == covered[mask].max() == 1
        assert covered[~mask].sum() == 0
        assert segs.sizes.sum() == mask.sum()

    def test_raising_threshold_nests_segments(self, rng):
        p = random_prob_map(rng, 32, 32, 5)
        lo = oodseg.extract_segments(p, t=0.85)
        hi = oodseg.extract_segments(p, t=0.95)
        label = np.full((32, 32), -1, dtype=int)
        for seg, pixels in zip(lo, _pixel_lists(lo)):
            label[tuple(np.array(pixels).T)] = seg.id
        for pixels in _pixel_lists(hi):
            owners = label[tuple(np.array(pixels).T)]
            assert owners.min() >= 0  # inside some low-threshold segment
            assert owners.min() == owners.max()  # and exactly one of them

    def test_deterministic(self, rng):
        p = random_prob_map(rng, 24, 24, 6)
        a = oodseg.extract_segments(p, t=0.9, min_size=2)
        b = oodseg.extract_segments(p, t=0.9, min_size=2)
        assert len(a) == len(b)
        assert list(a) == list(b)
        np.testing.assert_array_equal(a.label_image, b.label_image)
        np.testing.assert_array_equal(a.features, b.features)

    def test_synthetic_scene_end_to_end_matches_flood_fill(self):
        cfg = oodseg.SceneConfig(
            height=48, width=48, num_classes=6, n_regions=12, n_ood_blobs=2,
            blob_radius_range=(4.0, 7.0), seed=7,
        )
        prob, _, _ = oodseg.generate_scene(cfg)
        segs = oodseg.extract_segments(prob, t=0.4, min_size=10)
        mask = oodseg.threshold_mask(oodseg.entropy_map(prob), 0.4)
        expected = [c for c in flood_fill_components(mask, 8) if len(c) >= 10]
        assert _pixel_lists(segs) == expected


def _full_frame_extraction(p, t, connectivity, min_size):
    """extract_segments spelled out with the full-frame score maps and the per-segment oracle."""
    maps = oodseg.score_maps(p)
    components = oodseg.connected_components(oodseg.threshold_mask(maps.entropy, t), connectivity)
    kept = components[components.sizes >= min_size]
    rows = [per_segment_features(np.array(pixels), *maps, p.shape[2]) for pixels in _pixel_lists(kept)]
    features = np.array([[row[name] for name in oodseg.FEATURE_NAMES] for row in rows], dtype=np.float64)
    return replace(kept, features=features.reshape(-1, len(oodseg.FEATURE_NAMES)))


def _assert_same_table(got, want):
    np.testing.assert_array_equal(got.ids, want.ids)
    np.testing.assert_array_equal(got.bboxes, want.bboxes)
    np.testing.assert_array_equal(got.sizes, want.sizes)
    np.testing.assert_array_equal(got.label_image, want.label_image)
    assert got.features.dtype == want.features.dtype == np.float64
    np.testing.assert_array_equal(got.features.view(np.int64), want.features.view(np.int64))


def _dilated_kept_pixels(table):
    """The 8-dilation of a table's segment pixels, by shifted copies of the padded mask."""
    kept = np.isin(table.label_image, table.ids + 1)
    h, w = kept.shape
    padded = np.pad(kept, 1)
    near = np.zeros_like(kept)
    for dr in range(3):
        for dc in range(3):
            near |= padded[dr:dr + h, dc:dc + w]
    return near


def _bordered_map(rng, h, w):
    """Confident random classes with uncertain (uniform) stretches along all four image borders."""
    cls = rng.integers(0, 4, size=(h, w))
    p = (0.9 * np.eye(4)[cls] + 0.1 * random_prob_map(rng, h, w, 4, dtype=np.float64)).astype(np.float32)
    for edge in (p[0], p[-1], p[:, 0], p[:, -1]):
        edge[rng.random(len(edge)) < 0.6] = 0.25
    return p


class TestExtractionNearSegments:
    """extract_segments computes the top-2 maps only on kept segments and their ring, with unchanged bytes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("min_size", [1, 10])
    def test_bytes_match_full_frame_maps_in_every_layout(self, rng, dtype, connectivity, min_size):
        base = random_prob_map(rng, 37, 53, 5, dtype=dtype)
        t = float(np.quantile(oodseg.entropy_map(base), 0.6))
        found = oodseg.connected_components(oodseg.threshold_mask(oodseg.entropy_map(base), t), connectivity)
        want = _full_frame_extraction(base, t, connectivity, min_size)  # every layout gives C order's bytes
        assert 0 < len(want) and (min_size == 1 or len(want) < len(found))
        for layout, p in layouts(base):
            np.testing.assert_array_equal(p, base)
            _assert_same_table(oodseg.extract_segments(p, t, connectivity, min_size), want)

    @pytest.mark.parametrize("shape", [(12, 15), (1, 40), (40, 1)])
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_segments_on_every_border_and_thin_maps(self, rng, shape, connectivity):
        p = _bordered_map(rng, *shape)
        want = _full_frame_extraction(p, 0.9, connectivity, 1)
        box = want.bboxes
        assert box[:, 0].min() == 0 and box[:, 2].max() == shape[0] - 1
        assert box[:, 1].min() == 0 and box[:, 3].max() == shape[1] - 1
        _assert_same_table(oodseg.extract_segments(p, 0.9, connectivity, 1), want)

    @pytest.mark.parametrize("t, min_size", [(0.9, 1), (0.5, 1000)])
    def test_empty_result(self, rng, monkeypatch, t, min_size):
        # No uncertain pixel at all, then uncertain pixels in components all below min_size.
        p = _bordered_map(rng, 20, 30)
        p[1:-1, 1:-1] = np.eye(4, dtype=np.float32)[1]
        if min_size == 1:
            p[[0, -1]] = p[:, [0, -1]] = np.eye(4, dtype=np.float32)[2]
        monkeypatch.setattr(scores, "_top2_block", None)  # never called without kept pixels
        got = oodseg.extract_segments(p, t, 8, min_size)
        assert len(got) == 0 and got.features.shape == (0, len(oodseg.FEATURE_NAMES))
        monkeypatch.undo()
        _assert_same_table(got, _full_frame_extraction(p, t, 8, min_size))

    @pytest.mark.parametrize("quantile, min_size", [(0.2, 1), (0.5, 10), (0.9, 10)])
    def test_top2_work_is_the_dilation_of_kept_segments(self, rng, monkeypatch, quantile, min_size):
        handed = []
        top2 = scores._top2_block

        def counting(block):
            handed.append(block.shape[0] * block.shape[1])
            return top2(block)

        def forbidden(*args):
            raise AssertionError("full-frame top-2 maps computed")

        monkeypatch.setattr(scores, "_top2_block", counting)
        monkeypatch.setattr(scores, "_all_block", forbidden)
        monkeypatch.setattr(scores, "score_maps", forbidden)
        p = random_prob_map(rng, 96, 128, 5)  # 12,288 pixels: one whole chunk and more
        t = float(np.quantile(oodseg.entropy_map(p), quantile))
        table = oodseg.extract_segments(p, t, 8, min_size)
        near = _dilated_kept_pixels(table)
        assert sum(handed) == near.sum() > 0
        assert max(handed) <= scores._BLOCK_PX
        if quantile == 0.2:  # the near set spans a whole chunk and a partial one
            assert near.sum() > scores._BLOCK_PX and near.sum() % scores._BLOCK_PX
        else:
            assert near.sum() < p.shape[0] * p.shape[1]
        monkeypatch.undo()
        _assert_same_table(table, _full_frame_extraction(p, t, 8, min_size))

    def test_non_finite_probability_far_from_any_segment_is_rejected(self):
        p = np.zeros((300, 64, 4), dtype=np.float32)
        p[:, :, 0] = 1.0
        p[5:9, 5:9] = 0.25  # the only uncertain pixels, in the first block
        p[290, 60, 2] = np.nan
        with pytest.raises(ValidationError, match=r"pixel \(290, 60\): non-finite probability"):
            oodseg.extract_segments(p, t=0.5)

    @staticmethod
    def _forbid_map_work(monkeypatch):
        def forbidden(*args):
            raise AssertionError("a score map was computed before the arguments were checked")

        for name in ("_blockwise", "_top2_at", "score_maps"):
            monkeypatch.setattr(scores, name, forbidden)
        monkeypatch.setattr(segments, "entropy_map", forbidden)
        monkeypatch.setattr(segments, "_top2_at", forbidden)

    @pytest.mark.parametrize(
        "kwargs", [{"t": 2.0}, {"t": 0.5, "min_size": 0}, {"t": 0.5, "connectivity": 6}, {"t": "high"}, {"t": None},
                   {"t": 0.5, "min_size": "3"}]
    )
    def test_bad_arguments_are_reported_before_any_map_work(self, monkeypatch, kwargs):
        self._forbid_map_work(monkeypatch)
        p = np.full((4, 4, 2), 0.5, dtype=np.float32)
        p[1, 1, 0] = np.nan
        with pytest.raises(DomainError):
            oodseg.extract_segments(p, **kwargs)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"min_size": np.int64(0)}, "min_size must be an integer >= 1, got 0"),
            ({"connectivity": np.int64(6)}, "connectivity must be 4 or 8, got 6"),
            ({"connectivity": "8"}, "connectivity must be 4 or 8, got '8'"),
            ({"min_size": "3"}, "min_size must be an integer >= 1, got '3'"),
            ({"min_size": 2.5}, "min_size must be an integer >= 1, got 2.5"),
            ({"min_size": True}, "min_size must be an integer >= 1, got True"),
            ({"min_size": HUGE_NEGATIVE}, "min_size must be an integer >= 1, got a negative integer of 16610 bits"),
        ],
        ids=["int64-min_size", "int64-connectivity", "str-connectivity", "str-min_size", "float-min_size",
             "bool-min_size", "huge-negative-min_size"],
    )
    def test_argument_errors_print_plain_values(self, kwargs, message):
        p = np.full((4, 4, 2), 0.5, dtype=np.float32)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            oodseg.extract_segments(p, 0.3, **kwargs)

    @pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3)])
    def test_empty_map_is_reported_before_any_map_work(self, monkeypatch, shape):
        self._forbid_map_work(monkeypatch)
        with pytest.raises(DomainError, match=re.escape(f"got shape {shape}")):
            oodseg.extract_segments(np.zeros(shape, dtype=np.float32), 0.5)


def _assert_oracle_rows(table, maps, c, block=None):
    """Every row's features bit-equal to the per-segment oracle on ``maps``, or on ``maps[v]`` for its block's map.

    ``block`` gives each row's block of a 3-D label image whose blocks split evenly over the maps.
    """
    image = table.label_image
    for k, row in enumerate(table):
        b = 0 if block is None else int(block[k])
        plane = image if block is None else image[b]
        pixels = np.argwhere(plane == row.id + 1)
        oracle = per_segment_features(pixels, *(maps if block is None else maps[b * len(maps) // len(image)]), c)
        expected = np.array([oracle[name] for name in oodseg.FEATURE_NAMES])
        np.testing.assert_array_equal(table.features[k].view(np.int64), expected.view(np.int64), err_msg=f"row {k}")


class TestFlatIndexNeighbors:
    """compute_features reads each neighbor by flat index and masks only the pixels whose neighbor leaves the block."""

    @pytest.mark.parametrize("shape", [(9, 11), (1, 13), (13, 1), (2, 2)])
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_segments_on_all_four_image_edges(self, rng, shape, connectivity):
        p = _bordered_map(rng, *shape)
        maps = oodseg.score_maps(p)
        table = oodseg.compute_features(oodseg.connected_components(maps.entropy >= 0.9, connectivity), maps.entropy, p)
        box = table.bboxes
        assert box[:, 0].min() == 0 and box[:, 2].max() == shape[0] - 1
        assert box[:, 1].min() == 0 and box[:, 3].max() == shape[1] - 1
        _assert_oracle_rows(table, maps, 4)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_segments_on_both_sides_of_every_block_border(self, rng, connectivity):
        maps = [oodseg.score_maps(random_prob_map(rng, 7, 9, 4)) for _ in range(2)]
        for m in maps:  # every block gets segments along all four of its borders
            m.entropy[[0, -1], :] = m.entropy[:, [0, -1]] = 0.95
        grid = (0.3, 0.6, 0.9)
        table, block = _grid_segments(maps, 4, grid, connectivity, 1)
        image = table.label_image
        assert (image[:, 0] > 0).all() and (image[:, -1] > 0).all()  # each block border has segments on both sides
        _assert_oracle_rows(table, maps, 4, block)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_mask_more_than_ninety_percent_labelled(self, rng, connectivity):
        p = random_prob_map(rng, 31, 37, 5)
        mask = rng.random((31, 37)) < 0.95
        mask[:, 18] = False  # one unlabelled column parts the mask
        table = oodseg.connected_components(mask, connectivity)
        assert (table.label_image > 0).mean() > 0.9
        maps = oodseg.score_maps(p)
        _assert_oracle_rows(oodseg.compute_features(table, maps.entropy, p), maps, 5)

    def test_four_connectivity_with_diagonally_touching_components(self, rng):
        p = random_prob_map(rng, 12, 14, 3)
        rows, cols = np.indices((12, 14))
        mask = ((rows // 2 + cols // 2) % 2 == 0) | ((rows + cols) % 2 == 0) & (rows > 8)
        table = oodseg.connected_components(mask, connectivity=4)
        assert len(table) > len(oodseg.connected_components(mask, connectivity=8))
        maps = oodseg.score_maps(p)
        _assert_oracle_rows(oodseg.compute_features(table, maps.entropy, p), maps, 3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_layout(self, rng, dtype):
        base = random_prob_map(rng, 23, 29, 6, dtype=dtype)
        maps = oodseg.score_maps(base)
        table = oodseg.connected_components(maps.entropy >= np.quantile(maps.entropy, 0.4))
        want = oodseg.compute_features(table, maps.entropy, base)
        _assert_oracle_rows(want, maps, 6)
        for layout, p in layouts(base):
            got = oodseg.compute_features(table, maps.entropy, p)
            np.testing.assert_array_equal(got.features.view(np.int64), want.features.view(np.int64), err_msg=layout)

    def test_extraction_peak_stays_below_frame_sized_scratch(self):
        # FRAME_CONFIG's knobs at a sixteenth of the Cityscapes frame. Padded
        # image-sized label and class copies and image-sized top-2 maps would
        # put the peak near 0.62 times the input.
        cfg = oodseg.SceneConfig(height=256, width=512, num_classes=19, n_regions=40, n_ood_blobs=12,
                                 blob_radius_range=(10.0, 27.5), seed=3)
        p, _, _ = oodseg.generate_scene(cfg)
        segs, peak = traced_peak(lambda: oodseg.extract_segments(p, 0.5, min_size=10))
        assert len(segs) > 100 and (segs.label_image > 0).mean() > 0.1
        assert peak <= 0.55 * p.nbytes, peak / p.nbytes


class TestFeaturesMatrix:
    def test_requires_filled_features(self):
        segs = oodseg.connected_components(np.ones((2, 2), dtype=bool))
        with pytest.raises(DomainError):
            oodseg.features_matrix(segs)

    def test_stacks_in_order(self, rng):
        p = random_prob_map(rng, 20, 20, 5)
        segs = oodseg.extract_segments(p, t=0.9)
        mat = oodseg.features_matrix(segs)
        assert mat.shape == (len(segs), len(oodseg.FEATURE_NAMES)) and mat.dtype == np.float64
        maps = (oodseg.entropy_map(p), oodseg.margin_map(p), oodseg.maxprob_map(p), oodseg.argmax_map(p), 5)
        for i, pixels in enumerate(_pixel_lists(segs)):
            expected = per_segment_features(np.array(pixels), *maps)
            np.testing.assert_array_equal(mat[i], [expected[name] for name in oodseg.FEATURE_NAMES])

    def test_empty_input(self):
        assert oodseg.features_matrix(oodseg.SegmentTable.empty()).shape == (0, len(oodseg.FEATURE_NAMES))
