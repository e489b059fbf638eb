import numpy as np
import pytest
from numpy.testing import assert_allclose

import oodseg
from oodseg import SchemaError, ValidationError, scores

from _oracles import (
    entropy_exact,
    per_segment_features,
    whole_array_argmax,
    whole_array_entropy,
    whole_array_margin,
    whole_array_maxprob,
)
from conftest import layouts, pixel_lists, random_prob_map

BLOCK = scores._BLOCK_PX
SINGLE_MAPS = (oodseg.entropy_map, oodseg.margin_map, oodseg.maxprob_map, oodseg.argmax_map)
ORACLES = (whole_array_entropy, whole_array_margin, whole_array_maxprob, whole_array_argmax)


def _pixel(*probs):
    return np.asarray(probs, dtype=np.float32).reshape(1, 1, -1)


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert oodseg.entropy_map(_pixel(1.0, 0.0, 0.0))[0, 0] == 0.0

    def test_uniform_is_one(self):
        for c in (2, 3, 4, 11, 19):
            p = np.full((1, 1, c), 1.0 / c, dtype=np.float64)
            assert_allclose(oodseg.entropy_map(p)[0, 0], 1.0, atol=1e-7)

    def test_skewed_four_class_pixel_matches_oracle(self):
        p = _pixel(0.7, 0.1, 0.1, 0.1)
        expected = entropy_exact([0.7, 0.1, 0.1, 0.1])
        assert_allclose(oodseg.entropy_map(p)[0, 0], expected, atol=1e-5)

    def test_random_pixels_match_oracle(self, rng):
        p = random_prob_map(rng, 5, 10, 6)
        got = oodseg.entropy_map(p)
        for r in range(5):
            for c in range(10):
                expected = entropy_exact([float(v) for v in p[r, c]])
                assert_allclose(got[r, c], expected, atol=1e-6)

    def test_float64_input_matches_oracle_tightly(self, rng):
        raw = rng.gamma(1.0, size=(3, 4, 5))
        p = raw / raw.sum(axis=2, keepdims=True)
        got = oodseg.entropy_map(p)
        for r in range(3):
            for c in range(4):
                expected = entropy_exact([float(v) for v in p[r, c]])
                assert_allclose(got[r, c], expected, atol=1e-7)

    def test_mixing_toward_uniform_increases_entropy(self, rng):
        # H((1-lam) p + lam u) is non-decreasing in lam by concavity.
        p = random_prob_map(rng, 25, 40, 8, dtype=np.float64)
        u = np.full_like(p, 1.0 / 8.0)
        lams = np.linspace(0.0, 1.0, 11)
        prev = oodseg.entropy_map(p)
        for lam in lams[1:]:
            cur = oodseg.entropy_map((1.0 - lam) * p + lam * u)
            # 1e-6 slack absorbs the float32 output rounding
            assert np.all(cur >= prev - 1e-6)
            prev = cur


class TestMargin:
    def test_documented_example(self):
        # top two probabilities 0.6 and 0.3 -> 1 - 0.3 = 0.7
        assert_allclose(oodseg.margin_map(_pixel(0.6, 0.3, 0.1))[0, 0], 0.7, atol=1e-7)

    def test_one_hot_is_zero(self):
        assert oodseg.margin_map(_pixel(0.0, 1.0, 0.0))[0, 0] == 0.0

    def test_tied_top_pair_is_one(self):
        assert_allclose(oodseg.margin_map(_pixel(0.4, 0.4, 0.2))[0, 0], 1.0, atol=1e-7)

    def test_channel_order_is_irrelevant(self, rng):
        p = random_prob_map(rng, 6, 6, 5)
        perm = rng.permutation(5)
        np.testing.assert_array_equal(oodseg.margin_map(p), oodseg.margin_map(p[:, :, perm]))

    def test_matches_sort_based_recompute(self, rng):
        p = random_prob_map(rng, 8, 9, 7)
        top = np.sort(p.astype(np.float64), axis=2)
        expected = 1.0 - (top[:, :, -1] - top[:, :, -2])
        assert_allclose(oodseg.margin_map(p), expected, atol=1e-6)


class TestMaxprob:
    def test_uniform_four_class(self):
        p = np.full((2, 3, 4), 0.25, dtype=np.float32)
        assert_allclose(oodseg.maxprob_map(p), 0.75, atol=1e-7)

    def test_one_hot_is_zero(self):
        assert oodseg.maxprob_map(_pixel(0.0, 0.0, 1.0))[0, 0] == 0.0

    def test_matches_recompute(self, rng):
        p = random_prob_map(rng, 8, 9, 7)
        expected = 1.0 - p.astype(np.float64).max(axis=2)
        assert_allclose(oodseg.maxprob_map(p), expected, atol=1e-6)


class TestArgmax:
    def test_matches_python_scan(self, rng):
        p = random_prob_map(rng, 16, 16, 7)
        got = oodseg.argmax_map(p)
        assert got.dtype == np.int32
        for r in range(16):
            for c in range(16):
                best, best_p = 0, p[r, c, 0]
                for k in range(1, 7):
                    if p[r, c, k] > best_p:
                        best, best_p = k, p[r, c, k]
                assert got[r, c] == best

    def test_tie_break_prefers_smallest_index(self):
        p = _pixel(0.1, 0.45, 0.45)
        assert oodseg.argmax_map(p)[0, 0] == 1

    def test_invariant_under_monotone_rescaling(self, rng):
        # Sharpening/flattening the softmax must not change the prediction
        # (up to exact ties, which the random draw avoids almost surely).
        p = random_prob_map(rng, 12, 12, 6, dtype=np.float64)
        base = oodseg.argmax_map(p)
        for power in (0.5, 2.0):
            q = p**power
            q /= q.sum(axis=2, keepdims=True)
            np.testing.assert_array_equal(oodseg.argmax_map(q), base)


class TestCommonBehavior:
    @pytest.mark.parametrize("fn", [oodseg.entropy_map, oodseg.margin_map, oodseg.maxprob_map])
    def test_output_contract(self, rng, fn):
        p = random_prob_map(rng, 14, 9, 5)
        out = fn(p)
        assert out.shape == (14, 9)
        assert out.dtype == np.float32
        assert np.all((out >= 0.0) & (out <= 1.0))

    @pytest.mark.parametrize(
        "fn", [oodseg.entropy_map, oodseg.margin_map, oodseg.maxprob_map, oodseg.argmax_map]
    )
    def test_rank_and_class_checks(self, fn):
        with pytest.raises(SchemaError):
            fn(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ValidationError):
            fn(np.ones((4, 4, 1), dtype=np.float32))
        with pytest.raises(SchemaError):
            fn(np.zeros((4, 4, 3), dtype=np.int32))

    def test_scores_agree_on_binary_maps(self, rng):
        # With C = 2 margin and maxprob carry the same information:
        # margin = 1 - (p1 - p2) = 1 - (2 p1 - 1) = 2 (1 - p1) = 2 maxprob.
        p = random_prob_map(rng, 10, 10, 2, dtype=np.float64)
        assert_allclose(oodseg.margin_map(p), 2.0 * oodseg.maxprob_map(p), atol=1e-6)


def _edge_case_map(rng, h, w, c, dtype):
    """Dirichlet(0.3) pixels with uniform, one-hot, tied-top-pair and exact-zero pixels mixed in."""
    flat = rng.dirichlet(np.full(c, 0.3), size=h * w)
    kind = rng.integers(0, 5, size=h * w)  # 0 keeps the Dirichlet draw
    flat[kind == 1] = 1.0 / c
    flat[kind == 2] = np.eye(c)[rng.integers(0, c, int((kind == 2).sum()))]
    tied = np.flatnonzero(kind == 3)
    if c > 2:
        flat[tied] = 0.25 / (c - 2)
        first = rng.integers(0, c, tied.size)
        flat[tied, first] = 0.375
        flat[tied, (first + 1 + rng.integers(0, c - 1, tied.size)) % c] = 0.375
    zeroed = np.flatnonzero(kind == 4)
    flat[zeroed, rng.integers(0, c, zeroed.size)] = 0.0
    flat[zeroed] /= flat[zeroed].sum(axis=1, keepdims=True)
    flat[:w] = 1.0 / c  # a whole uniform row
    flat[-w:] = np.eye(c)[0]  # a whole one-hot row
    return flat.reshape(h, w, c).astype(dtype)


def _tie_or_exceed_map(rng, h, w, c, dtype):
    """Pixels whose every later class ties or exceeds the running maximum.

    Each class adds 0 or 1 to the previous one; row 0 ties at every class
    index and row 1 exceeds at every index. The argmax must stay the first index.
    """
    steps = rng.integers(0, 2, size=(h, w, c))
    steps[..., 0] = 0
    steps[0] = 0
    steps[1, :, 1:] = 1
    counts = 1.0 + np.cumsum(steps, axis=2)
    return (counts / counts.sum(axis=2, keepdims=True)).astype(dtype)


class TestBlockedMapsAreBitExact:
    """score_maps and each single-map function equal the whole-array reductions byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [2, 19])
    @pytest.mark.parametrize(
        "h, w, make",
        [
            pytest.param(7, 9, _edge_case_map, id="7-9"),  # below one block
            pytest.param(BLOCK // 128, 128, _edge_case_map, id=f"{BLOCK // 128}-128"),  # exactly one block
            # whole blocks and a short last one
            pytest.param(3 * (BLOCK // 128) + 37, 128, _edge_case_map, id=f"{3 * (BLOCK // 128) + 37}-128"),
            pytest.param(200, 100, _edge_case_map, id="200-100"),  # blocks of 81 rows, 8,100 pixels
            pytest.param(3, BLOCK + 5, _edge_case_map, id=f"3-{BLOCK + 5}"),  # one row wider than a block
            pytest.param(9, 11, _tie_or_exceed_map, id="9-11-ties"),
        ],
    )
    def test_bytes_match_whole_array_oracles(self, rng, dtype, c, h, w, make):
        base = make(rng, h, w, c, dtype)
        for layout, p in layouts(base):
            np.testing.assert_array_equal(p, base)
            expected = [oracle(np.ascontiguousarray(p)) for oracle in ORACLES]
            together = oodseg.score_maps(p)
            alone = [fn(p) for fn in SINGLE_MAPS]
            for name, want, got_together, got_alone in zip(together._fields, expected, together, alone):
                assert got_together.dtype == got_alone.dtype == want.dtype, (layout, name)
                for got in (got_together, got_alone):
                    np.testing.assert_array_equal(got.view(np.int32), want.view(np.int32), err_msg=f"{layout} {name}")

    def test_empty_map(self):
        maps = oodseg.score_maps(np.zeros((0, 4, 3), dtype=np.float32))
        assert [m.shape for m in maps] == [(0, 4)] * 4
        assert [m.dtype for m in maps] == [np.float32] * 3 + [np.int32]


class TestTop2At:
    """``scores._top2_at``: score_maps' top-2 values at the requested pixels only."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "h, w, share",
        [
            (7, 9, 0.5),  # below one chunk
            (96, 128, 1.0),  # 12,288 pixels: one whole chunk and a partial one
            (3, BLOCK + 5, 0.9),  # rows wider than a chunk
        ],
    )
    def test_bytes_match_score_maps_at_the_pixels(self, rng, dtype, h, w, share):
        base = _edge_case_map(rng, h, w, 5, dtype)
        flat = np.flatnonzero(rng.random((h, w)) < share).astype(np.int32)
        full = oodseg.score_maps(base)[1:]
        for layout, p in layouts(base):
            for name, got, want in zip(("margin", "maxprob", "pred"), scores._top2_at(p, flat), full):
                assert got.dtype == want.dtype and got.shape == flat.shape, (layout, name)
                np.testing.assert_array_equal(got.view(np.int32), want.ravel()[flat].view(np.int32),
                                              err_msg=f"{layout} {name}")

    def test_no_pixels_give_empty_arrays(self, rng):
        values = scores._top2_at(random_prob_map(rng, 4, 5, 3), np.zeros(0, dtype=np.intp))
        assert [v.dtype for v in values] == [np.float32, np.float32, np.int32]
        assert all(v.shape == (0,) for v in values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_row_read_is_named(self, rng, bad):
        p = random_prob_map(rng, 3, BLOCK // 2 + 7, 4)
        p[0, 3, 1] = bad  # never read
        p[2, 4, 0] = bad  # in the second chunk
        p[1, 9, 2] = bad  # read first
        flat = np.arange(4, p.shape[0] * p.shape[1])
        with pytest.raises(ValidationError, match=r"^pixel \(1, 9\): non-finite probability$"):
            scores._top2_at(p, flat)


class TestNonFiniteProbabilities:
    @pytest.mark.parametrize("fn", (oodseg.score_maps,) + SINGLE_MAPS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_bad_pixel_in_a_late_block_is_named(self, fn, bad):
        w = 100
        rows = BLOCK // w
        p = np.full((3 * rows + 10, w, 4), 0.25, dtype=np.float32)
        r = 2 * rows + 5  # inside the third block
        p[r, 7, 2] = bad
        p[r + 1, 0, 0] = bad
        p[-1, -1, 3] = np.nan
        with pytest.raises(ValidationError, match=rf"pixel \({r}, 7\): non-finite probability"):
            fn(p)

    @pytest.mark.parametrize("fn", (oodseg.score_maps,) + SINGLE_MAPS)
    def test_first_pixel(self, fn):
        p = np.full((2, 3, 2), 0.5)
        p[0, 0, 1] = np.nan
        with pytest.raises(ValidationError, match=r"pixel \(0, 0\): non-finite probability"):
            fn(p)


ROWS = BLOCK // 100  # rows per block of a 100-pixel-wide map
ENTROPY_VIA = {
    "entropy_map": oodseg.entropy_map,
    "score_maps": lambda p: oodseg.score_maps(p).entropy,
    "extract_segments": lambda p: oodseg.extract_segments(p, 0.5),
}


class TestEntropyExactPath:
    """A block with an entry <= 0 or a non-finite score takes the masked, checked path: same bytes, same errors."""

    @pytest.mark.parametrize("via", ENTROPY_VIA)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_is_named_not_an_earlier_zero(self, rng, via, bad):
        p = random_prob_map(rng, 3 * ROWS + 10, 100, 4)
        r = ROWS + 5  # inside the second block
        p[r, 3, 1] = 0.0  # unmasked, its 0 * ln 0 would be the block's first non-finite score
        p[r, 60, 2] = bad
        p[r + 1, 0, 0] = bad
        with pytest.raises(ValidationError, match=rf"pixel \({r}, 60\): non-finite probability"):
            ENTROPY_VIA[via](p)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["zero_in_every_block", "negative_entries"])
    def test_bytes_match_whole_array_entropy(self, rng, dtype, case):
        p = random_prob_map(rng, 3 * ROWS + 10, 100, 4, dtype)
        if case == "zero_in_every_block":
            for r0 in range(0, p.shape[0], ROWS):
                p[r0 + 1, 7, 2] = 0.0
                p[r0 + 2, 9] = np.eye(4)[1]
        else:
            p[ROWS + 3, 5:9, 0] = -0.25
            p[-1, -1] = [0.5, 0.75, -0.25, 0.0]
        want = [oracle(p) for oracle in ORACLES]
        for got in (ENTROPY_VIA["entropy_map"](p), ENTROPY_VIA["score_maps"](p)):
            np.testing.assert_array_equal(got.view(np.int32), want[0].view(np.int32))
        t = float(np.quantile(want[0], 0.6))
        expected = oodseg.connected_components(oodseg.threshold_mask(want[0], t))
        rows = [per_segment_features(np.array(pixels), *want, p.shape[2]) for pixels in pixel_lists(expected)]
        expected.features = np.array([[row[name] for name in oodseg.FEATURE_NAMES] for row in rows])
        got = oodseg.extract_segments(p, t)
        assert len(got) > 10
        for name in ("ids", "bboxes", "sizes", "label_image"):
            np.testing.assert_array_equal(getattr(got, name), getattr(expected, name), err_msg=name)
        np.testing.assert_array_equal(got.features.view(np.int64), expected.features.view(np.int64))
