import dataclasses
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oodseg
from oodseg import (
    DomainError,
    FormatError,
    IoError,
    NumericalError,
    SchemaError,
    ValidationError,
)

from _oracles import logistic_gradient_fd, logistic_objective, newton_bias_only
from conftest import (IDS_OUTSIDE, HUGE, HUGE_NEGATIVE, NEGATIVE_LABELS, SWEEP_MIN_SIZE, pixel_lists, random_prob_map,
                      table_from_pixels, table_with_negative_label, table_with_second_id, traced_peak)
from oodseg.segments import _grid_components

N_FEATURES = len(oodseg.FEATURE_NAMES)
GT_SHAPE = (6, 6)


def _segments(*pixel_sets):
    return table_from_pixels(GT_SHAPE, pixel_sets)


def _manual_model(weights, bias, means=None, stds=None, dropped=()):
    weights = np.asarray(weights, dtype=np.float64)
    d = weights.size
    return oodseg.MetaModel(
        weights=weights,
        bias=float(bias),
        feature_means=np.zeros(d) if means is None else np.asarray(means, dtype=np.float64),
        feature_stds=np.ones(d) if stds is None else np.asarray(stds, dtype=np.float64),
        l2_lambda=1e-3,
        dropped_features=tuple(dropped),
        feature_names=oodseg.FEATURE_NAMES if d == N_FEATURES else tuple(f"f{i}" for i in range(d)),
    )


class TestLabelSegments:
    def _gt(self):
        gt = np.zeros((6, 6), dtype=np.int32)
        gt[0:2, 0:2] = oodseg.OOD_ID
        gt[5, :] = oodseg.IGNORE_ID
        return gt

    @pytest.mark.parametrize("second_id", IDS_OUTSIDE)
    def test_segment_ids_outside_the_label_image_are_rejected(self, second_id):
        gt = np.zeros((6, 7), dtype=np.int32)
        message = f"^segment id {second_id} is outside the label image, whose largest label is 2$"
        with pytest.raises(SchemaError, match=message):
            oodseg.label_segments(table_with_second_id(second_id), gt)

    @pytest.mark.parametrize("pixel, label", NEGATIVE_LABELS)
    def test_negative_labels_are_rejected(self, pixel, label):
        message = f"pixel {pixel}: negative label {label} in the label image"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            oodseg.label_segments(table_with_negative_label(pixel, label), np.zeros((6, 7), dtype=np.int32))

    def test_fully_on_ood_is_true(self):
        labels = oodseg.label_segments(_segments([(0, 0), (0, 1), (1, 0)]), self._gt())
        np.testing.assert_array_equal(labels, [1])

    def test_fully_off_ood_is_false(self):
        labels = oodseg.label_segments(_segments([(3, 3), (3, 4)]), self._gt())
        np.testing.assert_array_equal(labels, [0])

    def test_coverage_boundary_is_inclusive(self):
        half = _segments([(0, 0), (2, 0)])  # exactly 1 of 2 pixels on OoD
        np.testing.assert_array_equal(oodseg.label_segments(half, self._gt(), tau_tp=0.5), [1])
        under = _segments([(0, 0), (2, 0), (3, 0)])  # 1 of 3 < 0.5
        np.testing.assert_array_equal(oodseg.label_segments(under, self._gt(), tau_tp=0.5), [0])

    def test_ignore_pixels_leave_the_denominator(self):
        seg = _segments([(0, 0), (5, 0), (5, 1)])  # 1 OoD + 2 ignore -> ratio 1/1
        np.testing.assert_array_equal(oodseg.label_segments(seg, self._gt()), [1])

    def test_all_ignore_segment_is_excluded(self):
        seg = _segments([(5, 2), (5, 3)])
        np.testing.assert_array_equal(oodseg.label_segments(seg, self._gt()), [-1])

    def test_tau_one_requires_full_coverage(self):
        segs = _segments([(0, 0), (0, 1)], [(1, 1), (2, 2)])
        labels = oodseg.label_segments(segs, self._gt(), tau_tp=1.0)
        np.testing.assert_array_equal(labels, [1, 0])

    @pytest.mark.parametrize("tau", [0.0, -0.2, 1.5])
    def test_tau_domain(self, tau):
        with pytest.raises(DomainError):
            oodseg.label_segments(_segments(), self._gt(), tau_tp=tau)

    def test_gt_rank_check(self):
        with pytest.raises(SchemaError):
            oodseg.label_segments(_segments(), np.zeros((2, 2, 2), dtype=np.int32))

    @pytest.mark.parametrize("dtype", [np.float32, bool, "U3", object])
    def test_gt_must_be_an_integer_label_mask(self, dtype):
        gt = self._gt().astype(dtype)
        message = f"ground-truth mask must be a rank-2 integer array, got rank-2 {gt.dtype}"
        for call in (oodseg.label_segments, oodseg.match_segments):
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                call(_segments([(1, 1)]), gt)

    def test_gt_shape_must_match_label_image(self):
        with pytest.raises(SchemaError):
            oodseg.label_segments(_segments([(0, 0)]), np.zeros((6, 7), dtype=np.int32))

    def test_table_read_from_csv_is_rejected(self, tmp_path):
        p = np.full((6, 6, 3), 1.0 / 3.0, dtype=np.float32)
        path = tmp_path / "t.csv"
        oodseg.write_feature_csv(oodseg.extract_segments(p, t=0.5), path)
        with pytest.raises(DomainError, match="label image"):
            oodseg.label_segments(oodseg.read_feature_csv(path), self._gt())

    @staticmethod
    def _random_gt(rng, shape):
        return rng.choice(
            np.array([0, 1, 2, oodseg.OOD_ID, oodseg.IGNORE_ID], dtype=np.int32),
            size=shape,
            p=[0.3, 0.2, 0.2, 0.2, 0.1],
        )

    @staticmethod
    def _counted_label(values, tau):
        """The label of a segment whose pixels carry the gt ids ``values``, counted pixel by pixel."""
        considered = [int(v) for v in values if v != oodseg.IGNORE_ID]
        if not considered:
            return -1
        ratio = sum(v == oodseg.OOD_ID for v in considered) / len(considered)
        return 1 if ratio >= tau else 0

    def test_matches_counting_oracle(self, rng):
        gt = self._random_gt(rng, (40, 40))
        checked = 0
        for _ in range(12):
            mask = rng.random((40, 40)) < 0.4
            segments = oodseg.connected_components(mask)
            labels = oodseg.label_segments(segments, gt, tau_tp=0.4)
            for pixels, label in zip(pixel_lists(segments), labels):
                assert label == self._counted_label([gt[r, c] for r, c in pixels], 0.4)
                checked += 1
        assert checked > 200

    def test_grid_layout_matches_counting_oracle(self, rng):
        # Two maps x three thresholds stacked into one 3-D label image, with
        # min_size gaps in the ids. In every block, a fenced segment lies on
        # ignore pixels only and another on OoD pixels only.
        h, w = 30, 40
        gt = self._random_gt(rng, (h, w))
        gt[:, :3] = oodseg.IGNORE_ID
        gt[10:16, 20:28] = oodseg.OOD_ID
        entropies = [oodseg.entropy_map(random_prob_map(rng, h, w, 3)) for _ in range(2)]
        grid = tuple(float(np.quantile(entropies[0], q)) for q in (0.5, 0.7, 0.9))
        for entropy in entropies:
            entropy[:, :3] = entropy[10:16, 20:28] = 1.0
            entropy[:, 3] = entropy[9, 19:29] = entropy[16, 19:29] = entropy[9:17, [19, 28]] = 0.0
            entropy[24:27, 34:37] = 0.0
            entropy[25, 35] = 1.0  # a fenced pixel, dropped by min_size
        table, block = _grid_components(entropies, grid, 8, 3)
        assert table.label_image.shape == (6, h, w)
        assert np.any(np.diff(table.ids) > 1) and np.unique(block).size == 6
        kept = table[rng.random(len(table)) < 0.5]
        for sub in (table, kept):
            labels = oodseg.label_segments(sub, gt, tau_tp=0.4)
            rows = np.searchsorted(table.ids, sub.ids)
            expected = [
                self._counted_label(gt[table.label_image[block[row]] == table.ids[row] + 1], 0.4) for row in rows
            ]
            assert labels.tolist() == expected
        labels = oodseg.label_segments(table, gt, 0.4)
        assert 0 < len(kept) < len(table)
        assert all({-1, 0, 1} <= set(labels[block == b].tolist()) for b in range(6))

    def test_traced_peak_stays_below_the_label_image(self, rng):
        # A frame-sized label image, 12 % labelled: only labelled pixels are counted.
        mask = np.kron(rng.random((256, 512)) < 0.12, np.ones((4, 4), dtype=bool))
        segments = oodseg.connected_components(mask)
        gt = self._random_gt(rng, mask.shape)
        labels, peak = traced_peak(lambda: oodseg.label_segments(segments, gt))
        assert 0.10 < mask.mean() < 0.14 and labels.size > 5_000
        assert peak <= 1.5 * segments.label_image.nbytes, peak / segments.label_image.nbytes


class TestStandardize:
    def test_two_point_column_uses_population_std(self):
        x = np.array([[0.0], [1.0]])
        std, means, stds, dropped = oodseg.standardize_fit(x)
        assert means[0] == 0.5
        assert stds[0] == 0.5  # population, not sample (0.707...)
        np.testing.assert_array_equal(std[:, 0], [-1.0, 1.0])
        assert dropped.size == 0

    def test_columns_come_back_centered_and_unit(self, rng):
        x = rng.standard_normal((50, 6)) * rng.uniform(0.1, 30.0, 6) + rng.uniform(-5, 5, 6)
        std, means, stds, dropped = oodseg.standardize_fit(x)
        assert dropped.size == 0
        assert_allclose(std.mean(axis=0), 0.0, atol=1e-9)
        assert_allclose(std.std(axis=0), 1.0, atol=1e-9)
        assert_allclose(means, x.mean(axis=0), rtol=1e-12)
        assert_allclose(stds, x.std(axis=0), rtol=1e-12)

    def test_constant_column_dropped_with_exact_zero_std(self, rng):
        x = rng.standard_normal((20, 3))
        x[:, 1] = 7.25
        std, means, stds, dropped = oodseg.standardize_fit(x)
        np.testing.assert_array_equal(dropped, [1])
        assert stds[1] == 0.0
        assert means[1] == 7.25
        np.testing.assert_array_equal(std[:, 1], 0.0)

    def test_barely_varying_column_is_kept(self):
        x = np.zeros((4, 1))
        x[0, 0] = 1e-9
        _, _, stds, dropped = oodseg.standardize_fit(x)
        assert dropped.size == 0
        assert stds[0] > 0.0

    def test_single_row_drops_everything(self):
        std, _, stds, dropped = oodseg.standardize_fit(np.array([[3.0, -1.0]]))
        np.testing.assert_array_equal(dropped, [0, 1])
        np.testing.assert_array_equal(stds, [0.0, 0.0])
        np.testing.assert_array_equal(std, [[0.0, 0.0]])

    def test_shape_checks(self):
        with pytest.raises(SchemaError):
            oodseg.standardize_fit(np.zeros(4))
        with pytest.raises(DomainError):
            oodseg.standardize_fit(np.zeros((0, 3)))


def _gaussian_blobs(n_per_class=200, d=2, seed=20260815):
    rng = np.random.default_rng(seed)
    x = np.concatenate([
        rng.standard_normal((n_per_class, d)) - 1.0,
        rng.standard_normal((n_per_class, d)) + 1.0,
    ])
    y = np.concatenate([np.zeros(n_per_class), np.ones(n_per_class)])
    return x, y


class TestFitLogistic:
    def test_all_negative_labels_reduce_to_bias_only(self, rng):
        x, _, _, _ = oodseg.standardize_fit(rng.standard_normal((60, 3)))
        y = np.zeros(60)
        lam = 1.0
        model = oodseg.fit_logistic(x, y, l2_lambda=lam)
        # centered features carry no gradient, so the weights stay at zero and
        # the bias solves the 1-D problem
        assert np.abs(model.weights).max() < 1e-8
        assert_allclose(model.bias, newton_bias_only(y, lam), atol=1e-10)
        assert model.grad_norm < 1e-8

    def test_all_positive_labels_bias(self, rng):
        x, _, _, _ = oodseg.standardize_fit(rng.standard_normal((40, 2)))
        y = np.ones(40)
        model = oodseg.fit_logistic(x, y, l2_lambda=0.5)
        assert np.abs(model.weights).max() < 1e-8
        assert_allclose(model.bias, newton_bias_only(y, 0.5), atol=1e-10)
        assert model.bias > 0

    def test_sign_symmetric_feature_gets_zero_weight(self, rng):
        base = rng.standard_normal((40, 2))
        y_half = rng.integers(0, 2, 40).astype(np.float64)
        noise = rng.uniform(0.5, 2.0, 40)
        # every row appears twice, identical except for the sign of column 2,
        # so the penalized likelihood is an even function of w[2]
        x = np.concatenate([
            np.column_stack([base, noise]),
            np.column_stack([base, -noise]),
        ])
        y = np.concatenate([y_half, y_half])
        model = oodseg.fit_logistic(x, y, l2_lambda=1e-3)
        assert abs(model.weights[2]) < 1e-8
        assert model.grad_norm < 1e-8

    def test_converges_on_gaussian_blobs(self):
        x_raw, y = _gaussian_blobs()
        x, _, _, _ = oodseg.standardize_fit(x_raw)
        model = oodseg.fit_logistic(x, y, l2_lambda=1e-3)
        assert model.grad_norm < 1e-8
        assert model.n_iter <= 50
        # both dimensions separate the classes in the same direction
        assert model.weights.min() > 0
        proba = oodseg.predict_proba(model, x)
        accuracy = ((proba >= 0.5) == y).mean()
        assert accuracy > 0.85

    def test_finite_difference_gradient_vanishes_at_optimum(self):
        x_raw, y = _gaussian_blobs()
        x, _, _, _ = oodseg.standardize_fit(x_raw)
        lam = 1e-3
        model = oodseg.fit_logistic(x, y, l2_lambda=lam)
        g_fd = logistic_gradient_fd(x, y, model.weights, model.bias, lam)
        assert np.abs(g_fd).max() < 1e-6

    def test_gradient_formula_matches_finite_differences(self, rng):
        x, y = _gaussian_blobs(n_per_class=30, seed=77)
        lam = 0.05
        for _ in range(20):
            theta = rng.uniform(-0.8, 0.8, x.shape[1] + 1)
            w, b = theta[:-1], theta[-1]
            z = x @ w + b
            mu = 1.0 / (1.0 + np.exp(-z))
            g_an = np.concatenate([x.T @ (y - mu) - lam * w, [(y - mu).sum() - lam * b]])
            g_fd = logistic_gradient_fd(x, y, w, b, lam)
            tol = 1e-6 * max(1.0, float(np.abs(g_fd).max()))
            assert np.abs(g_an - g_fd).max() <= tol

    def test_optimum_beats_a_line_of_candidates(self, rng):
        x, y = _gaussian_blobs(n_per_class=50, seed=3)
        lam = 1e-2
        model = oodseg.fit_logistic(x, y, l2_lambda=lam)
        theta = np.concatenate([model.weights, [model.bias]])
        f_opt = logistic_objective(x, y, model.weights, model.bias, lam)
        for _ in range(3):
            direction = rng.standard_normal(theta.size)
            direction /= np.linalg.norm(direction)
            for s in np.linspace(-2.0, 2.0, 201):
                cand = theta + s * direction
                assert logistic_objective(x, y, cand[:-1], cand[-1], lam) <= f_opt + 1e-10

    def test_refit_is_bit_identical(self, rng):
        x, y = _gaussian_blobs(n_per_class=40, seed=11)
        a = oodseg.fit_logistic(x, y)
        b = oodseg.fit_logistic(x, y)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        assert a.n_iter == b.n_iter
        assert a.grad_norm == b.grad_norm

    def test_more_regularization_shrinks_weights(self):
        x, y = _gaussian_blobs(n_per_class=50, seed=5)
        small = oodseg.fit_logistic(x, y, l2_lambda=1e-4)
        large = oodseg.fit_logistic(x, y, l2_lambda=10.0)
        assert np.linalg.norm(large.weights) < np.linalg.norm(small.weights)

    def test_zero_tolerance_stops_where_rounding_holds_the_iterate(self):
        # No gradient norm is below 0, so only the stops on a tie or a failed
        # line search can end the fit before max_iter.
        x, y = _gaussian_blobs(n_per_class=50, seed=5)
        converged = oodseg.fit_logistic(x, y)
        model = oodseg.fit_logistic(x, y, grad_tol=0.0)
        assert converged.n_iter <= model.n_iter < 50
        assert max(model.grad_norm, converged.grad_norm) < 1e-8
        assert_allclose(model.weights, converged.weights, rtol=1e-9)

    def test_max_iter_zero_returns_start_point(self):
        x, y = _gaussian_blobs(n_per_class=10, seed=1)
        model = oodseg.fit_logistic(x, y, max_iter=0)
        np.testing.assert_array_equal(model.weights, 0.0)
        assert model.bias == 0.0
        assert model.n_iter == 0
        assert math.isfinite(model.grad_norm)

    def test_non_finite_features_raise_numerical_error(self):
        with np.errstate(invalid="ignore"):  # inf * 0 inside matmul is the probe
            with pytest.raises(NumericalError) as err:
                oodseg.fit_logistic(np.array([[np.inf]]), np.array([1.0]))
        assert err.value.iteration == 0

    def test_input_validation(self):
        x = np.zeros((4, 2))
        with pytest.raises(DomainError, match="drop excluded"):
            oodseg.fit_logistic(x, np.array([0, 1, -1, 0]))
        with pytest.raises(DomainError):
            oodseg.fit_logistic(x, np.array([0, 1, 2, 0]))
        with pytest.raises(SchemaError):
            oodseg.fit_logistic(x, np.zeros(3))
        with pytest.raises(DomainError):
            oodseg.fit_logistic(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(DomainError):
            oodseg.fit_logistic(x, np.zeros(4), l2_lambda=-1.0)
        with pytest.raises(SchemaError):
            oodseg.fit_logistic(np.zeros(4), np.zeros(4))


class TestFitArguments:
    """l2_lambda and grad_tol must be finite numbers >= 0 and max_iter an integer >= 0, checked before any work."""

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"l2_lambda": np.nan}, "l2_lambda must be a finite number >= 0, got nan"),
            ({"l2_lambda": np.inf}, "l2_lambda must be a finite number >= 0, got inf"),
            ({"l2_lambda": -1.0}, "l2_lambda must be a finite number >= 0, got -1.0"),
            ({"l2_lambda": "0.1"}, "l2_lambda must be a finite number >= 0, got '0.1'"),
            ({"grad_tol": np.float32(np.nan)}, "grad_tol must be a finite number >= 0, got nan"),
            ({"grad_tol": -1e-8}, "grad_tol must be a finite number >= 0, got -1e-08"),
            ({"max_iter": -1}, "max_iter must be an integer >= 0, got -1"),
            ({"max_iter": 2.5}, "max_iter must be an integer >= 0, got 2.5"),
            ({"max_iter": True}, "max_iter must be an integer >= 0, got True"),
            ({"l2_lambda": HUGE}, "l2_lambda must be a finite number >= 0, got an integer of 1329 bits"),
            ({"l2_lambda": HUGE_NEGATIVE},
             "l2_lambda must be a finite number >= 0, got a negative integer of 16610 bits"),
            ({"grad_tol": HUGE}, "grad_tol must be a finite number >= 0, got an integer of 1329 bits"),
            ({"max_iter": HUGE_NEGATIVE}, "max_iter must be an integer >= 0, got a negative integer of 16610 bits"),
        ],
        ids=["lambda-nan", "lambda-inf", "lambda-negative", "lambda-str", "grad_tol-nan", "grad_tol-negative",
             "max_iter-negative", "max_iter-float", "max_iter-bool", "lambda-huge", "lambda-huge-negative",
             "grad_tol-huge", "max_iter-huge-negative"],
    )
    @pytest.mark.parametrize("fit", ["fit_logistic", "fit_meta"])
    def test_rejected_before_any_work(self, monkeypatch, fit, kwargs, message):
        def forbidden(*args):
            raise AssertionError("the fit started before its arguments were checked")

        monkeypatch.setattr(oodseg.meta, "standardize_fit", forbidden)
        monkeypatch.setattr(oodseg.meta, "_sigmoid", forbidden)
        x, y = _gaussian_blobs(n_per_class=5, seed=1)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            getattr(oodseg, fit)(x, y, **kwargs)

    def test_numpy_and_zero_values_are_accepted(self):
        x, y = _gaussian_blobs(n_per_class=10, seed=1)
        model = oodseg.fit_meta(x, y, l2_lambda=np.float32(0.5), max_iter=np.int64(3), grad_tol=0)
        assert model.l2_lambda == 0.5 and model.n_iter <= 3


class TestFitMeta:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feature_is_named_at_entry(self, rng, bad):
        x = rng.standard_normal((10, 6))
        x[3, 4] = bad
        x[7, 0] = bad
        y = (np.arange(10) % 2).astype(float)
        with pytest.raises(ValidationError, match=r"feature row 3, column 4: non-finite value"):
            oodseg.fit_meta(x, y)
        model = oodseg.fit_meta(np.nan_to_num(x, nan=0.0, posinf=0.0), y)
        with pytest.raises(ValidationError, match=r"feature row 3, column 4: non-finite value"):
            oodseg.predict_proba(model, x)

    def test_equivalent_to_manual_standardize_then_fit(self, rng):
        x = rng.standard_normal((80, 5)) * 3.0 + 1.0
        y = (x[:, 0] + 0.3 * rng.standard_normal(80) > 1.0).astype(float)
        meta = oodseg.fit_meta(x, y)
        std, means, stds, _ = oodseg.standardize_fit(x)
        core = oodseg.fit_logistic(std, y)
        # both paths fit on the same C-ordered [x | 1], so the bytes agree
        np.testing.assert_array_equal(meta.weights, core.weights)
        assert (meta.bias, meta.n_iter, meta.grad_norm) == (core.bias, core.n_iter, core.grad_norm)
        np.testing.assert_array_equal(meta.feature_means, means)
        np.testing.assert_array_equal(meta.feature_stds, stds)

    def test_seed_8_default_table_stops_within_50_iterations(self):
        # A table where rounding can hold the gradient just above grad_tol
        # while the iterate no longer moves; the fit must not run to max_iter.
        bench = oodseg.build_benchmark(dataclasses.replace(oodseg.DEFAULT_CONFIG, seed=8), oodseg.DEFAULT_N_SCENES)
        features, labels = oodseg.build_training_table(bench, oodseg.DEFAULT_GRID, min_size=SWEEP_MIN_SIZE)
        assert features.shape == (5643, N_FEATURES)
        model = oodseg.fit_meta(features, labels)
        assert model.n_iter <= 50
        assert model.grad_norm < 1e-8

    def test_constant_column_gets_exact_zero_weight(self, rng):
        x = rng.standard_normal((60, 4))
        x[:, 2] = -3.5
        y = (x[:, 0] > 0).astype(float)
        meta = oodseg.fit_meta(x, y)
        assert meta.dropped_features == (2,)
        assert meta.weights[2] == 0.0
        assert meta.feature_stds[2] == 0.0
        assert abs(meta.weights[0]) > 0.1

    def test_feature_scaling_does_not_change_predictions(self, rng):
        x = rng.standard_normal((100, 4)) * np.array([1.0, 5.0, 0.2, 40.0])
        y = (x @ np.array([1.0, -0.4, 2.0, 0.05]) > 0).astype(float)
        base = oodseg.fit_meta(x, y)
        scaled = oodseg.fit_meta(x * 10.0, y)
        assert_allclose(
            oodseg.predict_proba(base, x),
            oodseg.predict_proba(scaled, x * 10.0),
            atol=1e-9,
        )

    def test_canonical_names_for_full_width_tables(self, rng):
        x = rng.standard_normal((30, N_FEATURES))
        y = rng.integers(0, 2, 30).astype(float)
        meta = oodseg.fit_meta(x, y)
        assert meta.feature_names == oodseg.FEATURE_NAMES
        narrow = oodseg.fit_meta(x[:, :3], y)
        assert narrow.feature_names == ("f0", "f1", "f2")


class TestPredictProba:
    def test_matches_longhand_sigmoid(self, rng):
        model = _manual_model(
            weights=rng.standard_normal(4),
            bias=0.3,
            means=rng.standard_normal(4),
            stds=rng.uniform(0.5, 2.0, 4),
        )
        x = rng.standard_normal((25, 4)) * 2.0
        got = oodseg.predict_proba(model, x)
        for i in range(25):
            z = model.bias
            for j in range(4):
                z += model.weights[j] * (x[i, j] - model.feature_means[j]) / model.feature_stds[j]
            assert_allclose(got[i], 1.0 / (1.0 + math.exp(-z)), rtol=1e-12)

    def test_zero_weight_model_outputs_half(self):
        model = _manual_model(np.zeros(3), bias=0.0)
        np.testing.assert_array_equal(oodseg.predict_proba(model, np.ones((5, 3))), 0.5)

    def test_monotone_in_positively_weighted_feature(self):
        model = _manual_model([1.0, 0.0], bias=-0.5)
        x = np.column_stack([np.linspace(-4, 4, 21), np.zeros(21)])
        proba = oodseg.predict_proba(model, x)
        assert np.all(np.diff(proba) > 0)

    def test_extreme_scores_saturate_without_overflow(self):
        # exp underflow to 0.0 is the saturation mechanism and is fine; what
        # must never happen is overflow or a NaN from exp(+800)
        model = _manual_model([1.0], bias=0.0)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            proba = oodseg.predict_proba(model, np.array([[-800.0], [800.0]]))
        np.testing.assert_array_equal(proba, [0.0, 1.0])

    def test_dropped_feature_is_inert(self):
        model = _manual_model([0.7, 0.0], bias=0.1, stds=[1.0, 0.0], dropped=(1,))
        a = oodseg.predict_proba(model, np.array([[2.0, 123.0]]))
        b = oodseg.predict_proba(model, np.array([[2.0, -9e9]]))
        np.testing.assert_array_equal(a, b)

    def test_width_check(self):
        model = _manual_model([0.5, 0.5], bias=0.0)
        with pytest.raises(SchemaError):
            oodseg.predict_proba(model, np.zeros((3, 5)))
        with pytest.raises(SchemaError):
            oodseg.predict_proba(model, np.zeros(2))


class TestFeatureWeights:
    def test_ranked_by_magnitude(self):
        model = _manual_model([0.5, -2.0, 1.0], bias=0.0)
        assert oodseg.feature_weights(model) == [("f1", -2.0), ("f2", 1.0), ("f0", 0.5)]

    def test_ties_keep_canonical_order(self):
        model = _manual_model([1.0, -1.0, 0.0], bias=0.0)
        assert oodseg.feature_weights(model) == [("f0", 1.0), ("f1", -1.0), ("f2", 0.0)]

    def test_full_width_uses_canonical_names(self, rng):
        weights = rng.standard_normal(N_FEATURES)
        model = _manual_model(weights, bias=0.0)
        ranking = oodseg.feature_weights(model)
        assert {name for name, _ in ranking} == set(oodseg.FEATURE_NAMES)
        magnitudes = [abs(w) for _, w in ranking]
        assert magnitudes == sorted(magnitudes, reverse=True)


class TestApplyMetaFilter:
    def _segments(self, rng, n_target=8):
        p = random_prob_map(rng, 24, 24, 5)
        t = float(np.quantile(oodseg.entropy_map(p), 0.8))
        segments = oodseg.extract_segments(p, t=t)
        assert len(segments) >= n_target
        return segments

    def test_extreme_bias_keeps_or_removes_everything(self, rng):
        segments = self._segments(rng)
        keep_all = _manual_model(np.zeros(N_FEATURES), bias=50.0)
        kept, removed = oodseg.apply_meta_filter(segments, keep_all)
        assert list(kept) == list(segments) and len(removed) == 0
        drop_all = _manual_model(np.zeros(N_FEATURES), bias=-50.0)
        kept, removed = oodseg.apply_meta_filter(segments, drop_all)
        assert len(kept) == 0 and list(removed) == list(segments)

    def test_partition_matches_predict_proba(self, rng):
        segments = self._segments(rng)
        weights = rng.standard_normal(N_FEATURES)
        model = _manual_model(weights, bias=0.0)
        kept, removed = oodseg.apply_meta_filter(segments, model, cutoff=0.5)
        proba = oodseg.predict_proba(model, oodseg.features_matrix(segments))
        expected_kept = [seg for seg, p in zip(segments, proba) if p >= 0.5]
        assert list(kept) == expected_kept
        assert list(removed) == [seg for seg in segments if seg not in expected_kept]
        # order is preserved in both halves, and rows carry their features along
        ids = [seg.id for seg in segments]
        assert [seg.id for seg in kept] == [i for i in ids if i in {s.id for s in kept}]
        np.testing.assert_array_equal(kept.features, oodseg.features_matrix(segments)[proba >= 0.5])
        assert kept.label_image is segments.label_image

    def test_empty_input(self):
        model = _manual_model(np.zeros(N_FEATURES), bias=0.0)
        kept, removed = oodseg.apply_meta_filter(oodseg.SegmentTable.empty(), model)
        assert len(kept) == len(removed) == 0

    @pytest.mark.parametrize("cutoff", [0.0, 1.0, -0.5])
    def test_cutoff_domain(self, cutoff):
        model = _manual_model(np.zeros(N_FEATURES), bias=0.0)
        with pytest.raises(DomainError):
            oodseg.apply_meta_filter(oodseg.SegmentTable.empty(), model, cutoff=cutoff)


class TestSerialization:
    def _fitted(self, rng, with_dropped=False):
        x = rng.standard_normal((60, N_FEATURES))
        if with_dropped:
            x[:, 4] = 2.0
            x[:, 9] = -1.0
        y = (x[:, 0] - x[:, 1] > 0).astype(float)
        return oodseg.fit_meta(x, y), x

    @pytest.mark.parametrize("with_dropped", [False, True])
    def test_round_trip_is_exact(self, tmp_path, rng, with_dropped):
        model, x = self._fitted(rng, with_dropped)
        path = tmp_path / "model.json"
        oodseg.save_meta_model(model, path)
        loaded = oodseg.load_meta_model(path)
        # JSON floats round-trip exactly through repr
        np.testing.assert_array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        np.testing.assert_array_equal(loaded.feature_means, model.feature_means)
        np.testing.assert_array_equal(loaded.feature_stds, model.feature_stds)
        assert loaded.l2_lambda == model.l2_lambda
        assert loaded.dropped_features == model.dropped_features
        assert loaded.feature_names == oodseg.FEATURE_NAMES
        np.testing.assert_array_equal(
            oodseg.predict_proba(loaded, x), oodseg.predict_proba(model, x)
        )

    def test_file_is_stable_json(self, tmp_path, rng):
        model, _ = self._fitted(rng)
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        oodseg.save_meta_model(model, path_a)
        oodseg.save_meta_model(model, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        payload = json.loads(path_a.read_text())
        assert set(payload) == {"weights", "bias", "means", "stds", "lambda", "dropped", "feature_names"}
        assert payload["feature_names"] == list(oodseg.FEATURE_NAMES)

    def _payload(self, rng):
        model, _ = self._fitted(rng)
        return {
            "weights": [float(v) for v in model.weights],
            "bias": model.bias,
            "means": [float(v) for v in model.feature_means],
            "stds": [float(v) for v in model.feature_stds],
            "lambda": model.l2_lambda,
            "dropped": [],
            "feature_names": list(oodseg.FEATURE_NAMES),
        }

    def _write(self, tmp_path, payload):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            oodseg.load_meta_model(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            oodseg.load_meta_model(path)

    def test_missing_and_extra_keys(self, tmp_path, rng):
        payload = self._payload(rng)
        del payload["bias"]
        with pytest.raises(SchemaError):
            oodseg.load_meta_model(self._write(tmp_path, payload))
        payload = self._payload(rng)
        payload["extra"] = 1
        with pytest.raises(SchemaError):
            oodseg.load_meta_model(self._write(tmp_path, payload))

    def test_reordered_feature_names(self, tmp_path, rng):
        payload = self._payload(rng)
        payload["feature_names"][0], payload["feature_names"][1] = (
            payload["feature_names"][1],
            payload["feature_names"][0],
        )
        with pytest.raises(SchemaError):
            oodseg.load_meta_model(self._write(tmp_path, payload))

    def test_wrong_vector_length(self, tmp_path, rng):
        payload = self._payload(rng)
        payload["weights"] = payload["weights"][:-1]
        with pytest.raises(SchemaError):
            oodseg.load_meta_model(self._write(tmp_path, payload))

    def test_non_finite_parameter(self, tmp_path, rng):
        payload = self._payload(rng)
        payload["weights"][3] = float("inf")
        with pytest.raises(ValidationError):
            oodseg.load_meta_model(self._write(tmp_path, payload))

    def test_dropped_index_out_of_range(self, tmp_path, rng):
        payload = self._payload(rng)
        payload["dropped"] = [N_FEATURES]
        with pytest.raises(SchemaError):
            oodseg.load_meta_model(self._write(tmp_path, payload))

    def test_dropped_feature_with_nonzero_weight(self, tmp_path, rng):
        payload = self._payload(rng)
        payload["dropped"] = [0]
        payload["weights"][0] = 0.25
        with pytest.raises(ValidationError):
            oodseg.load_meta_model(self._write(tmp_path, payload))

    @pytest.mark.parametrize(
        "change,error,message",
        [
            ({"bias": "x"}, SchemaError, "must be JSON numbers"),
            ({"bias": None}, SchemaError, "must be JSON numbers"),
            ({"bias": True}, SchemaError, "must be JSON numbers"),
            ({"weights": ["a"] * N_FEATURES}, SchemaError, "must be JSON numbers"),
            ({"weights": ["0.5"] * N_FEATURES}, SchemaError, "must be JSON numbers"),
            ({"weights": [[0.5]] * N_FEATURES}, SchemaError, "must be JSON numbers"),
            ({"means": 0.0}, SchemaError, f"must each have {N_FEATURES} entries"),
            ({"dropped": 3}, SchemaError, "dropped must be a list of feature indices"),
            ({"dropped": [True]}, SchemaError, "dropped must be a list of feature indices"),
            ({"dropped": [1.0]}, SchemaError, "dropped must be a list of feature indices"),
            ({"feature_names": 3}, SchemaError, "feature_names do not match"),
            ({"lambda": -1.0}, ValidationError, "lambda >= 0"),
            ({"lambda": float("inf")}, ValidationError, "must be finite"),
        ],
        ids=["bias-str", "bias-null", "bias-bool", "weights-words", "weights-numeric-str", "weights-nested",
             "means-scalar", "dropped-int", "dropped-bool", "dropped-float", "feature_names-int",
             "lambda-negative", "lambda-inf"],
    )
    def test_wrongly_typed_or_out_of_domain_field(self, tmp_path, rng, change, error, message):
        payload = self._payload(rng)
        payload["weights"][1] = 0.0  # so a dropped index 1 alone would be consistent
        payload.update(change)
        path = self._write(tmp_path, payload)
        with pytest.raises(error, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            oodseg.load_meta_model(path)

    @pytest.mark.parametrize("field", ["bias", "lambda", "weights"])
    def test_integer_too_large_for_a_float_is_not_finite(self, tmp_path, rng, field):
        payload = self._payload(rng)
        if field == "weights":
            payload["weights"][2] = 10**400
        else:
            payload[field] = 10**400
        path = self._write(tmp_path, payload)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: model parameters must be finite"):
            oodseg.load_meta_model(path)

    @pytest.mark.parametrize(
        "breakage,error",
        [("three_columns", SchemaError), ("short_weights", SchemaError), ("nan_bias", ValidationError)],
    )
    def test_save_refuses_what_load_rejects(self, tmp_path, rng, breakage, error):
        model, x = self._fitted(rng)
        if breakage == "three_columns":
            model = oodseg.fit_meta(x[:, :3], (x[:, 0] > 0).astype(float))
        elif breakage == "short_weights":
            model = dataclasses.replace(model, weights=model.weights[:-1])
        else:
            model = dataclasses.replace(model, bias=float("nan"))
        path = tmp_path / f"{breakage}.json"
        with pytest.raises(error, match=f"{breakage}.json"):
            oodseg.save_meta_model(model, path)
        assert not path.exists()
