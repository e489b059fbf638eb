import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import oodseg
from oodseg import cli
from oodseg.cli import main

SMALL = oodseg.SceneConfig(
    height=32,
    width=32,
    num_classes=5,
    n_regions=8,
    n_ood_blobs=2,
    blob_radius_range=(3.0, 5.0),
    seed=123,
)


# sha256 of the CSV that `segments --gt` writes for DEFAULT_CONFIG's scene.
# Any change in a feature's last bit, e.g. from another summation order,
# changes them.
PINNED_CSV_SHA256 = {
    ("0.3", "10"): "7a92f6c41d84cf50f3ff09890a723c59e920ca363ea5435298f9b44959be08a3",
    ("0.3", "1"): "6b6b79e35b0ad57d7a314160c7ae0ae0f930002edd0d650c14340322a3380a91",
    ("0.7", "10"): "988ae83eb115a9a0cf2510bd9defb04275b349d564227dd107ae02b2f60ef18e",
    ("0.7", "1"): "8c56bbc2ade5f66262ba94340a13f644f2cc8b8789c77a36cf2c177d1cae2601",
}


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "bench"
    oodseg.generate_benchmark(SMALL, n_scenes=2, out_dir=out)
    return out


@pytest.fixture()
def scene_files(tmp_path):
    prob, gt, _ = oodseg.generate_scene(SMALL)
    prob_path = tmp_path / "prob.npy"
    gt_path = tmp_path / "gt.npy"
    oodseg.write_npy(prob, prob_path)
    oodseg.write_npy(gt, gt_path)
    return prob_path, gt_path


class TestScore:
    def test_output_matches_library_bytes(self, tmp_path, scene_files):
        prob_path, _ = scene_files
        out = tmp_path / "score.npy"
        assert main(["score", "--in", str(prob_path), "--metric", "entropy", "--out", str(out)]) == 0
        ref = tmp_path / "ref.npy"
        oodseg.write_npy(oodseg.entropy_map(oodseg.read_npy(prob_path, expected_rank=3)), ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_uniform_map_scores_one_everywhere(self, tmp_path):
        prob_path = tmp_path / "uniform.npy"
        oodseg.write_npy(np.full((4, 4, 4), 0.25, dtype=np.float32), prob_path)
        out = tmp_path / "score.npy"
        assert main(["score", "--in", str(prob_path), "--out", str(out)]) == 0
        np.testing.assert_array_equal(oodseg.read_npy(out, expected_rank=2), 1.0)

    @pytest.mark.parametrize("metric,fn", [("margin", oodseg.margin_map), ("maxprob", oodseg.maxprob_map)])
    def test_other_metrics(self, tmp_path, scene_files, metric, fn):
        prob_path, _ = scene_files
        out = tmp_path / "score.npy"
        assert main(["score", "--in", str(prob_path), "--metric", metric, "--out", str(out)]) == 0
        np.testing.assert_array_equal(
            oodseg.read_npy(out, expected_rank=2),
            fn(oodseg.read_npy(prob_path, expected_rank=3)),
        )

    def test_invalid_probabilities_fail(self, tmp_path, capsys):
        bad = np.full((2, 2, 2), 0.1, dtype=np.float32)  # sums to 0.2
        prob_path = tmp_path / "bad.npy"
        oodseg.write_npy(bad, prob_path)
        out = tmp_path / "score.npy"
        assert main(["score", "--in", str(prob_path), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_no_validate_flag_is_a_usage_error(self, tmp_path, scene_files, capsys):
        prob_path, _ = scene_files
        out = tmp_path / "score.npy"
        assert main(["score", "--in", str(prob_path), "--no-validate", "--out", str(out)]) == 2
        assert "unrecognized arguments: --no-validate" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_is_exit_3(self, tmp_path, capsys):
        code = main(["score", "--in", str(tmp_path / "none.npy"), "--out", str(tmp_path / "o.npy")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_unknown_metric_is_usage_error(self, tmp_path, capsys):
        code = main(["score", "--in", "x.npy", "--metric", "gini", "--out", "y.npy"])
        assert code == 2
        capsys.readouterr()


class TestSegments:
    def test_one_hot_map_yields_header_only_csv(self, tmp_path):
        prob = np.zeros((6, 6, 3), dtype=np.float32)
        prob[:, :, 0] = 1.0
        prob_path = tmp_path / "prob.npy"
        oodseg.write_npy(prob, prob_path)
        out = tmp_path / "segments.csv"
        assert main(["segments", "--prob", str(prob_path), "--t", "0.5", "--out", str(out)]) == 0
        table = oodseg.read_feature_csv(out)
        assert len(table) == 0 and table.labels is None

    def test_full_coverage_at_t_zero(self, tmp_path):
        prob = np.full((5, 4, 4), 0.25, dtype=np.float32)
        prob_path = tmp_path / "prob.npy"
        oodseg.write_npy(prob, prob_path)
        out = tmp_path / "segments.csv"
        code = main(
            ["segments", "--prob", str(prob_path), "--t", "0.0", "--min-size", "1", "--out", str(out)]
        )
        assert code == 0
        table = oodseg.read_feature_csv(out)
        assert len(table) == 1
        np.testing.assert_array_equal(table.bboxes[0], [0, 0, 4, 3])
        assert table.features[0][0] == 20.0  # size column

    def test_rows_match_library_extraction(self, tmp_path, scene_files):
        prob_path, _ = scene_files
        out = tmp_path / "segments.csv"
        code = main(["segments", "--prob", str(prob_path), "--t", "0.4", "--out", str(out)])
        assert code == 0
        table = oodseg.read_feature_csv(out)
        segments = oodseg.extract_segments(
            oodseg.read_npy(prob_path, expected_rank=3), t=0.4, min_size=10
        )
        assert len(table) == len(segments) > 0
        np.testing.assert_array_equal(table.ids, [s.id for s in segments])
        np.testing.assert_array_equal(table.features, oodseg.features_matrix(segments))

    def test_diagonal_pixels_form_one_segment(self, tmp_path, capsys):
        prob = np.zeros((4, 4, 2), dtype=np.float32)
        prob[:, :, 0] = 1.0
        for r, c in [(0, 0), (1, 1)]:  # two diagonal high-entropy pixels
            prob[r, c] = 0.5
        prob_path = tmp_path / "prob.npy"
        oodseg.write_npy(prob, prob_path)
        out = tmp_path / "segments.csv"
        args = ["segments", "--prob", str(prob_path), "--t", "0.9", "--min-size", "1", "--out", str(out)]
        assert main(args) == 0
        assert oodseg.read_feature_csv(out).sizes.tolist() == [2]
        out.unlink()
        assert main(args[:-2] + ["--connectivity", "4"] + args[-2:]) == 2
        assert "unrecognized arguments: --connectivity 4" in capsys.readouterr().err
        assert not out.exists()

    def test_gt_adds_labels(self, tmp_path, scene_files):
        prob_path, gt_path = scene_files
        out = tmp_path / "segments.csv"
        code = main(
            ["segments", "--prob", str(prob_path), "--t", "0.4", "--gt", str(gt_path), "--out", str(out)]
        )
        assert code == 0
        table = oodseg.read_feature_csv(out)
        assert table.labels is not None
        assert set(np.unique(table.labels)) <= {0, 1}
        segments = oodseg.extract_segments(
            oodseg.read_npy(prob_path, expected_rank=3), t=0.4, min_size=10
        )
        expected = oodseg.label_segments(segments, oodseg.read_npy(gt_path, expected_rank=2))
        np.testing.assert_array_equal(table.labels, expected[expected != -1])

    def test_all_ignore_gt_reports_exclusions(self, tmp_path, capsys):
        prob = np.full((6, 6, 3), 1.0 / 3.0, dtype=np.float32)
        gt = np.full((6, 6), oodseg.IGNORE_ID, dtype=np.int32)
        prob_path, gt_path = tmp_path / "p.npy", tmp_path / "g.npy"
        oodseg.write_npy(prob, prob_path)
        oodseg.write_npy(gt, gt_path)
        out = tmp_path / "segments.csv"
        code = main(
            ["segments", "--prob", str(prob_path), "--t", "0.5", "--gt", str(gt_path), "--out", str(out)]
        )
        assert code == 0
        assert "excluded 1 segment" in capsys.readouterr().err
        assert len(oodseg.read_feature_csv(out)) == 0

    def test_float_gt_is_a_schema_error(self, tmp_path, scene_files, capsys):
        prob_path, _ = scene_files
        score_path = tmp_path / "score.npy"
        oodseg.write_npy(np.zeros((32, 32), dtype=np.float32), score_path)
        code = main(
            ["segments", "--prob", str(prob_path), "--t", "0.4", "--gt", str(score_path),
             "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert "int32" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "gt,message",
        [
            (np.zeros((64, 128), dtype=np.int32), "shape (64, 128) != probability maps' (128, 128)"),
            (np.full((128, 128), 200, dtype=np.int32), "pixel (0, 0): label mask class id 200 outside 0..10"),
            (np.full((128, 128), 5.0, dtype=np.float32), "ground truth must be an int32 label mask, got float32"),
        ],
        ids=["short", "id-200", "float32"],
    )
    def test_gt_is_checked_against_the_map(self, tmp_path, capsys, gt, message):
        """A gt mask the benchmark loader would reject fails here too, naming the file and writing no CSV."""
        prob, _, _ = oodseg.generate_scene(replace(oodseg.DEFAULT_CONFIG, seed=3))
        prob_path, gt_path, out = tmp_path / "p.npy", tmp_path / "g.npy", tmp_path / "s.csv"
        oodseg.write_npy(prob, prob_path)
        oodseg.write_npy(gt, gt_path)
        code = main(["segments", "--prob", str(prob_path), "--t", "0.3", "--gt", str(gt_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(gt_path) in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("t", ["0.3", "1.5"], ids=["good-t", "bad-t"])
    def test_gt_is_read_before_extraction(self, tmp_path, capsys, monkeypatch, t):
        """A rejected gt fails before any extraction, and wins over a bad --t."""
        def forbidden(*args):
            raise AssertionError("segments were extracted before the gt was read")

        monkeypatch.setattr(cli, "extract_segments", forbidden)
        prob_path, gt_path, out = tmp_path / "p.npy", tmp_path / "g.npy", tmp_path / "s.csv"
        oodseg.write_npy(np.full((8, 8, 2), 0.5, dtype=np.float32), prob_path)
        oodseg.write_npy(np.zeros((4, 8), dtype=np.int32), gt_path)
        code = main(["segments", "--prob", str(prob_path), "--t", t, "--gt", str(gt_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{gt_path}: shape (4, 8) != probability maps' (8, 8)" in err
        assert not out.exists()

    @pytest.mark.parametrize("t,min_size", sorted(PINNED_CSV_SHA256))
    def test_labeled_csv_bytes_are_pinned(self, tmp_path, t, min_size):
        prob, gt, _ = oodseg.generate_scene(oodseg.DEFAULT_CONFIG)
        prob_path, gt_path, out = tmp_path / "p.npy", tmp_path / "g.npy", tmp_path / "s.csv"
        oodseg.write_npy(prob, prob_path)
        oodseg.write_npy(gt, gt_path)
        args = ["segments", "--prob", str(prob_path), "--t", t, "--gt", str(gt_path), "--min-size", min_size]
        assert main([*args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CSV_SHA256[(t, min_size)]

    def test_out_of_range_threshold(self, tmp_path, scene_files, capsys):
        prob_path, _ = scene_files
        code = main(["segments", "--prob", str(prob_path), "--t", "1.5", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        capsys.readouterr()


class TestFitMeta:
    def _labeled_csv(self, tmp_path, bench_dir):
        bench = oodseg.load_benchmark(bench_dir)
        features, labels = oodseg.build_training_table(bench, (0.3, 0.6), min_size=10)
        table = oodseg.SegmentTable(
            ids=np.arange(len(labels), dtype=np.int64),
            bboxes=np.zeros((len(labels), 4), dtype=np.int64),
            features=features,
            labels=labels,
        )
        path = tmp_path / "training.csv"
        oodseg.write_feature_csv(table, path)
        return path, features, labels

    def test_fit_writes_loadable_model_and_ranking(self, tmp_path, bench_dir, capsys):
        csv_path, features, labels = self._labeled_csv(tmp_path, bench_dir)
        model_path = tmp_path / "model.json"
        assert main(["fit-meta", "--features", str(csv_path), "--out", str(model_path)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        model = oodseg.load_meta_model(model_path)
        expected_lines = [f"{name}\t{weight!r}" for name, weight in oodseg.feature_weights(model)]
        assert printed == expected_lines
        reference = oodseg.fit_meta(features, labels)
        np.testing.assert_array_equal(model.weights, reference.weights)
        assert model.bias == reference.bias

    def test_lambda_flag_controls_shrinkage(self, tmp_path, bench_dir, capsys):
        csv_path, _, _ = self._labeled_csv(tmp_path, bench_dir)
        default_path = tmp_path / "default.json"
        strong_path = tmp_path / "strong.json"
        assert main(["fit-meta", "--features", str(csv_path), "--out", str(default_path)]) == 0
        assert main(
            ["fit-meta", "--features", str(csv_path), "--lambda", "100.0", "--out", str(strong_path)]
        ) == 0
        capsys.readouterr()
        default = oodseg.load_meta_model(default_path)
        strong = oodseg.load_meta_model(strong_path)
        assert strong.l2_lambda == 100.0
        assert np.linalg.norm(strong.weights) < np.linalg.norm(default.weights)

    def test_single_class_labels_still_fit(self, tmp_path, rng, capsys):
        n = 30
        table = oodseg.SegmentTable(
            ids=np.arange(n, dtype=np.int64),
            bboxes=np.zeros((n, 4), dtype=np.int64),
            features=rng.standard_normal((n, len(oodseg.FEATURE_NAMES))),
            labels=np.zeros(n, dtype=np.int64),
        )
        csv_path = tmp_path / "t.csv"
        oodseg.write_feature_csv(table, csv_path)
        model_path = tmp_path / "model.json"
        assert main(["fit-meta", "--features", str(csv_path), "--out", str(model_path)]) == 0
        capsys.readouterr()
        model = oodseg.load_meta_model(model_path)
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
        assert model.bias < 0  # every segment was a false indication

    def test_labels_outside_minus_one_to_one_are_rejected(self, tmp_path, rng, capsys):
        n = 10
        table = oodseg.SegmentTable(
            ids=np.arange(n, dtype=np.int64),
            bboxes=np.zeros((n, 4), dtype=np.int64),
            features=rng.standard_normal((n, len(oodseg.FEATURE_NAMES))),
            labels=np.resize([0, 1, 7], n).astype(np.int64),
        )
        csv_path, model_path = tmp_path / "t.csv", tmp_path / "m.json"
        oodseg.write_feature_csv(table, csv_path)
        code = main(["fit-meta", "--features", str(csv_path), "--out", str(model_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {csv_path}:4: label 7 is not -1, 0 or 1\n"
        assert not model_path.exists()

    def test_all_excluded_labels_are_rejected(self, tmp_path, rng, capsys):
        table = oodseg.SegmentTable(
            ids=np.zeros(3, dtype=np.int64),
            bboxes=np.zeros((3, 4), dtype=np.int64),
            features=rng.standard_normal((3, len(oodseg.FEATURE_NAMES))),
            labels=np.full(3, -1, dtype=np.int64),
        )
        csv_path, model_path = tmp_path / "t.csv", tmp_path / "m.json"
        oodseg.write_feature_csv(table, csv_path)
        code = main(["fit-meta", "--features", str(csv_path), "--out", str(model_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {csv_path}: no labeled rows to fit on\n"
        assert not model_path.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_lambda_is_a_usage_error(self, tmp_path, bench_dir, capsys, value):
        csv_path, _, _ = self._labeled_csv(tmp_path, bench_dir)
        model_path = tmp_path / "m.json"
        code = main(["fit-meta", "--features", str(csv_path), "--lambda", value, "--out", str(model_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: l2_lambda must be a finite number >= 0, got {float(value)!r}\n"
        assert not model_path.exists()

    def test_unlabeled_table_is_rejected(self, tmp_path, rng, capsys):
        table = oodseg.SegmentTable(
            ids=np.zeros(3, dtype=np.int64),
            bboxes=np.zeros((3, 4), dtype=np.int64),
            features=rng.standard_normal((3, len(oodseg.FEATURE_NAMES))),
        )
        csv_path = tmp_path / "t.csv"
        oodseg.write_feature_csv(table, csv_path)
        code = main(["fit-meta", "--features", str(csv_path), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "label" in capsys.readouterr().err


class TestEval:
    def test_sweep_without_model(self, tmp_path, bench_dir):
        out = tmp_path / "sweep.csv"
        code = main(["eval", "--bench", str(bench_dir), "--grid", "0.3,0.6", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,ood_training,meta,tp,fp,fn,miou_loss"
        assert len(lines) == 1 + 2 * 2  # two thresholds x two variants, no meta rows

        bench = oodseg.load_benchmark(bench_dir)
        reference = oodseg.sweep(bench, (0.3, 0.6), min_size=10)
        ref_csv = tmp_path / "ref.csv"
        oodseg.write_sweep_csv(reference, ref_csv)
        assert out.read_bytes() == ref_csv.read_bytes()

        summary = json.loads((tmp_path / "sweep.summary.json").read_text())
        assert summary["meta"] is False
        assert summary["grid"] == [0.3, 0.6]
        assert summary["coverage"] == 0.5
        assert summary["min_size"] == 10
        assert summary["reference_miou"] == reference.reference_miou
        gts = [s.gt for s in bench.scenes]
        assert summary["auprc"]["boosted"] == oodseg.pixel_pr_curve(
            [oodseg.entropy_map(s.prob_boosted) for s in bench.scenes], gts
        ).auprc
        assert summary["auprc"]["plain"] == oodseg.pixel_pr_curve(
            [oodseg.entropy_map(s.prob_plain) for s in bench.scenes], gts
        ).auprc
        assert summary["auprc"]["boosted"] > summary["auprc"]["plain"]

    def test_sweep_with_model(self, tmp_path, bench_dir, capsys):
        bench = oodseg.load_benchmark(bench_dir)
        features, labels = oodseg.build_training_table(bench, (0.3, 0.6), min_size=10)
        model_path = tmp_path / "model.json"
        oodseg.save_meta_model(oodseg.fit_meta(features, labels), model_path)
        out = tmp_path / "sweep.csv"
        code = main(
            ["eval", "--bench", str(bench_dir), "--grid", "0.3,0.6",
             "--model", str(model_path), "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 4  # meta combinations double the rows
        assert json.loads((tmp_path / "sweep.summary.json").read_text())["meta"] is True

    def test_default_grid_is_used_when_omitted(self, tmp_path, bench_dir):
        out = tmp_path / "sweep.csv"
        assert main(["eval", "--bench", str(bench_dir), "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "sweep.summary.json").read_text())
        assert summary["grid"] == list(oodseg.DEFAULT_GRID)

    def test_worker_flag_does_not_change_output(self, tmp_path, bench_dir):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(["eval", "--bench", str(bench_dir), "--grid", "0.4", "--out", str(serial)]) == 0
        assert main(
            ["eval", "--bench", str(bench_dir), "--grid", "0.4", "--jobs", "2", "--out", str(parallel)]
        ) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize(
        "override, named",
        [
            ({"n_scenes": "one"}, "n_scenes"),
            ({"files": 7}, "files"),
            ({"config": {**oodseg.config_to_dict(SMALL), "seed": 1.5}}, "seed"),
        ],
    )
    def test_wrongly_typed_manifest_is_a_usage_error(self, tmp_path, bench_dir, capsys, override, named):
        copy = shutil.copytree(bench_dir, tmp_path / "bench")
        manifest = json.loads((copy / "manifest.json").read_text())
        (copy / "manifest.json").write_text(json.dumps({**manifest, **override}))
        out = tmp_path / "s.csv"
        assert main(["eval", "--bench", str(copy), "--grid", "0.4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and str(copy / "manifest.json") in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_scenes_of_different_class_counts_are_a_usage_error(self, tmp_path, bench_dir, capsys, jobs):
        mixed = tmp_path / "mixed"
        oodseg.generate_benchmark(replace(SMALL, num_classes=11), n_scenes=2, out_dir=mixed)
        for name in oodseg.synth._scene_filenames(1):
            shutil.copyfile(bench_dir / name, mixed / name)
        out = tmp_path / "s.csv"
        assert main(["eval", "--bench", str(mixed), "--grid", "0.4", "--jobs", jobs, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: scene 1: maps have 5 classes, scene 0's have 11\n"
        assert not out.exists()

    def test_zero_workers_is_a_usage_error(self, tmp_path, bench_dir, capsys):
        out = tmp_path / "s.csv"
        code = main(["eval", "--bench", str(bench_dir), "--grid", "0.4", "--jobs", "0", "--out", str(out)])
        assert code == 2
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_grid(self, tmp_path, bench_dir, capsys):
        code = main(
            ["eval", "--bench", str(bench_dir), "--grid", "0.2,zebra", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert "grid" in capsys.readouterr().err

    def test_decreasing_grid(self, tmp_path, bench_dir, capsys):
        code = main(
            ["eval", "--bench", str(bench_dir), "--grid", "0.6,0.3", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        capsys.readouterr()

    def test_missing_benchmark(self, tmp_path, capsys):
        code = main(["eval", "--bench", str(tmp_path / "nowhere"), "--out", str(tmp_path / "s.csv")])
        assert code == 3
        capsys.readouterr()


class TestSynth:
    def test_generates_loadable_benchmark(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(oodseg.config_to_dict(SMALL)))
        out_dir = tmp_path / "bench"
        code = main(
            ["synth", "--config", str(cfg_path), "--scenes", "1", "--out", str(out_dir)]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed == str(out_dir / "manifest.json")
        bench = oodseg.load_benchmark(out_dir)
        assert len(bench.scenes) == 1
        assert bench.config == SMALL

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(oodseg.config_to_dict(SMALL)))
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            assert main(
                ["synth", "--config", str(cfg_path), "--scenes", "1", "--out", str(out_dir)]
            ) == 0
        capsys.readouterr()
        for path_a in sorted(a.iterdir()):
            assert path_a.read_bytes() == (b / path_a.name).read_bytes()

    def test_zero_workers_is_a_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        assert main(["synth", "--scenes", "1", "--jobs", "0", "--out", str(out_dir)]) == 2
        assert "jobs" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bad_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_scene": 3}))
        code = main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "bench")])
        assert code == 2
        capsys.readouterr()

    def test_zero_scenes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(oodseg.config_to_dict(SMALL)))
        out_dir = tmp_path / "bench"
        code = main(["synth", "--config", str(cfg_path), "--scenes", "0", "--out", str(out_dir)])
        assert code == 2
        capsys.readouterr()
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "override",
        [{"height": "big"}, {"height": 1.5}, {"blob_radius_range": 5}, {"seed": 1.5}, {"sharpness": "x"}],
    )
    def test_wrongly_typed_config_is_a_usage_error(self, tmp_path, capsys, override):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**oodseg.config_to_dict(SMALL), **override}))
        out_dir = tmp_path / "bench"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert next(iter(override)) in err and str(cfg_path) in err
        assert not out_dir.exists()

    def test_unwritable_output(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(oodseg.config_to_dict(SMALL)))
        code = main(
            ["synth", "--config", str(cfg_path), "--scenes", "1", "--out", str(blocker / "bench")]
        )
        assert code == 3
        capsys.readouterr()


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: oodseg" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_module_is_runnable(self):
        result = subprocess.run(
            [sys.executable, "-m", "oodseg.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "usage: oodseg" in result.stdout
