import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import oodseg
from oodseg import ConfigError, DomainError, FormatError, IoError, SchemaError, ValidationError, synth

from _oracles import whole_array_generate_scene
from conftest import HUGE, HUGE_NEGATIVE, SHOWN, traced_peak

SMALL = oodseg.SceneConfig(
    height=32,
    width=32,
    num_classes=5,
    n_regions=8,
    n_ood_blobs=2,
    blob_radius_range=(3.0, 5.0),
    seed=123,
)

# generate_scene draws the map in blocks of _BLOCK_PX // W whole rows.
ORACLE_CONFIGS = [
    pytest.param(SMALL, id="below-block"),
    pytest.param(replace(SMALL, height=64, width=128), id="one-whole-block"),
    pytest.param(replace(SMALL, height=100, width=100, blob_radius_range=(6.0, 14.0)), id="ragged-last-block"),
    pytest.param(replace(SMALL, height=12, width=9000, blob_radius_range=(1.0, 3.0)), id="row-wider-than-block"),
    # 4-row blocks: every blob and every 5-row speckle disc crosses a block border
    pytest.param(
        replace(SMALL, height=40, width=2048, num_classes=19, n_ood_blobs=5, blob_radius_range=(4.0, 10.0)),
        id="blobs-and-discs-cross-borders",
    ),
    pytest.param(replace(SMALL, n_ood_blobs=0), id="no-blobs"),
    pytest.param(replace(SMALL, speckle_rate=0.0), id="no-speckle"),
    pytest.param(replace(SMALL, ood_entropy_boost=0.0), id="boost-0"),
    pytest.param(replace(SMALL, ood_entropy_boost=1.0), id="boost-1"),
    pytest.param(replace(SMALL, height=1, width=300, n_ood_blobs=0), id="one-row"),
]
# frame-like: 2048-pixel rows, 19 classes, several large blobs
FRAME_LIKE = oodseg.SceneConfig(
    height=256, width=2048, num_classes=19, n_regions=40, n_ood_blobs=6, blob_radius_range=(20.0, 60.0)
)


def _assert_same_bytes(got, want, name):
    assert got.dtype == want.dtype and got.shape == want.shape, name
    np.testing.assert_array_equal(got.view(np.int32), want.view(np.int32), err_msg=name)


class TestSceneConfig:
    def test_defaults_define_the_reference_benchmark(self):
        assert oodseg.DEFAULT_CONFIG == oodseg.SceneConfig()
        assert oodseg.DEFAULT_CONFIG.height == 128
        assert oodseg.DEFAULT_CONFIG.num_classes == 11
        assert oodseg.DEFAULT_CONFIG.seed == 42
        assert oodseg.DEFAULT_N_SCENES == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"height": 0},
            {"width": -3},
            {"num_classes": 1},
            {"n_regions": 0},
            {"n_ood_blobs": -1},
            {"blob_radius_range": (0.5, 2.0)},
            {"blob_radius_range": (5.0, 3.0)},
            {"sharpness": 0.0},
            {"base_alpha": -0.1},
            {"ood_entropy_boost": 1.5},
            {"speckle_rate": 1.0},
            {"speckle_strength": -0.1},
            {"seed": -1},
            {"height": "big"},
            {"height": 1.5},
            {"width": None},
            {"num_classes": True},
            {"n_regions": 40.0},
            {"seed": 1.5},
            {"seed": "42"},
            {"sharpness": "sharp"},
            {"base_alpha": None},
            {"speckle_rate": False},
            {"blob_radius_range": 5},
            {"blob_radius_range": (3.0,)},
            {"blob_radius_range": ("3", "5")},
            {"blob_radius_range": "35"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            oodseg.SceneConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"sharpness": math.inf}, "sharpness must be a finite number, got inf"),
            ({"base_alpha": np.float32(math.inf)}, "base_alpha must be a finite number, got inf"),
            ({"speckle_rate": math.nan}, "speckle_rate must be a finite number, got nan"),
            ({"sharpness": HUGE}, "sharpness must be a finite number, got an integer of 1329 bits"),
            ({"base_alpha": HUGE_NEGATIVE}, "base_alpha must be a finite number, got a negative integer of 16610 bits"),
            ({"blob_radius_range": (2.0, math.inf)}, "blob_radius_range must be a pair of finite numbers"),
            ({"blob_radius_range": (2, HUGE)}, "blob_radius_range must be a pair of finite numbers"),
            ({"blob_radius_range": (HUGE_NEGATIVE, 2)}, "blob_radius_range must be a pair of finite numbers"),
        ],
        ids=["inf", "numpy-inf", "nan", "huge", "huge-negative", "radius-inf", "radius-huge", "radius-huge-negative"],
    )
    def test_non_finite_and_huge_numbers_rejected(self, kwargs, message):
        """An infinite knob reached generation as a RuntimeWarning or a bare OverflowError, and a huge one as
        a bare OverflowError."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            oodseg.SceneConfig(**kwargs)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7), np.uint8(3)])
    def test_python_and_numpy_integer_seeds_are_valid(self, seed):
        assert oodseg.SceneConfig(seed=seed).seed == seed

    @pytest.mark.parametrize(
        "kwargs, want",
        [
            ({"seed": np.uint64(2**64 - 1), "height": np.int32(48)}, {"seed": 2**64 - 1, "height": 48}),
            ({"sharpness": np.float32(2.5), "base_alpha": np.int64(1)}, {"sharpness": 2.5, "base_alpha": 1.0}),
        ],
    )
    def test_numpy_scalars_are_stored_as_python_numbers(self, kwargs, want):
        cfg = oodseg.SceneConfig(**kwargs)
        for name, value in want.items():
            assert type(getattr(cfg, name)) is type(value) and getattr(cfg, name) == value, name

    def test_radius_range_is_coerced_to_float_tuple(self):
        cfg = oodseg.SceneConfig(blob_radius_range=[3, 5])
        assert cfg.blob_radius_range == (3.0, 5.0)

    def test_dict_round_trip(self):
        payload = oodseg.config_to_dict(SMALL)
        assert payload["blob_radius_range"] == [3.0, 5.0]
        assert oodseg.SceneConfig(**payload) == SMALL


class TestGenerateScene:
    def test_outputs_are_well_formed(self):
        prob, gt, classes = oodseg.generate_scene(SMALL)
        assert prob.shape == (32, 32, 5) and prob.dtype == np.float32
        assert gt.shape == (32, 32) and gt.dtype == np.int32
        assert classes.shape == (32, 32) and classes.dtype == np.int32
        oodseg.validate_prob_map(prob)
        oodseg.validate_label_mask(gt, num_classes=5)
        assert set(np.unique(classes)) <= set(range(5))

    def test_gt_is_classes_with_blobs_overwritten(self):
        _, gt, classes = oodseg.generate_scene(SMALL)
        blob = gt == oodseg.OOD_ID
        assert blob.any()
        np.testing.assert_array_equal(gt[~blob], classes[~blob])

    def test_same_config_is_bit_identical(self):
        a_prob, a_gt, a_classes = oodseg.generate_scene(SMALL)
        b_prob, b_gt, b_classes = oodseg.generate_scene(SMALL)
        np.testing.assert_array_equal(a_prob, b_prob)
        np.testing.assert_array_equal(a_gt, b_gt)
        np.testing.assert_array_equal(a_classes, b_classes)

    def test_different_seed_differs(self):
        a_prob, _, _ = oodseg.generate_scene(SMALL)
        b_prob, _, _ = oodseg.generate_scene(replace(SMALL, seed=124))
        assert not np.array_equal(a_prob, b_prob)

    def test_no_blobs(self):
        prob, gt, classes = oodseg.generate_scene(replace(SMALL, n_ood_blobs=0))
        np.testing.assert_array_equal(gt, classes)
        assert not (gt == oodseg.OOD_ID).any()
        oodseg.validate_prob_map(prob)

    def test_variants_share_everything_but_the_ood_mixture(self):
        boosted_prob, boosted_gt, _ = oodseg.generate_scene(SMALL)
        plain_prob, plain_gt, _ = oodseg.generate_scene(replace(SMALL, ood_entropy_boost=0.0))
        np.testing.assert_array_equal(boosted_gt, plain_gt)
        indist = boosted_gt != oodseg.OOD_ID
        np.testing.assert_array_equal(boosted_prob[indist], plain_prob[indist])
        assert not np.array_equal(boosted_prob[~indist], plain_prob[~indist])

    def test_argmax_matches_classes_on_indist_pixels(self):
        # sharp Dirichlet draws plus argmax-preserving speckle keep the
        # predicted class equal to the region class off the blobs
        prob, gt, classes = oodseg.generate_scene(SMALL)
        pred = oodseg.argmax_map(prob)
        indist = gt != oodseg.OOD_ID
        np.testing.assert_array_equal(pred[indist], classes[indist])

    def test_boost_raises_ood_entropy(self):
        cfg = replace(SMALL, speckle_rate=0.0)
        boosted_prob, gt, _ = oodseg.generate_scene(cfg)
        plain_prob, _, _ = oodseg.generate_scene(replace(cfg, ood_entropy_boost=0.0))
        ood = gt == oodseg.OOD_ID
        boosted_ent = oodseg.entropy_map(boosted_prob)
        plain_ent = oodseg.entropy_map(plain_prob)
        assert np.median(boosted_ent[ood]) > np.median(plain_ent[ood]) + 0.3
        # boosted blobs stand far above the in-distribution entropy level
        assert np.median(boosted_ent[ood]) > np.quantile(boosted_ent[~ood], 0.95)

    def test_speckle_raises_entropy_without_changing_argmax(self):
        quiet = replace(SMALL, speckle_rate=0.0, n_ood_blobs=0)
        noisy = replace(quiet, speckle_rate=0.05)
        quiet_prob, _, classes = oodseg.generate_scene(quiet)
        noisy_prob, _, _ = oodseg.generate_scene(noisy)
        changed = np.any(quiet_prob != noisy_prob, axis=2)
        assert changed.any()
        np.testing.assert_array_equal(
            oodseg.argmax_map(noisy_prob), classes
        )
        ent_gain = oodseg.entropy_map(noisy_prob) - oodseg.entropy_map(quiet_prob)
        assert ent_gain[changed].min() > 0

    def test_oversized_blob_cannot_fit(self):
        cfg = oodseg.SceneConfig(
            height=16, width=16, num_classes=3, n_regions=4,
            n_ood_blobs=1, blob_radius_range=(10.0, 10.0), seed=1,
        )
        with pytest.raises(ConfigError, match="cannot fit"):
            oodseg.generate_scene(cfg)

    @pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
    def test_bytes_match_whole_array_oracle(self, cfg):
        got = oodseg.generate_scene(cfg)
        want = whole_array_generate_scene(cfg)
        for name, g, x in zip(("prob", "gt", "classes"), got, want):
            _assert_same_bytes(g, x, name)

    def test_default_scene_bytes_are_pinned(self):
        digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in oodseg.generate_scene(oodseg.DEFAULT_CONFIG)]
        assert digests == [
            "52c421cc05ad4e2e47985bfd83705c49fa4c1f877ccd609af384f27c979c9912",
            "2327318d48325c2ff731ea02c994230574b8af238e93fa189edf0c7312f7cd6f",
            "8ed7e641de3332497cebaeaf041d33d54b76d2a1bc9ff86a3ccf66a200a7d17e",
        ]

    def test_traced_peak_stays_near_the_output(self):
        (prob, gt, _), peak = traced_peak(lambda: oodseg.generate_scene(FRAME_LIKE))
        assert (gt == oodseg.OOD_ID).sum() > 10_000
        assert peak <= 1.5 * prob.nbytes, peak / prob.nbytes


class TestScenePair:
    @pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
    def test_bytes_match_two_whole_array_scenes(self, cfg):
        k, gt, prob_boosted, prob_plain = synth._scene_pair((cfg, 1))
        cfg_k = replace(cfg, seed=synth._scene_seed(cfg.seed, 1))
        boosted = whole_array_generate_scene(cfg_k)
        plain = whole_array_generate_scene(replace(cfg_k, ood_entropy_boost=0.0))
        assert k == 1
        _assert_same_bytes(gt, boosted[1], "gt")
        _assert_same_bytes(prob_boosted, boosted[0], "prob_boosted")
        _assert_same_bytes(prob_plain, plain[0], "prob_plain")

    def test_default_pair_bytes_are_pinned(self):
        scene = oodseg.build_benchmark(oodseg.DEFAULT_CONFIG, 1).scenes[0]
        digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in (scene.prob_boosted, scene.prob_plain)]
        assert digests == [
            "07bec786f4159f098b2ea5a372aa441c825b6d83191332ff153add12d54ad563",
            "9b58dcacf8e9f1a52a7d0a3c9d3d746c960a484f842d1991d4f786649bd78a0c",
        ]

    def test_opens_each_stream_once(self, monkeypatch):
        opened = []

        def spy(seed, stream_id):
            opened.append(stream_id)
            return stream(seed, stream_id)

        stream = synth._stream
        monkeypatch.setattr(synth, "_stream", spy)
        synth._scene_pair((SMALL, 0))
        assert sorted(opened) == [0, 1, 2, 3]

    def test_traced_peak_stays_near_the_outputs(self):
        (_, gt, prob_boosted, prob_plain), peak = traced_peak(lambda: synth._scene_pair((FRAME_LIKE, 0)))
        outputs = prob_boosted.nbytes + prob_plain.nbytes
        assert (gt == oodseg.OOD_ID).sum() > 10_000
        assert peak <= 1.5 * outputs, peak / outputs


class TestBuildBenchmark:
    def test_scene_indices_and_pairing(self):
        bench = oodseg.build_benchmark(SMALL, n_scenes=3)
        assert [s.index for s in bench.scenes] == [0, 1, 2]
        assert bench.config == SMALL
        for scene in bench.scenes:
            indist = scene.gt != oodseg.OOD_ID
            np.testing.assert_array_equal(
                scene.prob_boosted[indist], scene.prob_plain[indist]
            )

    def test_scenes_differ_from_each_other(self):
        bench = oodseg.build_benchmark(SMALL, n_scenes=2)
        assert not np.array_equal(bench.scenes[0].gt, bench.scenes[1].gt) or not np.array_equal(
            bench.scenes[0].prob_boosted, bench.scenes[1].prob_boosted
        )

    def test_worker_count_is_immaterial(self):
        serial = oodseg.build_benchmark(SMALL, n_scenes=3, jobs=1)
        parallel = oodseg.build_benchmark(SMALL, n_scenes=3, jobs=2)
        for a, b in zip(serial.scenes, parallel.scenes):
            assert a.index == b.index
            np.testing.assert_array_equal(a.gt, b.gt)
            np.testing.assert_array_equal(a.prob_boosted, b.prob_boosted)
            np.testing.assert_array_equal(a.prob_plain, b.prob_plain)

    def test_zero_scenes_rejected(self):
        with pytest.raises(DomainError, match="^n_scenes must be an integer >= 1, got 0$"):
            oodseg.build_benchmark(SMALL, n_scenes=0)

    def test_scene_count_error_prints_a_plain_number(self):
        with pytest.raises(DomainError, match="^n_scenes must be an integer >= 1, got 0$"):
            oodseg.build_benchmark(SMALL, n_scenes=np.int64(0))

    @pytest.mark.parametrize("n_scenes,shown", [(2.5, "2.5"), ("3", "'3'"), (True, "True"), (None, "None"),
                                                (np.float64(2.0), "2.0"),
                                                pytest.param(HUGE_NEGATIVE, SHOWN[HUGE_NEGATIVE], id="huge-negative")])
    def test_scene_count_follows_the_count_rule(self, n_scenes, shown):
        """n_scenes follows the rule jobs follows: a bare TypeError, or one scene for True, before."""
        with pytest.raises(DomainError, match=f"^n_scenes must be an integer >= 1, got {re.escape(shown)}$"):
            oodseg.build_benchmark(SMALL, n_scenes=n_scenes)

    @pytest.mark.parametrize("jobs", [0, -3, 1.5, True, "2"])
    def test_invalid_worker_count_rejected(self, jobs):
        with pytest.raises(DomainError, match="jobs"):
            oodseg.build_benchmark(SMALL, n_scenes=1, jobs=jobs)


class TestGenerateBenchmark:
    def test_layout_and_manifest(self, tmp_path):
        out = tmp_path / "bench"
        manifest_path = oodseg.generate_benchmark(SMALL, n_scenes=1, out_dir=out)
        assert manifest_path == out / "manifest.json"
        expected_files = {
            "scene_0_prob_boosted.npy",
            "scene_0_prob_plain.npy",
            "scene_0_gt.npy",
            "manifest.json",
        }
        assert {p.name for p in out.iterdir()} == expected_files
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format_version"] == "1"
        assert manifest["n_scenes"] == 1
        assert manifest["config"] == oodseg.config_to_dict(SMALL)
        assert manifest["files"] == [
            "scene_0_prob_boosted.npy",
            "scene_0_prob_plain.npy",
            "scene_0_gt.npy",
        ]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        oodseg.generate_benchmark(SMALL, n_scenes=3, out_dir=a)
        oodseg.generate_benchmark(SMALL, n_scenes=3, out_dir=b, jobs=2)
        for path_a in sorted(a.iterdir()):
            path_b = b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name

    def test_files_match_in_memory_benchmark(self, tmp_path):
        out = tmp_path / "bench"
        oodseg.generate_benchmark(SMALL, n_scenes=2, out_dir=out)
        loaded = oodseg.load_benchmark(out)
        built = oodseg.build_benchmark(SMALL, n_scenes=2)
        assert loaded.config == built.config
        for a, b in zip(loaded.scenes, built.scenes):
            np.testing.assert_array_equal(a.gt, b.gt)
            np.testing.assert_array_equal(a.prob_boosted, b.prob_boosted)
            np.testing.assert_array_equal(a.prob_plain, b.prob_plain)

    def test_each_scene_is_written_before_the_next_is_made(self, tmp_path, monkeypatch):
        out = tmp_path / "bench"
        on_disk = []

        def spy(args):
            on_disk.append(sorted(p.name for p in out.iterdir()))
            return scene_pair(args)

        scene_pair = synth._scene_pair
        monkeypatch.setattr(synth, "_scene_pair", spy)
        oodseg.generate_benchmark(SMALL, n_scenes=3, out_dir=out)
        names = [sorted(synth._scene_filenames(k)) for k in range(3)]
        assert on_disk == [[], names[0], sorted(names[0] + names[1])]

    @pytest.mark.parametrize("seed, python_seed", [(np.int64(3), 3), (np.uint64(2**64 - 1), 2**64 - 1)])
    def test_numpy_integer_seed_writes_the_python_seed_files(self, tmp_path, seed, python_seed):
        numpy_dir, python_dir = tmp_path / "numpy", tmp_path / "python"
        oodseg.generate_benchmark(replace(SMALL, seed=seed), n_scenes=1, out_dir=numpy_dir)
        oodseg.generate_benchmark(replace(SMALL, seed=python_seed), n_scenes=1, out_dir=python_dir)
        assert oodseg.load_benchmark(numpy_dir).config.seed == python_seed
        assert sorted(p.name for p in numpy_dir.iterdir()) == sorted(p.name for p in python_dir.iterdir())
        for path in sorted(numpy_dir.iterdir()):
            assert path.read_bytes() == (python_dir / path.name).read_bytes(), path.name

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_invalid_worker_count_writes_nothing(self, tmp_path, jobs):
        with pytest.raises(DomainError, match="jobs"):
            oodseg.generate_benchmark(SMALL, n_scenes=1, out_dir=tmp_path / "bench", jobs=jobs)
        assert not (tmp_path / "bench").exists()

    def test_unwritable_directory(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file in the way")
        with pytest.raises(IoError):
            oodseg.generate_benchmark(SMALL, n_scenes=1, out_dir=blocker / "bench")

    @pytest.mark.parametrize("n_scenes", [2.5, "3", True, pytest.param(HUGE_NEGATIVE, id="huge-negative")])
    def test_scene_count_off_the_count_rule_writes_nothing(self, tmp_path, n_scenes):
        with pytest.raises(DomainError, match="^n_scenes must be an integer >= 1, got "):
            oodseg.generate_benchmark(SMALL, n_scenes=n_scenes, out_dir=tmp_path / "bench")
        assert not (tmp_path / "bench").exists()

    def test_numpy_scene_count_writes_a_json_manifest(self, tmp_path):
        oodseg.generate_benchmark(SMALL, n_scenes=np.int64(2), out_dir=tmp_path / "bench")
        assert json.loads((tmp_path / "bench" / "manifest.json").read_text())["n_scenes"] == 2
        assert len(oodseg.load_benchmark(tmp_path / "bench").scenes) == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_zero_scenes_writes_nothing(self, tmp_path, jobs):
        with pytest.raises(DomainError, match="^n_scenes must be an integer >= 1, got 0$"):
            oodseg.generate_benchmark(SMALL, n_scenes=0, out_dir=tmp_path / "bench", jobs=jobs)
        assert not (tmp_path / "bench").exists()


class TestLoadBenchmark:
    @pytest.fixture()
    def bench_dir(self, tmp_path):
        out = tmp_path / "bench"
        oodseg.generate_benchmark(SMALL, n_scenes=1, out_dir=out)
        return out

    def _edit_manifest(self, bench_dir, mutate):
        path = bench_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        mutate(manifest)
        path.write_text(json.dumps(manifest))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(IoError):
            oodseg.load_benchmark(tmp_path / "nowhere")

    def test_corrupt_manifest(self, bench_dir):
        (bench_dir / "manifest.json").write_text("{broken")
        with pytest.raises(FormatError):
            oodseg.load_benchmark(bench_dir)

    def test_wrong_format_version(self, bench_dir):
        self._edit_manifest(bench_dir, lambda m: m.update(format_version="2"))
        with pytest.raises(SchemaError):
            oodseg.load_benchmark(bench_dir)

    def test_missing_key(self, bench_dir):
        self._edit_manifest(bench_dir, lambda m: m.pop("files"))
        with pytest.raises(SchemaError):
            oodseg.load_benchmark(bench_dir)

    def test_unknown_config_key(self, bench_dir):
        self._edit_manifest(bench_dir, lambda m: m["config"].update(novel_knob=3))
        with pytest.raises(SchemaError):
            oodseg.load_benchmark(bench_dir)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: m.update(n_scenes="one"),
            lambda m: m.update(n_scenes=1.0),
            lambda m: m.update(n_scenes=None),
            lambda m: m.update(files=7),
            lambda m: m.update(files="scene_0_prob_boosted.npy"),
            lambda m: m.update(n_scenes=0, files=[]),
            lambda m: m.update(n_scenes=-1, files=[]),
        ],
    )
    def test_wrongly_typed_scene_count_or_file_list(self, bench_dir, mutate):
        self._edit_manifest(bench_dir, mutate)
        with pytest.raises(SchemaError, match="manifest.json"):
            oodseg.load_benchmark(bench_dir)

    def test_claimed_scene_count_is_checked_before_the_layout_is_built(self, bench_dir):
        self._edit_manifest(bench_dir, lambda m: m.update(n_scenes=200_000))
        def load():
            with pytest.raises(SchemaError, match="manifest.json: files must list the scene layout"):
                oodseg.load_benchmark(bench_dir)

        _, peak = traced_peak(load)
        assert peak < 2**20, peak

    def test_manifest_scene_count_error_shows_the_count_rule(self, bench_dir):
        self._edit_manifest(bench_dir, lambda m: m.update(n_scenes="one"))
        with pytest.raises(SchemaError, match=r"manifest\.json: n_scenes must be an integer >= 1, got 'one'$"):
            oodseg.load_benchmark(bench_dir)

    def test_invalid_config_value_names_the_manifest(self, bench_dir):
        self._edit_manifest(bench_dir, lambda m: m["config"].update(seed=1.5))
        with pytest.raises(ConfigError, match=r"manifest\.json: seed must be an integer"):
            oodseg.load_benchmark(bench_dir)

    def test_wrong_file_list(self, bench_dir):
        self._edit_manifest(bench_dir, lambda m: m["files"].reverse())
        with pytest.raises(SchemaError):
            oodseg.load_benchmark(bench_dir)

    def test_missing_tensor_file(self, bench_dir):
        (bench_dir / "scene_0_gt.npy").unlink()
        with pytest.raises(IoError):
            oodseg.load_benchmark(bench_dir)

    def test_corrupt_tensor_detected_by_validation(self, bench_dir):
        path = bench_dir / "scene_0_prob_plain.npy"
        prob = oodseg.read_npy(path, expected_rank=3)
        bad = prob.copy()
        bad[0, 0, :] = 0.0  # sums to 0, no longer a distribution
        oodseg.write_npy(bad, path)
        with pytest.raises(oodseg.ValidationError):
            oodseg.load_benchmark(bench_dir)
        loaded = oodseg.load_benchmark(bench_dir, validate=False)
        np.testing.assert_array_equal(loaded.scenes[0].prob_plain, bad)

    def test_gt_shape_must_match_the_probabilities(self, bench_dir):
        oodseg.write_npy(np.zeros((8, 8), dtype=np.int32), bench_dir / "scene_0_gt.npy")
        with pytest.raises(SchemaError, match="scene_0_gt.npy"):
            oodseg.load_benchmark(bench_dir)

    @pytest.mark.parametrize("validate", [True, False])
    def test_gt_must_be_an_int32_mask(self, bench_dir, validate):
        oodseg.write_npy(np.zeros((32, 32), dtype=np.float32), bench_dir / "scene_0_gt.npy")
        with pytest.raises(SchemaError, match=r"scene_0_gt\.npy: ground truth must be an int32 label mask"):
            oodseg.load_benchmark(bench_dir, validate=validate)

    def test_variants_must_share_a_shape(self, bench_dir):
        oodseg.write_npy(np.full((32, 32, 4), 0.25, dtype=np.float32), bench_dir / "scene_0_prob_plain.npy")
        with pytest.raises(SchemaError, match="scene_0_prob_plain.npy"):
            oodseg.load_benchmark(bench_dir)

    def test_gt_ids_must_be_classes_of_the_map(self, bench_dir):
        path = bench_dir / "scene_0_gt.npy"
        gt = oodseg.read_npy(path, expected_rank=2).copy()
        gt[0, 0] = SMALL.num_classes + 9  # below the reserved ids, above every class
        oodseg.write_npy(gt, path)
        with pytest.raises(ValidationError, match="scene_0_gt.npy"):
            oodseg.load_benchmark(bench_dir)
        loaded = oodseg.load_benchmark(bench_dir, validate=False)
        np.testing.assert_array_equal(loaded.scenes[0].gt, gt)


class TestConfigFromJson:
    def test_missing_fields_take_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"height": 48, "width": 64, "seed": 9}))
        cfg = oodseg.config_from_json(path)
        assert (cfg.height, cfg.width, cfg.seed) == (48, 64, 9)
        assert cfg.num_classes == oodseg.DEFAULT_CONFIG.num_classes
        assert cfg.sharpness == oodseg.DEFAULT_CONFIG.sharpness

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"heigth": 48}))
        with pytest.raises(SchemaError, match="heigth"):
            oodseg.config_from_json(path)

    def test_invalid_value_propagates_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"num_classes": 1}))
        with pytest.raises(ConfigError) as info:
            oodseg.config_from_json(path)
        assert str(info.value) == f"{path}: num_classes must be >= 2"

    def test_non_object_payload(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(SchemaError):
            oodseg.config_from_json(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{")
        with pytest.raises(FormatError):
            oodseg.config_from_json(path)

    @pytest.mark.parametrize(
        "raw",
        [b'{"seed": -1' + b"0" * 5000 + b"}", b'{"seed": 1}\xff', b"[" * 100_000],
        ids=["over-long-integer", "not-utf-8", "deep-nesting"],
    )
    def test_json_the_parser_refuses_is_a_format_error_naming_the_file(self, tmp_path, raw):
        """These escaped as a bare ValueError, UnicodeDecodeError and RecursionError."""
        path = tmp_path / "cfg.json"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: invalid JSON: "):
            oodseg.config_from_json(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            oodseg.config_from_json(tmp_path / "absent.json")
