"""Seeded fuzz gate: every bad input fails as an ``OodsegError``, file errors name the file, and no warning escapes.

Readers get mutated files: byte flips, truncations and swapped header punctuation for ``read_npy``; cell
replacements for ``read_feature_csv``; field replacements for ``load_meta_model``, ``config_from_json`` and the
``load_benchmark`` manifest. A mutated file may still load; when it does not, the error must be an
``OodsegError`` that names the path; a feature CSV whose label cell is not -1, 0 or 1 must not load. Public entry
points get every count and number argument replaced by values that the argument's rule rejects, every public array
argument arrays of a wrong rank or dtype, ragged lists and values that are no arrays, label images holding a
negative label, segment tables whose ids their label image does not hold or with a column short of a row per id,
and ``match_segments`` and ``label_segments`` a stacked label image; each call must fail with an ``OodsegError``.
``sweep`` and ``build_training_table`` read a scene's maps and gt given as nested lists as arrays, and fail with a
``ConfigError`` on a benchmark whose scenes are no list or tuple. Only rejected values are passed: an accepted
large ``jobs`` would start that many worker processes, and an accepted large ``n_scenes`` would build that many
scenes. Manifests claim at most 200,000 scenes.

All randomness comes from ``random.Random`` and NumPy ``Generator``s with fixed seeds, so every case is
reproducible from its description in a failure message.
"""

import copy
import csv
import json
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oodseg
from oodseg import OodsegError, synth

from conftest import HUGE, HUGE_NEGATIVE

NAN, INF = math.nan, math.inf

# JSON values a field replacement puts in place of a valid one.
JSON_VALUES = ["x", "", None, True, False, NAN, INF, -INF, HUGE, HUGE_NEGATIVE, 0, -1, 1.5, 2**63, 2**64, 1e308,
               [], {}, [1], [[1]], {"a": 1}]
# CSV cells a cell replacement puts in place of a valid one.
CSV_CELLS = ["", "x", "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "9" * 23, "-" + "9" * 23, "1" * 5000, "1.5",
             "0x10", " 7 ", "1_0", "\x00", "True", "-0", "1e-400", "٣", "a,b", '"', "\n", "9223372036854775808",
             "-9223372036854775809", "1e19", "9" * 200_000]


def _dumps(payload) -> str:
    """``json.dumps`` that also writes integers too long for ``str()``, as a file could hold them."""
    def swap(value):
        if isinstance(value, dict):
            return {key: swap(v) for key, v in value.items()}
        if isinstance(value, list):
            return [swap(v) for v in value]
        return "@huge-negative@" if value is HUGE_NEGATIVE else value

    return json.dumps(swap(payload)).replace('"@huge-negative@"', "-1" + "0" * 5000)


def _loads_or_fails_naming(read, path, case, failures):
    """Run ``read()``: it may return, or raise an OodsegError naming ``path``; anything else goes to ``failures``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            read()
        except OodsegError as exc:
            if str(path) not in str(exc):
                failures.append(f"{case}: {type(exc).__name__} does not name the file: {exc}")
        except Exception as exc:  # the finding this gate exists for
            failures.append(f"{case}: {type(exc).__name__}: {str(exc)[:200]}")
    failures += [f"{case}: {w.category.__name__}: {w.message}" for w in caught]


def _fails(call, case, failures):
    """Run ``call()``, which must raise an OodsegError and warn nothing; anything else goes to ``failures``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
        except OodsegError:
            pass
        except Exception as exc:
            failures.append(f"{case}: {type(exc).__name__}: {str(exc)[:200]}")
        else:
            failures.append(f"{case}: accepted")
    failures += [f"{case}: {w.category.__name__}: {w.message}" for w in caught]


# --- readers -------------------------------------------------------------------------------------------------


def _npy_mutations(data: bytes, rng: random.Random, n: int):
    """(description, bytes) of ``n`` byte flips, truncations and header punctuation swaps, most in the header."""
    header_end = data.index(b"\n") + 1
    punctuation = b"{}()[],:'\" "
    at_punctuation = [i for i in range(10, header_end) if data[i] in punctuation]
    for k in range(n):
        kind = k % 3
        if kind == 0:
            i = rng.randrange(header_end) if rng.random() < 0.7 else rng.randrange(len(data))
            byte = rng.randrange(256)
            yield f"byte {i} set to {byte}", data[:i] + bytes([byte]) + data[i + 1:]
        elif kind == 1:
            size = rng.randrange(len(data))
            yield f"truncated to {size} bytes", data[:size]
        else:
            i, byte = rng.choice(at_punctuation), rng.choice(punctuation)
            yield f"header byte {i} {chr(data[i])!r} -> {chr(byte)!r}", data[:i] + bytes([byte]) + data[i + 1:]


@pytest.mark.parametrize("rank", [3, 2], ids=["probability-map", "label-mask"])
def test_read_npy_mutations(tmp_path, rank):
    rng = np.random.default_rng(61 + rank)
    source = tmp_path / "source.npy"
    if rank == 3:
        oodseg.write_npy(rng.dirichlet(np.ones(4), size=(6, 5)).astype(np.float32), source)
    else:
        oodseg.write_npy(rng.integers(0, 4, size=(6, 5)).astype(np.int32), source)
    path, failures = tmp_path / "mutated.npy", []
    for case, mutated in _npy_mutations(source.read_bytes(), random.Random(rank), 900):
        path.write_bytes(mutated)
        _loads_or_fails_naming(lambda: oodseg.read_npy(path, expected_rank=rank), path, case, failures)
    assert not failures, "\n".join(failures[:20])


def test_read_feature_csv_cell_replacements(tmp_path):
    prob = np.random.default_rng(7).dirichlet(np.full(4, 0.3), size=(24, 24)).astype(np.float32)
    table = oodseg.extract_segments(prob, 0.5)
    table = replace(table, labels=np.arange(len(table)) % 2)
    source = tmp_path / "source.csv"
    oodseg.write_feature_csv(table, source)
    with open(source, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) > 3
    rng, path, failures = random.Random(5), tmp_path / "mutated.csv", []
    for _ in range(400):
        r, c, cell = rng.randrange(len(rows)), rng.randrange(len(rows[0])), rng.choice(CSV_CELLS)
        mutated = copy.deepcopy(rows)
        mutated[r][c] = cell
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(mutated)
        case = f"row {r} column {c} set to {cell[:30]!r} ({len(cell)} chars)"
        _loads_or_fails_naming(lambda: oodseg.read_feature_csv(path), path, case, failures)
    assert not failures, "\n".join(failures[:20])


def test_read_feature_csv_label_cells_outside_minus_one_to_one(tmp_path):
    """Unlike a random cell replacement, which may still load, a label cell other than -1, 0 and 1 must fail."""
    n = 3
    table = oodseg.SegmentTable(ids=np.arange(n), bboxes=np.zeros((n, 4), dtype=np.int64),
                                features=np.ones((n, len(oodseg.FEATURE_NAMES))), labels=np.array([0, 1, -1]))
    source, path, failures = tmp_path / "source.csv", tmp_path / "mutated.csv", []
    oodseg.write_feature_csv(table, source)
    with open(source, newline="") as fh:
        rows = list(csv.reader(fh))
    for r in range(1, n + 1):
        for cell in ("2", "7", "-2", "254", "9223372036854775807", "-9223372036854775808"):
            mutated = copy.deepcopy(rows)
            mutated[r][-1] = cell
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(mutated)
            case = f"row {r} label set to {cell}"
            _fails(lambda: oodseg.read_feature_csv(path), case, failures)
            _loads_or_fails_naming(lambda: oodseg.read_feature_csv(path), path, case, failures)
    assert not failures, "\n".join(failures[:20])


def _field_replacements(payload: dict, rng: random.Random, n: int, values=JSON_VALUES):
    """(description, payload) of ``n`` replacements of a top-level field, a list element or a nested field.

    Now and then a field is deleted or an unknown one added instead.
    """
    keys = sorted(payload)
    for _ in range(n):
        mutated, key, value = copy.deepcopy(payload), rng.choice(keys), rng.choice(values)
        field = mutated[key]
        roll = rng.random()
        if isinstance(field, list) and field and roll < 0.5:
            i = rng.randrange(len(field))
            field[i] = value
            yield f"{key}[{i}] set to {type(value).__name__}", mutated
        elif isinstance(field, dict) and roll < 0.7:
            inner = rng.choice(sorted(field))
            field[inner] = value
            yield f"{key}.{inner} set to {type(value).__name__}", mutated
        elif roll < 0.9:
            mutated[key] = value
            yield f"{key} set to {type(value).__name__}", mutated
        elif roll < 0.95:
            del mutated[key]
            yield f"{key} deleted", mutated
        else:
            mutated["novel"] = value
            yield "key 'novel' added", mutated


def test_load_meta_model_field_replacements(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, len(oodseg.FEATURE_NAMES)))
    x[:, 4] = 1.0  # a dropped, constant feature
    source = tmp_path / "source.json"
    oodseg.save_meta_model(oodseg.fit_meta(x, (x[:, 0] > 0).astype(np.int64)), source)
    payload = json.loads(source.read_text())
    path, failures = tmp_path / "mutated.json", []
    for case, mutated in _field_replacements(payload, random.Random(9), 300):
        path.write_text(_dumps(mutated))
        _loads_or_fails_naming(lambda: oodseg.load_meta_model(path), path, case, failures)
    assert not failures, "\n".join(failures[:20])


def test_config_from_json_field_replacements(tmp_path):
    payload = oodseg.config_to_dict(oodseg.DEFAULT_CONFIG)
    path, failures = tmp_path / "mutated.json", []
    for case, mutated in _field_replacements(payload, random.Random(11), 400):
        path.write_text(_dumps(mutated))
        _loads_or_fails_naming(lambda: oodseg.config_from_json(path), path, case, failures)
    assert not failures, "\n".join(failures[:20])


def test_load_benchmark_manifest_field_replacements(tmp_path):
    bench_dir = tmp_path / "bench"
    cfg = oodseg.SceneConfig(height=12, width=10, num_classes=3, n_regions=4, n_ood_blobs=1,
                             blob_radius_range=(2.0, 3.0), seed=4)
    manifest_path = oodseg.generate_benchmark(cfg, n_scenes=1, out_dir=bench_dir)
    payload = json.loads(manifest_path.read_text())
    # n_scenes is replaced only by claims of at most 200,000 scenes; every other field by any value.
    claims = [200_000, 2, 0, -1, HUGE_NEGATIVE, "x", None, True, 1.5, NAN, [], {}]
    scenes, rest = {"n_scenes": payload["n_scenes"]}, {k: v for k, v in payload.items() if k != "n_scenes"}
    cases = [*((case, {**scenes, **mutated}) for case, mutated in _field_replacements(rest, random.Random(13), 200)),
             *((case, {**rest, **mutated}) for case, mutated in _field_replacements(scenes, random.Random(17), 30,
                                                                                     values=claims))]
    failures = []
    for case, mutated in cases:
        manifest_path.write_text(_dumps(mutated))
        _loads_or_fails_naming(lambda: oodseg.load_benchmark(bench_dir), bench_dir, case, failures)
    assert not failures, "\n".join(failures[:20])


# --- arguments -------------------------------------------------------------------------------------------------

# Values each kind of argument's rule rejects. A count's rule accepts any integer >= its lower bound up to its upper
# bound, if any, so a huge positive integer is given only as a class count or a size.
COUNTS = ["x", None, True, NAN, INF, -INF, HUGE_NEGATIVE, 2.5, np.array(3), np.float64(2.0), np.bool_(True)]
FRACTIONS = ["x", None, True, NAN, INF, -INF, HUGE, HUGE_NEGATIVE, -0.5, 1.5, np.array(0.5), np.bool_(True),
             np.float32(1.5), np.int64(2), np.float64(NAN)]
NON_NEGATIVE_FINITE = ["x", None, True, NAN, INF, -INF, HUGE, HUGE_NEGATIVE, -1, np.array(0.5), np.float32(NAN),
                       np.float64(-1e-9), np.float32(-INF)]


@pytest.fixture(scope="module")
def context():
    cfg = oodseg.SceneConfig(height=16, width=16, num_classes=3, n_regions=4, n_ood_blobs=1,
                             blob_radius_range=(2.0, 3.0), seed=8)
    bench = oodseg.build_benchmark(cfg, n_scenes=2)
    scene = bench.scenes[0]
    segs = oodseg.extract_segments(scene.prob_boosted, 0.3)
    x = np.random.default_rng(2).standard_normal((20, len(oodseg.FEATURE_NAMES)))
    model = oodseg.fit_meta(x, (x[:, 0] > 0).astype(np.int64))
    maps = oodseg.score_maps(scene.prob_boosted)
    return cfg, bench, scene, segs, model, maps


def _argument_calls(context, tmp_path):
    """(name, rejected values, call of one value) for every count and number argument of the public API."""
    cfg, bench, scene, segs, model, maps = context
    x = np.random.default_rng(1).standard_normal((12, 3))
    y = (x[:, 0] > 0).astype(np.int64)
    p, gt = scene.prob_boosted, scene.gt
    calls = [
        ("threshold_mask t", FRACTIONS, lambda v: oodseg.threshold_mask(maps.entropy, v)),
        ("extract_segments t", FRACTIONS, lambda v: oodseg.extract_segments(p, v)),
        ("extract_segments min_size", COUNTS + [0, -1], lambda v: oodseg.extract_segments(p, 0.5, min_size=v)),
        ("match_segments coverage", FRACTIONS + [0.0], lambda v: oodseg.match_segments(segs, gt, v)),
        ("miou num_classes", COUNTS + [1, 0, 255, 2**31, 2**40, HUGE], lambda v: oodseg.miou(maps.pred, gt, v)),
        ("label_segments tau_tp", FRACTIONS + [0.0], lambda v: oodseg.label_segments(segs, gt, v)),
        ("apply_meta_filter cutoff", FRACTIONS + [0.0, 1.0], lambda v: oodseg.apply_meta_filter(segs, model, v)),
        ("sweep grid", ["x", None, 0.5, HUGE, HUGE_NEGATIVE, np.array([[0.3]]), (0.3, 0.3), ()],
         lambda v: oodseg.sweep(bench, v)),
        ("sweep grid entry", FRACTIONS, lambda v: oodseg.sweep(bench, (v,))),
        ("sweep coverage", FRACTIONS + [0.0], lambda v: oodseg.sweep(bench, (0.5,), coverage=v)),
        ("sweep min_size", COUNTS + [0], lambda v: oodseg.sweep(bench, (0.5,), min_size=v)),
        ("sweep jobs", COUNTS + [0, -1], lambda v: oodseg.sweep(bench, (0.5,), jobs=v)),
        ("build_training_table tau_tp", FRACTIONS + [0.0], lambda v: oodseg.build_training_table(bench, (0.5,), v)),
        ("build_training_table min_size", COUNTS + [0],
         lambda v: oodseg.build_training_table(bench, (0.5,), min_size=v)),
        ("fit_logistic l2_lambda", NON_NEGATIVE_FINITE, lambda v: oodseg.fit_logistic(x, y, l2_lambda=v)),
        ("fit_meta l2_lambda", NON_NEGATIVE_FINITE, lambda v: oodseg.fit_meta(x, y, l2_lambda=v)),
        ("fit_meta grad_tol", NON_NEGATIVE_FINITE, lambda v: oodseg.fit_meta(x, y, grad_tol=v)),
        ("fit_meta max_iter", COUNTS + [-1], lambda v: oodseg.fit_meta(x, y, max_iter=v)),
        ("build_benchmark n_scenes", COUNTS + [0, -1], lambda v: oodseg.build_benchmark(cfg, v)),
        ("build_benchmark jobs", COUNTS + [0], lambda v: oodseg.build_benchmark(cfg, 1, jobs=v)),
        ("generate_benchmark n_scenes", COUNTS + [0], lambda v: oodseg.generate_benchmark(cfg, v, tmp_path / "g")),
        ("generate_benchmark jobs", COUNTS + [0], lambda v: oodseg.generate_benchmark(cfg, 1, tmp_path / "g", v)),
        ("read_npy expected_rank", ["x", None, True, 4, 2.5, HUGE, HUGE_NEGATIVE, np.array(4)],
         lambda v: oodseg.read_npy(tmp_path / "absent.npy", v)),
        ("validate_label_mask num_classes", ["x", True, NAN, INF, HUGE_NEGATIVE, 2.5, np.array(3), 0, -1, 255, HUGE],
         lambda v: oodseg.validate_label_mask(gt, v)),
    ]
    for name in ("height", "width", "num_classes", "n_regions", "n_ood_blobs", "seed"):
        calls.append((f"SceneConfig {name}", COUNTS + [-1], lambda v, name=name: oodseg.SceneConfig(**{name: v})))
    for name, too_large in (("height", [2**61, HUGE]), ("width", [2**61, HUGE]), ("num_classes", [255, 2**40, HUGE]),
                            ("seed", [2**64, HUGE])):
        calls.append((f"SceneConfig {name} too large", too_large,
                      lambda v, name=name: oodseg.SceneConfig(**{name: v})))
    calls.append(("SceneConfig height * width", [2**30, 2**40], lambda v: oodseg.SceneConfig(height=v, width=v)))
    for name in ("sharpness", "base_alpha", "ood_entropy_boost", "speckle_rate", "speckle_strength"):
        calls.append((f"SceneConfig {name}", FRACTIONS[:8] + [-1.0, np.array(0.5), np.bool_(True)],
                      lambda v, name=name: oodseg.SceneConfig(**{name: v})))
    pairs = [(v, 5.0) for v in FRACTIONS[:8]] + [(2.0, v) for v in FRACTIONS[:8]] + [5.0, (3.0,), "35", None]
    calls.append(("SceneConfig blob_radius_range", pairs, lambda v: oodseg.SceneConfig(blob_radius_range=v)))
    return calls


def test_rejected_arguments_raise_oodseg_errors(context, tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a rejected argument started a worker pool")

    monkeypatch.setattr(synth, "ProcessPoolExecutor", no_pool)
    failures = []
    for name, values, call in _argument_calls(context, tmp_path):
        for k, value in enumerate(values):
            _fails(lambda: call(value), f"{name} = value {k} ({type(value).__name__})", failures)
    assert not failures, "\n".join(failures[:30])


# --- array arguments -----------------------------------------------------------------------------------------

# Dtypes an array argument may be given in by mistake.
DTYPES = [bool, np.int8, np.int32, np.int64, np.uint64, np.float16, np.float32, np.float64, np.complex64, object,
          "U3", "S3", "datetime64[s]", [("a", np.int32)]]


def _of_rank(a, rank):
    """``a``'s values in an array of ``rank`` dimensions: leading axes merged, or axes of length 1 put in front."""
    if rank == 0:
        return a.reshape(-1)[:1].reshape(())
    if rank <= a.ndim:
        return a.reshape(-1, *a.shape[a.ndim - rank + 1:])
    return a.reshape((1,) * (rank - a.ndim) + a.shape)


def _wrong_arrays(good, ranks, kinds):
    """(description, value) of ``good`` in each rank of ``ranks``, cast to each dtype whose kind is not in ``kinds``,
    and three values that are no arrays."""
    out = [(f"rank {rank}", _of_rank(good, rank)) for rank in ranks]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # casting complex to real, for example
        out += [(f"dtype {dtype}", good.astype(dtype)) for dtype in map(np.dtype, DTYPES) if dtype.kind not in kinds]
    return out + [("None", None), ("str", "x"), ("ragged list", [[0, 1], [0]])]


def _wrong_exact(good, ranks):
    """``_wrong_arrays`` of an argument that takes ``good``'s dtype only."""
    return [(case, v) for case, v in _wrong_arrays(good, ranks, "") if case != f"dtype {good.dtype}"]


def _wrong_ids(segs):
    """(description, table) of ``segs`` with one row's id replaced by an id that no label of its image marks."""
    top = int(segs.label_image.max())
    out = []
    for value in (top, top + 7, -1, -2, -len(segs), -len(segs) - 1, 2**40, np.iinfo(np.int64).max,
                  np.iinfo(np.int64).min):
        for row in (0, len(segs) - 1):
            ids = segs.ids.copy()
            ids[row] = value
            out.append((f"row {row} id {value}", replace(segs, ids=ids)))
    return out


def test_wrong_array_arguments_raise_oodseg_errors(context, tmp_path):
    _, _, scene, segs, model, maps = context
    p, gt, image = scene.prob_boosted, scene.gt, segs.label_image
    negative = image.copy()
    negative[0, 0] = -1
    images = _wrong_exact(image, (0, 1, 4)) + [("negative label", negative)]
    tables = _wrong_ids(segs)
    columns = [(f"short {name}", {name: getattr(segs, name)[:-1]}) for name in ("bboxes", "features", "sizes")]
    columns += [("short labels", {"labels": np.zeros(len(segs) - 1, dtype=np.int64)}),
                ("narrow features", {"features": segs.features[:, 1:]})]
    x = np.random.default_rng(1).standard_normal((12, 3))
    y = (x[:, 0] > 0).astype(np.int64)
    features = _wrong_arrays(x, (0, 1, 3), "biuf")
    labels = _wrong_arrays(y, (0, 2), "biuf")
    calls = [
        ("compute_features label image", images + [("rank 3", image[None])],
         lambda v: oodseg.compute_features(replace(segs, label_image=v), maps.entropy, p)),
        ("compute_features table", tables, lambda v: oodseg.compute_features(v, maps.entropy, p)),
        ("compute_features entropy", _wrong_arrays(maps.entropy, (0, 1, 4), "f"),
         lambda v: oodseg.compute_features(segs, v, p)),
        ("compute_features probability map", _wrong_arrays(p, (0, 1, 2, 4), "f"),
         lambda v: oodseg.compute_features(segs, maps.entropy, v)),
        ("extract_segments probability map", _wrong_arrays(p, (0, 1, 2, 4), "f"),
         lambda v: oodseg.extract_segments(v, 0.3)),
        ("connected_components mask", _wrong_arrays(gt == 1, (0, 1, 3), "biuf"),
         lambda v: oodseg.connected_components(v)),
        ("label_segments label image", images + [("rank 3", image[None])],
         lambda v: oodseg.label_segments(replace(segs, label_image=v), gt)),
        ("label_segments gt", _wrong_arrays(gt, (0, 1, 3), "iu"), lambda v: oodseg.label_segments(segs, v)),
        ("match_segments label image", images + [("rank 3", image[None])],
         lambda v: oodseg.match_segments(replace(segs, label_image=v), gt)),
        ("SegmentTable column", columns, lambda v: replace(segs, **v)),
        ("match_segments gt", _wrong_arrays(gt, (0, 1, 3), "iu"), lambda v: oodseg.match_segments(segs, v)),
        ("label_segments table", tables, lambda v: oodseg.label_segments(v, gt)),
        ("match_segments table", tables, lambda v: oodseg.match_segments(v, gt)),
        ("pixel_pr_curve score map", _wrong_arrays(maps.entropy, (0, 1, 3), "biuf"),
         lambda v: oodseg.pixel_pr_curve(v, gt)),
        ("pixel_pr_curve gt", _wrong_arrays(gt, (0, 1, 3), "iu"), lambda v: oodseg.pixel_pr_curve(maps.entropy, v)),
        ("miou prediction", _wrong_arrays(maps.pred, (0, 1, 3), "iu"), lambda v: oodseg.miou(v, gt, 3)),
        ("miou gt", _wrong_arrays(gt, (0, 1, 3), "iu"), lambda v: oodseg.miou(maps.pred, v, 3)),
        ("threshold_mask score map", _wrong_arrays(maps.entropy, (0, 1, 3), "biuf"),
         lambda v: oodseg.threshold_mask(v, 0.5)),
        ("standardize_fit features", features, oodseg.standardize_fit),
        ("fit_logistic features", features, lambda v: oodseg.fit_logistic(v, y)),
        ("fit_logistic labels", labels, lambda v: oodseg.fit_logistic(x, v)),
        ("fit_meta features", features, lambda v: oodseg.fit_meta(v, y)),
        ("fit_meta labels", labels, lambda v: oodseg.fit_meta(x, v)),
        ("predict_proba features", _wrong_arrays(segs.features, (0, 1, 3), "biuf"),
         lambda v: oodseg.predict_proba(model, v)),
        ("validate_prob_map", _wrong_exact(p, (0, 1, 2, 4)), oodseg.validate_prob_map),
        ("validate_score_map", _wrong_exact(maps.entropy, (0, 1, 3)), oodseg.validate_score_map),
        ("validate_label_mask", _wrong_exact(gt, (0, 1, 3)), oodseg.validate_label_mask),
        ("write_npy data", _wrong_arrays(p, (0, 1, 4), "biuf"), lambda v: oodseg.write_npy(v, tmp_path / "x.npy")),
    ]
    failures = []
    for name, values, call in calls:
        for case, value in values:
            _fails(lambda: call(value), f"{name} = {case}", failures)
    assert not failures, "\n".join(failures[:30])


# --- benchmarks --------------------------------------------------------------------------------------------------


@pytest.mark.parametrize("run", ["sweep-jobs-1", "sweep-jobs-2", "build_training_table"])
def test_benchmark_inputs_that_are_no_arrays(context, run):
    """A scene's maps or gt given as nested lists are read as arrays; a benchmark without a list of scenes, or with an
    entry that is no scene, fails as a ``ConfigError``."""
    _, bench, _, _, model, _ = context
    grid = (0.3, 0.6)
    if run == "build_training_table":
        def call(b):
            return [a.tolist() for a in oodseg.build_training_table(b, grid)]
    else:
        def call(b):
            return oodseg.sweep(b, grid, model=model, jobs=int(run[-1])).rows
    expected, failures = call(bench), []
    for field in ("prob_plain", "prob_boosted", "gt"):
        nested = replace(bench, scenes=[replace(s, **{field: getattr(s, field).tolist()}) for s in bench.scenes])
        try:
            got = call(nested)
        except Exception as exc:
            failures.append(f"nested-list {field}: {type(exc).__name__}: {str(exc)[:200]}")
        else:  # the float64 maps of a list may part segments at other pixels than float32 maps
            if field == "gt" and got != expected:
                failures.append("nested-list gt: results differ from the arrays'")
    for case, value, message in (
            ("plain list of scenes", list(bench.scenes), "must be a list or tuple, got NoneType"),
            ("scenes=None", replace(bench, scenes=None), "must be a list or tuple, got NoneType"),
            ("scenes a generator", replace(bench, scenes=iter(bench.scenes)), "must be a list or tuple, got list_iter"),
            ("a tuple among the scenes", replace(bench, scenes=[bench.scenes[0], (1, 2)]), "scenes[1] is a tuple, not a"),
            ("a scene's maps alone", replace(bench, scenes=[bench.scenes[0].prob_plain]), "scenes[0] is a ndarray, not")):
        try:
            call(value)
        except oodseg.ConfigError as exc:
            if message not in str(exc):
                failures.append(f"{case}: ConfigError without {message!r}: {exc}")
        except Exception as exc:
            failures.append(f"{case}: {type(exc).__name__}: {str(exc)[:200]}")
        else:
            failures.append(f"{case}: accepted")
    assert not failures, "\n".join(failures)
