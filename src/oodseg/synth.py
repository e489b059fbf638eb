"""Seeded synthetic scenes emulating a segmentation network's softmax output.

A scene is a Voronoi partition of the image into in-distribution regions
(each with a random class) plus a few elliptical OoD blobs. Per-pixel
probability vectors are Dirichlet draws: sharp around the true class for
in-distribution pixels, and for OoD pixels a mixture

    (1 - beta) * Dirichlet(alpha0 + kappa * e_r)  +  beta * Dirichlet(alpha0)

with a random wrong class r. ``beta`` (``ood_entropy_boost``) emulates the
effect of entropy-maximization training on unknown objects: beta = 0 gives
confidently wrong, essentially undetectable blobs; beta near 1 gives
high-entropy blobs that stand out in an entropy map. A small fraction of
in-distribution pixels is additionally mixed toward uniform inside little
discs ("speckle"), creating realistic false-positive candidates for the
meta classifier. Mixing toward uniform never changes a pixel's argmax, so
speckle and boost leave the predicted segmentation on in-distribution
pixels untouched.

All randomness flows through four counter-based Philox streams (geometry,
in-distribution draws, speckle, OoD draws) derived from the scene seed. The
boosted and plain variant of a benchmark scene are made in one pass from
one set of draws, each drawn once, and differ only in how the OoD mixture
is weighted. Scene bytes are a pure function of the config; there is no
global RNG state. The class field and the float32 maps are filled in blocks
of whole rows of about ``_BLOCK_PX`` pixels that continue the one
in-distribution stream: the bytes of a whole-map draw, in memory near the
outputs' own size.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, IoError, SchemaError, _count, _finite, _is_a, _plain, _prefix
from .tensor_io import _BLOCK_PX, OOD_ID, _read_gt, _read_json, _write_json, read_npy, write_npy

__all__ = [
    "SceneConfig",
    "BenchScene",
    "Benchmark",
    "DEFAULT_CONFIG",
    "DEFAULT_N_SCENES",
    "generate_scene",
    "build_benchmark",
    "generate_benchmark",
    "load_benchmark",
    "config_from_json",
    "config_to_dict",
]

# Sub-stream ids of a scene's SeedSequence. Geometry (sites, classes, blob
# shapes, wrong classes) and the three sampling streams are kept separate so
# variants that differ only in beta consume identical draws.
_STREAM_GEOMETRY = 0
_STREAM_INDIST = 1
_STREAM_SPECKLE = 2
_STREAM_OOD = 3

SPECKLE_DISC_RADIUS = 2.0  # pixels; discs of ~13 pixels survive min-size filtering
MANIFEST_FORMAT_VERSION = "1"
DEFAULT_N_SCENES = 20
# Whether a value suits each annotated type of a SceneConfig field, and the type's name in errors.
_FIELD_KINDS = {"int": (lambda v: _is_a(v, numbers.Integral), "an integer"), "float": (_finite, "a finite number")}


@dataclass(frozen=True)
class SceneConfig:
    """Generator knobs; the defaults define the reference benchmark."""

    height: int = 128
    width: int = 128
    num_classes: int = 11
    n_regions: int = 40
    n_ood_blobs: int = 3
    blob_radius_range: tuple = (6.0, 14.0)
    sharpness: float = 25.0          # kappa, concentration added to the drawn class
    base_alpha: float = 0.3          # alpha0, symmetric Dirichlet floor
    ood_entropy_boost: float = 0.9   # beta in [0, 1]
    speckle_rate: float = 0.02       # rho, fraction of in-distribution pixels speckled
    speckle_strength: float = 0.6    # mixing weight toward uniform inside speckle discs
    seed: int = 42

    def __post_init__(self):
        lo_hi = self.blob_radius_range
        if not (isinstance(lo_hi, (tuple, list)) and len(lo_hi) == 2 and all(_finite(r) for r in lo_hi)):
            raise ConfigError("blob_radius_range must be a pair of finite numbers")  # a huge integer's repr fails
        for f in fields(self):
            value, kind = getattr(self, f.name), _FIELD_KINDS.get(f.type)
            if kind and not kind[0](value):
                raise ConfigError(f"{f.name} must be {kind[1]}, got {_plain(value)}")
            if kind and not isinstance(value, (int, float)):  # a NumPy scalar, which JSON cannot write
                object.__setattr__(self, f.name, int(value) if f.type == "int" else float(value))
        lo_hi = tuple(float(r) for r in lo_hi)
        object.__setattr__(self, "blob_radius_range", lo_hi)
        checks = [
            (self.height >= 1 and self.width >= 1, "height and width must be >= 1"),
            (self.num_classes >= 2, "num_classes must be >= 2"),
            (self.num_classes <= OOD_ID, f"num_classes must be <= {OOD_ID}; the ids above are reserved"),
            (self.height * self.width * self.num_classes <= np.iinfo(np.intp).max // 4,
             "height * width * num_classes float32 values must fit in one array"),
            (self.n_regions >= 1, "n_regions must be >= 1"),
            (self.n_ood_blobs >= 0, "n_ood_blobs must be >= 0"),
            (1.0 <= lo_hi[0] <= lo_hi[1], "blob_radius_range must satisfy 1 <= lo <= hi"),
            (self.sharpness > 0, "sharpness must be > 0"),
            (self.base_alpha > 0, "base_alpha must be > 0"),
            (0.0 <= self.ood_entropy_boost <= 1.0, "ood_entropy_boost must lie in [0, 1]"),
            (0.0 <= self.speckle_rate < 1.0, "speckle_rate must lie in [0, 1)"),
            (0.0 <= self.speckle_strength <= 1.0, "speckle_strength must lie in [0, 1]"),
            (0 <= self.seed < 2**64, "seed must be an unsigned 64-bit integer"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)


DEFAULT_CONFIG = SceneConfig()


@dataclass
class BenchScene:
    index: int
    gt: np.ndarray
    prob_boosted: Optional[np.ndarray]
    prob_plain: Optional[np.ndarray]


@dataclass
class Benchmark:
    config: SceneConfig
    scenes: list


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream_id,))))


def _scene_seed(base_seed: int, k: int) -> int:
    return int(np.random.SeedSequence(base_seed, spawn_key=(k,)).generate_state(1, np.uint64)[0])


def _disc_offsets(radius: float) -> np.ndarray:
    r = int(np.floor(radius))
    dr, dc = np.mgrid[-r:r + 1, -r:r + 1]
    keep = dr * dr + dc * dc <= radius * radius
    return np.stack([dr[keep], dc[keep]], axis=1)


def generate_scene(cfg: SceneConfig):
    """Generate one scene: ``(prob, gt, classes)``.

    ``prob`` is the float32 probability map, ``gt`` the int32 mask holding
    region classes with blob pixels overwritten by the OoD id, ``classes``
    the underlying Voronoi class field without blobs. Deterministic given
    the config; identical configs yield bit-identical arrays.

    Geometry draw order (fixed contract): region sites (rows then cols),
    region classes, then per blob the semi-axes a and b, rotation, wrong
    class and center row/col. A blob whose extent cannot fit inside the
    image raises ConfigError. Then disc center rows then cols (speckle
    stream), the sharp Dirichlets of all blob pixels in raster order, then
    their flat ones (OoD stream), and every pixel in raster order, one block
    of whole rows per call (in-distribution stream).
    """
    (prob,), gt, classes = _generate(cfg, (cfg.ood_entropy_boost,))
    return prob, gt, classes


def _generate(cfg: SceneConfig, betas: tuple):
    """``([prob per beta], gt, classes)`` of ``cfg``'s scene from one set of draws.

    Each ``prob`` equals ``generate_scene(replace(cfg, ood_entropy_boost=beta))[0]``
    byte for byte; ``cfg.ood_entropy_boost`` itself is not read.
    """
    h, w, c = cfg.height, cfg.width, cfg.num_classes
    geom = _stream(cfg.seed, _STREAM_GEOMETRY)

    sites_r = geom.random(cfg.n_regions) * h
    sites_c = geom.random(cfg.n_regions) * w
    region_class = geom.integers(0, c, cfg.n_regions).astype(np.int32)

    blob_mask = np.zeros((h, w), dtype=bool)
    wrong_class = np.zeros((h, w), dtype=np.int32)
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
            raise ConfigError(
                f"OoD blob with extent {ext_r:.1f}x{ext_c:.1f} cannot fit in a {h}x{w} scene"
            )
        cy = geom.uniform(ext_r, (h - 1) - ext_r)
        cx = geom.uniform(ext_c, (w - 1) - ext_c)
        # the ellipse lies inside its extent, so only that box (plus a pixel) is tested
        box_r, box_c = slice(int(cy - ext_r), int(cy + ext_r) + 2), slice(int(cx - ext_c), int(cx + ext_c) + 2)
        u = (cc[:, box_c] - cx) * np.cos(theta) + (rr[box_r] - cy) * np.sin(theta)
        v = -(cc[:, box_c] - cx) * np.sin(theta) + (rr[box_r] - cy) * np.cos(theta)
        inside = (u / a) ** 2 + (v / b) ** 2 <= 1.0
        blob_mask[box_r, box_c] |= inside
        wrong_class[box_r, box_c][inside] = wrong

    # Speckle: disc-shaped clusters of in-distribution pixels, mixed toward
    # uniform below. The affine map p -> (1-s)p + s/C preserves each pixel's
    # argmax while raising its entropy.
    speckle = _stream(cfg.seed, _STREAM_SPECKLE)
    n_indist = int((~blob_mask).sum())
    target = int(round(cfg.speckle_rate * n_indist))
    offsets = _disc_offsets(SPECKLE_DISC_RADIUS)
    n_discs = max(1, int(round(target / offsets.shape[0]))) if target > 0 else 0
    speckle_mask = np.zeros((h, w), dtype=bool)
    if n_discs > 0:
        centers_r = speckle.integers(0, h, n_discs)
        centers_c = speckle.integers(0, w, n_discs)
        pr = (centers_r[:, None] + offsets[:, 0]).ravel()
        pc = (centers_c[:, None] + offsets[:, 1]).ravel()
        keep = (pr >= 0) & (pr < h) & (pc >= 0) & (pc < w)
        speckle_mask[pr[keep], pc[keep]] = True
        speckle_mask &= ~blob_mask

    # OoD pixels: per beta, a mixture of a sharp wrong-class Dirichlet and a flat one.
    ood_r, ood_c = np.nonzero(blob_mask)
    mixes = _ood_mixtures(cfg, wrong_class[ood_r, ood_c, None], betas)
    del wrong_class

    # Per block of whole rows: the Voronoi classes, by a running argmin over
    # the sites (a strict < keeps the first of tied sites, as an argmin over
    # all sites at once would), then the in-distribution Dirichlet draws of
    # every pixel (blob pixels too, which keeps the stream layout independent
    # of blob geometry) and speckle; each beta's map takes the block with
    # that beta's mixture on the blob pixels.
    indist = _stream(cfg.seed, _STREAM_INDIST)
    classes = np.empty((h, w), dtype=np.int32)
    probs = [np.empty((h, w, c), dtype=np.float32) for _ in betas]
    step = max(1, _BLOCK_PX // w)
    starts = range(0, h, step)
    bounds = np.searchsorted(ood_r, [*starts, h])  # blob pixels are in raster order
    s, rows, cols = cfg.speckle_strength, rr + 0.5, cc + 0.5
    for r0, lo_i, hi_i in zip(starts, bounds, bounds[1:]):
        band = slice(r0, r0 + step)
        nearest_d2, band_classes = np.full(classes[band].shape, np.inf), classes[band]
        for k in range(cfg.n_regions):
            d2 = (rows[band] - sites_r[k]) ** 2 + (cols - sites_c[k]) ** 2
            closer = d2 < nearest_d2
            np.copyto(nearest_d2, d2, where=closer)
            band_classes[closer] = region_class[k]
        alpha = np.where(classes[band, :, None] == np.arange(c), cfg.base_alpha + cfg.sharpness, cfg.base_alpha)
        block = indist.gamma(alpha)
        block /= block.sum(axis=2, keepdims=True)
        spk = speckle_mask[band]
        block[spk] = (1.0 - s) * block[spk] + s / c
        blob_px = ood_r[lo_i:hi_i] - r0, ood_c[lo_i:hi_i]
        for prob, mix in zip(probs, mixes):
            block[blob_px] = mix[lo_i:hi_i]
            prob[band] = block

    gt = classes.copy()
    gt[blob_mask] = OOD_ID
    return probs, gt, classes


def _ood_mixtures(cfg: SceneConfig, wrong: np.ndarray, betas: tuple) -> list:
    """One float64 (n, C) mixture per beta for blob pixels of wrong classes ``wrong`` (n, 1).

    Both Dirichlets are drawn once, in chunks of pixels, and mixed with the
    same operations in the same order as a single-beta, out-of-place mix.
    """
    ood, c = _stream(cfg.seed, _STREAM_OOD), cfg.num_classes
    mixes = [np.empty((len(wrong), c)) for _ in betas]
    chunks = [slice(i, i + _BLOCK_PX) for i in range(0, len(wrong), _BLOCK_PX)]
    for part in chunks:
        sharp = ood.gamma(np.where(wrong[part] == np.arange(c), cfg.base_alpha + cfg.sharpness, cfg.base_alpha))
        sharp /= sharp.sum(axis=1, keepdims=True)
        for beta, mix in zip(betas, mixes):
            np.multiply(sharp, 1.0 - beta, out=mix[part])
    for part in chunks:
        flat = ood.gamma(cfg.base_alpha, size=(len(wrong[part]), c))
        flat /= flat.sum(axis=1, keepdims=True)
        for beta, mix in zip(betas, mixes):
            mix[part] += flat * beta
            mix[part] /= mix[part].sum(axis=1, keepdims=True)
    return mixes


def _scene_pair(args):
    """Boosted and plain (beta = 0) variants of scene k, made from one set of draws."""
    cfg, k = args
    cfg_k = replace(cfg, seed=_scene_seed(cfg.seed, k))
    (prob_boosted, prob_plain), gt, _ = _generate(cfg_k, (cfg.ood_entropy_boost, 0.0))
    return k, gt, prob_boosted, prob_plain


def _ordered_map(fn, items, jobs: int):
    """Yield ``fn(item)`` in item order, each as soon as it is made, over ``jobs`` processes if > 1."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(fn, items)
    else:
        yield from map(fn, items)


def _scene_pairs(cfg: SceneConfig, n_scenes: int, jobs: int):
    """Check ``jobs`` and ``n_scenes``, then return the lazy ``_scene_pair`` results in scene order."""
    _count("jobs", jobs, 1)
    _count("n_scenes", n_scenes, 1)
    return _ordered_map(_scene_pair, [(cfg, k) for k in range(n_scenes)], jobs)


def build_benchmark(cfg: SceneConfig, n_scenes: int = DEFAULT_N_SCENES, jobs: int = 1) -> Benchmark:
    """Generate the paired boosted/plain benchmark in memory."""
    return Benchmark(config=cfg, scenes=[BenchScene(*result) for result in _scene_pairs(cfg, n_scenes, jobs)])


def config_to_dict(cfg: SceneConfig) -> dict:
    return {**asdict(cfg), "blob_radius_range": list(cfg.blob_radius_range)}


def config_from_json(path) -> SceneConfig:
    """Build a SceneConfig from a JSON object; missing fields take defaults."""
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    known = {f.name for f in fields(SceneConfig)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise SchemaError(f"{path}: unknown config keys {unknown}")
    return _config_at(path, payload)


def _config_at(path, payload: dict) -> SceneConfig:
    """``SceneConfig(**payload)`` whose check errors name ``path``."""
    with _prefix(path):
        return SceneConfig(**payload)


def _scene_filenames(k: int) -> tuple:
    return (f"scene_{k}_prob_boosted.npy", f"scene_{k}_prob_plain.npy", f"scene_{k}_gt.npy")


def generate_benchmark(cfg: SceneConfig, n_scenes: int, out_dir, jobs: int = 1) -> Path:
    """Materialize the benchmark on disk and return the manifest path.

    Layout: ``scene_<k>_prob_boosted.npy``, ``scene_<k>_prob_plain.npy``,
    ``scene_<k>_gt.npy`` plus ``manifest.json`` carrying the format version,
    the config echo and the file list. Rerunning with the same config
    produces byte-identical files.
    """
    pairs = _scene_pairs(cfg, n_scenes, jobs)
    out_dir = Path(out_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc
    file_list = []
    for k, gt, prob_boosted, prob_plain in pairs:
        boosted_name, plain_name, gt_name = _scene_filenames(k)
        write_npy(prob_boosted, out_dir / boosted_name)
        write_npy(prob_plain, out_dir / plain_name)
        write_npy(gt, out_dir / gt_name)
        file_list.extend([boosted_name, plain_name, gt_name])
    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "n_scenes": int(n_scenes),  # a NumPy integer is no JSON number
        "config": config_to_dict(cfg),
        "files": file_list,
    }
    manifest_path = out_dir / "manifest.json"
    _write_json(manifest, manifest_path)
    return manifest_path


def load_benchmark(bench_dir, validate: bool = True) -> Benchmark:
    """Load a benchmark directory written by :func:`generate_benchmark`.

    A scene's maps must share one (H, W, C) shape and its gt must be an int32
    (H, W) mask with ids valid for C classes (the ids only with ``validate``).
    """
    bench_dir = Path(bench_dir)
    manifest_path = bench_dir / "manifest.json"
    manifest = _read_json(manifest_path)
    if not isinstance(manifest, dict) or manifest.get("format_version") != MANIFEST_FORMAT_VERSION:
        raise SchemaError(
            f"{manifest_path}: expected format_version {MANIFEST_FORMAT_VERSION!r}, "
            f"got {manifest.get('format_version')!r}"
        )
    for key in ("n_scenes", "config", "files"):
        if key not in manifest:
            raise SchemaError(f"{manifest_path}: missing key {key!r}")
    config_payload = manifest["config"]
    known = {f.name for f in fields(SceneConfig)}
    if not isinstance(config_payload, dict) or set(config_payload) != known:
        raise SchemaError(f"{manifest_path}: config keys must be exactly {sorted(known)}")
    cfg = _config_at(manifest_path, config_payload)
    n_scenes, files = manifest["n_scenes"], manifest["files"]
    _count(f"{manifest_path}: n_scenes", n_scenes, 1, SchemaError)
    # The length is compared first, so a claimed scene count costs nothing before it is checked.
    if not isinstance(files, list) or len(files) != 3 * n_scenes or files != [
            name for k in range(n_scenes) for name in _scene_filenames(k)]:
        raise SchemaError(f"{manifest_path}: files must list the scene layout of n_scenes scenes")
    scenes = []
    for k in range(n_scenes):
        boosted_path, plain_path, gt_path = (bench_dir / name for name in _scene_filenames(k))
        prob_boosted = read_npy(boosted_path, expected_rank=3, validate=validate)
        prob_plain = read_npy(plain_path, expected_rank=3, validate=validate)
        if prob_plain.shape != prob_boosted.shape:
            raise SchemaError(
                f"{plain_path}: shape {prob_plain.shape} != {boosted_path.name} shape {prob_boosted.shape}"
            )
        gt = _read_gt(gt_path, prob_boosted.shape, validate)
        scenes.append(BenchScene(k, gt, prob_boosted, prob_plain))
    return Benchmark(config=cfg, scenes=scenes)
