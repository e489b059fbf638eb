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
in-distribution draws, speckle, OoD draws) derived from the scene seed, so
the boosted and plain variant of a scene share every draw and differ only
in how the OoD mixture is weighted. Scene bytes are a pure function of the
config; there is no global RNG state.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, FormatError, IoError, OodsegError, SchemaError
from .tensor_io import OOD_ID, read_npy, validate_label_mask, write_npy

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
        object.__setattr__(self, "blob_radius_range", tuple(float(r) for r in self.blob_radius_range))
        lo_hi = self.blob_radius_range
        checks = [
            (self.height >= 1 and self.width >= 1, "height and width must be >= 1"),
            (self.num_classes >= 2, "num_classes must be >= 2"),
            (self.n_regions >= 1, "n_regions must be >= 1"),
            (self.n_ood_blobs >= 0, "n_ood_blobs must be >= 0"),
            (len(lo_hi) == 2 and 1.0 <= lo_hi[0] <= lo_hi[1], "blob_radius_range must satisfy 1 <= lo <= hi"),
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
    image raises ConfigError.
    """
    h, w, c = cfg.height, cfg.width, cfg.num_classes
    geom = _stream(cfg.seed, _STREAM_GEOMETRY)

    sites_r = geom.random(cfg.n_regions) * h
    sites_c = geom.random(cfg.n_regions) * w
    region_class = geom.integers(0, c, cfg.n_regions)
    rows = np.arange(h, dtype=np.float64)[:, None] + 0.5
    cols = np.arange(w, dtype=np.float64)[None, :] + 0.5
    # Running argmin over the sites: O(H*W) memory, and a strict < keeps the
    # first of tied sites, as argmin over an (H, W, n_regions) tensor would.
    nearest_d2 = np.full((h, w), np.inf)
    region = np.zeros((h, w), dtype=np.intp)
    for k in range(cfg.n_regions):
        d2 = (rows - sites_r[k]) ** 2 + (cols - sites_c[k]) ** 2
        closer = d2 < nearest_d2
        np.copyto(nearest_d2, d2, where=closer)
        region[closer] = k
    classes = region_class[region].astype(np.int32)

    blob_mask = np.zeros((h, w), dtype=bool)
    wrong_class = np.zeros((h, w), dtype=np.int64)
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
        u = (cc - cx) * np.cos(theta) + (rr - cy) * np.sin(theta)
        v = -(cc - cx) * np.sin(theta) + (rr - cy) * np.cos(theta)
        inside = (u / a) ** 2 + (v / b) ** 2 <= 1.0
        blob_mask |= inside
        wrong_class[inside] = wrong

    # In-distribution Dirichlet draws for every pixel (blob pixels are
    # overwritten below; drawing them anyway keeps the stream layout
    # independent of blob geometry).
    indist = _stream(cfg.seed, _STREAM_INDIST)
    alpha = np.full((h, w, c), cfg.base_alpha, dtype=np.float64)
    np.put_along_axis(alpha, classes[:, :, None].astype(np.int64), cfg.base_alpha + cfg.sharpness, axis=2)
    gammas = indist.gamma(alpha)
    prob = gammas / gammas.sum(axis=2, keepdims=True)

    # Speckle: mix disc-shaped clusters of in-distribution pixels toward
    # uniform. The affine map p -> (1-s)p + s/C preserves each pixel's
    # argmax while raising its entropy.
    speckle = _stream(cfg.seed, _STREAM_SPECKLE)
    n_indist = int((~blob_mask).sum())
    target = int(round(cfg.speckle_rate * n_indist))
    offsets = _disc_offsets(SPECKLE_DISC_RADIUS)
    n_discs = int(round(target / offsets.shape[0])) if target > 0 else 0
    if target > 0 and n_discs == 0:
        n_discs = 1
    if n_discs > 0:
        centers_r = speckle.integers(0, h, n_discs)
        centers_c = speckle.integers(0, w, n_discs)
        speckle_mask = np.zeros((h, w), dtype=bool)
        pr = (centers_r[:, None] + offsets[:, 0]).ravel()
        pc = (centers_c[:, None] + offsets[:, 1]).ravel()
        keep = (pr >= 0) & (pr < h) & (pc >= 0) & (pc < w)
        speckle_mask[pr[keep], pc[keep]] = True
        speckle_mask &= ~blob_mask
        s = cfg.speckle_strength
        prob[speckle_mask] = (1.0 - s) * prob[speckle_mask] + s / c

    # OoD pixels: mixture of a sharp wrong-class Dirichlet and a flat one.
    ood = _stream(cfg.seed, _STREAM_OOD)
    ood_r, ood_c = np.nonzero(blob_mask)
    n_ood = ood_r.size
    if n_ood:
        alpha1 = np.full((n_ood, c), cfg.base_alpha, dtype=np.float64)
        alpha1[np.arange(n_ood), wrong_class[ood_r, ood_c]] += cfg.sharpness
        d1 = ood.gamma(alpha1)
        d2_draw = ood.gamma(np.full((n_ood, c), cfg.base_alpha, dtype=np.float64))
        beta = cfg.ood_entropy_boost
        mix = (1.0 - beta) * (d1 / d1.sum(axis=1, keepdims=True)) + beta * (
            d2_draw / d2_draw.sum(axis=1, keepdims=True)
        )
        mix /= mix.sum(axis=1, keepdims=True)
        prob[ood_r, ood_c] = mix

    gt = classes.copy()
    gt[blob_mask] = OOD_ID
    return prob.astype(np.float32), gt, classes


def _scene_pair(args):
    """Boosted and plain variants of scene k; shared geometry and draws."""
    cfg, k = args
    cfg_k = replace(cfg, seed=_scene_seed(cfg.seed, k))
    prob_boosted, gt, _ = generate_scene(cfg_k)
    prob_plain, _, _ = generate_scene(replace(cfg_k, ood_entropy_boost=0.0))
    return k, gt, prob_boosted, prob_plain


def _check_jobs(jobs) -> None:
    """Worker counts must be integers >= 1; 1 runs in the calling process."""
    if isinstance(jobs, bool) or not isinstance(jobs, (int, np.integer)) or jobs < 1:
        raise DomainError(f"jobs must be an integer >= 1, got {jobs!r}")


def build_benchmark(cfg: SceneConfig, n_scenes: int = DEFAULT_N_SCENES, jobs: int = 1) -> Benchmark:
    """Generate the paired boosted/plain benchmark in memory."""
    _check_jobs(jobs)
    if n_scenes < 1:
        raise ConfigError(f"n_scenes must be >= 1, got {n_scenes!r}")
    tasks = [(cfg, k) for k in range(n_scenes)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scene_pair, tasks))
    else:
        results = [_scene_pair(t) for t in tasks]
    scenes = [BenchScene(k, gt, boosted, plain) for k, gt, boosted, plain in sorted(results)]
    return Benchmark(config=cfg, scenes=scenes)


def config_to_dict(cfg: SceneConfig) -> dict:
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = list(value) if f.name == "blob_radius_range" else value
    return out


def config_from_json(path) -> SceneConfig:
    """Build a SceneConfig from a JSON object; missing fields take defaults."""
    try:
        with open(path, "r") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    known = {f.name for f in fields(SceneConfig)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise SchemaError(f"{path}: unknown config keys {unknown}")
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
    _check_jobs(jobs)
    out_dir = Path(out_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc
    bench = build_benchmark(cfg, n_scenes, jobs=jobs)
    file_list = []
    for scene in bench.scenes:
        boosted_name, plain_name, gt_name = _scene_filenames(scene.index)
        write_npy(scene.prob_boosted, out_dir / boosted_name)
        write_npy(scene.prob_plain, out_dir / plain_name)
        write_npy(scene.gt, out_dir / gt_name)
        file_list.extend([boosted_name, plain_name, gt_name])
    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "n_scenes": n_scenes,
        "config": config_to_dict(cfg),
        "files": file_list,
    }
    manifest_path = out_dir / "manifest.json"
    try:
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {manifest_path}: {exc}") from exc
    return manifest_path


def load_benchmark(bench_dir, validate: bool = True) -> Benchmark:
    """Load a benchmark directory written by :func:`generate_benchmark`.

    A scene's maps must share one (H, W, C) shape and its gt must be (H, W)
    with ids valid for C classes (the ids only with ``validate``).
    """
    bench_dir = Path(bench_dir)
    manifest_path = bench_dir / "manifest.json"
    try:
        with open(manifest_path, "r") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot open {manifest_path}: {exc}") from exc
    try:
        manifest = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{manifest_path}: invalid JSON: {exc}") from exc
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
    cfg = SceneConfig(**config_payload)
    n_scenes = int(manifest["n_scenes"])
    expected = [name for k in range(n_scenes) for name in _scene_filenames(k)]
    if list(manifest["files"]) != expected:
        raise SchemaError(f"{manifest_path}: file list does not match the scene layout")
    scenes = []
    for k in range(n_scenes):
        boosted_path, plain_path, gt_path = (bench_dir / name for name in _scene_filenames(k))
        prob_boosted = read_npy(boosted_path, expected_rank=3, validate=validate)
        prob_plain = read_npy(plain_path, expected_rank=3, validate=validate)
        gt = read_npy(gt_path, expected_rank=2, validate=False)
        if prob_plain.shape != prob_boosted.shape:
            raise SchemaError(
                f"{plain_path}: shape {prob_plain.shape} != {boosted_path.name} shape {prob_boosted.shape}"
            )
        if gt.shape != prob_boosted.shape[:2]:
            raise SchemaError(f"{gt_path}: shape {gt.shape} != probability maps' {prob_boosted.shape[:2]}")
        if validate:
            try:
                validate_label_mask(gt, num_classes=prob_boosted.shape[2])
            except OodsegError as exc:
                raise type(exc)(f"{gt_path}: {exc}") from exc
        scenes.append(BenchScene(k, gt, prob_boosted, prob_plain))
    return Benchmark(config=cfg, scenes=scenes)
