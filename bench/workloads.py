"""The benchmark's three closed-loop workloads.

Each workload makes its inputs from the seed in ``setup``, runs one pass in
``run_pass`` (only library calls, so that the pass time is the library's
time), turns the pass's results into a plain JSON-able ``summary`` outside
the timed region, and lists what is wrong with a summary in ``invariants``.
Functions are looked up through the ``oodseg.<module>`` namespaces at call
time, so the traced run's wrappers see the benchmark's own calls too.

* ``ref_eval``         -- the reference pipeline on the 20-scene 128x128
  benchmark: many small maps; per-threshold components and features and
  ground-truth relabelling in ``match_segments`` dominate.
* ``frame_pipeline``   -- the per-frame deployment path on two synthetic
  1024x2048x19 frames read from NPY files: large maps with moderate segment
  counts; score maps and read+validate carry a large share.
* ``fragmented_frame`` -- a Dirichlet(0.3) noise map of the same shape:
  tens of thousands of tiny components; the union-find, the per-segment
  feature loop and per-segment matching carry almost all of a pass.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from oodseg import evaluate, meta, scores, segments, synth, tensor_io

BENCH_DIR = Path(__file__).resolve().parent
MODEL_PATH = BENCH_DIR / "meta_model.json"
MIN_SIZE = 10

# Captured before any traced run rebinds the name, so the output checks
# never add spans or counts of their own.
_entropy_map = scores.entropy_map


class RefEval:
    """ROADMAP W1 in memory: training table, meta fit, sweep and pixel AuPRC."""

    name = "ref_eval"
    cycle = 1  # passes per distinct input
    setup_repeats = 3  # set-ups per end-to-end run; setup_s is their median

    def setup(self, seed: int, smoke: bool, work_root: Path):
        cfg = replace(synth.DEFAULT_CONFIG, seed=seed)
        return synth.build_benchmark(cfg, 2 if smoke else synth.DEFAULT_N_SCENES)

    def teardown(self, state) -> None:
        pass

    def run_pass(self, bench, index: int):
        features, labels = evaluate.build_training_table(bench, evaluate.DEFAULT_GRID, min_size=MIN_SIZE)
        model = meta.fit_meta(features, labels)
        result = evaluate.sweep(bench, evaluate.DEFAULT_GRID, model=model, min_size=MIN_SIZE, jobs=1)
        gts = [s.gt for s in bench.scenes]
        curves = {
            variant: evaluate.pixel_pr_curve(
                [scores.entropy_map(getattr(s, f"prob_{variant}")) for s in bench.scenes], gts
            )
            for variant in ("boosted", "plain")
        }
        return features, labels, model, result, curves

    def extra(self, bench, raw):
        """The traced run's one sweep(jobs=2) call, on the last pass's model."""
        model, result = raw[2], raw[3]
        parallel = evaluate.sweep(bench, evaluate.DEFAULT_GRID, model=model, min_size=MIN_SIZE, jobs=2)
        if parallel.rows != result.rows:
            return ["sweep(jobs=2) rows differ from sweep(jobs=1)"]
        return []

    def summary(self, raw, state, index: int) -> dict:
        features, labels, model, result, curves = raw
        return {
            "table_rows": int(features.shape[0]),
            "table_positives": int(labels.sum()),
            "table_feature_sum": math.fsum(features.ravel().tolist()),
            "newton_iters": int(model.n_iter),
            "sweep": [
                [r.t, r.ood_training, r.meta, r.tp, r.fp, r.fn, r.miou_loss] for r in result.rows
            ],
            "reference_miou": result.reference_miou,
            "auprc_boosted": curves["boosted"].auprc,
            "auprc_plain": curves["plain"].auprc,
        }

    def invariants(self, s: dict, state) -> list:
        problems = []
        grid = evaluate.DEFAULT_GRID
        if not 1 <= s["table_positives"] <= s["table_rows"]:
            problems.append(f"training table: {s['table_positives']} positives of {s['table_rows']} rows")
        if not 1 <= s["newton_iters"] <= 500:
            problems.append(f"fit_meta took {s['newton_iters']} Newton iterations")
        if len(s["sweep"]) != 4 * len(grid):
            problems.append(f"sweep has {len(s['sweep'])} rows, expected {4 * len(grid)}")
            return problems
        rows = {(r[0], r[1], r[2]): r[3:] for r in s["sweep"]}
        for t in grid:
            for boosted in (False, True):
                plain = rows.get((t, boosted, False))
                filtered = rows.get((t, boosted, True))
                if plain is None or filtered is None:
                    problems.append(f"sweep row for t={t}, boosted={boosted} missing")
                    continue
                tp, fp, fn, loss = plain
                mtp, mfp, mfn, mloss = filtered
                if min(tp, fp, fn, mtp, mfp, mfn) < 0:
                    problems.append(f"t={t}, boosted={boosted}: negative count")
                if mfp > fp or mtp > tp or mfn < fn:
                    problems.append(f"t={t}, boosted={boosted}: meta filter raised FP/TP or lowered FN")
                if loss != 0.0 or mloss != 0.0:
                    problems.append(f"t={t}, boosted={boosted}: mIoU loss {loss}/{mloss}, expected 0")
        for key in ("reference_miou", "auprc_boosted", "auprc_plain"):
            if not 0.0 <= s[key] <= 1.0:
                problems.append(f"{key} = {s[key]} outside [0, 1]")
        return problems

    def corrupt(self, s: dict) -> None:
        """Give the filtered boosted variant more FPs than the unfiltered one."""
        plain = next(r for r in s["sweep"] if r[1] and not r[2])
        filtered = next(r for r in s["sweep"] if r[0] == plain[0] and r[1] and r[2])
        filtered[4] = plain[4] + 1


# The frame shape of Cityscapes; 12 large blobs give a moderate segment count.
FRAME_CONFIG = synth.SceneConfig(
    height=1024, width=2048, num_classes=19, n_regions=40, n_ood_blobs=12, blob_radius_range=(40, 110)
)
SMOKE_FRAME_CONFIG = synth.SceneConfig(
    height=128, width=256, num_classes=19, n_regions=10, n_ood_blobs=2, blob_radius_range=(8, 16)
)
FRAME_THRESHOLDS = (0.5, 0.7, 0.8)
N_FRAMES = 2


@dataclass
class FrameState:
    workdir: Path
    frames: list  # (prob path, gt path) per frame
    model: meta.MetaModel
    n_blobs: int


class FramePipeline:
    """Per-frame deployment path: read + validate, then extract, label, filter, match, write CSV."""

    name = "frame_pipeline"
    cycle = N_FRAMES
    setup_repeats = 2  # each set-up takes several seconds and peaks near 2 GB

    def setup(self, seed: int, smoke: bool, work_root: Path) -> FrameState:
        cfg = SMOKE_FRAME_CONFIG if smoke else FRAME_CONFIG
        workdir = Path(tempfile.mkdtemp(prefix="frame_", dir=work_root))
        frames = []
        for k in range(N_FRAMES):
            prob, gt, _ = synth.generate_scene(replace(cfg, seed=N_FRAMES * seed + k))
            paths = (workdir / f"frame{k}_prob.npy", workdir / f"frame{k}_gt.npy")
            tensor_io.write_npy(prob, paths[0])
            tensor_io.write_npy(gt, paths[1])
            del prob, gt  # keep one frame's generation peak, not two
            frames.append(paths)
        return FrameState(workdir, frames, meta.load_meta_model(MODEL_PATH), cfg.n_ood_blobs)

    def teardown(self, state: FrameState) -> None:
        shutil.rmtree(state.workdir, ignore_errors=True)

    def run_pass(self, state: FrameState, index: int):
        prob_path, gt_path = state.frames[index % N_FRAMES]
        prob = tensor_io.read_npy(prob_path, expected_rank=3, validate=True)
        gt = tensor_io.read_npy(gt_path, expected_rank=2, validate=True)
        out = []
        for t in FRAME_THRESHOLDS:
            segs = segments.extract_segments(prob, t, min_size=MIN_SIZE)
            labels = meta.label_segments(segs, gt)
            kept, _ = meta.apply_meta_filter(segs, state.model)
            match = evaluate.match_segments(kept, gt)
            keep = labels != -1
            table = tensor_io.SegmentTable(
                ids=np.array([s.id for s in segs], dtype=np.int64)[keep],
                bboxes=np.array([s.bbox for s in segs], dtype=np.int64).reshape(-1, 4)[keep],
                features=segments.features_matrix(segs)[keep],
                labels=labels[keep],
            )
            csv_path = state.workdir / f"segments_t{t}.csv"
            tensor_io.write_feature_csv(table, csv_path)
            out.append((t, segs, labels, kept, match, csv_path))
        return out

    def summary(self, raw, state: FrameState, index: int) -> dict:
        rows = []
        for t, segs, labels, kept, match, csv_path in raw:
            sizes = [s.size for s in segs]
            rows.append({
                "t": t,
                "segments": len(segs),
                "size_sum": sum(sizes),
                "size_min": min(sizes, default=MIN_SIZE),
                "feature_sum": math.fsum(segments.features_matrix(segs).ravel().tolist()),
                "labels": [int((labels == v).sum()) for v in (-1, 0, 1)],
                "kept": len(kept),
                "tp": match.tp,
                "fp": match.fp,
                "fn": match.fn,
                "csv_rows": int((labels != -1).sum()),
                "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
            })
        return {"frame": index % N_FRAMES, "thresholds": rows}

    def invariants(self, s: dict, state: FrameState) -> list:
        problems = []
        for r in s["thresholds"]:
            t = r["t"]
            if r["size_min"] < MIN_SIZE:
                problems.append(f"t={t}: a segment of {r['size_min']} px survived min_size={MIN_SIZE}")
            if sum(r["labels"]) != r["segments"]:
                problems.append(f"t={t}: {sum(r['labels'])} labels for {r['segments']} segments")
            if not 0 <= r["kept"] <= r["segments"]:
                problems.append(f"t={t}: meta filter kept {r['kept']} of {r['segments']} segments")
            if min(r["tp"], r["fp"], r["fn"]) < 0 or r["tp"] + r["fp"] > r["kept"]:
                problems.append(f"t={t}: tp {r['tp']} + fp {r['fp']} exceed {r['kept']} kept segments")
            if r["fn"] > state.n_blobs:
                problems.append(f"t={t}: fn {r['fn']} exceeds the {state.n_blobs} OoD blobs")
        return problems

    def corrupt(self, s: dict) -> None:
        """Claim the meta filter kept more segments than there were."""
        r = s["thresholds"][0]
        r["kept"] = r["segments"] + 1


FRAGMENTED_SHAPE = (1024, 2048, 19)
SMOKE_FRAGMENTED_SHAPE = (128, 256, 19)
FRAGMENTED_THRESHOLDS = (0.7, 0.8)
N_RECTS = 4  # one OoD rectangle per image quadrant, never touching another


@dataclass
class FragmentedState:
    prob: np.ndarray
    gt: np.ndarray
    mask_px: dict  # t -> pixels with entropy >= t, filled by the first check


class FragmentedFrame:
    """Many tiny components: extract at min_size=1 and match, on a noise map."""

    name = "fragmented_frame"
    cycle = 1
    setup_repeats = 3

    def setup(self, seed: int, smoke: bool, work_root: Path) -> FragmentedState:
        h, w, c = SMOKE_FRAGMENTED_SHAPE if smoke else FRAGMENTED_SHAPE
        rng = np.random.default_rng(seed)
        prob = rng.dirichlet(np.full(c, 0.3), size=(h, w)).astype(np.float32)
        gt = np.zeros((h, w), dtype=np.int32)
        qh, qw = h // 2, w // 2
        for k in range(N_RECTS):
            r0, c0 = (k // 2) * qh, (k % 2) * qw
            rh, rw = rng.integers(qh // 8, qh // 2), rng.integers(qw // 8, qw // 2)
            top, left = r0 + 1 + rng.integers(0, qh - rh - 1), c0 + 1 + rng.integers(0, qw - rw - 1)
            gt[top:top + rh, left:left + rw] = tensor_io.OOD_ID
        return FragmentedState(prob, gt, {})

    def teardown(self, state) -> None:
        pass

    def run_pass(self, state: FragmentedState, index: int):
        out = []
        for t in FRAGMENTED_THRESHOLDS:
            segs = segments.extract_segments(state.prob, t, min_size=1)
            out.append((t, segs, evaluate.match_segments(segs, state.gt)))
        return out

    def summary(self, raw, state: FragmentedState, index: int) -> dict:
        return {"thresholds": [
            {
                "t": t,
                "segments": len(segs),
                "size_sum": sum(s.size for s in segs),
                "feature_sum": math.fsum(segments.features_matrix(segs).ravel().tolist()),
                "tp": match.tp,
                "fp": match.fp,
                "fn": match.fn,
            }
            for t, segs, match in raw
        ]}

    def invariants(self, s: dict, state: FragmentedState) -> list:
        if not state.mask_px:
            entropy = _entropy_map(state.prob)
            state.mask_px.update({t: int((entropy >= t).sum()) for t in FRAGMENTED_THRESHOLDS})
        problems = []
        for r in s["thresholds"]:
            t = r["t"]
            if r["size_sum"] != state.mask_px[t]:
                problems.append(f"t={t}: segments cover {r['size_sum']} px, the mask has {state.mask_px[t]}")
            if min(r["tp"], r["fp"], r["fn"]) < 0 or r["tp"] + r["fp"] > r["segments"]:
                problems.append(f"t={t}: tp {r['tp']} + fp {r['fp']} exceed {r['segments']} segments")
            if r["fn"] > N_RECTS:
                problems.append(f"t={t}: fn {r['fn']} exceeds the {N_RECTS} OoD rectangles")
        return problems

    def corrupt(self, s: dict) -> None:
        """Drop one pixel from the partition of the threshold mask."""
        s["thresholds"][0]["size_sum"] -= 1


WORKLOADS = {w.name: w for w in (RefEval(), FramePipeline(), FragmentedFrame())}
