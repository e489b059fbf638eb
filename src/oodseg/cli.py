"""Command-line pipeline wiring the library end to end.

Subcommands::

    oodseg score     --in prob.npy --metric entropy --out score.npy
    oodseg segments  --prob prob.npy --t 0.5 --out segments.csv [--gt gt.npy]
    oodseg fit-meta  --features segments.csv --out model.json
    oodseg eval      --bench dir --grid "0.2,0.3" [--model model.json] --out sweep.csv
    oodseg synth     --out dir [--config cfg.json --scenes N]

Every subcommand is a thin shell over library calls, so files written here
are byte-identical to what the corresponding functions produce. Exit codes:
0 success, 2 usage or validation failure, 3 I/O failure; messages go to
stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .errors import DomainError, IoError, OodsegError
from .evaluate import (
    DEFAULT_GRID,
    pixel_pr_curve,
    sweep,
    write_sweep_csv,
)
from .meta import (
    feature_weights,
    fit_meta,
    label_segments,
    load_meta_model,
    save_meta_model,
)
from .scores import entropy_map, margin_map, maxprob_map
from .segments import extract_segments
from .synth import DEFAULT_CONFIG, DEFAULT_N_SCENES, config_from_json, generate_benchmark, load_benchmark
from .tensor_io import _read_gt, _write_json, read_feature_csv, read_npy, write_feature_csv, write_npy

__all__ = ["main"]

_METRICS = {"entropy": entropy_map, "margin": margin_map, "maxprob": maxprob_map}


def _cmd_score(args) -> int:
    prob = read_npy(args.in_path, expected_rank=3)
    write_npy(_METRICS[args.metric](prob), args.out)
    return 0


def _cmd_segments(args) -> int:
    prob = read_npy(args.prob, expected_rank=3)
    gt = None if args.gt is None else _read_gt(args.gt, prob.shape)
    table = extract_segments(prob, args.t, args.min_size)
    if gt is not None:
        table = replace(table, labels=label_segments(table, gt, args.tau_tp))
        excluded = int((table.labels == -1).sum())
        if excluded:
            print(f"excluded {excluded} segment(s) lying entirely on ignore pixels", file=sys.stderr)
        table = table[table.labels != -1]
    write_feature_csv(table, args.out)
    return 0


def _cmd_fit_meta(args) -> int:
    table = read_feature_csv(args.features)
    if table.labels is None:
        raise DomainError(f"{args.features}: no label column; extract segments with --gt first")
    labeled = np.isin(table.labels, (0, 1))
    if not labeled.any():
        raise DomainError(f"{args.features}: no labeled rows to fit on")
    model = fit_meta(table.features[labeled], table.labels[labeled], l2_lambda=args.l2_lambda)
    save_meta_model(model, args.out)
    for name, weight in feature_weights(model):
        print(f"{name}\t{weight!r}")
    return 0


def _parse_grid(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise DomainError(f"malformed threshold grid {text!r}: {exc}") from exc


def _cmd_eval(args) -> int:
    benchmark = load_benchmark(args.bench)
    grid = _parse_grid(args.grid)
    model = load_meta_model(args.model) if args.model else None
    result = sweep(
        benchmark,
        grid,
        model=model,
        coverage=args.coverage,
        min_size=args.min_size,
        jobs=args.jobs,
    )
    write_sweep_csv(result, args.out)

    gts = [scene.gt for scene in benchmark.scenes]
    auprc = {
        "boosted": pixel_pr_curve([entropy_map(s.prob_boosted) for s in benchmark.scenes], gts).auprc,
        "plain": pixel_pr_curve([entropy_map(s.prob_plain) for s in benchmark.scenes], gts).auprc,
    }
    summary = {
        "auprc": auprc,
        "reference_miou": result.reference_miou,
        "meta": model is not None,
        "grid": list(grid),
        "coverage": args.coverage,
        "min_size": args.min_size,
    }
    out = str(args.out)
    summary_path = (out[: -len(".csv")] if out.endswith(".csv") else out) + ".summary.json"
    _write_json(summary, summary_path)
    return 0


def _cmd_synth(args) -> int:
    cfg = config_from_json(args.config) if args.config else DEFAULT_CONFIG
    manifest_path = generate_benchmark(cfg, args.scenes, args.out, jobs=args.jobs)
    print(manifest_path)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oodseg",
        description="Detect out-of-distribution objects in semantic-segmentation output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="compute a pixel-wise uncertainty score map of a checked probability map")
    p.add_argument("--in", dest="in_path", required=True, help="input probability map (.npy)")
    p.add_argument("--metric", choices=sorted(_METRICS), default="entropy")
    p.add_argument("--out", required=True, help="output score map (.npy)")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("segments", help="extract 8-connected candidate OoD segments with features")
    p.add_argument("--prob", required=True, help="probability map (.npy)")
    p.add_argument("--t", type=float, required=True, help="entropy threshold in [0, 1]")
    p.add_argument("--min-size", type=int, default=10, help="drop segments smaller than this")
    p.add_argument("--out", required=True, help="output feature table (.csv)")
    p.add_argument("--gt", default=None, help="ground-truth mask (.npy); adds meta-training labels")
    p.add_argument("--tau-tp", dest="tau_tp", type=float, default=0.5,
                   help="OoD-overlap ratio above which a segment is labeled true")
    p.set_defaults(func=_cmd_segments)

    p = sub.add_parser("fit-meta", help="fit the logistic meta classifier on a labeled table")
    p.add_argument("--features", required=True, help="labeled feature table (.csv)")
    p.add_argument("--lambda", dest="l2_lambda", type=float, default=1e-3, help="L2 strength")
    p.add_argument("--out", required=True, help="output model (.json)")
    p.set_defaults(func=_cmd_fit_meta)

    p = sub.add_parser("eval", help="threshold sweep + AuPRC summary over a benchmark")
    p.add_argument("--bench", required=True, help="benchmark directory (see synth)")
    p.add_argument("--grid", default=",".join(str(t) for t in DEFAULT_GRID),
                   help="comma-separated thresholds, strictly increasing")
    p.add_argument("--model", default=None, help="meta model (.json); adds the meta combinations")
    p.add_argument("--coverage", type=float, default=0.5, help="segment-matching coverage ratio")
    p.add_argument("--min-size", type=int, default=10, help="drop segments smaller than this")
    p.add_argument("--jobs", type=int, default=1, help="process scenes with N parallel workers")
    p.add_argument("--out", required=True, help="output sweep table (.csv)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate the synthetic paired benchmark")
    p.add_argument("--config", default=None, help="SceneConfig JSON; defaults when omitted")
    p.add_argument("--scenes", type=int, default=DEFAULT_N_SCENES)
    p.add_argument("--jobs", type=int, default=1, help="generate scenes with N parallel workers")
    p.add_argument("--out", required=True, help="output benchmark directory")
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OodsegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
