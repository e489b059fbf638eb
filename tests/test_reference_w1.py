"""The seed-42 reference pipeline (ROADMAP W1) against the benchmark's stored reference.

Builds the 20-scene benchmark in memory and runs the benchmark's
``ref_eval`` pass: training table, meta fit, sweep and both pixel AuPRCs.
Every figure must equal ``bench/reference.json`` exactly, so a change in the
evaluation layer's results fails here as well as in the benchmark. The
reference file is only read.
"""

import json
import math
from pathlib import Path

import pytest

import oodseg

from conftest import SWEEP_MIN_SIZE

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())["ref_eval"]["42"]["0"]


def test_reference_pipeline_is_unchanged(bench20, meta_model, sweep_result, reference):
    # bench20, meta_model and sweep_result are the pass's benchmark, fit and sweep.
    assert oodseg.DEFAULT_CONFIG.seed == 42
    features, labels = oodseg.build_training_table(bench20, oodseg.DEFAULT_GRID, min_size=SWEEP_MIN_SIZE)
    gts = [s.gt for s in bench20.scenes]
    auprc = {
        variant: oodseg.pixel_pr_curve(
            [oodseg.entropy_map(getattr(s, f"prob_{variant}")) for s in bench20.scenes], gts
        ).auprc
        for variant in ("boosted", "plain")
    }
    assert features.shape[0] == reference["table_rows"]
    assert int(labels.sum()) == reference["table_positives"]
    assert math.fsum(features.ravel().tolist()) == reference["table_feature_sum"]
    assert meta_model.n_iter == reference["newton_iters"]
    rows = [[r.t, r.ood_training, r.meta, r.tp, r.fp, r.fn, r.miou_loss] for r in sweep_result.rows]
    assert rows == reference["sweep"]
    assert sweep_result.reference_miou == reference["reference_miou"]
    assert auprc["boosted"] == reference["auprc_boosted"]
    assert auprc["plain"] == reference["auprc_plain"]
