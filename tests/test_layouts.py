"""Layout gate: every public array function gives the bytes of C order for every memory layout of its inputs.

Each case runs once on C-ordered inputs and once with every 2-D or 3-D
array argument passed in one of ``conftest.layouts()``; a 2-D array goes
through the layouts on a trailing axis of length 1. The outputs are compared
field by field, dtype, shape and bytes.
"""

import dataclasses

import numpy as np
import pytest

import oodseg
from conftest import layouts

T = 0.5
LAYOUTS = [name for name, _ in layouts(np.zeros((1, 1, 1)))][1:]  # all but the C order itself


@pytest.fixture(scope="module")
def inputs():
    """A 40x48 scene's maps, gt and segments, and a training table of four small scenes."""
    cfg = oodseg.SceneConfig(height=40, width=48, num_classes=5, n_regions=8, n_ood_blobs=2,
                             blob_radius_range=(3.0, 6.0), seed=7)
    p, gt, _ = oodseg.generate_scene(cfg)
    maps = oodseg.score_maps(p)
    segs = oodseg.extract_segments(p, T)
    features, labels = oodseg.build_training_table(oodseg.build_benchmark(cfg, 4), oodseg.DEFAULT_GRID)
    assert len(segs) > 2 and 0 < labels.sum() < labels.size
    return dict(p=p, gt=gt, maps=maps, segs=segs, features=features, labels=labels,
                model=oodseg.fit_meta(features, labels))


def _with_image(segs, image):
    return dataclasses.replace(segs, label_image=image)


CASES = {
    "score_maps": lambda a, v: oodseg.score_maps(v(a["p"])),
    "extract_segments": lambda a, v: oodseg.extract_segments(v(a["p"]), T, min_size=3),
    "compute_features-p": lambda a, v: oodseg.compute_features(a["segs"], a["maps"].entropy, v(a["p"])),
    "compute_features-entropy": lambda a, v: oodseg.compute_features(a["segs"], v(a["maps"].entropy), a["p"]),
    "threshold_mask": lambda a, v: oodseg.threshold_mask(v(a["maps"].entropy), T),
    "connected_components": lambda a, v: oodseg.connected_components(v(a["maps"].entropy >= T)),
    "label_segments": lambda a, v: oodseg.label_segments(_with_image(a["segs"], v(a["segs"].label_image)),
                                                         v(a["gt"])),
    "match_segments": lambda a, v: oodseg.match_segments(_with_image(a["segs"], v(a["segs"].label_image)),
                                                         v(a["gt"])),
    "miou": lambda a, v: oodseg.miou(v(a["maps"].pred), v(a["gt"]), 5),
    "pixel_pr_curve": lambda a, v: oodseg.pixel_pr_curve([v(a["maps"].entropy), v(a["maps"].margin)],
                                                         [v(a["gt"]), v(a["gt"])]),
    "standardize_fit": lambda a, v: oodseg.standardize_fit(v(a["features"])),
    "fit_logistic": lambda a, v: oodseg.fit_logistic(v(oodseg.standardize_fit(a["features"])[0]), a["labels"]),
    "fit_meta": lambda a, v: oodseg.fit_meta(v(a["features"]), a["labels"]),
    "predict_proba": lambda a, v: oodseg.predict_proba(a["model"], v(a["features"])),
}


def _in_layout(a, name):
    """The 2-D or 3-D array ``a`` in layout ``name``; a 2-D array goes through a trailing axis."""
    if a.ndim == 2:
        return dict(layouts(a[..., None]))[name][..., 0]
    return dict(layouts(a))[name]


def _leaves(out):
    """The arrays and scalars of a result, in field order, each as an array."""
    if dataclasses.is_dataclass(out):
        out = [getattr(out, f.name) for f in dataclasses.fields(out)]
    if isinstance(out, (tuple, list)):
        return [leaf for item in out for leaf in _leaves(item)]
    return [] if out is None else [np.asarray(out)]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("case", list(CASES))
def test_every_layout_gives_the_bytes_of_c_order(inputs, case, layout):
    laid_out = []

    def view(a):
        laid_out.append((a, _in_layout(a, layout)))
        return laid_out[-1][1]

    want = _leaves(CASES[case](inputs, lambda a: a))
    got = _leaves(CASES[case](inputs, view))
    assert laid_out and all(np.array_equal(a, b) for a, b in laid_out)
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert (g.dtype, g.shape) == (w.dtype, w.shape), (case, k)
        assert g.tobytes() == w.tobytes(), (case, k)
