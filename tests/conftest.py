import tracemalloc

import numpy as np
import pytest

import oodseg

# Integers beyond the float range. A number rule must refuse them without float(), and a message shows them by
# their size: str() of the second raises ValueError.
HUGE, HUGE_NEGATIVE = 10**400, -10**5000
SHOWN = {HUGE: "an integer of 1329 bits", HUGE_NEGATIVE: "a negative integer of 16610 bits"}

# Benchmark sweeps in the tests run at the CLI's practical min-size so
# speckle discs (~13 px) survive while threshold noise is suppressed.
SWEEP_MIN_SIZE = 10


@pytest.fixture(scope="session")
def bench20():
    """The reference benchmark: 20 paired scenes from the default config."""
    return oodseg.build_benchmark(oodseg.DEFAULT_CONFIG, oodseg.DEFAULT_N_SCENES)


@pytest.fixture(scope="session")
def meta_model(bench20):
    """Meta classifier fitted on segments pooled over variants and thresholds."""
    features, labels = oodseg.build_training_table(
        bench20, oodseg.DEFAULT_GRID, min_size=SWEEP_MIN_SIZE
    )
    return oodseg.fit_meta(features, labels)


@pytest.fixture(scope="session")
def sweep_result(bench20, meta_model):
    return oodseg.sweep(bench20, oodseg.DEFAULT_GRID, model=meta_model, min_size=SWEEP_MIN_SIZE)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def random_prob_map(rng, h, w, c, dtype=np.float32):
    """Random valid probability map (rows on the simplex)."""
    raw = rng.gamma(1.0, size=(h, w, c))
    return (raw / raw.sum(axis=2, keepdims=True)).astype(dtype)


def layouts(p):
    """The same map as a C-contiguous array and as non-contiguous views of other memory orders."""
    yield "contiguous", p
    yield "transposed", np.ascontiguousarray(p.transpose(1, 0, 2)).transpose(1, 0, 2)
    yield "channel_first", np.ascontiguousarray(p.transpose(2, 0, 1)).transpose(1, 2, 0)
    yield "fortran", np.asfortranarray(p)
    yield "strided", np.repeat(p, 2, axis=1)[:, ::2]
    yield "reversed", np.flip(np.ascontiguousarray(np.flip(p, axis=(0, 1))), axis=(0, 1))


def pixel_lists(table):
    """Raster-ordered (row, col) lists of a table's rows, read off its label image."""
    image = table.label_image
    owners = {}
    for r, c in zip(*np.nonzero(image)):
        owners.setdefault(int(image[r, c]) - 1, []).append((int(r), int(c)))
    return [owners[i] for i in table.ids.tolist()]


def table_from_pixels(shape, segments):
    """A feature-less SegmentTable whose row k covers the disjoint (row, col) pairs segments[k]."""
    image = np.zeros(shape, dtype=np.int32)
    bboxes = []
    for k, pixels in enumerate(segments):
        pixels = np.asarray(pixels, dtype=np.int64).reshape(-1, 2)
        image[pixels[:, 0], pixels[:, 1]] = k + 1
        bboxes.append((*pixels.min(axis=0), *pixels.max(axis=0)))
    return oodseg.SegmentTable(
        ids=np.arange(len(segments), dtype=np.int64),
        bboxes=np.array(bboxes, dtype=np.int64).reshape(-1, 4),
        features=None,
        sizes=np.array([len(p) for p in segments], dtype=np.int64),
        label_image=image,
    )


def empty_table():
    """A featured SegmentTable of no rows and no label image."""
    return oodseg.SegmentTable(ids=np.zeros(0, dtype=np.int64), bboxes=np.zeros((0, 4), dtype=np.int64),
                               features=np.zeros((0, len(oodseg.FEATURE_NAMES))))


# Second-row ids of ``table_with_second_id`` that no label marks: 2 and 5, whose labels 3 and 6 exceed the largest
# label 2; -1, the background's; and -3, which a lookup would read from its end.
IDS_OUTSIDE = [2, 5, -1, -3]


def table_with_second_id(second_id):
    """A 6x7 table of two 5-pixel segments, 32 background pixels, whose second row has id ``second_id``."""
    table = table_from_pixels((6, 7), [[(1, c) for c in range(1, 6)], [(4, c) for c in range(1, 6)]])
    table.ids[1] = second_id
    return table


# (pixel, label) pairs ``table_with_negative_label`` writes: -1 on the background, where a lookup would read the last
# segment's row, and -2 on the second segment.
NEGATIVE_LABELS = [((2, 3), -1), ((4, 2), -2)]


def table_with_negative_label(pixel, label):
    """``table_with_second_id(1)``, whose label image holds the negative ``label`` at ``pixel``."""
    table = table_with_second_id(1)
    table.label_image[pixel] = label
    return table


def traced_peak(fn):
    """``(fn(), peak)``: what ``fn`` returns and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
