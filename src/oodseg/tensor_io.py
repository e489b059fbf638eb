"""Bit-exact file I/O for probability maps, label masks, score maps and feature tables.

Interchange formats
-------------------
Tensors travel as NPY v1.0 files (magic ``\\x93NUMPY``, version ``(1, 0)``,
header dict with ``descr`` in ``{'<f4', '<i4'}``, ``fortran_order: False``).
Three tensor kinds are supported:

* probability map -- rank 3, ``<f4``, shape (H, W, C), rows on the simplex
* score map       -- rank 2, ``<f4``, values in [0, 1]
* label mask      -- rank 2, ``<i4``, class ids plus the reserved ids below

Segment tables (:class:`SegmentTable`) travel as CSV ('.' decimal, header
row, LF line endings) with columns ``id, bbox_row_min, bbox_col_min,
bbox_row_max, bbox_col_max`` followed by the canonical feature names and an
optional trailing ``label`` column; their label image is not stored. Floats
are written with shortest round-trip repr, so a write/read cycle is lossless
well beyond 9 significant digits. JSON files (models, manifests, summaries)
are written indented with sorted keys and a trailing newline.
"""

from __future__ import annotations

import csv
import json
import os
import tokenize
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib import format as npy_format

from .errors import (DomainError, FormatError, IoError, SchemaError, ValidationError, _array, _count, _first_true,
                     _plain, _prefix)

__all__ = ["FEATURE_NAMES", "OOD_ID", "IGNORE_ID", "PROB_SUM_TOL", "SegmentTable", "read_npy", "write_npy",
           "read_feature_csv", "write_feature_csv", "validate_prob_map", "validate_score_map", "validate_label_mask"]

# Canonical feature order. Tables, serialized models and weight rankings all
# index features by position in this tuple; changing it is a format break.
FEATURE_NAMES = (
    "size",
    "interior_size",
    "boundary_size",
    "rel_interior",
    "mean_entropy",
    "mean_entropy_interior",
    "mean_entropy_boundary",
    "var_entropy",
    "mean_margin",
    "mean_maxprob_unc",
    "bbox_height_rel",
    "bbox_width_rel",
    "centroid_row_rel",
    "centroid_col_rel",
    "n_adjacent_classes_rel",
)

# Reserved label-mask ids. Class ids 0..C-1 stay free for the model's
# own semantic categories (Cityscapes-style masks).
OOD_ID = 254
IGNORE_ID = 255

# Absolute tolerance for per-pixel probability sums. float32 softmax output
# commonly deviates from 1 at the 1e-6..1e-5 level.
PROB_SUM_TOL = 1e-4

# Pixels per block of whole rows in the blocked passes over a probability
# map, so that a block and its temporaries stay in cache: an 8192 x 19
# float32 block is 608 KiB.
_BLOCK_PX = 8192

_BBOX_COLUMNS = ("bbox_row_min", "bbox_col_min", "bbox_row_max", "bbox_col_max")
_LABEL_COLUMN = "label"


def _check_prob_shape(p, kinds="f") -> np.ndarray:
    """``p`` as a rank-3 array of dtype ``kinds`` (see ``errors._array``); ValidationError for fewer than 2 classes."""
    p = _array("probability map", p, 3, kinds)
    if p.shape[2] < 2:
        raise ValidationError(f"probability map needs C >= 2 classes, got {p.shape[2]}")
    return p


def _require_finite(block: np.ndarray, r0: int) -> None:
    """Raise ValidationError naming the first non-finite pixel of a (rows, W, C) block starting at image row r0."""
    finite = np.isfinite(block)
    if not finite.all():
        r, c = _first_true(~finite.all(axis=2))
        raise ValidationError(f"pixel ({r0 + r}, {c}): non-finite probability")


def validate_prob_map(data: np.ndarray) -> None:
    """Check probability-map invariants, raising ValidationError on the first violation.

    Expects a rank-3 float32 array. Checks, in order: C >= 2 and H, W >= 1;
    every value in [0, 1]; every pixel's channel sum within ``PROB_SUM_TOL``
    of 1. Values are never clamped.
    """
    data = _check_prob_shape(data, np.float32)
    h, w, c = data.shape
    if h < 1 or w < 1:
        raise ValidationError(f"probability map needs H >= 1 and W >= 1, got {h}x{w}")
    # One pass over blocks of whole rows, screened with float32 sums (off by
    # < c * 2**-24 near 1); only a block that may fail leads to the whole-map
    # checks below, which find the first violation in check order exactly.
    step, ones = max(1, _BLOCK_PX // w), np.ones(c, dtype=np.float32)
    for r0 in range(0, h, step):
        block = data[r0:r0 + step]
        in_range = block.min() >= 0.0 and block.max() <= 1.0  # NaN and inf fail too
        if not in_range or (np.abs(block.reshape(-1, c) @ ones - 1.0) > PROB_SUM_TOL - c * 2.0**-24).any():
            break
    else:
        return
    _require_finite(data, 0)
    out_of_range = (data < 0.0) | (data > 1.0)
    if out_of_range.any():
        raise ValidationError(f"pixel {_first_true(out_of_range.any(axis=2))}: probability outside [0, 1]")
    sums = data.sum(axis=2, dtype=np.float64)
    bad = np.abs(sums - 1.0) > PROB_SUM_TOL
    if bad.any():
        at = _first_true(bad)
        raise ValidationError(f"pixel {at}: probabilities sum to {sums[at]:.6g}, expected 1 within {PROB_SUM_TOL:g}")


def validate_score_map(data: np.ndarray) -> None:
    """Check score-map invariants (rank-2 float32, every value in [0, 1])."""
    data = _array("score map", data, 2, np.float32)
    bad = ~((data >= 0.0) & (data <= 1.0))  # also catches NaN
    if bad.any():
        at = _first_true(bad)
        raise ValidationError(f"pixel {at}: score {float(data[at])!r} outside [0, 1]")


def _check_class_ids(name, ids: np.ndarray, num_classes: int, gt: np.ndarray) -> None:
    """ValidationError naming the first pixel whose ``name`` class id lies outside ``0..num_classes-1``; the pixels
    where the label mask ``gt`` holds a reserved id (``OOD_ID`` or ``IGNORE_ID``) pass."""
    bad = (ids < 0) | (ids >= num_classes)
    bad &= (gt != OOD_ID) & (gt != IGNORE_ID)
    if bad.any():
        at = _first_true(bad)
        raise ValidationError(f"pixel {at}: {name} class id {ids[at]} outside 0..{num_classes - 1}")


def validate_label_mask(data: np.ndarray, num_classes: Optional[int] = None) -> None:
    """Check label-mask invariants.

    Every value must be a class id in ``0..num_classes-1`` or one of the
    reserved ids ``OOD_ID``/``IGNORE_ID``, so ``num_classes`` is at most
    ``OOD_ID``, which is also its default: without it every id below
    ``OOD_ID`` is a class id.
    """
    data = _array("label mask", data, 2, np.int32)
    if num_classes is not None:
        _count("num_classes", num_classes, 1, hi=OOD_ID)
    _check_class_ids("label mask", data, OOD_ID if num_classes is None else num_classes, data)


def read_npy(path, expected_rank: int, validate: bool = True) -> np.ndarray:
    """Read a tensor from an NPY v1.0 file.

    ``expected_rank=3`` yields a probability map (float32); ``expected_rank=2``
    yields a score map (float32) or a label mask (int32), decided by the
    stored dtype. With ``validate=True`` content invariants are checked on
    load (probability maps: simplex rows; score maps: [0, 1] range; label
    masks: id range).

    Raises FormatError for malformed files, SchemaError for dtype/rank/order
    mismatches and ValidationError for invariant violations, each
    naming the path.
    """
    if expected_rank not in (2, 3):
        raise SchemaError(f"expected_rank must be 2 or 3, got {_plain(expected_rank)}")
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    with fh:
        try:
            version = npy_format.read_magic(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        if version != (1, 0):
            raise FormatError(f"{path}: NPY version {version} unsupported, expected (1, 0)")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy parses the header as Python, which may warn of it
                shape, fortran_order, dtype = npy_format.read_array_header_1_0(fh)
        except (ValueError, SyntaxError, Warning, tokenize.TokenError) as exc:
            raise FormatError(f"{path}: malformed header: {exc}") from exc
        if fortran_order:
            raise SchemaError(f"{path}: fortran_order arrays are not supported")
        if dtype not in (np.dtype("<f4"), np.dtype("<i4")):
            raise SchemaError(f"{path}: dtype {dtype.str!r} unsupported, expected '<f4' or '<i4'")
        if len(shape) != expected_rank:
            raise SchemaError(f"{path}: rank {len(shape)} does not match expected rank {expected_rank}")
        if expected_rank == 3 and dtype != np.dtype("<f4"):
            raise SchemaError(f"{path}: rank-3 tensors must be '<f4', got {dtype.str!r}")
        n_payload = os.fstat(fh.fileno()).st_size - fh.tell()
        n_expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if n_payload != n_expected:
            raise FormatError(f"{path}: payload holds {n_payload} bytes, header promises {n_expected}")
        data = np.empty(shape, dtype=dtype)
        if fh.readinto(data.reshape(-1).view(np.uint8)) != n_expected:
            raise FormatError(f"{path}: payload shorter than the {n_expected} bytes the header promises")
    if validate:
        with _prefix(path, (SchemaError, ValidationError)):
            if expected_rank == 3:
                validate_prob_map(data)
            elif data.dtype == np.float32:
                validate_score_map(data)
            else:
                validate_label_mask(data)
    return data


def _read_gt(path, prob_shape) -> np.ndarray:
    """The int32 (H, W) gt mask at ``path`` with ids valid for (H, W, C) maps; errors name the path."""
    gt = read_npy(path, expected_rank=2, validate=False)
    if gt.dtype != np.int32:
        raise SchemaError(f"{path}: ground truth must be an int32 label mask, got {gt.dtype}")
    if gt.shape != tuple(prob_shape[:2]):
        raise SchemaError(f"{path}: shape {gt.shape} != probability maps' {tuple(prob_shape[:2])}")
    with _prefix(path, ValidationError):
        validate_label_mask(gt, num_classes=prob_shape[2])
    return gt


def write_npy(data: np.ndarray, path) -> None:
    """Write a tensor as an NPY v1.0 file (little-endian, C order).

    The caller is responsible for content invariants; dtype and rank are
    checked here. Re-reading the file yields a bit-identical payload.
    """
    data = _array("tensor", data, (2, 3), "biuf")
    if data.ndim == 3 and data.dtype != np.float32:
        raise SchemaError(f"rank-3 tensors must be float32, got {data.dtype}")
    if data.ndim == 2 and data.dtype not in (np.float32, np.int32):
        raise SchemaError(f"rank-2 tensors must be float32 or int32, got {data.dtype}")
    descr = "<f4" if data.dtype == np.float32 else "<i4"
    out = np.ascontiguousarray(data.astype(descr, copy=False))
    try:
        with open(path, "wb") as fh:
            npy_format.write_array_header_1_0(
                fh, {"descr": descr, "fortran_order": False, "shape": out.shape}
            )
            fh.write(out.data)  # the array's own C-ordered buffer; no copy
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


class SegmentRow(NamedTuple):
    """One table row as plain Python ints."""

    id: int
    bbox: tuple  # (row_min, col_min, row_max, col_max), inclusive
    size: int


@dataclass(frozen=True)
class SegmentTable:
    """The one segment container: a row per segment plus the label image the rows come from.

    Rows hold raster-order component ``ids``, inclusive ``bboxes``, pixel
    ``sizes`` (default: the ``size`` feature), the (n, 15) ``features`` (None
    until computed) and optional meta ``labels`` (1 true, 0 false, -1 only
    ignore pixels). Each column has one row per id: ``bboxes`` (n, 4),
    ``features`` (n, 15), ``sizes`` and ``labels`` (n,); a column that does
    not raises SchemaError. Pixel value ``id + 1`` of the int32 (H, W)
    ``label_image`` marks segment ``id``; the tables of CSV files and of the
    benchmark grid have none. Iteration yields :class:`SegmentRow` tuples; a
    boolean mask, index array or slice selects a sub-table. The table is
    frozen, so every column passes the row check: ``dataclasses.replace``
    builds a changed copy.
    """

    ids: np.ndarray
    bboxes: np.ndarray
    features: Optional[np.ndarray]
    labels: Optional[np.ndarray] = None
    sizes: Optional[np.ndarray] = None
    label_image: Optional[np.ndarray] = None

    def __post_init__(self):
        n = len(self)
        for name, width in (("bboxes", (4,)), ("features", (len(FEATURE_NAMES),)), ("sizes", ()), ("labels", ())):
            shape = np.shape(getattr(self, name))
            if getattr(self, name) is not None and shape != (n, *width):
                raise SchemaError(f"segment table has {n} ids but {name} of shape {shape}, expected {(n, *width)}")
        if self.sizes is None:
            if self.features is None:
                raise SchemaError("segment table without features needs sizes")
            object.__setattr__(self, "sizes", self.features[:, 0].astype(np.int64))

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def __iter__(self):
        return map(SegmentRow, self.ids.tolist(), map(tuple, self.bboxes.tolist()), self.sizes.tolist())

    def __getitem__(self, rows) -> "SegmentTable":
        if not isinstance(rows, slice) and np.ndim(rows) == 0:
            raise TypeError("tables take a boolean mask or an index array, not a scalar; list(table)[i] gives row i")
        return SegmentTable(
            ids=self.ids[rows],
            bboxes=self.bboxes[rows],
            features=None if self.features is None else self.features[rows],
            labels=None if self.labels is None else self.labels[rows],
            sizes=self.sizes[rows],
            label_image=self.label_image,
        )

    def require_label_image(self) -> np.ndarray:
        """The 2-D label image; DomainError for a table without one (e.g. read from CSV), SchemaError for a bad one."""
        if self.label_image is None:
            raise DomainError("segment table has no label image (tables read from CSV have none)")
        return _array("segment label image", self.label_image, 2, np.int32)

    def require_features(self) -> np.ndarray:
        """The (n, 15) float64 features; DomainError for a table whose features were never computed."""
        if self.features is None:
            raise DomainError("segment table has no features; run compute_features first")
        return self.features


def _expected_header(labeled: bool) -> list[str]:
    header = ["id", *_BBOX_COLUMNS, *FEATURE_NAMES]
    if labeled:
        header.append(_LABEL_COLUMN)
    return header


def write_feature_csv(table: SegmentTable, path) -> None:
    """Write a segment table as CSV with the canonical column order; a table without features writes no file."""
    labeled = table.labels is not None
    ints = [table.ids.tolist(), *table.bboxes.T.tolist()]
    floats = [map(repr, column) for column in table.require_features().T.tolist()]
    labels = [table.labels.tolist()] if labeled else []
    _write_csv(path, _expected_header(labeled), zip(*ints, *floats, *labels))


def _csv_records(fh, path):
    """``fh``'s CSV records; one that csv refuses, such as a field beyond its size limit, is a FormatError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc


def read_feature_csv(path) -> SegmentTable:
    """Read a segment table written by :func:`write_feature_csv`.

    The header must match the canonical schema exactly (optionally with the
    trailing ``label`` column); any unknown or missing column raises
    SchemaError, a non-numeric cell raises FormatError, and an integer cell
    outside the int64 range, a ``size`` that is no finite int64 count or a
    label other than -1, 0 and 1 raises ValidationError naming the line.
    """
    try:
        fh = open(path, "r", newline="", errors="surrogateescape")  # bytes that are not text fail as cells
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = _csv_records(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file, expected a header row") from None
        if header == _expected_header(labeled=True):
            labeled = True
        elif header == _expected_header(labeled=False):
            labeled = False
        else:
            expected = _expected_header(labeled=False)
            unknown = [c for c in header if c not in expected + [_LABEL_COLUMN]]
            if unknown:
                raise SchemaError(f"{path}: unknown column {unknown[0]!r}")
            raise SchemaError(f"{path}: header does not match the canonical column order")
        ids, bboxes, feats, labels = [], [], [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}")
            try:
                ids.append(int(row[0]))
                bboxes.append([int(v) for v in row[1:5]])
                feats.append([float(v) for v in row[5:5 + len(FEATURE_NAMES)]])
                if labeled:
                    labels.append(int(row[5 + len(FEATURE_NAMES)]))
            except ValueError as exc:
                raise FormatError(f"{path}:{line_no}: non-numeric cell: {exc}") from exc
            if not all(-2**63 <= v < 2**63 for v in (ids[-1], *bboxes[-1], *labels[-1:])):
                raise ValidationError(f"{path}:{line_no}: integer cell outside the int64 range")
            if labeled and labels[-1] not in (-1, 0, 1):
                raise ValidationError(f"{path}:{line_no}: label {labels[-1]} is not -1, 0 or 1")
            if not abs(feats[-1][0]) < 2.0**63:
                raise ValidationError(f"{path}:{line_no}: size {feats[-1][0]!r} is not a finite int64 count")
    n = len(ids)
    return SegmentTable(
        ids=np.asarray(ids, dtype=np.int64).reshape(n),
        bboxes=np.asarray(bboxes, dtype=np.int64).reshape(n, 4),
        features=np.asarray(feats, dtype=np.float64).reshape(n, len(FEATURE_NAMES)),
        labels=np.asarray(labels, dtype=np.int64).reshape(n) if labeled else None,
    )


def _write_csv(path, header, rows) -> None:
    """Write a header row and ``rows`` as CSV with LF line endings; OSError becomes IoError.

    Every cell is a number or a fixed token, none of which needs quoting, so
    each line is its cells' ``str`` joined by commas: the bytes ``csv.writer``
    writes.
    """
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(map(str, row)) + "\n" for row in rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_json(payload, path) -> None:
    """Write ``payload`` as indented, key-sorted JSON plus a newline; a payload JSON cannot hold writes no file."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _read_json(path):
    """Parse a JSON file; IoError when it cannot be read, FormatError when it is not JSON."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8, an over-long integer, deep nesting
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
