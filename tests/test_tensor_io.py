import csv
import io
import re
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from numpy.lib import format as npy_format

import oodseg
from oodseg import DomainError, FormatError, IoError, SchemaError, ValidationError
from oodseg.tensor_io import _write_json, read_feature_csv, read_npy, write_feature_csv, write_npy

from conftest import HUGE_NEGATIVE, empty_table, layouts, random_prob_map, traced_peak


class TestNpyRoundTrip:
    def test_prob_map_bytes_match_np_save(self, tmp_path, rng):
        """write_npy must produce the same v1.0 bytes numpy itself would, from any memory layout."""
        arrays = [("empty", np.zeros((0, 4, 3), dtype=np.float32)), ("empty", np.zeros((3, 0), dtype=np.int32))]
        for _ in range(25):
            base = random_prob_map(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(2, 7)))
            arrays.extend(layouts(base))
        for i, (layout, arr) in enumerate(arrays):
            ours = tmp_path / f"ours_{i}.npy"
            ref = tmp_path / f"ref_{i}.npy"
            write_npy(arr, ours)
            np.save(ref, np.ascontiguousarray(arr))
            assert ours.read_bytes() == ref.read_bytes(), layout

    def test_contiguous_write_is_not_copied(self, tmp_path, rng):
        arr = random_prob_map(rng, 256, 512, 19)
        _, peak = traced_peak(lambda: write_npy(arr, tmp_path / "big.npy"))
        assert peak <= 0.1 * arr.nbytes, peak / arr.nbytes

    def test_read_back_is_identical(self, tmp_path, rng):
        for i in range(25):
            kind = i % 3
            if kind == 0:
                arr = random_prob_map(rng, 5, 7, 4)
                rank = 3
            elif kind == 1:
                arr = rng.random((6, 3)).astype(np.float32)
                rank = 2
            else:
                arr = rng.integers(0, 10, size=(4, 5)).astype(np.int32)
                rank = 2
            path = tmp_path / f"t_{i}.npy"
            write_npy(arr, path)
            out = read_npy(path, expected_rank=rank)
            assert out.dtype == arr.dtype
            np.testing.assert_array_equal(out, arr)

    def test_label_mask_round_trip_with_reserved_ids(self, tmp_path):
        mask = np.array([[0, 3], [oodseg.OOD_ID, oodseg.IGNORE_ID]], dtype=np.int32)
        path = tmp_path / "mask.npy"
        write_npy(mask, path)
        np.testing.assert_array_equal(read_npy(path, expected_rank=2), mask)

    def test_write_rejects_unsupported(self, tmp_path):
        with pytest.raises(SchemaError):
            write_npy(np.zeros((2, 2), dtype=np.float64), tmp_path / "x.npy")
        with pytest.raises(SchemaError):
            write_npy(np.zeros(4, dtype=np.float32), tmp_path / "x.npy")
        with pytest.raises(SchemaError):
            write_npy(np.zeros((2, 2, 2), dtype=np.int32), tmp_path / "x.npy")


class TestNpyErrors:
    def _valid_file(self, tmp_path, arr=None):
        path = tmp_path / "valid.npy"
        if arr is None:
            arr = np.full((2, 2, 2), 0.5, dtype=np.float32)
        write_npy(arr, path)
        return path

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            read_npy(tmp_path / "nope.npy", expected_rank=3)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.npy"
        path.write_bytes(b"not an npy file at all")
        with pytest.raises(FormatError):
            read_npy(path, expected_rank=2)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v2.npy"
        with open(path, "wb") as fh:
            npy_format.write_array_header_2_0(
                fh, {"descr": "<f4", "fortran_order": False, "shape": (1, 1)}
            )
            fh.write(np.zeros(1, dtype="<f4").tobytes())
        with pytest.raises(FormatError):
            read_npy(path, expected_rank=2)

    def test_unsupported_dtype(self, tmp_path):
        path = tmp_path / "f8.npy"
        np.save(path, np.zeros((2, 2), dtype=np.float64))
        with pytest.raises(SchemaError):
            read_npy(path, expected_rank=2)

    def test_fortran_order_rejected(self, tmp_path):
        path = tmp_path / "fortran.npy"
        with open(path, "wb") as fh:
            npy_format.write_array_header_1_0(
                fh, {"descr": "<f4", "fortran_order": True, "shape": (2, 2)}
            )
            fh.write(np.zeros(4, dtype="<f4").tobytes())
        with pytest.raises(SchemaError):
            read_npy(path, expected_rank=2)

    def test_rank_mismatch(self, tmp_path):
        path = self._valid_file(tmp_path)
        with pytest.raises(SchemaError):
            read_npy(path, expected_rank=2)

    def test_truncated_payload(self, tmp_path):
        path = self._valid_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(FormatError):
            read_npy(path, expected_rank=3)

    def test_trailing_garbage(self, tmp_path):
        path = self._valid_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError):
            read_npy(path, expected_rank=3)

    def test_unsupported_expected_rank(self, tmp_path):
        with pytest.raises(SchemaError, match="^expected_rank must be 2 or 3, got 4$"):
            read_npy(self._valid_file(tmp_path), expected_rank=4)

    def test_huge_expected_rank_error_prints_its_size(self, tmp_path):
        with pytest.raises(SchemaError, match="^expected_rank must be 2 or 3, got a negative integer of 16610 bits$"):
            read_npy(self._valid_file(tmp_path), expected_rank=HUGE_NEGATIVE)

    def test_header_numpy_warns_about_is_malformed_and_the_warning_stays_inside(self, tmp_path):
        """An invalid escape in the header makes Python warn while numpy parses it; that warning escaped."""
        path = tmp_path / "escape.npy"
        header = b"{'descr': '<f4', 'fortran_order': False, 'shape': (2, 2), '\\s': 1}"
        header += b" " * (63 - 10 - len(header)) + b"\n"
        path.write_bytes(b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header + bytes(16))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: malformed header: "):
                read_npy(path, expected_rank=2)
        assert not caught, [str(w.message) for w in caught]

    def test_unparsable_header_names_the_file(self, tmp_path):
        path = tmp_path / "header.npy"
        for header in (
            b"{'descr': '<f4', 'fortran_order': False, 'shape': (2, 2), 'oops': }",
            b"{'descr': '<f4', 'fortran_order': False, 'shape': (2, 2), 'oops'",  # the dict is not closed
            b"{'descr': ',f4', 'fortran_order': False, 'shape': (2, 2), }",  # numpy cannot parse the dtype
        ):
            header += b" " * (63 - 10 - len(header)) + b"\n"
            path.write_bytes(b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header + bytes(16))
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: malformed header: "):
                read_npy(path, expected_rank=2)

    def test_rank3_must_be_float(self, tmp_path):
        path = tmp_path / "i4rank3.npy"
        with open(path, "wb") as fh:
            npy_format.write_array_header_1_0(
                fh, {"descr": "<i4", "fortran_order": False, "shape": (1, 1, 2)}
            )
            fh.write(np.zeros(2, dtype="<i4").tobytes())
        with pytest.raises(SchemaError):
            read_npy(path, expected_rank=3)


class TestValidation:
    def test_bad_sum_names_first_pixel(self, tmp_path):
        arr = np.full((2, 2, 3), 1.0 / 3.0, dtype=np.float32)
        arr[1, 0] = [0.25, 0.15, 0.10]  # sums to 0.5
        path = tmp_path / "halfsum.npy"
        write_npy(arr, path)
        with pytest.raises(ValidationError, match=r"pixel \(1, 0\)"):
            read_npy(path, expected_rank=3)
        # but loads fine when content validation is off
        out = read_npy(path, expected_rank=3, validate=False)
        np.testing.assert_array_equal(out, arr)

    def test_validation_errors_name_the_file(self, tmp_path):
        prob = np.full((2, 3, 2), 0.5, dtype=np.float32)
        prob[1, 2] = [0.7, 0.7]  # sums to 1.4
        score = np.zeros((2, 3), dtype=np.float32)
        score[1, 2] = 1.5
        for name, arr, rank in (("prob.npy", prob, 3), ("score.npy", score, 2)):
            path = tmp_path / name
            write_npy(arr, path)
            with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}: pixel \(1, 2\)"):
                read_npy(path, expected_rank=rank)

    def test_score_error_prints_a_plain_number(self):
        score = np.zeros((2, 3), dtype=np.float32)
        score[1, 2] = 5.0
        with pytest.raises(ValidationError, match=r"^pixel \(1, 2\): score 5\.0 outside \[0, 1\]$"):
            oodseg.validate_score_map(score)

    def test_label_mask_error_names_the_file(self, tmp_path):
        path = tmp_path / "labels.npy"
        write_npy(np.array([[0, 300]], dtype=np.int32), path)
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}: pixel \(0, 1\)"):
            read_npy(path, expected_rank=2)

    def test_sum_tolerance_is_1e4(self):
        arr = np.full((1, 1, 2), 0.5, dtype=np.float32)
        arr[0, 0, 0] += 9e-5  # inside tolerance
        oodseg.validate_prob_map(arr)
        arr[0, 0, 0] += 4e-4  # outside
        with pytest.raises(ValidationError):
            oodseg.validate_prob_map(arr)

    def test_out_of_range_probability(self):
        arr = np.full((1, 2, 2), 0.5, dtype=np.float32)
        arr[0, 1] = [1.5, -0.5]
        with pytest.raises(ValidationError, match=r"pixel \(0, 1\)"):
            oodseg.validate_prob_map(arr)

    def test_nan_rejected(self):
        arr = np.full((1, 1, 2), 0.5, dtype=np.float32)
        arr[0, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            oodseg.validate_prob_map(arr)
        score = np.zeros((2, 2), dtype=np.float32)
        score[0, 1] = np.nan
        with pytest.raises(ValidationError):
            oodseg.validate_score_map(score)

    # A map of several validation blocks: 40 rows of 1,000 pixels.
    @staticmethod
    def _uniform_map():
        return np.full((40, 1000, 2), 0.5, dtype=np.float32)

    def test_non_finite_wins_over_an_earlier_violation(self):
        for bad in (np.nan, np.inf, -np.inf):
            arr = self._uniform_map()
            arr[0, 0] = [1.5, -0.5]  # out of range, in the first block
            arr[2, 3] = [0.7, 0.7]  # bad sum, in the first block
            arr[37, 999, 1] = bad  # non-finite, in a late block
            with pytest.raises(ValidationError, match=r"^pixel \(37, 999\): non-finite probability$"):
                oodseg.validate_prob_map(arr)

    def test_out_of_range_wins_over_an_earlier_bad_sum(self):
        arr = self._uniform_map()
        arr[0, 5] = [0.7, 0.7]
        arr[30, 1] = [1.25, -0.25]  # sums to 1, out of range
        with pytest.raises(ValidationError, match=r"^pixel \(30, 1\): probability outside \[0, 1\]$"):
            oodseg.validate_prob_map(arr)

    @pytest.mark.parametrize("row", [0, 8, 39])
    def test_bad_sum_in_any_block_is_found(self, row):
        arr = self._uniform_map()
        arr[row, 998] = [0.4, 0.4]
        with pytest.raises(ValidationError, match=rf"^pixel \({row}, 998\): probabilities sum to 0.8, "):
            oodseg.validate_prob_map(arr)
        arr[row, 998] = [0.6, 0.4]
        oodseg.validate_prob_map(arr)

    @pytest.mark.parametrize("offset, ok", [(1e-4 - 2e-7, True), (1e-4 + 2e-7, False), (-1e-4 + 2e-7, True)])
    def test_sums_near_the_tolerance_are_judged_exactly(self, offset, ok):
        # 16 classes of 1/16 sum to 1 exactly, so the float64 sum is 1 + offset;
        # these offsets lie closer to the tolerance than float32 sums can tell.
        arr = np.full((12, 1000, 16), 1.0 / 16.0, dtype=np.float32)
        arr[11, 998, 0] = np.float32(1.0 / 16.0 + offset)
        if ok:
            oodseg.validate_prob_map(arr)
        else:
            with pytest.raises(ValidationError, match=r"^pixel \(11, 998\): probabilities sum to 1.0001, "):
                oodseg.validate_prob_map(arr)

    @pytest.mark.parametrize(
        "validate,data,error,message",
        [
            ("validate_prob_map", np.zeros((0, 4, 3), dtype=np.float32), ValidationError,
             "probability map needs H >= 1 and W >= 1, got 0x4"),
            ("validate_prob_map", np.full((2, 2, 2), 0.5), SchemaError,
             "probability map must be a rank-3 float32 array, got rank-3 float64"),
            ("validate_score_map", np.zeros((2, 2), dtype=np.int32), SchemaError,
             "score map must be a rank-2 float32 array, got rank-2 int32"),
            ("validate_label_mask", np.zeros((2, 2), dtype=np.float32), SchemaError,
             "label mask must be a rank-2 int32 array, got rank-2 float32"),
        ],
        ids=["empty-prob", "float64-prob", "int32-score", "float32-label"],
    )
    def test_shape_and_dtype_errors(self, validate, data, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            getattr(oodseg, validate)(data)

    def test_needs_two_classes(self):
        with pytest.raises(ValidationError):
            oodseg.validate_prob_map(np.ones((2, 2, 1), dtype=np.float32))

    def test_score_range(self):
        score = np.zeros((2, 2), dtype=np.float32)
        oodseg.validate_score_map(score)
        score[1, 1] = 1.25
        with pytest.raises(ValidationError, match=r"pixel \(1, 1\)"):
            oodseg.validate_score_map(score)

    def test_label_mask_range(self):
        mask = np.zeros((2, 2), dtype=np.int32)
        oodseg.validate_label_mask(mask)
        mask[0, 1] = 300
        with pytest.raises(ValidationError, match=r"pixel \(0, 1\)"):
            oodseg.validate_label_mask(mask)

    @pytest.mark.parametrize("num_classes,shown", [("x", "'x'"), (2.5, "2.5"), (0, "0"), (np.array(3), "array(3)")])
    def test_label_mask_class_count_must_be_a_count(self, num_classes, shown):
        """"x" escaped as numpy's UFuncTypeError; 2.5 and a 0-d array were compared with the ids."""
        mask = np.zeros((2, 2), dtype=np.int32)
        with pytest.raises(DomainError, match=f"^num_classes must be an integer >= 1, got {re.escape(shown)}$"):
            oodseg.validate_label_mask(mask, num_classes)

    def test_label_mask_with_num_classes(self):
        mask = np.array([[0, 4], [oodseg.OOD_ID, oodseg.IGNORE_ID]], dtype=np.int32)
        oodseg.validate_label_mask(mask, num_classes=5)
        with pytest.raises(ValidationError):
            oodseg.validate_label_mask(mask, num_classes=4)  # class 4 now invalid


def _random_table(rng, n, labeled):
    return oodseg.SegmentTable(
        ids=rng.integers(0, 1000, n).astype(np.int64),
        bboxes=rng.integers(0, 64, (n, 4)).astype(np.int64),
        features=rng.standard_normal((n, len(oodseg.FEATURE_NAMES))) * 10.0,
        labels=rng.integers(0, 2, n).astype(np.int64) if labeled else None,
    )


EDGE_FLOATS = [-0.0, 0.0, 1e-300, 1e300, -1e300, 5e-324, 0.1, 1 / 3]
EDGE_INTS = [-2**63, 2**63 - 1, 0, -1]


def _csv_writer_bytes(header, rows) -> bytes:
    """What ``csv.writer`` with LF line endings writes for a header and rows."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


class TestCsvBytes:
    """The three CSV writers write the bytes ``csv.writer`` writes, on extreme numbers."""

    @pytest.mark.parametrize("labeled", [False, True])
    def test_feature_table(self, tmp_path, labeled):
        n = len(EDGE_FLOATS)
        features = np.resize(EDGE_FLOATS, (n, len(oodseg.FEATURE_NAMES)))
        features[:, 0] = np.arange(n)  # sizes
        labels = np.resize([1, 0, -1], n).astype(np.int64)
        table = oodseg.SegmentTable(
            ids=np.resize(EDGE_INTS, n).astype(np.int64),
            bboxes=np.resize(EDGE_INTS[::-1], (n, 4)).astype(np.int64),
            features=features,
            labels=labels if labeled else None,
        )
        path = tmp_path / "t.csv"
        write_feature_csv(table, path)
        header = path.read_text().splitlines()[0].split(",")
        rows = [[*ints, *map(repr, floats), *([label] if labeled else [])]
                for ints, floats, label in zip(np.column_stack([table.ids, table.bboxes]).tolist(), features.tolist(),
                                               labels.tolist())]
        assert path.read_bytes() == _csv_writer_bytes(header, rows)

    def test_sweep_table(self, tmp_path):
        rows = [oodseg.DetectionOutcome(t, bool(k % 2), bool(k % 3), EDGE_INTS[k % 4], EDGE_INTS[(k + 1) % 4],
                                        EDGE_INTS[(k + 2) % 4], miou_loss=EDGE_FLOATS[-1 - k])
                for k, t in enumerate(EDGE_FLOATS)]
        path = tmp_path / "s.csv"
        oodseg.write_sweep_csv(oodseg.SweepResult(rows=rows, reference_miou=0.5), path)
        expected = [[repr(r.t), str(r.ood_training).lower(), str(r.meta).lower(), r.tp, r.fp, r.fn,
                     repr(r.miou_loss)] for r in rows]
        assert path.read_bytes() == _csv_writer_bytes(
            ["t", "ood_training", "meta", "tp", "fp", "fn", "miou_loss"], expected)


class TestFeatureCsv:
    @pytest.mark.parametrize("labeled", [False, True])
    def test_round_trip_exact(self, tmp_path, rng, labeled):
        table = _random_table(rng, 37, labeled)
        path = tmp_path / "t.csv"
        write_feature_csv(table, path)
        out = read_feature_csv(path)
        np.testing.assert_array_equal(out.ids, table.ids)
        np.testing.assert_array_equal(out.bboxes, table.bboxes)
        np.testing.assert_array_equal(out.features, table.features)  # repr is lossless
        if labeled:
            np.testing.assert_array_equal(out.labels, table.labels)
        else:
            assert out.labels is None

    def test_empty_table_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_feature_csv(empty_table(), path)
        assert path.read_text().count("\n") == 1  # header only
        out = read_feature_csv(path)
        assert len(out) == 0 and out.labels is None

    def test_label_outside_minus_one_to_one_names_the_line(self, tmp_path, rng):
        table = _random_table(rng, 5, labeled=True)
        table.labels[2:] = 7
        path = tmp_path / "t.csv"
        write_feature_csv(table, path)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:4: label 7 is not -1, 0 or 1$"):
            read_feature_csv(path)

    def test_header_is_canonical(self, tmp_path):
        path = tmp_path / "h.csv"
        write_feature_csv(_random_table(np.random.default_rng(0), 2, True), path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:5] == ["id", "bbox_row_min", "bbox_col_min", "bbox_row_max", "bbox_col_max"]
        assert tuple(header[5:-1]) == oodseg.FEATURE_NAMES
        assert header[-1] == "label"

    def test_unknown_column(self, tmp_path):
        path = tmp_path / "u.csv"
        write_feature_csv(_random_table(np.random.default_rng(0), 1, False), path)
        text = path.read_text().replace("mean_margin", "mean_margarine")
        path.write_text(text)
        with pytest.raises(SchemaError, match="mean_margarine"):
            read_feature_csv(path)

    def test_reordered_columns(self, tmp_path):
        path = tmp_path / "r.csv"
        write_feature_csv(_random_table(np.random.default_rng(0), 1, False), path)
        lines = path.read_text().splitlines()
        cols = lines[0].split(",")
        cols[5], cols[6] = cols[6], cols[5]
        path.write_text("\n".join([",".join(cols)] + lines[1:]) + "\n")
        with pytest.raises(SchemaError):
            read_feature_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "n.csv"
        write_feature_csv(_random_table(np.random.default_rng(0), 1, False), path)
        lines = path.read_text().splitlines()
        row = lines[1].split(",")
        row[5] = "large"
        path.write_text("\n".join([lines[0], ",".join(row)]) + "\n")
        with pytest.raises(FormatError, match=":2"):
            read_feature_csv(path)

    @pytest.mark.parametrize("column", [0, 3, -1], ids=["id", "bbox", "label"])
    def test_integer_too_large_for_int64_names_the_row(self, tmp_path, column):
        path = tmp_path / "big.csv"
        write_feature_csv(_random_table(np.random.default_rng(0), 3, True), path)
        lines = path.read_text().splitlines()
        row = lines[2].split(",")
        row[column] = "1" * 23
        path.write_text("\n".join([*lines[:2], ",".join(row), lines[3]]) + "\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:3: integer cell outside the int64 range$"):
            read_feature_csv(path)

    @pytest.mark.parametrize("size", ["nan", "inf", "-inf", "1e300"])
    def test_size_that_is_no_int64_count_names_the_row(self, tmp_path, size):
        path = tmp_path / "size.csv"
        write_feature_csv(_random_table(np.random.default_rng(0), 2, False), path)
        lines = path.read_text().splitlines()
        row = lines[2].split(",")
        row[5] = size
        path.write_text("\n".join([*lines[:2], ",".join(row)]) + "\n")
        message = f"{path}:3: size {float(size)!r} is not a finite int64 count"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            read_feature_csv(path)

    def test_field_beyond_the_csv_size_limit_names_the_line(self, tmp_path):
        """csv's own Error escaped from the reader."""
        path = tmp_path / "long.csv"
        write_feature_csv(_random_table(np.random.default_rng(0), 3, False), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines[:2], "9" * 200_000 + lines[2], lines[3]]) + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:3: field larger than field limit"):
            read_feature_csv(path)

    def test_bytes_that_are_not_text_are_a_non_numeric_cell(self, tmp_path):
        """A byte that does not decode escaped as a bare UnicodeDecodeError."""
        path = tmp_path / "bytes.csv"
        write_feature_csv(_random_table(np.random.default_rng(0), 2, False), path)
        lines = path.read_bytes().splitlines()
        path.write_bytes(b"\n".join([*lines[:2], b"\xff" + lines[2]]) + b"\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:3: non-numeric cell"):
            read_feature_csv(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "s.csv"
        write_feature_csv(_random_table(np.random.default_rng(0), 1, False), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[1].rsplit(",", 2)[0]]) + "\n")
        with pytest.raises(FormatError):
            read_feature_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            read_feature_csv(path)

    def test_line_endings_are_lf(self, tmp_path):
        path = tmp_path / "lf.csv"
        write_feature_csv(_random_table(np.random.default_rng(0), 3, True), path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_table_without_features_is_rejected_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "none.csv"
        table = oodseg.connected_components(np.eye(4, dtype=bool))
        with pytest.raises(DomainError, match="run compute_features first"):
            write_feature_csv(table, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "image, shown",
        [(np.zeros((3, 4), dtype=np.int64), "rank-2 int64"), (np.zeros((3, 4), dtype=np.float32), "rank-2 float32"),
         (np.zeros(4, dtype=np.int32), "rank-1 int32"), (np.zeros((1, 1, 3, 4), dtype=np.int32), "rank-4 int32"),
         pytest.param([[0, 1]], "rank-2 int64", id="image4-list"),
         pytest.param(np.zeros((2, 3, 4), dtype=np.int32), "rank-3 int32", id="image5-stack")],
    )
    def test_require_label_image_checks_rank_and_dtype(self, image, shown):
        table = oodseg.SegmentTable(ids=np.zeros(0, dtype=np.int64), bboxes=np.zeros((0, 4), dtype=np.int64),
                                    features=None, sizes=np.zeros(0, dtype=np.int64), label_image=image)
        message = f"segment label image must be a rank-2 int32 array, got {shown}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            table.require_label_image()

    def test_require_features(self, rng):
        with pytest.raises(DomainError, match="^segment table has no features; run compute_features first$"):
            oodseg.connected_components(np.eye(4, dtype=bool)).require_features()
        table = _random_table(rng, 5, labeled=False)
        assert table.require_features() is table.features

    @pytest.mark.parametrize("index", [0, -1, np.int64(1), True, np.array(2)])
    def test_scalar_index_is_a_type_error(self, index):
        table = oodseg.connected_components(np.eye(8, dtype=bool)[::2])
        with pytest.raises(TypeError, match=re.escape("list(table)[i] gives row i")):
            table[index]

    def test_masks_index_arrays_and_slices_select_sub_tables(self):
        table = oodseg.connected_components(np.eye(8, dtype=bool)[::2])
        for rows, ids in ((table.ids % 2 == 0, [0, 2]), (np.array([3, 1]), [3, 1]), (slice(1, 3), [1, 2])):
            sub = table[rows]
            assert [row.id for row in sub] == ids and len(sub) == len(ids)
        assert list(table[np.array([1])]) == [list(table)[1]]

    @pytest.mark.parametrize(
        "column, value",
        [("bboxes", np.zeros((2, 4), dtype=np.int64)), ("labels", np.zeros(2, dtype=np.int64)),
         ("sizes", np.zeros(4, dtype=np.int64)), ("features", np.zeros((2, len(oodseg.FEATURE_NAMES)))),
         ("features", np.zeros((3, 14))), ("bboxes", np.zeros((3, 4, 1), dtype=np.int64))],
        ids=["short-bboxes", "short-labels", "long-sizes", "short-features", "narrow-features", "rank-3-bboxes"],
    )
    def test_every_column_has_a_row_per_id(self, rng, column, value):
        # A short column would let write_feature_csv drop rows silently and
        # row selection fail with a bare IndexError.
        table = _random_table(rng, 3, labeled=True)
        expected = (3, *getattr(table, column).shape[1:])
        message = f"segment table has 3 ids but {column} of shape {value.shape}, expected {expected}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            replace(table, **{column: value})

    @pytest.mark.parametrize("column", ["ids", "bboxes", "features", "labels", "sizes", "label_image"])
    def test_a_column_cannot_be_assigned_after_construction(self, tmp_path, rng, column):
        # An assigned column would skip the row check: a 3-row table given 2 labels wrote 2 CSV rows.
        table = _random_table(rng, 3, labeled=True)
        with pytest.raises(FrozenInstanceError):
            setattr(table, column, np.array([0, 1]))
        write_feature_csv(table, tmp_path / "t.csv")
        assert len(read_feature_csv(tmp_path / "t.csv")) == 3

    def test_table_without_features_or_sizes_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="without features needs sizes"):
            oodseg.SegmentTable(np.zeros(0, dtype=np.int64), np.zeros((0, 4), dtype=np.int64), features=None)


class TestJson:
    def test_unserializable_payload_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            _write_json({"ok": 1, "bad": np.int64(3)}, path)
        assert not path.exists()
