"""Tests for the text file formats."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lapdiff.errors import InvalidInputError
from lapdiff.matio import (
    parse_float,
    parse_float_list,
    parse_int,
    parse_int_list,
    read_keyvalue,
    read_matrix_csv,
    read_samples_csv,
    require_readable,
    write_keyvalue,
    write_matrix_csv,
    write_samples_csv,
)


class TestMatrixCsv:
    def test_round_trip_9_digits(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-8, 8, size=(7, 5))
        path = tmp_path / "a.csv"
        write_matrix_csv(path, a)
        b = read_matrix_csv(path)
        assert b.shape == a.shape
        assert_allclose(b, a, rtol=1e-8)
        # a second write-read cycle reproduces values exactly: the printed
        # representation is a fixed point of the format
        write_matrix_csv(path, b)
        assert np.array_equal(read_matrix_csv(path), b)

    def test_no_header_in_output(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.eye(2))
        assert path.read_text() == "1,0\n0,1\n"

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "m.csv"
        a = np.array(
            [[-0.0, 1e-300, 1e300], [np.nan, np.inf, -np.inf], [123456789.123, 0.5, -2.0]]
        )
        write_matrix_csv(path, a)
        assert path.read_text() == "-0,1e-300,1e+300\nnan,inf,-inf\n123456789,0.5,-2\n"

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n3,\xff\n")
        with pytest.raises(InvalidInputError, match="not valid UTF-8"):
            read_matrix_csv(path)

    def test_bad_number_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(InvalidInputError, match="line 2"):
            read_matrix_csv(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(InvalidInputError, match="ragged"):
            read_matrix_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InvalidInputError, match="no data"):
            read_matrix_csv(path)

    def test_not_2d_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_matrix_csv(tmp_path / "x.csv", np.zeros(3))

    def test_reads_the_bits_float_reads(self, tmp_path):
        rng = np.random.default_rng(5)
        a = rng.choice([-1.0, 1.0], (40, 30)) * 10.0 ** rng.uniform(-300, 300, (40, 30))
        a[0, :4] = [-0.0, np.nan, np.inf, -np.inf]
        path = tmp_path / "a.csv"
        write_matrix_csv(path, a)
        text = path.read_text()
        expected = np.array([[float(tok) for tok in line.split(",")] for line in text.splitlines()])
        got = read_matrix_csv(path)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", ["", "# n=0 p=3\n\n"], ids=["empty", "comment-only"])
    def test_no_data_rows_without_a_warning(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="no data rows"):
                read_matrix_csv(path)

    @pytest.mark.parametrize(
        "text, lineno",
        [
            # float() takes these two tokens; numpy does not
            ("1,2\n3,1_000\n", 2),
            ("1,2\n3,１\n", 2),
            # the line count includes the header and the blank line
            ("# n=2 p=2\n\n1,2\n3,x\n", 4),
        ],
        ids=["underscore", "full-width-digit", "after-header-and-blank"],
    )
    def test_bad_number_cites_the_physical_line(self, tmp_path, text, lineno):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidInputError, match=f"bad number on line {lineno}$"):
            read_matrix_csv(path)

    def test_ragged_row_cites_line_and_widths(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n\n3,4,5\n")
        message = r"ragged row on line 3 \(3 columns, expected 2\)"
        with pytest.raises(InvalidInputError, match=message):
            read_matrix_csv(path)

    def test_whitespace_lines_and_indented_comments_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("  # note\n1, 2\n   \n3 ,4\n")
        assert read_matrix_csv(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


class TestSamplesCsv:
    def test_header_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((12, 4))
        path = tmp_path / "y.csv"
        write_samples_csv(path, y)
        first = path.read_text().splitlines()[0]
        assert first == "# n=12 p=4"
        assert_allclose(read_samples_csv(path), y, rtol=1e-8)

    def test_zero_rows_write_only_the_header(self, tmp_path):
        path = tmp_path / "y.csv"
        write_samples_csv(path, np.zeros((0, 3)))
        assert path.read_text() == "# n=0 p=3\n"

    def test_non_utf8_header_rejected(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_bytes(b"# n=1 p=2 \xff\n1,2\n")
        with pytest.raises(InvalidInputError, match="not valid UTF-8"):
            read_samples_csv(path)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("# n=3 p=2\n1,2\n3,4\n")
        with pytest.raises(InvalidInputError, match="header"):
            read_samples_csv(path)

    def test_headerless_samples_accepted(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1,2\n3,4\n")
        assert read_samples_csv(path).shape == (2, 2)


class TestKeyValue:
    def test_round_trip_types(self, tmp_path):
        path = tmp_path / "cfg"
        write_keyvalue(
            path,
            {"p": 16, "lam": 0.25, "flag": True, "ratios": (0.5, 1.0), "name": "grid"},
        )
        entries = read_keyvalue(path)
        assert parse_int(entries["p"], "p") == 16
        assert parse_float(entries["lam"], "lam") == 0.25
        assert entries["flag"] == "true"
        assert parse_float_list(entries["ratios"], "ratios") == (0.5, 1.0)
        assert entries["name"] == "grid"

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# a comment\n\nk = v  # trailing\n")
        assert read_keyvalue(path) == {"k": "v"}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("k = 1\nk = 2\n")
        with pytest.raises(InvalidInputError, match="duplicate"):
            read_keyvalue(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_bytes(b"dims = 9\n# \xff\n")
        with pytest.raises(InvalidInputError, match="not valid UTF-8"):
            read_keyvalue(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("just words\n")
        with pytest.raises(InvalidInputError, match="line 1"):
            read_keyvalue(path)

    def test_parse_errors_name_the_key(self):
        with pytest.raises(InvalidInputError, match="count"):
            parse_int("x", "count")
        with pytest.raises(InvalidInputError, match="lam"):
            parse_float("inf", "lam")
        with pytest.raises(InvalidInputError, match="dims"):
            parse_int_list("", "dims")

    def test_require_readable(self, tmp_path):
        path = tmp_path / "exists"
        path.write_text("x")
        assert require_readable(path) == path
        with pytest.raises(InvalidInputError, match="missing-file"):
            require_readable(tmp_path / "missing-file", "samples")
