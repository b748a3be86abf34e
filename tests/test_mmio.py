import numpy as np
import pytest

from cssp.errors import CsspError, DimensionMismatch, ParseError
from cssp.instances import hard_instance, random_gaussian
from cssp.mmio import load_matrix, save_csv, save_matrix_market


class TestMatrixMarket:
    def test_round_trip_bit_exact(self, tmp_path):
        a = random_gaussian(5, 3, 0) * np.pi
        path = tmp_path / "a.mtx"
        save_matrix_market(path, a)
        assert np.array_equal(load_matrix(path), a)

    def test_array_general(self, tmp_path):
        path = tmp_path / "i.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n% a comment\n2 2\n1\n0\n0\n1\n"
        )
        assert np.array_equal(load_matrix(path), np.eye(2))

    def test_array_column_major(self, tmp_path):
        path = tmp_path / "cm.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n")
        assert np.array_equal(load_matrix(path), [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])

    def test_array_symmetric_expansion(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real symmetric\n3 3\n1\n2\n3\n4\n5\n6\n"
        )
        expect = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        assert np.array_equal(load_matrix(path), expect)

    def test_coordinate_general(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 3 2\n1 2 5\n2 3 -1\n"
        )
        expect = np.zeros((2, 3))
        expect[0, 1] = 5.0
        expect[1, 2] = -1.0
        assert np.array_equal(load_matrix(path), expect)

    def test_coordinate_without_entries(self, tmp_path):
        path = tmp_path / "c0.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 3 0\n")
        assert np.array_equal(load_matrix(path), np.zeros((2, 3)))

    def test_coordinate_symmetric(self, tmp_path):
        path = tmp_path / "cs.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 7\n3 3 1\n"
        )
        out = load_matrix(path)
        assert out[1, 0] == 7.0 and out[0, 1] == 7.0 and out[2, 2] == 1.0

    def test_integer_field(self, tmp_path):
        path = tmp_path / "int.mtx"
        path.write_text("%%MatrixMarket matrix array integer general\n2 1\n3\n4\n")
        assert np.array_equal(load_matrix(path), [[3.0], [4.0]])

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix arrray real general\n1 1\n1\n")
        with pytest.raises(ParseError) as err:
            load_matrix(path)
        assert "arrray" in str(err.value)
        assert err.value.line == 1

    def test_bad_entry_has_position(self, tmp_path):
        path = tmp_path / "bad2.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 1\n1\nxyz\n")
        with pytest.raises(ParseError) as err:
            load_matrix(path)
        assert err.value.line == 4

    def test_array_comments_and_blank_lines_among_entries(self, tmp_path):
        path = tmp_path / "cm.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n2 2\n1 2\n% note\n\n  3\n4\n"
        )
        assert np.array_equal(load_matrix(path), [[1.0, 3.0], [2.0, 4.0]])

    def test_bad_entry_among_several_has_column(self, tmp_path):
        path = tmp_path / "bad3.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n% c\n2 2\n1 2\n3  4x\n"
        )
        with pytest.raises(ParseError) as err:
            load_matrix(path)
        assert (err.value.line, err.value.column) == (5, 4)

    def test_symmetric_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "short_sym.mtx"
        path.write_text("%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n")
        with pytest.raises(DimensionMismatch, match="expected 3 entries, found 2"):
            load_matrix(path)

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n")
        with pytest.raises(DimensionMismatch):
            load_matrix(path)

    def test_coordinate_out_of_range(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n")
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_coordinate_duplicate_rejected(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 1 3\n1 1 2.0\n"
        )
        with pytest.raises(ParseError, match=r"duplicate entry \(1, 1\), first given on line 3") as err:
            load_matrix(path)
        assert err.value.line == 5

    def test_symmetric_mirror_is_a_duplicate(self, tmp_path):
        # (1, 2) sets (2, 1) under symmetric storage
        path = tmp_path / "mirror.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 7\n1 2 8\n"
        )
        with pytest.raises(ParseError, match=r"duplicate entry \(1, 2\)") as err:
            load_matrix(path)
        assert err.value.line == 4

    def test_transposed_entry_is_not_a_duplicate_in_general_storage(self, tmp_path):
        path = tmp_path / "pair.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n2 1 7\n1 2 8\n"
        )
        assert np.array_equal(load_matrix(path), [[0.0, 8.0], [7.0, 0.0]])


_HEADER_EXPECTED = "malformed header, expected '%%MatrixMarket matrix <format> <field> <symmetry>'"

# file bytes -> (exception type, message, line, column) of the loader's error
_LOAD_ERRORS = [
    (b"", ParseError, "empty file", 1, None),
    (b"%%MatrixMarket\n", ParseError, _HEADER_EXPECTED, 1, None),
    (b"%%MatrixMarket vector array real general\n1 1\n1\n",
     ParseError, _HEADER_EXPECTED, 1, 16),
    (b"%%MatrixMarket matrix array complex general\n1 1\n1\n",
     ParseError, "unsupported field 'complex'", 1, 29),
    (b"%%MatrixMarket matrix array real hermitian\n1 1\n1\n",
     ParseError, "unsupported symmetry 'hermitian'", 1, 34),
    (b"%%MatrixMarket matrix array real general\n% only a comment\n\n",
     ParseError, "missing size line", 1, None),
    (b"%%MatrixMarket matrix array real general\n2 x\n1\n2\n",
     ParseError, "expected an integer, got 'x'", 2, 3),
    (b"%%MatrixMarket matrix array real general\n2 2 4\n",
     ParseError, "array size line must be '<rows> <cols>'", 2, None),
    (b"%%MatrixMarket matrix coordinate real general\n2 2\n",
     ParseError, "coordinate size line must be '<rows> <cols> <nnz>'", 2, None),
    (b"%%MatrixMarket matrix array real general\n0 2\n",
     ParseError, "dimensions must be positive", 2, None),
    (b"%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
     ParseError, "dimensions must be positive", 2, None),
    (b"%%MatrixMarket matrix array real symmetric\n2 3\n",
     ParseError, "symmetric storage needs a square matrix", 2, None),
    (b"%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n",
     ParseError, "symmetric storage needs a square matrix", 2, None),
    (b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n",
     ParseError, "coordinate entries are '<row> <col> <value>'", 3, None),
    (b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
     DimensionMismatch, "size line promised 2 entries, found 1", None, None),
    (b"%%MatrixMarket matrix coordinate real general\n% c\n2 2 1\n% mid\n1 y 2\n",
     ParseError, "expected an integer, got 'y'", 5, 3),
    # array columns count from the first non-blank character of the line
    (b"%%MatrixMarket matrix array real general\n2 1\n1\n   x1\n",
     ParseError, "expected a real number, got 'x1'", 4, 1),
    (b"%%MatrixMarket matrix array real general\n3 1\n1 % 2\n",
     ParseError, "expected a real number, got '%'", 3, 3),
    (b"%%MatrixMarket matrix array real general\r\n2 1\r\n1\r\nq\r\n",
     ParseError, "expected a real number, got 'q'", 4, 1),
    (b"\n  \n", ParseError, "file contains no data", 1, None),
    (b"1,2\n\n3,x\n", ParseError, "expected a real number, got 'x'", 3, 3),
    # CSV columns count from the start of the line
    (b" 1, x\n", ParseError, "expected a real number, got 'x'", 1, 5),
    # a bad token's column is its own, not that of an earlier token holding it
    (b"1e5,e5\n", ParseError, "expected a real number, got 'e5'", 1, 5),
    (b"%%MatrixMarket matrix array real general\n2 1\ninf in\n",
     ParseError, "expected a real number, got 'in'", 3, 5),
    (b"%%MatrixMarket matrix array real real\n1 1\n1\n",
     ParseError, "unsupported symmetry 'real'", 1, 34),
]


@pytest.mark.parametrize("data, exc, message, line, column", _LOAD_ERRORS)
def test_load_error_is_pinned(tmp_path, data, exc, message, line, column):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(CsspError) as err:
        load_matrix(path)
    where = "" if line is None else f" (line {line}" + (f", col {column})" if column else ")")
    assert type(err.value) is exc
    assert str(err.value) == message + where
    assert (getattr(err.value, "line", None), getattr(err.value, "column", None)) == (line, column)


class TestExtremeValues:
    def test_matrix_market_bytes(self, tmp_path):
        # column-major, 17 significant digits, signed zero and subnormals kept
        path = tmp_path / "x.mtx"
        save_matrix_market(path, np.array([[np.pi, -0.0, 1.0], [1e-320, 1e300, -2.5]]))
        assert path.read_bytes() == (
            b"%%MatrixMarket matrix array real general\n2 3\n"
            b"3.1415926535897931\n9.9998886718268301e-321\n-0\n"
            b"1.0000000000000001e+300\n1\n-2.5\n"
        )

    def test_round_trip_extremes(self, tmp_path):
        a = np.array([
            [1e300, -1e-300, 0.0],
            [-0.0, np.pi * 1e-17, 123456789.123456789],
        ])
        for writer, name in ((save_matrix_market, "x.mtx"), (save_csv, "x.csv")):
            path = tmp_path / name
            writer(path, a)
            assert np.array_equal(load_matrix(path), a)


class TestCsv:
    def test_round_trip(self, tmp_path):
        a = random_gaussian(3, 4, 2) / 7.0
        path = tmp_path / "a.csv"
        save_csv(path, a)
        assert np.array_equal(load_matrix(path), a)

    def test_transpose_recovers_hard_instance(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1,1,0\n1,0,1\n")
        assert np.array_equal(load_matrix(path, transpose=True), hard_instance(2, 1.0))

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(DimensionMismatch):
            load_matrix(path)

    def test_bad_token_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(ParseError) as err:
            load_matrix(path)
        assert err.value.line == 2
        assert err.value.column == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_matrix(path)
