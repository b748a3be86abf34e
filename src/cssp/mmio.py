"""Matrix Market and headerless-CSV ingestion, plus Matrix Market output.

Matrix Market support covers the real array and coordinate variants with
general or symmetric storage.  Output uses 17 significant digits, enough
for a bit-exact double round trip.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .errors import DimensionMismatch, ParseError
from .linalg import as_matrix

_MM_BANNER = "%%MatrixMarket"


def _fail(msg: str, lineno: int, line: str, index: int | None = None, sep: str | None = None):
    """Raise ParseError at line lineno and, given index, at the column of the
    index-th token of line, split on sep or, when sep is None, on whitespace."""
    col = None
    if index is not None and sep is None:
        col = [m.start() for m in re.finditer(r"\S+", line)][index] + 1
    elif index is not None:
        fields = line.split(sep)
        field = fields[index]
        col = sum(len(f) + len(sep) for f in fields[:index]) + len(field) - len(field.lstrip()) + 1
    raise ParseError(msg, line=lineno, column=col)


def _parse_real(tok: str, lineno: int, line: str, index: int, sep: str | None = None) -> float:
    """tok, the index-th token of line (see :func:`_fail`), as a float."""
    try:
        return float(tok)
    except ValueError:
        _fail(f"expected a real number, got {tok!r}", lineno, line, index, sep)


def _parse_int(tok: str, lineno: int, line: str, index: int) -> int:
    try:
        return int(tok)
    except ValueError:
        _fail(f"expected an integer, got {tok!r}", lineno, line, index)


def _data_lines(lines, start: int):
    """Yield (lineno, stripped line) of lines numbered from start, skipping
    comments and blanks."""
    for lineno, raw in enumerate(lines, start):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield lineno, stripped


def _load_matrix_market(fh, first_line: str) -> np.ndarray:
    """The matrix of fh, a Matrix Market file read through first_line."""
    parts = first_line.strip().split()
    if len(parts) != 5 or parts[1].lower() != "matrix":
        _fail("malformed header, expected "
              "'%%MatrixMarket matrix <format> <field> <symmetry>'", 1, first_line,
              1 if len(parts) > 1 else None)
    fmt, field, symmetry = (p.lower() for p in parts[2:5])
    if fmt not in ("array", "coordinate"):
        _fail(f"unsupported format {fmt!r}", 1, first_line, 2)
    if field not in ("real", "integer"):
        _fail(f"unsupported field {field!r}", 1, first_line, 3)
    if symmetry not in ("general", "symmetric"):
        _fail(f"unsupported symmetry {symmetry!r}", 1, first_line, 4)

    stream = _data_lines(fh, 2)
    lineno, size_line = next(stream, (1, None))
    if size_line is None:
        raise ParseError("missing size line", line=1)
    toks = size_line.split()
    if fmt == "array" and len(toks) != 2:
        _fail("array size line must be '<rows> <cols>'", lineno, size_line)
    if fmt == "coordinate" and len(toks) != 3:
        _fail("coordinate size line must be '<rows> <cols> <nnz>'", lineno, size_line)
    dims = [_parse_int(tok, lineno, size_line, i) for i, tok in enumerate(toks)]
    n_rows, n_cols = dims[:2]
    if n_rows < 1 or n_cols < 1 or dims[-1] < 0:  # dims[-1] is nnz in coordinate files
        _fail("dimensions must be positive", lineno, size_line)
    if symmetry == "symmetric" and n_rows != n_cols:
        _fail("symmetric storage needs a square matrix", lineno, size_line)

    if fmt == "array":
        body = fh.read()  # the stream has consumed lines through the size line
        text = body
        if "%" in body:  # comment lines among the entries
            text = " ".join(line for _, line in _data_lines(body.split("\n"), lineno + 1))
        tokens = text.split()
        try:
            values = np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
        except ValueError:  # token by token, to name the bad token's position
            values = np.array([_parse_real(tok, n, line, i)
                               for n, line in _data_lines(body.split("\n"), lineno + 1)
                               for i, tok in enumerate(line.split())])
        count = n_rows * n_cols if symmetry == "general" else n_rows * (n_rows + 1) // 2
        if values.size != count:
            raise DimensionMismatch(f"expected {count} entries, found {values.size}")
        if symmetry == "general":
            return np.ascontiguousarray(values.reshape(n_cols, n_rows).T)
        out = np.zeros((n_rows, n_cols))
        # column-major lower triangle: column j holds rows j..n-1
        j, i = np.triu_indices(n_rows)
        out[i, j] = values
        out[j, i] = values
        return out

    out = np.zeros((n_rows, n_cols))
    seen = 0
    first = {}  # the line of each position's entry
    for lineno, line in stream:
        toks = line.split()
        if len(toks) != 3:
            _fail("coordinate entries are '<row> <col> <value>'", lineno, line)
        i = _parse_int(toks[0], lineno, line, 0)
        j = _parse_int(toks[1], lineno, line, 1)
        val = _parse_real(toks[2], lineno, line, 2)
        if not (1 <= i <= n_rows and 1 <= j <= n_cols):
            _fail(f"index ({i}, {j}) outside {n_rows} x {n_cols}", lineno, line, 0)
        # under symmetric storage an entry also sets its mirror
        key = (min(i, j), max(i, j)) if symmetry == "symmetric" else (i, j)
        if key in first:
            _fail(f"duplicate entry ({i}, {j}), first given on line {first[key]}", lineno, line, 0)
        first[key] = lineno
        out[i - 1, j - 1] = val
        if symmetry == "symmetric":
            out[j - 1, i - 1] = val
        seen += 1
    if seen != dims[2]:
        raise DimensionMismatch(f"size line promised {dims[2]} entries, found {seen}")
    return out


def _load_csv(lines) -> np.ndarray:
    rows = []
    width = None
    for lineno, raw in enumerate(lines, 1):
        stripped = raw.strip()
        if not stripped:
            continue
        toks = [t.strip() for t in stripped.split(",")]
        row = [_parse_real(t, lineno, raw, i, ",") for i, t in enumerate(toks)]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DimensionMismatch(
                f"row {lineno} has {len(row)} entries, expected {width}")
        rows.append(row)
    if not rows:
        raise ParseError("file contains no data", line=1)
    return np.array(rows, dtype=float)


def load_matrix(path, transpose: bool = False) -> np.ndarray:
    """Read a dense matrix from Matrix Market or headerless CSV.

    CSV rows are matrix rows; pass transpose=True for files shipped the
    other way around.  Symmetric Matrix Market inputs come back expanded
    to full storage.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise ParseError("empty file", line=1)
        if first.startswith(_MM_BANNER):
            out = _load_matrix_market(fh, first)
        else:
            out = _load_csv(itertools.chain([first], fh))
    if transpose:
        out = out.T
    return as_matrix(out)


def save_matrix_market(path, a) -> None:
    """Write a dense matrix as a real general Matrix Market array file."""
    arr = as_matrix(a)
    n_rows, n_cols = arr.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{n_rows} {n_cols}\n")
        fh.writelines(f"{x:.17g}\n" for x in arr.T.flat)  # column-major, no copy


def save_csv(path, a) -> None:
    arr = as_matrix(a)
    with open(path, "w", encoding="utf-8") as fh:
        for row in arr:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
