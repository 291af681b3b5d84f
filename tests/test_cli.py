"""End-to-end tests for the command line interface and CSV round trips."""

import contextlib
import errno
import functools
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npn import cli, errors, estimators
from npn.cli import load_csv, main, save_csv
from npn.errors import (
    DataError,
    EmptyFile,
    NonFiniteValue,
    NpnError,
    NumericError,
    ParseError,
    SingularScatter,
)
from npn.simulation import sample_gaussian

MI_AT_06 = 0.22314355131420976


@pytest.fixture
def corr_csv(tmp_path):
    """3000 rows from a correlation-0.6 Gaussian, saved with a header."""
    rng = np.random.default_rng(42)
    x = sample_gaussian(np.array([[1.0, 0.6], [0.6, 1.0]]), 3000, rng)
    path = tmp_path / "corr.csv"
    save_csv(x, path, header=("a", "b"))
    return path


def run_json(capsys, argv):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    return code, doc


# The line breaks of str.splitlines other than \n and \r. Like NumPy's reader,
# load_csv reads each of them as whitespace inside a cell.
_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map("{:.3g}".format),
    st.integers(-10**6, 10**6).map(str),
)
_CELLS = st.one_of(_FINITE, st.sampled_from([
    "nan", "-inf", "Infinity", "1e400", "1_000", "-0", ".5", "5.", "+1", "1e-320", "0x10", "x",
    "", "1e", "\u0661", "\ufeff1", "1\x002"]))
_PLAIN_PADS = st.sampled_from(["", "", " ", "\t", "\x1f", "\u2003"])
_PADS = st.one_of(_PLAIN_PADS, st.sampled_from(_LINE_BREAKS))
_PLAIN_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])
_ENDS = st.one_of(_PLAIN_ENDS, st.sampled_from(_LINE_BREAKS))


@st.composite
def _csv_files(draw):
    """CSV bytes: a byte order mark or a header row maybe, blank, padded or ragged rows,
    a trailing comma, every line ending, and one row or one column at times. Pads
    and line ends draw the characters of _LINE_BREAKS too, which end no row.

    Each file draws its cells, pads, line ends, rows and trailing commas
    from a plain pool or a full one, so that many files are plain but for
    one odd part."""
    cells, pads, ends = (draw(st.sampled_from(pools)) for pools in
                         ((_FINITE, _CELLS), (_PLAIN_PADS, _PADS), (_PLAIN_ENDS, _ENDS)))
    kinds = draw(st.sampled_from([("row", "row", "blank"), ("row", "row", "blank", "ragged")]))
    commas = draw(st.sampled_from([("",), ("", "", ",")]))
    cols = draw(st.integers(1, 4))
    lines = [",".join(draw(st.lists(st.sampled_from(["x", "y", "a b"]), min_size=cols,
                                    max_size=cols)))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\u3000", "\x1f"])))
            continue
        width = cols if kind == "row" else draw(st.integers(1, 5))
        row = ",".join(draw(pads) + draw(cells) + draw(pads) for _ in range(width))
        lines.append(row + draw(st.sampled_from(commas)))
    text = "".join(line + draw(ends) for line in lines)
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")


def _lines(text):
    """``text`` split at ``\\n``, ``\\r\\n`` and a lone ``\\r``, the line breaks NumPy reads."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _numpy_float(token):
    """``float`` that refuses what NumPy's reader refuses of it: ``_`` and non-ASCII digits."""
    if "_" in token or not token.isascii():
        raise ValueError(f"not a number to NumPy: {token!r}")
    return float(token)


def _python_reader(path, number=float):
    """The oracle of load_csv: the rule it documents, in Python, one ``number`` per cell.

    It decodes the whole file, splits it into lines and builds a list of
    rows. With ``float`` it also reads ``1_000`` and ``\\u0661``, which
    NumPy's grammar, and so load_csv, refuses; ``_numpy_float`` refuses them.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # The text before the bad byte decodes, and ends on the byte's row.
        row = len(_lines(exc.object[:exc.start].decode("utf-8")))
        raise ParseError(f"row {row}: byte {exc.object[exc.start]:#04x} is not UTF-8 "
                         f"({exc.reason})", row=row) from None

    def check_cells(line, lineno):
        for col, token in enumerate((t.strip() for t in line.split(",")), start=1):
            try:
                value = number(token)
            except ValueError:
                raise ParseError(f"row {lineno}, column {col}: cannot parse {token!r} as a number",
                                 row=lineno, column=col) from None
            if not math.isfinite(value):
                raise NonFiniteValue(f"row {lineno}, column {col}: non-finite value {token!r}",
                                     row=lineno, column=col)

    rows = []
    skipped_header = False
    for lineno, line in enumerate(_lines(text), start=1):
        if not line.strip():
            continue
        try:
            row = [number(t.strip()) for t in line.split(",")]
        except ValueError:
            if rows or skipped_header:
                check_cells(line, lineno)
            skipped_header = True
            continue
        # A finite row can sum past the float range; the scan then finds no bad cell.
        if not math.isfinite(sum(row)):
            check_cells(line, lineno)
        if rows and len(row) != len(rows[0]):
            raise ParseError(f"row {lineno}: expected {len(rows[0])} columns, found {len(row)}",
                             row=lineno)
        rows.append(row)
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _script(name):
    """The module of ``scripts/<name>.py``."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the thread-fed pipe that scripts/stage_peaks.py --pipe measures
_pipe = _script("stage_peaks").piped

needs_dev_fd = pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")


def _outcome(read, path):
    """The array's shape, layout and bytes, or the error's type, message, row and column."""
    try:
        m = read(path)
    except NpnError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    return m.shape, m.dtype.str, m.flags.c_contiguous, m.tobytes()


class TestLoadCsv:
    def test_plain_numeric_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        out = load_csv(path)
        np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_header_row_is_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
        assert load_csv(path).shape == (2, 2)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n\n")
        assert load_csv(path).shape == (2, 2)

    def test_nan_token_reports_location(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,nan\n")
        with pytest.raises(NonFiniteValue) as info:
            load_csv(path)
        assert info.value.row == 2
        assert info.value.column == 2

    def test_infinite_token_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("inf,2.0\n")
        with pytest.raises(NonFiniteValue):
            load_csv(path)

    def test_non_numeric_token_reports_location(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\nthree,4.0\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert info.value.row == 2
        assert info.value.column == 1

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(EmptyFile):
            load_csv(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,y\n")
        with pytest.raises(EmptyFile):
            load_csv(path)

    @pytest.mark.parametrize("header", [b"", b"x,y\n"])
    def test_byte_order_mark_is_not_a_header(self, tmp_path, header):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf" + header + b"1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(load_csv(path), [[1.0, 2.0], [3.0, 4.0]])


    @pytest.mark.parametrize(("row", "error", "column"), [
        ("1.0,nan,x", NonFiniteValue, 2),
        ("1.0,x,nan", ParseError, 2),
        ("inf,x", NonFiniteValue, 1),
    ])
    def test_cell_errors_come_in_column_order(self, tmp_path, row, error, column):
        path = tmp_path / "m.csv"
        path.write_text(f"1.0,2.0,3.0\n{row}\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert type(info.value) is error
        assert (info.value.row, info.value.column) == (2, column)

    def test_non_finite_first_row_is_data(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n1.0,nan\n2.0,3.0\n")
        with pytest.raises(NonFiniteValue) as info:
            load_csv(path)
        assert (info.value.row, info.value.column) == (2, 2)
        path.write_text("nan,1.0\n2.0,3.0\n")
        with pytest.raises(NonFiniteValue) as info:
            load_csv(path)
        assert (info.value.row, info.value.column) == (1, 1)

    def test_only_the_first_non_blank_line_may_be_a_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n\nx,y\nu,v\n1.0,2.0\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert str(info.value) == "row 4, column 1: cannot parse 'u' as a number"
        path.write_text("1.0,2.0\nx,y\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert (info.value.row, info.value.column) == (2, 1)

    def test_padded_cells_parse_and_errors_show_the_stripped_token(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\t1.0\t,\u20032.0\n\x1f3.0,4.0\x1f\n")
        np.testing.assert_array_equal(load_csv(path), [[1.0, 2.0], [3.0, 4.0]])
        path.write_text("1.0,2.0\n3.0,\x1f\u2003 x\t\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert str(info.value) == "row 2, column 2: cannot parse 'x' as a number"
        path.write_text("1.0,2.0\n \x1fnan\t,4.0\n")
        with pytest.raises(NonFiniteValue) as info:
            load_csv(path)
        assert str(info.value) == "row 2, column 1: non-finite value 'nan'"

    def test_row_summing_past_the_float_range_is_data(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1e308,1e308\n-1e308,1e308\n")
        np.testing.assert_array_equal(load_csv(path), [[1e308, 1e308], [-1e308, 1e308]])

    def test_peak_memory_stays_below_three_and_a_half_file_sizes(self, tmp_path):
        path = tmp_path / "m.csv"
        np.savetxt(path, np.random.default_rng(3).standard_normal((2000, 25)), fmt="%.17g",
                   delimiter=",")
        with_header = tmp_path / "header.csv"
        with_header.write_bytes(b"x" + b",x" * 24 + b"\n" + path.read_bytes())
        for file in (path, with_header):
            tracemalloc.start()
            try:
                load_csv(file)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3.5 * file.stat().st_size

    @pytest.mark.parametrize("text", [b"", b" \n\t\r\n\n"])
    def test_empty_file_keeps_its_message_and_lets_no_warning_out(self, tmp_path, text):
        # np.loadtxt warns on a file with no data; load_csv must not
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyFile) as info:
                load_csv(path)
        assert str(info.value) == f"{path}: no data rows"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EmptyFile):
                load_csv(path)
        assert caught == []

    @staticmethod
    def _refuse_locator(monkeypatch):
        def locator(*_):
            raise AssertionError("took the error locator")

        monkeypatch.setattr(cli, "_first_error", locator)

    def test_refusal_the_locator_cannot_name_is_not_relabelled(self, tmp_path, monkeypatch):
        # a valid file that the C reader refuses must not read as "no data rows"
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        numbers = cli._numbers

        def refuse_the_whole_file(lines, ndmin=1):
            if ndmin == 2:
                raise ValueError("refused")
            return numbers(lines, ndmin)

        monkeypatch.setattr(cli, "_numbers", refuse_the_whole_file)
        with pytest.raises(RuntimeError, match="finds no error") as info:
            load_csv(path)
        assert str(info.value.__cause__) == "refused"

    def test_plain_file_takes_the_c_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "m.csv"
        x = np.random.default_rng(6).standard_normal((40, 3))
        np.savetxt(path, x, fmt="%.17g", delimiter=",")
        self._refuse_locator(monkeypatch)
        np.testing.assert_array_equal(load_csv(path), x)

    @pytest.mark.parametrize("head, end", [
        (b"x,y,z\n", b"\n"),
        (b"\xef\xbb\xbfx,y,z\n", b"\n"),
        (b"\n \t\n\nx,y,z\n", b"\n"),
        (b"\xef\xbb\xbf\r\n\r\na b,1,\xe2\x80\xa8\r\n", b"\r\n"),
        (b"\r\rx,y,z\r", b"\r"),
    ], ids=["header", "bom", "blank-lines", "bom-blank-lines-crlf", "blank-lines-cr"])
    def test_header_file_takes_the_c_reader(self, tmp_path, monkeypatch, head, end):
        path = tmp_path / "m.csv"
        x = np.random.default_rng(7).standard_normal((40, 3))
        rows = (",".join(map(repr, row)).encode() for row in x.tolist())
        path.write_bytes(head + b"".join(row + end for row in rows))
        self._refuse_locator(monkeypatch)
        np.testing.assert_array_equal(load_csv(path), x)

    @pytest.mark.parametrize("blank", [" ", "\t", "\x1f", "\u3000"])
    def test_whitespace_lines_take_the_c_reader(self, tmp_path, monkeypatch, blank):
        # NumPy alone would read such a line as a row of one empty cell
        path = tmp_path / "m.csv"
        path.write_text(f"{blank}\nx,y\n{blank}\n1,2\n{blank}\n3,4\n{blank}", encoding="utf-8")
        self._refuse_locator(monkeypatch)
        np.testing.assert_array_equal(load_csv(path), [[1, 2], [3, 4]])

    @needs_dev_fd
    @pytest.mark.parametrize("cell", ["1_000", "\u0661"])
    def test_cell_only_float_reads_is_not_a_number(self, tmp_path, cell):
        # NumPy's grammar is the only one: in a data row the cell is a parse
        # error, and in the first line it makes a header
        text = f"1,2\n{cell},4\n".encode()
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        with _pipe(text) as piped:
            for source in (path, piped):
                with pytest.raises(ParseError) as info:
                    load_csv(source)
                assert (info.value.row, info.value.column) == (2, 1)
                assert str(info.value) == f"row 2, column 1: cannot parse {cell!r} as a number"
        path.write_bytes(f"{cell},2\n3,4\n".encode())
        np.testing.assert_array_equal(load_csv(path), [[3, 4]])

    @needs_dev_fd
    @pytest.mark.parametrize("text", [b"1,2\n3,4\n", b"a,b\n1,2\n3,4\n", b"1,2\n3,x\n"])
    def test_pipe_is_read_once(self, tmp_path, text):
        # a pipe gives its bytes to one read only: a reader that opened it
        # twice would find no rows
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        with _pipe(text) as piped:
            assert _outcome(load_csv, piped) == _outcome(load_csv, path)

    def test_line_breaks_are_newline_and_return_only(self, tmp_path):
        # every other break of str.splitlines is in _LINE_BREAKS, which the
        # tests below read as whitespace
        breaks = {chr(c) for c in range(sys.maxunicode + 1) if len(f"a{chr(c)}b".splitlines()) > 1}
        assert breaks - {"\n", "\r"} == set(_LINE_BREAKS)
        text = "1\r\n2\r3\n4" + "".join(_LINE_BREAKS) + "5"
        # the lines are 1, 2, 3 and one line 4..5, which is no number
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert str(info.value) == (
            f"row 4, column 1: cannot parse {'4' + _LINE_BREAKS + '5'!r} as a number")
        path.write_bytes(text[:-1].encode())
        np.testing.assert_array_equal(load_csv(path), [[1], [2], [3], [4]])

    @pytest.mark.parametrize("sep", list(_LINE_BREAKS))
    def test_other_splitlines_breaks_are_whitespace_in_a_cell(self, tmp_path, monkeypatch, sep):
        # the C reader reads them so, and the oracle does the same
        path = tmp_path / "m.csv"
        path.write_text(f"1,2{sep},3\n4,5,{sep}6{sep}\n", encoding="utf-8")
        np.testing.assert_array_equal(_python_reader(path), [[1, 2, 3], [4, 5, 6]])
        self._refuse_locator(monkeypatch)
        np.testing.assert_array_equal(load_csv(path), [[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize("sep", list(_LINE_BREAKS))
    def test_both_readers_agree_on_other_splitlines_breaks_anywhere(self, tmp_path, sep):
        # as a pad, inside a token, at the end of a header or a row, alone
        # on a line and at the end of the file, in both outcomes
        path = tmp_path / "m.csv"
        for text in (f"1,{sep}2\n", f"{sep}1,2{sep}3\n", f"1,2{sep}3,4\n5,6,7\n",
                     f"x,y{sep}\n1,2\n", f"1,2\n3,4{sep}5\n", f"{sep}\n{sep}\n1,2\n",
                     f"{sep}", f"1,2\n3,nan{sep}", f"\ufeffx{sep}\r\n{sep}1,2\r"):
            path.write_text(text, encoding="utf-8")
            assert _outcome(load_csv, path) == _outcome(_python_reader, path), text

    def test_peak_memory_stays_near_the_result_at_20000_by_25(self, tmp_path):
        # the C reader holds the result and no copy of the file's text
        path = tmp_path / "m.csv"
        np.savetxt(path, np.random.default_rng(8).standard_normal((20_000, 25)), fmt="%.17g",
                   delimiter=",")
        with_header = tmp_path / "header.csv"
        with_header.write_bytes(b"x" + b",x" * 24 + b"\n" + path.read_bytes())
        data = path.read_bytes()
        # only the piped input needs /dev/fd
        for source in (path, with_header, *([_pipe] if Path("/dev/fd").is_dir() else [])):
            # a piped input is copied to a temporary file, not held
            with source(data) if source is _pipe else contextlib.nullcontext(source) as file:
                tracemalloc.start()
                try:
                    m = load_csv(file)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert m.shape == (20_000, 25)
            assert peak < 1.5 * m.nbytes

    @pytest.mark.parametrize(
        "text, row",
        [(b"1,2\n3,4\xff\n", 2), (b"\xef\xbb\xbf\xff1,2\n", 1), (b"1\r\n2\x0b\xc3(\n", 2),
         (b"a,b\n1,2\n\n3,\xe2\x80\n", 4), (b"a,\xff\n1,2\n", 1), (b"\n\r\na\xffb,c\n1,2\n", 3),
         (b"1,2\r3,4\x0c\xff\n", 2), (b"1,2\x0c5,\xff\n3,4\n", 1), (b"1,2\n3,x\n5,\xff\n", 3)],
    )
    def test_byte_that_is_not_utf8_is_a_parse_error_with_its_row(self, tmp_path, text, row):
        # wherever the byte is, it comes before any other error: the input is not text
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert info.value.row == row and info.value.column is None
        assert str(info.value).startswith(f"row {row}: byte 0x")

    @pytest.mark.parametrize("fault", ["nan", "word", "ragged", "bad-byte", "bad-byte-after-nan"])
    @pytest.mark.parametrize("at", [1, 3, cli._LOCATOR_LINES, cli._LOCATOR_LINES + 1,
                                    cli._LOCATOR_LINES + 2, 3 * cli._LOCATOR_LINES + 2])
    def test_locator_blocks_name_the_error_the_oracle_names(self, tmp_path, fault, at):
        # the locator reads a block of lines per C reader call: a fault on
        # either side of a block's edge, after a header and a blank line, and a
        # bad byte in a later block than a cell error
        lines = [b"x,y,z", b""] + [b"%d,%d,%d" % (i, i + 1, i + 2)
                                   for i in range(3 * cli._LOCATOR_LINES + 2)]
        faults = {"nan": b"1,nan,3", "word": b"1,2,x", "ragged": b"1,2", "bad-byte": b"1,\xff,3",
                  "bad-byte-after-nan": b"1,nan,3"}
        lines[at - 1] = faults[fault]
        if fault == "bad-byte-after-nan":
            lines[-1] = b"\xff"
        path = tmp_path / "m.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        oracle = functools.partial(_python_reader, number=_numpy_float)
        assert _outcome(load_csv, path) == _outcome(oracle, path)

    def test_late_error_in_a_large_file(self, tmp_path):
        # the benchmark's 20,000 x 25 shape with a row of nan appended
        path = tmp_path / "m.csv"
        x = np.random.default_rng(0).standard_normal((20_000, 25))
        np.savetxt(path, x, fmt="%.17g", delimiter=",")
        with path.open("a") as f:
            f.write(",".join(["nan"] * 25) + "\n")
        with pytest.raises(NonFiniteValue) as info:
            load_csv(path)
        assert (info.value.row, info.value.column) == (20_001, 1)
        assert str(info.value) == "row 20001, column 1: non-finite value 'nan'"

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_both_readers_agree(self, tmp_path_factory, data):
        # they differ only on a file with a cell that float alone reads, where
        # load_csv meets the oracle given NumPy's grammar
        path = tmp_path_factory.mktemp("agree") / "m.csv"
        text = data.draw(_csv_files())
        path.write_bytes(text)
        float_only = any(cell.encode() in text for cell in ("1_000", "\u0661"))
        oracle = functools.partial(_python_reader, number=_numpy_float if float_only else float)
        assert _outcome(load_csv, path) == _outcome(oracle, path)


class TestSaveCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        x = np.array(
            [
                [0.1, 1.0 / 3.0, 1e-300],
                [-5.0, 12345678.90123456789, 2.0**-1074],
            ]
        )
        path = tmp_path / "m.csv"
        save_csv(x, path)
        np.testing.assert_array_equal(load_csv(path), x)

    def test_header_written_once(self, tmp_path):
        path = tmp_path / "m.csv"
        save_csv(np.array([[1.5, 2.5]]), path, header=("u", "v"))
        assert path.read_text() == "u,v\n1.5,2.5\n"


class TestEstimateCommand:
    def test_estimates_land_near_truth(self, corr_csv, capsys):
        code, doc = run_json(
            capsys,
            [
                "estimate",
                "--input",
                str(corr_csv),
                "--estimators",
                "rho,tau,gauss,gaussian",
            ],
        )
        assert code == 0
        assert doc["errors"] == []
        values = {e["estimator"]: e["value"] for e in doc["estimates"]}
        assert set(values) == {"rho", "tau", "gauss", "gaussian"}
        for value in values.values():
            assert value == pytest.approx(MI_AT_06, abs=0.05)

    @needs_dev_fd
    def test_input_from_a_pipe(self, corr_csv, capsys):
        argv = ["estimate", "--estimators", "rho,gaussian", "--entropy", "--input"]
        _, want = run_json(capsys, [*argv, str(corr_csv)])
        # the file is larger than a pipe's buffer
        with _pipe(corr_csv.read_bytes()) as piped:
            code, doc = run_json(capsys, [*argv, piped])
        assert code == 0
        assert (doc["estimates"], doc["entropy"]) == (want["estimates"], want["entropy"])

    def test_entropy_flag_appends_value(self, corr_csv, capsys):
        code, doc = run_json(
            capsys,
            ["estimate", "--input", str(corr_csv), "--estimators", "rho", "--entropy"],
        )
        assert code == 0
        # log(2 pi e) + log(1 - 0.36)/2 = 2.6147...
        assert doc["entropy"] == pytest.approx(2.6147335150951357, abs=0.1)

    def test_rank_estimator_diagnostics_present(self, corr_csv, capsys):
        _, doc = run_json(
            capsys, ["estimate", "--input", str(corr_csv), "--estimators", "rho"]
        )
        entry = doc["estimates"][0]
        assert entry["clamped"] == 0
        assert 0.0 < entry["lambda_min"] <= 1.0

    def test_csv_document_layout(self, corr_csv, capsys):
        code = main(
            ["estimate", "--input", str(corr_csv), "--estimators", "rho", "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# version: 0.1.0"
        assert lines[1] == "# command: estimate"
        assert lines[2].startswith("# config: ")
        assert lines[3] == "estimator,value,lambda_min,clamped,diag_second_moment,error"
        assert lines[4].startswith("rho,")

    def test_singular_scatter_sets_numeric_exit(self, tmp_path, capsys):
        # four columns but only three rows: the plugin cannot form a
        # nonsingular scatter, the rank estimators still can
        path = tmp_path / "wide.csv"
        rng = np.random.default_rng(1)
        save_csv(rng.standard_normal((3, 4)), path)
        code, doc = run_json(
            capsys,
            ["estimate", "--input", str(path), "--estimators", "gaussian,rho"],
        )
        assert code == 3
        assert doc["errors"][0]["estimator"] == "gaussian"
        assert doc["errors"][0]["error"] == "SingularScatter"
        assert [e["estimator"] for e in doc["estimates"]] == ["rho"]

    def test_constant_column_fails_gauss_with_numeric_exit(self, tmp_path, capsys):
        path = tmp_path / "constant.csv"
        x = np.random.default_rng(0).standard_normal((200, 3))
        x[:, 2] = 1.0
        save_csv(x, path)
        code, doc = run_json(
            capsys,
            ["estimate", "--input", str(path), "--estimators", "gauss,tau"],
        )
        assert code == 3
        assert doc["errors"] == [{"estimator": "gauss", "error": "DegenerateColumn",
                                  "message": "column 2 has constant ranks"}]
        assert [e["estimator"] for e in doc["estimates"]] == ["tau"]

    def test_overflowing_plugin_sets_numeric_exit(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        save_csv(np.random.default_rng(1).standard_normal((50, 3)) * 1e160, path)
        code, doc = run_json(
            capsys,
            ["estimate", "--input", str(path), "--estimators", "gaussian,rho"],
        )
        assert code == 3
        assert doc["errors"][0]["error"] == "SingularScatter"
        assert [e["estimator"] for e in doc["estimates"]] == ["rho"]

    def test_one_row_is_a_sample_shortfall(self, tmp_path, capsys):
        # a usage error (exit 1) would blame the command line for the data
        path = tmp_path / "one-row.csv"
        path.write_text("1.0,2.0,3.0\n")
        names = [kind.value for kind in estimators.EstimatorKind]
        code, doc = run_json(capsys, ["estimate", "--input", str(path), "--estimators", ",".join(names)])
        assert code == 3
        assert doc["estimates"] == []
        assert [(e["estimator"], e["error"]) for e in doc["errors"]] == [
            (name, "InsufficientSamples") for name in names
        ]

    def test_output_is_reproducible(self, corr_csv, capsys):
        argv = ["estimate", "--input", str(corr_csv), "--estimators", "rho,tau"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_out_flag_writes_file(self, corr_csv, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = main(
            ["estimate", "--input", str(corr_csv), "--estimators", "rho", "--out", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "estimate"

    def test_tie_policy_changes_tied_data(self, tmp_path, capsys):
        path = tmp_path / "tied.csv"
        save_csv(np.array([[1.0, 4.0], [1.0, 2.0], [2.0, 2.0], [3.0, 1.0]]), path)
        _, literal = run_json(
            capsys, ["estimate", "--input", str(path), "--estimators", "rho"]
        )
        _, midrank = run_json(
            capsys,
            ["estimate", "--input", str(path), "--estimators", "rho", "--ties", "midrank"],
        )
        assert literal["estimates"][0]["value"] != midrank["estimates"][0]["value"]

    @pytest.mark.parametrize(("ties", "spearman_calls"), [("literal", 1), ("midrank", 2)])
    def test_entropy_reuses_a_matching_rho(self, corr_csv, capsys, monkeypatch, ties, spearman_calls):
        # entropy_npn's rho is at literal ties; a midrank rho is computed again
        calls = []
        real = estimators._spearman_stack

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, "_spearman_stack", counted)
        argv = ["estimate", "--input", str(corr_csv), "--entropy", "--ties", ties]
        _, with_rho = run_json(capsys, argv + ["--estimators", "rho"])
        assert len(calls) == spearman_calls
        _, without = run_json(capsys, argv + ["--estimators", "gauss"])
        assert with_rho["entropy"] == without["entropy"]

    def test_failed_rho_keeps_entropy_error(self, corr_csv, capsys):
        _, doc = run_json(
            capsys,
            ["estimate", "--input", str(corr_csv), "--estimators", "rho", "--entropy", "--z", "0"],
        )
        message = "rho/tau estimators require a positive z"
        assert doc["errors"] == [
            {"estimator": name, "error": "DomainError", "message": message}
            for name in ("rho", "entropy")
        ]

    def test_k_reaches_knn_only(self, corr_csv, capsys):
        code, doc = run_json(
            capsys,
            ["estimate", "--input", str(corr_csv), "--estimators", "rho,knn", "--k", "0"],
        )
        assert code == 1
        assert [e["estimator"] for e in doc["estimates"]] == ["rho"]
        assert doc["errors"] == [
            {"estimator": "knn", "error": "DomainError",
             "message": "neighbor count k must be >= 1, got 0"}
        ]

    def test_config_line_at_defaults(self, corr_csv, capsys):
        assert main(["estimate", "--input", str(corr_csv), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[2] == (
            f"# config: input={corr_csv}; estimators=rho; z=0.001; k=2; ties=literal; "
            "entropy=False; format=csv"
        )

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["estimate", "--input", str(tmp_path / "absent.csv")]) == 2

    def test_nan_in_file_is_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nnan,0.5\n")
        assert main(["estimate", "--input", str(path)]) == 2

    def test_file_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n3,4\xff\n")
        assert main(["estimate", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "data error: row 2: byte 0xff is not UTF-8 (invalid start byte)\n"

    @needs_dev_fd
    def test_pipe_that_cannot_be_copied_is_data_error(self, capsys, monkeypatch):
        def no_space(*_, **__):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(tempfile, "TemporaryFile", no_space)
        with _pipe(b"1,2\n3,4\n") as piped:
            assert main(["estimate", "--input", piped]) == 2
        assert capsys.readouterr().err == "data error: [Errno 28] No space left on device\n"

    def test_unknown_estimator_is_usage_error(self, corr_csv):
        assert main(["estimate", "--input", str(corr_csv), "--estimators", "pearson"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert main(["estimate"]) == 1

    def test_one_column_rank_estimates_are_positive_zero(self, tmp_path, capsys):
        # the log-determinant of the 1 x 1 latent matrix is +0.0, and -0.5 * 0.0
        # printed rho,-0.0 and tau,-0.0 beside the plug-in's 0.0
        path = tmp_path / "one.csv"
        path.write_text("1.5\n0.2\n3.1\n-0.7\n2.2\n")
        argv = ["estimate", "--input", str(path), "--estimators", "gaussian,rho,tau"]
        assert main(argv + ["--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[4:]
        assert [row.split(",")[:2] for row in rows] == [
            ["gaussian", "0.0"], ["rho", "0.0"], ["tau", "0.0"]
        ]

    def test_infinite_estimate_is_spelled_inf(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("1.0,2.0\n1.0,2.0\n1.0,2.0\n")
        argv = ["estimate", "--input", str(path), "--estimators", "knn"]
        assert main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[4] == "knn,inf,,,,"
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert doc["estimates"][0]["value"] == "inf"


class TestSimulateCommand:
    def test_summary_table_layout(self, tmp_path):
        target = tmp_path / "e1.csv"
        code = main(
            [
                "simulate",
                "--experiment",
                "1",
                "--trials",
                "2",
                "--d",
                "4",
                "--n-grid",
                "48,96",
                "--estimators",
                "rho",
                "--out",
                str(target),
            ]
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[3] == (
            "experiment,sweep_param,sweep_value,estimator,mse,stderr,finite_fraction,trials"
        )
        rows = [line.split(",") for line in lines[4:]]
        assert len(rows) == 2
        assert [r[0] for r in rows] == ["1", "1"]
        assert [r[1] for r in rows] == ["n", "n"]
        assert [r[2] for r in rows] == ["48.0", "96.0"]
        assert all(r[7] == "2" for r in rows)

    def test_row_count_is_grid_times_estimators(self, tmp_path):
        target = tmp_path / "e4.csv"
        main(
            [
                "simulate",
                "--experiment",
                "4",
                "--trials",
                "2",
                "--sigma-grid",
                "0.0,0.9",
                "--estimators",
                "rho,gauss,knn",
                "--out",
                str(target),
            ]
        )
        lines = target.read_text().splitlines()
        assert len(lines) == 4 + 2 * 3
        assert {line.split(",")[1] for line in lines[4:]} == {"sigma"}

    def test_reruns_are_byte_identical(self, tmp_path):
        argv = [
            "simulate",
            "--experiment",
            "2",
            "--trials",
            "3",
            "--n",
            "40",
            "--d",
            "3",
            "--alpha-grid",
            "0.0,1.0",
            "--estimators",
            "rho,gaussian",
            "--seed",
            "7",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_starved_neighborhood_goes_infinite(self, tmp_path):
        # 30 atoms per column against k = 2 makes every trial infinite, so
        # the mse field is empty and finite_fraction is zero
        target = tmp_path / "e3.csv"
        code = main(
            [
                "simulate",
                "--experiment",
                "3",
                "--trials",
                "2",
                "--beta-grid",
                "0.3",
                "--estimators",
                "knn",
                "--k",
                "2",
                "--out",
                str(target),
            ]
        )
        assert code == 0
        row = target.read_text().splitlines()[4].split(",")
        assert row[3] == "knn"
        assert row[4] == ""
        assert row[5] == ""
        assert row[6] == "0.0"

    def test_json_document(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "simulate",
                "--experiment",
                "4",
                "--trials",
                "2",
                "--sigma-grid",
                "0.6",
                "--estimators",
                "rho",
                "--format",
                "json",
            ],
        )
        assert code == 0
        assert doc["summaries"][0]["estimator"] == "rho"
        assert doc["summaries"][0]["finite_fraction"] == 1.0

    def test_config_line_names_the_tie_policy(self, tmp_path):
        # experiment 3's +-5 atoms make the tie policy change gauss and rho
        argv = ["simulate", "--experiment", "3", "--trials", "1", "--n", "40", "--d", "3",
                "--beta-grid", "0.2", "--estimators", "rho"]
        lines = {}
        for ties in ("literal", "midrank"):
            target = tmp_path / f"{ties}.csv"
            assert main(argv + ["--ties", ties, "--out", str(target)]) == 0
            lines[ties] = target.read_text().splitlines()[2]
        assert "ties=literal" in lines["literal"]
        assert "ties=midrank" in lines["midrank"]

    @pytest.mark.parametrize(("experiment", "k"), [(1, 2), (2, 2), (3, 20), (4, 2)])
    def test_config_line_at_defaults(self, capsys, monkeypatch, experiment, k):
        # The echo is the resolved spec: experiment 4 runs at D = 2.
        d, grid = {
            1: (25, "32.0,64.0,128.0,256.0,512.0,1024.0"),
            2: (25, "0.0,0.25,0.5,0.75,1.0"),
            3: (25, "0.0,0.1,0.2,0.3"),
            4: (2, "0.0,0.3,0.6,0.9,0.99,0.999"),
        }[experiment]
        specs = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or [])
        assert main(["simulate", "--experiment", str(experiment)]) == 0
        assert capsys.readouterr().out.splitlines()[2] == (
            f"# config: experiment={experiment}; trials=200; n=100; d={d}; grid={grid}; "
            "estimators=gaussian,gauss,rho,tau,knn; transform=exp; z=0.001; "
            f"k={k}; ties=literal; seed=0; format=csv"
        )
        assert [c.k for c in specs[0].estimators] == [2, 2, 2, 2, k]

    def test_json_config_object_at_defaults(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", lambda spec: [])
        code, doc = run_json(capsys, ["simulate", "--experiment", "3", "--format", "json"])
        assert code == 0
        assert list(doc["config"].items()) == [
            ("experiment", 3), ("trials", 200), ("n", 100), ("d", 25), ("grid", "0.0,0.1,0.2,0.3"),
            ("estimators", "gaussian,gauss,rho,tau,knn"), ("transform", "exp"), ("z", 0.001),
            ("k", 20), ("ties", "literal"), ("seed", 0), ("format", "json"),
        ]
        assert doc["summaries"] == []

    def test_bad_experiment_number_is_usage_error(self):
        assert main(["simulate", "--experiment", "9", "--trials", "1"]) == 1

    def test_alpha_grid_outside_range_is_usage_error(self):
        assert (
            main(["simulate", "--experiment", "2", "--alpha-grid", "1.5", "--trials", "1"]) == 1
        )

    @pytest.mark.parametrize("grid, message", [
        ("x", "error: cannot parse grid 'x'\n"),
        (",", "error: grid must contain at least one value\n"),
    ])
    def test_malformed_grid_is_usage_error(self, capsys, grid, message):
        assert main(["simulate", "--experiment", "1", "--grid", grid]) == 1
        assert capsys.readouterr().err == message

    def test_estimator_given_twice_is_an_error(self, capsys):
        argv = ["simulate", "--experiment", "4", "--trials", "3", "--estimators", "rho,rho",
                "--grid", "0.3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: each estimator kind may appear once, got rho,rho\n"

    @pytest.mark.parametrize("argv", [["--grid", "inf"], ["--grid", "nan"], ["--grid", "1e400"],
                                      ["--grid=-inf"]])
    def test_non_finite_sample_size_grid_is_an_error(self, capsys, argv):
        assert main(["simulate", "--experiment", "1", "--trials", "1", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestBandableCommand:
    def test_reference_bounds(self, capsys):
        code, doc = run_json(capsys, ["bandable", "--c", "0.2", "--d", "10"])
        assert code == 0
        assert doc["lower"] == pytest.approx(0.5, abs=1e-12)
        assert doc["upper"] == pytest.approx(1.5, abs=1e-12)
        assert doc["verify"] is None

    def test_warns_when_lower_bound_is_vacuous(self, capsys):
        code = main(["bandable", "--c", "0.4", "--d", "10"])
        assert code == 0
        assert "1/3" in capsys.readouterr().err

    def test_no_warning_in_guaranteed_range(self, capsys):
        main(["bandable", "--c", "0.2", "--d", "10"])
        assert capsys.readouterr().err == ""

    def test_verified_draws_stay_inside_bounds(self, capsys):
        code, doc = run_json(
            capsys, ["bandable", "--c", "0.3", "--d", "8", "--verify", "50"]
        )
        assert code == 0
        block = doc["verify"]
        assert block["draws"] == 50
        assert block["violations"] == 0
        assert block["min_eigenvalue"] >= doc["lower"] - 1e-9
        assert block["max_eigenvalue"] <= doc["upper"] + 1e-9

    def test_csv_layout(self, capsys):
        code = main(["bandable", "--c", "0.2", "--d", "5", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3] == "c,d,lower,upper,draws,min_eigenvalue,max_eigenvalue,violations"
        assert lines[4].startswith("0.2,5,")

    def test_csv_row_matches_the_json_verify_block(self, capsys):
        argv = ["bandable", "--c", "0.2", "--d", "6", "--verify", "3"]
        _, doc = run_json(capsys, argv)
        assert main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "# config: c=0.2; d=6; verify=3; seed=0; format=csv"
        block = doc["verify"]
        assert lines[4] == ",".join(
            repr(v) if isinstance(v, float) else str(v)
            for v in (0.2, 6, doc["lower"], doc["upper"], block["draws"],
                      block["min_eigenvalue"], block["max_eigenvalue"], block["violations"])
        )

    def test_negative_verify_is_usage_error(self, capsys):
        assert main(["bandable", "--c", "0.2", "--d", "4", "--verify", "-2"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --verify must be >= 0, got -2\n"

    @pytest.mark.parametrize("verify", ["0", "1"])
    def test_negative_seed_is_usage_error(self, capsys, verify):
        argv = ["bandable", "--c", "0.2", "--d", "5", "--verify", verify, "--seed", "-1"]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("c", ["0.0", "1.0", "1.2", "-0.1"])
    def test_c_outside_open_interval_is_usage_error(self, c):
        assert main(["bandable", "--c", c, "--d", "5"]) == 1


class TestMainErrors:
    SIMULATE = ["simulate", "--experiment", "1", "--trials", "1"]

    @pytest.mark.parametrize(
        "argv, raised, prefix, code",
        [
            (["estimate"], None, "error: the following arguments are required", 1),
            (["estimate", "--input", "{bad}"], None, "data error: row 2, column 2:", 2),
            (["estimate", "--input", "{absent}"], None, "data error: [Errno 2]", 2),
            (SIMULATE, SingularScatter("collinear"), "numeric error: collinear", 3),
            (["bandable", "--c", "1.5", "--d", "4"], None, "error: bandable decay c", 1),
            (SIMULATE, NpnError("bare"), "error: bare", 3),
        ],
        ids=["usage", "parse", "missing-file", "numeric", "domain", "bare-npn-error"],
    )
    def test_stderr_prefix_and_exit_code(self, tmp_path, capsys, monkeypatch, argv, raised,
                                         prefix, code):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,x\n")
        argv = [a.format(bad=bad, absent=tmp_path / "absent.csv") for a in argv]
        if raised is not None:
            def fail(spec):
                raise raised
            monkeypatch.setattr(cli, "run_experiment", fail)
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(prefix)


class _LateDataError(DataError):
    pass


class _LateNumericError(NumericError):
    pass


# Every library error, and a new subclass of each group's base, with its exit
# code and stderr prefix.
_EXIT_GROUPS = {
    "ParseError": (2, "data error"),
    "NonFiniteValue": (2, "data error"),
    "EmptyFile": (2, "data error"),
    "DataError": (2, "data error"),
    "NotPositiveDefinite": (3, "numeric error"),
    "NoConvergence": (3, "numeric error"),
    "DegenerateColumn": (3, "numeric error"),
    "SingularScatter": (3, "numeric error"),
    "InsufficientSamples": (3, "numeric error"),
    "DegenerateDraw": (3, "numeric error"),
    "NumericError": (3, "numeric error"),
    "DomainError": (1, "error"),
    "NpnError": (3, "error"),
}


_EXIT_CASES = [(getattr(errors, name), want) for name, want in _EXIT_GROUPS.items()] + [
    (_LateDataError, (2, "data error")),
    (_LateNumericError, (3, "numeric error")),
    (OSError, (2, "data error")),
]


@pytest.mark.parametrize("error, want", _EXIT_CASES, ids=[error.__name__ for error, _ in _EXIT_CASES])
def test_every_error_keeps_its_exit_group(error, want):
    assert cli._classify(error("x")) == want


def test_the_exit_table_names_every_library_error():
    assert set(_EXIT_GROUPS) == set(errors.__all__)


def test_run_experiments_script_writes_every_table(tmp_path, monkeypatch, capsys):
    script = _script("run_experiments")
    monkeypatch.setattr(
        sys, "argv",
        ["run_experiments.py", "--out-dir", str(tmp_path), "--trials", "1", "--trials-e4", "1"],
    )
    assert script.main() == 0
    names = ["e1_sample_size.csv", "e3_outliers.csv", "e4_sigma.csv"] + [
        f"e2_marginals_{t}.csv" for t in script.TRANSFORMS
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    assert "; k=20;" in (tmp_path / "e3_outliers.csv").read_text().splitlines()[2]


def test_package_exports_every_module_list():
    import npn
    from npn import errors, matrix_core, rank_stats, simulation

    modules = (errors, matrix_core, rank_stats, estimators, simulation)
    for module in modules:
        for name in module.__all__:
            assert getattr(npn, name) is getattr(module, name), name
    listed = ["__version__"] + [name for module in modules for name in module.__all__]
    assert len(set(npn.__all__)) == len(npn.__all__)
    assert set(npn.__all__) == set(listed)


def test_kd_tree_loads_where_knn_first_needs_it(corr_csv, capsys):
    # importing the CLI leaves scipy.spatial unloaded; a knn estimate loads it and works
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    probe = "import sys, npn.cli; sys.exit('scipy.spatial' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
    knn = ("import json, sys, npn.cli; code = npn.cli.main(['estimate', '--input', sys.argv[1], "
           "'--estimators', 'knn']); sys.exit(code or 'scipy.spatial' not in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", knn, str(corr_csv)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    (est,) = json.loads(proc.stdout)["estimates"]
    _, doc = run_json(capsys, ["estimate", "--input", str(corr_csv), "--estimators", "knn"])
    assert est == doc["estimates"][0] and est["estimator"] == "knn"
