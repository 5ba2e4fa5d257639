"""CSV/SVG emission, atomicity, and scan-series file parsing."""

import contextlib
import csv
import io
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedscan import reporting
from codedscan.cli import main
from codedscan.config import ExperimentConfig
from codedscan.metrics import CellResult, SweepCell, SweepResult
from codedscan.recovery import RecoveryBatch
from codedscan.reporting import (
    POSITION_TOLERANCE_UM,
    SERIES_COLUMNS,
    SeriesFormatError,
    atomic_write_text,
    read_pixel_series,
    sweep_svg_text,
    write_recovery_csv,
    write_series_csv,
    write_sweep_csv,
    write_sweep_svgs,
)


def cell(index, value, at, noise, msp_pos, msp_shape=0.0, zeros=None, flips=None,
         name="bsr"):
    grid_cell = SweepCell(index, name, value, at, noise, ExperimentConfig(),
                          window_start=index if name == "subseq_start" else None)
    return CellResult(grid_cell, msp_pos, msp_shape, 16, 12.5, 0, 0, zeros, flips)


def bsr_result():
    cells = (
        cell(0, 0.5, 10.0, 10.0, 56.25),
        cell(1, 0.5, 10.0, 100.0, 87.5),
        cell(2, 1.0, 10.0, 10.0, 93.75, 6.25),
        cell(3, 1.0, 10.0, 100.0, 100.0, 12.5),
    )
    return SweepResult("bsr", "bsr", cells)


def patterning_result():
    cells = (
        cell(0, 0.0, 10.0, 10.0, 25.0, zeros=1.0, flips=0, name="subseq_start"),
        cell(1, 1.0, 10.0, 10.0, 75.0, zeros=0.875, flips=1, name="subseq_start"),
    )
    return SweepResult("patterning", "subseq_start", cells)


# The row-by-row reader that the bulk reader replaced, kept verbatim: on
# every input outside the named differences below, ``read_pixel_series``
# must return what it returns, bit for bit, or raise its message.
def read_pixel_series_oracle(path) -> dict:
    """Parse a scan-series file to ``{pixel_id: (positions_um, counts)}``.

    Positions and counts must be finite; positions must be strictly
    increasing and equidistant per pixel (within ``POSITION_TOLERANCE_UM``);
    scan indices must count up from zero.
    """
    path = Path(path)
    if not path.is_file():
        raise SeriesFormatError(f"series file not found: {path}")
    collected: dict = {}
    with open(path, encoding="utf-8", newline="") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if [c.strip() for c in row] == list(SERIES_COLUMNS):
                continue
            if len(row) != 4:
                raise SeriesFormatError(f"{path}:{line_no}: expected 4 columns, got {len(row)}")
            pixel_id = row[0].strip()
            try:
                index = int(row[1])
                position = float(row[2])
                counts = float(row[3])
            except ValueError:
                raise SeriesFormatError(f"{path}:{line_no}: non-numeric row") from None
            # nan compares false against every check below, so reject it here
            if not math.isfinite(position):
                raise SeriesFormatError(f"{path}:{line_no}: non-finite position")
            if not math.isfinite(counts):
                raise SeriesFormatError(f"{path}:{line_no}: non-finite counts")
            if counts < 0:
                raise SeriesFormatError(f"{path}:{line_no}: negative counts")
            bucket = collected.setdefault(pixel_id, [])
            if index != len(bucket):
                raise SeriesFormatError(
                    f"{path}:{line_no}: pixel {pixel_id} scan_index {index} out of order"
                )
            bucket.append((position, counts))
    if not collected:
        raise SeriesFormatError(f"{path}: no data rows")
    series = {}
    for pixel_id, rows in collected.items():
        positions = np.array([p for p, _ in rows])
        counts = np.array([c for _, c in rows])
        if positions.size < 2:
            raise SeriesFormatError(f"{path}: pixel {pixel_id} has fewer than 2 samples")
        steps = np.diff(positions)
        if np.any(steps <= 0):
            raise SeriesFormatError(f"{path}: pixel {pixel_id} positions not increasing")
        if np.ptp(steps) > POSITION_TOLERANCE_UM:
            raise SeriesFormatError(
                f"{path}: pixel {pixel_id} positions not equidistant "
                f"(step spread {np.ptp(steps):.3g} um)"
            )
        series[pixel_id] = (positions, counts)
    return series


# ------------------------------------------------------------- atomic I/O


def test_atomic_write_creates_and_replaces(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "first\n")
    assert target.read_text() == "first\n"
    atomic_write_text(target, "second\n")
    assert target.read_text() == "second\n"
    # no stray temp siblings survive
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_missing_directory_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        atomic_write_text(tmp_path / "absent" / "out.txt", "x")


# -------------------------------------------------------------- sweep CSV


def test_sweep_csv_layout(tmp_path):
    path = tmp_path / "grid.csv"
    write_sweep_csv(path, bsr_result(), [("seed", "4")])
    text = path.read_text()
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "# bsr sweep"
    assert lines[1] == "# seed = 4"
    assert lines[2] == ("param_name,param_value,energy_kev_or_angle_deg,noise_level,"
                        "msp_position,msp_shape,k,stderr")
    assert lines[3] == "bsr,0.5,10.0,10.0,56.25,0.0,16,12.5"
    assert len(lines) == 3 + 4


def test_sweep_csv_floats_round_trip(tmp_path):
    awkward = 100.0 * 83 / 249  # non-terminating decimal
    result = SweepResult("bsr", "bsr", (cell(0, 1.0, 10.0, 10.0, awkward),))
    path = write_sweep_csv(tmp_path / "grid.csv", result)
    row = path.read_text().splitlines()[-1].split(",")
    assert float(row[4]) == awkward


def test_sweep_csv_infinite_noise_spelled_inf(tmp_path):
    result = SweepResult("bsr", "bsr", (cell(0, 1.0, 10.0, math.inf, 100.0),))
    path = write_sweep_csv(tmp_path / "grid.csv", result)
    assert path.read_text().splitlines()[-1].split(",")[3] == "inf"


def test_patterning_csv_adds_join_columns(tmp_path):
    path = write_sweep_csv(tmp_path / "grid.csv", patterning_result())
    lines = path.read_text().splitlines()
    assert lines[1].endswith("k,stderr,zeros_fraction,bit_flips")
    assert lines[2].split(",")[-2:] == ["1.0", "0"]
    assert lines[3].split(",")[-2:] == ["0.875", "1"]


# ----------------------------------------------------------- recovery CSV


def recoveries(signal, residual, status):
    """A ``RecoveryBatch`` with these columns, at offset 0 and scale 1: the
    writer reads no others."""
    signal = np.asarray(signal, dtype=float)
    t = len(signal)
    return RecoveryBatch(np.zeros(t, dtype=int), signal, np.ones(t),
                         np.asarray(residual, dtype=float), np.asarray(status, dtype="<U6"))


def test_recovery_csv_rows(tmp_path):
    recovered = recoveries([[0.25, 0.5, 0.25], [0.0, 0.0, 0.0]], [1.5e-12, 0.0], ["ok", "flat"])
    path = write_recovery_csv(tmp_path / "rec.csv", ["3", "7"], np.array([370.0, 0.0]),
                              recovered, [("seed", "1")])
    lines = path.read_text().splitlines()
    assert lines[2] == "pixel_id,p_hat_um,residual,s_0,s_1,s_2,status"
    assert lines[3] == "3,370.0,1.5e-12,0.25,0.5,0.25,ok"
    assert lines[4] == "7,,,,,,flat"


def test_readme_recovery_columns_match_the_csv_header(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (documented,) = re.findall(r"the output's columns are\s+`([^`]+)`", readme)
    path = write_recovery_csv(tmp_path / "rec.csv", [], np.zeros(0),
                              recoveries(np.zeros((0, 3)), [], []), [("seed", "1")])
    (header,) = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    assert documented.replace("s_0,…,s_{N-1}", "s_0,s_1,s_2") == header


def test_recovery_csv_rejects_ids_that_do_not_match_the_rows(tmp_path):
    recovered = recoveries([[1.0, 2.0, 3.0]] * 2, [0.0, 0.0], ["ok", "ok"])
    with pytest.raises(ValueError, match="zip"):
        write_recovery_csv(tmp_path / "rec.csv", ["0"], np.array([1.0, 2.0]), recovered)


# The csv.writer rendering that write_recovery_csv replaced, kept as the
# reference: the writer must write exactly these bytes.
def recovery_csv_oracle(pixel_ids, p_hat_um, recovered, config_items=()) -> str:
    n_signal = recovered.signal.shape[1]
    out = io.StringIO()
    out.write(reporting._comment_block("recovery results", config_items))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["pixel_id", "p_hat_um", "residual"]
        + [f"s_{i}" for i in range(n_signal)]
        + ["status"]
    )
    blank = [""] * (n_signal + 2)
    for pixel_id, p_hat, residual, signal, status in zip(
        pixel_ids, np.asarray(p_hat_um).tolist(), recovered.residual.tolist(),
        recovered.signal.tolist(), recovered.status.tolist(), strict=True,
    ):
        numbers = map(repr, [p_hat, residual, *signal]) if status == "ok" else blank
        writer.writerow([pixel_id, *numbers, status])
    return out.getvalue()


# Every character csv quotes for, and text it passes as it is.
RECOVERY_IDS = st.text(alphabet=',"\r\n #a1\xe9\U0001d535', max_size=6)
RECOVERY_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e16, -1e16, 1e-5, -1e-5, -370.25]),
)


@st.composite
def recovery_tables(draw):
    """Ids, positions and a ``RecoveryBatch`` of up to 6 rows."""
    n_signal = draw(st.integers(0, 4))
    t = draw(st.integers(0, 6))
    numbers = np.array(draw(st.lists(RECOVERY_FLOATS, min_size=t * (n_signal + 2),
                                     max_size=t * (n_signal + 2)))).reshape(t, n_signal + 2)
    statuses = draw(st.lists(st.sampled_from(["ok", "flat", "failed"]), min_size=t, max_size=t))
    ids = draw(st.lists(RECOVERY_IDS, min_size=t, max_size=t))
    return ids, numbers[:, 0], recoveries(numbers[:, 2:], numbers[:, 1], statuses)


@settings(max_examples=300, deadline=None)
@given(recovery_tables())
def test_recovery_writer_matches_the_csv_writer_oracle(table):
    ids, p_hat_um, recovered = table
    items = [("seed", "1"), ("note", "a, b")]
    with tempfile.TemporaryDirectory() as scratch:
        path = write_recovery_csv(Path(scratch) / "rec.csv", ids, p_hat_um, recovered, items)
        written = path.read_bytes()
    assert written == recovery_csv_oracle(ids, p_hat_um, recovered, items).encode("utf-8")


# ------------------------------------------------------------- series file


def test_series_write_read_round_trip(tmp_path):
    series = {
        "0": (np.arange(5) * 1.0, np.array([3.0, 0.0, 7.0, 2.0, 5.0])),
        "1": (10.0 + np.arange(4) * 1.0, np.array([1.0, 1.0, 4.0, 9.0])),
    }
    path = write_series_csv(tmp_path / "s.csv", series, [("seed", "2")])
    back = read_pixel_series(path)
    assert sorted(back) == ["0", "1"]
    for pid in series:
        np.testing.assert_array_equal(back[pid][0], series[pid][0])
        np.testing.assert_array_equal(back[pid][1], series[pid][1])


def test_series_reader_accepts_headerless_files(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("0,0,0.0,5\n0,1,1.0,6\n")
    assert read_pixel_series(path)["0"][1].tolist() == [5.0, 6.0]


def test_series_reader_tolerates_tiny_step_jitter(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("0,0,0.0,5\n0,1,1.0,6\n0,2,2.0000000001,7\n")
    assert len(read_pixel_series(path)["0"][0]) == 3


def test_series_reader_rejections(tmp_path):
    def attempt(body, match):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(SeriesFormatError, match=match):
            read_pixel_series(path)

    attempt("# only comments\n", "no data rows")
    attempt("0,0,0.0\n", "expected 4 columns")
    attempt("0,0,zero,5\n", "non-numeric")
    attempt("0,0,0.0,-5\n0,1,1.0,5\n", "negative counts")
    attempt("0,1,0.0,5\n0,0,1.0,5\n", "out of order")
    attempt("0,0,0.0,5\n", "fewer than 2")
    attempt("0,0,1.0,5\n0,1,0.5,6\n0,2,0.0,7\n", "not increasing")
    attempt("0,0,0.0,5\n0,1,1.0,6\n0,2,2.5,7\n", "not equidistant")
    # a quote left open on the last line, which lacks a line end, as with one
    attempt('a,0,10.0,50\na,1,11.0,60\n#x,0,10.0,"50', r"bad.csv:3: unclosed quote$")
    attempt('a,0,10.0,50\na,1,11.0,60\n#x,0,10.0,"50\n', r"bad.csv:3: unclosed quote$")
    with pytest.raises(SeriesFormatError, match="not found"):
        read_pixel_series(tmp_path / "ghost.csv")


@pytest.mark.parametrize("row, match", [
    ("0,1,nan,6", "non-finite position"),
    ("0,1,inf,6", "non-finite position"),
    ("0,1,1.0,nan", "non-finite counts"),
    ("0,1,1.0,inf", "non-finite counts"),
])
def test_series_reader_rejects_non_finite_values(tmp_path, row, match):
    path = tmp_path / "bad.csv"
    path.write_text(f"0,0,0.0,5\n{row}\n0,2,2.0,7\n")
    with pytest.raises(SeriesFormatError, match=f"bad.csv:2: {match}"):
        read_pixel_series(path)


def test_layout_golden_input_reads_like_the_plain_file():
    golden = Path(__file__).parent / "golden"
    layout = read_pixel_series(golden / "layout_pixels.csv")
    plain = read_pixel_series(golden / "two_pixels.csv")
    assert list(layout) == ["a, left", "b"]
    for (p, c), (p_plain, c_plain) in zip(layout.values(), plain.values()):
        assert p.tobytes() == p_plain.tobytes() and c.tobytes() == c_plain.tobytes()


def test_series_reader_names_the_line_after_skipped_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# c\r\npixel_id,scan_index,position_um,counts\r\n\r\n"
                    "a,0,0.0,5\r\n# d\r\na,1,1.0,-6\r\n")
    with pytest.raises(SeriesFormatError, match=r"bad.csv:6: negative counts$"):
        read_pixel_series(path)


# ---------------------------------------- bulk reader against the oracle

# Whitespace that Python's strip, int and float and numpy's parsers all take.
PADS = st.sampled_from(["", "", " ", "  ", "\t", "\xa0", " \t"])
EOLS = st.sampled_from(["\n", "\r\n", "\r"])
# An id that starts with "#" makes its row a comment: comment_lines covers that.
# NUL, a tab and text outside ASCII and outside the BMP are what a reader
# that holds ids as fixed-width text could drop or alter.
PIXEL_IDS = st.text(alphabet='ab1 ,"#x\x00\t\xe9\U0001d535', max_size=5).map(str.strip).filter(
    lambda pixel_id: not pixel_id.startswith("#"))
COMMENT_TEXT = st.text(alphabet="ab ,#\t'\x1c", max_size=8)


def quoted(text):
    return '"' + text.replace('"', '""') + '"'


def maybe_quoted(draw, text):
    """``text`` padded, or quoted with padding inside and after the quotes."""
    if draw(st.booleans()):
        return quoted(draw(PADS) + text + draw(PADS)) + draw(PADS)
    return draw(PADS) + text + draw(PADS)


@st.composite
def id_fields(draw, pixel_id):
    if "," in pixel_id or pixel_id.startswith('"') or draw(st.booleans()):
        return quoted(draw(PADS) + pixel_id + draw(PADS)) + draw(PADS)
    return draw(PADS) + pixel_id + draw(PADS)


@st.composite
def int_fields(draw, value):
    digits = "0" * draw(st.integers(0, 2)) + str(abs(value))
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+"]))
    return maybe_quoted(draw, sign + digits)


@st.composite
def float_fields(draw, value):
    # "g" rounds to 6 digits, so it can break equidistance
    text = draw(st.sampled_from([repr(value), repr(value), f"{value:.17e}", f"{value:.17G}",
                                 f"{value:g}"]))
    if text.startswith("0."):
        text = draw(st.sampled_from([text, text[1:]]))
    if not text.startswith("-"):
        text = draw(st.sampled_from(["", "+"])) + text
    return maybe_quoted(draw, text)


@st.composite
def header_lines(draw):
    return ",".join(maybe_quoted(draw, name) for name in SERIES_COLUMNS)


@st.composite
def comment_lines(draw):
    first = draw(PADS) + "#" + draw(COMMENT_TEXT)
    if draw(st.booleans()):
        first = quoted(first)
    rest = draw(st.lists(st.one_of(COMMENT_TEXT, COMMENT_TEXT.map(quoted)), max_size=2))
    return ",".join([first] + rest)


# Ways a data row can break; the reader must name each one as the oracle does.
BREAKS = (
    "missing column", "extra column", "word", "float index", "empty field",
    "nan position", "inf position", "nan counts", "-inf counts", "negative counts",
    "index skips", "index repeats", "step jitter", "step back", "blank-looking line",
)


@st.composite
def series_files(draw):
    """Scan-series text in the layouts the format allows: interleaved pixels,
    comments anywhere, repeated and padded headers, blank lines, mixed line
    endings, quoted ids with commas, padded, signed and exponent numbers.
    Most files are valid; the rest break in one of ``BREAKS`` or hold no data.
    """
    ids = draw(st.lists(PIXEL_IDS, min_size=1, max_size=3, unique=True))
    sizes = [draw(st.sampled_from([1, 2, 2, 3, 4, 5])) for _ in ids]
    pixel_order = draw(st.permutations([k for k, n in enumerate(sizes) for _ in range(n)]))
    starts = [draw(st.sampled_from([0.0, 370.0, -2.5, 1e3, 0.1])) for _ in ids]
    steps = [draw(st.sampled_from([1.0, 0.5, 2.0, 0.1, 3e-7])) for _ in ids]
    rows, seen = [], [0] * len(ids)
    for k in pixel_order:
        j = seen[k]
        seen[k] += 1
        counts = draw(st.one_of(st.integers(0, 10**6).map(float),
                                st.floats(0.0, 1e9, allow_nan=False)))
        rows.append([ids[k], j, starts[k] + j * steps[k], counts])
    broken = draw(st.sampled_from((None,) * len(BREAKS) + BREAKS))
    fields = [[draw(id_fields(pixel_id)), draw(int_fields(index)), draw(float_fields(position)),
               draw(float_fields(counts))] for pixel_id, index, position, counts in rows]
    r = draw(st.integers(0, len(rows) - 1))
    pixel_id, index, position, counts = rows[r]
    if broken == "missing column":
        del fields[r][draw(st.integers(0, 3))]
    elif broken == "extra column":
        fields[r].insert(draw(st.integers(0, 4)), draw(float_fields(1.0)))
    elif broken == "word":
        fields[r][draw(st.integers(1, 3))] = draw(st.sampled_from(["x", "1.0.0", "0x10", "--1"]))
    elif broken == "float index":
        fields[r][1] = draw(st.sampled_from([f"{index}.0", f"{index}e0"]))
    elif broken == "empty field":
        fields[r][draw(st.integers(1, 3))] = draw(PADS)
    elif broken in ("nan position", "inf position"):
        fields[r][2] = draw(st.sampled_from(["nan", "NaN", "-nan"] if "nan" in broken
                                            else ["inf", "-Infinity", "+inf", "1e999"]))
    elif broken in ("nan counts", "-inf counts"):
        fields[r][3] = "nan" if broken == "nan counts" else "-inf"
    elif broken == "negative counts":
        fields[r][3] = draw(float_fields(-draw(st.floats(1e-300, 1e6))))
    elif broken == "index skips":
        fields[r][1] = draw(int_fields(index + draw(st.integers(1, 3))))
    elif broken == "index repeats":
        fields[r][1] = draw(int_fields(index - 1))
    elif broken == "step jitter":
        fields[r][2] = draw(float_fields(position + draw(st.sampled_from([0.5, 1e-5, -0.25]))))
    elif broken == "step back":
        fields[r][2] = draw(float_fields(position - 10 * steps[ids.index(pixel_id)]))
    lines = [",".join(row) for row in fields]
    if broken == "blank-looking line":
        lines.insert(r, draw(st.sampled_from([" ", "\t", "\xa0", '""', ",,,", "\x0c"])))
    if draw(st.sampled_from([False] * 19 + [True])):
        lines = []  # no data rows
    extras = draw(st.lists(st.one_of(comment_lines(), header_lines(), st.just("")), max_size=6))
    for extra in extras:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    text = "".join(line + draw(EOLS) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def outcome(reader, path):
    """What a reader makes of ``path``: ids, dtypes and bits, or the message."""
    try:
        series = reader(path)
    except SeriesFormatError as exc:
        return str(exc)
    return [(pixel_id, p.dtype.str, p.tobytes(), c.dtype.str, c.tobytes())
            for pixel_id, (p, c) in series.items()]


def read_with_both(text, check):
    """Call ``check(path, new outcome, oracle outcome)`` on ``text`` written out."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "series.csv"
        path.write_bytes(text.encode("utf-8"))
        check(path, outcome(read_pixel_series, path), outcome(read_pixel_series_oracle, path))


def same(path, new, old):
    assert new == old


@settings(max_examples=300, deadline=None)
@given(series_files())
def test_bulk_reader_matches_the_row_by_row_oracle(text):
    read_with_both(text, same)


@settings(max_examples=300, deadline=None)
@given(series_files(), st.sampled_from([1, 1 << 6, 1 << 10]))
def test_block_boundaries_do_not_change_the_result(text, block_chars):
    # a generated file is shorter than 1 << 10 characters but mostly longer
    # than 1 << 6; at 1 each line is a block of its own
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "series.csv"
        path.write_bytes(text.encode("utf-8"))
        whole = outcome(read_pixel_series, path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reporting._DataLines, "BLOCK_CHARS", block_chars)
            assert outcome(read_pixel_series, path) == whole


# Inputs where the bulk reader deliberately differs from the oracle. Each
# is rejected (``recover`` exits 2) where the oracle read it, or named
# with another message.
VALID = ["a,0,10.0,50\n", "a,1,11.0,60\n"]


def edit_field(row, column, edit):
    fields = VALID[row].rstrip("\n").split(",")
    fields[column] = edit(fields[column])
    return "".join(VALID[:row] + [",".join(fields) + "\n"] + VALID[row + 1:])


# "1_0": int() and float() take digit-group underscores, numpy does not.
UNDERSCORED_NUMBERS = st.builds(
    lambda row, column: edit_field(row, column, lambda f: f"0_{f}" if column == 1
                                   else f"{f[0]}_{f[1:]}"),
    st.integers(0, 1), st.integers(1, 3),
)
# Digits of other scripts: int() and float() read them, numpy does not.
UNICODE_DIGITS = st.builds(
    lambda row, column, digits: edit_field(
        row, column, lambda f: f.translate(str.maketrans("0123456789", digits))),
    st.integers(0, 1), st.integers(1, 3),
    st.sampled_from(["٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "०१२३४५६७८९"]),
)
# A scan index past int64: the oracle calls it out of order, numpy cannot read it.
HUGE_SCAN_INDEX = st.integers(2**63, 10**30).map(
    lambda index: edit_field(1, 1, lambda f: str(index)))
# ASCII separator controls: numpy strips them around a number, int() and
# float() refuse them, and str.strip takes them off an id.
SEPARATOR_CONTROLS = st.builds(
    lambda row, column, control, before: edit_field(
        row, column, lambda f: control + f if before else f + control),
    st.integers(0, 1), st.integers(0, 3), st.sampled_from("\x1c\x1d\x1e\x1f"), st.booleans(),
)
# A quoted field that holds a line break, in a data row or a comment: csv
# joins the lines, the bulk reader does not.
LINE_BREAK_IN_QUOTES = st.sampled_from([
    '"a\nb",0,10.0,50\n"a\nb",1,11.0,60\n',
    'a,0,10.0,"50\n"\na,1,11.0,60\n',
    '# note,"open\na,0,10.0,50\na,1,11.0,60\n"\n',
    'a,0,10.0,50\na,1,11.0,60\n#,"x',
    'a,0,10.0,50\na,1,11.0,60\n#x,0,10.0,"50',
])
DIFFERENCES = {
    "underscored numbers": UNDERSCORED_NUMBERS,
    "unicode digits": UNICODE_DIGITS,
    "huge scan index": HUGE_SCAN_INDEX,
    "separator controls": SEPARATOR_CONTROLS,
    "line break in quotes": LINE_BREAK_IN_QUOTES,
}


def rejected_with_exit_2(path, new, old):
    assert isinstance(new, str), "the bulk reader must reject it"
    assert new != old
    config = path.with_name("exp.cfg")
    config.write_text("[scan]\nseed = 1\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["recover", str(path), "--config", str(config)]) == 2
    assert err.getvalue() == f"error: {new}\n"


@pytest.mark.parametrize("name", sorted(DIFFERENCES))
def test_named_differences_are_rejected_with_exit_2(name):
    @settings(max_examples=25, deadline=None)
    @given(DIFFERENCES[name])
    def check(text):
        read_with_both(text, rejected_with_exit_2)

    check()


# A header name or a comment's '#' split by quotes, which csv joins back:
# skipped, as the oracle skips them.
QUOTE_SPLIT_NAMES = st.sampled_from([
    '"pixel_"id,scan_index,position_um,counts\n' + "".join(VALID),
    '""#x,1\n' + "".join(VALID),
    '""#x,0,10.0,50\n""#x,1,11.0,60\n' + "".join(VALID),
    '" "#x\n' + "".join(VALID),
])


@settings(max_examples=25, deadline=None)
@given(QUOTE_SPLIT_NAMES)
def test_quote_split_names_read_as_the_oracle_reads_them(text):
    read_with_both(text, same)


# ------------------------------------------------- rejection block by block


def long_series(pixels=40, samples=75):
    return "pixel_id,scan_index,position_um,counts\n" + "".join(
        f"p{k},{j},{j}.0,{k + j}\n" for k in range(pixels) for j in range(samples))


def with_line(text, number, line):
    """``text`` with its 1-based line ``number`` replaced by ``line``."""
    lines = text.splitlines(keepends=True)
    lines[number - 1] = line + "\n"
    return "".join(lines)


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of about 60 lines, so a short file spans many of them."""
    monkeypatch.setattr(reporting._DataLines, "BLOCK_CHARS", 1 << 10)


@pytest.fixture
def parse_calls(monkeypatch):
    """One entry per call to ``reporting._parse``."""
    calls = []
    real = reporting._parse

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(reporting, "_parse", counting)
    return calls


def blocks_of(path):
    """The blocks of lines ``read_pixel_series`` reads ``path`` in."""
    with open(path, encoding="utf-8", newline="") as handle:
        return list(iter(lambda: handle.readlines(reporting._DataLines.BLOCK_CHARS), []))


def test_rejection_parses_whole_blocks(tmp_path, small_blocks, parse_calls):
    # A bad last line costs one parse per block, plus the line-by-line
    # check of the block that holds it: not one parse per line. Quoted ids
    # cost no more.
    text = long_series() + "p0,75,75.0,1,2\n"
    quoted = re.sub(r"^(p\d+),", r'"\1",', text, flags=re.MULTILINE)
    for content, per_line in ((text, 1), (quoted, 2)):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        blocks = blocks_of(path)
        parse_calls.clear()
        with pytest.raises(SeriesFormatError, match=r"bad.csv:3002: expected 4 columns, got 5$"):
            read_pixel_series(path)
        assert len(blocks) > 10
        # one per block (the header that opens the first is dropped before
        # its parse), then in the last block `per_line` per good line (a
        # quoted line is parsed again for its fields), two for the bad line
        # (the second counts its columns) and one for the block's good lines
        assert len(parse_calls) == len(blocks) + per_line * (len(blocks[-1]) - 1) + 3
        assert len(parse_calls) < 3002 / 10
    assert quoted.count('"p0",') == 76


def test_comment_in_every_block_costs_two_parses_per_block(tmp_path, small_blocks,
                                                          parse_calls, monkeypatch):
    # A block with a comment is parsed once to find its table untrusted and
    # once without the comment; no line of it is checked alone, and csv
    # reads only the lines it skips.
    lines = long_series().splitlines(keepends=True)
    text = "".join(line + "# note\n" * (number % 20 == 0) for number, line in enumerate(lines))
    path = tmp_path / "notes.csv"
    path.write_text(text)
    blocks = blocks_of(path)
    assert len(blocks) > 10 and all("# note\n" in block for block in blocks)

    def no_line_checks(line):
        raise AssertionError(f"line checked alone: {line!r}")

    read_by_csv = []
    real = csv.reader

    def reading(rows):
        read_by_csv.extend(rows)
        return real(rows)

    monkeypatch.setattr(reporting, "_line_problem", no_line_checks)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reporting.csv, "reader", reading)
        new = outcome(read_pixel_series, path)
    assert new == outcome(read_pixel_series_oracle, path)
    assert 0 < len(parse_calls) <= 2 * len(blocks)
    assert set(read_by_csv) == {lines[0], "# note\n"}


def test_written_file_parses_each_block_once(tmp_path, small_blocks, parse_calls, monkeypatch):
    # A file as write_series_csv writes it opens with comments and a header.
    # They are screened and dropped before the first block is parsed, so
    # every block is parsed once, and the screen reads only them and the
    # line that ends them in each block.
    series = {f"p{k}": (np.arange(75.0), np.arange(75.0) * k) for k in range(40)}
    path = write_series_csv(tmp_path / "s.csv", series, [("seed", "2"), ("note", "x, y")])
    blocks = blocks_of(path)
    leading = ["# scan series\n", "# seed = 2\n", "# note = x, y\n", ",".join(SERIES_COLUMNS) + "\n"]
    assert len(blocks) >= 10 and blocks[0][:4] == leading
    screened = []
    real = reporting._skipped

    def screening(line):
        screened.append(line)
        return real(line)

    monkeypatch.setattr(reporting, "_skipped", screening)
    back = read_pixel_series(path)
    assert len(parse_calls) == len(blocks)
    assert screened == leading + [block[4 * (k == 0)] for k, block in enumerate(blocks)]
    assert list(back) == list(series)
    for (p, c), (p_in, c_in) in zip(back.values(), series.values()):
        assert p.tobytes() == p_in.tobytes() and c.tobytes() == c_in.tobytes()


@pytest.mark.parametrize("edits, message", [
    # the bad line sits mid-file, with valid blocks after it
    ([(1500, "p19,74,74.0")], "1500: expected 4 columns, got 3"),
    # a bad number in an earlier block is named before the bad line
    ([(200, "p2,48,48.0,-1"), (2500, "p33,23,x,1")], "200: negative counts"),
    # blocks with a quote are checked line by line and pass
    ([(100, '"p1",23,23.0,24'), (2000, "p26,48")], "2000: expected 4 columns, got 2"),
    ([(900, "p11,73,73.0,\x1c84")], "900: ASCII separator control character"),
    ([(700, 'p9,23,23.0,"32'), (701, "p9,24,24.0,33")], "700: unclosed quote"),
    # a comment, its '#' after a quoted empty string, as csv reads it
    ([(800, '""#x,0,10.0,50')], "801: pixel p10 scan_index 49 out of order"),
])
def test_rejection_names_the_line_across_blocks(tmp_path, monkeypatch, edits, message):
    text = long_series()
    for number, line in edits:
        text = with_line(text, number, line)
    path = tmp_path / "bad.csv"
    path.write_text(text)
    one_block = outcome(read_pixel_series, path)
    monkeypatch.setattr(reporting._DataLines, "BLOCK_CHARS", 1 << 10)
    assert outcome(read_pixel_series, path) == one_block == f"{path}:{message}"


# -------------------------------------------------------------------- SVG


def test_sweep_svg_structure():
    text = sweep_svg_text(bsr_result(), 10.0)
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    # one solid and one dashed polyline for the single energy group
    assert text.count("<polyline") == 2
    assert text.count('stroke-dasharray="6 3"') == 1
    assert "MSP (%)" in text and "bsr" in text
    assert "noise level 10" in text


def test_sweep_svg_unknown_noise_level():
    with pytest.raises(ValueError, match="noise level"):
        sweep_svg_text(bsr_result(), 55.0)


def test_write_sweep_svgs_one_file_per_noise(tmp_path):
    paths = write_sweep_svgs(tmp_path / "plot", bsr_result())
    assert [p.name for p in paths] == ["plot_noise10.svg", "plot_noise100.svg"]
    for path in paths:
        assert path.read_text().rstrip().endswith("</svg>")


def test_write_sweep_svgs_names_infinite_noise(tmp_path):
    result = SweepResult("bsr", "bsr", (cell(0, 1.0, 10.0, math.inf, 100.0),))
    paths = write_sweep_svgs(tmp_path / "plot", result)
    assert [p.name for p in paths] == ["plot_noiseinf.svg"]
