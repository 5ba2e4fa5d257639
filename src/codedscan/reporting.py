"""Result serialization: atomic CSV/SVG emission and scan-series files."""

from __future__ import annotations

import csv
import io
import os
import tempfile
from pathlib import Path

import numpy as np

from .metrics import SweepResult

POSITION_TOLERANCE_UM = 1e-6  # equidistance slack for ingested series

SERIES_COLUMNS = ("pixel_id", "scan_index", "position_um", "counts")
SWEEP_COLUMNS = (
    "param_name",
    "param_value",
    "energy_kev_or_angle_deg",
    "noise_level",
    "msp_position",
    "msp_shape",
    "k",
    "stderr",
)


class SeriesFormatError(ValueError):
    """Malformed scan-series file."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def atomic_write_text(path, text: str) -> Path:
    """Write via a sibling temp file + rename; readers never see partials."""
    path = Path(path)
    handle, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(handle, "w", encoding="utf-8", newline="\n") as sink:
            sink.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def _comment_block(title: str, items) -> str:
    lines = [f"# {title}"]
    lines.extend(f"# {key} = {value}" for key, value in items)
    return "\n".join(lines) + "\n"


def write_sweep_csv(path, result: SweepResult, config_items=()) -> Path:
    """MSP grid as CSV; patterning grids carry the composition join columns."""
    out = io.StringIO()
    out.write(_comment_block(f"{result.kind} sweep", config_items))
    writer = csv.writer(out, lineterminator="\n")
    columns = SWEEP_COLUMNS
    if result.kind == "patterning":
        columns = columns + ("zeros_fraction", "bit_flips")
    writer.writerow(columns)
    for cell in result.cells:
        row = [
            cell.cell.param_name,
            _fmt(cell.cell.param_value),
            _fmt(cell.cell.energy_or_angle),
            _fmt(cell.cell.noise_level),
            _fmt(cell.msp_position),
            _fmt(cell.msp_shape),
            _fmt(cell.k),
            _fmt(cell.stderr),
        ]
        if result.kind == "patterning":
            row += [_fmt(cell.zeros_fraction), _fmt(cell.bit_flips)]
        writer.writerow(row)
    return atomic_write_text(path, out.getvalue())


def write_recovery_csv(path, pixel_ids, p_hat_um, recovered, config_items=()) -> Path:
    """Per-pixel recoveries: pixel_id, p_hat_um, residual, s_0.., status. Row
    i is ``pixel_ids[i]`` at ``p_hat_um[i]`` with row i of the ``RecoveryBatch``
    ``recovered``; a row whose status is not ok leaves its numbers blank."""
    n_signal = recovered.signal.shape[1]
    header = ["pixel_id", "p_hat_um", "residual", *(f"s_{i}" for i in range(n_signal)), "status"]
    lines = [_comment_block("recovery results", config_items), ",".join(header) + "\n"]
    blank = "," * (n_signal + 1)
    for pixel_id, p_hat, residual, signal, status in zip(
        pixel_ids, np.asarray(p_hat_um).tolist(), recovered.residual.tolist(),
        recovered.signal.tolist(), recovered.status.tolist(), strict=True,
    ):
        # repr is _fmt's text for finite floats, and no float's text needs quotes
        numbers = ",".join(map(repr, [p_hat, residual, *signal])) if status == "ok" else blank
        lines.append(f"{_csv_field(pixel_id)},{numbers},{status}\n")
    return atomic_write_text(path, "".join(lines))


# No field without one of these is quoted by csv.writer's default dialect.
_QUOTE_TRIGGERS = frozenset(',"\r\n')


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row of several fields."""
    if _QUOTE_TRIGGERS.isdisjoint(text):
        return text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text])
    return out.getvalue()[:-1]


def series_csv_text(pixel_series, config_items=()) -> str:
    """Render ``{pixel_id: (positions_um, counts)}`` in scan-series layout."""
    out = io.StringIO()
    out.write(_comment_block("scan series", config_items))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SERIES_COLUMNS)
    for pixel_id in pixel_series:
        positions, counts = pixel_series[pixel_id]
        for index, (pos, cnt) in enumerate(zip(positions, counts)):
            writer.writerow([pixel_id, index, _fmt(float(pos)), _fmt(float(cnt))])
    return out.getvalue()


def write_series_csv(path, pixel_series, config_items=()) -> Path:
    return atomic_write_text(path, series_csv_text(pixel_series, config_items))


def read_pixel_series(path) -> dict:
    """Parse a scan-series file to ``{pixel_id: (positions_um, counts)}``.

    The file is UTF-8 CSV. The lines that ``csv`` reads alone as blank,
    comment (the first field starts with ``#``) or header rows are
    skipped; a quoted field closes on its own line. Pixel ids are stripped
    of whitespace and keep the order they first appear in. Positions and
    counts must be finite, counts non-negative; positions must be strictly
    increasing and equidistant per pixel (within ``POSITION_TOLERANCE_UM``);
    scan indices must count up from zero per pixel.

    Each block of lines goes through one ``np.loadtxt`` call, after the
    lines to skip that open it, and every check runs on the columns. Only
    a block whose table cannot be trusted is read again: without the lines
    to skip, and then, if still untrusted, line by line to name its first
    bad line.
    """
    path = Path(path)
    if not path.is_file():
        raise SeriesFormatError(f"series file not found: {path}")
    heads, lengths, numbers = [], [], []
    problem = None
    rows = 0  # data lines before the current block
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            lines = _DataLines(handle)
            for runs, good, problem in lines.tables():
                if good:
                    heads += runs[0]
                    lengths.append(runs[1])
                    numbers.append(runs[2])
                rows += good
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not numbers and problem is None:
        raise SeriesFormatError(f"{path}: no data rows")
    if numbers:
        numbers = np.concatenate(numbers)
        pixel_ids, codes, order = _group(heads, np.concatenate(lengths))
        _check_rows(path, numbers, pixel_ids, codes, order, lines.line_of)
    if problem is not None:
        raise SeriesFormatError(f"{path}:{lines.line_of(rows)}: {problem}")
    sizes = np.bincount(codes)
    positions = numbers["position_um"][order]
    counts = numbers["counts"][order]
    del numbers  # before the step checks, which would raise the peak memory
    pixel_of_row = codes[order]
    within = pixel_of_row[1:] == pixel_of_row[:-1]
    steps = np.diff(positions)[within]
    pixel_of_step = pixel_of_row[1:][within]
    rising = np.ones(len(pixel_ids), dtype=bool)
    spread = np.zeros(len(pixel_ids))
    if steps.size:
        starts = np.flatnonzero(np.diff(pixel_of_step, prepend=-1))
        stepped = pixel_of_step[starts]
        smallest = np.minimum.reduceat(steps, starts)
        rising[stepped] = smallest > 0
        spread[stepped] = np.maximum.reduceat(steps, starts) - smallest
    problems = np.select([sizes < 2, ~rising, spread > POSITION_TOLERANCE_UM], [1, 2, 3])
    bad = np.flatnonzero(problems)
    if bad.size:
        pixel = bad[0]
        message = {
            1: "has fewer than 2 samples",
            2: "positions not increasing",
            3: f"positions not equidistant (step spread {spread[pixel]:.3g} um)",
        }[problems[pixel]]
        raise SeriesFormatError(f"{path}: pixel {pixel_ids[pixel]} {message}")
    ends = np.cumsum(sizes).tolist()
    return {
        pixel_id: (positions[start:end], counts[start:end])
        for pixel_id, start, end in zip(pixel_ids, [0] + ends[:-1], ends)
    }


# The numbers of one data line, kept as one record per row.
_NUMBERS = np.dtype([
    ("scan_index", np.int64),
    ("position_um", np.float64),
    ("counts", np.float64),
])
# One data line: the pixel id as text, then the numbers.
_SERIES_ROW = np.dtype([("pixel_id", object), *_NUMBERS.descr])

# Python's int() and float() refuse these around a number, numpy strips them.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


class _DataLines:
    """The data lines of an open series file, read in blocks with ``np.loadtxt``.

    ``tables`` keeps the numbers of the lines it skips in ``skipped``.
    """

    BLOCK_CHARS = 1 << 16

    def __init__(self, handle):
        self._handle = handle
        self.skipped = []

    def tables(self):
        """``(runs, good, problem)`` per block, up to the first bad line: the
        ``_runs`` of the block's first ``good`` data lines, which come before
        its first bad line, and what is wrong with that line, or None if no
        line is bad."""
        count = 0  # lines read
        while block := self._handle.readlines(self.BLOCK_CHARS):
            first, count = count + 1, count + len(block)
            # a file's comments and header open its first block
            lead = next((k for k, line in enumerate(block) if not _skipped(line)), len(block))
            self.skipped.extend(range(first, first + lead))
            first, block = first + lead, block[lead:]
            if not block:
                continue
            runs = _trusted(block)
            if runs is None:
                kept = []
                for number, line in enumerate(block, start=first):
                    if _skipped(line):
                        self.skipped.append(number)
                    else:
                        kept.append(line)
                if not kept:
                    continue
                if len(kept) < len(block):
                    block = kept
                    runs = _trusted(block)
            if runs is None:
                for good, line in enumerate(block):
                    problem = _line_problem(line)
                    if problem is not None:
                        yield (_runs(_parse(block[:good])) if good else None), good, problem
                        return
                runs = _runs(_parse(block))
            yield runs, len(block), None

    def line_of(self, rows):
        """Line numbers of the data lines at indices ``rows`` (one index or
        an array of them), once they are read."""
        skipped = np.asarray(self.skipped)
        data_before = skipped - np.arange(1, skipped.size + 1)  # per skipped line
        return rows + 1 + np.searchsorted(data_before, rows, side="right")


def _parse(lines, dtype=_SERIES_ROW) -> np.ndarray:
    # An object per id keeps every id exact, with no Python call per row.
    # The ids' strings live only until _runs reduces the block to its runs.
    return np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)


def _runs(table):
    """``table`` as runs of one pixel id: the id that starts each run as
    text, the run lengths, and every row's numbers as one ``_NUMBERS``
    record. Nothing in them keeps the table alive."""
    # A file lists each pixel's rows together, so runs of one id are few.
    ids = table["pixel_id"]
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    return (ids[starts].tolist(), np.diff(starts, append=len(ids)),
            table[list(_NUMBERS.names)].astype(_NUMBERS))


def _group(heads, lengths):
    """Stripped pixel ids in first-appearance order, each row's index into
    them, and the stable order that sorts the rows by pixel, from the runs
    of one id: each run's id ``heads`` and the run ``lengths``."""
    index = {}
    run_pixels = [index.setdefault(head.strip(), len(index)) for head in heads]
    codes = np.repeat(run_pixels, lengths)
    return list(index), codes, np.argsort(codes, kind="stable")


def _check_rows(path, numbers, pixel_ids, codes, order, line_of):
    """Raise for the first row with a bad number or an out-of-order scan index."""
    index, positions, counts = (numbers[name] for name in _NUMBERS.names)
    sizes = np.bincount(codes)
    rank = np.empty_like(index)  # rows of the same pixel before this one
    rank[order] = np.arange(codes.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    checks = np.stack([~np.isfinite(positions), ~np.isfinite(counts), counts < 0, index != rank])
    bad = np.flatnonzero(checks.any(axis=0))
    if bad.size:
        row = bad[0]
        message = (
            "non-finite position",
            "non-finite counts",
            "negative counts",
            f"pixel {pixel_ids[codes[row]]} scan_index {index[row]} out of order",
        )[np.argmax(checks[:, row])]
        raise SeriesFormatError(f"{path}:{line_of(row)}: {message}")


def _line_problem(line):
    """What is wrong with one data line parsed alone, or None."""
    if not line.endswith(("\n", "\r")):
        line += "\n"  # the last line: a quote it leaves open takes the "\n", as in _skipped
    if _skipped(line) is None:
        return f"field longer than csv's field limit ({csv.field_size_limit()} characters)"
    try:
        _parse([line])
    except ValueError:
        fields = _parse([line], dtype=object)
        return f"expected 4 columns, got {fields.size}" if fields.size != 4 else "non-numeric row"
    if '"' in line and any("\n" in f or "\r" in f for f in _parse([line], dtype=object)):
        return "unclosed quote"
    if any(c in line for c in _SEPARATORS):
        return "ASCII separator control character"
    return None


def _trusted(lines):
    """The ``_runs`` of ``lines``, or None where their table cannot be
    trusted: no line holds data, the lines hold one of ``_SEPARATORS``, the
    call fails, it joins lines (an unclosed quote) or skips one (a blank
    line), or an id holds a line break or starts with ``#``.
    """
    text = "".join(lines)
    if not text.strip("\r\n") or any(c in text for c in _SEPARATORS):
        return None  # on lines that are all blank, loadtxt would warn
    try:
        table = _parse(lines)
    except ValueError:
        return None
    if len(table) < len(lines):
        return None
    runs = _runs(table)
    if any("\n" in i or "\r" in i or i.lstrip().startswith("#") for i in runs[0]):
        return None
    return runs


def _skipped(line):
    """Whether ``line`` is one to skip: csv reads it alone, every quote
    closed on the line, as a blank, comment or header row. None (false)
    for a line that passes the screen but that csv refuses to read: one
    with a field past csv's field limit."""
    # Every line csv skips passes this screen, which is much faster than csv.
    text = line.replace('"', "").lstrip()
    if text and not text.startswith(("#", SERIES_COLUMNS[0])):
        return False
    if not line.endswith(("\n", "\r")):
        line += "\n"  # the last line: a quote it leaves open takes the "\n"
    try:
        (row,) = csv.reader([line])
    except csv.Error:  # a field past csv's field limit
        return None
    if row and row[-1].endswith(("\n", "\r")):
        return False  # a quote left open
    return not row or row[0].lstrip().startswith("#") or tuple(
        field.strip() for field in row) == SERIES_COLUMNS


def _not_utf8(path) -> SeriesFormatError:
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line: one after those that end before it
        line = len((data[: exc.start] + b"x").splitlines())
        return SeriesFormatError(f"{path}:{line}: not UTF-8 ({exc.reason})")


# ------------------------------------------------------------------ SVG

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 640, 420
_LEFT, _RIGHT, _TOP, _BOTTOM = 64, 24, 28, 48


def _x_scale(values):
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return lambda v: _LEFT + (_WIDTH - _LEFT - _RIGHT) * (v - lo) / span


def _y_scale(v):
    return _HEIGHT - _BOTTOM - (_HEIGHT - _TOP - _BOTTOM) * v / 100.0


def sweep_svg_text(result: SweepResult, noise_level: float) -> str:
    """One plot: MSP vs the sweep axis, a line per energy/angle group.

    Solid lines are position MSP, dashed are shape MSP.
    """
    cells = [c for c in result.cells if c.cell.noise_level == noise_level]
    if not cells:
        raise ValueError(f"no cells at noise level {noise_level:g}")
    xs = sorted({c.cell.param_value for c in cells})
    to_x = _x_scale(xs)
    groups = sorted({c.cell.energy_or_angle for c in cells})
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    # axes and horizontal grid every 25 MSP points
    for tick in range(0, 101, 25):
        y = _y_scale(tick)
        parts.append(
            f'<line x1="{_LEFT}" y1="{y:.1f}" x2="{_WIDTH - _RIGHT}" y2="{y:.1f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(f'<text x="{_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end">{tick}</text>')
    for v in xs:
        x = to_x(v)
        parts.append(
            f'<text x="{x:.1f}" y="{_HEIGHT - _BOTTOM + 16}" text-anchor="middle">{v:g}</text>'
        )
    parts.append(
        f'<line x1="{_LEFT}" y1="{_y_scale(0):.1f}" x2="{_WIDTH - _RIGHT}" '
        f'y2="{_y_scale(0):.1f}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_LEFT}" y1="{_y_scale(100):.1f}" x2="{_LEFT}" '
        f'y2="{_y_scale(0):.1f}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{(_LEFT + _WIDTH - _RIGHT) / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle">{result.param_name}</text>'
    )
    parts.append(
        f'<text x="16" y="{_HEIGHT / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_HEIGHT / 2:.1f})">MSP (%)</text>'
    )
    parts.append(
        f'<text x="{_LEFT}" y="{_TOP - 8}" fill="#444444">'
        f"{result.kind} sweep, noise level {noise_level:g}</text>"
    )
    for gi, group in enumerate(groups):
        color = _PALETTE[gi % len(_PALETTE)]
        rows = sorted(
            (c for c in cells if c.cell.energy_or_angle == group),
            key=lambda c: c.cell.param_value,
        )
        for attr, coords in (
            ("", " ".join(f"{to_x(c.cell.param_value):.1f},{_y_scale(c.msp_position):.1f}"
                          for c in rows)),
            (' stroke-dasharray="6 3"', " ".join(
                f"{to_x(c.cell.param_value):.1f},{_y_scale(c.msp_shape):.1f}" for c in rows)),
        ):
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{attr} '
                f'points="{coords}"/>'
            )
        parts.append(
            f'<text x="{_WIDTH - _RIGHT - 4}" y="{_TOP + 16 * (gi + 1)}" fill="{color}" '
            f'text-anchor="end">{group:g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_sweep_svgs(prefix, result: SweepResult) -> list:
    """One SVG per noise level, named ``<prefix>_noise<level>.svg``."""
    prefix = Path(prefix)
    written = []
    for noise in sorted({c.cell.noise_level for c in result.cells}):
        path = prefix.with_name(f"{prefix.name}_noise{noise:g}.svg")
        written.append(atomic_write_text(path, sweep_svg_text(result, noise)))
    return written
