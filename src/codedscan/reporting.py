"""Result serialization: atomic CSV/SVG emission and scan-series files."""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from dataclasses import dataclass
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


@dataclass(frozen=True)
class RecoveryRow:
    """One pixel's recovery for the results CSV; signal is None off-status."""

    pixel_id: str
    p_hat_um: float | None
    residual: float | None
    rounds: int
    signal: np.ndarray | None
    status: str  # ok | flat | failed


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isinf(value):
        return "inf"
    return repr(value)


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


def write_recovery_csv(path, rows, n_signal: int, config_items=()) -> Path:
    """Per-pixel recoveries: pixel_id, p_hat_um, residual, rounds, s_0.., status."""
    out = io.StringIO()
    out.write(_comment_block("recovery results", config_items))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["pixel_id", "p_hat_um", "residual", "rounds"]
        + [f"s_{i}" for i in range(n_signal)]
        + ["status"]
    )
    for row in rows:
        cells = [row.pixel_id, _fmt(row.p_hat_um), _fmt(row.residual), _fmt(row.rounds)]
        if row.signal is None:
            cells += [""] * n_signal
        else:
            if row.signal.size != n_signal:
                raise ValueError(f"pixel {row.pixel_id}: signal length {row.signal.size}")
            cells += [_fmt(v) for v in row.signal]
        cells.append(row.status)
        writer.writerow(cells)
    return atomic_write_text(path, out.getvalue())


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
        tag = "inf" if math.isinf(noise) else f"{noise:g}"
        path = prefix.with_name(f"{prefix.name}_noise{tag}.svg")
        written.append(atomic_write_text(path, sweep_svg_text(result, noise)))
    return written
