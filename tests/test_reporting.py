"""CSV/SVG emission, atomicity, and scan-series file parsing."""

import math
import os

import numpy as np
import pytest

from codedscan.metrics import CellResult, SweepCell, SweepResult
from codedscan.reporting import (
    RecoveryRow,
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
    grid_cell = SweepCell(index, name, value, at, noise, 0.219, 0.0, 10.0, 10.0, 8.0,
                          window_start=index if name == "subseq_start" else None)
    return CellResult(grid_cell, msp_pos, msp_shape, 16, 12.5, 0, zeros, flips)


def bsr_result():
    cells = (
        cell(0, 0.5, 10.0, 10.0, 56.25),
        cell(1, 0.5, 10.0, 100.0, 87.5),
        cell(2, 1.0, 10.0, 10.0, 93.75, 6.25),
        cell(3, 1.0, 10.0, 100.0, 100.0, 12.5),
    )
    return SweepResult("bsr", "bsr", (0.5, 1.0), 4, 2, cells)


def patterning_result():
    cells = (
        cell(0, 0.0, 10.0, 10.0, 25.0, zeros=1.0, flips=0, name="subseq_start"),
        cell(1, 1.0, 10.0, 10.0, 75.0, zeros=0.875, flips=1, name="subseq_start"),
    )
    return SweepResult("patterning", "subseq_start", (0.0, 1.0), 4, 2, cells)


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
    result = SweepResult("bsr", "bsr", (1.0,), 0, 1, (cell(0, 1.0, 10.0, 10.0, awkward),))
    path = write_sweep_csv(tmp_path / "grid.csv", result)
    row = path.read_text().splitlines()[-1].split(",")
    assert float(row[4]) == awkward


def test_sweep_csv_infinite_noise_spelled_inf(tmp_path):
    result = SweepResult("bsr", "bsr", (1.0,), 0, 1,
                         (cell(0, 1.0, 10.0, math.inf, 100.0),))
    path = write_sweep_csv(tmp_path / "grid.csv", result)
    assert path.read_text().splitlines()[-1].split(",")[3] == "inf"


def test_patterning_csv_adds_join_columns(tmp_path):
    path = write_sweep_csv(tmp_path / "grid.csv", patterning_result())
    lines = path.read_text().splitlines()
    assert lines[1].endswith("k,stderr,zeros_fraction,bit_flips")
    assert lines[2].split(",")[-2:] == ["1.0", "0"]
    assert lines[3].split(",")[-2:] == ["0.875", "1"]


# ----------------------------------------------------------- recovery CSV


def test_recovery_csv_rows(tmp_path):
    rows = [
        RecoveryRow("3", 370.0, 1.5e-12, 2, np.array([0.25, 0.5, 0.25]), "ok"),
        RecoveryRow("7", None, None, 0, None, "flat"),
    ]
    path = write_recovery_csv(tmp_path / "rec.csv", rows, 3, [("seed", "1")])
    lines = path.read_text().splitlines()
    assert lines[2] == "pixel_id,p_hat_um,residual,rounds,s_0,s_1,s_2,status"
    assert lines[3] == "3,370.0,1.5e-12,2,0.25,0.5,0.25,ok"
    assert lines[4] == "7,,,0,,,,flat"


def test_recovery_csv_rejects_wrong_signal_length(tmp_path):
    rows = [RecoveryRow("0", 1.0, 0.0, 1, np.array([1.0, 2.0]), "ok")]
    with pytest.raises(ValueError, match="signal length"):
        write_recovery_csv(tmp_path / "rec.csv", rows, 3)


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
    result = SweepResult("bsr", "bsr", (1.0,), 0, 1,
                         (cell(0, 1.0, 10.0, math.inf, 100.0),))
    paths = write_sweep_svgs(tmp_path / "plot", result)
    assert [p.name for p in paths] == ["plot_noiseinf.svg"]
