"""End-to-end command-line behaviour: exit codes, files, round trips."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from codedscan import (
    build_coding_matrix,
    build_profile,
    generate_de_bruijn,
    make_gaussian_signal,
    simulate,
)
from codedscan.aperture import ApertureGeometry, OpticalContext
from codedscan.cli import main
from codedscan.reporting import read_pixel_series, write_series_csv

OPAQUE = """
[optics]
mu_per_um = 1e9

[scan]
noise_levels = 100
seed = 6
"""

SMALL_SWEEP = """
[sweep]
kind = bsr
bsr_values = 0.5, 1.0
energies_kev = 10
replicates = 2
position_stride = 32

[scan]
noise_levels = 50
seed = 4
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def truth_signal():
    return make_gaussian_signal(10.0, 1.0).unit_sum().values


# ------------------------------------------------------------------ sweep


def test_sweep_writes_csv_and_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_SWEEP)
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "bsr=0.5" in stdout and "bsr=1" in stdout
    assert f"wrote {out}" in stdout
    lines = out.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header.startswith("param_name,param_value,energy_kev_or_angle_deg")
    assert sum(1 for l in lines if not l.startswith("#")) == 1 + 2  # header + cells


def test_sweep_worker_count_is_invisible_in_output(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_SWEEP)
    one, many = tmp_path / "w1.csv", tmp_path / "w3.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(one), "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(many), "--workers", "3"]) == 0
    assert one.read_bytes() == many.read_bytes()


def test_sweep_quick_and_seed_flags_echo(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_SWEEP)
    out = tmp_path / "grid.csv"

    def run(*flags):
        assert main(["sweep", "--config", str(cfg), "--out", str(out), *flags]) == 0
        lines = out.read_text().splitlines()
        return set(lines), [l.split(",") for l in lines if not l.startswith("#")][1:]

    header, rows = run()
    assert {"# effective_seed = 4", "# effective_replicates = 2",
            "# noiseless_run = False"} <= header
    assert [(row[3], row[6]) for row in rows] == [("50.0", "16")] * 2
    header, rows = run("--quick", "--seed", "123", "--noiseless")
    assert {"# effective_replicates = 5", "# effective_seed = 123",
            "# noiseless_run = True"} <= header
    # the configured values still echo
    assert {"# seed = 4", "# replicates = 2", "# noise_levels = 50"} <= header
    assert [(row[3], row[6]) for row in rows] == [("inf", "40")] * 2


@pytest.mark.parametrize("command, text", [
    ("sweep", "[sweep]\nbsr_values = 1, inf\n"),
    ("simulate", "[signal]\nwidth_um = inf\n"),
])
def test_non_finite_config_number_is_exit_2(tmp_path, capsys, command, text):
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert "Traceback" not in err


def test_sweep_noiseless_saturates_above_unit_bsr(tmp_path):
    cfg = write_cfg(tmp_path, OPAQUE + """
[sweep]
kind = bsr
bsr_values = 1.0, 2.0
energies_kev = 10
replicates = 1
position_stride = 16
""")
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--noiseless"]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    assert all(row[3] == "inf" for row in rows)
    assert all(float(row[4]) == 100.0 for row in rows)


def test_inf_noise_level_matches_noiseless_flag(tmp_path, capsys):
    runs = {}
    for name, text, flags in (
        ("flag", SMALL_SWEEP, ["--noiseless"]),
        ("inf", SMALL_SWEEP.replace("noise_levels = 50", "noise_levels = inf"), []),
    ):
        cfg = write_cfg(tmp_path, text, name=f"{name}.cfg")
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), *flags]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        runs[name] = (body, capsys.readouterr().out)
    assert runs["flag"] == runs["inf"]
    assert all(row.split(",")[3] == "inf" for row in runs["inf"][0][1:])


def test_sweep_svg_flag_writes_plots(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_SWEEP)
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--svg"]) == 0
    assert (tmp_path / "grid_noise50.svg").is_file()


def test_patterning_sweep_prints_correlations(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
[aperture]
bit_size_zero_um = 5
bit_size_one_um = 5

[sweep]
kind = patterning
replicates = 2
position_stride = 16

[scan]
noise_levels = 10
seed = 9
""")
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "Spearman MSP~zeros" in stdout
    header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
    assert header.endswith("zeros_fraction,bit_flips")


def test_constant_msp_correlations_are_reported_undefined(tmp_path, capsys):
    # Opaque bars without noise find every window, so the MSPs are all
    # 100% and have no ranks to correlate; scipy would warn and give nan.
    cfg = write_cfg(tmp_path, OPAQUE + """
[sweep]
kind = patterning
replicates = 1
position_stride = 64
""")
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--noiseless"]) == 0
    stdout = capsys.readouterr().out
    assert "position 100.00%" in stdout and "position 0" not in stdout
    assert "noise inf: Spearman MSP~zeros undefined, MSP~flips undefined" in stdout


UNEQUAL_BITS = "[aperture]\nbit_size_zero_um = 15\nbit_size_one_um = 7.5\n"


@pytest.mark.parametrize("argv, extra", [
    (["sweep"], ""),
    (["sweep"], "[sweep]\nkind = aspect\n"),
    (["simulate"], ""),
    (["recover", "SERIES", "--truncate-bits", "4"], ""),
])
def test_unequal_bit_sizes_are_exit_2_where_one_bit_is_needed(tmp_path, capsys, argv, extra):
    cfg = write_cfg(tmp_path, UNEQUAL_BITS + extra)
    series = str(multi_pixel_file(tmp_path, (10,), peak=1000.0, seed=2))
    argv = [series if arg == "SERIES" else arg for arg in argv]
    out = tmp_path / "o.csv"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[aperture] bit_size_zero_um and bit_size_one_um differ" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_recover_without_truncation_runs_with_unequal_bit_sizes(tmp_path, capsys):
    # `pattern` honours them too: test_pattern_geometry_metadata_from_config
    cfg = write_cfg(tmp_path, UNEQUAL_BITS)
    series = multi_pixel_file(tmp_path, (10,), peak=1000.0, seed=2)
    out = tmp_path / "rec.csv"
    assert main(["recover", str(series), "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert recovered_positions(out)["010"][0] == "ok"


def test_sweep_cell_lines_count_flat_and_unconverged_trials(tmp_path, capsys, monkeypatch):
    import codedscan.metrics as metrics_module
    from codedscan.nnls import NumericalFailureError

    real = metrics_module.recover_batch

    def last_fails(profile, normalized, *args):
        results = real(profile, normalized, *args)
        return results[:-1] + [NumericalFailureError("no convergence", None)]

    monkeypatch.setattr(metrics_module, "recover_batch", last_fails)
    # Opaque bars: both 4-bit scans of window 230, which see only its five
    # bars (bits 230-234 are all ones), count nothing in each cell, and the
    # last row of the cells' shared batch belongs to the noise-100 cell.
    cfg = write_cfg(tmp_path, """
[optics]
mu_per_um = 1e9

[scan]
seed = 7
noise_levels = 10, 100

[sweep]
kind = scan_length
scan_bits_values = 4
energies_kev = 10
replicates = 2
position_stride = 46
""")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "grid.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("(k=12, se 14.43), 2 flat")
    assert lines[1].endswith("(k=12, se 14.43), 2 flat, 1 unconverged")
    assert lines[2] == (
        "warning: 5 trials scored as misses: 4 flat series, 1 unconverged NNLS solves"
    )


def test_sweep_rejects_bad_config_with_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[sweep]\nkind = resolution\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "kind" in capsys.readouterr().err


def test_sweep_missing_config_is_exit_2(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "ghost.cfg")]) == 2
    assert "not found" in capsys.readouterr().err


def test_sweep_unwritable_output_is_exit_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_SWEEP)
    out = tmp_path / "absent" / "grid.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_workers_must_be_positive(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_SWEEP)
    assert main(["sweep", "--config", str(cfg), "--workers", "0"]) == 2
    capsys.readouterr()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import and only the patterning
    # correlations need it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = "import sys, codedscan.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code == 2


# ------------------------------------------------------- simulate + recover


def test_simulate_recover_round_trip_is_exact(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OPAQUE)
    series = tmp_path / "series.csv"
    rec = tmp_path / "rec.csv"
    assert main(["simulate", "37", "--config", str(cfg), "--noiseless",
                 "--out", str(series)]) == 0
    assert main(["recover", str(series), "--config", str(cfg), "--out", str(rec)]) == 0
    capsys.readouterr()
    data = [l.split(",") for l in rec.read_text().splitlines()
            if l and not l.startswith("#")]
    row = dict(zip(data[0], data[1]))
    assert row["status"] == "ok"
    assert float(row["p_hat_um"]) == 370.0  # window 37 x 10 um bits
    recovered = np.array([float(row[f"s_{i}"]) for i in range(10)])
    assert np.linalg.norm(recovered - truth_signal()) < 1e-6


def test_simulate_defaults_to_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OPAQUE)
    assert main(["simulate", "--config", str(cfg), "--noiseless"]) == 0
    stdout = capsys.readouterr().out
    assert "pixel_id,scan_index,position_um,counts" in stdout
    assert "# window_start = 0" in stdout


def test_simulate_rejects_out_of_range_window(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OPAQUE)
    assert main(["simulate", "500", "--config", str(cfg)]) == 2
    assert "window" in capsys.readouterr().err


def multi_pixel_file(tmp_path, windows, peak, seed):
    """Noisy synthetic series for several true windows, via the library."""
    pattern = generate_de_bruijn(8)
    geometry = ApertureGeometry(10.0, 10.0, 10.0, pattern)
    profile = build_profile(geometry, OpticalContext(0.219, 0.0), 1.0)
    signal = make_gaussian_signal(10.0, 1.0)
    m, n = 81, 10
    shortfall = profile.index_of(max(windows) * 10.0) + m + n - 1 - len(profile)
    if shortfall > 0:
        profile = profile.pad_open(0, shortfall)
    series = {}
    for q in windows:
        p_star = profile.index_of(q * 10.0)
        matrix = build_coding_matrix(profile, p_star, m, n)
        scan = simulate(matrix, signal, peak, (seed, q))
        positions = profile.position_of(p_star + np.arange(m))
        series[f"{q:03d}"] = (positions, scan.raw)
    path = tmp_path / "pixels.csv"
    write_series_csv(path, series)
    return path


def recovered_positions(path):
    rows = [l.split(",") for l in path.read_text().splitlines()
            if l and not l.startswith("#")]
    head = rows[0]
    out = {}
    for row in rows[1:]:
        entry = dict(zip(head, row))
        out[entry["pixel_id"]] = (entry["status"],
                                  float(entry["p_hat_um"]) if entry["p_hat_um"] else None)
    return out


def test_recover_multi_pixel_and_worker_identity(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[scan]\nnoise_levels = 1000\n")
    series = multi_pixel_file(tmp_path, (0, 80, 200), peak=1000.0, seed=3)
    one, many = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(["recover", str(series), "--config", str(cfg), "--out", str(one)]) == 0
    assert main(["recover", str(series), "--config", str(cfg), "--out", str(many),
                 "--workers", "2"]) == 0
    capsys.readouterr()
    assert one.read_bytes() == many.read_bytes()
    got = recovered_positions(one)
    for q in (0, 80, 200):
        status, p_hat = got[f"{q:03d}"]
        assert status == "ok"
        assert abs(p_hat - q * 10.0) <= 10.0  # within one bit


def test_recover_worker_chunks_give_identical_csv_and_stdout(tmp_path, capsys, monkeypatch):
    # Two series lengths, a flat pixel, and stacks of at most two pixels:
    # each worker's chunk spans several stacks, in a different order than written.
    cfg = write_cfg(tmp_path, "[scan]\nnoise_levels = 100\n")
    series = multi_pixel_file(tmp_path, (3, 40, 80, 120, 160, 200, 240), peak=100.0, seed=9)
    pixels = read_pixel_series(series)
    for pixel_id in ("040", "160"):
        positions, counts = pixels[pixel_id]
        pixels[pixel_id] = (positions[:41], counts[:41])
    positions = pixels["080"][0]
    pixels["flat"] = (positions, np.zeros(positions.size))
    write_series_csv(series, pixels)
    monkeypatch.setattr("codedscan.recovery.STACK_ROWS", 2)
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        assert main(["recover", str(series), "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 0
        stdout = capsys.readouterr().out
        outputs.append((out.read_bytes(), stdout.replace(str(out), "OUT")))
    assert outputs[0] == outputs[1]
    statuses = {pid: status for pid, (status, _) in recovered_positions(tmp_path / "w1.csv").items()}
    assert statuses.pop("flat") == "flat"
    assert set(statuses.values()) == {"ok"} and len(statuses) == 7


def test_recover_truncation_loses_positions(tmp_path, capsys):
    # With only the first 4 bits of an 8-bit scan the windows stop being
    # unique, so more pixels land away from their true depth.
    windows = tuple(range(3, 249, 24))
    series = multi_pixel_file(tmp_path, windows, peak=10.0, seed=11)
    cfg = write_cfg(tmp_path, "[scan]\nnoise_levels = 10\n")
    full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
    assert main(["recover", str(series), "--config", str(cfg), "--out", str(full)]) == 0
    assert main(["recover", str(series), "--config", str(cfg), "--out", str(cut),
                 "--truncate-bits", "4"]) == 0
    capsys.readouterr()

    def mismatches(path):
        got = recovered_positions(path)
        bad = 0
        for q in windows:
            status, p_hat = got[f"{q:03d}"]
            if status != "ok" or abs(p_hat - q * 10.0) > 10.0:
                bad += 1
        return bad

    assert mismatches(cut) > mismatches(full)
    assert "# truncate_bits = 4" in cut.read_text()


def test_recover_flat_pixel_reported_and_skipped(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[scan]\nnoise_levels = 1000\n")
    series = multi_pixel_file(tmp_path, (40,), peak=1000.0, seed=5)
    text = series.read_text()
    flat = "\n".join(f"zzz,{i},{float(i)!r},0" for i in range(81))
    series.write_text(text + flat + "\n")
    out = tmp_path / "rec.csv"
    assert main(["recover", str(series), "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "pixel zzz: flat" in stdout
    assert "1 of 2 pixels not recovered" in stdout
    got = recovered_positions(out)
    assert got["zzz"][0] == "flat"
    assert got["040"][0] == "ok"


def test_recover_empty_file_is_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OPAQUE)
    bad = tmp_path / "empty.csv"
    bad.write_text("# nothing\n")
    assert main(["recover", str(bad), "--config", str(cfg)]) == 2
    assert "no data rows" in capsys.readouterr().err


def test_recover_malformed_row_is_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OPAQUE)
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0,0.0,5\n0,1,1.0\n")
    assert main(["recover", str(bad), "--config", str(cfg)]) == 2
    assert "columns" in capsys.readouterr().err


def test_recover_non_finite_position_is_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OPAQUE)
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0,0.0,5\n0,1,nan,6\n0,2,2.0,7\n0,3,3.0,8\n")
    assert main(["recover", str(bad), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2: non-finite position" in err
    assert "Traceback" not in err


def test_recover_field_past_the_csv_field_limit_is_exit_2(tmp_path, capsys):
    # csv.reader refuses fields over 131,072 characters with a _csv.Error
    cfg = write_cfg(tmp_path, OPAQUE)
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0,0.0," + "9" * 140_000 + "\n0,1,1.0,5\n")
    assert main(["recover", str(bad), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:1: non-finite counts" in err
    assert "Traceback" not in err


def test_recover_undecodable_byte_names_file_and_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OPAQUE)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"# scan\r\n0,0,0.0,5\r\n0,1,\xff1.0,6\r\n")
    assert main(["recover", str(bad), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}:3: not UTF-8 (invalid start byte)\n"


def test_recover_step_mismatch_is_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[scan]\ngrid_step_um = 0.5\n")
    series = multi_pixel_file(tmp_path, (10,), peak=1000.0, seed=2)
    assert main(["recover", str(series), "--config", str(cfg)]) == 2
    assert "does not match" in capsys.readouterr().err


def test_recover_overzealous_truncation_is_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OPAQUE)
    series = multi_pixel_file(tmp_path, (10,), peak=1000.0, seed=2)
    assert main(["recover", str(series), "--config", str(cfg),
                 "--truncate-bits", "0.5"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------- pattern


def test_pattern_prints_known_order_3(capsys):
    assert main(["pattern", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "00010111"
    assert "# order 3: 8 bits" in lines[1]
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 6  # string + windows


def test_pattern_order_8_has_249_stat_rows(capsys):
    assert main(["pattern", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 249
    assert rows[0].split() == ["0", "1.000000", "0"]


def test_pattern_geometry_metadata_from_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[aperture]\nbit_size_zero_um = 15\nbit_size_one_um = 7.5\n")
    assert main(["pattern", "8", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "2880 um long" in out  # 128 zeros x 15 + 128 ones x 7.5


def test_pattern_bad_order_is_exit_2(capsys):
    assert main(["pattern", "25"]) == 2
    capsys.readouterr()
