"""Command-line front end: sweeps, series recovery, pattern export, simulation."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import metrics
from .aperture import build_profile
from .codes import all_window_stats, generate_de_bruijn
from .config import ConfigError, ExperimentConfig, load_config
from .forward import build_coding_matrix, make_gaussian_signal, simulate
from .metrics import patterning_correlations, run_slices, scan_point_count
# Nothing here calls ``recover``; the benchmark's tracer test looks it up in this module.
from .recovery import RecoveryBatch, recover, recover_batch  # noqa: F401
from .reporting import (
    POSITION_TOLERANCE_UM,
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
            f"noise={c.noise_level:g}: position {cell.msp_position:.2f}% "
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
            print(f"noise {noise:g}: Spearman MSP~zeros {zeros}, MSP~flips {flips}")
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


def _recover_pixels(pixels, profile, probe) -> list:
    """``recover_batch`` of equal-length ``(pixel_id, counts)`` pixels, as a list of one."""
    return [recover_batch(profile, np.array([counts for _, counts in pixels]), probe)]


def run_recover_command(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    cfg = load_config(args.config)
    n_keep = None
    if args.truncate_bits is not None:
        bit = cfg.bit_size_um  # unequal bit sizes fail here, with their own message
        try:
            n_keep = scan_point_count(args.truncate_bits, bit, cfg.grid_step_um)
        except ValueError as exc:
            raise ConfigError(f"--truncate-bits: {exc}") from None
    series = read_pixel_series(args.series)
    pattern = generate_de_bruijn(cfg.pattern_order)
    profile = build_profile(cfg.geometry(pattern), cfg.optics(), cfg.grid_step_um, cfg.oversample)
    probe = cfg.probe()
    # Pixels of one series length are recovered as one batch per slice, so
    # the profile is pickled once per slice, not once per pixel.
    by_length = {}
    for pixel_id in sorted(series):
        positions, counts = series[pixel_id]
        step = float(positions[1] - positions[0])
        if abs(step - cfg.grid_step_um) > POSITION_TOLERANCE_UM:
            raise ConfigError(
                f"pixel {pixel_id}: scan step {step:g} um does not match "
                f"grid_step_um {cfg.grid_step_um:g}"
            )
        counts = counts[:n_keep]
        by_length.setdefault(counts.size, []).append((pixel_id, counts))
    profile = profile.pad_for_scan(max(by_length), len(probe))
    groups = list(by_length.values())
    parts = run_slices(_recover_pixels, groups, args.workers, profile, probe)
    pixel_ids = [pixel_id for group in groups for pixel_id, _ in group]
    order = sorted(range(len(pixel_ids)), key=pixel_ids.__getitem__)
    pixel_ids = [pixel_ids[i] for i in order]
    recovered = RecoveryBatch(*(np.concatenate([getattr(part, f.name) for part in parts])[order]
                                for f in fields(RecoveryBatch)))
    p_hat_um = profile.position_of(recovered.position)
    items = list(cfg.echo_items())
    if args.truncate_bits is not None:
        items.append(("truncate_bits", f"{args.truncate_bits:g}"))
    out = Path(args.out or cfg.out_csv or "recovery.csv")
    write_recovery_csv(out, pixel_ids, p_hat_um, recovered, items)
    sys.stdout.write("".join(
        f"pixel {pixel_id}: p_hat {p_hat:.3f} um, residual {residual:.3e}\n" if status == "ok"
        else f"pixel {pixel_id}: {status}\n"
        for pixel_id, p_hat, residual, status in zip(
            pixel_ids, p_hat_um.tolist(), recovered.residual.tolist(), recovered.status.tolist())
    ))
    skipped = int((recovered.status != "ok").sum())
    if skipped:
        print(f"warning: {skipped} of {len(recovered)} pixels not recovered")
    print(f"wrote {out}")
    return 0


def run_pattern_command(args) -> int:
    cfg = load_config(args.config) if args.config else None
    order = args.order
    if order is None:
        order = (cfg or ExperimentConfig).pattern_order
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
    seed = replace(cfg, seed=cfg.seed if args.seed is None else args.seed).seed
    bit = cfg.bit_size_um
    pattern = generate_de_bruijn(cfg.pattern_order)
    geometry = cfg.geometry(pattern)
    profile = build_profile(geometry, cfg.optics(), cfg.grid_step_um, cfg.oversample)
    signal = make_gaussian_signal(cfg.signal_width_um, cfg.grid_step_um)
    n_windows = len(pattern) - cfg.pattern_order + 1
    if not 0 <= args.window < n_windows:
        raise ConfigError(f"window must be in [0, {n_windows}), got {args.window}")
    m = scan_point_count(cfg.scan_bits, bit, cfg.grid_step_um)
    n = len(signal)
    profile = profile.pad_for_scan(m, n)
    # The grid cell nearest the window's first bit edge, which a sweep scores too.
    p_star = profile.index_of(geometry.bit_edges_um()[args.window])
    matrix = build_coding_matrix(profile, p_star, m, n)
    peak = cfg.noise_levels[0]
    series = simulate(matrix, signal, peak, (seed, args.window), noiseless=args.noiseless)
    positions = profile.position_of(p_star + np.arange(m))
    p_star_um = float(positions[0])
    items = list(cfg.echo_items()) + [
        ("window_start", str(args.window)),
        ("p_star_um", f"{p_star_um:g}"),
        ("peak_counts", f"{peak:g}"),
        ("effective_seed", str(seed)),
        ("noiseless_run", str(args.noiseless)),
    ]
    payload = {"0": (positions, series.raw)}
    if args.out:
        write_series_csv(args.out, payload, items)
        print(f"wrote {args.out} ({m} samples, window {args.window} at {p_star_um:g} um)")
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
    except MemoryError as exc:  # sizes past what the host can allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
