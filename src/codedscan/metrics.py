"""Cell scoring and the design-parameter sweep harness."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .aperture import build_profile
from .codes import Pattern, generate_de_bruijn, window_stats
from .forward import _counts, build_coding_matrix, make_gaussian_signal
# Nothing here calls ``recover``; the benchmark's tracer test looks it up in this module.
from .recovery import RecoveryBatch, recover, recover_batch  # noqa: F401

if TYPE_CHECKING:
    from .config import ExperimentConfig


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: its config, one noise level, and its trial block.

    ``config`` is the run's config with the fields the cell's axis sets
    replaced; its aperture, optics and scan come from it alone.
    """

    index: int
    param_name: str
    param_value: float
    energy_or_angle: float
    noise_level: float
    config: ExperimentConfig
    window_start: int | None = None  # patterning: score this subsequence only


@dataclass(frozen=True)
class CellResult:
    """Aggregated MSPs for one cell, with the composition join for patterning."""

    cell: SweepCell
    msp_position: float
    msp_shape: float
    k: int
    stderr: float
    flat: int  # trials whose series counted nothing (all zero)
    failed_nnls: int  # trials whose NNLS solve did not converge
    zeros_fraction: float | None = None
    bit_flips: int | None = None

    @property
    def failures(self) -> int:
        """Trials scored as misses without a recovery."""
        return self.flat + self.failed_nnls


@dataclass(frozen=True)
class SweepResult:
    kind: str
    param_name: str
    cells: tuple

    def __post_init__(self):
        for c in self.cells:
            if not (0.0 <= c.msp_position <= 100.0 and 0.0 <= c.msp_shape <= 100.0):
                raise ValueError("MSP outside [0, 100]")


def score(recovered: RecoveryBatch, truth: tuple, config: ExperimentConfig) -> tuple:
    """Grade a cell's recoveries against ground truth by ``config``'s [criteria].

    ``recovered`` is the ``recover_batch`` record of the trials, and
    ``truth`` is ``(p_stars, s_true)``: each trial's true offset on the
    config's grid, and the true signal on the recovered signals' grid, in
    unit-sum gauge. Returns ``(position, shape)``, one bool per row; a row
    whose status is not ok (a flat series or a failed solve) fails both. The
    position margin counts in the config's one bit size. Shape success
    requires position success first: the relative error of a shape fitted at
    the wrong depth is not meaningful.
    """
    p_stars, s_true = truth
    if len(p_stars) != len(recovered):
        raise ValueError(f"{len(recovered)} recoveries but {len(p_stars)} true offsets")
    s_true = np.asarray(s_true, dtype=float)
    denom = float(np.linalg.norm(s_true))
    if denom == 0.0:
        raise ValueError("true signal has zero norm")
    if (n := recovered.signal.shape[1]) != s_true.size:
        raise ValueError(f"signal length mismatch: recovered {n}, true {s_true.size}")
    ok = recovered.status == "ok"
    offsets = np.abs(recovered.position[ok] - np.asarray(p_stars)[ok]).astype(float)
    diff = recovered.signal[ok] - s_true
    # vecdot sums each row as np.linalg.norm sums a vector, so every norm
    # has the per-trial bits; norm(axis=1) sums in another order.
    relative = np.sqrt(np.vecdot(diff, diff)) / denom
    hit = offsets * config.grid_step_um <= config.position_margin_bits * config.bit_size_um
    position, shape = np.zeros((2, len(recovered)), dtype=bool)
    position[ok] = hit
    shape[ok] = hit & (relative < config.epsilon)
    return position, shape


def scan_point_count(scan_bits: float, bit_size_um: float, grid_step_um: float) -> int:
    """Scan points for a travel of ``scan_bits`` bits, both endpoints sampled."""
    if not (math.isfinite(scan_bits) and scan_bits >= 1):
        raise ValueError(f"scan length must be a finite number of bits, at least one, got {scan_bits:g}")
    steps = scan_bits * bit_size_um / grid_step_um
    if not math.isfinite(steps):
        raise ValueError(f"scan length of {scan_bits:g} bits is not a finite number of points")
    return int(round(steps)) + 1


def _window_starts(pattern, config: ExperimentConfig) -> range:
    return range(0, len(pattern) - config.pattern_order + 1, config.position_stride)


# Per sweep kind: the swept parameter's name, its values (from the config
# and the run's pattern), the groups under each value (beam energies in
# keV, or incidence angles in degrees), and the config fields that one
# (value, group) cell replaces. A patterning cell keeps the config and
# scores only the window its value names.
_AXES = {
    "bsr": (
        "bsr", lambda c, pattern: c.bsr_values, lambda c: c.energies_kev,
        lambda c, v, g: dict(bit_size_zero_um=v * c.signal_width_um,
                             bit_size_one_um=v * c.signal_width_um, energy_kev=g),
    ),
    "scan_length": (
        "scan_bits", lambda c, pattern: c.scan_bits_values, lambda c: c.energies_kev,
        lambda c, v, g: dict(scan_bits=v, energy_kev=g),
    ),
    "aspect": (
        "aspect", lambda c, pattern: c.aspect_values, lambda c: c.angles_deg,
        lambda c, v, g: dict(thickness_um=v * c.bit_size_um, incidence_angle_deg=g),
    ),
    "patterning": (
        "subseq_start", lambda c, pattern: tuple(map(float, _window_starts(pattern, c))),
        lambda c: (c.energy_kev,), lambda c, v, g: {},
    ),
}
SWEEP_KINDS = tuple(_AXES)


def _cells(config: ExperimentConfig, param_name: str, values, groups, replaced) -> list:
    """Cells in result order: swept value, then group, then noise level."""
    cells = []
    for value in values:
        for group in groups:
            changes = replaced(config, value, group)
            # A cell that replaces no field keeps the run's config object.
            cell_config = replace(config, **changes) if changes else config
            cell_config.optics()  # a missing attenuation entry stops the run before any trial
            for noise in config.noise_levels:
                cells.append(
                    SweepCell(
                        len(cells), param_name, float(value), group, noise, cell_config,
                        window_start=int(value) if config.sweep_kind == "patterning" else None,
                    )
                )
    return cells


def _run_cells(cells: list, pattern: Pattern) -> list:
    """``CellResult`` of each of ``cells``, which share one config.

    The cells share one profile, padded as ``recover`` pads it, so a sweep
    searches the offsets that ``recover`` searches. Their trials are drawn
    by ``_simulate_cells``, each cell from its own stream, recovered in one
    ``recover_batch`` call on their rows in cell order and graded by one
    ``score`` call; row i is ``recover`` of row i alone, so each result is
    as it would be for the cell by itself.
    """
    config = cells[0].config
    profile = build_profile(
        config.geometry(pattern), config.optics(), config.grid_step_um, config.oversample
    )
    truth_signal = make_gaussian_signal(config.signal_width_um, config.grid_step_um)
    s_true = truth_signal.unit_sum().values
    m = scan_point_count(config.scan_bits, config.bit_size_um, config.grid_step_um)
    profile = profile.pad_for_scan(m, len(truth_signal))
    rows, p_stars = _simulate_cells(cells, pattern, profile, truth_signal, m)
    recovered = recover_batch(profile, rows, config.probe())
    position, shape = score(recovered, (p_stars, s_true), config)
    # Every cell has as many rows as the others.
    parts = (np.split(column, len(cells)) for column in (position, shape, recovered.status))
    return [_score_cell(cell, pattern, *part) for cell, *part in zip(cells, *parts)]


def _simulate_cells(cells, pattern, profile, truth_signal, m: int) -> tuple:
    """``(counts, p_stars)`` of ``cells``: their series as counted, stacked
    in cell order, and the true offset of each series.

    A cell scans every window of the config, or the one it scores; window q
    starts at bit edge q of the mask, as in ``codedscan simulate``. The
    coding matrices of the config's windows are built once and their
    intensities computed once. Each cell then draws its (replicates,
    windows, M) counts replicate-major from its own stream,
    ``trial_rng(seed, cell)``, in one Poisson call, so its rows do not
    depend on the cells drawn with it, and raising ``replicates`` only
    appends rows. Every cell has as many windows as the others, so the
    rows split evenly back to the cells.
    """
    config = cells[0].config
    starts = list(_window_starts(pattern, config))
    edges = config.geometry(pattern).bit_edges_um()
    offsets = np.array([profile.index_of(edges[q]) for q in starts])
    intensity = build_coding_matrix(profile, offsets, m, len(truth_signal)) @ truth_signal.values
    blocks, p_stars = [], []
    for cell in cells:
        rows = slice(None) if cell.window_start is None else [starts.index(cell.window_start)]
        scans = np.tile(intensity[rows], (config.replicates, 1))  # replicate-major
        blocks.append(_counts(scans, truth_signal, cell.noise_level, (config.seed, cell.index)))
        p_stars.append(np.tile(offsets[rows], config.replicates))
    return np.concatenate(blocks, dtype=float), np.concatenate(p_stars)


def _score_cell(cell: SweepCell, pattern: Pattern, position, shape, status):
    """One cell's ``CellResult`` from its trials' ``score`` grades
    ``position`` and ``shape`` and their ``recover_batch`` ``status``. A
    flat series or a failed solve counts as a miss."""
    config = cell.config
    k = len(status)
    flat, failed_nnls = int((status == "flat").sum()), int((status == "failed").sum())
    stats = None
    if cell.window_start is not None:
        stats = window_stats(pattern, cell.window_start, config.pattern_order)
    return CellResult(
        cell, 100.0 * int(position.sum()) / k, 100.0 * int(shape.sum()) / k, k,
        100.0 * math.sqrt(0.25 / k), flat, failed_nnls,
        None if stats is None else stats.zeros_fraction,
        None if stats is None else stats.bit_flips,
    )


def run_slices(fn, groups, workers: int, *shared) -> list:
    """``fn(slice, *shared)`` over contiguous slices of each of ``groups``,
    its results joined in slice order.

    ``workers`` is capped at ``os.cpu_count()``, and a slice holds at most
    ``ceil(items / workers)`` items, counted over all groups. The slices run
    here with one worker or one slice, else in a pool of one process per
    slice, at most ``workers``.
    """
    workers = min(workers, os.cpu_count() or 1)
    size = -(-sum(map(len, groups)) // max(workers, 1))
    slices = [
        group[start : start + size] for group in groups for start in range(0, len(group), size)
    ]
    if workers <= 1 or len(slices) <= 1:
        done = [fn(part, *shared) for part in slices]
    else:
        # Imported here: it loads multiprocessing, which only a pool needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(slices))) as pool:
            done = list(pool.map(fn, slices, *([arg] * len(slices) for arg in shared)))
    return [item for part in done for item in part]


def run_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """MSP grid of the configured sweep kind.

    Cells that share a config (they differ only in noise level or scored
    window) form one group, run slice by slice by ``_run_cells`` through
    ``run_slices``. Each cell draws its trials from one stream keyed by
    (seed, cell), replicate-major, and a slice never splits a cell, so any
    split or execution order reproduces the same numbers; merging in cell
    order keeps output stable.
    """
    config.bit_size_um  # no sweep kind honours unequal [aperture] bit sizes
    pattern = generate_de_bruijn(config.pattern_order)
    param_name, values, groups, replaced = _AXES[config.sweep_kind]
    by_config = {}
    for cell in _cells(config, param_name, values(config, pattern), groups(config), replaced):
        by_config.setdefault(cell.config, []).append(cell)
    results = run_slices(_run_cells, list(by_config.values()), workers, pattern)
    results.sort(key=lambda r: r.cell.index)
    return SweepResult(config.sweep_kind, param_name, tuple(results))


def patterning_correlations(result: SweepResult) -> dict:
    """Spearman rank correlation of per-subsequence MSP_position against
    window composition: ``{noise_level: (rho_zeros, rho_flips)}``.

    A correlation is None where it is undefined: where the MSPs, or the
    composition measure, are the same in every cell.
    """
    if result.kind != "patterning":
        raise ValueError("correlations are defined for patterning sweeps only")

    def ranks(x):  # 1..n, each tie sharing the mean of its ranks, as scipy's spearmanr ranks
        _, inverse, ties = np.unique(x, return_inverse=True, return_counts=True)
        return (np.cumsum(ties) - (ties - 1) / 2.0)[inverse]

    def rho(x, y):
        if len(set(x)) < 2 or len(set(y)) < 2:
            return None
        return float(np.corrcoef(np.column_stack([ranks(x), ranks(y)]), rowvar=False)[1, 0])

    out = {}
    for noise in sorted({c.cell.noise_level for c in result.cells}):
        rows = [c for c in result.cells if c.cell.noise_level == noise]
        if any(c.zeros_fraction is None or c.bit_flips is None for c in rows):
            raise ValueError("patterning cells are missing the composition join")
        msps = [c.msp_position for c in rows]
        out[noise] = (
            rho(msps, [c.zeros_fraction for c in rows]),
            rho(msps, [c.bit_flips for c in rows]),
        )
    return out
