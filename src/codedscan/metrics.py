"""Trial scoring, MSP aggregation, and the design-parameter sweep harness."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .aperture import ApertureGeometry, OpticalContext, build_profile
from .codes import Pattern, generate_de_bruijn, window_stats
from .forward import build_coding_matrix, make_gaussian_signal, simulate
from .nnls import NumericalFailureError
# Nothing here calls ``recover``; the benchmark's tracer test looks it up in this module.
from .recovery import FlatSeriesError, RecoveryResult, normalize, recover, recover_batch  # noqa: F401

if TYPE_CHECKING:
    from .config import ExperimentConfig


@dataclass(frozen=True)
class SuccessCriteria:
    """Tolerances deciding whether one trial counts as a success."""

    epsilon: float = 0.02  # relative L2 bound on the recovered shape
    position_margin_bits: float = 1.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.position_margin_bits < 0:
            raise ValueError("position_margin_bits must be >= 0")


@dataclass(frozen=True)
class TrialOutcome:
    """Binary success indicators for one recovery trial."""

    position_success: int
    signal_success: int

    def __post_init__(self):
        if self.position_success not in (0, 1) or self.signal_success not in (0, 1):
            raise ValueError("success indicators must be 0 or 1")


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
    failures: int
    zeros_fraction: float | None = None
    bit_flips: int | None = None


@dataclass(frozen=True)
class SweepResult:
    kind: str
    param_name: str
    param_values: tuple
    seed: int
    replicates: int
    cells: tuple

    def __post_init__(self):
        for c in self.cells:
            if not (0.0 <= c.msp_position <= 100.0 and 0.0 <= c.msp_shape <= 100.0):
                raise ValueError("MSP outside [0, 100]")


def score(
    result: RecoveryResult,
    truth: tuple,
    criteria: SuccessCriteria,
    bit_size_um: float,
    grid_step_um: float,
) -> TrialOutcome:
    """Grade one recovery against ground truth.

    ``truth`` is ``(p_star, s_true)`` with ``p_star`` in grid offsets and
    ``s_true`` on the recovered signal's grid, in unit-sum gauge. Shape
    success requires position success first: the relative error of a shape
    fitted at the wrong depth is not meaningful.
    """
    p_star, s_true = truth
    s_true = np.asarray(s_true, dtype=float)
    if result.signal.size != s_true.size:
        raise ValueError(
            f"signal length mismatch: recovered {result.signal.size}, true {s_true.size}"
        )
    denom = float(np.linalg.norm(s_true))
    if denom == 0.0:
        raise ValueError("true signal has zero norm")
    offset_um = abs(result.position - p_star) * grid_step_um
    position_success = int(offset_um <= criteria.position_margin_bits * bit_size_um)
    relative = float(np.linalg.norm(result.signal - s_true)) / denom
    signal_success = int(position_success == 1 and relative < criteria.epsilon)
    return TrialOutcome(position_success, signal_success)


def msp(outcomes) -> tuple:
    """Mean Success Percentage (position, shape) over a trial collection."""
    seq = list(outcomes)
    if not seq:
        raise ValueError("msp needs at least one outcome")
    position = 100.0 * sum(o.position_success for o in seq) / len(seq)
    shape = 100.0 * sum(o.signal_success for o in seq) / len(seq)
    return position, shape


def scan_point_count(scan_bits: float, bit_size_um: float, grid_step_um: float) -> int:
    """Scan points for a travel of ``scan_bits`` bits, both endpoints sampled."""
    if scan_bits < 1:
        raise ValueError("scan length must be at least one bit")
    return int(round(scan_bits * bit_size_um / grid_step_um)) + 1


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
            cell_config = replace(config, **replaced(config, value, group))
            cell_config.optics()  # a missing attenuation entry stops the run before any trial
            for noise in config.noise_levels:
                cells.append(
                    SweepCell(
                        len(cells), param_name, float(value), group, noise, cell_config,
                        window_start=int(value) if config.sweep_kind == "patterning" else None,
                    )
                )
    return cells


@lru_cache(maxsize=8)
def _cell_profile(
    geometry: ApertureGeometry, optics: OpticalContext, grid_step_um: float, oversample: int
):
    """Unpadded profile of a sweep cell's aperture; cells that differ only
    in noise level or scored window share it. ``run_sweep`` empties the memo.
    """
    return build_profile(geometry, optics, grid_step_um, oversample)


def _run_cell(cell: SweepCell, pattern: Pattern) -> CellResult:
    config = cell.config
    bit = config.bit_size_um
    profile = _cell_profile(
        config.geometry(pattern), config.optics(), config.grid_step_um, config.oversample
    )
    truth_signal = make_gaussian_signal(config.signal_width_um, config.grid_step_um)
    probe = config.probe()
    s_true = truth_signal.unit_sum().values
    m = scan_point_count(config.scan_bits, bit, config.grid_step_um)
    n = len(truth_signal)
    if cell.window_start is None:
        starts = _window_starts(pattern, config)
    else:
        starts = (cell.window_start,)
    # Pad the open region past the mask so the deepest start still fits.
    profile = profile.extend_open(profile.index_of(max(starts) * bit) + m + n - 1)
    criteria = SuccessCriteria(config.epsilon, config.position_margin_bits)
    # The +-2*sqrt(mean) level corrections assume Poisson spread; exact
    # series normalize by plain extrema.
    mode = "minmax" if math.isinf(cell.noise_level) else config.normalization
    normalized = []
    p_stars = []
    failures = 0
    for q in starts:
        p_star = profile.index_of(q * bit)
        matrix = build_coding_matrix(profile, p_star, m, n)
        for r in range(config.replicates):
            series = simulate(
                matrix, truth_signal, cell.noise_level, (config.seed, cell.index, q, r)
            )
            try:
                normalized.append(normalize(series, mode))
            except FlatSeriesError:
                failures += 1
                continue
            p_stars.append(p_star)
    outcomes = [TrialOutcome(0, 0)] * failures
    results = recover_batch(profile, normalized, probe, config.max_rounds)
    for p_star, result in zip(p_stars, results):
        if isinstance(result, NumericalFailureError):
            failures += 1
            outcomes.append(TrialOutcome(0, 0))
        else:
            outcomes.append(
                score(result, (p_star, s_true), criteria, bit, config.grid_step_um)
            )
    position, shape = msp(outcomes)
    k = len(outcomes)
    stats = None
    if cell.window_start is not None:
        stats = window_stats(pattern, cell.window_start, config.pattern_order)
    return CellResult(
        cell, position, shape, k, 100.0 * math.sqrt(0.25 / k), failures,
        None if stats is None else stats.zeros_fraction,
        None if stats is None else stats.bit_flips,
    )


def run_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """MSP grid of the configured sweep kind, one cell per worker task.

    Trials are keyed by (seed, cell, window, replicate), so any execution
    order reproduces the same numbers; merging in cell order keeps output
    stable.
    """
    config.bit_size_um  # no sweep kind honours unequal [aperture] bit sizes
    _cell_profile.cache_clear()
    pattern = generate_de_bruijn(config.pattern_order)
    param_name, values, groups, replaced = _AXES[config.sweep_kind]
    param_values = tuple(values(config, pattern))
    cells = _cells(config, param_name, param_values, groups(config), replaced)
    if workers <= 1 or len(cells) <= 1:
        results = tuple(_run_cell(cell, pattern) for cell in cells)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = tuple(pool.map(_run_cell, cells, [pattern] * len(cells)))
    return SweepResult(
        config.sweep_kind, param_name, param_values, config.seed, config.replicates, results
    )


def patterning_correlations(result: SweepResult) -> dict:
    """Spearman rank correlation of per-subsequence MSP_position against
    window composition: ``{noise_level: (rho_zeros, rho_flips)}``.

    A correlation is None where it is undefined: where the MSPs, or the
    composition measure, are the same in every cell.
    """
    if result.kind != "patterning":
        raise ValueError("correlations are defined for patterning sweeps only")
    from scipy.stats import spearmanr  # slow to import; only this function needs it

    def rho(x, y):
        return float(spearmanr(x, y)[0]) if len(set(x)) > 1 and len(set(y)) > 1 else None

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
