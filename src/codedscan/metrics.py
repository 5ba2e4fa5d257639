"""Trial scoring, MSP aggregation, and the design-parameter sweep harness."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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
    """One grid cell: fixed physics, one noise level, and its trial block."""

    index: int
    param_name: str
    param_value: float
    energy_or_angle: float
    noise_level: float
    mu_per_um: float
    incidence_angle_deg: float
    bit_size_um: float
    thickness_um: float
    scan_bits: float
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
# and the run's pattern), and the groups under each value (beam energies in
# keV, or incidence angles in degrees).
_AXES = {
    "bsr": ("bsr", lambda c, pattern: c.bsr_values, lambda c: c.energies_kev),
    "scan_length": ("scan_bits", lambda c, pattern: c.scan_bits_values, lambda c: c.energies_kev),
    "aspect": ("aspect", lambda c, pattern: c.aspect_values, lambda c: c.angles_deg),
    "patterning": (
        "subseq_start",
        lambda c, pattern: tuple(map(float, _window_starts(pattern, c))),
        lambda c: (c.energy_kev,),
    ),
}
SWEEP_KINDS = tuple(_AXES)


def _cells(config: ExperimentConfig, param_name: str, values, groups) -> list:
    """Cells in result order: swept value, then group, then noise level.

    The swept value replaces the configured one: the bit size (``bsr``),
    the scan travel (``scan_bits``), the bar thickness as a multiple of the
    bit (``aspect``) or the scored window (``subseq_start``). The group
    replaces the energy, or the incidence angle on the aspect axis.
    """
    kind = config.sweep_kind
    cells = []
    for value in values:
        for group in groups:
            bsr = value if kind == "bsr" else config.bsr
            bit = bsr * config.signal_width_um
            scan_bits = value if kind == "scan_length" else config.scan_bits
            thickness = value * bit if kind == "aspect" else config.thickness_um
            energy, angle = (
                (config.energy_kev, group) if kind == "aspect"
                else (group, config.incidence_angle_deg)
            )
            if bit < config.grid_step_um:
                raise ValueError(f"BSR {bsr:g} puts the bit below the grid step")
            if scan_bits < 1:
                raise ValueError(f"scan length of {scan_bits:g} bits is below one bit")
            if not 0 <= angle < 90:
                raise ValueError(f"incidence angle {angle:g} outside [0, 90)")
            if not thickness > 0:
                raise ValueError(f"bar thickness must be positive, got {thickness:g} um")
            mu = config.mu_at(energy)
            for noise in config.noise_levels:
                cells.append(
                    SweepCell(
                        len(cells), param_name, float(value), group, noise, mu, angle,
                        bit, thickness, scan_bits,
                        window_start=int(value) if kind == "patterning" else None,
                    )
                )
    return cells


@lru_cache(maxsize=8)
def _cell_profile(
    pattern: Pattern,
    bit_size_um: float,
    thickness_um: float,
    mu_per_um: float,
    angle_deg: float,
    grid_step_um: float,
    oversample: int,
):
    """Unpadded profile of a sweep cell's aperture; cells that differ only
    in noise level or scored window share it. ``run_sweep`` empties the memo.
    """
    geometry = ApertureGeometry(bit_size_um, bit_size_um, thickness_um, pattern)
    context = OpticalContext(mu_per_um, angle_deg)
    return build_profile(geometry, context, grid_step_um, oversample)


def _run_cell(config: ExperimentConfig, cell: SweepCell, pattern: Pattern) -> CellResult:
    profile = _cell_profile(
        pattern, cell.bit_size_um, cell.thickness_um, cell.mu_per_um,
        cell.incidence_angle_deg, config.grid_step_um, config.oversample,
    )
    truth_signal = make_gaussian_signal(config.signal_width_um, config.grid_step_um)
    probe = config.probe()
    s_true = truth_signal.unit_sum().values
    m = scan_point_count(cell.scan_bits, cell.bit_size_um, config.grid_step_um)
    n = len(truth_signal)
    if cell.window_start is None:
        starts = _window_starts(pattern, config)
    else:
        starts = (cell.window_start,)
    # Pad the open region past the mask so the deepest start still fits.
    profile = profile.extend_open(profile.index_of(max(starts) * cell.bit_size_um) + m + n - 1)
    criteria = SuccessCriteria(config.epsilon, config.position_margin_bits)
    # The +-2*sqrt(mean) level corrections assume Poisson spread; exact
    # series normalize by plain extrema.
    mode = "minmax" if math.isinf(cell.noise_level) else config.normalization
    normalized = []
    p_stars = []
    failures = 0
    for q in starts:
        p_star = profile.index_of(q * cell.bit_size_um)
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
                score(result, (p_star, s_true), criteria, cell.bit_size_um, config.grid_step_um)
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
    _cell_profile.cache_clear()
    pattern = generate_de_bruijn(config.pattern_order)
    param_name, values, groups = _AXES[config.sweep_kind]
    param_values = tuple(values(config, pattern))
    cells = _cells(config, param_name, param_values, groups(config))
    if workers <= 1 or len(cells) <= 1:
        results = tuple(_run_cell(config, cell, pattern) for cell in cells)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = tuple(
                pool.map(_run_cell, [config] * len(cells), cells, [pattern] * len(cells))
            )
    return SweepResult(
        config.sweep_kind, param_name, param_values, config.seed, config.replicates, results
    )


def patterning_correlations(result: SweepResult) -> dict:
    """Spearman rank correlation of per-subsequence MSP_position against
    window composition: ``{noise_level: (rho_zeros, rho_flips)}``.
    """
    if result.kind != "patterning":
        raise ValueError("correlations are defined for patterning sweeps only")
    from scipy.stats import spearmanr  # slow to import; only this function needs it

    out = {}
    for noise in sorted({c.cell.noise_level for c in result.cells}):
        rows = [c for c in result.cells if c.cell.noise_level == noise]
        if any(c.zeros_fraction is None or c.bit_flips is None for c in rows):
            raise ValueError("patterning cells are missing the composition join")
        msps = [c.msp_position for c in rows]
        rho_zeros = spearmanr(msps, [c.zeros_fraction for c in rows])[0]
        rho_flips = spearmanr(msps, [c.bit_flips for c in rows])[0]
        out[noise] = (float(rho_zeros), float(rho_flips))
    return out
