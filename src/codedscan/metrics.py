"""Trial scoring, MSP aggregation, and the design-parameter sweep harness."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .aperture import build_profile
from .codes import Pattern, generate_de_bruijn, window_stats
from .forward import build_coding_matrix, make_gaussian_signal, simulate
from .nnls import NumericalFailureError
# Nothing here calls ``recover``; the benchmark's tracer test looks it up in this module.
from .recovery import RecoveryResult, normalize, recover, recover_batch  # noqa: F401

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


def _run_cells(cells: list, pattern: Pattern) -> list:
    """``CellResult`` of each of ``cells``, which share one config.

    Cells that also pad the profile to one length (all of them, but for the
    deepest patterning windows) are recovered in one ``recover_batch`` call;
    its row i is ``recover`` of row i alone, so grouping leaves every result
    as it would be for the cell by itself.
    """
    config = cells[0].config
    bit = config.bit_size_um
    profile = build_profile(
        config.geometry(pattern), config.optics(), config.grid_step_um, config.oversample
    )
    truth_signal = make_gaussian_signal(config.signal_width_um, config.grid_step_um)
    s_true = truth_signal.unit_sum().values
    m = scan_point_count(config.scan_bits, bit, config.grid_step_um)
    n = len(truth_signal)
    groups = {}  # padded profile length -> (padded profile, [(cell, its starts)])
    for cell in cells:
        if cell.window_start is None:
            starts = _window_starts(pattern, config)
        else:
            starts = (cell.window_start,)
        # Pad the open region past the mask so the deepest start still fits.
        padded = profile.extend_open(profile.index_of(max(starts) * bit) + m + n - 1)
        groups.setdefault(len(padded), (padded, []))[1].append((cell, starts))
    results = {}
    for padded, members in groups.values():
        trials = [
            _simulate_cell(cell, starts, padded, truth_signal, m) for cell, starts in members
        ]
        rows = np.concatenate([normalized for normalized, _, _ in trials])
        recovered = iter(recover_batch(padded, rows, config.probe(), config.max_rounds))
        for (cell, _), (normalized, p_stars, flat) in zip(members, trials):
            results[cell.index] = _score_cell(
                cell, pattern, s_true, p_stars, flat, [next(recovered) for _ in normalized]
            )
    return [results[cell.index] for cell in cells]


def _simulate_cell(cell: SweepCell, starts, profile, truth_signal, m: int) -> tuple:
    """``(normalized, p_stars, flat)``: the cell's unit-peak series with the
    true offset of each, and the number of flat (all-zero) series left out.

    Each window's intensity is computed once; replicate r of window q is
    drawn from its own stream, keyed (seed, cell, q, r).
    """
    config = cell.config
    offsets = np.array([profile.index_of(q * config.bit_size_um) for q in starts])
    matrices = build_coding_matrix(profile, offsets, m, len(truth_signal))
    keys = [(config.seed, cell.index, q, r) for q in starts for r in range(config.replicates)]
    normalized, flat = normalize(simulate(matrices, truth_signal, cell.noise_level, keys))
    p_stars = np.repeat(offsets, config.replicates)[~flat].tolist()
    return normalized, p_stars, int(flat.sum())


def _score_cell(cell: SweepCell, pattern: Pattern, s_true, p_stars, flat: int, recovered):
    """One cell's ``CellResult``: its recoveries, a result or a
    ``NumericalFailureError`` per series, scored against ``s_true`` at the
    true offsets ``p_stars``, with ``flat`` more trials scored as misses."""
    config = cell.config
    criteria = SuccessCriteria(config.epsilon, config.position_margin_bits)
    outcomes = [TrialOutcome(0, 0)] * flat
    failed_nnls = 0
    for p_star, result in zip(p_stars, recovered):
        if isinstance(result, NumericalFailureError):
            failed_nnls += 1
            outcomes.append(TrialOutcome(0, 0))
        else:
            outcomes.append(
                score(result, (p_star, s_true), criteria, config.bit_size_um, config.grid_step_um)
            )
    position, shape = msp(outcomes)
    k = len(outcomes)
    stats = None
    if cell.window_start is not None:
        stats = window_stats(pattern, cell.window_start, config.pattern_order)
    return CellResult(
        cell, position, shape, k, 100.0 * math.sqrt(0.25 / k), flat, failed_nnls,
        None if stats is None else stats.zeros_fraction,
        None if stats is None else stats.bit_flips,
    )


def run_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """MSP grid of the configured sweep kind.

    Cells that share a config (they differ only in noise level or scored
    window) form one task, run by ``_run_cells``; with ``workers`` > 1 a
    task is a contiguous slice of such cells, at most ``ceil(cells /
    workers)`` of them. Trials are keyed by (seed, cell, window,
    replicate), so any split or execution order reproduces the same
    numbers; merging in cell order keeps output stable.
    """
    config.bit_size_um  # no sweep kind honours unequal [aperture] bit sizes
    pattern = generate_de_bruijn(config.pattern_order)
    param_name, values, groups, replaced = _AXES[config.sweep_kind]
    param_values = tuple(values(config, pattern))
    cells = _cells(config, param_name, param_values, groups(config), replaced)
    by_config = {}
    for cell in cells:
        by_config.setdefault(cell.config, []).append(cell)
    size = -(-len(cells) // max(workers, 1))
    tasks = [
        group[start : start + size]
        for group in by_config.values()
        for start in range(0, len(group), size)
    ]
    if workers <= 1 or len(tasks) <= 1:
        done = [_run_cells(task, pattern) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_cells, tasks, [pattern] * len(tasks)))
    results = sorted((r for task in done for r in task), key=lambda r: r.cell.index)
    return SweepResult(
        config.sweep_kind, param_name, param_values, config.seed, config.replicates,
        tuple(results),
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
