"""Recover beam position and shape from a scan series.

The pipeline: estimate fully-blocked/fully-open count levels from the
series extrema, rescale counts into transmissivity units, locate the scan
offset by exhaustive template matching against every feasible profile
window, then solve a non-negative least-squares problem for the beam
shape at that offset, optionally alternating the two steps.

Normalized counts express the fully-open level as 1, so the implied beam
shape integrates (sums) to 1; ``recover`` rescales its search template
accordingly and returns the shape in those unit-sum units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aperture import TransmissivityProfile
from .forward import ScanSeries, Signal, build_coding_matrix
from .nnls import nnls


class FlatSeriesError(ValueError):
    """Series carries no usable modulation (open level <= blocked level)."""


@dataclass(frozen=True)
class NormalizationEstimate:
    """Estimated mean counts at fully-blocked (mu0) and fully-open (mu1) bits."""

    mu0: float
    mu1: float


@dataclass(frozen=True)
class RecoveryResult:
    position: int
    signal: np.ndarray
    residual: float
    rounds: int


def estimate_levels(series: ScanSeries, mode: str = "corrected") -> NormalizationEstimate:
    """Blocked/open count levels from the series extrema.

    ``corrected`` de-biases Poisson extremes (the minimum of many draws
    undershoots its mean by about two standard deviations, the maximum
    overshoots): mu0 = d_min + 2*sqrt(d_min), mu1 = d_max - 2*sqrt(d_max).
    ``minmax`` uses the plain extrema, appropriate for noiseless series.
    """
    if mode not in ("corrected", "minmax"):
        raise ValueError(f"unknown normalization mode {mode!r}")
    d_min = float(series.raw.min())
    d_max = float(series.raw.max())
    if mode == "corrected":
        return NormalizationEstimate(
            mu0=d_min + 2.0 * math.sqrt(d_min), mu1=d_max - 2.0 * math.sqrt(d_max)
        )
    return NormalizationEstimate(mu0=d_min, mu1=d_max)


def normalize(series: ScanSeries, mode: str = "corrected") -> np.ndarray:
    """Normalized counts d' = (d - mu0)/(mu1 - mu0)."""
    if len(series) < 2:
        raise ValueError("need at least 2 scan points to normalize")
    levels = estimate_levels(series, mode)
    if not levels.mu1 > levels.mu0:
        raise FlatSeriesError(
            f"no modulation: open level {levels.mu1:g} <= blocked level {levels.mu0:g}"
        )
    return (series.raw - levels.mu0) / (levels.mu1 - levels.mu0)


def search_position(
    profile: TransmissivityProfile,
    d: np.ndarray,
    template: np.ndarray,
) -> int:
    """Offset minimizing ||A_p * template - d'||^2 over all feasible p.

    Evaluated for every offset at once through sliding correlations (the
    residual at p needs only the window sums r[p+m] = sum_n a[p+m+n] t_n),
    so the exhaustive search is O(L*M) rather than O(L*M*N). Ties break
    toward the smallest offset.
    """
    a = profile.values
    t = np.asarray(template, dtype=float)
    m, n = d.size, t.size
    last = a.size - m - n + 1  # largest feasible offset
    if last < 0:
        raise ValueError(
            f"profile of length {a.size} cannot host a scan of {m} points "
            f"with an {n}-cell signal"
        )
    window_dots = np.correlate(a, t, mode="valid")  # r[j] = sum_n a[j+n] t_n
    cum = np.concatenate([[0.0], np.cumsum(window_dots**2)])
    sliding_sq = cum[m:] - cum[:-m]  # sum_m r[p+m]^2 for each p
    cross = np.correlate(window_dots, d, mode="valid")  # sum_m r[p+m] d_m
    objective = sliding_sq - 2.0 * cross + float(d @ d)
    return int(np.argmin(objective))


def solve_signal(
    profile: TransmissivityProfile,
    d: np.ndarray,
    p: int,
    n_signal: int,
) -> np.ndarray:
    """Non-negative beam shape at offset p: argmin_{s>=0} ||A_p s - d'||^2."""
    matrix = build_coding_matrix(profile, p, d.size, n_signal)
    return nnls(matrix, d)


def recover(
    profile: TransmissivityProfile,
    d: np.ndarray,
    template: Signal,
    max_rounds: int = 3,
) -> RecoveryResult:
    """Alternate position search and shape solve until the position settles.

    ``d`` holds normalized counts, as ``normalize`` returns them. Round 1
    searches with the supplied template (rescaled to unit sum to match
    normalized-count units) and solves for the shape there; further
    rounds re-search with the recovered shape as the template and re-solve,
    stopping as soon as the position repeats or ``max_rounds`` is reached.
    The residual never increases between rounds: each half-step minimizes
    the same objective in one block of variables.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    n = len(template)

    position = search_position(profile, d, template.unit_sum().values)
    signal = solve_signal(profile, d, position, n)
    rounds = 1
    while rounds < max_rounds and signal.sum() > 0.0:
        again = search_position(profile, d, signal)
        if again == position:
            break
        position = again
        signal = solve_signal(profile, d, position, n)
        rounds += 1

    matrix = build_coding_matrix(profile, position, d.size, n)
    residual = float(np.sum((matrix @ signal - d) ** 2))
    return RecoveryResult(position=position, signal=signal, residual=residual, rounds=rounds)
