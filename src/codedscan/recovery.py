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
from .nnls import NumericalFailureError, nnls

# Rows per stacked shape solve: bounds the (rows, M, N) stack of coding
# matrices that one ``nnls`` call holds.
STACK_ROWS = 64


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
    A (T, M) stack gets the (T,) levels of its rows.
    """
    if mode not in ("corrected", "minmax"):
        raise ValueError(f"unknown normalization mode {mode!r}")
    d_min = series.raw.min(axis=-1)
    d_max = series.raw.max(axis=-1)
    if mode == "corrected":
        with np.errstate(invalid="ignore"):  # inf counts give a nan level, as floats do
            return NormalizationEstimate(
                mu0=d_min + 2.0 * np.sqrt(d_min), mu1=d_max - 2.0 * np.sqrt(d_max)
            )
    return NormalizationEstimate(mu0=d_min, mu1=d_max)


def normalize(series: ScanSeries, mode: str = "corrected"):
    """Normalized counts d' = (d - mu0)/(mu1 - mu0).

    One series gives its normalized counts, or raises ``FlatSeriesError``
    if it has no modulation (open level <= blocked level). A (T, M) stack
    gives ``(normalized, flat)``: the (T,) bool mask ``flat`` of such
    rows, and the normalized counts of the other rows, in order. Each row
    equals its normalization alone.
    """
    if len(series) < 2:
        raise ValueError("need at least 2 scan points to normalize")
    levels = estimate_levels(series, mode)
    raw, mu0, mu1 = np.atleast_2d(series.raw), np.atleast_1d(levels.mu0), np.atleast_1d(levels.mu1)
    flat = ~(mu1 > mu0)
    if series.raw.ndim == 1 and flat[0]:
        raise FlatSeriesError(
            f"no modulation: open level {levels.mu1:g} <= blocked level {levels.mu0:g}"
        )
    keep = ~flat
    normalized = (raw[keep] - mu0[keep, None]) / (mu1 - mu0)[keep, None]
    return normalized[0] if series.raw.ndim == 1 else (normalized, flat)


def _template_terms(a: np.ndarray, t: np.ndarray, m: int) -> tuple:
    """Window dots r[j] = sum_n a[j+n] t_n and, per offset p, sum_m r[p+m]^2."""
    last = a.size - m - t.size + 1  # largest feasible offset
    if last < 0:
        raise ValueError(
            f"profile of length {a.size} cannot host a scan of {m} points "
            f"with an {t.size}-cell signal"
        )
    window_dots = np.correlate(a, t, mode="valid")
    cum = np.concatenate([[0.0], np.cumsum(window_dots**2)])
    return window_dots, cum[m:] - cum[:-m]


def _best_offset(window_dots: np.ndarray, sliding_sq: np.ndarray, d: np.ndarray) -> int:
    cross = np.correlate(window_dots, d, mode="valid")  # sum_m r[p+m] d_m
    objective = sliding_sq - 2.0 * cross + float(d @ d)
    return int(np.argmin(objective))


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
    terms = _template_terms(profile.values, np.asarray(template, dtype=float), d.size)
    return _best_offset(*terms, d)


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
    the same objective in one block of variables. Raises
    ``NumericalFailureError`` if a shape solve does not converge.
    """
    (result,) = recover_batch(profile, np.asarray(d)[None], template, max_rounds)
    if isinstance(result, NumericalFailureError):
        raise result
    return result


def recover_batch(
    profile: TransmissivityProfile,
    d,
    template: Signal,
    max_rounds: int = 3,
) -> list:
    """``recover`` for every row of ``d``, a (T, M) stack of normalized series.

    Returns one entry per row: its ``RecoveryResult``, or the
    ``NumericalFailureError`` that its own shape solve ended in. Row i is
    ``recover(profile, d[i], template, max_rounds)`` bit for bit. The
    round-1 template terms are computed once; each round solves all rows
    whose position moved in one stacked ``nnls`` call, ``STACK_ROWS`` rows
    at a time.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if len(d) == 0:
        return []
    d = np.asarray(d, dtype=float)
    if d.ndim != 2:
        raise ValueError(f"expected a (T, M) stack of series, got shape {d.shape}")
    terms = _template_terms(profile.values, template.unit_sum().values, d.shape[1])
    results = []
    for start in range(0, len(d), STACK_ROWS):
        chunk = d[start : start + STACK_ROWS]
        results += _recover_stack(profile, chunk, terms, len(template), max_rounds)
    return results


def _recover_stack(profile, d, terms, n, max_rounds) -> list:
    """``recover_batch`` on at most ``STACK_ROWS`` rows, given the round-1 terms."""
    count, m = d.shape
    positions = [_best_offset(*terms, row) for row in d]
    signals = [None] * count
    matrices = [None] * count  # each row's coding matrix at its last solve
    failures = {}
    rounds = [1] * count
    moving = list(range(count))
    for round_index in range(max_rounds):
        if round_index:
            # Re-search with each recovered shape; a row stops once it repeats.
            moved = []
            for i in moving:
                again = search_position(profile, d[i], signals[i])
                if again != positions[i]:
                    positions[i] = again
                    rounds[i] += 1
                    moved.append(i)
            moving = moved
        if not moving:
            break
        stack = build_coding_matrix(profile, np.array([positions[i] for i in moving]), m, n)
        x, converged = nnls(stack, d[moving])
        for k, i in enumerate(moving):
            if converged[k]:
                signals[i], matrices[i] = x[k], stack[k]
            else:
                failures[i] = NumericalFailureError(
                    f"no convergence for the shape at offset {positions[i]}", x[k]
                )
        moving = [i for k, i in enumerate(moving) if converged[k] and x[k].sum() > 0.0]

    # Every residual in one stacked product and one row sum.
    solved = [i for i in range(count) if i not in failures]
    residuals = {}
    if solved:
        stack = np.stack([matrices[i] for i in solved])
        fits = (stack @ np.stack([signals[i] for i in solved])[..., None])[..., 0]
        residuals = dict(zip(solved, ((fits - d[solved]) ** 2).sum(axis=1).tolist()))
    return [
        failures[i] if i in failures
        else RecoveryResult(positions[i], signals[i], residuals[i], rounds[i])
        for i in range(count)
    ]
